"""``strict`` is one plain switch: no signature defers it to anything.

Every function or method in ``repro`` that takes a ``strict`` parameter
annotates it ``bool`` and, when it has a default, defaults to a bool.
A ``None`` default (or an ``Optional[bool]``) would let the argument
mean "whatever some other setting says", which is the tri-state this
census keeps out.
"""

import importlib
import inspect
import pkgutil

import repro


def _functions(module):
    """Functions and methods defined in ``module`` (not imported)."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for member in vars(obj).values():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield member


def _strict_parameters():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for fn in _functions(module):
            param = inspect.signature(fn).parameters.get("strict")
            if param is not None:
                yield f"{fn.__module__}.{fn.__qualname__}", param


def test_every_strict_parameter_is_a_plain_bool():
    census = dict(_strict_parameters())
    # The census must reach the layers the flag runs through.
    for name in ("repro.harness.runner.run_once",
                 "repro.faults.run.run_with_faults",
                 "repro.streaming.engines.run_streaming",
                 "repro.scheduler.core.run_tenancy",
                 "repro.streaming.sweep.degradation_sweep",
                 "repro.harness.figures.tab07_large_graph",
                 "repro.cli._trace_task"):
        assert name in census, name
    offenders = sorted(
        name for name, param in census.items()
        if param.annotation not in (bool, "bool")
        or not (param.default is inspect.Parameter.empty
                or isinstance(param.default, bool)))
    assert offenders == [], (
        f"{len(offenders)} of {len(census)} strict parameters are not a "
        f"plain bool: {offenders}")
