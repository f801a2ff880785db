"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the available workloads, figure experiments and presets.
``run``
    Run one workload on one engine at a given scale and print the
    correlated figure (plan + resource panels).
``figure``
    Regenerate one of the paper's figures (fig01..fig17) or one of the
    extension figures (fig18..fig23).
``table7``
    Regenerate Table VII (the Large-graph grid).
``explain``
    Print both engines' physical plans for a workload without running.
``faults``
    Inject a node crash mid-run and report each engine's recovery cost:
    ``--mode simulate`` replays the failure inside the simulation
    (task re-execution for Spark, full pipeline restart for Flink),
    ``--mode estimate`` uses the fast analytic lineage/restart model,
    ``--mode both`` prints them side by side.
``trace``
    Run a workload with the span tracer attached and report the
    critical path plus each stage's dominant resource; ``--out DIR``
    additionally writes a ``chrome://tracing`` JSON and span /
    critical-path CSVs per engine.
``resilience``
    Run the stochastic resilience campaign (``fig19``): seeded
    Poisson/MTTF fault arrivals per node, optional persistent
    stragglers, slowdown and availability versus fault rate for both
    engines.  ``--checkpoint DIR`` journals every finished cell so a
    killed campaign resumes bit-identically with ``--resume``; cells
    that crash or time out become explicit gaps (non-zero exit only
    under ``--strict``).
``streaming``
    Run the executed streaming engines (continuous-operator vs
    micro-batch D-Streams on the fluid kernel): the latency-vs-load
    sweep (``fig20``, Poisson + bursty MMPP arrivals) or, with
    ``--recovery``, the recovery-time-vs-checkpoint-interval sweep
    (``fig21``, node crash mid-run), or, with ``--degrade``, the
    overload-survival sweep (``fig22``: load multiples of the
    stability boundary x stochastic fault rates x degradation
    policies — restart strategies, load shedding, adaptive batching).
    Checkpointable and resumable like ``resilience``.
``tenancy``
    Run the multi-tenant scheduling campaign (``fig23``): a seeded
    Poisson mix of Spark and Flink jobs shares one cluster under a
    queue policy (``fifo`` / ``fair`` / ``capacity``) with quotas,
    admission control and engine-faithful preemption (Spark lineage
    re-execution vs Flink restart); reports per-policy job slowdown,
    queue wait vs utilization and Jain fairness vs offered load.
    Checkpointable and resumable like ``resilience``.
``validate``
    Self-check the simulator: run the replay scenarios under strict
    invariant checking; with ``--replay``, also compare their trace
    digests against the goldens in ``tests/golden/``.

``run``, ``figure``, ``table7``, ``faults``, ``trace`` and the
campaigns accept ``--strict``: the run attaches an invariant checker
and fails loudly on any violation.  A simulated run that fails
(Table VII's out-of-memory cells) makes ``run``, ``trace`` and
``faults`` print one ``error: ...`` line and exit 1.

Campaigns
---------
``resilience``, ``streaming``, ``tenancy`` and ``figure`` (the scaling
figures and fig19-fig23) are checkpointable.  Each runs through
:func:`repro.harness.campaign.run_campaign`; this module opens and
closes the ``--checkpoint`` store and reports gaps in one place
(:func:`_campaign`).  The store's fingerprint is every parsed argument
except the ones that only choose how a campaign runs (``--jobs``,
``--timeout``, ``--retries``, ``--checkpoint``, ``--resume``,
``--strict``), so a resume with different arguments exits 2 with
``error: ...`` instead of mixing campaigns.  Flags shared between
subcommands are declared once, as parent parsers, and an out-of-range
value is a usage error (exit 2).

Examples
--------
python -m repro run --engine flink --workload wordcount --nodes 8
python -m repro figure fig04 --trials 3 --strict
python -m repro explain --workload terasort --nodes 17
python -m repro table7 --nodes 97
python -m repro faults --workload wordcount --nodes 4 --fail-at 0.5
python -m repro faults --workload terasort --nodes 4 --mode both --strict
python -m repro trace --workload wordcount --nodes 8 --out traces/
python -m repro resilience --rates 0 0.5 1 2 --trials 3 \\
    --checkpoint runs/fig19 --resume
python -m repro streaming --loads 0.3 0.6 0.9
python -m repro streaming --recovery --crash-at 23 \\
    --checkpoint runs/fig21 --resume
python -m repro streaming --degrade --load-multiples 1.0 1.5 2.0 \\
    --fault-rates 0 0.5 --checkpoint runs/fig22 --resume
python -m repro tenancy --policies fifo fair --loads 0.3 0.6 0.9 \\
    --checkpoint runs/fig23 --resume
python -m repro validate --replay
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, Optional

from .core import render_bar_table, render_run
from .harness import figures as figure_registry
from .harness.checkpoint import CheckpointError, CheckpointStore
from .harness.runner import RunFailed, deploy, run_correlated, run_traced
from .workloads.catalogue import WORKLOADS, build_config, build_workload

__all__ = ["main", "build_workload", "build_config", "WORKLOADS",
           "FIGURES"]

FIGURES = {
    "fig01": figure_registry.fig01_wordcount_weak,
    "fig02": figure_registry.fig02_wordcount_strong,
    "fig04": figure_registry.fig04_grep_weak,
    "fig05": figure_registry.fig05_grep_strong,
    "fig07": figure_registry.fig07_terasort_weak,
    "fig08": figure_registry.fig08_terasort_strong,
    "fig11": figure_registry.fig11_kmeans_scaling,
    "fig12": figure_registry.fig12_pagerank_small,
    "fig13": figure_registry.fig13_pagerank_medium,
    "fig14": figure_registry.fig14_cc_small,
    "fig15": figure_registry.fig15_cc_medium,
}

#: fig19-fig23: fault-tolerant, checkpointable campaigns with gaps.
CAMPAIGN_FIGURES = {
    "fig19": figure_registry.fig19_resilience,
    "fig20": figure_registry.fig20_streaming_latency,
    "fig21": figure_registry.fig21_streaming_recovery,
    "fig22": figure_registry.fig22_degradation,
    "fig23": figure_registry.fig23_tenancy,
}

RESOURCE_FIGURES = {
    "fig03": figure_registry.fig03_wordcount_resources,
    "fig06": figure_registry.fig06_grep_resources,
    "fig09": figure_registry.fig09_terasort_resources,
    "fig10": figure_registry.fig10_kmeans_resources,
    "fig16": figure_registry.fig16_pagerank_resources,
    "fig17": figure_registry.fig17_cc_resources,
}


# ----------------------------------------------------------------------
# campaigns: one fingerprint, one store, one gap report
# ----------------------------------------------------------------------
#: Parsed arguments that choose how a campaign runs, never what it
#: computes.  The checkpoint fingerprint leaves them out, so a campaign
#: resumes under another --jobs, --strict or retry policy.
_RUN_ONLY = frozenset({"jobs", "timeout", "retries", "checkpoint",
                       "resume", "strict"})


def _fingerprint(args) -> Dict[str, object]:
    """The identity a ``--checkpoint`` store pins: every parsed argument,
    ``command`` included, except the :data:`_RUN_ONLY` ones."""
    return {k: v for k, v in vars(args).items() if k not in _RUN_ONLY}


def _campaign(args, build: Callable[[Optional[CheckpointStore]], object]
              ) -> int:
    """Run one checkpointable campaign and report it.

    The one place the CLI opens and closes a ``--checkpoint`` store and
    reports gaps: ``build(store)`` computes the figure through the
    store (``None`` without ``--checkpoint``).  Exit 1 when cells are
    missing under ``--strict``, and 2 when the store cannot be opened:
    a leftover store without ``--resume``, or a resume whose arguments
    differ from the recorded campaign's.
    """
    store = None
    if args.checkpoint is not None:
        try:
            store = CheckpointStore(args.checkpoint, _fingerprint(args),
                                    resume=args.resume)
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        fig = build(store)
    finally:
        if store is not None:
            store.close()
    if isinstance(fig, figure_registry.ScalingFigure):
        print(render_bar_table(fig.series.values(), title=fig.title))
        return 0
    print(fig.describe())
    if fig.gaps:
        print(f"{len(fig.gaps)} cell(s) missing (worker crash/timeout); "
              f"rerun with --checkpoint/--resume to fill them in",
              file=sys.stderr)
        if args.strict:
            return 1
    return 0


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_list(_args) -> int:
    print("workloads:", ", ".join(WORKLOADS))
    print("scaling figures:", ", ".join(sorted(FIGURES)))
    print("resource figures:", ", ".join(sorted(RESOURCE_FIGURES)))
    print("fault figures: fig18")
    print("resilience figures: fig19")
    print("streaming figures: fig20 fig21 fig22")
    print("tenancy figures: fig23")
    print("tables: table7")
    return 0


def cmd_run(args) -> int:
    workload = build_workload(args.workload, args.nodes, graph=args.graph,
                              iterations=args.iterations)
    config = build_config(args.workload, args.nodes)
    try:
        run = run_correlated(args.engine, workload, config,
                             seed=args.seed, strict=args.strict)
    except RunFailed as exc:
        print(f"error: {args.engine}: {exc}", file=sys.stderr)
        return 1
    print(render_run(run))
    print()
    print(f"bottleneck: {', '.join(run.bottleneck(threshold=40))}")
    return 0


def cmd_figure(args) -> int:
    fig_id = args.id
    if fig_id in FIGURES:
        return _campaign(args, lambda store: FIGURES[fig_id](
            trials=args.trials, seed=args.seed, strict=args.strict,
            jobs=args.jobs, checkpoint=store))
    if fig_id in CAMPAIGN_FIGURES:
        trials = ({"trials": args.trials} if fig_id in ("fig19", "fig23")
                  else {})
        return _campaign(args, lambda store: CAMPAIGN_FIGURES[fig_id](
            seed=args.seed, strict=args.strict, jobs=args.jobs,
            checkpoint=store, **trials))
    if args.checkpoint is not None and (fig_id in RESOURCE_FIGURES
                                        or fig_id == "fig18"):
        print(f"error: {fig_id} is not checkpointable (resource and fault "
              f"figures journal whole runs); rerun without --checkpoint",
              file=sys.stderr)
        return 2
    if fig_id in RESOURCE_FIGURES:
        fig = RESOURCE_FIGURES[fig_id](seed=args.seed, strict=args.strict,
                                       jobs=args.jobs)
        for run in fig.runs.values():
            print(render_run(run))
            print()
        return 0
    if fig_id == "fig18":
        fig = figure_registry.fig18_fault_recovery(seed=args.seed,
                                                   strict=args.strict,
                                                   jobs=args.jobs)
        print(fig.title)
        for c in fig.cells:
            if not c.success:
                print(f"  {c.engine:5s} {c.workload:10s} "
                      f"fail@{c.fail_at_fraction:.2f}: FAILED ({c.failure})")
                continue
            print(f"  {c.engine:5s} {c.workload:10s} "
                  f"fail@{c.fail_at_fraction:.2f}: "
                  f"{c.baseline_seconds:6.1f}s -> sim "
                  f"{c.simulated_seconds:6.1f}s / analytic "
                  f"{c.analytic_seconds:6.1f}s "
                  f"({c.retries} retries, {c.restarts} restarts)")
        return 0
    known = (sorted(FIGURES) + sorted(RESOURCE_FIGURES)
             + ["fig18"] + sorted(CAMPAIGN_FIGURES))
    print(f"unknown figure {fig_id!r}; try one of {known}",
          file=sys.stderr)
    return 2


def cmd_resilience(args) -> int:
    from .resilience.sweep import default_workloads, resilience_sweep
    workloads = default_workloads(args.nodes)
    if args.workloads:
        wanted = set(args.workloads)
        workloads = [w for w in workloads if w[0] in wanted]
    return _campaign(args, lambda store: resilience_sweep(
        workloads=workloads, engines=args.engines, rates=args.rates,
        trials=args.trials, nodes=args.nodes, seed=args.seed,
        stragglers=args.stragglers, strict=args.strict,
        jobs=args.jobs, timeout=args.timeout, retries=args.retries,
        checkpoint=store))


def cmd_streaming(args) -> int:
    from .streaming.arrivals import slice_count
    from .streaming.sweep import degradation_sweep, streaming_sweep
    if args.degrade and args.recovery:
        print("--degrade and --recovery are mutually exclusive",
              file=sys.stderr)
        return 2
    try:
        slice_count(args.duration)  # refuse before a store is opened
    except ValueError as exc:
        print(f"error: --duration: {exc}", file=sys.stderr)
        return 2
    if args.degrade:
        return _campaign(args, lambda store: degradation_sweep(
            figure_id="fig22", engines=args.engines,
            load_multiples=tuple(args.load_multiples),
            fault_rates=tuple(args.fault_rates),
            policies=tuple(args.policies), nodes=args.nodes,
            seed=args.seed, duration=args.duration,
            batch_interval=args.batch_interval,
            strict=args.strict, jobs=args.jobs,
            timeout=args.timeout, retries=args.retries,
            checkpoint=store))
    if args.recovery:
        shape = dict(figure_id="fig21", arrival_kinds=("poisson",),
                     load_fractions=(args.load,),
                     checkpoint_intervals=tuple(args.checkpoint_intervals),
                     crash_at=args.crash_at)
    else:
        shape = dict(figure_id="fig20", arrival_kinds=tuple(args.arrivals),
                     load_fractions=tuple(args.loads))
    return _campaign(args, lambda store: streaming_sweep(
        engines=args.engines, nodes=args.nodes, seed=args.seed,
        duration=args.duration, batch_interval=args.batch_interval,
        strict=args.strict, jobs=args.jobs, timeout=args.timeout,
        retries=args.retries, checkpoint=store, **shape))


def cmd_tenancy(args) -> int:
    from .scheduler.sweep import (default_queues, default_templates,
                                  tenancy_sweep)
    loads = tuple(args.loads)
    nodes = args.nodes
    jobs_target = args.jobs_per_cell
    if args.quick:
        nodes = min(nodes, 4)
        loads = (0.5, 0.9)
        jobs_target = min(jobs_target, 6)
    return _campaign(args, lambda store: tenancy_sweep(
        policies=tuple(args.policies), loads=loads, trials=args.trials,
        nodes=nodes, seed=args.seed, jobs_target=jobs_target,
        crash_rate=args.crash_rate, templates=default_templates(nodes),
        queues=default_queues(nodes), strict=args.strict,
        jobs=args.jobs, timeout=args.timeout, retries=args.retries,
        checkpoint=store))


def cmd_serve(args) -> int:
    import asyncio
    from .serve import AdvisorService
    store = None
    if args.cache:
        try:
            store = CheckpointStore(
                args.cache, {"campaign": "serve-cache", "version": 1},
                resume=True, on_corrupt="quarantine")
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if store.quarantined_keys:
            print(f"cache journal: quarantined "
                  f"{len(store.quarantined_keys)} corrupt record(s)",
                  file=sys.stderr)

    async def run() -> None:
        service = AdvisorService(
            host=args.host, port=args.port, jobs=args.jobs or 2,
            queue_limit=args.queue_limit,
            default_deadline=args.deadline,
            client_timeout=args.client_timeout,
            task_timeout=args.timeout or 30.0, retries=args.retries,
            breaker_threshold=args.breaker_threshold,
            breaker_reset=args.breaker_reset,
            drain_grace=args.drain_grace, cache_store=store)
        await service.start()
        service.install_signal_handlers()
        print(f"repro serve listening on "
              f"http://{service.host}:{service.port} "
              f"(workers={service.pool.jobs}, "
              f"queue_limit={service.queue_limit})", flush=True)
        await service.serve_forever()
        print(f"drained; {service.ledger.describe()}", flush=True)

    asyncio.run(run())
    return 0


def cmd_plan(args) -> int:
    import json as _json
    from .serve import (CapacityQuery, PlanError, PoolError,
                        plan_capacity_sync)
    try:
        query = CapacityQuery(
            workload=args.workload, slo_seconds=args.slo,
            engines=tuple(args.engines),
            nodes_candidates=tuple(args.nodes_candidates),
            seed=args.seed, data_scale=args.data_scale)
    except PlanError as exc:
        print(f"invalid query: {exc}", file=sys.stderr)
        return 2
    try:
        payload = plan_capacity_sync(query, jobs=args.jobs,
                                     timeout=args.timeout,
                                     retries=args.retries)
    except PoolError as exc:
        # A worker crashed or timed out past its retries: the service
        # answers 500, and so does this.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0 if payload["answer"]["feasible"] else 1
    answer = payload["answer"]
    print(f"query {payload['query_digest'][:12]}: {args.workload} "
          f"under {args.slo:g}s SLO "
          f"({len(payload['cells'])} candidate(s) considered)")
    for cell in payload["cells"]:
        result = cell["result"]
        verdict = (f"{result['duration']:.1f}s" if result["duration"]
                   is not None else f"infeasible ({result['reason']})")
        overrides = ", ".join(f"{k}={v}" for k, v in
                              cell["candidate"]["overrides"].items())
        print(f"  {cell['candidate']['engine']:>5} x "
              f"{cell['candidate']['nodes']:>3} nodes"
              + (f" [{overrides}]" if overrides else "")
              + f": {verdict}")
    if not answer["feasible"]:
        print(f"no feasible configuration: {answer['reason']}")
        return 1
    overrides = ", ".join(f"{k}={v}" for k, v in
                          answer["overrides"].items()) or "preset"
    print(f"answer: {answer['engine']} x {answer['nodes']} nodes "
          f"({overrides}) -> {answer['duration']:.1f}s "
          f"({answer['headroom_seconds']:.1f}s headroom) "
          f"[{payload['answer_digest'][:12]}]")
    return 0


def cmd_faults(args) -> int:
    from .faults import (FaultPlan, FlinkRestartPolicy, RetryPolicy,
                         run_with_faults)
    from .harness.faults import run_with_failure
    workload = build_workload(args.workload, args.nodes, graph=args.graph)
    config = build_config(args.workload, args.nodes)
    status = 0
    for engine in args.engines:
        try:
            if args.mode in ("estimate", "both"):
                estimate = run_with_failure(engine, workload, config,
                                            fail_at_fraction=args.fail_at,
                                            seed=args.seed)
                print(f"estimate  {estimate.describe()}")
            if args.mode in ("simulate", "both"):
                restart_after = (None if args.restart_after < 0
                                 else args.restart_after)
                plan = FaultPlan.single_crash(
                    args.fail_at, node=args.crash_node,
                    restart_after=restart_after)
                faulted = run_with_faults(
                    engine, workload, config, plan, seed=args.seed,
                    retry_policy=RetryPolicy(backoff=args.backoff),
                    restart_policy=FlinkRestartPolicy(
                        restart_delay=args.restart_delay),
                    strict=args.strict)
                print(f"simulated {faulted.describe()}")
                if args.timeline:
                    print(faulted.timeline.describe())
                if not faulted.success:
                    status = 1
        except RunFailed as exc:
            # The fault-free baseline itself failed: nothing to inject.
            print(f"error: {engine}: {exc}", file=sys.stderr)
            status = 1
    return status


def _render_trace(traced) -> str:
    """Human-readable critical-path + attribution report for one run."""
    res = traced.result
    tree = traced.tree
    path = traced.critical_path
    lines = [
        f"{res.engine}/{res.workload} x{res.nodes}: {res.duration:.1f}s, "
        f"{len(tree)} spans ({len(tree.of_kind('stage'))} stages, "
        f"{len(tree.of_kind('operator'))} operators, "
        f"{len(tree.of_kind('task'))} tasks)",
        f"critical path: {path.length:.1f}s across "
        f"{len(path.segments)} segments (makespan {path.makespan:.1f}s)",
    ]
    for seg in path.top_contributors(5):
        share = (100.0 * seg.duration / path.makespan
                 if path.makespan > 0 else 0.0)
        lines.append(f"  {share:5.1f}%  {seg.kind:8s} {seg.name}")
    lines.append("stage attribution:")
    for span in tree.of_kind("stage"):
        attr = traced.attribution.get(span.id)
        dom = ("+".join(attr.dominant_resources())
               if attr is not None else "?")
        it = f" (iter {span.iteration})" if span.iteration else ""
        lines.append(f"  [{span.start:8.1f}s - {span.end:8.1f}s] "
                     f"{dom:12s} {span.name}{it}")
    return "\n".join(lines)


def _trace_task(engine: str, workload, config, seed: int,
                strict: bool = False):
    """:func:`run_traced` as a fan-out task.  A failed run comes back as
    its :class:`RunFailed`, which pickles, so ``trace`` reports it the
    same way at every ``--jobs``."""
    try:
        return run_traced(engine, workload, config, seed, strict)
    except RunFailed as exc:
        return exc


def cmd_trace(args) -> int:
    import json
    import pathlib

    from .harness.parallel import parallel_map
    from .observability import (chrome_trace_payload, critical_path_csv,
                                spans_csv)
    workload = build_workload(args.workload, args.nodes, graph=args.graph,
                              iterations=args.iterations)
    config = build_config(args.workload, args.nodes)
    # Engines fan out like any other independent runs; results return
    # in submission order, so the report (and any exported files) are
    # bit-identical at every --jobs value.
    tasks = [(engine, workload, config, args.seed, args.strict)
             for engine in args.engines]
    traced_runs = parallel_map(_trace_task, tasks, jobs=args.jobs)
    status = 0
    for engine, traced in zip(args.engines, traced_runs):
        if isinstance(traced, RunFailed):
            print(f"error: {engine}: {traced}", file=sys.stderr)
            status = 1
            continue
        print(_render_trace(traced))
        if args.out:
            outdir = pathlib.Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            stem = f"trace-{args.workload}-{engine}-{args.nodes}n"
            payload = chrome_trace_payload(
                traced.tree, traced.attribution,
                label=f"{engine}/{args.workload}")
            (outdir / f"{stem}.json").write_text(
                json.dumps(payload, sort_keys=True, indent=1))
            (outdir / f"{stem}-spans.csv").write_text(
                spans_csv(traced.tree, traced.attribution))
            (outdir / f"{stem}-critical-path.csv").write_text(
                critical_path_csv(traced.critical_path))
            print(f"wrote {outdir / stem}.json "
                  f"(+ -spans.csv, -critical-path.csv)")
        print()
    return status


def cmd_table7(args) -> int:
    cells = figure_registry.tab07_large_graph(
        seed=args.seed, node_counts=tuple(args.nodes),
        strict=args.strict, jobs=args.jobs)
    print("Table VII - Large graph (Load / Iter seconds; 'no' = failed)")
    for cell in cells:
        status = (f"load {cell.load_seconds:7.0f}s  iter "
                  f"{cell.iter_seconds:7.0f}s" if cell.success else
                  f"no ({cell.failure[:60]})")
        print(f"  {cell.nodes:3d}n {cell.workload} {cell.engine:5s}: "
              f"{status}")
    return 0


def cmd_explain(args) -> int:
    workload = build_workload(args.workload, args.nodes, graph=args.graph)
    config = build_config(args.workload, args.nodes)
    for engine in ("spark", "flink"):
        deployment = deploy(engine, workload, config)
        for plan in workload.jobs(engine):
            print(deployment.engine.explain(plan))
            print()
    return 0


def cmd_validate(args) -> int:
    from .validation import replay
    names = args.scenarios or sorted(replay.SCENARIOS)
    unknown = sorted(set(names) - set(replay.SCENARIOS))
    if unknown:
        print(f"error: unknown scenario(s) {', '.join(unknown)}; "
              f"available: {', '.join(sorted(replay.SCENARIOS))}",
              file=sys.stderr)
        return 2
    if args.update_golden:
        digests = replay.compute_digests(names, seed=args.seed)
        path = replay.save_golden(digests, path=args.golden, seed=args.seed)
        for name in sorted(digests):
            print(f"  {name}: {digests[name]}")
        print(f"golden digests written to {path}")
        return 0
    if args.replay:
        problems = replay.verify_replay(names, seed=args.seed,
                                        path=args.golden)
        if problems:
            for problem in problems:
                print(f"REPLAY MISMATCH {problem}", file=sys.stderr)
            return 1
        print(f"replay ok: {len(names)} scenario(s) reproduce their "
              f"golden digests under strict invariant checking")
        return 0
    # No --replay: just run the scenarios with invariant checking on.
    for name in names:
        replay.SCENARIOS[name].run(args.seed)
        print(f"  {name}: invariants ok")
    print(f"validated {len(names)} scenario(s), zero invariant violations")
    return 0


def _at_least(kind: Callable[[str], Any], low: float,
              strict: bool = False) -> Callable[[str], Any]:
    """An argparse ``type``: ``kind(text)``, which must be at least
    ``low`` (above it when ``strict``)."""
    def parse(text: str) -> Any:
        value = kind(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low:g}, got {text}")
        return value
    parse.__name__ = kind.__name__  # "invalid int value: ..." on junk
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Spark versus Flink' (CLUSTER 2016)")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several subcommands, declared once as parents.
    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument("--strict", action="store_true",
                        help="audit simulator invariants during the runs; "
                             "campaigns also exit 1 on missing cells")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=_at_least(int, 0), default=None,
                      help="worker processes (default: $REPRO_JOBS or "
                           "serial; serve: 2); results are identical at "
                           "any count")
    resumable = argparse.ArgumentParser(add_help=False)
    resumable.add_argument("--checkpoint", default=None, metavar="DIR",
                           help="journal every finished cell to DIR (for "
                                "figure: the scaling figures and "
                                "fig19-fig23)")
    resumable.add_argument("--resume", action="store_true",
                           help="resume a killed campaign from "
                                "--checkpoint DIR (digest-identical to an "
                                "uninterrupted run)")
    retried = argparse.ArgumentParser(add_help=False)
    retried.add_argument("--timeout", "--task-timeout",
                         type=_at_least(float, 0, strict=True),
                         default=None, dest="timeout",
                         help="per-cell wall-clock timeout in seconds "
                              "(campaigns: parallel runs only; serve: "
                              "30); a timed-out cell becomes a gap, not "
                              "an abort")
    retried.add_argument("--retries", "--task-retries",
                         type=_at_least(int, 0), default=1, dest="retries",
                         help="retries of a cell whose worker crashed or "
                              "timed out; an exception is never retried")
    campaign = [strict, jobs, retried, resumable]

    sub.add_parser("list", help="available workloads and figures")

    p_run = sub.add_parser("run", parents=[strict],
                           help="run one workload once")
    p_run.add_argument("--engine", choices=("spark", "flink"),
                       required=True)
    p_run.add_argument("--workload", choices=WORKLOADS, required=True)
    p_run.add_argument("--nodes", type=int, default=8)
    p_run.add_argument("--graph", choices=("small", "medium", "large"),
                       default="small")
    p_run.add_argument("--iterations", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=0)

    p_fig = sub.add_parser("figure", parents=[strict, jobs, resumable],
                           help="regenerate a paper figure")
    p_fig.add_argument("id", help="fig01..fig23")
    p_fig.add_argument("--trials", type=int, default=3)
    p_fig.add_argument("--seed", type=int, default=0)

    p_t7 = sub.add_parser("table7", parents=[strict, jobs],
                          help="regenerate Table VII")
    p_t7.add_argument("--nodes", type=int, nargs="+",
                      default=[27, 44, 97])
    p_t7.add_argument("--seed", type=int, default=0)

    p_flt = sub.add_parser(
        "faults", parents=[strict],
        help="inject a node crash and measure recovery")
    p_flt.add_argument("--workload", choices=WORKLOADS, required=True)
    p_flt.add_argument("--engines", nargs="+",
                       choices=("spark", "flink"),
                       default=["flink", "spark"])
    p_flt.add_argument("--nodes", type=int, default=4)
    p_flt.add_argument("--graph", choices=("small", "medium", "large"),
                       default="small")
    p_flt.add_argument("--mode", choices=("simulate", "estimate", "both"),
                       default="simulate",
                       help="in-simulation recovery, fast analytic "
                            "estimate, or both")
    p_flt.add_argument("--fail-at", type=float, default=0.5,
                       help="crash point as a fraction of the baseline "
                            "duration (0, 1)")
    p_flt.add_argument("--crash-node", type=int, default=1,
                       help="node index to crash")
    p_flt.add_argument("--restart-after", type=float, default=0.0,
                       help="seconds (fraction of baseline) until the "
                            "machine rejoins; negative = never",)
    p_flt.add_argument("--backoff", type=float, default=3.0,
                       help="Spark task re-execution backoff seconds")
    p_flt.add_argument("--restart-delay", type=float, default=10.0,
                       help="Flink fixed-delay restart seconds")
    p_flt.add_argument("--timeline", action="store_true",
                       help="print the full fault/recovery timeline")
    p_flt.add_argument("--seed", type=int, default=0)

    p_ex = sub.add_parser("explain", help="print both physical plans")
    p_ex.add_argument("--workload", choices=WORKLOADS, required=True)
    p_ex.add_argument("--nodes", type=int, default=8)
    p_ex.add_argument("--graph", choices=("small", "medium", "large"),
                      default="small")

    p_tr = sub.add_parser(
        "trace", parents=[strict, jobs],
        help="span-trace a run: critical path, per-stage dominant "
             "resources, Chrome-trace/CSV export")
    p_tr.add_argument("--workload", choices=WORKLOADS, required=True)
    p_tr.add_argument("--engines", nargs="+", choices=("spark", "flink"),
                      default=["flink", "spark"])
    p_tr.add_argument("--nodes", type=int, default=8)
    p_tr.add_argument("--graph", choices=("small", "medium", "large"),
                      default="small")
    p_tr.add_argument("--iterations", type=int, default=None)
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument("--out", default=None,
                      help="directory for chrome-trace JSON + CSV export")

    p_res = sub.add_parser(
        "resilience", parents=campaign,
        help="stochastic fault campaign: slowdown/availability vs "
             "per-node fault rate (fig19), crash-safe and resumable")
    p_res.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                       default=None,
                       help="subset of workloads (default: all six)")
    p_res.add_argument("--engines", nargs="+", choices=("spark", "flink"),
                       default=["flink", "spark"])
    p_res.add_argument("--nodes", type=int, default=8)
    p_res.add_argument("--rates", type=float, nargs="+",
                       default=[0.0, 0.5, 1.0, 2.0],
                       help="per-node fault rates (events per node per "
                            "baseline run; MTTF = 1/rate)")
    p_res.add_argument("--trials", type=int, default=1)
    p_res.add_argument("--stragglers", type=int, default=0,
                       help="persistently slow nodes for the whole run")
    p_res.add_argument("--seed", type=int, default=0)

    p_str = sub.add_parser(
        "streaming", parents=campaign,
        help="executed streaming engines: latency vs load (fig20), "
             "--recovery: recovery vs checkpoint interval (fig21), "
             "--degrade: overload survival (fig22)")
    p_str.add_argument("--engines", nargs="+", choices=("spark", "flink"),
                       default=["flink", "spark"])
    p_str.add_argument("--arrivals", nargs="+",
                       choices=("poisson", "mmpp"),
                       default=["poisson", "mmpp"],
                       help="arrival processes for the latency sweep")
    p_str.add_argument("--loads", type=float, nargs="+",
                       default=[0.3, 0.6, 0.8, 0.95],
                       help="offered load as fractions of each engine's "
                            "analytic capacity (latency sweep)")
    p_str.add_argument("--recovery", action="store_true",
                       help="run the fig21 crash-recovery sweep instead "
                            "of the fig20 latency sweep")
    p_str.add_argument("--degrade", action="store_true",
                       help="run the fig22 overload-survival sweep "
                            "(load multiples x fault rates x policies)")
    p_str.add_argument("--load-multiples", type=float, nargs="+",
                       default=[1.0, 1.25, 1.5, 2.0],
                       help="offered load as multiples of each engine's "
                            "stability boundary (degradation sweep)")
    p_str.add_argument("--fault-rates", type=float, nargs="+",
                       default=[0.0, 0.5],
                       help="stochastic crash rates per node "
                            "(degradation sweep)")
    p_str.add_argument("--policies", nargs="+",
                       choices=("none", "degrade"),
                       default=["none", "degrade"],
                       help="degradation policies to compare "
                            "(degradation sweep)")
    p_str.add_argument("--load", type=float, default=0.5,
                       help="load fraction for the recovery sweep")
    p_str.add_argument("--checkpoint-intervals", type=float, nargs="+",
                       default=[1.5, 3.0, 6.0, 12.0],
                       help="checkpoint intervals for the recovery sweep")
    p_str.add_argument("--crash-at", type=float, default=23.0,
                       help="simulated crash time for the recovery sweep")
    p_str.add_argument("--nodes", type=int, default=8)
    p_str.add_argument("--duration", type=float, default=40.0,
                       help="seconds of offered load per cell")
    p_str.add_argument("--batch-interval", type=float, default=1.0,
                       help="micro-batch interval of the D-Stream engine")
    p_str.add_argument("--seed", type=int, default=0)

    p_ten = sub.add_parser(
        "tenancy", parents=campaign,
        help="multi-tenant scheduling campaign: job slowdown / queue "
             "wait / fairness vs offered load per queue policy (fig23), "
             "crash-safe and resumable")
    p_ten.add_argument("--policies", nargs="+",
                       choices=("fifo", "fair", "capacity"),
                       default=["fifo", "fair", "capacity"])
    p_ten.add_argument("--loads", type=float, nargs="+",
                       default=[0.3, 0.6, 0.9],
                       help="offered load as a fraction of cluster "
                            "capacity (arrival rate x mean job "
                            "node-seconds / nodes)")
    p_ten.add_argument("--trials", type=int, default=1)
    p_ten.add_argument("--nodes", type=int, default=8)
    p_ten.add_argument("--jobs-per-cell", type=int, default=12,
                       dest="jobs_per_cell",
                       help="expected job arrivals per campaign cell")
    p_ten.add_argument("--crash-rate", type=float, default=0.0,
                       help="expected node crashes per node per arrival "
                            "window (compiled, deterministic)")
    p_ten.add_argument("--quick", action="store_true",
                       help="shrunken campaign (4 nodes, two loads, ~6 "
                            "jobs/cell) for CI smoke")
    p_ten.add_argument("--seed", type=int, default=0)

    p_srv = sub.add_parser(
        "serve", parents=[jobs, retried],
        help="long-running capacity-advisor service (asyncio + "
             "process-isolated workers, circuit breaker, verified "
             "cache, graceful SIGTERM drain); see docs/serving.md")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=7472,
                       help="TCP port (0 picks a free one and prints it)")
    p_srv.add_argument("--queue-limit", type=_at_least(int, 1), default=8,
                       dest="queue_limit",
                       help="max concurrent plan requests before "
                            "shedding with 429")
    p_srv.add_argument("--deadline", type=float, default=30.0,
                       help="default per-request deadline in seconds "
                            "(overridable per request via "
                            "deadline_seconds)")
    p_srv.add_argument("--client-timeout", type=float, default=5.0,
                       dest="client_timeout",
                       help="seconds a client may take to deliver its "
                            "request before a 408")
    p_srv.add_argument("--breaker-threshold", type=_at_least(int, 1),
                       default=5,
                       dest="breaker_threshold",
                       help="consecutive worker failures that trip the "
                            "circuit breaker")
    p_srv.add_argument("--breaker-reset",
                       type=_at_least(float, 0, strict=True), default=0.5,
                       dest="breaker_reset",
                       help="initial open window in seconds (doubles "
                            "per consecutive trip)")
    p_srv.add_argument("--drain-grace", type=float, default=10.0,
                       dest="drain_grace",
                       help="seconds SIGTERM waits for in-flight "
                            "requests before shedding them")
    p_srv.add_argument("--cache", default=None, metavar="DIR",
                       help="persist the answer cache to DIR (checksum-"
                            "verified journal; survives restarts)")

    p_pln = sub.add_parser(
        "plan", parents=[jobs, retried],
        help="one-shot capacity plan: smallest cluster x engine x "
             "config meeting an SLO (the serve endpoint, offline)")
    p_pln.add_argument("--workload", choices=WORKLOADS, required=True)
    p_pln.add_argument("--slo", type=float, required=True,
                       help="makespan SLO in (simulated) seconds")
    p_pln.add_argument("--engines", nargs="+",
                       choices=("spark", "flink"),
                       default=["spark", "flink"])
    p_pln.add_argument("--nodes-candidates", type=int, nargs="+",
                       default=[2, 4, 8, 16, 32], dest="nodes_candidates",
                       help="cluster sizes to consider, ascending")
    p_pln.add_argument("--data-scale", type=float, default=1.0,
                       dest="data_scale",
                       help="shrink byte-sized datasets to this "
                            "fraction (what-if planning)")
    p_pln.add_argument("--seed", type=int, default=0)
    p_pln.add_argument("--json", action="store_true",
                       help="print the full plan payload as JSON")

    p_val = sub.add_parser(
        "validate", help="strict invariant self-check / golden replay")
    p_val.add_argument("--replay", action="store_true",
                       help="compare trace digests against tests/golden/")
    p_val.add_argument("--update-golden", action="store_true",
                       help="re-record the golden digests")
    p_val.add_argument("--scenarios", nargs="+", default=None,
                       help="subset of scenarios (default: all)")
    p_val.add_argument("--golden", default=None,
                       help="path to the golden digest file")
    p_val.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and args.checkpoint is None:
        parser.error("--resume requires --checkpoint DIR")
    handlers = {"list": cmd_list, "run": cmd_run, "figure": cmd_figure,
                "table7": cmd_table7, "explain": cmd_explain,
                "faults": cmd_faults, "trace": cmd_trace,
                "resilience": cmd_resilience, "streaming": cmd_streaming,
                "tenancy": cmd_tenancy, "serve": cmd_serve,
                "plan": cmd_plan, "validate": cmd_validate}
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        # Workers ignore SIGINT and the coordinators tear them down in
        # their finally blocks, so a single line is the whole story —
        # no multiprocess traceback spew.
        print(f"\ninterrupted: {args.command} stopped cleanly "
              f"(checkpointed work is safe; rerun with --resume where "
              f"supported)", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
