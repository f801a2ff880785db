"""Span-based execution observability.

The paper's methodology correlates operator execution plans with
per-node resource utilisation; this package is that correlation as a
first-class artifact.  A :class:`SpanTracer` attached to a cluster
records a well-nested tree of spans (run → job → stage → operator →
task) during a simulated run; :func:`extract_critical_path` tiles the
makespan into the deepest-responsible segments;
:func:`attribute_spans` asks each span "what resource were you
bottlenecked on?" against the fluid capacity traces; and the exporters
render the result as Chrome-trace JSON or CSV.

Entry points: ``repro trace <workload>`` on the CLI, or
:func:`repro.harness.runner.run_traced` from code.
"""

from .attribution import SpanAttribution, attribute_span, attribute_spans
from .critical_path import (CriticalPath, PathSegment,
                            extract_critical_path)
from .exporters import (chrome_trace_json, chrome_trace_payload,
                        critical_path_csv, spans_csv)
from .spans import SPAN_KINDS, Span, SpanTracer, SpanTree

__all__ = [
    "Span", "SpanTracer", "SpanTree", "SPAN_KINDS",
    "CriticalPath", "PathSegment", "extract_critical_path",
    "SpanAttribution", "attribute_span", "attribute_spans",
    "chrome_trace_payload", "chrome_trace_json", "spans_csv",
    "critical_path_csv",
]
