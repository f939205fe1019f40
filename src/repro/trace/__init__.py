"""repro-trace: deterministic structured tracing + metrics.

Entry points:

* ``System(trace=True)`` (or a :class:`TraceConfig`, or a sequence of
  category names) attaches a :class:`Tracer` to the machine; read it
  back via ``system.tracer``.
* :func:`repro.trace.export.to_chrome` / :func:`save_chrome` render a
  Perfetto-loadable Chrome trace-event JSON; :func:`to_text` /
  :func:`parse_text` are the ``perf script``-style dump and its exact
  inverse.
* ``python -m repro.trace`` runs a workload and writes both formats.
"""

from repro.trace.export import parse_text, save_chrome, to_chrome, to_text
from repro.trace.tracer import (
    CATEGORIES,
    MetricsRegistry,
    TraceConfig,
    TraceEvent,
    Tracer,
    make_tracer,
)

__all__ = [
    "CATEGORIES",
    "MetricsRegistry",
    "TraceConfig",
    "TraceEvent",
    "Tracer",
    "make_tracer",
    "parse_text",
    "save_chrome",
    "to_chrome",
    "to_text",
]
