"""Structured diagnostics, phase tracing, and AG observability.

Three layers, one subsystem:

- :mod:`repro.diag.diagnostic` / :mod:`repro.diag.span` /
  :mod:`repro.diag.render` — structured, source-anchored diagnostics
  (error code, severity, file/line/column span, notes, related spans)
  collected by a :class:`DiagnosticEngine` and rendered as
  caret-annotated text, JSON lines, or SARIF 2.1.0.
- :mod:`repro.diag.trace` — a span-based :class:`Tracer` with a
  context-manager API and Chrome trace-event export; fork workers in
  the parallel build ship their (picklable) events back for one merged
  timeline.
- :mod:`repro.diag.observe` — :class:`AGObserver` counters for rule
  firings, demand-memo hits/misses, and visit-sequence visits,
  :class:`GCWatch` for the cyclic collector's runs and seconds, plus
  :func:`explain_cycle` for circularity post-mortems.
"""

from .diagnostic import (
    CODE_BUILD,
    CODE_CIRC,
    CODE_EVAL,
    CODE_INTERNAL,
    CODE_LEX,
    CODE_LIB,
    CODE_PARSE,
    CODE_SEM,
    ERROR,
    FATAL,
    NOTE,
    SEVERITY_RANK,
    WARNING,
    Diagnostic,
    DiagnosticEngine,
    parse_legacy_message,
)
from .observe import AGObserver, GCWatch, explain_cycle, gc_summary
from .render import (
    FORMATS,
    render,
    render_jsonl,
    render_sarif,
    render_text,
    sarif_run,
)
from .span import SourceSpan
from .trace import Tracer, load_trace, merge_traces

__all__ = [
    "AGObserver",
    "CODE_BUILD",
    "CODE_CIRC",
    "CODE_EVAL",
    "CODE_INTERNAL",
    "CODE_LEX",
    "CODE_LIB",
    "CODE_PARSE",
    "CODE_SEM",
    "Diagnostic",
    "DiagnosticEngine",
    "ERROR",
    "FATAL",
    "FORMATS",
    "GCWatch",
    "NOTE",
    "SEVERITY_RANK",
    "SourceSpan",
    "Tracer",
    "WARNING",
    "explain_cycle",
    "gc_summary",
    "load_trace",
    "merge_traces",
    "parse_legacy_message",
    "render",
    "render_jsonl",
    "render_sarif",
    "render_text",
    "sarif_run",
]
