"""Reduce a traced run's spans to the per-layer metrics."""

from spans import END, PARENT, START, layer_self_seconds

#: span name (see ``Recorder.install``) -> per-layer self-time metric
SPAN_METRICS = {
    "lexer.scan": "lexer.scan_s",
    "lr.parse": "lr.parse_s",
    "ag.principal": "ag.principal_s",
    "ag.expr": "ag.expr_s",
    "codegen.model_compile": "codegen.model_compile_s",
    "vif.write": "vif.write_s",
    "vif.read": "vif.read_s",
    "build": "build.self_s",
    "elab.elaborate": "elab.elaborate_s",
    "simgen.codegen": "simgen.codegen_s",
    "kernel.run": "kernel.run_s",
}

#: counters the traced run must repeat bit for bit for one seed
EXACT = ("lexer.tokens", "ag.rule_firings", "ag.expr_evals", "vif.bytes",
         "codegen.model_bytes", "kernel.cycles", "kernel.events",
         "kernel.resumes")


def recorder_layers(recorder, untraced_s):
    """Self time per layer, the recorder's counters, and the trace
    accounting: ``trace.e2e_s`` (summed root-operation spans),
    ``trace.remainder_s`` (their own self time: work no layer span
    claims) and ``trace.overhead_s`` (traced minus untraced time of
    the same operations)."""
    spans = recorder.spans
    totals = layer_self_seconds(spans)
    out = {metric: totals.get(name, 0.0)
           for name, metric in SPAN_METRICS.items()}
    out.update(recorder.counts)
    e2e = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    out["trace.e2e_s"] = e2e
    out["trace.remainder_s"] = sum(t for name, t in totals.items()
                                   if name.startswith("op."))
    out["trace.overhead_s"] = e2e - untraced_s
    return out
