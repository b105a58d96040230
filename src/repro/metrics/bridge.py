"""Bridges: existing telemetry sources -> the unified registry.

PR 2 gave each layer its own counters — :class:`repro.diag.AGObserver`
for rule firings and memo hits, :class:`repro.build.BuildCache.stats`
for cache accounting, :class:`repro.sim.vhdlio.SeverityLogger` for
assertion severities — and the kernel now keeps per-signal and
per-process tallies inline (plain integer attributes, so the hot paths
never touch the registry).  The functions here publish all of them
into one :class:`~repro.metrics.MetricsRegistry` at snapshot time, so
a single ``repro-metrics/1`` snapshot covers compile → elaborate →
simulate.

Harvesting uses ``Counter.set_total`` (adopt an externally maintained
total) rather than increments: bridging is idempotent — re-publishing
after a longer run simply overwrites the samples.
"""

from .registry import SECONDS_BUCKETS


# -- simulation ---------------------------------------------------------------


def bridge_kernel(registry, kernel):
    """Publish a kernel's per-signal / per-process / logger tallies."""
    if not getattr(registry, "enabled", False):
        return registry
    sig_events = registry.counter(
        "sim_signal_events_total", "value changes per signal")
    sig_txns = registry.counter(
        "sim_signal_transactions_total",
        "fired driver transactions per signal")
    for sig in kernel.signals:
        sig_events.labels(signal=sig.name).set_total(sig.events)
        sig_txns.labels(signal=sig.name).set_total(sig.transactions)
    resumes = registry.counter(
        "sim_process_resumes_by_process_total",
        "kernel resumptions per process")
    exec_s = registry.gauge(
        "sim_process_exec_seconds",
        "cumulative wall-clock execution time per process")
    exec_hist = registry.histogram(
        "sim_process_exec_seconds_distribution",
        "distribution of per-process cumulative execution time",
        buckets=SECONDS_BUCKETS)
    for proc in kernel.processes:
        resumes.labels(process=proc.name).set_total(proc.resumes)
        exec_s.labels(process=proc.name).set(proc.exec_seconds)
        exec_hist.observe(proc.exec_seconds)
    bridge_severity_logger(registry, kernel.logger)
    registry.gauge("sim_now_fs", "current simulation time").set(
        kernel.now)
    registry.gauge("sim_signals", "signals in the design").set(
        len(kernel.signals))
    registry.gauge("sim_processes", "processes in the design").set(
        len(kernel.processes))
    # -- activity-driven scheduler (event calendar + fanout index).
    # Plain integer attributes on the kernel, harvested here like
    # every other hot-path tally.
    registry.gauge(
        "sim_calendar_heap_size",
        "calendar entries (live + stale) currently in the "
        "scheduling heap").set(len(getattr(kernel, "_calendar", ())))
    registry.gauge(
        "sim_calendar_heap_peak",
        "high-water calendar heap size").set(
            getattr(kernel, "calendar_peak", 0))
    registry.counter(
        "sim_calendar_stale_pops_total",
        "calendar entries discarded by lazy deletion (preempted "
        "transactions, satisfied waits)").set_total(
            getattr(kernel, "stale_pops", 0))
    registry.counter(
        "sim_calendar_fanout_visits_total",
        "waiting-process visits through the signal fanout "
        "index").set_total(getattr(kernel, "fanout_visits", 0))
    # -- compiled backend (repro.sim.compiled).  Emitted only for a
    # CompiledKernel, so the event/scan snapshots stay unchanged —
    # and, like sim_calendar_*, these describe the scheduler, not the
    # simulated design, so the differential oracle ignores them.
    if getattr(kernel, "program", None) is not None:
        registry.gauge(
            "sim_codegen_seconds",
            "wall-clock spent specializing this design (cold cost; "
            "zero after a fingerprint cache hit would still bind)"
        ).set(kernel.codegen_seconds)
        registry.gauge(
            "sim_compiled_procs",
            "processes dispatched as specialized plain functions"
        ).set(kernel.compiled_procs)
        registry.gauge(
            "sim_compiled_slot_signals",
            "signals with flat-slot storage (no Driver objects)"
        ).set(kernel.slot_signals)
        registry.counter(
            "sim_levelized_evals_total",
            "slot-signal updates evaluated outside the event "
            "calendar").set_total(kernel.levelized_evals)
    return registry


def bridge_severity_logger(registry, logger):
    """Publish assertion-severity counts."""
    if not getattr(registry, "enabled", False):
        return registry
    family = registry.counter(
        "sim_assertions_total", "assertion reports by severity")
    for severity, count in sorted(logger.counts.items()):
        family.labels(severity=severity).set_total(count)
    return registry


def hot_processes(kernel, top=5):
    """The ``--top N`` rows: (name, resumes, exec_seconds,
    sensitivity-names) sorted hottest-first.

    When per-process wall clock was never measured (metrics disabled)
    the sort falls back to resume counts, so the table still ranks."""
    rows = []
    for proc in kernel.processes:
        sens = [s.name for s in (proc.sensitivity or ())]
        rows.append((proc.name, proc.resumes, proc.exec_seconds, sens))
    rows.sort(key=lambda r: (r[2], r[1]), reverse=True)
    return rows[:top] if top is not None else rows


def format_hot_processes(kernel, top=5):
    """A human-readable hot-process table."""
    rows = hot_processes(kernel, top)
    lines = ["hot processes (top %d of %d):"
             % (len(rows), len(kernel.processes))]
    lines.append("  %-36s %10s %12s  %s"
                 % ("process", "resumes", "exec ms", "sensitivity"))
    for name, resumes, seconds, sens in rows:
        lines.append("  %-36s %10d %12.3f  %s"
                     % (name, resumes, seconds * 1e3,
                        ",".join(sens) if sens else "-"))
    return "\n".join(lines)


def format_calendar_stats(kernel):
    """A one-line scheduler summary for ``repro sim --metrics``:
    how activity-driven the run actually was (fanout visits vs the
    resumes a full sweep would have tested), plus the calendar's
    high-water size and lazy-deletion discards."""
    cycles = max(kernel.cycles, 1)
    swept = cycles * len(kernel.processes)
    visits = getattr(kernel, "fanout_visits", 0)
    return (
        "scheduler: %d cycles (%d delta), calendar peak %d, "
        "%d stale pop(s), %d fanout visit(s) "
        "(full sweep would test %d waits)"
        % (kernel.cycles, kernel.delta_cycles,
           getattr(kernel, "calendar_peak", 0),
           getattr(kernel, "stale_pops", 0), visits, swept))


# -- attribute-grammar evaluation --------------------------------------------


def bridge_observer(registry, observer, top_productions=None):
    """Publish an :class:`AGObserver`'s counters.

    ``top_productions`` bounds the per-production label cardinality
    (None = all ~hundreds of productions)."""
    if not getattr(registry, "enabled", False) or observer is None:
        return registry
    registry.counter(
        "ag_rule_firings_total",
        "semantic-rule firings").set_total(observer.total_firings)
    per_prod = registry.counter(
        "ag_rule_firings_by_production_total",
        "semantic-rule firings per production")
    items = observer.rule_firings.most_common(top_productions)
    for label, count in items:
        per_prod.labels(production=label).set_total(count)
    per_grammar = registry.counter(
        "ag_rule_firings_by_grammar_total",
        "semantic-rule firings per grammar")
    for grammar, count in sorted(observer.grammar_firings.items()):
        per_grammar.labels(grammar=grammar).set_total(count)
    registry.counter(
        "ag_memo_hits_total",
        "demanded attributes served from the memo "
        "table").set_total(observer.cache_hits)
    registry.counter(
        "ag_memo_misses_total",
        "attributes computed fresh").set_total(observer.cache_misses)
    registry.gauge(
        "ag_memo_hit_rate", "memo hit rate").set(observer.hit_rate)
    registry.counter(
        "ag_visits_total", "static-evaluator symbol visits").set_total(
            sum(observer.visits.values()))
    return registry


def bridge_ag_stats(registry, stats):
    """Publish a merged worker ``ag_stats`` dict (build reports)."""
    if not getattr(registry, "enabled", False) or not stats:
        return registry
    registry.counter(
        "ag_rule_firings_total", "semantic-rule firings").set_total(
            stats.get("total_firings", 0))
    registry.counter(
        "ag_memo_hits_total",
        "demanded attributes served from the memo table").set_total(
            stats.get("cache_hits", 0))
    registry.counter(
        "ag_memo_misses_total", "attributes computed fresh").set_total(
            stats.get("cache_misses", 0))
    registry.gauge("ag_memo_hit_rate", "memo hit rate").set(
        stats.get("hit_rate", 0.0))
    registry.counter(
        "ag_visits_total", "static-evaluator symbol visits").set_total(
            sum(stats.get("visits", {}).values()))
    return registry


# -- incremental build --------------------------------------------------------


def bridge_build_report(registry, report):
    """Publish an :class:`IncrementalBuilder` report: cache stats,
    per-worker busy seconds, and worker utilization computed from the
    merged Chrome trace (busy span time / wall span per pid)."""
    if not getattr(registry, "enabled", False):
        return registry
    stats = getattr(report, "stats", {}) or {}
    cache = registry.counter(
        "build_cache_total", "build cache outcomes")
    for key in ("hits", "misses", "invalidated", "quarantined"):
        cache.labels(outcome=key).set_total(stats.get(key, 0))
    registry.counter(
        "build_ag_evaluations_total",
        "files that required a fresh AG evaluation").set_total(
            stats.get("ag_evaluations", 0))
    registry.gauge("build_jobs", "configured worker count").set(
        getattr(report, "jobs", 1))
    events = list(getattr(report, "trace_events", ()) or ())
    busy = registry.gauge(
        "build_worker_busy_seconds",
        "summed phase-span seconds per worker pid")
    util = registry.gauge(
        "build_worker_utilization",
        "busy seconds / build wall seconds per worker pid")
    spans = [e for e in events if e.get("ph") == "X"]
    if spans:
        t0 = min(e["ts"] for e in spans)
        t1 = max(e["ts"] + e.get("dur", 0.0) for e in spans)
        wall = max((t1 - t0) / 1e6, 1e-9)
        per_pid = {}
        for e in spans:
            pid = str(e.get("pid", "?"))
            per_pid[pid] = per_pid.get(pid, 0.0) + \
                e.get("dur", 0.0) / 1e6
        for pid, seconds in sorted(per_pid.items()):
            busy.labels(pid=pid).set(seconds)
            util.labels(pid=pid).set(min(seconds / wall, 1.0))
        registry.gauge(
            "build_wall_seconds",
            "wall-clock span of the merged build trace").set(wall)
    bridge_ag_stats(registry, getattr(report, "ag_stats", {}) or {})
    return registry


# -- compiler phases ----------------------------------------------------------


def bridge_tracer(registry, tracer, prefix="compile"):
    """Publish a :class:`repro.diag.Tracer`'s per-phase seconds."""
    if not getattr(registry, "enabled", False) or tracer is None:
        return registry
    family = registry.gauge(
        "%s_phase_seconds" % prefix,
        "wall-clock seconds per %s phase" % prefix)
    for phase, seconds in sorted(tracer.phase_seconds().items()):
        family.labels(phase=phase).set(seconds)
    return registry
