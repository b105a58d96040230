"""``repro bench-check`` — the CI perf-regression gate.

A *baseline* is a committed ``BENCH_<name>.json`` file in the shared
``repro-metrics/1`` envelope: a ``values`` dict of named measurements
plus a ``checks`` dict assigning each value a comparison mode.  The
gate re-runs the named scenario fresh (or reads ``--current FILE``)
and compares against the baseline:

- ``exact``  — deterministic counters (simulation cycles, signal
  events, AG evaluations): must match bit-for-bit; any drift means the
  *semantics* changed, not just the speed.
- ``max``    — cost-like values: current must not exceed
  ``base * (1 + tolerance)``.
- ``min``    — benefit-like values (speedups): current must be at
  least ``base * (1 - tolerance)``.
- ``ratio``  — must stay within ``tolerance`` relative either way.

Wall-clock costs are *normalized*: every scenario first times a fixed
pure-Python calibration loop on the same machine and reports
``cost / calibration`` ratios, so a committed baseline transfers
between hosts of different absolute speed — slowing the kernel still
moves the ratio, which is exactly what the gate must catch.

Baselines are refreshed with ``repro bench-check --baseline FILE
--update`` (re-runs the scenario and rewrites the file); CI runs the
gate with a generous tolerance so only genuine regressions fail.
"""

import json
import os
import shutil
import tempfile
import time

from .registry import MetricsRegistry, envelope

#: Iterations of the calibration loop (pure-Python integer work).
CALIBRATION_N = 300_000

#: Measurement repeats; the best (minimum) ratio is kept.
REPEATS = 5


def calibrate(n=CALIBRATION_N, repeats=3):
    """Seconds for the fixed reference loop (best of ``repeats``)."""
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            acc += i & 7
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return max(best, 1e-9)


def normalized_cost(measure, repeats=REPEATS):
    """``min over repeats of (measure() seconds / calibration
    seconds)`` — the calibration loop runs inside the same time window
    as each measurement, so host-load and frequency drift hit both and
    mostly cancel out of the ratio."""
    best = None
    for _ in range(repeats):
        calib = calibrate(repeats=1)
        t0 = time.perf_counter()
        result = measure()
        dt = time.perf_counter() - t0
        calib = min(calib, calibrate(repeats=1))
        ratio = dt / calib
        if best is None or ratio < best[0]:
            best = (ratio, dt, calib, result)
    return best


# -- scenarios ---------------------------------------------------------------

_SIM_SOURCE = """
    entity stage is
      port ( clk : in bit; din : in integer; dout : out integer );
    end stage;
    architecture rtl of stage is
      signal hold : integer := 0;
    begin
      process (clk)
      begin
        if clk'event and clk = '1' then
          hold <= (din + 1) mod 1000;
        end if;
      end process;
      dout <= hold;
    end rtl;

    entity gate_top is end gate_top;
    architecture top of gate_top is
      component stage
        port ( clk : in bit; din : in integer; dout : out integer );
      end component;
      signal clk : bit := '0';
      signal d0 : integer := 0;
      signal d1 : integer := 0;
      signal d2 : integer := 0;
    begin
      clock : process
      begin
        clk <= not clk after 5 ns;
        wait on clk;
      end process;
      s1 : stage port map ( clk => clk, din => d0, dout => d1 );
      s2 : stage port map ( clk => clk, din => d1, dout => d2 );
      feedback : d0 <= d2;
    end top;
"""

_SIM_UNTIL_FS = 1000 * 10**6  # 1 us: 200 clock edges


def _compile(source, what, filename="<input>"):
    """A fresh in-memory library holding ``source``."""
    from ..vhdl.compiler import Compiler

    compiler = Compiler(strict=False)
    result = compiler.compile(source, filename=filename)
    if not result.ok:
        raise RuntimeError("bench-check %s failed to compile: %s"
                           % (what, result.messages[:3]))
    return compiler.library


def _unlabeled(registry):
    """The snapshot's unlabeled aggregate families only: the labeled
    per-signal / per-process / per-rule series are thousands of
    samples wide on the ring workloads, and the gate reads only
    ``values``, so this keeps committed baselines reviewable."""
    return {
        name: fam
        for name, fam in registry.snapshot()["metrics"].items()
        if not any(s.get("labels") for s in fam["samples"])
    }


def scenario_simulation():
    """Compile a small pipeline once, run the kernel, measure."""
    from ..vhdl.elaborate import run_design

    library = _compile(_SIM_SOURCE, "design")

    def measure():
        registry = MetricsRegistry()
        run = run_design(library, "gate_top",
                         until_fs=_SIM_UNTIL_FS, metrics=registry)
        return registry, run.kernel

    ratio, best, calib, (registry, kernel) = normalized_cost(measure)
    from .bridge import bridge_kernel

    bridge_kernel(registry, kernel)
    values = {
        "cycles": kernel.cycles,
        "delta_cycles": kernel.delta_cycles,
        "signal_events": sum(s.events for s in kernel.signals),
        "signal_transactions": sum(
            s.transactions for s in kernel.signals),
        "process_resumes": sum(p.resumes for p in kernel.processes),
        "normalized_cost": round(ratio, 4),
    }
    checks = {
        "cycles": "exact",
        "delta_cycles": "exact",
        "signal_events": "exact",
        "signal_transactions": "exact",
        "process_resumes": "exact",
        "normalized_cost": "max",
    }
    timings = {"run_s": round(best, 6),
               "calibration_s": round(calib, 6)}
    return envelope("bench", bench="simulation", values=values,
                    checks=checks, timings=timings,
                    metrics=registry.snapshot()["metrics"])


_INC_PKG = """
    package pkg0 is
      constant width : integer := 8;
      function clamp(x : integer) return integer;
    end pkg0;
    package body pkg0 is
      function clamp(x : integer) return integer is
      begin
        if x > 255 then return 255; end if;
        return x;
      end clamp;
    end pkg0;
"""

_INC_UNIT = """
    use work.pkg0.all;
    entity unit%(i)d is end unit%(i)d;
    architecture rtl of unit%(i)d is
      signal acc : integer := 0;
      signal tick : bit := '0';
    begin
      clock : process
      begin
        tick <= not tick after 10 ns;
        wait on tick;
      end process;
      count : process (tick)
      begin
        acc <= clamp(acc + %(i)d + 1);
      end process;
    end rtl;
"""


def scenario_incremental():
    """Cold vs warm incremental build of a small package+units
    project; warm must do zero AG evaluations."""
    from ..build import IncrementalBuilder
    from ..vhdl.grammar import principal_grammar

    principal_grammar()  # Linguist runs before compiling (paper §2)
    base = tempfile.mkdtemp(prefix="repro-bench-check-")
    try:
        files = [os.path.join(base, "pkg0.vhd")]
        with open(files[0], "w") as f:
            f.write(_INC_PKG)
        for i in range(2):
            path = os.path.join(base, "unit%d.vhd" % i)
            with open(path, "w") as f:
                f.write(_INC_UNIT % {"i": i})
            files.append(path)
        root = os.path.join(base, "libs")

        def build():
            t0 = time.perf_counter()
            report = IncrementalBuilder(root).build(files)
            dt = time.perf_counter() - t0
            if not report.ok:
                raise RuntimeError("bench-check build failed:\n%s"
                                   % report.summary())
            return dt, report

        def cold_build():
            shutil.rmtree(root, ignore_errors=True)
            return build()

        cold_ratio, _, calib, (cold_s, cold) = normalized_cost(
            cold_build)
        warm_s, warm = build()
        for _ in range(2):  # best-of-3 stabilizes the speedup ratio
            warm_again_s, warm = build()
            warm_s = min(warm_s, warm_again_s)
        registry = MetricsRegistry()
        from .bridge import bridge_build_report

        bridge_build_report(registry, warm)
        values = {
            "files": len(files),
            "cold_ag_evaluations": cold.stats.get(
                "ag_evaluations", 0),
            "warm_ag_evaluations": warm.stats.get(
                "ag_evaluations", 0),
            "warm_cache_hits": warm.stats.get("hits", 0),
            "warm_speedup": round(cold_s / max(warm_s, 1e-9), 1),
            "normalized_cold_cost": round(cold_ratio, 4),
        }
        checks = {
            "files": "exact",
            "cold_ag_evaluations": "exact",
            "warm_ag_evaluations": "exact",
            "warm_cache_hits": "exact",
            "warm_speedup": "min",
            "normalized_cold_cost": "max",
        }
        timings = {"cold_s": round(cold_s, 6),
                   "warm_s": round(warm_s, 6),
                   "calibration_s": round(calib, 6)}
        return envelope("bench", bench="incremental", values=values,
                        checks=checks, timings=timings,
                        metrics=registry.snapshot()["metrics"])
    finally:
        shutil.rmtree(base, ignore_errors=True)


_LINT_DEFECTS = """
    entity lint_mix is end lint_mix;
    architecture a of lint_mix is
      signal a1 : bit := '0';
      signal b1 : bit := '0';
      signal y1 : bit := '0';
      signal unused : bit := '0';
    begin
      comb : process (a1)           -- RPL001: reads b1, not listed
      begin
        y1 <= a1 and b1;
      end process;
      stim : process
      begin
        a1 <= '1' after 1 ns;
        b1 <= '1' after 2 ns;
        wait;
      end process;
      mon : process (y1)
      begin
        assert y1 = '0' or y1 = '1';
      end process;
    end a;
"""


def scenario_lint():
    """Compile the simulation pipeline plus a seeded-defect unit,
    then measure a full-library lint pass.  Finding counts are
    deterministic (``exact``); the pass cost is normalized."""
    from ..analysis import LintEngine

    library = _compile(_SIM_SOURCE + _LINT_DEFECTS, "lint design")

    def measure():
        registry = MetricsRegistry()
        engine = LintEngine(library=library, metrics=registry)
        return registry, engine.lint_library()

    ratio, best, calib, (registry, findings) = normalized_cost(
        measure)
    by_rule = {}
    for diag in findings:
        by_rule[diag.code] = by_rule.get(diag.code, 0) + 1
    units = len(library._units)
    values = {
        "units_checked": units,
        "findings_total": len(findings),
        "findings_rpl001": by_rule.get("RPL001", 0),
        "findings_rpl003": by_rule.get("RPL003", 0),
        "normalized_cost": round(ratio, 4),
    }
    checks = {
        "units_checked": "exact",
        "findings_total": "exact",
        "findings_rpl001": "exact",
        "findings_rpl003": "exact",
        "normalized_cost": "max",
    }
    timings = {"run_s": round(best, 6),
               "calibration_s": round(calib, 6)}
    return envelope("bench", bench="lint", values=values,
                    checks=checks, timings=timings,
                    metrics=registry.snapshot()["metrics"])


_RING_CELLS = 1500
_RING_TOKENS = 15  # 1% of cells active per timestep
_RING_WINDOW_FS = 150 * 10**6  # 150 timesteps


def build_ring(kernel_cls, n, tokens):
    """The sparse-activity token ring (also run by
    ``benchmarks/bench_kernel_scaling.py``): ``tokens`` tokens circle
    ``n`` cells, waking exactly ``tokens`` processes per timestep.
    Each cell waits on its own signal and, when woken, toggles its
    successor one nanosecond later; a starter cell's initialization
    run launches its token."""
    k = kernel_cls()
    sigs = [k.signal("cell%d" % i, 0) for i in range(n)]
    rt = k.rt
    stride = n // tokens
    starters = frozenset(j * stride for j in range(tokens))

    def cell(i):
        me = sigs[i]
        nxt = sigs[(i + 1) % n]
        starter = i in starters

        def proc():
            if starter:
                rt.assign(nxt, ((1 - rt.read(nxt), 10**6),))
            while True:
                yield rt.wait([me])
                rt.assign(nxt, ((1 - rt.read(nxt), 10**6),))

        return proc

    for i in range(n):
        k.process("cell%d" % i, cell(i), sensitivity=[sigs[i]])
    return k


def ring_vhdl(n, tokens):
    """The token ring as VHDL source (the compiled backend
    specializes elaborated designs, so its axes need real source):
    ``tokens`` evenly spaced starter cells use sensitivity-list
    processes whose initialization run launches the token."""
    stride = n // tokens
    starters = frozenset(j * stride for j in range(tokens))
    lines = ["entity ring is", "end ring;", "",
             "architecture rtl of ring is"]
    for i in range(n):
        lines.append("  signal c_%d : integer := 0;" % i)
    lines.append("begin")
    for i in range(n):
        j = (i + 1) % n
        if i in starters:
            lines.append(
                "  p_%d: process (c_%d) begin "
                "c_%d <= 1 - c_%d after 1 ns; end process;"
                % (i, i, j, j))
        else:
            lines.append(
                "  p_%d: process begin wait on c_%d; "
                "c_%d <= 1 - c_%d after 1 ns; end process;"
                % (i, i, j, j))
    lines.append("end rtl;")
    return "\n".join(lines)


def _compile_vhdl_ring(n, tokens):
    return _compile(ring_vhdl(n, tokens), "ring", filename="ring.vhd")


#: Window for the compiled-backend axis of ``kernel_scaling`` — long
#: enough that the run phase dominates elaboration noise.
_RING_COMPILED_WINDOW_FS = 1000 * 10**6  # 1000 timesteps


def scenario_kernel_scaling():
    """The activity-driven scheduler's gate: on a ~1%-active design
    the calendar kernel must stay >= 5x faster than the full-scan
    reference (``min`` check), with byte-identical semantics
    (``exact`` counters) and a normalized absolute cost ceiling.

    The backend axis rides along: the same ring as VHDL source, run
    through the event kernel and the compiled backend — identical
    counters (``exact``) and a ``min``-gated speedup, with cold
    codegen reported separately in ``timings`` so the amortized
    compile time cannot flatter the ratio."""
    from ..sim import Kernel, ScanKernel
    from ..sim.compiled import _PROGRAM_CACHE
    from ..vhdl.elaborate import run_design

    def run_only(kernel_cls, repeats):
        best = None
        kernel = None
        for _ in range(repeats):
            k = build_ring(kernel_cls, _RING_CELLS, _RING_TOKENS)
            k.initialize()
            t0 = time.perf_counter()
            k.run(until=_RING_WINDOW_FS)
            dt = time.perf_counter() - t0
            if best is None or dt < best:
                best, kernel = dt, k
        return best, kernel

    cal_s, cal = run_only(Kernel, repeats=3)
    scan_s, scan = run_only(ScanKernel, repeats=2)
    if scan.cycles != cal.cycles or [s.value for s in scan.signals] \
            != [s.value for s in cal.signals]:
        raise RuntimeError(
            "calendar and scan kernels diverged on the ring workload")

    def measure():
        k = build_ring(Kernel, _RING_CELLS, _RING_TOKENS)
        k.run(until=_RING_WINDOW_FS)
        return k

    ratio, best, calib, kernel = normalized_cost(measure)

    # -- the backend axis: event vs compiled on the VHDL ring --------
    library = _compile_vhdl_ring(_RING_CELLS, _RING_TOKENS)

    def vhdl_run(backend, repeats):
        best_dt = None
        best_k = None
        codegen_s = 0.0
        for _ in range(repeats):
            run = run_design(library, "ring", backend=backend,
                             until_fs=_RING_COMPILED_WINDOW_FS)
            if run.codegen is not None:
                codegen_s = max(codegen_s, run.codegen["seconds"])
            if best_dt is None or run.run_s < best_dt:
                best_dt, best_k = run.run_s, run.kernel
        return best_dt, best_k, codegen_s

    _PROGRAM_CACHE.clear()  # the first repeat pays codegen cold
    event_s, k_ev, _ = vhdl_run("event", repeats=3)
    comp_s, k_co, codegen_cold_s = vhdl_run("compiled", repeats=3)
    if (k_ev.cycles, k_ev.delta_cycles) != \
            (k_co.cycles, k_co.delta_cycles) \
            or [s.value for s in k_ev.signals] != \
            [s.value for s in k_co.signals] \
            or [p.resumes for p in k_ev.processes] != \
            [p.resumes for p in k_co.processes]:
        raise RuntimeError(
            "event and compiled backends diverged on the ring")

    registry = MetricsRegistry()
    from .bridge import bridge_kernel

    bridge_kernel(registry, kernel)
    values = {
        "cells": _RING_CELLS,
        "tokens": _RING_TOKENS,
        "cycles": kernel.cycles,
        "delta_cycles": kernel.delta_cycles,
        "process_resumes": sum(
            p.resumes for p in kernel.processes),
        "signal_events": sum(s.events for s in kernel.signals),
        "fanout_visits": kernel.fanout_visits,
        "speedup_vs_scan": round(scan_s / cal_s, 1),
        "normalized_cost": round(ratio, 4),
        "compiled_cycles": k_co.cycles,
        "compiled_procs": k_co.compiled_procs,
        "compiled_slot_signals": k_co.slot_signals,
        "compiled_speedup_vs_event": round(event_s / comp_s, 2),
    }
    checks = {
        "cells": "exact",
        "tokens": "exact",
        "cycles": "exact",
        "delta_cycles": "exact",
        "process_resumes": "exact",
        "signal_events": "exact",
        "fanout_visits": "exact",
        "speedup_vs_scan": "min",
        "normalized_cost": "max",
        "compiled_cycles": "exact",
        "compiled_procs": "exact",
        "compiled_slot_signals": "exact",
        "compiled_speedup_vs_event": "min",
    }
    timings = {"calendar_s": round(cal_s, 6),
               "scan_s": round(scan_s, 6),
               "run_s": round(best, 6),
               "calibration_s": round(calib, 6),
               "codegen_cold_s": round(codegen_cold_s, 6),
               "event_vhdl_s": round(event_s, 6),
               "compiled_s": round(comp_s, 6)}
    return envelope("bench", bench="kernel_scaling", values=values,
                    checks=checks, timings=timings,
                    metrics=_unlabeled(registry))


_COMPILED_CELLS = 400
_COMPILED_TOKENS = 8  # 2% of cells active per timestep
_COMPILED_WINDOW_FS = 2000 * 10**6  # 2000 timesteps


def scenario_compiled_codegen():
    """The cold half of the compiled backend's cost: with the program
    cache cleared every repeat, elaborate the ring and specialize it.
    The normalized cost pins the whole cold flow (``max``); structure
    counters are ``exact`` — every process must compile and every
    signal must get slot storage, or the specializer regressed."""
    from ..sim.compiled import _PROGRAM_CACHE
    from ..vhdl.elaborate import run_design

    library = _compile_vhdl_ring(_COMPILED_CELLS, _COMPILED_TOKENS)

    def measure():
        _PROGRAM_CACHE.clear()
        # Stopping at 0 fs runs only the initialization.
        return run_design(library, "ring", backend="compiled",
                          until_fs=0).kernel

    ratio, best, calib, kernel = normalized_cost(measure, repeats=3)
    values = {
        "cells": _COMPILED_CELLS,
        "compiled_procs": kernel.compiled_procs,
        "slot_signals": kernel.slot_signals,
        "programs_cached": len(_PROGRAM_CACHE),
        "normalized_cost": round(ratio, 4),
    }
    checks = {
        "cells": "exact",
        "compiled_procs": "exact",
        "slot_signals": "exact",
        "programs_cached": "exact",
        "normalized_cost": "max",
    }
    timings = {"cold_s": round(best, 6),
               "codegen_s": round(kernel.codegen_seconds, 6),
               "calibration_s": round(calib, 6)}
    return envelope("bench", bench="compiled_codegen", values=values,
                    checks=checks, timings=timings, metrics={})


def scenario_compiled_warm():
    """The warm half: with the program cache primed, each repeat is
    elaborate + fingerprint-hit bind + run — the steady-state cost of
    a repeat simulation, gated separately from codegen so neither can
    hide behind the other.  Semantics counters are ``exact``, and
    ``programs_cached`` staying at 1 across repeats proves the design
    fingerprint is stable (a drifting fingerprint would grow the
    cache and silently re-pay codegen)."""
    from ..sim.compiled import _PROGRAM_CACHE
    from ..vhdl.elaborate import run_design

    library = _compile_vhdl_ring(_COMPILED_CELLS, _COMPILED_TOKENS)
    _PROGRAM_CACHE.clear()

    def measure():
        return run_design(library, "ring", backend="compiled",
                          until_fs=_COMPILED_WINDOW_FS).kernel

    measure()  # prime the cache: every timed repeat binds warm
    ratio, best, calib, kernel = normalized_cost(measure, repeats=3)
    registry = MetricsRegistry()
    from .bridge import bridge_kernel

    bridge_kernel(registry, kernel)
    values = {
        "cells": _COMPILED_CELLS,
        "tokens": _COMPILED_TOKENS,
        "cycles": kernel.cycles,
        "delta_cycles": kernel.delta_cycles,
        "process_resumes": sum(
            p.resumes for p in kernel.processes),
        "signal_events": sum(s.events for s in kernel.signals),
        "levelized_evals": kernel.levelized_evals,
        "compiled_procs": kernel.compiled_procs,
        "slot_signals": kernel.slot_signals,
        "programs_cached": len(_PROGRAM_CACHE),
        "normalized_cost": round(ratio, 4),
    }
    checks = {key: "exact" for key in values}
    checks["normalized_cost"] = "max"
    timings = {"warm_s": round(best, 6),
               "bind_s": round(kernel.codegen_seconds, 6),
               "calibration_s": round(calib, 6)}
    return envelope("bench", bench="compiled_warm", values=values,
                    checks=checks, timings=timings,
                    metrics=_unlabeled(registry))


_ANALYSIS_CELLS = 2000


def ring_source(n, cut=False):
    """A ``n``-cell combinational inverter ring as VHDL source.

    ``cut`` drops the wrap-around assignment, turning the one giant
    SCC into an ``n - 1``-level acyclic chain — the levelization
    workload."""
    decls = ";\n  ".join("signal c%d : bit := '0'" % i
                         for i in range(n))
    stmts = "\n  ".join(
        "a%d : c%d <= not c%d;" % (i, i, (i - 1) % n)
        for i in range(1 if cut else 0, n))
    return ("entity ring_top is end ring_top;\n"
            "architecture a of ring_top is\n  %s;\nbegin\n  %s\n"
            "end a;\n" % (decls, stmts))


def scenario_analysis():
    """The elaborated-design analyzer's gate: flatten a 2000-cell
    combinational ring and find its single giant SCC, then levelize
    the cut (acyclic) variant.  Structure counters are ``exact`` —
    the ring has exactly one loop of exactly 2000 signals, and the
    chain levelizes to exactly 1999 levels — and the analysis cost
    (netlist build + SCC + rules) is normalized (``max``)."""
    from ..analysis import (
        LintEngine,
        build_netlist,
        combinational_loops,
        levelize,
    )
    from ..vhdl.elaborate import Elaborator

    ring = _compile(ring_source(_ANALYSIS_CELLS), "analysis ring")
    chain = _compile(ring_source(_ANALYSIS_CELLS, cut=True),
                     "analysis chain")
    ring_sim = Elaborator(ring).elaborate("ring_top")
    chain_sim = Elaborator(chain).elaborate("ring_top")

    def measure():
        registry = MetricsRegistry()
        graph = build_netlist(ring_sim.records)
        loops = combinational_loops(graph)
        findings = LintEngine(library=ring,
                              metrics=registry).lint_design(graph)
        chain_graph = build_netlist(chain_sim.records)
        levels, order, cyclic = levelize(chain_graph)
        return registry, graph, loops, findings, levels, order, \
            cyclic

    ratio, best, calib, (registry, graph, loops, findings, levels,
                         order, cyclic) = normalized_cost(measure)
    by_rule = {}
    for diag in findings:
        by_rule[diag.code] = by_rule.get(diag.code, 0) + 1
    values = {
        "cells": _ANALYSIS_CELLS,
        "graph_signals": len(graph.signals),
        "graph_processes": len(graph.processes),
        "comb_edges": sum(1 for _ in graph.comb_edges()),
        "loops_found": len(loops),
        "loop_signals": len(loops[0][0]) if loops else 0,
        "findings_rpe001": by_rule.get("RPE001", 0),
        "findings_rpe004": by_rule.get("RPE004", 0),
        "chain_levels": max(levels.values()) if levels else 0,
        "chain_eval_order": len(order),
        "chain_cyclic": len(cyclic),
        "normalized_cost": round(ratio, 4),
    }
    checks = {key: "exact" for key in values}
    checks["normalized_cost"] = "max"
    timings = {"run_s": round(best, 6),
               "calibration_s": round(calib, 6)}
    return envelope("bench", bench="analysis", values=values,
                    checks=checks, timings=timings,
                    metrics=_unlabeled(registry))


_SERVE_SESSIONS = 3
_SERVE_SIMS_PER_SESSION = 3
_SERVE_UNTIL_FS = 250 * 10**6  # 250 ns of the gate_top pipeline


def _serve_request(port, method, path, body=None):
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def scenario_serve():
    """Boot the ``repro serve`` daemon on a private port, prime a few
    sessions with the simulation pipeline, then gate on a concurrent
    burst of ``/sim`` requests: per-request results are deterministic
    (``exact`` cycle counters, zero failures) and the burst cost is
    normalized (``max``)."""
    from concurrent.futures import ThreadPoolExecutor

    from ..serve import BackgroundServer

    sids = ["bench%d" % i for i in range(_SERVE_SESSIONS)]
    burst = [(sid, n) for sid in sids
             for n in range(_SERVE_SIMS_PER_SESSION)]

    with BackgroundServer(workers=2, batch_window=0.005) as server:
        port = server.port
        for sid in sids:
            status, data = _serve_request(
                port, "POST", "/compile",
                {"session": sid,
                 "files": [{"name": "pipe.vhd",
                            "text": _SIM_SOURCE}]})
            if status != 200 or not data.get("ok"):
                raise RuntimeError("bench-check serve prime failed: "
                                   "%s" % (data,))

        def measure():
            latencies = []

            def one(job):
                sid, _ = job
                t0 = time.perf_counter()
                status, data = _serve_request(
                    port, "POST", "/sim",
                    {"session": sid, "top": "gate_top",
                     "until": "%dfs" % _SERVE_UNTIL_FS})
                latencies.append(time.perf_counter() - t0)
                return status, data
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(one, burst))
            return results, sorted(latencies)

        ratio, best, calib, (results, latencies) = normalized_cost(
            measure, repeats=3)

    failures = sum(1 for status, data in results
                   if status != 200 or not data.get("ok"))
    cycles = sorted({data.get("cycles") for _, data in results})
    n = len(latencies)
    p50 = latencies[n // 2]
    p95 = latencies[min(n - 1, (n * 95) // 100)]
    values = {
        "sessions": _SERVE_SESSIONS,
        "requests": len(burst),
        "failures": failures,
        # Every request simulates the same design to the same time,
        # so the kernels must agree bit-for-bit across sessions.
        "distinct_cycle_counts": len(cycles),
        "cycles": cycles[0] if cycles else 0,
        "normalized_cost": round(ratio, 4),
    }
    checks = {
        "sessions": "exact",
        "requests": "exact",
        "failures": "exact",
        "distinct_cycle_counts": "exact",
        "cycles": "exact",
        "normalized_cost": "max",
    }
    timings = {
        "run_s": round(best, 6),
        "calibration_s": round(calib, 6),
        "rps": round(len(burst) / best, 1),
        "p50_ms": round(p50 * 1e3, 3),
        "p95_ms": round(p95 * 1e3, 3),
    }
    return envelope("bench", bench="serve", values=values,
                    checks=checks, timings=timings, metrics={})


_FUZZ_SEED = 7
_FUZZ_BUDGET = 15


def scenario_fuzz():
    """The generative conformance harness's gate: a fixed-seed sweep
    must be *deterministic* (``exact`` outcome counts, zero
    divergences/crashes, exact total design size — any drift means
    the generator or an oracle input changed semantics) and its
    normalized cost must not regress (``max``)."""
    from ..gen.runner import run_sweep

    def measure():
        registry = MetricsRegistry()
        return run_sweep(_FUZZ_SEED, _FUZZ_BUDGET, jobs=1,
                         shrink_failures=False, metrics=registry), \
            registry

    ratio, best, calib, (report, registry) = normalized_cost(
        measure, repeats=3)
    values = {
        "seed": _FUZZ_SEED,
        "budget": _FUZZ_BUDGET,
        "ok": report.counts.get("ok", 0),
        "rejected": report.counts.get("rejected", 0),
        "sim_error": report.counts.get("sim_error", 0),
        "divergences": report.counts.get("divergence", 0),
        "crashes": report.counts.get("crash", 0),
        "total_lines": sum(r["lines"] for r in report.records),
        "designs_per_second": round(
            _FUZZ_BUDGET / max(best, 1e-9), 1),
        "normalized_cost": round(ratio, 4),
    }
    checks = {
        "seed": "exact",
        "budget": "exact",
        "ok": "exact",
        "rejected": "exact",
        "sim_error": "exact",
        "divergences": "exact",
        "crashes": "exact",
        "total_lines": "exact",
        "designs_per_second": "min",
        "normalized_cost": "max",
    }
    timings = {"sweep_s": round(best, 6),
               "calibration_s": round(calib, 6)}
    metrics = {
        name: fam
        for name, fam in registry.snapshot()["metrics"].items()
        if name.startswith("fuzz_")
    }
    return envelope("bench", bench="fuzz", values=values,
                    checks=checks, timings=timings, metrics=metrics)


def scenario_trace():
    """The tracing gate.  Two invariants: (a) a kernel constructed
    with ``trace=None`` must cost what it always cost — the disabled
    path is one hoisted bool test per cycle, pinned by
    ``normalized_cost_disabled`` (``max``); (b) with every timestep
    and resume traced (``trace_sample=1``) the span counts are a pure
    function of the design — ``exact`` — and the traced cost is
    pinned loosely (``max``, tracing is allowed to cost something)."""
    from ..diag.trace import Tracer
    from ..trace.context import SpanContext, use
    from ..vhdl.elaborate import run_design

    library = _compile(_SIM_SOURCE, "design")

    def run(trace=None):
        return run_design(library, "gate_top",
                          until_fs=_SIM_UNTIL_FS, trace=trace,
                          trace_sample=1).kernel

    ratio_off, best_off, calib, kernel_off = normalized_cost(run)

    def run_traced():
        tracer = Tracer()
        with use(SpanContext()):
            kernel = run(trace=tracer)
        return tracer, kernel

    ratio_on, best_on, _, (tracer, _kernel_on) = normalized_cost(
        run_traced)

    timesteps = sum(1 for e in tracer.events
                    if e.get("name") == "timestep")
    resumes = sum(1 for e in tracer.events
                  if e.get("name") == "process_resume")
    roots = sum(1 for e in tracer.events
                if e.get("ph") == "X" and not e.get("parent_id"))
    values = {
        "cycles": kernel_off.cycles,
        "span_timesteps": timesteps,
        "span_resumes": resumes,
        "orphan_spans": roots,
        "normalized_cost_disabled": round(ratio_off, 4),
        "normalized_cost_enabled": round(ratio_on, 4),
    }
    checks = {
        "cycles": "exact",
        "span_timesteps": "exact",
        "span_resumes": "exact",
        "orphan_spans": "exact",
        "normalized_cost_disabled": "max",
        "normalized_cost_enabled": "max",
    }
    timings = {"run_disabled_s": round(best_off, 6),
               "run_enabled_s": round(best_on, 6),
               "calibration_s": round(calib, 6)}
    return envelope("bench", bench="trace", values=values,
                    checks=checks, timings=timings)


SCENARIOS = {
    "simulation": scenario_simulation,
    "incremental": scenario_incremental,
    "lint": scenario_lint,
    "analysis": scenario_analysis,
    "kernel_scaling": scenario_kernel_scaling,
    "compiled_codegen": scenario_compiled_codegen,
    "compiled_warm": scenario_compiled_warm,
    "serve": scenario_serve,
    "fuzz": scenario_fuzz,
    "trace": scenario_trace,
}


# -- comparison --------------------------------------------------------------


class CheckFailure(Exception):
    """A baseline could not be loaded or compared."""


def _close(a, b):
    if isinstance(a, float) or isinstance(b, float):
        scale = max(abs(a), abs(b), 1e-12)
        return abs(a - b) / scale <= 1e-9
    return a == b


def compare(baseline, current_values, tolerance=0.15):
    """[(key, mode, base, current, ok, detail)] for every check."""
    values = baseline.get("values", {})
    checks = baseline.get("checks", {})
    rows = []
    for key in sorted(values):
        mode = checks.get(key, "ratio")
        base = values[key]
        cur = current_values.get(key)
        if cur is None:
            rows.append((key, mode, base, None, False,
                         "missing from current run"))
            continue
        if mode == "exact":
            ok = _close(base, cur)
            detail = "must equal baseline"
        elif mode == "max":
            limit = base * (1.0 + tolerance)
            ok = cur <= limit
            detail = "<= %.6g (base %.6g +%.0f%%)" % (
                limit, base, tolerance * 100)
        elif mode == "min":
            limit = base * (1.0 - tolerance)
            ok = cur >= limit
            detail = ">= %.6g (base %.6g -%.0f%%)" % (
                limit, base, tolerance * 100)
        elif mode == "ratio":
            scale = max(abs(base), 1e-12)
            ok = abs(cur - base) / scale <= tolerance
            detail = "within %.0f%% of %.6g" % (tolerance * 100, base)
        else:
            ok, detail = False, "unknown check mode %r" % mode
        rows.append((key, mode, base, cur, ok, detail))
    return rows


def load_bench_json(path):
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict) or "values" not in data:
        raise CheckFailure(
            "%s: not a repro-metrics bench file (no 'values')" % path)
    return data


def bench_check(baseline_path, tolerance=0.15, current_path=None,
                update=False, out=print):
    """Run one gate; returns a process exit code (0 = pass)."""
    try:
        baseline = load_bench_json(baseline_path)
    except FileNotFoundError:
        if not update:
            out("bench-check: no baseline %s (run with --update to "
                "create it)" % baseline_path)
            return 2
        name = _bench_name_from_path(baseline_path)
        baseline = {"bench": name}
    except CheckFailure as exc:
        out("bench-check: %s" % exc)
        return 2
    name = baseline.get("bench") or _bench_name_from_path(
        baseline_path)
    if current_path is not None:
        current = load_bench_json(current_path)
        source = current_path
    else:
        scenario = SCENARIOS.get(name)
        if scenario is None:
            out("bench-check: no built-in scenario %r "
                "(known: %s); pass --current FILE"
                % (name, ", ".join(sorted(SCENARIOS))))
            return 2
        current = scenario()
        source = "fresh %r run" % name
    if update:
        tmp = "%s.tmp.%d" % (baseline_path, os.getpid())
        with open(tmp, "w") as f:
            json.dump(current, f, indent=1, sort_keys=True)
            f.write("\n")
        os.replace(tmp, baseline_path)
        out("bench-check: baseline %s updated from %s"
            % (baseline_path, source))
        return 0
    rows = compare(baseline, current.get("values", {}), tolerance)
    failures = 0
    out("bench-check %s: baseline %s vs %s (tolerance %.0f%%)"
        % (name, baseline_path, source, tolerance * 100))
    for key, mode, base, cur, ok, detail in rows:
        mark = "ok  " if ok else "FAIL"
        out("  %s %-26s %-6s base=%-12s current=%-12s %s"
            % (mark, key, mode, _fmt(base), _fmt(cur), detail))
        if not ok:
            failures += 1
    if failures:
        out("bench-check: %d regression(s) against %s"
            % (failures, baseline_path))
        return 1
    out("bench-check: ok (%d check(s))" % len(rows))
    return 0


def _bench_name_from_path(path):
    stem = os.path.splitext(os.path.basename(path))[0]
    if stem.startswith("BENCH_"):
        stem = stem[len("BENCH_"):]
    return stem.lower()


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)
