"""``sim_long``: a mixed design simulated over a long window.

The design (:func:`gen.sim_design`) is compiled during set-up; the run
then opens the library, elaborates, specializes it with
``CompiledKernel.compile_design`` and simulates.  The kernel and the
simulation codegen do almost all the work and the front end none, so a
kernel or codegen change shows here and should not move ``cold_build``.
About three quarters of the signal events come from the token ring on
the compiled fast path and a quarter from the pipeline on the generic
event-kernel path.
"""

import os
import time
from contextlib import nullcontext
from statistics import median

import gen
from common import SETUP_REPEATS, SpeedSampler, percentile, self_peak_rss_mb, \
    timed_probe
from layers import recorder_layers
from model import sim_long_expected

#: simulated window of the traced run (fixed, so its counts repeat), ns
WINDOW_NS = 60000
#: simulated length of one timed chunk of the untraced run, in ns
CHUNK_NS = 10000
#: cold simulation starts per run (``latency_ms_p50``/``p90``)
STARTS = 7


def cold_start(root, top):
    """Open the built library (in its recorded compile order),
    elaborate and specialize, as a fresh ``repro sim --backend
    compiled`` process would: the program cache is emptied first so
    codegen runs cold every time."""
    from repro.build.driver import IncrementalBuilder
    from repro.sim import CompiledKernel
    from repro.sim.compiled import _PROGRAM_CACHE
    from repro.vhdl.elaborate import Elaborator

    _PROGRAM_CACHE.clear()
    t0 = time.perf_counter()
    library = IncrementalBuilder(root).library()
    kernel = CompiledKernel()
    sim = Elaborator(library, kernel=kernel).elaborate(top)
    kernel.compile_design(sim.records)
    return time.perf_counter() - t0, sim


def run_window(sim, recorder=None):
    with recorder.operation("op.sim_run") if recorder else nullcontext():
        t0 = time.perf_counter()
        sim.run(until_fs=WINDOW_NS * gen.NS)
        seconds = time.perf_counter() - t0
    return seconds


def check_values(sim, expected, out):
    """Compare every checked signal with the reference model."""
    got = {path.rsplit(":", 1)[-1]: sig.value
           for path, sig in sim.names.signals()}
    for name, want in sorted(expected.items()):
        have = got.get(name)
        out.check(have is not None and str(have).strip("'") == str(want),
                  "%s = %r, model says %r" % (name, have, want))


def kernel_counts(kernel):
    return {
        "kernel.cycles": kernel.cycles,
        "kernel.delta_cycles": kernel.delta_cycles,
        "kernel.events": sum(s.events for s in kernel.signals),
        "kernel.resumes": sum(p.resumes for p in kernel.processes),
        "kernel.stale_pops": kernel.stale_pops,
    }


def run(args, work, env, out, recorder=None):
    from repro.analysis import dataflow, netlist  # noqa: F401 (imports)
    from repro.sim import codegen  # noqa: F401

    design = gen.sim_design(args.seed)
    source = os.path.join(work, "mixed.vhd")
    with open(source, "w") as f:
        f.write(design.text)
    setups = []
    for n in range(SETUP_REPEATS):
        root = os.path.join(work, "lib%d" % n)
        setups.append(timed_probe(["--build", source, root], env))
    out.end_to_end["setup_s"] = median([s for s, _ in setups])

    if recorder is None:
        deadline = time.perf_counter() + args.seconds
        starts, raw_starts, rates, raw_rates = [], [], [], []
        with SpeedSampler() as sampler:
            for _ in range(STARTS):
                t0 = time.perf_counter()
                seconds, sim = cold_start(root, design.top)
                raw_starts.append(seconds)
                starts.append(sampler.normalized(t0, t0 + seconds))
            # Run on in fixed simulated chunks until the time is up; the
            # median chunk rate shrugs off a host stall in one chunk.
            kernel, until_ns, events = sim.kernel, 0, 0
            while not rates or time.perf_counter() < deadline:
                until_ns += CHUNK_NS
                t0 = time.perf_counter()
                sim.run(until_fs=until_ns * gen.NS)
                seconds = time.perf_counter() - t0
                total = sum(s.events for s in kernel.signals)
                raw_rates.append((total - events) / seconds)
                rates.append((total - events)
                             / sampler.normalized(t0, t0 + seconds))
                events = total
        check_values(sim, sim_long_expected(design, until_ns), out)
        out.end_to_end.update({
            "throughput_per_s": median(rates),
            "latency_ms_p50": percentile(starts, 50) * 1000,
            "latency_ms_p90": percentile(starts, 90) * 1000,
            "peak_rss_mb": self_peak_rss_mb(),
        })
        out.detail.update({
            "sim_events_per_s": median(rates),
            "host_sim_events_per_s": median(raw_rates),
            "sim_start_s": median(starts),
            "host_sim_start_s": median(raw_starts),
            "chunks": len(rates), "starts": len(starts),
            "window_ns": until_ns, "events": events,
        })
        return

    expected = sim_long_expected(design, WINDOW_NS)
    untraced_start, sim = cold_start(root, design.top)
    untraced_s = untraced_start + run_window(sim)
    check_values(sim, expected, out)
    recorder.install()
    try:
        with recorder.operation("op.sim_start"):
            _, sim = cold_start(root, design.top)
        run_window(sim, recorder)
    finally:
        recorder.uninstall()
    check_values(sim, expected, out)
    kernel = sim.kernel
    out.per_layer.update(recorder_layers(recorder, untraced_s))
    out.per_layer.update(kernel_counts(kernel))
    out.per_layer.update({
        "ag.translator_s": median([i["translator_s"] for _, i in setups]),
        "simgen.compiled_proc_ratio":
            kernel.compiled_procs / len(kernel.processes),
    })
