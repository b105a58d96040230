"""``cold_build``: a ~10k-line project built into an empty library.

The paper's own measurement (§2.2, lines per minute): the front end
(scan, parse, principal AG, expression AG, model compile, VIF) does
almost all the work and the simulator none.  Each build goes through
``IncrementalBuilder.build`` at ``jobs=1`` (the ``repro build``
default) into a fresh root, so every file is a cache miss.
"""

import itertools
import os
import shutil
import time
from contextlib import nullcontext
from statistics import median

import gen
from common import SETUP_REPEATS, SpeedSampler, percentile, self_peak_rss_mb, \
    timed_probe
from layers import recorder_layers


def write_project(proj, src_dir):
    os.makedirs(src_dir, exist_ok=True)
    paths = []
    for name, text in proj.files.items():
        path = os.path.join(src_dir, name)
        with open(path, "w") as f:
            f.write(text)
        paths.append(path)
    return paths


def check_report(proj, paths, report, out):
    """Every file compiled cleanly into exactly the units its source
    declares (the generator's list, not the compiler's)."""
    for name, path in zip(proj.files, paths):
        action = report.actions.get(path)
        keys = [key for _lib, key in report.units.get(path, ())]
        out.check(action == "compiled"
                  and not report.messages.get(path)
                  and not report.diagnostics.get(path)
                  and keys == proj.units[name],
                  "%s: %s %s" % (name, action, keys))


def build_once(proj, paths, root, out, recorder=None):
    from repro.build.driver import IncrementalBuilder

    builder = IncrementalBuilder(root, jobs=1)
    with recorder.operation("op.build") if recorder else nullcontext():
        t0 = time.perf_counter()
        report = builder.build(paths)
        seconds = time.perf_counter() - t0
    check_report(proj, paths, report, out)
    # Per-file compile intervals (wall-clock start, seconds) from the
    # build's own trace events.
    files = [(e["ts"] / 1e6, e["dur"] / 1e6) for e in report.trace_events
             if e["name"] == "compile_file"]
    shutil.rmtree(root)
    return seconds, files, report


def run(args, work, env, out, recorder=None):
    from repro.vhdl.expr_grammar import expr_grammar
    from repro.vhdl.grammar import principal_grammar

    proj = gen.project(args.seed)
    paths = write_project(proj, os.path.join(work, "src"))
    setups = [timed_probe([], env) for _ in range(SETUP_REPEATS)]
    out.end_to_end["setup_s"] = median([s for s, _ in setups])
    translator_s = median([info["translator_s"] for _, info in setups])
    principal_grammar()
    expr_grammar()
    lines = proj.lines()
    roots = (os.path.join(work, "lib%d" % n) for n in itertools.count())

    if recorder is None:
        deadline = time.perf_counter() + args.seconds
        seconds, raw, file_ms = [], [], []
        with SpeedSampler() as sampler:
            while not seconds or time.perf_counter() < deadline:
                t0 = time.perf_counter()
                s, files, _ = build_once(proj, paths, next(roots), out)
                raw.append(s)
                seconds.append(sampler.normalized(t0, t0 + s))
                file_ms += [sampler.normalized(ts, ts + dur, clock=1) * 1000
                            for ts, dur in files]
        rate = lines * len(seconds) / sum(seconds)
        out.end_to_end.update({
            "throughput_per_s": rate,
            "latency_ms_p50": percentile(file_ms, 50),
            "latency_ms_p90": percentile(file_ms, 90),
            "peak_rss_mb": self_peak_rss_mb(),
        })
        out.detail.update({
            "compile_lines_per_s": rate,
            "host_lines_per_s": lines * len(raw) / sum(raw),
            "lines": lines, "builds": len(seconds),
            "file_compile_samples": len(file_ms),
        })
        return

    untraced_s, _, _ = build_once(proj, paths, next(roots), out)
    recorder.install()
    try:
        _, _, report = build_once(proj, paths, next(roots), out, recorder)
    finally:
        recorder.uninstall()
    stats, ag = report.stats, report.ag_stats
    demanded = stats.get("hits", 0) + stats.get("misses", 0)
    out.per_layer.update(recorder_layers(recorder, untraced_s))
    out.per_layer.update({
        "ag.translator_s": translator_s,
        "ag.rule_firings": ag.get("total_firings", 0),
        "ag.memo_hit_ratio": ag.get("hit_rate", 0.0),
        "ag.visits": sum(ag.get("visits", {}).values()),
        "build.cache_hit_ratio": stats.get("hits", 0) / demanded,
        "build.ag_evaluations": stats.get("ag_evaluations", 0),
    })
