"""Elaborated-design analyzer cost on a wide combinational design.

The analyzer flattens the elaborated design into a signal/process
graph and runs Tarjan's SCC over the zero-delay drive edges, so its
cost scales with elaborated size — cells, not source files.  The
workload is the same 2000-cell inverter ring the ``repro bench-check``
``analysis`` scenario gates on: one giant SCC (the worst case for the
SCC stack) plus its cut acyclic twin for the levelization pass.

Results are emitted as JSON via ``benchmark.extra_info`` like the
other benches (harvested into ``BENCH_analysis.json`` by conftest);
the *committed* ``benchmarks/BENCH_analysis.json`` regression
baseline is the deterministic ``repro bench-check`` scenario, not
this module.
"""

import json

from repro.analysis import (
    LintEngine,
    build_netlist,
    combinational_loops,
    levelize,
)
from repro.metrics.benchcheck import ring_source
from repro.vhdl.compiler import Compiler
from repro.vhdl.elaborate import Elaborator

N_CELLS = 2000


def elaborate_ring(cut=False):
    compiler = Compiler(strict=False)
    result = compiler.compile(ring_source(N_CELLS, cut=cut))
    assert result.ok, result.messages[:3]
    sim = Elaborator(compiler.library).elaborate("ring_top")
    return compiler.library, sim


def test_netlist_build_and_scc(benchmark):
    library, sim = elaborate_ring()

    def scenario():
        graph = build_netlist(sim.records)
        loops = combinational_loops(graph)
        findings = LintEngine(library=library).lint_design(graph)
        return graph, loops, findings

    graph, loops, findings = benchmark.pedantic(
        scenario, rounds=5, iterations=1)
    mean_s = benchmark.stats.stats.mean
    results = {
        "cells": N_CELLS,
        "graph_signals": len(graph.signals),
        "graph_processes": len(graph.processes),
        "loops_found": len(loops),
        "loop_signals": len(loops[0][0]),
        "findings": len(findings),
        "cells_per_s": round(N_CELLS / max(mean_s, 1e-9), 1),
        "analysis_pass_s": round(mean_s, 4),
    }
    print()
    print("=== analysis: netlist build + SCC on the ring ===")
    print(json.dumps(results, indent=2))
    benchmark.extra_info.update(results)
    # The ring is one SCC through every cell, by construction.
    assert len(loops) == 1 and len(loops[0][0]) == N_CELLS
    assert any(d.code == "RPE001" for d in findings)


def test_levelization_on_acyclic_chain(benchmark):
    _, sim = elaborate_ring(cut=True)
    graph = build_netlist(sim.records)

    def scenario():
        return levelize(graph)

    levels, order, cyclic = benchmark.pedantic(
        scenario, rounds=5, iterations=1)
    mean_s = benchmark.stats.stats.mean
    results = {
        "cells": N_CELLS,
        "max_level": max(levels.values()),
        "eval_order_len": len(order),
        "cyclic": len(cyclic),
        "levelize_s": round(mean_s, 4),
    }
    print()
    print("=== analysis: levelization on the cut chain ===")
    print(json.dumps(results, indent=2))
    benchmark.extra_info.update(results)
    # Cutting one edge makes the ring a pure chain: one signal per
    # level, nothing cyclic.
    assert max(levels.values()) == N_CELLS - 1
    assert len(order) == N_CELLS - 1 and not cyclic
