"""Self-tests of the repo benchmark (run: python3 -m pytest perfbench/tests).

They cover the seeded generators, the self-time reduction of a span
tree, and that a wrong simulated value counts as a failed check.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import common  # noqa: E402
import edit_loop  # noqa: E402
import gen  # noqa: E402
import sim_long  # noqa: E402
from model import sim_long_expected  # noqa: E402
from spans import Recorder, layer_self_seconds, self_times  # noqa: E402


# -- generators ---------------------------------------------------------------


def test_project_same_seed_is_byte_identical():
    a, b = gen.project(5), gen.project(5)
    assert a.files == b.files
    assert gen.project(6).files != a.files


def test_project_shape_is_seed_independent():
    sizes = {gen.project(seed).lines() for seed in range(3)}
    assert len(sizes) == 1
    assert 9000 <= sizes.pop() <= 11000


def test_sim_design_same_seed_is_byte_identical():
    assert gen.sim_design(3).text == gen.sim_design(3).text
    assert gen.sim_design(4).text != gen.sim_design(3).text


def test_edit_sequence_same_seed_is_byte_identical():
    def edits(seed):
        proj = edit_loop.edit_project(seed)
        rng = gen.random.Random(seed)
        return [gen.next_edit(proj, rng, n % 5 == 0).text
                for n in range(12)]

    assert edits(9) == edits(9)


def test_edit_updates_the_predicted_probes():
    proj = edit_loop.edit_project(1)
    before = proj.probe_expected("top0", 3)
    edit = gen.next_edit(proj, gen.random.Random(0), package=True)
    after = proj.probe_expected("top0", 3)
    changed = {k for k in before if before[k] != after[k]}
    leaves = proj.tops["top0"]
    assert changed == {"p%d" % i for i, leaf in enumerate(leaves)
                       if proj.leaf_pkg[leaf] == edit.target}


# -- span self time -----------------------------------------------------------


def test_self_times_on_a_hand_built_tree():
    # (name, start, end, parent, op)
    spans = [
        ("op.build", 0.0, 10.0, -1, 1),
        ("ag.principal", 1.0, 7.0, 0, 1),
        ("ag.expr", 2.0, 4.0, 1, 1),
        ("lr.parse", 2.5, 3.0, 2, 1),
        ("vif.write", 5.0, 6.0, 1, 1),
        ("lexer.scan", 8.0, 9.0, 0, 1),
    ]
    assert self_times(spans) == [3.0, 3.0, 1.5, 0.5, 1.0, 1.0]
    totals = layer_self_seconds(spans)
    assert sum(totals.values()) == 10.0  # self times cover the root


def test_overlapping_children_are_counted_once():
    spans = [("root", 0.0, 4.0, -1, 1),
             ("a", 1.0, 3.0, 0, 1),
             ("b", 2.0, 3.5, 0, 1)]
    assert self_times(spans)[0] == 1.5


def test_recorder_nests_spans_under_one_operation():
    rec = Recorder()
    with rec.operation("op.x"):
        with rec.span("inner"):
            pass
    with rec.operation("op.y"):
        pass
    (n0, _, _, p0, op0), (n1, _, _, p1, op1), (_, _, _, _, op2) = rec.spans
    assert (n0, p0, n1, p1) == ("op.x", -1, "inner", 0)
    assert op0 == op1 != op2


# -- host-speed normalization -------------------------------------------------


def test_sampler_removes_its_own_time_and_rescales():
    sampler = common.SpeedSampler()
    # (perf_counter start, time.time start, seconds) of two samples
    sampler.samples = [(1.0, 0.0, 0.01), (1.25, 0.0, 0.02)]
    busy = 0.5 - 0.03
    want = busy * common.SAMPLE_REFERENCE_S / 0.015
    assert abs(sampler.normalized(1.0, 1.5) - want) < 1e-12


def test_sampler_runs_inside_the_measured_thread():
    with common.SpeedSampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.8:
            pass
    assert len(sampler.samples) >= 2
    assert sampler.normalized(t0, t0 + 0.8) > 0


def test_percentile_never_extrapolates():
    values = [1.0, 2.0, 3.0, 10.0]
    assert common.percentile(values, 90) <= max(values)
    assert common.percentile(values, 50) == 2.5


# -- output checks ------------------------------------------------------------


class _Names:
    def __init__(self, values):
        self.values = values

    def signals(self):
        return [(":mixed:" + k, _Sig(v)) for k, v in self.values.items()]


class _Sig:
    def __init__(self, value):
        self.value = value


class _Sim:
    def __init__(self, values):
        self.names = _Names(values)


def test_wrong_simulated_value_raises_error_rate():
    design = gen.sim_design(1, cells=40)
    expected = sim_long_expected(design, 300)
    good = common.Outcome()
    sim_long.check_values(_Sim(dict(expected)), expected, good)
    assert good.failed == 0 and good.attempted == len(expected)

    wrong = dict(expected, hits=expected["hits"] + 1)
    bad = common.Outcome()
    sim_long.check_values(_Sim(wrong), expected, bad)
    assert bad.failed == 1
    assert bad.failed / bad.attempted > good.failed / good.attempted


def test_wrong_served_probe_raises_error_rate():
    client = edit_loop.Client.__new__(edit_loop.Client)
    client.session, client.out = "c0", common.Outcome()
    client.proj = edit_loop.edit_project(1)
    want = client.proj.probe_expected(
        edit_loop.TOP, gen.rising_edges(edit_loop.SIM_NS))
    reply = {"ok": True, "end_fs": edit_loop.SIM_NS * gen.NS,
             "signals": [[":top0:" + k, str(v)] for k, v in want.items()]}
    client.check_sim(200, reply)
    assert client.out.failed == 0
    reply["signals"][0][1] = str(int(reply["signals"][0][1]) + 1)
    client.check_sim(200, reply)
    assert client.out.failed == 1 and client.out.attempted == 2


def test_model_agrees_with_a_small_simulation():
    """The reference model against both kernels on a small ring."""
    from repro.sim import CompiledKernel, Kernel
    from repro.vhdl.compiler import Compiler
    from repro.vhdl.elaborate import Elaborator
    from repro.vhdl.library import LibraryManager

    design = gen.sim_design(2, cells=24, tokens=3, n_stages=4)
    library = LibraryManager(root=None)
    result = Compiler(library=library, strict=False).compile(design.text)
    assert result.ok, result.messages
    expected = sim_long_expected(design, 700)
    for kernel in (Kernel(), CompiledKernel()):
        sim = Elaborator(library, kernel=kernel).elaborate(design.top)
        if isinstance(kernel, CompiledKernel):
            kernel.compile_design(sim.records)
        sim.run(until_fs=700 * gen.NS)
        out = common.Outcome()
        sim_long.check_values(sim, expected, out)
        assert out.failed == 0, out.failures
