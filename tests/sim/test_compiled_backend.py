"""Differential suite: the compiled backend vs the activity kernel.

Every pinned corpus design replays through the three-legged oracle
(event / scan / compiled) and must reach its pinned outcome with zero
divergence; one rich design is additionally compared observable by
observable (trace history, VCD bytes, bridged ``sim_*`` metric
families).  A combinational loop exercises the cyclic-quarantine
fallback: the loop signals must stay calendar-managed while the rest
of the design still compiles, and the quarantine set must come out of
:func:`repro.analysis.levelize` deterministically sorted by signal
index (the ``repro-levels/1`` byte-stability fix).
"""

import os

import pytest

from repro.analysis import build_netlist, levelize
from repro.gen.corpus import iter_corpus
from repro.gen.oracle import (
    _METRIC_FAMILIES,
    _compare,
    _simulate,
    check_source,
)
from repro.sim import CompiledKernel, Kernel
from repro.sim.compiled import _PROGRAM_CACHE
from repro.vhdl.compiler import Compiler
from repro.vhdl.elaborate import Elaborator
from repro.vhdl.library import LibraryManager

CORPUS_DIR = os.path.join(
    os.path.dirname(__file__), "..", "gen", "corpus")


def compile_lib(source, filename="<test>"):
    library = LibraryManager(root=None)
    result = Compiler(library=library, strict=False).compile(
        source, filename=filename)
    assert result.ok, result.messages
    return library


def _entries():
    entries = iter_corpus(CORPUS_DIR)
    assert entries, "the committed corpus must not be empty"
    return entries


@pytest.mark.parametrize("entry", _entries(), ids=lambda e: e.name)
class TestCorpusReplay:
    """Each pinned design, three backends, pinned outcome, zero
    divergence (``check_source`` compares the legs pairwise)."""

    def test_three_legs_agree(self, entry):
        result = check_source(entry.source, entry.top,
                              until_ns=entry.until_ns,
                              filename=entry.path, compiled=True)
        assert result.outcome == entry.expect, result.detail


class TestObservableIdentity:
    """Field-by-field identity on a rich hierarchy design: VCD bytes,
    signal images, per-process resumes, and the ``sim_*`` metric
    families the oracle pins."""

    @pytest.fixture(scope="class")
    def observations(self):
        entry = {e.name: e for e in _entries()}[
            "full_hierarchy_config_spec"]
        library = compile_lib(entry.source, entry.path)
        until_fs = entry.until_ns * 10**6
        event = _simulate("event", library, entry.top, until_fs)
        compiled = _simulate("compiled", library, entry.top, until_fs)
        assert event.get("error") is None
        assert compiled.get("error") is None
        return event, compiled

    def test_no_observable_differs(self, observations):
        event, compiled = observations
        assert _compare(event, compiled, "Kernel",
                        "CompiledKernel") is None

    def test_vcd_bytes_identical(self, observations):
        event, compiled = observations
        assert event["vcd"] == compiled["vcd"]

    def test_metric_families_identical(self, observations):
        event, compiled = observations
        for family in _METRIC_FAMILIES:
            assert event["metrics"].get(family) == \
                compiled["metrics"].get(family), family


COMB_LOOP = """
entity looped is end looped;
architecture rtl of looped is
  signal a : bit := '0';
  signal b : bit := '0';
  signal kick : bit := '0';
  signal tap : bit := '0';
begin
  -- A two-signal zero-delay loop: levelization must quarantine
  -- both.  It is stable at the initial values, so the design still
  -- settles — the quarantine is structural, not behavioral.
  fwd : a <= b;
  bwd : b <= a;
  -- An acyclic cone off the loop input stays compilable.
  probe : tap <= not kick;
  stim : process
  begin
    kick <= '1' after 10 ns;
    wait;
  end process;
end rtl;
"""


class TestQuarantineFallback:
    def test_loop_signals_fall_back_to_the_calendar(self):
        library = compile_lib(COMB_LOOP)
        kernel = CompiledKernel()
        sim = Elaborator(library, kernel=kernel).elaborate("looped")
        kernel.compile_design(sim.records)
        loop = {s.index for s in kernel.signals
                if s.name.split(":")[-1] in ("a", "b")}
        assert loop
        # Quarantined signals never get flat-slot storage: their
        # transactions go through Driver objects and the calendar.
        assert not (loop & kernel.program.slot_indices)

    def test_loop_design_semantics_identical(self):
        result = check_source(COMB_LOOP, "looped", until_ns=100,
                              compiled=True)
        assert result.outcome == "ok", result.detail

    def test_quarantine_sorted_by_signal_index(self):
        library = compile_lib(COMB_LOOP)
        sim = Elaborator(library, kernel=Kernel()).elaborate("looped")
        graphs = [build_netlist(sim.records) for _ in range(2)]
        runs = [levelize(g)[2] for g in graphs]
        for cyclic in runs:
            assert isinstance(cyclic, list)
            assert [s.index for s in cyclic] == \
                sorted(s.index for s in cyclic)
        assert [s.path for s in runs[0]] == [s.path for s in runs[1]]


RING = """
entity miniring is end miniring;
architecture rtl of miniring is
  signal c_0 : integer := 0;
  signal c_1 : integer := 0;
  signal c_2 : integer := 0;
  signal c_3 : integer := 0;
begin
  p_0: process (c_0) begin c_1 <= 1 - c_1 after 1 ns; end process;
  p_1: process begin wait on c_1; c_2 <= 1 - c_2 after 1 ns;
       end process;
  p_2: process begin wait on c_2; c_3 <= 1 - c_3 after 1 ns;
       end process;
  p_3: process begin wait on c_3; c_0 <= 1 - c_0 after 1 ns;
       end process;
end rtl;
"""


class TestFastDispatch:
    """The per-signal dispatch table: with every process compiled
    pure (single-signal permanent wait, no condition) and no metrics
    or tracers attached, ``_cycle`` takes the table-driven lane — and
    must still be state-identical to the event kernel."""

    def _run(self, kernel_cls, library, compiled):
        kernel = kernel_cls()
        sim = Elaborator(library, kernel=kernel).elaborate("miniring")
        if compiled:
            kernel.compile_design(sim.records)
        kernel.initialize()
        kernel.run(until=50 * 10**6)  # 50 ns
        return kernel

    def test_fast_lane_matches_the_event_kernel(self):
        library = compile_lib(RING)
        k_ev = self._run(Kernel, library, compiled=False)
        k_co = self._run(CompiledKernel, library, compiled=True)
        assert k_co._fast_dispatch, \
            "the ring must qualify for table dispatch"
        assert k_co.cycles == k_ev.cycles
        assert k_co.delta_cycles == k_ev.delta_cycles
        assert [s.value for s in k_co.signals] == \
            [s.value for s in k_ev.signals]
        assert [s.events for s in k_co.signals] == \
            [s.events for s in k_ev.signals]
        assert [s.transactions for s in k_co.signals] == \
            [s.transactions for s in k_ev.signals]
        assert [p.resumes for p in k_co.processes] == \
            [p.resumes for p in k_ev.processes]


CACHED = """
entity cached is end cached;
architecture rtl of cached is
  signal tick : bit := '0';
begin
  clock : process
  begin
    tick <= not tick after 5 ns;
    wait on tick;
  end process;
end rtl;
"""


class TestProgramCache:
    def test_second_elaboration_reuses_the_program(self):
        library = compile_lib(CACHED)

        def specialize():
            kernel = CompiledKernel()
            sim = Elaborator(library,
                             kernel=kernel).elaborate("cached")
            kernel.compile_design(sim.records)
            return kernel

        _PROGRAM_CACHE.clear()
        first = specialize()
        assert len(_PROGRAM_CACHE) == 1
        second = specialize()
        # Same fingerprint -> the very same Program object; only the
        # per-elaboration bind (environment capture) re-runs.
        assert second.program is first.program
        assert len(_PROGRAM_CACHE) == 1

    def test_compile_design_rejected_after_initialize(self):
        library = compile_lib(CACHED)
        kernel = CompiledKernel()
        sim = Elaborator(library, kernel=kernel).elaborate("cached")
        kernel.initialize()
        with pytest.raises(Exception):
            kernel.compile_design(sim.records)
