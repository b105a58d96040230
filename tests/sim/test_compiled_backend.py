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


# -- template keys -------------------------------------------------------------
#
# Codegen renders one template per process *shape* and binds each
# instance to it by data (signal indices, re-captured environment
# values).  Each test pins one input the shape key must carry — or
# must leave out — and checks the compiled run against the event
# kernel down to the VCD bytes.


def _specialize(library, top):
    kernel = CompiledKernel()
    sim = Elaborator(library, kernel=kernel).elaborate(top)
    return kernel, kernel.compile_design(sim.records)


def _plan(kernel, program, suffix):
    (proc,) = [p for p in kernel.processes if p.name.endswith(suffix)]
    return program.plans[proc.index]


def _assert_same_as_event_kernel(library, top, until_ns):
    until_fs = until_ns * 10**6
    event = _simulate("event", library, top, until_fs)
    compiled = _simulate("compiled", library, top, until_fs)
    assert event.get("error") is None
    assert compiled.get("error") is None
    assert _compare(event, compiled, "Kernel", "CompiledKernel") is None
    assert event["vcd"] == compiled["vcd"]
    return compiled


GENERIC_PAIR = """
entity scale is
  generic ( k : integer := 1 );
  port ( x : in integer; y : out integer );
end scale;
architecture rtl of scale is
begin
  p : process (x) begin y <= x + k after 1 ns; end process;
end rtl;

entity gpair is end gpair;
architecture rtl of gpair is
  component scale
    generic ( k : integer := 1 );
    port ( x : in integer; y : out integer );
  end component;
  signal cnt : integer := 0;
  signal y3 : integer := 0;
  signal y5 : integer := 0;
begin
  clock : process begin wait for 5 ns; cnt <= cnt + 1; end process;
  u3 : scale generic map (k => 3) port map (x => cnt, y => y3);
  u5 : scale generic map (k => 5) port map (x => cnt, y => y5);
end rtl;
"""

SLOT_AND_RESOLVED = """
entity twins is end twins;
architecture rtl of twins is
  function wired_or (bits : bit_vector) return bit is
  begin
    for i in bits'range loop
      if bits(i) = '1' then
        return '1';
      end if;
    end loop;
    return '0';
  end wired_or;
  subtype rbit is wired_or bit;
  signal a : bit := '0';
  signal plain : bit := '0';
  signal wired : rbit := '0';
begin
  -- Textually identical bodies: ``plain`` has one compiled driver
  -- (slot storage), ``wired`` is resolved and driven twice.
  p_plain : process (a) begin plain <= a after 1 ns; end process;
  p_wired : process (a) begin wired <= a after 1 ns; end process;
  other : process begin
    wired <= '1' after 12 ns, '0' after 30 ns;
    wait;
  end process;
  stim : process begin
    a <= '1' after 5 ns, '0' after 20 ns, '1' after 40 ns;
    wait;
  end process;
end rtl;
"""

ALIASED_PORTS = """
entity pair is
  port ( a : in integer; b : in integer; y : out integer );
end pair;
architecture rtl of pair is
begin
  p : process (a, b) begin y <= a * 10 + b after 1 ns; end process;
end rtl;

entity alias_top is end alias_top;
architecture rtl of alias_top is
  component pair
    port ( a : in integer; b : in integer; y : out integer );
  end component;
  signal s : integer := 0;
  signal t : integer := 0;
  signal same : integer := 0;
  signal apart : integer := 0;
begin
  stim : process begin
    wait for 5 ns; s <= s + 1;
    wait for 5 ns; t <= t + 2;
  end process;
  u_same : pair port map (a => s, b => s, y => same);
  u_apart : pair port map (a => s, b => t, y => apart);
end rtl;
"""


class TestTemplateKeys:
    def test_generic_values_share_a_template(self):
        # (a) generics are re-captured per instance at bind time,
        # never baked into the shared template.
        library = compile_lib(GENERIC_PAIR)
        kernel, program = _specialize(library, "gpair")
        u3 = _plan(kernel, program, "u3:p")
        u5 = _plan(kernel, program, "u5:p")
        assert u3.resume == u5.resume
        compiled = _assert_same_as_event_kernel(library, "gpair", 50)
        values = dict(compiled["values"])
        assert values[":gpair:y3"] != values[":gpair:y5"]

    def test_slot_flag_splits_identical_bodies(self):
        # (b) one body, two templates: the slot write for ``plain``
        # would bypass resolution if ``wired`` reused it.
        library = compile_lib(SLOT_AND_RESOLVED)
        kernel, program = _specialize(library, "twins")
        plain = _plan(kernel, program, "p_plain")
        wired = _plan(kernel, program, "p_wired")
        slots = program.slot_indices
        assert plain.args[0] in slots
        assert wired.args[0] not in slots
        assert plain.resume != wired.resume
        _assert_same_as_event_kernel(library, "twins", 60)

    def test_ports_mapped_to_one_actual(self):
        # (c) ``u_same`` binds both port parameters to one signal;
        # ``u_apart`` binds two, through the same template.
        library = compile_lib(ALIASED_PORTS)
        kernel, program = _specialize(library, "alias_top")
        same = _plan(kernel, program, "u_same:p")
        apart = _plan(kernel, program, "u_apart:p")
        assert same.resume == apart.resume
        assert len(set(same.args)) < len(set(apart.args))
        _assert_same_as_event_kernel(library, "alias_top", 60)

    def test_template_module_does_not_grow_with_instances(self):
        # (d) codegen output is a function of the distinct shapes,
        # not of the instance count.
        from repro.metrics.benchcheck import ring_vhdl

        sizes = []
        for n in (8, 64):
            library = compile_lib(ring_vhdl(n, 2))
            kernel, program = _specialize(library, "ring")
            assert program.stats["compiled"] == n
            sizes.append((program.stats["templates"],
                          len(program.source)))
        assert sizes[0] == sizes[1]
        _assert_same_as_event_kernel(compile_lib(ring_vhdl(8, 2)),
                                     "ring", 40)
