"""The differential oracle: outcome classification end to end."""

from repro.diag import Diagnostic
from repro.gen import check_source, generate_for, check_design
from repro.gen.oracle import _compare, _simulate, NS


GOOD = """
entity t is end t;
architecture a of t is
  signal clk : bit := '0';
  signal n : integer := 0;
begin
  clock : process
  begin
    clk <= not clk after 5 ns;
    wait on clk;
  end process;
  count : process (clk)
  begin
    if clk'event and clk = '1' then
      n <= (n + 1) mod 16;
    end if;
  end process;
end a;
"""

SYNTAX_ERROR = """
entity broken is
  port ( q : out integer )
end broken;
"""

SEMANTIC_ERROR = """
entity t is end t;
architecture a of t is
  signal x : integer := missing_name;
begin
end a;
"""

GENERATE_STMT = """
entity t is end t;
architecture a of t is
  signal x : integer := 0;
begin
  g0 : for i in 0 to 3 generate
    x <= 1;
  end generate;
end a;
"""

FAILING_ASSERT = """
entity t is end t;
architecture a of t is
  signal x : integer := 0;
begin
  stim : process
  begin
    wait for 10 ns;
    x <= 1;
    wait;
  end process;
  watch : assert x = 0
    report "x moved" severity failure;
end a;
"""

DELTA_STORM = """
entity t is end t;
architecture a of t is
  signal a1 : bit := '0';
begin
  p : a1 <= not a1;
end a;
"""


class TestOutcomes:
    def test_good_design_is_ok(self):
        result = check_source(GOOD, "t", until_ns=200)
        assert result.outcome == "ok"
        assert not result.failed

    def test_syntax_error_is_structured_rejection(self):
        result = check_source(SYNTAX_ERROR, "broken")
        assert result.outcome == "rejected"
        assert result.diagnostics
        assert all(isinstance(d, Diagnostic)
                   for d in result.diagnostics)

    def test_semantic_error_is_structured_rejection(self):
        result = check_source(SEMANTIC_ERROR, "t")
        assert result.outcome == "rejected"
        assert result.diagnostics

    def test_generate_statement_rejects_not_crashes(self):
        result = check_source(GENERATE_STMT, "t")
        assert result.outcome == "rejected"
        assert result.diagnostics

    def test_failure_severity_assert_is_sim_error(self):
        result = check_source(FAILING_ASSERT, "t", until_ns=100)
        assert result.outcome == "sim_error"
        assert "AssertionFailure" in result.detail

    def test_unbounded_delta_cycle_is_symmetric_sim_error(self):
        result = check_source(DELTA_STORM, "t", until_ns=50)
        assert result.outcome == "sim_error"
        assert "SimulationError" in result.detail


class TestSides:
    def test_sides_agree_on_good_design(self):
        from repro.vhdl.compiler import Compiler
        from repro.vhdl.library import LibraryManager

        library = LibraryManager(root=None)
        Compiler(library=library, strict=False).compile(GOOD)
        cal = _simulate("event", library, "t", 100 * NS)
        scan = _simulate("scan", library, "t", 100 * NS)
        assert cal["error"] is None
        assert cal["cycles"] > 0
        assert cal["vcd"].startswith("$date")
        assert _compare(cal, scan) is None

    def test_compare_names_first_differing_key(self):
        from repro.vhdl.compiler import Compiler
        from repro.vhdl.library import LibraryManager

        library = LibraryManager(root=None)
        Compiler(library=library, strict=False).compile(GOOD)
        cal = _simulate("event", library, "t", 100 * NS)
        scan = dict(_simulate("scan", library, "t", 100 * NS))
        scan["cycles"] += 1
        mismatch = _compare(cal, scan)
        assert mismatch is not None and mismatch.startswith("cycles")

    def test_metric_families_compared(self):
        from repro.vhdl.compiler import Compiler
        from repro.vhdl.library import LibraryManager

        library = LibraryManager(root=None)
        Compiler(library=library, strict=False).compile(GOOD)
        cal = _simulate("event", library, "t", 100 * NS)
        assert "sim_cycles_total" in cal["metrics"]
        assert "sim_signal_events_total" in cal["metrics"]


class TestGeneratedSweep:
    """A small inline conformance sweep — the harness's own smoke."""

    def test_first_designs_never_fail(self):
        for i in range(8):
            design = generate_for(1, i)
            result = check_design(design)
            assert not result.failed, (i, result.detail)

    def test_invalid_injections_reject_with_diagnostics(self):
        seen = 0
        for i in range(120):
            design = generate_for(13, i)
            if not any(f.startswith("invalid")
                       for f in design.features):
                continue
            seen += 1
            result = check_design(design)
            assert result.outcome in ("rejected", "sim_error"), \
                (i, result.outcome, result.detail)
            if result.outcome == "rejected":
                assert result.diagnostics
            if seen >= 3:
                break
        assert seen, "no invalid injections in 120 designs"


class TestAnalyzeLeg:
    """The optional static-analysis leg of the oracle: the analyzer
    must never crash on a generated design and must never claim a
    combinational loop on a design both kernels ran to quiescence."""

    def test_good_design_still_ok_with_analyze(self):
        result = check_source(GOOD, "t", until_ns=200, analyze=True)
        assert result.outcome == "ok"

    def test_sim_error_wins_over_static_findings(self):
        # The delta storm IS a comb loop statically, but the sweep
        # outcome stays the kernel truth: both kernels hit the
        # iteration limit, so the design is sim_error, not a
        # static/dynamic divergence.
        result = check_source(DELTA_STORM, "t", until_ns=50,
                              analyze=True)
        assert result.outcome == "sim_error"

    def test_loop_on_quiescent_design_is_divergence(self):
        # A comb loop whose processes never actually fire (no
        # stimulus reaches it) quiesces dynamically; if the static
        # analyzer still reports RPE001 the legs disagree and the
        # oracle must say so.  Force the situation by faking the
        # analyzer result.
        from repro.gen import oracle as oracle_mod

        class FakeDiag:
            code = "RPE001"
            message = "combinational loop through fake signals"

        real = oracle_mod._analyze
        oracle_mod._analyze = lambda library, top: [FakeDiag()]
        try:
            result = check_source(GOOD, "t", until_ns=100,
                                  analyze=True)
        finally:
            oracle_mod._analyze = real
        assert result.outcome == "divergence"
        assert "static/dynamic divergence" in result.detail

    def test_analyzer_crash_is_a_crash_outcome(self):
        # _analyze wraps the flatten+rules stage: an exception there
        # must surface as a crash outcome, not kill the sweep worker.
        import repro.analysis as analysis_mod

        def boom(records, top_path=None):
            raise RuntimeError("analyzer exploded")

        real = analysis_mod.build_netlist
        analysis_mod.build_netlist = boom
        try:
            result = check_source(GOOD, "t", until_ns=100,
                                  analyze=True)
        finally:
            analysis_mod.build_netlist = real
        assert result.outcome == "crash"
        assert "analyze raised" in result.detail
        assert "analyzer exploded" in result.detail

    def test_first_generated_designs_survive_analyze(self):
        for i in range(10):
            design = generate_for(1, i)
            result = check_design(design, analyze=True)
            assert not result.failed, (i, result.outcome,
                                       result.detail)
