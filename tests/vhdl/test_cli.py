"""Tests for the script-driven interface (python -m repro)."""

import os

import pytest

from repro.cli import main
from repro.sim import parse_time


@pytest.fixture()
def collect():
    lines = []

    def out(text=""):
        lines.append(str(text))

    out.lines = lines
    return out


BLINK = """
entity blink is end blink;
architecture rtl of blink is
  signal led : bit := '0';
  signal n : integer := 0;
begin
  process
  begin
    led <= not led;
    n <= n + 1;
    wait for 10 ns;
  end process;
end rtl;
"""


@pytest.fixture()
def project(tmp_path):
    src = tmp_path / "blink.vhd"
    src.write_text(BLINK)
    root = tmp_path / "libs"
    return str(src), str(root)


class TestParseTime:
    def test_units(self):
        assert parse_time("10ns") == 10 * 10**6
        assert parse_time("1 us") == 10**9
        assert parse_time("2ms") == 2 * 10**12
        assert parse_time("5000") == 5000

    def test_fractional(self):
        assert parse_time("1.5ns") == 1_500_000


class TestCompileCommand:
    def test_compile_ok(self, project, collect):
        src, root = project
        rc = main(["--root", root, "compile", src], out=collect)
        assert rc == 0
        assert any("ok" in line for line in collect.lines)
        assert os.path.isdir(os.path.join(root, "work"))

    def test_compile_errors_reported(self, tmp_path, collect):
        bad = tmp_path / "bad.vhd"
        bad.write_text("""
            entity e is end e;
            architecture a of e is
              signal s : no_such_type;
            begin
            end a;
        """)
        rc = main(["compile", str(bad)], out=collect)
        assert rc == 1
        assert any("no_such_type" in line for line in collect.lines)

    def test_keep_going(self, tmp_path, collect):
        bad = tmp_path / "bad.vhd"
        bad.write_text("entity e is end e;\narchitecture a of ghost is"
                       "\nbegin\nend a;\n")
        rc = main(["compile", "--keep-going", str(bad)], out=collect)
        assert rc == 0


class TestListAndDump:
    def test_list(self, project, collect):
        src, root = project
        main(["--root", root, "compile", src], out=lambda *_: None)
        rc = main(["--root", root, "list"], out=collect)
        assert rc == 0
        assert "work.blink" in collect.lines
        assert "work.rtl(blink)" in collect.lines

    def test_dump(self, project, collect):
        src, root = project
        main(["--root", root, "compile", src], out=lambda *_: None)
        rc = main(["--root", root, "dump", "work", "rtl(blink)"],
                  out=collect)
        assert rc == 0
        assert any("ArchUnit" in line for line in collect.lines)


class TestSimulateCommand:
    def test_simulate_with_trace_and_vcd(self, project, tmp_path,
                                         collect):
        src, root = project
        main(["--root", root, "compile", src], out=lambda *_: None)
        vcd = str(tmp_path / "wave.vcd")
        rc = main([
            "--root", root, "simulate", "blink", "--until", "95ns",
            "--trace", "led", "--vcd", vcd,
        ], out=collect)
        assert rc == 0
        assert any("95 ns" in line for line in collect.lines)
        assert any(":blink:n" in line and "10" in line
                   for line in collect.lines)
        with open(vcd) as f:
            assert "$enddefinitions" in f.read()

    def test_simulate_after_build_keeps_package_order(self, tmp_path,
                                                      collect):
        # Disk loading is alphabetical, so body(pk) sorts before pk;
        # simulate must open the built root in its recorded compile
        # order or the body's reference to pk's constant is unbound.
        pk = tmp_path / "pk.vhd"
        pk.write_text(PK)
        top = tmp_path / "top.vhd"
        top.write_text(PK_TOP)
        root = str(tmp_path / "libs")
        assert main(["--root", root, "build", str(pk), str(top)],
                    out=lambda *_: None) == 0
        rc = main(["--root", root, "simulate", "top", "--until", "50ns"],
                  out=collect)
        assert rc == 0
        assert "  %-30s = 18" % ":top:s" in collect.lines


PK = """
package pk is
  constant k : integer := 3;
  function f(x : integer) return integer;
end pk;
package body pk is
  function f(x : integer) return integer is
  begin
    return x + k;
  end f;
end pk;
"""

PK_TOP = """
use work.pk.all;
entity top is end top;
architecture rtl of top is
  signal s : integer := 0;
begin
  p : process
  begin
    s <= f(s);
    wait for 10 ns;
  end process;
end rtl;
"""


class TestStats:
    def test_stats_table(self, collect):
        rc = main(["stats"], out=collect)
        assert rc == 0
        text = "\n".join(collect.lines)
        assert "vhdl_principal" in text
        assert "max visits" in text


class TestBuildCommand:
    def test_build_requires_root(self, project, collect):
        src, _root = project
        rc = main(["build", src], out=collect)
        assert rc == 2
        assert any("--root" in line for line in collect.lines)

    def test_build_then_warm_rebuild(self, project, collect):
        src, root = project
        rc = main(["--root", root, "build", src], out=collect)
        assert rc == 0
        assert any(line.startswith("compiled") for line in collect.lines)
        assert any("cache:" in line and "1 miss(es)" in line
                   for line in collect.lines)
        del collect.lines[:]
        rc = main(["--root", root, "build", src], out=collect)
        assert rc == 0
        assert any(line.startswith("hit") for line in collect.lines)
        assert any("0 AG evaluation(s)" in line
                   for line in collect.lines)

    def test_build_force_and_jobs_flags(self, project, collect):
        src, root = project
        main(["--root", root, "build", src], out=lambda *_: None)
        rc = main(["--root", root, "build", src, "--force",
                   "--jobs", "2"], out=collect)
        assert rc == 0
        assert any(line.startswith("compiled") and "forced" in line
                   for line in collect.lines)

    def test_build_reports_failures(self, tmp_path, collect):
        bad = tmp_path / "bad.vhd"
        bad.write_text("entity e is port ( x : in nosuch ); end e;")
        root = str(tmp_path / "libs")
        rc = main(["--root", root, "build", str(bad)], out=collect)
        assert rc == 1
        assert any(line.startswith("failed") for line in collect.lines)
