"""End-to-end CLI tests for the diagnostics and observability flags."""

import json
import re

import pytest

from repro.cli import main

GOOD = """entity ok is end ok;
architecture a of ok is
  signal x : integer := 1;
begin
end a;
"""

SEM_BAD = """entity e is end e;
architecture a of e is
  signal s : no_such_type;
begin
end a;
"""

PARSE_BAD = """entity f is end f
architecture b of f is
begin
end b;
"""


@pytest.fixture()
def collect():
    lines = []

    def out(text=""):
        lines.append(str(text))

    out.lines = lines
    return out


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _json_blob(lines):
    """The single out() call holding a JSON document."""
    return next(l for l in lines if l.lstrip().startswith("{"))


class TestSarifAcceptance:
    """Compiling two erroneous files yields a SARIF log with at least
    two diagnostics carrying correct file/line/column spans."""

    def test_two_files_two_results(self, tmp_path, collect):
        a = _write(tmp_path, "a.vhd", SEM_BAD)
        b = _write(tmp_path, "b.vhd", PARSE_BAD)
        rc = main(["--root", str(tmp_path / "libs"),
                   "--diag-format", "sarif", "compile", a, b],
                  out=collect)
        assert rc == 1
        log = json.loads(_json_blob(collect.lines))
        assert log["version"] == "2.1.0"
        results = log["runs"][0]["results"]
        assert len(results) >= 2

        def locs(result):
            return result["locations"][0]["physicalLocation"]

        sem = [r for r in results if r["ruleId"] == "SEM001"]
        assert sem, "semantic diagnostic expected"
        assert locs(sem[0])["artifactLocation"]["uri"] == a
        assert locs(sem[0])["region"]["startLine"] == 3

        parse = [r for r in results if r["ruleId"] == "PARSE001"]
        assert parse, "parse diagnostic expected"
        assert locs(parse[0])["artifactLocation"]["uri"] == b
        assert locs(parse[0])["region"]["startLine"] == 2
        assert locs(parse[0])["region"]["startColumn"] >= 1

    def test_json_lines_format(self, tmp_path, collect):
        a = _write(tmp_path, "a.vhd", SEM_BAD)
        main(["--root", str(tmp_path / "libs"),
              "--diag-format", "json", "compile", a], out=collect)
        blob = _json_blob(collect.lines)
        objs = [json.loads(line) for line in blob.splitlines()]
        assert objs[0]["code"] == "SEM001"
        assert objs[0]["span"]["file"] == a

    def test_text_format_stays_legacy(self, tmp_path, collect):
        a = _write(tmp_path, "a.vhd", SEM_BAD)
        main(["--root", str(tmp_path / "libs"), "compile", a],
             out=collect)
        assert not any(l.lstrip().startswith("{")
                       for l in collect.lines)


class TestBuildDiagFormat:
    def test_build_sarif(self, tmp_path, collect):
        a = _write(tmp_path, "a.vhd", SEM_BAD)
        rc = main(["--root", str(tmp_path / "libs"),
                   "--diag-format", "sarif", "build", a], out=collect)
        assert rc == 1
        log = json.loads(_json_blob(collect.lines))
        assert any(r["ruleId"] == "SEM001"
                   for r in log["runs"][0]["results"])


class TestProfileFlags:
    def test_compile_profile_prints_tables(self, tmp_path, collect):
        g = _write(tmp_path, "ok.vhd", GOOD)
        rc = main(["--root", str(tmp_path / "libs"), "--profile",
                   "compile", g], out=collect)
        assert rc == 0
        text = "\n".join(collect.lines)
        assert "compile profile" in text
        assert "attribute_evaluation" in text
        assert "rule firing" in text  # AG observer summary

    def test_compile_profile_counts_visits(self, tmp_path, collect):
        g = _write(tmp_path, "ok.vhd", GOOD)
        assert main(["--root", str(tmp_path / "libs"), "--profile",
                     "compile", g], out=collect) == 0
        match = re.search(r"visits: (\d+) across", "\n".join(collect.lines))
        assert match and int(match.group(1)) > 0

    def test_werror_clean_compile_passes(self, tmp_path, collect):
        g = _write(tmp_path, "ok.vhd", GOOD)
        assert main(["--root", str(tmp_path / "libs"), "-W",
                     "compile", g], out=collect) == 0

    def test_explain_cycle_flag_accepted(self, tmp_path, collect):
        a = _write(tmp_path, "a.vhd", SEM_BAD)
        rc = main(["--root", str(tmp_path / "libs"),
                   "--explain-cycle", "compile", a], out=collect)
        assert rc == 1  # erroneous file still reported normally


class TestStatsJson:
    def test_stats_json_shape(self, collect):
        assert main(["stats", "--json"], out=collect) == 0
        data = json.loads(_json_blob(collect.lines))
        assert len(data["grammars"]) == 2
        for row in data["grammars"]:
            assert row["name"]
            assert row["productions"] > 0
            assert row["attributes"] > 0
            assert row["rules"] >= row["implicit_rules"]

    def test_stats_table_default(self, collect):
        assert main(["stats"], out=collect) == 0
        assert not any(l.lstrip().startswith("{")
                       for l in collect.lines)
