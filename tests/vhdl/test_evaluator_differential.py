"""Differential oracle for the compiled visit-sequence evaluator.

Every ordered grammar evaluates through its generated visit functions
(:class:`repro.ag.static_eval.VisitProgram`); the demand-driven
:class:`repro.ag.DynamicEvaluator` is the reference.  Each session
below is compiled twice into a fresh disk-backed library, once per
evaluator (both the principal and the expression AG switch), and the
two runs must agree byte for byte: every library file (VIF, generated
model), the compile order, and the diagnostics JSON lines.
"""

import glob
import importlib.util
import os

import pytest

from repro.ag.spec import CompiledAG
from repro.diag import render_jsonl
from repro.vhdl.compiler import CompileError, Compiler
from repro.vhdl.library import LibraryManager

REPO = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))


def _load_workloads():
    path = os.path.join(REPO, "benchmarks", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read(path):
    with open(path) as f:
        return f.read()


def sessions():
    """``(id, [(filename, text), ...])``: files compiled in order into
    one library."""
    w = _load_workloads()
    out = [
        ("workloads-design", [("design.vhd", w.gen_design())]),
        ("workloads-configuration", [
            ("leaf.vhd", w.gen_entity_arch("leaf", n_processes=2)),
            ("board.vhd", w.gen_structural("board", "leaf",
                                           n_instances=3)),
            ("cfg.vhd", w.gen_configuration(
                "cfg", "board", "struct", ["all"], "leaf", "rtl")),
        ]),
        ("workloads-package-users", [
            ("pkg.vhd", w.gen_package("pkg0")),
            ("unit.vhd", w.gen_entity_arch("unit0", pkg="pkg0")),
        ]),
        ("semantic-errors", [("bad.vhd", BAD_SOURCE)]),
    ]
    for path in sorted(glob.glob(os.path.join(REPO, "examples", "*.vhd"))
                       + glob.glob(os.path.join(REPO, "tests", "gen",
                                                "corpus", "*.vhd"))):
        name = os.path.basename(path)
        out.append((name, [(name, _read(path))]))
    return out


BAD_SOURCE = """
entity bad is
  port (a : in bit; n : in integer; q : out bit);
end bad;
architecture rtl of bad is
  signal s : integer;
begin
  q <= a and n;
  s <= undeclared + 1;
  p : process (a)
  begin
    if n then
      q <= '1';
    end if;
  end process;
end rtl;
"""


def compile_session(files, root):
    """Compile ``files`` into a library at ``root``; return every
    observable outcome."""
    compiler = Compiler(library=LibraryManager(root=root), strict=False)
    outcome = []
    for name, text in files:
        try:
            result = compiler.compile(text, name)
            outcome.append((result.messages,
                            render_jsonl(result.diagnostics)))
        except CompileError as exc:
            outcome.append(("error", exc.messages,
                            render_jsonl(exc.diagnostics)))
    artifacts = {}
    for dirpath, _, filenames in os.walk(root):
        for filename in filenames:
            path = os.path.join(dirpath, filename)
            with open(path, "rb") as f:
                artifacts[os.path.relpath(path, root)] = f.read()
    return {
        "outcome": outcome,
        "compile_order": compiler.library.compile_order,
        "artifacts": artifacts,
    }


SESSIONS = sessions()


@pytest.mark.parametrize("files", [f for _, f in SESSIONS],
                         ids=[name for name, _ in SESSIONS])
def test_compiled_evaluator_matches_dynamic(files, tmp_path, monkeypatch):
    compiled = compile_session(files, str(tmp_path / "compiled"))
    with monkeypatch.context() as patch:
        patch.setattr(CompiledAG, "visit_program", lambda self: None)
        dynamic = compile_session(files, str(tmp_path / "dynamic"))
    assert sorted(compiled["artifacts"]) == sorted(dynamic["artifacts"])
    for name, data in compiled["artifacts"].items():
        assert data == dynamic["artifacts"][name], name
    assert compiled["compile_order"] == dynamic["compile_order"]
    assert compiled["outcome"] == dynamic["outcome"]


def test_semantic_errors_are_reported():
    """The error session must actually exercise the diagnostic path."""
    compiler = Compiler(library=LibraryManager(), strict=False)
    result = compiler.compile(BAD_SOURCE, "bad.vhd")
    assert result.messages
