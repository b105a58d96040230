"""The fork pool's warm step: workers inherit every generated translator.

A multi-file batch (``repro build -j N``, ``repro serve``) forks its
workers after the parent ran the warm step.  Whatever the warm step
leaves out — the expression AG, either grammar's compiled visit
functions — every worker would generate again for itself.
"""

import asyncio

import pytest

from repro.ag import static_eval
from repro.build.pool import ForkPool, fork_available, warm_grammar
from repro.build.scheduler import compile_file_task
from repro.serve.app import ServeApp
from repro.vhdl import expr_grammar, grammar

#: one entry per translator or visit-program generation in this process
GENERATED = []

SOURCES = {
    "a.vhd": """
entity a is
  port (x : in bit; y : out bit);
end a;
architecture rtl of a is
begin
  y <= not x after 1 ns;
end rtl;
""",
    "b.vhd": """
entity b is
  port (n : in integer; m : out integer);
end b;
architecture rtl of b is
begin
  m <= n * 2 + 1;
end rtl;
""",
}


@pytest.fixture()
def cold_translators(monkeypatch):
    """Forget the cached translators and count every regeneration."""

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            GENERATED.append(kind)
            return fn(*args, **kwargs)
        return wrapper

    for module in (grammar, expr_grammar):
        monkeypatch.setattr(module, "_GRAMMAR", None)
        monkeypatch.setattr(module, "_make_grammar",
                            counted("grammar", module._make_grammar))
    monkeypatch.setattr(static_eval, "VisitProgram",
                        counted("visits", static_eval.VisitProgram))
    del GENERATED[:]
    yield GENERATED
    del GENERATED[:]


def compile_counting(root, path):
    """Worker task: compile one file; report generations seen so far."""
    with open(path) as f:
        result = compile_file_task(root, "work", (), path, f.read())
    return len(GENERATED), result["ok"]


def test_warm_generates_both_translators(cold_translators):
    warm_grammar()
    assert sorted(cold_translators) == ["grammar", "grammar",
                                        "visits", "visits"]
    warm_grammar()  # cached from now on
    assert len(cold_translators) == 4


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_forked_worker_generates_nothing(cold_translators, tmp_path):
    paths = []
    for name, text in SOURCES.items():
        path = tmp_path / name
        path.write_text(text)
        paths.append(str(path))
    root = str(tmp_path / "lib")
    with ForkPool(jobs=2) as pool:
        results = pool.map_ordered(compile_counting,
                                   [(root, p) for p in paths])
    warmed = len(cold_translators)
    assert warmed == 4
    # Each worker's count started from the parent's at fork time.
    assert results == [(warmed, True)] * len(paths)


def test_serve_warm_is_the_pool_warm_step(cold_translators, tmp_path):
    app = ServeApp(state_dir=str(tmp_path / "state"), workers=2)
    try:
        app.warm()
        assert sorted(cold_translators) == ["grammar", "grammar",
                                            "visits", "visits"]
    finally:
        asyncio.run(app.shutdown())
