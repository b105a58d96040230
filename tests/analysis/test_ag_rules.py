"""AG-spec lint rules (RPA001/002/003) over toy grammars and the
compiler's own built-in grammars."""

import pytest

from repro.ag import AGSpec, INH, SYN
from repro.analysis import LintEngine
from repro.vhdl import expr_grammar as expr
from repro.vhdl import grammar as principal


def toy_grammar(extra_syn=False):
    g = AGSpec("toy")
    g.terminals("NUM")
    attrs = [("val", SYN), ("env", INH)]
    if extra_syn:
        attrs.append(("aux", SYN))
    g.nonterminal("expr", *attrs)
    p = g.production("num", "expr -> NUM")
    p.rule("expr.val", "NUM.value", "expr.env",
           fn=lambda v, e: v + e.get("bias", 0))
    if extra_syn:
        p.const("expr.aux", 0)
    return g.finish()


def copy_chain_grammar():
    """``lvl`` is only ever copied down the ``t`` chain: every
    occurrence is read by some implicit copy rule, yet no value of it
    reaches the goal ``val``."""
    g = AGSpec("chain")
    g.terminals("A")
    g.attr_class("lvl", INH)
    g.nonterminal("s", ("val", SYN), "lvl")
    g.nonterminal("t", ("val", SYN), "lvl")
    p = g.production("s_t", "s -> t")
    p.copy("s.val", "t.val")
    p = g.production("t_more", "t -> t0 A")
    p.rule("t0.val", "t1.val", "A.value", fn=lambda v, a: v + a)
    p = g.production("t_a", "t -> A")
    p.copy("t.val", "A.value")
    return g.finish()


def circular_grammar():
    g = AGSpec("circ")
    g.terminals("A")
    g.nonterminal("s", ("x", SYN))
    g.nonterminal("t", ("down", INH), ("up", SYN))
    p = g.production("s_t", "s -> t")
    p.copy("s.x", "t.up")
    p.copy("t.down", "t.up")
    p = g.production("t_a", "t -> A")
    p.copy("t.up", "t.down")
    return g.finish()


class TestRPA001:
    def test_entry_supplied_inherited_is_clean(self):
        findings = LintEngine().lint_ag(
            toy_grammar(), entry_inherited=["env"], goals=["val"])
        assert findings == []

    def test_unsupplied_inherited_is_flagged(self):
        findings = LintEngine(select=["RPA001"]).lint_ag(
            toy_grammar(), goals=["val"])
        assert [d.code for d in findings] == ["RPA001"]
        assert "expr.env" in findings[0].message


class TestRPA002:
    def test_computed_but_never_read_is_flagged(self):
        findings = LintEngine(select=["RPA002"]).lint_ag(
            toy_grammar(extra_syn=True),
            entry_inherited=["env"], goals=["val"])
        assert [d.code for d in findings] == ["RPA002"]
        assert "expr.aux" in findings[0].message

    def test_goal_attributes_are_exempt(self):
        findings = LintEngine(select=["RPA002"]).lint_ag(
            toy_grammar(extra_syn=True),
            entry_inherited=["env"], goals=["val", "aux"])
        assert findings == []

    def test_value_copied_along_a_chain_is_flagged(self):
        findings = LintEngine(select=["RPA002"]).lint_ag(
            copy_chain_grammar(), entry_inherited=["lvl"],
            goals=["val"])
        assert sorted(d.message for d in findings) == [
            "attribute s.lvl never reaches a goal",
            "attribute t.lvl never reaches a goal",
        ]

    def test_empty_goals_means_all_root_outputs(self):
        findings = LintEngine(select=["RPA002"]).lint_ag(
            toy_grammar(extra_syn=True), entry_inherited=["env"])
        assert findings == []


class TestRPA003:
    def test_circular_grammar_flagged_as_error(self):
        findings = LintEngine(select=["RPA003"]).lint_ag(
            circular_grammar())
        assert [d.code for d in findings] == ["RPA003"]
        assert findings[0].severity == "error"
        assert "circular" in findings[0].message

    def test_noncircular_grammar_is_clean(self):
        findings = LintEngine(select=["RPA003"]).lint_ag(
            toy_grammar(), entry_inherited=["env"])
        assert findings == []

    def test_reported_cycle_is_deterministic(self):
        messages = {
            LintEngine(select=["RPA003"]).lint_ag(
                circular_grammar())[0].message
            for _ in range(5)
        }
        assert len(messages) == 1


class TestBuiltinGrammars:
    @pytest.mark.parametrize("module, compiled", [
        (principal, principal.principal_grammar),
        (expr, expr.expr_grammar),
    ], ids=["principal", "expr"])
    def test_every_rpa_rule_is_clean(self, module, compiled):
        findings = LintEngine(select=["RPA"]).lint_ag(
            compiled(), entry_inherited=module.ENTRY_INHERITED,
            goals=module.GOALS)
        assert findings == []
