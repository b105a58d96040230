"""Tests for the grammar model: symbols, productions, sanity checks,
and the spec layer's validation."""

import pytest

from repro.ag import AGSpec, GrammarError, SYN
from repro.ag.grammar import Grammar


class TestGrammar:
    def test_symbol_interning(self):
        g = Grammar("g")
        a1 = g.terminal("A")
        a2 = g.terminal("A")
        assert a1 is a2

    def test_kind_conflict_rejected(self):
        g = Grammar("g")
        g.terminal("A")
        with pytest.raises(GrammarError):
            g.nonterminal("A")

    def test_duplicate_label_rejected(self):
        g = Grammar("g")
        g.terminal("A")
        g.add_production("p", "X", ["A"])
        with pytest.raises(GrammarError):
            g.add_production("p", "X", ["A"])

    def test_start_defaults_to_first_lhs(self):
        g = Grammar("g")
        g.terminal("A")
        g.add_production("p", "X", ["A"])
        assert g.start.name == "X"

    def test_check_reports_undefined_nonterminal(self):
        g = Grammar("g")
        g.terminal("A")
        g.add_production("p", "X", ["Y"])  # Y never defined
        warnings = g.check()
        assert any("Y" in w and "no productions" in w
                   for w in warnings)

    def test_check_reports_unreachable(self):
        g = Grammar("g")
        g.terminal("A")
        g.add_production("p", "X", ["A"])
        g.add_production("q", "Z", ["A"])  # unreachable from X
        warnings = g.check()
        assert any("Z" in w and "unreachable" in w for w in warnings)

    def test_production_str(self):
        g = Grammar("g")
        g.terminal("A")
        p = g.add_production("p", "X", [])
        assert "<empty>" in str(p)


class TestSpecValidation:
    def test_undeclared_rhs_symbol_rejected(self):
        g = AGSpec("s")
        g.nonterminal("x")
        with pytest.raises(GrammarError) as info:
            g.production("p", "x -> MYSTERY")
        assert "MYSTERY" in str(info.value)

    def test_occurrence_index_stripping(self):
        g = AGSpec("s")
        g.terminals("A")
        g.nonterminal("e", ("v", SYN))
        p = g.production("p", "e -> e0 A e1")
        assert [s.name for s in p.production.rhs] == ["e", "A", "e"]

    def test_finish_is_idempotent(self):
        g = AGSpec("s")
        g.terminals("A")
        g.nonterminal("x", ("v", SYN))
        g.production("p", "x -> A").const("x.v", 1)
        c1 = g.finish()
        c2 = g.finish()
        assert c1 is c2

    def test_bad_rule_target_rejected(self):
        from repro.ag import AttributeError_

        g = AGSpec("s")
        g.terminals("A")
        g.nonterminal("x", ("v", SYN))
        g.nonterminal("y", ("w", SYN))
        p = g.production("p", "x -> y")
        with pytest.raises(AttributeError_):
            # Defining a *synthesized* attribute of a child is illegal.
            p.const("y.w", 1)

    def test_terminal_lexical_attr_whitelist(self):
        from repro.ag import AttributeError_

        g = AGSpec("s")
        g.terminals("A")
        g.nonterminal("x", ("v", SYN))
        p = g.production("p", "x -> A")
        with pytest.raises(AttributeError_) as info:
            p.rule("x.v", "A.nonsense", fn=lambda v: v)
        assert "lexical" in str(info.value)


class TestThreeVisitGrammar:
    """A grammar needing three visits: collect, distribute, then a
    second feedback round — near the paper's 'went from four visits to
    five to three' story."""

    def test_three_visits(self):
        from repro.ag import (
            DynamicEvaluator, INH, StaticEvaluator, SYN, Token)

        g = AGSpec("three_visit")
        g.terminals("A")
        g.nonterminal("root", ("out", SYN))
        g.nonterminal(
            "l", ("n", SYN), ("total", INH), ("scaled", SYN),
            ("bias", INH), ("final", SYN))
        p = g.production("root_l", "root -> l")
        p.copy("l.total", "l.n")          # visit1 result feeds visit2
        p.copy("l.bias", "l.scaled")      # visit2 result feeds visit3
        p.copy("root.out", "l.final")
        p = g.production("l_more", "l -> l0 A")
        p.rule("l0.n", "l1.n", fn=lambda n: n + 1)
        p.copy("l1.total", "l0.total")
        p.rule("l0.scaled", "l1.scaled", "l0.total",
               fn=lambda s, t: s + t)
        p.copy("l1.bias", "l0.bias")
        p.rule("l0.final", "l1.final", "l0.bias",
               fn=lambda f, b: f + b)
        p = g.production("l_one", "l -> A")
        p.const("l.n", 1)
        p.rule("l.scaled", "l.total", fn=lambda t: t)
        p.rule("l.final", "l.bias", fn=lambda b: b)
        compiled = g.finish()

        assert compiled.analyze().visits["l"] == 3
        assert compiled.statistics().max_visits == 3

        tokens = [Token("A", "a")] * 3
        dyn = DynamicEvaluator(compiled).goal_attributes(
            compiled.parse(tokens))
        tree = compiled.parse(tokens)
        stat = StaticEvaluator(compiled).goal_attributes(tree)
        assert dyn == stat
        # n=3; scaled = 3*total summed = 9; bias = 9; final = 27.
        assert dyn["out"] == 27
