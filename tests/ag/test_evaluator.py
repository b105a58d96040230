"""Tests for the dynamic evaluator, the compiled static one (the
default for ordered grammars), and their agreement."""

import pytest

from repro.ag import (
    AGSpec,
    CircularityError,
    DynamicEvaluator,
    EvaluationError,
    StaticEvaluator,
    SYN,
    INH,
    Token,
)

from .calc_fixture import make_compiled, make_lexer


@pytest.fixture(scope="module")
def calc():
    return make_compiled()


@pytest.fixture(scope="module")
def lexer():
    return make_lexer()


def dynamic_run(compiled, tokens, inherited=None):
    tree = compiled.parse(tokens)
    return DynamicEvaluator(compiled, inherited).goal_attributes(tree)


class TestDynamicEvaluation:
    def test_arithmetic(self, calc, lexer):
        out = dynamic_run(calc, lexer.scan("2 + 3 * (4 + 5)"), {"env": {}})
        assert out["val"] == 29

    def test_subtraction_left_assoc(self, calc, lexer):
        out = dynamic_run(calc, lexer.scan("10 - 3 - 2"), {"env": {}})
        assert out["val"] == 5

    def test_inherited_environment_reaches_leaves(self, calc, lexer):
        out = dynamic_run(
            calc, lexer.scan("x * y + 1"), {"env": {"x": 6, "y": 7}}
        )
        assert out["val"] == 43

    def test_merge_class_counts_leaves(self, calc, lexer):
        out = dynamic_run(calc, lexer.scan("1 + 2 * (3 - x)"),
                          {"env": {"x": 0}})
        assert out["NODES"] == 4

    def test_unit_element_on_leafless_derivation(self):
        g = AGSpec("u")
        g.terminals("A")
        g.attr_class("N", SYN, merge=lambda a, b: a + b, unit=7)
        g.nonterminal("s", "N")
        g.production("s_a", "s -> A")
        out = dynamic_run(g.finish(), [Token("A", "a")])
        assert out["N"] == 7

    def test_missing_root_inherited_raises(self, calc, lexer):
        # The expression must actually demand env — evaluation is lazy.
        with pytest.raises(EvaluationError) as info:
            dynamic_run(calc, lexer.scan("x + 1"))
        assert "env" in str(info.value)

    def test_rule_exception_wrapped_with_context(self, calc, lexer):
        with pytest.raises(EvaluationError) as info:
            dynamic_run(calc, lexer.scan("missing + 1"), {"env": {}})
        assert "f_id" in str(info.value)

    def test_memoization_single_evaluation_per_instance(self, calc, lexer):
        tree = calc.parse(lexer.scan("1 + 2"))
        ev = DynamicEvaluator(calc, {"env": {}})
        ev.goal_attributes(tree)
        first = ev.evaluations
        ev.goal_attributes(tree)
        assert ev.evaluations == first

    def test_deep_tree_no_recursion_error(self, calc, lexer):
        text = "1" + " + 1" * 3000
        out = dynamic_run(calc, lexer.scan(text), {"env": {}})
        assert out["val"] == 3001


class TestCompiledEvaluation:
    """``CompiledAG.evaluate`` on an ordered grammar runs the generated
    visit functions; results and error texts match the dynamic
    evaluator's."""

    def test_default_is_the_generated_program(self, calc, lexer):
        program = calc.visit_program()
        assert program is not None and calc.visit_program() is program
        assert calc.run(lexer.scan("2 + 3 * (4 + 5)"),
                        inherited={"env": {}})["val"] == 29

    @pytest.mark.parametrize("text, inherited", [
        ("x + 1", None),                   # root inherited never supplied
        ("missing + 1", {"env": {}}),      # a rule raises KeyError
        ("2 * (3 + x)", {"env": {"x": "s"}}),  # a rule raises TypeError
    ])
    def test_errors_match_dynamic(self, calc, lexer, text, inherited):
        with pytest.raises(EvaluationError) as dyn:
            dynamic_run(calc, lexer.scan(text), inherited)
        with pytest.raises(EvaluationError) as stat:
            calc.run(lexer.scan(text), inherited=inherited)
        assert str(stat.value) == str(dyn.value)
        assert "(line " in str(stat.value) or "not supplied" in str(
            stat.value)

    def test_failing_merge_function_matches_dynamic(self):
        def merge(a, b):
            raise ValueError("no merge")

        g = AGSpec("m")
        g.terminals("A")
        g.attr_class("N", SYN, merge=merge, unit=1)
        g.nonterminal("s", "N")
        g.nonterminal("x", "N")
        g.production("s_xx", "s -> x x")
        g.production("x_a", "x -> A")
        compiled = g.finish()
        tokens = [Token("A", "a", line=4), Token("A", "a", line=5)]
        with pytest.raises(EvaluationError) as dyn:
            dynamic_run(compiled, tokens)
        with pytest.raises(EvaluationError) as stat:
            compiled.run(tokens)
        assert str(stat.value) == str(dyn.value)
        assert "ValueError: no merge" in str(stat.value)

    def test_circularity_error_from_a_rule_passes_through(self):
        def cyclic(level):
            raise CircularityError("from a nested evaluation")

        g = AGSpec("c")
        g.terminals("A")
        g.nonterminal("s", ("out", SYN))
        p = g.production("s_a", "s -> A")
        p.rule("s.out", "A.text", fn=cyclic)
        with pytest.raises(CircularityError) as info:
            g.finish().run([Token("A", "a")])
        assert str(info.value) == "from a nested evaluation"

    def test_missing_inner_inherited_is_not_a_root_read(self):
        # Only the root's inherited attributes come from the caller: an
        # unset one further down is a visit-sequence fault, not a
        # missing root input.
        g = AGSpec("inh")
        g.terminals("A")
        g.nonterminal("s", ("out", SYN))
        g.nonterminal("t", ("down", INH), ("up", SYN))
        s_t = g.production("s_t", "s -> t")
        s_t.const("t.down", 1)
        s_t.copy("s.out", "t.up")
        g.production("t_a", "t -> A").rule(
            "t.up", "t.down", fn=lambda down: down + 1)
        compiled = g.finish()
        assert compiled.run([Token("A", "a")])["out"] == 2

        def s_t_without_down(node):
            yield node.children[0], 0
            node.attrs["out"] = node.children[0].attrs["up"]

        program = compiled.visit_program()
        program.table[compiled.grammar.production("s_t").index] = (
            s_t_without_down,)
        with pytest.raises(EvaluationError) as info:
            compiled.run([Token("A", "a")])
        assert str(info.value) == (
            "visit-sequence bug: t.down not yet available in "
            "production t_a")

    def test_unknown_goal_matches_dynamic(self, calc, lexer):
        tokens = lexer.scan("1")
        with pytest.raises(EvaluationError) as dyn:
            DynamicEvaluator(calc, {"env": {}}).goal_attributes(
                calc.parse(tokens), goals=["nope"])
        with pytest.raises(EvaluationError) as stat:
            calc.run(tokens, inherited={"env": {}}, goals=["nope"])
        assert str(stat.value) == str(dyn.value)


class TestCircularity:
    def make_circular(self):
        g = AGSpec("circ")
        g.terminals("A")
        g.nonterminal("s", ("x", SYN))
        g.nonterminal("t", ("down", INH), ("up", SYN))
        p = g.production("s_t", "s -> t")
        p.copy("s.x", "t.up")
        p.copy("t.down", "t.up")  # down depends on up ...
        p = g.production("t_a", "t -> A")
        p.copy("t.up", "t.down")  # ... and up depends on down: a cycle
        return g.finish()

    def test_dynamic_detects_instance_cycle(self):
        compiled = self.make_circular()
        with pytest.raises(CircularityError) as info:
            compiled.run([Token("A", "a")])
        assert info.value.cycle

    def test_dependency_analysis_detects_cycle(self):
        compiled = self.make_circular()
        from repro.ag.dependency import DependencyAnalysis

        with pytest.raises(CircularityError):
            DependencyAnalysis(compiled).check_noncircular()


class TestStaticAgreement:
    @pytest.mark.parametrize(
        "text",
        [
            "1",
            "1 + 2",
            "2 * 3 + 4",
            "(1 + 2) * (3 + 4)",
            "x + y * x",
            "10 - (2 - 1)",
        ],
    )
    def test_static_matches_dynamic(self, calc, lexer, text):
        env = {"x": 5, "y": 11}
        t1 = calc.parse(lexer.scan(text))
        t2 = calc.parse(lexer.scan(text))
        dyn = DynamicEvaluator(calc, {"env": env}).goal_attributes(t1)
        stat = StaticEvaluator(calc, {"env": env}).goal_attributes(t2)
        assert dyn == stat

    def test_static_deep_tree(self, calc, lexer):
        text = "1" + " + 1" * 2500
        tree = calc.parse(lexer.scan(text))
        out = StaticEvaluator(calc, {"env": {}}).goal_attributes(tree)
        assert out["val"] == 2501


class TestMultiVisitGrammar:
    """A two-visit AG: the classic 'global count distributed back' shape.

    Visit 1 synthesizes a leaf count; the root then feeds it back down
    as an inherited attribute; visit 2 synthesizes labels that use it.
    This is the shape of the paper's symbol-table pattern (collect
    declarations, then distribute the environment).
    """

    def make(self):
        g = AGSpec("two_visit")
        g.terminals("A")
        g.nonterminal("root", ("out", SYN))
        g.nonterminal(
            "list", ("count", SYN), ("total", INH), ("labels", SYN)
        )
        p = g.production("root_list", "root -> list")
        p.copy("list.total", "list.count")
        p.copy("root.out", "list.labels")
        p = g.production("list_more", "list -> list0 A")
        p.rule("list0.count", "list1.count", fn=lambda c: c + 1)
        p.copy("list1.total", "list0.total")
        p.rule(
            "list0.labels", "list1.labels", "list0.total",
            fn=lambda ls, t: ls + [t],
        )
        p = g.production("list_one", "list -> A")
        p.const("list.count", 1)
        p.rule("list.labels", "list.total", fn=lambda t: [t])
        return g.finish()

    def test_dynamic(self):
        compiled = self.make()
        out = dynamic_run(compiled, [Token("A", "a")] * 4)
        assert out["out"] == [4, 4, 4, 4]

    def test_static(self):
        compiled = self.make()
        tree = compiled.parse([Token("A", "a")] * 4)
        out = StaticEvaluator(compiled).goal_attributes(tree)
        assert out["out"] == [4, 4, 4, 4]

    def test_visit_count_is_two(self):
        compiled = self.make()
        assert compiled.analyze().visits["list"] == 2
        assert compiled.statistics().max_visits == 2
