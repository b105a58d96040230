"""Static (visit-sequence) evaluation of the real expression AG.

The paper's evaluators were statically generated, and so is ours: the
compiler runs the expression AG's visit sequences compiled to Python.
These tests run them over genuine LEF parses and compare against the
dynamic (demand-driven) evaluator, the reference semantics.
"""

import pytest

from repro.ag import DynamicEvaluator, StaticEvaluator
from repro.ag.lexer import ListScanner
from repro.vhdl import expr_sem
from repro.vhdl.expr_grammar import expr_grammar
from repro.vhdl.lef import classify_id, lef, mode_token
from repro.vhdl.stdpkg import standard
from repro.vif.nodes import ObjectEntry


@pytest.fixture(scope="module")
def env():
    std = standard()
    e = std.environment().enter_scope()
    e = e.bind("count", ObjectEntry(
        name="count", obj_class="variable", vtype=std.integer,
        py="v_count"))
    e = e.bind("clk", ObjectEntry(
        name="clk", obj_class="signal", vtype=std.bit, py="s_clk"))
    return e


def both_ways(env, tokens, mode="M_EXPR", expected=None):
    std = standard()
    compiled = expr_grammar()
    ctx = expr_sem.Ctx(env=env, std=std, line=1, expected=expected)
    inherited = {"CTX": ctx}
    lef_tokens = [mode_token(mode)] + tokens
    dyn_tree = compiled.parse(ListScanner(lef_tokens))
    dyn = DynamicEvaluator(compiled, inherited).goal_attributes(
        dyn_tree, goals=["GOAL"])["GOAL"]
    stat_tree = compiled.parse(ListScanner(lef_tokens))
    stat = StaticEvaluator(compiled, inherited).goal_attributes(
        stat_tree, goals=["GOAL"])["GOAL"]
    return dyn, stat


class TestStaticAgreement:
    def test_expression_ag_is_ordered(self):
        analysis = expr_grammar().analyze()
        assert analysis.max_visits >= 1

    @pytest.mark.parametrize("tokens_fn", [
        lambda env: [lef("INT", "1", 1), lef("PLUS", "+"),
                     lef("INT", "2", 2)],
        lambda env: [classify_id("count", env), lef("STAR", "*"),
                     lef("INT", "3", 3)],
        lambda env: [classify_id("clk", env), lef("TICK", "'"),
                     lef("RAWID", "event", "event")],
        lambda env: [lef("LP", "("), lef("INT", "1", 1),
                     lef("PLUS", "+"), lef("INT", "2", 2),
                     lef("RP", ")"), lef("STAR", "*"),
                     lef("INT", "4", 4)],
        lambda env: [lef("NOT", "not"), lef("LP", "("),
                     classify_id("count", env), lef("GT", ">"),
                     lef("INT", "0", 0), lef("RP", ")")],
    ])
    def test_static_matches_dynamic(self, env, tokens_fn):
        dyn, stat = both_ways(env, tokens_fn(env))
        assert dyn["code"] == stat["code"]
        assert dyn["val"] == stat["val"]
        assert dyn["msgs"] == stat["msgs"]
        assert dyn["sigs"] == stat["sigs"]

    def test_static_range_mode(self, env):
        dyn, stat = both_ways(
            env,
            [lef("INT", "0", 0), lef("TO", "to"),
             classify_id("count", env)],
            mode="M_RANGE")
        assert dyn["left_code"] == stat["left_code"]
        assert dyn["right_code"] == stat["right_code"]

    def test_static_target_mode(self, env):
        dyn, stat = both_ways(
            env, [classify_id("count", env)], mode="M_TARGET")
        assert dyn["ok"] and stat["ok"]
        assert dyn["lvalue"].base is stat["lvalue"].base
