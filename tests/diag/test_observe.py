"""AG observability: rule-firing counters, memo stats, cycle explanation."""

import gc
from collections import Counter

import pytest

from repro.ag import (
    AGSpec,
    CircularityError,
    DynamicEvaluator,
    INH,
    StaticEvaluator,
    SYN,
    Token,
)
from repro.diag import AGObserver, GCWatch, explain_cycle, gc_summary

from ..ag.calc_fixture import make_compiled, make_lexer


@pytest.fixture(scope="module")
def calc():
    return make_compiled()


@pytest.fixture(scope="module")
def lexer():
    return make_lexer()


class TestDynamicObserver:
    def test_counts_rule_firings(self, calc, lexer):
        obs = AGObserver()
        out = DynamicEvaluator(calc, {"env": {}}, observer=obs) \
            .goal_attributes(calc.parse(lexer.scan("2 + 3 * 4")))
        assert out["val"] == 14
        # each production fires once per instance per rule (the `val`
        # rule plus the implicit NODES merge rule both count)
        assert obs.rule_firings["e_add"] >= 1
        assert obs.rule_firings["t_mul"] >= 1
        assert obs.rule_firings["f_num"] >= 3
        assert obs.total_firings == sum(obs.rule_firings.values())
        assert obs.grammar_firings["calc"] == obs.total_firings

    def test_memo_hits_on_repeated_demand(self, calc, lexer):
        obs = AGObserver()
        tree = calc.parse(lexer.scan("1 + 2"))
        evaluator = DynamicEvaluator(calc, {"env": {}}, observer=obs)
        evaluator.goal_attributes(tree)
        misses = obs.cache_misses
        assert misses > 0 and obs.cache_hits == 0
        evaluator.goal_attributes(tree)  # everything memoized now
        assert obs.cache_misses == misses
        assert obs.cache_hits > 0
        assert 0.0 < obs.hit_rate < 1.0

    def test_no_observer_is_default(self, calc, lexer):
        out = calc.run(lexer.scan("1 + 1"), inherited={"env": {}})
        assert out["val"] == 2


class TestStaticObserver:
    def test_counts_visits_and_firings(self, calc, lexer):
        obs = AGObserver()
        tree = calc.parse(lexer.scan("2 * (3 + 4)"))
        out = StaticEvaluator(calc, {"env": {}},
                              observer=obs).goal_attributes(tree)
        assert out["val"] == 14
        assert obs.total_firings > 0
        assert sum(obs.visits.values()) > 0
        assert "expr" in obs.visits

    def test_batched_counts_are_exact(self, calc, lexer):
        """Counts are folded in once per plan, yet every production's
        firings equal its rules times its instances, and every node is
        visited once per visit of its symbol."""
        obs = AGObserver()
        tree = calc.parse(lexer.scan("2 * (3 + x) - 4"))
        calc.evaluate(tree, {"env": {"x": 1}}, observer=obs)
        instances, visits, stack = Counter(), Counter(), [tree]
        analysis = calc.analyze()
        while stack:
            node = stack.pop()
            instances[node.production.label] += 1
            visits[node.symbol.name] += analysis.visits[node.symbol.name]
            stack.extend(node.child_trees())
        expected = {label: n * len(calc.rules_of(
            calc.grammar.production(label))) for label, n in
            instances.items()}
        assert dict(obs.rule_firings) == expected
        assert dict(obs.visits) == dict(visits)
        assert obs.grammar_firings["calc"] == sum(expected.values())


class TestAggregation:
    def test_merge_sums_counters(self):
        a, b = AGObserver(), AGObserver()
        a.rule_firings["p"] = 2
        a.cache_hits, a.cache_misses = 3, 1
        b.rule_firings["p"] = 1
        b.rule_firings["q"] = 5
        b.cache_hits, b.cache_misses = 1, 3
        a.merge(b)
        assert a.rule_firings == {"p": 3, "q": 5}
        assert (a.cache_hits, a.cache_misses) == (4, 4)
        assert a.hit_rate == 0.5

    def test_as_dict(self):
        obs = AGObserver()
        obs.record_hit()
        obs.record_miss()
        d = obs.as_dict()
        assert d["cache_hits"] == 1
        assert d["hit_rate"] == 0.5
        assert set(d) >= {"rule_firings", "total_firings", "visits"}

    def test_top_productions(self):
        obs = AGObserver()
        obs.rule_firings.update({"a": 5, "b": 9, "c": 1})
        assert obs.top_productions(2) == [("b", 9), ("a", 5)]

    def test_summary(self, calc, lexer):
        obs = AGObserver()
        calc.run(lexer.scan("1 + 2"), inherited={"env": {}},
                 observer=obs)
        text = obs.summary()
        assert "rule firing" in text
        assert "hit rate" in text
        assert "e_add" in text

    def test_hit_rate_empty(self):
        assert AGObserver().hit_rate == 0.0


def circular_grammar():
    """up <- down <- up: circular in every tree (runtime-detected)."""
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


class TestExplainCycle:
    def test_runtime_cycle_explained(self):
        compiled = circular_grammar()
        with pytest.raises(CircularityError) as info:
            compiled.run([Token("A", "a", line=7)])
        text = explain_cycle(info.value)
        assert text.startswith("circularity:")
        assert "attribute dependency cycle" in text
        assert "t.up" in text
        assert "t.down" in text
        assert "the cycle closes" in text
        # the demanded-while-computing arrows link the instances
        assert "demanded while computing" in text
        # t.down is inherited: the rule defining it sits in the parent
        # production instance, which the explanation names
        lines = text.splitlines()
        down = next(i for i, line in enumerate(lines)
                    if " t.down  in t_a " in line)
        assert lines[down + 1].strip() == \
            "defined by parent production s_t"

    def test_empty_cycle(self):
        text = explain_cycle(CircularityError("c", cycle=[]))
        assert "(no cycle recorded)" in text


class TestGCWatch:
    def test_counts_collections_per_generation_while_active(self):
        with GCWatch() as watch:
            gc.collect()
            gc.collect(0)
        assert watch.collections[2] >= 1 and watch.collections[0] >= 1
        assert watch.seconds[2] > 0
        stats = watch.as_dict()
        gc.collect()  # the hook is gone: no longer counted
        assert watch.as_dict() == stats

    def test_summary_line(self):
        line = gc_summary({"collections": {0: 5, 2: 1},
                           "seconds": {0: 0.25}})
        assert line == ("GC: gen0 5 run(s) 0.250 s, gen1 0 run(s) "
                        "0.000 s, gen2 1 run(s) 0.000 s")
