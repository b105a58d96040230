"""Tests for the applicative environment and VHDL visibility rules."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.applicative import Env


class TestPersistence:
    def test_bind_returns_new_env(self):
        e1 = Env.EMPTY.bind("x", 1)
        e2 = e1.bind("x", 2)
        assert e1.lookup("x").entries == [1]
        assert e2.lookup("x").entries == [2]

    def test_paper_pattern_prepend_without_change(self):
        """'insert it at the front ... so that the old ENV value is not
        changed' (§4.3)."""
        old = Env.EMPTY.bind("a", "outer")
        snapshot = list(old.bindings())
        new = old.bind("a", "inner")
        assert list(old.bindings()) == snapshot
        assert new.lookup("a").entries == ["inner"]

    def test_scope_depth(self):
        env = Env.EMPTY.enter_scope().enter_scope()
        assert env.depth == 2


class TestShadowing:
    def test_inner_hides_outer(self):
        env = (
            Env.EMPTY.bind("x", "outer").enter_scope().bind("x", "inner")
        )
        assert env.lookup("x").entries == ["inner"]

    def test_missing_name(self):
        result = Env.EMPTY.bind("a", 1).lookup("b")
        assert not result
        assert result.entries == []

    def test_sole_helper(self):
        env = Env.EMPTY.bind("x", 42)
        assert env.lookup("x").sole() == 42
        env = env.bind("f", "f1", overloadable=True).bind(
            "f", "f2", overloadable=True
        )
        assert env.lookup("f").sole() is None


class TestOverloading:
    def test_overloadables_accumulate_within_scope(self):
        env = (
            Env.EMPTY
            .bind("f", "f1", overloadable=True)
            .bind("f", "f2", overloadable=True)
        )
        assert set(env.lookup("f").entries) == {"f2", "f1"}

    def test_overloadables_accumulate_across_scopes(self):
        env = (
            Env.EMPTY.bind("f", "outer", overloadable=True)
            .enter_scope()
            .bind("f", "inner", overloadable=True)
        )
        assert set(env.lookup("f").entries) == {"inner", "outer"}

    def test_non_overloadable_stops_accumulation(self):
        env = (
            Env.EMPTY.bind("f", "var", overloadable=False)
            .enter_scope()
            .bind("f", "fn", overloadable=True)
        )
        assert env.lookup("f").entries == ["fn"]

    def test_inner_non_overloadable_hides_outer_subprograms(self):
        env = (
            Env.EMPTY.bind("f", "fn", overloadable=True)
            .enter_scope()
            .bind("f", "var", overloadable=False)
        )
        assert env.lookup("f").entries == ["var"]


class TestUseVisibility:
    def test_direct_beats_potential(self):
        env = (
            Env.EMPTY.bind("t", "imported", via_use=True)
            .bind("t", "local")
        )
        assert env.lookup("t").entries == ["local"]

    def test_potential_visible_when_no_direct(self):
        env = Env.EMPTY.bind("t", "imported", via_use=True)
        assert env.lookup("t").entries == ["imported"]

    def test_conflicting_potential_homographs_hide_each_other(self):
        """Two .ALL imports with the same name: neither is visible."""
        env = (
            Env.EMPTY
            .bind("t", "from_pkg_a", via_use=True)
            .bind("t", "from_pkg_b", via_use=True)
        )
        result = env.lookup("t")
        assert not result
        assert result.conflict

    def test_same_entry_imported_twice_is_not_a_conflict(self):
        entry = object()
        env = (
            Env.EMPTY.bind("t", entry, via_use=True)
            .bind("t", entry, via_use=True)
        )
        assert env.lookup("t").entries == [entry]

    def test_overloadable_potential_homographs_all_visible(self):
        env = (
            Env.EMPTY
            .bind("f", "pkg_a_fn", via_use=True, overloadable=True)
            .bind("f", "pkg_b_fn", via_use=True, overloadable=True)
        )
        assert set(env.lookup("f").entries) == {"pkg_a_fn", "pkg_b_fn"}

    def test_individual_import_avoids_conflict(self):
        """§3.4: importing exactly the referenced identifier one by one
        avoids the homographic conflict a .ALL import would cause."""
        env = Env.EMPTY.bind("t", "from_pkg_a", via_use=True)
        assert env.lookup("t").entries == ["from_pkg_a"]


class TestBindAll:
    def test_bind_all_order(self):
        env = Env.EMPTY.bind_all([("a", 1), ("b", 2)])
        assert env.lookup("a").entries == [1]
        assert env.lookup("b").entries == [2]
        assert len(env) == 2


def spine_lookup(env, name):
    """Reference: the visibility rules applied by walking the whole
    binding spine, innermost first -> (entries, conflict)."""
    direct, potential = [], []
    stop_direct = False
    for b in env.bindings():
        if b.name != name:
            continue
        if b.via_use:
            potential.append(b)
        elif not stop_direct:
            if b.overloadable:
                direct.append(b)
            elif not direct:
                return [b.entry], False
            else:
                stop_direct = True
    if direct:
        entries = [b.entry for b in direct]
        seen = {id(e) for e in entries}
        for b in potential:
            if b.overloadable and id(b.entry) not in seen:
                seen.add(id(b.entry))
                entries.append(b.entry)
        return entries, False
    if not potential:
        return [], False
    if all(b.overloadable for b in potential):
        return [b.entry for b in potential], False
    if len({id(b.entry) for b in potential}) == 1:
        return [potential[0].entry], False
    return [], True


NAMES = ("a", "b", "c")
ENTRIES = tuple("e%d" % i for i in range(4))
BIND = st.tuples(st.just("bind"), st.sampled_from(NAMES),
                 st.sampled_from(ENTRIES), st.booleans(), st.booleans())
# Binds dominate so that spines grow past the lookup's scan limit and
# lookups run both before and after an index exists further out.
STEPS = st.one_of(
    BIND, BIND, BIND, BIND,
    st.just(("scope",)),
    st.just(("lookup",)),
    st.tuples(st.just("back"), st.integers(0, 63)),
)


class TestIndexedLookup:
    """``lookup`` answers from a short scan plus memoized spine
    indexes; it must agree with a linear spine walk on every Env,
    including Envs that share an already-indexed tail (persistence)
    and Envs looked up before and after more bindings are prepended."""

    def test_lookup_through_an_indexed_tail(self):
        env = Env.EMPTY.bind("a", "outer", overloadable=True)
        for i in range(20):
            env = env.bind("x%d" % i, i)
        assert env.lookup("a").entries == ["outer"]  # indexes env
        inner = env.bind("a", "inner", overloadable=True)
        assert inner.lookup("a").entries == ["inner", "outer"]
        assert inner.bind("y", 0).lookup("a").entries == \
            ["inner", "outer"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(STEPS, max_size=60))
    def test_lookup_matches_spine_walk(self, steps):
        env = Env.EMPTY
        history = [env]
        for step in steps:
            if step[0] == "scope":
                env = env.enter_scope()
            elif step[0] == "back":
                env = history[step[1] % len(history)]
            elif step[0] == "bind":
                _, name, entry, overloadable, via_use = step
                env = env.bind(name, entry, overloadable, via_use)
            else:
                for name in NAMES:
                    env.lookup(name)
            history.append(env)
        for env in history:
            for name in NAMES + ("missing",):
                result = env.lookup(name)
                assert (result.entries, result.conflict) == \
                    spine_lookup(env, name)
