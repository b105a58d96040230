"""AG evaluation observability.

The paper's §5.2 lesson: evolving a 9,000-rule attribute grammar
requires knowing *which* semantic rules fire, how often, and where
circularities come from.  :class:`AGObserver` is the counter sink the
evaluators report into — per-production rule firings, demand-evaluator
memo hits/misses, and static-evaluator visit counts — and
:func:`explain_cycle` renders a :class:`~repro.ag.errors.
CircularityError` cycle with production and line context instead of a
bare instance chain.  :class:`GCWatch` counts the cyclic garbage
collector's runs and seconds over a compile, so its cost (which no
profile attributes to a function) shows in build profiles and metrics.
"""

import gc
import time
from collections import Counter


class AGObserver:
    """Counter sink for attribute-evaluation events.

    All hooks are cheap (Counter increments); evaluators accept an
    observer of ``None`` and skip the calls entirely, so the default
    path stays unchanged.
    """

    def __init__(self):
        #: production label -> number of semantic-rule firings
        self.rule_firings = Counter()
        #: grammar name -> rule firings (when several AGs report in)
        self.grammar_firings = Counter()
        #: demanded attributes served from the memo table
        self.cache_hits = 0
        #: attributes computed fresh (== rule evaluations demanded)
        self.cache_misses = 0
        #: symbol name -> static-evaluator visit count
        self.visits = Counter()

    # -- hooks (called by the evaluators) ----------------------------------

    def record_firing(self, production, grammar=None):
        self.rule_firings[production.label] += 1
        if grammar is not None:
            self.grammar_firings[grammar] += 1

    def record_hit(self):
        self.cache_hits += 1

    def record_miss(self):
        self.cache_misses += 1

    def record_plan(self, production, visits, firings, grammar=None):
        """Batched counts of one visit-sequence plan of ``production``:
        ``visits`` executions firing ``firings`` rules in total."""
        self.visits[production.lhs.name] += visits
        if firings:
            self.rule_firings[production.label] += firings
            self.cache_misses += firings
            if grammar is not None:
                self.grammar_firings[grammar] += firings

    # -- aggregation -------------------------------------------------------

    @property
    def total_firings(self):
        return sum(self.rule_firings.values())

    @property
    def hit_rate(self):
        demanded = self.cache_hits + self.cache_misses
        return self.cache_hits / demanded if demanded else 0.0

    def merge(self, other):
        """Fold another observer's counters into this one."""
        self.rule_firings.update(other.rule_firings)
        self.grammar_firings.update(other.grammar_firings)
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.visits.update(other.visits)
        return self

    def top_productions(self, n=10):
        return self.rule_firings.most_common(n)

    def as_dict(self):
        return {
            "rule_firings": dict(self.rule_firings),
            "total_firings": self.total_firings,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "visits": dict(self.visits),
        }

    def summary(self, top=8):
        lines = [
            "AG evaluation: %d rule firing(s), memo %d hit(s) / "
            "%d miss(es) (%.1f%% hit rate)"
            % (self.total_firings, self.cache_hits, self.cache_misses,
               100.0 * self.hit_rate)
        ]
        if self.visits:
            lines.append("  visits: %d across %d symbol(s)"
                         % (sum(self.visits.values()),
                            len(self.visits)))
        for label, n in self.top_productions(top):
            lines.append("  %-32s %8d" % (label, n))
        return "\n".join(lines)


class GCWatch:
    """Per-generation cyclic-collector runs and seconds while active.

    A context manager installing one :data:`gc.callbacks` hook.  The
    hook sees every collection in the process, so compiles running
    concurrently in threads of one process each count the other's.
    """

    GENERATIONS = (0, 1, 2)

    def __init__(self):
        self.collections = dict.fromkeys(self.GENERATIONS, 0)
        self.seconds = dict.fromkeys(self.GENERATIONS, 0.0)
        self._started = None

    def _hook(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            generation = info["generation"]
            self.collections[generation] += 1
            self.seconds[generation] += \
                time.perf_counter() - self._started
            self._started = None

    def __enter__(self):
        gc.callbacks.append(self._hook)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._hook)

    def as_dict(self):
        return {"collections": dict(self.collections),
                "seconds": dict(self.seconds)}


def gc_summary(stats):
    """One profile line for a (merged) :meth:`GCWatch.as_dict`."""
    collections = stats.get("collections", {})
    seconds = stats.get("seconds", {})
    return "GC: " + ", ".join(
        "gen%d %d run(s) %.3f s"
        % (g, collections.get(g, 0), seconds.get(g, 0.0))
        for g in GCWatch.GENERATIONS)


# -- cycle explanation -------------------------------------------------------


def _instance_context(node, attr, owner):
    """(symbol, attr, production, defining production, line) of one
    cycle instance; ``owner`` is the node whose production defines it
    (None when unknown)."""
    symbol = getattr(getattr(node, "symbol", None), "name", "?")
    line = getattr(node, "line", 0)
    production = getattr(node, "production", None)
    defined_in = getattr(owner, "production", production)
    return symbol, attr, production, defined_in, line


def explain_cycle(error):
    """Pretty-print a :class:`CircularityError`'s cycle.

    Each instance on the cycle is shown with its attribute, the
    production instance it sits in, and the source line, followed by
    the arrow back to the start — the §5.2 "where did this circularity
    come from" question, answered from the failed run itself.
    """
    cycle = list(getattr(error, "cycle", ()) or ())
    lines = ["circularity: %s" % error]
    if not cycle:
        lines.append("  (no cycle recorded)")
        return "\n".join(lines)
    lines.append("attribute dependency cycle (%d instance(s)):"
                 % max(len(cycle) - 1, 1))
    owners = getattr(error, "owners", None) or [None] * len(cycle)
    for i, ((node, attr), owner) in enumerate(zip(cycle, owners)):
        symbol, attr, production, defined_in, line = \
            _instance_context(node, attr, owner)
        plabel = getattr(production, "label", "?")
        ptext = str(production) if production is not None else "?"
        where = "line %d" % line if line else "line ?"
        marker = "=" if i in (0, len(cycle) - 1) else " "
        lines.append("  %s %d. %s.%s  in %s (%s), %s"
                     % (marker, i + 1, symbol, attr, plabel, ptext,
                        where))
        if defined_in is not None and defined_in is not production:
            lines.append("        defined by parent production %s"
                         % getattr(defined_in, "label", "?"))
        if i < len(cycle) - 1:
            lines.append("        ^ demanded while computing")
    lines.append("  (instances marked '=' are the same instance: "
                 "the cycle closes)")
    return "\n".join(lines)
