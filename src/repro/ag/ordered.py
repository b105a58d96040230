"""Ordered attribute-grammar analysis (Kastens 1980).

Given the induced symbol graphs from :mod:`repro.ag.dependency`, each
symbol's attributes are partitioned into alternating inherited /
synthesized sets ``A_1 .. A_2k``; visit ``i`` of a symbol instance
consumes the inherited set ``A_{2i-1}`` and produces the synthesized
set ``A_{2i}``.  The number of synthesized sets is the symbol's *visit
count* — the "max visits" statistic of the paper's §4.1 table (3 for
their VHDL AG, 4 for the expression AG).

From the partitions we derive one *visit sequence* (plan) per
production and visit: a list of EVAL and VISIT actions that
:mod:`repro.ag.static_eval` compiles into one Python function each —
the analog of the evaluator code Linguist generates.
"""

from .attributes import SYN, INH
from .dependency import DependencyAnalysis, _transitive_closure
from .errors import NotOrderedError

#: Plan actions.
EVAL = "eval"
VISIT = "visit"


class PlanAction:
    """One action of a visit sequence."""

    __slots__ = ("op", "rule", "child_pos", "visit")

    def __init__(self, op, rule=None, child_pos=None, visit=None):
        self.op = op
        self.rule = rule
        self.child_pos = child_pos
        self.visit = visit

    def __repr__(self):
        if self.op == EVAL:
            return "<EVAL %d.%s>" % (self.rule.target.pos,
                                     self.rule.target.attr)
        return "<VISIT child=%d v=%d>" % (self.child_pos, self.visit)


class OrderedAnalysis:
    """Partitions, visit counts, and visit sequences for a compiled AG."""

    def __init__(self, compiled):
        self.compiled = compiled
        self.grammar = compiled.grammar
        self.attr_table = compiled.attr_table
        self.dependency = DependencyAnalysis(compiled)
        self.dependency.check_noncircular()
        #: symbol name -> list of (kind, [attr names]) — A_1 .. A_2k
        self.partitions = {}
        #: symbol name -> {attr: (visit number, kind)}
        self.attr_visit = {}
        #: symbol name -> visit count
        self.visits = {}
        for sym in self.grammar.nonterminals:
            self._partition_symbol(sym)
        #: production index -> list of plans, one per LHS visit
        self.plans = {}
        for prod in self.grammar.productions:
            if prod.label == "$accept":
                # The augmented production never appears in a parse
                # tree — the parser returns the start symbol's node.
                continue
            self.plans[prod.index] = self._build_plans(prod)

    @property
    def max_visits(self):
        """The §4.1 "max visits" statistic (symbols with attributes only)."""
        counts = [
            v for name, v in self.visits.items()
            if self.attr_table.of(self.grammar.symbol(name))
        ]
        return max(counts, default=1)

    # -- symbol partitioning -----------------------------------------------------

    def _partition_symbol(self, sym):
        attrs = self.attr_table.of(sym)
        if not attrs:
            self.partitions[sym.name] = [(INH, []), (SYN, [])]
            self.attr_visit[sym.name] = {}
            self.visits[sym.name] = 1
            return
        graph = _transitive_closure(self.dependency.symbol_graph(sym.name))
        remaining = set(attrs)
        parts_rev = []
        want = SYN
        empty_streak = 0
        while remaining:
            part = sorted(
                a
                for a in remaining
                if attrs[a].kind == want
                and not any(
                    b in remaining and b != a
                    for b in graph.get(a, ())
                )
            )
            if part:
                empty_streak = 0
                remaining.difference_update(part)
            else:
                empty_streak += 1
                if empty_streak >= 2:
                    raise NotOrderedError(
                        "grammar %r: attributes of symbol %r cannot be "
                        "partitioned into alternating visit sets "
                        "(remaining: %s)"
                        % (self.compiled.name, sym.name,
                           ", ".join(sorted(remaining)))
                    )
            parts_rev.append((want, part))
            want = INH if want == SYN else SYN
        parts = list(reversed(parts_rev))
        # Normalize to start with an inherited set and end synthesized.
        while parts and not parts[0][1] and parts[0][0] == SYN:
            parts.pop(0)
        if not parts or parts[0][0] == SYN:
            parts.insert(0, (INH, []))
        if parts[-1][0] == INH:
            parts.append((SYN, []))
        self.partitions[sym.name] = parts
        visit_map = {}
        for i, (kind, names) in enumerate(parts):
            visit = i // 2 + 1
            for a in names:
                visit_map[a] = (visit, kind)
        self.attr_visit[sym.name] = visit_map
        self.visits[sym.name] = len(parts) // 2

    # -- production plans -----------------------------------------------------------

    def _build_plans(self, prod):
        """Visit sequences for one production, one plan per LHS visit."""
        rules = self.compiled.rules_of(prod)
        edges = {}  # node -> set of successor nodes

        def add_edge(a, b):
            edges.setdefault(a, set()).add(b)
            edges.setdefault(b, set())

        def add_node(a):
            edges.setdefault(a, set())

        # Occurrence nodes and the production's induced dependencies.
        idp = self.dependency.idp[prod.index]
        for src, succs in idp.items():
            add_node(("a",) + src)
            for dst in succs:
                add_edge(("a",) + src, ("a",) + dst)
        for pos, sym in enumerate(prod.symbols):
            if sym.is_terminal:
                continue
            for a in self.attr_table.of(sym):
                add_node(("a", pos, a))

        # Partition-order edges per occurrence, and child-visit nodes.
        for pos, sym in enumerate(prod.symbols):
            if sym.is_terminal:
                continue
            parts = self.partitions[sym.name]
            prev_part = []
            for kind, names in parts:
                for a in names:
                    for b in prev_part:
                        add_edge(("a", pos, b), ("a", pos, a))
                if names:
                    prev_part = names
            if pos > 0:
                visit_map = self.attr_visit[sym.name]
                n_visits = self.visits[sym.name]
                for w in range(1, n_visits + 1):
                    add_node(("v", pos, w))
                    if w > 1:
                        add_edge(("v", pos, w - 1), ("v", pos, w))
                for a, (w, kind) in visit_map.items():
                    if kind == INH:
                        add_edge(("a", pos, a), ("v", pos, w))
                    else:
                        add_edge(("v", pos, w), ("a", pos, a))

        # Earliest-segment labels: LHS-inherited attributes anchor their
        # visit number; everything else takes the max over predecessors.
        lhs_visits = self.attr_visit[prod.lhs.name]
        order = _topo_order(edges, self.compiled.name, prod)
        segment = {}
        preds = {n: [] for n in edges}
        for a, succs in edges.items():
            for b in succs:
                preds[b].append(a)
        for node in order:
            v = 1
            if node[0] == "a" and node[1] == 0:
                attr = node[2]
                w, kind = lhs_visits[attr]
                if kind == INH:
                    v = w
            for p in preds[node]:
                v = max(v, segment[p])
            segment[node] = v
            if node[0] == "a" and node[1] == 0:
                attr = node[2]
                w, kind = lhs_visits[attr]
                if kind == SYN and v > w:
                    raise NotOrderedError(
                        "grammar %r: production %s cannot compute %s.%s "
                        "by visit %d (needs visit %d inputs)"
                        % (self.compiled.name, prod.label,
                           prod.lhs.name, attr, w, v)
                    )

        n_visits = self.visits[prod.lhs.name]
        plans = [[] for _ in range(n_visits)]
        attrs_of = self.attr_table
        topo_index = {node: i for i, node in enumerate(order)}
        for node in sorted(order, key=lambda n: (segment[n], topo_index[n])):
            v = segment[node]
            plan = plans[min(v, n_visits) - 1]
            if node[0] == "v":
                plan.append(
                    PlanAction(VISIT, child_pos=node[1], visit=node[2])
                )
                continue
            _, pos, attr = node
            sym = prod.symbols[pos]
            decl = attrs_of.get(sym, attr)
            needs_rule = (pos == 0 and decl.kind == SYN) or (
                pos > 0 and decl.kind == INH
            )
            if needs_rule:
                plan.append(PlanAction(EVAL, rule=rules[(pos, attr)]))
        return plans


def _topo_order(edges, grammar_name, prod):
    """Topological order of the plan graph (Kahn), stable by node key."""
    indeg = {n: 0 for n in edges}
    for a, succs in edges.items():
        for b in succs:
            indeg[b] += 1
    ready = sorted(n for n, d in indeg.items() if d == 0)
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for b in sorted(edges[node]):
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
    if len(order) != len(edges):
        raise NotOrderedError(
            "grammar %r: the partition ordering induces a cycle in "
            "production %s (%s)" % (grammar_name, prod.label, prod)
        )
    return order
