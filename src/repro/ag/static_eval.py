"""Compiled visit-sequence evaluator for ordered AGs: the production path.

:class:`repro.ag.ordered.OrderedAnalysis` plans, for every production
and visit, a sequence of EVAL and VISIT actions.  Linguist emitted such
plans as C (Figure 2's "generated" share of the compiler);
:class:`VisitProgram` emits them as Python.  Each ``(production,
visit)`` plan becomes one function, compiled with ``compile()``/``exec``
into one namespace per grammar (one function at a time: compiling the
whole module at once costs megabytes of transient parser memory that
the process keeps).  The semantic-rule functions are bound into that
namespace as constants.  In the generated code:

- a dependency is a direct ``attrs[...]`` subscript on the node or a
  child, or an attribute read on a token;
- an implicit copy rule (§4.2; most rules of the VHDL AGs) is a plain
  dict store, a unit rule stores its unit-element, and a merge rule
  calls the merge-function inline;
- a child visit is ``yield child, visit``.  Plans are generators driven
  by an explicit stack (:meth:`VisitProgram.evaluate`), because VHDL
  statement lists make trees as deep as the source is long.  A plan
  with no child visit is a plain function.

:meth:`repro.ag.spec.CompiledAG.evaluate` generates the program on
first use and runs every evaluation of an ordered grammar through it.
:class:`repro.ag.evaluator.DynamicEvaluator` stays as the fallback for
grammars that fail the OAG test and as the reference in tests.

A failing rule, or a root inherited attribute that a plan reads but
nobody supplied, raises the dynamic evaluator's exact error text, at no
cost on the fast path: the line number of the generated frame in the
traceback names the rule, and :meth:`VisitProgram._translate` rebuilds
the :class:`EvaluationError` from it.  A :class:`CircularityError`
passes through unchanged.  Unlike the demand-driven evaluator, every
rule fires, including rules whose values no goal needs.
"""

from .attributes import INH
from .errors import CircularityError, EvaluationError
from .implicit import identity
from .ordered import EVAL


class VisitProgram:
    """The generated visit functions of one ordered grammar."""

    def __init__(self, compiled, analysis):
        self.compiled = compiled
        self.filename = "<visit functions of %s>" % compiled.name
        self._consts = {}  # id(object) -> bound name
        self._namespace = {}
        self._line_rules = {}  # (function name, line) -> SemanticRule
        #: production index -> tuple of plan functions, one per visit
        self.table = [None] * len(compiled.grammar.productions)
        #: plan function -> (production, semantic rules it fires)
        self.plan_info = {}
        for prod in compiled.grammar.productions:
            plans = analysis.plans.get(prod.index)
            if plans is None:
                continue
            fns = []
            for visit, plan in enumerate(plans):
                fn, fired = self._generate(
                    "p%d_v%d" % (prod.index, visit), plan)
                fns.append(fn)
                self.plan_info[fn] = (prod, fired)
            self.table[prod.index] = tuple(fns)
        #: symbol name -> visit count
        self.visits = dict(analysis.visits)

    # -- rendering ------------------------------------------------------------

    def _const(self, obj):
        """Bind ``obj`` into the generated namespace; return its name."""
        name = self._consts.get(id(obj))
        if name is None:
            name = self._consts[id(obj)] = "K%d" % len(self._consts)
            self._namespace[name] = obj
        return name

    def _generate(self, name, plan):
        """Render and compile plan function ``name``; return it and the
        number of semantic rules it fires."""
        uses = set()  # ("a", pos) attrs dicts, ("n"/"t", pos) children
        body = []  # (rule or None, statement)
        for action in plan:
            if action.op == EVAL:
                stmt = self._rule_stmt(action.rule, uses)
                body.append((action.rule, stmt))
            else:
                uses.add(("n", action.child_pos))
                body.append((None, "yield n%d, %d"
                             % (action.child_pos, action.visit - 1)))
        out = ["def %s(node):" % name]
        if ("a", 0) in uses:
            out.append("    a0 = node.attrs")
        children = sorted({pos for _, pos in uses if pos > 0})
        if children:
            out.append("    k = node.children")
        for pos in children:
            if ("t", pos) in uses:
                out.append("    t%d = k[%d]" % (pos, pos - 1))
                continue
            out.append("    n%d = k[%d]" % (pos, pos - 1))
            if ("a", pos) in uses:
                out.append("    a%d = n%d.attrs" % (pos, pos))
        for rule, stmt in body:
            if rule is not None:
                self._line_rules[name, len(out) + 1] = rule
            out.append("    " + stmt)
        if not body:
            out.append("    pass")
        source = "\n".join(out) + "\n"
        exec(compile(source, self.filename, "exec"), self._namespace)
        fired = sum(1 for rule, _ in body if rule is not None)
        return self._namespace[name], fired

    def _ref(self, occ, uses):
        if occ.pos > 0 and occ.symbol.is_terminal:
            uses.add(("t", occ.pos))
            return "t%d.%s" % (occ.pos, occ.attr)
        uses.add(("a", occ.pos))
        if occ.pos > 0:
            uses.add(("n", occ.pos))
        return "a%d[%r]" % (occ.pos, occ.attr)

    def _rule_stmt(self, rule, uses):
        target = self._ref(rule.target, uses)
        deps = [self._ref(occ, uses) for occ in rule.deps]
        cls = self.compiled.attr_table.get(
            rule.target.symbol, rule.target.attr).cls
        if rule.fn is identity:
            value = deps[0]
        elif rule.implicit == "unit" and not callable(cls.unit):
            value = self._const(cls.unit)
        elif rule.implicit == "merge":
            merge = self._const(cls.merge)
            value = deps[0]
            for dep in deps[1:]:
                value = "%s(%s, %s)" % (merge, value, dep)
        else:
            value = "%s(%s)" % (self._const(rule.fn), ", ".join(deps))
        return "%s = %s" % (target, value)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, tree, inherited=None, goals=None, observer=None):
        """Run every visit of ``tree`` and return its goal attributes
        (all root synthesized attributes by default).

        ``observer`` (a :class:`repro.diag.AGObserver`) receives the
        visit and rule-firing counts once the evaluation completes.
        """
        attrs = tree.attrs
        if inherited:
            attrs.update(inherited)
        symbol = tree.production.lhs
        counts = None if observer is None else {}
        try:
            for visit in range(self.visits[symbol.name]):
                self._drive(tree, visit, counts)
        except CircularityError:
            raise
        except Exception as exc:
            error = self._translate(exc, tree)
            if error is exc:
                raise
            raise error from exc
        if counts:
            name = self.compiled.name
            for fn, n in counts.items():
                production, fired = self.plan_info[fn]
                observer.record_plan(production, n, n * fired, name)
        if goals is None:
            goals = [d.name for d in
                     self.compiled.attr_table.synthesized(symbol)]
        out = {}
        for name in goals:
            if name not in attrs:
                raise self._goal_error(symbol, name)
            out[name] = attrs[name]
        return out

    def _drive(self, tree, visit, counts):
        """Execute visit ``visit`` of ``tree`` and every nested child
        visit, iteratively: each generator yields ``(child, visit)``."""
        table = self.table
        fn = table[tree.production.index][visit]
        if counts is not None:
            counts[fn] = counts.get(fn, 0) + 1
        gen = fn(tree)
        if gen is None:
            return
        stack = []
        push, pop = stack.append, stack.pop
        while True:
            for child, v in gen:
                fn = table[child.production.index][v]
                if counts is not None:
                    counts[fn] = counts.get(fn, 0) + 1
                nested = fn(child)
                if nested is not None:
                    push(gen)
                    gen = nested
                    break
            else:
                if not stack:
                    return
                gen = pop()

    # -- diagnostics ----------------------------------------------------------

    def _translate(self, exc, tree):
        """The dynamic evaluator's error for ``exc``, raised in a
        generated frame while evaluating ``tree``; ``exc`` itself when
        it came from elsewhere."""
        tb = exc.__traceback__
        while tb is not None and tb.tb_frame.f_code.co_filename \
                != self.filename:
            tb = tb.tb_next
        rule = None if tb is None else self._line_rules.get(
            (tb.tb_frame.f_code.co_name, tb.tb_lineno))
        if rule is None:
            return exc
        node = tb.tb_frame.f_locals.get("node")
        if node is None:
            return exc
        for occ in rule.deps:
            if occ.symbol.is_terminal:
                continue
            inst = node if occ.pos == 0 else node.children[occ.pos - 1]
            if occ.attr not in inst.attrs:
                # The read failed, not the rule: nothing stored it.
                if inst is tree and self.compiled.attr_table.get(
                        inst.symbol, occ.attr).kind == INH:
                    return _root_inherited_error(occ.attr)
                return EvaluationError(
                    "visit-sequence bug: %s.%s not yet available in "
                    "production %s"
                    % (occ.symbol.name, occ.attr, rule.production.label))
        target = rule.target
        inst = node if target.pos == 0 else node.children[target.pos - 1]
        return EvaluationError(
            "semantic rule for %s.%s in production %s failed "
            "(line %d): %s: %s"
            % (inst.symbol.name, target.attr, rule.production.label,
               inst.line, type(exc).__name__, exc))

    def _goal_error(self, symbol, name):
        decl = self.compiled.attr_table.get(symbol, name)
        if decl is not None and decl.kind == INH:
            return _root_inherited_error(name)
        return EvaluationError(
            "symbol %r has no attribute %r" % (symbol.name, name))


def _root_inherited_error(name):
    return EvaluationError(
        "root inherited attribute %r was not supplied to the evaluator"
        % name)


class StaticEvaluator:
    """Evaluator for one ordered grammar and one root-inherited
    valuation, running the grammar's generated visit functions.

    Raises :class:`NotOrderedError` (or :class:`CircularityError`)
    when the grammar has no visit sequences.
    """

    def __init__(self, compiled, inherited=None, observer=None):
        self.program = compiled.visit_program()
        if self.program is None:
            compiled.analyze()  # raises why the grammar is not ordered
        self.inherited = dict(inherited or {})
        #: optional :class:`repro.diag.AGObserver` counter sink
        self.observer = observer

    def goal_attributes(self, tree, goals=None):
        """Run all root visits; return the root synthesized attributes."""
        return self.program.evaluate(tree, self.inherited, goals,
                                     self.observer)
