"""Demand-driven (dynamic) attribute evaluator.

Evaluates attribute instances over a parse tree by demand with
memoization, detecting genuinely circular instances on the fly.  The
compiled visit-sequence evaluator (:mod:`repro.ag.static_eval`) is the
analog of the code Linguist generates for ordered AGs, and the one
:meth:`repro.ag.spec.CompiledAG.evaluate` runs for them, both VHDL AGs
included.  This evaluator has two jobs: it is the fallback for grammars
that fail the OAG test (it handles any noncircular AG), and it is the
reference semantics the compiled evaluator is tested against.

The implementation is iterative — VHDL statement lists produce trees
whose depth is proportional to source length, so recursion is not an
option.

Parse trees carry no parent links (they stay acyclic so reference
counting frees them), so the evaluator keeps its own ``child ->
(owner, occurrence index)`` map, filled as demand descends from the
root passed to :meth:`DynamicEvaluator.goal_attributes`.  A node
missing from the map is the root.
"""

from .attributes import SYN
from .errors import EvaluationError, CircularityError
from .lr.parser import ParseTree


class DynamicEvaluator:
    """Evaluator for one compiled AG and one root-inherited valuation."""

    def __init__(self, compiled, inherited=None, observer=None):
        self.compiled = compiled
        self.attr_table = compiled.attr_table
        self.inherited = dict(inherited or {})
        self.evaluations = 0  # rule applications, for the E4 bench
        #: child node -> (owner node, occurrence index in the owner's
        #: production), for every node demand has reached
        self._parents = {}
        #: optional :class:`repro.diag.AGObserver` counter sink
        self.observer = observer

    # -- public API -----------------------------------------------------------

    def attribute(self, node, name):
        """Value of attribute ``name`` on (the LHS instance of) ``node``.

        ``node`` is the root or a node an earlier demand reached from
        it: any other node is taken for a root.
        """
        if name in node.attrs:
            if self.observer is not None:
                self.observer.record_hit()
            return node.attrs[name]
        self._force(node, name)
        return node.attrs[name]

    def goal_attributes(self, tree, goals=None):
        """Evaluate and return the root's synthesized attributes."""
        if goals is None:
            goals = [
                d.name for d in self.attr_table.synthesized(tree.symbol)
            ]
        return {name: self.attribute(tree, name) for name in goals}

    # -- engine ----------------------------------------------------------------

    def _locate_rule(self, node, name):
        """Find (rule, owner_node) defining instance ``(node, name)``."""
        decl = self.attr_table.get(node.symbol, name)
        if decl is None:
            raise EvaluationError(
                "symbol %r has no attribute %r" % (node.symbol.name, name)
            )
        if decl.kind == SYN:
            owner = node
            key = (0, name)
        else:
            link = self._parents.get(node)
            if link is None:
                return None, None  # root inherited: supplied externally
            owner, pos = link
            key = (pos, name)
        rule = self.compiled.rules_of(owner.production).get(key)
        if rule is None:
            raise EvaluationError(
                "no rule defines %s.%s in production %s"
                % (node.symbol.name, name, owner.production.label)
            )
        return rule, owner

    def _dep_value(self, owner, occ):
        """Value of dependency occurrence ``occ`` in instance ``owner``.

        Returns ``(ready, value_or_instance)``: when the dependency is a
        token attribute or an already-computed attribute it is ready;
        otherwise the ``(node, attr)`` instance still to compute.
        """
        if occ.pos == 0:
            inst = owner
        else:
            inst = owner.children[occ.pos - 1]
        if not isinstance(inst, ParseTree):
            # Terminal occurrence: lexical pseudo-attribute of the token.
            return True, getattr(inst, occ.attr)
        if occ.attr in inst.attrs:
            return True, inst.attrs[occ.attr]
        if occ.pos:
            self._parents[inst] = (owner, occ.pos)
        return False, (inst, occ.attr)

    def _force(self, node, name):
        """Compute instance ``(node, name)`` and everything it needs."""
        stack = [(node, name)]
        on_stack = {(node, name)}
        while stack:
            cur_node, cur_name = stack[-1]
            if cur_name in cur_node.attrs:
                on_stack.discard((cur_node, cur_name))
                stack.pop()
                continue
            rule, owner = self._locate_rule(cur_node, cur_name)
            if rule is None:
                # Root inherited attribute.
                if cur_name not in self.inherited:
                    raise EvaluationError(
                        "root inherited attribute %r was not supplied "
                        "to the evaluator" % cur_name
                    )
                cur_node.attrs[cur_name] = self.inherited[cur_name]
                on_stack.discard((cur_node, cur_name))
                stack.pop()
                continue
            # Push only the FIRST unready dependency: the stack then
            # stays a pure dependency chain, so membership in
            # ``on_stack`` means "ancestor" and the cycle check is
            # sound (batched pushes would make sibling demands look
            # circular).
            values = []
            first_missing = None
            for occ in rule.deps:
                ready, v = self._dep_value(owner, occ)
                if ready:
                    values.append(v)
                elif first_missing is None:
                    first_missing = v
            if first_missing is not None:
                inst = first_missing
                if inst in on_stack:
                    cycle = _extract_cycle(stack, inst)
                    owners = [self._locate_rule(n, a)[1]
                              for n, a in cycle]
                    raise CircularityError(
                        "circular attribute dependency at %s.%s "
                        "(line %d): %s"
                        % (
                            inst[0].symbol.name,
                            inst[1],
                            inst[0].line,
                            " <- ".join(
                                "%s.%s" % (n.symbol.name, a)
                                for n, a in cycle
                            ),
                        ),
                        cycle=cycle,
                        owners=owners,
                    )
                on_stack.add(inst)
                stack.append(inst)
                continue
            try:
                result = rule.fn(*values)
            except CircularityError:
                raise
            except Exception as exc:
                raise EvaluationError(
                    "semantic rule for %s.%s in production %s failed "
                    "(line %d): %s: %s"
                    % (
                        cur_node.symbol.name,
                        cur_name,
                        owner.production.label,
                        cur_node.line,
                        type(exc).__name__,
                        exc,
                    )
                ) from exc
            self.evaluations += 1
            if self.observer is not None:
                self.observer.record_miss()
                self.observer.record_firing(
                    owner.production, grammar=self.compiled.name)
            cur_node.attrs[cur_name] = result
            on_stack.discard((cur_node, cur_name))
            stack.pop()


def _extract_cycle(stack, instance):
    try:
        start = stack.index(instance)
    except ValueError:
        return [instance]
    return stack[start:] + [instance]


def evaluate_tree(compiled, tree, inherited=None, goals=None,
                  observer=None):
    """Convenience wrapper: evaluate ``tree`` and return goal attributes."""
    return DynamicEvaluator(
        compiled, inherited, observer=observer
    ).goal_attributes(tree, goals)
