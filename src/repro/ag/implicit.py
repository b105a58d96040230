"""Implicit semantic-rule completion (§4.2).

"If a required definition for some occurrence of an attribute class is
left out of the semantic rules of a production, Linguist will supply an
implicit rule" — a copy rule, a unit-element constant, or a left fold
over the declared associative merge-function.  In the paper's VHDL AG
these implicit rules were *more than half* of all semantic rules (6,363
of 8,862); benchmark E6 measures the same ratio for our grammars.
"""

from .attributes import SYN, INH
from .errors import AttributeError_
from .rules import Occurrence, SemanticRule


def identity(x):
    return x


def complete_production(production, attr_table, rule_index):
    """Supply implicit rules for every required-but-undefined occurrence.

    ``rule_index`` maps ``(pos, attr)`` to the explicit
    :class:`SemanticRule` already written for this production; new
    implicit rules are added to it in place.  Returns the list of rules
    added.
    """
    added = []
    for occ in _required_occurrences(production, attr_table):
        if occ.key() in rule_index:
            continue
        rule = _build_implicit(production, attr_table, occ)
        rule_index[occ.key()] = rule
        added.append(rule)
    return added


def _required_occurrences(production, attr_table):
    """Occurrences a production must define: LHS synthesized attributes
    and inherited attributes of RHS nonterminal occurrences."""
    out = []
    for decl in attr_table.synthesized(production.lhs):
        out.append(Occurrence(0, decl.name, production.lhs))
    for pos, sym in enumerate(production.rhs, start=1):
        if sym.is_terminal:
            continue
        for decl in attr_table.inherited(sym):
            out.append(Occurrence(pos, decl.name, sym))
    return out


def _class_occurrences(production, attr_table, cls, positions):
    """Occurrences of attribute class ``cls`` at the given positions."""
    found = []
    for pos in positions:
        sym = production.symbols[pos]
        if sym.is_terminal:
            continue
        for decl in attr_table.of(sym).values():
            if decl.cls is cls:
                found.append(Occurrence(pos, decl.name, sym))
    return found


def _build_implicit(production, attr_table, occ):
    decl = attr_table.get(occ.symbol, occ.attr)
    cls = decl.cls
    if cls is None:
        raise AttributeError_(
            "production %s (%s) is missing a rule for %s.%s and the "
            "attribute is not in any attribute class"
            % (production.label, production, occ.symbol.name, occ.attr)
        )

    if decl.kind == INH:
        # Inherited child occurrence: copy from the LHS occurrence of
        # the same class.
        sources = _class_occurrences(production, attr_table, cls, [0])
        if not sources or not cls.copy:
            raise AttributeError_(
                "production %s (%s): cannot build an implicit copy rule "
                "for %s.%s — no LHS occurrence of class %s"
                % (production.label, production, occ.symbol.name,
                   occ.attr, cls.name)
            )
        return SemanticRule(
            production, occ, [sources[0]], identity, implicit="copy"
        )

    # Synthesized LHS occurrence: fold the RHS occurrences of the class.
    assert decl.kind == SYN
    rhs_positions = range(1, len(production.rhs) + 1)
    sources = _class_occurrences(production, attr_table, cls, rhs_positions)
    if not sources:
        if not cls.has_unit:
            raise AttributeError_(
                "production %s (%s): no RHS occurrence of class %s to "
                "define %s.%s and the class declares no unit-element"
                % (production.label, production, cls.name,
                   occ.symbol.name, occ.attr)
            )
        unit = cls.unit
        fn = unit if callable(unit) else (lambda u=unit: u)
        return SemanticRule(production, occ, [], fn, implicit="unit")
    if len(sources) == 1 and cls.copy:
        return SemanticRule(
            production, occ, sources, identity, implicit="copy"
        )
    merge = cls.merge
    if merge is None:
        raise AttributeError_(
            "production %s (%s): %d RHS occurrences of class %s but no "
            "merge-function to combine them for %s.%s"
            % (production.label, production, len(sources), cls.name,
               occ.symbol.name, occ.attr)
        )

    def fold(*values, _merge=merge):
        acc = values[0]
        for v in values[1:]:
            acc = _merge(acc, v)
        return acc

    return SemanticRule(production, occ, sources, fold, implicit="merge")
