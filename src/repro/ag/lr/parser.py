"""Table-driven LR parser building the tree attribute evaluation walks.

The parse tree deliberately keeps every occurrence — including
terminals — because semantic rules may reference token values
("incorporating values associated with tokens into attribute
evaluation", §4.1).  Attribute storage lives on the nodes themselves;
the evaluators in :mod:`repro.ag.evaluator` and
:mod:`repro.ag.static_eval` fill it in.

Trees are acyclic: a node points to its children only, never back to
its parent.  A tree (and the tens of thousands of cascaded LEF
re-parse trees a compile builds) is therefore freed by reference
counting the moment it is dropped, without waiting for a full run of
the cyclic garbage collector.  Evaluators that need a node's parent
record it themselves while descending from the root.
"""

from ..errors import ParseError
from ..lexer import Token
from .tables import SHIFT, REDUCE, ACCEPT


class ParseTree:
    """An inner parse-tree node: one production instance.

    ``children`` holds one entry per RHS occurrence — a nested
    :class:`ParseTree` for nonterminals or a
    :class:`~repro.ag.lexer.Token` for terminals.  ``attrs`` maps
    attribute names to computed values.  There is no parent link (see
    the module docstring).
    """

    __slots__ = ("production", "children", "attrs", "line")

    def __init__(self, production, children, line=0):
        self.production = production
        self.children = children
        self.attrs = {}
        self.line = line

    @property
    def symbol(self):
        return self.production.lhs

    def child_trees(self):
        """The nonterminal children, in order."""
        return [c for c in self.children if isinstance(c, ParseTree)]

    def pretty(self, indent=0):
        """Indented dump of the tree (debugging aid)."""
        pad = "  " * indent
        lines = [pad + self.production.label]
        for child in self.children:
            if isinstance(child, ParseTree):
                lines.append(child.pretty(indent + 1))
            else:
                lines.append("%s  %s %r" % (pad, child.kind, child.text))
        return "\n".join(lines)

    def count_nodes(self):
        """Number of inner nodes (used by evaluator statistics)."""
        return 1 + sum(c.count_nodes() for c in self.child_trees())

    def __repr__(self):
        return "<ParseTree %s line=%d>" % (self.production.label, self.line)


class Parser:
    """LR parser driver over compiled :class:`ParseTables`."""

    def __init__(self, tables):
        self.tables = tables
        self.grammar = tables.grammar

    def parse(self, tokens, filename="<input>"):
        """Parse a token iterable into a :class:`ParseTree`.

        ``tokens`` may be any iterable of :class:`Token` — a file
        scanner or the trivial LEF list scanner of cascaded evaluation.
        """
        action = self.tables.action
        goto = self.tables.goto
        eof_name = self.grammar.eof.name
        productions = self.grammar.productions

        stream = iter(tokens)
        state_stack = [0]
        value_stack = []

        def next_token():
            try:
                return next(stream)
            except StopIteration:
                return Token(eof_name, "", None, 0, 0)

        token = next_token()
        while True:
            state = state_stack[-1]
            act = action[state].get(token.kind)
            if act is None:
                expected = self.tables.expected_terminals(state)
                raise ParseError(
                    "unexpected %s %r (expected one of: %s)"
                    % (
                        token.kind,
                        token.text,
                        ", ".join(expected[:12]),
                    ),
                    line=token.line,
                    column=token.column,
                    file=filename,
                )
            if act[0] == SHIFT:
                state_stack.append(act[1])
                value_stack.append(token)
                token = next_token()
            elif act[0] == REDUCE:
                prod = productions[act[1]]
                n = len(prod.rhs)
                children = value_stack[len(value_stack) - n :] if n else []
                if n:
                    del value_stack[len(value_stack) - n :]
                    del state_stack[len(state_stack) - n :]
                line = _leftmost_line(children, token)
                node = ParseTree(prod, children, line)
                value_stack.append(node)
                state = state_stack[-1]
                state_stack.append(goto[state][prod.lhs.name])
            else:  # ACCEPT
                assert act[0] == ACCEPT
                # value_stack holds exactly the start symbol's tree.
                return value_stack[-1]


def _leftmost_line(children, fallback_token):
    for child in children:
        if isinstance(child, Token):
            if child.line:
                return child.line
        elif child.line:
            return child.line
    return fallback_token.line
