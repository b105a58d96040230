"""Error types for the attribute-grammar translator-writing system."""


class AGError(Exception):
    """Base class for all errors raised by :mod:`repro.ag`."""


class GrammarError(AGError):
    """A malformed grammar specification (unknown symbol, bad production)."""


class AttributeError_(AGError):
    """A malformed attribute declaration or semantic-rule reference.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class ConflictError(AGError):
    """An unresolved LALR(1) parsing conflict.

    Carries the list of :class:`repro.ag.lr.tables.Conflict` records so
    callers (and the cascade-ablation benchmark) can inspect them.
    """

    def __init__(self, conflicts):
        self.conflicts = list(conflicts)
        lines = [str(c) for c in self.conflicts[:10]]
        more = len(self.conflicts) - len(lines)
        if more > 0:
            lines.append("... and %d more" % more)
        super().__init__(
            "%d unresolved parsing conflicts:\n%s"
            % (len(self.conflicts), "\n".join(lines))
        )


class CircularityError(AGError):
    """The attribute grammar is circular.

    The paper (§5.2) notes that a change in one production can combine
    with a far-removed dependency to produce a circularity; the error
    message therefore includes the cycle found.

    ``owners``, when the evaluator found the cycle in a tree, parallels
    ``cycle``: the node whose production defines each instance (the
    instance's own node for a synthesized attribute, its parent for an
    inherited one, None for a root inherited attribute).
    """

    def __init__(self, message, cycle=None, owners=None):
        super().__init__(message)
        self.cycle = cycle or []
        self.owners = owners or []


class NotOrderedError(AGError):
    """The AG is noncircular but not an ordered AG (Kastens' OAG test)."""


class ParseError(AGError):
    """Input text rejected by a generated parser.

    Carries a full source anchor — ``file``, ``line``, ``column`` —
    so multi-file compiles can attribute the error, and keeps the
    unprefixed text in ``raw_message`` for structured-diagnostic
    conversion (:meth:`repro.diag.DiagnosticEngine.add_exception`).
    """

    def __init__(self, message, line=None, column=None, file=None):
        self.line = line
        self.column = column
        self.file = file
        self.raw_message = message
        if line is not None:
            if file is not None:
                where = "%s:%s" % (file, line)
                if column is not None:
                    where += ":%s" % column
                message = "%s: %s" % (where, message)
            else:
                message = "line %s: %s" % (line, message)
        elif file is not None:
            message = "%s: %s" % (file, message)
        super().__init__(message)


class LexError(ParseError):
    """Input text rejected by a generated scanner."""


class EvaluationError(AGError):
    """A semantic rule raised, or demanded an attribute cyclically."""
