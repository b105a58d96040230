"""In-memory span recording around the program's public functions.

Only the traced run installs these wrappers; the untraced run that
produces the end-to-end metrics never touches them.  Each span is a
tuple ``(name, start, end, parent, op)`` kept in a list and reduced
when the run ends: ``parent`` is the index of the enclosing span (or
-1) and ``op`` the id shared by every span of one operation (one build,
one simulation start, one simulation run).
"""

import os
import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)


def self_times(spans):
    """Per-span self time: duration minus the part of its interval
    that its direct children cover (overlapping children counted
    once)."""
    children = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, edge = 0.0, s[START]
        for c in sorted(children.get(i, ()), key=lambda c: c[START]):
            lo, hi = max(c[START], edge), min(c[END], s[END])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(s[END] - s[START] - covered)
    return out


def layer_self_seconds(spans):
    """``{span name: summed self time}`` over all spans."""
    totals = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s[NAME]] = totals.get(s[NAME], 0.0) + t
    return totals


class Recorder:
    """Span sink plus per-layer counters for one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._op = 0
        self._undo = []

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end,
                            stack[-1] if stack else -1, self._op)

    @contextmanager
    def operation(self, name):
        """A root span opening a new operation id."""
        self._op += 1
        with self.span(name):
            yield

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by a spanning wrapper; ``after(args,
        result)`` (if given) records counts from the call."""
        original = getattr(owner, attr)
        span = self.span

        def wrapper(*args, **kwargs):
            with span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def install(self):
        """Wrap every layer boundary the benchmark attributes time to."""
        from repro.ag import lexer, spec
        from repro.ag.lr import parser
        from repro.build import driver
        from repro.sim import compiled
        from repro.vhdl import compiler, elaborate, expr_grammar, library
        from repro.vhdl.grammar import principal_grammar
        from repro.vif import io

        principal = principal_grammar()
        add = self.add
        self.wrap(lexer.Lexer, "scan", "lexer.scan",
                  lambda a, r: add("lexer.tokens", len(r)))
        self.wrap(parser.Parser, "parse", "lr.parse")

        evaluate = spec.CompiledAG.evaluate
        span = self.span

        def principal_evaluate(ag, *args, **kwargs):
            if ag is not principal:
                return evaluate(ag, *args, **kwargs)
            with span("ag.principal"):
                return evaluate(ag, *args, **kwargs)

        spec.CompiledAG.evaluate = principal_evaluate
        self._undo.append((spec.CompiledAG, "evaluate", evaluate))
        self.wrap(expr_grammar.ExprEvaluator, "__call__", "ag.expr",
                  lambda a, r: add("ag.expr_evals", 1))
        self.wrap(compiler, "compile_model", "codegen.model_compile",
                  lambda a, r: add("codegen.model_bytes", len(a[0])))

        def vif_written(args, key):
            manager, lib = args[0], args[1]
            if manager.root is not None:
                add("vif.bytes", os.path.getsize(os.path.join(
                    manager.root, lib,
                    library.unit_filename(key, "vif.json"))))

        self.wrap(library.LibraryManager, "register_unit", "vif.write",
                  vif_written)
        self.wrap(io.VIFReader, "read_unit", "vif.read")
        self.wrap(driver.IncrementalBuilder, "build", "build")
        self.wrap(elaborate.Elaborator, "elaborate", "elab.elaborate",
                  lambda a, r: add("elab.processes",
                                   len(r.kernel.processes)))
        self.wrap(compiled.CompiledKernel, "compile_design",
                  "simgen.codegen")
        self.wrap(elaborate.Simulation, "run", "kernel.run")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
