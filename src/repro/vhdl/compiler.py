"""The compiler driver.

"The compiler accepts a file containing compilation units, a list of
compiler directives, a working library ... and a reference library"
(§2).  :class:`Compiler` wires the scanner, the generated principal-AG
evaluator, exprEval cascading, VIF emission into the library, and the
back-end compile of the generated model.

Phase timing goes through the span-based tracer of
:mod:`repro.diag.trace` — the same phase names the E4 bench (§2.2 time
breakdown) reports are kept in ``CompileResult.timings``, but every
phase is also a Chrome trace event, so a multi-file (or multi-worker)
build renders as one timeline.  Diagnostics are collected structured
(:mod:`repro.diag.diagnostic`): every message carries an error code
and a file/line/column span next to the legacy string form.
"""

from ..ag.errors import AGError
from ..diag import AGObserver, DiagnosticEngine, Tracer
from .codegen.pymodel import compile_model
from .compile_ctx import CompileCtx
from .grammar import ENTRY_INHERITED, GOALS, principal_grammar
from .lexer import scan
from .library import LibraryManager


class CompileError(Exception):
    """Compilation failed; ``messages`` lists the diagnostics.

    ``diagnostics`` carries the structured
    :class:`repro.diag.Diagnostic` records when the failure came out
    of a compile (empty for hand-constructed instances).
    """

    def __init__(self, messages, diagnostics=None):
        self.messages = list(messages)
        self.diagnostics = list(diagnostics or [])
        super().__init__(
            "%d error(s):\n%s" % (len(self.messages),
                                  "\n".join(self.messages[:20])))


class CompileResult:
    """Outcome of compiling one source file."""

    def __init__(self, units, messages, timings, source_lines,
                 expr_evals, registered_units=(), diagnostics=(),
                 trace_events=(), ag_stats=None, filename=None):
        self.units = list(units)
        self.messages = list(messages)
        self.timings = dict(timings)
        self.source_lines = source_lines
        self.expr_evals = expr_evals
        #: (lib, key) library entries this compile registered, in
        #: registration order — the incremental build driver's view.
        self.registered_units = list(registered_units)
        #: structured :class:`repro.diag.Diagnostic` records mirroring
        #: ``messages`` (plus any with richer spans).
        self.diagnostics = list(diagnostics)
        #: Chrome trace events recorded for this compile.
        self.trace_events = list(trace_events)
        #: the compiler's :class:`repro.diag.AGObserver` (rule
        #: firings, memo hits/misses, accumulated across the
        #: compiler's lifetime), or None.
        self.ag_stats = ag_stats
        self.filename = filename

    @property
    def ok(self):
        return not self.messages

    def unit_names(self):
        """Names of the compiled units.

        Every VIF unit kind guarantees a ``name`` field; a unit
        arriving here without one is an internal error worth a clear
        diagnostic, not a silent ``"?"`` placeholder.
        """
        names = []
        for u in self.units:
            name = getattr(u, "name", None)
            if not name:
                raise CompileError([
                    "internal: compilation produced an unnamed %s "
                    "unit — VIF units must carry a name"
                    % type(u).__name__])
            names.append(name)
        return names

    def __repr__(self):
        # repr must never raise; show a placeholder for the
        # pathological unnamed case unit_names() diagnoses loudly.
        shown = ", ".join(
            getattr(u, "name", None) or "<unnamed>" for u in self.units)
        return "<CompileResult %s: %d message(s)>" % (
            shown, len(self.messages))


class Compiler:
    """Compiles VHDL source into a design library.

    ``tracer`` (a :class:`repro.diag.Tracer`) accumulates phase spans
    across every ``compile`` call on this instance; ``observer`` (a
    :class:`repro.diag.AGObserver`) accumulates evaluation counters
    the same way.  Both are created fresh when not supplied, so the
    plain one-shot API is unchanged.  ``werror`` promotes warnings to
    errors at diagnostic-emission time.
    """

    def __init__(self, library=None, work="work", root=None,
                 strict=True, tracer=None, observer=None,
                 werror=False):
        self.library = library or LibraryManager(root=root, work=work)
        self.work = work
        self.strict = strict
        self.tracer = tracer if tracer is not None else Tracer()
        self.observer = observer if observer is not None else AGObserver()
        self.werror = werror
        # Force generation of the translator up front (the paper's
        # Linguist run happens before any compilation).
        with self.tracer.phase("translator_generation"):
            principal_grammar()

    def compile(self, text, filename="<input>"):
        """Compile all design units in ``text``.

        Raises :class:`CompileError` on diagnostics when ``strict``;
        otherwise returns them in the result.
        """
        tracer = self.tracer
        engine = DiagnosticEngine(file=filename, werror=self.werror)
        timings = {}
        cc = CompileCtx(self.library, self.work, filename=filename)
        grammar = principal_grammar()
        events_before = len(tracer.events)

        with tracer.phase("scan", file=filename) as ev:
            try:
                tokens = scan(text, filename)
            except AGError as exc:
                engine.add_exception(exc, file=filename)
                raise CompileError(
                    [str(exc)],
                    diagnostics=engine.diagnostics) from exc
        timings["scan"] = ev["dur"] / 1e6

        with tracer.phase("parse", file=filename) as ev:
            try:
                tree = grammar.parse(tokens, filename)
            except AGError as exc:
                engine.add_exception(exc, file=filename)
                raise CompileError(
                    [str(exc)],
                    diagnostics=engine.diagnostics) from exc
        timings["parse"] = ev["dur"] / 1e6

        registered_before = len(self.library.compile_order)
        expr0 = cc.expr_eval.invocations
        with tracer.phase("attribute_evaluation", file=filename) as ev:
            try:
                out = grammar.evaluate(
                    tree,
                    inherited=dict.fromkeys(ENTRY_INHERITED, cc),
                    goals=GOALS,
                    observer=self.observer,
                )
            except AGError as exc:
                engine.add_exception(exc, file=filename)
                raise CompileError(
                    [str(exc)],
                    diagnostics=engine.diagnostics) from exc
        timings["attribute_evaluation"] = ev["dur"] / 1e6
        expr_evals = cc.expr_eval.invocations - expr0

        units = list(out["UNITS"])
        messages = list(out["MSGS"])

        # Back-end compile of the generated models (the host-compiler
        # phase of the paper's pipeline).
        with tracer.phase("model_compile", file=filename) as ev:
            for unit in units:
                py = getattr(unit, "py_source", "")
                if py and "elaborate" in py:
                    try:
                        compile_model(py, getattr(unit, "name", "?"))
                    except SyntaxError as exc:
                        messages.append(
                            "internal: generated model for %s does "
                            "not compile: %s"
                            % (getattr(unit, "name", "?"), exc))
        timings["model_compile"] = ev["dur"] / 1e6

        # VIF writing happened inside register_unit during evaluation;
        # measure it separately by re-serializing (cheap, and keeps
        # the phase visible to the E4 bench).
        with tracer.phase("vif", file=filename) as ev:
            for lib, key in self.library.compile_order[
                    registered_before:]:
                self.library.payload_of(lib, key)
        timings["vif"] = ev["dur"] / 1e6

        engine.add_messages(messages, file=filename)
        source_lines = _count_lines(text)
        registered = self.library.compile_order[registered_before:]
        result = CompileResult(
            units, messages, timings, source_lines, expr_evals,
            registered_units=registered,
            diagnostics=engine.diagnostics,
            trace_events=tracer.events[events_before:],
            ag_stats=self.observer,
            filename=filename,
        )
        if messages and self.strict:
            raise CompileError(messages,
                               diagnostics=engine.diagnostics)
        return result

    def compile_file(self, path):
        with open(path) as f:
            return self.compile(f.read(), filename=path)


def _count_lines(text):
    """Source lines stripped of blanks and comments (Figure 2's
    counting convention)."""
    n = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("--"):
            n += 1
    return n
