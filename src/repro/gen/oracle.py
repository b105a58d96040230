"""The differential conformance oracle.

Every generated design goes through the full pipeline: compile into a
fresh in-memory library, lint it, then elaborate and simulate it twice
— once on the activity :class:`~repro.sim.kernel.Kernel`, once on the
preserved O(design) :class:`~repro.sim.kernel.ScanKernel` — and (with
``compiled``) a third time on the specialized
:class:`~repro.sim.compiled.CompiledKernel` backend — and the
runs must agree on *everything observable*: end time, cycle and
delta counts, every signal's final value, per-signal event and
transaction counters, per-process resume counts, assertion report
records, the rendered VCD bytes, and the bridged ``sim_*`` metric
samples.

Outcomes (:data:`OUTCOMES`):

``ok``
    compiled, linted, and simulated byte-identically on both kernels.
``rejected``
    the compiler refused the design *with structured*
    :class:`~repro.diag.Diagnostic` records — the expected fate of
    deliberately-invalid injections.
``sim_error``
    both kernels raised the *same* runtime error (same type, same
    message) — a legitimate dynamic-semantics rejection.
``divergence``
    the kernels disagree — the bug class this harness exists to find.
``crash``
    a raw traceback anywhere in the pipeline, or a rejection without
    structured diagnostics.  Never acceptable.

``divergence`` and ``crash`` are the failing outcomes
(:data:`FAILURE_OUTCOMES`); the reducer minimizes any design that
produces one before it is reported.
"""

import traceback

from ..metrics import MetricsRegistry
from ..metrics.bridge import bridge_kernel
from ..sim import BACKENDS
from ..sim.kernel import SimulationError
from ..sim.runtime import RuntimeError_
from ..sim.vhdlio import AssertionFailure
from ..vhdl.compiler import CompileError, Compiler
from ..vhdl.elaborate import ElaborationError, Elaborator, run_design
from ..vhdl.library import LibraryManager

OUTCOMES = ("ok", "rejected", "sim_error", "divergence", "crash")
FAILURE_OUTCOMES = ("divergence", "crash")

#: femtoseconds per nanosecond.
NS = 1_000_000

#: Hard cap so a pathological design cannot wedge a sweep.
MAX_CYCLES = 200_000

#: Runtime errors that count as a legitimate (deterministic) dynamic
#: rejection when both kernels raise them identically.
_SIM_ERRORS = (SimulationError, ElaborationError, AssertionFailure,
               RuntimeError_)

#: ``sim_*`` metric families both kernels must report identically
#: (the same list the hand-written differential suite pins).
_METRIC_FAMILIES = (
    "sim_cycles_total",
    "sim_delta_cycles_total",
    "sim_deltas_per_timestep",
    "sim_process_resumes_total",
    "sim_process_resumes_by_process_total",
    "sim_signal_events_total",
    "sim_signal_transactions_total",
    "sim_now_fs",
    "sim_signals",
    "sim_processes",
)


class CheckResult:
    """What the oracle concluded about one design."""

    __slots__ = ("outcome", "detail", "diagnostics", "lint_findings",
                 "messages")

    def __init__(self, outcome, detail="", diagnostics=(),
                 lint_findings=0, messages=()):
        self.outcome = outcome
        self.detail = detail
        self.diagnostics = list(diagnostics)
        self.lint_findings = lint_findings
        self.messages = list(messages)

    @property
    def failed(self):
        return self.outcome in FAILURE_OUTCOMES

    def __repr__(self):
        return "<CheckResult %s%s>" % (
            self.outcome, ": " + self.detail if self.detail else "")


def check_design(design, analyze=False, compiled=False):
    """Run one :class:`~repro.gen.grammar.GeneratedDesign`."""
    return check_source(design.source, design.top,
                        until_ns=design.until_ns, analyze=analyze,
                        compiled=compiled)


def check_source(source, top, until_ns=1000, filename="<gen>",
                 analyze=False, compiled=False):
    """Compile → lint → differential-simulate one source text.

    With ``analyze`` the elaborated-design analyzer runs as an extra
    oracle leg: an analyzer exception is a ``crash``, and an RPE001
    combinational-loop finding on a design both kernels simulate to
    quiescence is a ``divergence`` — the static claim (the design
    would delta-storm) contradicts the observed dynamics.

    With ``compiled`` the specialized
    :class:`~repro.sim.compiled.CompiledKernel` backend runs as a
    third differential leg under the same byte-identity obligation.
    """
    library = LibraryManager(root=None)
    compiler = Compiler(library=library, strict=False)
    try:
        result = compiler.compile(source, filename=filename)
    except CompileError as exc:
        if exc.diagnostics:
            return CheckResult("rejected",
                              detail=_first_line(exc.messages),
                              diagnostics=exc.diagnostics,
                              messages=exc.messages)
        return CheckResult(
            "crash", detail="CompileError without structured "
            "diagnostics: %s" % _first_line(exc.messages),
            messages=exc.messages)
    except Exception:
        return CheckResult("crash", detail="compile raised:\n%s"
                           % traceback.format_exc())

    if not result.ok:
        if result.diagnostics:
            return CheckResult("rejected",
                              detail=_first_line(result.messages),
                              diagnostics=result.diagnostics,
                              messages=result.messages)
        return CheckResult(
            "crash", detail="compile failed without structured "
            "diagnostics: %s" % _first_line(result.messages),
            messages=result.messages)

    # -- lint (findings are information; exceptions are crashes) -------
    try:
        from ..analysis.engine import LintEngine

        findings = LintEngine(library=library).lint_library()
    except Exception:
        return CheckResult("crash", detail="lint raised:\n%s"
                           % traceback.format_exc())

    # -- static design analysis (optional oracle leg) ------------------
    design_findings = None
    if analyze:
        design_findings = _analyze(library, top)
        if isinstance(design_findings, CheckResult):  # analyzer crash
            design_findings.lint_findings = len(findings)
            return design_findings

    # -- differential simulation ---------------------------------------
    until_fs = until_ns * NS
    backends = ("event", "scan") + (("compiled",) if compiled else ())
    legs = [(BACKENDS[backend].__name__,
             _simulate(backend, library, top, until_fs))
            for backend in backends]

    for _name, side in legs:
        if side.get("crash"):
            return CheckResult("crash", detail=side["crash"],
                              lint_findings=len(findings))

    if any(side.get("error") for _name, side in legs):
        errors = [side.get("error") for _name, side in legs]
        if all(err == errors[0] for err in errors) and errors[0]:
            return CheckResult(
                "sim_error", detail="%s: %s" % errors[0],
                lint_findings=len(findings))
        return CheckResult(
            "divergence",
            detail="error asymmetry: " + " ".join(
                "%s=%r" % (name, side.get("error"))
                for name, side in legs),
            lint_findings=len(findings))

    cal_name, cal = legs[0]
    for other_name, other in legs[1:]:
        mismatch = _compare(cal, other, cal_name, other_name)
        if mismatch is not None:
            return CheckResult("divergence", detail=mismatch,
                              lint_findings=len(findings))
    if design_findings:
        loops = [d for d in design_findings if d.code == "RPE001"]
        if loops:
            return CheckResult(
                "divergence",
                detail="static/dynamic divergence: analyzer reports "
                "%r but both kernels ran to quiescence" %
                loops[0].message,
                lint_findings=len(findings))
    return CheckResult("ok", lint_findings=len(findings))


def _analyze(library, top):
    """The analyzer leg: elaborate once more, flatten, run RPE rules.

    Returns the finding list, or a ``crash`` :class:`CheckResult`
    when the analyzer itself blows up.  A design the elaborator
    rejects yields no findings — the differential legs classify that
    fate themselves.
    """
    from ..analysis import LintEngine, build_netlist

    try:
        sim = Elaborator(library).elaborate(top)
    except _SIM_ERRORS:
        return []
    except Exception:
        return CheckResult("crash", detail="analyze elaborate "
                           "raised:\n%s" % traceback.format_exc())
    try:
        graph = build_netlist(sim.records)
        return LintEngine(library=library).lint_design(graph)
    except Exception:
        return CheckResult("crash", detail="analyze raised:\n%s"
                           % traceback.format_exc())


def _first_line(messages):
    return messages[0].splitlines()[0] if messages else ""


def _simulate(backend, library, top, until_fs):
    """One side of the differential run; returns an observation dict.

    ``crash`` — raw traceback (harness failure).  ``error`` — a
    recognized dynamic error as ``(type_name, message)``.  Otherwise
    the full observable state.
    """
    registry = MetricsRegistry()
    try:
        run = run_design(library, top, backend=backend,
                         until_fs=until_fs, max_cycles=MAX_CYCLES,
                         metrics=registry, record=())
    except _SIM_ERRORS as exc:
        return {"error": (type(exc).__name__, str(exc))}
    except Exception:
        return {"crash": "%s simulate raised:\n%s"
                % (BACKENDS[backend].__name__, traceback.format_exc())}
    kernel = run.kernel
    bridge_kernel(registry, kernel)
    snapshot = registry.snapshot()["metrics"]
    return {
        "error": None,
        "end": kernel.now,
        "cycles": kernel.cycles,
        "delta_cycles": kernel.delta_cycles,
        "truncated": kernel.truncated_transactions,
        "values": [(s.name, _image(s)) for s in kernel.signals],
        "events": [s.events for s in kernel.signals],
        "transactions": [s.transactions for s in kernel.signals],
        "resumes": [p.resumes for p in kernel.processes],
        "reports": list(kernel.logger.records),
        "vcd": run.vcd(),
        "metrics": {name: snapshot[name]["samples"]
                    for name in _METRIC_FAMILIES
                    if name in snapshot},
    }


def _image(signal):
    try:
        return signal.image(signal.value)
    except Exception:
        return repr(signal.value)


#: Comparison order: cheap scalar disagreements first so divergence
#: details name the most telling field.
_COMPARE_KEYS = ("end", "cycles", "delta_cycles", "truncated",
                 "values", "events", "transactions", "resumes",
                 "reports", "vcd", "metrics")


def _compare(cal, scan, cal_name="Kernel", scan_name="ScanKernel"):
    """First differing observable, or None when byte-identical."""
    for key in _COMPARE_KEYS:
        if cal[key] != scan[key]:
            return "%s differ: %s=%s %s=%s" % (
                key, cal_name, _clip(cal[key]),
                scan_name, _clip(scan[key]))
    return None


def _clip(value, limit=200):
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."
