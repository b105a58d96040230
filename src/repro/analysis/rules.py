"""The lint rule registry: design rules (RPL) and AG-spec rules (RPA).

Every rule has a stable identifier, a default severity, and a
one-line summary.  Registration feeds the summary into
:data:`repro.diag.diagnostic.CODE_DESCRIPTIONS`, so the SARIF
renderer's rules catalog picks up per-rule metadata with no extra
wiring — the same path the compiler's own LEX/PARSE/SEM codes use.

Design-rule rationale (each maps to a hazard the paper's semantics
make precise):

``RPL001`` *incomplete sensitivity* — a process reads a signal its
sensitivity list omits; simulation (§5.1 cycle semantics) will not
resume it on that signal's events, so simulated and synthesized
behaviour diverge.  Reads guarded by an ``'EVENT`` test (the clocked
idiom) and reads of self-driven feedback signals are exempt.

``RPL002`` *unresolved multi-driver* — two drivers, no resolution
function: the exact defect :meth:`repro.sim.signals.Signal.
compute_value` turns into a runtime error mid-simulation.  The lint
fires at compile time and cites the same declaration span.

``RPL003`` *unused signal* — declared, never read, driven, waited on,
or connected; dead weight in the elaborated design.

``RPL004`` *process never suspends* — an infinite loop with no
``wait`` can never yield to the kernel; one resumption would hang the
simulation-cycle loop forever.

``RPL005`` *port mode violation* — driving an ``in`` port, or making
an ``out`` port a wakeup source (sensitivity/wait), contradicts the
declared interface direction.

``RPL006`` *unreachable code* — statements after a wait-less infinite
loop can never execute.

AG-spec rules lint a :class:`repro.ag.spec.CompiledAG` — the
methodology half of the paper: ``RPA001`` declared-but-never-computed
attributes, ``RPA002`` attributes whose value never reaches a goal,
``RPA003`` the absolutely-noncircular test surfaced as a diagnostic
instead of an exception.
"""

from ..diag import Diagnostic, SourceSpan
from ..diag.diagnostic import CODE_DESCRIPTIONS, ERROR, WARNING

#: rule id -> Rule instance, in registration order.
REGISTRY = {}

#: Modes that make an instance port connection a *driver* of the
#: connected actual signal.
_DRIVING_MODES = ("out", "inout", "buffer")


def register(cls):
    """Class decorator: instantiate, index, and catalog a rule."""
    rule = cls()
    if rule.id in REGISTRY:
        raise ValueError("duplicate lint rule id %r" % rule.id)
    REGISTRY[rule.id] = rule
    CODE_DESCRIPTIONS.setdefault(rule.id, rule.summary)
    return cls


def all_rules():
    return list(REGISTRY.values())


class Rule:
    """Base class: one check with a stable id.

    ``scope`` is ``"unit"`` (checks :class:`UnitFacts`) or ``"ag"``
    (checks a :class:`CompiledAG`).  ``check`` yields
    :class:`repro.diag.Diagnostic` instances.
    """

    id = None
    severity = WARNING
    summary = ""
    scope = "unit"

    def check(self, facts, ctx):
        raise NotImplementedError

    def diag(self, message, span=None, notes=(), related=()):
        return Diagnostic(self.id, self.severity, message, span=span,
                          notes=notes, related=related)


class LintContext:
    """Shared services rules may need.

    ``port_mode(component, formal)`` resolves the mode of a bound
    component's port through the library's default binding (the same
    entity-name rule elaboration uses), returning ``None`` when no
    binding is known — rules must treat unknown modes conservatively.
    """

    def __init__(self, library=None, work=None):
        self.library = library
        self.work = work or (library.work if library is not None
                             else "work")
        self._port_cache = {}
        self._external_uses = None
        self._facts = {}  # (id(node), kind) -> (node, UnitFacts)

    def span(self, facts, line):
        if line is None and facts.file is None:
            return None
        return SourceSpan(file=facts.file, line=line)

    def port_mode(self, component, formal):
        ports = self._component_ports(component)
        if ports is None:
            return None
        return ports.get(formal)

    def unit_facts(self, node, kind=None):
        """:func:`~repro.analysis.facts.extract_unit_facts` of ``node``,
        extracted once per context: the per-unit rules and
        :meth:`external_uses` share one pass's facts."""
        key = (id(node), kind)
        entry = self._facts.get(key)
        if entry is None or entry[0] is not node:
            from .facts import extract_unit_facts

            entry = self._facts[key] = (
                node, extract_unit_facts(node, kind=kind))
        return entry[1]

    def external_uses(self):
        """Generated binding names each library unit uses without
        declaring them — references to *another* unit's objects.

        Package-level signals keep one globally-unique binding name
        (``pkg_<package>_s_<name>``) in every importer, so a name in
        this set marks the declaring unit's object as used even when
        every use (a port-map actual, a process read) lives in a
        different unit.  Purely local bindings (``s_x``) never land
        here: the unit that uses them also declares them.
        """
        if self._external_uses is not None:
            return self._external_uses
        refs = set()
        if self.library is not None:
            for key in list(getattr(self.library, "_units", ())):
                node = self.library.find_unit(*key) \
                    or self.library._units.get(key)
                if node is None:
                    continue
                facts = self.unit_facts(node)
                used = set()
                for proc in facts.processes:
                    used |= proc.uses
                for inst in facts.instances:
                    used.update(inst.connections.values())
                refs |= used - set(facts.objects)
        self._external_uses = refs
        return refs

    def _component_ports(self, component):
        if component in self._port_cache:
            return self._port_cache[component]
        ports = None
        if self.library is not None:
            entity = self.library.find_unit(self.work, component) \
                or self.library._units.get((self.work, component))
            if entity is not None and hasattr(entity, "ports"):
                ports = {
                    p.name: (p.mode or "in")
                    for p in entity.ports
                }
        self._port_cache[component] = ports
        return ports


# -- design rules (RPL) --------------------------------------------------------


@register
class IncompleteSensitivity(Rule):
    id = "RPL001"
    severity = WARNING
    summary = ("process reads a signal missing from its sensitivity "
               "list (simulation will not resume on its events)")

    def check(self, facts, ctx):
        for proc in facts.processes:
            if proc.sensitivity is None:
                continue  # wait-driven: no list to be incomplete
            sens = set(proc.sensitivity)
            missing = []
            for py in sorted(proc.plain_reads):
                obj = facts.object_named(py)
                if obj is None:
                    continue  # variable/constant: no events
                if py in sens or py in proc.drives:
                    continue
                missing.append(obj)
            if not missing:
                continue
            names = ", ".join(repr(o.name) for o in missing)
            yield self.diag(
                "process %r reads %s but its sensitivity list omits "
                "%s" % (proc.label, names,
                        "it" if len(missing) == 1 else "them"),
                span=ctx.span(facts, proc.line),
                related=[
                    ("%r declared here" % o.name,
                     ctx.span(facts, o.line))
                    for o in missing if o.line is not None
                ])


@register
class UnresolvedMultipleDrivers(Rule):
    id = "RPL002"
    severity = ERROR
    summary = ("signal has multiple drivers but no resolution "
               "function (fails at simulation time otherwise)")

    def check(self, facts, ctx):
        drivers = {}  # py -> [description, span]
        for proc in facts.processes:
            for py in sorted(proc.drives):
                drivers.setdefault(py, []).append(
                    ("driven by process %r" % proc.label,
                     ctx.span(facts, proc.line)))
        for inst in facts.instances:
            for formal in sorted(inst.connections):
                mode = ctx.port_mode(inst.component, formal)
                if mode in _DRIVING_MODES:
                    drivers.setdefault(
                        inst.connections[formal], []).append(
                        ("driven by port %r of instance %r"
                         % (formal, inst.label), None))
        for py in sorted(drivers):
            sources = drivers[py]
            obj = facts.object_named(py)
            if obj is None or obj.resolved or len(sources) < 2:
                continue
            yield self.diag(
                "signal %r has %d drivers but no resolution function"
                % (obj.name, len(sources)),
                span=ctx.span(facts, obj.line),
                related=[(m, s) for m, s in sources
                         if s is not None])


@register
class UnusedSignal(Rule):
    id = "RPL003"
    severity = WARNING
    summary = ("signal is declared but never read, driven, waited "
               "on, or connected")

    def check(self, facts, ctx):
        used = set()
        for proc in facts.processes:
            used |= proc.uses
        for inst in facts.instances:
            used.update(inst.connections.values())
        external = None
        for py in sorted(facts.objects):
            obj = facts.objects[py]
            if obj.kind != "signal" or py in used:
                continue
            # Cross-unit uses: a package-level signal may be read (or
            # wired into an instance port map) only by *other* units;
            # its globally-unique binding name makes those visible.
            if external is None:
                external = ctx.external_uses()
            if py in external:
                continue
            yield self.diag(
                "signal %r is never used" % obj.name,
                span=ctx.span(facts, obj.line))


@register
class ProcessNeverSuspends(Rule):
    id = "RPL004"
    severity = ERROR
    summary = ("process contains an infinite loop with no wait "
               "statement (simulation would hang)")

    def check(self, facts, ctx):
        for proc in facts.processes:
            if not proc.waitless_loops:
                continue
            yield self.diag(
                "process %r contains %s with no wait statement — it "
                "can never suspend, so one resumption hangs the "
                "simulation cycle"
                % (proc.label,
                   "an infinite loop" if proc.waitless_loops == 1
                   else "%d infinite loops" % proc.waitless_loops),
                span=ctx.span(facts, proc.line))


@register
class PortModeViolation(Rule):
    id = "RPL005"
    severity = ERROR
    summary = ("use of a port contradicts its declared mode "
               "(driving an 'in' port / waiting on an 'out' port)")

    def check(self, facts, ctx):
        for proc in facts.processes:
            for py in sorted(proc.drives):
                obj = facts.object_named(py)
                if obj is not None and obj.kind == "port" \
                        and obj.mode == "in":
                    yield self.diag(
                        "process %r drives port %r of mode 'in'"
                        % (proc.label, obj.name),
                        span=ctx.span(facts, proc.line),
                        related=[("port %r declared here" % obj.name,
                                  ctx.span(facts, obj.line))])
            wakeups = set(proc.sensitivity or ())
            for w in proc.waits:
                wakeups.update(w.signals)
            for py in sorted(wakeups):
                obj = facts.object_named(py)
                if obj is not None and obj.kind == "port" \
                        and obj.mode == "out":
                    yield self.diag(
                        "process %r waits on port %r of mode 'out' "
                        "(out ports are not readable wakeup sources)"
                        % (proc.label, obj.name),
                        span=ctx.span(facts, proc.line),
                        related=[("port %r declared here" % obj.name,
                                  ctx.span(facts, obj.line))])


@register
class UnreachableAfterWaitlessLoop(Rule):
    id = "RPL006"
    severity = WARNING
    summary = ("statements after a wait-less infinite loop can "
               "never execute")

    def check(self, facts, ctx):
        for proc in facts.processes:
            if not proc.unreachable_stmts:
                continue
            yield self.diag(
                "process %r has %d unreachable statement(s) after a "
                "wait-less infinite loop"
                % (proc.label, proc.unreachable_stmts),
                span=ctx.span(facts, proc.line))


# -- attribute-grammar rules (RPA) ---------------------------------------------


class AGRule(Rule):
    scope = "ag"

    def check(self, compiled, ctx):
        raise NotImplementedError


@register
class AttrDeclaredNeverComputed(AGRule):
    id = "RPA001"
    severity = WARNING
    summary = ("attribute is declared but no semantic rule computes "
               "it and no evaluation entry supplies it")

    def check(self, compiled, ctx):
        grammar = compiled.grammar
        computed = set()  # (symbol name, attr)
        for prod in grammar.productions:
            symbols = prod.symbols
            for (pos, attr) in compiled.rules_of(prod):
                computed.add((symbols[pos].name, attr))
        entry = set(getattr(ctx, "entry_inherited", ()) or ())
        start = grammar.start.name if grammar.start is not None else None
        for sym in grammar.nonterminals:
            for attr in sorted(compiled.attr_table.of(sym)):
                if (sym.name, attr) in computed:
                    continue
                if sym.name == start and attr in entry:
                    continue
                yield self.diag(
                    "attribute %s.%s is declared but never computed"
                    % (sym.name, attr)
                    + (" (add it to the evaluation entry's inherited "
                       "set if it is supplied externally)"
                       if sym.name == start else ""))


@register
class AttrNeverReachesGoal(AGRule):
    id = "RPA002"
    severity = WARNING
    summary = "attribute is computed but its value never reaches a goal"

    def check(self, compiled, ctx):
        # Symbol-level liveness: a fixpoint backwards from the goal
        # attributes over every rule's dependencies, implicit rules
        # included, so a value only copied along a chain is still dead.
        grammar = compiled.grammar
        start = grammar.start
        if start is None:
            return
        goals = getattr(ctx, "goals", ()) or [
            # no goals named: every root output is one
            d.name for d in compiled.attr_table.synthesized(start)]
        live = {(start.name, attr) for attr in goals}
        rules = [rule for prod in grammar.productions
                 for rule in compiled.rules_of(prod).values()]
        changed = True
        while changed:
            changed = False
            for rule in rules:
                target = rule.target
                if (target.symbol.name, target.attr) not in live:
                    continue
                for dep in rule.deps:
                    key = (dep.symbol.name, dep.attr)
                    if not dep.symbol.is_terminal and key not in live:
                        live.add(key)
                        changed = True
        for sym in grammar.nonterminals:
            for attr in sorted(compiled.attr_table.of(sym)):
                if (sym.name, attr) not in live:
                    yield self.diag(
                        "attribute %s.%s never reaches a goal"
                        % (sym.name, attr))


@register
class AGCircularity(AGRule):
    id = "RPA003"
    severity = ERROR
    summary = ("attribute grammar fails the absolutely-noncircular "
               "dependency test")

    def check(self, compiled, ctx):
        from ..ag.dependency import DependencyAnalysis
        from ..ag.errors import CircularityError

        try:
            DependencyAnalysis(compiled).check_noncircular()
        except CircularityError as exc:
            notes = [
                "on the cycle: position %s attribute %s" % (pos, attr)
                for pos, attr in getattr(exc, "cycle", ()) or ()
            ]
            yield self.diag(str(exc), notes=notes)
