"""Flattened whole-design dataflow graph over an elaborated design.

The per-unit linter (:mod:`repro.analysis.rules`) sees one compiled
unit at a time, so a loop closed through two instance port maps, a
race between drivers living in different instances, or logic that
dies only after a generic folds to a constant are all invisible to
it.  This module builds the missing view: it correlates the
*elaboration trace* (:class:`repro.vhdl.elaborate.DesignRecord`, one
per elaborated architecture/package) with the *static facts* of the
same units (:func:`repro.analysis.facts.extract_unit_facts`) to
produce a flattened signal/process graph whose nodes are the
elaborated :class:`~repro.sim.signals.Signal` and
:class:`~repro.sim.process.Process` objects themselves.

Port maps need no special resolution pass: ``ctx.port`` returns the
*parent's actual* signal when the instantiation bound one, so a
child's recorded port and the parent's recorded local are literally
the same object, and reads/drives expressed against either collapse
onto one graph node — the CVC-style "flatten first, then analyze"
strategy (PAPERS.md).
"""

from ..diag import SourceSpan
from .facts import extract_unit_facts


class NetSignal:
    """One elaborated signal node in the flattened graph."""

    __slots__ = ("signal", "index", "readers", "drivers", "is_top_port")

    def __init__(self, signal, index):
        self.signal = signal
        self.index = index
        self.readers = []      # NetProcess that read/wait/sense it
        self.drivers = []      # NetDrive sites targeting it
        #: Port of the top-level entity left unbound by any port map:
        #: externally observable, so never dead and never constant.
        self.is_top_port = False

    @property
    def path(self):
        return self.signal.name

    @property
    def resolved(self):
        return getattr(self.signal, "resolution", None) is not None

    @property
    def decl_span(self):
        return getattr(self.signal, "decl_span", None)

    def __repr__(self):
        return "<NetSignal %s>" % self.path


class NetDrive:
    """One static drive site: (process, target, guard/delay class)."""

    __slots__ = ("proc", "target", "guarded", "zero_delay")

    def __init__(self, proc, target, guarded, zero_delay):
        self.proc = proc
        self.target = target
        self.guarded = guarded
        self.zero_delay = zero_delay

    def __repr__(self):
        return "<NetDrive %s -> %s>" % (self.proc.path,
                                        self.target.path)


class NetProcess:
    """One elaborated process node with resolved dataflow sets."""

    __slots__ = ("process", "fact", "file", "index", "reads_plain",
                 "reads_guarded", "attr_uses", "sensitivity",
                 "wait_signals", "clocks", "drives", "wait_driven",
                 "time_paced")

    def __init__(self, process, fact, file, index):
        self.process = process
        self.fact = fact
        self.file = file
        self.index = index
        self.reads_plain = set()    # NetSignal
        self.reads_guarded = set()
        self.attr_uses = set()
        self.sensitivity = set()
        self.wait_signals = set()
        self.clocks = set()         # 'EVENT-tested signals
        self.drives = []            # NetDrive, in source order
        #: no declared sensitivity list (explicit waits)
        self.wait_driven = fact.sensitivity is None
        #: reaches a timeout wait / a bare ``wait;`` — the process is
        #: paced by simulated time, not (only) by signal events, so
        #: its zero-delay drives cannot close a delta-cycle loop.
        self.time_paced = False

    @property
    def path(self):
        return self.process.name

    @property
    def label(self):
        return self.fact.label

    @property
    def decl_span(self):
        span = getattr(self.process, "decl_span", None)
        if span is not None:
            return span
        line = getattr(self.process, "decl_line", None) or \
            self.fact.line
        if line is None and self.file is None:
            return None
        return SourceSpan(file=self.file, line=line)

    @property
    def is_clocked(self):
        """Every drive guarded and at least one 'EVENT clock test."""
        return bool(self.clocks) and bool(self.drives) and \
            all(d.guarded for d in self.drives)

    @property
    def combinational(self):
        """Can an input event reach a zero-delay drive in one delta?

        True for sensitivity-list processes and for wait-driven
        processes that only ever block on signal events; a process
        that reaches a timeout or a terminal ``wait;`` is paced by
        time and exempt (stimulus/clock-generator idiom).
        """
        if self.time_paced:
            return False
        return any(not d.guarded and d.zero_delay for d in self.drives)

    def comb_inputs(self):
        """Signals whose events can re-fire this process immediately."""
        return self.reads_plain | self.sensitivity | self.wait_signals

    def __repr__(self):
        return "<NetProcess %s>" % self.path


class DesignGraph:
    """The flattened design: signal and process nodes plus edges."""

    def __init__(self, top_path=None):
        self.top_path = top_path
        self.signals = []      # NetSignal, in elaboration order
        self.processes = []    # NetProcess, in elaboration order
        self._by_id = {}       # id(Signal) -> NetSignal

    # -- construction ------------------------------------------------------

    def intern(self, signal):
        node = self._by_id.get(id(signal))
        if node is None:
            node = NetSignal(signal, len(self.signals))
            self._by_id[id(signal)] = node
            self.signals.append(node)
        return node

    def lookup(self, signal):
        return self._by_id.get(id(signal))

    # -- views -------------------------------------------------------------

    def comb_edges(self):
        """``(src, dst, proc)`` triples: a delta-cycle dataflow edge
        from every combinational input to every unguarded zero-delay
        drive target of the same process."""
        edges = []
        for proc in self.processes:
            if not proc.combinational:
                continue
            inputs = proc.comb_inputs()
            for drive in proc.drives:
                if drive.guarded or not drive.zero_delay:
                    continue
                for src in inputs:
                    edges.append((src, drive.target, proc))
        return edges

    def stats(self):
        return {
            "signals": len(self.signals),
            "processes": len(self.processes),
            "drives": sum(len(p.drives) for p in self.processes),
            "comb_edges": len(self.comb_edges()),
        }

    def __repr__(self):
        return "<DesignGraph %s: %d signals, %d processes>" % (
            self.top_path or "?", len(self.signals),
            len(self.processes))


def _facts_for(node, cache, trees):
    key = id(node)
    facts = cache.get(key)
    if facts is None:
        facts = extract_unit_facts(node, trees=trees)
        cache[key] = facts
    return facts


def build_netlist(records, top_path=None, trees=None):
    """Build a :class:`DesignGraph` from elaboration records.

    ``records`` is ``Elaborator.records`` (or ``Simulation.records``)
    — the per-instance elaboration trace.  Extraction is total:
    records whose units carry no generated model contribute nothing.
    ``trees`` is an optional :func:`~repro.analysis.facts.unit_tree`
    memo shared with a later pass over the same records.
    """
    records = list(records)
    if top_path is None:
        for record in records:
            if record.kind == "architecture":
                top_path = record.path
                break
    graph = DesignGraph(top_path=top_path)
    facts_cache = {}

    # Package-level bindings: a package signal's generated binding
    # name (``pkg_<pkg>_s_<name>``) is globally unique and identical
    # in every unit that imports it, so one flat map resolves the
    # cross-unit references local object tables miss.
    package_bindings = {}
    for record in records:
        if record.kind != "package":
            continue
        facts = _facts_for(record.node, facts_cache, trees)
        for py, obj in facts.objects.items():
            sig = record.signals.get(obj.name)
            if sig is not None:
                package_bindings[py] = graph.intern(sig)

    top_record = None
    for record in records:
        facts = _facts_for(record.node, facts_cache, trees)

        local = {}
        for py, obj in facts.objects.items():
            sig = record.signals.get(obj.name)
            if sig is not None:
                local[py] = graph.intern(sig)

        if record.kind == "architecture" and top_record is None:
            top_record = record
            for py, obj in facts.objects.items():
                if obj.kind == "port" and py in local:
                    local[py].is_top_port = True

        def resolve(py):
            node = local.get(py)
            if node is None:
                node = package_bindings.get(py)
            return node

        def resolve_set(names):
            out = set()
            for py in names:
                node = resolve(py)
                if node is not None:
                    out.add(node)
            return out

        for fact in facts.processes:
            process = record.processes.get(fact.label)
            if process is None:
                continue
            net = NetProcess(process, fact, facts.file,
                             len(graph.processes))
            graph.processes.append(net)
            net.reads_plain = resolve_set(fact.plain_reads)
            net.reads_guarded = resolve_set(fact.guarded_reads)
            net.attr_uses = resolve_set(fact.attr_uses)
            net.sensitivity = resolve_set(fact.sensitivity or ())
            net.clocks = resolve_set(fact.event_guards)
            for wait in fact.waits:
                net.wait_signals |= resolve_set(wait.signals)
                if wait.has_timeout or wait.forever:
                    net.time_paced = True
            for site in fact.drive_sites:
                target = resolve(site.target)
                if target is None:
                    continue
                drive = NetDrive(net, target, site.guarded,
                                 site.zero_delay)
                net.drives.append(drive)
                target.drivers.append(drive)
            for node in (net.reads_plain | net.reads_guarded
                         | net.attr_uses | net.sensitivity
                         | net.wait_signals):
                node.readers.append(net)

    return graph
