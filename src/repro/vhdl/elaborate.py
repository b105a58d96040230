"""Elaboration: turning compiled units into a running simulation.

Generated models define ``elaborate(ctx)``; the :class:`Elaborator`
builds the design hierarchy by executing them — resolving component
bindings at this point, per the paper's §3.3 trade-off of postponing
work "until the configuration information is available".  Binding
resolution order:

1. an explicit configuration *unit* selected for the top (or bindings
   it carries for inner instances);
2. configuration *specifications* compiled into the architecture;
3. the default rules: an entity with the component's name in the work
   library, and **the latest compiled architecture for that entity** —
   the usage-history-dependent default the paper calls out as making
   descriptions non-deterministic.

:func:`run_design` is the one path from a compiled library to a
running kernel: ``repro simulate``, serve's ``/sim``, the fuzz oracle
and the bench-check scenarios all call it.
"""

import time
from contextlib import nullcontext

from ..metrics import NULL_REGISTRY
from ..sim import BACKENDS, CompiledKernel, Kernel, NameServer, format_fs
from ..sim.nameserver import SEPARATOR
from ..sim.tracing import WaveRecorder
from .codegen.pymodel import load_model
from .symtab import entry_kind


class DesignRecord:
    """The elaboration trace of one architecture or package instance.

    The elaborator appends one record per ``elaborate(ctx)`` call it
    executes, mapping the VHDL names the generated model declared to
    the elaborated kernel objects they produced — including ports,
    whose recorded :class:`~repro.sim.signals.Signal` is the *parent's
    actual* when the port map bound one.  The post-elaboration
    analyzer (:mod:`repro.analysis.netlist`) correlates these records
    with the static facts of the same units to build the flattened
    whole-design dataflow graph.
    """

    __slots__ = ("path", "kind", "node", "signals", "processes",
                 "instances")

    def __init__(self, path, kind, node):
        self.path = path        # hierarchical instance path
        self.kind = kind        # 'architecture' | 'package'
        self.node = node        # the VIF unit carrying py_source
        self.signals = {}       # VHDL name -> Signal (ports included)
        self.processes = {}     # label -> Process
        self.instances = {}     # label -> child DesignRecord

    def __repr__(self):
        return "<DesignRecord %s: %d signals, %d processes>" % (
            self.path, len(self.signals), len(self.processes))


class ElaborationError(Exception):
    """A binding or interface mismatch found during elaboration."""


class ElabContext:
    """The ``ctx`` object generated models receive."""

    def __init__(self, elaborator, path, generics=None, ports=None,
                 arch_node=None, config_rows=(), record=None):
        self._elab = elaborator
        self.kernel = elaborator.kernel
        self.rt = elaborator.kernel.rt
        self.ops = self.rt.ops
        self.path = path
        self._generics = dict(generics or {})
        self._ports = dict(ports or {})
        self._arch = arch_node
        self._config_rows = list(config_rows)
        self._exports = {}
        self._record = record

    # -- interface ------------------------------------------------------------

    def generic(self, name, default=None):
        if name in self._generics:
            return self._generics[name]
        if default is None:
            raise ElaborationError(
                "generic %r of %s has no actual and no default"
                % (name, self.path))
        return default

    def port(self, name, init=0, mode="in", line=None):
        sig = self._ports.get(name)
        if sig is None:
            # Unbound/top-level port: a fresh signal.
            sig = self.signal(name, init, line=line)
        elif self._record is not None:
            self._record.signals[name] = sig
        return sig

    # -- declarations ------------------------------------------------------------

    def _decl_span(self, line):
        """Declaration span for a generated ``line=`` coordinate.

        The architecture node carries the source file it was compiled
        from (stamped at registration), so runtime errors — the
        multi-driver resolution failure above all — can cite the same
        declaration site ``repro lint`` reports at compile time.
        """
        if line is None:
            return None
        from ..diag import SourceSpan

        src = getattr(self._arch, "source_file", None) \
            if self._arch is not None else None
        return SourceSpan(file=src or None, line=line)

    def signal(self, name, init=0, res=None, line=None):
        sig = self.kernel.signal(
            "%s%s%s" % (self.path, SEPARATOR, name), init, res)
        sig.decl_span = self._decl_span(line)
        self._elab.names.register(sig.name, "signal", sig)
        if self._record is not None:
            self._record.signals[name] = sig
        return sig

    def process(self, name, fn, sensitivity=None, line=None):
        proc = self.kernel.process(
            "%s%s%s" % (self.path, SEPARATOR, name), fn,
            sensitivity=sensitivity, line=line)
        self._elab.names.register(proc.name, "process", proc)
        if self._record is not None:
            self._record.processes[name] = proc
        return proc

    def export(self, names):
        """Package elaboration result (constants, functions, signals)."""
        self._exports.update(names)

    # -- structure ----------------------------------------------------------------

    def instance(self, label, comp_name, generic_map, port_map):
        """Instantiate a bound component (§3.3, both layers)."""
        binding = self._elab.resolve_binding(
            comp_name, label, self._arch, self._config_rows)
        if binding is None:
            raise ElaborationError(
                "no entity/architecture binding for instance %s:%s "
                "of component %r" % (self.path, label, comp_name))
        entity, arch = binding
        child_path = "%s%s%s" % (self.path, SEPARATOR, label)
        self._elab.names.register(child_path, "instance",
                                  (entity.name, arch.name))
        child = self._elab.elaborate_architecture(
            entity, arch, child_path, generics=generic_map,
            ports=port_map)
        if self._record is not None and child._record is not None:
            self._record.instances[label] = child._record


class Elaborator:
    """Builds a simulation from a library's compiled units."""

    def __init__(self, library, kernel=None):
        self.library = library
        self.kernel = kernel or Kernel()
        self.names = NameServer()
        #: DesignRecord per elaborated architecture/package instance,
        #: in elaboration order (top after its packages, children
        #: after the ``ctx.instance`` call that created them).
        self.records = []
        self._package_ns = {}
        self._packages_loaded = False

    # -- packages -------------------------------------------------------------------

    def _load_packages(self):
        """Elaborate every package (and body) once, in compile order;
        their exports become the shared globals of all models."""
        if self._packages_loaded:
            return
        self._packages_loaded = True
        for lib, key in list(self.library.compile_order):
            node = self.library.find_unit(lib, key) \
                or self.library._units.get((lib, key))
            if node is None:
                continue
            kind = entry_kind(node)
            if kind not in ("package", "package_body"):
                continue
            py = getattr(node, "py_source", "")
            if not py or "elaborate" not in py:
                continue
            record = DesignRecord(SEPARATOR + node.name, "package",
                                  node)
            self.records.append(record)
            ctx = ElabContext(self, SEPARATOR + node.name,
                              record=record)
            ns = load_model(py, "%s.%s" % (lib, key),
                            extra_globals=self._package_ns)
            ns["elaborate"](ctx)
            self._package_ns.update(ctx._exports)

    # -- binding resolution (§3.3) ------------------------------------------------------

    def resolve_binding(self, comp_name, label, arch_node, config_rows):
        lib = self.library.work
        # 1. configuration-unit rows for this architecture.
        for row in config_rows:
            _arch, labels, comp, blib, ent_name, arch_name = row
            label_set = labels.split(",") if isinstance(labels, str) \
                else list(labels)
            if comp != comp_name:
                continue
            if label not in label_set and "all" not in label_set \
                    and "others" not in label_set:
                continue
            return self._find_pair(blib or lib, ent_name, arch_name)
        # 2. configuration specifications baked into the architecture.
        if arch_node is not None:
            for inst in arch_node.instances:
                if inst.label == label and inst.is_bound:
                    return self._find_pair(
                        inst.bound_library or lib, inst.bound_entity,
                        inst.bound_arch)
        # 3. defaults: same-named entity, latest compiled architecture.
        entity = self.library.find_unit(lib, comp_name)
        if entity is None or entry_kind(entity) != "entity":
            return None
        arch = self.library.latest_architecture(lib, entity.name)
        if arch is None:
            return None
        return entity, arch

    def _find_pair(self, lib, ent_name, arch_name):
        entity = self.library.find_unit(lib, ent_name)
        if entity is None or entry_kind(entity) != "entity":
            raise ElaborationError("no entity %s.%s" % (lib, ent_name))
        if arch_name:
            arch = self.library.find_architecture(lib, ent_name,
                                                  arch_name)
        else:
            arch = self.library.latest_architecture(lib, ent_name)
        if arch is None:
            raise ElaborationError(
                "no architecture %r of entity %s.%s"
                % (arch_name or "<default>", lib, ent_name))
        return entity, arch

    # -- entry points ----------------------------------------------------------------------

    def elaborate_architecture(self, entity, arch, path, generics=None,
                               ports=None, config_rows=()):
        self._load_packages()
        record = DesignRecord(path, "architecture", arch)
        self.records.append(record)
        ctx = ElabContext(self, path, generics, ports, arch,
                          config_rows, record=record)
        ns = load_model(arch.py_source,
                        "%s(%s)" % (arch.name, entity.name),
                        extra_globals=self._package_ns)
        ns["elaborate"](ctx)
        return ctx

    def elaborate(self, top, arch_name=None, generics=None, lib=None):
        """Elaborate a top unit: an entity name or a configuration
        name.  Returns a :class:`Simulation`."""
        lib = lib or self.library.work
        config_rows = ()
        node = self.library.find_unit(lib, top)
        if node is None:
            raise ElaborationError("no unit %r in library %r"
                                   % (top, lib))
        if entry_kind(node) == "configuration":
            config_rows = [tuple(row) for row in node.bindings]
            entity = node.entity or self.library.find_unit(
                lib, node.entity_name)
            # The configuration's ``for <arch>`` row names the arch.
            arch_name = arch_name or (
                node.bindings[0][0] if node.bindings else None)
            if arch_name:
                arch = self.library.find_architecture(
                    lib, entity.name, arch_name)
            else:
                arch = self.library.latest_architecture(lib, entity.name)
        elif entry_kind(node) == "entity":
            entity = node
            if arch_name:
                arch = self.library.find_architecture(lib, top, arch_name)
            else:
                arch = self.library.latest_architecture(lib, top)
        else:
            raise ElaborationError(
                "unit %r is a %s, not an entity or configuration"
                % (top, entry_kind(node)))
        if arch is None:
            raise ElaborationError(
                "entity %r has no compiled architecture" % top)
        path = SEPARATOR + entity.name
        self.names.register(path, "instance", (entity.name, arch.name))
        self.elaborate_architecture(entity, arch, path,
                                    generics=generics,
                                    config_rows=config_rows)
        return Simulation(self.kernel, self.names, self.records)


class Simulation:
    """A ready-to-run simulation: kernel plus name server."""

    def __init__(self, kernel, names, records=()):
        self.kernel = kernel
        self.names = names
        self.records = list(records)

    def run(self, until_fs=None, max_cycles=None):
        return self.kernel.run(until=until_fs, max_cycles=max_cycles)

    def signal(self, name):
        """Find a signal by suffix (e.g. 'count') or full path."""
        obj = self.names.lookup(name)
        if obj is not None:
            return obj
        paths = self.names.by_suffix(name)
        signals = [self.names.lookup(p) for p in paths
                   if self.names.kind_of(p) == "signal"]
        if len(signals) == 1:
            return signals[0]
        if not signals:
            raise KeyError("no signal %r" % name)
        raise KeyError("ambiguous signal %r: %s" % (name, paths))

    def value(self, name):
        return self.signal(name).value

    @property
    def now(self):
        return self.kernel.now


#: Kernel-span sampling stride of a traced run: every Nth timestep and
#: process resume becomes a span, so a long run adds bounded volume to
#: the trace while still exposing the delta-cycle breakdown.
TRACE_SAMPLE = 100


def _no_phase(name, **args):
    return nullcontext()


def run_design(library, top, *, arch=None, lib=None, backend="event",
               until_fs=None, max_cycles=None, metrics=NULL_REGISTRY,
               trace=None, trace_sample=TRACE_SAMPLE, record=None,
               preflight=None):
    """Elaborate ``top`` and simulate it on ``BACKENDS[backend]``.

    ``trace`` (a :class:`repro.diag.trace.Tracer`) records the
    ``sim`` phase with its ``elaborate``, ``codegen`` and
    ``kernel_run`` children, and samples kernel spans every
    ``trace_sample``-th step.  ``record`` attaches a
    :class:`~repro.sim.tracing.WaveRecorder` before the first cycle
    to the signals whose names end in one of its suffixes (all
    signals when none match, so ``()`` records everything).
    ``preflight(simulation)`` runs between elaboration and codegen; it
    may return the :class:`~repro.analysis.netlist.DesignGraph` it
    built, which the compiled backend then reuses instead of
    extracting the netlist again, and it stops the run by raising.
    """
    kernel = BACKENDS[backend](metrics=metrics, trace=trace,
                               trace_sample=trace_sample)
    phase = _no_phase if trace is None else trace.phase
    with phase("sim", cat="sim", top=str(top)):
        with phase("elaborate", cat="sim"):
            sim = Elaborator(library, kernel=kernel).elaborate(
                top, arch_name=arch, lib=lib)
        graph = preflight(sim) if preflight is not None else None
        if isinstance(kernel, CompiledKernel):
            with phase("codegen", cat="sim"):
                kernel.compile_design(sim.records, graph=graph)
        recorder = None
        if record is not None:
            names = sim.names
            signals = [names.lookup(path) for suffix in record
                       for path in names.by_suffix(suffix)
                       if names.kind_of(path) == "signal"]
            recorder = WaveRecorder(kernel, signals or None)
        with phase("kernel_run", cat="sim"):
            # ``run_s`` times the simulation cycles alone; the
            # initialization run of every process happens first.
            kernel.initialize()
            t0 = time.perf_counter()
            end = sim.run(until_fs=until_fs, max_cycles=max_cycles)
            run_s = time.perf_counter() - t0
    return DesignRun(sim, end, recorder, run_s)


class DesignRun:
    """The outcome of :func:`run_design`: the finished
    :class:`Simulation`, its kernel, the stop time and the wall-clock
    seconds of its simulation cycles, plus the report and waveform
    every caller prints."""

    def __init__(self, simulation, end_fs, recorder, run_s):
        self.simulation = simulation
        self.kernel = simulation.kernel
        self.end_fs = end_fs
        self.recorder = recorder
        self.run_s = run_s

    @property
    def report_lines(self):
        """The report ``repro simulate`` prints and ``/sim`` returns."""
        lines = ["simulation stopped at %s (%d cycles)"
                 % (format_fs(self.end_fs), self.kernel.cycles)]
        for path, sig in self.simulation.names.signals():
            lines.append("  %-30s = %s" % (path, sig.image(sig.value)))
        return lines

    @property
    def codegen(self):
        """The compiled backend's specialization stats, else None."""
        kernel = self.kernel
        if not isinstance(kernel, CompiledKernel):
            return None
        return {"seconds": round(kernel.codegen_seconds, 6),
                "compiled_procs": kernel.compiled_procs,
                "templates": kernel.program.stats["templates"],
                "slot_signals": kernel.slot_signals}

    def vcd(self):
        """The recorded waveform as a VCD document."""
        return self.recorder.vcd()
