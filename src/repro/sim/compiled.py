"""The compiled backend: per-design specialized simulation.

:class:`CompiledKernel` closes the source paper's compile-to-code
story: where the generated C of the paper's pipeline was specialized
per design and compiled by the host compiler, this kernel takes the
elaborator's records plus the netlist ``DesignGraph``/levelization,
``exec()``\\ s the template module rendered by
:mod:`repro.sim.codegen` (one function per process shape) and makes
each compiled process's function from its template's code object,
with the instance's signal indices and captured values as defaults:

- compiled processes are plain functions dispatched directly (no
  generator resumption, no ``RT`` attribute chains), reached through
  **static fanout tables** instead of per-suspension waiter churn;
- **slot-managed** signals (single compiled driver, unresolved,
  single-element inertial waveforms, off the cyclic quarantine) have
  no :class:`~repro.sim.signals.Driver` at all — current values live
  in a flat list indexed by ``Signal.index``, zero-delay assignments
  land in a **due-now buffer** that bypasses the heapq event calendar,
  and delayed ones in per-time buckets;
- everything else — including every process the specializer rejected
  and every signal on the levelization quarantine — runs the untouched
  generic path, interleaved in registration order.

Semantics are **byte-identical** to the activity kernel: the compiled
scheduler executes the same simulation cycles, the same delta cycles,
the same resume order, and maintains every ``Signal`` stamp exactly as
:meth:`Signal.update` does, so traces, VCD output, and the ``sim_*``
metric families match the event backend bit for bit (pinned by
``tests/sim/test_compiled_backend.py`` and the fuzz oracle's third
leg).  Only the ``sim_calendar_*`` cost telemetry may differ — it
describes the scheduler, not the simulated design.

Compiled template modules are cached by design fingerprint (sources +
elaborated topology, **never** elaboration-time values; generic-folded
constants are re-captured from process closures at bind time), so
re-elaborating the same design skips codegen entirely.
"""

import heapq
import time as _time
from collections import OrderedDict
from types import FunctionType

from .codegen import _MISSING, build_program, capture, design_fingerprint
from .kernel import Kernel, SimulationError, _process_order
from .process import WaitRequest
from .runtime import ops
from .vhdlio import AssertionFailure

#: Compiled :class:`~repro.sim.codegen.Program` objects by design
#: fingerprint.  Bounded so long fuzz sweeps cannot grow it without
#: limit; eviction is least-recently-used.
_PROGRAM_CACHE = OrderedDict()
_PROGRAM_CACHE_CAP = 256


def _noop(now, step):
    """Init stand-in for wait-first processes: the generic generator
    executes nothing before its first suspension."""


def _fire_slot(sig, v, now, step):
    """Slot firing: exactly :meth:`Signal.update`'s stamp protocol,
    minus the driver machinery a slot no longer has."""
    sig.active_delta = step
    sig.transactions += 1
    if v != sig.value:
        sig.last_value = sig.value
        sig.value = v
        sig.event_delta = step
        sig.last_event_time = now
        sig.events += 1
        return True
    return False


class CompiledKernel(Kernel):
    """Event kernel executing per-design specialized code.

    Construct like :class:`Kernel`, elaborate the design against it,
    then call :meth:`compile_design` with the elaborator's records
    *before* the first cycle.  Without that call it degrades to the
    plain activity kernel (every structure below stays empty).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.program = None
        self.codegen_seconds = 0.0  # specialization wall-clock
        self.compiled_procs = 0  # processes running as plain functions
        self.slot_signals = 0  # signals with slot (NT, NV) storage
        self.levelized_evals = 0  # slot firings (calendar bypassed)
        self._c_resume = {}  # Process.index -> resume fn
        self._c_pure = {}  # subset: resume fns with no rt access
        self._c_init = {}  # Process.index -> init fn (resume or noop)
        self._fast_dispatch = None  # Signal.index -> (order, proc, fn)
        self._static_waiters = {}  # Signal.index -> set of Processes
        self._t_cell = [0, 0]  # [now, step] cell for condition fns
        self._vals = []  # V: current values by Signal.index
        self._nt = []  # NT: slot next-transaction time (-1 = none)
        self._nv = []  # NV: slot next value
        self._due = []  # due-now slot indices (this timestep)
        self._slot_heap = []  # future slot times (distinct)
        self._slot_buckets = {}  # time -> [slot indices]

    # -- specialization ----------------------------------------------------

    def compile_design(self, records, graph=None):
        """Specialize this elaborated design; returns the Program.

        ``graph`` is an optional pre-built
        :class:`~repro.analysis.netlist.DesignGraph` (the ``--analyze``
        pre-flight builds one; threading it through here avoids a
        second netlist extraction).
        """
        if self._initialized:
            raise SimulationError(
                "compile_design must run before the first cycle")
        t0 = _time.perf_counter()
        # One parse per unit model, shared by the netlist extraction
        # and codegen; the trees go with this call.
        trees = {}
        if graph is None:
            from ..analysis.netlist import build_netlist

            graph = build_netlist(records, trees=trees)
        from ..analysis.dataflow import levelize

        _levels, _order, cyclic = levelize(graph)
        fingerprint = design_fingerprint(records, self)
        program = _PROGRAM_CACHE.get(fingerprint)
        if program is None:
            program = build_program(self, records, graph, cyclic,
                                    trees)
            _PROGRAM_CACHE[fingerprint] = program
            while len(_PROGRAM_CACHE) > _PROGRAM_CACHE_CAP:
                _PROGRAM_CACHE.popitem(last=False)
        else:
            _PROGRAM_CACHE.move_to_end(fingerprint)
        self._bind(program)
        self.codegen_seconds += _time.perf_counter() - t0
        return program

    def _bind(self, program):
        """Instantiate a (possibly cached) Program against *this*
        elaboration: exec the template module once, make each
        instance's functions from its template's code object with the
        instance's signal indices and re-captured environment values
        (generics change values, never source) as defaults, install
        permanent waits and static fanout."""
        self.program = program
        n = len(self.signals)
        values = [sig.value for sig in self.signals]
        nt = [-1] * n
        nv = [None] * n
        due = []
        buckets = {}
        slot_heap = []
        namespace = {
            "V": values, "NV": nv, "NT": nt, "SIG": self.signals,
            "T": self._t_cell, "_DUE": due, "_B": buckets,
            "_H": slot_heap, "_hpush": heapq.heappush,
            "rt": self.rt, "ops": ops,
        }
        exec(program.code, namespace)
        by_index = {proc.index: proc for proc in self.processes}
        cmap = {}
        pure_map = {}
        init_map = {}
        static = self._static_waiters
        for plan in program.plans.values():
            proc = by_index.get(plan.proc_index)
            if proc is None or proc.fn is None:
                raise SimulationError(
                    "compiled program does not match this elaboration")
            args = list(plan.args)
            for name in plan.env:
                value = capture(proc.fn, name)
                if value is _MISSING:
                    raise SimulationError(
                        "cannot re-capture %r for process %r"
                        % (name, proc.name))
                args.append(value)
            args = tuple(args)
            fn = FunctionType(namespace[plan.resume].__code__,
                              namespace, plan.resume, args)
            cmap[plan.proc_index] = fn
            if plan.pure:
                pure_map[plan.proc_index] = fn
            init_map[plan.proc_index] = (
                fn if plan.init_runs_body else _noop)
            cond = None
            if plan.cond:
                cond = FunctionType(namespace[plan.cond].__code__,
                                    namespace, plan.cond, args)
            wait_sigs = [self.signals[i] for i in plan.wait_indices]
            # The permanent wait: compiled processes always loop back
            # to the same suspension, so it is installed once and the
            # fanout registration becomes a static table.
            proc.wait = WaitRequest(wait_sigs, cond, None)
            for i in plan.wait_indices:
                static.setdefault(i, set()).add(proc)
        self._c_resume = cmap
        self._c_pure = pure_map
        self._c_init = init_map
        # The per-signal dispatch table: when EVERY process compiled
        # pure with no condition and a single-signal permanent wait,
        # a fired slot maps straight to its (order, proc, fn) rows —
        # phase 3 becomes merge-by-order + call, with no candidate
        # set, no wait/cond/done re-checks (pure processes cannot
        # terminate, re-wait, or grow dynamic waiters).
        fast = None
        if all(p.index in cmap for p in self.processes):
            rows = {}
            for plan in program.plans.values():
                if not plan.pure or plan.cond is not None \
                        or len(plan.wait_indices) != 1:
                    rows = None
                    break
                proc = by_index[plan.proc_index]
                rows.setdefault(plan.wait_indices[0], []).append(
                    (proc.index, proc, cmap[plan.proc_index]))
            if rows is not None:
                for lst in rows.values():
                    lst.sort()
                fast = rows
        self._fast_dispatch = fast
        self._vals = values
        self._nt = nt
        self._nv = nv
        self._due = due
        self._slot_buckets = buckets
        self._slot_heap = slot_heap
        self.compiled_procs = len(program.plans)
        self.slot_signals = len(program.slot_indices)

    # -- scheduling --------------------------------------------------------

    def _slot_peek(self):
        """Earliest pending slot time (lazy deletion, like the
        calendar: a heap time is live while some bucketed slot still
        has its next-transaction time there)."""
        heap = self._slot_heap
        buckets = self._slot_buckets
        nt = self._nt
        while heap:
            t = heap[0]
            bucket = buckets.get(t)
            if bucket is not None and any(nt[i] == t for i in bucket):
                return t if t >= self.now else self.now
            heapq.heappop(heap)
            if bucket is not None:
                del buckets[t]
        return None

    def _peek_time(self):
        due = self._due
        if due:
            nt = self._nt
            now = self.now
            if any(nt[i] == now for i in due):
                return now
            # Every due-now entry was preempted by a later delayed
            # assignment; drop them (their times live in the buckets).
            del due[:]
        tc = Kernel._peek_time(self)
        ts = self._slot_peek()
        if tc is None:
            return ts
        if ts is None:
            return tc
        return tc if tc <= ts else ts

    def _pop_slots(self, tn):
        """Slot half of phase 1: due-now buffer plus due buckets →
        list of firing slot indices (each marked consumed)."""
        fired = []
        nt = self._nt
        due = self._due
        if due:
            for i in due:
                if nt[i] == tn:
                    nt[i] = -1
                    fired.append(i)
            del due[:]
        heap = self._slot_heap
        buckets = self._slot_buckets
        while heap and heap[0] <= tn:
            t = heapq.heappop(heap)
            bucket = buckets.pop(t, None)
            if bucket:
                for i in bucket:
                    if nt[i] == t:
                        nt[i] = -1
                        fired.append(i)
        return fired

    # -- execution ---------------------------------------------------------

    def initialize(self):
        """Initialization phase: compiled processes whose generic
        form runs its body before the first wait run it here; pure
        wait-first ones count the resume without executing (exactly
        what resuming the generator to its first yield did)."""
        if self._initialized:
            return
        cmap = self._c_resume
        if not cmap:
            Kernel.initialize(self)
            return
        self._initialized = True
        if self._traced and self._trace_ctx is None:
            from ..trace.context import current_context

            self._trace_ctx = current_context()
        self.step = 0
        cell = self._t_cell
        cell[0] = self.now
        cell[1] = 0
        init_map = self._c_init
        for proc in list(self.processes):
            fn = init_map.get(proc.index)
            if fn is None:
                self._execute(proc)
            else:
                self._run_compiled(proc, fn, self.now, 0)

    def _run_compiled(self, proc, fn, now, step):
        """Dispatch one compiled process: the exact bookkeeping of
        :meth:`Kernel._execute` around a plain function call."""
        self.current_process = proc
        proc.resumes += 1
        self._m_resumes.inc()
        rec = False
        if self._traced:
            self._trace_resumes = n = self._trace_resumes + 1
            rec = (n - 1) % self.trace_sample == 0
        ts_us = _time.time() * 1e6 if rec else 0.0
        t0 = _time.perf_counter() if (self._timed or rec) else 0.0
        try:
            fn(now, step)
        except AssertionFailure:
            proc.done = True
            raise
        finally:
            if self._timed or rec:
                dt = _time.perf_counter() - t0
                if self._timed:
                    proc.exec_seconds += dt
                if rec:
                    self._trace_span("process_resume", ts_us, dt * 1e6,
                                     process=proc.name)
            self.current_process = None

    def _cycle(self, tn):
        cmap = self._c_resume
        if not cmap:
            Kernel._cycle(self, tn)
            return
        self.now = now = tn
        self.step = step = self.step + 1
        cell = self._t_cell
        cell[0] = now
        cell[1] = step
        self.cycles += 1
        self._m_cycles.inc()

        pending, expired = self._pop_due(tn)
        slot_due = self._pop_slots(tn)

        # The fast lane: every process compiled pure with a
        # single-signal permanent wait (so no dynamic waiters, no
        # conditions, no terminations are possible) and nothing but
        # slots fired.  Phase 2 stamps the signals and gathers
        # pre-sorted (order, proc, fn) rows straight from the
        # per-signal dispatch table; phase 3 is merge-by-order + call.
        fast = self._fast_dispatch
        if fast is not None and slot_due and not pending \
                and not expired and not (self._timed or self._traced):
            self.levelized_evals += len(slot_due)
            values = self._vals
            nv = self._nv
            signals = self.signals
            fast_get = fast.get
            fired = []
            extend = fired.extend
            fanout = 0
            slot_due.sort()
            for idx in slot_due:
                sig = signals[idx]
                sig.active_delta = step
                sig.transactions += 1
                v = nv[idx]
                if v != sig.value:
                    sig.last_value = sig.value
                    sig.value = v
                    sig.event_delta = step
                    sig.last_event_time = now
                    sig.events += 1
                    values[idx] = v
                    rows = fast_get(idx)
                    if rows:
                        fanout += len(rows)
                        extend(rows)
            if fanout:
                self.fanout_visits += fanout
            for tracer in self.tracers:
                tracer.on_cycle(now, step)
            fired.sort()
            inc = self._m_resumes.inc
            for _order, proc, fn in fired:
                proc.resumes += 1
                inc()
                fn(now, step)
            return

        # Phase 2, merged: calendar-managed updates and slot firings
        # interleave in Signal.index order; both reach waiting
        # processes through the dynamic fanout index (generic
        # processes) and the static tables (compiled ones).
        event_procs = set()
        if slot_due and not pending:
            # Hot path — only slots fired (a fully specialized
            # design): :func:`_fire_slot` is inlined.
            self.levelized_evals += len(slot_due)
            values = self._vals
            nv = self._nv
            signals = self.signals
            static_get = self._static_waiters.get
            collect = event_procs.update
            fanout = 0
            slot_due.sort()
            for idx in slot_due:
                sig = signals[idx]
                sig.active_delta = step
                sig.transactions += 1
                v = nv[idx]
                if v != sig.value:
                    sig.last_value = sig.value
                    sig.value = v
                    sig.event_delta = step
                    sig.last_event_time = now
                    sig.events += 1
                    values[idx] = v
                    waiters = sig.waiters
                    if waiters:
                        fanout += len(waiters)
                        collect(waiters)
                    sw = static_get(idx)
                    if sw:
                        fanout += len(sw)
                        collect(sw)
            if fanout:
                self.fanout_visits += fanout
        elif pending or slot_due:
            values = self._vals
            nv = self._nv
            static = self._static_waiters
            fanout = 0
            items = [(sig.index, sig, False) for sig in pending]
            if slot_due:
                self.levelized_evals += len(slot_due)
                signals = self.signals
                items.extend((i, signals[i], True) for i in slot_due)
            items.sort()
            for idx, sig, is_slot in items:
                if is_slot:
                    changed = _fire_slot(sig, nv[idx], now, step)
                else:
                    changed = sig.update(now, step)
                if changed:
                    values[idx] = sig.value
                    waiters = sig.waiters
                    if waiters:
                        fanout += len(waiters)
                        event_procs.update(waiters)
                    sw = static.get(idx)
                    if sw:
                        fanout += len(sw)
                        event_procs.update(sw)
            if fanout:
                self.fanout_visits += fanout

        for tracer in self.tracers:
            tracer.on_cycle(now, step)

        # Phase 3: identical selection and order to the generic
        # kernel; compiled processes keep their permanent wait and
        # static fanout registration.  Selection and dispatch fuse
        # into one pass: process execution cannot change *current*
        # signal values (assignments only schedule), so a later
        # candidate's condition reads the same state either way.
        if event_procs and not expired:
            hot = not (self._timed or self._traced)
            m_resumes_inc = self._m_resumes.inc
            pure_get = self._c_pure.get
            cmap_get = cmap.get
            for proc in sorted(event_procs, key=_process_order):
                if proc.done:
                    continue
                w = proc.wait
                if w is None:
                    continue
                cond = w.condition
                if cond is not None and not cond():
                    continue
                if hot:
                    fn = pure_get(proc.index)
                    if fn is not None:
                        # Pure resume: only slot storage and ``ops``
                        # arithmetic — nothing it can reach reads
                        # ``current_process`` or raises an assertion.
                        proc.resumes += 1
                        m_resumes_inc()
                        fn(now, step)
                        continue
                fn = cmap_get(proc.index)
                if fn is None:
                    for sig in w.signals:
                        sig.waiters.discard(proc)
                    proc.wait = None
                    proc.timeout_at = None
                    self._execute(proc)
                else:
                    self._run_compiled(proc, fn, now, step)
        elif expired:
            resumed = []
            for proc in sorted(expired | event_procs,
                               key=_process_order):
                if proc.done:
                    continue
                w = proc.wait
                if w is None:
                    continue
                if proc in expired:
                    resumed.append(proc)
                    continue
                cond = w.condition
                if cond is None or cond():
                    resumed.append(proc)
            cmap_get = cmap.get
            for proc in resumed:
                if proc.index in cmap:
                    continue
                w = proc.wait
                if w is not None:
                    for sig in w.signals:
                        sig.waiters.discard(proc)
                proc.wait = None
                proc.timeout_at = None
            for proc in resumed:
                fn = cmap_get(proc.index)
                if fn is None:
                    self._execute(proc)
                else:
                    self._run_compiled(proc, fn, now, step)

    def _note_truncation(self, until, next_time):
        """Parent accounting plus the slot projections a stopped run
        abandons (every pending slot time is beyond ``until``: it was
        at or after the next-activity time that triggered the stop)."""
        pending = sum(
            len(driver.waveform)
            for sig in self.signals
            for driver in sig.drivers.values()
        )
        pending += sum(
            1 for proc in self.processes
            if not proc.done and proc.wait is not None
            and proc.timeout_at is not None and proc.timeout_at > until
        )
        pending += sum(1 for t in self._nt if t != -1)
        if not pending:
            return
        self.truncated_transactions += pending
        self._m_truncated.set(self.truncated_transactions)
        from .kernel import _KERNEL_ORIGIN
        from . import format_fs

        self.logger.report(
            "note",
            "simulation truncated at %s: %d pending transaction(s)/"
            "timeout(s) beyond the stop time (next activity at %s)"
            % (format_fs(until), pending, format_fs(next_time)),
            until, _KERNEL_ORIGIN, fail=False)
