"""Per-design specialization: flow-graph code for the compiled backend.

The source paper's pipeline ends in generated C compiled by the host
compiler; this module is the reproduction's equivalent of that last
mile.  Given the elaborator's records and their
:class:`~repro.analysis.netlist.DesignGraph`, it walks each generated
model's ``py_source`` (parsed once per unit, shared with the netlist
extraction), classifies every process, and renders **one template per
process shape** — the body with every free name replaced by its role
— into one small module per design:

- **canonical processes** — a single ``yield rt.wait(...)`` as the
  first or last statement of the ``while True`` loop, no persistent
  locals — become plain functions called directly by the
  :class:`~repro.sim.compiled.CompiledKernel` dispatch loop, with
  ``rt.read(sig)`` rewritten to a flat-list subscript ``V[_s0]``
  (current values indexed by ``Signal.index``, the index a template
  parameter) and signal attributes
  (``'EVENT``/``'ACTIVE``/``'LAST_VALUE``) to direct stamp compares;
- **slot-managed signals** — driven by exactly one canonical process,
  unresolved, off the cyclic quarantine, and only ever assigned
  single-element inertial (or zero-delay transport) waveforms — drop
  their ``Driver`` objects entirely: the projection collapses to a
  ``(next_time NT[i], next_value NV[i])`` slot pair, zero-delay
  assignments append to a due-now buffer that bypasses the heapq
  event calendar, and delayed assignments go to per-time buckets;
- everything else — multiple waits, wait timeouts, persistent VHDL
  variables, resolved/multi-driver targets, transport delays, helper
  calls that may assign, cyclic-quarantine membership — **falls back**
  to the untouched generic generator/`RT`/calendar path, interleaved
  with compiled processes in registration-index order so semantics
  stay byte-identical to the activity kernel.

A template's parameters are its signal indices (``_s<k>``) and its
captured environment values (``_e_<name>``); each instance's
:class:`ProcPlan` carries the indices and the names to re-capture, and
the kernel binds them as function defaults, so codegen cost follows
the number of distinct shapes, not the number of instances.  The
module is pure: it depends only on the design's ``py_source`` texts
and slot classification, never on elaboration-time values
(generic-folded constants are captured from each process function's
closure at *bind* time), so the compiled code object is cached by
design fingerprint across elaborations.
"""

import ast
import copy
import hashlib
import types

from .signals import Signal

#: Rejection-reason keys reported in :attr:`Program.stats`.
REASONS = (
    "shape", "wait", "locals", "names", "construct", "cyclic",
)


class Reject(Exception):
    """This process cannot be specialized; keep it generic."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class ProcPlan:
    """How one compiled process binds to its template.

    Signal indices and captured environment names are per-instance
    data: :meth:`~repro.sim.compiled.CompiledKernel._bind` passes them
    as the template function's defaults, so instances of one shape
    share one code object.
    """

    __slots__ = ("proc_index", "resume", "cond", "init_runs_body",
                 "wait_indices", "args", "env", "pure")

    def __init__(self, proc_index, resume, cond, init_runs_body,
                 wait_indices, args, env, pure=False):
        self.proc_index = proc_index
        self.resume = resume  # template resume-function name
        self.cond = cond  # template condition-function name or None
        self.init_runs_body = init_runs_body
        self.wait_indices = list(wait_indices)
        self.args = tuple(args)  # Signal.index per ``_s<k>`` parameter
        self.env = env  # free names re-captured per ``_e_<name>``
        #: ``pure`` resume functions touch only slot storage and
        #: ``ops`` arithmetic — no ``rt`` access, no captured helper
        #: calls — so the kernel may dispatch them without the
        #: ``current_process`` / AssertionFailure bookkeeping (nothing
        #: they can reach reads either).
        self.pure = pure


class Program:
    """One design's template module: source, code, bind metadata."""

    __slots__ = ("fingerprint", "source", "code", "plans",
                 "slot_indices", "stats")

    def __init__(self, fingerprint, source, code, plans, slot_indices,
                 stats):
        self.fingerprint = fingerprint
        self.source = source
        self.code = code
        self.plans = plans  # Process.index -> ProcPlan
        self.slot_indices = frozenset(slot_indices)
        self.stats = dict(stats)


def design_fingerprint(records, kernel):
    """Cache key: the py_sources plus the elaborated topology.

    Generic *values* are excluded on purpose — they are captured from
    process closures at bind time, so two elaborations of the same
    entity with different generics share one compiled module.
    """
    h = hashlib.sha256()
    for record in records:
        h.update(record.path.encode())
        h.update(b"\0")
        h.update(record.kind.encode())
        h.update(b"\0")
        h.update(getattr(record.node, "py_source", "").encode())
        h.update(b"\0")
    h.update(("#%d/%d" % (len(kernel.signals),
                          len(kernel.processes))).encode())
    return h.hexdigest()


# -- environment capture -------------------------------------------------------

_MISSING = object()


def capture(fn, name):
    """The runtime value ``name`` has inside ``fn`` (closure, then
    module globals), or ``_MISSING``."""
    code = fn.__code__
    if name in code.co_freevars and fn.__closure__ is not None:
        cell = fn.__closure__[code.co_freevars.index(name)]
        try:
            return cell.cell_contents
        except ValueError:
            return _MISSING
    return fn.__globals__.get(name, _MISSING)


def _helper_may_assign(value, seen=None):
    """Could calling this captured object schedule a transaction?

    Captured helper functions (VHDL subprograms, guard closures) are
    opaque to the netlist's per-process facts, so a helper whose code
    mentions ``assign`` makes static drive information incomplete.
    Scans the code object and its nested consts, transitively through
    function-valued free variables.
    """
    if not isinstance(value, types.FunctionType):
        return False
    if seen is None:
        seen = set()
    if value in seen:
        return False
    seen.add(value)
    stack = [value.__code__]
    while stack:
        code = stack.pop()
        if "assign" in code.co_names or "assign" in code.co_freevars:
            return True
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    if value.__closure__ is not None:
        for cell in value.__closure__:
            try:
                inner = cell.cell_contents
            except ValueError:
                continue
            if _helper_may_assign(inner, seen):
                return True
    return False


# -- process analysis ----------------------------------------------------------


class SiteInfo:
    """One static ``rt.assign`` site found in a canonical process."""

    __slots__ = ("signal", "n_elems", "transport", "zero_literal")

    def __init__(self, signal, n_elems, transport, zero_literal):
        self.signal = signal
        self.n_elems = n_elems
        self.transport = transport
        self.zero_literal = zero_literal


class Analysis:
    """A canonical process, decomposed and environment-resolved."""

    __slots__ = ("proc", "funcdef", "body", "init_runs_body",
                 "wait_signals", "cond_lambda", "sites",
                 "helper_risk")

    def __init__(self, proc, funcdef, body, init_runs_body,
                 wait_signals, cond_lambda, sites, helper_risk):
        self.proc = proc
        self.funcdef = funcdef
        self.body = body
        self.init_runs_body = init_runs_body
        self.wait_signals = wait_signals
        self.cond_lambda = cond_lambda
        self.sites = sites
        self.helper_risk = helper_risk


def _is_const(node, value):
    return isinstance(node, ast.Constant) and node.value is value


def _rt_call(node, attr=None):
    """Is ``node`` a ``rt.<attr>(...)`` call?  Returns the attr."""
    if not isinstance(node, ast.Call):
        return None
    fn = node.func
    if (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
            and fn.value.id == "rt"):
        if attr is None or fn.attr == attr:
            return fn.attr
    return None


def _signal_of(env_fn, name, kernel):
    value = capture(env_fn, name)
    if isinstance(value, Signal) and value.kernel is kernel:
        return value
    return None


def analyze_process(proc, funcdef, kernel):
    """Classify one process; returns :class:`Analysis` or raises
    :class:`Reject`."""
    fn = proc.fn
    if fn is None:
        raise Reject("shape")
    body = funcdef.body
    # No statements before the loop: leading statements are VHDL
    # process *variables* — persistent generator-frame state the
    # plain-function rendering cannot carry.
    if len(body) != 1 or not isinstance(body[0], ast.While):
        raise Reject("shape")
    loop = body[0]
    if not _is_const(loop.test, True):
        raise Reject("shape")
    stmts = list(loop.body)
    if not stmts:
        raise Reject("shape")

    yields = [n for n in ast.walk(loop) if isinstance(n, ast.Yield)]
    if len(yields) != 1:
        raise Reject("wait")

    def _is_wait_stmt(stmt):
        return (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Yield)
                and _rt_call(stmt.value.value, "wait") is not None)

    if _is_wait_stmt(stmts[0]):
        wait_stmt, rest, init_runs_body = stmts[0], stmts[1:], False
    elif _is_wait_stmt(stmts[-1]):
        wait_stmt, rest, init_runs_body = stmts[-1], stmts[:-1], True
    else:
        raise Reject("wait")

    wait_call = wait_stmt.value.value
    args = list(wait_call.args)
    if wait_call.keywords or len(args) != 3:
        raise Reject("wait")
    sig_list, cond, timeout = args
    if not _is_const(timeout, None):
        raise Reject("wait")  # timed waits stay on the calendar
    if not isinstance(sig_list, ast.List):
        raise Reject("wait")
    wait_signals = []
    for elt in sig_list.elts:
        if not isinstance(elt, ast.Name):
            raise Reject("wait")
        sig = _signal_of(fn, elt.id, kernel)
        if sig is None:
            raise Reject("wait")
        wait_signals.append(sig)
    if _is_const(cond, None):
        cond_lambda = None
    elif isinstance(cond, ast.Lambda) and not cond.args.args \
            and not cond.args.posonlyargs and not cond.args.kwonlyargs:
        cond_lambda = cond
    else:
        raise Reject("wait")

    # Collect every static assign site; a target that does not resolve
    # to a signal of this kernel, or a non-literal waveform, defeats
    # the analysis.
    sites = []
    helper_risk = False
    for node in rest:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                attr = _rt_call(sub)
                if attr == "assign":
                    sites.append(_site_of(sub, fn, kernel))
                elif attr is None and not _ops_call(sub):
                    # A call into something that is neither rt nor
                    # ops: if the callee may assign, static drive
                    # facts are incomplete for the whole design.
                    helper_risk = helper_risk or _call_risk(sub, fn)
    return Analysis(proc, funcdef, rest, init_runs_body, wait_signals,
                    cond_lambda, sites, helper_risk)


def _ops_call(node):
    fn = node.func
    return (isinstance(fn, ast.Attribute)
            and isinstance(fn.value, ast.Name) and fn.value.id == "ops")


def _call_risk(node, env_fn):
    """Does this non-rt/ops call reach code that may assign?"""
    fn = node.func
    if isinstance(fn, ast.Name):
        value = capture(env_fn, fn.id)
        if value is _MISSING:
            return True  # unknown callee: assume the worst
        return _helper_may_assign(value)
    return True


def _site_of(call, env_fn, kernel):
    name, n_elems, transport, zero_literal = _assign_shape(call)
    sig = _signal_of(env_fn, name, kernel)
    if sig is None:
        raise Reject("names")
    return SiteInfo(sig, n_elems, transport, zero_literal)


def _assign_shape(call):
    """An ``rt.assign`` call's target name, waveform length, transport
    flag and whether its first delay is a literal zero."""
    args = list(call.args)
    if len(args) < 2 or not isinstance(args[0], ast.Name):
        raise Reject("names")
    waveform = args[1]
    if not isinstance(waveform, ast.Tuple) or not waveform.elts:
        raise Reject("names")
    for elem in waveform.elts:
        if not isinstance(elem, ast.Tuple) or len(elem.elts) != 2:
            raise Reject("names")
    transport = False
    for kw in call.keywords:
        if kw.arg == "transport":
            if not isinstance(kw.value, ast.Constant):
                raise Reject("names")
            transport = bool(kw.value.value)
        else:
            raise Reject("names")
    if len(args) > 2:
        if len(args) != 3 or not isinstance(args[2], ast.Constant):
            raise Reject("names")
        transport = bool(args[2].value)
    first_delay = waveform.elts[0].elts[1]
    return (args[0].id, len(waveform.elts), transport,
            _is_const_zero(first_delay))


def _is_const_zero(node):
    return isinstance(node, ast.Constant) and node.value == 0


# -- expression / statement rewriting ------------------------------------------

#: Expression node types the rewriter knows are side-effect free.
_ALLOWED = (
    ast.Expression, ast.Constant, ast.Tuple, ast.List, ast.Dict,
    ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare, ast.IfExp,
    ast.Call, ast.Attribute, ast.Name, ast.Subscript, ast.Slice,
    ast.keyword, ast.Load, ast.Store,
    ast.And, ast.Or, ast.Not, ast.Invert, ast.UAdd, ast.USub,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod,
    ast.Pow, ast.LShift, ast.RShift, ast.BitAnd, ast.BitOr,
    ast.BitXor, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
    ast.Is, ast.IsNot, ast.In, ast.NotIn, ast.JoinedStr,
    ast.FormattedValue,
)


def _expr_src(src):
    return ast.parse(src, mode="eval").body


class _Rewriter(ast.NodeTransformer):
    """Rewrites one expression tree into specialized form."""

    def __init__(self, binder, defined):
        self.binder = binder
        self.defined = defined

    # -- names ---------------------------------------------------------

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Store):
            return node  # statement level already recorded the local
        name = node.id
        if name in self.defined:
            return node
        return self.binder.name_load(name)

    def visit_Attribute(self, node):
        if (isinstance(node.value, ast.Name)
                and node.value.id == "rt" and node.attr == "now"
                and "rt" not in self.defined):
            self.binder.check_rt()
            self.binder.uses_now = True
            return ast.Name(id="now", ctx=ast.Load())
        return self.generic_visit(node)

    def visit_Call(self, node):
        attr = None
        if (isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id not in self.defined):
            base = node.func.value.id
            if base == "rt":
                attr = node.func.attr
        if attr is not None:
            binder = self.binder
            binder.check_rt()
            if attr == "read":
                return _expr_src("V[%s]" % self._sig_arg(node))
            if attr == "event":
                binder.uses_step = True
                return _expr_src(
                    "1 if SIG[%s].event_delta == step else 0"
                    % self._sig_arg(node))
            if attr == "active":
                binder.uses_step = True
                return _expr_src(
                    "1 if SIG[%s].active_delta == step else 0"
                    % self._sig_arg(node))
            if attr == "last_value":
                return _expr_src("SIG[%s].last_value"
                                 % self._sig_arg(node))
            if attr in ("assert_", "check"):
                return ast.Call(
                    func=node.func,
                    args=[self.visit(a) for a in node.args],
                    keywords=[ast.keyword(arg=k.arg,
                                          value=self.visit(k.value))
                              for k in node.keywords])
            # assign in value position, nested wait, anything else
            raise Reject("construct")
        return self.generic_visit(node)

    def _sig_arg(self, node):
        if len(node.args) != 1 or node.keywords \
                or not isinstance(node.args[0], ast.Name):
            raise Reject("names")
        param = self.binder.signal(node.args[0].id)
        if param is None:
            raise Reject("names")
        return param

    # -- rejection wall ------------------------------------------------

    def generic_visit(self, node):
        if not isinstance(node, _ALLOWED):
            raise Reject("construct")
        return super().generic_visit(node)


class _Binder:
    """Name resolution for one template, from its shape's roles."""

    def __init__(self, shape):
        self.roles = shape.roles
        self.rt_ok = shape.rt_ok
        self.env = []  # captured free names, in first-use order
        self.uses_now = False
        self.uses_step = False

    def signal(self, name):
        """The ``_s<k>`` parameter a signal name became, else None."""
        return name if self.roles.get(name) in ("s", "S") else None

    def is_slot(self, param):
        return self.roles[param] == "S"

    def check_rt(self):
        if not self.rt_ok:
            raise Reject("names")

    def name_load(self, name):
        role = self.roles.get(name, "?")
        if role in ("?", "s", "S", "x"):
            # Missing, or a bare signal outside rt.*/wait.
            raise Reject("names")
        if role == "r":
            self.check_rt()
            return ast.Name(id="rt", ctx=ast.Load())
        if role == "o":
            return ast.Name(id="ops", ctx=ast.Load())
        if name not in self.env:
            self.env.append(name)
        return ast.Name(id="_e_" + name, ctx=ast.Load())


def _rewrite_stmts(stmts, binder, defined, depth=0):
    """Transform a statement list; raises :class:`Reject` on any
    construct the specializer does not model."""
    out = []
    for stmt in stmts:
        if isinstance(stmt, ast.Expr):
            call = stmt.value
            if _rt_call(call, "assign") is not None \
                    and "rt" not in defined:
                out.extend(_rewrite_assign(call, binder, defined))
                continue
            tx = _Rewriter(binder, defined)
            out.append(ast.Expr(value=tx.visit(call)))
        elif isinstance(stmt, ast.Assign):
            if len(stmt.targets) != 1 \
                    or not isinstance(stmt.targets[0], ast.Name):
                raise Reject("locals")
            tx = _Rewriter(binder, defined)
            value = tx.visit(stmt.value)
            defined.add(stmt.targets[0].id)
            out.append(ast.Assign(targets=stmt.targets, value=value))
        elif isinstance(stmt, ast.AugAssign):
            if not isinstance(stmt.target, ast.Name) \
                    or stmt.target.id not in defined:
                raise Reject("locals")
            tx = _Rewriter(binder, defined)
            out.append(ast.AugAssign(target=stmt.target, op=stmt.op,
                                     value=tx.visit(stmt.value)))
        elif isinstance(stmt, ast.If):
            tx = _Rewriter(binder, defined)
            test = tx.visit(stmt.test)
            body = _rewrite_stmts(stmt.body, binder, set(defined),
                                  depth)
            orelse = _rewrite_stmts(stmt.orelse, binder, set(defined),
                                    depth)
            out.append(ast.If(test=test, body=body or [ast.Pass()],
                              orelse=orelse))
        elif isinstance(stmt, ast.For):
            if not isinstance(stmt.target, ast.Name) or stmt.orelse:
                raise Reject("locals")
            tx = _Rewriter(binder, defined)
            it = tx.visit(stmt.iter)
            inner = set(defined)
            inner.add(stmt.target.id)
            body = _rewrite_stmts(stmt.body, binder, inner, depth + 1)
            out.append(ast.For(target=stmt.target, iter=it,
                               body=body or [ast.Pass()], orelse=[]))
        elif isinstance(stmt, ast.While):
            if stmt.orelse:
                raise Reject("construct")
            tx = _Rewriter(binder, defined)
            test = tx.visit(stmt.test)
            body = _rewrite_stmts(stmt.body, binder, set(defined),
                                  depth + 1)
            out.append(ast.While(test=test, body=body or [ast.Pass()],
                                 orelse=[]))
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if depth == 0:
                raise Reject("construct")  # would skip the wait
            out.append(stmt)
        elif isinstance(stmt, ast.Pass):
            out.append(stmt)
        else:
            raise Reject("construct")
    return out


def _rewrite_assign(call, binder, defined):
    """One ``rt.assign`` statement → slot write or generic fallback."""
    binder.check_rt()
    name, _n_elems, transport, _zero = _assign_shape(call)
    sig = binder.signal(name)
    if sig is None:
        raise Reject("names")
    tx = _Rewriter(binder, defined)
    waveform = call.args[1]
    if binder.is_slot(sig):
        binder.uses_now = True
        elem = waveform.elts[0]
        value = tx.visit(elem.elts[0])
        if _is_const_zero(elem.elts[1]):
            # Zero delay, inertial (or transport — identical when
            # nothing can precede ``now``): overwrite the slot and
            # mark it due this timestep, once.
            assign = ast.parse(
                "NV[{0}] = 0\n"
                "if NT[{0}] != now:\n"
                "    NT[{0}] = now\n"
                "    _DUE.append({0})\n".format(sig)).body
            assign[0].value = value
            return assign
        delay = elem.elts[1]
        if isinstance(delay, ast.Constant) \
                and isinstance(delay.value, int) and delay.value > 0:
            # Literal positive delay (the overwhelmingly common
            # ``after <time literal>`` form): the whole ``_sched``
            # body inlines with the target time folded.
            assign = ast.parse(
                "NV[{0}] = 0\n"
                "_t = now + {1}\n"
                "if NT[{0}] != _t:\n"
                "    NT[{0}] = _t\n"
                "    _b = _B.get(_t)\n"
                "    if _b is None:\n"
                "        _B[_t] = [{0}]\n"
                "        _hpush(_H, _t)\n"
                "    else:\n"
                "        _b.append({0})\n".format(sig, delay.value)).body
            assign[0].value = value
            return assign
        sched = _expr_src("_sched(%s, 0, 0, now)" % sig)
        sched.args[1] = value
        sched.args[2] = tx.visit(delay)
        return [ast.Expr(value=sched)]
    # Calendar-managed target: full generic semantics through rt,
    # with the inner expressions still specialized.
    elems = []
    for elem in waveform.elts:
        elems.append(ast.Tuple(
            elts=[tx.visit(elem.elts[0]), tx.visit(elem.elts[1])],
            ctx=ast.Load()))
    new_call = _expr_src("rt.assign(SIG[%s], None, transport=%s)"
                         % (sig, bool(transport)))
    new_call.args[1] = ast.Tuple(elts=elems, ctx=ast.Load())
    return [ast.Expr(value=new_call)]


# -- module rendering ----------------------------------------------------------

_SCHED_SRC = '''\
def _sched(i, v, d, now):
    """Delayed single-slot assignment (inertial wipe semantics)."""
    NV[i] = v
    t = now + d if d > 0 else now
    if t <= now:
        if NT[i] != now:
            NT[i] = now
            _DUE.append(i)
    else:
        NT[i] = t
        b = _B.get(t)
        if b is None:
            _B[t] = [i]
            _hpush(_H, t)
        else:
            b.append(i)
'''


def _def(name, args, body):
    return ast.FunctionDef(
        name=name,
        args=ast.arguments(
            posonlyargs=[], args=[ast.arg(arg=a) for a in args],
            kwonlyargs=[], kw_defaults=[], defaults=[]),
        body=body or [ast.Pass()],
        decorator_list=[])


def build_program(kernel, records, graph, cyclic, trees=None):
    """Analyze, classify, and render one design's template module.

    ``cyclic`` is the levelization quarantine (NetSignals); ``trees``
    an optional :func:`~repro.analysis.facts.unit_tree` memo shared
    with the netlist extraction.  Returns a :class:`Program`;
    processes and signals that cannot be specialized simply stay
    generic — the result is always safe to bind.
    """
    stats = {"procs": len(kernel.processes), "compiled": 0,
             "templates": 0, "slots": 0, "generic": 0}
    for reason in REASONS:
        stats.setdefault("reject_%s" % reason, 0)

    proc_defs = _collect_funcdefs(records, trees)
    cyclic_sigs = {ns.signal for ns in cyclic}

    # Pass A: canonical-shape analysis.
    analyses = {}
    helper_risk = False
    for proc in kernel.processes:
        funcdef = proc_defs.get(proc)
        if funcdef is None:
            stats["reject_shape"] += 1
            continue
        try:
            analysis = analyze_process(proc, funcdef, kernel)
        except Reject as rej:
            stats["reject_%s" % rej.reason] += 1
            continue
        if any(s in cyclic_sigs for s in analysis.wait_signals) or \
                any(site.signal in cyclic_sigs
                    for site in analysis.sites):
            # Quarantined cone: stay on the calendar.
            stats["reject_cyclic"] += 1
            continue
        helper_risk = helper_risk or analysis.helper_risk
        analyses[proc] = analysis

    # Pass B: slot classification needs whole-design drive facts.
    slot_indices = _classify_slots(kernel, graph, analyses,
                                   cyclic_sigs, helper_risk)

    # Pass C: rewrite, one template per shape.  A rewrite-stage
    # rejection demotes the process (and un-slots its targets,
    # conservatively re-running until the fixpoint — in practice one
    # extra pass at most).
    while True:
        plans, defs, demoted = _render_all(kernel, analyses,
                                           slot_indices, stats)
        if not demoted:
            break
        for proc in demoted:
            del analyses[proc]
        slot_indices = _classify_slots(kernel, graph, analyses,
                                       cyclic_sigs, helper_risk)

    stats["compiled"] = len(plans)
    stats["templates"] = len({plan.resume for plan in plans.values()})
    stats["slots"] = len(slot_indices)
    stats["generic"] = len(kernel.processes) - len(plans)

    fingerprint = design_fingerprint(records, kernel)
    header = ("# Specialized flow-graph code (repro.sim.codegen)\n"
              "# design fingerprint: %s\n" % fingerprint)
    module = ast.Module(body=defs, type_ignores=[])
    ast.fix_missing_locations(module)
    source = header + _SCHED_SRC + "\n" + ast.unparse(module) + "\n"
    code = compile(source, "<repro-compiled:%s>" % fingerprint[:12],
                   "exec")
    return Program(fingerprint, source, code, plans, slot_indices,
                   stats)


def _collect_funcdefs(records, trees=None):
    """Map each kernel process to its generated-function AST."""
    from ..analysis.facts import unit_tree

    unit_defs = {}
    proc_defs = {}
    for record in records:
        if not record.processes:
            continue
        key = id(record.node)
        defs = unit_defs.get(key)
        if defs is None:
            defs = unit_defs[key] = _function_defs(
                unit_tree(record.node, trees))
        for proc in record.processes.values():
            fn = proc.fn
            if fn is None:
                continue
            code = fn.__code__
            funcdef = defs.get((code.co_name, code.co_firstlineno))
            if funcdef is not None:
                proc_defs[proc] = funcdef
    return proc_defs


def _function_defs(tree):
    """Every ``def`` in a model's statement lists (``elaborate``'s
    body, generate loops and branches), keyed like the code objects
    they compile to: ``(co_name, co_firstlineno)``."""
    defs = {}
    if tree is None:
        return defs
    stack = [tree.body]
    while stack:
        for stmt in stack.pop():
            if isinstance(stmt, ast.FunctionDef):
                first = min([stmt.lineno] + [d.lineno for d in
                                             stmt.decorator_list])
                defs[(stmt.name, first)] = stmt
            for block in (getattr(stmt, "body", None),
                          getattr(stmt, "orelse", None)):
                if block:
                    stack.append(block)
    return defs


def _classify_slots(kernel, graph, analyses, cyclic_sigs,
                    helper_risk):
    """Signals whose Driver collapses to a (NT, NV) slot pair."""
    if helper_risk:
        return frozenset()
    known = {np.process for np in graph.processes}
    for proc in kernel.processes:
        if proc not in known and proc not in analyses:
            # A process the netlist never saw and the analyzer could
            # not parse: its drives are unknown; no slot is safe.
            return frozenset()

    drivers = {}  # Signal -> set of kernel processes
    for np in graph.processes:
        for drive in np.drives:
            drivers.setdefault(drive.target.signal,
                               set()).add(np.process)
    sites_by_sig = {}
    for proc, analysis in analyses.items():
        for site in analysis.sites:
            drivers.setdefault(site.signal, set()).add(proc)
            sites_by_sig.setdefault(site.signal, []).append(site)

    slots = set()
    for sig, procs in drivers.items():
        if sig in cyclic_sigs or sig.resolution is not None:
            continue
        if len(procs) != 1:
            continue
        (proc,) = procs
        if proc not in analyses:
            continue
        sites = sites_by_sig.get(sig)
        if not sites:
            continue  # netlist-only drive with no parsed site
        ok = all(
            site.n_elems == 1
            and (not site.transport or site.zero_literal)
            for site in sites)
        if ok:
            slots.add(sig.index)
    return frozenset(slots)


class _Shape:
    """One analyzed process's template key and its instance data.

    The key is the body (plus the condition lambda) serialized with
    every free name replaced by its role: a signal of this kernel
    becomes the positional parameter ``_s<k>`` tagged with whether it
    is slot-managed, ``rt``/``ops`` carry their identity checks, a
    captured value keeps its name, a local or missing name stays
    literal.  Everything the rewriter reads from an instance is in
    the key, so one rendering serves every instance that shares it.

    Role letters: ``S``/``s`` a slot-managed/calendar signal of this
    kernel, ``x`` another kernel's signal, ``r`` ``rt`` (its identity
    is ``rt_ok``), ``o`` the runtime's ``ops``, ``e`` a captured
    value, ``?`` a local or missing name.
    """

    __slots__ = ("key", "signals", "rename", "roles", "rt_ok")

    def __init__(self, analysis, kernel, slot_indices, ops_obj):
        fn = analysis.proc.fn
        self.rt_ok = capture(fn, "rt") is kernel.rt
        signals = self.signals = []  # Signal per ``_s<k>`` parameter
        rename = self.rename = {}  # free name -> template name
        roles = self.roles = {}  # template name -> role letter
        tokens = [analysis.init_runs_body, self.rt_ok]
        out = tokens.append

        def name_token(name):
            new = rename.get(name)
            if new is None:
                if name.startswith("_e_") or (
                        name[:2] == "_s" and name[2:].isdigit()):
                    raise Reject("names")  # would shadow a parameter
                value = capture(fn, name)
                new = name
                if value is _MISSING:
                    role = "?"
                elif isinstance(value, Signal):
                    if value.kernel is kernel:
                        new = "_s%d" % len(signals)
                        signals.append(value)
                        role = "S" if value.index in slot_indices else "s"
                    else:
                        role = "x"
                elif name == "rt":
                    role = "r"
                elif name == "ops" and value is ops_obj:
                    role = "o"
                else:
                    role = "e"
                rename[name] = new
                roles[new] = role
            return roles[new] + ":" + new

        def walk(node):
            if isinstance(node, ast.Name):
                out(name_token(node.id))
                out(type(node.ctx).__name__)
                return
            out(type(node).__name__)
            for _field, value in ast.iter_fields(node):
                if isinstance(value, ast.AST):
                    walk(value)
                elif isinstance(value, list):
                    out("[")
                    for item in value:
                        if isinstance(item, ast.AST):
                            walk(item)
                        else:
                            out(repr(item))
                    out("]")
                else:
                    out(repr(value))

        for stmt in analysis.body:
            walk(stmt)
        if analysis.cond_lambda is not None:
            out("cond")
            walk(analysis.cond_lambda.body)
        self.key = tuple(tokens)


class _Template:
    """One rendered shape: function names, captured names, purity."""

    __slots__ = ("resume", "cond", "env", "pure")

    def __init__(self, resume, cond, env, pure):
        self.resume = resume
        self.cond = cond
        self.env = env
        self.pure = pure


def _render_template(analysis, shape, tid, defs):
    """Render the first instance of a shape as template ``tid``,
    appending its defs; raises :class:`Reject` like the rewriter."""
    body = copy.deepcopy(analysis.body)
    cond = None
    if analysis.cond_lambda is not None:
        cond = copy.deepcopy(analysis.cond_lambda.body)
    rename = shape.rename
    for tree in body + ([cond] if cond is not None else []):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                node.id = rename[node.id]
    binder = _Binder(shape)
    body = _rewrite_stmts(body, binder, set())
    cond_def = None
    if cond is not None:
        binder.uses_now = binder.uses_step = False
        cond_expr = _Rewriter(binder, set()).visit(cond)
        prologue = []
        if binder.uses_now:
            prologue += ast.parse("now = T[0]").body
        if binder.uses_step:
            prologue += ast.parse("step = T[1]").body
        cond_def = prologue + [ast.Return(value=cond_expr)]
    params = ["_s%d" % k for k in range(len(shape.signals))]
    params += ["_e_" + name for name in binder.env]
    resume = "_p%d" % tid
    defs.append(_def(resume, ["now", "step"] + params, body))
    cond_name = None
    if cond_def is not None:
        cond_name = "_c%d" % tid
        defs.append(_def(cond_name, params, cond_def))
    return _Template(resume, cond_name, tuple(binder.env),
                     _body_is_pure(body))


def _render_all(kernel, analyses, slot_indices, stats):
    """Render one template per shape and plan every analyzed process
    against it; returns (plans, defs, demoted).  A shape's rejection
    is cached with it and demotes every process of that shape."""
    from .runtime import ops as ops_obj

    plans = {}
    defs = []
    demoted = []
    templates = {}  # shape key -> _Template, or the Reject reason
    for proc in sorted(analyses, key=lambda p: p.index):
        analysis = analyses[proc]
        try:
            shape = _Shape(analysis, kernel, slot_indices, ops_obj)
            template = templates.get(shape.key)
            if template is None:
                try:
                    template = _render_template(
                        analysis, shape, len(templates), defs)
                except Reject as rej:
                    template = rej.reason
                templates[shape.key] = template
            if isinstance(template, str):
                raise Reject(template)
        except Reject as rej:
            stats["reject_%s" % rej.reason] += 1
            demoted.append(proc)
            continue
        plans[proc.index] = ProcPlan(
            proc.index, template.resume, template.cond,
            analysis.init_runs_body,
            [s.index for s in analysis.wait_signals],
            [s.index for s in shape.signals], template.env,
            pure=template.pure)
    return plans, defs, demoted


def _body_is_pure(body):
    """True when a rendered resume body cannot observe the kernel's
    per-dispatch bookkeeping: no ``rt`` reference (``rt.assign`` /
    ``rt.assert_`` read ``current_process``) and no call to anything
    but the scheduling helpers and ``ops`` arithmetic (a captured
    helper could reach ``rt`` through its closure)."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id == "rt":
                return False
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and \
                        func.id in ("_sched", "_hpush"):
                    continue
                if isinstance(func, ast.Attribute) and \
                        isinstance(func.value, ast.Name) and \
                        func.value.id in ("ops", "_DUE", "_B", "_b"):
                    continue  # arithmetic + slot-schedule plumbing
                return False
    return True
