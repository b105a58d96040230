"""Dataflow fact extraction over compiled VIF units.

The linter runs *post-compile, pre-elaboration*: its input is the
generated Python model (``py_source``) each unit carries in the VIF
payload, plus the declaration tables (``decls`` / ``ports`` /
``instances``) the attribute grammar produced.  The generated code is
a small, regular dialect — every signal access goes through the
``rt`` runtime facade and every declaration through ``ctx`` — so a
plain :mod:`ast` walk recovers precise per-process dataflow facts:

* which signals a process *reads* (and whether the read is guarded by
  an ``'EVENT`` test — the clocked-process idiom whose data reads do
  not belong in the sensitivity list);
* which signals it *drives* (``rt.assign`` targets);
* its declared *sensitivity* set and its *wait topology* (the
  ``rt.wait`` suspensions it can reach, including wait-less infinite
  loops that can never suspend);
* the object table itself: signals, ports with modes, resolution
  presence, and the declaring source line each ``ctx.signal`` /
  ``ctx.port`` call was stamped with.

These facts are rule-agnostic; :mod:`repro.analysis.rules` consumes
them.  Extraction is total: units without generated code (entities,
pre-span payloads) produce empty fact sets rather than errors.
"""

import ast


class ObjectFact:
    """One declared signal or port in a unit's generated model."""

    __slots__ = ("name", "py", "kind", "mode", "line", "resolved")

    def __init__(self, name, py, kind, mode="", line=None,
                 resolved=False):
        self.name = name          # VHDL name ('count')
        self.py = py              # generated binding ('s_count')
        self.kind = kind          # 'signal' | 'port'
        self.mode = mode          # '' | 'in' | 'out' | 'inout' | 'buffer'
        self.line = line          # declaring source line or None
        self.resolved = resolved  # has a resolution function

    def __repr__(self):
        return "<ObjectFact %s %s%s>" % (
            self.kind, self.name, " mode=%s" % self.mode if self.mode
            else "")


class DriveFact:
    """One ``rt.assign`` site inside a process.

    The waveform literal's delay elements are classified statically:
    a site is *zero-delay* only when every element is the constant
    ``0`` — the delta-cycle assignments whose chains form
    combinational logic.  Non-constant delays are conservatively
    treated as non-zero (a computed ``after`` cannot close a
    combinational loop through the event calendar at delta time).
    """

    __slots__ = ("target", "guarded", "zero_delay")

    def __init__(self, target, guarded, zero_delay):
        self.target = target      # py name ('s_q')
        self.guarded = guarded    # under an 'EVENT test
        self.zero_delay = zero_delay

    def __repr__(self):
        return "<DriveFact %s%s%s>" % (
            self.target, " guarded" if self.guarded else "",
            " delta" if self.zero_delay else "")


class WaitFact:
    """One reachable ``rt.wait`` suspension inside a process."""

    __slots__ = ("signals", "has_condition", "has_timeout")

    def __init__(self, signals, has_condition, has_timeout):
        self.signals = list(signals)  # py names ('s_clk')
        self.has_condition = has_condition
        self.has_timeout = has_timeout

    @property
    def forever(self):
        """A bare ``wait;`` — suspends and never resumes."""
        return (not self.signals and not self.has_condition
                and not self.has_timeout)


class ProcessFact:
    """Dataflow facts for one process statement."""

    __slots__ = ("label", "py", "line", "sensitivity", "plain_reads",
                 "guarded_reads", "attr_uses", "drives", "drive_sites",
                 "event_guards", "waits", "waitless_loops",
                 "unreachable_stmts")

    def __init__(self, label, py, line=None, sensitivity=None):
        self.label = label
        self.py = py
        self.line = line
        #: declared sensitivity py-names, or None for wait-driven
        self.sensitivity = sensitivity
        self.plain_reads = set()    # rt.read outside any 'EVENT guard
        self.guarded_reads = set()  # rt.read under an 'EVENT guard
        self.attr_uses = set()      # rt.event / rt.active / last_value
        self.drives = set()         # rt.assign targets
        self.drive_sites = []       # DriveFact, in source order
        self.event_guards = set()   # signals tested with 'EVENT in ifs
        self.waits = []             # WaitFact, in source order
        self.waitless_loops = 0     # infinite loops with no suspension
        self.unreachable_stmts = 0  # statements after such a loop

    @property
    def reads(self):
        return self.plain_reads | self.guarded_reads

    @property
    def uses(self):
        """Every signal this process touches in any way."""
        used = self.reads | self.attr_uses | self.drives
        for w in self.waits:
            used.update(w.signals)
        if self.sensitivity:
            used.update(self.sensitivity)
        return used

    def __repr__(self):
        return "<ProcessFact %s>" % self.label


class InstanceFact:
    """One component instantiation and its port connections."""

    __slots__ = ("label", "component", "connections")

    def __init__(self, label, component, connections):
        self.label = label
        self.component = component
        self.connections = dict(connections)  # formal -> py name

    def __repr__(self):
        return "<InstanceFact %s:%s>" % (self.label, self.component)


class UnitFacts:
    """All extracted facts for one compiled unit."""

    __slots__ = ("kind", "name", "file", "objects", "processes",
                 "instances")

    def __init__(self, kind, name, file=None):
        self.kind = kind
        self.name = name
        self.file = file
        self.objects = {}    # py name -> ObjectFact
        self.processes = []  # ProcessFact
        self.instances = []  # InstanceFact

    def object_named(self, py):
        return self.objects.get(py)

    def __repr__(self):
        return "<UnitFacts %s %s: %d objects, %d processes>" % (
            self.kind, self.name, len(self.objects),
            len(self.processes))


# -- AST helpers --------------------------------------------------------------


def _ctx_call(node, method):
    """Is ``node`` a ``ctx.<method>(...)`` call?"""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == method
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "ctx")


def _rt_call(node):
    """The ``rt.<attr>`` method name of a call, or None."""
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "rt"):
        return node.func.attr
    return None


def _const(node):
    return node.value if isinstance(node, ast.Constant) else None


def _kwargs(call):
    return {kw.arg: kw.value for kw in call.keywords if kw.arg}


def _name(node):
    return node.id if isinstance(node, ast.Name) else None


def _contains_event_test(node):
    """Does the expression subtree contain ``rt.event(...)``?"""
    for sub in ast.walk(node):
        if _rt_call(sub) in ("event", "active"):
            return True
    return False


def _is_true_const(node):
    """``while True:`` / ``while 1:`` — an infinite loop header."""
    value = _const(node)
    return value is not None and bool(value) and not isinstance(
        value, str)


def _suspends(node):
    """Can control leave this loop (yield, break, or return)?"""
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Yield, ast.YieldFrom, ast.Break,
                            ast.Return)):
            return True
    return False


# -- extraction ----------------------------------------------------------------


def unit_tree(node, trees=None):
    """The parsed ``py_source`` of one unit node, or None when it has
    none or it does not parse.

    ``trees`` is a caller-owned memo keyed by node identity: passes
    over the same records share one parse, and the trees go when the
    caller drops the dict (libraries outlive any one pass).
    """
    key = id(node)
    if trees is not None and key in trees:
        return trees[key]
    tree = None
    py = getattr(node, "py_source", "") or ""
    if py:
        try:
            tree = ast.parse(py)
        except SyntaxError:
            pass
    if trees is not None:
        trees[key] = tree
    return tree


def extract_unit_facts(node, kind=None, trees=None):
    """Extract :class:`UnitFacts` from one VIF unit node.

    ``node`` is any unit carrying ``py_source`` (architectures are the
    interesting case; entities and packages yield near-empty facts).
    ``trees`` is an optional :func:`unit_tree` memo.
    """
    name = getattr(node, "name", "?")
    source_file = getattr(node, "source_file", "") or None
    facts = UnitFacts(kind or type(node).__name__, name,
                      file=source_file)
    py = getattr(node, "py_source", "") or ""
    if "def elaborate" not in py:
        return facts
    tree = unit_tree(node, trees)
    if tree is None:
        return facts
    elab = None
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and \
                stmt.name == "elaborate":
            elab = stmt
            break
    if elab is None:
        return facts

    proc_defs = {}
    for stmt in elab.body:
        _extract_top_stmt(stmt, facts, proc_defs)
    return facts


def _extract_top_stmt(stmt, facts, proc_defs):
    if isinstance(stmt, ast.FunctionDef):
        proc_defs[stmt.name] = stmt
        return
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = _name(stmt.targets[0])
        call = stmt.value
        for decl_kind in ("signal", "port"):
            if target and _ctx_call(call, decl_kind):
                kwargs = _kwargs(call)
                vhdl_name = _const(call.args[0]) if call.args else None
                facts.objects[target] = ObjectFact(
                    name=vhdl_name or target,
                    py=target,
                    kind=decl_kind,
                    mode=_const(kwargs.get("mode")) or "",
                    line=_const(kwargs.get("line")),
                    resolved="res" in kwargs,
                )
                return
        return
    if not isinstance(stmt, ast.Expr):
        return
    call = stmt.value
    if _ctx_call(call, "process"):
        kwargs = _kwargs(call)
        label = _const(call.args[0]) if call.args else "?"
        fn_name = _name(call.args[1]) if len(call.args) > 1 else None
        sensitivity = None
        sens_node = kwargs.get("sensitivity")
        if isinstance(sens_node, ast.List):
            sensitivity = [
                _name(e) for e in sens_node.elts if _name(e)]
        proc = ProcessFact(label, fn_name,
                           line=_const(kwargs.get("line")),
                           sensitivity=sensitivity)
        body_def = proc_defs.get(fn_name)
        if body_def is not None:
            _walk_stmts(body_def.body, proc, guarded=False)
        facts.processes.append(proc)
        return
    if _ctx_call(call, "instance"):
        label = _const(call.args[0]) if call.args else "?"
        comp = _const(call.args[1]) if len(call.args) > 1 else "?"
        connections = {}
        if len(call.args) > 3 and isinstance(call.args[3], ast.Dict):
            for k, v in zip(call.args[3].keys, call.args[3].values):
                formal, actual = _const(k), _name(v)
                if formal and actual:
                    connections[formal] = actual
        facts.instances.append(InstanceFact(label, comp, connections))


# -- process-body walk ---------------------------------------------------------


def _walk_stmts(stmts, proc, guarded):
    """Walk a statement list collecting facts; returns True while the
    statements remain reachable (False once an inescapable wait-less
    loop has been seen — everything after it is dead)."""
    reachable = True
    for stmt in stmts:
        if not reachable:
            proc.unreachable_stmts += 1
            continue
        reachable = _walk_stmt(stmt, proc, guarded)
    return reachable


def _walk_stmt(stmt, proc, guarded):
    """Process one statement; returns False when the statement never
    passes control to its successor."""
    if isinstance(stmt, ast.If):
        under_event = guarded or _contains_event_test(stmt.test)
        for sub in ast.walk(stmt.test):
            if _rt_call(sub) in ("event", "active") and sub.args:
                target = _name(sub.args[0])
                if target:
                    proc.event_guards.add(target)
        _collect_expr(stmt.test, proc, guarded)
        _walk_stmts(stmt.body, proc, under_event)
        _walk_stmts(stmt.orelse, proc, under_event)
        return True
    if isinstance(stmt, ast.While):
        infinite = _is_true_const(stmt.test)
        escapes = _suspends(stmt)
        if not infinite:
            _collect_expr(stmt.test, proc, guarded)
        _walk_stmts(stmt.body, proc, guarded)
        if infinite and not escapes:
            proc.waitless_loops += 1
            return False
        return not infinite or escapes
    if isinstance(stmt, ast.For):
        _collect_expr(stmt.iter, proc, guarded)
        _walk_stmts(stmt.body, proc, guarded)
        _walk_stmts(stmt.orelse, proc, guarded)
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Yield):
        wait = stmt.value.value
        if wait is not None:
            _collect_wait(wait, proc, guarded)
        return True
    # Assignments (variable updates), asserts, everything else: scan
    # the expression subtrees for runtime calls.
    _collect_expr(stmt, proc, guarded)
    return True


def _waveform_is_delta(node):
    """Is every delay element of an ``rt.assign`` waveform literal the
    constant ``0``?  Non-literal waveforms and computed delays answer
    False — a scheduled (non-delta) assignment cannot close a
    combinational loop, so unknown delays are treated as scheduled."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return False
    elements = node.elts
    if not elements:
        return False
    for element in elements:
        if not isinstance(element, (ast.Tuple, ast.List)) \
                or len(element.elts) < 2:
            return False
        if _const(element.elts[1]) != 0:
            return False
    return True


def _collect_wait(call, proc, guarded):
    """Record one ``yield rt.wait([...], cond, timeout)``."""
    if _rt_call(call) != "wait":
        _collect_expr(call, proc, guarded)
        return
    signals = []
    has_condition = False
    has_timeout = False
    args = list(call.args)
    kwargs = _kwargs(call)
    sig_node = args[0] if args else kwargs.get("signals")
    cond_node = args[1] if len(args) > 1 else kwargs.get("condition")
    time_node = args[2] if len(args) > 2 else kwargs.get("timeout")
    if isinstance(sig_node, (ast.List, ast.Tuple)):
        signals = [_name(e) for e in sig_node.elts if _name(e)]
    if cond_node is not None and _const(cond_node) is None \
            and not (isinstance(cond_node, ast.Constant)):
        has_condition = True
        _collect_expr(cond_node, proc, guarded)
    if time_node is not None and not (
            isinstance(time_node, ast.Constant)
            and time_node.value is None):
        has_timeout = True
        _collect_expr(time_node, proc, guarded)
    proc.waits.append(WaitFact(signals, has_condition, has_timeout))


def _collect_expr(node, proc, guarded):
    """Scan an expression (or statement) subtree for runtime calls."""
    for sub in ast.walk(node):
        method = _rt_call(sub)
        if method is None:
            continue
        if method == "read" and sub.args:
            target = _name(sub.args[0])
            if target:
                if guarded:
                    proc.guarded_reads.add(target)
                else:
                    proc.plain_reads.add(target)
        elif method in ("event", "active", "last_value") and sub.args:
            target = _name(sub.args[0])
            if target:
                proc.attr_uses.add(target)
        elif method == "assign" and sub.args:
            target = _name(sub.args[0])
            if target:
                proc.drives.add(target)
                proc.drive_sites.append(DriveFact(
                    target, guarded,
                    _waveform_is_delta(sub.args[1])
                    if len(sub.args) > 1 else False))
        elif method == "wait":
            # A wait expression reached outside a ``yield`` statement
            # position (defensive; the generator protocol forbids it).
            _collect_wait(sub, proc, guarded)
