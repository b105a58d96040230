"""The applicative environment (§4.3).

"In our VHDL compiler there is an attribute called ENV ... that
represents this mapping.  ENV values are themselves trees whose nodes
contain both the identifier and link(s) to the object(s) that could be
denoted by the identifier.  ENV nodes may also contain information
about how their corresponding objects were made visible (via
USE-clause, local definition, etc.)"

:class:`Env` is that value: an immutable linked structure extended by
prepending, never mutated.  Lookup implements the VHDL visibility rules
the paper's §3.4 discusses:

- an inner declaration hides outer homographs;
- *overloadable* declarations (subprograms, enumeration literals)
  accumulate across scopes until hidden by a non-overloadable one;
- names made visible by USE-clause ("potential" visibility) lose to
  directly visible names, and conflicting potential non-overloadable
  homographs hide each other — unless the conflict was avoided by
  importing individual names, which simply yields fewer bindings here.

Binding is O(1).  A lookup needs only the bindings of one name, and
most lookups of a compile miss (probes such as user operator
overloads), so walking the whole spine each time is what a lookup must
not do.  Some spine nodes carry a memoized ``name -> bindings
(innermost first)`` index.  A lookup scans at most ``_SCAN`` nodes down
to the nearest indexed one and finishes with one probe of its index;
when that node is further away, the lookup builds the index on its own
node, from the nearest indexed node plus the bindings in between.
Indexing only every few nodes, not every looked-up one, keeps the
indexes' memory small: one is a dict over every visible name.
"""


class Binding:
    """One identifier-to-object binding with its visibility provenance."""

    __slots__ = ("name", "entry", "overloadable", "via_use")

    def __init__(self, name, entry, overloadable=False, via_use=False):
        self.name = name
        self.entry = entry
        self.overloadable = overloadable
        self.via_use = via_use

    def __repr__(self):
        tags = []
        if self.overloadable:
            tags.append("overloadable")
        if self.via_use:
            tags.append("use")
        return "<Binding %s%s>" % (
            self.name,
            " [%s]" % ", ".join(tags) if tags else "",
        )


class LookupResult:
    """Outcome of a name lookup.

    ``entries`` holds the denoted objects (several when overloaded);
    ``conflict`` is true when potential homographs hid each other.
    """

    __slots__ = ("name", "entries", "conflict")

    def __init__(self, name, entries, conflict=False):
        self.name = name
        self.entries = list(entries)
        self.conflict = conflict

    def __bool__(self):
        return bool(self.entries)

    def sole(self):
        """The single denotation, or ``None`` if absent/overloaded."""
        if len(self.entries) == 1:
            return self.entries[0]
        return None

    def __repr__(self):
        return "LookupResult(%r, %d entr%s%s)" % (
            self.name,
            len(self.entries),
            "y" if len(self.entries) == 1 else "ies",
            ", CONFLICT" if self.conflict else "",
        )


# Node kinds in the persistent spine.
_BIND = 0
_SCOPE = 1


class _EnvNode:
    __slots__ = ("kind", "binding", "tail", "depth", "index")

    def __init__(self, kind, binding, tail):
        self.kind = kind
        self.binding = binding
        self.tail = tail
        if tail is None:
            self.depth = 1 if kind == _SCOPE else 0
        else:
            self.depth = tail.depth + (1 if kind == _SCOPE else 0)
        #: name -> tuple of bindings, innermost first (see _index)
        self.index = None


#: Spine nodes a lookup scans above the nearest indexed node before it
#: indexes the node it started from instead.
_SCAN = 8


def _named(node, name):
    """The bindings of ``name`` visible from ``node``, innermost first."""
    found = []
    cur = node
    for _ in range(_SCAN):
        if cur is None:
            return found
        if cur.index is not None:
            found.extend(cur.index.get(name, ()))
            return found
        if cur.kind == _BIND and cur.binding.name == name:
            found.append(cur.binding)
        cur = cur.tail
    return _index(node).get(name, ())


def _index(node):
    """Memoize on ``node`` the name index of the spine starting there."""
    newer = []
    base = node
    while base is not None and base.index is None:
        if base.kind == _BIND:
            newer.append(base.binding)
        base = base.tail
    index = {} if base is None else dict(base.index)
    for b in reversed(newer):
        index[b.name] = (b,) + index.get(b.name, ())
    node.index = index
    return index


class Env:
    """A persistent environment value.

    The front of the spine is the most local information; binding and
    scope entry both return *new* Env values sharing the old spine.
    """

    __slots__ = ("_node",)

    EMPTY = None  # assigned below

    def __init__(self, _node=None):
        self._node = _node

    # -- construction ---------------------------------------------------------

    def bind(self, name, entry, overloadable=False, via_use=False):
        """A new Env with ``name`` bound at the front of the current scope."""
        binding = Binding(name, entry, overloadable, via_use)
        return Env(_EnvNode(_BIND, binding, self._node))

    def enter_scope(self):
        """A new Env with a fresh innermost scope."""
        return Env(_EnvNode(_SCOPE, None, self._node))

    def bind_all(self, pairs, overloadable=False, via_use=False):
        """Bind several (name, entry) pairs; later pairs end up innermost."""
        env = self
        for name, entry in pairs:
            env = env.bind(name, entry, overloadable, via_use)
        return env

    # -- queries -----------------------------------------------------------------

    @property
    def depth(self):
        """Number of scopes entered."""
        return self._node.depth if self._node else 0

    def bindings(self):
        """All bindings, innermost first (spine order)."""
        node = self._node
        while node is not None:
            if node.kind == _BIND:
                yield node.binding
            node = node.tail

    def __len__(self):
        return sum(1 for _ in self.bindings())

    def lookup(self, name):
        """Resolve ``name`` per the visibility rules (see module doc)."""
        direct = []
        potential = []
        stop_direct = False
        for b in _named(self._node, name):
            if b.via_use:
                potential.append(b)
            elif not stop_direct:
                if b.overloadable:
                    direct.append(b)
                elif not direct:
                    # First (innermost) match is non-overloadable:
                    # it alone is visible.
                    return LookupResult(name, [b.entry])
                else:
                    # Overloadables already found hide this outer
                    # non-overloadable homograph — and nothing
                    # further out can be directly visible.
                    stop_direct = True
        if direct:
            # Overloadable direct bindings coexist with *overloadable*
            # potential ones: an enum literal imported by USE is not a
            # homograph of a same-named literal of another type, so
            # both stay visible.  Non-overloadable potential bindings
            # are hidden by the direct ones.
            entries = [b.entry for b in direct]
            seen = {id(e) for e in entries}
            for b in potential:
                if b.overloadable and id(b.entry) not in seen:
                    seen.add(id(b.entry))
                    entries.append(b.entry)
            return LookupResult(name, entries)
        if not potential:
            return LookupResult(name, [])
        if all(b.overloadable for b in potential):
            return LookupResult(name, [b.entry for b in potential])
        if len(potential) == 1:
            return LookupResult(name, [potential[0].entry])
        # Distinct potential homographs, not all overloadable: per the
        # USE-clause rules none of them is made directly visible.
        entries = {id(b.entry): b.entry for b in potential}
        if len(entries) == 1:
            return LookupResult(name, [potential[0].entry])
        return LookupResult(name, [], conflict=True)

    def __repr__(self):
        return "Env(depth=%d, %d bindings)" % (self.depth, len(self))


Env.EMPTY = Env()
