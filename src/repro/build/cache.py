"""The persistent build manifest (``build.state.json``).

One manifest per library root.  For every source file it records the
token-stream fingerprint, the units the file produced, and the
interface digest of every foreign unit the compile read; for every
unit it records the current interface digest; and it persists the
unit dependency graph plus the recorded compile order (so §3.3's
usage-history-dependent "latest compiled architecture" default stays
reproducible across incremental sessions).

Writes are atomic (tempfile + ``os.replace``), and loads are
tolerant: a corrupt manifest is quarantined to ``*.corrupt`` and the
build degrades to a cold one instead of crashing.
"""

import json
import os
import tempfile

from .depgraph import DependencyGraph
from .fingerprint import FINGERPRINT_VERSION

STATE_NAME = "build.state.json"
STATE_VERSION = 1

_SEP = "\x1f"


def _uk(unit):
    """(lib, key) -> JSON-safe string key."""
    return "%s%s%s" % (unit[0], _SEP, unit[1])


def _unit(text):
    lib, _, key = text.partition(_SEP)
    return (lib, key)


def open_library(root, work="work", reference_libs=(), read_only=False,
                 compile_order=None):
    """A :class:`~repro.vhdl.library.LibraryManager` over ``root`` in
    the build's recorded compile order.

    Disk loading is alphabetical, which puts ``body(pk)`` before
    ``pk``; elaboration loads packages in compile order, and §3.3's
    "latest compiled architecture" default reads it too, so every
    reader of a built root opens it here.  A caller that already holds
    the loaded manifest passes its ``compile_order`` to skip the
    second read.
    """
    from ..vhdl.library import LibraryManager

    lib = LibraryManager(root=root, work=work,
                         reference_libs=tuple(reference_libs),
                         read_only=read_only)
    if compile_order is None and root is not None:
        compile_order = BuildCache(root).load().compile_order
    if compile_order:
        lib.apply_compile_order(compile_order)
    return lib


class BuildCache:
    """Manifest mapping source files and units to their fingerprints,
    with hit/miss/invalidate accounting."""

    def __init__(self, root, state_name=STATE_NAME):
        self.root = root
        self.path = os.path.join(root, state_name)
        self._files = {}    # path -> {fingerprint, units, deps}
        self._digests = {}  # "lib\x1fkey" -> digest
        self.graph = DependencyGraph()
        self.compile_order = []  # [(lib, key), ...]
        self.stats = {
            "hits": 0,
            "misses": 0,
            "invalidated": 0,
            "quarantined": 0,
            "ag_evaluations": 0,
        }
        self.loaded_from_disk = False

    # -- persistence -------------------------------------------------------

    def load(self):
        """Read the manifest; tolerate absence and quarantine rot."""
        try:
            with open(self.path) as f:
                data = json.load(f)
        except FileNotFoundError:
            return self
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            self._quarantine()
            return self
        if not isinstance(data, dict) \
                or data.get("version") != STATE_VERSION \
                or data.get("fingerprint_version") != FINGERPRINT_VERSION:
            # A manifest from another scheme: a cold build re-creates
            # it; no need to quarantine a merely old file.
            return self
        self._files = {
            path: {
                "fingerprint": entry.get("fingerprint", ""),
                "units": [tuple(u) for u in entry.get("units", [])],
                "deps": dict(entry.get("deps", {})),
            }
            for path, entry in data.get("files", {}).items()
            if isinstance(entry, dict)
        }
        self._digests = dict(data.get("digests", {}))
        self.graph = DependencyGraph.from_json(data.get("graph", {}))
        self.compile_order = [
            tuple(u) for u in data.get("compile_order", [])
        ]
        self.loaded_from_disk = True
        return self

    def save(self):
        """Atomically write the manifest next to the library data."""
        os.makedirs(self.root, exist_ok=True)
        payload = {
            "version": STATE_VERSION,
            "fingerprint_version": FINGERPRINT_VERSION,
            "files": {
                path: {
                    "fingerprint": entry["fingerprint"],
                    "units": [list(u) for u in entry["units"]],
                    "deps": entry["deps"],
                }
                for path, entry in sorted(self._files.items())
            },
            "digests": dict(sorted(self._digests.items())),
            "graph": self.graph.to_json(),
            "compile_order": [list(u) for u in self.compile_order],
        }
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=".build.state.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(payload, f, indent=1, sort_keys=True)
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _quarantine(self):
        """Move a corrupt manifest aside so the next save is clean."""
        self.stats["quarantined"] += 1
        try:
            os.replace(self.path, self.path + ".corrupt")
        except OSError:
            pass

    # -- file entries ------------------------------------------------------

    def files(self):
        return sorted(self._files)

    def file_entry(self, path):
        return self._files.get(path)

    def set_file_entry(self, path, fingerprint, units, dep_digests):
        """Record a successful build of ``path``.

        ``units`` — (lib, key) pairs the file produced, in compile
        order; ``dep_digests`` — {(lib, key): digest} of every foreign
        unit the compile read, as observed at build time.
        """
        self._files[path] = {
            "fingerprint": fingerprint,
            "units": [tuple(u) for u in units],
            "deps": {_uk(u): d for u, d in dep_digests.items()},
        }

    def forget_file(self, path):
        self._files.pop(path, None)

    def recorded_dep_digests(self, path):
        entry = self._files.get(path)
        if not entry:
            return {}
        return {_unit(k): d for k, d in entry["deps"].items()}

    # -- unit digests ------------------------------------------------------

    def digest_of(self, unit):
        return self._digests.get(_uk(unit))

    def set_digest(self, unit, digest):
        self._digests[_uk(unit)] = digest

    def owner_of(self, unit):
        """Which manifest file produced ``unit`` (None if external)."""
        unit = tuple(unit)
        for path, entry in self._files.items():
            if unit in entry["units"]:
                return path
        return None

    # -- accounting --------------------------------------------------------

    def record_hit(self):
        self.stats["hits"] += 1

    def record_miss(self):
        self.stats["misses"] += 1

    def record_invalidation(self):
        self.stats["invalidated"] += 1

    def format_stats(self):
        s = self.stats
        return (
            "cache: %d hit(s), %d miss(es), %d invalidated, "
            "%d AG evaluation(s)"
            % (s["hits"], s["misses"], s["invalidated"],
               s["ag_evaluations"])
        )
