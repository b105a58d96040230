"""Per-client workspaces over a shared read-only reference library.

The paper's library model already separates a *working* library from
*reference* libraries "which can be referenced ... but which can not
be updated" (§2).  The service maps that straight onto sessions: every
client session owns a private library root (sources, ``work`` library,
``build.state.json`` manifest) while one read-only reference library,
prebuilt with ``repro build --work <name>``, is layered into each root
by symlink.  The whole existing build/elaborate stack then sees one
ordinary library root — reference units resolve through the same
:class:`~repro.vhdl.library.LibraryManager` paths as anywhere else,
and the ``reference_libs`` guard keeps them unwritable.

Reads are served from a cached read-only manager: a compile commit
invalidates it, and jobs that were already running keep the manager
(and its pinned snapshots) they started with — snapshot isolation at
session granularity.
"""

import os
import re
import shutil

from ..build.cache import open_library

_SESSION_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")
_SOURCE_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")


class SessionError(Exception):
    """Bad session id, bad source name, unknown session."""


def check_session_id(sid):
    if not _SESSION_ID.match(sid or ""):
        raise SessionError(
            "bad session id %r (want [A-Za-z0-9][A-Za-z0-9._-]{0,63})"
            % (sid,))
    return sid


class Workspace:
    """One client session: private sources + work library + manifest."""

    def __init__(self, sid, base_dir, ref=None):
        self.id = check_session_id(sid)
        self.dir = os.path.join(base_dir, sid)
        self.src_dir = os.path.join(self.dir, "src")
        self.root = os.path.join(self.dir, "libs")
        os.makedirs(self.src_dir, exist_ok=True)
        os.makedirs(self.root, exist_ok=True)
        self.ref_name = None
        if ref is not None:
            name, source_dir = ref
            self.ref_name = name
            link = os.path.join(self.root, name)
            if not os.path.exists(link):
                os.symlink(os.path.abspath(source_dir), link)
        #: Builds for one session serialize here (single writer);
        #: installed by the owning SessionManager's event loop.
        self.lock = None
        self._library = None

    @property
    def reference_libs(self):
        return (self.ref_name,) if self.ref_name else ()

    def write_sources(self, files):
        """Materialize ``[{"name":..., "text":...}]`` into the session
        source dir; returns absolute paths in request order."""
        paths = []
        for entry in files:
            name = entry.get("name") if isinstance(entry, dict) \
                else None
            text = entry.get("text") if isinstance(entry, dict) \
                else None
            if not name or not _SOURCE_NAME.match(name):
                raise SessionError("bad source file name %r" % (name,))
            if not isinstance(text, str):
                raise SessionError(
                    "source %r: 'text' must be a string" % name)
            path = os.path.join(self.src_dir, name)
            tmp = "%s.tmp.%d" % (path, os.getpid())
            with open(tmp, "w") as f:
                f.write(text)
            os.replace(tmp, path)
            paths.append(path)
        return paths

    def builder(self, jobs=1):
        """A fresh incremental builder over this session's root."""
        from ..build import IncrementalBuilder

        return IncrementalBuilder(
            self.root, work="work",
            reference_libs=self.reference_libs, jobs=jobs)

    def invalidate(self):
        """Drop the cached read manager after a commit; readers that
        already hold it keep their consistent pre-commit view."""
        self._library = None

    def library(self):
        """The cached read-only manager over the session root, with
        the recorded deterministic compile order applied."""
        lib = self._library
        if lib is None:
            lib = self._library = open_library(
                self.root, "work", self.reference_libs, read_only=True)
        return lib

    def snapshot(self):
        """A pinned read view for one job."""
        return self.library().snapshot()


class SessionManager:
    """All live sessions plus the shared reference library."""

    def __init__(self, base_dir, ref=None):
        self.base_dir = base_dir
        self.ref = ref  # (name, source_dir) or None
        self._sessions = {}
        os.makedirs(base_dir, exist_ok=True)

    def get(self, sid, create=True):
        sid = check_session_id(sid or "default")
        ws = self._sessions.get(sid)
        if ws is None:
            if not create:
                raise SessionError("no such session %r" % sid)
            ws = Workspace(sid, self.base_dir, ref=self.ref)
            self._sessions[sid] = ws
        return ws

    def drop(self, sid):
        ws = self._sessions.pop(check_session_id(sid), None)
        if ws is None:
            raise SessionError("no such session %r" % sid)
        shutil.rmtree(ws.dir, ignore_errors=True)
        return ws

    def list(self):
        return sorted(self._sessions)


def resolve_reference(spec):
    """Parse ``--ref-library PATH[:NAME]`` into ``(name, dir)``.

    ``PATH`` is a library root previously populated with ``repro
    --root PATH --work NAME build``; ``NAME`` defaults to ``ref``.
    The returned ``dir`` is the library subdirectory itself.
    """
    if spec is None:
        return None
    path, sep, name = spec.rpartition(":")
    if not sep or os.sep in name or not name:
        path, name = spec, "ref"
    lib_dir = os.path.join(path, name)
    if not os.path.isdir(lib_dir):
        raise SessionError(
            "reference library %r has no %r library (expected "
            "directory %s; build it with: repro --root %s "
            "--work %s build FILES)" % (path, name, lib_dir, path, name))
    return (name, lib_dir)
