"""The service's job layer: batching, execution, and draining.

Compile requests are not executed one-by-one.  Each arriving compile
job parks in a per-session pending list for one *batch window* (a few
milliseconds); everything that accumulated is then merged into a
single :class:`repro.build.IncrementalBuilder` run — the existing
topological fork scheduler compiles the union of all requested files
in dependency order, possibly in parallel workers — and the one
:class:`~repro.build.driver.BuildReport` is sliced back per request.
Ten clients posting the same package therefore cost one AG evaluation,
exactly like ten files in one ``repro build`` invocation.

Simulation and lint jobs are read-only: they run directly on the
executor against a pinned library snapshot, concurrent with each other
and with at most one writer per session (the workspace lock).

Every job resolves to a plain JSON-able dict carrying the request id,
per-job diagnostics as JSON lines (:func:`repro.diag.render_jsonl` —
the same records ``--diag-format json`` prints), and queue/run timing.
"""

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

from ..diag import Diagnostic, render_jsonl
from ..metrics import NULL_REGISTRY
from ..trace.context import current_context, make_span, use

#: How long a compile job waits for batch-mates before running.
BATCH_WINDOW_S = 0.01


class JobError(Exception):
    """A job could not be accepted (not: a job that ran and failed).

    ``diagnostics`` optionally carries structured
    :class:`~repro.diag.Diagnostic` records explaining the rejection;
    the app layer renders them as JSONL in the error response.
    """

    def __init__(self, message, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


class _CompileJob:
    """One pending compile request inside a batch."""

    __slots__ = ("id", "names", "paths", "force", "future",
                 "submitted", "submitted_ts", "ctx")

    def __init__(self, job_id, names, paths, force, future, ctx=None):
        self.id = job_id
        self.names = names   # client-facing file names
        self.paths = paths   # absolute paths inside the workspace
        self.force = force
        self.future = future
        self.submitted = time.perf_counter()
        self.submitted_ts = time.time() * 1e6  # epoch µs, for spans
        self.ctx = ctx       # the submitting request's span context


class JobRunner:
    """Executes jobs on a worker pool with per-session batching."""

    def __init__(self, workers=2, metrics=NULL_REGISTRY,
                 batch_window=BATCH_WINDOW_S, trace=None):
        self.workers = max(1, int(workers or 1))
        self.batch_window = batch_window
        self.trace = trace  # repro.trace.SpanRing (or None)
        self.executor = ThreadPoolExecutor(
            max_workers=max(2, self.workers),
            thread_name_prefix="repro-serve")
        self.metrics = metrics
        self._m_jobs = metrics.counter(
            "serve_jobs_total", "jobs executed by kind")
        self._m_batches = metrics.counter(
            "serve_batches_total",
            "compile batches handed to the build scheduler")
        self._m_batch_size = metrics.histogram(
            "serve_batch_files",
            "source files per merged compile batch")
        self._m_queue_s = metrics.histogram(
            "serve_job_queue_seconds",
            "time a job waited before running",
            buckets=_seconds_buckets())
        self._m_ag_firings = metrics.counter(
            "ag_rule_firings_total", "semantic-rule firings")
        self._m_ag_visits = metrics.counter(
            "ag_visits_total", "static-evaluator symbol visits")
        self._m_gc_collections = metrics.counter(
            "python_gc_collections_total",
            "cyclic garbage-collector runs during compiles")
        self._m_gc_seconds = metrics.counter(
            "python_gc_seconds_total",
            "cyclic garbage-collector seconds during compiles")
        self._seq = 0
        self._pending = {}   # session id -> [_CompileJob]
        self._drainers = {}  # session id -> asyncio.Task
        self._active = 0
        self._idle = asyncio.Event()
        self._idle.set()

    # -- bookkeeping -------------------------------------------------------

    def next_id(self):
        self._seq += 1
        return self._seq

    def _job_started(self):
        self._active += 1
        self._idle.clear()

    def _job_finished(self):
        self._active -= 1
        if self._active <= 0:
            self._idle.set()

    async def drain(self, timeout=60.0):
        """Wait until every accepted job has resolved."""
        # Pending batches may still be inside their window; kick them.
        for sid in list(self._drainers):
            task = self._drainers.get(sid)
            if task is not None and not task.done():
                await task
        await asyncio.wait_for(self._idle.wait(), timeout=timeout)

    def close(self):
        self.executor.shutdown(wait=True)

    @property
    def active_jobs(self):
        return self._active

    # -- compile (batched) -------------------------------------------------

    async def compile(self, workspace, files, force=False):
        """Queue one compile request; resolves when its batch ran."""
        loop = asyncio.get_running_loop()
        paths = workspace.write_sources(files)
        names = [entry["name"] for entry in files]
        # Capture the request's span context *here*: the drainer task
        # runs in whichever request's context created it, so each job
        # must carry its own.
        job = _CompileJob(self.next_id(), names, paths, force,
                          loop.create_future(), ctx=current_context())
        self._job_started()
        self._pending.setdefault(workspace.id, []).append(job)
        drainer = self._drainers.get(workspace.id)
        if drainer is None or drainer.done():
            self._drainers[workspace.id] = asyncio.ensure_future(
                self._drain_session(workspace))
        return await job.future

    async def _drain_session(self, workspace):
        """Run one merged batch for everything that queued up."""
        await asyncio.sleep(self.batch_window)
        jobs = self._pending.pop(workspace.id, [])
        if not jobs:
            return
        loop = asyncio.get_running_loop()
        if workspace.lock is None:
            workspace.lock = asyncio.Lock()
        batch_paths = []
        force = False
        for job in jobs:
            force = force or job.force
            for path in job.paths:
                if path not in batch_paths:
                    batch_paths.append(path)
        self._m_batches.inc()
        self._m_batch_size.observe(len(batch_paths))
        # The batch runs as a child span of the first traced job's
        # request; batch-mates link to it via ``batch_member`` spans
        # (a batch has many requesting parents but one execution).
        lead_ctx = next((j.ctx for j in jobs if j.ctx is not None),
                        None)
        batch_ctx = lead_ctx.child() if lead_ctx is not None else None
        started = time.perf_counter()
        started_ts = time.time() * 1e6
        try:
            async with workspace.lock:
                report = await loop.run_in_executor(
                    self.executor, self._run_build,
                    workspace, batch_paths, force, batch_ctx)
        except Exception as exc:
            for job in jobs:
                if not job.future.done():
                    job.future.set_exception(
                        JobError("build failed: %s" % exc))
                self._m_jobs.labels(kind="compile").inc()
                self._job_finished()
            return
        run_s = time.perf_counter() - started
        workspace.invalidate()
        ag = report.ag_stats
        self._m_ag_firings.inc(ag.get("total_firings", 0))
        self._m_ag_visits.inc(sum(ag.get("visits", {}).values()))
        gc_stats = report.gc_stats
        for gen, n in gc_stats.get("collections", {}).items():
            self._m_gc_collections.labels(generation=str(gen)).inc(n)
        for gen, seconds in gc_stats.get("seconds", {}).items():
            self._m_gc_seconds.labels(generation=str(gen)).inc(seconds)
        self._record_batch_spans(jobs, batch_ctx, report, started,
                                 started_ts, run_s, len(batch_paths))
        for job in jobs:
            self._m_queue_s.observe(max(0.0,
                                        started - job.submitted))
            result = self._slice_report(workspace, job, report,
                                        run_s, len(batch_paths),
                                        len(jobs))
            if not job.future.done():
                job.future.set_result(result)
            self._m_jobs.labels(kind="compile").inc()
            self._job_finished()

    def _record_batch_spans(self, jobs, batch_ctx, report, started,
                            started_ts, run_s, batch_files):
        """Collect this batch's span tree into the ring buffer."""
        if self.trace is None or batch_ctx is None:
            return
        spans = [make_span(
            "compile_batch", batch_ctx, started_ts, run_s * 1e6,
            cat="serve", files=batch_files, jobs=len(jobs))]
        for job in jobs:
            if job.ctx is None:
                continue
            wait_s = max(0.0, started - job.submitted)
            spans.append(make_span(
                "queue_wait", job.ctx.child(), job.submitted_ts,
                wait_s * 1e6, cat="serve", job=job.id))
            if job.ctx.span_id != batch_ctx.parent_id:
                # A batch-mate: its request did not own the batch
                # execution, so leave a membership span that links to
                # the batch's identity.
                spans.append(make_span(
                    "batch_member", job.ctx.child(), started_ts,
                    run_s * 1e6, cat="serve", job=job.id,
                    batch_trace=batch_ctx.trace_id,
                    batch_span=batch_ctx.span_id))
        self.trace.add_events(spans)
        self.trace.add_events(getattr(report, "trace_events", ()))

    def _run_build(self, workspace, paths, force, ctx=None):
        # Executor threads do not inherit the caller's contextvars;
        # re-activate the batch span explicitly so the builder's
        # phases (and its fork workers) parent into it.
        with use(ctx):
            builder = workspace.builder(jobs=self.workers)
            return builder.build(paths, force=force)

    def _slice_report(self, workspace, job, report, run_s,
                      batch_files, batch_jobs):
        """This job's per-file view of the merged batch report."""
        results = []
        diagnostics = []
        ok = True
        for name, path in zip(job.names, job.paths):
            action = report.actions.get(path, "skipped")
            if action in ("failed", "skipped"):
                ok = False
            results.append({
                "path": name,
                "action": action,
                "reason": report.reasons.get(path, ""),
                "messages": list(report.messages.get(path, ())),
                "units": [list(u)
                          for u in report.units.get(path, ())],
            })
            for d in report.diagnostics.get(path, ()):
                diagnostics.append(Diagnostic.from_dict(d))
        return {
            "id": job.id,
            "kind": "compile",
            "session": workspace.id,
            "ok": ok,
            "results": results,
            "stats": dict(report.stats),
            "diagnostics_jsonl": render_jsonl(diagnostics),
            "timing": {
                "queued_s": round(
                    max(0.0, time.perf_counter() - job.submitted
                        - run_s), 6),
                "run_s": round(run_s, 6),
                "batch_files": batch_files,
                "batch_jobs": batch_jobs,
            },
        }

    # -- simulate ----------------------------------------------------------

    async def simulate(self, workspace, top, arch=None, until_fs=None,
                       lib=None, backend="event"):
        """Elaborate + run against a pinned snapshot of the session
        library; concurrent with other readers and with writers.
        ``backend`` is a key of :data:`repro.sim.BACKENDS`."""
        loop = asyncio.get_running_loop()
        job_id = self.next_id()
        ctx = current_context()
        self._job_started()
        submitted = time.perf_counter()
        try:
            result = await loop.run_in_executor(
                self.executor, self._run_sim, workspace, top, arch,
                until_fs, lib, ctx, backend)
        finally:
            self._m_jobs.labels(kind="sim").inc()
            self._job_finished()
        self._m_queue_s.observe(0.0)
        result["id"] = job_id
        result["kind"] = "sim"
        result["session"] = workspace.id
        result["timing"] = {
            "run_s": round(time.perf_counter() - submitted, 6),
        }
        return result

    def _run_sim(self, workspace, top, arch, until_fs, lib, ctx=None,
                 backend="event"):
        from ..sim import SimulationError
        from ..vhdl.elaborate import ElaborationError, run_design

        snapshot = workspace.snapshot()
        tracer = None
        if ctx is not None and self.trace is not None:
            from ..diag.trace import Tracer

            tracer = Tracer()
        try:
            # A traced kernel samples timestep / process-resume spans;
            # the ambient context is what the ``sim`` phase parents to.
            with use(ctx):
                run = run_design(snapshot, top, arch=arch, lib=lib,
                                 backend=backend, until_fs=until_fs,
                                 trace=tracer)
        except (ElaborationError, SimulationError) as exc:
            return {
                "ok": False,
                "error": "%s: %s" % (type(exc).__name__, exc),
                "library_version": snapshot.version,
                "diagnostics_jsonl": render_jsonl(
                    snapshot.quarantine_diagnostics()),
            }
        finally:
            if tracer is not None:
                self.trace.add_events(tracer.events)
        kernel = run.kernel
        result = {
            "ok": True,
            "top": top,
            "backend": backend,
            "end_fs": run.end_fs,
            "cycles": kernel.cycles,
            "delta_cycles": kernel.delta_cycles,
            "signals": [
                [path, sig.image(sig.value)]
                for path, sig in run.simulation.names.signals()
            ],
            "report_lines": run.report_lines,
            "library_version": snapshot.version,
            "diagnostics_jsonl": render_jsonl(
                snapshot.quarantine_diagnostics()),
        }
        if run.codegen is not None:
            result["codegen"] = run.codegen
        return result

    # -- lint --------------------------------------------------------------

    async def lint(self, workspace, files=None, select=(), ignore=()):
        """Compile ``files`` in memory and lint (no library writes),
        or lint the session library when no files are given."""
        loop = asyncio.get_running_loop()
        job_id = self.next_id()
        ctx = current_context()
        self._job_started()
        submitted = time.perf_counter()
        submitted_ts = time.time() * 1e6
        try:
            result = await loop.run_in_executor(
                self.executor, self._run_lint, workspace, files,
                tuple(select), tuple(ignore))
        finally:
            self._m_jobs.labels(kind="lint").inc()
            self._job_finished()
        if ctx is not None and self.trace is not None:
            self.trace.add(make_span(
                "lint", ctx.child(), submitted_ts,
                (time.perf_counter() - submitted) * 1e6,
                cat="serve", job=job_id))
        result["id"] = job_id
        result["kind"] = "lint"
        result["session"] = workspace.id
        result["timing"] = {
            "run_s": round(time.perf_counter() - submitted, 6),
        }
        return result

    def _run_lint(self, workspace, files, select, ignore):
        from ..analysis import LintEngine
        from ..diag import DiagnosticEngine
        from ..vhdl.compiler import CompileError, Compiler
        from ..vhdl.library import LibraryManager

        if files:
            # The CLI contract: lint compiles in memory and never
            # touches the on-disk library.
            library = LibraryManager(root=None, work="work")
            compiler = Compiler(library=library, work="work",
                                strict=False)
            for entry in files:
                name = entry.get("name", "<input>")
                try:
                    result = compiler.compile(entry.get("text", ""),
                                              filename=name)
                except CompileError as exc:
                    return {"ok": False,
                            "error": "%s: %d compile error(s)"
                                     % (name, len(exc.messages)),
                            "messages": list(exc.messages)}
                if not result.ok:
                    return {"ok": False,
                            "error": "%s: %d compile error(s)"
                                     % (name, len(result.messages)),
                            "messages": list(result.messages)}
            engine = LintEngine(library=library, work="work",
                                select=list(select),
                                ignore=list(ignore))
            findings = engine.lint_library()
        else:
            snapshot = workspace.snapshot()
            engine = LintEngine(library=snapshot, work="work",
                                select=list(select),
                                ignore=list(ignore))
            findings = engine.lint_library()
        diag_engine = DiagnosticEngine()
        for diag in findings:
            diag_engine.emit(diag)
        ordered = diag_engine.sorted()
        return {
            "ok": not ordered,
            "findings": len(ordered),
            "findings_jsonl": render_jsonl(ordered),
            "summary": diag_engine.summary(),
        }


    # -- analyze -----------------------------------------------------------

    async def analyze(self, workspace, files=None, top=None,
                      select=(), ignore=()):
        """Elaborate and run the whole-design (RPE) rules — either
        over ``files`` compiled in memory or over the session
        library.  Read-only, like lint: runs on the executor against
        a pinned snapshot, concurrent with other readers."""
        loop = asyncio.get_running_loop()
        job_id = self.next_id()
        ctx = current_context()
        self._job_started()
        submitted = time.perf_counter()
        submitted_ts = time.time() * 1e6
        try:
            result = await loop.run_in_executor(
                self.executor, self._run_analyze, workspace, files,
                top, tuple(select), tuple(ignore))
        finally:
            self._m_jobs.labels(kind="analyze").inc()
            self._job_finished()
        if ctx is not None and self.trace is not None:
            self.trace.add(make_span(
                "analyze", ctx.child(), submitted_ts,
                (time.perf_counter() - submitted) * 1e6,
                cat="serve", job=job_id))
        result["id"] = job_id
        result["kind"] = "analyze"
        result["session"] = workspace.id
        result["timing"] = {
            "run_s": round(time.perf_counter() - submitted, 6),
        }
        return result

    def _run_analyze(self, workspace, files, top, select, ignore):
        from ..analysis import (
            LintEngine,
            build_netlist,
            levels_artifact,
        )
        from ..diag import DiagnosticEngine
        from ..vhdl.compiler import CompileError, Compiler
        from ..vhdl.elaborate import ElaborationError, Elaborator
        from ..vhdl.library import LibraryManager
        from ..vhdl.symtab import entry_kind

        if files:
            library = LibraryManager(root=None, work="work")
            compiler = Compiler(library=library, work="work",
                                strict=False)
            entities = []
            for entry in files:
                name = entry.get("name", "<input>")
                try:
                    result = compiler.compile(entry.get("text", ""),
                                              filename=name)
                except CompileError as exc:
                    return {"ok": False,
                            "error": "%s: %d compile error(s)"
                                     % (name, len(exc.messages)),
                            "messages": list(exc.messages)}
                if not result.ok:
                    return {"ok": False,
                            "error": "%s: %d compile error(s)"
                                     % (name, len(result.messages)),
                            "messages": list(result.messages)}
                entities.extend(u.name for u in result.units
                                if entry_kind(u) == "entity")
            if top is None:
                if not entities:
                    return {"ok": False,
                            "error": "no entity to analyze"}
                top = entities[-1]
        else:
            if top is None:
                return {"ok": False,
                        "error": "analyze without files needs a "
                                 "'top' entity name"}
            library = workspace.snapshot()
        try:
            sim = Elaborator(library).elaborate(top)
        except ElaborationError as exc:
            return {"ok": False,
                    "error": "ElaborationError: %s" % exc}
        graph = build_netlist(sim.records)
        engine = LintEngine(library=library, work="work",
                            select=list(select),
                            ignore=list(ignore))
        findings = engine.lint_design(graph)
        diag_engine = DiagnosticEngine()
        for diag in findings:
            diag_engine.emit(diag)
        ordered = diag_engine.sorted()
        return {
            "ok": not any(d.severity in ("error", "fatal")
                          for d in ordered),
            "top": top,
            "findings": len(ordered),
            "findings_jsonl": render_jsonl(ordered),
            "summary": diag_engine.summary(),
            "levels": levels_artifact(graph),
        }


def _seconds_buckets():
    from ..metrics.registry import SECONDS_BUCKETS

    return SECONDS_BUCKETS
