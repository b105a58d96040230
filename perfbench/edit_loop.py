"""``edit_loop``: closed-loop clients editing through ``repro serve``.

A daemon runs as a subprocess with default settings (only the port and
the state directory are chosen, so that it stays inside the checkout).
Each client holds one keep-alive connection and its own session, whose
project is pre-built during set-up.  Every iteration posts one seeded
edit plus the unchanged files to ``/compile``, then calls ``/lint``,
then ``/sim`` on the top's configuration for a short window with the
default event backend.  Every ``PACKAGE_EVERY``-th edit changes a
package constant (dependents recompile); the others change one leaf's
body-only constant (the early cutoff keeps everything else cached).

The front end sees small deltas, fingerprinting and VIF reads next to
VIF writes; serve transport and queueing, lint, elaboration on every
edit and short kernel runs are on the path too.  Per-layer figures come
only from the daemon's own reply ``timing`` fields and ``/trace``.
"""

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import uuid
from statistics import median

import gen
from common import SETUP_REPEATS, BenchError, SpeedSampler, percentile, \
    pid_peak_rss_mb

#: clients in the closed loop (never more than ``nproc``)
CLIENTS = 2
#: one edit in this many rewrites a package constant
PACKAGE_EVERY = 5
#: simulated window of every ``/sim`` call, in ns
SIM_NS = 100
TOP = "top0"
#: daemon span name -> per-layer metric (summed per iteration)
DAEMON_SPANS = {
    "scan": "lexer.scan_s",
    "parse": "lr.parse_s",
    "attribute_evaluation": "ag.principal_s",
    "model_compile": "codegen.model_compile_s",
    "vif": "vif.write_s",
    "elaborate": "elab.elaborate_s",
    "kernel_run": "kernel.run_s",
}


def edit_project(seed):
    """The edit loop's project: two packages, four leaves, one top."""
    return gen.project(seed, n_packages=2, n_leaves=4, n_tops=1,
                       per_template=1, n_processes=2)


class Daemon:
    """``python3 -m repro serve`` as a subprocess."""

    def __init__(self, state_dir, env):
        os.makedirs(state_dir)
        self.log = os.path.join(state_dir, "serve.log")
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--state-dir", state_dir],
                env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
        deadline = time.monotonic() + 60
        while True:
            with open(self.log) as log:
                match = re.search(r"listening on http://([\d.]+):(\d+)",
                                  log.read())
            if match:
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                with open(self.log) as log:
                    raise BenchError("daemon did not start:\n"
                                     + log.read()[-2000:])
            time.sleep(0.01)
        self.host, self.port = match.group(1), int(match.group(2))

    def peak_rss_mb(self):
        return pid_peak_rss_mb(self.proc.pid)

    def stop(self):
        """Graceful SIGTERM; the whole process group (the daemon's build
        workers too) is killed if the drain does not finish."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
                return
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


class Client:
    """One closed-loop client: a connection, a session, a project."""

    def __init__(self, daemon, index, seed, out):
        self.conn = http.client.HTTPConnection(daemon.host, daemon.port,
                                               timeout=120)
        self.session = "c%d" % index
        self.proj = edit_project(seed)
        self.rng = random.Random(seed * 7919 + index)
        self.phase = self.rng.randrange(PACKAGE_EVERY)
        self.out = out
        self.spans = []         # (start, end) of each edit-to-sim
        self.n = 0              # iterations done

    def call(self, method, path, body=None, trace_id=None):
        """One request; returns ``(status, reply dict, round trip s)``."""
        headers = {"Content-Type": "application/json"}
        if trace_id:
            headers["traceparent"] = "00-%s-%s-01" % (
                trace_id, uuid.uuid4().hex[:16])
        data = json.dumps(body).encode() if body is not None else None
        t0 = time.perf_counter()
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        rtt = time.perf_counter() - t0
        try:
            reply = json.loads(raw)
        except ValueError:
            reply = {}
        return response.status, reply, rtt

    def check(self, ok, what):
        return self.out.check(ok, "%s: %s" % (self.session, what))

    def compile_all(self, trace_id=None):
        files = [{"name": n, "text": t} for n, t in self.proj.files.items()]
        return self.call("POST", "/compile",
                         {"session": self.session, "files": files},
                         trace_id)

    def prebuild(self):
        status, reply, _ = self.compile_all()
        self.check(status == 200 and reply.get("ok")
                   and not reply.get("diagnostics_jsonl"),
                   "prebuild: %s %s" % (status, reply.get("error")))

    def iteration(self, trace_id=None):
        """Edit, compile, lint, simulate, check; returns per-layer
        figures from the replies."""
        edit = gen.next_edit(self.proj, self.rng,
                             self.n % PACKAGE_EVERY == self.phase)
        self.n += 1
        t0 = time.perf_counter()
        c_status, c_reply, c_rtt = self.compile_all(trace_id)
        l_status, l_reply, l_rtt = self.call(
            "POST", "/lint", {"session": self.session}, trace_id)
        s_status, s_reply, s_rtt = self.call(
            "POST", "/sim", {"session": self.session, "top": TOP + "_cfg",
                             "until": "%dns" % SIM_NS}, trace_id)
        self.spans.append((t0, time.perf_counter()))
        self.check_compile(edit, c_status, c_reply)
        self.check(l_status == 200 and "findings" in l_reply,
                   "lint: %s %s" % (l_status, l_reply.get("error")))
        self.check_sim(s_status, s_reply)
        c_time, l_time, s_time = (c_reply.get("timing", {}),
                                  l_reply.get("timing", {}),
                                  s_reply.get("timing", {}))
        stats = c_reply.get("stats", {})
        return {
            "serve.queue_s": c_time.get("queued_s", 0.0),
            "serve.transport_s": c_rtt - c_time.get("queued_s", 0.0)
            - c_time.get("run_s", 0.0) + l_rtt - l_time.get("run_s", 0.0)
            + s_rtt - s_time.get("run_s", 0.0),
            "serve.batch_files": c_time.get("batch_files", 0),
            "build.hits": stats.get("hits", 0),
            "build.misses": stats.get("misses", 0),
            "build.ag_evaluations": stats.get("ag_evaluations", 0),
            "analysis.lint_s": l_time.get("run_s", 0.0),
            "analysis.findings": l_reply.get("findings", 0),
            "kernel.cycles": s_reply.get("cycles", 0),
            "kernel.delta_cycles": s_reply.get("delta_cycles", 0),
        }

    def check_compile(self, edit, status, reply):
        actions = {r["path"]: r["action"] for r in reply.get("results", ())}
        must = [edit.file_name]
        if edit.kind == "package":
            must += [leaf + ".vhd" for leaf, pkg in self.proj.leaf_pkg.items()
                     if pkg == edit.target]
        self.check(status == 200 and reply.get("ok")
                   and not reply.get("diagnostics_jsonl")
                   and all(actions.get(m) == "compiled" for m in must),
                   "compile %s %s: %s %s"
                   % (edit.kind, edit.target, status,
                      {m: actions.get(m) for m in must}))

    def check_sim(self, status, reply):
        """Each probe against the value computed from the edits."""
        got = {path.rsplit(":", 1)[-1]: value
               for path, value in reply.get("signals", ())
               if path.count(":") == 2}
        want = self.proj.probe_expected(TOP, gen.rising_edges(SIM_NS))
        self.check(status == 200 and reply.get("ok")
                   and reply.get("end_fs") == SIM_NS * gen.NS
                   and all(got.get(k) == str(v) for k, v in want.items()),
                   "sim: %s %s" % (status, {k: (got.get(k), v)
                                            for k, v in want.items()
                                            if got.get(k) != str(v)}))

    def close(self):
        self.conn.close()


def start(work, env, seed, out, index):
    """One set-up: boot a daemon and pre-build every client's session."""
    daemon = Daemon(os.path.join(work, "serve%d" % index), env)
    clients = [Client(daemon, i, seed, out)
               for i in range(min(CLIENTS, os.cpu_count() or 1))]
    threads = [threading.Thread(target=c.prebuild) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return daemon, clients


def daemon_spans(client, trace_id):
    """Per-layer seconds of one iteration from the daemon's ``/trace``."""
    status, reply, _ = client.call("GET", "/trace?trace_id=" + trace_id)
    client.check(status == 200, "trace: %s" % status)
    out = {}
    for span in reply.get("spans", ()):
        metric = DAEMON_SPANS.get(span.get("name"))
        if metric:
            out[metric] = out.get(metric, 0.0) + span["dur"] / 1e6
    return out


def closed_loop(clients, until, rows, traced):
    """Run every client's closed loop until ``until`` (perf_counter)."""

    def loop(client):
        while time.perf_counter() < until:
            trace_id = uuid.uuid4().hex if traced else None
            try:
                row = client.iteration(trace_id)
                if trace_id:
                    row.update(daemon_spans(client, trace_id))
            except (OSError, http.client.HTTPException) as exc:
                client.check(False, "iteration %d: %r" % (client.n, exc))
                return
            rows.append(row)

    threads = [threading.Thread(target=loop, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def run(args, work, env, out, recorder=None):
    setups, daemon, clients, rows = [], None, [], []
    # The sampler's loop runs in this process while the daemon works,
    # so it sees the host's speed on the cores the daemon is using.
    with SpeedSampler() as sampler:
        try:
            for index in range(SETUP_REPEATS):
                if daemon is not None:
                    for c in clients:
                        c.close()
                    daemon.stop()
                t0 = time.perf_counter()
                daemon, clients = start(work, env, args.seed, out, index)
                t1 = time.perf_counter()
                setups.append((t1 - t0) * sampler.scale(t0, t1))
            out.end_to_end["setup_s"] = median(setups)
            t0 = time.perf_counter()
            closed_loop(clients, t0 + args.seconds, rows,
                        recorder is not None)
            t1 = time.perf_counter()
            peak = daemon.peak_rss_mb()
        finally:
            for c in clients:
                c.close()
            if daemon is not None:
                daemon.stop()

    spans = [s for c in clients for s in c.spans]
    if not spans:
        raise BenchError("no edit iteration completed")
    if recorder is None:
        latencies = [(b - a) * sampler.scale(a, b) for a, b in spans]
        p50, p90 = percentile(latencies, 50), percentile(latencies, 90)
        rate = len(spans) / ((t1 - t0) * sampler.scale(t0, t1))
        out.end_to_end.update({
            "throughput_per_s": rate,
            "latency_ms_p50": p50 * 1000,
            "latency_ms_p90": p90 * 1000,
            "peak_rss_mb": peak,
        })
        out.detail.update({
            "edits_per_s": rate,
            "edit_to_sim_ms_p50": p50 * 1000,
            "edit_to_sim_ms_p90": p90 * 1000,
            "host_edit_to_sim_ms_p50":
                percentile([b - a for a, b in spans], 50) * 1000,
            "samples": len(spans), "clients": len(clients),
        })
        return
    per = {}
    for row in rows:
        for k, v in row.items():
            per[k] = per.get(k, 0) + v
    hits, misses = per.pop("build.hits"), per.pop("build.misses")
    out.per_layer.update({k: v / len(rows) for k, v in per.items()})
    out.per_layer["build.cache_hit_ratio"] = hits / (hits + misses)
    out.detail["iterations"] = len(rows)
