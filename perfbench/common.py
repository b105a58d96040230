"""Shared plumbing: paths, child processes, statistics, host record."""

import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: How many times each run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3


class BenchError(Exception):
    """The benchmark cannot run here (no program, a set-up failed)."""


class Outcome:
    """What one workload run measured.

    ``end_to_end`` and ``per_layer`` map metric names to values;
    ``attempted``/``failed`` count operations and output checks, and
    ``detail`` carries the workload's own named figures for the
    human-readable line (sample counts, each workload's own metric
    names).
    """

    def __init__(self):
        self.end_to_end = {}
        self.per_layer = {}
        self.detail = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._lock = threading.Lock()  # client threads check concurrently

    def check(self, ok, what):
        """Count one attempted operation or output comparison."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(what)
        return ok


def child_env(work_dir):
    """Environment for program subprocesses: the checkout's ``src`` on
    the path, unbuffered output, temporary files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = os.path.join(work_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def timed_probe(args, env, timeout=170):
    """Run ``python3 setup_probe.py ARGS`` and time process start to
    its ``ready`` line.  Returns ``(seconds, info dict)``: interpreter
    start-up in host seconds plus the rest at the reference speed, as
    the probe's own :class:`SpeedSampler` measured it."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py")] + args
    t0 = time.monotonic()  # the probe reports ready on the same clock
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("set-up probe timed out")
    if proc.returncode != 0:
        raise BenchError("set-up probe failed:\n" + err[-2000:])
    for line in out.splitlines():
        if line.startswith("ready "):
            info = json.loads(line[len("ready "):])
            startup = info["ready_at"] - t0 - info["busy_s"]
            return startup + info["busy_normalized_s"], info
    raise BenchError("set-up probe printed no ready line")


#: Iterations of the reference loop one speed sample runs, and the
#: seconds it takes on the reference host.  Every timed figure is
#: rescaled to that host's speed by samples taken next to it, so a
#: shared host whose speed drifts from minute to minute (by a third on
#: a shared 2-vCPU VM) moves the work and the loop alike and drops out
#: of the ratio.
SAMPLE_N = 200000
SAMPLE_REFERENCE_S = 0.01


class SpeedSampler:
    """Samples the measuring thread's own speed while it works.

    A host that slows one core for a few seconds at a time is invisible
    to calibrations taken before and after a long call, and a loop on
    another core does not see it either.  So, while the sampler is
    active, a ``SIGALRM`` every ``PERIOD_S`` runs ``SAMPLE_N``
    iterations of the reference loop in the main thread and records
    when and for how long.  When the main thread does the measured work
    itself, :meth:`normalized` takes an interval's host seconds, removes
    the samples' own time and rescales the rest by the median sample
    near it.  When the work runs in other processes (the serve daemon),
    the samples compete with it for the same cores, and :meth:`scale`
    rescales the interval as a whole.  The program under test is not
    touched; at most it is paused.
    """

    PERIOD_S = 0.25

    def __init__(self):
        self.samples = []  # (perf_counter start, time.time start, seconds)
        self._previous = None
        self._active = False

    def _sample(self):
        wall, t0 = time.time(), time.perf_counter()
        acc = 0
        for i in range(SAMPLE_N):
            acc += i & 7
        self.samples.append((t0, wall, time.perf_counter() - t0))

    def _tick(self, signum, frame):
        self._sample()
        if self._active:
            # One-shot timers re-armed here never overlap a sample, even
            # when the host stalls the process for longer than a period.
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S)

    def __enter__(self):
        # A sample at each end: even work shorter than a period has one.
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scale(self, start, end, clock=0):
        """Reference seconds per host second around ``[start, end]``;
        ``clock`` 0 reads the interval on ``perf_counter``, 1 on
        ``time.time``."""
        margin = 2 * self.PERIOD_S  # a short interval holds few samples
        near = [s for s in self.samples
                if start - margin <= s[clock] <= end + margin] or sorted(
            self.samples, key=lambda s: abs(s[clock] - start))[:2]
        return SAMPLE_REFERENCE_S / statistics.median([s[2] for s in near])

    def normalized(self, start, end, clock=0):
        """Reference seconds of work the sampled thread did itself in
        ``[start, end]``: the samples' own time is taken out."""
        inside = sum(s[2] for s in self.samples if start <= s[clock] <= end)
        return (end - start - inside) * self.scale(start, end, clock)


def percentile(values, pct):
    """The ``pct``-th percentile, interpolated between samples (never
    extrapolated past the largest, as the exclusive method does)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid):
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def host_record(seed):
    return {"nproc": os.cpu_count() or 1,
            "python": platform.python_version(),
            "seed": seed}
