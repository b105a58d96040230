"""Phase tracing: spans, Chrome export, and cross-process merging.

Includes the acceptance test that ``repro build --jobs 2 --profile``
emits one well-formed merged Chrome trace containing spans recorded by
at least two worker processes.
"""

import json
import os

import pytest

from repro.cli import main
from repro.diag import Tracer
from repro.diag.trace import load_trace, merge_traces


class TestTracer:
    def test_phase_records_complete_event(self):
        tracer = Tracer()
        with tracer.phase("scan", file="a.vhd"):
            pass
        (event,) = tracer.events
        assert event["name"] == "scan"
        assert event["ph"] == "X"
        assert event["pid"] == os.getpid()
        assert event["dur"] >= 0.0
        assert event["args"] == {"file": "a.vhd"}

    def test_phase_yields_event_with_duration(self):
        tracer = Tracer()
        with tracer.phase("parse") as ev:
            pass
        assert ev["dur"] == tracer.events[0]["dur"]

    def test_event_recorded_even_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.phase("boom"):
                raise RuntimeError("x")
        assert tracer.events[0]["name"] == "boom"

    def test_instant_and_counter(self):
        tracer = Tracer()
        tracer.instant("cache-hit", path="a.vhd")
        tracer.counter("cache", {"hits": 3, "misses": 1})
        kinds = [e["ph"] for e in tracer.events]
        assert kinds == ["i", "C"]
        assert tracer.events[1]["args"] == {"hits": 3, "misses": 1}

    def test_phase_seconds_aggregates(self):
        tracer = Tracer()
        with tracer.phase("scan"):
            pass
        with tracer.phase("scan"):
            pass
        with tracer.phase("parse"):
            pass
        seconds = tracer.phase_seconds()
        assert set(seconds) == {"scan", "parse"}
        assert seconds["scan"] >= 0.0

    def test_summary_mentions_phases(self):
        tracer = Tracer()
        with tracer.phase("vif"):
            pass
        text = tracer.summary("compile profile")
        assert text.startswith("compile profile:")
        assert "vif" in text
        assert "x1" in text

    def test_tid_is_stable_small_index(self):
        """tid must be a stable per-thread index, not a truncated
        (collision-prone) get_ident()."""
        import threading

        from repro.trace import thread_index

        tracer = Tracer()
        with tracer.phase("a"):
            pass
        with tracer.phase("b"):
            pass
        tids = {e["tid"] for e in tracer.events}
        assert tids == {thread_index()}
        assert tids != {threading.get_ident() & 0xFFFF} or \
            thread_index() == threading.get_ident() & 0xFFFF

    def test_phases_carry_span_identity(self):
        tracer = Tracer()
        with tracer.phase("outer"):
            with tracer.phase("inner"):
                pass
        inner, outer = tracer.events
        assert outer["trace_id"] == inner["trace_id"]
        assert inner["parent_id"] == outer["span_id"]
        assert outer["span_id"] != inner["span_id"]

    def test_phase_attaches_to_ambient_context(self):
        from repro.trace import SpanContext, use

        tracer = Tracer()
        root = SpanContext()
        with use(root):
            with tracer.phase("work"):
                pass
        (event,) = tracer.events
        assert event["trace_id"] == root.trace_id
        assert event["parent_id"] == root.span_id

    def test_complete_records_retroactive_span(self):
        from repro.trace import SpanContext

        tracer = Tracer()
        ctx = SpanContext()
        tracer.complete("queue_wait", 1000.0, 42.0, cat="serve",
                        ctx=ctx, job="j1")
        (event,) = tracer.events
        assert event["ph"] == "X"
        assert event["ts"] == 1000.0 and event["dur"] == 42.0
        assert event["span_id"] == ctx.span_id
        assert event["args"] == {"job": "j1"}

    def test_aggregation_safe_under_concurrent_append(self):
        """phase_seconds/summary snapshot under the lock; hammering
        them while another thread appends must never raise.  The
        writer stops after a fixed span count, so the reader's passes
        (each linear in the spans so far) stay bounded however the
        threads are scheduled."""
        import threading

        tracer = Tracer()
        stop = threading.Event()
        errors = []
        max_spans = 5000

        def writer():
            for _ in range(max_spans):
                if stop.is_set():
                    break
                with tracer.phase("spin"):
                    pass

        def reader():
            try:
                for _ in range(200):
                    tracer.phase_seconds()
                    tracer.summary("live")
                    tracer.chrome()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        t = threading.Thread(target=writer)
        t.start()
        try:
            reader()
        finally:
            stop.set()
            t.join(timeout=60)
        assert not t.is_alive()
        assert errors == []
        assert 0 < len(tracer.events) <= max_spans


class TestMerging:
    def fake_worker_events(self, pid):
        return [{"name": "attribute_evaluation", "cat": "phase",
                 "ph": "X", "ts": 100.0 + pid, "dur": 5.0,
                 "pid": pid, "tid": 1}]

    def test_add_events_merges_worker_pids(self):
        tracer = Tracer()
        with tracer.phase("schedule"):
            pass
        tracer.add_events(self.fake_worker_events(11111))
        tracer.add_events(self.fake_worker_events(22222))
        assert set(tracer.pids()) == {os.getpid(), 11111, 22222}
        assert len(tracer.events) == 3

    def test_add_events_copies(self):
        tracer = Tracer()
        original = self.fake_worker_events(1)
        tracer.add_events(original)
        tracer.events[0]["name"] = "mutated"
        assert original[0]["name"] == "attribute_evaluation"

    def test_merge_traces_sorts_by_timestamp(self):
        a = [{"name": "b", "ts": 5.0}]
        b = [{"name": "a", "ts": 1.0}, {"name": "c", "ts": 9.0}]
        merged = merge_traces(a, b)
        assert [e["name"] for e in merged] == ["a", "b", "c"]


class TestChromeExport:
    def test_chrome_shape(self):
        tracer = Tracer()
        with tracer.phase("scan"):
            pass
        doc = tracer.chrome()
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"

    def test_events_sorted_by_ts(self):
        tracer = Tracer()
        tracer.add_events([{"name": "late", "ts": 9e18, "ph": "X",
                            "dur": 1, "pid": 1, "tid": 1}])
        with tracer.phase("early"):
            pass
        names = [e["name"] for e in tracer.chrome()["traceEvents"]]
        assert names[-1] == "late"

    def test_write_and_load_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.phase("scan"):
            pass
        path = str(tmp_path / "trace.json")
        assert tracer.write(path) == path
        events = load_trace(path)
        assert events[0]["name"] == "scan"
        # no leftover temp files from the atomic-rename dance
        assert os.listdir(str(tmp_path)) == ["trace.json"]


ENTITY = """entity %(name)s is end %(name)s;
architecture a of %(name)s is
  signal x : integer := %(init)d;
begin
end a;
"""


def _write_project(tmp_path, n=3):
    files = []
    for i in range(n):
        p = tmp_path / ("e%d.vhd" % i)
        p.write_text(ENTITY % {"name": "e%d" % i, "init": i})
        files.append(str(p))
    return files


@pytest.fixture()
def collect():
    lines = []

    def out(text=""):
        lines.append(str(text))

    out.lines = lines
    return out


class TestBuildProfileTrace:
    """Acceptance: a parallel build writes one merged Chrome trace."""

    def test_build_profile_merged_trace(self, tmp_path, collect):
        from repro.build.scheduler import _fork_available

        files = _write_project(tmp_path)
        root = str(tmp_path / "libs")
        trace_path = str(tmp_path / "build-trace.json")
        rc = main(["--root", root, "--profile",
                   "--trace-out", trace_path,
                   "build", "--jobs", "2"] + files, out=collect)
        assert rc == 0
        events = load_trace(trace_path)
        assert events, "trace file must contain events"
        # well-formed: every complete event has the Chrome trace keys
        for event in events:
            assert "name" in event and "ph" in event and "ts" in event
            if event["ph"] == "X":
                for key in ("dur", "pid", "tid"):
                    assert key in event
        # one merged timeline: timestamp-sorted
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)
        # driver phases and per-file compile phases both present
        names = {e["name"] for e in events}
        assert "fingerprint" in names
        assert "attribute_evaluation" in names
        pids = {e["pid"] for e in events if "pid" in e}
        if _fork_available():
            # spans from >= 2 worker processes beyond the driver
            assert len(pids - {os.getpid()}) >= 2
        else:  # pragma: no cover - non-fork platforms
            assert pids == {os.getpid()}
        assert any("build profile" in line for line in collect.lines)

    def test_profile_without_trace_out_uses_default(
            self, tmp_path, collect):
        files = _write_project(tmp_path, n=1)
        root = str(tmp_path / "libs")
        rc = main(["--root", root, "--profile", "build"] + files,
                  out=collect)
        assert rc == 0
        default = os.path.join(root, "build-trace.json")
        assert os.path.exists(default)
        assert json.load(open(default))["traceEvents"]
        # the cyclic collector's share, per generation
        assert any(line.startswith("GC: gen0 ")
                   for line in collect.lines)

    def test_compile_trace_out(self, tmp_path, collect):
        files = _write_project(tmp_path, n=1)
        trace_path = str(tmp_path / "compile-trace.json")
        rc = main(["--root", str(tmp_path / "libs"),
                   "--trace-out", trace_path, "compile"] + files,
                  out=collect)
        assert rc == 0
        names = {e["name"] for e in load_trace(trace_path)}
        assert {"scan", "parse", "attribute_evaluation"} <= names
