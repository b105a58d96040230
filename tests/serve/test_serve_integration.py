"""Socket-level integration tests: a real ``repro serve`` instance.

Covers the PR's acceptance criteria: >= 8 concurrent mixed
compile/lint/sim requests with per-request isolation, a differential
check that served results are byte-identical to the one-shot CLI, and
a valid live Prometheus exposition including the ``serve_*`` series.
"""

import http.client
import json
import re
import socket
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main
from repro.serve import BackgroundServer
from repro.sim import BACKENDS

COUNTER = """
entity counter%(n)d is end counter%(n)d;
architecture rtl of counter%(n)d is
  signal n : integer := %(n)d;
begin
  process
  begin
    n <= n + %(n)d;
    wait for 10 ns;
  end process;
end rtl;
"""

BLINK = """
entity blink is end blink;
architecture rtl of blink is
  signal led : bit := '0';
  signal n : integer := 0;
begin
  process
  begin
    led <= not led;
    n <= n + 1;
    wait for 10 ns;
  end process;
end rtl;
"""


def request(port, method, path, body=None, timeout=120):
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def request_json(port, method, path, body=None):
    status, raw = request(port, method, path, body)
    return status, json.loads(raw)


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(workers=2, batch_window=0.005) as handle:
        yield handle


class TestServerBasics:
    def test_healthz_over_socket(self, server):
        status, data = request_json(server.port, "GET", "/healthz")
        assert status == 200
        assert data["ok"] is True

    def test_keep_alive_connection_reuse(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            for _ in range(3):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
        finally:
            conn.close()

    def test_malformed_request_gets_400(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            sock.sendall(b"BOGUS\r\n\r\n")
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400 ")


class TestDifferentialVsCLI:
    """Served results must be byte-identical to the one-shot CLI."""

    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_sim_report_matches_cli(self, server, tmp_path, backend):
        # One-shot CLI: compile + simulate into a scratch root.
        src = tmp_path / "blink.vhd"
        src.write_text(BLINK)
        root = str(tmp_path / "libs")
        cli_lines = []

        def out(text=""):
            cli_lines.append(str(text))

        assert main(["--root", root, "build", str(src)],
                    out=lambda *_: None) == 0
        assert main(["--root", root, "simulate", "blink",
                     "--until", "95ns", "--backend", backend],
                    out=out) == 0
        if backend == "compiled":
            # The codegen stats line carries a wall-clock time; the
            # service returns those stats as the "codegen" field.
            assert cli_lines.pop(0).startswith("codegen: ")

        # Same design through the service.
        session = "diff-%s" % backend
        status, data = request_json(
            server.port, "POST", "/compile",
            {"session": session,
             "files": [{"name": "blink.vhd", "text": BLINK}]})
        assert status == 200 and data["ok"] is True
        status, data = request_json(
            server.port, "POST", "/sim",
            {"session": session, "top": "blink", "until": "95ns",
             "backend": backend})
        assert status == 200 and data["ok"] is True
        assert data["backend"] == backend
        assert data["report_lines"] == cli_lines

    def test_compile_units_match_cli_build(self, server, tmp_path):
        source = COUNTER % {"n": 7}
        src = tmp_path / "counter7.vhd"
        src.write_text(source)
        root = str(tmp_path / "libs")
        assert main(["--root", root, "build", str(src)],
                    out=lambda *_: None) == 0
        from repro.build.cache import BuildCache

        cache = BuildCache(root).load()
        cli_units = sorted(tuple(u) for u in cache.compile_order)

        status, data = request_json(
            server.port, "POST", "/compile",
            {"session": "diff2",
             "files": [{"name": "counter7.vhd", "text": source}]})
        assert status == 200 and data["ok"] is True
        served_units = sorted(
            tuple(u) for r in data["results"] for u in r["units"])
        assert served_units == cli_units


class TestConcurrentMixedLoad:
    def test_eight_concurrent_mixed_requests(self, server):
        """>= 8 in-flight mixed jobs, each isolated per session."""
        port = server.port
        # Prime two sessions with a design the sims will target.
        for sid in ("mix-a", "mix-b"):
            status, data = request_json(
                port, "POST", "/compile",
                {"session": sid,
                 "files": [{"name": "blink.vhd", "text": BLINK}]})
            assert status == 200 and data["ok"] is True

        jobs = []
        for i in range(4):  # 4 compiles in 4 distinct sessions
            jobs.append(("POST", "/compile", {
                "session": "mix-c%d" % i,
                "files": [{"name": "counter%d.vhd" % (i + 1),
                           "text": COUNTER % {"n": i + 1}}]}))
        for sid in ("mix-a", "mix-b"):  # 2 sims
            jobs.append(("POST", "/sim", {
                "session": sid, "top": "blink", "until": "50ns"}))
        jobs.append(("POST", "/lint", {  # 2 lints
            "files": [{"name": "e.vhd",
                       "text": "entity e is end e;"}]}))
        jobs.append(("POST", "/lint", {"session": "mix-a"}))
        assert len(jobs) >= 8

        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            results = list(pool.map(
                lambda job: request_json(port, *job), jobs))

        for (method, path, body), (status, data) in zip(jobs,
                                                        results):
            assert status == 200, (path, data)

        # Compile isolation: each response covers only its own file
        # and registered only its own entity.
        for i in range(4):
            status, data = results[i]
            assert data["ok"] is True, data
            assert [r["path"] for r in data["results"]] \
                == ["counter%d.vhd" % (i + 1)]
            flat = [tuple(u) for r in data["results"]
                    for u in r["units"]]
            assert ("work", "counter%d" % (i + 1)) in flat
        # Sim isolation: both sims ran the blink design to 50 ns.
        for status, data in results[4:6]:
            assert data["ok"] is True
            assert data["report_lines"][0].startswith(
                "simulation stopped at 50 ns")
        # Lints resolved.
        assert results[6][1]["kind"] == "lint"
        assert results[7][1]["kind"] == "lint"

    def test_session_work_libraries_do_not_leak(self, server):
        """A unit compiled in one session is invisible to another."""
        status, data = request_json(
            server.port, "POST", "/compile",
            {"session": "leak-src",
             "files": [{"name": "secret.vhd",
                        "text": "entity secret is end secret;"}]})
        assert status == 200 and data["ok"] is True
        status, data = request_json(
            server.port, "POST", "/sim",
            {"session": "leak-dst", "top": "secret"})
        assert status == 200
        assert data["ok"] is False


class TestMetricsExposition:
    SAMPLE = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
        r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
        r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
        r" [0-9.eE+-]+(nan|inf)?$")

    def test_live_exposition_is_valid(self, server):
        status, raw = request(server.port, "GET", "/metrics")
        assert status == 200
        text = raw.decode("utf-8")
        helped, typed = set(), set()
        for line in text.splitlines():
            if line.startswith("# HELP "):
                helped.add(line.split()[2])
            elif line.startswith("# TYPE "):
                typed.add(line.split()[2])
            elif line.startswith("# exemplar "):
                # Slowest-observation exemplars ride as comments
                # (text format 0.0.4 has no native syntax for them).
                assert "trace_id=" in line and "value=" in line, line
            elif line:
                assert self.SAMPLE.match(line), line
        # Every serve_* family the PR promises is present and typed.
        for family in ("serve_requests_total", "serve_inflight",
                       "serve_request_seconds",
                       "serve_uptime_seconds", "serve_jobs_total",
                       "serve_batches_total"):
            assert any(t == family or t.startswith(family)
                       for t in typed), family
        assert helped  # HELP lines rendered too

    def test_job_counters_grow(self, server):
        def scrape():
            _, raw = request(server.port, "GET", "/metrics")
            counts = {}
            for line in raw.decode().splitlines():
                if line.startswith("serve_jobs_total{"):
                    name, _, value = line.rpartition(" ")
                    counts[name] = float(value)
            return counts

        before = scrape()
        status, data = request_json(
            server.port, "POST", "/sim",
            {"session": "mix-a", "top": "blink", "until": "10ns"})
        assert status == 200
        after = scrape()
        key = 'serve_jobs_total{kind="sim"}'
        assert after.get(key, 0) == before.get(key, 0) + 1


class TestGracefulShutdown:
    def test_stop_drains_and_frees_the_port(self):
        handle = BackgroundServer(workers=2)
        port = handle.port
        status, data = request_json(
            port, "POST", "/compile",
            {"files": [{"name": "e.vhd",
                        "text": "entity e is end e;"}]})
        assert status == 200 and data["ok"] is True
        handle.stop()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port),
                                     timeout=2).close()
