"""Tests for waveform tracing and VCD export."""

from repro.sim import Kernel, VArray, format_fs
from repro.sim.tracing import WaveRecorder

NS = 10**6


def staircase_kernel():
    k = Kernel()
    s = k.signal("s", 0)
    rt = k.rt

    def proc():
        for v in (1, 2, 3):
            rt.assign(s, ((v, 10 * NS),))
            yield rt.wait(None, None, 10 * NS)

    k.process("p", proc)
    return k, s


class TestTracer:
    def test_records_changes(self):
        k, s = staircase_kernel()
        tracer = WaveRecorder(k, [s])
        k.run()
        assert tracer.changes(s) == [
            (0, 0), (10 * NS, 1), (20 * NS, 2), (30 * NS, 3)]

    def test_value_at(self):
        k, s = staircase_kernel()
        tracer = WaveRecorder(k, [s])
        k.run()
        assert tracer.value_at(s, 0) == 0
        assert tracer.value_at(s, 15 * NS) == 1
        assert tracer.value_at(s, 30 * NS) == 3

    def test_no_change_no_record(self):
        k = Kernel()
        s = k.signal("s", 5)
        rt = k.rt

        def proc():
            rt.assign(s, ((5, NS),))  # same value: active, no event
            yield rt.wait([], None, None)

        k.process("p", proc)
        tracer = WaveRecorder(k, [s])
        k.run()
        assert tracer.changes(s) == [(0, 5)]

    def test_ascii_wave(self):
        k, s = staircase_kernel()
        tracer = WaveRecorder(k, [s])
        k.run()
        text = tracer.ascii_wave(30 * NS, 10 * NS, image=str)
        assert "time(fs)" in text
        rows = text.splitlines()
        assert rows[1].startswith("s")
        assert rows[1].split()[-4:] == ["0", "1", "2", "3"]

    def test_default_traces_all_signals(self):
        k, s = staircase_kernel()
        k.signal("other", 9)
        tracer = WaveRecorder(k)
        assert len(tracer.signals) == 2


class TestVCD:
    def test_vcd_structure(self):
        k, s = staircase_kernel()
        tracer = WaveRecorder(k, [s])
        k.run()
        vcd = tracer.vcd()
        assert "$timescale 1 fs $end" in vcd
        assert "$var wire 32 ! s $end" in vcd
        assert "#10000000" in vcd
        assert vcd.count("b1 !") == 1  # value 1 once

    def test_vcd_array_signal(self):
        k = Kernel()
        v = VArray(3, "downto", 0, [0, 0, 0, 0])
        s = k.signal("bus", v)
        rt = k.rt

        def proc():
            rt.assign(s, ((VArray(3, "downto", 0, [1, 0, 1, 0]), NS),))
            yield rt.wait([], None, None)

        k.process("p", proc)
        tracer = WaveRecorder(k, [s])
        k.run()
        vcd = tracer.vcd()
        assert "$var wire 4" in vcd
        assert "b1010" in vcd

    def test_code_generation_unique(self):
        from repro.sim.tracing import _vcd_code

        codes = {_vcd_code(i) for i in range(500)}
        assert len(codes) == 500

    def test_extended_identifier_sanitized(self):
        """Regression: VHDL extended identifiers (``\\bus a\\``) and
        non-ASCII names used to leak spaces/backslashes/raw bytes into
        the ``$var`` reference, producing illegal VCD."""
        k = Kernel()
        s = k.signal(":top:\\bus a\\", 0)
        t = k.signal(":top:tempµ", 1)  # micro sign, non-ASCII
        rt = k.rt

        def proc():
            rt.assign(s, ((1, NS),))
            yield rt.wait([], None, None)

        k.process("p", proc)
        tracer = WaveRecorder(k, [s, t])
        k.run()
        vcd = tracer.vcd()
        var_lines = [l for l in vcd.splitlines()
                     if l.startswith("$var")]
        assert len(var_lines) == 2
        for line in var_lines:
            # "$var wire <w> <code> <ref> $end" — exactly 6 fields:
            # a space inside the reference would add more.
            assert len(line.split(" ")) == 6
            assert "\\" not in line
            assert all(33 <= ord(c) <= 126 or c == " " for c in line)
        assert "$var wire 32 ! top.bus_a $end" in vcd
        assert "$var wire 32 \" top.tempxB5 $end" in vcd

    def test_sanitizer_rules(self):
        from repro.sim.tracing import _vcd_ref

        assert _vcd_ref("s") == "s"
        assert _vcd_ref(":a:b") == "a.b"
        assert _vcd_ref("\\x y\\") == "x_y"
        assert _vcd_ref("") == "unnamed"
        assert _vcd_ref("café") == "cafxE9"


class TestFormatting:
    def test_format_fs(self):
        assert format_fs(5 * NS) == "5 ns"
        assert format_fs(0) == "0 fs"
        assert format_fs(123) == "123 fs"
