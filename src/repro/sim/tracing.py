"""Waveform tracing.

The paper's compiler fed the VantageSpreadsheet(TM) behavioral
simulation environment — an interactive tool over simulation results.
:class:`WaveRecorder` records every event on selected signals and can
render an ASCII waveform or export a VCD (Value Change Dump) file that
any wave viewer opens.
"""

from .runtime import VArray


class WaveRecorder:
    """Records (time, value) changes of a set of signals."""

    __slots__ = ("kernel", "signals", "history", "_watch")

    def __init__(self, kernel, signals=None):
        self.kernel = kernel
        self.signals = list(signals) if signals else list(kernel.signals)
        self.history = {sig: [(0, sig.value)] for sig in self.signals}
        #: Hot-path view: (signal, its history list) pairs, so
        #: ``on_cycle`` does no dict lookups per traced signal.
        self._watch = [(sig, self.history[sig]) for sig in self.signals]
        kernel.tracers.append(self)

    def on_cycle(self, now, step):
        # Called once per simulation cycle; the event test is an
        # inlined ``Signal.had_event`` (attribute compare).
        for sig, changes in self._watch:
            if sig.event_delta == step:
                changes.append((now, sig.value))

    # -- rendering -------------------------------------------------------------

    def changes(self, sig):
        """The recorded (time_fs, value) change list of one signal."""
        return list(self.history[sig])

    def value_at(self, sig, time_fs):
        """The signal's value as of ``time_fs`` (last change before)."""
        value = None
        for t, v in self.history[sig]:
            if t > time_fs:
                break
            value = v
        return value

    def ascii_wave(self, until_fs, step_fs, image=None):
        """A textual waveform table, one row per signal."""
        times = list(range(0, until_fs + 1, step_fs))
        lines = []
        header = "time(fs)".ljust(16) + " ".join(
            str(t).rjust(8) for t in times)
        lines.append(header)
        for sig in self.signals:
            render = image or sig.image or repr
            cells = [
                str(render(self.value_at(sig, t))).rjust(8)
                for t in times
            ]
            lines.append(sig.name.ljust(16) + " ".join(cells))
        return "\n".join(lines)

    def vcd(self, timescale="1 fs"):
        """A VCD document of the recorded changes."""
        out = [
            "$date repro trace $end",
            "$version repro.sim.tracing $end",
            "$timescale %s $end" % timescale,
            "$scope module top $end",
        ]
        codes = {}
        for i, sig in enumerate(self.signals):
            code = _vcd_code(i)
            codes[sig] = code
            width = (len(sig.value)
                     if isinstance(sig.value, VArray) else 32)
            safe = _vcd_ref(sig.name)
            out.append("$var wire %d %s %s $end" % (width, code, safe))
        out.append("$upscope $end")
        out.append("$enddefinitions $end")

        events = []
        for sig in self.signals:
            for t, v in self.history[sig]:
                events.append((t, sig, v))
        events.sort(key=lambda e: e[0])
        last_t = None
        for t, sig, v in events:
            if t != last_t:
                out.append("#%d" % t)
                last_t = t
            out.append(_vcd_value(v, codes[sig]))
        return "\n".join(out) + "\n"


def _vcd_ref(name):
    """Sanitize a signal name into a legal VCD reference.

    VCD reference names must be printable ASCII without whitespace.
    VHDL extended identifiers (``\\bus a\\``) may contain spaces,
    backslashes, and — via Latin-1 — non-ASCII characters, none of
    which survive a ``$var`` declaration; wave viewers choke on them.
    The hierarchy prefix ``:`` becomes ``.``, extended-identifier
    backslash delimiters are stripped, whitespace becomes ``_``, and
    any remaining character outside printable ASCII is hex-escaped so
    distinct names stay distinct.
    """
    segments = []
    for segment in name.lstrip(":").split(":"):
        if (len(segment) >= 2 and segment.startswith("\\")
                and segment.endswith("\\")):
            segment = segment[1:-1]  # extended-identifier delimiters
        out = []
        for ch in segment:
            if ch.isspace() or ch == "\\":
                out.append("_")
            elif "!" <= ch <= "~":
                out.append(ch)
            else:
                out.append("x%02X" % ord(ch))
        segments.append("".join(out))
    return ".".join(segments) or "unnamed"


def _vcd_code(i):
    """Short printable identifier codes, VCD style."""
    alphabet = "".join(chr(c) for c in range(33, 127))
    code = ""
    i += 1
    while i:
        i, rem = divmod(i - 1, len(alphabet))
        code = alphabet[rem] + code
    return code


def _vcd_value(value, code):
    if isinstance(value, VArray):
        bits = "".join(str(b) for b in value.elems)
        return "b%s %s" % (bits or "0", code)
    if isinstance(value, int):
        return "b%s %s" % (format(value & (2**32 - 1), "b"), code)
    return "b0 %s" % code

