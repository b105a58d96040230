"""The target virtual machine (§2.1).

"The virtual machine consists of four modules: (1) Simulation Kernel,
(2) Runtime Support, (3) VHDL I/O, (4) Name Server."

- :mod:`repro.sim.kernel` — the simulation kernel: simulation-cycle
  semantics, delta cycles, activity-driven process scheduling (event
  calendar + signal fanout index; :class:`~repro.sim.kernel.ScanKernel`
  keeps the full-scan reference scheduler for differential testing).
- :mod:`repro.sim.compiled` / :mod:`repro.sim.codegen` — the compiled
  backend: per-design specialized code (flat signal storage, direct
  process dispatch, calendar-bypassing slot updates), byte-identical
  to the event kernel.
- :mod:`repro.sim.signals` — signals, drivers, projected output
  waveforms, preemption, bus resolution.
- :mod:`repro.sim.process` — processes and wait conditions.
- :mod:`repro.sim.runtime` — runtime support: all the predefined VHDL
  operations over runtime values, plus the per-process runtime facade
  (``rt``) generated code calls.
- :mod:`repro.sim.vhdlio` — VHDL I/O (assertion reporting and a
  TEXTIO-flavored write path).
- :mod:`repro.sim.nameserver` — "the means of identifying by name each
  object in the simulated system".
"""

from .kernel import Kernel, ScanKernel, SimulationError
from .compiled import CompiledKernel
from .signals import Signal
from .runtime import VArray, VRecord, ops
from .nameserver import NameServer
from .vhdlio import format_time as format_fs

__all__ = [
    "BACKENDS",
    "CompiledKernel",
    "Kernel",
    "NameServer",
    "ScanKernel",
    "Signal",
    "SimulationError",
    "VArray",
    "VRecord",
    "format_fs",
    "ops",
    "parse_time",
]

#: The simulation backends by name: the activity kernel (the default),
#: the per-design compiled backend (specialized by
#: ``compile_design`` before the first cycle) and the O(design)
#: reference scan.  ``repro simulate --backend``, serve's ``/sim`` and
#: :func:`repro.vhdl.elaborate.run_design` all read this one table.
BACKENDS = {"event": Kernel, "compiled": CompiledKernel,
            "scan": ScanKernel}

#: femtoseconds per time unit, primary unit first — the runtime's
#: representation of type TIME.
TIME_UNITS = (
    ("fs", 1),
    ("ps", 10**3),
    ("ns", 10**6),
    ("us", 10**9),
    ("ms", 10**12),
    ("sec", 10**15),
    ("min", 60 * 10**15),
    ("hr", 3600 * 10**15),
)


def parse_time(text):
    """'200ns' / '1 us' / '5000' (fs) -> femtoseconds."""
    text = text.strip().lower().replace(" ", "")
    for unit, scale in sorted(TIME_UNITS, key=lambda u: -len(u[0])):
        if text.endswith(unit):
            return int(float(text[: -len(unit)]) * scale)
    return int(text)
