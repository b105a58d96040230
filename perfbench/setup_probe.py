"""One cold set-up in a fresh interpreter, timed by the parent.

    python3 perfbench/setup_probe.py [--build SRC_FILE LIB_ROOT]

Imports the program, generates both translators (the paper's Linguist
step: the principal AG and the cascaded expression AG), optionally
builds one source file into an empty library root through
``IncrementalBuilder.build`` (the ``repro build`` path), then prints
``ready {json}`` carrying the monotonic clock reading at that point and
the set-up's seconds as sampled by a :class:`common.SpeedSampler`.
"""

import json
import sys
import time

from common import SpeedSampler


def main(argv):
    t0 = time.perf_counter()
    with SpeedSampler() as sampler:
        info = setup(argv)
        t1 = time.perf_counter()
    # Everything after interpreter start-up ran under the sampler.
    info["busy_s"] = t1 - t0
    info["busy_normalized_s"] = sampler.normalized(t0, t1)
    info["ready_at"] = time.monotonic()
    print("ready " + json.dumps(info), flush=True)
    return 0 if info["ok"] else 1


def setup(argv):
    from repro.build.driver import IncrementalBuilder
    from repro.sim import CompiledKernel  # noqa: F401  (import cost)
    from repro.vhdl.elaborate import Elaborator  # noqa: F401
    from repro.vhdl.expr_grammar import expr_grammar
    from repro.vhdl.grammar import principal_grammar

    t0 = time.perf_counter()
    principal_grammar()
    info = {"translator_s": time.perf_counter() - t0, "ok": True}
    expr_grammar()
    if argv[:1] == ["--build"]:
        source, root = argv[1], argv[2]
        report = IncrementalBuilder(root, jobs=1).build([source])
        info["ok"] = report.ok and not report.diagnostics
    return info


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
