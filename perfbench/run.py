"""The repo benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload cold_build|sim_long|edit_loop \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the metrics are the end-to-end ones listed in
``BENCHMARK.json``, with ``--trace 1`` (a separate run, spans and
counters around the program's public functions) the per-layer ones.
The line before it is a human-readable record of the run: the host,
the seed, every metric under the workload's own name, sample counts,
the error rate and any failed check.  Without the program's sources
(``src/repro``) it exits with code 2 and prints no result.
"""

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

WORKLOADS = ("cold_build", "sim_long", "edit_loop")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_exact(workload, seed, per_layer):
    """Compare this seed's exact counters with the first traced run of
    the same seed in this checkout; return how many differ."""
    from layers import EXACT

    counts = {name: per_layer.get(name, 0) for name in EXACT}
    path = os.path.join(common.WORK, "exact",
                        "%s-%d.json" % (workload, seed))
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(counts, f, sort_keys=True)
        return 0
    with open(path) as f:
        first = json.load(f)
    differ = sorted(n for n in EXACT if first.get(n) != counts[n])
    for name in differ:
        print("perfbench: FLAG nondeterministic %s: %r then %r"
              % (name, first.get(name), counts[name]), file=sys.stderr)
    return len(differ)


def main(argv):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print("perfbench: no program sources at %s" % common.SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    spec = load_spec()
    # A fixed path: source paths end up in VIF artifacts and models, so
    # the exact byte counters repeat only if the path does.
    work = os.path.join(common.WORK, "run-" + args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = common.child_env(work)
    os.environ["TMPDIR"] = env["TMPDIR"]
    out = common.Outcome()
    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
    try:
        module = __import__(args.workload)
        module.run(args, work, env, out, recorder)
    except common.BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = out.per_layer if args.trace else out.end_to_end
    if args.trace:
        values["exact.mismatches"] = check_exact(args.workload, args.seed,
                                                 values)
    missing = [m["name"] for m in wanted if m["name"] not in values
               and not args.trace]
    if missing:
        print("perfbench: workload did not measure %s" % missing,
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in wanted}
    record = dict(common.host_record(args.seed),
                  workload=args.workload, trace=args.trace,
                  error_rate=out.failed / max(out.attempted, 1),
                  failures=out.failures, **out.detail)
    print("perfbench: " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": out.failed == 0,
                      "attempted": out.attempted,
                      "failed": out.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
