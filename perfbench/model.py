"""Independent reference models of the simulated designs.

Written from the VHDL semantics of the generated sources, not from the
compiler or kernel: the benchmark never uses the program under test as
its own reference.
"""

from gen import rising_edges


def sim_long_expected(design, until_ns):
    """Final values of every checked ``sim_long`` signal at ``until_ns``.

    Ring: each starter's initialization run toggles its successor at
    1 ns, and every toggle of ``c_i`` toggles ``c_(i+1)`` one ns later,
    so a token launched at cell ``s`` toggles ``c_((s+k) mod N)`` at
    ``k`` ns.  Pipeline: the stimulus adds ``step`` every ``period`` ns
    (never on a rising edge, which fall on odd ns), and on each rising
    edge every stage takes ``mix(previous stage, k)`` at once.  The
    resolved ``bus0`` is the OR of its two drivers, and ``hits`` counts
    its rises (the first at time 0, when ``src mod 3 = 0``).
    """
    n = design.cells
    toggles = [0] * n
    for s in design.starters:
        for k in range(1, until_ns + 1):
            toggles[(s + k) % n] += 1
    values = {"c_%d" % i: t % 2 for i, t in enumerate(toggles)}

    a, b, m = design.mix
    period, step = design.period, design.step
    stages = design.stages
    d = [0] * (len(stages) + 1)

    def src_at(t):
        return (step * (t // period)) % m

    def bus(d_last, src):
        return 1 if d_last % 2 == 1 or src % 3 == 0 else 0

    # Time-ordered changes of bus0's inputs: stimulus times and edges.
    times = sorted(
        [(t, "stim") for t in range(period, until_ns + 1, period)]
        + [(5 + 10 * e, "edge") for e in range(rising_edges(until_ns))])
    level = bus(0, 0)
    hits = level  # the 0 -> 1 rise at time 0
    for t, kind in times:
        if kind == "edge":
            d[0] = src_at(t)
            d = [d[0]] + [(x * a + k + b) % m
                          for x, k in zip(d[:-1], stages)]
        new = bus(d[-1], src_at(t))
        if new and not level:
            hits += 1
        level = new
    src = src_at(until_ns)
    d[0] = src
    values.update({"d%d" % i: v for i, v in enumerate(d)})
    values.update({"src": src, "hits": hits,
                   "bus0": "1" if bus(d[-1], src) else "0"})
    return values
