"""Seeded VHDL workload generators for the repo benchmark.

Every generator takes an ``int`` seed and returns source text only; the
program under test sees nothing but these files.  The *shape* of each
design (unit counts, statement templates per process, instance counts)
is fixed, and the seed picks names' constants, literal values and the
order of the statement templates.  That keeps the per-line cost of a
compile steady from seed to seed, so throughput figures from different
seeds are comparable, while still giving every seed different sources.

The construct mix follows ``benchmarks/workloads.py`` (packages with
constants, an enumeration type and functions; entities with generics
and ports; architectures with local functions, clocked processes,
conditional and selected signal assignments; structural tops with
component instances and configuration units), made heavier on
expressions because the expression AG (the cascaded ``exprEval``) is
the layer the paper spends its evaluator work on.
"""

import random

NS = 10 ** 6  # femtoseconds per nanosecond (the runtime's TIME unit)

#: Statement templates of one clocked process; every process uses each
#: template a fixed number of times (in a seeded order), so the mix of
#: constructs is the same for every seed.
_TEMPLATES = ("step", "arith", "ifelse", "loop", "pkgfn", "case",
              "blend", "pkgconst")


def count_lines(text):
    """Figure 2's counting convention: no blanks, no comments."""
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.strip().startswith("--"))


# -- packages -----------------------------------------------------------------


def package_source(name, rng, kscale):
    """A package with constants, an enumeration and six functions.

    ``kscale`` is the constant the edit loop rewrites: every leaf that
    uses the package folds it into its ``probe`` output.
    """
    L = ["package %s is" % name,
         "  constant kscale : integer := %d;" % kscale]
    for i in range(10):
        L.append("  constant k%d : integer := %d;"
                 % (i, rng.randrange(1, 90)))
    L.append("  type mode_t is (m_off, m_low, m_high, m_max);")
    for i in range(6):
        L.append("  function f%d (x : integer) return integer;" % i)
    L.append("end %s;" % name)
    L.append("")
    L.append("package body %s is" % name)
    for i in range(6):
        a, b, m = rng.randrange(2, 9), rng.randrange(1, 50), \
            rng.choice((997, 991, 983))
        L += ["  function f%d (x : integer) return integer is" % i,
              "    variable t : integer := 0;",
              "  begin",
              "    t := (x * %d + k%d) mod %d;" % (a, i, m),
              "    for j in 0 to 2 loop",
              "      t := (t + j * %d) mod %d;" % (b, m),
              "    end loop;",
              "    if t > %d then" % (m // 2),
              "      return t - %d;" % (m // 3),
              "    end if;",
              "    return t;",
              "  end f%d;" % i]
    L.append("end %s;" % name)
    return "\n".join(L) + "\n"


# -- leaves -------------------------------------------------------------------


def _statement(kind, rng, n_signals):
    """One statement of a clocked process (list of lines, no indent)."""
    s = lambda: "s%d" % rng.randrange(n_signals)  # noqa: E731
    c = lambda lo=1, hi=60: rng.randrange(lo, hi)  # noqa: E731
    m = rng.choice((1013, 1009, 1021))
    if kind == "step":
        return ["v := step(v mod %d, %s + %d);" % (m, s(), c())]
    if kind == "arith":
        return ["w := (v * %d + %s - %d) mod %d;" % (c(2, 9), s(), c(), m)]
    if kind == "ifelse":
        return ["if w > %d then" % c(400, 600),
                "  v := v - %d;" % c(),
                "elsif w < %d then" % c(100, 300),
                "  v := v + %d;" % c(),
                "else",
                "  v := (v + w) mod %d;" % m,
                "end if;"]
    if kind == "loop":
        return ["for j in 0 to 3 loop",
                "  w := (w + j * %d) mod %d;" % (c(), m),
                "end loop;"]
    if kind == "pkgfn":
        return ["v := f%d(w) mod %d;" % (rng.randrange(6), m)]
    if kind == "case":
        return ["case st is",
                "  when idle => w := w + %d;" % c(),
                "  when busy => w := (w * 2) mod %d;" % m,
                "  when others => w := w - %d;" % c(),
                "end case;"]
    if kind == "blend":
        return ["w := blend(v, w, %d);" % c()]
    if kind == "pkgconst":
        return ["v := (v + k%d * %d) mod %d;" % (rng.randrange(10), c(2, 5),
                                                 m)]
    raise ValueError(kind)


def leaf_source(name, pkg, rng, bias, n_processes=5, per_template=3,
                n_signals=6):
    """An expression-heavy leaf entity + architecture.

    ``probe`` is the observable the edit loop checks: a tally that adds
    ``bias + kscale`` on every rising clock edge, so after ``E`` edges
    it reads ``E * (bias + kscale)``.  ``bias`` is an architecture-body
    constant (a body-only edit); ``kscale`` comes from the package.
    """
    L = ["use work.%s.all;" % pkg,
         "entity %s is" % name,
         "  generic ( width : integer := 8 );",
         "  port ( clk : in bit; rst : in bit; din : in integer;",
         "         dout : out integer; probe : out integer );",
         "end %s;" % name,
         "",
         "architecture rtl of %s is" % name,
         "  constant bias : integer := %d;" % bias,
         "  type state_t is (idle, busy, hold, flush);",
         "  signal st : state_t := idle;"]
    for i in range(n_signals):
        L.append("  signal s%d : integer := %d;" % (i, rng.randrange(50)))
    L += ["  signal sel : integer := 0;",
          "  signal acc : integer := 0;",
          "  signal tally : integer := 0;",
          "  function step (x : integer; y : integer) return integer is",
          "  begin",
          "    if x > y then",
          "      return x - y;",
          "    end if;",
          "    return x + y;",
          "  end step;",
          "  function blend (a : integer; b : integer; c : integer)"
          " return integer is",
          "    variable t : integer := 0;",
          "  begin",
          "    t := (a * 3 + b) mod 997;",
          "    for j in 0 to 3 loop",
          "      t := (t + c * j) mod 991;",
          "    end loop;",
          "    return t;",
          "  end blend;",
          "begin"]
    for p in range(n_processes):
        kinds = list(_TEMPLATES) * per_template
        rng.shuffle(kinds)
        L += ["  p%d : process (clk)" % p,
              "    variable v : integer := %d;" % rng.randrange(20),
              "    variable w : integer := 0;",
              "  begin",
              "    if clk'event and clk = '1' then"]
        for kind in kinds:
            L += ["      " + line
                  for line in _statement(kind, rng, n_signals)]
        L += ["      if rst = '1' then",
              "        v := 0;",
              "      end if;",
              "      s%d <= (v + w) mod width;" % ((p + 1) % n_signals),
              "    end if;",
              "  end process;"]
    L += ["  fsm : process (clk)",
          "  begin",
          "    if clk'event and clk = '1' then",
          "      case st is",
          "        when idle => st <= busy;",
          "        when busy => st <= hold;",
          "        when hold => st <= flush;",
          "        when others => st <= idle;",
          "      end case;",
          "      tally <= tally + bias + kscale;",
          "    end if;",
          "  end process;",
          "  with st select",
          "    sel <= (s0 + %d) mod width when idle," % rng.randrange(1, 9),
          "      (s1 * 2) mod width when busy,",
          "      0 when others;",
          "  acc <= (sel + din) mod 1021 when st = busy else"
          " (s1 - s2) mod 1021;",
          "  dout <= acc;",
          "  probe <= tally;",
          "end rtl;"]
    return "\n".join(L) + "\n"


# -- structural tops + configurations ----------------------------------------


def top_source(name, leaves):
    """A structural top chaining ``leaves`` plus its configuration
    ``<name>_cfg`` binding every instance explicitly."""
    L = ["entity %s is" % name, "end %s;" % name, "",
         "architecture struct of %s is" % name]
    for leaf in leaves:
        L += ["  component %s" % leaf,
              "    generic ( width : integer := 8 );",
              "    port ( clk : in bit; rst : in bit; din : in integer;",
              "           dout : out integer; probe : out integer );",
              "  end component;"]
    L += ["  signal clk : bit := '0';",
          "  signal rst : bit := '0';",
          "  signal d0 : integer := 1;"]
    for i in range(len(leaves)):
        L.append("  signal d%d : integer := 0;" % (i + 1))
        L.append("  signal p%d : integer := 0;" % i)
    L += ["begin",
          "  clock : process",
          "  begin",
          "    clk <= not clk after 5 ns;",
          "    wait on clk;",
          "  end process;"]
    for i, leaf in enumerate(leaves):
        L.append("  u%d : %s generic map ( width => %d )" % (i, leaf, 8 + i))
        L.append("    port map ( clk => clk, rst => rst, din => d%d,"
                 " dout => d%d, probe => p%d );" % (i, i + 1, i))
    L += ["end struct;", "",
          "configuration %s_cfg of %s is" % (name, name),
          "  for struct"]
    for i, leaf in enumerate(leaves):
        L += ["    for u%d : %s use entity work.%s(rtl);" % (i, leaf, leaf),
              "    end for;"]
    L += ["  end for;", "end %s_cfg;" % name]
    return "\n".join(L) + "\n"


class Project:
    """A generated multi-file project: ordered ``{file name: text}``
    plus what the edit loop needs to predict simulated values."""

    def __init__(self, files, units, tops, leaf_pkg, bias, kscale):
        self.files = files          # name -> text, in build order
        self.units = units          # name -> library keys it must yield
        self.tops = tops            # top name -> [leaf names]
        self.leaf_pkg = leaf_pkg    # leaf -> package name
        self.bias = bias            # leaf -> current bias
        self.kscale = kscale        # package -> current kscale

    def lines(self):
        return sum(count_lines(t) for t in self.files.values())

    def probe_expected(self, top, edges):
        """``p<i>`` of ``top`` after ``edges`` rising clock edges."""
        return {"p%d" % i: edges * (self.bias[leaf]
                                    + self.kscale[self.leaf_pkg[leaf]])
                for i, leaf in enumerate(self.tops[top])}


def project(seed, n_packages=3, n_leaves=24, n_tops=4, **leaf_kw):
    """The ``cold_build`` project (about 10k Figure-2 lines at the
    defaults); smaller settings give the ``edit_loop`` project."""
    rng = random.Random(seed)
    files, units, leaf_pkg, bias, kscale = {}, {}, {}, {}, {}
    pkgs = ["pkg%d" % i for i in range(n_packages)]
    for p in pkgs:
        kscale[p] = rng.randrange(1, 40)
        files[p + ".vhd"] = package_source(p, rng, kscale[p])
        units[p + ".vhd"] = [p, "body(%s)" % p]
    leaves = ["leaf%d" % i for i in range(n_leaves)]
    for i, leaf in enumerate(leaves):
        leaf_pkg[leaf] = pkgs[i % n_packages]
        bias[leaf] = rng.randrange(1, 60)
        files[leaf + ".vhd"] = leaf_source(leaf, leaf_pkg[leaf], rng,
                                           bias[leaf], **leaf_kw)
        units[leaf + ".vhd"] = [leaf, "rtl(%s)" % leaf]
    per_top = n_leaves // n_tops
    tops = {}
    for t in range(n_tops):
        name = "top%d" % t
        tops[name] = leaves[t * per_top:(t + 1) * per_top]
        files[name + ".vhd"] = top_source(name, tops[name])
        units[name + ".vhd"] = [name, "struct(%s)" % name, name + "_cfg"]
    return Project(files, units, tops, leaf_pkg, bias, kscale)


def rising_edges(until_ns):
    """Rising clock edges at or before ``until_ns`` for the tops'
    ``clk <= not clk after 5 ns`` generator (edges at 5, 15, 25 ...)."""
    return 0 if until_ns < 5 else (until_ns - 5) // 10 + 1


class Edit:
    """One seeded edit of the edit loop: the file it rewrites."""

    def __init__(self, kind, target, file_name, text):
        self.kind = kind            # "body" or "package"
        self.target = target        # leaf or package name
        self.file_name = file_name
        self.text = text


def next_edit(proj, rng, package):
    """Mutate ``proj`` by one edit and return it.

    A ``package`` edit rewrites one package's ``kscale`` (its interface
    digest changes, so every leaf using it recompiles); otherwise the
    edit rewrites one leaf's body-only ``bias`` constant (the early
    cutoff keeps the tops cached).
    """
    if package:
        pkg = rng.choice(sorted(proj.kscale))
        old = proj.kscale[pkg]
        new = old % 39 + 1
        proj.kscale[pkg] = new
        name = pkg + ".vhd"
        text = proj.files[name].replace(
            "constant kscale : integer := %d;" % old,
            "constant kscale : integer := %d;" % new, 1)
        kind, target = "package", pkg
    else:
        leaf = rng.choice(sorted(proj.bias))
        old = proj.bias[leaf]
        new = old % 59 + 1
        proj.bias[leaf] = new
        name = leaf + ".vhd"
        text = proj.files[name].replace(
            "constant bias : integer := %d;" % old,
            "constant bias : integer := %d;" % new, 1)
        kind, target = "body", leaf
    if text == proj.files[name]:
        raise RuntimeError("edit of %s did not apply" % name)
    proj.files[name] = text
    return Edit(kind, target, name, text)


# -- the sim_long design ------------------------------------------------------


class SimDesign:
    """The ``sim_long`` source plus the parameters its reference model
    (:func:`perfbench.model.sim_long_expected`) needs."""

    def __init__(self, text, cells, starters, stages, mix, period,
                 step, top="mixed"):
        self.text = text
        self.cells = cells
        self.starters = starters    # ring cells whose init run fires
        self.stages = stages        # pipeline stage constants k_i
        self.mix = mix              # (a, b, m) of mix(x, k)
        self.period = period        # stimulus wait-for period, ns
        self.step = step            # stimulus increment
        self.top = top


def sim_design(seed, cells=600, tokens=4, n_stages=16):
    """A large sparse token ring next to a clocked helper-calling
    pipeline with a resolved bus and a timeout-wait stimulus.

    The ring's processes (``wait on c_i; c_j <= 1 - c_j after 1 ns``)
    compile to the compiled backend's pure fast path.  The pipeline
    stages call the package function ``mix``, the stimulus waits with
    a timeout and ``bus0`` is a resolved multi-driver signal; all of
    those stay on the generic event-kernel path.  With ``tokens`` ring
    events per ns against ``n_stages`` stage events per 10 ns clock
    period, about a quarter of all events take the generic path.
    """
    rng = random.Random(seed)
    stride = cells // tokens
    offset = rng.randrange(stride)
    starters = [offset + j * stride for j in range(tokens)]
    stages = [rng.randrange(1, 100) for _ in range(n_stages)]
    mix = (rng.randrange(2, 9), rng.randrange(1, 90), 1009)
    # An even stimulus period never meets a rising edge (5 + 10n ns);
    # it is fixed so every seed has the same event mix.
    period = 14
    step = rng.randrange(1, 50)
    L = ["package pl_pkg is",
         "  function mix (x : integer; k : integer) return integer;",
         "end pl_pkg;",
         "package body pl_pkg is",
         "  function mix (x : integer; k : integer) return integer is",
         "  begin",
         "    return (x * %d + k + %d) mod %d;" % mix,
         "  end mix;",
         "end pl_pkg;",
         "",
         "use work.pl_pkg.all;",
         "entity stage is",
         "  generic ( k : integer := 1 );",
         "  port ( clk : in bit; din : in integer; dout : out integer );",
         "end stage;",
         "architecture rtl of stage is",
         "begin",
         "  tick : process",
         "  begin",
         "    wait until clk = '1' for 100 ns;",
         "    dout <= mix(din, k);",
         "  end process;",
         "end rtl;",
         "",
         "entity mixed is",
         "end mixed;",
         "architecture sim of mixed is",
         "  component stage",
         "    generic ( k : integer := 1 );",
         "    port ( clk : in bit; din : in integer; dout : out integer );",
         "  end component;",
         "  function wired_or (bits : bit_vector) return bit is",
         "  begin",
         "    for i in bits'range loop",
         "      if bits(i) = '1' then",
         "        return '1';",
         "      end if;",
         "    end loop;",
         "    return '0';",
         "  end wired_or;",
         "  subtype rbit is wired_or bit;",
         "  signal clk : bit := '0';",
         "  signal src : integer := 0;",
         "  signal bus0 : rbit := '0';",
         "  signal hits : integer := 0;"]
    for i in range(n_stages + 1):
        L.append("  signal d%d : integer := 0;" % i)
    for i in range(cells):
        L.append("  signal c_%d : integer := 0;" % i)
    L += ["begin",
          "  clock : process",
          "  begin",
          "    clk <= not clk after 5 ns;",
          "    wait on clk;",
          "  end process;",
          "  stim : process",
          "  begin",
          "    wait for %d ns;" % period,
          "    src <= (src + %d) mod 1009;" % step,
          "  end process;",
          "  d0 <= src;"]
    for i, k in enumerate(stages):
        L.append("  u%d : stage generic map ( k => %d )"
                 " port map ( clk => clk, din => d%d, dout => d%d );"
                 % (i, k, i, i + 1))
    L += ["  drv0 : bus0 <= '1' when d%d mod 2 = 1 else '0';" % n_stages,
          "  drv1 : bus0 <= '1' when src mod 3 = 0 else '0';",
          "  mon : process (bus0)",
          "  begin",
          "    if bus0 = '1' then",
          "      hits <= hits + 1;",
          "    end if;",
          "  end process;"]
    starter_set = set(starters)
    for i in range(cells):
        j = (i + 1) % cells
        if i in starter_set:
            L.append("  r_%d : process (c_%d) begin c_%d <= 1 - c_%d"
                     " after 1 ns; end process;" % (i, i, j, j))
        else:
            L.append("  r_%d : process begin wait on c_%d; c_%d <= 1 - c_%d"
                     " after 1 ns; end process;" % (i, i, j, j))
    L.append("end sim;")
    return SimDesign("\n".join(L) + "\n", cells, starters, stages, mix,
                     period, step)
