"""End-to-end incremental build scenarios (the tentpole's acceptance
surface): no-op rebuilds are free, layout edits still hit, interface
changes cascade exactly as far as they must, reference libraries are
never rebuilt, and parallel builds are byte-identical to serial."""

import glob
import os

import pytest

from repro.build import BuildError, IncrementalBuilder, driver
from repro.vhdl.elaborate import Elaborator

NS = 10**6

PKG = """
package util is
  constant width : integer := 8;
  function bump (x : integer) return integer;
end util;
"""

PKG_BODY = """
package body util is
  function bump (x : integer) return integer is
  begin
    return x + 1;
  end bump;
end util;
"""

ENT = """
entity leaf is
  generic ( delta : integer := 1 );
  port ( x : in integer; y : out integer );
end leaf;
"""

ARCH_PLUS = """
architecture plus of leaf is
begin
  y <= x + delta;
end plus;
"""

ARCH_MINUS = """
architecture minus of leaf is
begin
  y <= x - delta;
end minus;
"""

TOP = """
entity top is end top;
architecture bench of top is
  component leaf
    generic ( delta : integer := 1 );
    port ( x : in integer; y : out integer );
  end component;
  signal a : integer := 10;
  signal b : integer := 0;
begin
  u1 : leaf port map ( x => a, y => b );
end bench;
"""


def write(path, text):
    with open(str(path), "w") as f:
        f.write(text)
    return str(path)


@pytest.fixture()
def project(tmp_path):
    files = [
        write(tmp_path / "pkg.vhd", PKG),
        write(tmp_path / "pkg_body.vhd", PKG_BODY),
        write(tmp_path / "ent.vhd", ENT),
        write(tmp_path / "plus.vhd", ARCH_PLUS),
        write(tmp_path / "minus.vhd", ARCH_MINUS),
        write(tmp_path / "top.vhd", TOP),
    ]
    return files, str(tmp_path / "libs")


def artifacts(root):
    """Relative path -> bytes of every artifact (manifest excluded)."""
    out = {}
    for path in sorted(glob.glob(os.path.join(root, "**", "*"),
                                 recursive=True)):
        if os.path.isfile(path) and "build.state" not in path:
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


class TestColdAndWarm:
    def test_cold_build_compiles_everything(self, project):
        files, root = project
        report = IncrementalBuilder(root).build(files)
        assert report.ok, report.summary()
        assert set(report.paths("compiled")) == set(files)
        assert report.stats["hits"] == 0

    def test_warm_noop_rebuild_is_all_hits_zero_ag_evals(self, project):
        """The acceptance bar: a no-change rebuild performs zero AG
        evaluations — verified by the cache-stats accounting."""
        files, root = project
        IncrementalBuilder(root).build(files)
        report = IncrementalBuilder(root).build(files)
        assert set(report.paths("hit")) == set(files)
        assert report.paths("compiled") == []
        assert report.stats["ag_evaluations"] == 0
        assert report.stats["hits"] == len(files)
        assert report.stats["misses"] == 0

    def test_whitespace_and_comment_edit_still_hits(self, project):
        files, root = project
        IncrementalBuilder(root).build(files)
        with open(files[3]) as f:
            text = f.read()
        write(files[3],
              "-- edited comment only\n" + text.replace("\n", "\n\n"))
        report = IncrementalBuilder(root).build(files)
        assert report.paths("compiled") == []
        assert report.stats["ag_evaluations"] == 0

    def test_force_rebuilds_everything(self, project):
        files, root = project
        IncrementalBuilder(root).build(files)
        report = IncrementalBuilder(root).build(files, force=True)
        assert set(report.paths("compiled")) == set(files)

    def test_missing_artifact_triggers_rebuild(self, project):
        files, root = project
        IncrementalBuilder(root).build(files)
        os.unlink(os.path.join(root, "work", "leaf.vif.json"))
        report = IncrementalBuilder(root).build(files)
        assert str(files[2]) in report.paths("compiled")

    def test_corrupt_manifest_degrades_to_cold(self, project):
        files, root = project
        IncrementalBuilder(root).build(files)
        with open(os.path.join(root, "build.state.json"), "w") as f:
            f.write("not json at all {{{")
        report = IncrementalBuilder(root).build(files)
        assert report.ok
        assert set(report.paths("compiled")) == set(files)


class TestInvalidation:
    def test_entity_interface_change_invalidates_architectures(
            self, project):
        files, root = project
        IncrementalBuilder(root).build(files)
        write(files[2], ENT.replace(
            "y : out integer );", "y : out integer; z : out bit );"))
        report = IncrementalBuilder(root).build(files)
        compiled = set(report.paths("compiled"))
        assert files[2] in compiled           # the entity itself
        assert files[3] in compiled           # arch plus
        assert files[4] in compiled           # arch minus
        assert files[5] not in compiled       # top: component-bound
        assert report.stats["invalidated"] >= 2
        assert "interface of work.leaf changed" in \
            report.reasons[files[3]]

    def test_package_body_change_early_cutoff(self, project):
        """Editing a *body* rebuilds only that file: the package
        declaration's interface digest is untouched, so users of the
        package stay cached."""
        files, root = project
        IncrementalBuilder(root).build(files)
        write(files[1], PKG_BODY.replace("x + 1", "x + 2"))
        report = IncrementalBuilder(root).build(files)
        assert report.paths("compiled") == [files[1]]
        assert report.stats["ag_evaluations"] == 1

    def test_package_constant_change_invalidates_users(self, tmp_path):
        pkg = write(tmp_path / "p.vhd",
                    "package p is constant k : integer := 3; end p;")
        user = write(tmp_path / "u.vhd", """
            use work.p.all;
            entity u is end u;
            architecture a of u is
              signal n : integer := k;
            begin
            end a;
        """)
        root = str(tmp_path / "libs")
        IncrementalBuilder(root).build([pkg, user])
        write(pkg, "package p is constant k : integer := 4; end p;")
        report = IncrementalBuilder(root).build([pkg, user])
        assert set(report.paths("compiled")) == {pkg, user}
        builder = IncrementalBuilder(root)
        sim = Elaborator(builder.library()).elaborate("u")
        sim.run(until_fs=NS)
        assert sim.value("n") == 4

    def test_failed_file_skips_dependents(self, tmp_path):
        pkg = write(tmp_path / "p.vhd",
                    "package p is constant k : integer := not_a_name; "
                    "end p;")
        user = write(tmp_path / "u.vhd", """
            use work.p.all;
            entity u is end u;
            architecture a of u is
            begin
            end a;
        """)
        root = str(tmp_path / "libs")
        report = IncrementalBuilder(root).build([pkg, user])
        assert not report.ok
        assert report.actions[pkg] == "failed"
        assert report.actions[user] == "skipped"
        # Fixing the package rebuilds both.
        write(pkg, "package p is constant k : integer := 1; end p;")
        report = IncrementalBuilder(root).build([pkg, user])
        assert report.ok, report.summary()
        assert set(report.paths("compiled")) == {pkg, user}


class TestSourceSnapshot:
    def test_compiles_the_text_it_fingerprinted(self, tmp_path,
                                                monkeypatch):
        """An edit saved between fingerprinting and compiling must not
        put the new units in the library under the old fingerprint:
        reverting the edit would then read as a cache hit over them."""
        v1 = """
            entity s is end s;
            architecture a of s is
              signal n : integer := 1;
            begin
            end a;
        """
        src = write(tmp_path / "s.vhd", v1)
        root = str(tmp_path / "libs")
        file_batches = driver.file_batches

        def edit_after_fingerprint(paths, deps):
            write(src, v1.replace(":= 1", ":= 2"))
            return file_batches(paths, deps)

        monkeypatch.setattr(driver, "file_batches",
                            edit_after_fingerprint)
        IncrementalBuilder(root).build([src])
        monkeypatch.undo()
        write(src, v1)
        builder = IncrementalBuilder(root)
        assert builder.build([src]).paths("hit") == [src]
        sim = Elaborator(builder.library()).elaborate("s")
        sim.run(until_fs=NS)
        assert sim.value("n") == 1


class TestCompileOrder:
    def test_latest_architecture_follows_rebuild_order(self, project):
        """§3.3's usage-history default, incrementally: recompiling
        one architecture file moves it to the end of the recorded
        compile order, so it becomes the default binding."""
        files, root = project
        IncrementalBuilder(root).build(files)
        builder = IncrementalBuilder(root)
        sim = Elaborator(builder.library()).elaborate("top")
        sim.run(until_fs=NS)
        assert sim.value("b") == 9  # minus.vhd compiled after plus.vhd

        # A real edit to plus.vhd makes plus the latest architecture.
        write(files[3], ARCH_PLUS.replace("x + delta", "x + delta + 0"))
        report = IncrementalBuilder(root).build(files)
        assert report.paths("compiled") == [files[3]]
        builder = IncrementalBuilder(root)
        sim = Elaborator(builder.library()).elaborate("top")
        sim.run(until_fs=NS)
        assert sim.value("b") == 11

        # And a warm rebuild leaves the order (and behavior) alone.
        IncrementalBuilder(root).build(files)
        builder = IncrementalBuilder(root)
        sim = Elaborator(builder.library()).elaborate("top")
        sim.run(until_fs=NS)
        assert sim.value("b") == 11


class TestReferenceLibraries:
    def test_reference_library_never_rebuilt(self, tmp_path):
        root = str(tmp_path / "libs")
        # Populate a vendor library directly (a previous delivery).
        from repro.vhdl.compiler import Compiler
        from repro.vhdl.library import LibraryManager

        vendor_lib = LibraryManager(root=root, work="vendor")
        Compiler(library=vendor_lib, work="vendor").compile(
            "package cells is constant cellcount : integer := 5; "
            "end cells;")
        vendor_before = artifacts(os.path.join(root, "vendor"))

        src = write(tmp_path / "use_vendor.vhd", """
            library vendor;
            use vendor.cells.all;
            entity e is end e;
            architecture a of e is
              signal n : integer := cellcount;
            begin
            end a;
        """)
        builder = IncrementalBuilder(root, reference_libs=("vendor",))
        report = builder.build([src])
        assert report.ok, report.summary()
        # Vendor artifacts are bit-for-bit untouched, and a warm
        # rebuild of the user is a hit.
        assert artifacts(os.path.join(root, "vendor")) == vendor_before
        report = IncrementalBuilder(
            root, reference_libs=("vendor",)).build([src])
        assert report.paths("hit") == [src]
        assert report.stats["ag_evaluations"] == 0


class TestParallel:
    def test_parallel_build_matches_serial_byte_for_byte(self, project):
        files, _ = project
        base = os.path.dirname(files[0])
        serial_root = os.path.join(base, "serial-libs")
        parallel_root = os.path.join(base, "parallel-libs")
        r1 = IncrementalBuilder(serial_root, jobs=1).build(files)
        r2 = IncrementalBuilder(parallel_root, jobs=2).build(files)
        assert r1.ok and r2.ok
        a, b = artifacts(serial_root), artifacts(parallel_root)
        assert a.keys() == b.keys()
        assert [k for k in a if a[k] != b[k]] == []

    def test_parallel_schedule_batches_independent_files(self, project):
        files, root = project
        report = IncrementalBuilder(root, jobs=2).build(files)
        assert report.ok
        flat = [p for batch in report.batches for p in batch]
        assert sorted(flat) == sorted(files)
        # plus/minus/top can only run after ent/pkg...
        batch_of = {p: i for i, batch in enumerate(report.batches)
                    for p in batch}
        assert batch_of[files[2]] < batch_of[files[3]]
        assert batch_of[files[2]] < batch_of[files[4]]
        assert batch_of[files[0]] < batch_of[files[1]]
        # ... and the independent architectures share a batch.
        assert batch_of[files[3]] == batch_of[files[4]]


class TestErrors:
    def test_root_is_required(self):
        with pytest.raises(BuildError):
            IncrementalBuilder(None)

    def test_missing_input_file(self, tmp_path):
        builder = IncrementalBuilder(str(tmp_path / "libs"))
        with pytest.raises(BuildError):
            builder.build([str(tmp_path / "nope.vhd")])

    def test_empty_input(self, tmp_path):
        builder = IncrementalBuilder(str(tmp_path / "libs"))
        with pytest.raises(BuildError):
            builder.build([])
