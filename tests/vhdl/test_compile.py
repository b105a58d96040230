"""Compiler front-end tests: units, declarations, diagnostics."""

import gc
import os

import pytest

from repro.ag import Token
from repro.ag.lr.parser import ParseTree
from repro.vhdl.compiler import CompileError, Compiler

from .helpers import compile_messages, compile_ok


class TestUnits:
    def test_entity_and_architecture(self):
        c, res = compile_ok("""
            entity e is
              port ( a : in bit; b : out bit );
            end e;
            architecture rtl of e is
            begin
              b <= a;
            end rtl;
        """)
        assert res.unit_names() == ["e", "rtl"]
        assert c.library.find_unit("work", "e").entry_kind == "entity"
        arch = c.library.find_architecture("work", "e", "rtl")
        assert arch.entity_name == "e"

    def test_package_and_body(self):
        c, res = compile_ok("""
            package util is
              constant width : integer := 8;
              function clamp (x : integer) return integer;
            end util;
            package body util is
              function clamp (x : integer) return integer is
              begin
                if x > width then
                  return width;
                end if;
                return x;
              end clamp;
            end util;
        """)
        pkg = c.library.find_unit("work", "util")
        assert pkg.entry_kind == "package"
        names = [getattr(d, "name", "") for d in pkg.decls]
        assert "width" in names and "clamp" in names
        body = c.library.find_package_body("work", "util")
        assert body is not None

    def test_strict_mode_raises(self):
        c = Compiler(strict=True)
        with pytest.raises(CompileError):
            c.compile("""
                entity e is end e;
                architecture a of e is
                  signal s : no_such_type;
                begin
                end a;
            """)

    def test_missing_entity_reported(self):
        _c, msgs = compile_messages("""
            architecture a of ghost is
            begin
            end a;
        """)
        assert any("ghost" in m for m in msgs)

    @pytest.mark.parametrize("kind, source", [
        ("entity", "entity e is end wrong;"),
        ("architecture", """
            entity e is end e;
            architecture rtl of e is begin end wrong;"""),
        ("package", "package p is end wrong;"),
        ("package body", """
            package p is end p;
            package body p is end wrong;"""),
        ("configuration", """
            entity e is end e;
            architecture rtl of e is begin end rtl;
            configuration cfg of e is for rtl end for; end wrong;"""),
    ])
    def test_mismatched_closing_name_reported(self, kind, source):
        _c, msgs = compile_messages(source)
        assert len(msgs) == 1, msgs
        assert msgs[0].startswith("line ")
        assert "%s " % kind in msgs[0]
        assert "closed as 'wrong'" in msgs[0]

    def test_closing_name_matches_in_any_case(self):
        compile_ok("""
            ENTITY E IS END e;
            architecture RTL of e is begin end Rtl;
            package P is end p;
            package body p is end P;
            configuration Cfg of e is for rtl end for; end CFG;
        """)

    def test_closing_name_may_be_omitted(self):
        compile_ok("""
            entity e is end;
            architecture rtl of e is begin end;
            package p is end;
            package body p is end;
            configuration cfg of e is for rtl end for; end;
        """)

    def test_source_line_count_convention(self):
        c = Compiler(strict=False)
        res = c.compile("""
            -- comment only

            entity e is end e;
        """)
        assert res.source_lines == 1


class TestDeclarations:
    def test_enum_type(self):
        c, _ = compile_ok("""
            package p is
              type state is (idle, run, halt);
            end p;
        """)
        pkg = c.library.find_unit("work", "p")
        st = [d for d in pkg.decls
              if getattr(d, "name", "") == "state"][0]
        assert st.literals == ["idle", "run", "halt"]

    def test_integer_and_subtype(self):
        c, _ = compile_ok("""
            package p is
              type small is range 0 to 15;
              subtype tiny is small range 0 to 3;
            end p;
        """)
        pkg = c.library.find_unit("work", "p")
        names = {getattr(d, "name", "") for d in pkg.decls}
        assert {"small", "tiny"} <= names

    def test_array_types(self):
        c, _ = compile_ok("""
            package p is
              type word is array (15 downto 0) of bit;
              type mem is array (natural range <>) of integer;
            end p;
        """)
        pkg = c.library.find_unit("work", "p")
        word = [d for d in pkg.decls
                if getattr(d, "name", "") == "word"][0]
        assert word.index_range.length() == 16
        mem = [d for d in pkg.decls
               if getattr(d, "name", "") == "mem"][0]
        assert mem.index_range is None

    def test_record_type(self):
        c, _ = compile_ok("""
            package p is
              type pair is record
                x : integer;
                y : integer;
              end record;
            end p;
        """)
        pkg = c.library.find_unit("work", "p")
        pair = [d for d in pkg.decls
                if getattr(d, "name", "") == "pair"][0]
        assert pair.field_names == ["x", "y"]

    def test_constant_requires_static_visibility(self):
        _c, msgs = compile_messages("""
            package p is
              constant c : integer := nothing + 1;
            end p;
        """)
        assert any("nothing" in m for m in msgs)

    def test_unconstrained_object_needs_initial_value(self):
        _c, msgs = compile_messages("""
            entity e is end e;
            architecture a of e is
              signal s : bit_vector;
            begin
            end a;
        """)
        assert any("unconstrained" in m for m in msgs)

    def test_duplicate_record_field_reported(self):
        _c, msgs = compile_messages("""
            package p is
              type r is record
                x : integer;
                x : bit;
              end record;
            end p;
        """)
        assert any("duplicate" in m for m in msgs)


class TestGeneratedCode:
    COUNTER = """
        entity e is
          port ( clk : in bit; q : out integer );
        end e;
        architecture rtl of e is
          signal n : integer := 0;
        begin
          process (clk)
          begin
            if clk = '1' then
              n <= n + 1;
            end if;
          end process;
          q <= n;
        end rtl;
    """

    def test_python_model_compiles(self):
        import ast

        c, _ = compile_ok(self.COUNTER)
        arch = c.library.find_architecture("work", "e", "rtl")
        ast.parse(arch.py_source)
        assert "def elaborate(ctx):" in arch.py_source
        assert "rt.assign(s_n" in arch.py_source

    def test_c_model_emitted(self):
        c, _ = compile_ok(self.COUNTER)
        arch = c.library.find_architecture("work", "e", "rtl")
        assert "#include" in arch.c_source
        assert "elaborate_rtl" in arch.c_source
        assert "kernel_assign(" in arch.c_source

    def test_vif_stored_and_dumpable(self):
        c, _ = compile_ok(self.COUNTER)
        text = c.library.dump_vif("work", "rtl(e)")
        assert "ArchUnit" in text
        assert "EntityUnit" in text or "@work.e" in text

    def test_sensitivity_process_gets_final_wait(self):
        c, _ = compile_ok(self.COUNTER)
        arch = c.library.find_architecture("work", "e", "rtl")
        assert "yield rt.wait([p_clk], None, None)" in arch.py_source

    def test_process_without_wait_diagnosed(self):
        _c, msgs = compile_messages("""
            entity e is end e;
            architecture a of e is
              signal s : bit;
            begin
              process
              begin
                s <= '1';
              end process;
            end a;
        """)
        assert any("no wait statement" in m for m in msgs)

    def test_wait_in_sensitivity_process_diagnosed(self):
        _c, msgs = compile_messages("""
            entity e is end e;
            architecture a of e is
              signal s : bit;
            begin
              process (s)
              begin
                wait for 1 ns;
              end process;
            end a;
        """)
        assert any("sensitivity list cannot contain wait" in m
                   for m in msgs)


class TestTypeChecking:
    def test_type_mismatch_in_assignment(self):
        _c, msgs = compile_messages("""
            entity e is end e;
            architecture a of e is
              signal s : bit;
            begin
              s <= 42;
            end a;
        """)
        assert any("bit" in m for m in msgs)

    def test_operator_type_error(self):
        _c, msgs = compile_messages("""
            entity e is end e;
            architecture a of e is
              signal s : integer := 0;
              signal b : bit;
            begin
              process (b)
              begin
                s <= s + b;
              end process;
            end a;
        """)
        assert any("'+'" in m or "+" in m for m in msgs)

    def test_condition_must_be_boolean(self):
        _c, msgs = compile_messages("""
            entity e is end e;
            architecture a of e is
              signal s : integer := 0;
            begin
              process
              begin
                if s then
                  s <= 0;
                end if;
                wait;
              end process;
            end a;
        """)
        assert any("boolean" in m for m in msgs)

    def test_case_completeness_diagnosed(self):
        _c, msgs = compile_messages("""
            entity e is end e;
            architecture a of e is
              signal s : bit := '0';
              signal q : bit;
            begin
              process (s)
              begin
                case s is
                  when '0' => q <= '1';
                end case;
              end process;
            end a;
        """)
        assert any("cover" in m for m in msgs)

    def test_reading_out_port_rejected(self):
        _c, msgs = compile_messages("""
            entity e is
              port ( q : out bit );
            end e;
            architecture a of e is
              signal s : bit;
            begin
              s <= q;
            end a;
        """)
        assert any("cannot be read" in m for m in msgs)


class TestCompileResultUnitNames:
    """Regression: unnamed units used to map to a silent "?"."""

    def test_named_units(self):
        c = Compiler(strict=False)
        res = c.compile("entity e is end e;")
        assert res.unit_names() == ["e"]

    def test_unnamed_unit_raises_clear_diagnostic(self):
        from repro.vhdl.compiler import CompileResult

        class Nameless:
            name = ""

        res = CompileResult([Nameless()], [], {}, 0, 0)
        with pytest.raises(CompileError, match="unnamed"):
            res.unit_names()
        # repr stays safe even for the pathological case.
        assert "<unnamed>" in repr(res)


class TestAcyclicTrees:
    """Parse trees hold no back links, so a compile's trees (the
    file's and every cascaded LEF re-parse) are freed by reference
    counting and never reach the cyclic collector."""

    DEMO = os.path.join(os.path.dirname(__file__), "..", "..",
                        "examples", "metrics_demo.vhd")

    def test_compile_leaves_no_tree_in_cyclic_garbage(self, tmp_path):
        # Warm the translators first: their one-time construction is
        # not what this test is about.
        Compiler(root=str(tmp_path / "warm")).compile_file(self.DEMO)
        gc.collect()
        debug = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            Compiler(root=str(tmp_path / "lib")).compile_file(self.DEMO)
            gc.collect()
            leaked = [type(o).__name__ for o in gc.garbage
                      if isinstance(o, (ParseTree, Token))]
        finally:
            gc.set_debug(debug)
            gc.garbage.clear()
        assert leaked == []
