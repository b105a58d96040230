"""The principal VHDL attribute grammar (§2.2, §4.1).

This AG describes the context-free and context-sensitive syntax of the
VHDL subset and specifies the simulation semantics as generated code.
It "does not contain semantic rules for most of the aspects of
compiling expressions; instead it merely synthesizes a simplified list
of tokens (LEF) that is input to the second AG" — expressions appear
here as *soup* nonterminals whose only job is to classify identifiers
through the applicative ENV and build LEF lists; every maximal
expression is handed to ``exprEval`` by the statement/declaration
rules.

Attribute classes (all completed by implicit rules, §4.2):

=========  =====  ==================================================
``MSGS``   syn    error messages; merge = concatenation, unit = ()
``LEF``    syn    LEF token fragments; merge = concatenation
``SRES``   syn    sequential-statement results; merge = SRes.merge
``CS``     syn    concurrent-statement results; merge = CStmt.merge
``ENV``    inh    the applicative environment (§4.3)
``CC``     inh    the compilation context (services)
``RESULT`` inh    expected function-result type (for return)
``SCOPE``  inh    name prefix of code generated inside a package
=========  =====  ==================================================

Each symbol carries only the attributes whose values can reach a goal
(lint rule RPA002 checks this).  ``CC`` lives on the units, the
declarations, the statements and the few phrases whose rules call a
compilation service themselves (subtype indications, constraints,
interfaces, configuration items); the expression soup and the lists
that only carry expressions to those rules take ``ENV`` alone.
"""

from ..ag import AGSpec, SYN, INH

from . import lef as L
from . import semantics_decl as D
from . import semantics_stmt as S
from . import semantics_unit as U
from .lexer import KEYWORDS, token_kinds
from .semantics_decl import DeclResult
from .semantics_stmt import SRes
from .semantics_unit import CStmt
from .stdpkg import standard


def _concat(a, b):
    return a + b


def _merge_decl(a, b):
    return DeclResult(b.env, a.code + b.code, a.entries + b.entries,
                      a.msgs + b.msgs, a.configs + b.configs)


def lef_line(lef_tokens, default=0):
    for tok in lef_tokens:
        if tok.line:
            return tok.line
    return default


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


def _declare_vocabulary(g):
    g.terminals(*token_kinds())

    g.attr_class("MSGS", SYN, merge=_concat, unit=())
    g.attr_class("LEF", SYN, merge=_concat, unit=())
    g.attr_class("SRES", SYN, merge=SRes.merge, unit=S.EMPTY)
    g.attr_class("CS", SYN, merge=CStmt.merge, unit=U.CSTMT_EMPTY)
    g.attr_class("ENV", INH)
    g.attr_class("CC", INH)
    g.attr_class("RESULT", INH)
    g.attr_class("SCOPE", INH)

    g.attr_group("CTXA", "ENV", "CC")
    g.attr_group("STMTA", "CTXA", "RESULT")

    # expression soup
    for nt in ("xp", "xtoks", "xtok", "inner", "initem", "nsoup"):
        g.nonterminal(nt, "LEF", "ENV")
    g.nonterminal("xp_opt", ("OPT", SYN), "ENV")

    # statements
    g.nonterminal("stmts", "SRES", "STMTA")
    g.nonterminal("stmt", "SRES", "STMTA")
    g.nonterminal("elsifs", ("ARMS", SYN), "STMTA")
    g.nonterminal("else_opt", ("BODY", SYN), "STMTA")
    g.nonterminal("case_alts", ("ALTS", SYN), "STMTA")
    g.nonterminal("case_alt", ("ALT", SYN), "STMTA")
    g.nonterminal("choices", ("CHS", SYN), "ENV")
    g.nonterminal("choice", ("CH", SYN), "ENV")
    g.nonterminal("when_opt", ("COND", SYN), "ENV")
    g.nonterminal("wave", ("WAVE", SYN), "ENV")
    g.nonterminal("wave_elem", ("WELEM", SYN), "ENV")
    g.nonterminal("wave_opts", ("WAVET", SYN), "ENV")
    g.nonterminal("name_list", ("NAMES", SYN), "ENV")
    g.nonterminal("wait_on_opt", ("NAMES", SYN), "ENV")
    g.nonterminal("wait_until_opt", ("OPT", SYN), "ENV")
    g.nonterminal("wait_for_opt", ("OPT", SYN), "ENV")
    g.nonterminal("report_opt", ("OPT", SYN), "ENV")
    g.nonterminal("severity_opt", ("OPT", SYN), "ENV")

    # declarations
    g.nonterminal("decls", ("RES", SYN), "CTXA", "SCOPE")
    g.nonterminal("decl", ("RES", SYN), "CTXA", "SCOPE")
    g.nonterminal("idlist", ("IDS", SYN))
    g.nonterminal("mark", ("PARTS", SYN), ("LINE", SYN))
    g.nonterminal("sub_ind", ("SUB", SYN), "CTXA")
    g.nonterminal("constraint_opt", ("CONSTR", SYN), "CTXA")
    g.nonterminal("init_opt", ("OPT", SYN), "ENV")
    g.nonterminal("enum_lits", ("LITS", SYN))
    g.nonterminal("rec_fields", ("FIELDS", SYN), "CTXA")
    g.nonterminal("iface_list", ("IFACE", SYN), "CTXA")
    g.nonterminal("iface", ("IFACE", SYN), "CTXA")
    g.nonterminal("iface_class", ("KW", SYN))
    g.nonterminal("mode_opt", ("KW", SYN))
    g.nonterminal("designator", ("NAME", SYN))
    g.nonterminal("params_opt", ("IFACE", SYN), "CTXA")
    g.nonterminal("signal_kind_opt", ("KW", SYN))
    g.nonterminal("sel_names", ("PATHS", SYN))
    g.nonterminal("sel_name", ("PARTS", SYN))
    g.nonterminal("inst_spec", ("SPEC", SYN))
    g.nonterminal("arch_ind_opt", ("NAME", SYN))

    # concurrent statements
    g.nonterminal("cstmts", "CS", "CTXA")
    g.nonterminal("cstmt", "CS", "CTXA")
    g.nonterminal("cstmt_body", "CS", ("LABEL", INH), "CTXA")
    g.nonterminal("sens_opt", ("NAMES", SYN), "ENV")
    g.nonterminal("gmap_opt", ("ASSOCS", SYN), "ENV")
    g.nonterminal("pmap_opt", ("ASSOCS", SYN), "ENV")
    g.nonterminal("assoc_list", ("ASSOCS", SYN), "ENV")
    g.nonterminal("assoc", ("ASSOC", SYN), "ENV")
    g.nonterminal("cond_waves", ("ARMS", SYN), "ENV")
    g.nonterminal("sel_waves", ("ARMS", SYN), "ENV")

    # units
    g.nonterminal("design_file", ("UNITS", SYN), "MSGS", "CC")
    g.nonterminal("design_units", ("UNITS", SYN), "MSGS", "CC")
    g.nonterminal("design_unit", ("UNIT", SYN), "MSGS", "CTXA")
    g.nonterminal("context_items", ("RES", SYN), ("CLAUSES", SYN),
                  "MSGS", "CTXA")
    g.nonterminal("context_item", ("RES", SYN), ("CLAUSE", SYN),
                  "MSGS", "CTXA")
    g.nonterminal("library_unit", ("UNIT", SYN), "MSGS", "CTXA")
    g.nonterminal("entity_unit", ("UNIT", SYN), "MSGS", "CTXA")
    g.nonterminal("arch_unit", ("UNIT", SYN), ("BUILD", SYN), "MSGS", "CTXA")
    g.nonterminal("package_unit", ("UNIT", SYN), ("BUILD", SYN), "MSGS", "CTXA")
    g.nonterminal("package_body_unit", ("UNIT", SYN), ("BUILD", SYN), "MSGS", "CTXA")
    g.nonterminal("config_unit", ("UNIT", SYN), ("BUILD", SYN), "MSGS", "CTXA")
    g.nonterminal("gen_clause_opt", ("IFACE", SYN), "CTXA")
    g.nonterminal("port_clause_opt", ("IFACE", SYN), "CTXA")
    g.nonterminal("id_opt", ("NAME", SYN))
    g.nonterminal("config_items", ("BINDS", SYN), "CC")
    g.nonterminal("config_item", ("BIND", SYN), "CC")

    g.set_start("design_file")


# ---------------------------------------------------------------------------
# expression soup: classification into LEF (§4.1)
# ---------------------------------------------------------------------------

#: operator/punctuation terminals that may appear inside expressions.
_SOUP_OPS = [
    "kw_and", "kw_or", "kw_nand", "kw_nor", "kw_xor", "kw_not",
    "kw_mod", "kw_rem", "kw_abs", "kw_to", "kw_downto",
    "EQ", "NE", "LT", "LE", "GT", "GE",
    "PLUS", "MINUS", "AMP", "STAR", "SLASH", "POW",
]


def _soup_productions(g):
    p = g.production("xp_toks", "xp -> xtoks")

    p = g.production("xtoks_one", "xtoks -> xtok")
    p = g.production("xtoks_more", "xtoks -> xtoks0 xtok")

    p = g.production("xtok_id", "xtok -> ID")
    p.rule("xtok.LEF", "ID.value", "xtok.ENV", "ID.line", "ID.text",
           fn=lambda name, env, line, text: (
               L.classify_id(name, env, line, text),))
    p = g.production("xtok_abstract", "xtok -> ABSTRACT")
    p.rule("xtok.LEF", "ABSTRACT.value", "ABSTRACT.text",
           "ABSTRACT.line",
           fn=lambda v, t, ln: (
               L.lef("REAL" if isinstance(v, float) else "INT",
                     t, v, ln),))
    p = g.production("xtok_char", "xtok -> CHAR")
    p.rule("xtok.LEF", "CHAR.value", "xtok.ENV", "CHAR.line",
           fn=lambda ch, env, ln: (L.classify_char(ch, env, ln),))
    p = g.production("xtok_string", "xtok -> STRING")
    p.rule("xtok.LEF", "STRING.value", "STRING.line",
           fn=lambda s, ln: (L.lef("STR", s, s, ln),))
    p = g.production("xtok_bitstring", "xtok -> BITSTRING")
    p.rule("xtok.LEF", "BITSTRING.value", "BITSTRING.line",
           fn=lambda s, ln: (L.lef("BITSTR", s, s, ln),))
    p = g.production("xtok_attr", "xtok -> TICK ID")
    p.rule("xtok.LEF", "ID.value", "TICK.line",
           fn=lambda name, ln: (L.lef("TICK", "'", "'", ln),
                                L.lef("RAWID", name, name, ln)))
    p = g.production("xtok_attr_range", "xtok -> TICK kw_range")
    p.rule("xtok.LEF", "TICK.line",
           fn=lambda ln: (L.lef("TICK", "'", "'", ln),
                          L.lef("RAWID", "range", "range", ln)))
    p = g.production("xtok_select", "xtok -> DOT ID")
    p.rule("xtok.LEF", "ID.value", "DOT.line",
           fn=lambda name, ln: (L.lef("DOT", ".", ".", ln),
                                L.lef("RAWID", name, name, ln)))
    p = g.production("xtok_qual", "xtok -> TICK LP inner RP")
    p.rule("xtok.LEF", "inner.LEF", "TICK.line",
           fn=lambda inner, ln: (L.lef("TICK", "'", "'", ln),
                                 L.lef("LP", "(", "(", ln))
           + tuple(inner) + (L.lef("RP", ")", ")", ln),))
    p = g.production("xtok_group", "xtok -> LP inner RP")
    p.rule("xtok.LEF", "inner.LEF", "LP.line",
           fn=lambda inner, ln: (L.lef("LP", "(", "(", ln),)
           + tuple(inner) + (L.lef("RP", ")", ")", ln),))
    for term in _SOUP_OPS:
        kind = term
        p = g.production("xtok_%s" % term.lower(), "xtok -> %s" % term)
        p.rule("xtok.LEF", "%s.text" % term, "%s.line" % term,
               fn=(lambda t=term: lambda text, ln: (
                   _op_lef(t, text, ln),))())

    p = g.production("inner_empty", "inner ->")
    p = g.production("inner_more", "inner -> inner0 initem")
    p = g.production("initem_tok", "initem -> xtok")
    p = g.production("initem_comma", "initem -> COMMA")
    p.rule("initem.LEF", "COMMA.line",
           fn=lambda ln: (L.lef("COMMA", ",", ",", ln),))
    p = g.production("initem_arrow", "initem -> ARROW")
    p.rule("initem.LEF", "ARROW.line",
           fn=lambda ln: (L.lef("ARROW", "=>", "=>", ln),))
    p = g.production("initem_bar", "initem -> BAR")
    p.rule("initem.LEF", "BAR.line",
           fn=lambda ln: (L.lef("BAR", "|", "|", ln),))
    p = g.production("initem_others", "initem -> kw_others")
    p.rule("initem.LEF", "kw_others.line",
           fn=lambda ln: (L.lef("OTHERS", "others", "others", ln),))
    p = g.production("initem_rangekw", "initem -> kw_range")
    p.rule("initem.LEF", "kw_range.line",
           fn=lambda ln: (L.lef("RANGEKW", "range", "range", ln),))
    p = g.production("initem_box", "initem -> BOX")
    p.rule("initem.LEF", "BOX.line",
           fn=lambda ln: (L.lef("BOX", "<>", "<>", ln),))

    # restricted name soup (assignment targets, call statements)
    p = g.production("nsoup_id", "nsoup -> ID")
    p.rule("nsoup.LEF", "ID.value", "nsoup.ENV", "ID.line", "ID.text",
           fn=lambda name, env, line, text: (
               L.classify_id(name, env, line, text),))
    p = g.production("nsoup_apply", "nsoup -> nsoup0 LP inner RP")
    p.rule("nsoup0.LEF", "nsoup1.LEF", "inner.LEF", "LP.line",
           fn=lambda pfx, inner, ln: tuple(pfx)
           + (L.lef("LP", "(", "(", ln),) + tuple(inner)
           + (L.lef("RP", ")", ")", ln),))
    p = g.production("nsoup_select", "nsoup -> nsoup0 DOT ID")
    p.rule("nsoup0.LEF", "nsoup1.LEF", "ID.value", "DOT.line",
           fn=lambda pfx, name, ln: tuple(pfx)
           + (L.lef("DOT", ".", ".", ln),
              L.lef("RAWID", name, name, ln)))
    p = g.production("nsoup_attr", "nsoup -> nsoup0 TICK ID")
    p.rule("nsoup0.LEF", "nsoup1.LEF", "ID.value", "TICK.line",
           fn=lambda pfx, name, ln: tuple(pfx)
           + (L.lef("TICK", "'", "'", ln),
              L.lef("RAWID", name, name, ln)))

    p = g.production("xp_opt_none", "xp_opt ->")
    p.const("xp_opt.OPT", None)
    p = g.production("xp_opt_some", "xp_opt -> xp")
    p.rule("xp_opt.OPT", "xp.LEF", fn=tuple)


_OP_KIND = {
    "kw_and": "AND", "kw_or": "OR", "kw_nand": "NAND",
    "kw_nor": "NOR", "kw_xor": "XOR", "kw_not": "NOT",
    "kw_mod": "MOD", "kw_rem": "REM", "kw_abs": "ABS",
    "kw_to": "TO", "kw_downto": "DOWNTO",
    "EQ": "EQ", "NE": "NE", "LT": "LT", "LE": "LE", "GT": "GT",
    "GE": "GE", "PLUS": "PLUS", "MINUS": "MINUS", "AMP": "AMP",
    "STAR": "STAR", "SLASH": "SLASH", "POW": "POW",
}


def _op_lef(term, text, line):
    return L.lef(_OP_KIND[term], text, text, line)


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------


def _decl_productions(g):
    p = g.production("decls_empty", "decls ->")
    p.rule("decls.RES", "decls.ENV", fn=lambda env: DeclResult(env))
    p = g.production("decls_more", "decls -> decls0 decl")
    p.rule("decl.ENV", "decls1.RES", fn=lambda res: res.env)
    p.rule("decls0.RES", "decls1.RES", "decl.RES", fn=_merge_decl)

    p = g.production("idlist_one", "idlist -> ID")
    p.rule("idlist.IDS", "ID.value", fn=lambda n: (n,))
    p = g.production("idlist_more", "idlist -> idlist0 COMMA ID")
    p.rule("idlist0.IDS", "idlist1.IDS", "ID.value",
           fn=lambda ns, n: ns + (n,))

    p = g.production("mark_id", "mark -> ID")
    p.rule("mark.PARTS", "ID.value", fn=lambda n: (n,))
    p.rule("mark.LINE", "ID.line", fn=lambda l: l)
    p = g.production("mark_sel", "mark -> mark0 DOT ID")
    p.rule("mark0.PARTS", "mark1.PARTS", "ID.value",
           fn=lambda ps, n: ps + (n,))
    p.rule("mark0.LINE", "mark1.LINE", fn=lambda l: l)

    # subtype indication: [resolution] mark [constraint]
    p = g.production("sub_plain", "sub_ind -> mark constraint_opt")
    p.rule("sub_ind.SUB", "mark.PARTS", "constraint_opt.CONSTR",
           "sub_ind.ENV", "sub_ind.CC", "mark.LINE",
           fn=lambda parts, constr, env, cc, line: _sub_ind(
               parts, None, constr, env, cc, line))
    p = g.production("sub_resolved",
                     "sub_ind -> mark0 mark1 constraint_opt")
    p.rule("sub_ind.SUB", "mark0.PARTS", "mark1.PARTS",
           "constraint_opt.CONSTR", "sub_ind.ENV", "sub_ind.CC",
           "mark1.LINE",
           fn=lambda res_parts, parts, constr, env, cc, line: _sub_ind(
               parts, res_parts, constr, env, cc, line))

    p = g.production("constr_none", "constraint_opt ->")
    p.const("constraint_opt.CONSTR", None)
    p = g.production("constr_range", "constraint_opt -> kw_range xp")
    p.rule("constraint_opt.CONSTR", "xp.LEF", "constraint_opt.ENV",
           "constraint_opt.CC",
           fn=lambda lef, env, cc: (
               "range", cc.eval_range(lef, env, lef_line(lef))))
    p = g.production("constr_index", "constraint_opt -> LP inner RP")
    p.rule("constraint_opt.CONSTR", "inner.LEF", "constraint_opt.ENV",
           "constraint_opt.CC", "LP.line",
           fn=lambda lef, env, cc, ln: (
               "index", cc.eval_range(lef, env, lef_line(lef, ln))))

    p = g.production("init_none", "init_opt ->")
    p.const("init_opt.OPT", None)
    p = g.production("init_some", "init_opt -> COLONEQ xp")
    p.rule("init_opt.OPT", "xp.LEF", fn=tuple)

    # objects ---------------------------------------------------------------
    for cls, label in (("constant", "kw_constant"),
                       ("variable", "kw_variable")):
        p = g.production(
            "decl_%s" % cls,
            "decl -> %s idlist COLON sub_ind init_opt SEMI" % label)
        p.rule("decl.RES", "idlist.IDS", "sub_ind.SUB", "init_opt.OPT",
               "decl.ENV", "decl.CC", "%s.line" % label, "decl.SCOPE",
               fn=(lambda c=cls: lambda ids, sub, init, env, cc, ln, sc:
                   _object_decl(c, ids, sub, init, env, cc, ln,
                                scope=sc))())
    p = g.production(
        "decl_signal",
        "decl -> kw_signal idlist COLON sub_ind signal_kind_opt "
        "init_opt SEMI")
    p.rule("decl.RES", "idlist.IDS", "sub_ind.SUB",
           "signal_kind_opt.KW", "init_opt.OPT", "decl.ENV", "decl.CC",
           "kw_signal.line", "decl.SCOPE",
           fn=lambda ids, sub, kind, init, env, cc, ln, sc: _object_decl(
               "signal", ids, sub, init, env, cc, ln, signal_kind=kind,
               scope=sc))

    p = g.production("sigkind_none", "signal_kind_opt ->")
    p.const("signal_kind_opt.KW", "")
    p = g.production("sigkind_register",
                     "signal_kind_opt -> kw_register")
    p.const("signal_kind_opt.KW", "register")
    p = g.production("sigkind_bus", "signal_kind_opt -> kw_bus")
    p.const("signal_kind_opt.KW", "bus")

    # types ---------------------------------------------------------------------
    p = g.production("decl_enum",
                     "decl -> kw_type ID kw_is LP enum_lits RP SEMI")
    p.rule("decl.RES", "ID.value", "enum_lits.LITS", "decl.ENV",
           "decl.CC", "kw_type.line", fn=D.enum_type_decl)
    p = g.production("enum_lits_one", "enum_lits -> ID")
    p.rule("enum_lits.LITS", "ID.value", fn=lambda n: (n,))
    p = g.production("enum_lits_one_c", "enum_lits -> CHAR")
    p.rule("enum_lits.LITS", "CHAR.value", fn=lambda c: (c,))
    p = g.production("enum_lits_more", "enum_lits -> enum_lits0 COMMA ID")
    p.rule("enum_lits0.LITS", "enum_lits1.LITS", "ID.value",
           fn=lambda ls, n: ls + (n,))
    p = g.production("enum_lits_more_c",
                     "enum_lits -> enum_lits0 COMMA CHAR")
    p.rule("enum_lits0.LITS", "enum_lits1.LITS", "CHAR.value",
           fn=lambda ls, c: ls + (c,))

    p = g.production("decl_int_type",
                     "decl -> kw_type ID kw_is kw_range xp SEMI")
    p.rule("decl.RES", "ID.value", "xp.LEF", "decl.ENV", "decl.CC",
           "kw_type.line",
           fn=lambda name, lef, env, cc, ln: D.integer_type_decl(
               name, cc.eval_range(lef, env, lef_line(lef, ln)),
               env, cc, ln))

    p = g.production(
        "decl_array_type",
        "decl -> kw_type ID kw_is kw_array LP inner RP kw_of sub_ind "
        "SEMI")
    p.rule("decl.RES", "ID.value", "inner.LEF", "sub_ind.SUB",
           "decl.ENV", "decl.CC", "kw_type.line", fn=_array_type)

    p = g.production(
        "decl_record_type",
        "decl -> kw_type ID kw_is kw_record rec_fields kw_end "
        "kw_record SEMI")
    p.rule("decl.RES", "ID.value", "rec_fields.FIELDS", "decl.ENV",
           "decl.CC", "kw_type.line", fn=D.record_type_decl)
    p = g.production("rec_fields_one",
                     "rec_fields -> idlist COLON sub_ind SEMI")
    p.rule("rec_fields.FIELDS", "idlist.IDS", "sub_ind.SUB",
           fn=lambda ids, sub: tuple((n, sub) for n in ids))
    p = g.production("rec_fields_more",
                     "rec_fields -> rec_fields0 idlist COLON sub_ind SEMI")
    p.rule("rec_fields0.FIELDS", "rec_fields1.FIELDS", "idlist.IDS",
           "sub_ind.SUB",
           fn=lambda fs, ids, sub: fs + tuple((n, sub) for n in ids))

    p = g.production("decl_subtype",
                     "decl -> kw_subtype ID kw_is sub_ind SEMI")
    p.rule("decl.RES", "ID.value", "sub_ind.SUB", "decl.ENV",
           "decl.CC", "kw_subtype.line", fn=D.subtype_decl)

    # aliases, attributes, components ----------------------------------------------
    p = g.production("decl_alias",
                     "decl -> kw_alias ID COLON sub_ind kw_is nsoup SEMI")
    p.rule("decl.RES", "ID.value", "sub_ind.SUB", "nsoup.LEF",
           "decl.ENV", "decl.CC", "kw_alias.line",
           fn=lambda name, sub, lef, env, cc, ln: D.alias_decl(
               name, sub, cc.eval_target(lef, env, ln), env, cc, ln))

    p = g.production("decl_attr",
                     "decl -> kw_attribute ID COLON mark SEMI")
    p.rule("decl.RES", "ID.value", "mark.PARTS", "decl.ENV", "decl.CC",
           "kw_attribute.line",
           fn=lambda name, parts, env, cc, ln: D.attribute_decl(
               name, D.resolve_mark(list(parts), env, cc, ln)[0],
               env, cc, ln))
    g.nonterminal("entity_class")
    for ecls in ("signal", "variable", "constant", "type", "entity",
                 "architecture", "component", "label", "function",
                 "procedure", "package"):
        g.production("eclass_%s" % ecls,
                     "entity_class -> kw_%s" % ecls)
    p = g.production(
        "decl_attr_spec",
        "decl -> kw_attribute ID kw_of ID COLON entity_class kw_is "
        "xp SEMI")
    p.rule("decl.RES", "ID0.value", "ID1.value", "xp.LEF", "decl.ENV",
           "decl.CC", "kw_attribute.line",
           fn=lambda attr, item, lef, env, cc, ln: D.attribute_spec(
               attr, item, cc.eval_expr(lef, env, ln), env, cc, ln))

    p = g.production(
        "decl_component",
        "decl -> kw_component ID gen_clause_opt port_clause_opt "
        "kw_end kw_component SEMI")
    p.rule("decl.RES", "ID.value", "gen_clause_opt.IFACE",
           "port_clause_opt.IFACE", "decl.ENV", "decl.CC",
           "kw_component0.line", fn=_component_decl)

    # subprograms -------------------------------------------------------------------
    p = g.production("designator_id", "designator -> ID")
    p.rule("designator.NAME", "ID.value", fn=lambda n: n)
    p = g.production("designator_op", "designator -> STRING")
    p.rule("designator.NAME", "STRING.value",
           fn=lambda s: '"%s"' % s.lower())

    p = g.production("params_none", "params_opt ->")
    p.const("params_opt.IFACE", ())
    p = g.production("params_some", "params_opt -> LP iface_list RP")
    p.rule("params_opt.IFACE", "iface_list.IFACE", fn=tuple)

    p = g.production(
        "decl_func_decl",
        "decl -> kw_function designator params_opt kw_return mark SEMI")
    p.rule("decl.RES", "designator.NAME", "params_opt.IFACE",
           "mark.PARTS", "decl.ENV", "decl.CC", "kw_function.line",
           "decl.SCOPE",
           fn=lambda name, iface, parts, env, cc, ln, sc: _subprog_decl(
               "function", name, iface, parts, env, cc, ln, sc))
    p = g.production(
        "decl_proc_decl",
        "decl -> kw_procedure designator params_opt SEMI")
    p.rule("decl.RES", "designator.NAME", "params_opt.IFACE",
           "decl.ENV", "decl.CC", "kw_procedure.line", "decl.SCOPE",
           fn=lambda name, iface, env, cc, ln, sc: _subprog_decl(
               "procedure", name, iface, None, env, cc, ln, sc))

    p = g.production(
        "decl_func_body",
        "decl -> kw_function designator params_opt kw_return mark "
        "kw_is decls kw_begin stmts kw_end id_opt SEMI")
    p.rule("decls.ENV", "decl.ENV", "designator.NAME",
           "params_opt.IFACE", "mark.PARTS", "decl.CC",
           "kw_function.line", "decl.SCOPE",
           fn=_subprog_inner_env("function"))
    p.rule("stmts.ENV", "decls.RES", fn=lambda res: res.env)
    p.rule("stmts.RESULT", "mark.PARTS", "decl.ENV", "decl.CC",
           "kw_function.line", fn=_result_type)
    p.rule("decl.RES", "designator.NAME", "params_opt.IFACE",
           "mark.PARTS", "decls.RES", "stmts.SRES", "decl.ENV",
           "decl.CC", "kw_function.line", "decl.SCOPE",
           fn=_subprog_body("function"))
    p = g.production(
        "decl_proc_body",
        "decl -> kw_procedure designator params_opt kw_is decls "
        "kw_begin stmts kw_end id_opt SEMI")
    p.rule("decls.ENV", "decl.ENV", "designator.NAME",
           "params_opt.IFACE", "decl.CC", "kw_procedure.line",
           "decl.SCOPE", fn=_subprog_inner_env_proc)
    p.rule("stmts.ENV", "decls.RES", fn=lambda res: res.env)
    p.rule("stmts.RESULT", fn=lambda: None)
    p.rule("decl.RES", "designator.NAME", "params_opt.IFACE",
           "decls.RES", "stmts.SRES", "decl.ENV", "decl.CC",
           "kw_procedure.line", "decl.SCOPE",
           fn=lambda name, iface, inner, body, env, cc, ln, sc:
           _subprog_body("procedure")(
               name, iface, None, inner, body, env, cc, ln, sc))

    # use clauses and configuration specifications -------------------------------------
    p = g.production("decl_use", "decl -> kw_use sel_names SEMI")
    p.rule("decl.RES", "sel_names.PATHS", "decl.ENV", "decl.CC",
           "kw_use.line",
           fn=lambda paths, env, cc, ln: D.use_clause(
               [list(p_) for p_ in paths], env, cc, ln))
    p = g.production("sel_names_one", "sel_names -> sel_name")
    p.rule("sel_names.PATHS", "sel_name.PARTS", fn=lambda p_: (p_,))
    p = g.production("sel_names_more",
                     "sel_names -> sel_names0 COMMA sel_name")
    p.rule("sel_names0.PATHS", "sel_names1.PATHS", "sel_name.PARTS",
           fn=lambda ps, p_: ps + (p_,))
    p = g.production("sel_name_id", "sel_name -> ID")
    p.rule("sel_name.PARTS", "ID.value", fn=lambda n: (n,))
    p = g.production("sel_name_sel", "sel_name -> sel_name0 DOT ID")
    p.rule("sel_name0.PARTS", "sel_name1.PARTS", "ID.value",
           fn=lambda ps, n: ps + (n,))
    p = g.production("sel_name_all", "sel_name -> sel_name0 DOT kw_all")
    p.rule("sel_name0.PARTS", "sel_name1.PARTS",
           fn=lambda ps: ps + ("all",))

    p = g.production(
        "decl_config_spec",
        "decl -> kw_for inst_spec COLON ID kw_use kw_entity sel_name "
        "arch_ind_opt SEMI")
    p.rule("decl.RES", "inst_spec.SPEC", "ID.value", "sel_name.PARTS",
           "arch_ind_opt.NAME", "decl.ENV", "decl.CC", "kw_for.line",
           fn=_config_spec_decl)
    p = g.production("inst_spec_ids", "inst_spec -> idlist")
    p.rule("inst_spec.SPEC", "idlist.IDS", fn=list)
    p = g.production("inst_spec_all", "inst_spec -> kw_all")
    p.const("inst_spec.SPEC", ["all"])
    p = g.production("inst_spec_others", "inst_spec -> kw_others")
    p.const("inst_spec.SPEC", ["others"])
    p = g.production("arch_ind_none", "arch_ind_opt ->")
    p.const("arch_ind_opt.NAME", "")
    p = g.production("arch_ind_some", "arch_ind_opt -> LP ID RP")
    p.rule("arch_ind_opt.NAME", "ID.value", fn=lambda n: n)

    # interface lists -------------------------------------------------------------------
    p = g.production("iface_list_one", "iface_list -> iface")
    p.rule("iface_list.IFACE", "iface.IFACE", fn=tuple)
    p = g.production("iface_list_more",
                     "iface_list -> iface_list0 SEMI iface")
    p.rule("iface_list0.IFACE", "iface_list1.IFACE", "iface.IFACE",
           fn=lambda a, b: a + tuple(b))
    p = g.production(
        "iface_decl",
        "iface -> iface_class idlist COLON mode_opt sub_ind init_opt")
    p.rule("iface.IFACE", "iface_class.KW", "idlist.IDS", "mode_opt.KW",
           "sub_ind.SUB", "init_opt.OPT", "iface.ENV", "iface.CC",
           "COLON.line", fn=_iface)
    p = g.production("iface_class_none", "iface_class ->")
    p.const("iface_class.KW", "")
    p = g.production("iface_class_signal", "iface_class -> kw_signal")
    p.const("iface_class.KW", "signal")
    p = g.production("iface_class_constant",
                     "iface_class -> kw_constant")
    p.const("iface_class.KW", "constant")
    p = g.production("iface_class_variable",
                     "iface_class -> kw_variable")
    p.const("iface_class.KW", "variable")
    p = g.production("mode_none", "mode_opt ->")
    p.const("mode_opt.KW", "")
    for m in ("in", "out", "inout", "buffer"):
        p = g.production("mode_%s" % m, "mode_opt -> kw_%s" % m)
        p.const("mode_opt.KW", "in" if m == "buffer" else m)


def _sub_ind(parts, res_parts, constr, env, cc, line=0):
    entries, msgs = D.resolve_mark(list(parts), env, cc, line)
    res_entries = []
    if res_parts is not None:
        res_entries, rmsgs = D.resolve_mark(
            list(res_parts), env, cc, line)
        msgs.extend(rmsgs)
    sub = D.subtype_indication(entries, res_entries, constr, env, cc,
                               line)
    sub.msgs = msgs + sub.msgs
    return sub


def _object_decl(cls, ids, sub, init_lef, env, cc, line,
                 signal_kind="", scope=""):
    init_goal = None
    if init_lef is not None:
        init_goal = cc.eval_expr(init_lef, env, lef_line(init_lef, line),
                                 expected=sub.vtype)
    return D.object_decl(cls, list(ids), sub, init_goal, env, cc, line,
                         py_scope=scope, signal_kind=signal_kind)


def _array_type(name, inner_lef, elem_sub, env, cc, line):
    toks = list(inner_lef)
    if any(t.kind == "BOX" for t in toks):
        # array (T range <>) of ...: an unconstrained array type.
        index_entries = []
        if toks and toks[0].kind == "TYPEMARK":
            index_entries = [toks[0].value]
        return D.array_type_decl(name, None, index_entries, elem_sub,
                                 env, cc, line)
    goal = cc.eval_range(inner_lef, env, lef_line(inner_lef, line))
    return D.array_type_decl(name, goal, None, elem_sub, env, cc, line)


def _component_decl(name, generics_iface, ports_iface, env, cc, line):
    generics, gmsgs, _ = _interface_entries(
        generics_iface, "generic", cc, line)
    ports, pmsgs, _ = _interface_entries(ports_iface, "port", cc, line)
    res = D.component_decl(name, generics, ports, env, cc, line)
    res.msgs = gmsgs + pmsgs + res.msgs
    return res


def _interface_entries(iface_rows, obj_class, cc, line):
    """Turn iface rows into ObjectEntries; also default-init codes."""
    entries = []
    msgs = []
    inits = {}
    for row in iface_rows:
        for name in row["names"]:
            entry, emsgs, sub = U.interface_object(
                name, obj_class, row["mode"], row["sub"],
                row["init_goal"], cc, row["line"])
            entries.append(entry)
            msgs.extend(emsgs)
            if row["init_goal"] is not None and \
                    row["init_goal"].get("code"):
                inits[name] = row["init_goal"]["code"]
            else:
                inits[name] = row["sub"].init_code
    return entries, msgs, inits


def _iface(class_kw, ids, mode, sub, init_lef, env, cc, line=0):
    init_goal = None
    if init_lef is not None:
        init_goal = cc.eval_expr(init_lef, env,
                                 lef_line(init_lef, line),
                                 expected=sub.vtype)
    return [{
        "names": list(ids), "class": class_kw, "mode": mode,
        "sub": sub, "init_goal": init_goal, "line": line,
    }]


def _params_from_iface(iface_rows, cc, line):
    params = []
    msgs = []
    for row in iface_rows:
        for name in row["names"]:
            param, pmsgs = D.make_param(
                name, row["class"], row["mode"], row["sub"],
                row["init_goal"], line)
            params.append(param)
            msgs.extend(pmsgs)
    return params, msgs


def _deterministic_entry(sub_kind, name, iface_rows, result_parts, env,
                         cc, line, scope=""):
    """Subprogram entry with deterministic py naming so independent
    semantic rules can re-derive it identically."""
    params, msgs = _params_from_iface(iface_rows, cc, line)
    result = None
    if result_parts is not None:
        entries, rmsgs = D.resolve_mark(list(result_parts), env, cc,
                                        line)
        msgs.extend(rmsgs)
        from .symtab import entry_kind
        for e in entries:
            if entry_kind(e) == "type":
                result = e
                break
    # Reuse a spec entry (package spec + body pairing).
    from .symtab import entry_kind
    from . import vtypes
    for cand in env.lookup(name).entries:
        if entry_kind(cand) == "subprogram" \
                and cand.sub_kind == sub_kind \
                and len(cand.params) == len(params) \
                and all(vtypes.same_base(a.vtype, b.vtype)
                        for a, b in zip(cand.params, params)):
            return cand, params, result, msgs, True
    from ..vif.nodes import SubprogramEntry
    safe = D._py_safe(name.strip('"'))
    py = "%sf_%s_l%d" % (scope, safe, line)
    entry = SubprogramEntry(
        name=name, sub_kind=sub_kind, params=params, result=result,
        py=py, predefined_op="", pure=True, line=line)
    return entry, params, result, msgs, False


def _subprog_decl(sub_kind, name, iface_rows, result_parts, env, cc,
                  line, scope=""):
    entry, params, result, msgs, reused = _deterministic_entry(
        sub_kind, name, iface_rows, result_parts, env, cc, line, scope)
    if reused:
        return DeclResult(env, [], [], msgs)
    return DeclResult(env.bind(name, entry, overloadable=True), [],
                      [entry], msgs)


def _result_type(parts, env, cc, line):
    entries, _msgs = D.resolve_mark(list(parts), env, cc, line)
    from .symtab import entry_kind
    for e in entries:
        if entry_kind(e) == "type":
            return e
    return None


def _subprog_inner_env(sub_kind):
    def rule(env, name, iface_rows, result_parts, cc, line, scope=""):
        entry, params, result, msgs, reused = _deterministic_entry(
            sub_kind, name, iface_rows, result_parts, env, cc, line,
            scope)
        inner = env if reused else env.bind(name, entry,
                                            overloadable=True)
        return D.subprogram_body_env(entry, inner, line)

    return rule


def _subprog_inner_env_proc(env, name, iface_rows, cc, line, scope=""):
    return _subprog_inner_env("procedure")(env, name, iface_rows, None,
                                           cc, line, scope)


def _subprog_body(sub_kind):
    def rule(name, iface_rows, result_parts, inner_decls, body_sres,
             env, cc, line, scope=""):
        entry, params, result, msgs, reused = _deterministic_entry(
            sub_kind, name, iface_rows, result_parts, env, cc, line,
            scope)
        msgs = msgs + list(inner_decls.msgs) + list(body_sres.msgs)
        local_names = {e.py for e in inner_decls.entries
                       if hasattr(e, "py")}
        code = D.subprogram_code(
            entry, inner_decls.code + body_sres.code, local_names,
            body_sres.writes, line)
        if body_sres.haswait:
            msgs.append("line %d: wait statements are not allowed in "
                        "subprograms" % line)
        new_env = env if reused else env.bind(name, entry,
                                              overloadable=True)
        return DeclResult(new_env, code, [] if reused else [entry],
                          msgs)

    return rule


def _config_spec_decl(spec, comp_name, ent_parts, arch_name, env, cc,
                      line):
    parts = list(ent_parts)
    if len(parts) == 1:
        lib, ent = cc.work, parts[0]
    else:
        lib, ent = parts[0], parts[1]
    # Configuration specifications ride out of the declarative part in
    # a dedicated field consumed by arch assembly.
    return DeclResult(
        env, configs=[(list(spec), comp_name, lib, ent, arch_name)])


# ---------------------------------------------------------------------------
# sequential statements
# ---------------------------------------------------------------------------


def _stmt_productions(g):
    g.production("stmts_empty", "stmts ->")
    g.production("stmts_more", "stmts -> stmts0 stmt")

    # assignments and calls -----------------------------------------------------
    p = g.production("stmt_sig_assign",
                     "stmt -> nsoup LE wave_opts SEMI")
    p.rule("stmt.SRES", "nsoup.LEF", "wave_opts.WAVET", "stmt.ENV",
           "stmt.CC", "LE.line",
           fn=lambda tgt, wavet, env, cc, ln: S.signal_assign(
               tgt, wavet[1], wavet[0], env, cc,
               lef_line(tgt, ln)))
    p = g.production("stmt_var_assign",
                     "stmt -> nsoup COLONEQ xp SEMI")
    p.rule("stmt.SRES", "nsoup.LEF", "xp.LEF", "stmt.ENV", "stmt.CC",
           "COLONEQ.line",
           fn=lambda tgt, rhs, env, cc, ln: S.variable_assign(
               tgt, rhs, env, cc, lef_line(tgt, ln)))
    p = g.production("stmt_call", "stmt -> nsoup SEMI")
    p.rule("stmt.SRES", "nsoup.LEF", "stmt.ENV", "stmt.CC", "SEMI.line",
           fn=lambda call, env, cc, ln: S.procedure_call(
               call, env, cc, lef_line(call, ln)))

    # waveforms -------------------------------------------------------------------
    p = g.production("wave_opts_plain", "wave_opts -> wave")
    p.rule("wave_opts.WAVET", "wave.WAVE",
           fn=lambda w: (False, list(w)))
    p = g.production("wave_opts_transport",
                     "wave_opts -> kw_transport wave")
    p.rule("wave_opts.WAVET", "wave.WAVE",
           fn=lambda w: (True, list(w)))
    p = g.production("wave_one", "wave -> wave_elem")
    p.rule("wave.WAVE", "wave_elem.WELEM", fn=lambda e: (e,))
    p = g.production("wave_more", "wave -> wave0 COMMA wave_elem")
    p.rule("wave0.WAVE", "wave1.WAVE", "wave_elem.WELEM",
           fn=lambda ws, e: ws + (e,))
    p = g.production("wave_elem_v", "wave_elem -> xp")
    p.rule("wave_elem.WELEM", "xp.LEF", fn=lambda v: (tuple(v), None))
    p = g.production("wave_elem_after", "wave_elem -> xp0 kw_after xp1")
    p.rule("wave_elem.WELEM", "xp0.LEF", "xp1.LEF",
           fn=lambda v, t: (tuple(v), tuple(t)))

    # if --------------------------------------------------------------------------
    p = g.production(
        "stmt_if",
        "stmt -> kw_if xp kw_then stmts elsifs else_opt kw_end kw_if "
        "SEMI")
    p.rule("stmt.SRES", "xp.LEF", "stmts.SRES", "elsifs.ARMS",
           "else_opt.BODY", "stmt.ENV", "stmt.CC", "kw_if0.line",
           fn=lambda cond, body, arms, els, env, cc, ln: S.if_stmt(
               [(cond, body)] + list(arms), els, env, cc, ln))
    p = g.production("elsifs_none", "elsifs ->")
    p.const("elsifs.ARMS", ())
    p = g.production("elsifs_more",
                     "elsifs -> elsifs0 kw_elsif xp kw_then stmts")
    p.rule("elsifs0.ARMS", "elsifs1.ARMS", "xp.LEF", "stmts.SRES",
           fn=lambda arms, cond, body: arms + ((cond, body),))
    p = g.production("else_none", "else_opt ->")
    p.const("else_opt.BODY", None)
    p = g.production("else_some", "else_opt -> kw_else stmts")
    p.rule("else_opt.BODY", "stmts.SRES", fn=lambda b: b)

    # case ---------------------------------------------------------------------------
    p = g.production(
        "stmt_case",
        "stmt -> kw_case xp kw_is case_alts kw_end kw_case SEMI")
    p.rule("stmt.SRES", "xp.LEF", "case_alts.ALTS", "stmt.ENV",
           "stmt.CC", "kw_case0.line",
           fn=lambda sel, alts, env, cc, ln: S.case_stmt(
               sel, list(alts), env, cc, ln))
    p = g.production("case_alts_one", "case_alts -> case_alt")
    p.rule("case_alts.ALTS", "case_alt.ALT", fn=lambda a: (a,))
    p = g.production("case_alts_more", "case_alts -> case_alts0 case_alt")
    p.rule("case_alts0.ALTS", "case_alts1.ALTS", "case_alt.ALT",
           fn=lambda alts, a: alts + (a,))
    p = g.production("case_alt",
                     "case_alt -> kw_when choices ARROW stmts")
    p.rule("case_alt.ALT", "choices.CHS", "stmts.SRES",
           fn=lambda chs, body: (list(chs), body))
    p = g.production("choices_one", "choices -> choice")
    p.rule("choices.CHS", "choice.CH", fn=lambda c: (c,))
    p = g.production("choices_more", "choices -> choices0 BAR choice")
    p.rule("choices0.CHS", "choices1.CHS", "choice.CH",
           fn=lambda cs, c: cs + (c,))
    p = g.production("choice_xp", "choice -> xp")
    p.rule("choice.CH", "xp.LEF", fn=tuple)
    p = g.production("choice_others", "choice -> kw_others")
    p.rule("choice.CH", "kw_others.line",
           fn=lambda ln: (L.lef("OTHERS", "others", "others", ln),))

    # loops ------------------------------------------------------------------------------
    p = g.production(
        "stmt_for",
        "stmt -> kw_for ID kw_in xp kw_loop stmts kw_end kw_loop SEMI")
    p.rule("stmts.ENV", "stmt.ENV", "ID.value", "xp.LEF", "stmt.CC",
           "kw_for.line",
           fn=lambda env, name, rng, cc, ln: S.loop_env(
               name, rng, env, cc, ln))
    p.rule("stmt.SRES", "ID.value", "xp.LEF", "stmts.SRES", "stmt.ENV",
           "stmt.CC", "kw_for.line",
           fn=lambda name, rng, body, env, cc, ln: S.for_loop(
               name, rng, body, env, cc, ln))
    p = g.production(
        "stmt_while",
        "stmt -> kw_while xp kw_loop stmts kw_end kw_loop SEMI")
    p.rule("stmt.SRES", "xp.LEF", "stmts.SRES", "stmt.ENV", "stmt.CC",
           "kw_while.line",
           fn=lambda cond, body, env, cc, ln: S.while_loop(
               cond, body, env, cc, ln))
    p = g.production("stmt_loop",
                     "stmt -> kw_loop stmts kw_end kw_loop SEMI")
    p.rule("stmt.SRES", "stmts.SRES", "stmt.ENV", "stmt.CC",
           "kw_loop0.line",
           fn=lambda body, env, cc, ln: S.while_loop(
               None, body, env, cc, ln))

    p = g.production("stmt_next", "stmt -> kw_next when_opt SEMI")
    p.rule("stmt.SRES", "when_opt.COND", "stmt.ENV", "stmt.CC",
           "kw_next.line",
           fn=lambda cond, env, cc, ln: S.next_or_exit(
               "next", cond, env, cc, ln))
    p = g.production("stmt_exit", "stmt -> kw_exit when_opt SEMI")
    p.rule("stmt.SRES", "when_opt.COND", "stmt.ENV", "stmt.CC",
           "kw_exit.line",
           fn=lambda cond, env, cc, ln: S.next_or_exit(
               "exit", cond, env, cc, ln))
    p = g.production("when_none", "when_opt ->")
    p.const("when_opt.COND", None)
    p = g.production("when_some", "when_opt -> kw_when xp")
    p.rule("when_opt.COND", "xp.LEF", fn=tuple)

    # wait ---------------------------------------------------------------------------------
    p = g.production(
        "stmt_wait",
        "stmt -> kw_wait wait_on_opt wait_until_opt wait_for_opt SEMI")
    p.rule("stmt.SRES", "wait_on_opt.NAMES", "wait_until_opt.OPT",
           "wait_for_opt.OPT", "stmt.ENV", "stmt.CC", "kw_wait.line",
           fn=lambda on, until, for_, env, cc, ln: S.wait_stmt(
               list(on), until, for_, env, cc, ln))
    p = g.production("wait_on_none", "wait_on_opt ->")
    p.const("wait_on_opt.NAMES", ())
    p = g.production("wait_on_some", "wait_on_opt -> kw_on name_list")
    p.rule("wait_on_opt.NAMES", "name_list.NAMES", fn=tuple)
    p = g.production("wait_until_none", "wait_until_opt ->")
    p.const("wait_until_opt.OPT", None)
    p = g.production("wait_until_some", "wait_until_opt -> kw_until xp")
    p.rule("wait_until_opt.OPT", "xp.LEF", fn=tuple)
    p = g.production("wait_for_none", "wait_for_opt ->")
    p.const("wait_for_opt.OPT", None)
    p = g.production("wait_for_some", "wait_for_opt -> kw_for xp")
    p.rule("wait_for_opt.OPT", "xp.LEF", fn=tuple)
    p = g.production("name_list_one", "name_list -> nsoup")
    p.rule("name_list.NAMES", "nsoup.LEF", fn=lambda n: (tuple(n),))
    p = g.production("name_list_more",
                     "name_list -> name_list0 COMMA nsoup")
    p.rule("name_list0.NAMES", "name_list1.NAMES", "nsoup.LEF",
           fn=lambda ns, n: ns + (tuple(n),))

    # assert / return / null ---------------------------------------------------------------
    p = g.production(
        "stmt_assert",
        "stmt -> kw_assert xp report_opt severity_opt SEMI")
    p.rule("stmt.SRES", "xp.LEF", "report_opt.OPT", "severity_opt.OPT",
           "stmt.ENV", "stmt.CC", "kw_assert.line",
           fn=lambda cond, rep, sev, env, cc, ln: S.assert_stmt(
               cond, rep, sev, env, cc, ln))
    p = g.production("report_none", "report_opt ->")
    p.const("report_opt.OPT", None)
    p = g.production("report_some", "report_opt -> kw_report xp")
    p.rule("report_opt.OPT", "xp.LEF", fn=tuple)
    p = g.production("severity_none", "severity_opt ->")
    p.const("severity_opt.OPT", None)
    p = g.production("severity_some", "severity_opt -> kw_severity xp")
    p.rule("severity_opt.OPT", "xp.LEF", fn=tuple)

    p = g.production("stmt_return", "stmt -> kw_return xp_opt SEMI")
    p.rule("stmt.SRES", "xp_opt.OPT", "stmt.RESULT", "stmt.ENV",
           "stmt.CC", "kw_return.line",
           fn=lambda value, result, env, cc, ln: S.return_stmt(
               value, result, env, cc, ln))
    p = g.production("stmt_null", "stmt -> kw_null SEMI")
    p.rule("stmt.SRES", fn=S.null_stmt)


# ---------------------------------------------------------------------------
# concurrent statements
# ---------------------------------------------------------------------------


def _cstmt_productions(g):
    g.production("cstmts_empty", "cstmts ->")
    g.production("cstmts_more", "cstmts -> cstmts0 cstmt")

    p = g.production("cstmt_labeled", "cstmt -> ID COLON cstmt_body")
    p.rule("cstmt_body.LABEL", "ID.value", fn=lambda n: n)
    p = g.production("cstmt_unlabeled", "cstmt -> cstmt_body")
    p.rule("cstmt_body.LABEL", fn=lambda: "")

    # process --------------------------------------------------------------------------
    p = g.production(
        "cstmt_process",
        "cstmt_body -> kw_process sens_opt decls kw_begin stmts "
        "kw_end kw_process id_opt SEMI")
    p.rule("decls.ENV", "cstmt_body.ENV", fn=lambda env: env.enter_scope())
    p.rule("decls.SCOPE", fn=lambda: "")
    p.rule("stmts.ENV", "decls.RES", fn=lambda res: res.env)
    p.rule("stmts.RESULT", fn=lambda: None)
    p.rule("cstmt_body.CS", "cstmt_body.LABEL", "sens_opt.NAMES",
           "decls.RES", "stmts.SRES", "cstmt_body.ENV",
           "cstmt_body.CC", "kw_process0.line",
           fn=lambda label, sens, decls, body, env, cc, ln:
           U.process_stmt(label or "proc_l%d" % ln, sens, decls, body,
                          decls.env, cc, ln))
    p = g.production("sens_none", "sens_opt ->")
    p.const("sens_opt.NAMES", None)
    p = g.production("sens_some", "sens_opt -> LP name_list RP")
    p.rule("sens_opt.NAMES", "name_list.NAMES", fn=list)

    # concurrent signal assignments -----------------------------------------------------
    p = g.production("cstmt_assign",
                     "cstmt_body -> nsoup LE cond_waves SEMI")
    p.rule("cstmt_body.CS", "cstmt_body.LABEL", "nsoup.LEF",
           "cond_waves.ARMS", "cstmt_body.ENV", "cstmt_body.CC",
           "LE.line",
           fn=lambda label, tgt, arms, env, cc, ln: U.concurrent_assign(
               label or "cassign_l%d" % ln,
               [(tgt, wavet[1], cond, wavet[0])
                for wavet, cond in arms],
               env, cc, lef_line(tgt, ln)))
    p = g.production("cstmt_assign_guarded",
                     "cstmt_body -> nsoup LE kw_guarded cond_waves SEMI")
    p.rule("cstmt_body.CS", "cstmt_body.LABEL", "nsoup.LEF",
           "cond_waves.ARMS", "cstmt_body.ENV", "cstmt_body.CC",
           "LE.line",
           fn=lambda label, tgt, arms, env, cc, ln: U.concurrent_assign(
               label or "cassign_l%d" % ln,
               [(tgt, wavet[1], cond, wavet[0])
                for wavet, cond in arms],
               env, cc, lef_line(tgt, ln), guarded=True,
               guard_py=_guard_py(env)))
    p = g.production("cond_waves_one", "cond_waves -> wave_opts")
    p.rule("cond_waves.ARMS", "wave_opts.WAVET",
           fn=lambda w: ((w, None),))
    p = g.production(
        "cond_waves_more",
        "cond_waves -> wave_opts kw_when xp kw_else cond_waves0")
    p.rule("cond_waves0.ARMS", "wave_opts.WAVET", "xp.LEF",
           "cond_waves1.ARMS",
           fn=lambda w, cond, rest: ((w, tuple(cond)),) + rest)

    p = g.production(
        "cstmt_selected",
        "cstmt_body -> kw_with xp kw_select nsoup LE sel_waves SEMI")
    p.rule("cstmt_body.CS", "cstmt_body.LABEL", "xp.LEF", "nsoup.LEF",
           "sel_waves.ARMS", "cstmt_body.ENV", "cstmt_body.CC",
           "kw_with.line",
           fn=lambda label, sel, tgt, arms, env, cc, ln:
           U.selected_assign(label or "sassign_l%d" % ln, sel, tgt,
                             [(w[1], chs) for w, chs in arms],
                             env, cc, ln))
    p = g.production("sel_waves_one",
                     "sel_waves -> wave_opts kw_when choices")
    p.rule("sel_waves.ARMS", "wave_opts.WAVET", "choices.CHS",
           fn=lambda w, chs: ((w, list(chs)),))
    p = g.production(
        "sel_waves_more",
        "sel_waves -> sel_waves0 COMMA wave_opts kw_when choices")
    p.rule("sel_waves0.ARMS", "sel_waves1.ARMS", "wave_opts.WAVET",
           "choices.CHS",
           fn=lambda arms, w, chs: arms + ((w, list(chs)),))

    # concurrent assertion ---------------------------------------------------------------
    p = g.production(
        "cstmt_assert",
        "cstmt_body -> kw_assert xp report_opt severity_opt SEMI")
    p.rule("cstmt_body.CS", "cstmt_body.LABEL", "xp.LEF",
           "report_opt.OPT", "severity_opt.OPT", "cstmt_body.ENV",
           "cstmt_body.CC", "kw_assert.line",
           fn=lambda label, cond, rep, sev, env, cc, ln:
           U.concurrent_assert(label or "cassert_l%d" % ln, cond, rep,
                               sev, env, cc, ln))

    # instantiation ------------------------------------------------------------------------
    p = g.production("cstmt_instance",
                     "cstmt_body -> ID gmap_opt pmap_opt SEMI")
    p.rule("cstmt_body.CS", "cstmt_body.LABEL", "ID.value",
           "gmap_opt.ASSOCS", "pmap_opt.ASSOCS", "cstmt_body.ENV",
           "cstmt_body.CC", "ID.line",
           fn=lambda label, comp, gmap, pmap, env, cc, ln:
           U.instantiation(label or "u_l%d" % ln, comp, list(gmap),
                           list(pmap), env, cc, ln))
    p = g.production("gmap_none", "gmap_opt ->")
    p.const("gmap_opt.ASSOCS", ())
    p = g.production("gmap_some",
                     "gmap_opt -> kw_generic kw_map LP assoc_list RP")
    p.rule("gmap_opt.ASSOCS", "assoc_list.ASSOCS", fn=tuple)
    p = g.production("pmap_none", "pmap_opt ->")
    p.const("pmap_opt.ASSOCS", ())
    p = g.production("pmap_some",
                     "pmap_opt -> kw_port kw_map LP assoc_list RP")
    p.rule("pmap_opt.ASSOCS", "assoc_list.ASSOCS", fn=tuple)
    p = g.production("assoc_list_one", "assoc_list -> assoc")
    p.rule("assoc_list.ASSOCS", "assoc.ASSOC", fn=lambda a: (a,))
    p = g.production("assoc_list_more",
                     "assoc_list -> assoc_list0 COMMA assoc")
    p.rule("assoc_list0.ASSOCS", "assoc_list1.ASSOCS", "assoc.ASSOC",
           fn=lambda al, a: al + (a,))
    p = g.production("assoc_pos", "assoc -> xp")
    p.rule("assoc.ASSOC", "xp.LEF", fn=lambda a: (None, tuple(a)))
    p = g.production("assoc_named", "assoc -> ID ARROW xp")
    p.rule("assoc.ASSOC", "ID.value", "xp.LEF",
           fn=lambda f, a: (f, tuple(a)))
    p = g.production("assoc_open", "assoc -> ID ARROW kw_open")
    p.rule("assoc.ASSOC", "ID.value", fn=lambda f: (f, None))

    # block ---------------------------------------------------------------------------------
    p = g.production(
        "cstmt_block",
        "cstmt_body -> kw_block decls kw_begin cstmts kw_end kw_block "
        "id_opt SEMI")
    p.rule("decls.ENV", "cstmt_body.ENV",
           fn=lambda env: env.enter_scope())
    p.rule("decls.SCOPE", fn=lambda: "")
    p.rule("cstmts.ENV", "decls.RES", fn=lambda res: res.env)
    p.rule("cstmt_body.CS", "cstmt_body.LABEL", "decls.RES",
           "cstmts.CS", "cstmt_body.ENV", "cstmt_body.CC",
           "kw_block0.line",
           fn=lambda label, decls, inner, env, cc, ln: U.block_stmt(
               label or "blk_l%d" % ln, None, decls, inner, decls.env,
               cc, ln))
    p = g.production(
        "cstmt_block_guarded",
        "cstmt_body -> kw_block LP xp RP decls kw_begin cstmts kw_end "
        "kw_block id_opt SEMI")
    p.rule("decls.ENV", "cstmt_body.ENV", "cstmt_body.LABEL",
           "kw_block0.line",
           fn=lambda env, label, ln: _guard_env(
               env, label or "blk_l%d" % ln))
    p.rule("decls.SCOPE", fn=lambda: "")
    p.rule("cstmts.ENV", "decls.RES", fn=lambda res: res.env)
    p.rule("cstmt_body.CS", "cstmt_body.LABEL", "xp.LEF", "decls.RES",
           "cstmts.CS", "cstmt_body.ENV", "cstmt_body.CC",
           "kw_block0.line",
           fn=lambda label, guard, decls, inner, env, cc, ln:
           U.block_stmt(label or "blk_l%d" % ln, tuple(guard), decls,
                        inner, decls.env, cc, ln))


def _guard_env(env, label):
    """Bind the implicit GUARD signal of a guarded block (§1's
    'implicit guard signals and guarded statements')."""
    from ..vif.nodes import ObjectEntry
    from .stdpkg import standard as _std

    guard = ObjectEntry(name="guard", obj_class="signal",
                        vtype=_std().boolean,
                        py="s_guard_%s" % label)
    return env.enter_scope().bind("guard", guard)


def _guard_py(env):
    result = env.lookup("guard")
    for e in result.entries:
        if getattr(e, "is_signal", False):
            return e.py
    return None


# ---------------------------------------------------------------------------
# design units and context clauses
# ---------------------------------------------------------------------------


def _design_env(cc):
    """The implicit context of every unit: STANDARD directly visible,
    the STD and WORK libraries declared, and WORK.ALL used (footnote 4
    of the paper)."""
    env = standard().environment().enter_scope()
    env = env.bind("std", D.LibraryName("std"))
    env = env.bind("work", D.LibraryName(cc.work))
    if cc.library is not None:
        for key, node in cc.library.units_of(cc.work):
            name = getattr(node, "name", None)
            if name and "(" not in key and not key.startswith("body("):
                env = env.bind(name, node, via_use=True)
    return env.enter_scope()


def _arch_env(env, entity):
    """Inside an architecture: the entity's interface is visible."""
    inner = env.enter_scope()
    for g in entity.generics:
        inner = inner.bind(g.name, g)
    for p in entity.ports:
        inner = inner.bind(p.name, p)
    return inner


def _unit_productions(g):
    p = g.production("file_units", "design_file -> design_units")
    p.copy("design_file.UNITS", "design_units.UNITS")
    p = g.production("dunits_one", "design_units -> design_unit")
    p.rule("design_unit.ENV", "design_units.CC",
           fn=lambda cc: _design_env(cc))
    p.rule("design_units.UNITS", "design_unit.UNIT",
           fn=lambda u: (u,) if u is not None else ())
    p = g.production("dunits_more",
                     "design_units -> design_units0 design_unit")
    p.rule("design_unit.ENV", "design_units1.UNITS", "design_units0.CC",
           fn=lambda _prior, cc: _design_env(cc))
    p.rule("design_units0.UNITS", "design_units1.UNITS",
           "design_unit.UNIT",
           fn=lambda us, u: us + ((u,) if u is not None else ()))

    p = g.production("design_unit",
                     "design_unit -> context_items library_unit")
    p.rule("library_unit.ENV", "context_items.RES",
           fn=lambda res: res.env)
    p.rule("design_unit.UNIT", "library_unit.UNIT",
           "context_items.CLAUSES", "design_unit.CC",
           fn=_register_unit)

    p = g.production("ctx_items_none", "context_items ->")
    p.rule("context_items.RES", "context_items.ENV",
           fn=lambda env: DeclResult(env))
    p.const("context_items.CLAUSES", ())
    p = g.production("ctx_items_more",
                     "context_items -> context_items0 context_item")
    p.rule("context_item.ENV", "context_items1.RES",
           fn=lambda res: res.env)
    p.rule("context_items0.RES", "context_items1.RES",
           "context_item.RES", fn=_merge_decl)
    p.rule("context_items0.CLAUSES", "context_items1.CLAUSES",
           "context_item.CLAUSE", fn=lambda cs, c: cs + (c,))
    p = g.production("ctx_library",
                     "context_item -> kw_library idlist SEMI")
    p.rule("context_item.RES", "idlist.IDS", "context_item.ENV",
           "context_item.CC", "kw_library.line",
           fn=lambda ids, env, cc, ln: D.library_clause(
               list(ids), env, cc, ln))
    p.rule("context_item.CLAUSE", "idlist.IDS",
           fn=lambda ids: ("library", [list(ids)]))
    p.rule("context_item.MSGS", "context_item.RES",
           fn=lambda res: tuple(res.msgs))
    p = g.production("ctx_use", "context_item -> kw_use sel_names SEMI")
    p.rule("context_item.RES", "sel_names.PATHS", "context_item.ENV",
           "context_item.CC", "kw_use.line",
           fn=lambda paths, env, cc, ln: D.use_clause(
               [list(p_) for p_ in paths], env, cc, ln))
    p.rule("context_item.CLAUSE", "sel_names.PATHS",
           fn=lambda paths: ("use", [list(p_) for p_ in paths]))
    p.rule("context_item.MSGS", "context_item.RES",
           fn=lambda res: tuple(res.msgs))

    for kind in ("entity", "arch", "package", "package_body", "config"):
        p = g.production("lib_unit_%s" % kind,
                         "library_unit -> %s_unit" % kind)
        p.copy("library_unit.UNIT", "%s_unit.UNIT" % kind)

    p = g.production("id_opt_none", "id_opt ->")
    p.const("id_opt.NAME", "")
    p = g.production("id_opt_some", "id_opt -> ID")
    p.rule("id_opt.NAME", "ID.value", fn=lambda n: n)
    # Operator-symbol designators close subprogram bodies: end "+";
    p = g.production("id_opt_op", "id_opt -> STRING")
    p.rule("id_opt.NAME", "STRING.value", fn=lambda s: '"%s"' % s)

    # entity ------------------------------------------------------------------------
    p = g.production(
        "entity",
        "entity_unit -> kw_entity ID kw_is gen_clause_opt "
        "port_clause_opt kw_end id_opt SEMI")
    p.rule("entity_unit.UNIT", "ID.value", "gen_clause_opt.IFACE",
           "port_clause_opt.IFACE", "entity_unit.CC",
           "kw_entity.line", fn=_build_entity)
    p.rule("entity_unit.MSGS", "entity_unit.UNIT", "gen_clause_opt.IFACE",
           "port_clause_opt.IFACE", "ID.value", "id_opt.NAME",
           fn=lambda unit, gi, pi, name, closing: (
               _iface_msgs(gi) + _iface_msgs(pi)
               + _closing_msgs("entity", name, closing, unit.line)))
    p = g.production("gen_clause_none", "gen_clause_opt ->")
    p.const("gen_clause_opt.IFACE", ())
    p = g.production(
        "gen_clause",
        "gen_clause_opt -> kw_generic LP iface_list RP SEMI")
    p.rule("gen_clause_opt.IFACE", "iface_list.IFACE", fn=tuple)
    p = g.production("port_clause_none", "port_clause_opt ->")
    p.const("port_clause_opt.IFACE", ())
    p = g.production(
        "port_clause",
        "port_clause_opt -> kw_port LP iface_list RP SEMI")
    p.rule("port_clause_opt.IFACE", "iface_list.IFACE", fn=tuple)

    # architecture ------------------------------------------------------------------------
    p = g.production(
        "architecture",
        "arch_unit -> kw_architecture ID kw_of ID kw_is decls "
        "kw_begin cstmts kw_end id_opt SEMI")
    p.rule("decls.ENV", "arch_unit.ENV", "ID1.value", "arch_unit.CC",
           fn=_arch_decl_env)
    p.rule("decls.SCOPE", fn=lambda: "")
    p.rule("cstmts.ENV", "decls.RES", fn=lambda res: res.env)
    p.rule("arch_unit.BUILD", "ID0.value", "ID1.value", "decls.RES",
           "cstmts.CS", "arch_unit.ENV", "arch_unit.CC",
           "kw_architecture.line", fn=_build_arch)
    p.rule("arch_unit.UNIT", "arch_unit.BUILD", fn=lambda b: b[0])
    p.rule("arch_unit.MSGS", "arch_unit.BUILD", "ID0.value", "id_opt.NAME",
           fn=lambda b, name, closing: tuple(b[1]) + _closing_msgs(
               "architecture", name, closing, b[0].line))

    # package / package body -----------------------------------------------------------------
    p = g.production(
        "package",
        "package_unit -> kw_package ID kw_is decls kw_end id_opt SEMI")
    p.rule("decls.ENV", "package_unit.ENV",
           fn=lambda env: env.enter_scope())
    p.rule("decls.SCOPE", "ID.value", fn=lambda n: "pkg_%s_" % n)
    p.rule("package_unit.BUILD", "ID.value", "decls.RES",
           "package_unit.ENV", "package_unit.CC", "kw_package.line",
           fn=lambda name, decls, env, cc, ln: U.package_unit(
               name, decls, decls.env, cc, ln))
    p.rule("package_unit.UNIT", "package_unit.BUILD",
           fn=lambda b: b[0])
    p.rule("package_unit.MSGS", "package_unit.BUILD", "ID.value",
           "id_opt.NAME",
           fn=lambda b, name, closing: tuple(b[1]) + _closing_msgs(
               "package", name, closing, b[0].line))
    p = g.production(
        "package_body",
        "package_body_unit -> kw_package kw_body ID kw_is decls "
        "kw_end id_opt SEMI")
    p.rule("decls.ENV", "package_body_unit.ENV", "ID.value",
           "package_body_unit.CC", fn=_package_body_env)
    p.rule("decls.SCOPE", "ID.value", fn=lambda n: "pkg_%s_" % n)
    p.rule("package_body_unit.BUILD", "ID.value", "decls.RES",
           "package_body_unit.ENV", "package_body_unit.CC",
           "kw_package.line",
           fn=lambda name, decls, env, cc, ln: U.package_unit(
               name, decls, decls.env, cc, ln, is_body=True))
    p.rule("package_body_unit.UNIT", "package_body_unit.BUILD",
           fn=lambda b: b[0])
    p.rule("package_body_unit.MSGS", "package_body_unit.BUILD",
           "ID.value", "id_opt.NAME",
           fn=lambda b, name, closing: tuple(b[1]) + _closing_msgs(
               "package body", name, closing, b[0].line))

    # configuration ---------------------------------------------------------------------------
    p = g.production(
        "configuration",
        "config_unit -> kw_configuration ID kw_of ID kw_is kw_for ID "
        "config_items kw_end kw_for SEMI kw_end id_opt SEMI")
    p.rule("config_unit.BUILD", "ID0.value", "ID1.value", "ID2.value",
           "config_items.BINDS", "config_unit.ENV", "config_unit.CC",
           "kw_configuration.line", fn=_build_config)
    p.rule("config_unit.UNIT", "config_unit.BUILD", fn=lambda b: b[0])
    p.rule("config_unit.MSGS", "config_unit.BUILD", "ID0.value",
           "id_opt.NAME",
           fn=lambda b, name, closing: tuple(b[1]) + _closing_msgs(
               "configuration", name, closing, b[0].line))
    p = g.production("config_items_none", "config_items ->")
    p.const("config_items.BINDS", ())
    p = g.production("config_items_more",
                     "config_items -> config_items0 config_item")
    p.rule("config_items0.BINDS", "config_items1.BINDS",
           "config_item.BIND", fn=lambda bs, b: bs + (b,))
    p = g.production(
        "config_item",
        "config_item -> kw_for inst_spec COLON ID kw_use kw_entity "
        "sel_name arch_ind_opt SEMI kw_end kw_for SEMI")
    p.rule("config_item.BIND", "inst_spec.SPEC", "ID.value",
           "sel_name.PARTS", "arch_ind_opt.NAME", "config_item.CC",
           fn=_config_bind)


def _closing_msgs(kind, name, closing, line):
    """``end [name];`` may repeat the unit's name, and only that."""
    if closing and closing != name:
        return ("line %d: %s %r is closed as %r"
                % (line, kind, name, closing),)
    return ()


def _iface_msgs(iface_rows):
    out = []
    for row in iface_rows:
        out.extend(row["sub"].msgs)
        if row["init_goal"] is not None:
            out.extend(row["init_goal"].get("msgs", ()))
    return tuple(out)


def _build_entity(name, generics_iface, ports_iface, cc, line):
    generics, gmsgs, _ = _interface_entries(
        generics_iface, "generic", cc, line)
    ports, pmsgs, _ = _interface_entries(ports_iface, "port", cc, line)
    return U.entity_unit(name, generics, ports, cc, line)


def _arch_decl_env(env, entity_name, cc):
    entity = cc.library.find_unit(cc.work, entity_name) \
        if cc.library else None
    from .symtab import entry_kind
    if entity is None or entry_kind(entity) != "entity":
        # Error is reported by _build_arch; analysis continues with an
        # empty interface.
        return env.enter_scope()
    env = _replay_context(env, entity.context, cc)
    return _arch_env(env, entity)


def _build_arch(name, entity_name, decls, cstmts, env, cc, line):
    from .symtab import entry_kind
    entity = cc.library.find_unit(cc.work, entity_name) \
        if cc.library else None
    msgs = []
    if entity is None or entry_kind(entity) != "entity":
        msgs.append("line %d: no entity %r in library %r"
                    % (line, entity_name, cc.work))
        entity = U.entity_unit(entity_name, [], [], cc, line)
    unit, amsgs = U.arch_unit(name, entity, decls, cstmts,
                              decls.configs, decls.env, cc, line)
    return unit, msgs + amsgs


def _package_body_env(env, name, cc):
    spec = cc.library.find_unit(cc.work, name) if cc.library else None
    from .symtab import entry_kind, is_overloadable
    if spec is not None and entry_kind(spec) == "package":
        env = _replay_context(env, spec.context, cc)
    inner = env.enter_scope()
    if spec is not None and entry_kind(spec) == "package":
        for d in spec.visible_decls():
            dname = getattr(d, "name", None)
            if dname:
                inner = inner.bind(dname, d,
                                   overloadable=is_overloadable(d))
            if getattr(d, "kind", None) == "enum":
                for pos, lit in enumerate(d.literals):
                    inner = inner.bind(
                        lit, D._find_literal(spec, d, pos),
                        overloadable=True)
    return inner


def _config_bind(spec, comp_name, ent_parts, arch_name, cc):
    parts = list(ent_parts)
    if len(parts) == 1:
        lib, ent = cc.work, parts[0]
    else:
        lib, ent = parts[0], parts[1]
    return (list(spec), comp_name, lib, ent, arch_name)


def _build_config(name, entity_name, arch_name, binds, env, cc, line):
    entity = cc.library.find_unit(cc.work, entity_name) \
        if cc.library else None
    rows = []
    for spec, comp, lib, ent, arch in binds:
        rows.append([arch_name, ",".join(spec), comp, lib, ent, arch])
    return U.config_unit(name, [entity] if entity is not None else [],
                         rows, cc, line)


def _register_unit(unit, clauses, cc):
    """Place the compiled unit into the working library — separate
    compilation's usage history grows here (§3.3).  Primary units keep
    their context clause, because it also governs their secondary
    units (an architecture sees its entity's context)."""
    if unit is None:
        return None
    field_names = {f.name for f in unit.VIF_FIELDS}
    if "context" in field_names:
        unit.context = [list(c) for c in clauses]
    if "source_file" in field_names:
        # Stamp the declaring source file before the library
        # serializes the VIF payload, so reloaded units still know
        # where their declarations live (lint spans, runtime errors).
        unit.source_file = cc.filename or ""
    if cc.library is not None:
        cc.library.register_unit(cc.work, unit)
    return unit


def _replay_context(env, clauses, cc):
    """Re-apply a primary unit's context clause for a secondary unit."""
    for kind, payload in clauses or ():
        if kind == "library":
            for names in payload:
                env = D.library_clause(list(names), env, cc, 0).env
        elif kind == "use":
            env = D.use_clause([list(p) for p in payload], env, cc,
                               0).env
    return env


# ---------------------------------------------------------------------------
# the compiled principal AG
# ---------------------------------------------------------------------------


def _make_grammar():
    g = AGSpec("vhdl_principal")
    _declare_vocabulary(g)
    _soup_productions(g)
    _decl_productions(g)
    _stmt_productions(g)
    _cstmt_productions(g)
    _unit_productions(g)
    return g.finish()


_GRAMMAR = None

#: Start-symbol inherited attributes the evaluation entry supplies.
ENTRY_INHERITED = ("CC",)
#: Root attributes the compiler reads back after evaluation.
GOALS = ("UNITS", "MSGS")


def principal_grammar():
    """The compiled principal AG (built once per session)."""
    global _GRAMMAR
    if _GRAMMAR is None:
        _GRAMMAR = _make_grammar()
    return _GRAMMAR
