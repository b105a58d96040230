"""The lint engine: rule selection, unit iteration, and baselines.

:class:`LintEngine` glues the fact extractor to the rule registry and
produces plain :class:`repro.diag.Diagnostic` lists, so every
existing consumer — the caret renderer, the JSON-lines stream, the
SARIF writer, ``-Werror`` promotion in :class:`DiagnosticEngine` —
works on lint findings unchanged.

Selection follows the familiar *prefix* convention: ``--select RPL``
enables every design rule, ``--ignore RPL003`` drops one.  A finding
suppressed by the *baseline* file (schema ``repro-lint-baseline/1``)
is matched on ``(rule, file, message)`` — deliberately not on line
numbers, so unrelated edits above a known finding do not churn the
baseline.
"""

import json
import os

from ..metrics import NULL_REGISTRY
from .rules import REGISTRY, LintContext

# Registering the elaborated-design rules (RPE) is a side effect of
# importing the module; the engine is the one guaranteed chokepoint
# every consumer passes through.
from . import dataflow  # noqa: F401  (registers RPE rules)

#: Baseline file format marker.
BASELINE_SCHEMA = "repro-lint-baseline/1"


class LintEngine:
    """Runs enabled rules over units and compiled attribute grammars.

    ``select`` / ``ignore`` are iterables of rule-id prefixes
    (``"RPL"``, ``"RPA002"``); an empty/None ``select`` means *all
    registered rules*.  ``library`` (a
    :class:`repro.vhdl.library.LibraryManager`) lets RPL002/RPL005
    resolve component port modes through default bindings; without it
    those rules degrade conservatively.
    """

    def __init__(self, library=None, work=None, select=None,
                 ignore=None, metrics=None):
        self.context = LintContext(library, work)
        self.select = tuple(select or ())
        self.ignore = tuple(ignore or ())
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_findings = self.metrics.counter(
            "lint_findings_total", "lint findings by rule")
        self._m_units = self.metrics.counter(
            "lint_units_total", "units analyzed by the linter")

    # -- selection ---------------------------------------------------------

    def enabled(self, rule_id):
        if any(rule_id.startswith(p) for p in self.ignore):
            return False
        if not self.select:
            return True
        return any(rule_id.startswith(p) for p in self.select)

    def _rules(self, scope):
        return [r for r in REGISTRY.values()
                if r.scope == scope and self.enabled(r.id)]

    # -- linting -----------------------------------------------------------

    def lint_unit(self, node, kind=None):
        """Lint one VIF unit node; returns a list of Diagnostics."""
        facts = self.context.unit_facts(node, kind=kind)
        self._m_units.inc()
        found = []
        for rule in self._rules("unit"):
            for diag in rule.check(facts, self.context):
                self._m_findings.labels(rule=rule.id).inc()
                found.append(diag)
        return found

    def lint_units(self, nodes):
        found = []
        for node in nodes:
            found.extend(self.lint_unit(node))
        return found

    def lint_library(self, library=None, lib=None):
        """Lint every unit registered in a library (default: the one
        the engine was built with), in compile order."""
        library = library or self.context.library
        if library is None:
            return []
        lib = lib or library.work
        found = []
        seen = set()
        order = [key for key in getattr(library, "compile_order", ())]
        order += [key for key in library._units if key not in order]
        for key in order:
            if key in seen or key[0] != lib:
                continue
            seen.add(key)
            node = library.find_unit(*key) or library._units.get(key)
            if node is not None:
                found.extend(self.lint_unit(node))
        return found

    def lint_design(self, graph):
        """Run the elaborated-design rules (scope ``design``) over a
        :class:`repro.analysis.netlist.DesignGraph`."""
        found = []
        for rule in self._rules("design"):
            for diag in rule.check(graph, self.context):
                self._m_findings.labels(rule=rule.id).inc()
                found.append(diag)
        return found

    def lint_ag(self, compiled, entry_inherited=(), goals=()):
        """Lint one :class:`repro.ag.spec.CompiledAG`.

        ``entry_inherited`` names the start-symbol inherited
        attributes the evaluation entry supplies (RPA001 exemptions);
        ``goals`` names the root attributes read externally (RPA002
        exemptions — empty means *all* root attributes are outputs).
        """
        self.context.entry_inherited = tuple(entry_inherited)
        self.context.goals = tuple(goals)
        found = []
        for rule in self._rules("ag"):
            for diag in rule.check(compiled, self.context):
                self._m_findings.labels(rule=rule.id).inc()
                found.append(diag)
        return found


# -- baselines ------------------------------------------------------------------
#
# Keys are (rule, file, message) — deliberately not line numbers, so
# unrelated edits above a known finding do not churn the baseline.
# On disk the file component is stored *relative to the baseline
# file's own directory* (for a baseline at the repo root: the
# repo-relative path), so a committed baseline survives checkout
# moves and CI workspace paths.  Old baselines with absolute paths
# still load; they match only on the machine that wrote them, so the
# loader counts them for a deprecation note.


def _finding_key(diag):
    file = diag.span.file if diag.span is not None else None
    return (diag.code, file or "", diag.message)


def _match_key(diag):
    """The absolute-path key findings are matched on."""
    rule, file, message = _finding_key(diag)
    return (rule, os.path.abspath(file) if file else "", message)


class Baseline(set):
    """Loaded baseline keys plus load-time metadata.

    Behaves as the plain set of ``(rule, abs-file, message)`` keys
    older callers expect; ``deprecated_absolute`` counts entries that
    were stored with absolute paths by a pre-portability writer.
    """

    def __init__(self, keys=(), deprecated_absolute=0):
        set.__init__(self, keys)
        self.deprecated_absolute = deprecated_absolute


def write_baseline(path, diagnostics):
    """Write the accepted-findings baseline for ``diagnostics``.

    File keys are stored relative to the baseline's directory when
    the finding lies under it; files outside that tree keep their
    path as reported (portability is impossible for them anyway).
    """
    base = os.path.dirname(os.path.abspath(path)) or os.sep
    findings = set()
    for diag in diagnostics:
        rule, file, message = _finding_key(diag)
        if file:
            rel = os.path.relpath(os.path.abspath(file), base)
            if not rel.startswith(".."):
                file = rel
        findings.add((rule, file, message))
    findings = sorted(findings)
    payload = {
        "schema": BASELINE_SCHEMA,
        "findings": [
            {"rule": rule, "file": file, "message": message}
            for rule, file, message in findings
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return len(findings)


def load_baseline(path):
    """Load a baseline into a :class:`Baseline` of match keys.

    Relative file entries are re-anchored to the baseline file's
    directory; absolute entries (the pre-portability format) are kept
    as-is and counted in ``deprecated_absolute``.  Raises
    ``ValueError`` on an unknown schema so a stale or foreign file
    fails loudly instead of silently suppressing everything.
    """
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            "baseline %r has schema %r, expected %r"
            % (path, payload.get("schema"), BASELINE_SCHEMA))
    base = os.path.dirname(os.path.abspath(path)) or os.sep
    keys = set()
    deprecated = 0
    for f in payload.get("findings", ()):
        file = f.get("file", "")
        if file and os.path.isabs(file):
            deprecated += 1
        elif file:
            file = os.path.normpath(os.path.join(base, file))
        keys.add((f.get("rule", ""), file, f.get("message", "")))
    return Baseline(keys, deprecated_absolute=deprecated)


def apply_baseline(diagnostics, baseline):
    """Split findings into (new, suppressed-by-baseline)."""
    if not baseline:
        return list(diagnostics), []
    new, suppressed = [], []
    for diag in diagnostics:
        if _match_key(diag) in baseline \
                or _finding_key(diag) in baseline:
            suppressed.append(diag)
        else:
            new.append(diag)
    return new, suppressed
