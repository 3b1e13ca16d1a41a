"""The package keeps no definition that only its own tests call.

An AST scan of ``src/concc`` lists every module-level function and class
and every method that is not a dunder.  Each must be named somewhere in
``src/concc``, ``scripts/`` or ``perfbench/`` outside its own definition:
read as a variable or an attribute, imported, or written as a whole
string constant (perfbench rebinds functions by attribute name).  Methods
are matched by name alone, so one method is named wherever an attribute
of that name is read.  A definition kept for a caller outside that code
is listed in ``KEPT`` with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "concc"
CALLERS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")

KEPT = {
    "freeprod.SyllablePath.vertices": "differential-test reader: the walk's vertices against a product of prefixes",
    "freeprod.aligned_power_instance": "paper table: regularity/pairing audits of the probe words' powers",
    "freeprod.hyperbolicity_report": "paper table: hyperbolicity classification; acceptance test 8",
    "freeprod.parse_path": "paper table: syllable normal forms, read back from the path text `str` prints",
    "freeprod.path_components": "paper table: path components",
    "hnn.Tower.read_printed": "differential-test reader: printed words read back to the words str printed",
    "hnn.TowerWord.signature": "differential-test reader: a word and its inverse reduce to mirrored signatures",
    "hnn.cyclic_membership": "paper table: cyclic membership",
    "hnn.find_pinch": "paper table: Britton pinch detection",
    "hnn.verify_conjugator": "differential-test reader: conjugator claims on tower words, against is_trivial",
    "presentations.NonConjugacyCertificate.from_json": "differential-test reader: forged and round-tripped certificates",
    "smallcanc.word_family_w": "paper table: the scaled relator family",
    "substrings.SuffixAutomaton.matching_statistics":
        "perfbench rebinding: SuffixAutomaton stays while perfbench/spans.py rebinds its __init__",
    "substrings.SuffixAutomaton.occurrence_end":
        "perfbench rebinding: SuffixAutomaton stays while perfbench/spans.py rebinds its __init__",
    "towers.bounded_simple_witness": "paper table: bounded simplicity witnesses",
}


def _named(tree: ast.AST) -> Counter:
    """How often each identifier is named in tree."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out[node.value] += 1
    return out


def _definitions():
    """(module.qualname, name, node) of every definition the scan covers."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")
                    ):
                        yield f"{path.stem}.{node.name}.{sub.name}", sub.name, sub


def _unnamed() -> list[str]:
    named: Counter = Counter()
    for top in CALLERS:
        for path in sorted(top.rglob("*.py")):
            named += _named(ast.parse(path.read_text()))
    return [qual for qual, name, node in _definitions() if named[name] <= _named(node)[name]]


def test_every_definition_has_a_caller_or_a_reason():
    loose = [qual for qual in _unnamed() if qual not in KEPT]
    assert not loose, "named only in their own definitions: " + ", ".join(loose)


def test_every_kept_name_still_needs_keeping():
    stale = sorted(set(KEPT) - set(_unnamed()))
    assert not stale, "kept but now named elsewhere, or gone: " + ", ".join(stale)
