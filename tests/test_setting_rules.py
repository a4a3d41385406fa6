"""Each kind of setting has one rule, in ``linalg``: ``_whole(..., least=k,
most=j)`` states "a size is a whole number >= k and <= j" and
``_finite_nonneg(..., below=b)`` states "a real setting is finite and >= 0 (or
> 0), and < b".  No other module writes either message out by hand, nor a
range in a wording of its own, so a new check is one call to the rule, not a
new copy of it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sketchls"
#: the wording of the two rules
OWN_WORDS = ("must be >= ", "must be <= ", "must be finite")
#: ... and of the ranges once worded by hand beside them
RULE_WORDS = OWN_WORDS + ("must lie in", "not in 1..")
#: (module, message) of each hand-written copy that is not a setting check
ALLOWED = set()


def texts(node):
    """The texts a string node can give: a constant as it is, and an f-string
    with each field as ``{}``, except that a field choosing between two
    constants, as in ``{'a' if c else 'b'}``, is taken both ways."""
    if isinstance(node, ast.Constant):
        return [node.value] if isinstance(node.value, str) else []
    out = [""]
    for part in node.values:
        field = part.value if isinstance(part, ast.FormattedValue) else None
        if field is None:
            options = [part.value]
        elif isinstance(field, ast.IfExp) and all(
                isinstance(branch, ast.Constant) for branch in (field.body, field.orelse)):
            options = [str(field.body.value), str(field.orelse.value)]
        else:
            options = ["{}"]
        out = [text + option for text in out for option in options]
    return out


def rule_messages(module):
    """Every string constant and f-string of ``module`` that words one of the
    two rules."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    pieces = {id(part) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
              for part in node.values}
    return [text for node in ast.walk(tree)
            if isinstance(node, (ast.Constant, ast.JoinedStr)) and id(node) not in pieces
            for text in texts(node) if any(words in text for words in RULE_WORDS)]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "linalg"))
def test_no_module_words_a_setting_rule_by_hand(module):
    copies = [text for text in rule_messages(module) if (module, text) not in ALLOWED]
    assert not copies, f"{module} writes out a rule of linalg._whole or _finite_nonneg: {copies}"


def test_linalg_words_each_rule():
    assert {words for words in RULE_WORDS
            if any(words in text for text in rule_messages("linalg"))} == set(OWN_WORDS)
