"""The library raises ``ValueError`` and defines no exception class of its own.

The CLI turns :data:`safsec.cli.ERRORS` into exit 2 and one line; any other
exception ends in a traceback.  The only classes allowed are the parser's
own, which it turns into diagnostics.
"""

import ast
import builtins
from pathlib import Path

import pytest

import safsec
from safsec import cli
from safsec.adteval import COST, PROBABILITY
from safsec.model import Actor, AdtNode, AttackDefenseTree, GsnModel, Refinement
from safsec.process import Replay

SRC = Path(__file__).resolve().parent.parent / "src" / "safsec"

ALLOWED = {"modelfile.parser._SyntaxError", "modelfile.parser._Abort"}


def _name(base: ast.expr) -> str:
    return base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")


def exception_classes(sources: dict[str, str]) -> set[str]:
    """``module.Class`` for each class in ``sources`` (module name -> text)
    that derives from a built-in exception, directly or through another."""
    classes = {f"{module}.{node.name}": (node.name, {_name(b) for b in node.bases})
               for module, text in sources.items() for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.ClassDef)}
    bases = {name for name, value in vars(builtins).items()
             if isinstance(value, type) and issubclass(value, BaseException)}
    found: set[str] = set()
    while more := {q for q, (_, parents) in classes.items() if q not in found and parents & bases}:
        found |= more
        bases |= {classes[q][0] for q in more}
    return found


def test_only_the_parsers_exceptions_are_defined():
    sources = {".".join(path.relative_to(SRC).with_suffix("").parts): path.read_text("utf-8")
               for path in sorted(SRC.rglob("*.py"))}
    assert exception_classes(sources) == ALLOWED


def test_the_cli_catches_value_and_os_errors():
    assert cli.ERRORS == (ValueError, OSError)


def test_the_guard_sees_an_exception_class():
    text = ("class A(ValueError):\n    pass\nclass B(A):\n    pass\nclass C:\n    pass\n"
            "class D(errors.Problem, Exception):\n    pass\nclass E(C):\n    pass\n")
    assert exception_classes({"m": text}) == {"m.A", "m.B", "m.D"}


def test_a_childless_refinement_is_a_value_error_in_every_fold():
    # The validator's text; ``reduce`` over no children raised TypeError.
    for refinement in (Refinement.AND, Refinement.OR):
        tree = AttackDefenseTree("a", AdtNode(Actor.ATTACK, "r", Refinement.OR, children=(
            AdtNode(Actor.ATTACK, "x", attributes=(("cost", 1.0), ("probability", 0.5))),
            AdtNode(Actor.ATTACK, "bare", refinement))))
        message = f"^{refinement.value} node 'bare' has no children$"
        for domain in (COST, PROBABILITY):
            with pytest.raises(ValueError, match=message):
                safsec.evaluate(tree, domain)
            with pytest.raises(ValueError, match=message):
                Replay(GsnModel("m", ()), tree).root_value(domain)
