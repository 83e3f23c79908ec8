"""No function in ``src/safsec`` calls itself by name.

Models nest without a bound (an ADT as deep as its file, a fault tree as
long as its gate chain), and a recursive walker overflows Python's stack a
thousand or so levels down.  Functions that still recurse are listed here
with the reason they may.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "safsec"

ALLOWED = {
    # ADT evaluation stays recursive until the benchmark's 1,200-deep ADT has
    # a reference answer (ROADMAP item 1) and large answers are held in bounded
    # memory (item 6).  As a fold over ``adt_walk``, the timed `adt eval` of
    # that tree went from exit 1 (RecursionError) in 9-15 ms to exit 0 with a
    # 1.53 MB answer in 27-41 ms, and the process peak from 21.2 to 28.6 MB
    # (one request through CliRunner, Python 3.11, 2-vCPU VM), against the
    # benchmark's 10 % bound on peak_rss_mb.
    "adteval.evaluate.rec",
}


def _calls_itself(func: ast.FunctionDef, in_class: bool) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == func.name:
                return True
            if (in_class and isinstance(callee, ast.Attribute) and callee.attr == func.name
                    and isinstance(callee.value, ast.Name) and callee.value.id in ("self", "cls")):
                return True
    return False


def self_calling_functions() -> set[str]:
    found: set[str] = set()

    def visit(node: ast.AST, qualname: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{qualname}.{child.name}", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{qualname}.{child.name}"
                if _calls_itself(child, in_class):
                    found.add(name)
                visit(child, name, False)
            else:
                visit(child, qualname, in_class)

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        visit(ast.parse(path.read_text(encoding="utf-8")), module, False)
    return found


def test_only_the_listed_functions_call_themselves():
    assert self_calling_functions() == ALLOWED


def test_the_guard_sees_a_self_call():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n"
                     "class C:\n    def g(self):\n        return self.g()\n"
                     "    def h(self):\n        return super().h()\n")
    f, c = tree.body
    g, h = c.body
    assert _calls_itself(f, False) and _calls_itself(g, True) and not _calls_itself(h, True)
