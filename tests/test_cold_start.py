"""What ``import safsec.cli`` does before a command runs, in a fresh interpreter.

Every command pays for the import, so it builds nothing that only some
files need: ``dataclasses`` and ``decimal`` stay unimported, and the
patterns for ADT nodes, clauses and the token scanner, the conflict
search's bit tables and the witness family's value table are built on
first use (each through ``functools.cache``).  The ``conflicts`` command
builds only the search's tables: it writes a witness family's rows from its
patterns, and the value table serves only a witness read from the family.
The engines are imported eagerly, as the benchmark's tracer wraps them by
module name.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import safsec

ROOT = Path(__file__).resolve().parent.parent
SRC = os.path.dirname(os.path.dirname(safsec.__file__))
DATA = Path(safsec.__file__).parent / "data"

HEAD = """
import json, sys
import safsec.cli
from safsec import conflicts
from safsec.modelfile import lexer, parse, parser
loaded = sorted(sys.modules)
LAZY = {"adt": parser._adt, "clause": parser._literal, "scanner": lexer._scan,
        "conflict tables": conflicts._tables, "witness values": conflicts._values}
def built():
    return sorted(name for name, make in LAZY.items() if make.cache_info().currsize)
"""
PROBE = HEAD + """
states = [built()]
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as handle:
        assert parse(handle.read()).ok
    states.append(built())
print(json.dumps({"loaded": loaded, "built": states}))
"""


# Runs ``conflicts`` in both formats on the file that it names.
CONFLICTS_PROBE = HEAD + """
from click.testing import CliRunner
for fmt in ("machine", "text"):
    result = CliRunner().invoke(safsec.cli.main, ["--format", fmt, "conflicts", sys.argv[1]])
    assert result.exit_code == 1, result.output
print(json.dumps(built()))
"""


def traced_modules() -> set[str]:
    """The modules that the benchmark's tracer (``perfbench/tracing.py``) wraps."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    (targets,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]]
    return {row.elts[1].value for row in targets.elts}


def probe(*names: str, code: str = PROBE):
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", code, *(str(DATA / n) for n in names)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_the_import_loads_every_traced_engine_and_neither_dataclasses_nor_decimal():
    loaded = set(probe()["loaded"])
    modules = traced_modules()
    assert len(modules) >= 10 and "safsec.conflicts" in modules
    assert modules <= loaded
    assert not {"dataclasses", "decimal", "_decimal", "_pydecimal"} & loaded


def test_a_fault_tree_file_builds_no_pattern_that_it_does_not_need():
    before, after_fta, after_airbag = probe("servertheft.ssm", "airbag.ssm")["built"]
    assert before == after_fta == []
    assert after_airbag == ["adt"]


def test_conflicts_writes_its_witnesses_without_reading_them():
    # Both formats are written from the witness family's patterns, so the
    # table that reading a witness's assignment needs is never built; the
    # file's clauses build the clause pattern.
    assert probe("building.ssm", code=CONFLICTS_PROBE) == ["clause", "conflict tables"]
