"""Golden outputs: every CLI command x output format x bundled model file.

The expected exit codes, stdout, stderr and written files live in
``golden/cli.json``.  Regenerate them (only on purpose, when an output is
meant to change) with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import os
from pathlib import Path

import pytest
from click.testing import CliRunner

from safsec.cli import main
from safsec.modelfile import parse

from conftest import load_bundled

BUNDLED = ("airbag.ssm", "servertheft.ssm", "building.ssm", "building_revised.ssm")
GOLDEN = Path(__file__).parent / "golden" / "cli.json"
VERDICTS = "verdicts.txt"
POLICY = "policy.txt"
DOT_OUT = "derived.dot"


def _names(mapping) -> list[str]:
    # A file without a model of the kind still runs the command once, so the
    # "unknown ... (available: none)" error is frozen too.
    return sorted(mapping) or ["none"]


def cases() -> dict[str, list[str]]:
    """Case id -> argv (without ``--format``), in a fixed order."""
    out: dict[str, list[str]] = {}
    for file in BUNDLED:
        doc = parse(load_bundled(file)).document
        stem = file[: -len(".ssm")]

        def add(*argv: str) -> None:
            out[f"{stem}: {' '.join(argv)}"] = list(argv)

        add("validate", file)
        for tree in _names(doc.ftas):
            add("fta", "cutsets", file, "--tree", tree)
            add("fta", "cutsets", file, "--tree", tree, "--minimal")
        for table in _names(doc.fmeas):
            add("fmea", "rpn", file, "--table", table)
        for model in _names(doc.gsns):
            add("gsn", "confidence", file, "--model", model)
            add("gsn", "confidence", file, "--model", model, "--verdicts", VERDICTS)
            add("derive", "adt", file, "--gsn", model, "--dot", DOT_OUT)
        for adt in _names(doc.adts):
            for attribute in ("cost", "probability", "time", "time_sequential"):
                add("adt", "eval", file, "--adt", adt, "--attribute", attribute)
            add("adt", "eval", file, "--adt", adt, "--attribute", "probability",
                "--policy", POLICY)
        add("conflicts", file)
        add("conflicts", file, "--wide-candidates")
        for scenario in _names(doc.scenarios):
            add("process", "run", file, "--scenario", scenario)
        for model in sorted({**doc.gsns, **doc.adts, **doc.ftas}) or ["none"]:
            add("export", "dot", file, "--model", model)
    return out


def _write_inputs(directory: Path) -> None:
    for name in BUNDLED:
        (directory / name).write_text(load_bundled(name), encoding="utf-8")
    (directory / VERDICTS).write_text(
        "# every bundled ADT judged unacceptable\nAirbag Attack = unacceptable_risk\n",
        encoding="utf-8",
    )
    (directory / POLICY).write_text(
        "attribute = probability\nop = <=\nthreshold = 0.1\n", encoding="utf-8"
    )


def run_case(directory: Path, fmt: str, argv: list[str]) -> dict:
    """Run one command inside ``directory`` (relative paths keep output stable)."""
    dot_file = directory / DOT_OUT
    if dot_file.exists():
        dot_file.unlink()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        result = CliRunner().invoke(
            main, ["--format", fmt, *argv], env={"SAFSEC_COLOR": "0"}
        )
    finally:
        os.chdir(cwd)
    return {
        "exit_code": result.exit_code,
        "stdout": result.stdout,
        "stderr": result.stderr,
        "dot": dot_file.read_text(encoding="utf-8") if dot_file.exists() else None,
    }


CASES = cases()
GOLDEN_IDS = [(case, fmt) for case in CASES for fmt in ("text", "machine")]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden")
    _write_inputs(directory)
    return directory


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(f"{fmt} | {case}" for case, fmt in GOLDEN_IDS)


@pytest.mark.parametrize("case, fmt", GOLDEN_IDS)
def test_cli_output_matches_golden(golden, inputs, case, fmt):
    assert run_case(inputs, fmt, CASES[case]) == golden[f"{fmt} | {case}"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _write_inputs(directory)
        frozen = {
            f"{fmt} | {case}": run_case(directory, fmt, argv)
            for case, argv in CASES.items()
            for fmt in ("text", "machine")
        }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(frozen, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(frozen)} cases to {GOLDEN}")
