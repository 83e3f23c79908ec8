"""Golden outputs: every CLI command x output format x model file.

The model files are the bundled ones plus ``extra.ssm`` (an FMEA table,
goals without defeater evidence, countermeasures and a scenario that runs
out of rounds).  ``hazards.ssm``, a hazard goal whose solutions name a
fault tree and an FMEA table, adds derivation from those.  Beside that
matrix sit the error paths (exit 2) in both formats, and the coloured text
lines as a colour terminal receives them.
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
EXTRA = """\
# Inputs the bundled files lack: an FMEA table, goals declared out of id
# order, a goal without defeater evidence, an ADT with a countermeasure and
# a scenario that runs out of rounds.

gsn "Thin" {
  goal G1 "Door stays shut when it should"
  goal G3 "Lock holds" under G1 {
    defeaters outruled = 1 total = 4
  }
  goal G2 "No evidence yet" under G1
  security_link under G3 adt = "Door" weight = 1
}

adt "Door" {
  attack OR "open door" {
    attack "pick lock" {
      attr probability = 0.2
      attr cost = 5
      attr time = 3
      counter defense "alarm" {
        attr probability = 0.5
        attr cost = 4
        attr time = 2
      }
    }
    attack AND "force door" {
      attack "pry frame" {
        attr probability = 0.4
        attr cost = 2
        attr time = 1
      }
      attack "break hinge" {
        attr probability = 0.5
        attr cost = 3
        attr time = 4
      }
    }
  }
}

fmea "Valves" {
  row V1 function = "open valve" mode = loss_of_function severity = 7 occurrence = 3 detection = 4
  row V2 function = "close valve" mode = erroneous severity = 9 occurrence = 2 detection = 8
}

scenario "Stuck" {
  gsn = "Thin"
  adt = "Door"
  thresholds min_belief = 0.9 max_disbelief = 0.05 max_uncertainty = 0.05
  max_rounds = 1
  set_policy unassessed
  set_policy attribute = probability op = "<=" threshold = 0.5
}
"""
# Derivation from fault-tree and FMEA solutions: only its `derive adt`, `fta
# cutsets` and `fmea rpn` are frozen.
HAZARDS = """\
# A hazard goal whose solutions name a fault tree and an FMEA table that
# uses all four failure modes.

gsn "Pump" {
  goal G1 "Pump delivers coolant" {
    hazard impact = high mechanism = stopping trace = Pump
  }
  strategy S1 "Argue over the pump's failure analyses" under G1
  solution E1 "Fault tree of the loss of flow" under S1 {
    fta_ref = "LossOfFlow"
  }
  solution E2 "FMEA of the pump" under S1 {
    fmea_ref = "PumpFmea"
  }
}

fta "LossOfFlow" {
  top Loss
  gate Loss OR [Motor, Valves]
  gate Valves AND [ValveA, ValveB]
  event Motor
  event ValveA
  event ValveB
}

fmea "PumpFmea" {
  row P1 function = "drive motor" mode = loss_of_function severity = 9 occurrence = 2 detection = 3
  row P2 function = "speed sensor" mode = erroneous severity = 6 occurrence = 4 detection = 5 effect = "wrong flow" cause = "drift"
  row P3 function = "relief valve" mode = unintended_action severity = 3 occurrence = 1 detection = 2
  row P4 function = "twin impeller" mode = partial_loss severity = 5 occurrence = 3 detection = 7
}
"""
# Side files for the error paths, an invalid model and the second verdict colour.
SIDE_FILES = {
    VERDICTS: "# every bundled ADT judged unacceptable\nAirbag Attack = unacceptable_risk\n",
    POLICY: "attribute = probability\nop = <=\nthreshold = 0.1\n",
    "policy_lax.txt": "attribute = probability\nop = <=\nthreshold = 0.5\n",
    "verdicts_no_eq.txt": "Airbag Attack unacceptable_risk\n",
    "verdicts_bad_value.txt": "Airbag Attack = maybe\n",
    "policy_bad_key.txt": "attribute = probability\ncolour = red\n",
    "broken.ssm": 'gsn "Broken" {\n  goal G1\n',
    "invalid.ssm": 'gsn "Loop" {\n  goal G1 "a"\n  goal G1 "b" under G1\n}\n',
}


def _sources() -> dict[str, str]:
    return {**{name: load_bundled(name) for name in BUNDLED}, "extra.ssm": EXTRA}


def _names(mapping) -> list[str]:
    # A file without a model of the kind still runs the command once, so the
    # "unknown ... (available: none)" error is frozen too.
    return sorted(mapping) or ["none"]


def cases() -> dict[str, list[str]]:
    """Case id -> argv (without ``--format``), in a fixed order."""
    out: dict[str, list[str]] = {}
    for file, text in _sources().items():
        doc = parse(text).document
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

    for argv in (["derive", "adt", "hazards.ssm", "--gsn", "Pump", "--dot", DOT_OUT],
                 ["fta", "cutsets", "hazards.ssm", "--tree", "LossOfFlow"],
                 ["fmea", "rpn", "hazards.ssm", "--table", "PumpFmea"]):
        out[f"hazards: {' '.join(argv)}"] = argv

    def error(*argv: str) -> None:
        out[f"error: {' '.join(argv)}"] = list(argv)

    # An unknown name of each block kind, where the file has some.
    error("fta", "cutsets", "servertheft.ssm", "--tree", "nope")
    error("fmea", "rpn", "extra.ssm", "--table", "nope")
    error("gsn", "confidence", "airbag.ssm", "--model", "nope")
    error("derive", "adt", "airbag.ssm", "--gsn", "nope")
    error("adt", "eval", "airbag.ssm", "--adt", "nope", "--attribute", "cost")
    error("process", "run", "airbag.ssm", "--scenario", "nope")
    error("export", "dot", "airbag.ssm", "--model", "nope")
    error("validate", "missing.ssm")
    error("validate", "broken.ssm")
    error("fta", "cutsets", "broken.ssm", "--tree", "ServerTheft")
    error("gsn", "confidence", "airbag.ssm", "--model", "Airbag",
          "--verdicts", "verdicts_no_eq.txt")
    error("gsn", "confidence", "airbag.ssm", "--model", "Airbag",
          "--verdicts", "verdicts_bad_value.txt")
    error("adt", "eval", "airbag.ssm", "--adt", "Airbag Attack", "--attribute",
          "probability", "--policy", "policy_bad_key.txt")
    error("adt", "eval", "airbag.ssm", "--adt", "Airbag Attack", "--attribute", "bogus")
    out["finding: validate invalid.ssm"] = ["validate", "invalid.ssm"]
    return out


def _stem(argv: list[str]) -> str:
    return next(arg for arg in argv if arg.endswith(".ssm"))[: -len(".ssm")]


# Text output that carries colour: run on a colour terminal, SAFSEC_COLOR unset.
COLOR_CASES = {
    f"{_stem(argv)}: {' '.join(argv)}": argv
    for argv in (
        ["validate", "airbag.ssm"],
        ["gsn", "confidence", "extra.ssm", "--model", "Thin"],
        ["adt", "eval", "airbag.ssm", "--adt", "Airbag Attack", "--attribute",
         "probability", "--policy", POLICY],
        ["adt", "eval", "airbag.ssm", "--adt", "Airbag Attack", "--attribute",
         "probability", "--policy", "policy_lax.txt"],
        ["conflicts", "building.ssm"],
        ["conflicts", "building_revised.ssm"],
        ["process", "run", "airbag.ssm", "--scenario", "Airbag Hardening"],
        ["process", "run", "extra.ssm", "--scenario", "Stuck"],
    )
}


def _write_inputs(directory: Path) -> None:
    for name, text in {**_sources(), "hazards.ssm": HAZARDS, **SIDE_FILES}.items():
        (directory / name).write_text(text, encoding="utf-8")


def run_case(directory: Path, mode: str, argv: list[str]) -> dict:
    """Run one command inside ``directory`` (relative paths keep output stable).

    ``mode`` is ``text`` or ``machine`` (the ``--format``, colour off), or
    ``color``: text on a colour terminal with ``SAFSEC_COLOR`` unset.
    """
    dot_file = directory / DOT_OUT
    if dot_file.exists():
        dot_file.unlink()
    color = mode == "color"
    fmt = "text" if color else mode
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        result = CliRunner().invoke(
            main,
            ["--format", fmt, *argv],
            env={"SAFSEC_COLOR": None if color else "0"},
            color=color,
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
ARGV = {
    **{(case, fmt): argv for case, argv in CASES.items() for fmt in ("text", "machine")},
    **{(case, "color"): argv for case, argv in COLOR_CASES.items()},
}
GOLDEN_IDS = list(ARGV)


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


@pytest.mark.parametrize("case, mode", GOLDEN_IDS)
def test_cli_output_matches_golden(golden, inputs, case, mode):
    assert run_case(inputs, mode, ARGV[case, mode]) == golden[f"{mode} | {case}"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _write_inputs(directory)
        frozen = {
            f"{mode} | {case}": run_case(directory, mode, argv)
            for (case, mode), argv in ARGV.items()
        }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(frozen, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(frozen)} cases to {GOLDEN}")
