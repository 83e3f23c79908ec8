"""End-to-end CLI behavior: exit codes, text output, machine output."""

import json
import os
import subprocess
import sys

import pytest

import safsec
from click.testing import CliRunner

from safsec.cli import main
from safsec.modelfile import parse
from safsec.process import run_process

from conftest import load_bundled


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workdir(tmp_path):
    for name in ("airbag.ssm", "servertheft.ssm", "building.ssm", "building_revised.ssm"):
        (tmp_path / name).write_text(load_bundled(name), encoding="utf-8")
    return tmp_path


def run(runner, workdir, *args, env=None):
    env = {"SAFSEC_COLOR": "0", **(env or {})}
    return runner.invoke(main, [str(a) for a in args], env=env)


class TestValidate:
    def test_clean_file_exits_zero(self, runner, workdir):
        result = run(runner, workdir, "validate", workdir / "airbag.ssm")
        assert result.exit_code == 0, result.output
        assert "ok" in result.output

    def test_invariant_violation_exits_one(self, runner, workdir, tmp_path):
        bad = tmp_path / "bad.ssm"
        bad.write_text(
            'gsn "m" {\n  goal G1 "a"\n  goal G1 "b" under G1\n}\n',
            encoding="utf-8",
        )
        result = run(runner, workdir, "validate", bad)
        assert result.exit_code == 1
        assert "G1" in result.output

    def test_parse_error_exits_two(self, runner, workdir, tmp_path):
        broken = tmp_path / "broken.ssm"
        broken.write_text("gsn {", encoding="utf-8")
        result = run(runner, workdir, "validate", broken)
        assert result.exit_code == 2

    def test_missing_file_exits_two(self, runner, workdir):
        result = run(runner, workdir, "validate", workdir / "nope.ssm")
        assert result.exit_code == 2

    # Comments over several lines, CRLF line ends and escaped strings before
    # a lexical and a syntax error; the file reads with universal newlines,
    # the parser takes the text as it is.
    HEAD = ('# Airbag model, CRLF line ends\r\n# second comment line\r\n'
            'gsn "m \\"quoted\\" name" {\r\n  # a goal\r\n'
            '  goal G1 "tab\\there\\\\" # trailing\r\n')

    @pytest.mark.parametrize("tail, diagnostic", [
        ('  goal G2 "bad \\q escape"\r\n}\r\n', "6:16: error: unknown escape \\q"),
        ('  goal G2 "b" under\r\n}\r\n', "7:1: error: expected 'IDENT', got '}'"),
    ])
    def test_parse_error_position(self, runner, workdir, tmp_path, tail, diagnostic):
        broken = tmp_path / "broken.ssm"
        broken.write_bytes((self.HEAD + tail).encode("utf-8"))
        result = run(runner, workdir, "validate", broken)
        assert result.exit_code == 2
        assert result.stderr == f"{broken}:{diagnostic}\n"
        assert [str(d) for d in parse(self.HEAD + tail).diagnostics] == [diagnostic]


class TestFtaCutsets:
    def test_minimal_cut_sets_text(self, runner, workdir):
        result = run(
            runner,
            workdir,
            "fta",
            "cutsets",
            workdir / "servertheft.ssm",
            "--tree",
            "ServerTheft",
            "--minimal",
        )
        assert result.exit_code == 0, result.output
        assert result.output.splitlines() == ["{A}", "{B, C}", "{E, F}"]

    def test_machine_output(self, runner, workdir):
        result = run(
            runner,
            workdir,
            "--format",
            "machine",
            "fta",
            "cutsets",
            workdir / "servertheft.ssm",
            "--tree",
            "ServerTheft",
            "--minimal",
        )
        payload = json.loads(result.output)
        assert payload["cut_sets"] == [["A"], ["B", "C"], ["E", "F"]]
        assert payload["minimal"] is True

    def test_unknown_tree_exits_two(self, runner, workdir):
        result = run(
            runner, workdir, "fta", "cutsets", workdir / "servertheft.ssm", "--tree", "nope"
        )
        assert result.exit_code == 2


class TestFmeaRpn:
    def test_ranked_output(self, runner, workdir, tmp_path):
        f = tmp_path / "t.ssm"
        f.write_text(
            'fmea "Valves" {\n'
            '  row V1 function = "open valve" mode = loss_of_function '
            "severity = 7 occurrence = 3 detection = 4\n"
            '  row V2 function = "close valve" mode = erroneous '
            "severity = 9 occurrence = 2 detection = 8\n"
            "}\n",
            encoding="utf-8",
        )
        result = run(runner, workdir, "fmea", "rpn", f, "--table", "Valves")
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert "V2" in lines[1] and "144" in lines[1]
        assert "V1" in lines[2] and "84" in lines[2]
        assert "not security-relevant" in result.output


class TestGsnConfidence:
    def test_triples_without_verdicts(self, runner, workdir):
        result = run(
            runner,
            workdir,
            "gsn",
            "confidence",
            workdir / "airbag.ssm",
            "--model",
            "Airbag",
        )
        assert result.exit_code == 0, result.output
        assert "G1: 14/18 defeaters -> B=0.23 D=0.07 U=0.70" in result.output

    def test_triples_with_verdict_file(self, runner, workdir, tmp_path):
        verdicts = tmp_path / "verdicts.txt"
        verdicts.write_text("Airbag Attack = acceptable_risk\n", encoding="utf-8")
        result = run(
            runner,
            workdir,
            "gsn",
            "confidence",
            workdir / "airbag.ssm",
            "--model",
            "Airbag",
            "--verdicts",
            verdicts,
        )
        assert result.exit_code == 0, result.output
        assert "G1: 14/18 defeaters -> B=0.90 D=0.07 U=0.03" in result.output
        assert "acceptable_risk" in result.output

    def test_bad_verdict_value_exits_two(self, runner, workdir, tmp_path):
        verdicts = tmp_path / "verdicts.txt"
        verdicts.write_text("Airbag Attack = fine\n", encoding="utf-8")
        result = run(
            runner,
            workdir,
            "gsn",
            "confidence",
            workdir / "airbag.ssm",
            "--model",
            "Airbag",
            "--verdicts",
            verdicts,
        )
        assert result.exit_code == 2


class TestDerive:
    def test_prints_parseable_adt(self, runner, workdir):
        result = run(
            runner, workdir, "derive", "adt", workdir / "airbag.ssm", "--gsn", "Airbag"
        )
        assert result.exit_code == 0, result.output
        assert 'adt "Attack Airbag"' in result.output
        assert "tamper voter Airbag" in result.output

    def test_writes_ssm_and_dot_files(self, runner, workdir, tmp_path):
        out = tmp_path / "derived.ssm"
        dot_file = tmp_path / "derived.dot"
        result = run(
            runner,
            workdir,
            "derive",
            "adt",
            workdir / "airbag.ssm",
            "--gsn",
            "Airbag",
            "--out",
            out,
            "--dot",
            dot_file,
        )
        assert result.exit_code == 0, result.output
        assert "attack" in out.read_text(encoding="utf-8")
        assert dot_file.read_text(encoding="utf-8").startswith("digraph")


class TestAdtEval:
    def test_probability_values(self, runner, workdir):
        result = run(
            runner,
            workdir,
            "adt",
            "eval",
            workdir / "airbag.ssm",
            "--adt",
            "Airbag Attack",
            "--attribute",
            "probability",
        )
        assert result.exit_code == 0, result.output
        assert "root: Attack Airbag = 0.3" in result.output

    def test_policy_adds_verdict(self, runner, workdir, tmp_path):
        policy = tmp_path / "policy.txt"
        policy.write_text(
            "attribute = probability\nop = <=\nthreshold = 0.1\n", encoding="utf-8"
        )
        result = run(
            runner,
            workdir,
            "adt",
            "eval",
            workdir / "airbag.ssm",
            "--adt",
            "Airbag Attack",
            "--attribute",
            "probability",
            "--policy",
            policy,
        )
        assert result.exit_code == 0, result.output
        assert "verdict: unacceptable_risk" in result.output

    def test_unknown_attribute_exits_two(self, runner, workdir):
        result = run(
            runner,
            workdir,
            "adt",
            "eval",
            workdir / "airbag.ssm",
            "--adt",
            "Airbag Attack",
            "--attribute",
            "entropy",
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("policy, evaluations, verdict", [
        ("threshold = 0.1", 1, "unacceptable_risk"),
        ("threshold = 0.5\nprob_or = max", 1, "acceptable_risk"),
        ("threshold = 0.1\nprob_or = noisy_or", 2, "unacceptable_risk"),
        ("unassessed = true", 1, "no_assessment"),
    ])
    def test_policy_in_the_evaluated_domain_evaluates_once(
        self, runner, workdir, tmp_path, monkeypatch, policy, evaluations, verdict
    ):
        import safsec.adteval

        original = safsec.adteval.evaluate
        calls = []

        def counting(tree, domain):
            calls.append(domain.name)
            return original(tree, domain)

        monkeypatch.setattr(safsec.adteval, "evaluate", counting)
        path = tmp_path / "policy.txt"
        path.write_text(f"attribute = probability\nop = <=\n{policy}\n", encoding="utf-8")
        result = run(runner, workdir, "--format", "machine", "adt", "eval",
                     workdir / "airbag.ssm", "--adt", "Airbag Attack",
                     "--attribute", "probability", "--policy", path)
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["verdict"] == verdict
        assert len(calls) == evaluations


class TestConflicts:
    def test_contradiction_exits_one(self, runner, workdir):
        result = run(runner, workdir, "conflicts", workdir / "building.ssm")
        assert result.exit_code == 1
        assert "CONTRADICTION on DoorLock" in result.output
        assert "Auth=false" in result.output and "SigFire=true" in result.output

    def test_revised_model_is_consistent(self, runner, workdir):
        result = run(runner, workdir, "conflicts", workdir / "building_revised.ssm")
        assert result.exit_code == 0, result.output
        assert "consistent" in result.output

    def test_machine_output_contains_witness(self, runner, workdir):
        result = run(
            runner, workdir, "--format", "machine", "conflicts", workdir / "building.ssm"
        )
        payload = json.loads(result.output)
        assert payload["contradictions"]
        witness = payload["contradictions"][0]
        assert witness["conflicted_signal"] == "DoorLock"
        assert witness["assignment"] == {"Auth": False, "SigFire": True}


class TestProcessRun:
    def test_accepted_scenario(self, runner, workdir):
        result = run(
            runner,
            workdir,
            "process",
            "run",
            workdir / "airbag.ssm",
            "--scenario",
            "Airbag Hardening",
        )
        assert result.exit_code == 0, result.output
        assert "status: accepted" in result.output
        assert "round 3" in result.output

    def test_machine_transcript(self, runner, workdir):
        result = run(
            runner,
            workdir,
            "--format",
            "machine",
            "process",
            "run",
            workdir / "airbag.ssm",
            "--scenario",
            "Airbag Hardening",
        )
        payload = json.loads(result.output)
        assert payload["status"] == "accepted"
        assert [r["verdict"] for r in payload["rounds"]] == [
            "no_assessment",
            "unacceptable_risk",
            "acceptable_risk",
        ]
        assert payload["final"]["belief"] == pytest.approx(0.9)

    def test_unmet_thresholds_exit_one(self, runner, workdir, tmp_path):
        text = load_bundled("airbag.ssm").replace("min_belief = 0.8", "min_belief = 0.99")
        f = tmp_path / "strict.ssm"
        f.write_text(text, encoding="utf-8")
        result = run(
            runner, workdir, "process", "run", f, "--scenario", "Airbag Hardening"
        )
        assert result.exit_code == 1
        assert "status: exhausted" in result.output


class TestExportDot:
    @pytest.mark.parametrize("name", ["Airbag", "Airbag Attack"])
    def test_renders_digraph(self, runner, workdir, name):
        result = run(
            runner, workdir, "export", "dot", workdir / "airbag.ssm", "--model", name
        )
        assert result.exit_code == 0, result.output
        assert result.output.startswith("digraph")

    def test_unknown_model_lists_available(self, runner, workdir):
        result = run(
            runner, workdir, "export", "dot", workdir / "airbag.ssm", "--model", "nope"
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    @pytest.mark.parametrize("other, kinds", [
        ('fta "X" {\n  top E1\n  event E1\n}\n', "gsn model, fault tree"),
        ('adt "X" {\n  attack "x" {\n    attr probability = 0.5\n  }\n}\n', "gsn model, adt"),
    ])
    def test_a_name_shared_by_two_kinds_is_refused(self, runner, workdir, tmp_path, other,
                                                   kinds, fmt):
        f = tmp_path / "shared.ssm"
        f.write_text(other + 'gsn "X" {\n  goal G1 "a"\n}\n', encoding="utf-8")
        assert run(runner, workdir, "validate", f).output == "ok\n"
        result = run(runner, workdir, "--format", fmt, "export", "dot", f, "--model", "X")
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr == f"error: model 'X' names blocks of 2 kinds: {kinds}\n"

    def test_security_link_anchor_is_escaped(self, runner, workdir, tmp_path):
        f = tmp_path / "link.ssm"
        f.write_text('gsn "M" {\n  goal G1 "x"\n'
                     '  security_link under G1 adt = "a\\"b\\\\c" weight = 1\n}\n',
                     encoding="utf-8")
        assert run(runner, workdir, "validate", f).output == "ok\n"
        result = run(runner, workdir, "export", "dot", f, "--model", "M")
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[3:5] == [
            '  "adt_a\\"b\\\\c" [shape=note, label="ADT: a\\"b\\\\c\\nw = 1"];',
            '  "G1" -> "adt_a\\"b\\\\c" [style=dotted];',
        ]


GOAL_LOOP = (
    'gsn "L" {\n'
    '  goal G1 "a" under G2 {\n    defeaters outruled = 1 total = 2\n  }\n'
    '  goal G2 "b" under G1\n'
    "}\n"
    'adt "A" {\n  attack "x" {\n    attr probability = 0.5\n  }\n}\n'
    'scenario "S" {\n  gsn = "L"\n  adt = "A"\n'
    "  thresholds min_belief = 0.8 max_disbelief = 0.2 max_uncertainty = 0.1\n"
    "  max_rounds = 1\n  set_policy unassessed\n}\n"
)


CYCLIC_FTA = (
    'fta "C" {\n  top T\n  gate T OR [G1, A]\n  gate G1 AND [T, B]\n'
    "  event A\n  event B\n}\n"
)
# A hazard goal and a solution whose parent chain is set by ``parent``.
HAZARD_GSN = (
    'gsn "H" {{\n'
    '  goal G1 "hazard" {{\n    hazard impact = low mechanism = trigger trace = X\n  }}\n'
    '  strategy S1 "a" under {parent}\n'
    '  strategy S2 "b" under S1\n'
    '  solution SOL "s" under S1 {{\n    fta_ref = "C"\n  }}\n'
    "}}\n"
)

# A GSN goal linked to ``{adt}`` and a scenario that assesses it in round 1.
LINKED_SCENARIO = (
    'gsn "M" {{\n'
    '  goal G1 "top" {{\n    defeaters outruled = 1 total = 2\n  }}\n'
    '  security_link under G1 adt = "{adt}" weight = 1\n'
    "{extra_link}"
    "}}\n"
    "{adt_block}"
    'scenario "S" {{\n  gsn = "M"\n  adt = "{adt}"\n'
    "  thresholds min_belief = 0.9 max_disbelief = 0.05 max_uncertainty = 0.05\n"
    '  max_rounds = 2\n  set_policy attribute = probability op = "<=" threshold = 0.1\n}}\n'
)
LEAF_ADT = 'adt "A" {\n  attack "x" {\n    attr probability = 0.5\n  }\n}\n'


def childless(refinement: str) -> str:
    return LINKED_SCENARIO.format(
        adt="T", extra_link="",
        adt_block=f'adt "T" {{\n  attack {refinement} "root" {{ }}\n}}\n',
    )


TWO_LINKS = LINKED_SCENARIO.format(
    adt="A", extra_link='  security_link under G1 adt = "A" weight = 2\n', adt_block=LEAF_ADT
)


class TestMalformedInputExitsTwo:
    """Each case ends in exit 2 with one stderr line and no traceback."""

    def check(self, result, *expected):
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert line.startswith("error: ")
        assert all(text in line for text in expected), line
        assert "Traceback" not in result.output

    def test_missing_verdicts_file(self, runner, workdir):
        result = run(
            runner, workdir, "gsn", "confidence", workdir / "airbag.ssm",
            "--model", "Airbag", "--verdicts", workdir / "nope.txt",
        )
        self.check(result, "nope.txt")

    def test_missing_policy_file(self, runner, workdir):
        result = run(
            runner, workdir, "adt", "eval", workdir / "airbag.ssm",
            "--adt", "Airbag Attack", "--attribute", "probability",
            "--policy", workdir / "nope.txt",
        )
        self.check(result, "nope.txt")

    @pytest.mark.parametrize("op", ["<=", ">="])
    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_policy_threshold(self, runner, workdir, tmp_path, op, threshold):
        policy = tmp_path / "policy.txt"
        policy.write_text(f"op = {op}\nthreshold = {threshold}\n", encoding="utf-8")
        result = run(
            runner, workdir, "--format", "machine", "adt", "eval", workdir / "airbag.ssm",
            "--adt", "Airbag Attack", "--attribute", "probability", "--policy", policy,
        )
        self.check(result, "threshold must be a finite number")

    def test_non_numeric_policy_threshold(self, runner, workdir, tmp_path):
        policy = tmp_path / "policy.txt"
        policy.write_text("attribute = cost\nthreshold = abc\n", encoding="utf-8")
        result = run(
            runner, workdir, "adt", "eval", workdir / "airbag.ssm",
            "--adt", "Airbag Attack", "--attribute", "probability", "--policy", policy,
        )
        self.check(result)
        assert result.stderr == "error: policy line 2: threshold must be a number, got 'abc'\n"

    @pytest.mark.parametrize("text, message", [
        ("op = !=\n", "policy line 1: comparison must be <= or >=, got '!='"),
        ("threshold = 0.5\nprob_or = sum\n", "policy line 2: prob_or must be max or noisy_or, got 'sum'"),
    ])
    def test_invalid_policy_field_names_its_line(self, runner, workdir, tmp_path, text, message):
        policy = tmp_path / "policy.txt"
        policy.write_text(text, encoding="utf-8")
        result = run(
            runner, workdir, "adt", "eval", workdir / "airbag.ssm",
            "--adt", "Airbag Attack", "--attribute", "probability", "--policy", policy,
        )
        self.check(result)
        assert result.stderr == f"error: {message}\n"

    def test_misspelt_unassessed_policy(self, runner, workdir, tmp_path):
        policy = tmp_path / "policy.txt"
        policy.write_text("unassessed = flase\n", encoding="utf-8")
        result = run(
            runner, workdir, "adt", "eval", workdir / "airbag.ssm",
            "--adt", "Airbag Attack", "--attribute", "probability", "--policy", policy,
        )
        self.check(result)
        assert result.stderr == (
            "error: policy line 1: unassessed must be true or false, got 'flase'\n")

    def refused(self, result, model, diagnostic):
        """Exit 2 with the line ``validate`` prints for the first error."""
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"{model}: error: {diagnostic}"]

    def test_goal_loop_confidence(self, runner, workdir, tmp_path):
        loop = tmp_path / "loop.ssm"
        loop.write_text(GOAL_LOOP, encoding="utf-8")
        result = run(runner, workdir, "gsn", "confidence", loop, "--model", "L")
        self.refused(result, loop, "cycle through node 'G1' [gsn L]")

    def test_goal_loop_process(self, runner, workdir, tmp_path):
        loop = tmp_path / "loop.ssm"
        loop.write_text(GOAL_LOOP, encoding="utf-8")
        result = run(runner, workdir, "process", "run", loop, "--scenario", "S")
        self.refused(result, loop, "cycle through node 'G1' [gsn L]")

    @pytest.mark.parametrize("minimal", [[], ["--minimal"]])
    def test_cyclic_fault_tree_cutsets(self, runner, workdir, tmp_path, minimal):
        cyclic = tmp_path / "cyclic.ssm"
        cyclic.write_text(CYCLIC_FTA, encoding="utf-8")
        result = run(runner, workdir, "fta", "cutsets", cyclic, "--tree", "C", *minimal)
        self.refused(result, cyclic, "cycle through gate 'T' [fta C]")

    def test_cyclic_fault_tree_derive(self, runner, workdir, tmp_path):
        cyclic = tmp_path / "cyclic.ssm"
        cyclic.write_text(CYCLIC_FTA + HAZARD_GSN.format(parent="G1"), encoding="utf-8")
        result = run(runner, workdir, "derive", "adt", cyclic, "--gsn", "H")
        self.refused(result, cyclic, "cycle through gate 'T' [fta C]")

    def test_parent_cycle_derive_finishes(self, tmp_path):
        # A child process with a timeout, so a walk that never ends fails the
        # test instead of hanging the suite.
        model = tmp_path / "ancestry.ssm"
        model.write_text(CYCLIC_FTA + HAZARD_GSN.format(parent="S2"), encoding="utf-8")
        src = os.path.dirname(os.path.dirname(safsec.__file__))
        env = {**os.environ, "PYTHONPATH": src, "SAFSEC_COLOR": "0"}
        proc = subprocess.run(
            [sys.executable, "-m", "safsec.cli", "derive", "adt", str(model), "--gsn", "H"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        # The fault tree's cycle sorts before the GSN's, as validate lists them.
        assert proc.stderr.splitlines() == [f"{model}: error: cycle through gate 'T' [fta C]"]

    @pytest.mark.parametrize("side", ["model", "verdicts", "policy"])
    def test_non_utf8_file(self, runner, workdir, tmp_path, side):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"gsn \xff\n")
        model = bad if side == "model" else workdir / "airbag.ssm"
        if side == "policy":
            args = ["adt", "eval", model, "--adt", "Airbag Attack",
                    "--attribute", "probability", "--policy", bad]
        else:
            args = ["gsn", "confidence", model, "--model", "Airbag"]
            if side == "verdicts":
                args += ["--verdicts", bad]
        result = run(runner, workdir, *args)
        self.check(result, "bad.bin", "not UTF-8")

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    @pytest.mark.parametrize("refinement", ["AND", "OR"])
    def test_childless_adt_node_eval(self, runner, workdir, tmp_path, refinement, fmt):
        model = tmp_path / "childless.ssm"
        model.write_text(childless(refinement), encoding="utf-8")
        result = run(runner, workdir, "--format", fmt, "adt", "eval", model,
                     "--adt", "T", "--attribute", "probability")
        self.refused(result, model, f"{refinement} node 'root' has no children [adt T]")

    @pytest.mark.parametrize("refinement", ["AND", "OR"])
    def test_childless_adt_node_process(self, runner, workdir, tmp_path, refinement):
        model = tmp_path / "childless.ssm"
        model.write_text(childless(refinement), encoding="utf-8")
        result = run(runner, workdir, "process", "run", model, "--scenario", "S")
        self.refused(result, model, f"{refinement} node 'root' has no children [adt T]")

    def test_leaf_adt_node_with_children_eval(self, runner, workdir, tmp_path):
        model = tmp_path / "leaf.ssm"
        model.write_text(
            'adt "T" {\n  attack "root" {\n    attack "x" { attr probability = 0.5 }\n  }\n}\n',
            encoding="utf-8",
        )
        result = run(runner, workdir, "adt", "eval", model, "--adt", "T",
                     "--attribute", "probability")
        self.refused(result, model, "node 'root' has children but no AND/OR refinement [adt T]")

    @pytest.mark.parametrize("command, option", [
        (["gsn", "confidence"], ["--model", "M"]),
        (["process", "run"], ["--scenario", "S"]),
    ])
    def test_two_security_links(self, runner, workdir, tmp_path, command, option):
        model = tmp_path / "links.ssm"
        model.write_text(TWO_LINKS, encoding="utf-8")
        result = run(runner, workdir, *command, model, *option)
        self.refused(result, model,
                     "multiple security links on goal 'G1' [gsn M/security_link 'A']")

    @pytest.mark.parametrize("flag, out", [("--out", None), ("--dot", "x.ssm"), ("--dot", None)],
                             ids=["--out", "--dot", "--dot-stdout"])
    def test_unwritable_derive_output(self, runner, workdir, tmp_path, flag, out):
        """An output that cannot be written stops the command before it
        writes any other, to a file or to stdout."""
        target = tmp_path / "nonexistent" / "x.out"
        args = ["derive", "adt", workdir / "airbag.ssm", "--gsn", "Airbag", flag, target]
        if out:
            args += ["--out", tmp_path / out]
        result = run(runner, workdir, *args)
        self.check(result, "x.out")  # with nothing on stdout
        assert not (tmp_path / "x.ssm").exists()

    def test_an_unwritable_dot_output_leaves_an_existing_out_file_as_it_was(
            self, runner, workdir, tmp_path):
        kept = tmp_path / "x.ssm"
        kept.write_text("kept\n", encoding="utf-8")
        result = run(runner, workdir, "derive", "adt", workdir / "airbag.ssm", "--gsn", "Airbag",
                     "--out", kept, "--dot", tmp_path / "nonexistent" / "x.dot")
        self.check(result, "x.dot")
        assert kept.read_text(encoding="utf-8") == "kept\n"


# Attack "x", countered by defense "d"; round 2 attacks the defense.
COUNTERED_DEFENSE = (
    'gsn "M" {\n  goal G1 "top" {\n    defeaters outruled = 1 total = 2\n  }\n'
    '  security_link under G1 adt = "A" weight = 1\n}\n'
    'adt "A" {\n  attack "x" {\n    attr probability = 0.5\n'
    '    counter defense "d" {\n      attr probability = 0.8\n    }\n  }\n}\n'
    'scenario "S" {\n  gsn = "M"\n  adt = "A"\n'
    "  thresholds min_belief = 0.9 max_disbelief = 0.05 max_uncertainty = 0.05\n"
    '  max_rounds = 2\n  set_policy attribute = probability op = "<=" threshold = 0.2\n'
    '  add_counter at = "d" attack "bypass" {\n    attr probability = 0.5\n  }\n}\n'
)


def test_a_scenario_counters_a_countermeasure(runner, workdir, tmp_path):
    model = tmp_path / "countered.ssm"
    model.write_text(COUNTERED_DEFENSE, encoding="utf-8")
    checked = run(runner, workdir, "validate", model)
    assert (checked.exit_code, checked.output) == (0, "ok\n")
    result = run(runner, workdir, "process", "run", model, "--scenario", "S")
    # x = 0.5 * (1 - d), and the bypass takes d from 0.8 to 0.8 * (1 - 0.5):
    # x rises from 0.1 to 0.3, over the 0.2 budget.
    assert result.exit_code == 1, result.output
    assert result.stdout.splitlines()[-3:] == [
        "round 1: set_policy probability <= 0.2 -> acceptable_risk, B=0.62 D=0.12 U=0.25",
        "round 2: add_counter 'bypass' at 'd' -> unacceptable_risk, B=0.12 D=0.62 U=0.25",
        "status: exhausted",
    ]


def scenario_block(name: str, *rounds: str) -> str:
    """A scenario over gsn "M" and adt "A" with unmet thresholds and ``rounds``."""
    return (
        f'scenario "{name}" {{\n  gsn = "M"\n  adt = "A"\n'
        "  thresholds min_belief = 0.9 max_disbelief = 0.05 max_uncertainty = 0.05\n"
        f"  max_rounds = 2\n" + "".join(f"  {r}\n" for r in rounds) + "}\n"
    )


# Four scenarios, each with a round that ``process`` refuses: a defense that
# counters a defense, a second counter on one node, an unknown attribute
# domain, and a leaf without the policy's attribute.
BAD_ROUNDS = (
    'gsn "M" {\n  goal G1 "top" {\n    defeaters outruled = 1 total = 2\n  }\n'
    '  security_link under G1 adt = "A" weight = 1\n}\n'
    'adt "A" {\n  attack OR "x" {\n'
    '    attack "a" {\n      attr probability = 0.5\n'
    '      counter defense "d" {\n        attr probability = 0.8\n      }\n    }\n'
    '    counter defense "lock" {\n      attr probability = 0.5\n    }\n  }\n}\n'
    + scenario_block("opposite actor", 'set_policy attribute = probability op = "<=" threshold = 0.2',
                     'add_counter at = "d" defense "bypass" { attr probability = 0.5 }')
    + scenario_block("second counter", "set_policy unassessed",
                     'add_counter at = "x" defense "guard" { }')
    + scenario_block("unknown domain", 'set_policy attribute = colour op = "<=" threshold = 1')
    + scenario_block("missing attribute", 'set_policy attribute = cost op = "<=" threshold = 10')
)
# Scenario -> the round that ``process run`` refuses, and why.
BAD_ROUNDS_REFUSED = {
    "opposite actor": (2, "countermeasure for 'd' must have opposite actor"),
    "second counter": (2, "node 'x' already carries a countermeasure"),
    "unknown domain":
        (1, "unknown attribute domain 'colour' (known: cost, probability, time, time_sequential)"),
    "missing attribute": (1, "leaf 'a' has no 'cost' attribute and the domain defines no default"),
}


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_validate_refuses_the_round_that_process_run_refuses(runner, workdir, tmp_path, fmt):
    model = tmp_path / "rounds.ssm"
    model.write_text(BAD_ROUNDS, encoding="utf-8")
    lines = {name: f"{model}: error: {message} [scenario {name}/round {round_no}]"
             for name, (round_no, message) in BAD_ROUNDS_REFUSED.items()}
    checked = run(runner, workdir, "validate", model)
    assert checked.exit_code == 1, checked.output
    assert checked.stdout.splitlines() == sorted(lines.values())
    for name, line in lines.items():
        result = run(runner, workdir, "--format", fmt, "process", "run", model, "--scenario", name)
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.splitlines() == [line]


# Round 2 attacks an unknown node, but max_rounds = 1 never runs it.
PAST_THE_BOUND = COUNTERED_DEFENSE.replace("max_rounds = 2", "max_rounds = 1").replace(
    'add_counter at = "d"', 'add_counter at = "nope"')


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_validate_checks_only_the_rounds_that_process_run_runs(runner, workdir, tmp_path, fmt):
    model = tmp_path / "bounded.ssm"
    model.write_text(PAST_THE_BOUND, encoding="utf-8")
    checked = run(runner, workdir, "--format", fmt, "validate", model)
    assert checked.exit_code == 0, checked.output
    if fmt == "text":
        assert checked.output == "ok\n"
    else:
        assert json.loads(checked.output) == {"command": "validate", "diagnostics": [], "ok": True}
    result = run(runner, workdir, "--format", fmt, "process", "run", model, "--scenario", "S")
    assert result.exit_code == 1, result.output
    if fmt == "text":
        assert result.stdout.splitlines()[-2:] == [
            "round 1: set_policy probability <= 0.2 -> acceptable_risk, B=0.62 D=0.12 U=0.25",
            "status: exhausted",
        ]
    else:
        payload = json.loads(result.stdout)
        assert [r["round"] for r in payload["rounds"]] == [1]
        assert payload["status"] == "exhausted"


def assessed(gsn: str, gsn_name: str, *actions: str) -> str:
    """``gsn`` plus LEAF_ADT and a scenario "S" over both that runs ``actions``."""
    rounds = "".join(f"  {a}\n" for a in actions or ["set_policy unassessed"])
    return (
        gsn + LEAF_ADT + f'scenario "S" {{\n  gsn = "{gsn_name}"\n  adt = "A"\n'
        "  thresholds min_belief = 0.9 max_disbelief = 0.05 max_uncertainty = 0.05\n"
        f"  max_rounds = 3\n{rounds}}}\n"
    )


GOAL_AND_CONTEXT = 'gsn "M" {\n  goal G1 "top"\n  context C1 "ctx" under G1\n}\n'
REFS = 'gsn "R" {{\n  goal G1 "top"\n  solution SOL "s" under G1 {{\n    {ref} = "nope"\n  }}\n}}\n'
PROCESS = ["process", "run", "--scenario", "S"]


def gsn_commands(name: str) -> list[list[str]]:
    return [["gsn", "confidence", "--model", name], ["derive", "adt", "--gsn", name],
            ["export", "dot", "--model", name], PROCESS]


# Fixture -> (model text, every command that reads its bad block; the file
# goes after the first two words).
MALFORMED = {
    "cyclic gsn": (GOAL_LOOP, gsn_commands("L")),
    "cyclic fault tree": (CYCLIC_FTA + HAZARD_GSN.format(parent="G1"), [
        ["fta", "cutsets", "--tree", "C"], ["fta", "cutsets", "--tree", "C", "--minimal"],
        ["export", "dot", "--model", "C"], ["derive", "adt", "--gsn", "H"]]),
    "unresolved fta_ref": (assessed(REFS.format(ref="fta_ref"), "R"), gsn_commands("R")),
    "unresolved fmea_ref": (assessed(REFS.format(ref="fmea_ref"), "R"), gsn_commands("R")),
    "childless AND": (childless("AND"), [
        ["adt", "eval", "--adt", "T", "--attribute", "probability"],
        ["export", "dot", "--model", "T"], PROCESS]),
    "multiple security links": (TWO_LINKS, gsn_commands("M")),
    "unknown add_counter label": (
        assessed(GOAL_AND_CONTEXT, "M", 'add_counter at = "nope" defense "d" { }'), [PROCESS]),
    "set_defeaters on a non-goal": (
        assessed(GOAL_AND_CONTEXT, "M", "set_defeaters goal = C1 outruled = 1 total = 2"),
        [PROCESS]),
    "non-goal scenario root": (
        assessed('gsn "M" {\n  strategy S0 "s"\n  goal G1 "g" under S0\n}\n', "M"), [PROCESS]),
}


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("fixture, command", [
    pytest.param(fixture, command, id=f"{fixture}: {' '.join(command)}")
    for fixture, (_, commands) in MALFORMED.items() for command in commands])
def test_a_command_refuses_a_block_it_reads_with_the_first_validate_line(
        runner, workdir, tmp_path, fixture, command, fmt):
    model = tmp_path / "bad.ssm"
    model.write_text(MALFORMED[fixture][0], encoding="utf-8")
    checked = run(runner, workdir, "validate", model)
    assert checked.exit_code == 1, checked.output
    result = run(runner, workdir, "--format", fmt, *command[:2], model, *command[2:])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.splitlines() == checked.stdout.splitlines()[:1]


# A context with a voter line, and a solution naming fault tree "T", which
# declares gate X twice.  The fault tree's error sorts first.
VOTER_AND_TWICE_X = (
    'gsn "H" {\n  goal G1 "top"\n  context C1 "ctx" under G1 {\n'
    "    voter signals = [a, b] threshold = 1 trace = X\n  }\n"
    '  solution SOL "s" under G1 {\n    fta_ref = "T"\n  }\n}\n'
    'fta "T" {\n  top X\n  gate X OR [A, B]\n  gate X OR [A, B]\n  event A\n  event B\n}\n'
)


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_derive_refuses_with_the_first_error_among_the_blocks_it_reads(runner, workdir, tmp_path,
                                                                       fmt):
    model = tmp_path / "derive.ssm"
    model.write_text(VOTER_AND_TWICE_X, encoding="utf-8")
    checked = run(runner, workdir, "validate", model)
    assert checked.exit_code == 1, checked.output
    assert checked.stdout.splitlines() == [
        f"{model}: error: duplicate gate 'X' [fta T]",
        f"{model}: error: voter annotation allowed only on solutions [gsn H/C1]"]
    result = run(runner, workdir, "--format", fmt, "derive", "adt", model, "--gsn", "H")
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.splitlines() == checked.stdout.splitlines()[:1]


def test_a_bad_round_after_the_thresholds_hold(runner, workdir, tmp_path, airbag_doc):
    # The bundled scenario is accepted at round 3 of 5.  Round 4 is never
    # printed, but the gate checks every round up to max_rounds.
    text = load_bundled("airbag.ssm").rstrip()
    assert text.endswith("}")
    text = text[:-1] + (
        '  add_counter at = "no such node" defense "late guard" {\n'
        "    attr probability = 0.5\n  }\n}\n")
    model = tmp_path / "late.ssm"
    model.write_text(text, encoding="utf-8")
    line = (f"{model}: error: unknown adt node 'no such node' "
            "[scenario Airbag Hardening/round 4]")
    for fmt in ("text", "machine"):
        result = run(runner, workdir, "--format", fmt, "process", "run", model,
                     "--scenario", "Airbag Hardening")
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.splitlines() == [line]
    checked = run(runner, workdir, "validate", model)
    assert checked.exit_code == 1, checked.output
    assert checked.stdout.splitlines() == [line]
    document = parse(text).document
    transcript = run_process(document, document.scenarios["Airbag Hardening"])
    scenario = airbag_doc.scenarios["Airbag Hardening"]
    assert transcript == run_process(airbag_doc, scenario)
    assert (transcript.status, [e.round for e in transcript.entries]) == ("accepted", [1, 2, 3])


# Two blocks each of one kind and name.  The lookups keep the last block,
# and validate gives an error to each block that repeats an earlier one.
REPEATED = (
    'fta "T" {\n  top E1\n  event E1\n}\n' 'fta "T" {\n  top E2\n  event E2\n}\n'
    'gsn "M" {\n  goal G1 "a"\n}\n' 'gsn "M" {\n  goal G2 "b"\n}\n'
    "requirement R1 kind = safety trace = Door {\n  inputs = [SigFire]\n"
    "  clause SigFire => !DoorLock\n}\n"
    "requirement R1 kind = security_design trace = Door {\n  inputs = [Auth]\n"
    "  clause !Auth => DoorLock\n}\n"
)
REPEATED_ERRORS = {
    "fta": "error: duplicate fta name 'T' [fta T]",
    "gsn": "error: duplicate gsn name 'M' [gsn M]",
    "requirement": "error: duplicate requirement name 'R1' [requirement R1]",
}


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_validate_refuses_a_repeated_block_name(runner, workdir, tmp_path, fmt):
    model = tmp_path / "twice.ssm"
    model.write_text(REPEATED, encoding="utf-8")
    result = run(runner, workdir, "--format", fmt, "validate", model)
    assert result.exit_code == 1, result.output
    if fmt == "text":
        assert result.stdout.splitlines() == [
            f"{model}: {line}" for line in sorted(REPEATED_ERRORS.values())]
    else:
        assert json.loads(result.stdout) == {
            "command": "validate", "ok": False, "diagnostics": sorted(REPEATED_ERRORS.values())}


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("kind, command", [
    ("fta", ["fta", "cutsets", "--tree", "T"]),
    ("fta", ["export", "dot", "--model", "T"]),
    ("gsn", ["gsn", "confidence", "--model", "M"]),
])
def test_a_command_refuses_a_repeated_block_name(runner, workdir, tmp_path, kind, command, fmt):
    model = tmp_path / "twice.ssm"
    model.write_text(REPEATED, encoding="utf-8")
    result = run(runner, workdir, "--format", fmt, *command[:2], model, *command[2:])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"{model}: {REPEATED_ERRORS[kind]}"]


def test_conflicts_reads_the_last_of_repeated_requirements(runner, workdir, tmp_path):
    # ``conflicts`` reads every requirement and runs no validation gate.
    model = tmp_path / "twice.ssm"
    model.write_text(REPEATED, encoding="utf-8")
    result = run(runner, workdir, "conflicts", model)
    assert result.exit_code == 0, result.output
    assert result.stdout == "no conflict candidates (no shared signals)\n"


@pytest.mark.parametrize("text, diagnostic", [
    ('fmea "F" { row R1 function = "f" mode = erroneous severity = ² }\n',
     "1:62: error: unexpected character '²'"),
    ('adt "a\\\n', "1:7: error: unterminated escape"),
    ('adt "a\\\x0bb" {}\n', "1:7: error: unknown escape \\x0b"),
    ('adt "a\\\u2028b" {}\n', "1:7: error: unknown escape \\u2028"),
])
def test_lex_error_is_one_diagnostic_line(runner, workdir, tmp_path, text, diagnostic):
    model = tmp_path / "lex.ssm"
    model.write_text(text, encoding="utf-8")
    result = run(runner, workdir, "validate", model)
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [f"{model}:{diagnostic}"]


def test_overlong_integer_is_a_parse_diagnostic(runner, workdir, tmp_path):
    model = tmp_path / "long.ssm"
    model.write_text('fmea "F" { row R1 function = "f" mode = erroneous\n  severity = '
                     + "7" * 5000 + " occurrence = 1 detection = 1 }\n", encoding="utf-8")
    result = run(runner, workdir, "validate", model)
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [f"{model}:2:14: error: integer too long (5000 digits)"]



@pytest.mark.parametrize("command, options", [
    (["validate"], []),
    (["adt", "eval"], ["--adt", "A", "--attribute", "probability"]),
])
def test_number_too_large_for_a_float_is_a_parse_diagnostic(runner, workdir, tmp_path, command,
                                                            options):
    model = tmp_path / "huge.ssm"
    model.write_text('adt "A" {\n  attack "x" {\n    attr probability = ' + "9" * 400
                     + ".5\n  }\n}\n", encoding="utf-8")
    result = run(runner, workdir, "--format", "machine", *command, model, *options)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        f"{model}:3:24: error: number too large (402 characters)"]


BAD_BLOCKS = {
    "gsn": ('gsn "{}" {{ goal G1 "x" goal G2 "y" }}', "multiple roots: G1, G2 [gsn {}]"),
    "fta": ('fta "{}" {{ top E1 event E1 event E2 }}',
            "node 'E2' unreachable from top event [fta {}]"),
    "fmea": ('fmea "{}" {{ row R1 function = "f" mode = erroneous severity = 11 occurrence = 1'
             " detection = 1 }}", "severity must be in 1..10, got 11 [fmea {}/R1]"),
    "adt": ('adt "{}" {{ attack AND "x" }}', "AND node 'x' has no children [adt {}]"),
    "scenario": ('gsn "G" {{ goal G1 "x" }} adt "A" {{ attack "a" }} scenario "{}" {{ gsn = "G"'
                 ' adt = "A" thresholds min_belief = 0.5 max_disbelief = 0.5'
                 " max_uncertainty = 0.5 max_rounds = 1 }}",
                 "scenario has no rounds [scenario {}]"),
}


@pytest.mark.parametrize("block", sorted(BAD_BLOCKS))
@pytest.mark.parametrize("char, shown", [("\x0b", "\\x0b"), ("\u2028", "\\u2028")])
def test_block_name_in_a_validator_diagnostic_is_one_line(runner, workdir, tmp_path, block,
                                                          char, shown):
    text, diagnostic = BAD_BLOCKS[block]
    model = tmp_path / "name.ssm"
    model.write_text(text.format(f"a{char}b") + "\n", encoding="utf-8")
    result = run(runner, workdir, "validate", model)
    assert result.exit_code == 1
    assert result.stdout.splitlines() == [f"{model}: error: {diagnostic.format(f'a{shown}b')}"]
    assert result.stderr == ""


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("char, shown", [("\x0b", "\\x0b"), ("\u2028", "\\u2028")])
def test_block_name_in_a_confidence_message_is_one_line(runner, workdir, tmp_path, fmt, char,
                                                        shown):
    model = tmp_path / "name.ssm"
    model.write_text(f'gsn "a{char}b" {{ goal G1 "x" }}\n', encoding="utf-8")
    warning = f"warning: goal 'G1' has no defeater evidence in its subtree [gsn a{shown}b]"
    confidence = ["--format", fmt, "gsn", "confidence", model, "--model"]
    result = run(runner, workdir, *confidence, f"a{char}b")
    assert result.exit_code == 0, result.output
    if fmt == "text":
        assert result.stdout.splitlines() == [warning, "G1: 0/0 defeaters -> B=0.00 D=0.00 U=1.00"]
    else:
        assert json.loads(result.stdout)["warnings"] == [warning]
    result = run(runner, workdir, *confidence, "zz")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: unknown gsn model 'zz' (available: a{shown}b)"]


@pytest.mark.parametrize("argv, last_line", [
    (["validate"], "ok"),
    (["process", "run", "--scenario", "Airbag Hardening"], "status: accepted"),
])
def test_safsec_color_0_wins_on_a_colour_terminal(runner, workdir, argv, last_line):
    argv = [*argv[:2], str(workdir / "airbag.ssm"), *argv[2:]]
    result = runner.invoke(main, argv, env={"SAFSEC_COLOR": "0"}, color=True)
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[-1] == last_line
    assert "\x1b" not in result.output


class TestMachineFormatStability:
    def test_output_is_sorted_and_stable(self, runner, workdir):
        args = [
            "--format",
            "machine",
            "gsn",
            "confidence",
            str(workdir / "airbag.ssm"),
            "--model",
            "Airbag",
        ]
        first = run(runner, workdir, *args).output
        second = run(runner, workdir, *args).output
        assert first == second
        payload = json.loads(first)
        assert list(payload) == sorted(payload)


def test_machine_output_without_the_c_encoder(runner, workdir, monkeypatch):
    """Strings come out the same through the pure-Python string encoder, the
    one CPython falls back on without its C accelerator."""
    import safsec.cli

    args = ["--format", "machine", "gsn", "confidence", workdir / "airbag.ssm",
            "--model", "Airbag"]
    expected = run(runner, workdir, *args).output
    encoded = []

    def encode(text):
        encoded.append(text)
        return json.encoder.py_encode_basestring_ascii(text)

    monkeypatch.setattr(safsec.cli, "encode_basestring_ascii", encode)
    assert run(runner, workdir, *args).output == expected
    assert "Airbag" in encoded
    assert safsec.cli._dumps({"a": [[]], "b": [1.5, None], "c\u2028": ["\x00é"]}) == json.dumps(
        {"a": [[]], "b": [1.5, None], "c\u2028": ["\x00é"]}, sort_keys=True, indent=2)


class TestAggregateOnce:
    """``gsn confidence`` aggregates its GSN model once; ``process run`` sums
    the root goal's evidence once and then adds each round's change, so it
    never aggregates the whole model."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import safsec.cli
        import safsec.confidence

        original = safsec.confidence.aggregate_gsn
        made = []

        def counting(model):
            made.append(model.name)
            return original(model)

        for module in (safsec.confidence, safsec.cli):
            monkeypatch.setattr(module, "aggregate_gsn", counting)
        return made

    def test_gsn_confidence_aggregates_once(self, runner, workdir, calls):
        for fmt in ("text", "machine"):
            calls.clear()
            result = run(
                runner, workdir, "--format", fmt, "gsn", "confidence",
                workdir / "airbag.ssm", "--model", "Airbag",
            )
            assert result.exit_code == 0, result.output
            assert calls == ["Airbag"]

    def test_process_run_keeps_a_running_total(self, runner, workdir, tmp_path, calls):
        scenario = """
scenario "Defeaters" {
  gsn = "Airbag"
  adt = "Airbag Attack"
  thresholds min_belief = 0.99 max_disbelief = 0.01 max_uncertainty = 0.01
  max_rounds = 5
  set_defeaters goal = G2 outruled = 7 total = 8
  set_policy unassessed
  set_defeaters goal = G3 outruled = 10 total = 10
  set_policy attribute = probability op = "<=" threshold = 0.1
}
"""
        f = tmp_path / "defeaters.ssm"
        f.write_text(load_bundled("airbag.ssm") + scenario, encoding="utf-8")
        for name in ("Airbag Hardening", "Defeaters"):
            calls.clear()
            result = run(runner, workdir, "process", "run", f, "--scenario", name)
            assert result.exit_code in (0, 1), result.output
            assert "round 3" in result.output
            assert calls == [], name
