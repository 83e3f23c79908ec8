"""Lexer, parser, and canonical printer for the .ssm model format."""

import random

import pytest

from safsec.model import (
    Clause,
    GsnModel,
    Literal,
    NodeKind,
    Requirement,
    Scenario,
)
from safsec.modelfile import parse, print_document
from safsec.modelfile.printer import HEADER

from conftest import load_bundled
from generators import random_document

BUNDLED = ["airbag.ssm", "servertheft.ssm", "building.ssm", "building_revised.ssm"]


class TestParseBundled:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_parses_without_diagnostics(self, name):
        result = parse(load_bundled(name))
        assert result.ok, [str(d) for d in result.diagnostics]
        assert not result.diagnostics

    def test_airbag_block_inventory(self):
        doc = parse(load_bundled("airbag.ssm")).document
        assert set(doc.gsns) == {"Airbag"}
        assert set(doc.adts) == {"Airbag Attack"}
        assert set(doc.scenarios) == {"Airbag Hardening"}


class TestClauses:
    def parse_req(self, body):
        text = f"requirement R kind = safety trace = T {{\n{body}\n}}\n"
        result = parse(text)
        assert result.ok, [str(d) for d in result.diagnostics]
        (req,) = result.document.blocks
        return req

    def test_positive_body_negated_head(self):
        req = self.parse_req("clause SigFire => !DoorLock")
        assert req.clauses == (
            Clause(body=(Literal("SigFire", True),), head=Literal("DoorLock", False)),
        )

    def test_conjunction_body(self):
        req = self.parse_req("clause !Auth & !SigFire => DoorLock")
        (clause,) = req.clauses
        assert clause.body == (Literal("Auth", False), Literal("SigFire", False))
        assert clause.head == Literal("DoorLock", True)

    def test_empty_body_fact(self):
        req = self.parse_req("clause => AlwaysOn")
        (clause,) = req.clauses
        assert clause.body == ()
        assert clause.head == Literal("AlwaysOn", True)

    def test_inputs_list(self):
        req = self.parse_req("inputs = [A, B]\nclause A => C")
        assert req.inputs == frozenset({"A", "B"})


class TestDiagnostics:
    def test_undefined_parent_reports_token_location(self):
        text = 'gsn "m" {\n  goal G1 "root"\n  goal G2 "child" under G_missing\n}\n'
        result = parse(text)
        assert not result.ok
        (diag,) = result.diagnostics
        assert "G_missing" in diag.message
        assert diag.line == 3
        assert diag.column == text.splitlines()[2].index("G_missing") + 1

    def test_undeclared_fta_child(self):
        text = 'fta "t" {\n  top G0\n  gate G0 OR [E1, E2]\n  event E1\n}\n'
        result = parse(text)
        assert not result.ok
        assert any("E2" in d.message for d in result.diagnostics)

    def test_error_in_one_block_spares_the_others(self):
        text = (
            'gsn "broken" {\n  goal\n}\n'
            'fta "fine" {\n  top E\n  event E\n}\n'
        )
        result = parse(text)
        assert not result.ok
        assert result.diagnostics

    def test_unterminated_string(self):
        result = parse('gsn "oops')
        assert not result.ok
        assert "unterminated string" in result.diagnostics[0].message

    def test_unknown_escape(self):
        result = parse('gsn "a\\q" { }')
        assert not result.ok
        assert "escape" in result.diagnostics[0].message

    def test_unknown_enum_value_lists_options(self):
        text = (
            'gsn "m" {\n'
            '  goal G1 "g" {\n'
            "    hazard impact = enormous mechanism = STOPPING trace = T\n"
            "  }\n"
            "}\n"
        )
        result = parse(text)
        assert not result.ok
        assert any("enormous" in d.message and "high" in d.message
                   for d in result.diagnostics)

    def test_error_count_is_capped(self):
        text = "gsn 1\n" * 50
        result = parse(text)
        assert not result.ok
        assert len(result.diagnostics) <= 21
        assert any("too many errors" in d.message for d in result.diagnostics)

    def test_stray_token_at_top_level(self):
        result = parse("wibble\n")
        assert not result.ok
        assert "block keyword" in result.diagnostics[0].message


class TestRoundTrip:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_files_round_trip(self, name):
        doc = parse(load_bundled(name)).document
        printed = print_document(doc)
        reparsed = parse(printed)
        assert reparsed.ok, [str(d) for d in reparsed.diagnostics]
        assert reparsed.document == doc

    def test_generated_documents_round_trip(self):
        for seed in range(200):
            rng = random.Random(seed)
            doc = random_document(rng)
            printed = print_document(doc)
            reparsed = parse(printed)
            assert reparsed.ok, (seed, [str(d) for d in reparsed.diagnostics])
            assert reparsed.document == doc, seed

    def test_print_is_idempotent(self):
        doc = parse(load_bundled("airbag.ssm")).document
        once = print_document(doc)
        twice = print_document(parse(once).document)
        assert once == twice

    def test_unicode_and_escapes_survive(self):
        text = 'gsn "naïve \\"quote\\" \\n tab\\t 中" {\n  goal G1 "β"\n}\n'
        doc = parse(text).document
        model = doc.blocks[0]
        assert model.name == 'naïve "quote" \n tab\t 中'
        reparsed = parse(print_document(doc)).document
        assert reparsed == doc

    def test_empty_document(self):
        printed = print_document(parse("").document)
        assert printed.startswith(HEADER)
        assert parse(printed).document.blocks == ()


class TestScenarioParsing:
    def test_airbag_scenario_actions(self):
        doc = parse(load_bundled("airbag.ssm")).document
        scenario = doc.scenarios["Airbag Hardening"]
        assert isinstance(scenario, Scenario)
        assert scenario.max_rounds == 5
        assert len(scenario.actions) == 3
        assert scenario.thresholds.min_belief == 0.8

    SCENARIO = (
        'scenario "s" {{\n'
        '  gsn = "g"\n  adt = "a"\n'
        "  thresholds min_belief = 0.8 max_disbelief = 0.2 max_uncertainty = 0.1\n"
        "  max_rounds = 3\n"
        "{actions}"
        "}}\n"
    )

    def test_prob_or_round_trip(self):
        text = self.SCENARIO.format(
            actions='  set_policy attribute = probability op = "<=" threshold = 0.1'
            " prob_or = noisy_or\n"
            '  set_policy attribute = probability op = "<=" threshold = 0.1\n'
            '  set_policy attribute = cost op = ">=" threshold = 5 prob_or = max\n'
        )
        doc = parse(text).document
        noisy, plain, explicit_max = doc.scenarios["s"].actions
        assert noisy.policy.prob_or == "noisy_or"
        assert plain.policy.prob_or == explicit_max.policy.prob_or == "max"
        printed = print_document(doc)
        # prob_or is printed only when it is not the default.
        assert printed.count("prob_or") == 1
        assert "threshold = 0.1 prob_or = noisy_or\n" in printed
        assert parse(printed).document == doc

    def test_bad_prob_or_rejected(self):
        text = self.SCENARIO.format(
            actions='  set_policy attribute = probability op = "<=" threshold = 0.1'
            " prob_or = sum\n"
        )
        result = parse(text)
        assert not result.ok
        (diag,) = result.diagnostics
        assert "noisy_or" in diag.message and diag.line == 6

    def test_bad_policy_op_rejected(self):
        text = (
            'scenario "s" {\n'
            '  gsn = "g"\n  adt = "a"\n'
            "  thresholds min_belief = 0.8 max_disbelief = 0.2 max_uncertainty = 0.1\n"
            "  max_rounds = 3\n"
            '  set_policy attribute = cost op = "!=" threshold = 5\n'
            "}\n"
        )
        result = parse(text)
        assert not result.ok
        assert any("op" in d.message for d in result.diagnostics)
