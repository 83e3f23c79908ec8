"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line when its criterion holds; under
``pytest -v`` the per-test verdict doubles as the pass/fail report.
"""

import random
import time

import pytest

from safsec.confidence import (
    SecurityVerdict,
    opinion_from_evidence,
    update_confidence,
)
from safsec.conflicts import RuleSet, check_pair, find_contradictions
from safsec.derive import derive_adt
from safsec.fta import minimal_cut_sets
from safsec.model import ConfidenceTriple, DefeaterCount, Impact
from safsec.modelfile import parse, print_document
from safsec.process import run_process

from safsec.adteval import COST, evaluate

from conftest import parse_bundled
from generators import (
    random_cost_adt,
    random_document,
    random_fault_tree,
    random_rule_set,
    requirements_from_rules,
)
from oracles import (
    brute_force_contradictory_assignments,
    brute_force_min_cost,
    brute_force_minimal_cut_sets,
)


def report(number: int, summary: str) -> None:
    print(f"PASS criterion {number}: {summary}", flush=True)


def test_criterion_1_evidence_to_opinion_regression():
    for outruled, total, expected in [
        (25, 60, (0.40, 0.56, 0.03)),
        (45, 60, (0.73, 0.24, 0.03)),
    ]:
        triple = opinion_from_evidence(DefeaterCount(outruled, total))
        assert triple.rounded() == expected
        denom = total + 2.0
        assert triple.belief == pytest.approx(outruled / denom, abs=1e-12)
        assert triple.disbelief == pytest.approx((total - outruled) / denom, abs=1e-12)
        assert triple.uncertainty == pytest.approx(2.0 / denom, abs=1e-12)
    report(1, "evidence counts map to the expected opinion triples")


def test_criterion_2_update_formula_regression():
    prior = ConfidenceTriple(0.70, 0.20, 0.10)
    cases = {
        SecurityVerdict.NO_ASSESSMENT: (0.23, 0.07, 0.70),
        SecurityVerdict.ACCEPTABLE_RISK: (0.90, 0.07, 0.03),
        # Unacceptable scales belief and uncertainty down by 1+w and grows
        # disbelief by the difference, mirroring the other two cases.
        SecurityVerdict.UNACCEPTABLE_RISK: (0.2333, 0.7333, 0.0333),
    }
    for verdict, (b, d, u) in cases.items():
        updated = update_confidence(prior, verdict, 2.0)
        assert updated.belief == pytest.approx(b, abs=0.005)
        assert updated.disbelief == pytest.approx(d, abs=0.005)
        assert updated.uncertainty == pytest.approx(u, abs=0.005)
    for verdict in SecurityVerdict:
        assert update_confidence(prior, verdict, 0.0) == prior
    report(2, "verdict updates at w=2 match the formula; w=0 is the identity")


def test_criterion_3_fta_regression_and_oracle_equivalence():
    tree = parse_bundled("servertheft.ssm").ftas["ServerTheft"]
    assert minimal_cut_sets(tree) == {
        frozenset({"A"}),
        frozenset({"B", "C"}),
        frozenset({"E", "F"}),
    }
    start = time.perf_counter()
    for seed in range(1000):
        rng = random.Random(seed)
        ft = random_fault_tree(rng, max_events=10)
        assert minimal_cut_sets(ft) == brute_force_minimal_cut_sets(ft), seed
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle suite took {elapsed:.1f}s"
    report(3, f"bundled tree MCS exact; 1000-tree oracle suite in {elapsed:.1f}s")


def test_criterion_4_airbag_derivation_structure():
    model = parse_bundled("airbag.ssm").gsns["Airbag"]
    tree = derive_adt(model)
    branches = {node.label: node for node in tree.root.children}
    assert set(branches) == {"Stop Airbag", "Trigger Airbag"}
    assert branches["Stop Airbag"].impact is Impact.LOW
    assert branches["Trigger Airbag"].impact is Impact.HIGH

    def labels(node):
        yield node.label
        for child in node.children:
            yield from labels(child)

    for branch in branches.values():
        assert any("voter Airbag" in l for l in labels(branch)), branch.label
    report(4, "derived airbag tree has stop/trigger branches with voter attacks")


def test_criterion_5_conflict_regression_and_oracle_equivalence():
    doc = parse_bundled("building.ssm")
    witnesses = check_pair(*doc.requirements.values())
    assert len(witnesses) == 1
    witness = witnesses[0]
    assert witness.input_assignment == {"SigFire": True, "Auth": False}
    assert witness.conflicted_signal == "DoorLock"

    revised = parse_bundled("building_revised.ssm")
    assert check_pair(*revised.requirements.values()) == ()

    start = time.perf_counter()
    for seed in range(1000):
        rng = random.Random(seed)
        clauses, inputs = random_rule_set(rng, max_signals=12)
        rules = RuleSet.from_requirements(requirements_from_rules(clauses, inputs))
        got = sorted(
            (tuple(sorted(w.input_assignment.items())) for w in find_contradictions(rules))
        )
        oracle_clauses = [
            (
                [(lit.signal, lit.positive) for lit in c.body],
                (c.head.signal, c.head.positive),
            )
            for c in clauses
        ]
        expected = sorted(
            tuple(sorted(a.items()))
            for a in brute_force_contradictory_assignments(
                oracle_clauses, list(rules.inputs)
            )
        )
        assert got == expected, seed
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"
    report(5, f"building witness exact; 1000-rule-set oracle suite in {elapsed:.1f}s")


def test_criterion_6_airbag_process_regression():
    doc = parse_bundled("airbag.ssm")
    scenario = doc.scenarios["Airbag Hardening"]
    assert scenario.thresholds.min_belief == 0.8
    assert scenario.thresholds.max_disbelief == 0.2
    assert scenario.thresholds.max_uncertainty == 0.1
    transcript = run_process(doc, scenario)
    assert transcript.status == "accepted"
    assert transcript.final_triple.rounded() == (0.90, 0.07, 0.03)
    report(6, "airbag scenario ends accepted at (0.90, 0.07, 0.03)")


def test_criterion_7_property_suites():
    rng = random.Random(7)
    for _ in range(100_000):
        raw = [rng.random() + 1e-9 for _ in range(3)]
        total = sum(raw)
        prior = ConfidenceTriple(raw[0] / total, raw[1] / total, raw[2] / total)
        verdict = rng.choice(list(SecurityVerdict))
        updated = update_confidence(prior, verdict, rng.uniform(0.0, 10.0))
        components = (updated.belief, updated.disbelief, updated.uncertainty)
        assert all(0.0 <= c <= 1.0 for c in components)
        assert sum(components) == pytest.approx(1.0, abs=1e-9)

    for seed in range(200):
        family = minimal_cut_sets(random_fault_tree(random.Random(seed)))
        for cut in family:
            assert not any(other < cut for other in family)

    for seed in range(300):
        adt = random_cost_adt(random.Random(seed), max_nodes=12)
        assert evaluate(adt, COST)["root"] == pytest.approx(
            brute_force_min_cost(adt)
        ), seed

    for seed in range(100):
        doc = random_document(random.Random(seed))
        reparsed = parse(print_document(doc))
        assert reparsed.ok, (seed, [str(d) for d in reparsed.diagnostics])
        assert reparsed.document == doc, seed
    report(7, "triple closure, MCS antichain, cost oracle, DSL round-trip")
