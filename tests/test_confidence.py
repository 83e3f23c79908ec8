import json
import random

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from safsec.confidence import (
    SecurityVerdict,
    aggregate_gsn,
    apply_security_links,
    opinion_from_evidence,
    update_confidence,
)
from safsec.cli import main
from safsec.model import (
    ConfidenceTriple,
    DefeaterCount,
    Document,
    GsnModel,
    GsnNode,
    NodeKind,
    SecurityLink,
)
from safsec.modelfile import print_document

GOAL = NodeKind.GOAL


def triples():
    return (
        st.tuples(
            st.floats(0, 1, allow_nan=False),
            st.floats(0, 1, allow_nan=False),
            st.floats(0, 1, allow_nan=False),
        )
        .filter(lambda t: sum(t) > 1e-6)
        .map(lambda t: ConfidenceTriple(*(x / sum(t) for x in t)))
    )


class TestOpinionFromEvidence:
    def test_fig5_initial(self):
        t = opinion_from_evidence(DefeaterCount(25, 60))
        assert t.rounded() == (0.4, 0.56, 0.03)
        assert t.belief == pytest.approx(25 / 62, abs=1e-12)
        assert t.disbelief == pytest.approx(35 / 62, abs=1e-12)
        assert t.uncertainty == pytest.approx(2 / 62, abs=1e-12)

    def test_fig5_after_more_outruling(self):
        t = opinion_from_evidence(DefeaterCount(45, 60))
        assert t.rounded() == (0.73, 0.24, 0.03)

    def test_no_evidence_is_full_uncertainty(self):
        assert opinion_from_evidence(DefeaterCount(0, 0)) == ConfidenceTriple(0, 0, 1)

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            opinion_from_evidence(DefeaterCount(6, 5))

    @given(st.integers(0, 50), st.integers(1, 200))
    def test_uncertainty_decreases_with_total(self, outruled, scale):
        # Fix the outruled/total ratio, grow the total.
        small = opinion_from_evidence(DefeaterCount(outruled, max(outruled, 10)))
        big = opinion_from_evidence(
            DefeaterCount(outruled * scale, max(outruled, 10) * scale)
        )
        if scale > 1:
            assert big.uncertainty < small.uncertainty

    @given(st.integers(0, 99))
    def test_belief_monotone_in_outruled(self, outruled):
        lo = opinion_from_evidence(DefeaterCount(outruled, 100))
        hi = opinion_from_evidence(DefeaterCount(outruled + 1, 100))
        assert hi.belief > lo.belief


def two_level_model(counts, root_count=None):
    nodes = [GsnNode("G0", GOAL, "root", defeaters=root_count)]
    for i, (outruled, total) in enumerate(counts, start=1):
        nodes.append(
            GsnNode(
                f"G{i}", GOAL, f"sub{i}", parent="G0",
                defeaters=DefeaterCount(outruled, total),
            )
        )
    return GsnModel(name="M", nodes=tuple(nodes))


class TestAggregateGsn:
    def test_fig5_parent_sums_children(self):
        model = two_level_model([(10, 20), (15, 40)])
        result = aggregate_gsn(model)
        assert result["G0"].count == DefeaterCount(25, 60)
        assert result["G0"].triple.rounded() == (0.4, 0.56, 0.03)

    def test_single_goal(self):
        model = two_level_model([], root_count=DefeaterCount(5, 5))
        triple = aggregate_gsn(model)["G0"].triple
        assert triple.belief == pytest.approx(5 / 7)
        assert triple.disbelief == pytest.approx(0.0)
        assert triple.uncertainty == pytest.approx(2 / 7)

    def test_leaf_without_count_warns(self, tmp_path):
        model = GsnModel(name="M", nodes=(GsnNode("G0", GOAL, "root"),))
        result = aggregate_gsn(model)
        assert result["G0"].triple == ConfidenceTriple(0, 0, 1)
        assert result["G0"].count.total == 0
        path = tmp_path / "m.ssm"
        path.write_text(print_document(Document((model,))), encoding="utf-8")
        argv = ["--format", "machine", "gsn", "confidence", str(path), "--model", "M"]
        out = CliRunner().invoke(main, argv)
        assert out.exit_code == 0, out.output
        assert json.loads(out.output)["warnings"] == [
            "warning: goal 'G0' has no defeater evidence in its subtree [gsn M]"
        ]

    def test_strategies_are_transparent(self):
        nodes = (
            GsnNode("G0", GOAL, "root"),
            GsnNode("S0", NodeKind.STRATEGY, "strategy", parent="G0"),
            GsnNode("G1", GOAL, "sub", parent="S0", defeaters=DefeaterCount(3, 4)),
        )
        result = aggregate_gsn(GsnModel(name="M", nodes=nodes))
        assert result["G0"].count == DefeaterCount(3, 4)

    def test_invariant_under_child_order(self):
        counts = [(1, 2), (3, 9), (0, 5), (4, 4)]
        baseline = aggregate_gsn(two_level_model(counts))["G0"]
        rng = random.Random(3)
        for _ in range(5):
            rng.shuffle(counts)
            assert aggregate_gsn(two_level_model(counts))["G0"] == baseline


REFERENCE_PRIOR = ConfidenceTriple(0.70, 0.20, 0.10)


class TestUpdateConfidence:
    def test_no_assessment(self):
        t = update_confidence(REFERENCE_PRIOR, SecurityVerdict.NO_ASSESSMENT, 2)
        assert t.rounded() == (0.23, 0.07, 0.70)
        assert t.uncertainty == pytest.approx(0.7)

    def test_acceptable(self):
        t = update_confidence(REFERENCE_PRIOR, SecurityVerdict.ACCEPTABLE_RISK, 2)
        assert t.rounded() == (0.90, 0.07, 0.03)
        assert t.belief == pytest.approx(0.9)

    def test_unacceptable(self):
        # The defining equations are B1 = B/(1+w), U1 = U/(1+w) and the
        # remainder flows into disbelief.  (The narrative example elsewhere
        # slips and divides D instead of U when computing U1; the equations,
        # not the slip, are authoritative.)
        t = update_confidence(REFERENCE_PRIOR, SecurityVerdict.UNACCEPTABLE_RISK, 2)
        assert t.belief == pytest.approx(0.7 / 3)
        assert t.uncertainty == pytest.approx(0.1 / 3)
        assert t.disbelief == pytest.approx(0.2 + (0.7 - 0.7 / 3) + (0.1 - 0.1 / 3))
        assert t.rounded() == (0.23, 0.73, 0.03)

    @pytest.mark.parametrize("verdict", list(SecurityVerdict))
    def test_zero_weight_is_identity(self, verdict):
        assert update_confidence(REFERENCE_PRIOR, verdict, 0) == REFERENCE_PRIOR

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            update_confidence(REFERENCE_PRIOR, SecurityVerdict.ACCEPTABLE_RISK, -1)

    @given(triples(), st.sampled_from(list(SecurityVerdict)), st.floats(0, 100))
    @settings(max_examples=300)
    def test_closure(self, prior, verdict, weight):
        out = update_confidence(prior, verdict, weight)
        total = out.belief + out.disbelief + out.uncertainty
        assert abs(total - 1.0) <= 1e-9
        for v in (out.belief, out.disbelief, out.uncertainty):
            assert -1e-9 <= v <= 1 + 1e-9

    @given(triples(), st.floats(0, 100))
    @settings(max_examples=300)
    def test_monotonicity(self, prior, weight):
        assert (
            update_confidence(prior, SecurityVerdict.ACCEPTABLE_RISK, weight).belief
            >= prior.belief - 1e-12
        )
        assert (
            update_confidence(prior, SecurityVerdict.UNACCEPTABLE_RISK, weight).disbelief
            >= prior.disbelief - 1e-12
        )
        assert (
            update_confidence(prior, SecurityVerdict.NO_ASSESSMENT, weight).uncertainty
            >= prior.uncertainty - 1e-12
        )


class TestApplySecurityLinks:
    def model(self):
        # Evidence 14/18 aggregates to exactly (0.7, 0.2, 0.1).
        return GsnModel(
            name="M",
            nodes=(
                GsnNode("G0", GOAL, "root", defeaters=DefeaterCount(14, 18)),
                GsnNode("G1", GOAL, "sub", parent="G0", defeaters=DefeaterCount(0, 0)),
            ),
            security_links=(SecurityLink("G0", "A", 2.0),),
        )

    def test_acceptable_verdict_applied_at_linked_goal(self):
        model = self.model()
        linked = apply_security_links(
            model, aggregate_gsn(model), {"A": SecurityVerdict.ACCEPTABLE_RISK}
        )
        assert linked["G0"].reported.rounded() == (0.90, 0.07, 0.03)

    def test_goal_without_link_unchanged(self):
        model = self.model()
        linked = apply_security_links(
            model, aggregate_gsn(model), {"A": SecurityVerdict.ACCEPTABLE_RISK}
        )
        assert linked["G1"].reported == ConfidenceTriple(0, 0, 1)

    def test_missing_verdict_means_no_assessment(self):
        model = self.model()
        aggregate = aggregate_gsn(model)
        linked = apply_security_links(model, aggregate, {})
        base = aggregate["G0"].triple
        assert linked["G0"].reported.uncertainty > base.uncertainty
        assert linked["G0"].verdict is SecurityVerdict.NO_ASSESSMENT

    def test_only_linked_records_are_replaced(self):
        model = self.model()
        aggregate = aggregate_gsn(model)
        before = dict(aggregate)
        linked = apply_security_links(model, aggregate, {"A": SecurityVerdict.UNACCEPTABLE_RISK})
        assert aggregate == before
        assert all(record.reported == record.triple and record.verdict is None
                   for record in aggregate.values())
        assert linked is not aggregate and list(linked) == list(aggregate)
        assert linked["G1"] is aggregate["G1"]
        assert linked["G0"].count == aggregate["G0"].count
        assert linked["G0"].triple == aggregate["G0"].triple
        assert linked["G0"].reported != aggregate["G0"].triple
        assert linked["G0"].verdict is SecurityVerdict.UNACCEPTABLE_RISK

