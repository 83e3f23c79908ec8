"""Attribute-domain evaluation and verdict policies for attack-defense trees."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safsec.adteval import (
    BUILTIN_DOMAINS,
    COST,
    PROBABILITY,
    TIME,
    TIME_SEQUENTIAL,
    UNASSESSED,
    VerdictPolicy,
    evaluate,
    get_domain,
    load_policy,
    verdict,
)
from safsec.confidence import SecurityVerdict
from safsec.model import Actor, AdtNode, AttackDefenseTree, Refinement

from generators import random_cost_adt
from oracles import brute_force_min_cost, recursive_adt_walk


def leaf(label, **attrs):
    return AdtNode(
        actor=Actor.ATTACK,
        label=label,
        attributes=tuple((k, float(v)) for k, v in attrs.items()),
    )


def tree(root):
    return AttackDefenseTree(name="t", root=root)


class TestEvaluate:
    def test_single_leaf(self):
        values = evaluate(tree(leaf("a", cost=7)), COST)
        assert values == {"root": 7.0}

    def test_cost_or_takes_cheapest_branch(self):
        # AND(3, 4) = 7 competes with a single leaf of cost 5.
        and_node = AdtNode(
            actor=Actor.ATTACK,
            label="both",
            refinement=Refinement.AND,
            children=(leaf("x", cost=3), leaf("y", cost=4)),
        )
        root = AdtNode(
            actor=Actor.ATTACK,
            label="either",
            refinement=Refinement.OR,
            children=(and_node, leaf("z", cost=5)),
        )
        values = evaluate(tree(root), COST)
        assert values["root"] == 5.0
        assert values["root.0"] == 7.0
        assert values["root.1"] == 5.0

    def test_probability_and_multiplies_or_maximises(self):
        and_node = AdtNode(
            actor=Actor.ATTACK,
            label="both",
            refinement=Refinement.AND,
            children=(leaf("x", probability=0.5), leaf("y", probability=0.5)),
        )
        root = AdtNode(
            actor=Actor.ATTACK,
            label="either",
            refinement=Refinement.OR,
            children=(and_node, leaf("z", probability=0.2)),
        )
        values = evaluate(tree(root), PROBABILITY)
        assert values["root.0"] == pytest.approx(0.25)
        assert values["root"] == pytest.approx(0.25)

    def test_counter_scales_probability_by_effectiveness(self):
        attacked = AdtNode(
            actor=Actor.ATTACK,
            label="both",
            refinement=Refinement.AND,
            children=(leaf("x", probability=0.5), leaf("y", probability=0.5)),
            counter=AdtNode(
                actor=Actor.DEFENSE,
                label="guard",
                attributes=(("probability", 0.8),),
            ),
        )
        values = evaluate(tree(attacked), PROBABILITY)
        assert values["root.c"] == pytest.approx(0.8)
        assert values["root"] == pytest.approx(0.25 * (1.0 - 0.8))

    def test_counter_adds_bypass_cost(self):
        attacked = AdtNode(
            actor=Actor.ATTACK,
            label="a",
            attributes=(("cost", 10.0),),
            counter=AdtNode(
                actor=Actor.DEFENSE, label="d", attributes=(("cost", 4.0),)
            ),
        )
        assert evaluate(tree(attacked), COST)["root"] == 14.0

    def test_time_parallel_vs_sequential(self):
        root = AdtNode(
            actor=Actor.ATTACK,
            label="both",
            refinement=Refinement.AND,
            children=(leaf("x", time=3), leaf("y", time=5)),
        )
        assert evaluate(tree(root), TIME)["root"] == 5.0
        assert evaluate(tree(root), TIME_SEQUENTIAL)["root"] == 8.0

    def test_child_permutation_leaves_root_value_unchanged(self):
        children = (leaf("a", cost=3), leaf("b", cost=9), leaf("c", cost=6))
        for refinement in (Refinement.AND, Refinement.OR):
            forward = AdtNode(
                actor=Actor.ATTACK,
                label="n",
                refinement=refinement,
                children=children,
            )
            backward = AdtNode(
                actor=Actor.ATTACK,
                label="n",
                refinement=refinement,
                children=children[::-1],
            )
            assert (
                evaluate(tree(forward), COST)["root"]
                == evaluate(tree(backward), COST)["root"]
            )

    def test_missing_attribute_names_the_leaf(self):
        with pytest.raises(ValueError, match="'mystery'"):
            evaluate(tree(leaf("mystery")), COST)

    def test_every_node_path_gets_a_value(self):
        """The keys are the recursive walk's paths, in its preorder: a node,
        its children, then its counter."""
        def defense(label, **attrs):
            return leaf(label, **attrs)._replace(actor=Actor.DEFENSE)

        alarm = defense("alarm", cost=3)._replace(counter=leaf("bypass", cost=1))
        guard = AdtNode(Actor.DEFENSE, "guard", Refinement.AND,
                        children=(defense("lock", cost=2), alarm),
                        counter=leaf("cut power", cost=4))
        guarded = leaf("a", cost=5)._replace(counter=guard)
        nested = tree(AdtNode(Actor.ATTACK, "r", Refinement.OR,
                              children=(guarded, leaf("b", cost=9))))
        trees = [random_cost_adt(random.Random(seed)) for seed in range(40)] + [nested]
        for t in trees:
            assert list(evaluate(t, COST)) == [path for path, _ in recursive_adt_walk(t)]
        assert list(evaluate(nested, COST)) == [
            "root", "root.0", "root.0.c", "root.0.c.0", "root.0.c.1", "root.0.c.1.c",
            "root.0.c.c", "root.1"]


class TestCostOracle:
    def test_matches_strategy_enumeration(self):
        for seed in range(300):
            rng = random.Random(seed)
            t = random_cost_adt(rng)
            expected = brute_force_min_cost(t)
            assert evaluate(t, COST)["root"] == pytest.approx(expected), seed


@st.composite
def probability_trees(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        p = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        node = AdtNode(
            actor=Actor.ATTACK, label=f"l{depth}", attributes=(("probability", p),)
        )
    else:
        n = draw(st.integers(min_value=2, max_value=3))
        children = tuple(draw(probability_trees(depth=depth + 1)) for _ in range(n))
        node = AdtNode(
            actor=Actor.ATTACK,
            label=f"n{depth}",
            refinement=draw(st.sampled_from([Refinement.AND, Refinement.OR])),
            children=children,
        )
    if draw(st.booleans()) and depth < 2:
        eff = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        node = AdtNode(
            actor=node.actor,
            label=node.label,
            refinement=node.refinement,
            children=node.children,
            attributes=node.attributes,
            counter=AdtNode(
                actor=Actor.DEFENSE,
                label=f"c{depth}",
                attributes=(("probability", eff),),
            ),
        )
    return node


class TestProbabilityProperties:
    @settings(max_examples=200, deadline=None)
    @given(probability_trees())
    def test_values_stay_in_unit_interval(self, root):
        for value in evaluate(tree(root), PROBABILITY).values():
            assert 0.0 <= value <= 1.0
            assert not math.isnan(value)

    @settings(max_examples=200, deadline=None)
    @given(probability_trees())
    def test_noisy_or_dominates_max(self, root):
        policy = VerdictPolicy(prob_or="noisy_or")
        noisy = evaluate(tree(root), policy.domain())["root"]
        plain = evaluate(tree(root), PROBABILITY)["root"]
        assert noisy >= plain - 1e-12


class TestVerdicts:
    def test_unassessed_policy_skips_evaluation(self):
        # A tree with no attributes at all would fail evaluation.
        bare = tree(AdtNode(actor=Actor.ATTACK, label="a"))
        assert verdict(bare, UNASSESSED) is SecurityVerdict.NO_ASSESSMENT

    def test_threshold_comparisons(self):
        t = tree(leaf("a", probability=0.3))
        low = VerdictPolicy(attribute="probability", op="<=", threshold=0.5)
        high = VerdictPolicy(attribute="probability", op="<=", threshold=0.1)
        assert verdict(t, low) is SecurityVerdict.ACCEPTABLE_RISK
        assert verdict(t, high) is SecurityVerdict.UNACCEPTABLE_RISK

    def test_geq_direction_for_cost(self):
        t = tree(leaf("a", cost=12))
        policy = VerdictPolicy(attribute="cost", op=">=", threshold=10.0)
        assert verdict(t, policy) is SecurityVerdict.ACCEPTABLE_RISK

    def test_invalid_op_rejected(self):
        with pytest.raises(ValueError):
            VerdictPolicy(op="<")

    def test_invalid_prob_or_rejected(self):
        with pytest.raises(ValueError):
            VerdictPolicy(prob_or="sum")


class TestDomains:
    def test_builtin_names(self):
        assert set(BUILTIN_DOMAINS) == {
            "cost",
            "probability",
            "time",
            "time_sequential",
        }

    def test_unknown_domain_lists_known_ones(self):
        with pytest.raises(ValueError, match="cost"):
            get_domain("entropy")


class TestLoadPolicy:
    def test_full_policy(self):
        policy = load_policy(
            "# comment\n"
            "attribute = probability\n"
            "op = <=\n"
            "threshold = 0.1\n"
            "prob_or = noisy_or\n"
        )
        assert policy == VerdictPolicy(
            attribute="probability", op="<=", threshold=0.1, prob_or="noisy_or"
        )

    def test_unassessed_shortcut(self):
        assert load_policy("unassessed = true") == UNASSESSED

    @pytest.mark.parametrize("value, policy", [
        ("TRUE", UNASSESSED), ("Yes", UNASSESSED), ("1", UNASSESSED),
        ("False", VerdictPolicy()), ("NO", VerdictPolicy()), ("0", VerdictPolicy()),
    ])
    def test_unassessed_words_in_any_case(self, value, policy):
        assert load_policy(f"unassessed = {value}") == policy

    @pytest.mark.parametrize("value", ["flase", "", "2", "on"])
    def test_unassessed_typo_names_its_line(self, value):
        with pytest.raises(ValueError) as exc:
            load_policy(f"# policy\nunassessed = {value}\nthreshold = 0.5")
        assert str(exc.value) == (
            f"policy line 2: unassessed must be true or false, got {value!r}")

    def test_defaults(self):
        assert load_policy("threshold = 0.5") == VerdictPolicy(threshold=0.5)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="colour"):
            load_policy("colour = red")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            load_policy("threshold = 0.5\nnot a pair\n")

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match=f"finite number, got {threshold}"):
            load_policy(f"threshold = {threshold}")

    def test_non_numeric_threshold_names_its_line(self):
        with pytest.raises(ValueError) as exc:
            load_policy("attribute = cost\nthreshold = abc")
        assert str(exc.value) == "policy line 2: threshold must be a number, got 'abc'"

    def test_bad_op_reported(self):
        with pytest.raises(ValueError, match="comparison must be <= or >=, got '!='"):
            load_policy("op = !=")

    @pytest.mark.parametrize("text, message", [
        ("op = !=", "policy line 1: comparison must be <= or >=, got '!='"),
        ("threshold = 0.5\nprob_or = sum", "policy line 2: prob_or must be max or noisy_or, got 'sum'"),
        ("# header\nop = <\nop = =>", "policy line 3: comparison must be <= or >=, got '=>'"),
        ("threshold = inf\n\nop = >=", "policy line 1: threshold must be a finite number, got inf"),
        ("op = >=\nzeta = 1\ncolour = red\nzeta = 2\nop = !=",
         "policy line 2: unknown policy keys: colour, zeta"),
    ])
    def test_invalid_field_names_its_line(self, text, message):
        with pytest.raises(ValueError) as exc:
            load_policy(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("separator", ["\f", "\v", "\r", "\x1c", "\x1d", "\x1e",
                                           "\x85", "\u2028", "\u2029"])
    def test_only_a_newline_ends_a_line(self, separator):
        # ``str.splitlines`` would break at each of these and count line 3.
        with pytest.raises(ValueError) as exc:
            load_policy(f"attribute = cost{separator}op = <=\nthreshold = x\n")
        assert str(exc.value) == "policy line 2: threshold must be a number, got 'x'"

    def test_unknown_keys_print_on_one_line(self):
        with pytest.raises(ValueError) as exc:
            load_policy("colour\vhue = red\nshade\u2028tone = dark")
        assert str(exc.value) == (
            "policy line 1: unknown policy keys: colour\\x0bhue, shade\\u2028tone")
