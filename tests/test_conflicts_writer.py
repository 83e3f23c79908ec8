"""``conflicts`` writes witness families straight from their patterns.

``conflicts.check_pair`` returns a ``Witnesses`` family, and the CLI writes
its rows from tables of the pattern bytes without building the witnesses.
The oracle builds them: each ``ContradictionWitness`` of the family becomes
the dict that the machine output lists, and ``--format machine`` must print
exactly ``json.dumps(payload, sort_keys=True, indent=2)`` of that payload.
The text output must list, line for line, what the expanded witnesses say.
Door pairs at 0, 1, 7, 8, 9, 16, 17 and 20 inputs cross the pattern-byte
boundaries, and their input names are ones that JSON escapes.
"""

import json
from itertools import product

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_rule_set, requirements_from_rules
from oracles import naive_find_contradictions, replay
from safsec.cli import main
from safsec.conflicts import RuleSet, check_pair, conflict_candidates, find_contradictions
from safsec.model import Document
from safsec.modelfile import parse, print_document


def expanded_payload(document: Document) -> dict:
    """The machine payload, from every witness built and turned into a dict."""
    reqs = document.requirements
    candidates = conflict_candidates(list(reqs.values()))
    return {
        "command": "conflicts",
        "candidates": [list(pair) for pair in candidates],
        "contradictions": [
            {
                "pair": [first, second],
                "assignment": w.input_assignment,
                "conflicted_signal": w.conflicted_signal,
                "involved_requirements": list(w.involved_requirements),
                "fired_clauses": [clause.text for clause in w.fired_clauses],
            }
            for first, second in candidates
            for w in check_pair(reqs[first], reqs[second])
        ],
    }


def expanded_lines(payload: dict) -> list[str]:
    """The text output that the expanded payload gives."""
    lines = [] if payload["candidates"] else ["no conflict candidates (no shared signals)"]
    for first, second in payload["candidates"]:
        pair = f"{first} / {second}"
        witnesses = [w for w in payload["contradictions"] if w["pair"] == [first, second]]
        if not witnesses:
            lines.append(f"{pair}: consistent")
        for w in witnesses:
            assign = ", ".join(f"{k}={'true' if v else 'false'}" for k, v in w["assignment"].items())
            lines.append(f"{pair}: CONTRADICTION on {w['conflicted_signal']} under {{{assign}}}")
            lines += [f"  fired: {clause}" for clause in w["fired_clauses"]]
    return lines


def assert_family(rules: RuleSet) -> None:
    """The family equals the oracle, and indexing, iteration and ``len`` agree."""
    family = find_contradictions(rules)
    expected = naive_find_contradictions(rules)
    assert family == expected and expected == family
    assert family == tuple(expected)
    witnesses = list(family)
    assert len(family) == len(witnesses) == len(expected)
    assert [family[i] for i in range(len(family))] == witnesses
    assert [family[i] for i in range(-len(family), 0)] == witnesses
    assert family[1:-1] == witnesses[1:-1]
    # Joined per witness, the texts of the pattern bytes spell each assignment.
    texts = family.assignment_texts([name + "=" for name in rules.inputs], ", ")
    assert len(texts) == (len(rules.inputs) + 7) // 8
    spelt = ["".join(parts) for parts in zip(*texts)] if texts else [""] * len(family)
    assert spelt == [", ".join(f"{k}={'true' if v else 'false'}" for k, v in w.input_assignment.items())
                     for w in witnesses]


def assert_cli(path, oracle: bool = True) -> None:
    """Both formats of ``conflicts`` on ``path`` against the expanded payload,
    and with ``oracle`` each candidate's family against the naive search."""
    text = path.read_text(encoding="utf-8")
    document = parse(text).document
    payload = expanded_payload(document)
    code = 1 if payload["contradictions"] else 0
    runner = CliRunner()
    machine = runner.invoke(main, ["--format", "machine", "conflicts", str(path)],
                            env={"SAFSEC_COLOR": "0"})
    assert (machine.exit_code, machine.stdout) == (
        code, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    plain = runner.invoke(main, ["conflicts", str(path)], env={"SAFSEC_COLOR": "0"})
    assert plain.exit_code == code
    assert plain.stdout.splitlines() == expanded_lines(payload)
    reqs = document.requirements
    for first, second in payload["candidates"] if oracle else ():
        assert_family(RuleSet.from_requirements([reqs[first], reqs[second]]))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("conflicts")


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_random_rule_sets(workdir, rng):
    # Up to 12 inputs, so that patterns take one or two bytes.
    clauses, inputs = random_rule_set(rng)
    reqs = requirements_from_rules(clauses, inputs)
    assert_family(RuleSet.from_requirements(reqs))
    path = workdir / "rules.ssm"
    path.write_text(print_document(Document(tuple(reqs))), encoding="utf-8")
    assert_cli(path, oracle=False)  # the one candidate, if any, is the pair above


# Names that JSON escapes (non-ASCII, astral) beside plain ones; sorted, an
# input's rank mixes the kinds.
STEMS = ("Tür", "In", "名前", "\U0001d518", "é_", "Z")


def door_file(n: int) -> str:
    """Two requirements over ``n`` inputs that drive Lock both ways when
    every input outside a few free ones holds its value: the first, the
    eighth and ninth, the 16th and 17th and the last.  Each free input that
    is true fires a side rule of its own, so witnesses fire different sets."""
    inputs = sorted(f"{STEMS[i % len(STEMS)]}{i}" for i in range(n))
    free = {inputs[i] for i in {0, 7, 8, 15, 16, n - 1} if 0 <= i < n}
    fixed = [("" if i % 3 else "!") + name for i, name in enumerate(inputs) if name not in free]
    safety, security = fixed[: len(fixed) // 2], fixed[len(fixed) // 2:]
    declared = [[f"  inputs = [{', '.join(names)}]"] if names else []
                for names in (inputs[: n // 2], inputs[n // 2:])]
    lines = ["requirement Door kind = safety trace = D {", *declared[0],
             " ".join(["  clause", *safety[:1], *(f"& {x}" for x in safety[1:]), "=> !Lock"]),
             "}",
             "requirement Guard kind = security_design trace = D {", *declared[1],
             " ".join(["  clause", *security[:1], *(f"& {x}" for x in security[1:]), "=> Lock"]),
             *(f"  clause {name} => Side{i}" for i, name in enumerate(sorted(free))),
             "}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 17, 20])
def test_door_pairs_across_pattern_bytes(workdir, n):
    path = workdir / f"door{n}.ssm"
    path.write_text(door_file(n), encoding="utf-8")
    reqs = parse(path.read_text(encoding="utf-8")).document.requirements
    family = check_pair(reqs["Door"], reqs["Guard"])
    free = sorted({0, 7, 8, 15, 16, n - 1} & set(range(n)))
    assert len(family) == 2 ** len(free)
    assert len({id(shared) for shared in family.shared}) == 2 ** len(free)
    assert len(family.inputs) == n
    # The naive search chains all 2**n assignments, which takes 20 s at 20
    # inputs; there each witness replays instead, and the patterns are the
    # fixed inputs' values under every choice of the free ones.
    assert_cli(path, oracle=n <= 17)
    rules = RuleSet.from_requirements([reqs["Door"], reqs["Guard"]])
    assert all(replay(rules, w) for w in family)
    fixed = sum(1 << i for i in range(n) if i not in free and i % 3)
    assert family.patterns == sorted(
        fixed | sum(1 << i for i, bit in zip(free, choice) if bit)
        for choice in product((0, 1), repeat=len(free)))
