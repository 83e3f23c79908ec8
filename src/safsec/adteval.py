"""Bottom-up quantitative evaluation of attack-defense trees.

An attribute domain fixes how OR/AND refinements and countermeasure
attachments combine values.  Built-in domains follow the standard semantics
from the quantitative attack-tree literature:

  cost         or=min, and=sum, counter=attack cost + defense bypass cost
  probability  or=max, and=product, counter=attack * (1 - effectiveness)
  time         or=min, and=max (parallel attacker); ``time_sequential``
               uses and=sum for a single-threaded attacker

Probability OR defaults to max (worst single path); a policy file may select
noisy-OR instead.

Errors raise ``ValueError``.  :func:`refined_value` is the one rule for a
node's value; :func:`evaluate` and :mod:`safsec.process`'s scenario replay
both apply it, and :mod:`safsec.validate` checks a scenario's rounds by
running that replay.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Callable, Optional, Sequence

from .confidence import SecurityVerdict
from .model import AdtNode, AttackDefenseTree, Record, Refinement, printable


class AttributeDomain(Record):
    name: str
    or_combine: Callable[[float, float], float]
    and_combine: Callable[[float, float], float]
    counter_combine: Callable[[float, float], float]
    attribute_key: Optional[str] = None  # leaf attribute name; defaults to name

    @property
    def key(self) -> str:
        return self.attribute_key if self.attribute_key is not None else self.name


def _noisy_or(a: float, b: float) -> float:
    return 1.0 - (1.0 - a) * (1.0 - b)


COST = AttributeDomain(
    name="cost",
    or_combine=min,
    and_combine=lambda a, b: a + b,
    counter_combine=lambda attack, bypass: attack + bypass,
)

PROBABILITY = AttributeDomain(
    name="probability",
    or_combine=max,
    and_combine=lambda a, b: a * b,
    counter_combine=lambda attack, effectiveness: attack * (1.0 - effectiveness),
)

TIME = AttributeDomain(
    name="time",
    or_combine=min,
    and_combine=max,
    counter_combine=lambda attack, delay: attack + delay,
)

TIME_SEQUENTIAL = TIME._replace(
    name="time_sequential",
    and_combine=lambda a, b: a + b,
    attribute_key="time",
)

BUILTIN_DOMAINS: dict[str, AttributeDomain] = {
    d.name: d for d in (COST, PROBABILITY, TIME, TIME_SEQUENTIAL)
}


def get_domain(name: str) -> AttributeDomain:
    try:
        return BUILTIN_DOMAINS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_DOMAINS))
        raise ValueError(f"unknown attribute domain {name!r} (known: {known})")


def leaf_value(node: AdtNode, domain: AttributeDomain) -> float:
    """A leaf's value: its attribute named by the domain's key."""
    value = node.attribute(domain.key)
    if value is None:
        raise ValueError(f"leaf {node.label!r} has no {domain.key!r} attribute "
                         "and the domain defines no default")
    return value


def refined_value(node: AdtNode, domain: AttributeDomain, child_values: Sequence[float]) -> float:
    """A node's value before its countermeasure: a leaf's attribute, or its
    children's values reduced in order by its refinement's combine.

    The node's value is this, passed with its countermeasure's value through
    ``domain.counter_combine`` when it carries one.  A leaf's own value is
    taken before its countermeasure is evaluated, so of two leaves that lack
    the attribute the first in :func:`~safsec.model.adt_walk`'s preorder is
    the one named.
    """
    if node.refinement is Refinement.LEAF:
        return leaf_value(node, domain)
    if not child_values:
        raise ValueError(f"{node.refinement.value} node {node.label!r} has no children")
    combine = domain.and_combine if node.refinement is Refinement.AND else domain.or_combine
    if combine is min or combine is max:
        return combine(child_values)  # one C call making reduce's comparisons, in its order
    return reduce(combine, child_values)


def evaluate(tree: AttackDefenseTree, domain: AttributeDomain) -> dict[str, float]:
    """Value of every node under the given domain, keyed by tree path.

    A path is ``root`` plus ``.i`` per i-th child and ``.c`` per counter;
    this is the one place that spells one.  The keys come in preorder.  The
    tree's node invariants are :mod:`safsec.validate`'s: a leaf has no
    children, and an AND/OR node without any raises ``ValueError``.
    """
    values: dict[str, float] = {}

    def rec(path: str, node: AdtNode) -> float:
        values[path] = math.nan  # reserve the key on entry, in preorder
        children = node.children
        child_values = [rec(f"{path}.{i}", c) for i, c in enumerate(children)] if children else ()
        value = refined_value(node, domain, child_values)
        if node.counter is not None:
            counter_value = rec(f"{path}.c", node.counter)
            value = domain.counter_combine(value, counter_value)
        values[path] = value
        return value

    rec("root", tree.root)
    return values


def _policy_problem(op: str, prob_or: str, threshold: float) -> Optional[tuple[str, str]]:
    """The first invalid policy field, and what is wrong with it."""
    if op not in ("<=", ">="):
        return "op", f"comparison must be <= or >=, got {op!r}"
    if prob_or not in ("max", "noisy_or"):
        return "prob_or", f"prob_or must be max or noisy_or, got {prob_or!r}"
    if not math.isfinite(threshold):  # every comparison with nan is false
        return "threshold", f"threshold must be a finite number, got {threshold}"
    return None


class VerdictPolicy(Record):
    """Threshold comparison on the root value, or no assessment at all."""

    unassessed: bool = False
    attribute: str = "probability"
    op: str = "<="  # "<=" or ">="
    threshold: float = 0.0
    prob_or: str = "max"  # "max" | "noisy_or"

    def __post_init__(self) -> None:
        problem = _policy_problem(self.op, self.prob_or, self.threshold)
        if problem is not None:
            raise ValueError(problem[1])

    def domain(self) -> AttributeDomain:
        d = get_domain(self.attribute)
        if d.name == "probability" and self.prob_or == "noisy_or":
            d = d._replace(or_combine=_noisy_or)
        return d


UNASSESSED = VerdictPolicy(unassessed=True)


def verdict(tree: AttackDefenseTree, policy: VerdictPolicy,
            evaluated: Optional[tuple[AttributeDomain, float]] = None) -> SecurityVerdict:
    """Compare the root's evaluated value against the policy threshold.

    ``evaluated`` is a domain and the tree's root value in it; when it
    equals the policy's domain, that value is compared and the tree is not
    evaluated again.  (A ``noisy_or`` policy builds a new, equal domain on
    each :meth:`VerdictPolicy.domain` call.)
    """
    if policy.unassessed:
        return SecurityVerdict.NO_ASSESSMENT
    domain = policy.domain()
    if evaluated is not None and evaluated[0] == domain:
        root_value = evaluated[1]
    else:
        root_value = evaluate(tree, domain)["root"]
    if policy.op == "<=":
        ok = root_value <= policy.threshold
    else:
        ok = root_value >= policy.threshold
    return SecurityVerdict.ACCEPTABLE_RISK if ok else SecurityVerdict.UNACCEPTABLE_RISK


def load_policy(text: str) -> VerdictPolicy:
    """Parse the key=value policy format.

    Keys: ``unassessed`` (true/yes/1 or false/no/0, in any case),
    ``attribute``, ``op`` (<= or >=), ``threshold``, ``prob_or`` (max or
    noisy_or).  Lines end at ``\\n`` only; lines starting with ``#`` and
    blank lines are ignored.
    """
    fields: dict[str, str] = {}
    lines: dict[str, int] = {}  # key -> the line it was last set on
    unknown: dict[str, int] = {}  # unknown key -> the line it was first set on
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"policy line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        fields[key], lines[key] = value.strip(), lineno
        if key not in ("unassessed", "attribute", "op", "threshold", "prob_or"):
            unknown.setdefault(key, lineno)
    if unknown:
        raise ValueError(f"policy line {min(unknown.values())}: unknown policy keys: "
                         f"{', '.join(map(printable, sorted(unknown)))}")
    unassessed = fields.get("unassessed", "false")
    if unassessed.lower() in ("true", "yes", "1"):
        return UNASSESSED
    if unassessed.lower() not in ("false", "no", "0"):
        raise ValueError(
            f"policy line {lines['unassessed']}: unassessed must be true or false, "
            f"got {unassessed!r}"
        )
    threshold = fields.get("threshold", "0")
    try:
        number = float(threshold)
    except ValueError:
        raise ValueError(
            f"policy line {lines['threshold']}: threshold must be a number, got {threshold!r}"
        ) from None
    op, prob_or = fields.get("op", "<="), fields.get("prob_or", "max")
    problem = _policy_problem(op, prob_or, number)
    if problem is not None:  # the defaults are valid, so the key was set
        key, message = problem
        raise ValueError(f"policy line {lines[key]}: {message}")
    return VerdictPolicy(attribute=fields.get("attribute", "probability"), op=op,
                         threshold=number, prob_or=prob_or)
