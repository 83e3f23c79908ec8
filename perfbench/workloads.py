"""Seeded workload generators, each paired with its reference answers.

Every generator writes `.ssm` (and side) files into a work directory and
returns the list of CLI requests of one pass over the workload's mix.  Each
request carries a check that compares the command's exit code and machine
JSON with an answer the generator worked out while it built the input: a
goal's aggregate is the sum of the defeaters it placed in the subtree, a cut
set family is the one an AND-of-ORs shape has by construction, and so on.
Small random instances are checked with the brute-force oracles of the test
suite instead, and the bundled example files against hand-written answers.
Nothing here asks safsec for an answer.

References that take real work (oracles, enumerated cut-set families and
conflict witnesses) are deferred: a request's ``reference`` works them out
once, so the benchmark can do that outside its timed set-up.

Sizes are fixed ladders; the seed changes names, numbers and shapes but not
how much work a request is, so runs with different seeds stay comparable.
"""

from __future__ import annotations

import functools
import json
import os
import random
import re
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, product
from typing import Callable, Optional

MACHINE = ["--format", "machine"]

# ROADMAP baseline table, seconds of the layer on the matching input; the
# traced run reports its own time on that input next to these.
PROBE_ROADMAP_S = {
    "aggregate_gsn_chain200": 0.26,
    "parse_400kb": 0.32,
    "minimal_cut_sets_and12": 0.87,
    "find_contradictions_12": 0.26,
}


@dataclass
class Request:
    """One CLI invocation of the mix and the check of its answer."""

    kind: str
    argv: list[str]
    check: Callable[[int, str, str], Optional[str]]
    malformed: bool = False  # expected to fail cleanly (exit 2, one line)
    reference: Optional[Callable[[], object]] = None  # deferred, cached answer


# --- shared helpers ---------------------------------------------------------


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= 1e-9 * max(1.0, abs(b))


def _tag(rng: random.Random) -> str:
    return "".join(rng.choice("BCDFGHJKLMNPQRSTVWXZ") for _ in range(3))


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _json_check(expect_code: int, compare: Callable[[dict], Optional[str]]):
    """Check an exit code, then hand the parsed machine JSON to ``compare``."""

    def check(code: int, out: str, err: str) -> Optional[str]:
        if code != expect_code:
            return f"exit {code}, expected {expect_code}: {err.strip()[-200:]}"
        try:
            payload = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        return compare(payload)

    return check


def _equal(expected) -> Callable[[dict], Optional[str]]:
    return _equal_deferred(lambda: expected)


def _equal_deferred(reference: Callable[[], dict]) -> Callable[[dict], Optional[str]]:
    def compare(payload: dict) -> Optional[str]:
        return None if payload == reference() else "answer differs from reference"

    return compare


def _clean_usage_error(code: int, out: str, err: str) -> Optional[str]:
    """Malformed input: exit 2 with a one-line message and no traceback."""
    if "Traceback" in err or "Traceback" in out:
        return "traceback"
    if code != 2:
        return f"exit {code}, expected 2"
    if len(err.strip().splitlines()) != 1:
        return "message is not one line"
    return None


# --- reference opinion arithmetic (paper's formulas) -------------------------

PRIOR = 2.0


def _triple(outruled: int, total: int) -> tuple[float, float, float]:
    denom = total + PRIOR
    return outruled / denom, (total - outruled) / denom, PRIOR / denom


def _update(t, verdict: str, weight: float) -> tuple[float, float, float]:
    b, d, u = t
    s = 1.0 + weight
    if verdict == "no_assessment":
        b1, d1 = b / s, d / s
        return b1, d1, u + (b - b1) + (d - d1)
    if verdict == "acceptable_risk":
        u1, d1 = u / s, d / s
        return b + (d - d1) + (u - u1), d1, u1
    b1, u1 = b / s, u / s
    return b1, d + (b - b1) + (u - u1), u1


def _triple_ok(got: dict, want) -> bool:
    return all(
        _close(got.get(k), v) for k, v in zip(("belief", "disbelief", "uncertainty"), want)
    )


# --- reference attack-defense trees -----------------------------------------


@dataclass
class RefAdt:
    actor: str
    label: str
    refinement: Optional[str] = None  # "AND" | "OR" | None for a leaf
    children: list["RefAdt"] = field(default_factory=list)
    counter: Optional["RefAdt"] = None
    attrs: dict[str, float] = field(default_factory=dict)
    impact: Optional[str] = None

    def text(self, indent: int, keyword: str = "") -> list[str]:
        pad = "  " * indent
        head = f"{pad}{keyword}{self.actor}"
        if self.refinement:
            head += f" {self.refinement}"
        head += f' "{self.label}" {{'
        lines = [head]
        if self.impact:
            lines.append(f"{pad}  impact = {self.impact}")
        for key, value in self.attrs.items():
            lines.append(f"{pad}  attr {key} = {_fmt(value)}")
        for child in self.children:
            lines.extend(child.text(indent + 1))
        if self.counter is not None:
            lines.extend(self.counter.text(indent + 1, "counter "))
        lines.append(f"{pad}}}")
        return lines

    def count(self) -> int:
        n = 1 + sum(c.count() for c in self.children)
        return n + (self.counter.count() if self.counter else 0)

    def shape(self) -> tuple:
        """Label, refinement, impact and children, as the printer would emit."""
        return (
            self.label,
            self.refinement,
            self.impact,
            tuple(c.shape() for c in self.children),
        )


def _fmt(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


DOMAINS = {
    "cost": (min, lambda a, b: a + b, lambda a, c: a + c),
    "probability": (max, lambda a, b: a * b, lambda a, c: a * (1.0 - c)),
    "time": (min, max, lambda a, c: a + c),
}


def adt_values(node: RefAdt, domain: str, path: str = "root", out=None) -> dict:
    """Path -> value under the domain, by the attribute-domain definitions."""
    out = {} if out is None else out
    or_, and_, counter = DOMAINS[domain]
    if node.refinement is None:
        value = node.attrs[domain]
    else:
        kids = [adt_values(c, domain, f"{path}.{i}", out)[f"{path}.{i}"]
                for i, c in enumerate(node.children)]
        value = reduce(and_ if node.refinement == "AND" else or_, kids)
    if node.counter is not None:
        value = counter(value, adt_values(node.counter, domain, f"{path}.c", out)[f"{path}.c"])
    out[path] = value
    return out


def _labels(node: RefAdt, path: str = "root", out=None) -> dict:
    out = {} if out is None else out
    out[path] = node.label
    for i, c in enumerate(node.children):
        _labels(c, f"{path}.{i}", out)
    if node.counter is not None:
        _labels(node.counter, f"{path}.c", out)
    return out


def _leaf_attrs(rng: random.Random) -> dict[str, float]:
    return {
        "cost": float(rng.randint(1, 40)),
        "probability": float(f"{rng.uniform(0.02, 0.6):.3f}"),
        "time": float(rng.randint(1, 30)),
    }


def random_adt(rng: random.Random, n_nodes: int, tag: str) -> tuple[RefAdt, list[RefAdt]]:
    """Attack tree with exactly ``n_nodes`` attack nodes plus a few counters.

    Returns the root and the leaves that carry no countermeasure.
    """
    serial = iter(range(10**6))
    root = RefAdt("attack", f"{tag} goal {next(serial)}", attrs=_leaf_attrs(rng))
    leaves = [(root, 0)]
    count = 1
    while count < n_nodes:
        idx = rng.randrange(len(leaves))
        node, depth = leaves[idx]
        if depth >= 7:
            continue
        leaves.pop(idx)
        node.refinement = rng.choice(["AND", "OR"])
        node.attrs = {}
        for _ in range(min(rng.randint(2, 4), n_nodes - count)):
            child = RefAdt("attack", f"{tag} step {next(serial)}", attrs=_leaf_attrs(rng))
            node.children.append(child)
            leaves.append((child, depth + 1))
            count += 1
    nodes = [root]
    for node in nodes:
        nodes.extend(node.children)
    for node in rng.sample(nodes, max(1, len(nodes) // 12)):
        node.counter = RefAdt("defense", f"{tag} guard {next(serial)}", attrs=_leaf_attrs(rng))
    for node in nodes:
        if rng.random() < 0.1:
            node.impact = rng.choice(["low", "medium", "high"])
    free = [n for n, _ in leaves if n.counter is None]
    return root, free


# --- assurance cases ---------------------------------------------------------

VERBS = {
    "disclosure": "Disclose", "disconnected": "Disconnect", "delay": "Delay",
    "deletion": "Delete", "stopping": "Stop", "denial": "Deny",
    "trigger": "Trigger", "insertion": "Insert", "reset": "Reset",
    "manipulation": "Manipulate",
}
MECHANISMS = ["trigger", "stopping", "trigger", "stopping", "manipulation", "delay"]
MODES = ["loss_of_function", "erroneous", "unintended_action", "partial_loss"]


def _impact_of_severity(sev: int) -> str:
    return "low" if sev <= 3 else "medium" if sev <= 7 else "high"


def _tiny_trees(tag: str) -> list[tuple[str, list[str], list[tuple[str, ...]]]]:
    """Tiny fault trees as (name, .ssm lines, minimal cut sets in canonical order)."""
    e = [f"{tag}E{i}" for i in range(4)]
    shapes = [
        ([f"gate T OR [G1, {e[0]}]", f"gate G1 AND [{e[1]}, {e[2]}]"], [(e[0],), (e[1], e[2])]),
        ([f"gate T AND [G1, {e[2]}]", f"gate G1 OR [{e[0]}, {e[1]}]"], [(e[0], e[2]), (e[1], e[2])]),
        (
            [f"gate T OR [G1, G2, {e[0]}]", f"gate G1 AND [{e[0]}, {e[1]}]",
             f"gate G2 AND [{e[2]}, {e[3]}]"],
            [(e[0],), (e[2], e[3])],
        ),
    ]
    out = []
    for i, (gates, mcs) in enumerate(shapes):
        used = sorted({ev for cut in mcs for ev in cut} | ({e[1]} if i == 2 else set()))
        lines = [f'fta "{tag} tree {i}" {{', "  top T"]
        lines += [f"  {g}" for g in gates] + [f"  event {ev}" for ev in used] + ["}"]
        out.append((f"{tag} tree {i}", lines, sorted(mcs)))
    return out


def _fta_fragment(name: str, mcs: list[tuple[str, ...]]) -> RefAdt:
    frags = []
    for cut in mcs:
        if len(cut) == 1:
            frags.append(RefAdt("attack", f"trigger {cut[0]}"))
        else:
            frags.append(RefAdt("attack", "trigger " + ", ".join(cut), "AND",
                                [RefAdt("attack", f"trigger {ev}") for ev in cut]))
    return frags[0] if len(frags) == 1 else RefAdt("attack", f"trigger {name}", "OR", frags)


def _fmea_fragment(row: dict) -> RefAdt:
    fn, impact = row["function"], _impact_of_severity(row["severity"])
    if row["mode"] == "loss_of_function":
        return RefAdt("attack", f"disable {fn}", "OR",
                      [RefAdt("attack", f"deny_service {fn}"), RefAdt("attack", f"tamper {fn}")],
                      impact=impact)
    label = {
        "erroneous": f"tamper {fn}",
        "unintended_action": f"trigger {fn}",
        "partial_loss": f"deny_service sub-function of {fn}",
    }[row["mode"]]
    return RefAdt("attack", label, impact=impact)


def _voter_fragment(signals: list[str], threshold: int, trace: str, mech: str) -> RefAdt:
    if mech == "stopping":
        return RefAdt("attack", f"deny_service voter {trace}")
    kids = [RefAdt("attack", f"tamper voter {trace}")]
    for subset in combinations(signals, threshold):
        if len(subset) == 1:
            kids.append(RefAdt("attack", f"spoof {subset[0]}"))
        else:
            kids.append(RefAdt("attack", "spoof " + ", ".join(subset), "AND",
                               [RefAdt("attack", f"spoof {s}") for s in subset]))
    return RefAdt("attack", f"defeat voter {trace}", "OR", kids)


ADT_LINE = re.compile(r'^(?:counter )?(attack|defense)(?: (AND|OR))? "(.*)"( \{)?$')


def read_printed_adt(text: str) -> tuple:
    """Shape of the single ADT in a printed `.ssm` document (see RefAdt.shape)."""
    stack: list[list] = []
    root = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("adt "):
            continue
        m = ADT_LINE.match(line)
        if m:
            node = [m.group(3), m.group(2), None, []]
            if stack:
                stack[-1][3].append(node)
            else:
                root = node
            if m.group(4):
                stack.append(node)
        elif line.startswith("impact = "):
            stack[-1][2] = line.split(" = ", 1)[1]
        elif line == "}":
            if stack:
                stack.pop()
        else:
            raise ValueError(f"unexpected line {line!r}")

    def freeze(node):
        return (node[0], node[1], node[2], tuple(freeze(c) for c in node[3]))

    if root is None:
        raise ValueError("no adt node")
    return freeze(root)


def _fmea_block(name: str, rows: list[dict]) -> list[str]:
    return [f'fmea "{name}" {{'] + [
        f'  row {r["id"]} function = "{r["function"]}" mode = {r["mode"]} severity = '
        f'{r["severity"]} occurrence = {r["occurrence"]} detection = {r["detection"]}'
        for r in rows
    ] + ["}"]


def _fmea_rows(rng: random.Random, prefix: str, n: int) -> list[dict]:
    return [
        {"id": f"F{prefix}_{r}", "function": f"{prefix} fn {r}", "mode": rng.choice(MODES),
         "severity": rng.randint(1, 10), "occurrence": rng.randint(1, 10),
         "detection": rng.randint(1, 10)}
        for r in range(n)
    ]


def _fmea_check(name: str, rows: list[dict]):
    """Rows by descending RPN, ties by descending severity, then table order."""
    rpn = lambda r: r["severity"] * r["occurrence"] * r["detection"]
    ranked = sorted(enumerate(rows), key=lambda p: (-rpn(p[1]), -p[1]["severity"], p[0]))
    return _json_check(0, _equal({
        "command": "fmea rpn", "table": name,
        "rows": [{**r, "rpn": rpn(r)} for _, r in ranked],
    }))


def _derive_check(out_path: str, dot_path: str, expected: RefAdt):
    """The printed derived tree and its DOT rendering, read back from disk."""

    def check(code: int, out: str, err: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        try:
            with open(out_path, encoding="utf-8") as handle:
                got = read_printed_adt(handle.read())
            with open(dot_path, encoding="utf-8") as handle:
                dot = handle.read()
        except (OSError, ValueError) as exc:
            return f"derived output unreadable: {exc}"
        if got != expected.shape():
            return "derived tree differs"
        n = expected.count()
        if dot.count(" [shape=") != n or dot.count(" -> ") != n - 1:
            return "derived dot differs"
        return None

    return check


def assurance_case(rng: random.Random, workdir: str, shape: str, n_goals: int,
                   n_adt: int, stem: str) -> list[Request]:
    """One assurance case file and the ten requests of the mix over it.

    ``shape`` is ``bushy`` (goal i under goal (i-1)//3) or ``chain`` (goal i
    under goal i-1).  Every goal carries defeater evidence; about a sixth are
    hazard goals with voter, fault-tree and FMEA solutions under them.  The
    root goal links to an ADT of ``n_adt`` attack nodes, and a five-round
    scenario replays against both.
    """
    tag = _tag(rng)
    model = f"{shape}-{n_goals}-{tag}"
    adt_name, scen_name = f"{model} Attack", f"{model} Review"
    weight = float(rng.randint(1, 3))
    trees = _tiny_trees(tag)
    tables = [(f"{tag} table {t}", _fmea_rows(rng, f"{tag}{t}", rng.randint(4, 8)))
              for t in range(2)]

    # GSN nodes as (id, parent) in declaration order, plus their .ssm lines.
    nodes: list[tuple[str, Optional[str]]] = []
    own: dict[str, tuple[int, int]] = {}
    lines = [f'gsn "{model}" {{']
    branches: list[RefAdt] = []

    def add(kind: str, nid: str, par: Optional[str], attrs: list[str]) -> None:
        under = f" under {par}" if par else ""
        head = f'  {kind} {nid} "{kind} {nid} of {tag}"{under}'
        lines.extend([head + " {", *(f"    {a}" for a in attrs), "  }"] if attrs else [head])
        nodes.append((nid, par))

    def add_goal(gid: str, par: Optional[str], extra: list[str]) -> None:
        t = rng.randint(1, 9)
        own[gid] = (rng.randint(0, t), t)
        add("goal", gid, par, [f"defeaters outruled = {own[gid][0]} total = {t}", *extra])

    add_goal("G0", None, [])
    add("strategy", "S0", "G0", [])
    add("context", "C0", "G0", [])
    # The seed picks the hazard goals, but how many solutions hang under
    # them is fixed by their rank, so the case's size does not vary by seed.
    hazard_goals = sorted(rng.sample(range(1, n_goals), max(2, n_goals // 6)))
    sol = iter(range(n_goals * 3))
    for i in range(1, n_goals):
        gid = f"G{i}"
        p = (i - 1) // 3 if shape == "bushy" else i - 1
        par = "S0" if p == 0 else f"G{p}"
        if i not in hazard_goals:
            add_goal(gid, par, [])
            continue
        rank = hazard_goals.index(i)
        impact, mech, trace = rng.choice(["low", "medium", "high"]), rng.choice(MECHANISMS), f"Comp{i}"
        add_goal(gid, par, [f"hazard impact = {impact} mechanism = {mech} trace = {trace}"])
        frags: list[RefAdt] = []
        if rank % 5 != 4:
            signals = [f"Sig{i}x{k}" for k in range(rng.randint(2, 4))]
            thr = rng.randint(1, len(signals))
            add("solution", f"SOL{next(sol)}", gid,
                [f"voter signals = [{', '.join(signals)}] threshold = {thr} trace = {trace}"])
            if mech in ("trigger", "stopping"):
                frags.append(_voter_fragment(signals, thr, trace, mech))
        if rank % 2 == 0:
            tname, _, mcs = rng.choice(trees)
            add("solution", f"SOL{next(sol)}", gid, [f'fta_ref = "{tname}"'])
            frags.append(_fta_fragment(tname, mcs))
        else:
            tname, rows = rng.choice(tables)
            add("solution", f"SOL{next(sol)}", gid, [f'fmea_ref = "{tname}"'])
            frags.extend(_fmea_fragment(row) for row in rows)
        branches.append(RefAdt("attack", f"{VERBS[mech]} {trace}", "OR" if frags else None,
                               frags, impact=impact))
    lines += [f'  security_link under G0 adt = "{adt_name}" weight = {_fmt(weight)}', "}"]
    for _, tlines, _ in trees:
        lines.extend(tlines)
    for tname, rows in tables:
        lines.extend(_fmea_block(tname, rows))
    root, free_leaves = random_adt(rng, n_adt, tag)
    lines += [f'adt "{adt_name}" {{', *root.text(1), "}"]

    # Scenario: five rounds whose verdicts follow from the generated tree.
    p_before = adt_values(root, "probability")["root"]
    target = rng.choice(free_leaves)
    guard = RefAdt("defense", f"{tag} added guard", attrs={**_leaf_attrs(rng), "probability": 0.9})
    target.counter = guard
    p_after = adt_values(root, "probability")["root"]
    target.counter = None
    # Rounds 2-4 judge against half the lowest root probability (always
    # unacceptable, so belief stays under 1/2); only round 5 can accept, so
    # every replay runs all five rounds.
    low = float(f"{p_after * 0.5:.6f}")
    high = float(f"{p_after * 1.5 + 0.001:.6f}")
    boost = (40 + rng.randint(0, 20), 60 + rng.randint(0, 20))
    thresholds = (0.5, 0.4, 0.2)
    lines += [
        f'scenario "{scen_name}" {{', f'  gsn = "{model}"', f'  adt = "{adt_name}"',
        f"  thresholds min_belief = {thresholds[0]} max_disbelief = {thresholds[1]} "
        f"max_uncertainty = {thresholds[2]}",
        "  max_rounds = 5",
        "  set_policy unassessed",
        f'  set_policy attribute = probability op = "<=" threshold = {low:.6f}',
        f'  add_counter at = "{target.label}" defense "{guard.label}" {{',
        *[f"    attr {k} = {_fmt(v)}" for k, v in guard.attrs.items()],
        "  }",
        f"  set_defeaters goal = G0 outruled = {boost[0]} total = {boost[1]}",
        f'  set_policy attribute = probability op = "<=" threshold = {high:.6f}',
        "}",
    ]
    path = _write(workdir, f"{stem}.ssm", "\n".join(lines) + "\n")
    verdict_choice = rng.choice(["acceptable_risk", "unacceptable_risk", "no_assessment"])
    vpath = _write(workdir, f"{stem}.verdicts", f"{adt_name} = {verdict_choice}\n")
    policy_threshold = rng.choice([low, high])
    ppath = _write(workdir, f"{stem}.policy",
                   f"attribute = probability\nop = <=\nthreshold = {policy_threshold:.6f}\n")

    # Closed-form aggregates: the defeaters placed in each goal's subtree.
    children: dict[str, list[str]] = {}
    for nid, par in nodes:
        if par is not None:
            children.setdefault(par, []).append(nid)

    def subtree(nid: str, counts) -> tuple[int, int]:
        r, t = counts.get(nid, (0, 0))
        for c in children.get(nid, ()):
            cr, ct = subtree(c, counts)
            r, t = r + cr, t + ct
        return r, t

    goals = sorted(own)
    sums = {g: subtree(g, own) for g in goals}

    def confidence(verdict: str):
        def compare(payload: dict) -> Optional[str]:
            got = payload.get("goals", {})
            if sorted(got) != goals or payload.get("warnings") != []:
                return "goal set or warnings differ"
            for g in goals:
                agg = _triple(*sums[g])
                rep = _update(agg, verdict, weight) if g == "G0" else agg
                entry = got[g]
                if (entry["outruled"], entry["total"]) != sums[g]:
                    return f"{g}: aggregate counts differ"
                if not (_triple_ok(entry["aggregate"], agg) and _triple_ok(entry["reported"], rep)):
                    return f"{g}: triple differs"
                if entry["verdict"] != (verdict if g == "G0" else None):
                    return f"{g}: verdict differs"
            return None

        return compare

    labels = _labels(root)
    policy_verdict = "acceptable_risk" if p_before <= policy_threshold else "unacceptable_risk"

    def evaluation(domain: str, verdict: Optional[str]):
        values = adt_values(root, domain)

        def compare(payload: dict) -> Optional[str]:
            got = payload.get("values", {})
            if sorted(got) != sorted(values):
                return "paths differ"
            for p, v in values.items():
                if got[p]["label"] != labels[p] or not _close(got[p]["value"], v):
                    return f"value at {p} differs"
            if not _close(payload.get("root"), values["root"]):
                return "root differs"
            return None if payload.get("verdict") == verdict else "verdict differs"

        return compare

    # Process transcript: the same formulas, replayed round by round.
    def root_triple(counts, verdict: str):
        return _update(_triple(*subtree("G0", counts)), verdict, weight)

    def met(t) -> bool:
        return t[0] >= thresholds[0] and t[1] <= thresholds[1] and t[2] <= thresholds[2]

    def judged(p: float, threshold: Optional[float]) -> str:
        if threshold is None:
            return "no_assessment"
        return "acceptable_risk" if p <= threshold else "unacceptable_risk"

    counts_after = {**own, "G0": boost}
    plan = [  # (description, policy threshold, root probability, defeaters)
        ("set_policy unassessed", None, p_before, own),
        (f"set_policy probability <= {low:g}", low, p_before, own),
        (f"add_counter {guard.label!r} at {target.label!r}", low, p_after, own),
        (f"set_defeaters G0 {boost[0]}/{boost[1]}", low, p_after, counts_after),
        (f"set_policy probability <= {high:g}", high, p_after, counts_after),
    ]
    initial = root_triple(own, "no_assessment")
    rounds = []
    status = "accepted" if met(initial) else "exhausted"
    for no, (desc, threshold, p, counts) in enumerate(plan, start=1):
        if status == "accepted":
            break
        v = judged(p, threshold)
        t = root_triple(counts, v)
        rounds.append((no, desc, v, t))
        status = "accepted" if met(t) else status
    final = rounds[-1][3] if rounds else initial

    def transcript(payload: dict) -> Optional[str]:
        if payload.get("status") != status or len(payload.get("rounds", ())) != len(rounds):
            return "status or round count differs"
        for g, (no, desc, v, t) in zip(payload["rounds"], rounds):
            if (g["round"], g["action"], g["verdict"]) != (no, desc, v) or not _triple_ok(g["triple"], t):
                return f"round {no} differs"
        if not (_triple_ok(payload["initial"], initial) and _triple_ok(payload["final"], final)):
            return "initial or final triple differs"
        return None

    out_path = os.path.join(workdir, f"{stem}.derived.ssm")
    dot_path = os.path.join(workdir, f"{stem}.derived.dot")

    def gsn_dot(code: int, out: str, err: str) -> Optional[str]:
        # one declaration per node plus the ADT anchor; one edge per parent link plus the link
        if code != 0 or not out.startswith(f'digraph "{model}" {{'):
            return f"exit {code} or header differs"
        if out.count(" [shape=") != len(nodes) + 1 or out.count(" -> ") != len(nodes):
            return "dot node or edge count differs"
        return None

    table_name, table_rows = tables[0]
    adt = ["adt", "eval", path, "--adt", adt_name, "--attribute"]
    return [
        Request("validate", MACHINE + ["validate", path],
                _json_check(0, _equal({"command": "validate", "ok": True, "diagnostics": []}))),
        Request("gsn confidence", MACHINE + ["gsn", "confidence", path, "--model", model],
                _json_check(0, confidence("no_assessment"))),
        Request("gsn confidence --verdicts",
                MACHINE + ["gsn", "confidence", path, "--model", model, "--verdicts", vpath],
                _json_check(0, confidence(verdict_choice))),
        Request("derive adt", MACHINE + ["derive", "adt", path, "--gsn", model,
                                         "--out", out_path, "--dot", dot_path],
                _derive_check(out_path, dot_path, RefAdt("attack", f"Attack {model}", "OR", branches))),
        Request("adt eval cost", MACHINE + adt + ["cost"],
                _json_check(0, evaluation("cost", None))),
        Request("adt eval probability --policy", MACHINE + adt + ["probability", "--policy", ppath],
                _json_check(0, evaluation("probability", policy_verdict))),
        Request("adt eval time", MACHINE + adt + ["time"],
                _json_check(0, evaluation("time", None))),
        Request("process run", MACHINE + ["process", "run", path, "--scenario", scen_name],
                _json_check(0 if status == "accepted" else 1, transcript)),
        Request("export dot", MACHINE + ["export", "dot", path, "--model", model], gsn_dot),
        Request("fmea rpn", MACHINE + ["fmea", "rpn", path, "--table", table_name],
                _fmea_check(table_name, table_rows)),
    ]


# --- fault trees ---------------------------------------------------------------


def _fta_file(workdir: str, stem: str, name: str, top: str,
              gates: list[tuple[str, str, list[str]]], events: list[str]) -> str:
    lines = [f'fta "{name}" {{', f"  top {top}"]
    lines += [f"  gate {g} {op} [{', '.join(kids)}]" for g, op, kids in gates]
    lines += [f"  event {e}" for e in events] + ["}"]
    return _write(workdir, f"{stem}.ssm", "\n".join(lines) + "\n")


def _canonical(family) -> list[list[str]]:
    return [list(t) for t in sorted(tuple(sorted(s)) for s in family)]


def _cutset_requests(path: str, name: str, minimal, raw_check, raw_reference) -> list[Request]:
    """``minimal``: deferred minimal payload; the raw check and its reference."""
    argv = MACHINE + ["fta", "cutsets", path, "--tree", name]
    return [
        Request("fta cutsets --minimal", argv + ["--minimal"],
                _json_check(0, _equal_deferred(minimal)), reference=minimal),
        Request("fta cutsets raw", argv, _json_check(0, raw_check), reference=raw_reference),
    ]


def _family_payload(name: str, minimal: bool, family: Callable[[], set]) -> Callable[[], dict]:
    """Deferred machine payload of `fta cutsets` for the family ``family()``."""
    return functools.cache(lambda: {"command": "fta cutsets", "tree": name, "minimal": minimal,
                                    "cut_sets": _canonical(family())})


def and_of_ors(rng: random.Random, workdir: str, k: int, stem: str) -> list[Request]:
    """AND of k two-event ORs: raw and minimal family are all 2**k picks."""
    tag = _tag(rng)
    pairs = [(f"{tag}a{i}", f"{tag}b{i}") for i in range(k)]
    ors = [(f"O{i}", "OR", list(rng.sample(p, 2))) for i, p in enumerate(pairs)]
    gates = [("T", "AND", [g for g, _, _ in ors])] + ors
    name = f"and-of-{k} {tag}"
    path = _fta_file(workdir, stem, name, "T", gates, [e for p in pairs for e in p])
    family = lambda: {frozenset(pick) for pick in product(*pairs)}
    raw = _family_payload(name, False, family)
    return _cutset_requests(path, name, _family_payload(name, True, family),
                            _equal_deferred(raw), raw)


def shared_event(rng: random.Random, workdir: str, m: int, stem: str) -> list[Request]:
    """AND of m ORs over {S, a_i, b_i}: 3**m raw sets, 2**m + 1 minimal ones."""
    tag = _tag(rng)
    shared = f"{tag}S"
    triples = [(shared, f"{tag}a{i}", f"{tag}b{i}") for i in range(m)]
    ors = [(f"O{i}", "OR", list(rng.sample(t, 3))) for i, t in enumerate(triples)]
    gates = [("T", "AND", [g for g, _, _ in ors])] + ors
    name = f"shared-{m} {tag}"
    events = [shared] + [e for t in triples for e in t[1:]]
    path = _fta_file(workdir, stem, name, "T", gates, events)
    raw = _family_payload(name, False, lambda: {frozenset(pick) for pick in product(*triples)})
    minimal = lambda: {frozenset([shared])} | {frozenset(p) for p in product(*(t[1:] for t in triples))}
    return _cutset_requests(path, name, _family_payload(name, True, minimal),
                            _equal_deferred(raw), raw)


def random_tree(rng: random.Random, workdir: str, stem: str) -> list[Request]:
    """A tests/generators random tree, checked against the brute-force oracle."""
    from generators import random_fault_tree
    from oracles import brute_force_minimal_cut_sets, fault_tree_triggers

    tree = random_fault_tree(rng, max_events=8, max_gates=8)
    name = f"random {_tag(rng)}"
    gates = [(g, op.value, list(kids)) for g, op, kids in tree.gates]
    path = _fta_file(workdir, stem, name, tree.top, gates, sorted(tree.basic_events))
    minimal = functools.cache(lambda: brute_force_minimal_cut_sets(tree))

    def raw_check(payload: dict) -> Optional[str]:
        # Raw sets are implementation-shaped; check what the semantics fixes:
        # each set triggers the top event and the family's minima are the MCS.
        family = [frozenset(s) for s in payload.get("cut_sets", ())]
        if payload.get("minimal") is not False or len(set(family)) != len(family):
            return "raw family malformed"
        if not all(fault_tree_triggers(tree, s) for s in family):
            return "a raw set does not trigger the top event"
        minima = {s for s in family if not any(o < s for o in family)}
        return None if minima == minimal() else "raw family minima differ from oracle"

    return _cutset_requests(path, name, _family_payload(name, True, minimal), raw_check, minimal)


# --- requirement conflicts ---------------------------------------------------


def _clause_str(body: list[tuple[str, bool]], head: tuple[str, bool]) -> str:
    lit = lambda a: a[0] if a[1] else f"!{a[0]}"
    return (" & ".join(map(lit, body)) + " => " if body else "=> ") + lit(head)


def _requirements_file(workdir: str, stem: str, reqs) -> str:
    """reqs: list of (id, kind, inputs, clauses as (body, head) atom tuples)."""
    lines = []
    for rid, kind, inputs, clauses in reqs:
        lines.append(f"requirement {rid} kind = {kind} trace = Door {{")
        lines.append(f"  inputs = [{', '.join(sorted(inputs))}]")
        lines += [f"  clause {_clause_str(b, h)}" for b, h in clauses]
        lines.append("}")
    return _write(workdir, f"{stem}.ssm", "\n".join(lines) + "\n")


def _conflicts_reference(reqs) -> tuple[int, dict]:
    """Expected exit code and machine payload, from the brute-force oracles.

    Witness order and firing order are left to the implementation; the
    check compares both as sorted lists.
    """
    from oracles import brute_force_derivable

    heads = [{h[0] for _, h in clauses} for _, _, _, clauses in reqs]
    candidates = [[reqs[0][0], reqs[1][0]]] if heads[0] & heads[1] else []
    contradictions = []
    if candidates:
        all_heads = heads[0] | heads[1]
        inputs = sorted({s for r in reqs for s in r[2]} - all_heads)
        rules = [(rid, b, h) for rid, _, _, clauses in reqs for b, h in clauses]
        oracle_rules = [(list(b), h) for _, b, h in rules]
        for values in product([False, True], repeat=len(inputs)):
            assignment = dict(zip(inputs, values))
            derived = brute_force_derivable(oracle_rules, set(assignment.items()))
            both = sorted(s for s, v in derived if v and (s, False) in derived)
            if not both:
                continue
            fired = [(rid, b, h) for rid, b, h in rules if all(a in derived for a in b)]
            contradictions.append({
                "pair": candidates[0],
                "assignment": dict(sorted(assignment.items())),
                "conflicted_signal": both[0],
                "involved_requirements": sorted({rid for rid, _, _ in fired}),
                "fired_clauses": sorted(_clause_str(b, h) for _, b, h in fired),
            })
    payload = {"command": "conflicts", "candidates": candidates,
               "contradictions": _sorted_contradictions(contradictions)}
    return (1 if contradictions else 0), payload


def _sorted_contradictions(items: list[dict]) -> list[dict]:
    items = [{**c, "fired_clauses": sorted(c["fired_clauses"])} for c in items]
    return sorted(items, key=lambda c: sorted(c["assignment"].items()))


def _conflicts_request(kind: str, path: str, reqs) -> Request:
    reference = functools.cache(lambda: _conflicts_reference(reqs))

    def compare(payload: dict) -> Optional[str]:
        try:
            got = {**payload, "contradictions": _sorted_contradictions(payload["contradictions"])}
        except (KeyError, TypeError):
            return "contradictions malformed"
        return None if got == reference()[1] else "answer differs from reference"

    def check(code: int, out: str, err: str) -> Optional[str]:
        return _json_check(reference()[0], compare)(code, out, err)

    return Request(kind, MACHINE + ["conflicts", path], check, reference=reference)


def requirement_pair(rng: random.Random, workdir: str, n: int, contradictory: bool,
                     stem: str) -> Request:
    """Two requirements over n inputs that both drive one signal X.

    The safety side derives X from input 0 through a chain of derived
    signals; the security side derives !X from !input0 (consistent: never
    both) or from input 1 (contradictory: exactly the 2**(n-2) assignments
    with inputs 0 and 1 true are witnesses).  Further inputs feed
    side clauses, so every assignment makes the chaining do some work.
    """
    tag = _tag(rng)
    ins = [f"{tag}In{i}" for i in range(n)]
    x = f"{tag}Lock"
    depth = 4
    a = [f"{tag}A{i}" for i in range(depth)]
    b = [f"{tag}B{i}" for i in range(depth)]
    safety = [([(ins[0], True)], (a[0], True))]
    safety += [([(a[i], True)], (a[i + 1], True)) for i in range(depth - 1)]
    safety += [([(a[-1], True)], (x, True))]
    trigger = (ins[1], True) if contradictory else (ins[0], False)
    security = [([trigger], (b[0], True))]
    security += [([(b[i], True)], (b[i + 1], True)) for i in range(depth - 1)]
    security += [([(b[-1], True)], (x, False))]
    side = [([(ins[j], True), (ins[(j + 1) % n], False)], (f"{tag}N{j}", True)) for j in range(2, n)]
    # Listed last-to-first, so chaining needs one pass per link.
    safety = safety[::-1] + side[: len(side) // 2]
    security = security[::-1] + side[len(side) // 2:]
    reqs = [(f"Safe{tag}", "safety", ins, safety), (f"Sec{tag}", "security_design", ins, security)]
    path = _requirements_file(workdir, stem, reqs)
    kind = "conflicts contradictory" if contradictory else "conflicts consistent"
    return _conflicts_request(kind, path, reqs)


def random_requirements(rng: random.Random, workdir: str, stem: str) -> Request:
    """tests/generators rule set (cyclic rules allowed), split into R1 and R2."""
    from generators import random_rule_set, requirements_from_rules

    clauses, inputs = random_rule_set(rng, max_signals=8)
    reqs = []
    for req in requirements_from_rules(clauses, inputs):
        atoms = [([(l.signal, l.positive) for l in c.body], (c.head.signal, c.head.positive))
                 for c in req.clauses]
        reqs.append((req.id, req.kind.value, sorted(req.inputs), atoms))
    path = _requirements_file(workdir, stem, reqs)
    return _conflicts_request("conflicts random", path, reqs)


# --- bundled example files, hand-written answers; malformed inputs -----------


def _airbag_goals(g1_reported: tuple, verdict: str) -> dict:
    """Airbag: G2 (6/8) and G3 (8/10) under G1; G1 aggregates 14/18."""
    return {
        "G1": {"outruled": 14, "total": 18, "aggregate": (0.7, 0.2, 0.1),
               "reported": g1_reported, "verdict": verdict},
        "G2": {"outruled": 6, "total": 8, "aggregate": (0.6, 0.2, 0.2),
               "reported": (0.6, 0.2, 0.2), "verdict": None},
        "G3": {"outruled": 8, "total": 10, "aggregate": (8 / 12, 2 / 12, 2 / 12),
               "reported": (8 / 12, 2 / 12, 2 / 12), "verdict": None},
    }


def _goals_check(goals: dict):
    def compare(payload: dict) -> Optional[str]:
        got = payload.get("goals", {})
        if sorted(got) != sorted(goals) or payload.get("warnings") != []:
            return "goal set or warnings differ"
        for g, want in goals.items():
            e = got[g]
            if (e["outruled"], e["total"], e["verdict"]) != (want["outruled"], want["total"], want["verdict"]):
                return f"{g} differs"
            if not (_triple_ok(e["aggregate"], want["aggregate"]) and _triple_ok(e["reported"], want["reported"])):
                return f"{g} triple differs"
        return None

    return compare


AIRBAG_VALUES = {  # probability domain: OR = max, AND = product
    "root": ("Attack Airbag", 0.3), "root.0": ("Trigger Airbag", 0.3),
    "root.0.0": ("tamper voter Airbag", 0.3),
    "root.0.1": ("spoof Gyroscope, CrashDetector", 0.09),
    "root.0.1.0": ("spoof Gyroscope", 0.3), "root.0.1.1": ("spoof CrashDetector", 0.3),
    "root.1": ("Stop Airbag", 0.05),
}

AIRBAG_DERIVED = RefAdt("attack", "Attack Airbag", "OR", [
    RefAdt("attack", "Stop Airbag", "OR", [RefAdt("attack", "deny_service voter Airbag")],
           impact="low"),
    RefAdt("attack", "Trigger Airbag", "OR", [
        RefAdt("attack", "defeat voter Airbag", "OR", [
            RefAdt("attack", "tamper voter Airbag"),
            RefAdt("attack", "spoof Gyroscope, CrashDetector", "AND", [
                RefAdt("attack", "spoof Gyroscope"), RefAdt("attack", "spoof CrashDetector")]),
        ]),
    ], impact="high"),
])


def bundled_airbag(workdir: str, data: str) -> list[Request]:
    """README commands on the bundled airbag case (GSN, ADT and scenario)."""
    airbag = os.path.join(data, "airbag.ssm")
    verdicts = _write(workdir, "airbag.verdicts", "Airbag Attack = unacceptable_risk\n")
    policy = _write(workdir, "airbag.policy", "attribute = probability\nop = <=\nthreshold = 0.1\n")
    out_path = os.path.join(workdir, "airbag.derived.ssm")
    dot_path = os.path.join(workdir, "airbag.derived.dot")
    third = 1 / 3

    def values(verdict: Optional[str]):
        def compare(payload: dict) -> Optional[str]:
            got = {p: (v["label"], v["value"]) for p, v in payload.get("values", {}).items()}
            if sorted(got) != sorted(AIRBAG_VALUES) or any(
                got[p][0] != lab or not _close(got[p][1], v) for p, (lab, v) in AIRBAG_VALUES.items()
            ):
                return "values differ"
            return None if (_close(payload.get("root"), 0.3) and payload.get("verdict") == verdict) \
                else "root or verdict differs"

        return compare

    def dot_counts(nodes: int, edges: int):
        def check(code: int, out: str, err: str) -> Optional[str]:
            ok = code == 0 and out.count(" [shape=") == nodes and out.count(" -> ") == edges
            return None if ok else "dot differs"

        return check

    # Airbag hardening: round 2 judges the 0.3 root unacceptable against 0.1,
    # round 3's 0.9-effective guard drops it to max(0.03, 0.09, 0.05) = 0.09.
    hardening = [
        (1, "set_policy unassessed", "no_assessment", (0.7 * third, 0.2 * third, 0.7)),
        (2, "set_policy probability <= 0.1", "unacceptable_risk", (0.7 * third, 0.2 + 0.7 * 2 * third + 0.1 * 2 * third, 0.1 * third)),
        (3, "add_counter 'plausibility checks' at 'tamper voter Airbag'", "acceptable_risk", (0.9, 0.2 * third, 0.1 * third)),
    ]

    def process(payload: dict) -> Optional[str]:
        got = payload.get("rounds", [])
        if payload.get("status") != "accepted" or len(got) != 3:
            return "status or rounds differ"
        for g, (no, desc, v, t) in zip(got, hardening):
            if (g["round"], g["action"], g["verdict"]) != (no, desc, v) or not _triple_ok(g["triple"], t):
                return f"round {no} differs"
        ok = _triple_ok(payload["initial"], hardening[0][3]) and _triple_ok(payload["final"], hardening[2][3])
        return None if ok else "initial or final differs"

    adt = ["adt", "eval", airbag, "--adt", "Airbag Attack", "--attribute", "probability"]
    requests = [
        ("validate", ["validate", airbag],
         _json_check(0, _equal({"command": "validate", "ok": True, "diagnostics": []}))),
        ("gsn confidence", ["gsn", "confidence", airbag, "--model", "Airbag"],
         _json_check(0, _goals_check(_airbag_goals((0.7 * third, 0.2 * third, 0.7), "no_assessment")))),
        ("gsn confidence --verdicts",
         ["gsn", "confidence", airbag, "--model", "Airbag", "--verdicts", verdicts],
         _json_check(0, _goals_check(_airbag_goals(
             (0.7 * third, 0.2 + 0.7 * 2 * third + 0.1 * 2 * third, 0.1 * third), "unacceptable_risk")))),
        ("derive adt", ["derive", "adt", airbag, "--gsn", "Airbag", "--out", out_path, "--dot", dot_path],
         _derive_check(out_path, dot_path, AIRBAG_DERIVED)),
        ("adt eval probability", adt, _json_check(0, values(None))),
        ("adt eval probability --policy", adt + ["--policy", policy],
         _json_check(0, values("unacceptable_risk"))),
        ("process run", ["process", "run", airbag, "--scenario", "Airbag Hardening"],
         _json_check(0, process)),
        ("export dot", ["export", "dot", airbag, "--model", "Airbag"], dot_counts(7, 6)),
        ("export dot", ["export", "dot", airbag, "--model", "Airbag Attack"], dot_counts(7, 6)),
    ]
    return [Request(kind, MACHINE + argv, check) for kind, argv, check in requests]


def bundled_servertheft(data: str) -> list[Request]:
    """The README's ServerTheft cut sets: {A}, {B,C}, {E,F} (raw adds {A,D})."""
    theft = os.path.join(data, "servertheft.ssm")
    cutsets = lambda minimal, sets: _equal(
        {"command": "fta cutsets", "tree": "ServerTheft", "minimal": minimal, "cut_sets": sets})
    argv = MACHINE + ["fta", "cutsets", theft, "--tree", "ServerTheft"]
    return [
        Request("validate", MACHINE + ["validate", theft],
                _json_check(0, _equal({"command": "validate", "ok": True, "diagnostics": []}))),
        Request("fta cutsets --minimal", argv + ["--minimal"],
                _json_check(0, cutsets(True, [["A"], ["B", "C"], ["E", "F"]]))),
        Request("fta cutsets raw", argv,
                _json_check(0, cutsets(False, [["A"], ["A", "D"], ["B", "C"], ["E", "F"]]))),
    ]


def bundled_building(data: str) -> list[Request]:
    """The building's door conflict, and its revision without one."""
    building, revised = os.path.join(data, "building.ssm"), os.path.join(data, "building_revised.ssm")
    pair = ["EmergencyDoor", "SecurityLock"]
    return [
        Request("conflicts bundled", MACHINE + ["conflicts", building], _json_check(1, _equal({
            "command": "conflicts", "candidates": [pair],
            "contradictions": [{
                "pair": pair, "assignment": {"Auth": False, "SigFire": True},
                "conflicted_signal": "DoorLock", "involved_requirements": pair,
                "fired_clauses": ["SigFire => !DoorLock", "!Auth => DoorLock"]}]}))),
        Request("conflicts bundled", MACHINE + ["conflicts", revised], _json_check(0, _equal(
            {"command": "conflicts", "candidates": [pair], "contradictions": []}))),
    ]


def malformed(rng: random.Random, workdir: str, airbag: str) -> list[Request]:
    """Inputs that must end in exit 2 with a one-line message, no traceback.

    A cyclic fault tree, a rootless goal loop, a 1,200-deep ADT (evaluated
    and validated), and missing ``--verdicts`` and ``--policy`` files.
    """
    tag = _tag(rng)
    cyclic = _write(workdir, "bad.cyclic.ssm",
                    f'fta "{tag} cyclic" {{\n  top T\n  gate T OR [G1, {tag}A]\n'
                    f'  gate G1 AND [T, {tag}B]\n  event {tag}A\n  event {tag}B\n}}\n')
    loop = _write(workdir, "bad.loop.ssm",
                  f'gsn "{tag} loop" {{\n  goal G1 "a" under G2 {{\n    defeaters outruled = 1 '
                  f'total = 2\n  }}\n  goal G2 "b" under G1\n}}\n')
    depth = 1200
    deep = (
        [f'adt "{tag} deep" {{']
        + [f'attack OR "{tag} level {i}" {{' for i in range(depth)]
        + [f'attack "{tag} bottom" {{ attr cost = 1 }}'] + ["}"] * (depth + 1)
    )
    deep_path = _write(workdir, "bad.deep.ssm", "\n".join(deep) + "\n")
    missing = os.path.join(workdir, "bad.missing")
    bad = [
        ("malformed cyclic fta", ["fta", "cutsets", cyclic, "--tree", f"{tag} cyclic", "--minimal"]),
        ("malformed gsn loop", ["gsn", "confidence", loop, "--model", f"{tag} loop"]),
        ("malformed deep adt eval", ["adt", "eval", deep_path, "--adt", f"{tag} deep", "--attribute", "cost"]),
        ("malformed deep adt validate", ["validate", deep_path]),
        ("malformed missing verdicts",
         ["gsn", "confidence", airbag, "--model", "Airbag", "--verdicts", missing]),
        ("malformed missing policy",
         ["adt", "eval", airbag, "--adt", "Airbag Attack", "--attribute", "probability",
          "--policy", missing]),
    ]
    return [Request(kind, MACHINE + argv, _clean_usage_error, malformed=True) for kind, argv in bad]


# --- ROADMAP probe inputs -------------------------------------------------------


def plain_chain(rng: random.Random, workdir: str, n: int) -> Request:
    """A chain of n goals with defeaters and nothing else; `gsn confidence`."""
    own = []
    lines = ['gsn "chain" {']
    for i in range(n):
        t = rng.randint(1, 9)
        own.append((rng.randint(0, t), t))
        under = f" under G{i - 1}" if i else ""
        lines += [f'  goal G{i} "goal {i}"{under} {{',
                  f"    defeaters outruled = {own[i][0]} total = {t}", "  }"]
    path = _write(workdir, "chain.ssm", "\n".join(lines + ["}"]) + "\n")
    goals, r, t = {}, 0, 0
    for i in reversed(range(n)):
        r, t = r + own[i][0], t + own[i][1]
        agg = _triple(r, t)
        goals[f"G{i}"] = {"outruled": r, "total": t, "aggregate": agg, "reported": agg,
                          "verdict": None}
    return Request("gsn confidence", MACHINE + ["gsn", "confidence", path, "--model", "chain"],
                   _json_check(0, _goals_check(goals)))


def airbag_copies(workdir: str, data: str, copies: int) -> Request:
    """The bundled airbag model, renamed and repeated; `validate`."""
    with open(os.path.join(data, "airbag.ssm"), encoding="utf-8") as handle:
        text = handle.read()
    path = _write(workdir, "airbags.ssm",
                  "".join(text.replace('"Airbag', f'"Copy{i} Airbag') for i in range(copies)))
    return Request("validate", MACHINE + ["validate", path], _json_check(0, _equal(
        {"command": "validate", "ok": True, "diagnostics": []})))


def door_pair(rng: random.Random, workdir: str, n: int) -> Request:
    """building.ssm's door conflict over n inputs: 2**(n-2) witnesses."""
    tag = _tag(rng)
    fire, auth, lock = f"{tag}Fire", f"{tag}Auth", f"{tag}Lock"
    spare = [f"{tag}In{i}" for i in range(n - 2)]
    reqs = [
        (f"Door{tag}", "safety", [fire] + spare[: len(spare) // 2],
         [([(fire, True)], (lock, False))]),
        (f"Lock{tag}", "security_design", [auth] + spare[len(spare) // 2:],
         [([(auth, False)], (lock, True))]),
    ]
    return _conflicts_request("conflicts door", _requirements_file(workdir, "door", reqs), reqs)
