"""Lexer, parser, and canonical printer for the .ssm model format."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safsec.adteval import VerdictPolicy
from safsec.model import (
    Actor,
    AddCounterAction,
    AdtNode,
    AttackDefenseTree,
    Clause,
    Document,
    FmeaRow,
    GsnModel,
    GsnNode,
    Impact,
    Literal,
    NodeKind,
    Refinement,
    Requirement,
    Scenario,
    SecurityLink,
)
from safsec.modelfile import parse, print_document
from safsec.modelfile.parser import FIELDS, NODE_ATTRIBUTES, REQUIRED
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


# Templates for one record's fields: a GSN node attribute, a security link,
# an FMEA row, a requirement header, a scenario header and a scenario action.
GSN_ATTR = 'gsn "g" {{\n  goal G1 "a" {{\n    {}\n  }}\n}}\n'
LINK = 'gsn "g" {{\n  goal G1 "a"\n  security_link under G1 {}\n}}\n'
FMEA_ROW = 'fmea "f" {{\n  row R1 {}\n}}\n'
ROW = 'function = "f" mode = erroneous severity = 3 occurrence = 2 detection = 4'
REQUIREMENT = 'requirement R {}\n}}\n'
SCENARIO_HEAD = ('scenario "s" {\n  gsn = "g"\n  adt = "a"\n'
                 '  thresholds min_belief = 0.8 max_disbelief = 0.2 max_uncertainty = 0.1\n'
                 '  max_rounds = 3\n}\n')
ACTION = SCENARIO_HEAD.replace("{", "{{").replace("}\n", "  {}\n}}\n")
POLICY = 'set_policy attribute = cost op = ">=" threshold = 5'


class TestFieldDiagnostics:
    """Each way a record's ``key = value`` fields can fail, with its message,
    line and column, and where parsing goes on after it: a value token that
    is a block keyword starts a new block."""

    @pytest.mark.parametrize("text, diagnostics", [
        # A missing, misspelled or unexpected field.
        (GSN_ATTR.format("defeaters outruled = 1"), [("expected 'total', got '}'", 4, 3)]),
        (FMEA_ROW.format(ROW.replace("occurrence", "occurence")),
         [("expected 'occurrence', got 'occurence'", 2, 55)]),
        (FMEA_ROW.format(ROW.replace(" detection = 4", "")),
         [("expected 'detection', got '}'", 3, 1)]),
        (LINK.format("weight = 1"), [("expected 'adt', got 'weight'", 3, 26)]),
        (REQUIREMENT.format("kind = safety {"), [("expected 'trace', got '{'", 1, 29)]),
        (SCENARIO_HEAD.replace(" max_disbelief = 0.2", ""),
         [("expected 'max_disbelief', got 'max_uncertainty'", 4, 31)]),
        (ACTION.format("set_defeaters goal = G1 total = 2"),
         [("expected 'outruled', got 'total'", 6, 27)]),
        (GSN_ATTR.format("colour = red"), [("unknown node attribute 'colour'", 3, 5)]),
        (GSN_ATTR.format("3"), [("expected 'IDENT', got '3'", 3, 5)]),
        # A misspelled optional field ends its record.
        (FMEA_ROW.format(ROW + ' efect = "x"'), [("expected '}', got 'efect'", 2, 84)]),
        (ACTION.format(POLICY + " prob_ro = max"),
         [("expected 'set_policy' or 'add_counter' or 'set_defeaters', got 'prob_ro'", 6, 55)]),
        # A missing ``=``; a nested record takes none.
        (GSN_ATTR.format("defeaters outruled 1 total = 2"), [("expected '=', got '1'", 3, 24)]),
        (GSN_ATTR.format('fta_ref "t"'), [("expected '=', got 't'", 3, 13)]),
        (LINK.format('adt "a" weight = 1'), [("expected '=', got 'a'", 3, 30)]),
        (FMEA_ROW.format(ROW.replace("severity = 3", "severity 3")),
         [("expected '=', got '3'", 2, 51)]),
        (FMEA_ROW.format(ROW + ' cause "x"'), [("expected '=', got 'x'", 2, 90)]),
        (REQUIREMENT.format("kind = safety trace = T {\n  inputs [A]"),
         [("expected '=', got '['", 2, 10)]),
        (SCENARIO_HEAD.replace('gsn = "g"', 'gsn "g"'),
         [("expected '=', got 'g'", 2, 7), ("expected 'STRING', got '='", 3, 7)]),
        (ACTION.format('add_counter at "x" defense "d"'), [("expected '=', got 'x'", 6, 18)]),
        (SCENARIO_HEAD.replace("thresholds", "thresholds ="),
         [("expected 'min_belief', got '='", 4, 14)]),
        # A wrong token for each value kind.
        (GSN_ATTR.format("defeaters outruled = x total = 2"),
         [("expected 'INT', got 'x'", 3, 26)]),
        (GSN_ATTR.format("defeaters outruled = 1.5 total = 2"),
         [("expected 'INT', got '1.5'", 3, 26)]),
        (GSN_ATTR.format("defeaters outruled = gsn total = 2"),
         [("expected 'INT', got 'gsn'", 3, 26), ("expected 'STRING', got 'total'", 3, 30)]),
        (GSN_ATTR.format("defeaters outruled = 1 total = " + "9" * 5000),
         [("integer too long (5000 digits)", 3, 36)]),
        (GSN_ATTR.format("voter signals = [A] threshold = one trace = T"),
         [("expected 'INT', got 'one'", 3, 37)]),
        (SCENARIO_HEAD.replace("max_rounds = 3", "max_rounds = 2.5"),
         [("expected 'INT', got '2.5'", 5, 16)]),
        (ACTION.format("set_defeaters goal = G1 outruled = 1 total = 2.0"),
         [("expected 'INT', got '2.0'", 6, 48)]),
        (LINK.format('adt = "a" weight = heavy'), [("expected number, got 'heavy'", 3, 45)]),
        (ACTION.format(POLICY.replace("= 5", "= x")), [("expected number, got 'x'", 6, 53)]),
        (GSN_ATTR.format("fmea_ref = t"), [("expected 'STRING', got 't'", 3, 16)]),
        (FMEA_ROW.format(ROW.replace('"f"', "f")), [("expected 'STRING', got 'f'", 2, 21)]),
        (FMEA_ROW.format(ROW + " effect = x"), [("expected 'STRING', got 'x'", 2, 93)]),
        (SCENARIO_HEAD.replace('adt = "a"', "adt = a"), [("expected 'STRING', got 'a'", 3, 9)]),
        (GSN_ATTR.format('hazard impact = high mechanism = stopping trace = "T"'),
         [("expected 'IDENT', got 'T'", 3, 55)]),
        (ACTION.format(POLICY.replace("cost", '"cost"')), [("expected 'IDENT', got 'cost'", 6, 26)]),
        (GSN_ATTR.format('hazard impact = "high" mechanism = stopping trace = T'),
         [("expected 'IDENT', got 'high'", 3, 21)]),
        (GSN_ATTR.format("voter signals = A threshold = 1 trace = T"),
         [("expected '[', got 'A'", 3, 21)]),
        (GSN_ATTR.format("voter signals = [A B] threshold = 1 trace = T"),
         [("expected ']', got 'B'", 3, 24)]),
        (GSN_ATTR.format("voter signals = [] threshold = 1 trace = T"),
         [("expected 'IDENT', got ']'", 3, 22)]),
        (ACTION.format(POLICY.replace('">="', "ge")), [("expected 'STRING', got 'ge'", 6, 36)]),
        (ACTION.format(POLICY.replace(">=", "!=")),
         [("op must be \"<=\" or \">=\", got '!='", 6, 36)]),
        (ACTION.format(POLICY + " prob_or = sum"),
         [("expected 'max' or 'noisy_or', got 'sum'", 6, 65)]),
        # An unknown member of each enum.
        (GSN_ATTR.format("hazard impact = severe mechanism = stopping trace = T"),
         [("unknown impact level 'severe' (one of: low, medium, high)", 3, 21)]),
        (GSN_ATTR.format("hazard impact = high mechanism = smashing trace = T"),
         [("unknown guide word 'smashing' (one of: disclosure, disconnected, delay, deletion, "
           "stopping, denial, trigger, insertion, reset, manipulation)", 3, 38)]),
        (FMEA_ROW.format(ROW.replace("erroneous", "broken")),
         [("unknown failure mode 'broken' (one of: loss_of_function, erroneous, "
           "unintended_action, partial_loss)", 2, 32)]),
        (REQUIREMENT.format("kind = hazardous trace = T {"),
         [("unknown requirement kind 'hazardous' (one of: safety, safety_design, security, "
           "security_design)", 1, 22)]),
    ])
    def test_message_and_position(self, text, diagnostics):
        result = parse(text)
        assert not result.ok
        assert [(d.message, d.line, d.column) for d in result.diagnostics] == diagnostics



class TestBodyDiagnostics:
    """What a block's body reports where no record of it starts, where a
    record's further leading words are missing, or where a reference names
    nothing that the block declares, with line and column."""

    @pytest.mark.parametrize("text, diagnostics", [
        ('fta "t" {\n  top T\n  gate T OR [A]\n  evnt A\n}\n',
         [("expected gate or event, got 'evnt'", 4, 3)]),
        # Its first word picks the record; the ``adt`` of its field starts a new block.
        ('gsn "g" {\n  goal G1 "a"\n  security_link G1 adt = "a" weight = 1\n}\n',
         [("expected 'under', got 'G1'", 3, 17), ("expected 'STRING', got '='", 3, 24)]),
        ('gsn "g" {\n  goal G1 "a"\n  goal G2 "b" under G9\n}\n',
         [("node 'G2' refers to undefined node 'G9'", 3, 21)]),
        ('fta "t" {\n  top T\n  gate T OR [A, B]\n  event A\n}\n',
         [("undefined node 'B'", 3, 17)]),
        ('fta "t" {\n  top X\n  gate T OR [A]\n  event A\n}\n',
         [("top event 'X' not declared", 2, 7)]),
        ('requirement R kind = safety trace = T {\n  clause A => B\n  rule C => D\n}\n',
         [("expected '}', got 'rule'", 3, 3)]),
        ('adt "a" {\n  attack "x"\n  attack "y"\n}\n', [("expected '}', got 'attack'", 3, 3)]),
    ])
    def test_message_and_position(self, text, diagnostics):
        result = parse(text)
        assert not result.ok
        assert [(d.message, d.line, d.column) for d in result.diagnostics] == diagnostics


# The fields that a record holds before its row of FIELDS (its leading id or
# flag) and after it (the body that `GRAMMAR` states).
LEADING = {SecurityLink: ("goal_id",), FmeaRow: ("id",), VerdictPolicy: ("unassessed",),
           Requirement: ("id",), Scenario: ("name",)}
BODY = {AddCounterAction: ("node",), Requirement: ("clauses", "inputs"), Scenario: ("actions",)}


def record_fields(record: type) -> dict:
    """A record's fields, in order, and their defaults (``REQUIRED`` for none)."""
    return {name: record._field_defaults.get(name, REQUIRED) for name in record._fields}


class TestFieldTable:
    @pytest.mark.parametrize("record", list(FIELDS), ids=lambda record: record.__name__)
    def test_the_row_names_each_field_in_order(self, record):
        row = tuple(field for field, *_ in FIELDS[record])
        assert tuple(record_fields(record)) == LEADING.get(record, ()) + row + BODY.get(record, ())

    @pytest.mark.parametrize("record", list(FIELDS), ids=lambda record: record.__name__)
    def test_an_optional_field_defaults_as_its_record_does(self, record):
        defaults = record_fields(record)
        for field, _, *default in FIELDS[record]:
            assert default in ([], [defaults[field]])

    def test_node_attributes_are_the_fields_after_the_parent(self):
        fields = GsnNode._fields
        assert tuple(NODE_ATTRIBUTES) == fields[fields.index("parent") + 1:]


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


# The format has no exponent syntax, so the printer must write every one of
# these in positional notation, down to 5e-324 and up to 1.8e308.
ADT_NUMBERS = st.floats(min_value=0, allow_nan=False, allow_infinity=False)
# Any identifier is a key, keywords too.
ADT_KEYS = st.sampled_from(["cost", "probability", "time", "_skill2", "attack", "counter", "attr"])
ADT_ATTRIBUTES = st.lists(st.tuples(ADT_KEYS, ADT_NUMBERS), max_size=3).map(tuple)


@st.composite
def adt_nodes(draw):
    """A random ADT node: a chain of up to 40 children and counters (counters
    on counters among them) with up to 30 more nodes hung off it, any actor
    and refinement at any node, attributes and impacts."""
    spine = draw(st.integers(0, 40))
    extra = [draw(st.integers(0, 30))]

    def make(depth: int, on_spine: bool) -> AdtNode:
        children: list[AdtNode] = []
        counter = None
        k = draw(st.integers(0, min(3, extra[0]))) if depth < 40 else 0
        extra[0] -= k
        children.extend(make(depth + 1, False) for _ in range(k))
        if on_spine and depth < spine:
            deeper = make(depth + 1, True)
            if draw(st.booleans()):
                counter = deeper
            else:
                children.insert(draw(st.integers(0, len(children))), deeper)
        if counter is None and extra[0] > 0 and depth < 40 and draw(st.booleans()):
            extra[0] -= 1
            counter = make(depth + 1, False)
        return AdtNode(
            actor=draw(st.sampled_from(Actor)),
            label=draw(st.text(max_size=6)),
            refinement=draw(st.sampled_from(Refinement)),
            children=tuple(children),
            counter=counter,
            attributes=draw(ADT_ATTRIBUTES),
            impact=draw(st.none() | st.sampled_from(Impact)),
        )

    return make(0, True)


class TestAdtParsing:
    @settings(max_examples=60, deadline=None)
    @given(adt_nodes())
    def test_random_adts_round_trip(self, root):
        doc = Document((AttackDefenseTree(name="t", root=root),))
        reparsed = parse(print_document(doc))
        assert reparsed.ok, [str(d) for d in reparsed.diagnostics]
        assert reparsed.document == doc

    @pytest.mark.parametrize("via", ["child", "counter"])
    def test_ten_thousand_levels_parse_without_recursion(self, via):
        depth = 10_000
        assert sys.getrecursionlimit() < depth
        heads = [f'attack OR "level {i}" {{\n' for i in range(depth)]
        if via == "counter":
            heads = [heads[0]] + [f"counter {head}" for head in heads[1:]] + ["counter "]
        text = 'adt "deep" {\n' + "".join(heads) + 'attack "bottom"\n' + "}\n" * (depth + 1)
        result = parse(text)
        assert result.ok and not result.diagnostics
        # A loop, not ``==``: comparing, hashing or printing the tree recurses.
        node = result.document.adts["deep"].root
        for i in range(depth):
            assert (node.refinement, node.label) == (Refinement.OR, f"level {i}")
            (node,) = node.children if via == "child" else (node.counter,)
        assert (node.label, node.children, node.counter) == ("bottom", (), None)

    def test_items_in_any_order_and_the_last_impact_wins(self):
        text = ('adt "a" {\n  attack OR "x" {\n    impact = low\n    counter defense "d"\n'
                '    attr cost = 2\n    attack "y"\n    impact = high\n    attr cost = 3\n'
                '  }\n}\n')
        root = parse(text).document.adts["a"].root
        assert root == AdtNode(
            actor=Actor.ATTACK, label="x", refinement=Refinement.OR,
            children=(AdtNode(actor=Actor.ATTACK, label="y"),),
            counter=AdtNode(actor=Actor.DEFENSE, label="d"),
            attributes=(("cost", 2.0), ("cost", 3.0)), impact=Impact.HIGH,
        )

    @pytest.mark.parametrize("body, message, line, column", [
        ('  attack "x" {\n    counter defense "d"\n    counter defense "e"\n  }\n}\n',
         "at most one countermeasure per node", 4, 5),
        ('  attack "x" {\n    cost = 1\n  }\n}\n', "expected adt item, got 'cost'", 3, 5),
        ('  attacker "x"\n}\n', "expected 'attack' or 'defense', got 'attacker'", 2, 3),
        ('  attack "x" {\n    counter attacker "y"\n  }\n}\n',
         "expected 'attack' or 'defense', got 'attacker'", 3, 13),
        ('  attack AND {\n  }\n}\n', "expected 'STRING', got '{'", 2, 14),
        ('  attack "x" {\n    impact = severe\n  }\n}\n',
         "unknown impact level 'severe' (one of: low, medium, high)", 3, 14),
        ('  attack "x" {\n    impact low\n  }\n}\n', "expected '=', got 'low'", 3, 12),
        ('  attack "x" {\n    attr cost = cheap\n  }\n}\n', "expected number, got 'cheap'",
         3, 17),
        ('  attack "x" {\n    attr = 1\n  }\n}\n', "expected 'IDENT', got '='", 3, 10),
        ('  attack "x" {\n    attr cost 1\n  }\n}\n', "expected '=', got '1'", 3, 15),
        ('  attack OR "x" {\n    attack "y" {\n      attr cost = 1\n',
         "expected adt item, got 'EOF'", 5, 1),
    ])
    def test_error_message_and_position(self, body, message, line, column):
        result = parse('adt "a" {\n' + body)
        assert not result.ok
        assert [(d.message, d.line, d.column) for d in result.diagnostics] == [
            (message, line, column)]

    @pytest.mark.parametrize("text, line, column", [
        ('adt "a" {\n  attack "x" {\n    attr probability = NUM\n  }\n}\n', 3, 24),
        ('gsn "g" {\n  goal G1 "x"\n  security_link under G1 adt = "a" weight = NUM\n}\n',
         3, 45),
    ])
    def test_number_too_large_for_a_float(self, text, line, column):
        result = parse(text.replace("NUM", "9" * 400 + ".5"))
        assert not result.ok
        assert [(d.message, d.line, d.column) for d in result.diagnostics] == [
            ("number too large (402 characters)", line, column)]


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
        assert noisy.prob_or == "noisy_or"
        assert plain.prob_or == explicit_max.prob_or == "max"
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
