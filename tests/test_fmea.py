import itertools
import random

import pytest

from safsec.fmea import ranked_rows
from safsec.model import FailureMode, FmeaRow, FmeaTable


def row(row_id, severity, occurrence=1, detection=1):
    return FmeaRow(
        id=row_id,
        function="f",
        failure_mode=FailureMode.ERRONEOUS,
        severity=severity,
        occurrence=occurrence,
        detection=detection,
    )


def ranked_ids(table):
    return [r.id for r in ranked_rows(table)]


class TestRowRpn:
    @pytest.mark.parametrize(
        "factors,expected",
        [((1, 1, 1), 1), ((10, 10, 10), 1000), ((7, 3, 5), 105)],
    )
    def test_known_values(self, factors, expected):
        assert row("r", *factors).rpn == expected

    @pytest.mark.parametrize("bad,message", [
        ((0, 1, 1), "severity must be in 1..10, got 0"),
        ((1, 11, 1), "occurrence must be in 1..10, got 11"),
        ((1, 1, -3), "detection must be in 1..10, got -3"),
    ])
    def test_out_of_range_reported(self, bad, message):
        assert row("r", *bad).problems == [message]

    def test_symmetric_in_factors(self):
        for a, b, c in itertools.permutations((2, 5, 9)):
            assert row("r", a, b, c).rpn == 90


class TestRankedRows:
    def test_descending_by_rpn(self):
        table = FmeaTable(
            name="T",
            rows=(row("r1", 7, 3, 5), row("r2", 10, 5, 8), row("r3", 2, 3, 4)),
        )
        assert [r.rpn for r in ranked_rows(table)] == [400, 105, 24]
        assert ranked_ids(table) == ["r2", "r1", "r3"]

    def test_tie_broken_by_severity(self):
        table = FmeaTable(
            name="T", rows=(row("low_sev", 4, 6, 5), row("high_sev", 8, 3, 5))
        )
        # Both rows have RPN 120; severity 8 wins.
        assert ranked_ids(table)[0] == "high_sev"

    def test_full_tie_keeps_input_order(self):
        table = FmeaTable(name="T", rows=(row("a", 5, 2, 2), row("b", 5, 2, 2)))
        assert ranked_ids(table) == ["a", "b"]

    def test_duplicate_ids_keep_every_row(self):
        low, high = row("r1", 2, 2, 2), row("r1", 9, 9, 9)
        table = FmeaTable(name="T", rows=(low, high, row("r2", 5, 5, 5)))
        assert ranked_rows(table) == [high, table.rows[2], low]
        assert ranked_ids(table) == ["r1", "r2", "r1"]

    def test_empty_table(self):
        assert ranked_ids(FmeaTable(name="T", rows=())) == []

    def test_permutation_and_monotone(self):
        rng = random.Random(13)
        rows = tuple(
            row(f"r{i}", rng.randint(1, 10), rng.randint(1, 10), rng.randint(1, 10))
            for i in range(25)
        )
        table = FmeaTable(name="T", rows=rows)
        order = ranked_ids(table)
        assert sorted(order) == sorted(r.id for r in rows)
        rpns = [r.rpn for r in ranked_rows(table)]
        assert rpns == sorted(rpns, reverse=True)
