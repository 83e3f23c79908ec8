"""Risk priority number computation and ranking for FMEA tables."""

from __future__ import annotations

from .model import FmeaRow, FmeaTable


def compute_rpn(severity: int, occurrence: int, detection: int) -> int:
    """Product of the three 1..10 factors."""
    for name, value in (
        ("severity", severity),
        ("occurrence", occurrence),
        ("detection", detection),
    ):
        if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= 10:
            raise ValueError(f"{name} must be an integer in 1..10, got {value!r}")
    return severity * occurrence * detection


def ranked_rows(table: FmeaTable) -> list[FmeaRow]:
    """Rows by descending RPN; ties by severity descending, then row order.

    Occurrence never enters the tie-break: it reflects fault likelihood, not
    attack likelihood, so it carries no weight for security prioritisation.
    The sort is stable, so equal keys keep their row order.
    """
    return sorted(table.rows, key=lambda row: (-row.rpn, -row.severity))


def rank_failures(table: FmeaTable) -> list[str]:
    """Row ids in :func:`ranked_rows` order."""
    return [row.id for row in ranked_rows(table)]
