"""Risk priority ranking for FMEA tables; a row's RPN is :attr:`FmeaRow.rpn`."""

from __future__ import annotations

from .model import FmeaRow, FmeaTable


def ranked_rows(table: FmeaTable) -> list[FmeaRow]:
    """Rows by descending RPN; ties by severity descending, then row order.

    Occurrence never enters the tie-break: it reflects fault likelihood, not
    attack likelihood, so it carries no weight for security prioritisation.
    The sort is stable, so equal keys keep their row order.
    """
    return sorted(table.rows, key=lambda row: (-row.rpn, -row.severity))

