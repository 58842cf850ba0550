"""The exact-arithmetic kernel: one row reduction and one rational codec.

Every kernel, rank, span and invariant subspace in the package comes out of
`echelon`; every rational read from JSON or an expression goes through
`rational`, and every rational written to JSON through `rational_json`.
"""
from __future__ import annotations

from fractions import Fraction


def echelon(rows, width: int | None = None):
    """Forward elimination of Fraction rows, taken in the given order.

    Each row is reduced against the pivot rows found so far.  Pivots are
    sought only in the first ``width`` columns (default: all of them); a row
    with a pivot is normalised to lead with 1 and kept, a row without one
    contributes its remaining columns to the null tails.  Augmenting each row
    with a unit vector therefore makes the null tails a kernel basis.

    Returns (pivot_rows, pivots, null_tails); the rank is len(pivots).
    """
    pivot_rows: list[list[Fraction]] = []
    pivots: list[int] = []
    null_tails: list[list[Fraction]] = []
    for row in rows:
        row = list(row)
        w = len(row) if width is None else width
        for prow, pcol in zip(pivot_rows, pivots):
            if row[pcol] != 0:
                factor = row[pcol]
                row = [a - factor * b for a, b in zip(row, prow)]
        lead = next((j for j in range(w) if row[j] != 0), None)
        if lead is None:
            null_tails.append(row[w:])
            continue
        inv = row[lead]
        pivot_rows.append([a / inv for a in row])
        pivots.append(lead)
    return pivot_rows, pivots, null_tails


def rational(value) -> Fraction:
    """Read an int, Fraction, float (through its str) or "p/q" string exactly.

    Booleans and other types raise TypeError; malformed strings and zero
    denominators raise ValueError.
    """
    if isinstance(value, bool):
        raise TypeError("boolean is not a rational value")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        value = str(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rational_json(value):
    """JSON form of a rational: an int when integral, else a "p/q" string.

    Tuples and lists are converted entry by entry, at any depth.
    """
    if isinstance(value, (tuple, list)):
        return [rational_json(v) for v in value]
    value = rational(value)
    if value.denominator == 1:
        return value.numerator
    return f"{value.numerator}/{value.denominator}"
