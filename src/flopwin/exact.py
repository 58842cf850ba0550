"""The exact-arithmetic kernel: one row reduction and one rational codec.

Every kernel, rank, span and invariant subspace in the package comes out of
`echelon`, a sparse fraction-free integer elimination (Bareiss 1968) that
returns exactly the Fraction rows plain Gaussian elimination would; every
rational read from JSON or an expression goes through `rational`, and every
rational written to JSON through `rational_json`.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)
# Largest decimal exponent `rational` reads: CPython's default int-to-str digit
# limit, so rational_json could not print a larger power of ten anyway.
_MAX_EXPONENT = 4300


def echelon(rows, width: int | None = None):
    """Forward elimination of rational rows, taken in the given order.

    Each row is reduced against the pivot rows found so far.  Pivots are
    sought only in the first ``width`` columns (default: all of them); a row
    with a pivot is normalised to lead with 1 and kept, a row without one
    contributes its remaining columns to the null tails.  Augmenting each row
    with a unit vector therefore makes the null tails a kernel basis.

    The arithmetic is sparse fraction-free integer elimination: each row has
    its denominators cleared into a {column: int} dict and is reduced against
    primitive integer pivot rows by row <- a*row - b*prow with a/b = lead/entry
    in lowest terms, then divided by the gcd of its entries.  The factor
    scale_num / scale_den by which the integer row differs from the rational
    one is tracked, so the returned Fraction rows are those of plain Fraction
    elimination in the same order, value for value.

    Returns (pivot_rows, pivots, null_tails); the rank is len(pivots).
    """
    pivot_rows: list[list[Fraction]] = []
    pivots: list[int] = []
    null_tails: list[list[Fraction]] = []
    int_rows: list[dict[int, int]] = []  # primitive integer pivot rows
    for row in rows:
        n = len(row)
        w = n if width is None else width
        den = 1
        for x in row:
            if x and x.denominator != 1:
                den = lcm(den, x.denominator)
        vec = {j: x.numerator * (den // x.denominator) for j, x in enumerate(row) if x}
        scale_num, scale_den = den, 1  # vec == scale_num / scale_den * Fraction row
        for prow, pcol in zip(int_rows, pivots):
            c = vec.get(pcol)
            if c is None:
                continue
            lead = prow[pcol]
            g = gcd(lead, c)
            a, b = lead // g, c // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                for j in vec:
                    vec[j] *= a
                scale_num *= a
            for j, v in prow.items():
                s = vec.get(j, 0) - b * v
                if s:
                    vec[j] = s
                else:
                    del vec[j]
            if a != 1 and vec:
                g = gcd(*vec.values())
                if g != 1:
                    for j in vec:
                        vec[j] //= g
                    scale_den *= g
        lead_col = min((j for j in vec if j < w), default=None)
        if lead_col is None:
            scale = Fraction(scale_num, scale_den)
            null_tails.append([vec[j] / scale if j in vec else _ZERO for j in range(w, n)])
            continue
        g = gcd(*vec.values())
        if g != 1:
            vec = {j: v // g for j, v in vec.items()}
        lead = vec[lead_col]
        int_rows.append(vec)
        pivot_rows.append([Fraction(vec[j], lead) if j in vec else _ZERO for j in range(n)])
        pivots.append(lead_col)
    return pivot_rows, pivots, null_tails


def _decimal_exponent(text: str) -> int:
    """The exponent of a literal such as "1.5e-3"; 0 when it has none (or a malformed one)."""
    _, marker, tail = text.lower().partition("e")
    try:
        return int(tail) if marker else 0
    except ValueError:
        return 0


def rational(value) -> Fraction:
    """Read an int, Fraction, float (through its str) or "p/q" string exactly.

    Booleans and other types raise TypeError; malformed strings, zero
    denominators and decimal exponents beyond +-4300 raise ValueError.
    """
    if isinstance(value, bool):
        raise TypeError("boolean is not a rational value")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        value = str(value)
    if isinstance(value, str):
        if abs(_decimal_exponent(value)) > _MAX_EXPONENT:
            raise ValueError(f"decimal exponent beyond {_MAX_EXPONENT} in {value!r}")
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
