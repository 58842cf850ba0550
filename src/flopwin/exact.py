"""The exact kernel: one row reduction, one sparse-polynomial sum and Laurent
product, one rational codec, one value base.

Every kernel, rank, span and invariant subspace in the package comes out of
one sparse fraction-free integer elimination (Bareiss 1968), `echelon`,
which yields primitive integer rows.  Every sparse {key: coefficient} sum
(characters, K-classes, noncommutative polynomials) is one `combine`, and
every product of Laurent polynomials over exponent tuples is one
`laurent_mul`.  Every rational read from JSON or an expression goes through
`rational`, and every rational written to JSON through `rational_json`.
The immutable value classes of the package (presentations, polytopes,
windows and their parts, verify results, kernel and fiber-product reports,
quiver base points and singular-locus reports) derive from `_Record`.  The
one exception is `quiver.QuiverRep`, which stores only its integer view and
builds its Fraction fields from it on first read.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add

# Largest decimal exponent `rational` reads: CPython's default int-to-str digit
# limit, so rational_json could not print a larger power of ten anyway.
_MAX_EXPONENT = 4300


class _Record:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__``; it is built from them by
    position or by keyword, every field required.  Two records are equal
    when they are of the same class with equal fields, a record hashes by
    its fields, and assigning or deleting any attribute raises
    AttributeError.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if not kwargs and len(args) == len(names):
            for name, value in zip(names, args):
                object.__setattr__(self, name, value)
            return
        values = dict(zip(names, args))
        if (len(args) > len(names) or values.keys() & kwargs.keys()
                or values.keys() | kwargs.keys() != set(names)):
            raise TypeError(f"{type(self).__name__} takes each of the fields {names} once")
        values.update(kwargs)
        for name in names:
            object.__setattr__(self, name, values[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "{}({})".format(type(self).__qualname__, ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields())))


def echelon(rows, width: int | None = None):
    """Sparse fraction-free elimination of rows, taken in the given order.

    rows are sparse {column: int or Fraction} dicts without zero entries.  A
    row with a Fraction entry has its denominators cleared (an int row is
    copied as it is), and each row is reduced against the primitive integer
    pivot rows found so far by row <- a*row - b*prow, with a/b = lead/entry in
    lowest terms, then divided by the gcd of its entries (Bareiss 1968).  Its
    pivot columns are cleared in increasing column order, from a heap of the
    pivot columns present in the row: a pivot row has no entry left of its
    pivot, so clearing one column never refills a column already cleared, and
    the row ends with no entry at any pivot column.  That row is a positive
    multiple of the one any clearing order leaves, so the pivot rows,
    primitive, do not depend on the order.  Pivots are sought only in the first
    ``width`` columns (default: all of them).  Yields (vec, lead_col) for each
    row, in order: a row with a pivot yields its primitive integer row and its
    pivot column, any other row its reduced integer row and None.  Each yielded
    row is a nonzero rational multiple of the row plain Fraction elimination
    would leave, so augmenting each row with a unit vector makes the columns
    from ``width`` on of the null rows a kernel basis.  Yielded pivot rows are
    used for later reductions, so callers must not change them.  The rank is
    the number of rows that yield a pivot.
    """
    by_col: dict[int, dict[int, int]] = {}  # primitive integer pivot rows by pivot column
    for row in rows:
        if Fraction in map(type, row.values()):
            den = lcm(*(x.denominator for x in row.values()))
            vec = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
        else:
            vec = dict(row)
        todo = [j for j in vec if j in by_col]
        heapify(todo)
        while todo:
            pcol = heappop(todo)
            c = vec.get(pcol)
            if c is None:  # cancelled by an earlier step, or a repeat on the heap
                continue
            prow = by_col[pcol]
            lead = prow[pcol]
            g = gcd(lead, c)
            a, b = lead // g, c // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                for j in vec:
                    vec[j] *= a
            for j, v in prow.items():
                old = vec.get(j)
                if old is None:
                    vec[j] = -b * v
                    if j in by_col:
                        heappush(todo, j)
                elif s := old - b * v:
                    vec[j] = s
                else:
                    del vec[j]
            if a != 1 and vec:
                g = gcd(*vec.values())
                if g != 1:
                    for j in vec:
                        vec[j] //= g
        if width is None:
            lead_col = min(vec, default=None)
        else:
            lead_col = min((j for j in vec if j < width), default=None)
        if lead_col is None:
            yield vec, None
            continue
        g = gcd(*vec.values())
        if g != 1:
            vec = {j: v // g for j, v in vec.items()}
        by_col[lead_col] = vec
        yield vec, lead_col


def combine(terms) -> dict:
    """The sum of c * p over (c, p) pairs of sparse {key: coefficient} dicts.

    Keys that cancel are dropped.  Coefficients keep their type: ints stay
    ints and Fractions stay Fractions.  No terms give {}.
    """
    out: dict = {}
    for c, p in terms:
        for key, x in p.items():
            s = out.get(key, 0) + c * x
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def laurent_mul(a: dict, b: dict) -> dict:
    """The product of two Laurent polynomials keyed by exponent tuples of one length."""
    return combine((ca, {tuple(map(add, ka, kb)): cb for kb, cb in b.items()})
                   for ka, ca in a.items())


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
