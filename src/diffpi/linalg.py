"""Exact sparse linear algebra over the rationals.

Every scalar this module computes and returns is a fractions.Fraction
(stack only moves the entries it is given): arithmetic is exact and
canonical (normalized sign, lowest terms), so equality of results never
depends on evaluation order and no rounding ever happens. Vectors are
sparse dicts {column: scalar}. RowSpan eliminates on primitive integer
multiples of its rows, in the spirit of fraction-free Gaussian
elimination, and returns the same pivots as rational elimination would.
It takes rows of ints as well as of Fractions, and a row and any
positive multiple of it reduce to the same primitive integer row.

All pivot choices are deterministic: columns are cleared left to right,
by the earliest inserted row in RowSpan. Same input, same pivots, same
output. One forward reduction gives membership and, by the multipliers
it takes off, coordinates (RowSpan.express, coordinates); on the rows
[column j | e_j] it leaves each dependent column's relation on the
right, which gives nullspace and solve. Only consequences, which
reports the unique reduced basis, back-substitutes (reduced_rows).

A linear map is a tuple of column images, f[j] = f(e_j) as a sparse
vector: combine(v, f) applies f to v, compose(f, g) is f after g, and
stack(enumerate(f), n) flattens f into one vector. A linear system is
given the same way, by its sparse columns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def as_scalar(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to a canonical Scalar."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def sparse(v) -> dict:
    """The nonzero coordinates of a dense vector, as {index: scalar}."""
    if isinstance(v, dict):  # enumerate would read its keys as entries
        raise TypeError("sparse() takes a dense vector, not a dict")
    return {i: x for i, x in enumerate(v) if x}


def combine(coeffs: dict, vectors: Sequence[dict]) -> dict:
    """sum of c * vectors[i] over the items (i, c) of coeffs, without
    zeros; {} when there are no terms."""
    out: dict = {}
    for i, c in coeffs.items():
        if c:
            for k, x in vectors[i].items():
                out[k] = out.get(k, ZERO) + c * x
    return {k: x for k, x in out.items() if x}


def stack(pairs: Iterable, width: int) -> dict:
    """The vectors of the (position, vector) pairs laid side by side:
    entry c of the vector at position t goes to column t*width + c. The
    positions are distinct and every vector has fewer than width
    coordinates."""
    return {t * width + c: x for t, v in pairs for c, x in v.items()}


def to_columns(rows: Sequence[Sequence]) -> tuple:
    """The column images of a square dense matrix: f[j] = f(e_j)."""
    return tuple({i: row[j] for i, row in enumerate(rows) if row[j]}
                 for j in range(len(rows)))


def to_rows(f: Sequence[dict]) -> tuple:
    """The dense rows of a square map held as column images."""
    n = len(f)
    return tuple(tuple(f[j].get(i, ZERO) for j in range(n)) for i in range(n))


def compose(f: Sequence[dict], g: Sequence[dict]) -> tuple:
    """f after g, for maps held as column images."""
    return tuple(combine(c, f) for c in g)


def trace(f: Sequence[dict]) -> Fraction:
    """The trace of a square map held as column images."""
    return sum((c.get(j, ZERO) for j, c in enumerate(f)), ZERO)


def _relations(cols: Sequence[dict]) -> dict:
    """{j: x} for each column j that depends on the columns before it,
    x the relation sum of x[k] times cols[k] = 0 with x[j] = 1 and 0 at
    every other dependent column. Rows [cols[j] | e_j] whose left part is
    independent join the span; the others leave x on the right."""
    off = 1 + max((i for col in cols for i in col), default=-1)
    span, out = RowSpan(), {}
    for j, col in enumerate(cols):
        res = span._reduce({**col, off + j: ONE})
        if min(res) < off:  # res is primitive: insert keeps it as it is
            span.insert(res)
        else:
            p = res[off + j]
            out[j] = {k - off: Fraction(v, p) for k, v in res.items()}
    return out


def nullspace(cols: Sequence[dict]) -> list[dict]:
    """Basis of the kernel of the system with the given sparse columns,
    the x with sum of x[j] times cols[j] equal to 0, as sparse vectors.

    One basis vector per free column, in increasing column order, with a
    1 in the free position and 0 at every other free column. Exact and
    deterministic.
    """
    return list(_relations(cols).values())


def solve(cols: Sequence[dict], b: dict) -> Optional[dict]:
    """One exact solution x of sum of x[j] times cols[j] equal to b, for
    sparse columns and a sparse b, as a sparse vector; None if
    inconsistent.

    Free variables are set to zero, which fixes the returned solution
    uniquely: it is the relation of b on the columns before it.
    """
    n = len(cols)
    rel = _relations([*cols, b]).get(n)
    if rel is None:
        return None
    x = {k: -v for k, v in rel.items() if k != n}
    # paranoia: residual check is cheap at our sizes
    if combine(x, cols) != {i: v for i, v in b.items() if v}:
        return None
    return x


def coordinates(basis: Sequence[dict]
                ) -> Optional[Callable[[dict], Optional[dict]]]:
    """The coordinate map of a basis, or None if the basis is dependent.

    The returned map sends a vector v to {i: c}, sorted by i and without
    zeros, with v = sum of c times basis[i], and a vector outside the
    span to None. The echelon rows of [basis | I] are vectors of the
    span next to their coordinates; v's RowSpan.express picks them.
    """
    off = 1 + max((c for b in basis for c in b), default=-1)
    aug = RowSpan()
    for i, b in enumerate(basis):
        aug.insert({**b, off + i: ONE})
    if any(c >= off for c in aug.pivots):  # some combination of basis is 0
        return None
    span, coords_of = RowSpan(), {}
    for c, row in aug.pivots.items():
        span.insert({j: v for j, v in row.items() if j < off})
        coords_of[c] = {j - off: v for j, v in row.items() if j >= off}

    def coords(v: dict) -> Optional[dict]:
        x = span.express(v)
        if x is None:
            return None
        return dict(sorted(combine(x, coords_of).items()))

    return coords


class RowSpan:
    """Incremental echelon span of sparse rows.

    insert() reduces a row against the current echelon and, if a nonzero
    residue remains, stores it (normalized to leading coefficient 1,
    leading = smallest column). Rows inserted earlier always win ties,
    so with rows offered in a fixed order the accepted set is canonical.

    Reduction runs on primitive integer multiples of the rows: clearing
    the leading column of an integer row against an integer pivot row
    gives a multiple of the rational residue, so the accepted set and
    the normalized pivots are exactly those of rational elimination,
    at the cost of int rather than Fraction arithmetic.

    express() writes a vector in these echelon rows by the same forward
    reduction, and nullspace and solve reduce augmented rows with it;
    reduced_rows() back-substitutes, for consequences alone, which
    outputs the unique reduced basis. To write vectors in a chosen
    basis, use coordinates(basis).
    """

    def __init__(self):
        self.pivots: dict[int, dict] = {}
        self._ints: dict[int, dict] = {}  # lead -> primitive integer row

    def __len__(self):
        return len(self.pivots)

    def _reduce(self, row: dict, used: Optional[dict] = None) -> dict:
        """The residue of row against the span, as a primitive integer
        row: a nonzero multiple of the rational residue, or {}. A given
        dict used gets used[c] = (num, den), in increasing c, where
        num/den is the multiplier of each pivots[c] taken off."""
        if not row:  # most products offered by exponent() vanish
            return {}
        den = lcm(*[v.denominator for v in row.values()])
        res = {j: v.numerator * (den // v.denominator)
               for j, v in row.items() if v}
        sn, sd = den, 1  # res is sn/sd times row minus the multiples
        while res:
            c = gcd(*res.values())
            if c != 1:
                res = {j: v // c for j, v in res.items()}
                sd *= c
            lead = min(res)
            piv = self._ints.get(lead)
            if piv is None:
                break
            g = gcd(piv[lead], res[lead])
            a, b = piv[lead] // g, res[lead] // g
            if a != 1:
                res = {j: a * v for j, v in res.items()}
                sn *= a
            if used is not None:  # piv is piv[lead] times pivots[lead]
                used[lead] = b * sd * piv[lead], sn
            for j, v in piv.items():
                nv = res.get(j, 0) - b * v
                if nv:
                    res[j] = nv
                else:
                    del res[j]
        return res

    def insert(self, row: dict) -> bool:
        """Add a row to the span. True if it enlarged the span."""
        residue = self._reduce(row)
        if not residue:
            return False
        lead = min(residue)
        p = residue[lead]
        self._ints[lead] = residue
        self.pivots[lead] = {j: Fraction(v, p) for j, v in residue.items()}
        return True

    def contains(self, row: dict) -> bool:
        return not self._reduce(row)

    def express(self, row: dict) -> Optional[dict]:
        """Coordinates of row in the span's own echelon rows, or None if
        row is outside the span: {c: x_c} in increasing c and without
        zeros, with row equal to the sum of x_c times pivots[c]."""
        used: dict = {}
        if self._reduce(row, used):
            return None
        return {c: Fraction(num, den) for c, (num, den) in used.items()}

    def reduced_rows(self) -> dict:
        """Reduced echelon basis {pivot column: row}: each row is 1 at its
        own pivot column and 0 at every other one, so a vector of the
        span has its pivot-column entries as coordinates."""
        out: dict[int, dict] = {}
        for lead in sorted(self.pivots, reverse=True):
            row = dict(self.pivots[lead])
            for c in [c for c in row if c in out]:
                f = row[c]
                for j, v in out[c].items():
                    nv = row.get(j, ZERO) - f * v
                    if nv:
                        row[j] = nv
                    else:
                        del row[j]
            out[lead] = row
        return out
