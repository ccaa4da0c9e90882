"""Exact sparse linear algebra over the rationals.

Scalars are fractions.Fraction throughout: arithmetic is exact and
canonical (normalized sign, lowest terms), so equality of results never
depends on evaluation order and no rounding ever happens. Vectors are
sparse dicts {column: scalar}. RowSpan eliminates on primitive integer
multiples of its rows, in the spirit of fraction-free Gaussian
elimination, and returns the same pivots as rational elimination would.

All pivot choices are deterministic: columns are cleared left to right,
by the earliest inserted row in RowSpan. Same input, same pivots, same
output. nullspace, solve and coordinates read the reduced echelon form,
which is unique for a span.
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


def reduced_echelon(rows: Iterable[dict]) -> dict:
    """Reduced row echelon form of the span of the rows, as
    {pivot column: row}; unique for the span, so it does not depend on
    the order or the choice of the rows."""
    span = RowSpan()
    for row in rows:
        span.insert({j: v for j, v in row.items() if v})
    return span.reduced_rows()


def nullspace(rows: Sequence[Sequence]) -> list[dict]:
    """Basis of the right kernel of the dense rows, as sparse vectors
    over the columns of the longest row.

    One basis vector per free column, in increasing column order, with a
    1 in the free position. Exact and deterministic.
    """
    ncols = max((len(r) for r in rows), default=0)
    rref = reduced_echelon(sparse(r) for r in rows)
    basis = []
    for free in range(ncols):
        if free in rref:
            continue
        vec = {free: ONE}
        for c, row in rref.items():
            v = row.get(free)
            if v:
                vec[c] = -v
        basis.append(vec)
    return basis


def solve(rows: Sequence[Sequence], b: Sequence) -> Optional[dict]:
    """One exact solution of rows · x = b as a sparse vector, or None if
    inconsistent.

    Free variables are set to zero, which fixes the returned solution
    uniquely: it is read off the reduced echelon form.
    """
    if len(b) != len(rows):
        raise ValueError("rhs length mismatch")
    ncols = max((len(r) for r in rows), default=0)
    aug = []
    for r, rhs in zip(rows, b):
        row = sparse(r)
        v = as_scalar(rhs)
        if v:
            row[ncols] = v
        aug.append(row)
    rref = reduced_echelon(aug)
    if ncols in rref:
        return None
    x = {c: row[ncols] for c, row in rref.items() if ncols in row}
    # paranoia: residual check is cheap at our sizes
    for r, rhs in zip(rows, b):
        s = sum((v * r[j] for j, v in x.items()), ZERO)
        if s != as_scalar(rhs):
            return None
    return x


def coordinates(basis: Sequence[dict]
                ) -> Optional[Callable[[dict], Optional[dict]]]:
    """The coordinate map of a basis, or None if the basis is dependent.

    The returned map sends a vector v to {i: c}, sorted by i and without
    zeros, with v = sum of c times basis[i]; it sends a vector outside
    the span to None. It is read off the reduced echelon form of
    [basis | I]: each row there is a vector of the span next to its
    coordinates, so a vector's entries at the pivot columns (its
    RowSpan.express) pick the rows that add up to it.
    """
    off = 1 + max((c for b in basis for c in b), default=-1)
    aug = reduced_echelon({**b, off + i: ONE} for i, b in enumerate(basis))
    if any(c >= off for c in aug):  # some combination of the basis is 0
        return None
    span = RowSpan()
    back = {}  # pivot -> (den, ints): the row's coordinates are ints / den
    for c, row in aug.items():
        span.insert({j: v for j, v in row.items() if j < off})
        den = lcm(*[v.denominator for j, v in row.items() if j >= off])
        back[c] = den, {j - off: v.numerator * (den // v.denominator)
                        for j, v in row.items() if j >= off}

    def coords(v: dict) -> Optional[dict]:
        pivot = span.express(v)
        if pivot is None:
            return None
        # sum in ints over one common denominator, then one Fraction each
        den = lcm(*[f.denominator * back[c][0] for c, f in pivot.items()])
        out: dict[int, int] = {}
        for c, f in pivot.items():
            d, ints = back[c]
            scale = f.numerator * (den // (f.denominator * d))
            for i, x in ints.items():
                out[i] = out.get(i, 0) + scale * x
        return {i: Fraction(out[i], den) for i in sorted(out) if out[i]}

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

    A span keeps no record of which rows built it. To write vectors in
    a chosen basis, use coordinates(basis).
    """

    def __init__(self):
        self.pivots: dict[int, dict] = {}
        self._ints: dict[int, dict] = {}  # lead -> primitive integer row

    def __len__(self):
        return len(self.pivots)

    def _reduce(self, row: dict) -> dict:
        """The residue of row against the span, as a primitive integer
        row: a nonzero multiple of the rational residue, or {}."""
        if not row:  # most products offered by exponent() vanish
            return {}
        den = lcm(*[v.denominator for v in row.values()])
        res = {j: v.numerator * (den // v.denominator) for j, v in row.items()}
        while res:
            c = gcd(*res.values())
            if c != 1:
                res = {j: v // c for j, v in res.items()}
            lead = min(res)
            piv = self._ints.get(lead)
            if piv is None:
                break
            r = res[lead]
            g = gcd(piv[lead], r)
            a, b = piv[lead] // g, r // g
            if a != 1:
                res = {j: a * v for j, v in res.items()}
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
        """Coordinates of row in the reduced echelon basis, or None if
        row is outside the span. Each basis row is 1 at its own pivot
        column and 0 at every other one, so the coordinates are row's
        entries at the pivot columns, as {pivot column: entry}."""
        if self._reduce(row):
            return None
        return {c: v for c, v in row.items() if c in self.pivots}

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
