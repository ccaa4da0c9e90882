"""Exact sparse linear algebra over the rationals.

Scalars are fractions.Fraction throughout: arithmetic is exact and
canonical (normalized sign, lowest terms), so equality of results never
depends on evaluation order and no rounding ever happens. Matrices are
dict-of-dicts sparse. RowSpan eliminates on primitive integer multiples
of its rows, in the spirit of fraction-free Gaussian elimination, and
returns the same pivots as rational elimination would.

All pivot choices are deterministic: columns are cleared left to right,
by the earliest inserted row in RowSpan. Same input, same pivots, same
output. nullspace and solve read the reduced echelon form, which is
unique for a span.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional

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
    return {i: x for i, x in enumerate(v) if x}


class SparseMatrix:
    """Immutable-ish sparse rational matrix, rows as dicts col -> Scalar."""

    def __init__(self, nrows: int, ncols: int, rows: Optional[list[dict]] = None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict(r) for r in rows] if rows is not None else [
            {} for _ in range(nrows)]
        if len(self.rows) != nrows:
            raise ValueError("row count mismatch")

    @classmethod
    def from_dense(cls, dense: Iterable[Iterable]) -> "SparseMatrix":
        materialized = [list(r) for r in dense]
        width = max((len(r) for r in materialized), default=0)
        rows = [{j: as_scalar(v) for j, v in enumerate(r) if v}
                for r in materialized]
        return cls(len(rows), width, rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i].get(j, ZERO)

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def dense(self) -> list[list[Fraction]]:
        return [[self.rows[i].get(j, ZERO) for j in range(self.ncols)]
                for i in range(self.nrows)]

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


def rank(m: SparseMatrix) -> int:
    """Rank, as the size of the RowSpan of the rows."""
    span = RowSpan()
    for row in m.rows:
        span.insert({j: v for j, v in row.items() if v})
    return len(span)


def reduced_echelon(rows: Iterable[dict]) -> dict:
    """Reduced row echelon form of the span of the rows, as
    {pivot column: row}; unique for the span, so it does not depend on
    the order or the choice of the rows."""
    span = RowSpan()
    for row in rows:
        span.insert({j: v for j, v in row.items() if v})
    return span.reduced_rows()


def nullspace(m: SparseMatrix) -> list[list[Fraction]]:
    """Basis of the right kernel, as dense vectors of length ncols.

    One basis vector per free column, in increasing column order, with a
    1 in the free position. Exact and deterministic.
    """
    rref = reduced_echelon(m.rows)
    basis = []
    for free in range(m.ncols):
        if free in rref:
            continue
        vec = [ZERO] * m.ncols
        vec[free] = ONE
        for c, row in rref.items():
            v = row.get(free)
            if v:
                vec[c] = -v
        basis.append(vec)
    return basis


def solve(m: SparseMatrix, b: list) -> Optional[list[Fraction]]:
    """One exact solution of m x = b, or None if inconsistent.

    Free variables are set to zero, which fixes the returned solution
    uniquely: it is read off the reduced echelon form.
    """
    if len(b) != m.nrows:
        raise ValueError("rhs length mismatch")
    aug = []
    bc = m.ncols
    for i, r in enumerate(m.rows):
        row = dict(r)
        v = as_scalar(b[i])
        if v:
            row[bc] = v
        aug.append(row)
    rref = reduced_echelon(aug)
    if bc in rref:
        return None
    x = [ZERO] * m.ncols
    for c, row in rref.items():
        x[c] = row.get(bc, ZERO)
    # paranoia: residual check is cheap at our sizes
    for i, r in enumerate(m.rows):
        s = sum((v * x[j] for j, v in r.items()), ZERO)
        if s != as_scalar(b[i]):
            return None
    return x


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

    With track=True each stored row remembers its expression in terms of
    the ORIGINAL inserted rows, so express() can write any vector of the
    span as a combination of accepted originals.
    """

    def __init__(self, track: bool = False):
        self.pivots: dict[int, dict] = {}
        self._ints: dict[int, dict] = {}  # lead -> primitive integer row
        self.track = track
        self.combos: dict[int, dict] = {}
        self.count = 0

    def __len__(self):
        return len(self.pivots)

    def _reduce(self, row: dict):
        """(res, scale, combo): res is the residue of row times scale, a
        primitive integer row; residue = row + sum of combo[k] times
        original k (combo and scale are kept only with track=True)."""
        if not row:  # most products offered by exponent() vanish
            return {}, None, {}
        den = lcm(*[v.denominator for v in row.values()])
        res = {j: v.numerator * (den // v.denominator) for j, v in row.items()}
        scale = Fraction(den) if self.track else None
        combo: dict[int, Fraction] = {}
        while res:
            c = gcd(*res.values())
            if c != 1:
                res = {j: v // c for j, v in res.items()}
                if self.track:
                    scale /= c
            lead = min(res)
            piv = self._ints.get(lead)
            if piv is None:
                break
            r = res[lead]
            if self.track:
                f = r / scale
                for k, v in self.combos[lead].items():
                    nv = combo.get(k, ZERO) - f * v
                    if nv:
                        combo[k] = nv
                    elif k in combo:
                        del combo[k]
            g = gcd(piv[lead], r)
            a, b = piv[lead] // g, r // g
            if a != 1:
                res = {j: a * v for j, v in res.items()}
                if self.track:
                    scale *= a
            for j, v in piv.items():
                nv = res.get(j, 0) - b * v
                if nv:
                    res[j] = nv
                else:
                    del res[j]
        return res, scale, combo

    def insert(self, row: dict, tag=None) -> bool:
        """Add a row to the span. True if it enlarged the span."""
        residue, scale, combo = self._reduce(row)
        if not residue:
            return False
        lead = min(residue)
        p = residue[lead]
        self._ints[lead] = residue
        self.pivots[lead] = {j: Fraction(v, p) for j, v in residue.items()}
        if self.track:
            key = tag if tag is not None else self.count
            inv = scale / p
            combo = {k: v * inv for k, v in combo.items()}
            combo[key] = combo.get(key, ZERO) + inv
            self.combos[lead] = combo
        self.count += 1
        return True

    def contains(self, row: dict) -> bool:
        residue, _, _ = self._reduce(row)
        return not residue

    def express(self, row: dict) -> Optional[dict]:
        """Write row as {tag: coeff} over accepted originals, or None.

        Only available with track=True.
        """
        if not self.track:
            raise ValueError("span built without tracking")
        residue, _, combo = self._reduce(row)
        if residue:
            return None
        return {k: -v for k, v in combo.items()}

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
