"""Finite dimensional algebras with derivations, over exact rationals.

An Algebra is a structure constant table on a chosen basis. Derivations
are matrices checked against the Leibniz rule. The module computes the
nil radical (trace form criterion on the unitalization), a rational
splitting of the semisimple quotient into simple blocks, a multiplicative
section lifting the quotient back into the algebra (so block idempotents
are exact), and the decomposition of a derivation into an inner part and
a remainder vanishing on the lifted complement.

Hot loops carry sparse vectors, dicts {index: Fraction} holding only
the nonzero coordinates, and multiply them with Algebra.product, the one
multiplication loop. Algebra.multiply is its dense wrapper for callers
that hold coordinate tuples.

All searches are deterministic given the seed; the returned data never
depends on dict iteration order.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple, Optional, Sequence

from .errors import (IntegrityError, InvariantViolation, NonSplit,
                     UnknownBuiltin)
from .freediff import _mat_flat, mat_apply, mat_identity
from .linalg import (ONE, ZERO, RowSpan, as_scalar, combine, coordinates,
                     nullspace, reduced_echelon, solve, sparse)

Vector = tuple


def _tupvec(v) -> Vector:
    return tuple(as_scalar(x) for x in v)


@dataclass(frozen=True)
class Algebra:
    """Structure constant algebra. table[(i, j)][k] = coefficient of
    e_k in e_i e_j; absent entries are zero."""

    dim: int
    basis_labels: tuple
    table: dict
    unit: Optional[Vector] = None

    def __post_init__(self):
        if len(self.basis_labels) != self.dim:
            raise InvariantViolation("basis label count differs from dim")

    def product(self, u: dict, v: dict) -> dict:
        """Product of sparse vectors: only pairs of nonzero coordinates
        are visited, and only nonzero entries are returned."""
        table = self.table
        out: dict = {}
        for i, ui in u.items():
            for j, vj in v.items():
                prod = table.get((i, j))
                if prod:
                    c = ui * vj
                    for k, w in prod.items():
                        out[k] = out.get(k, ZERO) + c * w
        return {k: x for k, x in out.items() if x}

    def multiply(self, u: Sequence, v: Sequence) -> Vector:
        """Product of dense coordinate vectors, through product()."""
        w = self.product(sparse(u), sparse(v))
        return tuple(w.get(k, ZERO) for k in range(self.dim))

    def basis_vector(self, i: int) -> Vector:
        return tuple(ONE if j == i else ZERO for j in range(self.dim))

    def associativity_witness(self):
        """First basis triple (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k),
        or None."""
        vecs = [{i: ONE} for i in range(self.dim)]
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.product(vecs[i], vecs[j])
                for k in range(self.dim):
                    left = self.product(ij, vecs[k])
                    right = self.product(vecs[i], self.product(vecs[j], vecs[k]))
                    if left != right:
                        return (i, j, k)
        return None

    def unit_witness(self):
        """Basis index where the declared unit fails, or None."""
        if self.unit is None:
            return None
        for i in range(self.dim):
            e = self.basis_vector(i)
            if self.multiply(self.unit, e) != e or self.multiply(e, self.unit) != e:
                return i
        return None


@dataclass(frozen=True)
class Derivation:
    """Linear map given by its matrix (rows), expected to satisfy Leibniz."""

    name: str
    matrix: tuple

    def leibniz_witness(self, a: Algebra):
        """First basis pair (i, j) violating d(xy) = d(x)y + x d(y), or None."""
        vecs = [a.basis_vector(i) for i in range(a.dim)]
        img = [mat_apply(self.matrix, v) for v in vecs]
        for i in range(a.dim):
            for j in range(a.dim):
                lhs = mat_apply(self.matrix, a.multiply(vecs[i], vecs[j]))
                rhs = tuple(x + y for x, y in zip(
                    a.multiply(img[i], vecs[j]), a.multiply(vecs[i], img[j])))
                if lhs != rhs:
                    return (i, j)
        return None


def inner_derivation(a: Algebra, x: Sequence, name: str = "ad") -> Derivation:
    """The commutator map v -> x v - v x."""
    x = _tupvec(x)
    cols = []
    for j in range(a.dim):
        e = a.basis_vector(j)
        cols.append(tuple(p - q for p, q in
                          zip(a.multiply(x, e), a.multiply(e, x))))
    matrix = tuple(tuple(cols[j][i] for j in range(a.dim))
                   for i in range(a.dim))
    return Derivation(name=name, matrix=matrix)


class DerivationAction(NamedTuple):
    """Generating derivations plus the Lie algebra they span."""

    generators: tuple
    lie_basis: tuple
    killing_nondegenerate: bool

    @property
    def lie_dim(self) -> int:
        return len(self.lie_basis)


def _commutator(x, y):
    n = len(x)
    def cell(i, j):
        return sum((x[i][k] * y[k][j] - y[i][k] * x[k][j] for k in range(n)),
                   ZERO)
    return tuple(tuple(cell(i, j) for j in range(n)) for i in range(n))


def make_action(a: Algebra, gens: Sequence[Derivation]) -> DerivationAction:
    """Validate generators and close them into a Lie algebra.

    Raises InvariantViolation when a generator breaks the Leibniz rule.
    killing_nondegenerate reports whether the Killing form of the closed
    Lie algebra has full rank (vacuously true in dimension 0).
    """
    for d in gens:
        if len(d.matrix) != a.dim:
            raise InvariantViolation(f"derivation {d.name} has wrong shape")
        w = d.leibniz_witness(a)
        if w is not None:
            raise InvariantViolation(
                f"derivation {d.name} violates the Leibniz rule on basis "
                f"pair {w}", witness=w)
    span = RowSpan()
    basis = []
    for d in gens:
        flat = _mat_flat(d.matrix)
        if flat and span.insert(flat):
            basis.append(d.matrix)
    frontier = list(basis)
    while frontier:
        new = []
        for x in list(basis):
            for y in frontier:
                c = _commutator(x, y)
                flat = _mat_flat(c)
                if flat and span.insert(flat):
                    basis.append(c)
                    new.append(c)
        frontier = new
    # Killing form on the closed Lie algebra
    nondeg = True
    if basis:
        coords = coordinates([_mat_flat(b) for b in basis])
        ad = []
        for b in basis:
            rows = []
            for c in basis:
                combo = coords(_mat_flat(_commutator(b, c))) or {}
                rows.append([combo.get(i, ZERO) for i in range(len(basis))])
            # column j of ad_b = coords of [b, basis_j]
            ad.append(tuple(tuple(rows[j][i] for j in range(len(basis)))
                            for i in range(len(basis))))
        gram = [[_matprod_trace(ad[i], ad[j]) for j in range(len(basis))]
                for i in range(len(basis))]
        nondeg = (len(nullspace(gram)) == 0)
    return DerivationAction(generators=tuple(gens), lie_basis=tuple(basis),
                            killing_nondegenerate=nondeg)


def _matprod_trace(x, y) -> Fraction:
    n = len(x)
    return sum((x[i][k] * y[k][i] for i in range(n) for k in range(n)), ZERO)


class AlgebraWithDerivations(NamedTuple):
    algebra: Algebra
    action: DerivationAction


def check_l_stability(a: Algebra, act: DerivationAction,
                      subspace: Sequence[Vector]) -> bool:
    """True iff every generating derivation maps the subspace into itself."""
    span = RowSpan()
    for v in subspace:
        span.insert(sparse(v))
    for d in act.generators:
        for v in subspace:
            if not span.contains(sparse(mat_apply(d.matrix, v))):
                return False
    return True


def radical(a: Algebra) -> list[Vector]:
    """Basis of the nil radical.

    Trace form criterion in the unitalization: x is radical iff the left
    regular trace of x y vanishes for every y, including y = 1. Exact
    over the rationals in characteristic zero.
    """
    if a.dim == 0:
        return []
    t = [sum((a.table.get((i, j), {}).get(j, ZERO) for j in range(a.dim)),
             ZERO) for i in range(a.dim)]
    rows = []
    for y in range(a.dim):
        row = []
        for j in range(a.dim):
            prod = a.table.get((j, y), {})
            row.append(sum((v * t[k] for k, v in prod.items()), ZERO))
        rows.append(row)
    rows.append(list(t))
    basis = nullspace(rows)
    return [tuple(v) for v in basis]


def radical_powers(a: Algebra, rad: Sequence[Vector]) -> list[list[Vector]]:
    """Bases of J, J^2, ... down to the last nonzero power.

    Raises InvariantViolation if the chain fails to reach zero, which
    cannot happen for an associative input.
    """
    powers = []
    rad = [sparse(v) for v in rad]
    current = rad
    while current:
        powers.append([tuple(w.get(i, ZERO) for i in range(a.dim))
                       for w in current])
        span = RowSpan()
        nxt = []
        for u in rad:
            for v in current:
                w = a.product(u, v)
                if span.insert(w):
                    nxt.append(w)
        if len(nxt) >= len(current):
            raise InvariantViolation("radical chain does not shrink; "
                                     "input is not associative nilpotent")
        current = nxt
    return powers


class WedderburnData(NamedTuple):
    """Radical, nilpotency index, and a lifted block decomposition.

    block_bases[i] spans a subalgebra of A isomorphic to the i-th simple
    block of A/J; block_idempotents[i] is its unit, an exact idempotent.
    complement_basis concatenates the block bases; together with the
    radical it spans A. radical_path_graph holds pairs (i, j), i != j,
    with 1_i J 1_j != 0.
    """

    radical_basis: tuple
    nilpotency_index: int
    block_dims: tuple
    block_idempotents: tuple
    block_bases: tuple
    complement_basis: tuple
    radical_path_graph: frozenset
    radical_power_bases: tuple


def _quotient(a: Algebra, rad: Sequence[Vector]):
    """Quotient algebra A / span(rad) with canonical coordinate reps.

    Returns (quotient Algebra, rep column indices, project) where
    project maps an A vector to quotient coordinates.
    """
    piv = reduced_echelon(sparse(v) for v in rad)
    reps = [c for c in range(a.dim) if c not in piv]

    def project(v: Sequence) -> Vector:
        v = list(v)
        for c, row in piv.items():
            f = v[c]
            if f:
                for j, w in row.items():
                    v[j] -= f * w
        return tuple(v[c] for c in reps)

    m = len(reps)
    table = {}
    for i in range(m):
        for j in range(m):
            prod = project(a.multiply(a.basis_vector(reps[i]),
                                      a.basis_vector(reps[j])))
            entries = {k: v for k, v in enumerate(prod) if v}
            if entries:
                table[(i, j)] = entries
    unit = None
    labels = tuple(a.basis_labels[c] for c in reps)
    q = Algebra(dim=m, basis_labels=labels, table=table, unit=unit)
    return q, reps, project


def _subspace_center(q: Algebra, piece: Sequence[Vector]) -> list[Vector]:
    """Central elements of the span of piece, as vectors in q coords."""
    rows = []
    for p in piece:
        comm = [[x - y for x, y in zip(q.multiply(b, p), q.multiply(p, b))]
                for b in piece]
        for c in range(q.dim):
            rows.append([w[c] for w in comm])
    return [combine(coeffs, piece, q.dim) for coeffs in nullspace(rows)]


def _minpoly(mat: list[list[Fraction]]) -> list[Fraction]:
    """Minimal polynomial of a nonempty square matrix M, as the list
    [c_0, ..., c_{d-1}] with M^d = sum c_i M^i, d the degree: the
    polynomial is t^d - sum c_i t^i, the form that _rational_roots and
    _fully_splits read.
    """
    n = len(mat)
    powers = [_mat_flat(mat_identity(n))]
    span = RowSpan()
    span.insert(powers[0])
    power, flat = mat, _mat_flat(mat)
    while span.insert(flat):
        powers.append(flat)
        power = [[sum((mat[i][l] * power[l][j] for l in range(n)), ZERO)
                  for j in range(n)] for i in range(n)]
        flat = _mat_flat(power)
    combo = coordinates(powers)(flat)
    return [combo.get(i, ZERO) for i in range(len(powers))]


def _poly_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _rational_roots(minrel: list[Fraction]) -> list[Fraction]:
    """Rational roots of t^d - sum minrel[i] t^i, via the rational root
    theorem on the cleared-denominator form."""
    d = len(minrel)
    coeffs = [-c for c in minrel] + [ONE]  # ascending, degree d monic
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    lead = ints[-1]
    v = 0
    while v < d and ints[v] == 0:
        v += 1
    roots = []
    if v > 0:
        roots.append(ZERO)
    const = ints[v] if v < len(ints) else 0
    if const:
        for p in _divisors(abs(const)):
            for q in _divisors(abs(lead)):
                for sgn in (1, -1):
                    r = Fraction(sgn * p, q)
                    if r not in roots and _poly_eval(coeffs, r) == 0:
                        roots.append(r)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def _fully_splits(minrel: list[Fraction], roots: list[Fraction]) -> bool:
    """True iff the minimal polynomial equals prod (t - r) over the roots."""
    if len(roots) != len(minrel):
        return False
    # multiply out prod(t - r), ascending coefficients
    poly = [ONE]
    for r in roots:
        nxt = [ZERO] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i] += -r * c
            nxt[i + 1] += c
        poly = nxt
    target = [-c for c in minrel] + [ONE]
    return poly == target


def _split_blocks(q: Algebra, rng: random.Random) -> list[list[Vector]]:
    """Simple ideals of the semisimple algebra q, by central eigensplitting.

    Raises NonSplit after the retry budget, or on a non square block
    dimension (a division algebra bigger than the rationals).
    """
    def split(piece: list[Vector]) -> list[list[Vector]]:
        center = _subspace_center(q, piece)
        if len(center) <= 1:
            return [piece]
        coords = coordinates([sparse(z) for z in center])
        candidates = list(center)
        budget = 8
        tried = 0
        while tried < budget:
            if candidates:
                z = candidates.pop(0)
            else:
                z = combine([Fraction(rng.randint(-3, 3)) for _ in center],
                            center, q.dim)
            tried += 1
            # matrix of multiplication by z on the center
            mat = []
            for c in center:
                img = q.multiply(z, c)
                combo = coords(sparse(img))
                if combo is None:
                    raise IntegrityError("center not closed under product")
                mat.append([combo.get(i, ZERO) for i in range(len(center))])
            mat = [[mat[j][i] for j in range(len(center))]
                   for i in range(len(center))]
            minrel = _minpoly(mat)
            roots = _rational_roots(minrel)
            if not _fully_splits(minrel, roots) or len(roots) < 2:
                continue
            pieces = []
            total = 0
            zp = [q.multiply(z, b) for b in piece]
            for r in roots:
                rows = []
                for c in range(q.dim):
                    rows.append([w[c] - r * b[c] for w, b in zip(zp, piece)])
                sub = [combine(coeffs, piece, q.dim)
                       for coeffs in nullspace(rows)]
                if sub:
                    pieces.append(sub)
                    total += len(sub)
            if total != len(piece):
                raise IntegrityError("central eigensplit lost dimension")
            out = []
            for p in pieces:
                out.extend(split(p))
            return out
        raise NonSplit("semisimple quotient did not split over the "
                       "rationals within the retry budget")

    if q.dim == 0:
        return []
    whole = [q.basis_vector(i) for i in range(q.dim)]
    return split(whole)


def _block_unit(q: Algebra, block: list[Vector]) -> Vector:
    """Unit of a block ideal, solved from u b = b u = b."""
    m = len(block)
    rows = []
    rhs = []
    for b in block:
        left = [q.multiply(block[i], b) for i in range(m)]
        right = [q.multiply(b, block[i]) for i in range(m)]
        for c in range(q.dim):
            rows.append([left[i][c] for i in range(m)])
            rhs.append(b[c])
            rows.append([right[i][c] for i in range(m)])
            rhs.append(b[c])
    sol = solve(rows, rhs)
    if sol is None:
        raise IntegrityError("block has no unit; split produced a non-ideal")
    return combine(sol, block, q.dim)


def _lift_section(a: Algebra, q: Algebra, reps: list[int],
                  jpowers: list[list[Vector]]) -> list[Vector]:
    """Multiplicative section s: A/J -> A, built order by order.

    Start from the coordinate section and correct it along the radical
    filtration: at each stage the multiplicativity defect lies one power
    of J deeper, and a linear solve (always consistent, the quotient
    being separable) removes it modulo the next power.
    """
    dim, m = a.dim, q.dim
    sec = [a.basis_vector(c) for c in reps]
    qprod = {}
    for al in range(m):
        for be in range(m):
            qprod[(al, be)] = q.multiply(q.basis_vector(al), q.basis_vector(be))

    nil = len(jpowers) + 1  # q index: J^nil = 0
    for k in range(1, nil):
        defects = {}
        clean = True
        for al in range(m):
            for be in range(m):
                d = tuple(x - y for x, y in zip(
                    combine(qprod[(al, be)], sec, dim),
                    a.multiply(sec[al], sec[be])))
                defects[(al, be)] = d
                if any(d):
                    clean = False
        if clean:
            return sec
        jk = jpowers[k - 1]
        jk1 = jpowers[k] if k < len(jpowers) else []
        span_k = RowSpan()
        for v in jk1:
            span_k.insert(sparse(v))
        lifts = [v for v in jk if span_k.insert(sparse(v))]
        T, low = len(lifts), len(jk1)
        coords = coordinates([sparse(v) for v in jk1 + lifts])

        def pi(vec: Sequence) -> list[Fraction]:
            combo = coords(sparse(vec))
            if combo is None:
                raise IntegrityError("defect escaped the radical filtration")
            return [combo.get(low + t, ZERO) for t in range(T)]

        # unknowns G[gamma][t]; g(x_gamma) = sum_t G[gamma][t] lifts[t]
        right_mul = [[pi(a.multiply(lifts[t], sec[be])) for be in range(m)]
                     for t in range(T)]
        left_mul = [[pi(a.multiply(sec[al], lifts[t])) for t in range(T)]
                    for al in range(m)]
        rows = []
        rhs = []
        for al in range(m):
            for be in range(m):
                pd = pi(defects[(al, be)])
                prod = qprod[(al, be)]
                for c in range(T):
                    row = [ZERO] * (m * T)
                    for ga in range(m):
                        if prod[ga]:
                            row[ga * T + c] += prod[ga]
                    for t in range(T):
                        row[al * T + t] -= right_mul[t][be][c]
                        row[be * T + t] -= left_mul[al][t][c]
                    rows.append(row)
                    rhs.append(-pd[c])
        sol = solve(rows, rhs)
        if sol is None:
            raise IntegrityError("section correction system inconsistent; "
                                 "quotient is not separable")
        for ga in range(m):
            sec[ga] = combine([ONE, *sol[ga * T:(ga + 1) * T]],
                              [sec[ga], *lifts], dim)
    # final exactness check
    for al in range(m):
        for be in range(m):
            if combine(qprod[(al, be)], sec, dim) \
                    != a.multiply(sec[al], sec[be]):
                raise IntegrityError("lifted section is not multiplicative")
    return sec


def wedderburn(a: Algebra, seed: int = 0) -> WedderburnData:
    """Radical plus a lifted rational block decomposition of a.

    Deterministic for a given seed; the block order is canonical (sorted
    by leading idempotent coordinate in the quotient, then dimension),
    so in practice the output does not depend on the seed at all.
    """
    rad = radical(a)
    jpowers = radical_powers(a, rad)
    nil_index = len(jpowers) + 1 if rad else 1
    quotient, reps, project = _quotient(a, rad)
    check = radical(quotient)
    if check:
        raise IntegrityError("quotient by the radical still has radical")
    rng = random.Random(seed)
    blocks_q = _split_blocks(quotient, rng)
    units_q = [_block_unit(quotient, b) for b in blocks_q]
    order = sorted(range(len(blocks_q)), key=lambda i: (
        min(k for k, x in enumerate(units_q[i]) if x),
        len(blocks_q[i]),
        units_q[i]))
    blocks_q = [blocks_q[i] for i in order]
    units_q = [units_q[i] for i in order]
    dims = []
    for b in blocks_q:
        n = isqrt(len(b))
        if n * n != len(b):
            raise NonSplit(f"simple block of dimension {len(b)} is not a "
                           "matrix algebra over the rationals")
        dims.append(n)
    sec = _lift_section(a, quotient, reps, jpowers)
    block_bases = tuple(tuple(combine(v, sec, a.dim) for v in b)
                        for b in blocks_q)
    idems = tuple(combine(u, sec, a.dim) for u in units_q)
    complement = tuple(v for bb in block_bases for v in bb)
    if sum(d * d for d in dims) + len(rad) != a.dim:
        raise IntegrityError("block dimensions do not add up")
    edges = set()
    sp_idems = [sparse(e) for e in idems]
    sp_rad = [sparse(v) for v in rad]
    for i, ei in enumerate(sp_idems):
        for j, ej in enumerate(sp_idems):
            if i != j and any(a.product(a.product(ei, jb), ej)
                              for jb in sp_rad):
                edges.add((i, j))
    return WedderburnData(
        radical_basis=tuple(tuple(v) for v in rad),
        nilpotency_index=nil_index,
        block_dims=tuple(dims),
        block_idempotents=idems,
        block_bases=block_bases,
        complement_basis=complement,
        radical_path_graph=frozenset(edges),
        radical_power_bases=tuple(tuple(tuple(v) for v in p)
                                  for p in jpowers))


def _canonical_coset(sol: list, null_basis: list[list]) -> Vector:
    """Reduce a particular solution modulo the nullspace, canonically."""
    out = list(sol)
    for c, row in reduced_echelon(sparse(v) for v in null_basis).items():
        f = out[c]
        if f:
            for j, w in row.items():
                out[j] -= f * w
    return tuple(out)


def split_derivation(a: Algebra, wd: WedderburnData, d: Derivation):
    """Write d as ad(x) + d' with d' vanishing on the lifted complement.

    If d is inner the returned d' is exactly zero. The element x is the
    canonical coset representative modulo the solution ambiguity, so the
    output is deterministic.
    """
    def ad_rows(targets: Sequence[Vector]):
        rows, rhs = [], []
        for tv in targets:
            imgs = []
            for i in range(a.dim):
                e = a.basis_vector(i)
                imgs.append(tuple(p - q for p, q in zip(
                    a.multiply(e, tv), a.multiply(tv, e))))
            want = mat_apply(d.matrix, tv)
            for c in range(a.dim):
                rows.append([imgs[i][c] for i in range(a.dim)])
                rhs.append(want[c])
        return rows, rhs

    full_targets = [a.basis_vector(i) for i in range(a.dim)]
    rows, rhs = ad_rows(full_targets)
    sol = solve(rows, rhs)
    if sol is None:
        rows, rhs = ad_rows(list(wd.complement_basis))
        sol = solve(rows, rhs)
        if sol is None:
            raise IntegrityError(
                "derivation cannot be made inner on the complement; "
                "input data violates the splitting theorem")
    x = _canonical_coset(sol, nullspace(rows))
    inner = inner_derivation(a, x, name=f"ad_{d.name}")
    residu = tuple(tuple(p - q for p, q in zip(dr, ir))
                   for dr, ir in zip(d.matrix, inner.matrix))
    dprime = Derivation(name=f"{d.name}_res", matrix=residu)
    for b in wd.complement_basis:
        if any(mat_apply(dprime.matrix, b)):
            raise IntegrityError("residual derivation fails to vanish on "
                                 "the complement")
    return x, dprime


def direct_sum(*summands: AlgebraWithDerivations) -> AlgebraWithDerivations:
    """Product algebra with the componentwise action.

    All summands must declare the same generator names in the same
    order; otherwise the actions cannot be matched and the sum is
    rejected.
    """
    if not summands:
        raise ValueError("empty direct sum")
    names = tuple(d.name for d in summands[0].action.generators)
    for s in summands[1:]:
        if tuple(d.name for d in s.action.generators) != names:
            raise InvariantViolation(
                "action arity mismatch: direct sum needs identical "
                "generator names on every summand")
    offs = []
    total = 0
    for s in summands:
        offs.append(total)
        total += s.algebra.dim
    labels = []
    table = {}
    for idx, s in enumerate(summands):
        o = offs[idx]
        labels.extend(f"{idx + 1}:{lb}" for lb in s.algebra.basis_labels)
        for (i, j), prod in s.algebra.table.items():
            table[(i + o, j + o)] = {k + o: v for k, v in prod.items()}
    unit = None
    if all(s.algebra.unit is not None for s in summands):
        vec = []
        for s in summands:
            vec.extend(s.algebra.unit)
        unit = tuple(vec)
    alg = Algebra(dim=total, basis_labels=tuple(labels), table=table,
                  unit=unit)
    gens = []
    for gi, name in enumerate(names):
        mat = [[ZERO] * total for _ in range(total)]
        for idx, s in enumerate(summands):
            o = offs[idx]
            gm = s.action.generators[gi].matrix
            for i in range(s.algebra.dim):
                for j in range(s.algebra.dim):
                    if gm[i][j]:
                        mat[i + o][j + o] = gm[i][j]
        gens.append(Derivation(name=name, matrix=tuple(map(tuple, mat))))
    return AlgebraWithDerivations(alg, make_action(alg, gens))


_BUILTIN_RE = re.compile(r"^(UTk|Mk|Fn)\((\d+)\)$")


def builtin(name: str) -> AlgebraWithDerivations:
    """Named example algebras.

    UT2eps: upper triangular 2x2 with the halved diagonal commutator
    derivation. M2sl2: full 2x2 with its three inner sl2 derivations.
    UTk(k), Mk(k), Fn(n): plain algebras with empty action. Summands
    joined by '+' form direct sums.
    """
    name = name.strip()
    if "+" in name:
        parts = [p for p in (s.strip() for s in name.split("+")) if p]
        return direct_sum(*[builtin(p) for p in parts])
    if name == "UT2eps":
        a = _ut2eps_algebra()
        half = Fraction(1, 2)
        x = (half, -half, ZERO)  # coords on e11, e22, e12
        eps = inner_derivation(a, x, name="eps")
        return AlgebraWithDerivations(a, make_action(a, [eps]))
    if name == "M2sl2":
        a = _m2_pauli_algebra()
        half = Fraction(1, 2)
        eps = inner_derivation(a, (ZERO, half, ZERO, ZERO), name="eps")
        delta = inner_derivation(a, (ZERO, ZERO, half, ZERO), name="delta")
        gamma = inner_derivation(a, (ZERO, ZERO, ZERO, half), name="gamma")
        return AlgebraWithDerivations(a, make_action(a, [eps, delta, gamma]))
    m = _BUILTIN_RE.match(name)
    if m:
        kind, num = m.group(1), int(m.group(2))
        if num < 1:
            raise InvariantViolation(f"builtin size must be positive: {name}")
        if kind == "UTk":
            a = _ut_algebra(num)
        elif kind == "Mk":
            a = _full_matrix_algebra(num)
        else:
            a = _idempotents_algebra(num)
        return AlgebraWithDerivations(a, make_action(a, []))
    raise UnknownBuiltin(f"unknown builtin algebra {name!r}")


def _ut2eps_algebra() -> Algebra:
    labels = ("e11", "e22", "e12")
    pairs = {("e11", "e11"): "e11", ("e22", "e22"): "e22",
             ("e11", "e12"): "e12", ("e12", "e22"): "e12"}
    idx = {lb: i for i, lb in enumerate(labels)}
    table = {(idx[p], idx[q]): {idx[r]: ONE} for (p, q), r in pairs.items()}
    return Algebra(dim=3, basis_labels=labels, table=table,
                   unit=(ONE, ONE, ZERO))


def _ut_algebra(k: int) -> Algebra:
    cells = [(i, j) for i in range(1, k + 1) for j in range(i, k + 1)]
    return _matrix_units_algebra(cells, k)


def _full_matrix_algebra(k: int) -> Algebra:
    cells = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1)]
    return _matrix_units_algebra(cells, k)


def _matrix_units_algebra(cells: list, k: int) -> Algebra:
    idx = {c: i for i, c in enumerate(cells)}
    labels = tuple(f"e{i}{j}" for i, j in cells)
    table = {}
    for (i, j) in cells:
        for (p, q) in cells:
            if j == p and (i, q) in idx:
                table[(idx[(i, j)], idx[(p, q)])] = {idx[(i, q)]: ONE}
    unit = [ZERO] * len(cells)
    for i in range(1, k + 1):
        unit[idx[(i, i)]] = ONE
    return Algebra(dim=len(cells), basis_labels=labels, table=table,
                   unit=tuple(unit))


def _m2_pauli_algebra() -> Algebra:
    """Basis u0 = 1, u1 = e11 - e22, u2 = e12 + e21, u3 = e12 - e21."""
    labels = ("u0", "u1", "u2", "u3")
    one = ONE
    t = {}
    def put(i, j, vals):
        t[(i, j)] = {k: as_scalar(v) for k, v in vals.items() if v}
    for i in range(4):
        put(0, i, {i: 1})
        put(i, 0, {i: 1})
    put(1, 1, {0: 1})
    put(2, 2, {0: 1})
    put(3, 3, {0: -1})
    put(1, 2, {3: 1})
    put(2, 1, {3: -1})
    put(1, 3, {2: 1})
    put(3, 1, {2: -1})
    put(2, 3, {1: -1})
    put(3, 2, {1: 1})
    return Algebra(dim=4, basis_labels=labels, table=t,
                   unit=(one, ZERO, ZERO, ZERO))


def _idempotents_algebra(n: int) -> Algebra:
    labels = tuple(f"f{i + 1}" for i in range(n))
    table = {(i, i): {i: ONE} for i in range(n)}
    unit = tuple(ONE for _ in range(n))
    return Algebra(dim=n, basis_labels=labels, table=table, unit=unit)
