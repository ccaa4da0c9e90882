"""Finite dimensional algebras with derivations, over exact rationals.

An Algebra is a structure constant table on a chosen basis. Derivations
are matrices checked against the Leibniz rule. The module computes the
nil radical (trace form criterion on the unitalization), a rational
splitting of the semisimple quotient into simple blocks by its primitive
central idempotents, a multiplicative section lifting the quotient back
into the algebra (so block idempotents are exact), and the decomposition
of a derivation into an inner part and a remainder vanishing on the
lifted complement.

Every algebra element is a sparse vector, a dict {index: Fraction}
holding only the nonzero coordinates; Algebra.product is the one
multiplication loop, and it keeps ints as ints for the integer
multiples that codim's closure steps on. Every linear map is the tuple
of its column images, f[j] = f(e_j), and every linear system is given
by its sparse columns. Dense coordinates appear only where data enters
or leaves: the declared unit and the rows of a derivation matrix.

Every result is deterministic: it depends on the input alone, never on
dict iteration order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm
from typing import NamedTuple, Optional, Sequence

from .errors import (IntegrityError, InvariantViolation, NonSplit,
                     UnknownBuiltin)
from .linalg import (ONE, ZERO, RowSpan, as_scalar, combine, compose,
                     coordinates, nullspace, solve, sparse, stack,
                     to_columns, to_rows, trace)

Vector = dict  # sparse: {index: Fraction}, nonzero entries only


@dataclass(frozen=True)
class Algebra:
    """Structure constant algebra. table[(i, j)][k] = coefficient of
    e_k in e_i e_j; absent entries are zero."""

    dim: int
    basis_labels: tuple
    table: dict
    unit: Optional[tuple] = None  # dense coordinates, as declared

    def __post_init__(self):
        if len(self.basis_labels) != self.dim:
            raise InvariantViolation("basis label count differs from dim")

    @cached_property
    def support(self) -> tuple:
        """support[i] is the set of j with (i, j) in the table: the right
        factors e_j that e_i can multiply to something nonzero."""
        out = [set() for _ in range(self.dim)]
        for (i, j), prod in self.table.items():
            if prod:
                out[i].add(j)
        return tuple(frozenset(s) for s in out)

    def product(self, u: dict, v: dict) -> dict:
        """Product of sparse vectors: only pairs of nonzero coordinates
        are visited, and only nonzero entries are returned. No zero seeds
        a sum, so int tables and int vectors give int products."""
        table = self.table
        out: dict = {}
        for i, ui in u.items():
            for j, vj in v.items():
                prod = table.get((i, j))
                if prod:
                    c = ui * vj
                    for k, w in prod.items():
                        x = c * w
                        out[k] = out[k] + x if k in out else x
        return {k: x for k, x in out.items() if x}

    def bracket(self, u: dict, v: dict) -> dict:
        """The commutator u v - v u of sparse vectors."""
        return combine({0: ONE, 1: -ONE}, (self.product(u, v),
                                           self.product(v, u)))

    def multiply(self, u: Sequence, v: Sequence) -> tuple:
        """Product of dense coordinate vectors, through product(). No
        caller in the library uses it; it stays because the benchmark's
        tracer counts calls to Algebra.multiply by that name."""
        w = self.product(sparse(u), sparse(v))
        return tuple(w.get(k, ZERO) for k in range(self.dim))

    def associativity_witness(self):
        """First basis triple (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k),
        or None."""
        vecs = [{i: ONE} for i in range(self.dim)]
        prods = [[self.product(u, v) for v in vecs] for u in vecs]
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    if (self.product(prods[i][j], vecs[k])
                            != self.product(vecs[i], prods[j][k])):
                        return (i, j, k)
        return None

    def ensure_associative(self) -> None:
        """Raise InvariantViolation naming the first basis triple of
        associativity_witness, if there is one."""
        w = self.associativity_witness()
        if w is not None:
            x, y, z = (self.basis_labels[i] for i in w)
            raise InvariantViolation(f"table is not associative: "
                                     f"({x}*{y})*{z} != {x}*({y}*{z})", w)

    def unit_witness(self):
        """Basis index where the declared unit fails, or None."""
        if self.unit is None:
            return None
        unit = sparse(self.unit)
        for i in range(self.dim):
            e = {i: ONE}
            if self.product(unit, e) != e or self.product(e, unit) != e:
                return i
        return None


@dataclass(frozen=True)
class Derivation:
    """Linear map given by its matrix (rows), expected to satisfy Leibniz.

    The dense rows are how a derivation enters and leaves; the library
    computes with its column images."""

    name: str
    matrix: tuple

    @cached_property
    def columns(self) -> tuple:
        """The column images: columns[j] = d(e_j), a sparse vector."""
        return to_columns(self.matrix)

    def leibniz_witness(self, a: Algebra):
        """First basis pair (i, j) violating d(xy) = d(x)y + x d(y), or None."""
        vecs = [{i: ONE} for i in range(a.dim)]
        img = self.columns
        for i in range(a.dim):
            for j in range(a.dim):
                lhs = combine(a.product(vecs[i], vecs[j]), img)
                rhs = combine({0: ONE, 1: ONE}, (a.product(img[i], vecs[j]),
                                                 a.product(vecs[i], img[j])))
                if lhs != rhs:
                    return (i, j)
        return None


def inner_derivation(a: Algebra, x: dict, name: str = "ad") -> Derivation:
    """The commutator map v -> x v - v x."""
    cols = [a.bracket(x, {j: ONE}) for j in range(a.dim)]
    return Derivation(name=name, matrix=to_rows(cols))


class DerivationAction(NamedTuple):
    """Generating derivations plus the Lie algebra they span, each
    element of lie_basis a map held as column images."""

    generators: tuple
    lie_basis: tuple
    killing_nondegenerate: bool

    @property
    def lie_dim(self) -> int:
        return len(self.lie_basis)


def _commutator(x, y):
    return tuple(combine({0: ONE, 1: -ONE}, (u, v))
                 for u, v in zip(compose(x, y), compose(y, x)))


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
    # right-normed brackets [g1, [g2, ... [g(r-1), gr]]] span the Lie
    # algebra the generators make, so close span(gens) under ad of each
    # generator, with basis as its own queue
    span = RowSpan()
    basis = [d.columns for d in gens
             if span.insert(stack(enumerate(d.columns), a.dim))]
    independent = list(basis)
    for x in basis:  # reads the brackets it appends
        for g in independent:
            c = _commutator(g, x)
            if span.insert(stack(enumerate(c), a.dim)):
                basis.append(c)
    # Killing form on the closed Lie algebra; column j of ad_b is the
    # coordinates of [b, basis_j]
    nondeg = True
    if basis:
        coords = coordinates([stack(enumerate(b), a.dim) for b in basis])
        ad = [tuple(coords(stack(enumerate(_commutator(b, c)), a.dim)) or {}
                    for c in basis) for b in basis]
        gram = [sparse([trace(compose(x, y)) for x in ad]) for y in ad]
        nondeg = not nullspace(gram)
    return DerivationAction(generators=tuple(gens), lie_basis=tuple(basis),
                            killing_nondegenerate=nondeg)


class AlgebraWithDerivations(NamedTuple):
    algebra: Algebra
    action: DerivationAction


def check_l_stability(a: Algebra, act: DerivationAction,
                      subspace: Sequence[Vector]) -> bool:
    """True iff every generating derivation maps the subspace into itself."""
    span = RowSpan()
    for v in subspace:
        span.insert(v)
    for d in act.generators:
        for v in subspace:
            if not span.contains(combine(v, d.columns)):
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
    table, support = a.table, a.support
    t = [sum((table[(i, j)].get(j, ZERO) for j in support[i]), ZERO)
         for i in range(a.dim)]

    def tr(v: Vector) -> Fraction:
        return sum((x * t[k] for k, x in v.items()), ZERO)
    # column j holds tr(e_j y) for y = e_0, ..., e_(dim-1), then 1; the
    # pairs outside the table give 0
    cols = []
    for j in range(a.dim):
        col = {y: x for y in sorted(support[j])
               if (x := tr(table[(j, y)]))}
        if t[j]:
            col[a.dim] = t[j]
        cols.append(col)
    return nullspace(cols)


def span_products(a: Algebra, left: Sequence[Vector],
                  right: Sequence[Vector]) -> list[Vector]:
    """Basis of span{u v : u in left, v in right}: the products that
    are independent of the ones before them, in that order.

    u v is zero unless some coordinate of v is in a.support of some
    coordinate of u, and a zero product never enlarges the span, so
    only the v that pass this test are multiplied, in their order."""
    at: dict = {}  # coordinate -> the positions in right that hold it
    for p, v in enumerate(right):
        for j in v:
            at.setdefault(j, []).append(p)
    support = a.support
    span = RowSpan()
    out = []
    for u in left:
        reach = set().union(*(support[i] for i in u)).intersection(at)
        for p in sorted({p for j in reach for p in at[j]}):
            w = a.product(u, right[p])
            if span.insert(w):
                out.append(w)
    return out


def radical_powers(a: Algebra, rad: Sequence[Vector]) -> list[list[Vector]]:
    """Bases of J, J^2, ... down to the last nonzero power.

    Raises InvariantViolation if the chain fails to reach zero, which
    cannot happen for an associative input.
    """
    powers = []
    current = list(rad)
    while current:
        powers.append(current)
        nxt = span_products(a, rad, current)
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
    with 1_i J 1_j != 0. Every vector is sparse.
    """

    radical_basis: tuple
    nilpotency_index: int
    block_dims: tuple
    block_idempotents: tuple
    block_bases: tuple
    complement_basis: tuple
    radical_path_graph: frozenset
    radical_power_bases: tuple


def _cosets(sub: Sequence[Vector], dim: int):
    """(reps, rep) for span(sub) in Q^dim: reps lists the columns that
    are no pivot of its echelon, and rep(v) is the one vector on reps
    congruent to v modulo span(sub): the multipliers RowSpan.express
    takes off the unit rows {c: 1}, c in reps, that complete the span."""
    span = RowSpan()
    for v in sub:
        span.insert(v)
    reps = [c for c in range(dim) if c not in span.pivots]
    free = set(reps)
    for c in reps:
        span.insert({c: ONE})
    return reps, lambda v: {c: x for c, x in span.express(v).items()
                            if c in free}


def _quotient(a: Algebra, rad: Sequence[Vector]):
    """Quotient algebra A / span(rad) with canonical coordinate reps.

    Returns (quotient Algebra, rep column indices): quotient basis
    vector i is the class of e_{reps[i]}.
    """
    reps, rep = _cosets(rad, a.dim)
    m = len(reps)
    table = {}
    for i in range(m):
        for j in range(m):
            w = rep(a.product({reps[i]: ONE}, {reps[j]: ONE}))
            prod = {k: w[c] for k, c in enumerate(reps) if c in w}
            if prod:
                table[(i, j)] = prod
    labels = tuple(a.basis_labels[c] for c in reps)
    return Algebra(dim=m, basis_labels=labels, table=table), reps


def _center(q: Algebra) -> list[Vector]:
    """Basis of the center of q: the z with z e_p = e_p z for every p."""
    cols = [stack(enumerate(q.bracket({b: ONE}, {p: ONE})
                            for p in range(q.dim)), q.dim)
            for b in range(q.dim)]
    return nullspace(cols)


def _minpoly(f: Sequence[Vector]) -> list[Fraction]:
    """Minimal polynomial of a nonempty square map f, held as column
    images, as the list [c_0, ..., c_{d-1}] with f^d = sum c_i f^i, d the
    degree: the polynomial is t^d - sum c_i t^i, the form that
    _rational_roots reads.
    """
    n = len(f)
    powers, power = [], tuple({j: ONE} for j in range(n))
    span = RowSpan()
    flat = stack(enumerate(power), n)
    while span.insert(flat):
        powers.append(flat)
        power = compose(f, power)
        flat = stack(enumerate(power), n)
    combo = coordinates(powers)(flat)
    return [combo.get(i, ZERO) for i in range(len(powers))]


def _rational_roots(minrel: list[Fraction]) -> list[Fraction]:
    """Distinct rational roots of p(t) = t^d - sum minrel[i] t^i, in
    increasing order: all of them when p has d distinct rational roots,
    and never a number that is not a root.

    q(s) = D^d p(s/D), D the lcm of the denominators, is monic with
    integer coefficients, so its rational roots are integers. If they are
    all real, Newton steps rounded down from the Cauchy bound B decrease
    onto the largest, by 1/d of the gap or more, and reach it within
    d * (bits of B + 2) steps; it is divided out and the search goes on
    from it. A search that overruns or leaves [-B, B] stops.
    """
    d = len(minrel)
    den = lcm(*(c.denominator for c in minrel))
    q = [int(-c * den ** (d - i)) for i, c in enumerate(minrel)] + [1]
    bound = 1 + max(map(abs, q))
    x, roots = bound, set()
    steps = per_root = d * (bound.bit_length() + 2)
    while len(q) > 1 and steps >= 0 and -bound <= x <= bound:
        val = slope = 0
        for c in reversed(q):  # Horner for q(x) and q'(x)
            slope, val = slope * x + val, val * x + c
        if val == 0:  # divide q by s - x
            roots.add(x)
            quotient = []
            for c in reversed(q[1:]):
                val = val * x + c
                quotient.append(val)
            q, steps = quotient[::-1], per_root
        elif slope == 0:
            break
        else:
            x, steps = x + (-val // slope), steps - 1
    return sorted(Fraction(r, den) for r in roots)


def _central_idempotents(q: Algebra) -> list[Vector]:
    """Primitive central idempotents of the semisimple algebra q.

    The center Z is split by the eigenspaces of multiplication by a
    central z, each piece in its own coordinates, until every piece is a
    line; a line spanned by v has v v = c v, and v / c is the idempotent.
    The candidates for z are the piece's basis vectors. A piece is a
    product of fields K_1 x ... x K_s. If every K_i is Q, at most one
    basis vector is a multiple of the piece's unit and any other one has
    at least two eigenvalues, all rational, so it splits the piece. If
    some K_i is not Q, no central element cuts K_i down to a line, and
    NonSplit is the only outcome.
    """
    def split(piece: list[Vector]) -> list[Vector]:
        coords = coordinates(piece)
        if len(piece) == 1:
            c = coords(q.product(piece[0], piece[0]))
            if not c:
                raise IntegrityError("central line holds no idempotent")
            return [combine({0: 1 / c[0]}, piece)]
        for z in piece:
            # multiplication by z on the piece
            mul = tuple(coords(q.product(z, p)) for p in piece)
            if None in mul:
                raise IntegrityError("center not closed under product")
            minrel = _minpoly(mul)
            roots = _rational_roots(minrel)
            # the roots are distinct, so the minimal polynomial splits
            # into linear factors iff it has as many roots as its degree
            if len(roots) != len(minrel) or len(roots) < 2:
                continue
            out = []
            for r in roots:
                cols = [combine({0: ONE, 1: -r}, (w, {j: ONE}))
                        for j, w in enumerate(mul)]
                out.extend(split([combine(coeffs, piece)
                                  for coeffs in nullspace(cols)]))
            return out
        raise NonSplit("semisimple quotient does not split over the "
                       "rationals: its center has a field factor other "
                       "than Q")

    center = _center(q)
    return split(center) if center else []


def _lift_section(a: Algebra, q: Algebra, reps: list[int],
                  jpowers: list[list[Vector]]) -> list[Vector]:
    """Multiplicative section s: A/J -> A, built order by order.

    Start from the coordinate section and correct it along the radical
    filtration: at each stage the multiplicativity defect lies one power
    of J deeper, and a linear solve (always consistent, the quotient
    being separable) removes it modulo the next power.
    """
    m = q.dim
    sec = [{c: ONE} for c in reps]
    qprod = {(al, be): q.product({al: ONE}, {be: ONE})
             for al in range(m) for be in range(m)}

    nil = len(jpowers) + 1  # q index: J^nil = 0
    for k in range(1, nil):
        defects = {(al, be): combine({0: ONE, 1: -ONE},
                                     (combine(qprod[(al, be)], sec),
                                      a.product(sec[al], sec[be])))
                   for al in range(m) for be in range(m)}
        if not any(defects.values()):
            return sec
        jk = jpowers[k - 1]
        jk1 = jpowers[k] if k < len(jpowers) else []
        span_k = RowSpan()
        for v in jk1:
            span_k.insert(v)
        lifts = [v for v in jk if span_k.insert(v)]
        T, low = len(lifts), len(jk1)
        coords = coordinates(jk1 + lifts)

        def pi(vec: Vector) -> Vector:
            combo = coords(vec)
            if combo is None:
                raise IntegrityError("defect escaped the radical filtration")
            return {c - low: x for c, x in combo.items() if c >= low}

        # unknowns G[gamma][t] at gamma*T + t, g(x_gamma) = sum_t G[gamma][t]
        # lifts[t]; equation (alpha, beta, c) at (alpha*m + beta)*T + c is
        # coordinate c of g(x_a) s(x_b) + s(x_a) g(x_b) - g(x_a x_b) = defect
        right_mul = [[pi(a.product(lifts[t], sec[be])) for be in range(m)]
                     for t in range(T)]
        left_mul = [[pi(a.product(sec[al], lifts[t])) for t in range(T)]
                    for al in range(m)]
        cols = []
        for ga in range(m):
            for t in range(T):
                qterm = stack(((al * m + be, {t: prod[ga]})
                               for (al, be), prod in qprod.items()
                               if ga in prod), T)
                rterm = stack(((ga * m + be, right_mul[t][be])
                               for be in range(m)), T)
                lterm = stack(((al * m + ga, left_mul[al][t])
                               for al in range(m)), T)
                cols.append(combine({0: -ONE, 1: ONE, 2: ONE},
                                    (qterm, rterm, lterm)))
        sol = solve(cols, stack(((al * m + be, pi(defects[(al, be)]))
                                 for al in range(m) for be in range(m)), T))
        if sol is None:
            raise IntegrityError("section correction system inconsistent; "
                                 "quotient is not separable")
        for ga in range(m):
            g = {1 + t: sol[ga * T + t] for t in range(T) if ga * T + t in sol}
            sec[ga] = combine({0: ONE, **g}, (sec[ga], *lifts))
    # final exactness check
    for al in range(m):
        for be in range(m):
            if combine(qprod[(al, be)], sec) != a.product(sec[al], sec[be]):
                raise IntegrityError("lifted section is not multiplicative")
    return sec


def _blocks(q: Algebra) -> tuple:
    """(units, bases, dims) of the simple blocks of the semisimple
    algebra q: block i is units[i] q, spanned by bases[i] and isomorphic
    to M_(dims[i])(Q). The order is canonical (by leading coordinate of
    the unit, then dimension, then the unit). Raises NonSplit when q is
    not a sum of matrix algebras over the rationals."""
    units = _central_idempotents(q)
    basis = [{i: ONE} for i in range(q.dim)]
    bases = [span_products(q, [e], basis) for e in units]
    # the last key compares units as coordinate tuples
    order = sorted(range(len(bases)), key=lambda i: (
        min(units[i]),
        len(bases[i]),
        [units[i].get(k, ZERO) for k in range(q.dim)]))
    bases = [bases[i] for i in order]
    units = [units[i] for i in order]
    dims = []
    for b in bases:
        n = isqrt(len(b))
        if n * n != len(b):
            raise NonSplit(f"simple block of dimension {len(b)} is not a "
                           "matrix algebra over the rationals")
        dims.append(n)
    return units, bases, dims


def wedderburn(a: Algebra) -> WedderburnData:
    """Radical plus a lifted rational block decomposition of a.

    The blocks of A/J are e A/J for its primitive central idempotents e.
    The block order is canonical (sorted by leading idempotent coordinate
    in the quotient, then dimension). Raises NonSplit when A/J is not a
    sum of matrix algebras over the rationals. When an internal check
    fails or no splitting is found, the table is scanned for
    associativity, and a non-associative table raises InvariantViolation
    instead of the IntegrityError or NonSplit.
    """
    try:
        return _wedderburn(a)
    except (IntegrityError, NonSplit):
        a.ensure_associative()
        raise


def _wedderburn(a: Algebra) -> WedderburnData:
    rad = radical(a)
    jpowers = radical_powers(a, rad)
    nil_index = len(jpowers) + 1 if rad else 1
    quotient, reps = _quotient(a, rad)
    if radical(quotient):
        raise IntegrityError("quotient by the radical still has radical")
    units_q, blocks_q, dims = _blocks(quotient)
    sec = _lift_section(a, quotient, reps, jpowers)
    block_bases = tuple(tuple(combine(v, sec) for v in b) for b in blocks_q)
    idems = tuple(combine(u, sec) for u in units_q)
    complement = tuple(v for bb in block_bases for v in bb)
    if sum(d * d for d in dims) + len(rad) != a.dim:
        raise IntegrityError("block dimensions do not add up")
    edges = set()
    for i, ei in enumerate(idems):
        eij = [w for jb in rad if (w := a.product(ei, jb))]
        for j, ej in enumerate(idems):
            if i != j and any(a.product(w, ej) for w in eij):
                edges.add((i, j))
    return WedderburnData(
        radical_basis=tuple(rad),
        nilpotency_index=nil_index,
        block_dims=tuple(dims),
        block_idempotents=idems,
        block_bases=block_bases,
        complement_basis=complement,
        radical_path_graph=frozenset(edges),
        radical_power_bases=tuple(tuple(p) for p in jpowers))


def split_derivation(a: Algebra, wd: WedderburnData, d: Derivation):
    """Write d as ad(x) + d' with d' vanishing on the lifted complement.

    If d is inner the returned d' is exactly zero. The element x is the
    canonical coset representative modulo the solution ambiguity, so the
    output is deterministic.
    """
    def ad_system(targets: Sequence[Vector]):
        """Columns and right side of [x, t] = d(t) over the targets t."""
        cols = [stack(enumerate(a.bracket({i: ONE}, tv) for tv in targets),
                      a.dim) for i in range(a.dim)]
        return cols, stack(enumerate(combine(tv, d.columns)
                                     for tv in targets), a.dim)

    cols, rhs = ad_system([{i: ONE} for i in range(a.dim)])
    sol = solve(cols, rhs)
    if sol is None:
        cols, rhs = ad_system(list(wd.complement_basis))
        sol = solve(cols, rhs)
        if sol is None:
            raise IntegrityError(
                "derivation cannot be made inner on the complement; "
                "input data violates the splitting theorem")
    x = _cosets(nullspace(cols), a.dim)[1](sol)
    inner = inner_derivation(a, x, name=f"ad_{d.name}")
    residu = [combine({0: ONE, 1: -ONE}, (u, v))
              for u, v in zip(d.columns, inner.columns)]
    dprime = Derivation(name=f"{d.name}_res", matrix=to_rows(residu))
    for b in wd.complement_basis:
        if combine(b, residu):
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
        cols = [{i + o: x for i, x in c.items()}
                for o, s in zip(offs, summands)
                for c in s.action.generators[gi].columns]
        gens.append(Derivation(name=name, matrix=to_rows(cols)))
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
        if parts:
            return direct_sum(*[builtin(p) for p in parts])
    if name == "UT2eps":
        a = _matrix_units_algebra([(1, 1), (2, 2), (1, 2)], 2)
        half = Fraction(1, 2)
        x = {0: half, 1: -half}  # coords on e11, e22, e12
        eps = inner_derivation(a, x, name="eps")
        return AlgebraWithDerivations(a, make_action(a, [eps]))
    if name == "M2sl2":
        a = _m2_pauli_algebra()
        half = Fraction(1, 2)
        eps = inner_derivation(a, {1: half}, name="eps")
        delta = inner_derivation(a, {2: half}, name="delta")
        gamma = inner_derivation(a, {3: half}, name="gamma")
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
