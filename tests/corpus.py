"""Seeded generators for random split test algebras.

Every algebra here is split over the rationals by construction: matrix
unit cell algebras, truncated polynomial algebras, pure nilpotent
algebras, and small direct sums of those. Actions are random inner
derivations, which satisfy Leibniz automatically and keep the radical
stable. Each instance carries exactly two generators named d0, d1 so
any two corpus members can be direct-summed.
"""

import random
from fractions import Fraction

from diffpi import (Algebra, AlgebraWithDerivations, inner_derivation,
                    make_action)
from diffpi.linalg import sparse

ONE = Fraction(1)


def cells_algebra(cells) -> Algebra:
    """Matrix unit span for a multiplicatively closed set of cells."""
    cells = sorted(cells)
    idx = {c: t for t, c in enumerate(cells)}
    table = {}
    for a, (i, j) in enumerate(cells):
        for b, (p, q) in enumerate(cells):
            if j == p:
                if (i, q) not in idx:
                    raise ValueError(f"cells not closed at {(i, j)}*{(p, q)}")
                table[(a, b)] = {idx[(i, q)]: ONE}
    rows = {i for i, _ in cells} | {j for _, j in cells}
    unit = None
    if all((i, i) in idx for i in rows):
        unit = tuple(ONE if cells[t][0] == cells[t][1] else Fraction(0)
                     for t in range(len(cells)))
    labels = tuple(f"e{i}{j}" for i, j in cells)
    return Algebra(dim=len(cells), basis_labels=labels, table=table,
                   unit=unit)


def truncated_poly(m: int, unital: bool) -> Algebra:
    """F[t]/(t^m) with basis 1, t, .., t^(m-1), or its radical t, .., t^(m-1)."""
    lo = 0 if unital else 1
    degs = list(range(lo, m))
    idx = {d: t for t, d in enumerate(degs)}
    table = {}
    for a, d1 in enumerate(degs):
        for b, d2 in enumerate(degs):
            if d1 + d2 in idx:
                table[(a, b)] = {idx[d1 + d2]: ONE}
    unit = None
    if unital:
        unit = tuple(ONE if t == 0 else Fraction(0) for t in range(len(degs)))
    labels = tuple(f"t{d}" for d in degs)
    return Algebra(dim=len(degs), basis_labels=labels, table=table, unit=unit)


def _plain_sum(a: Algebra, b: Algebra) -> Algebra:
    table = {}
    for (i, j), prod in a.table.items():
        table[(i, j)] = dict(prod)
    off = a.dim
    for (i, j), prod in b.table.items():
        table[(i + off, j + off)] = {k + off: v for k, v in prod.items()}
    unit = None
    if a.unit is not None and b.unit is not None:
        unit = tuple(a.unit) + tuple(b.unit)
    labels = tuple(f"1:{s}" for s in a.basis_labels) + \
        tuple(f"2:{s}" for s in b.basis_labels)
    return Algebra(dim=a.dim + b.dim, basis_labels=labels, table=table,
                   unit=unit)


def _base_algebra(rng: random.Random) -> Algebra:
    kind = rng.randrange(8)
    if kind == 0:
        # split semisimple, 1 to 4 one-dimensional blocks
        m = rng.randint(1, 4)
        return cells_algebra([(i, i) for i in range(m)])
    if kind == 1:
        # UT2: the linked pair pattern
        return cells_algebra([(0, 0), (1, 1), (0, 1)])
    if kind == 2:
        # three idempotents plus one strict cell
        i = rng.randrange(3)
        j = rng.randrange(3)
        if i >= j:
            i, j = 0, rng.randint(1, 2)
        return cells_algebra([(0, 0), (1, 1), (2, 2), (i, j)])
    if kind == 3:
        return truncated_poly(rng.randint(2, 4), unital=True)
    if kind == 4:
        # pure nilpotent, exponent zero
        return truncated_poly(rng.randint(2, 4), unital=False)
    if kind == 5:
        # full 2x2 matrices, the big block obstruction
        return cells_algebra([(0, 0), (0, 1), (1, 0), (1, 1)])
    if kind == 6:
        small = [
            cells_algebra([(0, 0)]),
            truncated_poly(2, unital=True),
            truncated_poly(2, unital=False),
            truncated_poly(3, unital=False),
        ]
        a = small[rng.randrange(len(small))]
        b = small[rng.randrange(len(small))]
        if a.dim + b.dim > 4:
            b = small[0]
        return _plain_sum(a, b)
    # UT2 plus a disjoint idempotent
    return _plain_sum(cells_algebra([(0, 0), (1, 1), (0, 1)]),
                      cells_algebra([(0, 0)]))


def random_split_algebra(seed: int) -> AlgebraWithDerivations:
    rng = random.Random(seed)
    a = _base_algebra(rng)
    assert a.dim <= 4
    ders = []
    for t in range(2):
        x = sparse(tuple(Fraction(rng.randint(-2, 2)) for _ in range(a.dim)))
        ders.append(inner_derivation(a, x, name=f"d{t}"))
    return AlgebraWithDerivations(a, make_action(a, ders))


def corpus(count: int, seed: int = 0) -> list:
    return [random_split_algebra(seed * 10_000 + t) for t in range(count)]


# parser round-trip corpus: pairwise distinct, written against the
# UT2eps operator alphabet {eps}
PARSER_CORPUS = [
    "x1",
    "-x1",
    "x1^eps",
    "2 x1",
    "-3/4 x1^eps",
    "x1*x2",
    "x2*x1",
    "x1*x2 - x2*x1",
    "[x1,x2]",
    "[x2,x1]",
    "x1^eps*x2",
    "x1*x2^eps",
    "x1^eps*x2^eps",
    "[x1,x2]^eps",
    "[x1,x2]^eps - [x1,x2]",
    "[x1,[x2,x3]]",
    "[[x1,x2],x3]",
    "(x1*x2)*x3",
    "x1*(x2*x3)",
    "x1*x2*x3",
    "x3*x1*x2",
    "x1^eps*x2*x3",
    "x1*x2^eps*x3^eps",
    "(x1*x2)^eps*x3",
    "[x1,x2]*x3 + x3*[x1,x2]",
    "1/2 x1*x2 + 1/2 x2*x1",
    "2/3 [x1,x2]^eps - 5 x2^eps*x1",
    "x1*x2*x3*x4",
    "[x1,x2]*[x3,x4]",
    "(x1*x2*x3*x4)^eps",
    "x4^eps*x3*x2*x1",
    "7 x1 - 7 x1^eps",
    "x2^eps*x1^eps",
    "[x1,[x2,x3]] - [[x1,x2],x3]",
]
