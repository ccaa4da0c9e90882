"""Codimension sequences by evaluation rank.

The degree-n multilinear space maps into functions (basis tuples -> A)
by substituting basis vectors for variables; the codimension is the rank
of that evaluation. Rows are indexed by monomials in their canonical
order, columns by (input tuple, output coordinate). The quotient basis
is the set of monomials whose rows extend the span, scanned in monomial
order, so it is a canonical choice of coset representatives.

A single product over each label vector and unordered input tuple is
computed once; permuted monomials reuse it with relocated columns. That
keeps the work at O(k^n dim^n) algebra products instead of n! times
that.

codim() is the one evaluation pass per degree: it returns the rows of
the differential and of the ordinary quotient basis, and the module
traces of characters.py get every permuted row from these by moving
columns, never by evaluating again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import comb, factorial
from typing import Optional, Sequence

from .algebra import Algebra
from .errors import BudgetExceeded, NotMultilinear
from .freediff import (DiffMonomial, DiffPoly, OperatorBasis, consequences,
                       mat_apply, validate_multilinear)
from .linalg import ONE, ZERO, RowSpan, sparse

DEFAULT_BUDGET = 100_776_960  # 6! * 2**6 * 3**7, the reference workload


def evaluation_cost(n: int, k: int, dim: int) -> int:
    return factorial(n) * k ** n * dim ** (n + 1)


def consequences_cost(gens: Sequence[DiffPoly], n: int, k: int) -> int:
    """Identity-order instance slots times monomial columns: a generator
    of degree d has C(n+1, d+1)·k^n instances, each a row over n!·k^n
    columns."""
    slots = sum(comb(n + 1, g.n + 1) for g in gens) * k ** n
    return slots * factorial(n) * k ** n


def _charge(what: str, n: int, cost: int, budget: Optional[int]) -> None:
    budget = DEFAULT_BUDGET if budget is None else budget
    if cost > budget:
        raise BudgetExceeded(
            f"degree {n} {what} costs {cost} units against a budget "
            f"of {budget}", n=n, cost=cost, budget=budget)


def ensure_budget(n: int, k: int, dim: int, budget: Optional[int]) -> None:
    _charge("evaluation", n, evaluation_cost(n, k, dim), budget)


def ensure_consequences_budget(gens: Sequence[DiffPoly], n: int, k: int,
                               budget: Optional[int]) -> None:
    _charge("consequence closure", n, consequences_cost(gens, n, k), budget)


def _base_tensors(a: Algebra, ob: OperatorBasis, n: int) -> dict:
    """For each label vector h, the nonzero products
    ops[h_0](e_{u_0}) ... ops[h_{n-1}](e_{u_{n-1}}) over unordered input
    tuples u, pruned as soon as a prefix product vanishes.

    Returns {h: list of (u, coords)}, coords a sparse vector.
    """
    dim, k = a.dim, ob.k
    images = [[sparse(mat_apply(op, a.basis_vector(i))) for i in range(dim)]
              for op in ob.ops]
    out = {}
    for h in product(range(k), repeat=n):
        rows = []

        def walk(p: int, u: tuple, vec: dict):
            if p == n:
                rows.append((u, vec))
                return
            for b in range(dim):
                img = images[h[p]][b]
                nxt = img if p == 0 else a.product(vec, img)
                if nxt:
                    walk(p + 1, u + (b,), nxt)

        walk(0, (), None)
        out[h] = rows
    return out


def monomial_row(a: Algebra, ob: OperatorBasis, m: DiffMonomial) -> dict:
    """Evaluation row of a single monomial (columns as above)."""
    n = len(m.perm)
    dim = a.dim
    row = {}
    for t in product(range(dim), repeat=n):
        vec = None
        for p in range(n):
            img = sparse(mat_apply(ob.ops[m.labels[p]],
                                   a.basis_vector(t[m.perm[p]])))
            vec = img if vec is None else a.product(vec, img)
            if not vec:
                break
        else:
            t_idx = 0
            for x in t:
                t_idx = t_idx * dim + x
            for c, v in vec.items():
                row[t_idx * dim + c] = v
    return row


def poly_row(a: Algebra, ob: OperatorBasis, p: DiffPoly) -> dict:
    row: dict = {}
    for m, coeff in p.terms.items():
        for col, v in monomial_row(a, ob, m).items():
            nv = row.get(col, ZERO) + coeff * v
            if nv:
                row[col] = nv
            elif col in row:
                del row[col]
    return row


@dataclass(frozen=True)
class CodimResult:
    n: int
    c_n_L: int
    c_n_ordinary: int
    quotient_basis: tuple  # DiffMonomial rows that extend the span
    quotient_rows: tuple   # evaluation row of each quotient monomial
    ordinary_basis: tuple  # identity-label monomials extending their span
    ordinary_rows: tuple


def codim(a: Algebra, ob: OperatorBasis, n: int,
          ordinary_only: bool = False,
          budget: Optional[int] = None) -> CodimResult:
    """Differential and ordinary codimension at degree n.

    With ordinary_only=True only identity labels are evaluated and both
    reported numbers coincide; the quotient basis then spans the
    ordinary multilinear quotient. Either way the ordinary basis holds
    the identity-label monomials that extend the ordinary span.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    k = 1 if ordinary_only else ob.k
    ensure_budget(n, k, a.dim, budget)
    dim = a.dim
    tensors = _base_tensors(a, ob, n) if not ordinary_only else \
        _base_tensors(a, _identity_only(ob), n)
    span = RowSpan()
    ordinary_span = RowSpan()
    quotient, quotient_rows = [], []
    ordinary, ordinary_rows = [], []
    idty = tuple([0] * n)
    for sigma in permutations(range(n)):
        for h in product(range(k), repeat=n):
            row = {}
            for u, entries in tensors[h]:
                t = [0] * n
                for p in range(n):
                    t[sigma[p]] = u[p]
                t_idx = 0
                for x in t:
                    t_idx = t_idx * dim + x
                for c, v in entries.items():
                    row[t_idx * dim + c] = v
            if span.insert(row):
                quotient.append(DiffMonomial(sigma, h))
                quotient_rows.append(row)
            if not ordinary_only and h == idty and ordinary_span.insert(row):
                ordinary.append(DiffMonomial(sigma, h))
                ordinary_rows.append(row)
    if ordinary_only:  # k = 1: both spans would take the same rows in order
        ordinary, ordinary_rows = quotient, quotient_rows
    return CodimResult(n=n, c_n_L=len(quotient),
                       c_n_ordinary=len(ordinary),
                       quotient_basis=tuple(quotient),
                       quotient_rows=tuple(quotient_rows),
                       ordinary_basis=tuple(ordinary),
                       ordinary_rows=tuple(ordinary_rows))


def _identity_only(ob: OperatorBasis) -> OperatorBasis:
    return OperatorBasis(dim=ob.dim, gen_names=(), ops=(ob.ops[0],),
                         words=((),), product_table={(0, 0): {0: ONE}},
                         gen_action=())


def evaluate(p: DiffPoly, args: Sequence, a: Algebra,
             ob: OperatorBasis) -> tuple:
    """Value of p at the given algebra elements (one per variable)."""
    n = validate_multilinear(p)
    if len(args) != n:
        raise ValueError(f"need {n} arguments, got {len(args)}")
    args = [tuple(x) for x in args]
    out = [ZERO] * a.dim
    for m, coeff in p.terms.items():
        vec = None
        for pos in range(n):
            img = sparse(mat_apply(ob.ops[m.labels[pos]], args[m.perm[pos]]))
            vec = img if vec is None else a.product(vec, img)
            if not vec:
                break
        else:
            for i, v in vec.items():
                out[i] += coeff * v
    return tuple(out)


def is_identity(p: DiffPoly, a: Algebra, ob: OperatorBasis) -> bool:
    """True iff p vanishes under every substitution of basis vectors.

    Multilinearity makes basis tuples sufficient.
    """
    n = validate_multilinear(p)
    if p.is_zero():
        return True
    row = poly_row(a, ob, p)
    return not row


def codim_via_ideal(gens: Sequence[DiffPoly], ob: OperatorBasis, n: int,
                    budget: Optional[int] = None) -> int:
    """Quotient dimension by the generated ideal at degree n.

    Independent route from codim(): builds the degree-n consequence
    space of the generators and subtracts. Varieties with the same
    generators must make both routes agree.
    """
    ensure_consequences_budget(gens, n, ob.k, budget)
    ideal = consequences(gens, n, ob)
    return factorial(n) * ob.k ** n - len(ideal)
