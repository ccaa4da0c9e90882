"""Codimension sequences by evaluation rank.

The degree-n multilinear space maps into functions (basis tuples -> A)
by substituting basis vectors for variables; the codimension is the rank
of that evaluation. Columns are indexed by (input tuple, output
coordinate).

The image is built without evaluating every monomial. Rows of the
identity-order monomials x_1^{h_1} ... x_n^{h_n} span
W_n = mu(W_{n-1} (x) E): the row of w * x_n^h at (t, b) is the value of
w at t times op_h(e_b), one Algebra.product per block. A basis of
W_{n-1} times each operator therefore spans W_n. Evaluation is
S_n-equivariant and the identity-order monomials reach every monomial
under S_n, so the image is the closure of W_n under the n-1 adjacent
swaps of the input tuple; a swap only relabels a row's columns. c_n^L is
the dimension of that closure, and c_n the dimension of the closure of
the one identity-label row.

codim() is the one evaluation pass per degree: it returns basis rows of
both closures, and the module traces of characters.py act on these by
moving columns, never by evaluating again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb, factorial
from typing import Optional, Sequence

from .algebra import Algebra
from .errors import BudgetExceeded, NotMultilinear
from .freediff import (DiffMonomial, DiffPoly, OperatorBasis, consequences,
                       mat_apply, validate_multilinear)
from .linalg import ZERO, RowSpan, sparse

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
    quotient_rows: tuple   # evaluation rows, a basis of the image
    ordinary_rows: tuple   # the same for identity labels only


def _prefix_rows(a: Algebra, images: list, rows: Optional[list]):
    """Row of w * x^h for each row w of degree j (None: j = 0) and each
    label's image table images[h][b] = op_h(e_b), in degree j + 1."""
    dim = a.dim
    if rows is None:
        for imgs in images:
            yield {b * dim + c: v for b, img in enumerate(imgs)
                   for c, v in img.items()}
        return
    for row in rows:
        blocks: dict = {}
        for col, v in row.items():
            t, c = divmod(col, dim)
            blocks.setdefault(t, {})[c] = v
        for imgs in images:
            out = {}
            for t, vec in blocks.items():
                for b, img in enumerate(imgs):
                    for c, v in a.product(vec, img).items():
                        out[(t * dim + b) * dim + c] = v
            yield out


def _closure_rows(a: Algebra, images: list, n: int) -> list:
    """Basis rows of the S_n-closure of the identity-order span at
    degree n, for the labels whose image tables are given."""
    from .characters import permuted_row  # characters imports codim
    rows = None
    for _ in range(n):
        span = RowSpan()
        rows = [r for r in _prefix_rows(a, images, rows) if span.insert(r)]
    swaps = [tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n))
             for i in range(n - 1)]
    # span holds W_n; every accepted row goes through every swap, and
    # rows accepted on the way join the list being walked
    for row in rows:
        for g in swaps:
            moved = permuted_row(row, g, n, a.dim)
            if span.insert(moved):
                rows.append(moved)
    return rows


def codim(a: Algebra, ob: OperatorBasis, n: int,
          ordinary_only: bool = False,
          budget: Optional[int] = None) -> CodimResult:
    """Differential and ordinary codimension at degree n.

    With ordinary_only=True only the identity label is evaluated and
    both reported numbers are the ordinary codimension.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    ensure_budget(n, 1 if ordinary_only else ob.k, a.dim, budget)
    ops = ob.ops[:1] if ordinary_only else ob.ops
    images = [[sparse(mat_apply(op, a.basis_vector(b))) for b in range(a.dim)]
              for op in ops]
    ordinary = _closure_rows(a, images[:1], n)
    # with one label (ordinary_only, or a trivial action) they coincide
    quotient = ordinary if len(images) == 1 else _closure_rows(a, images, n)
    return CodimResult(n=n, c_n_L=len(quotient),
                       c_n_ordinary=len(ordinary),
                       quotient_rows=tuple(quotient),
                       ordinary_rows=tuple(ordinary))


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
    validate_multilinear(p)
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
