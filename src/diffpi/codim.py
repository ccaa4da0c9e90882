"""Codimension sequences by evaluation rank.

The degree-n multilinear space maps into functions (basis tuples -> A)
by substituting basis vectors for variables; the codimension is the rank
of that evaluation. Columns are indexed by (input tuple, output
coordinate).

Every evaluation row is built by one prefix-product step (_step): a row
blocked by input tuple, {t: w(t)}, times one label's images op_h(e_b)
is {t*dim + b: w(t) op_h(e_b)}, one Algebra.product per block and only
nonzero blocks kept. n steps give the row of an identity-order monomial
x_1^{h_1} ... x_n^{h_n}; evaluate() takes the same step with one image
per position.

Evaluation is S_n-equivariant, so the row of any other variable order
is that row with the digits of its input-tuple columns permuted
(permuted_row). monomial_row() is one walk and one move. The rows of the
identity-order monomials span W_n = mu(W_{n-1} (x) E), so a basis of
W_{n-1} stepped with each label spans W_n, and the image is the closure
of W_n under the n-1 adjacent swaps. c_n^L is the dimension of that
closure, and c_n the dimension of the closure of the one identity-label
row.

codim() is the one evaluation pass per degree: it returns both closures
as RowSpans, and the module traces of characters.py read those spans by
moving columns, never by evaluating or eliminating again.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Optional, Sequence

from .algebra import Algebra
from .errors import BudgetExceeded
from .freediff import (DiffMonomial, DiffPoly, OperatorBasis, adjacent_swaps,
                       consequences, mat_apply, validate_multilinear)
from .linalg import ONE, ZERO, RowSpan, as_scalar, combine, sparse

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


def permuted_row(row: dict, g: tuple, n: int, dim: int) -> dict:
    """Row of g.m from the row of m, at degree n.

    g.m at the input tuple t has the value of m at the tuple s with
    t[g[v]] = s[v], so column (s, c) moves to (t, c): digit v of the
    column index moves from place dim^(n-v) to place dim^(n-g[v]). Only
    the digits g moves are read, and only at the row's nonzero columns.
    """
    moved = [(dim ** (n - v), dim ** (n - g[v]) - dim ** (n - v))
             for v in range(n) if g[v] != v]
    out = {}
    for col, x in row.items():
        new = col
        for p, d in moved:
            new += col // p % dim * d
        out[new] = x
    return out


def _step(a: Algebra, blocks: dict, imgs: list) -> dict:
    """One prefix-product step: {t: w(t)} times one label's images
    imgs[b] = op_h(e_b) is {t*dim + b: w(t) op_h(e_b)}, nonzero products
    only. The empty prefix is {0: None}."""
    dim = a.dim
    out = {}
    for t, vec in blocks.items():
        for b, img in enumerate(imgs):
            prod = img if vec is None else a.product(vec, img)
            if prod:
                out[t * dim + b] = prod
    return out


def _flat(blocks: dict, dim: int) -> dict:
    """Evaluation row of a blocked row {t: w(t)}."""
    return {t * dim + c: v for t, vec in blocks.items()
            for c, v in vec.items()}


def _images(a: Algebra, op) -> list:
    return [mat_apply(op, {b: ONE}) for b in range(a.dim)]


def monomial_row(a: Algebra, ob: OperatorBasis, m: DiffMonomial) -> dict:
    """Evaluation row of a single monomial (columns as above): the row of
    its labels in identity order, moved to its variable order."""
    blocks = {0: None}
    for h in m.labels:
        blocks = _step(a, blocks, _images(a, ob.ops[h]))
    return permuted_row(_flat(blocks, a.dim), m.perm, len(m.perm), a.dim)


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
    quotient: RowSpan   # span of the evaluation rows, the image
    ordinary: RowSpan   # the same for identity labels only


def _closure_rows(a: Algebra, images: list, n: int) -> RowSpan:
    """The S_n-closure of the identity-order span at degree n, for the
    labels whose image tables are given."""
    dim = a.dim
    blocked = [{0: None}]
    for _ in range(n):
        # a basis of W_j stepped with every label spans W_(j+1)
        span = RowSpan()
        steps = (_step(a, w, imgs) for w in blocked for imgs in images)
        blocked = [w for w in steps if span.insert(_flat(w, dim))]
    # span holds W_n; every accepted row goes through every swap, and
    # rows accepted on the way join the list being walked
    rows = [_flat(w, dim) for w in blocked]
    swaps = adjacent_swaps(n)
    for row in rows:
        for g in swaps:
            moved = permuted_row(row, g, n, dim)
            if span.insert(moved):
                rows.append(moved)
    return span


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
    images = [_images(a, op) for op in ops]
    ordinary = _closure_rows(a, images[:1], n)
    # with one label (ordinary_only, or a trivial action) they coincide
    quotient = ordinary if len(images) == 1 else _closure_rows(a, images, n)
    return CodimResult(n=n, c_n_L=len(quotient), c_n_ordinary=len(ordinary),
                       quotient=quotient, ordinary=ordinary)


def evaluate(p: DiffPoly, args: Sequence, a: Algebra,
             ob: OperatorBasis) -> dict:
    """Value of p, as a sparse vector, at the given algebra elements (one
    per variable), each given by its a.dim exact coordinates."""
    n = validate_multilinear(p)
    if len(args) != n:
        raise ValueError(f"need {n} arguments, got {len(args)}")
    args = [tuple(as_scalar(x) for x in v) for v in args]
    for v in args:
        if len(v) != a.dim:
            raise ValueError(f"an argument has {len(v)} coordinates, "
                             f"the algebra has dimension {a.dim}")
    args = [sparse(v) for v in args]
    out = {}
    for m, coeff in p.terms.items():
        # one image per position keeps the single block at t = 0
        blocks = {0: None}
        for v, h in zip(m.perm, m.labels):
            blocks = _step(a, blocks, [mat_apply(ob.ops[h], args[v])])
        out = combine({0: ONE, 1: coeff}, (out, blocks.get(0, {})))
    return out


def is_identity(p: DiffPoly, a: Algebra, ob: OperatorBasis) -> bool:
    """True iff p vanishes under every substitution of basis vectors.

    Multilinearity makes basis tuples sufficient.
    """
    validate_multilinear(p)
    if p.is_zero():
        return True
    return not poly_row(a, ob, p)


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
