"""Growth classification of the differential codimension sequence.

The exponent comes from the block decomposition alone: the largest total
dimension of a set of distinct simple blocks that can be chained through
the radical with nonzero products. Polynomial growth is exponent at most
one. The module also runs the structural obstruction tests (a linked
pair of blocks, a block bigger than 1 by 1) and the cocharacter support
bound, and reports the exact codimensions it computed on the way;
agreement of all routes is what the test suite pins down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import (Algebra, AlgebraWithDerivations, Derivation,
                      WedderburnData, check_l_stability, make_action,
                      span_products, wedderburn)
from .characters import cocharacter, support_violations
from .errors import BudgetExceeded, IntegrityError, NotPolynomialGrowth
from .freediff import operator_basis
from .linalg import combine, coordinates, to_rows


def exponent(a: Algebra, wd: Optional[WedderburnData] = None) -> int:
    """PI exponent from the block structure.

    Maximum of dim(A_{i1}) + ... + dim(A_{ik}) over sequences of
    distinct blocks with A_{i1} J A_{i2} J ... J A_{ik} != 0; zero when
    there are no blocks (nilpotent algebra).

    A depth-first search over the product spans S = A_{i1} J ... J A_{ik}.
    As S J A_i J ⊆ S J, only successor blocks (S J A_i != 0) can extend
    S, so a branch stops when its total plus their unused dimensions
    cannot beat the best, and the search stops once the best uses every
    block. The worst case stays exponential: this is a longest simple
    path problem.
    """
    if wd is None:
        wd = wedderburn(a)
    blocks, rad = wd.block_bases, wd.radical_basis
    full = sum(len(bb) for bb in blocks)
    best = 0

    def extend(span: list, used: frozenset, total: int):
        nonlocal best
        best = max(best, total)
        if best == full:
            return
        through = span_products(a, span, rad)
        if not through:
            return
        nxt = [(i, s) for i, bb in enumerate(blocks)
               if i not in used and (s := span_products(a, through, bb))]
        reach = total + sum(len(blocks[i]) for i, _ in nxt)
        for i, s in nxt:
            if reach <= best:
                return
            extend(s, used | {i}, total + len(blocks[i]))

    for i, bb in enumerate(blocks):
        extend(bb, frozenset([i]), len(bb))
    return best


def detect_ut2_pattern(a: Algebra, wd: WedderburnData):
    """Witness (i, k, element) with 1_i j 1_k != 0 for distinct blocks,
    or None. Such a sandwich generates a two block pattern that already
    carries exponential growth. The pairs come from
    wd.radical_path_graph; only the witness element is recomputed."""
    for i, k in sorted(wd.radical_path_graph):
        ei, ek = wd.block_idempotents[i], wd.block_idempotents[k]
        for jb in wd.radical_basis:
            w = a.product(a.product(ei, jb), ek)
            if w:
                return (i, k, w)
    return None


@dataclass(frozen=True)
class GrowthReport:
    exponent: int
    polynomial_growth: bool
    q: int
    witness: Optional[tuple]
    hypothesis_flags: dict
    condition_results: dict
    block_dims: tuple
    radical_dim: int


def classify(awd: AlgebraWithDerivations, max_n: int = 3,
             budget: Optional[int] = None) -> GrowthReport:
    """Full growth report: exponent, obstructions, support bound, and
    the exact codimensions c_n^L and c_n for n up to max_n, fewer when
    the budget stops the cocharacters earlier."""
    a, act = awd.algebra, awd.action
    wd = wedderburn(a)
    d = exponent(a, wd)
    poly = d <= 1
    witness = detect_ut2_pattern(a, wd)
    big = [i for i, ni in enumerate(wd.block_dims) if ni > 1]
    cross = sorted(wd.radical_path_graph)
    ob = operator_basis(a, act)
    hypothesis_flags = {
        "action_semisimple": act.killing_nondegenerate,
        "radical_action_stable": check_l_stability(
            a, act, list(wd.radical_basis)),
    }
    c_vals, c_ord_vals = [], []
    support_by_n = {}
    for n in range(1, max_n + 1):
        try:
            table = cocharacter(a, ob, n, budget=budget)
        except BudgetExceeded:
            break
        c_vals.append(table.c_n_L)
        c_ord_vals.append(table.c_n)
        violations = support_violations(table, wd.nilpotency_index)
        support_by_n[n] = {
            "holds": not violations,
            "violations": [{"partition": list(lam), "multiplicity": m}
                           for lam, m in violations],
        }
    holds = [v["holds"] for v in support_by_n.values()]
    condition_results = {
        "exponent_at_most_one": d <= 1,
        "ordinary_exponent_at_most_one": d <= 1,
        "no_linked_pair_and_no_big_block": witness is None and not big,
        "block_sum_structure": (not big) and (not cross),
        "cocharacter_support": all(holds) if holds else None,
        "cocharacter_support_by_n": support_by_n,
        "codim_values": c_vals,
        "ordinary_codim_values": c_ord_vals,
    }
    return GrowthReport(
        exponent=d,
        polynomial_growth=poly,
        q=wd.nilpotency_index,
        witness=witness,
        hypothesis_flags=hypothesis_flags,
        condition_results=condition_results,
        block_dims=wd.block_dims,
        radical_dim=len(wd.radical_basis),
    )


def _subalgebra(a: Algebra, basis: Sequence, labels: Sequence[str],
                gens: Sequence[Derivation]) -> AlgebraWithDerivations:
    """Algebra structure on a multiplicatively closed, action stable
    subspace, with the restricted generators."""
    in_basis = coordinates(basis)
    if in_basis is None:
        raise IntegrityError("subalgebra basis is dependent")
    m = len(basis)

    def coords(vec: dict) -> dict:
        combo = in_basis(vec)
        if combo is None:
            raise IntegrityError("subspace is not closed")
        return combo

    table = {}
    for i in range(m):
        for j in range(m):
            prod = coords(a.product(basis[i], basis[j]))
            if prod:
                table[(i, j)] = prod
    sub = Algebra(dim=m, basis_labels=tuple(labels), table=table, unit=None)
    new_gens = []
    for g in gens:
        cols = [coords(combine(v, g.columns)) for v in basis]
        new_gens.append(Derivation(name=g.name, matrix=to_rows(cols)))
    return AlgebraWithDerivations(sub, make_action(sub, new_gens))


def block_sum_split(awd: AlgebraWithDerivations
                    ) -> list[AlgebraWithDerivations]:
    """Summands B_i = (block i) + J, plus the pure radical summand.

    Only defined under polynomial growth, where every derivation maps
    each lifted block into the radical so all summands are action
    stable. The direct sum of the returned algebras satisfies the same
    multilinear identities as the input; the tests pin that down degree
    by degree.
    """
    a, act = awd.algebra, awd.action
    wd = wedderburn(a)
    d = exponent(a, wd)
    if d > 1:
        raise NotPolynomialGrowth(
            f"block sum split needs exponent <= 1, got {d}")
    gens = list(act.generators)
    out = []
    rad = list(wd.radical_basis)
    rad_labels = [f"j{t + 1}" for t in range(len(rad))]
    for i, bb in enumerate(wd.block_bases):
        basis = list(bb) + rad
        labels = [f"s{t + 1}" for t in range(len(bb))] + rad_labels
        out.append(_subalgebra(a, basis, labels, gens))
    if rad:
        out.append(_subalgebra(a, rad, rad_labels, gens))
    return out
