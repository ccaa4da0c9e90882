"""Symmetric group characters and cocharacter multiplicities.

Irreducible characters come from the Murnaghan Nakayama rule on beta
sets. Multiplicities of the quotient module are recovered from exact
traces of one representative permutation per cycle type. Evaluation is
S_n-equivariant, so the row of g.m is the row of m with the digits of
its input-tuple columns permuted by g (codim.permuted_row). module_trace
reads the span that codim() built, closed under S_n by the same moves:
each moved echelon row is reduced once against that span, which checks
that it stays inside and gives its coefficient on its own row, so
nothing is evaluated twice. Everything is exact; a multiplicity that
fails to be a non-negative integer aborts loudly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple, Optional

from .algebra import Algebra
from .codim import block_weight, codim, permuted_row
from .errors import IntegrityError, NonIntegerMultiplicity
from .freediff import OperatorBasis
from .linalg import ZERO, RowSpan

Partition = tuple


def partitions(n: int) -> list[Partition]:
    """All partitions of n, weakly decreasing parts, reverse lex order
    starting at (n,)."""
    out = []

    def rec(remaining: int, maxpart: int, prefix: tuple):
        if remaining == 0:
            out.append(prefix)
            return
        for p in range(min(maxpart, remaining), 0, -1):
            rec(remaining - p, p, prefix + (p,))

    rec(n, n, ())
    return out


@lru_cache(maxsize=None)
def irr_char(lam: Partition, mu: Partition) -> int:
    """Character value chi_lambda(mu) by Murnaghan Nakayama.

    Strips of length mu[0] are located through the beta set of lambda:
    removable strips correspond to beta numbers whose decrease by the
    strip length stays non-negative and unoccupied; the sign counts the
    beta numbers jumped over.
    """
    if not lam and not mu:
        return 1
    if sum(lam) != sum(mu):
        raise ValueError("size mismatch")
    m = mu[0]
    rest = mu[1:]
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    total = 0
    occupied = set(beta)
    for i, b in enumerate(beta):
        nb = b - m
        if nb < 0 or nb in occupied:
            continue
        height = sum(1 for c in beta if nb < c < b)
        nbeta = sorted([c for c in beta if c != b] + [nb], reverse=True)
        nl = len(nbeta)
        nlam = tuple(nbeta[j] - (nl - 1 - j) for j in range(nl))
        nlam = tuple(p for p in nlam if p > 0)
        total += (-1) ** height * irr_char(nlam, rest)
    return total


def hook_dimension(lam: Partition) -> int:
    """dim of the lambda irreducible, via hook lengths (cross check)."""
    n = sum(lam)
    prodh = 1
    for i, row in enumerate(lam):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for r in lam[i + 1:] if r > j)
            prodh *= arm + leg + 1
    return factorial(n) // prodh


def cycle_type_class_size(mu: Partition, n: int) -> int:
    """Number of permutations with cycle type mu."""
    z = 1
    counts: dict[int, int] = {}
    for p in mu:
        counts[p] = counts.get(p, 0) + 1
    for p, m in counts.items():
        z *= p ** m * factorial(m)
    return factorial(n) // z


def representative(mu: Partition, n: int) -> tuple:
    """Canonical permutation of cycle type mu: ascending cycle lengths on
    consecutive blocks, 0-indexed one line form."""
    perm = list(range(n))
    start = 0
    for length in sorted(mu):
        for i in range(length):
            perm[start + i] = start + (i + 1) % length
        start += length
    return tuple(perm)


def cycle_heads(g: tuple) -> list:
    """The least variable of each cycle of the permutation g."""
    seen, heads = set(), []
    for v in range(len(g)):
        if v not in seen:
            heads.append(v)
            while v not in seen:
                seen.add(v)
                v = g[v]
    return heads


def module_trace(dim: int, n: int, span: RowSpan,
                 weights: Optional[tuple] = None) -> dict:
    """Trace of each cycle type acting on the multilinear quotient.

    span holds the evaluation rows of the quotient, as codim() returns
    it, and is a space V that every g maps into itself. The trace of g
    sums, over the echelon rows p_c of V, the multiplier of p_c in the
    relabelled row g.p_c, which one forward reduction of g.p_c gives.
    Exact and basis independent; a relabelled row outside V means the
    span is not an S_n-module.

    With the weights of an isotypic route (codim's CodimResult.weights),
    V is the image on the inputs T, every row lies in one block pattern,
    and the pattern's copies contribute too: each multiplier counts
    prod over the cycles of g of the d_j of the cycle's input digit.
    """
    out = {}
    for mu in partitions(n):
        g = representative(mu, n)
        heads = cycle_heads(g)
        out[mu] = ZERO
        for c, row in span.pivots.items():
            used: dict = {}
            if span._reduce(permuted_row(row, g, n, dim), used):
                raise IntegrityError("permuted row escaped the quotient "
                                     "span; evaluation is not equivariant")
            x = Fraction(*used.get(c, (0, 1)))
            if weights is not None:
                x *= block_weight(c, heads, n, dim, weights)
            out[mu] += x
    return out


class CocharacterTable(NamedTuple):
    """Multiplicities per partition, differential and ordinary."""

    n: int
    rows: tuple                 # (partition, m_L, m_ordinary)
    colength: int               # sum of the differential multiplicities
    colength_ordinary: int
    module_character: dict      # cycle type -> exact trace (differential)
    c_n_L: int                  # the codimensions the multiplicities rebuild
    c_n: int

    def multiplicity(self, lam: Partition) -> int:
        for l, mL, mo in self.rows:
            if l == lam:
                return mL
        raise KeyError(lam)

    def ordinary_multiplicity(self, lam: Partition) -> int:
        for l, mL, mo in self.rows:
            if l == lam:
                return mo
        raise KeyError(lam)


def _multiplicities(n: int, traces: dict) -> dict:
    """Inner products (1/n!) sum |class| chi(mu) trace(mu), checked
    integral and non-negative."""
    out = {}
    for lam in partitions(n):
        s = ZERO
        for mu, tr in traces.items():
            s += cycle_type_class_size(mu, n) * irr_char(lam, mu) * tr
        m = s / factorial(n)
        if m.denominator != 1 or m < 0:
            raise NonIntegerMultiplicity(
                f"multiplicity of {lam} came out {m}")
        out[lam] = int(m)
    return out


def multiplicity_rows(n: int, traces: dict, traces_ord: dict) -> tuple:
    """(lambda, m_L, m_ordinary) per partition from the two trace tables.

    The ordinary quotient is an S_n-submodule of the differential one,
    so m_ordinary <= m_L must hold for every lambda.
    """
    m_L = _multiplicities(n, traces)
    m_ord = _multiplicities(n, traces_ord)
    for lam in partitions(n):
        if m_ord[lam] > m_L[lam]:
            raise IntegrityError(
                f"ordinary multiplicity {m_ord[lam]} of {lam} exceeds the "
                f"differential one {m_L[lam]}; the ordinary quotient is not "
                f"a submodule of the differential quotient")
    return tuple((lam, m_L[lam], m_ord[lam]) for lam in partitions(n))


def cocharacter(a: Algebra, ob: OperatorBasis, n: int,
                budget: Optional[int] = None) -> CocharacterTable:
    """Cocharacter decomposition at degree n, with the ordinary one."""
    full = codim(a, ob, n, budget=budget)
    traces = module_trace(a.dim, n, full.quotient, full.weights)
    traces_ord = (traces if full.ordinary is full.quotient
                  else module_trace(a.dim, n, full.ordinary))
    rows = multiplicity_rows(n, traces, traces_ord)
    # c_n is the identity trace, and by column orthogonality the
    # multiplicities rebuild the identity trace for any traces: these
    # two checks test irr_char, not the codimension
    if sum(m * irr_char(lam, tuple([1] * n)) for lam, m, _ in rows) != full.c_n_L:
        raise IntegrityError("differential multiplicities do not rebuild "
                             "the identity trace; irr_char is inconsistent")
    if sum(mo * irr_char(lam, tuple([1] * n)) for lam, _, mo in rows) \
            != full.c_n_ordinary:
        raise IntegrityError("ordinary multiplicities do not rebuild the "
                             "identity trace; irr_char is inconsistent")
    return CocharacterTable(
        n=n, rows=rows,
        colength=sum(m for _, m, _ in rows),
        colength_ordinary=sum(mo for _, _, mo in rows),
        module_character={mu: traces[mu] for mu in partitions(n)},
        c_n_L=full.c_n_L, c_n=full.c_n_ordinary)


def support_violations(table: CocharacterTable, q: int) -> list:
    """Partitions below the first row longer than allowed: entries with
    |lambda| - lambda_1 >= q and nonzero differential multiplicity.

    Empty list means the support bound holds at this degree.
    """
    bad = []
    for lam, mL, _ in table.rows:
        if mL and sum(lam) - lam[0] >= q:
            bad.append((lam, mL))
    return bad
