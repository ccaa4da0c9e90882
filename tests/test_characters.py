import importlib
from fractions import Fraction
from math import factorial

import pytest

from corpus import corpus, random_split_algebra
from diffpi import (DiffMonomial, builtin, cocharacter, codim,
                    cycle_type_class_size, hook_dimension, irr_char,
                    module_trace, operator_basis, partitions,
                    support_violations)
from diffpi.characters import multiplicity_rows, representative
from diffpi.codim import _closure_rows, permuted_row
from diffpi.errors import IntegrityError
from diffpi.linalg import RowSpan, coordinates
from test_codim import _rebased, greedy_quotient, sl2_plane, sweep_row

F = Fraction


def test_partitions_small():
    assert partitions(1) == [(1,)]
    assert partitions(3) == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions(7)) == 15


def test_class_sizes_sum_to_group_order():
    for n in range(1, 8):
        assert sum(cycle_type_class_size(mu, n) for mu in partitions(n)) \
            == factorial(n)


def test_representative_has_cycle_type():
    for n in (3, 4, 5):
        for mu in partitions(n):
            perm = representative(mu, n)
            # decompose into cycles
            seen = set()
            lengths = []
            for s in range(n):
                if s in seen:
                    continue
                t, ln = s, 0
                while t not in seen:
                    seen.add(t)
                    t = perm[t]
                    ln += 1
                lengths.append(ln)
            assert tuple(sorted(lengths, reverse=True)) == mu


def test_known_character_tables():
    # standard S3 and S4 table entries
    assert irr_char((2, 1), (1, 1, 1)) == 2
    assert irr_char((2, 1), (2, 1)) == 0
    assert irr_char((2, 1), (3,)) == -1
    assert irr_char((1, 1, 1), (2, 1)) == -1
    assert irr_char((2, 2), (1, 1, 1, 1)) == 2
    assert irr_char((2, 2), (2, 1, 1)) == 0
    assert irr_char((2, 2), (2, 2)) == 2
    assert irr_char((2, 2), (3, 1)) == -1
    assert irr_char((2, 2), (4,)) == 0


@pytest.mark.parametrize("n", range(1, 8))
def test_dimension_sum_of_squares(n):
    assert sum(irr_char(lam, (1,) * n) ** 2 for lam in partitions(n)) \
        == factorial(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_row_orthogonality(n):
    parts = partitions(n)
    sizes = {mu: cycle_type_class_size(mu, n) for mu in parts}
    for i, lam in enumerate(parts):
        for kap in parts[i:]:
            inner = sum(sizes[mu] * irr_char(lam, mu) * irr_char(kap, mu)
                        for mu in parts)
            assert inner == (factorial(n) if lam == kap else 0)


@pytest.mark.parametrize("n", range(1, 8))
def test_hook_dimension_matches_character(n):
    for lam in partitions(n):
        assert hook_dimension(lam) == irr_char(lam, (1,) * n)


def test_module_trace_identity_class(ut2eps, ut2eps_ob):
    for n in (1, 2, 3):
        r = codim(ut2eps.algebra, ut2eps_ob, n)
        tr = module_trace(ut2eps.algebra.dim, n, r.quotient)
        assert tr[(1,) * n] == r.c_n_L


@pytest.mark.parametrize("name,max_n", [("UT2eps", 4), ("M2sl2", 2)])
def test_relabelled_rows_match_fresh_evaluation(name, max_n):
    # the closure in codim(), monomial_row and the traces never evaluate
    # a moved monomial; this is the independent check, against the dim^n
    # sweep, that moving the digits of the columns is that evaluation, on
    # a monomial basis of the quotient
    awd = builtin(name)
    a = awd.algebra
    ob = operator_basis(a, awd.action)
    for n in range(1, max_n + 1):
        basis = greedy_quotient(a, ob, n)
        assert len(basis) == codim(a, ob, n).c_n_L
        for mu in partitions(n):
            g = representative(mu, n)
            for mono, row in basis:
                assert row == sweep_row(a, ob, mono)
                moved = DiffMonomial(tuple(g[v] for v in mono.perm),
                                     mono.labels)
                assert permuted_row(row, g, n, a.dim) \
                    == sweep_row(a, ob, moved)


@pytest.mark.parametrize("name,max_n", [("UT2eps", 4), ("M2sl2", 2)])
def test_full_codim_ordinary_basis(name, max_n):
    awd = builtin(name)
    a = awd.algebra
    ob = operator_basis(a, awd.action)
    for n in range(1, max_n + 1):
        r = codim(a, ob, n)
        o = codim(a, ob, n, ordinary_only=True)
        assert r.ordinary.reduced_rows() == o.quotient.reduced_rows()
        assert r.c_n_ordinary == o.c_n_L


def _trace_cases():
    # Mk(2) has one label, so its span is the dense ordinary one;
    # UT2eps-tri has rational operators in a triangular rational basis
    for name, max_n in (("UT2eps", 4), ("M2sl2", 2), ("Mk(2)", 4)):
        yield pytest.param(builtin(name), max_n, id=f"{name}-{max_n}")
    yield pytest.param(_rebased("UT2eps-tri"), 4, id="UT2eps-tri-4")


@pytest.mark.parametrize("awd,max_n", list(_trace_cases()))
def test_module_trace_matches_expression_in_quotient_rows(awd, max_n):
    # two more routes to each trace: coordinates() of the moved echelon
    # rows in those rows, summed on the diagonal; and, without the
    # tracked reduction, the reduced echelon basis, in which a vector's
    # coordinates are its pivot entries, so that tr g is the sum over
    # its rows b_c of (g.b_c)[c]
    a = awd.algebra
    ob = operator_basis(a, awd.action)
    for n in range(1, max_n + 1):
        # the general route's span is the whole image
        span = _closure_rows(a, ob.ops, n)
        rows = list(span.pivots.values())
        coords = coordinates(rows)
        assert coords is not None
        rref = span.reduced_rows()
        want = {}
        for mu in partitions(n):
            g = representative(mu, n)
            want[mu] = sum(coords(permuted_row(row, g, n, a.dim)).get(i, 0)
                           for i, row in enumerate(rows))
            assert want[mu] == sum(
                permuted_row(b, g, n, a.dim).get(c, 0)
                for c, b in rref.items())
        assert module_trace(a.dim, n, span) == want
        r = codim(a, ob, n)
        assert module_trace(a.dim, n, r.quotient, r.weights) == want


def _route_cases():
    # (input, largest degree, whether the isotypic route applies)
    yield pytest.param(builtin("M2sl2"), 4, True, id="M2sl2")
    yield pytest.param(_rebased("M2sl2-diag"), 3, True, id="M2sl2-diag")
    for i, awd in enumerate(corpus(6, seed=7)):
        # the general route takes about 3 s at n = 3 on members 0 and 2
        yield pytest.param(awd, 2 if i in (0, 2) else 3, i in (0, 2),
                           id=f"corpus7.{i}")
    yield pytest.param(random_split_algebra(7), 3, True, id="random7")
    yield pytest.param(sl2_plane(3), 3, True, id="sl2-plane-x3")


@pytest.mark.parametrize("awd,max_n,routed", list(_route_cases()))
def test_isotypic_route_matches_general_route(awd, max_n, routed,
                                              monkeypatch):
    a = awd.algebra
    ob = operator_basis(a, awd.action)
    assert (ob.isotypic is not None) == routed
    got = [cocharacter(a, ob, n, budget=10 ** 9) for n in range(1, max_n + 1)]
    monkeypatch.setattr(importlib.import_module("diffpi.freediff"),
                        "isotypic_route", lambda ob: None)
    general = operator_basis(a, awd.action)
    want = [cocharacter(a, general, n, budget=10 ** 9)
            for n in range(1, max_n + 1)]
    assert general.isotypic is None
    # rows, module_character, c_n_L and c_n, degree by degree
    assert got == want


def test_module_trace_rejects_rows_that_are_not_a_module(ut2eps, ut2eps_ob):
    r = codim(ut2eps.algebra, ut2eps_ob, 2)
    row = next(iter(r.quotient.pivots.values()))
    moved = permuted_row(row, (1, 0), 2, ut2eps.algebra.dim)
    assert moved != row
    one_row = RowSpan()
    one_row.insert(row)
    with pytest.raises(IntegrityError, match="escaped"):
        module_trace(ut2eps.algebra.dim, 2, one_row)


def test_nested_multiplicities_check_rejects_swapped_traces(ut2eps,
                                                            ut2eps_ob):
    # the ordinary quotient is a submodule of the differential one, so
    # m_ordinary <= m_L; swapping the two trace tables breaks that
    n = 3
    r = codim(ut2eps.algebra, ut2eps_ob, n)
    traces = module_trace(ut2eps.algebra.dim, n, r.quotient)
    traces_ord = module_trace(ut2eps.algebra.dim, n, r.ordinary)
    rows = multiplicity_rows(n, traces, traces_ord)
    assert rows == cocharacter(ut2eps.algebra, ut2eps_ob, n).rows
    with pytest.raises(IntegrityError, match="submodule"):
        multiplicity_rows(n, traces_ord, traces)


def test_cocharacter_ut2eps_n2(ut2eps, ut2eps_ob):
    t = cocharacter(ut2eps.algebra, ut2eps_ob, 2)
    assert t.multiplicity((2,)) == 3
    assert t.multiplicity((1, 1)) == 2
    assert t.ordinary_multiplicity((2,)) == 1
    assert t.ordinary_multiplicity((1, 1)) == 1
    assert t.colength == 5
    assert t.colength_ordinary == 2
    assert t.module_character[(1, 1)] == 5
    assert t.module_character[(2,)] == 1


def test_cocharacter_ut2eps_n1(ut2eps, ut2eps_ob):
    t = cocharacter(ut2eps.algebra, ut2eps_ob, 1)
    assert t.rows == (((1,), 2, 1),)


def test_cocharacter_m2_degree5():
    # Procesi (1984) gives c_5(M_2) = 91; on two rows the multiplicity
    # is (lambda1 - lambda2 + 1) lambda2
    awd = builtin("Mk(2)")
    ob = operator_basis(awd.algebra, awd.action)
    t = cocharacter(awd.algebra, ob, 5)
    want = {(5,): 1, (4, 1): 4, (3, 2): 4, (3, 1, 1): 5, (2, 2, 1): 4,
            (2, 1, 1, 1): 1, (1, 1, 1, 1, 1): 0}
    assert t.rows == tuple((lam, m, m) for lam, m in want.items())
    for lam in ((4, 1), (3, 2)):
        assert want[lam] == (lam[0] - lam[1] + 1) * lam[1]
    assert t.c_n_L == t.c_n == 91


def test_cocharacter_field_n3():
    awd = builtin("Fn(1)")
    ob = operator_basis(awd.algebra, awd.action)
    t = cocharacter(awd.algebra, ob, 3)
    assert t.multiplicity((3,)) == 1
    assert t.multiplicity((2, 1)) == 0
    assert t.multiplicity((1, 1, 1)) == 0


def test_cocharacter_reconstructs_module_trace(ut2eps, ut2eps_ob):
    for n in (2, 3):
        t = cocharacter(ut2eps.algebra, ut2eps_ob, n)
        for mu, want in t.module_character.items():
            total = sum(mL * irr_char(lam, mu) for lam, mL, _ in t.rows)
            assert total == want
        # dimension identity both differential and ordinary
        r = codim(ut2eps.algebra, ut2eps_ob, n)
        assert sum(mL * hook_dimension(lam) for lam, mL, _ in t.rows) \
            == r.c_n_L
        assert sum(mo * hook_dimension(lam) for lam, _, mo in t.rows) \
            == r.c_n_ordinary


def test_support_commutative_semisimple():
    # three copies of the field: q = 1, only the single-row partition
    awd = builtin("Fn(3)")
    ob = operator_basis(awd.algebra, awd.action)
    for n in (2, 3):
        t = cocharacter(awd.algebra, ob, n)
        assert support_violations(t, 1) == []


def test_support_violations_report(ut2eps, ut2eps_ob):
    # exponential growth shows up as deep partitions with nonzero
    # multiplicity once n exceeds the nilpotency bound
    t = cocharacter(ut2eps.algebra, ut2eps_ob, 3)
    viol = support_violations(t, 2)
    for lam, m in viol:
        assert 3 - lam[0] >= 2 and m > 0


def test_multiplicities_never_negative(ut2eps, ut2eps_ob, m2sl2, m2sl2_ob):
    for awd, ob, n in ((builtin("UT2eps"), ut2eps_ob, 3),
                       (m2sl2, m2sl2_ob, 2)):
        t = cocharacter(awd.algebra, ob, n)
        for lam, mL, mo in t.rows:
            assert mL >= 0 and mo >= 0
            assert mo <= mL
