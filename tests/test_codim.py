from fractions import Fraction
from math import factorial

import pytest

from diffpi import (DEFAULT_BUDGET, BudgetExceeded, builtin, codim,
                    codim_via_ideal, consequences_cost, evaluate,
                    evaluation_cost, is_identity, operator_basis,
                    parse_diff_poly)
from diffpi.linalg import RowSpan

F = Fraction

# frozen oracle values for UT2eps, re-derived by independent brute
# force before the evaluation code existed (scripts/bruteforce_ut2.py)
UT2EPS_C_L = {1: 2, 2: 5, 3: 13, 4: 33}
UT2EPS_C = {1: 1, 2: 2, 3: 6, 4: 18}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ut2eps_codimensions(ut2eps, ut2eps_ob, n):
    r = codim(ut2eps.algebra, ut2eps_ob, n)
    assert r.c_n_L == UT2EPS_C_L[n]
    assert r.c_n_ordinary == UT2EPS_C[n]
    assert len(r.quotient_basis) == r.c_n_L


def test_field_codimensions():
    awd = builtin("Fn(1)")
    ob = operator_basis(awd.algebra, awd.action)
    for n in range(1, 5):
        r = codim(awd.algebra, ob, n)
        assert r.c_n_L == 1 and r.c_n_ordinary == 1


def test_m2sl2_degree_one(m2sl2, m2sl2_ob):
    # at degree 1 the differential codimension is the number of
    # independent operators, the ordinary one is a single monomial
    r = codim(m2sl2.algebra, m2sl2_ob, 1)
    assert r.c_n_L == m2sl2_ob.k
    assert r.c_n_ordinary == 1


def test_ordinary_only_coincides(ut2eps, ut2eps_ob):
    for n in (1, 2, 3):
        r = codim(ut2eps.algebra, ut2eps_ob, n, ordinary_only=True)
        assert r.c_n_L == r.c_n_ordinary == UT2EPS_C[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ordinary_only_matches_full_ordinary_quotient(m2sl2, m2sl2_ob, n,
                                                      monkeypatch):
    full = codim(m2sl2.algebra, m2sl2_ob, n)
    inserts = []
    insert = RowSpan.insert

    def counted_insert(self, row, tag=None):
        inserts.append(row)
        return insert(self, row, tag)

    monkeypatch.setattr(RowSpan, "insert", counted_insert)
    r = codim(m2sl2.algebra, m2sl2_ob, n, ordinary_only=True)
    # one insert per monomial: the ordinary span is not rebuilt
    assert len(inserts) == factorial(n)
    assert r.c_n_L == r.c_n_ordinary == full.c_n_ordinary
    assert r.quotient_basis == r.ordinary_basis == full.ordinary_basis
    assert r.quotient_rows == r.ordinary_rows == full.ordinary_rows


def test_codim_rejects_degree_zero(ut2eps, ut2eps_ob):
    with pytest.raises(ValueError):
        codim(ut2eps.algebra, ut2eps_ob, 0)


def test_budget_exceeded_fields(ut2eps, ut2eps_ob):
    with pytest.raises(BudgetExceeded) as e:
        codim(ut2eps.algebra, ut2eps_ob, 3, budget=10)
    assert e.value.n == 3
    assert e.value.budget == 10
    assert e.value.cost == evaluation_cost(3, 2, 3)


def test_evaluate_concrete(ut2eps, ut2eps_ob):
    a = ut2eps.algebra
    p = parse_diff_poly("[x1,x2]", ut2eps_ob)
    e11 = a.basis_vector(0)
    e12 = a.basis_vector(2)
    assert evaluate(p, [e11, e12], a, ut2eps_ob) == e12
    assert evaluate(p, [e11, e11], a, ut2eps_ob) == (F(0),) * 3
    q = parse_diff_poly("x1^eps", ut2eps_ob)
    assert evaluate(q, [e12], a, ut2eps_ob) == e12


def test_is_identity_generators(ut2eps, ut2eps_ob, ut2eps_gens):
    for g in ut2eps_gens:
        assert is_identity(g, ut2eps.algebra, ut2eps_ob)
    for src in ("x1^eps*x2", "[x1,x2]", "x1"):
        p = parse_diff_poly(src, ut2eps_ob)
        assert not is_identity(p, ut2eps.algebra, ut2eps_ob)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_two_path_agreement_small(ut2eps, ut2eps_ob, ut2eps_gens, n):
    via_ideal = codim_via_ideal(ut2eps_gens, ut2eps_ob, n)
    direct = codim(ut2eps.algebra, ut2eps_ob, n).c_n_L
    assert via_ideal == direct == UT2EPS_C_L[n]


def test_two_path_agreement_degree5(ut2eps, ut2eps_ob, ut2eps_gens):
    via_ideal = codim_via_ideal(ut2eps_gens, ut2eps_ob, 5)
    assert via_ideal == codim(ut2eps.algebra, ut2eps_ob, 5).c_n_L == 81


def test_consequences_cost_under_default_budget(ut2eps_ob, ut2eps_gens):
    cost = {n: consequences_cost(ut2eps_gens, n, ut2eps_ob.k)
            for n in (4, 5, 6)}
    assert cost == {4: 184320, 5: 6758400, 6: 268369920}
    assert cost[5] <= DEFAULT_BUDGET < cost[6]
    with pytest.raises(BudgetExceeded) as e:
        codim_via_ideal(ut2eps_gens, ut2eps_ob, 6)
    assert (e.value.n, e.value.cost) == (6, cost[6])


def test_direct_sum_same_codim(ut2eps, ut2eps_ob):
    from diffpi import direct_sum
    dd = direct_sum(ut2eps, ut2eps)
    ob2 = operator_basis(dd.algebra, dd.action)
    for n in (1, 2):
        assert codim(dd.algebra, ob2, n).c_n_L == UT2EPS_C_L[n]
