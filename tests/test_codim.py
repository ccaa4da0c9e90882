import importlib
from fractions import Fraction
from itertools import permutations, product

import pytest

from corpus import corpus
from diffpi import (DEFAULT_BUDGET, BudgetExceeded, DiffMonomial, DiffPoly,
                    builtin, codim, codim_via_ideal, consequences_cost,
                    evaluate, evaluation_cost, is_identity, operator_basis,
                    parse_diff_poly)
from diffpi.codim import monomial_row, poly_row
from diffpi.freediff import mat_apply
from diffpi.linalg import RowSpan, reduced_echelon

F = Fraction


def sweep_row(a, ob, m):
    """Reference evaluation row of one monomial: every one of the dim^n
    input tuples, multiplied out in the monomial's own variable order."""
    n = len(m.perm)
    dim = a.dim
    row = {}
    for t in product(range(dim), repeat=n):
        vec = None
        for p in range(n):
            img = mat_apply(ob.ops[m.labels[p]], {t[m.perm[p]]: F(1)})
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


def _walk_cases():
    for name, max_n in (("UT2eps", 4), ("M2sl2", 3)):
        yield pytest.param(builtin(name), max_n, id=name)
    for i, awd in enumerate(corpus(6, seed=7)):
        yield pytest.param(awd, 2, id=f"corpus7.{i}")


@pytest.mark.parametrize("awd,max_n", list(_walk_cases()))
def test_prefix_walk_matches_sweep(awd, max_n):
    # monomial_row, poly_row/is_identity and evaluate all go through the
    # prefix step; the dim^n sweep is the independent reference
    a = awd.algebra
    ob = operator_basis(a, awd.action)
    dim = a.dim
    for n in range(1, max_n + 1):
        # every variable order, with at most 16 evenly spread label vectors
        label_vecs = list(product(range(ob.k), repeat=n))
        label_vecs = label_vecs[::len(label_vecs) // 16 + 1]
        for perm in permutations(range(n)):
            poly, want_poly = DiffPoly(n), {}
            for c, h in enumerate(label_vecs, start=1):
                m = DiffMonomial(perm, h)
                want = sweep_row(a, ob, m)
                assert monomial_row(a, ob, m) == want
                assert is_identity(DiffPoly(n, {m: F(1)}), a, ob) == (not want)
                for t in product(range(dim), repeat=n):
                    t_idx = 0
                    for x in t:
                        t_idx = t_idx * dim + x
                    value = {j: want[t_idx * dim + j] for j in range(dim)
                             if t_idx * dim + j in want}
                    args = [tuple(F(j == x) for j in range(dim)) for x in t]
                    assert evaluate(DiffPoly(n, {m: F(1)}), args, a, ob) \
                        == value
                poly = poly + DiffPoly(n, {m: F(c)})
                for col, v in want.items():
                    want_poly[col] = want_poly.get(col, F(0)) + c * v
            assert poly_row(a, ob, poly) \
                == {col: v for col, v in want_poly.items() if v}


def greedy_quotient(a, ob, n, labels=None):
    """Reference route: the row of every monomial, n! variable orders
    times every label vector, offered in monomial order to one RowSpan.
    Returns the (monomial, row) pairs that extend the span.

    The product over a label vector and an input tuple is computed once,
    pruned as soon as a prefix vanishes, and relocated per order.
    """
    dim = a.dim
    labels = range(ob.k) if labels is None else labels
    images = [[mat_apply(op, {b: F(1)}) for b in range(dim)]
              for op in ob.ops]
    tensors = {}
    for h in product(labels, repeat=n):
        found = []
        stack = [((), None)]
        while stack:
            u, vec = stack.pop()
            if len(u) == n:
                found.append((u, vec))
                continue
            for b in range(dim):
                img = images[h[len(u)]][b]
                nxt = img if vec is None else a.product(vec, img)
                if nxt:
                    stack.append((u + (b,), nxt))
        tensors[h] = found
    span, out = RowSpan(), []
    for sigma in permutations(range(n)):
        for h in product(labels, repeat=n):
            row = {}
            for u, vec in tensors[h]:
                t = [0] * n
                for p in range(n):
                    t[sigma[p]] = u[p]
                t_idx = 0
                for x in t:
                    t_idx = t_idx * dim + x
                for c, v in vec.items():
                    row[t_idx * dim + c] = v
            if span.insert(row):
                out.append((DiffMonomial(sigma, h), row))
    return out


def _ref_cases():
    for name, max_n in (("UT2eps", 6), ("M2sl2", 3), ("Fn(1)", 4)):
        awd = builtin(name)
        for n in range(1, max_n + 1):
            yield pytest.param(awd, n, id=f"{name}-{n}")
    for i, awd in enumerate(corpus(6, seed=7)):
        # the k = 10 members are M2 with dense rational operators: the
        # reference takes about 35 s each at n = 3, where M2sl2 stands in
        max_n = 2 if i in (0, 2) else 3
        for n in range(1, max_n + 1):
            yield pytest.param(awd, n, id=f"corpus7.{i}-{n}")


@pytest.mark.parametrize("awd,n", list(_ref_cases()))
def test_codim_matches_greedy_route(awd, n):
    a = awd.algebra
    ob = operator_basis(a, awd.action)
    r = codim(a, ob, n)
    ref = [row for _, row in greedy_quotient(a, ob, n)]
    ref_ord = [row for _, row in greedy_quotient(a, ob, n, labels=(0,))]
    assert (r.c_n_L, r.c_n_ordinary) == (len(ref), len(ref_ord))
    assert r.quotient.reduced_rows() == reduced_echelon(ref)
    assert r.ordinary.reduced_rows() == reduced_echelon(ref_ord)

# frozen oracle values for UT2eps, re-derived by independent brute
# force before the evaluation code existed (scripts/bruteforce_ut2.py)
UT2EPS_C_L = {1: 2, 2: 5, 3: 13, 4: 33}
UT2EPS_C = {1: 1, 2: 2, 3: 6, 4: 18}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ut2eps_codimensions(ut2eps, ut2eps_ob, n):
    r = codim(ut2eps.algebra, ut2eps_ob, n)
    assert r.c_n_L == UT2EPS_C_L[n]
    assert r.c_n_ordinary == UT2EPS_C[n]


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
    # diffpi.codim is the re-exported function, not the module
    module = importlib.import_module("diffpi.codim")
    applied = []
    apply = module.mat_apply

    def recorded_apply(m, v):
        applied.append(m)
        return apply(m, v)

    monkeypatch.setattr(module, "mat_apply", recorded_apply)
    r = codim(m2sl2.algebra, m2sl2_ob, n, ordinary_only=True)
    # no label other than the identity is evaluated
    assert applied and all(m == m2sl2_ob.ops[0] for m in applied)
    assert r.c_n_L == r.c_n_ordinary == full.c_n_ordinary
    assert r.quotient is r.ordinary
    assert r.ordinary.reduced_rows() == full.ordinary.reduced_rows()


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
    e11 = (F(1), F(0), F(0))
    e12 = (F(0), F(0), F(1))
    assert evaluate(p, [e11, e12], a, ut2eps_ob) == {2: F(1)}
    assert evaluate(p, [e11, e11], a, ut2eps_ob) == {}
    q = parse_diff_poly("x1^eps", ut2eps_ob)
    assert evaluate(q, [e12], a, ut2eps_ob) == {2: F(1)}


def test_evaluate_rejects_malformed_arguments(ut2eps, ut2eps_ob):
    a = ut2eps.algebra
    p = parse_diff_poly("x1*x2", ut2eps_ob)
    e12 = (F(0), F(0), F(1))
    with pytest.raises(ValueError, match="coordinates"):
        evaluate(p, [(1, 0), e12], a, ut2eps_ob)
    with pytest.raises(TypeError):
        evaluate(p, [(1.5, 0, 0), e12], a, ut2eps_ob)
    assert evaluate(p, [(1, "1/2", 0), e12], a, ut2eps_ob) == {2: F(1)}


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
