import importlib
from fractions import Fraction
from itertools import permutations, product

import pytest

from corpus import cells_algebra, corpus
from diffpi import (DEFAULT_BUDGET, Algebra, AlgebraWithDerivations,
                    BudgetExceeded, Derivation, DiffMonomial, DiffPoly,
                    NonSplit, builtin, cocharacter, codim, codim_via_ideal,
                    consequences_cost, direct_sum, evaluate,
                    evaluation_cost, inner_derivation, is_identity,
                    make_action, operator_basis, parse_diff_poly, radical,
                    wedderburn)
from diffpi.algebra import _blocks
from diffpi.codim import _closure_rows, block_weight, monomial_row, poly_row
from diffpi.linalg import RowSpan, combine, coordinates, to_rows

F = Fraction


def reduced_echelon(rows):
    """The reduced echelon basis of the span of the rows, as
    {pivot column: row}: unique for the span."""
    span = RowSpan()
    for row in rows:
        span.insert(row)
    return span.reduced_rows()


def sweep_row(a, ob, m):
    """Reference evaluation row of one monomial: every one of the dim^n
    input tuples, multiplied out in the monomial's own variable order."""
    n = len(m.perm)
    dim = a.dim
    row = {}
    for t in product(range(dim), repeat=n):
        vec = None
        for p in range(n):
            img = combine({t[m.perm[p]]: F(1)}, ob.ops[m.labels[p]])
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
    images = [[combine({b: F(1)}, op) for b in range(dim)]
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


def rebase(awd, basis):
    """The algebra (without its declared unit) and action written in a
    new basis, given as sparse vectors in the old one: the structure
    constants and the derivation columns are the new coordinates of
    f_i·f_j and of d(f_j)."""
    a = awd.algebra
    coords = coordinates(basis)
    table = {}
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            if prod := coords(a.product(u, v)):
                table[(i, j)] = prod
    b = Algebra(dim=a.dim, basis_labels=a.basis_labels, table=table)
    gens = [Derivation(g.name, to_rows([coords(combine(f, g.columns))
                                        for f in basis]))
            for g in awd.action.generators]
    return AlgebraWithDerivations(b, make_action(b, gens))


def _diagonal(*d):
    return [{i: x} for i, x in enumerate(d)]


# rational changes of basis, the first inputs whose tables have
# denominators other than 1: (builtin, new basis, whether some operator
# image has one too). UT2eps's operators are diagonal on its own basis,
# so only a change that is not diagonal gives them denominators.
REBASED = {
    "UT2eps-diag": ("UT2eps", _diagonal(F(1, 2), F(3), F(-2, 5)), False),
    "M2sl2-diag": ("M2sl2", _diagonal(F(1, 2), F(3), F(-2, 5), F(1)), True),
    "UT2eps-tri": ("UT2eps", [{0: F(1, 2), 2: F(1, 3)}, {1: F(3)},
                              {2: F(-2, 5)}], True),
}


def _denominators(vecs):
    return {x.denominator for v in vecs for x in v.values()}


def _rebased(case):
    name, basis, _ = REBASED[case]
    return rebase(builtin(name), basis)


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
    for case in sorted(REBASED):
        awd = _rebased(case)
        for n in (1, 2, 3):
            yield pytest.param(awd, n, id=f"{case}-{n}")


@pytest.mark.parametrize("awd,n", list(_ref_cases()))
def test_codim_matches_greedy_route(awd, n):
    a = awd.algebra
    ob = operator_basis(a, awd.action)
    r = codim(a, ob, n)
    ref = [row for _, row in greedy_quotient(a, ob, n)]
    ref_ord = [row for _, row in greedy_quotient(a, ob, n, labels=(0,))]
    assert (r.c_n_L, r.c_n_ordinary) == (len(ref), len(ref_ord))
    # the general route spans the whole image; the isotypic route, where
    # codim takes it, spans the image on its own inputs only
    full = reduced_echelon(ref)
    assert _closure_rows(a, ob.ops, n).reduced_rows() == full
    if r.weights is None:
        assert r.quotient.reduced_rows() == full
    assert r.ordinary.reduced_rows() == reduced_echelon(ref_ord)


@pytest.mark.parametrize("case", sorted(REBASED))
def test_rational_basis_keeps_the_builtin_codimensions(case):
    name, _, rational_ops = REBASED[case]
    awd = _rebased(case)
    a = awd.algebra
    ob = operator_basis(a, awd.action)
    assert a.associativity_witness() is None
    # the scale factors differ from 1, so a wrong one changes the rows
    assert max(_denominators(a.table.values())) > 1
    op_dens = set().union(*(_denominators(op) for op in ob.ops))
    assert (max(op_dens) > 1) == rational_ops
    base = builtin(name)
    base_ob = operator_basis(base.algebra, base.action)
    for n in (1, 2, 3):
        r, want = codim(a, ob, n), codim(base.algebra, base_ob, n)
        assert (r.c_n_L, r.c_n_ordinary) == (want.c_n_L, want.c_n_ordinary)


def _fractions_only(vecs):
    return all(type(x) is F for v in vecs for x in v.values())


@pytest.mark.parametrize("case", ["UT2eps", "M2sl2", *sorted(REBASED)])
def test_integer_images_build_the_exact_span(case, monkeypatch):
    awd = _rebased(case) if case in REBASED else builtin(case)
    a = awd.algebra
    ob = operator_basis(a, awd.action)
    scaled = [codim(a, ob, n) for n in (1, 2, 3)]
    # the closure stepped on the exact Fraction images instead
    module = importlib.import_module("diffpi.codim")
    monkeypatch.setattr(module, "_integer_images", lambda a, ops: (a, ops))
    exact = [codim(a, ob, n) for n in (1, 2, 3)]
    for s, e in zip(scaled, exact):
        for x, y in ((s.quotient, e.quotient), (s.ordinary, e.ordinary)):
            # the same rows, inserted in the same order
            assert list(x.pivots.items()) == list(y.pivots.items())
            assert list(x._ints.items()) == list(y._ints.items())
    # the scaling works on copies: the inputs keep their Fractions
    assert _fractions_only(a.table.values())
    assert all(_fractions_only(op) for op in ob.ops)


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
    step = module._step

    def recorded_step(a, blocks, imgs):
        applied.append(imgs)
        return step(a, blocks, imgs)

    monkeypatch.setattr(module, "_step", recorded_step)
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


def sl2_plane(copies=1):
    """F[x,y]/(x,y)^2 on 1, x, y with sl2 acting by e = x d/dy,
    f = y d/dx and h = x d/dx - y d/dy, as a direct sum of copies of it:
    the operator algebra is Q x M_2(Q), and A holds its simple modules Q
    and V with multiplicity copies each. Every degree has c_n^L = 4n + 1
    and c_n = 1."""
    one, z = F(1), F(0)
    table = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one},
             (0, 2): {2: one}, (2, 0): {2: one}}
    a = Algebra(dim=3, basis_labels=("1", "x", "y"), table=table,
                unit=(one, z, z))
    gens = [Derivation("e", ((z, z, z), (z, z, one), (z, z, z))),
            Derivation("f", ((z, z, z), (z, z, z), (z, one, z))),
            Derivation("h", ((z, z, z), (z, one, z), (z, z, -one)))]
    plane = AlgebraWithDerivations(a, make_action(a, gens))
    return direct_sum(*[plane] * copies)


def _count_operator_algebras(monkeypatch):
    """The operator bases whose operator algebra E gets built, in order."""
    module = importlib.import_module("diffpi.freediff")
    built, build = [], module._operator_algebra

    def counted(ob):
        built.append(ob)
        return build(ob)

    monkeypatch.setattr(module, "_operator_algebra", counted)
    return built


@pytest.mark.parametrize("name", ["UT2eps", "Mk(2)", "Fn(1)"])
def test_commuting_generators_never_build_the_operator_algebra(name,
                                                                monkeypatch):
    # one generator, or k = 1: E is commutative, so the route gains nothing
    built = _count_operator_algebras(monkeypatch)
    awd = builtin(name)
    a = awd.algebra
    ob = operator_basis(a, awd.action)
    for n in (1, 2, 3):
        assert codim(a, ob, n).weights is None
    cocharacter(a, ob, 3)
    assert ob.isotypic is None
    assert built == []


def test_operator_algebra_with_radical_takes_the_general_route(monkeypatch):
    # UT2 on e00, e01, e11 with ad(e00) and ad(e01): the generators do
    # not commute, and ad(e01) lies in the radical of E
    a = cells_algebra([(0, 0), (1, 1), (0, 1)])
    awd = AlgebraWithDerivations(a, make_action(a, [
        inner_derivation(a, {0: F(1)}, name="d0"),
        inner_derivation(a, {1: F(1)}, name="d1")]))
    built = _count_operator_algebras(monkeypatch)
    ob = operator_basis(a, awd.action)
    assert ob.isotypic is None
    assert built == [ob]
    assert wedderburn(importlib.import_module(
        "diffpi.freediff")._operator_algebra(ob)).radical_basis
    _general_route_codims(a, ob)


def _general_route_codims(a, ob) -> list:
    """(c_n^L, c_n) for n = 1, 2, 3, checked to come from the general
    route and to match the greedy reference."""
    out = []
    for n in (1, 2, 3):
        r = codim(a, ob, n)
        ref = [row for _, row in greedy_quotient(a, ob, n)]
        ref_ord = [row for _, row in greedy_quotient(a, ob, n, labels=(0,))]
        assert r.weights is None
        assert (r.c_n_L, r.c_n_ordinary) == (len(ref), len(ref_ord))
        assert r.quotient.reduced_rows() == reduced_echelon(ref)
        out.append((r.c_n_L, r.c_n_ordinary))
    return out


def _rotation_and_plane():
    """Q 1 + V with V^2 = 0 on 1, u1, u2, v1, v2, and two derivations
    that kill 1: p maps u1 -> u2, u2 -> -u1, v2 -> v1, and q maps
    u1 -> u2, u2 -> -u1, v1 -> v2. The operator algebra is
    Q x Q(i) x M_2(Q), of dimension 7."""
    one, z = F(1), F(0)
    table = {(0, 0): {0: one}}
    for b in range(1, 5):
        table[(0, b)] = table[(b, 0)] = {b: one}
    a = Algebra(dim=5, basis_labels=("1", "u1", "u2", "v1", "v2"),
                table=table, unit=(one, z, z, z, z))

    def der(name, images):  # images: (from, to, coefficient)
        m = [[z] * 5 for _ in range(5)]
        for i, j, c in images:
            m[j][i] = F(c)
        return Derivation(name, tuple(map(tuple, m)))
    rot = [(1, 2, 1), (2, 1, -1)]
    gens = [der("p", rot + [(4, 3, 1)]), der("q", rot + [(3, 4, 1)])]
    return AlgebraWithDerivations(a, make_action(a, gens))


def test_nonsplit_operator_algebra_takes_the_general_route(monkeypatch):
    # E has no radical but its center holds Q(i), so the blocks of E do
    # not split and the route falls back
    awd = _rotation_and_plane()
    a = awd.algebra
    built = _count_operator_algebras(monkeypatch)
    ob = operator_basis(a, awd.action)
    assert ob.k == 7
    assert ob.isotypic is None
    assert built == [ob]
    e = importlib.import_module("diffpi.freediff")._operator_algebra(ob)
    assert radical(e) == []
    with pytest.raises(NonSplit):
        _blocks(e)
    assert _general_route_codims(a, ob) == [(7, 1), (13, 1), (19, 1)]


@pytest.mark.parametrize("awd,weights", [
    pytest.param(builtin("M2sl2"), (1, 3), id="M2sl2"),
    pytest.param(sl2_plane(3), (1, 1, 1, 2, 2, 2), id="sl2-plane-x3")])
def test_isotypic_route_lifts_no_section(awd, weights, monkeypatch):
    # E is semisimple, so its blocks are read off E itself: the
    # Wedderburn-Malcev lift is never needed
    def refuse(*args):
        raise AssertionError("the isotypic route lifted a section")

    monkeypatch.setattr(importlib.import_module("diffpi.algebra"),
                        "_lift_section", refuse)
    ob = operator_basis(awd.algebra, awd.action)
    assert ob.isotypic.weights == weights


def test_isotypic_route_is_built_once_per_operator_basis(monkeypatch):
    built = _count_operator_algebras(monkeypatch)
    awd = builtin("M2sl2")
    a = awd.algebra
    obs = [operator_basis(a, awd.action) for _ in range(2)]
    for ob in obs:
        for n in (1, 2, 3):
            assert codim(a, ob, n).weights == (1, 3)
        cocharacter(a, ob, 2)
    assert len(built) == 2 and all(x is y for x, y in zip(built, obs))


@pytest.mark.parametrize("copies,weights", [(1, (1, 2)),
                                            (3, (1, 1, 1, 2, 2, 2))])
def test_isotypic_route_with_multiplicities(copies, weights):
    # with three copies the block M_2(Q) has m = 3, so its primitive
    # idempotent comes from an element with two rational eigenvalues
    awd = sl2_plane(copies)
    ob = operator_basis(awd.algebra, awd.action)
    assert ob.isotypic.weights == weights
    for n in (1, 2, 3, 4):
        r = codim(awd.algebra, ob, n, budget=10 ** 9)
        assert (r.c_n_L, r.c_n_ordinary) == (4 * n + 1, 1)


@pytest.mark.parametrize("n", [5, 6])
def test_m2sl2_closed_form_on_isotypic_route(m2sl2, m2sl2_ob, n):
    # c_n^L(M2sl2) = 4^(n+1) - 3(n+1); the general route matched it for
    # n <= 7, but takes 9 s at n = 5
    route = m2sl2_ob.isotypic
    span = _closure_rows(m2sl2.algebra, route.ops, n)
    c_n_L = sum(block_weight(c, range(n), n, m2sl2.algebra.dim,
                             route.weights) for c in span.pivots)
    assert c_n_L == {5: 4078, 6: 16363}[n] == 4 ** (n + 1) - 3 * (n + 1)
