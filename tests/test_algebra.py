from fractions import Fraction
from itertools import product
from math import isqrt, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from corpus import cells_algebra, random_split_algebra, truncated_poly
from diffpi import (Algebra, AlgebraWithDerivations, Derivation,
                    InvariantViolation, NonSplit, builtin, check_l_stability,
                    direct_sum, inner_derivation, make_action, radical,
                    radical_powers, split_derivation, wedderburn)
from diffpi import algebra as algebra_module
from diffpi.algebra import _quotient, _rational_roots
from diffpi.linalg import combine
from test_codim import REBASED, _rebased
from test_linalg import gauss_jordan

F = Fraction
Z = F(0)


def vec(*xs):
    return tuple(F(x) for x in xs)


def quaternions() -> Algebra:
    # basis 1, i, j, k over the rationals
    one = F(1)
    m = F(-1)
    tbl = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
        (1, 0): {1: one}, (2, 0): {2: one}, (3, 0): {3: one},
        (1, 1): {0: m}, (2, 2): {0: m}, (3, 3): {0: m},
        (1, 2): {3: one}, (2, 1): {3: m},
        (2, 3): {1: one}, (3, 2): {1: m},
        (3, 1): {2: one}, (1, 3): {2: m},
    }
    return Algebra(dim=4, basis_labels=("u", "i", "j", "k"), table=tbl,
                   unit=vec(1, 0, 0, 0))


def gaussian_field() -> Algebra:
    # Q(i): does not split over the rationals
    one = F(1)
    tbl = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one},
           (1, 1): {0: F(-1)}}
    return Algebra(dim=2, basis_labels=("one", "t"), table=tbl,
                   unit=vec(1, 0))


def skewed_dual_numbers() -> AlgebraWithDerivations:
    # F[t]/(t^2) on u0 = 1 + t, u1 = t, with d = t d/dt: the coordinate
    # section u0 is not multiplicative (u0 u0 = u0 + u1), and d is outer
    tbl = {(0, 0): {0: F(1), 1: F(1)}, (0, 1): {1: F(1)}, (1, 0): {1: F(1)}}
    a = Algebra(dim=2, basis_labels=("u0", "u1"), table=tbl,
                unit=vec(1, -1))
    d = Derivation(name="d", matrix=((Z, Z), (F(1), F(1))))
    return AlgebraWithDerivations(a, make_action(a, [d]))


def test_builtin_ut2eps_structure(ut2eps):
    a = ut2eps.algebra
    assert a.dim == 3
    assert a.basis_labels == ("e11", "e22", "e12")
    assert a.associativity_witness() is None
    assert a.unit_witness() is None
    e11, e22, e12 = ({i: F(1)} for i in range(3))
    assert a.product(e11, e12) == e12
    assert a.product(e12, e22) == e12
    assert a.product(e12, e12) == {}
    assert ut2eps.action.lie_dim == 1
    assert not ut2eps.action.killing_nondegenerate
    eps = ut2eps.action.generators[0]
    assert combine(e12, eps.columns) == e12
    assert combine(e11, eps.columns) == {}


def test_builtin_m2sl2_structure(m2sl2):
    a = m2sl2.algebra
    assert a.dim == 4
    assert a.associativity_witness() is None
    assert m2sl2.action.lie_dim == 3
    assert m2sl2.action.killing_nondegenerate
    for d in m2sl2.action.generators:
        assert d.leibniz_witness(a) is None


def test_builtin_sums_and_unknown():
    s = builtin("Fn(1)+Fn(1)")
    assert s.algebra.dim == 2
    assert s.algebra.unit == vec(1, 1)
    with pytest.raises(InvariantViolation):
        builtin("nosuch")
    with pytest.raises(InvariantViolation):
        builtin("Fn(0)")


def test_builtin_matrix_algebras():
    ut3 = builtin("UTk(3)").algebra
    assert ut3.dim == 6
    assert ut3.associativity_witness() is None
    m2 = builtin("Mk(2)").algebra
    assert m2.dim == 4
    assert m2.associativity_witness() is None


def test_inner_derivation_leibniz():
    a = builtin("Mk(2)").algebra
    x = {0: F(1), 1: F(2), 2: F(-1), 3: F(1, 2)}
    d = inner_derivation(a, x)
    assert d.leibniz_witness(a) is None
    # inner derivations kill the element itself
    assert combine(x, d.columns) == {}


def test_make_action_rejects_non_leibniz():
    a = truncated_poly(2, unital=True)
    bad = Derivation(name="d", matrix=((F(1), Z), (Z, Z)))
    with pytest.raises(InvariantViolation):
        make_action(a, [bad])


def test_make_action_closes_lie_algebra():
    a = builtin("Mk(2)").algebra
    d1 = inner_derivation(a, {1: F(1)}, name="a")
    d2 = inner_derivation(a, {2: F(1)}, name="b")
    act = make_action(a, [d1, d2])
    # ad(e12), ad(e21) bracket to the diagonal derivation
    assert act.lie_dim == 3


def test_radical_ut2(ut2eps):
    a = ut2eps.algebra
    rad = radical(a)
    assert len(rad) == 1
    assert rad[0] == {2: F(1)}
    powers = radical_powers(a, rad)
    assert len(powers) == 1  # J^2 = 0, so q = 2
    assert wedderburn(a).nilpotency_index == 2


def test_radical_semisimple_and_nilpotent():
    assert radical(builtin("Fn(3)").algebra) == []
    assert radical(builtin("Mk(2)").algebra) == []
    nil = truncated_poly(3, unital=False)
    assert len(radical(nil)) == nil.dim
    assert wedderburn(nil).nilpotency_index == 3
    assert wedderburn(nil).block_dims == ()


def test_wedderburn_ut2(ut2eps):
    wd = wedderburn(ut2eps.algebra)
    assert wd.block_dims == (1, 1)
    assert [v for v in wd.block_idempotents] == [{0: F(1)}, {1: F(1)}]
    assert set(wd.radical_path_graph) == {(0, 1)}
    assert len(wd.complement_basis) == 2


def test_wedderburn_ut3_path_graph():
    wd = wedderburn(builtin("UTk(3)").algebra)
    assert wd.block_dims == (1, 1, 1)
    assert set(wd.radical_path_graph) == {(0, 1), (0, 2), (1, 2)}
    assert wd.nilpotency_index == 3


def test_wedderburn_m2():
    wd = wedderburn(builtin("Mk(2)").algebra)
    assert wd.block_dims == (2,)
    assert len(wd.block_idempotents) == 1
    assert wd.radical_basis == ()


MIXED_SUMS = ("Mk(2)+Mk(3)+UTk(2)", "Mk(2)+Fn(2)", "UTk(4)+Mk(2)+UTk(2)")


def test_wedderburn_blocks_and_units():
    # the lifted idempotents are orthogonal, and e_i is a two-sided unit
    # on block i, which has d_i^2 vectors, and kills every other block
    cases = [random_split_algebra(seed).algebra for seed in range(60)]
    cases += [builtin(name).algebra for name in MIXED_SUMS]
    for a in cases:
        wd = wedderburn(a)
        idems = wd.block_idempotents
        for i, ei in enumerate(idems):
            for j, ej in enumerate(idems):
                assert a.product(ei, ej) == (ei if i == j else {})
            for j, (d, bb) in enumerate(zip(wd.block_dims, wd.block_bases)):
                assert len(bb) == d * d
                for b in bb:
                    want = b if i == j else {}
                    assert a.product(ei, b) == want
                    assert a.product(b, ei) == want


def test_wedderburn_mixed_sum_idempotents():
    a = builtin("Mk(2)+Mk(3)+UTk(2)").algebra
    wd = wedderburn(a)
    got = [{a.basis_labels[k]: x for k, x in e.items()}
           for e in wd.block_idempotents]
    assert got == [{"1:e11": 1, "1:e22": 1},
                   {"2:e11": 1, "2:e22": 1, "2:e33": 1},
                   {"3:e11": 1}, {"3:e22": 1}]
    assert wd.block_dims == (2, 3, 1, 1)


def test_wedderburn_semisimple_makes_no_solve(monkeypatch):
    # the blocks and their units come from the center alone, and a
    # semisimple algebra needs no section correction
    def no_solve(cols, b):
        raise AssertionError("wedderburn solved a linear system")

    monkeypatch.setattr(algebra_module, "solve", no_solve)
    for name in ("Mk(3)", "Fn(4)", "M2sl2"):
        wd = wedderburn(builtin(name).algebra)
        assert wd.radical_basis == ()


def test_wedderburn_complement_is_multiplicative(ut2eps):
    a = ut2eps.algebra
    wd = wedderburn(a)
    from diffpi.linalg import RowSpan
    span = RowSpan()
    for v in wd.complement_basis:
        span.insert(v)
    for u in wd.complement_basis:
        for v in wd.complement_basis:
            row = a.product(u, v)
            assert not row or span.contains(row)


def test_wedderburn_splits_past_the_unit():
    # Q x Q on u0 = 1, u1 = f1: the first central basis vector is the
    # unit, which splits nothing, so the second one must split the center
    one = F(1)
    tbl = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one},
           (1, 1): {1: one}}
    a = Algebra(dim=2, basis_labels=("u0", "u1"), table=tbl, unit=vec(1, 0))
    assert algebra_module._center(a)[0] == {0: one}
    wd = wedderburn(a)
    assert wd.block_dims == (1, 1)
    assert wd.block_idempotents == ({0: one, 1: F(-1)}, {1: one})


def test_split_derivation_recovers_eps(ut2eps):
    a = ut2eps.algebra
    wd = wedderburn(a)
    eps = ut2eps.action.generators[0]
    x, dprime = split_derivation(a, wd, eps)
    assert inner_derivation(a, x).matrix == eps.matrix
    assert all(not any(row) for row in dprime.matrix)


def test_split_derivation_all_inner_on_m2(m2sl2):
    a = m2sl2.algebra
    wd = wedderburn(a)
    for d in m2sl2.action.generators:
        x, dprime = split_derivation(a, wd, d)
        assert all(not any(row) for row in dprime.matrix)
        assert inner_derivation(a, x).matrix == d.matrix


def test_split_derivation_outer_part():
    # scaling derivation on F + J is not inner; the outer part must
    # vanish on the lifted complement and reproduce d on the radical
    a = truncated_poly(2, unital=True)
    d = Derivation(name="d", matrix=((Z, Z), (Z, F(1))))
    assert d.leibniz_witness(a) is None
    wd = wedderburn(a)
    x, dprime = split_derivation(a, wd, d)
    for b in wd.complement_basis:
        assert combine(b, dprime.columns) == {}
    t = {1: F(1)}
    assert combine(t, dprime.columns) == combine(t, d.columns)


def test_lifted_section_is_corrected_on_skewed_basis():
    awd = skewed_dual_numbers()
    a = awd.algebra
    assert a.associativity_witness() is None and a.unit_witness() is None
    wd = wedderburn(a)
    assert wd.radical_basis == ({1: F(1)},)
    assert wd.block_idempotents == ({0: F(1), 1: F(-1)},)
    assert wd.complement_basis == ({0: F(1), 1: F(-1)},)
    d = awd.action.generators[0]
    x, dprime = split_derivation(a, wd, d)
    assert x == {}
    assert dprime.matrix == d.matrix


def _check_normalised(v, dim):
    assert isinstance(v, dict)
    assert all(v.values()), v
    assert set(v) <= set(range(dim)), v


def test_returned_vectors_are_normalised(monkeypatch):
    # dict equality stands for vector equality (the != checks of
    # leibniz_witness, unit_witness and _lift_section) only on vectors
    # without zero entries; every helper the structure code calls is
    # checked as it returns, and every vector it hands back at the end
    plain = {name: getattr(algebra_module, name)
             for name in ("nullspace", "solve", "combine", "compose")}
    calls = {"nullspace": 0, "solve": 0, "combine": 0, "compose": 0}

    def checked_nullspace(cols):
        calls["nullspace"] += 1
        out = plain["nullspace"](cols)
        for v in out:
            _check_normalised(v, len(cols))
        return out

    def checked_solve(cols, b):
        calls["solve"] += 1
        out = plain["solve"](cols, b)
        if out is not None:
            _check_normalised(out, len(cols))
        return out

    def checked_combine(coeffs, vectors):
        calls["combine"] += 1
        out = plain["combine"](coeffs, vectors)
        assert all(out.values()), out
        assert set(out) <= {k for i in coeffs for k in vectors[i]}
        return out

    def checked_compose(f, g):
        calls["compose"] += 1
        out = plain["compose"](f, g)
        for v in out:
            _check_normalised(v, len(f))
        return out

    monkeypatch.setattr(algebra_module, "nullspace", checked_nullspace)
    monkeypatch.setattr(algebra_module, "solve", checked_solve)
    monkeypatch.setattr(algebra_module, "combine", checked_combine)
    monkeypatch.setattr(algebra_module, "compose", checked_compose)
    cases = [random_split_algebra(seed) for seed in range(60)]
    for awd in cases + [skewed_dual_numbers()]:
        a = awd.algebra
        for v in radical(a):
            _check_normalised(v, a.dim)
        wd = wedderburn(a)
        for v in (*wd.radical_basis, *wd.block_idempotents,
                  *wd.complement_basis, *(v for bb in wd.block_bases
                                          for v in bb),
                  *(v for p in wd.radical_power_bases for v in p)):
            _check_normalised(v, a.dim)
        for d in awd.action.generators:
            x, _ = split_derivation(a, wd, d)
            _check_normalised(x, a.dim)
    assert all(calls.values()), calls


def test_nonsplit_raises():
    with pytest.raises(NonSplit):
        wedderburn(gaussian_field())


def gaussian_matrices() -> Algebra:
    # M2(Q(i)) over the rationals: basis E_rs and i E_rs; its center
    # Q(i) has no basis element that splits, so random central elements
    # are tried
    tbl = {}
    for r, s, u in product(range(2), repeat=3):
        for p, q in product(range(2), repeat=2):
            tbl[((2 * r + s) * 2 + p, (2 * s + u) * 2 + q)] = {
                (2 * r + u) * 2 + (p + q) % 2: F(-1) if p and q else F(1)}
    return Algebra(dim=8, basis_labels=tuple(f"b{i}" for i in range(8)),
                   table=tbl, unit=vec(1, 0, 0, 0, 0, 0, 1, 0))


def test_nonsplit_center_raises_nonsplit():
    a = gaussian_matrices()
    assert a.associativity_witness() is None and a.unit_witness() is None
    with pytest.raises(NonSplit):
        wedderburn(a)


def test_quaternions_pass_as_one_block():
    # a rational division algebra of square dimension is reported as a
    # single block; the dimension found is the one the exponent needs
    wd = wedderburn(quaternions())
    assert wd.block_dims == (2,)
    assert wd.radical_basis == ()


def test_radical_stable_under_builtin_actions():
    for name in ("UT2eps", "M2sl2", "UTk(2)", "UTk(3)", "Mk(2)", "Fn(2)"):
        awd = builtin(name)
        rad = radical(awd.algebra)
        assert check_l_stability(awd.algebra, awd.action, rad)


def test_direct_sum_structure(ut2eps):
    s = direct_sum(ut2eps, ut2eps)
    a = s.algebra
    assert a.dim == 6
    assert a.basis_labels[0] == "1:e11" and a.basis_labels[3] == "2:e11"
    assert a.unit == vec(1, 1, 0, 1, 1, 0)
    # cross terms vanish
    assert a.product({0: F(1)}, {3: F(1)}) == {}
    assert len(s.action.generators) == 1
    assert s.action.generators[0].name == "eps"


def test_direct_sum_rejects_mismatched_actions(ut2eps):
    with pytest.raises(InvariantViolation):
        direct_sum(ut2eps, builtin("Fn(1)"))


def test_corpus_algebras_are_valid():
    for seed in range(12):
        awd = random_split_algebra(seed)
        a = awd.algebra
        assert a.dim <= 4
        assert a.associativity_witness() is None
        if a.unit is not None:
            assert a.unit_witness() is None
        for d in awd.action.generators:
            assert d.leibniz_witness(a) is None
        assert check_l_stability(a, awd.action, radical(a))
        wd = wedderburn(a)
        assert sum(len(b) for b in wd.block_bases) + len(wd.radical_basis) \
            == a.dim


def test_cells_algebra_rejects_open_sets():
    with pytest.raises(ValueError):
        cells_algebra([(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])


@st.composite
def sparse_table_and_operands(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    entry = st.builds(F, st.integers(-2, 2), st.integers(1, 3))
    table = {}
    for i in range(dim):
        for j in range(dim):
            prod = {k: x for k in range(dim) if (x := draw(entry))}
            if prod and draw(st.booleans()):
                table[(i, j)] = prod
    u = tuple(draw(entry) for _ in range(dim))
    v = tuple(draw(entry) for _ in range(dim))
    return dim, table, u, v


def dense_structure_product(dim, table, u, v):
    """Reference: sum over every basis pair of u_i v_j e_i e_j."""
    out = [Z] * dim
    for i in range(dim):
        for j in range(dim):
            for k, w in table.get((i, j), {}).items():
                out[k] += u[i] * v[j] * w
    return out


# e0 e0 = e0 and e1 e1 = -e0: (e0 + e1)^2 cancels to zero
@example((2, {(0, 0): {0: F(1)}, (1, 1): {0: F(-1)}},
          vec(1, 1), vec(1, 1)))
@settings(max_examples=80, deadline=None)
@given(sparse_table_and_operands())
def test_product_matches_dense_structure_constants(case):
    dim, table, u, v = case
    a = Algebra(dim=dim, basis_labels=tuple(f"b{i}" for i in range(dim)),
                table=table)
    want = dense_structure_product(dim, table, u, v)
    got = a.product({i: x for i, x in enumerate(u) if x},
                    {j: x for j, x in enumerate(v) if x})
    assert got == {k: x for k, x in enumerate(want) if x}
    assert all(got.values())
    assert a.multiply(u, v) == tuple(want)
    # the same kernel on ints (the numerators) stays in ints
    ints = Algebra(dim=dim, basis_labels=a.basis_labels,
                   table={key: {k: x.numerator for k, x in prod.items()}
                          for key, prod in table.items()})
    iu = {i: x.numerator for i, x in enumerate(u) if x}
    iv = {j: x.numerator for j, x in enumerate(v) if x}
    got = ints.product(iu, iv)
    assert all(type(x) is int and x for x in got.values())
    exact = Algebra(dim=dim, basis_labels=a.basis_labels,
                    table={key: {k: F(x) for k, x in prod.items()}
                           for key, prod in ints.table.items()})
    assert got == exact.product({i: F(x) for i, x in iu.items()},
                                {j: F(x) for j, x in iv.items()})


def _dense(v, dim):
    return [v.get(k, Z) for k in range(dim)]


def _structure_cases():
    """The random split corpus, the builtins with derivations, rational
    rebasings of them, and two algebras with an outer derivation."""
    yield from (random_split_algebra(seed) for seed in range(60))
    yield from (builtin(name) for name in ("UT2eps", "M2sl2"))
    yield from (_rebased(case) for case in sorted(REBASED))
    yield skewed_dual_numbers()
    a = truncated_poly(2, unital=True)
    d = Derivation(name="d", matrix=((Z, Z), (Z, F(1))))
    yield AlgebraWithDerivations(a, make_action(a, [d]))


def test_quotient_matches_gauss_jordan():
    # reference: the reduced echelon rows of the radical are 1 at their
    # own pivot and 0 at the others, so a product minus its pivot entries
    # times those rows is the coset representative on the other columns
    for awd in _structure_cases():
        a = awd.algebra
        rad = radical(a)
        rref = gauss_jordan([_dense(v, a.dim) for v in rad], a.dim)
        reps = [c for c in range(a.dim) if c not in rref]
        table = {}
        for i, ri in enumerate(reps):
            for j, rj in enumerate(reps):
                w = _dense(a.product({ri: F(1)}, {rj: F(1)}), a.dim)
                for c, row in rref.items():
                    w = [x - w[c] * y for x, y in zip(w, row)]
                if prod := {k: w[c] for k, c in enumerate(reps) if w[c]}:
                    table[(i, j)] = prod
        q, got_reps = _quotient(a, rad)
        assert got_reps == reps
        assert q.table == table
        assert q.basis_labels == tuple(a.basis_labels[c] for c in reps)


def test_split_derivation_x_vanishes_at_kernel_pivots():
    # reference: the Gauss-Jordan kernel of y -> ([y, t])_t over the
    # targets split_derivation solves on, all of A when d is inner and the
    # complement when it is not; x is 0 at every pivot column of the
    # kernel's reduced echelon form
    for awd in _structure_cases():
        a = awd.algebra
        wd = wedderburn(a)
        for d in awd.action.generators:
            x, dprime = split_derivation(a, wd, d)
            if any(any(row) for row in dprime.matrix):
                targets = list(wd.complement_basis)
            else:
                targets = [{i: F(1)} for i in range(a.dim)]
            system = [[a.bracket({i: F(1)}, t).get(k, Z)
                       for i in range(a.dim)]
                      for t in targets for k in range(a.dim)]
            rref = gauss_jordan(system, a.dim)
            kernel = []
            for free in (c for c in range(a.dim) if c not in rref):
                vec = [Z] * a.dim
                vec[free] = F(1)
                for c, row in rref.items():
                    vec[c] = -row[free]
                kernel.append(vec)
            assert not set(x) & set(gauss_jordan(kernel, a.dim))
            for t in targets:
                assert a.bracket(x, t) == combine(t, d.columns)


def root_theorem_roots(minrel, numerators=None):
    """Reference: the rational roots of t^d - sum minrel[i] t^i by the
    rational root theorem. On the integer form, a nonzero root p/q has p
    dividing the lowest nonzero coefficient and q the leading one; the
    divisors of the first are found by trial division unless given."""
    coeffs = [-c for c in minrel] + [F(1)]
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    low = next(c for c in ints if c)

    def divisors(n):
        n = abs(n)
        return {k for i in range(1, isqrt(n) + 1) if n % i == 0
                for k in (i, n // i)}
    roots = {F(0)} if ints[0] == 0 else set()
    for num in numerators or divisors(low):
        for q in divisors(ints[-1]):
            for r in (F(num, q), F(-num, q)):
                if sum(c * r ** i for i, c in enumerate(coeffs)) == 0:
                    roots.add(r)
    return sorted(roots)


def _minrel(roots):
    """minrel of the monic polynomial with these roots, with multiplicity:
    prod (t - r) = t^d - sum minrel[i] t^i."""
    poly = [F(1)]  # ascending
    for r in roots:
        poly = [a - r * b for a, b in zip([Z] + poly, poly + [Z])]
    return [-c for c in poly[:-1]]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.builds(F, st.integers(-12, 12), st.integers(1, 6)),
                min_size=1, max_size=4))
@example([F(3), F(3), F(-1, 2)])  # a double root: two distinct roots
@example([F(0), F(5, 7)])
def test_rational_roots_of_split_polynomials(roots):
    want = sorted(set(roots))
    assert _rational_roots(_minrel(roots)) == want
    assert root_theorem_roots(_minrel(roots)) == want


@settings(max_examples=150, deadline=None)
@given(st.lists(st.builds(F, st.integers(-30, 30), st.integers(1, 4)),
                min_size=1, max_size=4))
@example([F(-1), F(0)])  # t^2 + 1
@example([F(2), F(0), F(0)])  # t^3 - 2
@example([F(0), F(0)])  # t^2
def test_rational_roots_are_true_roots(minrel):
    # a polynomial that does not split may lose roots to the search, but
    # every root returned is one, and a split one keeps all of them
    got = _rational_roots(minrel)
    want = root_theorem_roots(minrel)
    assert set(got) <= set(want) and got == sorted(got)
    if len(want) == len(minrel):
        assert got == want


def test_rational_roots_with_a_19_digit_coefficient():
    # (t - 2)(t - p) for the prime p = 2^61 - 1: the root theorem reads
    # the divisors 1, 2, p, 2p of the constant term 2p
    p = 2 ** 61 - 1
    minrel = _minrel([F(2), F(p)])
    want = root_theorem_roots(minrel, numerators=[1, 2, p, 2 * p])
    assert want == [F(2), F(p)]
    assert _rational_roots(minrel) == want
    assert _rational_roots(_minrel([F(p, 3), F(-1, p)])) == [F(-1, p),
                                                            F(p, 3)]
