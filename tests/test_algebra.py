from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from corpus import cells_algebra, random_split_algebra, truncated_poly
from diffpi import (Algebra, AlgebraWithDerivations, Derivation,
                    InvariantViolation, NonSplit, builtin, check_l_stability,
                    direct_sum, inner_derivation, make_action, radical,
                    radical_powers, split_derivation, wedderburn)
from diffpi import algebra as algebra_module
from diffpi.freediff import mat_apply

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
    assert mat_apply(eps.matrix, e12) == e12
    assert mat_apply(eps.matrix, e11) == {}


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
    assert mat_apply(d.matrix, x) == {}


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


def test_wedderburn_seed_determinism():
    a = builtin("UTk(3)").algebra
    w1 = wedderburn(a, seed=0)
    w2 = wedderburn(a, seed=0)
    assert w1 == w2


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
        assert mat_apply(dprime.matrix, b) == {}
    t = {1: F(1)}
    assert mat_apply(dprime.matrix, t) == mat_apply(d.matrix, t)


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
             for name in ("nullspace", "solve", "combine", "mat_apply")}
    calls = {"nullspace": 0, "solve": 0, "combine": 0, "mat_apply": 0}

    def width(rows):
        return max((len(r) for r in rows), default=0)

    def checked_nullspace(rows):
        calls["nullspace"] += 1
        out = plain["nullspace"](rows)
        for v in out:
            _check_normalised(v, width(rows))
        return out

    def checked_solve(rows, b):
        calls["solve"] += 1
        out = plain["solve"](rows, b)
        if out is not None:
            _check_normalised(out, width(rows))
        return out

    def checked_combine(coeffs, vectors):
        calls["combine"] += 1
        out = plain["combine"](coeffs, vectors)
        assert all(out.values()), out
        assert set(out) <= {k for i in coeffs for k in vectors[i]}
        return out

    def checked_mat_apply(m, v):
        calls["mat_apply"] += 1
        out = plain["mat_apply"](m, v)
        _check_normalised(out, len(m))
        return out

    monkeypatch.setattr(algebra_module, "nullspace", checked_nullspace)
    monkeypatch.setattr(algebra_module, "solve", checked_solve)
    monkeypatch.setattr(algebra_module, "combine", checked_combine)
    monkeypatch.setattr(algebra_module, "mat_apply", checked_mat_apply)
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
