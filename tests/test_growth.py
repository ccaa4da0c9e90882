from fractions import Fraction

import pytest

from corpus import (_plain_sum, cells_algebra, random_split_algebra,
                    truncated_poly)
from diffpi import (Algebra, AlgebraWithDerivations, Derivation,
                    NotPolynomialGrowth,
                    block_sum_split, builtin, classify, codim,
                    detect_ut2_pattern, direct_sum, exponent, make_action,
                    operator_basis, wedderburn)
from diffpi import growth
from test_algebra import dense_span_products, quaternions, signed_utk

F = Fraction
Z = F(0)


def scaled_poly_algebra() -> AlgebraWithDerivations:
    # F + J with the derivation scaling the radical: polynomial growth
    # with a nontrivial action
    a = truncated_poly(2, unital=True)
    d = Derivation(name="eps", matrix=((Z, Z), (Z, F(1))))
    return AlgebraWithDerivations(a, make_action(a, [d]))


def test_exponent_reference_values(ut2eps, m2sl2):
    assert exponent(ut2eps.algebra) == 2
    assert exponent(m2sl2.algebra) == 4
    assert exponent(builtin("Fn(1)+Fn(1)").algebra) == 1
    assert exponent(truncated_poly(3, unital=False)) == 0


def test_exponent_bigger_patterns():
    assert exponent(builtin("UTk(3)").algebra) == 3
    assert exponent(builtin("Mk(2)").algebra) == 4
    assert exponent(quaternions()) == 4
    assert exponent(truncated_poly(4, unital=True)) == 1


def test_detect_ut2_pattern(ut2eps):
    wd = wedderburn(ut2eps.algebra)
    w = detect_ut2_pattern(ut2eps.algebra, wd)
    assert w is not None
    i, k, elem = w
    assert (i, k) == (0, 1)
    assert elem == {2: F(1)}
    plain = builtin("Fn(2)").algebra
    assert detect_ut2_pattern(plain, wedderburn(plain)) is None


def test_classify_ut2eps(ut2eps):
    rep = classify(ut2eps, max_n=2)
    assert rep.exponent == 2
    assert not rep.polynomial_growth
    assert rep.q == 2
    assert rep.witness is not None
    conds = rep.condition_results
    assert conds["exponent_at_most_one"] is False
    assert conds["ordinary_exponent_at_most_one"] is False
    assert conds["no_linked_pair_and_no_big_block"] is False
    assert conds["block_sum_structure"] is False
    assert conds["codim_values"] == [2, 5]
    assert conds["ordinary_codim_values"] == [1, 2]
    assert rep.hypothesis_flags["action_semisimple"] is False
    assert rep.hypothesis_flags["radical_action_stable"] is True


def test_classify_m2sl2(m2sl2):
    rep = classify(m2sl2, max_n=2)
    assert rep.exponent == 4
    assert not rep.polynomial_growth
    # the obstruction is a big block, not a linked pair
    assert rep.witness is None
    assert rep.condition_results["no_linked_pair_and_no_big_block"] is False
    assert rep.hypothesis_flags["action_semisimple"] is True


def test_classify_polynomial_input():
    rep = classify(scaled_poly_algebra(), max_n=3)
    assert rep.exponent == 1
    assert rep.polynomial_growth
    conds = rep.condition_results
    for key in ("exponent_at_most_one", "ordinary_exponent_at_most_one",
                "no_linked_pair_and_no_big_block", "block_sum_structure"):
        assert conds[key] is True
    assert conds["cocharacter_support"] is True
    assert all(v["holds"] for v in
               conds["cocharacter_support_by_n"].values())
    # A = F + Ft, t^2 = 0, eps(t) = t: commutative and unital, so c_n = 1;
    # a monomial with two eps-words vanishes, one eps-word on x_i is
    # detected by x_i = t, others 1, so c_n^L = n + 1
    assert conds["codim_values"] == [2, 3, 4]
    assert conds["ordinary_codim_values"] == [1, 1, 1]


def test_classify_report_invariants():
    for seed in range(8):
        awd = random_split_algebra(seed)
        rep = classify(awd, max_n=2)
        assert rep.polynomial_growth == (rep.exponent <= 1)
        if rep.witness is not None:
            assert not rep.polynomial_growth


def test_block_sum_split_refuses_exponential(ut2eps):
    with pytest.raises(NotPolynomialGrowth):
        block_sum_split(ut2eps)


def test_block_sum_split_structure():
    # one block plus the radical, then the bare radical summand
    awd = scaled_poly_algebra()
    parts = block_sum_split(awd)
    assert [p.algebra.dim for p in parts] == [2, 1]
    # semisimple input: no radical summand at all
    two = direct_sum(builtin("Fn(1)+Fn(1)"), builtin("Fn(1)"))
    parts = block_sum_split(two)
    assert sorted(p.algebra.dim for p in parts) == [1, 1, 1]
    # pure nilpotent input: only the radical summand
    nil = truncated_poly(3, unital=False)
    awd = AlgebraWithDerivations(nil, make_action(nil, []))
    parts = block_sum_split(awd)
    assert [p.algebra.dim for p in parts] == [2]


def test_block_sum_split_preserves_codim():
    awd = scaled_poly_algebra()
    parts = block_sum_split(awd)
    summed = direct_sum(*parts) if len(parts) > 1 else parts[0]
    ob_a = operator_basis(awd.algebra, awd.action)
    ob_s = operator_basis(summed.algebra, summed.action)
    for n in (1, 2, 3):
        assert codim(awd.algebra, ob_a, n).c_n_L == \
            codim(summed.algebra, ob_s, n).c_n_L


def test_exponent_ignores_action():
    # the structural exponent depends only on blocks and radical
    ut2 = builtin("UTk(2)")
    assert exponent(ut2.algebra) == exponent(builtin("UT2eps").algebra)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_utk_structure_under_signed_permutation(k):
    a = signed_utk(k, seed=k)
    assert a.unit_witness() is None
    wd = wedderburn(a)
    assert exponent(a, wd) == k
    assert len(wd.radical_basis) == k * (k - 1) // 2
    assert wd.nilpotency_index == k
    # J^i is spanned by the e_ab with b - a >= i, so J^i / J^(i+1) has
    # dimension k - i
    dims = [len(p) for p in wd.radical_power_bases] + [0]
    assert [d - e for d, e in zip(dims, dims[1:])] == list(range(k - 1, 0, -1))


def exhaustive_exponent(a: Algebra, wd) -> int:
    """Reference route: every chain of distinct blocks, with the product
    span rebuilt from scratch along each chain; no memo and no bound."""
    blocks = [list(bb) for bb in wd.block_bases]
    if not blocks:
        return 0
    rad = list(wd.radical_basis)
    best = 0

    def extend(span_vecs: list, used: frozenset, total: int):
        nonlocal best
        best = max(best, total)
        through = dense_span_products(a, span_vecs, rad) if rad else []
        if not through:
            return
        for i, bb in enumerate(blocks):
            if i in used:
                continue
            nxt = dense_span_products(a, through, bb)
            if nxt:
                extend(nxt, used | {i}, total + len(bb))

    for i, bb in enumerate(blocks):
        extend(bb, frozenset([i]), len(bb))
    return best


def two_cycle_quiver() -> Algebra:
    """Path algebra of the quiver 1 -a-> 2 -b-> 1 modulo paths of length
    at least 3, on the basis e1, e2, a, b, ab, ba (paths read left to
    right). The radical path graph is the 2-cycle 1 -> 2 -> 1, and
    e1 J e2 J e1 contains ab, so only the distinct-blocks rule keeps
    the exponent at 2."""
    e1, e2, pa, pb, ab, ba = range(6)
    prods = [(e1, e1, e1), (e2, e2, e2), (e1, pa, pa), (pa, e2, pa),
             (e2, pb, pb), (pb, e1, pb), (pa, pb, ab), (pb, pa, ba),
             (e1, ab, ab), (ab, e1, ab), (e2, ba, ba), (ba, e2, ba)]
    table = {(i, j): {k: F(1)} for i, j, k in prods}
    return Algebra(dim=6, basis_labels=("e1", "e2", "a", "b", "ab", "ba"),
                   table=table, unit=(F(1), F(1), Z, Z, Z, Z))


def _differential_cases():
    for seed in range(60):
        yield pytest.param(random_split_algebra(seed).algebra,
                           id=f"corpus-{seed}")
    for k in range(3, 8):
        yield pytest.param(signed_utk(k, seed=100 + k), id=f"signed-UTk({k})")
    for name in ("UTk(5)+UTk(4)", "UTk(3)+Mk(2)", "UT2eps+UT2eps"):
        yield pytest.param(builtin(name).algebra, id=name)
    yield pytest.param(two_cycle_quiver(), id="two-cycle-quiver")
    # a third block keeps the search going past the 2-cycle, where a
    # chain that reuses a block would reach 3
    yield pytest.param(_plain_sum(two_cycle_quiver(),
                                  cells_algebra([(0, 0)])),
                       id="two-cycle-quiver+F")


@pytest.mark.parametrize("a", list(_differential_cases()))
def test_exponent_matches_exhaustive_search(a):
    wd = wedderburn(a)
    assert exponent(a, wd) == exhaustive_exponent(a, wd)


def test_two_cycle_quiver_exponent():
    a = two_cycle_quiver()
    assert a.associativity_witness() is None
    wd = wedderburn(a)
    assert wd.block_dims == (1, 1)
    assert sorted(wd.radical_path_graph) == [(0, 1), (1, 0)]
    assert exponent(a, wd) == 2


def test_exponent_span_products_are_polynomial(monkeypatch):
    # the exhaustive search makes 8180 span products on UTk(11), the
    # bounded one 65
    a = builtin("UTk(11)").algebra
    wd = wedderburn(a)
    calls = []
    inner = growth.span_products

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(growth, "span_products", counted)
    assert exponent(a, wd) == 11
    assert len(calls) <= 2 * 11 ** 2
