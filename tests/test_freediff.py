import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from corpus import PARSER_CORPUS, corpus, random_split_algebra
from diffpi import (AlgebraWithDerivations, Derivation, DiffPoly,
                    DiffSyntaxError, NotMultilinear, UnknownOperator,
                    builtin, codim, codim_via_ideal, consequences,
                    derive_poly, format_diff_poly, is_identity,
                    make_action, operator_basis, parse_diff_poly, sn_act,
                    validate_multilinear)
from diffpi import freediff
from diffpi.cli import main
from diffpi.freediff import DiffMonomial, adjacent_swaps, apply_word
from diffpi.linalg import RowSpan
from test_codim import sl2_plane
from test_linalg import gauss_jordan

F = Fraction


def _after(f, g):
    """f after g, for maps held as column images."""
    out = []
    for col in g:
        img = {}
        for i, c in col.items():
            for r, x in f[i].items():
                img[r] = img.get(r, 0) + c * x
        out.append({r: x for r, x in img.items() if x})
    return tuple(out)


@lru_cache(maxsize=None)
def _columns(n: int, k: int) -> dict:
    """Column j of a degree-n row is the j-th degree-n monomial over k
    labels in sorted tuple order on (perm, labels)."""
    monos = sorted(DiffMonomial(perm, labels)
                   for perm in permutations(range(n))
                   for labels in product(range(k), repeat=n))
    return {m: j for j, m in enumerate(monos)}


def _row(p: DiffPoly, k: int) -> dict:
    """p as a RowSpan row, columns in the order consequences promises."""
    columns = _columns(p.n, k)
    return {columns[m]: c for m, c in p.terms.items()}


def _coordinates(basis, m):
    """The coordinates of the map m in the maps of basis, by Gauss-Jordan
    on their dense entries, or None when m is outside their span."""
    dim = len(m)

    def entries(f):
        return [f[j].get(i, F(0)) for j in range(dim) for i in range(dim)]
    k = len(basis)
    aug = gauss_jordan([list(row) + [x] for row, x in zip(
        zip(*map(entries, basis)), entries(m))], k + 1)
    if k in aug:
        return None
    assert sorted(aug) == list(range(k))
    return {i: aug[i][k] for i in range(k) if aug[i][k]}


def test_operator_basis_ut2eps(ut2eps, ut2eps_ob):
    ob = ut2eps_ob
    assert ob.gen_names == ("eps",)
    assert ob.k == 2
    assert ob.words[0] == ()
    # closure: every product of basis operators lies in the basis span,
    # and gen_action writes generator products in the basis
    for awd in (ut2eps, builtin("M2sl2"), random_split_algebra(16)):
        ob = operator_basis(awd.algebra, awd.action)
        for f in ob.ops:
            for g in ob.ops:
                assert _coordinates(ob.ops, _after(f, g)) is not None
        for g, gen in enumerate(awd.action.generators):
            for j, op in enumerate(ob.ops):
                assert ob.gen_action[g][j] == _coordinates(
                    ob.ops, _after(gen.columns, op))


def test_operator_basis_composes_each_product_once(monkeypatch, m2sl2):
    calls = []
    inner = freediff.compose

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(freediff, "compose", counted)
    ob = operator_basis(m2sl2.algebra, m2sl2.action)
    assert len(calls) == len(ob.gen_names) * ob.k == 30


def test_operator_basis_m2sl2(m2sl2_ob):
    assert m2sl2_ob.gen_names == ("eps", "delta", "gamma")
    assert m2sl2_ob.k == 10


def test_operator_basis_trivial_action():
    awd = builtin("Fn(2)")
    ob = operator_basis(awd.algebra, awd.action)
    assert ob.k == 1
    assert ob.gen_names == ()


def test_operator_basis_long_words_cli(capsys, tmp_path):
    # zero product and one nilpotent Jordan block d, so E is spanned by
    # 1, d, ..., d^17: words up to length 17, all of them independent
    dim = 18
    jordan = [[int(i == j + 1) for j in range(dim)] for i in range(dim)]
    f = tmp_path / "jordan18.json"
    f.write_text(json.dumps({
        "dim": dim, "basis": [f"e{i}" for i in range(dim)], "table": [],
        "derivations": [{"name": "d", "matrix": jordan}]}))
    code = main(["codim", str(f), "--max-n", "2", "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["results"]["rows"] == [
        {"n": 1, "c_n_L": 18, "c_n": 1}, {"n": 2, "c_n_L": 0, "c_n": 0}]


@pytest.mark.parametrize("src", PARSER_CORPUS)
def test_parse_format_roundtrip(src, ut2eps_ob):
    assert len(set(PARSER_CORPUS)) >= 30
    p = parse_diff_poly(src, ut2eps_ob)
    text = format_diff_poly(p, ut2eps_ob)
    q = parse_diff_poly(text, ut2eps_ob)
    assert q.n == p.n and q.terms == p.terms
    assert format_diff_poly(q, ut2eps_ob) == text


def test_parse_known_expansion(ut2eps_ob):
    p = parse_diff_poly("[x1,x2]^eps - [x1,x2]", ut2eps_ob)
    assert len(p.terms) == 6
    assert all(c in (F(1), F(-1)) for c in p.terms.values())
    # eps is idempotent on UT2, so the second word collapses
    z = parse_diff_poly("x1^epseps - x1^eps", ut2eps_ob)
    assert z.terms == {}
    assert z.n == 1


def test_parse_coefficients(ut2eps_ob):
    p = parse_diff_poly("1/2 x1*x2 + 1/2 x2*x1", ut2eps_ob)
    assert set(p.terms.values()) == {F(1, 2)}
    q = parse_diff_poly("-x1", ut2eps_ob)
    assert list(q.terms.values()) == [F(-1)]


def test_parse_errors_position(ut2eps_ob):
    with pytest.raises(DiffSyntaxError) as e:
        parse_diff_poly("x1^^eps", ut2eps_ob)
    assert e.value.pos == 3
    assert "<HERE>" in str(e.value)
    with pytest.raises(DiffSyntaxError):
        parse_diff_poly("", ut2eps_ob)
    with pytest.raises(DiffSyntaxError):
        parse_diff_poly("x1 +", ut2eps_ob)
    with pytest.raises(DiffSyntaxError):
        parse_diff_poly("[x1,x2,x3]", ut2eps_ob)
    with pytest.raises(DiffSyntaxError):
        parse_diff_poly("x1 @ x2", ut2eps_ob)
    with pytest.raises(DiffSyntaxError) as e:
        parse_diff_poly("x1 + 1/0 x2", ut2eps_ob)
    assert e.value.pos == 5
    # 100 nested levels parse even under pytest's deep stack; 101 do not
    nest = "(" * 99 + "[x1,x2]" + ")" * 99
    assert (parse_diff_poly(nest, ut2eps_ob).terms
            == parse_diff_poly("[x1,x2]", ut2eps_ob).terms)
    with pytest.raises(DiffSyntaxError) as e:
        parse_diff_poly("(" + nest + ")", ut2eps_ob)
    assert e.value.pos == 100 and "nested more than 100" in str(e.value)


def test_parse_unknown_operator(ut2eps_ob):
    with pytest.raises(UnknownOperator):
        parse_diff_poly("x1^zeta", ut2eps_ob)
    with pytest.raises(UnknownOperator):
        parse_diff_poly("x1^epszeta", ut2eps_ob)


def test_parse_operator_word_splits():
    # derivations named a, ab, bc, b on M2: a longest-name-first reading
    # takes 'ab' out of 'abc' and is stuck at 'c'
    awd = builtin("M2sl2")
    gens = awd.action.generators
    ders = [Derivation(name=nm, matrix=gens[i % 3].matrix)
            for i, nm in enumerate(("a", "ab", "bc", "b"))]
    ob = operator_basis(awd.algebra, make_action(awd.algebra, ders))
    p = parse_diff_poly("x1^abc", ob)
    q = apply_word((0, 2), parse_diff_poly("x1", ob), ob)
    assert p.terms and p.terms == q.terms
    with pytest.raises(UnknownOperator, match="'a', 'b'.*'ab'"):
        parse_diff_poly("x1^ab", ob)
    with pytest.raises(UnknownOperator, match="cannot split"):
        parse_diff_poly("x1^abcc", ob)


def test_parse_not_multilinear(ut2eps_ob):
    with pytest.raises(NotMultilinear):
        parse_diff_poly("x1*x1", ut2eps_ob)
    with pytest.raises(NotMultilinear):
        parse_diff_poly("x1 + x2", ut2eps_ob)
    with pytest.raises(NotMultilinear):
        parse_diff_poly("x1*x3", ut2eps_ob)


def test_opword_composition_order():
    # the rightmost operator in a word acts first: epsdelta = eps after delta
    awd = builtin("M2sl2")
    ob = operator_basis(awd.algebra, awd.action)
    p = parse_diff_poly("x1^epsdelta", ob)
    q = apply_word((0,), parse_diff_poly("x1^delta", ob), ob)
    assert p.terms == q.terms


def test_sn_act_is_group_action(ut2eps_ob):
    p = parse_diff_poly("x1^eps*x2*x3 - 2 x2*x3*x1", ut2eps_ob)
    g = (1, 2, 0)
    h = (0, 2, 1)
    gh = tuple(g[h[i]] for i in range(3))
    lhs = sn_act(g, sn_act(h, p))
    rhs = sn_act(gh, p)
    assert lhs.terms == rhs.terms
    ident = sn_act((0, 1, 2), p)
    assert ident.terms == p.terms


def test_derive_poly_leibniz_on_product(ut2eps_ob):
    ob = ut2eps_ob
    p = parse_diff_poly("x1", ob)
    q = parse_diff_poly("x1^eps", ob)
    prod = p * q  # x1 * x2^eps after the shift
    d = derive_poly(0, prod, ob)
    want = (derive_poly(0, p, ob) * q) + (p * derive_poly(0, q, ob))
    assert d.terms == want.terms


def test_apply_word_composes_rightmost_first(ut2eps_ob):
    ob = ut2eps_ob
    p = parse_diff_poly("x1*x2", ob)
    one_then_one = apply_word((0,), apply_word((0,), p, ob), ob)
    both = apply_word((0, 0), p, ob)
    assert one_then_one.terms == both.terms


def test_consequences_ut2eps_degree2(ut2eps_gens, ut2eps_ob):
    basis = consequences(ut2eps_gens, 2, ut2eps_ob)
    assert len(basis) == 3
    for b in basis:
        assert validate_multilinear(b) == 2


def test_consequences_closed_under_derive_and_swap(ut2eps_gens, ut2eps_ob):
    ob = ut2eps_ob
    basis = consequences(ut2eps_gens, 2, ob)
    span = RowSpan()
    for b in basis:
        span.insert(_row(b, ob.k))
    for b in basis:
        for image in (derive_poly(0, b, ob), sn_act((1, 0), b)):
            row = _row(image, ob.k)
            assert not row or span.contains(row)


def test_consequences_skips_generators_above_degree(ut2eps, ut2eps_gens,
                                                   ut2eps_ob):
    # only the degree-1 generator can act at n = 1, and x1^epseps - x1^eps
    # is zero over the image alphabet: eps o eps = eps on UT2eps
    assert consequences(ut2eps_gens, 1, ut2eps_ob) == []
    assert (codim_via_ideal(ut2eps_gens, ut2eps_ob, 1)
            == codim(ut2eps.algebra, ut2eps_ob, 1).c_n_L == 2)


def _all_orders_consequences(gens, n, ob) -> dict:
    """Reference route: the consequence span with every generator
    substituted in all n! variable orders, built from DiffPoly products
    and apply_word, then closed under the generating derivations and
    adjacent swaps. Returns its reduced echelon basis {pivot: row}."""
    k = ob.k
    span = RowSpan()
    queue = []

    def push(p):
        row = _row(p, k)
        if row and span.insert(row):
            queue.append(p)

    for g in gens:
        d = g.n
        if d > n:
            continue
        for seq in permutations(range(n)):
            for cuts in combinations(range(n + 1), d + 1):
                for labels in product(range(k), repeat=n):
                    def mono(lo, hi):
                        return DiffPoly(n, {DiffMonomial(
                            seq[lo:hi], labels[lo:hi]): F(1)})
                    blocks = [mono(cuts[i], cuts[i + 1]) for i in range(d)]
                    inst = DiffPoly(n)
                    for gm, gc in g.terms.items():
                        term = mono(0, cuts[0])
                        for y, h in zip(gm.perm, gm.labels):
                            term = term * apply_word(ob.words[h], blocks[y], ob)
                        term = term * mono(cuts[d], n)
                        inst = inst + term.scale(gc)
                    push(inst)
    while queue:
        p = queue.pop()
        for g in range(len(ob.gen_names)):
            push(derive_poly(g, p, ob))
        for sw in adjacent_swaps(n):
            push(sn_act(sw, p))
    return span.reduced_rows()


def _assert_matches_all_orders(gens, n, ob):
    basis = consequences(gens, n, ob)
    ref = _all_orders_consequences(gens, n, ob)
    # same span, returned as its reduced echelon rows sorted by pivot
    assert [_row(b, ob.k) for b in basis] == [ref[c] for c in sorted(ref)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_consequences_match_all_orders_route(ut2eps_gens, ut2eps_ob, n):
    _assert_matches_all_orders(ut2eps_gens, n, ut2eps_ob)


# two-letter slot words over M2sl2's three derivations (k = 10)
M2SL2_GENERATORS = ("x1^epsdelta*x2 - x2^gamma*x1",
                    "x1^deltaeps - x1^gammagamma")


@pytest.mark.parametrize("src", M2SL2_GENERATORS)
def test_consequences_m2sl2_match_all_orders_route(m2sl2_ob, src):
    _assert_matches_all_orders([parse_diff_poly(src, m2sl2_ob)], 2, m2sl2_ob)


@pytest.mark.parametrize("src, rows", [("x1^e*x2^fe", 672),
                                       ("x1^f*x2^fe", 600)])
def test_consequences_of_identity_push_words_in_order(src, rows):
    # on sl2_plane, fe and ef differ, and these identities keep the span
    # inside the identities: a slot word applied in the wrong letter
    # order gives 600 and 672 rows instead
    awd = sl2_plane()
    ob = operator_basis(awd.algebra, awd.action)
    g = parse_diff_poly(src, ob)
    assert is_identity(g, awd.algebra, ob)
    basis = consequences([g], 3, ob)
    assert len(basis) == rows
    assert all(is_identity(b, awd.algebra, ob) for b in basis)
    _assert_matches_all_orders([g], 3, ob)


def test_consequences_never_expand_diff_polys(monkeypatch, ut2eps_gens,
                                              ut2eps_ob):
    # instances and closure step on column digits, not on DiffPoly terms
    def refuse(*args):
        raise AssertionError("consequences expanded a DiffPoly")
    monkeypatch.setattr(freediff, "_derive_terms", refuse)
    assert len(consequences(ut2eps_gens, 4, ut2eps_ob)) == 351


def test_consequences_canonical_under_generator_order_and_scale(ut2eps_gens,
                                                               ut2eps_ob):
    ob = ut2eps_ob
    reordered = [ut2eps_gens[1], ut2eps_gens[0], ut2eps_gens[2]]
    rescaled = [g.scale(F(c)) for g, c in zip(ut2eps_gens, (-3, 2, 5))]
    for n in (3, 4):
        texts = [[format_diff_poly(b, ob) for b in consequences(gens, n, ob)]
                 for gens in (ut2eps_gens, reordered, rescaled)]
        assert texts[0] == texts[1] == texts[2]
        assert len(texts[0]) == {3: 35, 4: 351}[n]


def _assert_reduced_by_leading_monomial(basis):
    """Leading monomials strictly increase in tuple order, each row is 1
    at its own leading monomial and has no term at any other one."""
    leads = [min(b.terms) for b in basis]
    assert all(u < v for u, v in zip(leads, leads[1:]))
    for b, lead in zip(basis, leads):
        assert b.terms[lead] == 1
        assert set(b.terms).isdisjoint(set(leads) - {lead})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_consequences_rows_reduced_ut2eps(ut2eps_gens, ut2eps_ob, n):
    _assert_reduced_by_leading_monomial(consequences(ut2eps_gens, n,
                                                     ut2eps_ob))


def test_consequences_rows_reduced_three_labels():
    # two derivations whose actions on the labels have integer
    # coefficients above 1
    awd = corpus(6, seed=7)[5]
    ob = operator_basis(awd.algebra, awd.action)
    assert ob.k == 3
    assert max(abs(c) for act in ob.gen_action for img in act
               for c in img.values()) > 1
    gens = [parse_diff_poly(src, ob)
            for src in ("x1^d0*x2 - x2*x1^d1", "[x1,x2]*x3^d1")]
    for n, rows in ((2, 14), (3, 156)):
        basis = consequences(gens, n, ob)
        assert len(basis) == rows < factorial(n) * ob.k ** n
        _assert_reduced_by_leading_monomial(basis)
        _assert_matches_all_orders(gens, n, ob)


# UT2eps with its derivation halved: eps/2 after eps/2 is half of eps/2
# (eps is idempotent), so gen_action is {1: 1/2} with denominator 2;
# the generators of its ideal carry the same halves
HALF_EPS_GENERATORS = (
    "[x1,x2]^eps - 1/2 [x1,x2]",
    "x1^eps*x2^eps",
    "x1^epseps - 1/2 x1^eps",
)


@pytest.fixture(scope="module")
def half_eps(ut2eps):
    eps = ut2eps.action.generators[0]
    half = Derivation(eps.name, tuple(tuple(x / 2 for x in row)
                                      for row in eps.matrix))
    awd = AlgebraWithDerivations(ut2eps.algebra,
                                 make_action(ut2eps.algebra, [half]))
    ob = operator_basis(awd.algebra, awd.action)
    assert ob.gen_action == (({1: F(1)}, {1: F(1, 2)}),)
    return awd, ob, [parse_diff_poly(src, ob) for src in HALF_EPS_GENERATORS]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_consequences_half_eps_match_all_orders_route(half_eps, n):
    awd, ob, gens = half_eps
    _assert_matches_all_orders(gens, n, ob)
    assert (codim_via_ideal(gens, ob, n)
            == codim(awd.algebra, ob, n).c_n_L == {1: 2, 2: 5, 3: 13}[n])


def _standard(d: int) -> str:
    """The standard polynomial s_d, sum of sgn(s) x_s(1)...x_s(d)."""
    terms = []
    for perm in permutations(range(1, d + 1)):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        terms.append(("-" if inversions % 2 else "+")
                     + " " + "*".join(f"x{v}" for v in perm))
    return " ".join(terms).lstrip("+ ")


# published bases of the ordinary identities, and c_n at each degree
PUBLISHED_BASES = [
    # M2: s4 and the Hall identity [[x1,x2] o [x3,x4], x5], o the Jordan
    # product (Razmyslov 1973; Drensky 1981)
    ("Mk(2)", (_standard(4), "[[x1,x2]*[x3,x4] + [x3,x4]*[x1,x2], x5]"),
     {4: 23, 5: 91}),
    # UT2: [x1,x2][x3,x4] (Maltsev 1971)
    ("UTk(2)", ("[x1,x2]*[x3,x4]",), {4: 18, 5: 50, 6: 130}),
]


@pytest.mark.parametrize("name, sources, quotients", PUBLISHED_BASES)
def test_published_ordinary_bases(name, sources, quotients):
    awd = builtin(name)
    ob = operator_basis(awd.algebra, awd.action)
    assert ob.k == 1
    gens = [parse_diff_poly(src, ob) for src in sources]
    for n, want in quotients.items():
        assert codim_via_ideal(gens, ob, n) == want
        ordinary = codim(awd.algebra, ob, n, ordinary_only=True)
        assert ordinary.c_n_ordinary == want


def test_format_zero_poly(ut2eps_ob):
    z = DiffPoly(2, {})
    text = format_diff_poly(z, ut2eps_ob)
    p = parse_diff_poly(text, ut2eps_ob)
    assert p.terms == {} and p.n == 2


@st.composite
def random_poly_text(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        order = draw(st.permutations(list(range(1, n + 1))))
        factors = []
        for v in order:
            word = draw(st.sampled_from(["", "^eps", "^epseps"]))
            factors.append(f"x{v}{word}")
        num = draw(st.integers(min_value=-4, max_value=4))
        den = draw(st.integers(min_value=1, max_value=4))
        terms.append((num, f"{abs(num)}/{den} " + "*".join(factors)))
    text = ("-" if terms[0][0] < 0 else "") + terms[0][1]
    for num, body in terms[1:]:
        text += (" - " if num < 0 else " + ") + body
    return text


@settings(max_examples=80, deadline=None)
@given(text=random_poly_text())
def test_roundtrip_random(ut2eps_ob, text):
    p = parse_diff_poly(text, ut2eps_ob)
    out = format_diff_poly(p, ut2eps_ob)
    q = parse_diff_poly(out, ut2eps_ob)
    assert q.terms == p.terms and q.n == p.n


@settings(max_examples=25, deadline=None)
@given(texts=st.lists(random_poly_text(), min_size=1, max_size=3),
       n=st.integers(min_value=1, max_value=3))
def test_consequences_match_all_orders_route_random(ut2eps_ob, texts, n):
    gens = [parse_diff_poly(t, ut2eps_ob) for t in texts]
    _assert_matches_all_orders(gens, n, ut2eps_ob)
