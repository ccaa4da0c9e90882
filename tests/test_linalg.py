from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from diffpi import linalg
from diffpi.linalg import (RowSpan, as_scalar, coordinates, nullspace,
                           solve)

F = Fraction


def dense(rows):
    return [[F(x) for x in r] for r in rows]


def columns(rows):
    """The sparse columns of a system given by dense rows, the form that
    nullspace and solve take."""
    return [{i: r[j] for i, r in enumerate(rows) if r[j]}
            for j in range(len(rows[0]))]


def vector(xs):
    return {i: x for i, x in enumerate(xs) if x}


def rank(rows):
    s = RowSpan()
    for r in rows:
        s.insert({j: v for j, v in enumerate(r) if v})
    return len(s)


def test_rank_basic():
    assert rank(dense([[1, 0], [0, 1]])) == 2
    assert rank(dense([[0, 0], [0, 0]])) == 0
    assert rank(dense([[1, 2], [2, 4]])) == 1
    assert rank(dense([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2


def test_rank_rectangular_and_fractions():
    m = dense([[F(1, 2), F(1, 3), 0], [F(1, 4), F(1, 6), 0]])
    assert rank(m) == 1
    assert rank(dense([[1], [2], [3]])) == 1


def test_nullspace_kernel_property():
    rows = [[1, 2, 3], [4, 5, 6]]
    m = dense(rows)
    ns = nullspace(columns(m))
    assert len(ns) == 1
    for v in ns:
        for r in rows:
            assert sum(F(r[j]) * y for j, y in v.items()) == 0


def test_nullspace_full_rank_empty():
    assert nullspace(columns(dense([[2, 0], [0, 3]]))) == []


def test_solve_consistent():
    m = dense([[1, 1], [1, -1]])
    x = solve(columns(m), vector([F(3), F(1)]))
    assert x == {0: F(2), 1: F(1)}


def test_solve_inconsistent_returns_none():
    m = dense([[1, 1], [2, 2]])
    assert solve(columns(m), vector([F(1), F(3)])) is None


def test_solve_underdetermined_has_zero_free_vars():
    m = dense([[1, 1, 1]])
    x = solve(columns(m), vector([F(5)]))
    assert x is not None
    assert sum(x.values()) == 5


def test_combine():
    assert linalg.combine({}, []) == {}
    vectors = [{0: F(1), 2: F(2)}, {0: F(5), 1: F(5), 2: F(5)}, {1: F(1)}]
    assert linalg.combine({0: F(2), 1: F(0), 2: F(-1, 2)}, vectors) \
        == {0: F(2), 1: F(-1, 2), 2: F(4)}
    # terms that cancel leave no zero entry
    assert linalg.combine({0: F(1), 1: F(-1)}, [vectors[2], vectors[2]]) == {}


def test_sparse_rejects_dict():
    # enumerate() over a dict would read its keys as the entries
    assert linalg.sparse((F(0), F(2))) == {1: F(2)}
    with pytest.raises(TypeError):
        linalg.sparse({1: F(2)})


def test_as_scalar_rejects_float():
    with pytest.raises(TypeError):
        as_scalar(0.5)
    assert as_scalar(3) == F(3)
    assert as_scalar(F(1, 2)) == F(1, 2)


def test_rowspan_insert_and_contains():
    s = RowSpan()
    assert s.insert({0: F(1), 1: F(2)})
    assert not s.insert({0: F(2), 1: F(4)})
    assert s.contains({0: F(-1), 1: F(-2)})
    assert not s.contains({2: F(1)})
    assert len(s) == 1


def combine(coeffs, basis):
    """sum of coeffs[key] times basis[key], without zeros"""
    out: dict = {}
    for key, c in coeffs.items():
        for col, v in basis[key].items():
            out[col] = out.get(col, F(0)) + c * v
    return {k: v for k, v in out.items() if v}


def test_rowspan_express_combination():
    s = RowSpan()
    rows = [{0: F(1), 1: F(1)}, {1: F(1), 2: F(1)}]
    for r in rows:
        assert s.insert(dict(r))
    target = {0: F(2), 1: F(3), 2: F(1)}
    # the echelon rows are the inserted rows: target is twice the first
    # plus the second
    combo = s.express(dict(target))
    assert combo == {0: F(2), 1: F(1)}
    assert combine(combo, s.pivots) == target
    assert s.express({0: F(1)}) is None
    assert s.express({}) == {}


def test_rowspan_drops_explicit_zero_entries():
    s = RowSpan()
    assert not s.insert({0: F(0)})
    assert s.insert({0: F(1), 1: F(0)})
    assert s.pivots == {0: {0: F(1)}}
    assert s.express({0: F(3), 1: F(0)}) == {0: F(3)}


def test_coordinates_ignore_explicit_zero_entries():
    coords = coordinates([{0: F(1)}, {1: F(1)}])
    assert coords({0: F(1), 1: F(1), 2: F(0)}) == {0: 1, 1: 1}


small_int = st.integers(min_value=-3, max_value=3)


@st.composite
def int_matrix(draw):
    nrows = draw(st.integers(min_value=1, max_value=5))
    ncols = draw(st.integers(min_value=1, max_value=5))
    return [[F(draw(small_int)) for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=60, deadline=None)
@given(int_matrix())
def test_rank_nullity(rows):
    r = rank(rows)
    ns = nullspace(columns(rows))
    assert 0 <= r <= min(len(rows), len(rows[0]))
    assert r + len(ns) == len(rows[0])
    for v in ns:
        for row in rows:
            assert sum(row[j] * b for j, b in v.items()) == 0


@settings(max_examples=60, deadline=None)
@given(int_matrix(), st.data())
def test_solve_roundtrip(rows, data):
    ncols = len(rows[0])
    x = [F(data.draw(small_int)) for _ in range(ncols)]
    b = [sum(r[j] * x[j] for j in range(ncols)) for r in rows]
    y = solve(columns(rows), vector(b))
    assert y is not None
    for r, want in zip(rows, b):
        assert sum(r[j] * v for j, v in y.items()) == want


@settings(max_examples=40, deadline=None)
@given(int_matrix())
def test_rowspan_size_matches_rank(rows):
    # nullspace() reduces the columns forward in a RowSpan of its own:
    # its free columns must be what the pivots leave over
    assert rank(rows) == len(rows[0]) - len(nullspace(columns(rows)))


def rational_pivots(rows):
    """Reference: plain Fraction elimination, each accepted residue
    normalized to leading coefficient 1."""
    pivots, accepted = {}, []
    for row in rows:
        row = {j: v for j, v in row.items() if v}
        while row and min(row) in pivots:
            piv, f = pivots[min(row)], row[min(row)]
            for j, v in piv.items():
                row[j] = row.get(j, F(0)) - f * v
            row = {j: v for j, v in row.items() if v}
        accepted.append(bool(row))
        if row:
            inv = 1 / row[min(row)]
            pivots[min(row)] = {j: v * inv for j, v in row.items()}
    return accepted, pivots


fraction = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(fraction, min_size=5, max_size=5), min_size=1,
                max_size=7))
def test_rowspan_matches_rational_elimination(rows):
    sparse = [{j: v for j, v in enumerate(r) if v} for r in rows]
    want_accepted, want_pivots = rational_pivots(sparse)
    s = RowSpan()
    assert [s.insert(r) for r in sparse] == want_accepted
    assert s.pivots == want_pivots
    rref = s.reduced_rows()
    for c, row in rref.items():
        assert row[c] == 1 and not set(row) & (set(s.pivots) - {c})
        assert s.contains(row)
    for target in sparse:
        combo = s.express(target)
        assert set(combo) <= set(s.pivots) and all(combo.values())
        assert list(combo) == sorted(combo)
        assert combine(combo, s.pivots) == target


def gauss_jordan(rows, ncols):
    """Reference: reduced row echelon form by plain Fraction Gauss-Jordan
    on dense rows, as {pivot column: row}."""
    work = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        pr = next((i for i in range(top, len(work)) if work[i][col]), None)
        if pr is None:
            continue
        work[top], work[pr] = work[pr], work[top]
        inv = 1 / work[top][col]
        work[top] = [v * inv for v in work[top]]
        for i in range(len(work)):
            if i != top and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[top])]
        pivots.append(col)
    return {c: work[i] for i, c in enumerate(pivots)}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(fraction, min_size=4, max_size=4), min_size=1,
                max_size=6), st.lists(fraction, min_size=6, max_size=6))
@example(dense([[1, 0, 2, 1], [3, 0, -1, 1]]), dense([[1, 2, 0, 0, 0, 0]])[0])
@example(dense([[1, 2, 1, 0], [4, -1, 4, 1], [2, 1, 2, 0]]),
         dense([[2, 7, 3, 0, 0, 0]])[0])
@example(dense([[0, 0, 0, 0], [0, 0, 0, 0]]), dense([[0, 1, 0, 0, 0, 0]])[0])
@example(dense([[0, 0, 0, 0]]), [F(0)] * 6)
@example(dense([[2, 1, 0, 3], [0, 1, 1, 1], [1, 0, -1, 1]]), [F(0)] * 6)
def test_nullspace_and_solve_match_gauss_jordan(rows, rhs):
    # the examples: a zero column, a repeated column, an all-zero system
    # with b != 0 and with b = 0, and b = 0 on a system with a kernel
    ncols = len(rows[0])
    rref = gauss_jordan(rows, ncols)
    want = []
    for free in (c for c in range(ncols) if c not in rref):
        vec = [F(0)] * ncols
        vec[free] = F(1)
        for c, row in rref.items():
            vec[c] = -row[free]
        want.append({j: v for j, v in enumerate(vec) if v})
    assert nullspace(columns(rows)) == want
    b = rhs[:len(rows)]
    aug = gauss_jordan([r + [x] for r, x in zip(rows, b)], ncols + 1)
    if ncols in aug:
        assert solve(columns(rows), vector(b)) is None
    else:
        x = [F(0)] * ncols
        for c, row in aug.items():
            x[c] = row[ncols]
        assert solve(columns(rows), vector(b)) == vector(x)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(fraction, min_size=4, max_size=4), max_size=5),
       st.lists(fraction, min_size=5, max_size=5), st.data())
def test_coordinates_match_gauss_jordan(rows, coeffs, data):
    # reference: Gauss-Jordan on [basis^T | v] solves sum c_i basis[i] = v;
    # the basis is independent iff every column of basis^T is a pivot
    basis = [{j: v for j, v in enumerate(r) if v} for r in rows]
    m = len(rows)
    columns = [[r[j] for r in rows] for j in range(4)]
    independent = all(i in gauss_jordan(columns, m) for i in range(m))
    coords = coordinates(basis)
    if not independent:
        assert coords is None
        return
    assert coords({}) == {}
    inside = combine(dict(enumerate(coeffs[:m])), basis)
    want = {i: c for i, c in enumerate(coeffs[:m]) if c}
    assert coords(inside) == want
    v = [data.draw(fraction) for _ in range(4)] + [data.draw(fraction)]
    aug = gauss_jordan([col + [x] for col, x in zip(columns, v)], m + 1)
    sparse_v = {j: x for j, x in enumerate(v) if x}
    if m in aug or v[4]:
        assert coords(sparse_v) is None
    else:
        got = coords(sparse_v)
        assert got == {i: aug[i][m] for i in range(m) if aug[i][m]}
        assert combine(got, basis) == sparse_v


def test_coordinates_edge_cases():
    assert coordinates([])({}) == {}
    assert coordinates([])({0: F(1)}) is None
    assert coordinates([{}]) is None
    assert coordinates([{0: F(1)}, {0: F(-2)}]) is None
    coords = coordinates([{1: F(2)}, {0: F(1), 1: F(1)}])
    assert coords({0: F(3), 1: F(5)}) == {0: F(1), 1: F(3)}
    assert coords({2: F(1)}) is None


def mat_mul(x, y):
    """Reference: the dense row-matrix product x y."""
    n = len(x)
    return [[sum((x[i][k] * y[k][j] for k in range(n)), F(0))
             for j in range(n)] for i in range(n)]


@st.composite
def square_pair(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    entry = st.one_of(st.just(F(0)), fraction)
    return tuple([[draw(entry) for _ in range(n)] for _ in range(n)]
                 for _ in range(2))


@settings(max_examples=80, deadline=None)
@given(square_pair(), st.lists(st.integers(0, 3), max_size=4, unique=True))
@example(([[F(0), F(1)], [F(0), F(0)]], [[F(1), F(0)], [F(0), F(0)]]), [0, 1])
def test_map_helpers_match_dense_matrices(pair, positions):
    x, y = pair
    n = len(x)
    f, g = linalg.to_columns(x), linalg.to_columns(y)
    # column j is the image of e_j, without zeros
    assert f == tuple(vector([x[i][j] for i in range(n)]) for j in range(n))
    assert linalg.to_rows(f) == tuple(map(tuple, x))
    # f after g is the matrix product x y, never y x
    assert linalg.compose(f, g) == linalg.to_columns(mat_mul(x, y))
    assert linalg.trace(f) == sum((x[i][i] for i in range(n)), F(0))
    assert linalg.trace(linalg.compose(f, g)) == sum(
        (mat_mul(x, y)[i][i] for i in range(n)), F(0))
    # applying f is combine(v, f)
    v = vector([F(j + 1) for j in range(n)])
    assert linalg.combine(v, f) == vector(
        [sum((x[i][j] * v.get(j, F(0)) for j in range(n)), F(0))
         for i in range(n)])
    # stack lays the chosen columns side by side, each in a block of n
    chosen = [p for p in positions if p < n]
    flat = linalg.stack(((t, f[p]) for t, p in enumerate(chosen)), n)
    assert flat == vector([x[i][p] for p in chosen for i in range(n)])
