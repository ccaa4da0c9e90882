"""Brute-force cross-check for the 2x2 upper triangular test case.

Everything here works with literal 2x2 rational matrices and a dense
Gaussian elimination, on purpose: no code is shared with the library so
the numbers frozen into the test suite come from an independent route.

Run as a script to print the table for n = 1..4.
"""

from fractions import Fraction
from itertools import permutations, product

Mat = tuple  # 2x2 matrix as ((a, b), (c, d)) of Fractions


def mat(a, b, c, d) -> Mat:
    return ((Fraction(a), Fraction(b)), (Fraction(c), Fraction(d)))


def mmul(x: Mat, y: Mat) -> Mat:
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def msub(x: Mat, y: Mat) -> Mat:
    return tuple(
        tuple(x[i][j] - y[i][j] for j in range(2)) for i in range(2)
    )


def mscale(s: Fraction, x: Mat) -> Mat:
    return tuple(tuple(s * x[i][j] for j in range(2)) for i in range(2))


E11 = mat(1, 0, 0, 0)
E22 = mat(0, 0, 0, 1)
E12 = mat(0, 1, 0, 0)
BASIS = [E11, E22, E12]
H = mscale(Fraction(1, 2), msub(E11, E22))


def eps(x: Mat) -> Mat:
    return msub(mmul(H, x), mmul(x, H))


def close_label_functions():
    """All distinct compositions of eps on the span, as maps basis -> matrix.

    Returns a list of functions represented by their value tuple on BASIS,
    starting with the identity. Composing further powers of eps until no
    new function appears derives the label alphabet from scratch.
    """
    ident = tuple(BASIS)
    seen = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for f in frontier:
            g = tuple(eps(v) for v in f)
            if g not in seen:
                seen.append(g)
                nxt.append(g)
        frontier = nxt
    return seen


def rank(rows):
    """Plain dense Gaussian elimination over Fraction."""
    rows = [list(r) for r in rows if any(r)]
    r = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while col < ncols and r < len(rows):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][col]
        rows[r] = [inv * v for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        r += 1
        col += 1
    return r


def evaluation_rows(n, funcs):
    """One row per (sigma, label vector); columns run over input tuples x matrix entries."""
    tuples = list(product(range(3), repeat=n))
    rows = {}
    for sigma in permutations(range(n)):
        for labels in product(range(len(funcs)), repeat=n):
            row = []
            for t in tuples:
                m = mat(1, 0, 0, 1)
                for p in range(n):
                    var = sigma[p]
                    m = mmul(m, funcs[labels[p]][t[var]])
                row.extend([m[0][0], m[0][1], m[1][1]])
            rows[(sigma, labels)] = row
    return rows


def codims(n, funcs):
    rows = evaluation_rows(n, funcs)
    c_full = rank(list(rows.values()))
    ordinary = [r for (s, l), r in rows.items() if all(x == 0 for x in l)]
    c_ord = rank(ordinary)
    return c_full, c_ord


def n2_traces(funcs):
    """Traces of the identity and the swap on the n = 2 quotient module."""
    rows = evaluation_rows(2, funcs)
    keys = sorted(rows)
    # greedy independent subset in key order = quotient basis
    basis_keys, basis_rows = [], []
    for k in keys:
        if rank(basis_rows + [rows[k]]) > len(basis_rows):
            basis_keys.append(k)
            basis_rows.append(rows[k])
    def express(v):
        # solve sum c_i basis_rows[i] = v by elimination on the transpose
        ncols = len(v)
        m = len(basis_rows)
        # build augmented system A^T c = v
        at = [[basis_rows[i][j] for i in range(m)] + [v[j]] for j in range(ncols)]
        # gaussian solve
        r = 0
        piv_cols = []
        for col in range(m):
            piv = next((i for i in range(r, len(at)) if at[i][col] != 0), None)
            if piv is None:
                continue
            at[r], at[piv] = at[piv], at[r]
            inv = Fraction(1) / at[r][col]
            at[r] = [inv * x for x in at[r]]
            for i in range(len(at)):
                if i != r and at[i][col] != 0:
                    c = at[i][col]
                    at[i] = [a - c * b for a, b in zip(at[i], at[r])]
            piv_cols.append(col)
            r += 1
        sol = [Fraction(0)] * m
        for i, col in enumerate(piv_cols):
            sol[col] = at[i][m]
        assert all(sum(sol[i] * basis_rows[i][j] for i in range(m)) == v[j]
                   for j in range(ncols))
        return sol
    traces = {}
    for g in [(0, 1), (1, 0)]:
        tr = Fraction(0)
        for i, (sigma, labels) in enumerate(basis_keys):
            moved = (tuple(g[s] for s in sigma), labels)
            tr += express(rows[moved])[i]
        traces[g] = tr
    return traces


def main():
    funcs = close_label_functions()
    print(f"label functions discovered: {len(funcs)}")
    for n in range(1, 5):
        c, c0 = codims(n, funcs)
        print(f"n={n}: c_n^L={c} c_n={c0} dim P_n^L={len(funcs)**n * 1}"
              f" (rows {sum(1 for _ in permutations(range(n))) * len(funcs)**n})")
    tr = n2_traces(funcs)
    print(f"n=2 module traces: id={tr[(0,1)]} swap={tr[(1,0)]}")
    m2 = (tr[(0, 1)] + tr[(1, 0)]) / 2
    m11 = (tr[(0, 1)] - tr[(1, 0)]) / 2
    print(f"n=2 multiplicities: m_(2)={m2} m_(1,1)={m11}")


if __name__ == "__main__":
    main()
