"""Exact changes of basis and algebra-file serialization.

A change of basis is an algebra isomorphism, so every invariant the
benchmark checks is the same before and after it; only the structure
constants the program reads differ. Matrices are sparse: a dict of
columns, each a dict {row: Fraction}.
"""

import random
from fractions import Fraction

ONE = Fraction(1)


def _apply(cols, vec):
    """Matrix (dict of columns) times a sparse vector {index: Fraction}."""
    out = {}
    for j, x in vec.items():
        for i, m in cols.get(j, {}).items():
            v = out.get(i, 0) + m * x
            if v:
                out[i] = v
            else:
                out.pop(i, None)
    return out


def _product(table, u, v):
    """Product of two sparse vectors under the structure constants."""
    out = {}
    for i, x in u.items():
        for j, y in v.items():
            for k, c in table.get((i, j), {}).items():
                w = out.get(k, 0) + x * y * c
                if w:
                    out[k] = w
                else:
                    out.pop(k, None)
    return out


def change_basis(algebra, derivations, change):
    """Structure constants, unit and derivation matrices in a new basis.

    change is (p, q): the columns of p are the new basis vectors in old
    coordinates and q is the inverse of p.
    """
    p, q = change
    n = algebra.dim
    for j in range(n):
        if _apply(q, p.get(j, {})) != {j: ONE}:
            raise ValueError("change of basis: q is not the inverse of p")
    table = {}
    for i in range(n):
        for j in range(n):
            cell = _apply(q, _product(algebra.table, p.get(i, {}),
                                      p.get(j, {})))
            if cell:
                table[(i, j)] = cell
    unit = None
    if algebra.unit is not None:
        u = _apply(q, {i: x for i, x in enumerate(algebra.unit) if x})
        unit = [u.get(i, Fraction(0)) for i in range(n)]
    ders = []
    for d in derivations:
        dcols = {j: {i: d.matrix[i][j] for i in range(n) if d.matrix[i][j]}
                 for j in range(n)}
        new_cols = [_apply(q, _apply(dcols, p.get(j, {}))) for j in range(n)]
        ders.append((d.name, [[new_cols[j].get(i, Fraction(0))
                               for j in range(n)] for i in range(n)]))
    return {"dim": n, "table": table, "unit": unit, "derivations": ders}


def then(a, b):
    """Change a followed by change b, b's basis being written in a's."""
    (pa, qa), (pb, qb) = a, b
    return ({j: _apply(pa, col) for j, col in pb.items()},
            {j: _apply(qb, col) for j, col in qa.items()})


def signed_permutation(perm, signs):
    """New basis vector i is signs[i] * e_perm[i]."""
    p = {i: {j: Fraction(s)} for i, (j, s) in enumerate(zip(perm, signs))}
    q = {j: {i: Fraction(s)} for i, (j, s) in enumerate(zip(perm, signs))}
    return p, q


def random_signed_permutation(n, rng: random.Random):
    perm = list(range(n))
    rng.shuffle(perm)
    return signed_permutation(perm, [rng.choice((1, -1)) for _ in range(n)])


def elementary(n, i, j, c):
    """New basis vector i is e_i + c e_j, the rest unchanged.

    Determinant 1, so the change is unimodular and its inverse is the
    same matrix with -c.
    """
    p = {t: {t: ONE} for t in range(n)}
    q = {t: {t: ONE} for t in range(n)}
    p[i] = {i: ONE, j: Fraction(c)}
    q[i] = {i: ONE, j: Fraction(-c)}
    return p, q


def to_file(structure, label: str) -> dict:
    """AlgebraFile JSON object; rationals as strings, never floats."""
    n = structure["dim"]
    table = [[i, j, [[k, str(c)] for k, c in sorted(cell.items())]]
             for (i, j), cell in sorted(structure["table"].items())]
    data = {"dim": n, "basis": [f"{label}{i}" for i in range(n)],
            "table": table}
    if structure["unit"] is not None:
        data["unit"] = [str(x) for x in structure["unit"]]
    data["derivations"] = [{"name": name, "matrix": [[str(x) for x in row]
                                                     for row in m]}
                           for name, m in structure["derivations"]]
    return data
