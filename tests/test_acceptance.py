"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Every expected number in this file was either computed by an independent
brute force (criterion 1, scripts/bruteforce_ut2.py) or cross-checked
between two unrelated code paths before being frozen here.
"""

import json
import time
from fractions import Fraction
from itertools import permutations, product

from corpus import PARSER_CORPUS, corpus, truncated_poly
from diffpi import (BudgetExceeded, builtin, check_l_stability, classify,
                    cocharacter, codim, codim_via_ideal,
                    cycle_type_class_size, direct_sum, exponent,
                    format_diff_poly, hook_dimension, inner_derivation,
                    irr_char, is_identity, operator_basis, parse_diff_poly,
                    partitions, radical, radical_powers, split_derivation,
                    wedderburn)
from diffpi.cli import main
from diffpi.linalg import combine

F = Fraction


def verdict(num, ok, detail):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# --------------------------------------------------------------------------
# criterion 1 helper: self-contained brute force on literal 2x2 matrices.
# Nothing here touches the package's evaluation code; the only shared
# ingredient is exact rational arithmetic from the standard library.

def _mat_mul(x, y):
    return [[sum(x[i][h] * y[h][j] for h in range(2)) for j in range(2)]
            for i in range(2)]


def _brute_codim(n, with_action):
    e11 = [[F(1), F(0)], [F(0), F(0)]]
    e12 = [[F(0), F(1)], [F(0), F(0)]]
    e22 = [[F(0), F(0)], [F(0), F(1)]]
    basis = [e11, e12, e22]
    half = [[F(1, 2), F(0)], [F(0), F(-1, 2)]]

    def eps(x):
        hx = _mat_mul(half, x)
        xh = _mat_mul(x, half)
        return [[hx[i][j] - xh[i][j] for j in range(2)] for i in range(2)]

    ops = [lambda x: x, eps] if with_action else [lambda x: x]
    rows = []
    for sigma in permutations(range(n)):
        for labels in product(range(len(ops)), repeat=n):
            row = []
            for args in product(basis, repeat=n):
                value = [[F(1), F(0)], [F(0), F(1)]]
                for pos in range(n):
                    value = _mat_mul(value, ops[labels[pos]](args[sigma[pos]]))
                row.extend(value[0] + value[1])
            rows.append(row)
    # dense Gaussian elimination over the rationals
    rank_count, pivot_col, ncols = 0, 0, len(rows[0])
    work = [row[:] for row in rows]
    while rank_count < len(work) and pivot_col < ncols:
        pivot = next((r for r in range(rank_count, len(work))
                      if work[r][pivot_col]), None)
        if pivot is None:
            pivot_col += 1
            continue
        work[rank_count], work[pivot] = work[pivot], work[rank_count]
        lead = work[rank_count][pivot_col]
        for r in range(rank_count + 1, len(work)):
            factor = work[r][pivot_col] / lead
            if factor:
                work[r] = [a - factor * b
                           for a, b in zip(work[r], work[rank_count])]
        rank_count += 1
        pivot_col += 1
    return rank_count


def test_criterion_01_codimension_oracle(ut2eps, ut2eps_ob):
    t0 = time.perf_counter()
    brute = {(n, act): _brute_codim(n, act)
             for n in (1, 2) for act in (True, False)}
    expected = {(1, True): 2, (2, True): 5, (1, False): 1, (2, False): 2}
    ok = brute == expected
    lib = {}
    for n in (1, 2):
        r = codim(ut2eps.algebra, ut2eps_ob, n)
        lib[(n, True)], lib[(n, False)] = r.c_n_L, r.c_n_ordinary
    ok = ok and lib == expected
    dt = time.perf_counter() - t0
    verdict(1, ok and dt < 1.0,
            f"brute force {brute} == library {lib} == frozen {expected}, "
            f"{dt:.2f}s")


def test_criterion_02_two_path_agreement(ut2eps, ut2eps_ob, ut2eps_gens):
    t0 = time.perf_counter()
    pairs = []
    for n in range(1, 5):
        via_ideal = codim_via_ideal(ut2eps_gens, ut2eps_ob, n)
        via_rank = codim(ut2eps.algebra, ut2eps_ob, n).c_n_L
        pairs.append((n, via_ideal, via_rank))
    ok = all(a == b for _, a, b in pairs)
    dt = time.perf_counter() - t0
    verdict(2, ok and dt < 120.0,
            f"ideal route vs rank route {pairs}, {dt:.1f}s")


def test_criterion_03_closed_form_mismatch_flagged(tmp_path):
    out = tmp_path / "report.json"
    code = main(["codim", "UT2eps", "--max-n", "4", "--formula",
                 "--format", "json", "--out", str(out)])
    rep = json.loads(out.read_text())
    rows = rep["results"]["rows"]
    computed = [r["c_n_L"] for r in rows]
    formula = [r["formula"] for r in rows]
    flags = [r["flag"] for r in rows]
    ok = (code == 0
          and computed == [2, 5, 13, 33]
          and formula == [2 ** (n - 1) * n - 1 for n in (1, 2, 3, 4)]
          and flags[0] == "MISMATCH" and flags[1] == "MISMATCH"
          and all(f == "MISMATCH" for f, c, v in zip(flags, computed, formula)
                  if c != v)
          and any("disagrees" in w for w in rep["warnings"]))
    verdict(3, ok, f"computed {computed} vs formula {formula}, "
                   f"flags {flags}, computed values untouched")


def test_criterion_04_identity_checks(ut2eps, ut2eps_ob, ut2eps_gens):
    t0 = time.perf_counter()
    gen_ok = [is_identity(g, ut2eps.algebra, ut2eps_ob) for g in ut2eps_gens]
    non = [is_identity(parse_diff_poly(s, ut2eps_ob), ut2eps.algebra,
                       ut2eps_ob)
           for s in ("x1^eps*x2", "[x1,x2]")]
    dt = time.perf_counter() - t0
    ok = gen_ok == [True, True, True] and non == [False, False]
    verdict(4, ok and dt < 1.0,
            f"generators {gen_ok}, non-identities {non}, {dt:.2f}s")


def test_criterion_05_exponent_formula(ut2eps, m2sl2):
    t0 = time.perf_counter()
    got = (exponent(ut2eps.algebra),
           exponent(m2sl2.algebra),
           exponent(builtin("Fn(1)+Fn(1)").algebra),
           exponent(truncated_poly(3, unital=False)))
    dt = time.perf_counter() - t0
    ok = got == (2, 4, 1, 0)
    verdict(5, ok and dt < 1.0,
            f"exponents (UT2eps, M2sl2, F+F, 2-dim nilpotent) = {got}, "
            f"{dt:.2f}s")


def test_criterion_06_cocharacter_n2(ut2eps, ut2eps_ob):
    t0 = time.perf_counter()
    table = cocharacter(ut2eps.algebra, ut2eps_ob, 2)
    mults = {lam: (mL, mo) for lam, mL, mo in table.rows}
    ok = mults == {(2,): (3, 1), (1, 1): (2, 1)}
    for mu in ((1, 1), (2,)):
        recon = sum(mL * irr_char(lam, mu) for lam, mL, _ in table.rows)
        ok = ok and recon == table.module_character[mu]
    ok = ok and all(mo <= mL for _, mL, mo in table.rows)
    dt = time.perf_counter() - t0
    verdict(6, ok and dt < 5.0,
            f"multiplicities {mults}, trace reconstruction and "
            f"ordinary-below-differential both hold, {dt:.2f}s")


def test_criterion_07_character_table_suite():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 8):
        parts = partitions(n)
        fact = 1
        for i in range(2, n + 1):
            fact *= i
        ok = ok and sum(hook_dimension(lam) ** 2 for lam in parts) == fact
        tab = {lam: [irr_char(lam, mu) for mu in parts] for lam in parts}
        sizes = [cycle_type_class_size(mu, n) for mu in parts]
        for i, lam in enumerate(parts):
            for kap in parts[i:]:
                dot = sum(s * x * y for s, x, y in
                          zip(sizes, tab[lam], tab[kap]))
                ok = ok and dot == (fact if lam == kap else 0)
    dt = time.perf_counter() - t0
    verdict(7, ok and dt < 30.0,
            f"sum-of-squares and row orthogonality exact for n <= 7, "
            f"{dt:.1f}s")


def test_criterion_08_structure_suite(ut2eps):
    t0 = time.perf_counter()
    ut2 = builtin("UTk(2)").algebra
    rad = radical(ut2)
    strict = ut2.basis_labels.index("e12")
    span_e12 = {strict: F(1)}
    ok = rad == [span_e12]
    # exactly one nonzero radical power: J != 0, J^2 = 0
    ok = ok and len(radical_powers(ut2, rad)) == 1
    ok = ok and wedderburn(ut2).nilpotency_index == 2
    for name in ("UT2eps", "M2sl2", "UTk(2)", "UTk(3)", "Mk(2)", "Fn(2)",
                 "Fn(1)+Fn(1)"):
        awd = builtin(name)
        ok = ok and check_l_stability(awd.algebra, awd.action,
                                      radical(awd.algebra))
    ok = ok and wedderburn(ut2).block_dims == (1, 1)
    ok = ok and wedderburn(builtin("Mk(2)").algebra).block_dims == (2,)
    eps = ut2eps.action.generators[0]
    x, residual = split_derivation(ut2eps.algebra, wedderburn(ut2eps.algebra),
                                   eps)
    ok = ok and inner_derivation(ut2eps.algebra, x).matrix == eps.matrix
    ok = ok and all(not any(row) for row in residual.matrix)
    # x may differ from (e11 - e22)/2 only by a central element
    # (basis order of the builtin is e11, e22, e12)
    shift = combine({0: F(1), 1: F(-1)}, (x, {0: F(1, 2), 1: F(-1, 2)}))
    a = ut2eps.algebra
    central = all(a.product(shift, {i: F(1)}) == a.product({i: F(1)}, shift)
                  for i in range(a.dim))
    ok = ok and central
    dt = time.perf_counter() - t0
    verdict(8, ok and dt < 1.0,
            f"radical span{{e12}} with q=2, all builtin radicals stable, "
            f"blocks (1,1)/(2,), derivation split recovers the inner part "
            f"(x = {x}) with zero residual, {dt:.2f}s")


def test_criterion_09_classifier_coherence():
    # Budget keeps the dense degree-4 instances from dominating the run;
    # the coherence statements are checked at every degree that fits.
    t0 = time.perf_counter()
    entries = corpus(50, seed=20260822)
    cap = 2_000_000
    ok = True
    notes = {"inputs": 0, "poly": 0, "split_checked": 0, "depth4": 0}
    for awd in entries:
        rep = classify(awd, max_n=4, budget=cap)
        cond = rep.condition_results
        four = [cond["exponent_at_most_one"],
                cond["ordinary_exponent_at_most_one"],
                cond["no_linked_pair_and_no_big_block"],
                cond["block_sum_structure"]]
        ok = ok and len(set(four)) == 1
        by_n = cond["cocharacter_support_by_n"]
        if four[0]:
            ok = ok and all(entry["holds"] for entry in by_n.values())
        if len(by_n) == 4:
            notes["depth4"] += 1
        notes["inputs"] += 1
        if rep.polynomial_growth:
            notes["poly"] += 1
            from diffpi import block_sum_split
            parts = block_sum_split(awd)
            summed = direct_sum(*parts)
            ob_a = operator_basis(awd.algebra, awd.action)
            ob_s = operator_basis(summed.algebra, summed.action)
            for n in (1, 2, 3):
                try:
                    ca = codim(awd.algebra, ob_a, n, budget=cap).c_n_L
                    cs = codim(summed.algebra, ob_s, n, budget=cap).c_n_L
                except BudgetExceeded:
                    break
                ok = ok and ca == cs
                notes["split_checked"] += 1
    dt = time.perf_counter() - t0
    verdict(9, ok and notes["inputs"] >= 50 and notes["poly"] >= 10
            and dt < 600.0,
            f"{notes['inputs']} random algebras: structural conditions agree "
            f"pairwise, support holds whenever they do ({notes['depth4']} "
            f"reached degree 4), block-sum split preserved codimensions at "
            f"{notes['split_checked']} degrees over {notes['poly']} "
            f"polynomial inputs, {dt:.1f}s")


def test_criterion_10_property_suite(ut2eps, ut2eps_ob, m2sl2, m2sl2_ob):
    t0 = time.perf_counter()
    ok = True
    # ordinary data never exceeds differential data
    for awd, ob, top in ((ut2eps, ut2eps_ob, 3), (m2sl2, m2sl2_ob, 2)):
        for n in range(1, top + 1):
            r = codim(awd.algebra, ob, n)
            ok = ok and r.c_n_ordinary <= r.c_n_L
            table = cocharacter(awd.algebra, ob, n)
            ok = ok and all(mo <= mL for _, mL, mo in table.rows)
    # codimension of a sum never exceeds the sum of codimensions
    entries = corpus(6, seed=7)
    pairs = list(zip(entries[::2], entries[1::2]))
    for b1, b2 in pairs:
        both = direct_sum(b1, b2)
        ob_s = operator_basis(both.algebra, both.action)
        ob_1 = operator_basis(b1.algebra, b1.action)
        ob_2 = operator_basis(b2.algebra, b2.action)
        for n in (1, 2):
            lhs = codim(both.algebra, ob_s, n).c_n_L
            rhs = (codim(b1.algebra, ob_1, n).c_n_L
                   + codim(b2.algebra, ob_2, n).c_n_L)
            ok = ok and lhs <= rhs
    # doubling an algebra changes nothing
    for awd in (ut2eps, entries[0]):
        doubled = direct_sum(awd, awd)
        ob_d = operator_basis(doubled.algebra, doubled.action)
        ob_1 = operator_basis(awd.algebra, awd.action)
        for n in (1, 2):
            ok = ok and (codim(doubled.algebra, ob_d, n).c_n_L
                         == codim(awd.algebra, ob_1, n).c_n_L)
    # parser round trip on the whole expression corpus
    ok = ok and len(set(PARSER_CORPUS)) >= 30
    for text in PARSER_CORPUS:
        p = parse_diff_poly(text, ut2eps_ob)
        printed = format_diff_poly(p, ut2eps_ob)
        ok = ok and parse_diff_poly(printed, ut2eps_ob).terms == p.terms
        ok = ok and format_diff_poly(parse_diff_poly(printed, ut2eps_ob),
                                     ut2eps_ob) == printed
    dt = time.perf_counter() - t0
    verdict(10, ok,
            f"ordinary <= differential, subadditivity on {len(pairs)} sums, "
            f"doubling fixed-point, {len(PARSER_CORPUS)}-expression parser "
            f"round trip, {dt:.1f}s")
