"""The four workloads: seeded inputs, CLI jobs and their exact oracles.

Each workload function writes its inputs under a directory and returns
the jobs of one round. Every input is an isomorphic copy (a change of basis) or
an equivalent restatement (rescaled generators) of a fixed object, so the expected invariants hold at every seed and are written
down here from the mathematics, never read back from the program.

A job's check takes the exit code and the parsed JSON report and
returns the list of mismatches; wrong=True shifts one expected value
per job so the oracle can be shown to reject a wrong answer.
"""

import importlib.util
import json
import random
from pathlib import Path
from typing import Callable, NamedTuple

import algebras

WORKLOADS = ("codim-m2sl2", "classify-corpus", "ideal-ut2eps",
             "structure-utk")


class Job(NamedTuple):
    name: str
    argv: list       # CLI arguments without --format/--out
    check: Callable  # (exit code, report or None) -> list of mismatches


def _expect(got, want, what):
    return [] if got == want else [f"{what}: got {got!r}, want {want!r}"]


def _write(path: Path, data) -> Path:
    path.write_text(json.dumps(data, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _ok_exit(code):
    return _expect(code, 0, "exit code")


# ---------------------------------------------------------------------------
# codim-m2sl2


def codim_m2sl2(diffpi, seed: int, inputs: Path, wrong: bool) -> list:
    awd = diffpi.builtin("M2sl2")
    rng = random.Random(seed)
    n = awd.algebra.dim

    def signs():
        return [rng.choice((1, -1)) for _ in range(n)]

    # The order of the basis sets the elimination's work (2x between
    # these two orders); the signs are seeded and leave it unchanged.
    changes = {
        "sp-id": algebras.signed_permutation(range(n), signs()),
        "sp-swap": algebras.signed_permutation((1, 0, 2, 3), signs()),
        # u2 := u2 +- u1 after seeded sign flips: a unimodular,
        # non-monomial change that makes elimination on Fractions grow
        # its coefficients
        "uni": algebras.then(
            algebras.signed_permutation(range(n), signs()),
            algebras.elementary(n, 2, 1, rng.choice((1, -1)))),
    }
    want_l = [10, 55, 244]
    want_o = [1, 2, 6]
    if wrong:
        want_l = want_l[:-1] + [want_l[-1] + 1]

    def check(code, report):
        if code != 0 or report is None:
            return _ok_exit(code)
        rows = report["results"]["rows"]
        return (_expect([r["c_n_L"] for r in rows], want_l, "c_n_L")
                + _expect([r["c_n"] for r in rows], want_o, "c_n"))

    jobs = []
    for name, change in changes.items():
        st = algebras.change_basis(awd.algebra, awd.action.generators, change)
        path = _write(inputs / f"{name}.json", algebras.to_file(st, "b"))
        jobs.append(Job(name, ["codim", str(path), "--max-n", "3"], check))
    return jobs


# ---------------------------------------------------------------------------
# classify-corpus

# (corpus kind, basis labels, operator labels k, structural exponent,
# members). The labels pin the construction (cells, truncation degree,
# summands), k pins the size of the derivation action, and with them the
# cost. The exponent follows from the construction: one-dimensional
# blocks with no radical path give 1, a nilpotent algebra 0, a linked
# pair of blocks 2 and full 2x2 matrices 4. The members are the first 16
# corpus seeds (random_split_algebra(s) for s = 0, 1, 2, ...) that fall
# in the stratum; the benchmark seed picks one member per stratum, so
# setting up takes the same work at every seed. _draw checks the pick.
# Kind 7 with k = 2 (about half of a round's work in one job) is left
# out so that a 30 s run holds several rounds.
STRATA = (
    (0, ("e00", "e11", "e22", "e33"), 1, 1,
     (10, 31, 56, 126, 141, 174, 198, 246, 282, 318, 327, 356, 367, 455,
      512, 559)),
    (0, ("e00", "e11", "e22"), 1, 1,
     (43, 57, 86, 113, 123, 139, 215, 252, 255, 281, 284, 287, 378, 382,
      396, 420)),
    (1, ("e00", "e01", "e11"), 3, 2,
     (6, 28, 29, 37, 42, 46, 49, 55, 66, 67, 70, 72, 74, 89, 91, 121)),
    (2, ("e00", "e01", "e11", "e22"), 3, 2,
     (94, 95, 143, 245, 304, 308, 335, 419, 484, 489, 503, 515, 526, 543,
      567, 648)),
    (2, ("e00", "e02", "e11", "e22"), 3, 2,
     (1, 18, 22, 33, 62, 108, 118, 146, 147, 166, 180, 213, 229, 233, 270,
      274)),
    (3, ("t0", "t1", "t2", "t3"), 1, 1,
     (3, 26, 51, 85, 90, 101, 107, 114, 122, 161, 207, 216, 220, 228, 273,
      298)),
    (3, ("t0", "t1", "t2"), 1, 1,
     (4, 8, 39, 53, 97, 111, 128, 138, 154, 177, 188, 221, 314, 337, 343,
      360)),
    (4, ("t1", "t2", "t3"), 1, 0,
     (5, 30, 124, 155, 169, 208, 249, 264, 289, 295, 307, 341, 365, 371,
      386, 400)),
    (4, ("t1", "t2"), 1, 0,
     (13, 45, 60, 77, 80, 278, 280, 285, 288, 311, 321, 421, 444, 467, 469,
      482)),
    (5, ("e00", "e01", "e10", "e11"), 10, 4,
     (7, 16, 34, 36, 48, 71, 76, 96, 105, 131, 135, 150, 172, 173, 186,
      187)),
    (6, ("1:t1", "1:t2", "2:t0", "2:t1"), 1, 1,
     (99, 248, 250, 253, 302, 398, 517, 710, 733, 847, 869, 1032, 1068,
      1171, 1329, 1357)),
    (6, ("1:t1", "1:t2", "2:t1", "2:t2"), 1, 0,
     (202, 244, 301, 406, 436, 684, 795, 931, 1103, 1180, 1205, 1235, 1344,
      1486, 1510, 1670)),
    (7, ("1:e00", "1:e01", "1:e11", "2:e00"), 3, 2,
     (9, 11, 12, 40, 50, 61, 63, 64, 68, 75, 83, 93, 103, 112, 133, 142)),
)

AGREEING = ("exponent_at_most_one", "ordinary_exponent_at_most_one",
            "no_linked_pair_and_no_big_block", "block_sum_structure")


def _load_corpus(root: Path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", root / "tests" / "corpus.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _draw(corpus, diffpi, rng: random.Random, stratum):
    """The stratum's corpus algebra picked by rng, checked to be in it."""
    kind, labels, k, _, members = stratum
    s = rng.choice(members)
    awd = corpus.random_split_algebra(s)
    if (random.Random(s).randrange(8) != kind  # corpus draws kind first
            or awd.algebra.basis_labels != labels
            or diffpi.operator_basis(awd.algebra, awd.action).k != k):
        raise RuntimeError(f"corpus seed {s} is not in stratum {stratum[:3]}")
    return awd


def classify_corpus(diffpi, seed: int, inputs: Path, wrong: bool,
                    root: Path) -> list:
    corpus = _load_corpus(root)
    rng = random.Random(seed)
    jobs = []
    for index, stratum in enumerate(STRATA):
        awd = _draw(corpus, diffpi, rng, stratum)
        exp = stratum[3] + (1 if wrong else 0)
        identity = algebras.signed_permutation(range(awd.algebra.dim),
                                               [1] * awd.algebra.dim)
        st = algebras.change_basis(awd.algebra, awd.action.generators,
                                   identity)
        path = _write(inputs / f"a{index:02d}.json",
                      algebras.to_file(st, "b"))

        def check(code, report, exp=exp):
            if code != 0 or report is None:
                return _ok_exit(code)
            res = report["results"]
            cond = res["conditions"]
            out = _expect(res["exponent"], exp, "exponent")
            out += _expect(res["polynomial_growth"], exp <= 1,
                           "polynomial_growth")
            for key in AGREEING:
                out += _expect(cond[key], exp <= 1, key)
            if exp <= 1:
                out += _expect(cond["cocharacter_support"], True,
                               "cocharacter_support")
            return out

        jobs.append(Job(f"a{index:02d}",
                        ["classify", str(path), "--cocharacter-depth", "4",
                         "--budget", "1000000"], check))
    return jobs


# ---------------------------------------------------------------------------
# ideal-ut2eps

# the generators of the UT2eps identity ideal, as in tests/conftest.py;
# each is a list of (coefficient, monomial text) terms so it can be
# rescaled term by term
UT2EPS_GENERATORS = (
    ((1, "[x1,x2]^eps"), (-1, "[x1,x2]")),
    ((1, "x1^eps*x2^eps"),),
    ((1, "x1^epseps"), (-1, "x1^eps")),
)


def _scaled(terms, c: int) -> str:
    parts = []
    for i, (coeff, mono) in enumerate(terms):
        v = coeff * c
        parts.append(f"{v} {mono}" if i == 0
                     else f"{'-' if v < 0 else '+'} {abs(v)} {mono}")
    return " ".join(parts)


def ideal_ut2eps(diffpi, seed: int, inputs: Path, wrong: bool) -> list:
    rng = random.Random(seed)
    jobs = []
    # The generator order decides whether closure grows coefficients:
    # with [x1,x2]^eps - [x1,x2] ahead of x1^eps*x2^eps the same 9501
    # rows cost about six times as much. One job of each order; the seed
    # draws the nonzero scale of every generator, which leaves the ideal
    # and the work unchanged.
    for name, order in (("grown", (0, 1, 2)), ("flat", (1, 0, 2))):
        lines = [_scaled(UT2EPS_GENERATORS[i],
                         rng.choice((-3, -2, -1, 1, 2, 3, 5)))
                 for i in order]
        path = inputs / f"{name}.gens"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        jobs.append(Job(name, ["consequences", "UT2eps", "--gens", str(path),
                               "--n", "4", "--check"], None))
    ideal = 351 + (1 if wrong else 0)

    def check(code, report):
        if code != 0 or report is None:
            return _ok_exit(code)
        res = report["results"]
        return (_expect(res["ideal_dim"], ideal, "ideal_dim")
                + _expect(res["quotient_dim"], 33, "quotient_dim")
                + _expect(res["codim_check"], {"c_n_L": 33, "agree": True},
                          "codim_check"))

    return [job._replace(check=check) for job in jobs]


# ---------------------------------------------------------------------------
# structure-utk


def structure_utk(diffpi, seed: int, inputs: Path, wrong: bool) -> list:
    rng = random.Random(seed)
    jobs = []
    cases = [(f"UTk({k})", k, k, k * (k - 1) // 2, [1] * k)
             for k in range(8, 12)]
    cases += [(f"Mk({k})", k, k * k, 0, [k]) for k in (3, 4)]
    for name, k, exp, rad, blocks in cases:
        awd = diffpi.builtin(name)
        n = awd.algebra.dim
        st = algebras.change_basis(
            awd.algebra, (), algebras.random_signed_permutation(n, rng))
        stem = name.replace("(", "").replace(")", "")
        path = _write(inputs / f"{stem}.json", algebras.to_file(st, "b"))
        if wrong:
            exp += 1

        def check_exp(code, report, exp=exp, rad=rad, blocks=blocks):
            if code != 0 or report is None:
                return _ok_exit(code)
            res = report["results"]
            return (_expect(res["exponent"], exp, "exponent")
                    + _expect(res["radical_dim"], rad, "radical_dim")
                    + _expect(res["block_dims"], blocks, "block_dims"))

        def check_dec(code, report, k=k, rad=rad, blocks=blocks,
                      ut=name.startswith("UTk")):
            if code != 0 or report is None:
                return _ok_exit(code)
            res = report["results"]
            out = (_expect(res["radical_dim"], rad + (1 if wrong else 0),
                           "radical_dim")
                   + _expect(res["block_dims"], blocks, "block_dims"))
            if ut:
                out += _expect(res["nilpotency_index"], k, "nilpotency_index")
            return out

        jobs.append(Job(f"{stem}-exponent", ["exponent", str(path)],
                        check_exp))
        jobs.append(Job(f"{stem}-decompose", ["decompose", str(path)],
                        check_dec))
    return jobs


def build(name: str, diffpi, seed: int, inputs: Path, root: Path,
          wrong: bool = False) -> list:
    """Write the workload's inputs under inputs and return its jobs."""
    inputs.mkdir(parents=True, exist_ok=True)
    if name == "codim-m2sl2":
        return codim_m2sl2(diffpi, seed, inputs, wrong)
    if name == "classify-corpus":
        return classify_corpus(diffpi, seed, inputs, wrong, root)
    if name == "ideal-ut2eps":
        return ideal_ut2eps(diffpi, seed, inputs, wrong)
    if name == "structure-utk":
        return structure_utk(diffpi, seed, inputs, wrong)
    raise ValueError(f"unknown workload {name!r}")
