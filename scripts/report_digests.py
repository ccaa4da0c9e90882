"""Print one sha256 per JSON report of a fixed list of CLI calls.

Every report is deterministic, so two checkouts whose printed lines
agree produce byte-identical reports for the whole list. The package is
imported from the src/ next to this script, so

    python scripts/report_digests.py

run in two checkouts compares them. Each line is the digest, the exit
code and the command. The calls run in a temporary directory that holds
the generators file and the algebra files, so no report depends on where
the checkout is.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from diffpi.algebra import builtin  # noqa: E402
from diffpi.cli import main  # noqa: E402
from diffpi.linalg import coordinates, sparse  # noqa: E402

GENERATORS = """\
[x1,x2]^eps - [x1,x2]
x1^eps*x2^eps
x1^epseps - x1^eps
"""

# F[t]/(t^2) on the skewed basis u0 = 1 + t, u1 = t, with d = t d/dt:
# the coordinate section u0 is not multiplicative, so the lifted section
# is corrected (to 1 = u0 - u1), and d is outer on the complement
SKEWED = {
    "dim": 2,
    "basis": ["u0", "u1"],
    "table": [[0, 0, [[0, "1"], [1, "1"]]], [0, 1, [[1, "1"]]],
              [1, 0, [[1, "1"]]]],
    "unit": ["1", "-1"],
    "derivations": [{"name": "d", "matrix": [["0", "0"], ["1", "1"]]}],
}

# UT2eps without its unit on the rational basis f1 = e11/2 + e12/3,
# f2 = 3 e22, f3 = -2/5 e12: the table and eps have real denominators
UT2EPS_TRI = {
    "dim": 3,
    "basis": ["f1", "f2", "f3"],
    "table": [[0, 0, [[0, "1/2"]]], [0, 1, [[2, "-5/2"]]],
              [0, 2, [[2, "1/2"]]], [1, 1, [[1, "3"]]], [2, 1, [[2, "3"]]]],
    "derivations": [{"name": "eps", "matrix": [["0", "0", "0"],
                                               ["0", "0", "0"],
                                               ["-5/6", "0", "1"]]}],
}

# the same algebra with eps halved, so eps/2 acts on its own label by
# 1/2, and the generators of its ideal, which carry the same halves
UT2EPS_TRI_HALF = {**UT2EPS_TRI,
                   "derivations": [{"name": "eps",
                                    "matrix": [["0", "0", "0"],
                                               ["0", "0", "0"],
                                               ["-5/12", "0", "1/2"]]}]}

HALF_GENERATORS = """\
[x1,x2]^eps - 1/2 [x1,x2]
x1^eps*x2^eps
x1^epseps - 1/2 x1^eps
"""

# two-letter words over M2sl2's three derivations (k = 10): the slot
# words of a basis label act on a two-variable block letter by letter
M2SL2_GENERATORS = """\
x1^epsdelta*x2 - x2^gamma*x1
x1^deltaeps - x1^gammagamma
"""

# Q x Q on u = A f1 + 2 f2, v = f2 for the 10-digit prime A = 10^9 + 7:
# multiplication by u has the minimal polynomial (t - 2)(t - A)
A = 10 ** 9 + 7
QXQ = {
    "dim": 2,
    "basis": ["u", "v"],
    "table": [[0, 0, [[0, str(A)], [1, str(4 - 2 * A)]]], [0, 1, [[1, "2"]]],
              [1, 0, [[1, "2"]]], [1, 1, [[1, "1"]]]],
}

# F[x,y]/(x,y)^2 on 1, x, y, three copies summed, with sl2 acting on
# each by e = x d/dy, f = y d/dx and h = x d/dx - y d/dy: the operator
# algebra is Q x M_2(Q), and its block M_2(Q) meets A in three copies
# of its simple module
PLANE_CELLS = {"e": {(1, 2): "1"}, "f": {(2, 1): "1"},
               "h": {(1, 1): "1", (2, 2): "-1"}}
SL2_PLANES = {
    "dim": 9,
    "basis": [f"{c}:{s}" for c in (1, 2, 3) for s in ("1", "x", "y")],
    "table": [[o + i, o + j, [[o + k, "1"]]] for o in (0, 3, 6)
              for i, j, k in ((0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 1),
                              (2, 0, 2))],
    "unit": ["1", "0", "0"] * 3,
    "derivations": [{"name": name,
                     "matrix": [[cells.get((i % 3, j % 3), "0")
                                 if i // 3 == j // 3 else "0"
                                 for j in range(9)] for i in range(9)]}
                    for name, cells in PLANE_CELLS.items()],
}

# M_2(Q) on its matrix units with two inner derivations: the operator
# algebra is Q x M_3(Q), each block meets A in one simple module, and no
# basis vector of M_3(Q) has three distinct rational eigenvalues
M2_INNER = {
    "dim": 4,
    "basis": ["e00", "e01", "e10", "e11"],
    "table": [[0, 0, [[0, "1"]]], [0, 1, [[1, "1"]]], [1, 2, [[0, "1"]]],
              [1, 3, [[1, "1"]]], [2, 0, [[2, "1"]]], [2, 1, [[3, "1"]]],
              [3, 2, [[2, "1"]]], [3, 3, [[3, "1"]]]],
    "unit": ["1", "0", "0", "1"],
    "derivations": [
        {"name": "d0", "matrix": [["0", "2", "1", "0"], ["-1", "1", "0", "1"],
                                  ["-2", "0", "-1", "2"],
                                  ["0", "-2", "-1", "0"]]},
        {"name": "d1", "matrix": [["0", "0", "-2", "0"], ["2", "0", "0", "-2"],
                                  ["0", "0", "0", "0"], ["0", "0", "2", "0"]]},
    ],
}


def dense_utk4() -> dict:
    """UTk(4) on the basis f_i = e_i + ... + e_(dim-1): every product of
    two basis vectors is nonzero, and J, J^2, J^3 have dimensions 6, 3
    and 1, so the radical powers feed the section lift."""
    a = builtin("UTk(4)").algebra
    f = [{k: 1 for k in range(i, a.dim)} for i in range(a.dim)]
    coords = coordinates(f)

    def cell(v: dict) -> list:
        return [[k, str(x)] for k, x in coords(v).items()]

    return {
        "dim": a.dim,
        "basis": [f"f{i}" for i in range(a.dim)],
        "table": [[i, j, cell(a.product(u, v))]
                  for i, u in enumerate(f) for j, v in enumerate(f)],
        "unit": [str(coords(sparse(a.unit)).get(k, 0))
                 for k in range(a.dim)],
    }


CALLS = (
    ["codim", "UT2eps", "--max-n", "6"],
    ["codim", "UT2eps", "--max-n", "6", "--ordinary"],
    ["codim", "UT2eps", "--max-n", "6", "--formula"],
    ["codim", "M2sl2", "--max-n", "3"],
    ["cocharacter", "UT2eps", "--n", "4"],
    ["cocharacter", "M2sl2", "--n", "2"],
    ["classify", "UT2eps"],
    ["consequences", "UT2eps", "--gens", "gens.txt", "--n", "4", "--check"],
    ["exponent", "UTk(6)"],
    ["exponent", "UTk(5)+UTk(4)"],
    ["decompose", "UT2eps"],
    ["check-identity", "UT2eps", "--poly", "x1^eps*x2^eps",
     "--poly", "[x1,x2]"],
    ["validate", "UT2eps"],
    ["decompose", "skewed.json"],
    ["exponent", "skewed.json"],
    ["decompose", "M2sl2"],
    ["decompose", "Mk(2)+Mk(3)+UTk(2)"],
    ["exponent", "Mk(2)+UTk(3)"],
    ["classify", "Mk(2)+UTk(2)"],
    ["cocharacter", "Mk(2)", "--n", "4"],
    ["decompose", "ut2eps_tri.json"],
    ["decompose", "qxq.json"],
    ["consequences", "ut2eps_half.json", "--gens", "half_gens.txt", "--n",
     "4", "--check"],
    # n = 5 costs 49,152,000,000 units and n = 4 245,760,000
    ["codim", "M2sl2", "--max-n", "5", "--budget", "50000000000"],
    ["cocharacter", "M2sl2", "--n", "4", "--budget", "300000000"],
    ["cocharacter", "sl2_planes.json", "--n", "3"],
    ["cocharacter", "m2_inner.json", "--n", "3"],
    ["consequences", "M2sl2", "--gens", "m2sl2_gens.txt", "--n", "2",
     "--check"],
    ["decompose", "dense_utk4.json"],
    ["exponent", "dense_utk4.json"],
)


def digests() -> list:
    """(sha256 of the report, exit code, call) for each call."""
    out = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("gens.txt").write_text(GENERATORS, encoding="utf-8")
            Path("half_gens.txt").write_text(HALF_GENERATORS,
                                             encoding="utf-8")
            Path("m2sl2_gens.txt").write_text(M2SL2_GENERATORS,
                                              encoding="utf-8")
            for name, data in (("skewed.json", SKEWED),
                               ("ut2eps_tri.json", UT2EPS_TRI),
                               ("ut2eps_half.json", UT2EPS_TRI_HALF),
                               ("qxq.json", QXQ),
                               ("sl2_planes.json", SL2_PLANES),
                               ("m2_inner.json", M2_INNER),
                               ("dense_utk4.json", dense_utk4())):
                Path(name).write_text(json.dumps(data), encoding="utf-8")
            for call in CALLS:
                report = Path("report.json")
                report.unlink(missing_ok=True)
                code = main(call + ["--format", "json", "--out", report.name])
                digest = (hashlib.sha256(report.read_bytes()).hexdigest()
                          if report.exists() else "no-report")
                out.append((digest, code, call))
        finally:
            os.chdir(home)
    return out


if __name__ == "__main__":
    for digest, code, call in digests():
        print(digest, code, " ".join(call))
