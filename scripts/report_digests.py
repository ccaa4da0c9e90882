"""Print one sha256 per JSON report of a fixed list of CLI calls.

Every report is deterministic, so two checkouts whose printed lines
agree produce byte-identical reports for the whole list. The package is
imported from the src/ next to this script, so

    python scripts/report_digests.py

run in two checkouts compares them. Each line is the digest, the exit
code and the command. The calls run in a temporary directory that holds
the generators file and the algebra file, so no report depends on where
the checkout is.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from diffpi.cli import main  # noqa: E402

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
)


def digests() -> list:
    """(sha256 of the report, exit code, call) for each call."""
    out = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("gens.txt").write_text(GENERATORS, encoding="utf-8")
            Path("skewed.json").write_text(json.dumps(SKEWED),
                                           encoding="utf-8")
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
