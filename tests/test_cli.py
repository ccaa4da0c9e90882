import json

import pytest

from diffpi import DiffPiError
from diffpi.cli import AlgebraFileError, exit_code, main

UT2EPS_GENS_FILE = """\
# generators of the UT2eps identity ideal
[x1,x2]^eps - [x1,x2]
x1^eps*x2^eps   # trailing comment
x1^epseps - x1^eps
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_validate_ut2eps(capsys):
    code, rep, err = run_json(capsys, "validate", "UT2eps")
    assert code == 0
    assert rep["tool"] == "diffpi"
    assert rep["command"] == "validate"
    assert rep["results"]["l_semisimple"] is False
    assert all(row["ok"] for row in rep["results"]["rows"])
    assert any("not semisimple" in w for w in rep["warnings"])


def test_validate_m2sl2_semisimple(capsys):
    code, rep, err = run_json(capsys, "validate", "M2sl2")
    assert code == 0
    assert rep["results"]["l_semisimple"] is True
    assert rep["warnings"] == []


def test_validate_non_associative_file(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({
        "dim": 2, "basis": ["a", "b"],
        "table": [[0, 0, [[1, 1]]], [1, 1, [[0, 1]]],
                  [0, 1, [[0, 1]]], [1, 0, [[1, 1]]]]}))
    code, rep, err = run_json(capsys, "validate", str(f))
    assert code == 2
    rows = {r["check"]: r for r in rep["results"]["rows"]}
    assert rows["associativity"]["ok"] is False
    assert rows["associativity"]["witness"] == ["a", "a", "a"]


def test_non_associative_file_exits_invariant(capsys, tmp_path):
    # a*a = b and b*a = a, so (a*a)*a = a but a*(a*a) = a*b = 0
    f = tmp_path / "na.json"
    f.write_text(json.dumps({"dim": 2, "basis": ["a", "b"],
                             "table": [[0, 0, [[1, 1]]], [1, 0, [[0, 1]]]]}))
    g = tmp_path / "gens.txt"
    g.write_text("[x1,x2]\n")
    for command, *opts in (["codim"], ["cocharacter", "--n", "2"],
                           ["check-identity", "--poly", "x1*x2"],
                           ["exponent"], ["classify"], ["decompose"],
                           ["consequences", "--gens", str(g), "--n", "2",
                            "--check"]):
        code, out, err = run(capsys, command, str(f), *opts)
        assert (command, code) == (command, 2)
        assert "not associative: (a*a)*a != a*(a*a)" in err


def test_non_associative_nonsplit_file_exits_invariant(capsys, tmp_path):
    # a*a = a, a*b = b*a = a + b, b*b = a: the Wedderburn computation
    # stops at NonSplit, and the scan finds (a*a)*b = a + b but
    # a*(a*b) = 2a + b
    f = tmp_path / "na.json"
    f.write_text(json.dumps({"dim": 2, "basis": ["a", "b"],
                             "table": [[0, 0, [[0, 1]]],
                                       [0, 1, [[0, 1], [1, 1]]],
                                       [1, 0, [[0, 1], [1, 1]]],
                                       [1, 1, [[0, 1]]]]}))
    for command in ("exponent", "classify", "decompose"):
        code, out, err = run(capsys, command, str(f))
        assert (command, code) == (command, 2)
        assert "not associative: (a*a)*b != a*(a*b)" in err


def test_associative_nonsplit_file_exits_nonsplit(capsys, tmp_path):
    # Q(i) is associative, so NonSplit stands
    f = tmp_path / "qi.json"
    f.write_text(json.dumps({"dim": 2, "basis": ["one", "i"],
                             "table": [[0, 0, [[0, 1]]], [0, 1, [[1, 1]]],
                                       [1, 0, [[1, 1]]], [1, 1, [[0, -1]]]],
                             "unit": [1, 0]}))
    for command in ("exponent", "classify", "decompose"):
        code, out, err = run(capsys, command, str(f))
        assert (command, code) == (command, 3)
        assert "does not split" in err


def test_decompose_with_a_19_digit_coefficient(capsys, tmp_path):
    # Q x Q on u = p f1 + 2 f2, v = f2 for the prime p = 2^61 - 1:
    # multiplication by u has eigenvalues 2 and p, and trial division of
    # the constant term 2p, which the root theorem needs, takes minutes;
    # the idempotents are f1 = (u - 2v)/p and f2 = v
    p = 2 ** 61 - 1
    f = tmp_path / "qxq.json"
    f.write_text(json.dumps({"dim": 2, "basis": ["u", "v"],
                             "table": [[0, 0, [[0, str(p)],
                                               [1, str(4 - 2 * p)]]],
                                       [0, 1, [[1, 2]]], [1, 0, [[1, 2]]],
                                       [1, 1, [[1, 1]]]]}))
    code, rep, err = run_json(capsys, "decompose", str(f), "--budget", "1")
    assert code == 0
    assert rep["results"]["block_dims"] == [1, 1]
    assert rep["results"]["block_idempotents"] == [[f"1/{p}", f"-2/{p}"],
                                                   ["0", "1"]]
    code, rep, err = run_json(capsys, "exponent", str(f), "--budget", "1")
    assert code == 0


def test_validate_leibniz_failure(capsys, tmp_path):
    f = tmp_path / "nl.json"
    f.write_text(json.dumps({
        "dim": 2, "basis": ["u", "b"],
        "table": [[0, 0, [[0, 1]]], [0, 1, [[1, 1]]], [1, 0, [[1, 1]]]],
        "unit": [1, 0],
        "derivations": [{"name": "d", "matrix": [[1, 0], [0, 0]]}]}))
    code, rep, err = run_json(capsys, "validate", str(f))
    assert code == 2
    rows = {r["check"]: r for r in rep["results"]["rows"]}
    assert rows["leibniz: d"]["ok"] is False
    # computing on the same file fails with the invariant exit code
    code, out, err = run(capsys, "codim", str(f))
    assert code == 2
    assert "Leibniz" in err


def test_codim_formula_flags(capsys):
    code, rep, err = run_json(capsys, "codim", "UT2eps", "--max-n", "2",
                              "--formula")
    assert code == 0
    rows = rep["results"]["rows"]
    assert [r["c_n_L"] for r in rows] == [2, 5]
    assert [r["c_n"] for r in rows] == [1, 2]
    assert [r["formula"] for r in rows] == [0, 3]
    assert all(r["flag"] == "MISMATCH" for r in rows)
    assert any("disagrees" in w for w in rep["warnings"])


def test_codim_ordinary_flag(capsys):
    code, rep, err = run_json(capsys, "codim", "Fn(1)", "--max-n", "4",
                              "--ordinary")
    assert code == 0
    assert [r["c_n"] for r in rep["results"]["rows"]] == [1, 1, 1, 1]
    assert "c_n_L" not in rep["results"]["rows"][0]


def test_codim_budget_prints_completed_rows(capsys):
    code, rep, err = run_json(capsys, "codim", "UT2eps", "--max-n", "5",
                              "--budget", "1000")
    assert code == 4
    assert [r["n"] for r in rep["results"]["rows"]] == [1, 2]
    assert any("budget exceeded at n = 3" in w for w in rep["warnings"])


def test_cocharacter_report(capsys):
    code, rep, err = run_json(capsys, "cocharacter", "UT2eps", "--n", "2")
    assert code == 0
    rows = rep["results"]["rows"]
    assert rows == [
        {"lambda": [2], "m_L": 3, "m": 1, "depth": 0},
        {"lambda": [1, 1], "m_L": 2, "m": 1, "depth": 1},
    ]
    assert rep["results"]["colength_L"] == 5
    assert rep["results"]["colength"] == 2


def test_exponent_and_witness(capsys):
    code, rep, err = run_json(capsys, "exponent", "UT2eps")
    assert code == 0
    assert rep["results"]["exponent"] == 2
    assert rep["results"]["witness"]["element"] == ["0", "0", "1"]
    code, rep, err = run_json(capsys, "exponent", "Fn(1)+Fn(1)")
    assert rep["results"]["exponent"] == 1
    assert rep["results"]["polynomial_growth"] is True
    assert rep["results"]["witness"] is None


def test_exponent_utk15(capsys):
    code, rep, err = run_json(capsys, "exponent", "UTk(15)")
    assert code == 0
    res = rep["results"]
    assert res["exponent"] == 15
    assert res["block_dims"] == [1] * 15
    assert res["radical_dim"] == 105


def test_classify_report(capsys):
    code, rep, err = run_json(capsys, "classify", "UT2eps",
                              "--cocharacter-depth", "2")
    assert code == 0
    res = rep["results"]
    assert res["exponent"] == 2
    assert res["polynomial_growth"] is False
    assert res["conditions"]["codim_values"] == [2, 5]
    assert res["hypothesis_flags"]["action_semisimple"] is False
    assert any("not semisimple" in w for w in rep["warnings"])


def _refuse_float(text):
    raise AssertionError(f"float {text} in a report")


def test_classify_reports_hold_no_floats(capsys):
    for argv in (("classify", "UT2eps"), ("classify", "Mk(2)+UTk(2)"),
                 ("classify", "UT2eps", "--budget", "0")):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0, argv
        json.loads(out, parse_float=_refuse_float)


def test_classify_budget_warns_where_it_stops(capsys):
    # UT2eps has k = 2, dim = 3: degree 2 costs 216, degree 3 costs 3888
    code, rep, err = run_json(capsys, "classify", "UT2eps", "--budget", "0")
    assert code == 0
    cond = rep["results"]["conditions"]
    assert cond["cocharacter_support"] is None
    assert cond["cocharacter_support_by_n"] == {}
    assert cond["codim_values"] == []
    assert any(w.startswith("budget exceeded at n = 1:")
               for w in rep["warnings"])
    code, rep, err = run_json(capsys, "classify", "UT2eps",
                              "--budget", "3887")
    assert code == 0
    assert rep["results"]["conditions"]["codim_values"] == [2, 5]
    assert any(w.startswith("budget exceeded at n = 3:")
               for w in rep["warnings"])
    code, rep, err = run_json(capsys, "classify", "UT2eps",
                              "--budget", "3888")
    assert code == 0
    assert rep["results"]["conditions"]["codim_values"] == [2, 5, 13]
    assert not any("budget" in w for w in rep["warnings"])


def test_check_identity_operator_word_split(capsys, tmp_path):
    # derivations named a, ab, bc, b: 'abc' splits only as a·bc, and 'ab'
    # splits both as a·b and as ab
    eps = [[0, 0, 0], [0, 0, 0], [0, 0, 1]]
    f = tmp_path / "names.json"
    f.write_text(json.dumps({
        "dim": 3, "basis": ["e11", "e22", "e12"],
        "table": [[0, 0, [[0, 1]]], [0, 2, [[2, 1]]], [2, 1, [[2, 1]]],
                  [1, 1, [[1, 1]]]],
        "derivations": [{"name": nm, "matrix": eps}
                        for nm in ("a", "ab", "bc", "b")]}))
    code, out, err = run(capsys, "check-identity", str(f), "--poly", "x1^abc")
    assert code == 0
    code, out, err = run(capsys, "check-identity", str(f), "--poly", "x1^ab")
    assert code == 1
    assert "in two ways: ['a', 'b'] and ['ab']" in err


def test_check_identity_verdicts(capsys):
    code, rep, err = run_json(
        capsys, "check-identity", "UT2eps",
        "--poly", "[x1,x2]^eps - [x1,x2]",
        "--poly", "x1^eps*x2",
        "--poly", "[x1,x2]")
    assert code == 0
    verdicts = [r["identity"] for r in rep["results"]["rows"]]
    assert verdicts == [True, False, False]


def test_check_identity_degree_12(capsys):
    # the prefix walk visits only nonzero prefixes; a dim^n sweep of all
    # 3^12 input tuples per monomial takes minutes here
    tail = "*".join(f"x{i}" for i in range(3, 13))
    code, rep, err = run_json(
        capsys, "check-identity", "UT2eps",
        "--poly", "x1*x2*" + tail,
        "--poly", f"[x1,x2]^eps*{tail} - [x1,x2]*{tail}",
        "--poly", "x1^eps*x2^eps*" + tail)
    assert code == 0
    verdicts = [r["identity"] for r in rep["results"]["rows"]]
    assert verdicts == [False, True, True]


def test_consequences_cross_check(capsys, tmp_path):
    g = tmp_path / "gens.txt"
    g.write_text(UT2EPS_GENS_FILE)
    code, rep, err = run_json(capsys, "consequences", "UT2eps",
                              "--gens", str(g), "--n", "2", "--check")
    assert code == 0
    res = rep["results"]
    assert res["space_dim"] == 8
    assert res["ideal_dim"] == 3
    assert res["quotient_dim"] == 5
    assert res["codim_check"] == {"c_n_L": 5, "agree": True}


def test_consequences_budget(capsys, tmp_path):
    g = tmp_path / "gens.txt"
    g.write_text(UT2EPS_GENS_FILE)
    # (C(4,3) + C(4,3) + C(4,2)) * 2**3 instances * 3! * 2**3 columns
    code, out, err = run(capsys, "consequences", "UT2eps", "--gens", str(g),
                         "--n", "3", "--budget", "1000")
    assert code == 4
    assert out == ""
    assert "consequence closure costs 5376 units" in err
    # the default budget admits n = 4 and refuses n = 6 before any work
    code, rep, err = run_json(capsys, "consequences", "UT2eps",
                              "--gens", str(g), "--n", "4")
    assert code == 0
    assert rep["results"]["ideal_dim"] == 351
    code, out, err = run(capsys, "consequences", "UT2eps", "--gens", str(g),
                         "--n", "6")
    assert code == 4
    assert "costs 268369920 units" in err
    # n = 2: the closure costs 160 units, the --check evaluation 216
    code, rep, err = run_json(capsys, "consequences", "UT2eps", "--gens",
                              str(g), "--n", "2", "--budget", "200")
    assert code == 0 and rep["results"]["ideal_dim"] == 3
    code, out, err = run(capsys, "consequences", "UT2eps", "--gens", str(g),
                         "--n", "2", "--budget", "200", "--check")
    assert code == 4
    assert "evaluation costs 216 units" in err


def test_consequences_incomplete_generators_warn(capsys, tmp_path):
    g = tmp_path / "gens.txt"
    g.write_text("x1^eps*x2^eps\n")
    code, rep, err = run_json(capsys, "consequences", "UT2eps",
                              "--gens", str(g), "--n", "2", "--check")
    assert code == 0
    assert rep["results"]["codim_check"]["agree"] is False
    assert any("do not span" in w for w in rep["warnings"])


def test_not_multilinear_generator_names_its_words(capsys, tmp_path):
    g = tmp_path / "gens.txt"
    for src, want in (("x1^eps*x3", "x1^eps*x3 is not multilinear in x1..x3"),
                      ("x1^eps*x1^eps",
                       "x1^eps*x1^eps is not multilinear in x1..x1")):
        g.write_text(src + "\n")
        code, out, err = run(capsys, "consequences", "UT2eps", "--gens",
                             str(g), "--n", "3")
        assert code == 1 and out == ""
        assert f"{g}:1: monomial {want}" in err


def test_decompose_report(capsys):
    code, rep, err = run_json(capsys, "decompose", "UT2eps")
    assert code == 0
    res = rep["results"]
    assert res["block_dims"] == [1, 1]
    assert res["nilpotency_index"] == 2
    assert res["radical_basis"] == [["0", "0", "1"]]
    assert res["radical_path_graph"] == [[0, 1]]
    d = res["derivations"][0]
    assert d["name"] == "eps" and d["outer_zero"] is True


def test_exit_code_usage_errors(capsys, tmp_path):
    assert main(["codim", "nosuchinput"]) == 1
    capsys.readouterr()
    assert main(["check-identity", "UT2eps", "--poly", "x1^zeta"]) == 1
    capsys.readouterr()
    assert main(["check-identity", "UT2eps", "--poly", "x1*x1"]) == 1
    capsys.readouterr()
    code, out, err = run(capsys, "check-identity", "UT2eps",
                         "--poly", "1/0 x1")
    assert code == 1
    assert "error: zero denominator at position 0" in err
    assert main(["exponent", "UT2eps", "--seed", "1"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()
    assert main(["--version"]) == 0
    capsys.readouterr()
    assert main(["codim", "UT2eps", "--max-n", "0"]) == 1
    capsys.readouterr()
    code, out, err = run(capsys, "codim", "UT2eps", "--budget", "-5")
    assert code == 1
    assert err == "error: --budget must be at least 0\n"
    assert main(["codim", "UT2eps", "--ordinary", "--formula"]) == 1
    capsys.readouterr()
    # a directory as input, and a report path in a missing directory
    code, out, err = run(capsys, "validate", str(tmp_path))
    assert code == 1
    assert f"error: {tmp_path}: Is a directory" in err
    bad = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, "validate", "UT2eps", "--out", str(bad))
    assert code == 1
    assert f"error: {bad}: No such file or directory" in err
    # a generators file that is not UTF-8 text
    g = tmp_path / "gens.txt"
    g.write_bytes(b"x1^eps*x2^eps \xff\n")
    code, out, err = run(capsys, "consequences", "UT2eps", "--gens", str(g),
                         "--n", "2")
    assert code == 1
    assert f"error: {g}: not UTF-8 text" in err


def test_builtin_errors_name_their_cause(capsys):
    # a known sum whose summands name their generators differently is not
    # an unknown name: the direct sum's own error is reported
    code, out, err = run(capsys, "codim", "UT2eps+M2sl2")
    assert code == 2
    assert "direct sum needs identical generator names" in err
    assert "no such builtin" not in err
    for name in ("nosuch", "UT2eps+nosuch", "+"):
        code, out, err = run(capsys, "codim", name)
        assert code == 1
        assert f"{name}: no such file and no such builtin algebra" in err


def test_exit_code_nonsplit(capsys, tmp_path):
    f = tmp_path / "qi.json"
    f.write_text(json.dumps({
        "dim": 2, "basis": ["one", "t"], "unit": [1, 0],
        "table": [[0, 0, [[0, 1]]], [0, 1, [[1, 1]]],
                  [1, 0, [[1, 1]]], [1, 1, [[0, -1]]]]}))
    code, out, err = run(capsys, "decompose", str(f))
    assert code == 3
    assert "hint" in err


def test_algebra_file_schema_errors(capsys, tmp_path):
    cases = [
        ("notjson", "{nope"),
        ("float", json.dumps({"dim": 1, "basis": ["x"],
                              "table": [[0, 0, [[0, 0.5]]]]})),
        ("badindex", json.dumps({"dim": 1, "basis": ["x"],
                                 "table": [[0, 2, [[0, 1]]]]})),
        ("unitlen", json.dumps({"dim": 2, "basis": ["x", "y"],
                                "table": [], "unit": [1]})),
        ("unknown", json.dumps({"dim": 1, "basis": ["x"], "table": [],
                                "extra": 1})),
        ("dupcell", json.dumps({"dim": 1, "basis": ["x"],
                                "table": [[0, 0, [[0, 1]]],
                                          [0, 0, [[0, 1]]]]})),
        ("emptyname", json.dumps({"dim": 1, "basis": ["x"], "table": [],
                                  "derivations": [{"name": "",
                                                   "matrix": [[0]]}]})),
        ("dernumber", json.dumps({"dim": 1, "basis": ["x"], "table": [],
                                  "derivations": 5})),
        ("derdict", json.dumps({"dim": 1, "basis": ["x"], "table": [],
                                "derivations": {"d": {"name": "d",
                                                      "matrix": [[0]]}}})),
    ]
    for name, text in cases:
        f = tmp_path / f"{name}.json"
        f.write_text(text)
        code, out, err = run(capsys, "validate", str(f))
        assert code == 1, name
        assert err.startswith("error:"), name
        if name.startswith("der"):
            assert "derivations: expected a list" in err, name


def _file(**fields):
    """An algebra file on one basis vector x, with fields replaced."""
    return json.dumps({"dim": 1, "basis": ["x"], "table": [],
                       **fields}).encode()


def _cell(*pairs):
    return _file(table=[[0, 0, list(pairs)]])


def _ders(*ders, dim=1):
    return _file(dim=dim, basis=["x", "y"][:dim], derivations=list(ders))


VALIDATE = ("validate", "FILE")


@pytest.mark.parametrize("argv,blob,want", [
    pytest.param(VALIDATE, _cell([0, True]),
                 "table[0].cell[0]: booleans are not coefficients",
                 id="bool-coefficient"),
    pytest.param(VALIDATE, _cell([0, "1/x"]),
                 "table[0].cell[0]: cannot parse rational '1/x'",
                 id="unparsable-coefficient"),
    pytest.param(VALIDATE, _cell([0, None]),
                 "table[0].cell[0]: expected a rational, got NoneType",
                 id="null-coefficient"),
    pytest.param(VALIDATE, b"[]", "top level must be a JSON object",
                 id="top-level-list"),
    pytest.param(VALIDATE, json.dumps({"builtin": 5}).encode(),
                 "builtin: expected a name string", id="builtin-number"),
    pytest.param(VALIDATE, json.dumps({"builtin": "UT2eps", "dim": 7,
                                       "table": "junk",
                                       "derivations": 3}).encode(),
                 "builtin: takes no other fields, got derivations, dim, "
                 "table", id="builtin-with-fields"),
    pytest.param(VALIDATE, json.dumps({"dim": 1, "basis": ["x"]}).encode(),
                 "missing required field 'table'", id="missing-table"),
    pytest.param(VALIDATE, _file(dim=0), "dim: expected a positive integer",
                 id="dim-zero"),
    pytest.param(VALIDATE, _file(dim="3"),
                 "dim: expected a positive integer", id="dim-string"),
    pytest.param(VALIDATE, _file(dim=2),
                 "basis: expected a list of 2 name strings",
                 id="basis-length"),
    pytest.param(VALIDATE, _file(table={}), "table: expected a list",
                 id="table-dict"),
    pytest.param(VALIDATE, _file(table=[[0, 0]]),
                 "table[0]: expected [i, j, cell]", id="table-pair"),
    pytest.param(VALIDATE, _file(table=[[0, 0, 5]]),
                 "table[0]: cell must be a list", id="cell-number"),
    pytest.param(VALIDATE, _cell([0]),
                 "table[0].cell[0]: expected [k, coefficient]",
                 id="cell-one-item"),
    pytest.param(VALIDATE, _cell([0, 1], [0, 2]),
                 "table[0].cell[1]: duplicate coordinate 0",
                 id="cell-repeated-k"),
    pytest.param(VALIDATE, _ders({"name": "d"}),
                 "derivations[0]: expected {name, matrix}",
                 id="derivation-no-matrix"),
    pytest.param(VALIDATE, _ders({"name": "d", "matrix": [[0, 0], [0]]},
                                 dim=2),
                 "derivations[0].matrix: expected 2 rows of 2 rationals",
                 id="matrix-short-row"),
    pytest.param(VALIDATE, _ders({"name": "d", "matrix": [[0]]},
                                 {"name": "d", "matrix": [[1]]}),
                 "derivations: duplicate names", id="derivation-names"),
    pytest.param(VALIDATE, b'{"dim": 1, "basis": ["\xff"]}',
                 "not UTF-8 text", id="algebra-not-utf8"),
    pytest.param(("consequences", "UT2eps", "--gens", "FILE", "--n", "2"),
                 b"# only a comment\n\n   # and another\n",
                 "no generators found", id="gens-only-comments"),
])
def test_input_schema_errors_name_their_field(capsys, tmp_path, argv, blob,
                                              want):
    f = tmp_path / "input"
    f.write_bytes(blob)
    code, out, err = run(capsys, *(str(f) if a == "FILE" else a
                                   for a in argv))
    assert code == 1
    assert err.startswith("error:") and want in err
    assert "Traceback" not in err


@pytest.mark.parametrize("deep", [
    pytest.param("(" * 2000 + "x1" + ")" * 2000, id="parentheses"),
    pytest.param("[" * 2000 + "x1" + ",x1]" * 2000, id="commutators"),
])
def test_deep_nesting_exits_with_a_syntax_error(capsys, tmp_path, deep):
    gens = tmp_path / "gens.txt"
    gens.write_text(deep + "\n")
    for argv in (("check-identity", "UT2eps", "--poly", deep),
                 ("consequences", "UT2eps", "--gens", str(gens), "--n", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and "nested more than 100" in err
        assert "Traceback" not in err


def test_report_top_level_keys(capsys):
    code, rep, err = run_json(capsys, "exponent", "UT2eps")
    assert code == 0
    assert list(rep) == ["tool", "version", "command", "options", "input",
                         "results", "warnings"]


def test_builtin_inside_file(capsys, tmp_path):
    f = tmp_path / "bi.json"
    f.write_text(json.dumps({"builtin": "M2sl2"}))
    code, rep, err = run_json(capsys, "exponent", str(f))
    assert code == 0
    assert rep["results"]["exponent"] == 4


def test_json_byte_determinism(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code = main(["cocharacter", "UT2eps", "--n", "2",
                     "--format", "json", "--out", str(path)])
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_csv_matches_json_content(capsys):
    code, rep, err = run_json(capsys, "codim", "UT2eps", "--max-n", "2")
    code, out, err = run(capsys, "codim", "UT2eps", "--max-n", "2",
                         "--format", "csv")
    assert code == 0
    lines = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
    for i, row in enumerate(rep["results"]["rows"]):
        for key, val in row.items():
            assert lines[f"rows.{i}.{key}"] == str(val)


def test_table_format_headers(capsys):
    code, out, err = run(capsys, "codim", "UT2eps", "--max-n", "2",
                         "--formula")
    assert code == 0
    assert "MISMATCH" in out
    assert "c_n_L" in out
    assert "warnings:" in out


def test_file_and_builtin_digests_differ(capsys, tmp_path):
    code, rep1, err = run_json(capsys, "validate", "UT2eps")
    f = tmp_path / "ut.json"
    f.write_text(json.dumps({"builtin": "UT2eps"}))
    code, rep2, err = run_json(capsys, "validate", str(f))
    assert rep1["input"]["sha256"] != rep2["input"]["sha256"]
    assert rep1["results"] == rep2["results"]


def test_every_error_class_has_an_exit_code():
    seen, todo = [], [DiffPiError]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        seen.append(cls)
    assert AlgebraFileError in seen
    for cls in seen[1:]:
        assert 1 <= exit_code(cls) <= 5, cls.__name__
