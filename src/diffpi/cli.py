"""Command line front end.

One computation per invocation: load an algebra from a JSON file or a
builtin name, run the requested command, render a deterministic report
as a table, CSV, or JSON. Identical input, options and tool version
give byte-identical JSON output; key order is fixed at assembly time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction
from math import factorial
from typing import NamedTuple, Optional

from . import __version__
from .algebra import (Algebra, AlgebraWithDerivations, Derivation, builtin,
                      make_action, split_derivation, wedderburn)
from .codim import (codim, ensure_budget, ensure_consequences_budget,
                    is_identity)
from .characters import cocharacter
from .errors import (BudgetExceeded, DiffPiError, DiffSyntaxError,
                     IntegrityError, InvariantViolation, NonSplit,
                     NotMultilinear, NotPolynomialGrowth, UnknownBuiltin,
                     UnknownOperator)
from .freediff import (consequences, format_diff_poly, operator_basis,
                       parse_diff_poly)
from .growth import classify, detect_ut2_pattern, exponent
from .linalg import ZERO

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_NONSPLIT = 3
EXIT_BUDGET = 4
EXIT_INTEGRITY = 5

_FIELDS = ("dim", "basis", "table", "unit", "derivations", "builtin")


class AlgebraFileError(DiffPiError):
    """Malformed or unreadable algebra or generator file, or an unwritable
    report file; maps to the usage exit code."""


# an error exits with the code of its nearest ancestor in this table
EXIT_CODES = {
    AlgebraFileError: EXIT_USAGE, DiffSyntaxError: EXIT_USAGE,
    NotMultilinear: EXIT_USAGE, UnknownOperator: EXIT_USAGE,
    InvariantViolation: EXIT_INVARIANT, NotPolynomialGrowth: EXIT_INVARIANT,
    NonSplit: EXIT_NONSPLIT, BudgetExceeded: EXIT_BUDGET,
    IntegrityError: EXIT_INTEGRITY}


def exit_code(error: type) -> int:
    """The exit code of an error class, from EXIT_CODES."""
    return next(EXIT_CODES[c] for c in error.__mro__ if c in EXIT_CODES)


def _rat(x, where: str) -> Fraction:
    """Exact rational from a JSON scalar. Floats are rejected so no
    inexact value can enter a computation."""
    if isinstance(x, bool):
        raise AlgebraFileError(f"{where}: booleans are not coefficients")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise AlgebraFileError(f"{where}: cannot parse rational {x!r}")
    if isinstance(x, float):
        raise AlgebraFileError(
            f"{where}: floats are not accepted, write rationals as "
            f"\"p/q\" strings")
    raise AlgebraFileError(f"{where}: expected a rational, got {type(x).__name__}")


def _index(x, dim: int, where: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < dim:
        raise AlgebraFileError(f"{where}: index {x!r} out of range 0..{dim - 1}")
    return x


def parse_algebra_file(data) -> tuple[Algebra, tuple]:
    """AlgebraFile JSON object to an algebra and its declared derivations.

    Schema errors raise AlgebraFileError; the Leibniz check is left to
    make_action so validate can report it as a verdict instead.
    """
    if not isinstance(data, dict):
        raise AlgebraFileError("top level must be a JSON object")
    unknown = sorted(set(data) - set(_FIELDS))
    if unknown:
        raise AlgebraFileError(f"unknown fields: {', '.join(unknown)}")
    if "builtin" in data:
        others = sorted(set(data) - {"builtin"})
        if others:
            raise AlgebraFileError(f"builtin: takes no other fields, got "
                                   f"{', '.join(others)}")
        name = data["builtin"]
        if not isinstance(name, str):
            raise AlgebraFileError("builtin: expected a name string")
        awd = builtin(name)
        return awd.algebra, awd.action.generators
    for req in ("dim", "basis", "table"):
        if req not in data:
            raise AlgebraFileError(f"missing required field {req!r}")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise AlgebraFileError("dim: expected a positive integer")
    basis = data["basis"]
    if (not isinstance(basis, list) or len(basis) != dim
            or not all(isinstance(b, str) for b in basis)):
        raise AlgebraFileError(f"basis: expected a list of {dim} name strings")
    raw = data["table"]
    if not isinstance(raw, list):
        raise AlgebraFileError("table: expected a list of [i, j, cell] triples")
    table: dict = {}
    for t, trip in enumerate(raw):
        where = f"table[{t}]"
        if not isinstance(trip, list) or len(trip) != 3:
            raise AlgebraFileError(f"{where}: expected [i, j, cell]")
        i = _index(trip[0], dim, where)
        j = _index(trip[1], dim, where)
        if (i, j) in table:
            raise AlgebraFileError(f"{where}: duplicate pair ({i}, {j})")
        cell = trip[2]
        if not isinstance(cell, list):
            raise AlgebraFileError(f"{where}: cell must be a list of "
                                   f"[k, coefficient] pairs")
        prod = {}
        for e, pair in enumerate(cell):
            pw = f"{where}.cell[{e}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise AlgebraFileError(f"{pw}: expected [k, coefficient]")
            k = _index(pair[0], dim, pw)
            if k in prod:
                raise AlgebraFileError(f"{pw}: duplicate coordinate {k}")
            c = _rat(pair[1], pw)
            if c:
                prod[k] = c
        if prod:
            table[(i, j)] = prod
    unit = None
    if data.get("unit") is not None:
        uraw = data["unit"]
        if not isinstance(uraw, list) or len(uraw) != dim:
            raise AlgebraFileError(f"unit: expected a list of {dim} coordinates")
        unit = tuple(_rat(x, f"unit[{i}]") for i, x in enumerate(uraw))
    raw_ders = data.get("derivations")
    if raw_ders is not None and not isinstance(raw_ders, list):
        raise AlgebraFileError("derivations: expected a list of "
                               "{name, matrix} objects")
    ders = []
    for d, entry in enumerate(raw_ders or []):
        where = f"derivations[{d}]"
        if (not isinstance(entry, dict)
                or set(entry) != {"name", "matrix"}
                or not isinstance(entry["name"], str)):
            raise AlgebraFileError(f"{where}: expected {{name, matrix}}")
        if not entry["name"]:
            raise AlgebraFileError(f"{where}.name: must be nonempty")
        mraw = entry["matrix"]
        if (not isinstance(mraw, list) or len(mraw) != dim
                or any(not isinstance(r, list) or len(r) != dim for r in mraw)):
            raise AlgebraFileError(f"{where}.matrix: expected {dim} rows "
                                   f"of {dim} rationals")
        matrix = tuple(tuple(_rat(x, f"{where}.matrix[{i}][{j}]")
                             for j, x in enumerate(row))
                       for i, row in enumerate(mraw))
        ders.append(Derivation(name=entry["name"], matrix=matrix))
    names = [d.name for d in ders]
    if len(set(names)) != len(names):
        raise AlgebraFileError("derivations: duplicate names")
    return (Algebra(dim=dim, basis_labels=tuple(basis), table=table,
                    unit=unit), tuple(ders))


class Loaded(NamedTuple):
    source: str
    digest: str
    algebra: Algebra
    derivations: tuple

    def checked(self) -> AlgebraWithDerivations:
        return AlgebraWithDerivations(
            self.algebra, make_action(self.algebra, list(self.derivations)))


def load_input(source: str) -> Loaded:
    """Resolve a path to an AlgebraFile or, failing that, a builtin name.

    The digest is the sha256 of the file bytes, or of the name for a
    builtin, so reports pin down exactly what was computed on. Only an
    unknown name reads "no such builtin"; a known one that fails to
    build, such as a direct sum whose summands name their generators
    differently, raises its own InvariantViolation.
    """
    if os.path.exists(source):
        try:
            with open(source, "rb") as fh:
                blob = fh.read()
        except OSError as e:
            raise AlgebraFileError(f"{source}: {e.strerror or e}")
        digest = hashlib.sha256(blob).hexdigest()
        try:
            data = json.loads(blob.decode("utf-8"))
        except UnicodeDecodeError:
            raise AlgebraFileError(f"{source}: not UTF-8 text")
        except json.JSONDecodeError as e:
            raise AlgebraFileError(
                f"{source}: parse error at line {e.lineno} column "
                f"{e.colno}: {e.msg}")
        a, ders = parse_algebra_file(data)
        return Loaded(source, digest, a, ders)
    try:
        awd = builtin(source)
    except UnknownBuiltin:
        raise AlgebraFileError(
            f"{source}: no such file and no such builtin algebra")
    digest = hashlib.sha256(f"builtin:{source}".encode()).hexdigest()
    return Loaded(source, digest, awd.algebra, awd.action.generators)


# ---------------------------------------------------------------------------
# report assembly and rendering


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _report(args, loaded: Optional[Loaded], results: dict,
            warnings: list) -> dict:
    # echo only computation-relevant options; presentation flags like
    # --format and --out must not break byte-identity of the payload
    options = {k: _jsonable(v) for k, v in sorted(vars(args).items())
               if k not in ("command", "format", "out")}
    inp = None
    if loaded is not None:
        inp = {"source": loaded.source, "sha256": loaded.digest}
    return {
        "tool": "diffpi",
        "version": __version__,
        "command": args.command,
        "options": options,
        "input": inp,
        "results": _jsonable(results),
        "warnings": list(warnings),
    }


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "-"
    if isinstance(v, (list, dict)):
        return json.dumps(v, separators=(",", ":"))
    return str(v)


def _flatten(prefix: str, value, out: list) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, list) and any(isinstance(v, (dict, list))
                                         for v in value):
        for i, v in enumerate(value):
            _flatten(f"{prefix}.{i}", v, out)
    else:
        out.append((prefix, _cell(value)))


def _render_table(report: dict) -> str:
    lines = [f"diffpi {report['version']}  command: {report['command']}"]
    if report["input"]:
        lines.append(f"input: {report['input']['source']}  "
                     f"sha256: {report['input']['sha256'][:16]}")
    lines.append("")
    results = dict(report["results"])
    rows = results.pop("rows", None)
    for key, value in results.items():
        flat: list = []
        _flatten(key, value, flat)
        for k, v in flat:
            lines.append(f"{k}: {v}")
    if rows is not None:
        if results:
            lines.append("")
        if rows:
            headers = list(rows[0].keys())
            cells = [[_cell(r[h]) for h in headers] for r in rows]
            widths = [max(len(h), *(len(c[i]) for c in cells))
                      for i, h in enumerate(headers)]
            lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
            for c in cells:
                lines.append("  ".join(x.ljust(w) for x, w in zip(c, widths)))
        else:
            lines.append("(no rows)")
    if report["warnings"]:
        lines.append("")
        lines.append("warnings:")
        for w in report["warnings"]:
            lines.append(f"  - {w}")
    return "\n".join(lines) + "\n"


def _render_csv(report: dict) -> str:
    # flat key,value dump so the CSV carries every number the JSON does
    flat: list = []
    _flatten("", report["results"], flat)
    out = ["key,value"]
    for k, v in flat:
        if any(ch in v for ch in ",\"\n"):
            v = "\"" + v.replace("\"", "\"\"") + "\""
        out.append(f"{k},{v}")
    return "\n".join(out) + "\n"


def _emit(report: dict, fmt: str, out_path: Optional[str]) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif fmt == "csv":
        text = _render_csv(report)
        for w in report["warnings"]:
            print(f"warning: {w}", file=sys.stderr)
    else:
        text = _render_table(report)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise AlgebraFileError(f"{out_path}: {e.strerror or e}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands: each returns (loaded, results, warnings, exit_code)


def _vec_str(v: dict, dim: int) -> list:
    """A sparse vector's dim coordinates, as strings."""
    return [str(v.get(i, ZERO)) for i in range(dim)]


def cmd_validate(args):
    loaded = load_input(args.input)
    a, ders = loaded.algebra, loaded.derivations
    checks = []
    warnings = []

    def add(name: str, ok: bool, witness=None, note=None):
        checks.append({"check": name, "ok": ok,
                       "witness": witness if witness is not None else None,
                       "note": note})

    wa = a.associativity_witness()
    add("associativity", wa is None,
        witness=None if wa is None else [a.basis_labels[i] for i in wa])
    if a.unit is None:
        add("unit", True, note="none declared")
    else:
        wu = a.unit_witness()
        add("unit", wu is None,
            witness=None if wu is None else a.basis_labels[wu])
    structural_ok = all(c["ok"] for c in checks)
    for d in ders:
        wl = d.leibniz_witness(a) if structural_ok else None
        ok = structural_ok and wl is None
        add(f"leibniz: {d.name}", ok,
            witness=None if wl is None else [a.basis_labels[i] for i in wl],
            note=None if structural_ok else "skipped, algebra checks failed")
    semisimple = None
    lie_dim = None
    if all(c["ok"] for c in checks):
        act = make_action(a, list(ders))
        lie_dim = act.lie_dim
        add("lie closure", True, note=f"closed, dim {lie_dim}")
        semisimple = act.killing_nondegenerate
        if not semisimple:
            warnings.append("action Lie algebra is not semisimple "
                            "(degenerate Killing form)")
    results = {
        "dim": a.dim,
        "basis": list(a.basis_labels),
        "l_semisimple": semisimple,
        "lie_dim": lie_dim,
        "rows": checks,
    }
    ok = all(c["ok"] for c in checks)
    return loaded, results, warnings, (EXIT_OK if ok else EXIT_INVARIANT)


def cmd_codim(args):
    loaded = load_input(args.input)
    loaded.algebra.ensure_associative()
    awd = loaded.checked()
    ob = operator_basis(awd.algebra, awd.action)
    rows = []
    warnings = []
    code = EXIT_OK
    mismatches = []
    for n in range(1, args.max_n + 1):
        try:
            r = codim(awd.algebra, ob, n, ordinary_only=args.ordinary,
                      budget=args.budget)
        except BudgetExceeded as e:
            warnings.append(f"budget exceeded at n = {e.n}: cost {e.cost} "
                            f"over budget {e.budget}; later rows omitted")
            code = EXIT_BUDGET
            break
        if args.ordinary:
            rows.append({"n": n, "c_n": r.c_n_ordinary})
            continue
        row = {"n": n, "c_n_L": r.c_n_L, "c_n": r.c_n_ordinary}
        if args.formula:
            # claimed closed form for the UT2 differential sequence
            f = 2 ** (n - 1) * n - 1
            row["formula"] = f
            row["flag"] = "MATCH" if f == r.c_n_L else "MISMATCH"
            if f != r.c_n_L:
                mismatches.append(n)
        rows.append(row)
    if mismatches:
        warnings.append(
            "closed form 2^(n-1)n-1 disagrees with the computed c_n_L at "
            "n = " + ", ".join(str(n) for n in mismatches)
            + "; computed values kept")
    return loaded, {"rows": rows}, warnings, code


def cmd_cocharacter(args):
    loaded = load_input(args.input)
    loaded.algebra.ensure_associative()
    awd = loaded.checked()
    ob = operator_basis(awd.algebra, awd.action)
    table = cocharacter(awd.algebra, ob, args.n, budget=args.budget)
    rows = [{"lambda": list(lam), "m_L": mL, "m": mo,
             "depth": args.n - lam[0]}
            for lam, mL, mo in table.rows]
    trace = [{"cycle_type": list(mu), "trace": str(tr)}
             for mu, tr in sorted(table.module_character.items())]
    results = {
        "n": args.n,
        "colength_L": table.colength,
        "colength": table.colength_ordinary,
        "module_trace": trace,
        "rows": rows,
    }
    return loaded, results, [], EXIT_OK


def _witness_payload(a: Algebra, witness) -> Optional[dict]:
    if witness is None:
        return None
    i, k, vec = witness
    return {"block_i": i, "block_k": k, "element": _vec_str(vec, a.dim),
            "element_basis": list(a.basis_labels)}


def cmd_exponent(args):
    loaded = load_input(args.input)
    awd = loaded.checked()
    wd = wedderburn(awd.algebra)
    d = exponent(awd.algebra, wd)
    witness = detect_ut2_pattern(awd.algebra, wd)
    results = {
        "exponent": d,
        "polynomial_growth": d <= 1,
        "block_dims": list(wd.block_dims),
        "radical_dim": len(wd.radical_basis),
        "witness": _witness_payload(awd.algebra, witness),
    }
    return loaded, results, [], EXIT_OK


def cmd_classify(args):
    loaded = load_input(args.input)
    awd = loaded.checked()
    rep = classify(awd, max_n=args.cocharacter_depth, budget=args.budget)
    warnings = []
    if not rep.hypothesis_flags["action_semisimple"]:
        warnings.append("action Lie algebra is not semisimple; the "
                        "structural exponent is reported with that "
                        "hypothesis flagged")
    if not rep.hypothesis_flags["radical_action_stable"]:
        warnings.append("radical is not stable under the action")
    done = len(rep.condition_results["codim_values"])
    if done < args.cocharacter_depth:
        warnings.append(f"budget exceeded at n = {done + 1}: codimension "
                        f"values and support bound cover n < {done + 1} "
                        f"only")
    results = {
        "exponent": rep.exponent,
        "polynomial_growth": rep.polynomial_growth,
        "q": rep.q,
        "block_dims": list(rep.block_dims),
        "radical_dim": rep.radical_dim,
        "witness": _witness_payload(awd.algebra, rep.witness),
        "hypothesis_flags": rep.hypothesis_flags,
        "conditions": rep.condition_results,
    }
    return loaded, results, warnings, EXIT_OK


def cmd_check_identity(args):
    loaded = load_input(args.input)
    loaded.algebra.ensure_associative()
    awd = loaded.checked()
    ob = operator_basis(awd.algebra, awd.action)
    rows = []
    for src in args.poly:
        p = parse_diff_poly(src, ob)
        rows.append({"input": src,
                     "canonical": format_diff_poly(p, ob),
                     "identity": is_identity(p, awd.algebra, ob)})
    return loaded, {"rows": rows}, [], EXIT_OK


def _read_generators(path: str, ob) -> list:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise AlgebraFileError(f"{path}: not UTF-8 text")
    except OSError as e:
        raise AlgebraFileError(f"{path}: {e.strerror or e}")
    gens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        src = line.split("#", 1)[0].strip()
        if not src:
            continue
        try:
            gens.append(parse_diff_poly(src, ob))
        except DiffPiError as e:
            raise AlgebraFileError(f"{path}:{lineno}: {e}")
    if not gens:
        raise AlgebraFileError(f"{path}: no generators found")
    return gens


def cmd_consequences(args):
    loaded = load_input(args.input)
    if args.check:
        loaded.algebra.ensure_associative()
    awd = loaded.checked()
    ob = operator_basis(awd.algebra, awd.action)
    gens = _read_generators(args.gens, ob)
    # both costs are checked before the closure runs
    ensure_consequences_budget(gens, args.n, ob.k, args.budget)
    if args.check:
        ensure_budget(args.n, ob.k, awd.algebra.dim, args.budget)
    basis = consequences(gens, args.n, ob)
    space = factorial(args.n) * ob.k ** args.n
    warnings = []
    results = {
        "n": args.n,
        "generators": [format_diff_poly(g, ob) for g in gens],
        "space_dim": space,
        "ideal_dim": len(basis),
        "quotient_dim": space - len(basis),
        "ideal_basis": [format_diff_poly(b, ob) for b in basis],
    }
    if args.check:
        r = codim(awd.algebra, ob, args.n, budget=args.budget)
        agree = (r.c_n_L == results["quotient_dim"])
        results["codim_check"] = {"c_n_L": r.c_n_L, "agree": agree}
        if not agree:
            warnings.append(
                "ideal quotient differs from the evaluation codimension; "
                "the generators do not span the full identity ideal at "
                f"n = {args.n}")
    return loaded, results, warnings, EXIT_OK


def cmd_decompose(args):
    loaded = load_input(args.input)
    awd = loaded.checked()
    a = awd.algebra
    wd = wedderburn(a)
    ders = []
    for d in awd.action.generators:
        x, dprime = split_derivation(a, wd, d)
        outer_zero = not any(any(row) for row in dprime.matrix)
        entry = {"name": d.name, "inner_part": _vec_str(x, a.dim),
                 "outer_zero": outer_zero}
        if not outer_zero:
            entry["outer_matrix"] = [[str(x) for x in row]
                                     for row in dprime.matrix]
        ders.append(entry)
    results = {
        "basis": list(a.basis_labels),
        "radical_dim": len(wd.radical_basis),
        "radical_basis": [_vec_str(v, a.dim) for v in wd.radical_basis],
        "nilpotency_index": wd.nilpotency_index,
        "block_dims": list(wd.block_dims),
        "block_idempotents": [_vec_str(v, a.dim)
                              for v in wd.block_idempotents],
        "radical_path_graph": [list(e) for e in sorted(wd.radical_path_graph)],
        "derivations": ders,
    }
    return loaded, results, [], EXIT_OK


_DISPATCH = {
    "validate": cmd_validate,
    "codim": cmd_codim,
    "cocharacter": cmd_cocharacter,
    "exponent": cmd_exponent,
    "classify": cmd_classify,
    "check-identity": cmd_check_identity,
    "consequences": cmd_consequences,
    "decompose": cmd_decompose,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=None,
                        help="evaluation cost budget (default conservative)")
    common.add_argument("--format", choices=("table", "csv", "json"),
                        default="table", help="output format")
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")
    p = argparse.ArgumentParser(
        prog="diffpi",
        description="differential polynomial identity invariants of "
                    "finite dimensional algebras with derivations")
    p.add_argument("--version", action="version",
                   version=f"diffpi {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    def cmd(name, help_text):
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.add_argument("input", help="algebra file path or builtin name")
        return sp

    cmd("validate", "check algebra and action invariants")
    c = cmd("codim", "differential and ordinary codimension table")
    c.add_argument("--max-n", type=int, default=3, dest="max_n",
                   help="largest degree to compute (default 3)")
    only = c.add_mutually_exclusive_group()
    only.add_argument("--ordinary", action="store_true",
                      help="ordinary codimensions only")
    only.add_argument("--formula", action="store_true",
                      help="compare against the claimed UT2 closed form")
    c = cmd("cocharacter", "cocharacter multiplicities at one degree")
    c.add_argument("--n", type=int, required=True, help="degree")
    cmd("exponent", "growth exponent from the block structure")
    c = cmd("classify", "full polynomial versus exponential growth report")
    c.add_argument("--cocharacter-depth", type=int, default=3,
                   dest="cocharacter_depth",
                   help="largest degree for support and codimension "
                        "values (default 3)")
    c = cmd("check-identity", "test polynomials against the algebra")
    c.add_argument("--poly", action="append", required=True, metavar="EXPR",
                   help="polynomial to test (repeatable)")
    c = cmd("consequences", "degree n span of the consequences of "
                            "generator polynomials")
    c.add_argument("--gens", required=True, metavar="FILE",
                   help="generator file, one polynomial per line, "
                        "# comments")
    c.add_argument("--n", type=int, required=True, help="degree")
    c.add_argument("--check", action="store_true",
                   help="cross-check the quotient against codim")
    cmd("decompose", "radical, Wedderburn blocks, derivation splitting")
    return p


def main(argv=None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(raw)
    except SystemExit as e:
        return EXIT_OK if not e.code else EXIT_USAGE
    for name, least in (("n", 1), ("max_n", 1), ("cocharacter_depth", 1),
                        ("budget", 0)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            print(f"error: --{name.replace('_', '-')} must be at least "
                  f"{least}", file=sys.stderr)
            return EXIT_USAGE
    try:
        loaded, results, warnings, code = _DISPATCH[args.command](args)
        _emit(_report(args, loaded, results, warnings), args.format, args.out)
    except DiffPiError as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, NonSplit):
            print("hint: the semisimple part has no rational Wedderburn "
                  "splitting; supply a split form of the algebra",
                  file=sys.stderr)
        return exit_code(type(e))
    return code


if __name__ == "__main__":
    sys.exit(main())
