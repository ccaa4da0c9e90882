"""Multilinear differential polynomials over a finite operator alphabet.

The derivations acting on an algebra generate an associative operator
algebra inside End(A); its finite basis (discovered by word closure) is
the label alphabet attached to variables. A monomial is an ordering of
the variables x1..xn together with one label per position, a polynomial
a rational combination of such monomials of one fixed degree.

Everything downstream (evaluation, codimensions, consequence spans) is
relative to this image alphabet: two superscript words that act equally
on the algebra are the same label here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial
from typing import NamedTuple, Optional, Sequence

from .errors import (CapExceeded, DiffSyntaxError, IntegrityError,
                     NotMultilinear, UnknownOperator)
from .linalg import ONE, ZERO, RowSpan, coordinates

Matrix = tuple  # tuple of row tuples, acting on coordinate columns


def mat_apply(m: Matrix, v: dict) -> dict:
    """The matrix times a sparse vector, as a sparse vector."""
    out = {}
    for i, row in enumerate(m):
        x = sum((row[j] * c for j, c in v.items()), ZERO)
        if x:
            out[i] = x
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n) if a[i][k]), ZERO)
                       for j in range(n)) for i in range(n))


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n))
                 for i in range(n))


def _mat_flat(m: Matrix) -> dict:
    n = len(m)
    return {i * n + j: m[i][j] for i in range(n) for j in range(n) if m[i][j]}


class OperatorBasis(NamedTuple):
    """Finite basis of the operator algebra generated by the action.

    ops[0] is the identity with the empty word. words[i] names ops[i] as
    a product of generator indices, leftmost letter applied last.
    product_table[(i, j)] expands ops[i] o ops[j] in the basis, and
    gen_action[g][j] expands generator g composed onto ops[j].
    """
    dim: int
    gen_names: tuple
    ops: tuple
    words: tuple
    product_table: dict
    gen_action: tuple

    @property
    def k(self) -> int:
        return len(self.ops)

    def word_name(self, label: int) -> str:
        return "".join(self.gen_names[g] for g in self.words[label])


def operator_basis(a, act, degree_cap: int = 16) -> OperatorBasis:
    """Close the generating derivations into an operator basis.

    Breadth first on words: each round composes every generator onto the
    previous round's new operators and keeps those independent from the
    span so far. Stops when a round adds nothing. If the cap is reached
    while new operators still appear, raises CapExceeded rather than
    silently truncating.
    """
    dim = a.dim
    gens = [d.matrix for d in act.generators]
    names = tuple(d.name for d in act.generators)
    ident = mat_identity(dim)
    span = RowSpan()
    if dim:
        span.insert(_mat_flat(ident))
    ops = [ident]
    words = [()]
    frontier = [0]
    length = 0
    while frontier:
        length += 1
        new = []
        for j in frontier:
            for g, gm in enumerate(gens):
                prod = mat_mul(gm, ops[j])
                flat = _mat_flat(prod)
                if flat and span.insert(flat):
                    if length > degree_cap:
                        raise CapExceeded(
                            f"operator closure still growing past word "
                            f"length {degree_cap}",
                            cap=degree_cap, reached=len(ops))
                    ops.append(prod)
                    words.append((g,) + words[j])
                    new.append(len(ops) - 1)
        frontier = new
    # expand products in basis coordinates; the identity is the zero
    # matrix only when dim == 0, and then it is the only operator
    coords = coordinates([flat for flat in map(_mat_flat, ops) if flat])

    def expand(m: Matrix) -> dict:
        combo = coords(_mat_flat(m))
        if combo is None:
            raise IntegrityError("operator span not closed under composition")
        return combo
    product_table = {}
    for i in range(len(ops)):
        for j in range(len(ops)):
            product_table[(i, j)] = expand(mat_mul(ops[i], ops[j]))
    gen_action = tuple(
        tuple(expand(mat_mul(gm, ops[j])) for j in range(len(ops)))
        for gm in gens)
    return OperatorBasis(dim=dim, gen_names=names, ops=tuple(ops),
                         words=tuple(words), product_table=product_table,
                         gen_action=gen_action)


class DiffMonomial(NamedTuple):
    """One product x_{perm[0]}^{labels[0]} ... with 0-indexed variables.

    Ordering of monomials (and hence every deterministic choice built on
    it) is plain tuple order on (perm, labels).
    """
    perm: tuple
    labels: tuple

    @property
    def degree(self) -> int:
        return len(self.perm)


class DiffPoly:
    """Rational combination of monomials of one degree."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[dict] = None):
        self.n = n
        self.terms: dict[DiffMonomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if c:
                    self.terms[m] = c

    @classmethod
    def variable(cls, var: int, n: int, label: int = 0) -> "DiffPoly":
        return cls(n, {DiffMonomial((var,), (label,)): ONE})

    def copy(self) -> "DiffPoly":
        return DiffPoly(self.n, dict(self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, DiffPoly) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, ZERO) + c
            if nc:
                out[m] = nc
            elif m in out:
                del out[m]
        return DiffPoly(max(self.n, other.n), out)

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self + other.scale(-ONE)

    def scale(self, c: Fraction) -> "DiffPoly":
        if not c:
            return DiffPoly(self.n)
        return DiffPoly(self.n, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "DiffPoly") -> "DiffPoly":
        """Concatenation product. Variable disjointness is checked later
        by the multilinearity validation, not here."""
        out: dict[DiffMonomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = DiffMonomial(m1.perm + m2.perm, m1.labels + m2.labels)
                nc = out.get(m, ZERO) + c1 * c2
                if nc:
                    out[m] = nc
                elif m in out:
                    del out[m]
        return DiffPoly(max(self.n, other.n), out)

    def monomials(self) -> list[DiffMonomial]:
        return sorted(self.terms)

    def __repr__(self):
        return f"DiffPoly(n={self.n}, {len(self.terms)} terms)"


def validate_multilinear(p: DiffPoly) -> int:
    """Check every monomial uses exactly the variables 0..n-1 once each.

    Returns n. The zero polynomial passes with its declared n.
    """
    n = p.n
    for m in p.terms:
        if len(m.perm) != n or sorted(m.perm) != list(range(n)):
            seen = "*".join(f"x{v + 1}" for v in m.perm)
            raise NotMultilinear(
                f"monomial {seen} is not multilinear in x1..x{n}: each "
                f"variable must appear exactly once")
    return n


def sn_act(g: Sequence[int], p: DiffPoly) -> DiffPoly:
    """Relabel variables by i -> g[i]; positions and labels stay put."""
    out: dict[DiffMonomial, Fraction] = {}
    for m, c in p.terms.items():
        key = DiffMonomial(tuple(g[v] for v in m.perm), m.labels)
        out[key] = out.get(key, ZERO) + c
    return DiffPoly(p.n, out)


def adjacent_swaps(n: int) -> list:
    """The n-1 transpositions (i i+1) in one-line form; they generate
    S_n."""
    return [tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n))
            for i in range(n - 1)]


def _derive_terms(gen: int, terms: dict, ob: OperatorBasis) -> dict:
    """Leibniz action of one generator across positions of each monomial."""
    act = ob.gen_action[gen]
    out: dict[DiffMonomial, Fraction] = {}
    for m, c in terms.items():
        for pos in range(len(m.perm)):
            for lab, cc in act[m.labels[pos]].items():
                labels = m.labels[:pos] + (lab,) + m.labels[pos + 1:]
                key = DiffMonomial(m.perm, labels)
                nc = out.get(key, ZERO) + c * cc
                if nc:
                    out[key] = nc
                elif key in out:
                    del out[key]
    return out


def derive_poly(gen: int, p: DiffPoly, ob: OperatorBasis) -> DiffPoly:
    """Apply one generating derivation to a polynomial."""
    return DiffPoly(p.n, _derive_terms(gen, p.terms, ob))


def apply_word(word: Sequence[int], p: DiffPoly, ob: OperatorBasis) -> DiffPoly:
    """Apply a generator word, rightmost letter first."""
    terms = p.terms
    for g in reversed(tuple(word)):
        terms = _derive_terms(g, terms, ob)
    return DiffPoly(p.n, terms)


_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z][A-Za-z0-9]*)|([-+*,^\[\]()]))")


class _Parser:
    """Recursive descent for the multilinear polynomial grammar.

    poly   := ['-'|'+'] term (('+'|'-') term)*
    term   := [rational] factor ('*' factor)*
    factor := atom ['^' opword]
    atom   := var | '[' poly ',' poly ']' | '(' poly ')'

    The optional leading sign is a deliberate extension so every
    formatted polynomial parses back.
    """

    def __init__(self, src: str, ob: OperatorBasis):
        self.src = src
        self.ob = ob
        self.pos = 0
        self.toks = []
        self._tokenize()
        self.i = 0
        self.max_var = -1

    def _tokenize(self):
        pos = 0
        while pos < len(self.src):
            m = _TOKEN.match(self.src, pos)
            if not m or m.end() == m.start():
                if self.src[pos:].strip() == "":
                    break
                bad = pos + len(self.src[pos:]) - len(self.src[pos:].lstrip())
                raise DiffSyntaxError("unexpected character", bad, self.src)
            num, name, sym = m.groups()
            tok_pos = m.end() - len((num or name or sym))
            self.toks.append((num or name or sym,
                              "num" if num else "name" if name else "sym",
                              tok_pos))
            pos = m.end()

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, len(self.src))

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, text):
        tok, kind, pos = self.take()
        if tok != text:
            raise DiffSyntaxError(f"expected {text!r}", pos, self.src)

    def parse(self) -> DiffPoly:
        p = self.poly()
        tok, kind, pos = self.peek()
        if tok is not None:
            raise DiffSyntaxError(f"trailing input {tok!r}", pos, self.src)
        return p

    def poly(self) -> DiffPoly:
        sign = ONE
        tok, kind, pos = self.peek()
        if tok in ("+", "-"):
            self.take()
            sign = -ONE if tok == "-" else ONE
        p = self.term().scale(sign)
        while True:
            tok, kind, pos = self.peek()
            if tok not in ("+", "-"):
                break
            self.take()
            q = self.term()
            p = p + (q if tok == "+" else q.scale(-ONE))
        return p

    def term(self) -> DiffPoly:
        coeff = ONE
        tok, kind, pos = self.peek()
        if kind == "num":
            self.take()
            coeff = Fraction(tok)
        p = self.factor()
        while True:
            tok, kind, pos = self.peek()
            if tok != "*":
                break
            self.take()
            p = p * self.factor()
        return p.scale(coeff)

    def factor(self) -> DiffPoly:
        p = self.atom()
        tok, kind, pos = self.peek()
        if tok == "^":
            self.take()
            word = self.opword()
            p = apply_word(word, p, self.ob)
        return p

    def opword(self) -> tuple:
        tok, kind, pos = self.take()
        if kind != "name":
            raise DiffSyntaxError("expected operator word", pos, self.src)
        word = []
        rest = tok
        while rest:
            for g, nm in sorted(enumerate(self.ob.gen_names),
                                key=lambda t: -len(t[1])):
                if rest.startswith(nm):
                    word.append(g)
                    rest = rest[len(nm):]
                    break
            else:
                raise UnknownOperator(
                    f"cannot split {tok!r} into declared operator names "
                    f"{list(self.ob.gen_names)} (stuck at {rest!r})")
        return tuple(word)

    def atom(self) -> DiffPoly:
        tok, kind, pos = self.take()
        if kind == "name" and re.fullmatch(r"x\d+", tok):
            var = int(tok[1:]) - 1
            if var < 0:
                raise DiffSyntaxError("variables are numbered from x1", pos, self.src)
            self.max_var = max(self.max_var, var)
            return DiffPoly.variable(var, var + 1)
        if tok == "[":
            u = self.poly()
            self.expect(",")
            v = self.poly()
            self.expect("]")
            return u * v - v * u
        if tok == "(":
            p = self.poly()
            self.expect(")")
            return p
        raise DiffSyntaxError(f"expected variable, bracket or parenthesis, "
                              f"got {tok!r}", pos, self.src)


def parse_diff_poly(src: str, ob: OperatorBasis) -> DiffPoly:
    """Parse source text into a validated multilinear polynomial."""
    parser = _Parser(src, ob)
    p = parser.parse()
    n = parser.max_var + 1
    if n <= 0:
        raise NotMultilinear("expression contains no variables")
    p.n = n
    validate_multilinear(p)
    return p


def format_diff_poly(p: DiffPoly, ob: OperatorBasis) -> str:
    """Canonical text form, round-trips through parse_diff_poly."""
    if p.is_zero():
        return "0 " + "*".join(f"x{i + 1}" for i in range(max(p.n, 1)))
    parts = []
    for m in p.monomials():
        c = p.terms[m]
        factors = []
        for var, lab in zip(m.perm, m.labels):
            f = f"x{var + 1}"
            if lab:
                f += f"^{ob.word_name(lab)}"
            factors.append(f)
        body = "*".join(factors)
        mag = abs(c)
        coeff = "" if mag == 1 else f"{mag} "
        if not parts:
            sign = "-" if c < 0 else ""
            parts.append(f"{sign}{coeff}{body}")
        else:
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {coeff}{body}")
    return " ".join(parts)


@lru_cache(maxsize=None)
def perm_rank(perm: tuple) -> int:
    """Lexicographic rank of a permutation of 0..n-1 (cached: n! orders)."""
    n = len(perm)
    rank_ = 0
    rest = list(range(n))
    for p in perm:
        i = rest.index(p)
        rank_ = rank_ * len(rest) + i
        rest.pop(i)
    return rank_


def monomial_index(m: DiffMonomial, n: int, k: int) -> int:
    """Position of a monomial in the lex order on (perm, labels)."""
    lab = 0
    for h in m.labels:
        lab = lab * k + h
    return perm_rank(m.perm) * k ** n + lab


def _poly_row(p: DiffPoly, n: int, k: int) -> dict:
    return {monomial_index(m, n, k): c for m, c in p.terms.items()}


def _substitution_instances(g: DiffPoly, n: int, ob: OperatorBasis):
    """The identity-order degree-n consequences of g under monomial
    substitution and outer multiplication.

    Variables 0..n-1 in identity order are cut into an optional left
    factor, one nonempty block per variable of g, and an optional right
    factor; every position takes every label. Block substitution pushes
    the slot's operator word through the block by the Leibniz rule.

    Identity order; the S_n closure supplies the rest: the instance with
    the variables in order s is sn_act(s, .) of the one yielded here
    with the same cuts and labels.
    """
    d = g.n
    if d > n or g.is_zero():
        return
    for cuts in combinations(range(n + 1), d + 1):
        for labels in product(range(ob.k), repeat=n):
            def part(lo: int, hi: int) -> DiffMonomial:
                return DiffMonomial(tuple(range(lo, hi)), labels[lo:hi])
            blocks = [part(cuts[i], cuts[i + 1]) for i in range(d)]
            post = part(cuts[d], n)
            # (variable of g, label) -> the slot word applied to the block
            frags: dict = {}
            out: dict[DiffMonomial, Fraction] = {}
            for gm, gc in g.terms.items():
                choices = []
                for cell in zip(gm.perm, gm.labels):
                    if cell not in frags:
                        yvar, lab = cell
                        frags[cell] = list(apply_word(
                            ob.words[lab], DiffPoly(n, {blocks[yvar]: ONE}),
                            ob).terms.items())
                    choices.append(frags[cell])
                # (perm, labels) of the prefix, its coefficient, next slot
                stack = [(part(0, cuts[0]), gc, 0)]
                while stack:
                    (perm, labs), coeff, slot = stack.pop()
                    if slot == d:
                        key = DiffMonomial(perm + post.perm, labs + post.labels)
                        nc = out.get(key, ZERO) + coeff
                        if nc:
                            out[key] = nc
                        elif key in out:
                            del out[key]
                        continue
                    for frag, fc in choices[slot]:
                        stack.append(((perm + frag.perm, labs + frag.labels),
                                      coeff * fc, slot + 1))
            if out:
                yield DiffPoly(n, out)


def consequences(gens: Sequence[DiffPoly], n: int, ob: OperatorBasis) -> list[DiffPoly]:
    """Basis of the degree-n multilinear consequences of the generators.

    Span of the substitution and outer multiplication instances, closed
    under the symmetric group action and under the generating
    derivations, iterated to a fixed point. Instances are built in
    identity order; the S_n closure supplies the rest. Returned as the
    reduced echelon basis of the span, sorted by pivot in monomial
    order: it is unique for the span, so it depends only on the ideal,
    not on the order or the scaling of the generators.
    """
    k = ob.k
    for g in gens:
        validate_multilinear(g)
    # generators of degree above n have no degree-n instances
    gens = [g for g in gens if g.n <= n]
    span = RowSpan()
    queue: list[DiffPoly] = []

    def push(p: DiffPoly):
        if not p.is_zero() and span.insert(_poly_row(p, n, k)):
            queue.append(p)

    for g in gens:
        for inst in _substitution_instances(g, n, ob):
            push(inst)
    swaps = adjacent_swaps(n)
    while queue:
        p = queue.pop()
        for g in range(len(ob.gen_names)):
            push(derive_poly(g, p, ob))
        for sw in swaps:
            push(sn_act(sw, p))
    basis = []
    rref = span.reduced_rows()
    for row in (rref[c] for c in sorted(rref)):
        terms = {}
        for col, c in row.items():
            pr, lab = divmod(col, k ** n)
            terms[DiffMonomial(_perm_unrank(pr, n), _labels_unrank(lab, n, k))] = c
        basis.append(DiffPoly(n, terms))
    return basis


def _perm_unrank(r: int, n: int) -> tuple:
    rest = list(range(n))
    out = []
    for i in range(n, 0, -1):
        q, r = divmod(r, factorial(i - 1))
        out.append(rest.pop(q))
    return tuple(out)


def _labels_unrank(code: int, n: int, k: int) -> tuple:
    out = []
    for _ in range(n):
        code, h = divmod(code, k)
        out.append(h)
    return tuple(reversed(out))
