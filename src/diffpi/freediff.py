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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, permutations, product
from math import lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .algebra import (Algebra, _blocks, _minpoly, _rational_roots,
                      radical)
from .errors import (DiffSyntaxError, IntegrityError, NonSplit,
                     NotMultilinear, UnknownOperator)
from .linalg import (ONE, ZERO, RowSpan, combine, compose, coordinates,
                     stack)


@dataclass(frozen=True)
class OperatorBasis:
    """Finite basis of the operator algebra E generated by the action.

    Each of ops is a linear map held as the tuple of its column images
    on the algebra's basis, so ops[h][b] = op_h(e_b) is the image table
    that evaluation reads. ops[0] is the identity with the empty word.
    words[i] names ops[i] as a product of generator indices, leftmost
    letter applied last. gen_action[g][j] expands generator g composed
    onto ops[j] in the basis: it is all of E's multiplication that the
    Leibniz rule needs.
    """
    gen_names: tuple
    ops: tuple
    words: tuple
    gen_action: tuple

    @property
    def k(self) -> int:
        return len(self.ops)

    def word_name(self, label: int) -> str:
        return "".join(self.gen_names[g] for g in self.words[label])

    @cached_property
    def isotypic(self) -> Optional["IsotypicRoute"]:
        """The isotypic route of this basis, built on first use, or None
        where codim takes the general route."""
        return isotypic_route(self)


def operator_basis(a, act) -> OperatorBasis:
    """Close the generating derivations into an operator basis.

    Breadth first on words, with ops as its own queue: each operator in
    turn has every generator composed onto it, and a product independent
    from the span so far joins the end of ops. So round r's operators
    are the words of length r that survive. The loop ends because every
    operator it appends raises the span's dimension, and the span lies
    in End(A): there are at most dim^2 of them. Each product is composed
    once, and its coordinates in the final basis are gen_action.
    """
    dim = a.dim
    gens = [d.columns for d in act.generators]
    ops = [tuple({j: ONE} for j in range(dim))]
    words = [()]
    basis = [stack(enumerate(ops[0]), dim)]  # the flattened operators
    span = RowSpan()
    span.insert(basis[0])
    prods = [[] for _ in gens]  # prods[g][j] flattens gens[g] o ops[j]
    for j, op in enumerate(ops):  # reads the operators it appends
        for g, gm in enumerate(gens):
            prod = compose(gm, op)
            flat = stack(enumerate(prod), dim)
            prods[g].append(flat)
            if flat and span.insert(flat):
                ops.append(prod)
                words.append((g,) + words[j])
                basis.append(flat)
    # the identity is the zero map only when dim == 0, and then it is
    # the only operator
    coords = coordinates(basis if dim else [])
    gen_action = tuple(tuple(map(coords, row)) for row in prods)
    if any(None in row for row in gen_action):
        raise IntegrityError("operator span not closed under composition")
    return OperatorBasis(gen_names=tuple(d.name for d in act.generators),
                         ops=tuple(ops), words=tuple(words),
                         gen_action=gen_action)


class IsotypicRoute(NamedTuple):
    """The labels and inputs of the evaluation when E splits.

    T is the sum over the blocks j of E of T_j = p_j A, p_j a primitive
    idempotent of block j, on the concatenated bases of the T_j.
    ops[l][b] is label l applied to basis vector b of T: the labels of
    block j are a basis of the maps phi restricted to T_j, phi in E,
    and vanish on the other T_i. weights[b] is d_j, for the block j
    whose T_j holds basis vector b.
    """
    ops: tuple
    weights: tuple


def _generators_commute(ob: OperatorBasis) -> bool:
    """Whether the generating derivations commute, read off gen_action:
    generator g after generator h is gen_action[g] applied to the
    coordinates gen_action[h][0] of h."""
    gens = [act[0] for act in ob.gen_action]
    return all(combine(gens[h], ob.gen_action[g])
               == combine(gens[g], ob.gen_action[h])
               for g in range(len(gens)) for h in range(g))


def _operator_algebra(ob: OperatorBasis) -> Algebra:
    """E as an Algebra on the basis ops, e_i e_j = ops[i] after ops[j].

    ops[i] is generator g after ops[p] for its word (g,) + words[p], so
    ops[i] after ops[j] is gen_action[g] applied to the coordinates of
    ops[p] after ops[j]: the table is read off gen_action row by row,
    and nothing is composed on A."""
    index = {w: i for i, w in enumerate(ob.words)}
    rows = [[{j: ONE} for j in range(ob.k)]]
    for w in ob.words[1:]:
        rows.append([combine(c, ob.gen_action[w[0]])
                     for c in rows[index[w[1:]]]])
    table = {(i, j): c for i, row in enumerate(rows)
             for j, c in enumerate(row) if c}
    return Algebra(dim=ob.k, basis_labels=tuple(map(ob.word_name,
                                                    range(ob.k))),
                   table=table)


def _independent(vecs) -> list:
    span = RowSpan()
    return [v for v in vecs if span.insert(v)]


def _primitive_image(e: Algebra, unit: dict, basis: Sequence[dict],
                     d: int, on_a) -> Optional[list]:
    """A basis of T = pA for a primitive idempotent p of the block of E
    with the given unit and basis, isomorphic to M_d(Q); None if no p is
    found.

    d = 1: p is the unit. If the unit has rank d on A, its image is the
    simple module, on which the block is all of the endomorphisms, so
    any line in it is the image of a primitive idempotent: T is spanned
    by the first nonzero column of the unit. Otherwise a basis vector x
    whose minimal polynomial has d distinct rational roots is
    diagonalizable with one-dimensional eigenspaces, and the spectral
    projection prod_(s != r) (x - s)/(r - s) is primitive.
    """
    image = _independent(on_a(unit))
    if d == 1:
        return image
    if len(image) == d:
        return image[:1]
    in_block = coordinates(list(basis))
    for x in basis:
        mul = tuple(in_block(e.product(x, y)) for y in basis)
        minrel = _minpoly(mul)
        roots = _rational_roots(minrel)
        if len(roots) == len(minrel) == d:
            r, p = roots[0], unit
            for s in roots[1:]:
                p = e.product(p, combine({0: 1 / (r - s), 1: -s / (r - s)},
                                         (x, unit)))
            return _independent(on_a(p))
    return None


def isotypic_route(ob: OperatorBasis) -> Optional[IsotypicRoute]:
    """The labels and inputs that count c_n^L block by block, or None.

    E is semisimple when L is (Weyl), and when it also splits,
    E = sum of M_(d_j)(Q) and A = sum of V_j (x) M_j with dim V_j = d_j
    and dim M_j = m_j. The evaluation image W is a right module over
    E^(x n), so it splits by the block pattern J of its inputs, and the
    piece of pattern J is d_J = prod d_(j_i) copies of W restricted to
    T_J = T_(j_1) (x) ... (x) T_(j_n). That restriction is the image of
    the labels of the route on T^(x n), in which every row lies in one
    pattern. So c_n^L sums d_J over its pivot columns, and the trace of
    g multiplies each diagonal entry by the d_j of each cycle of g.

    None when the generators commute (then E is commutative, every d_j
    is 1 and nothing is gained, so E is never built), when E has a
    radical or does not split, or when no primitive idempotent is found.
    """
    if _generators_commute(ob):
        return None
    e = _operator_algebra(ob)
    if radical(e):
        return None
    try:
        units, bases, dims = _blocks(e)
    except NonSplit:
        return None
    dim = len(ob.ops[0])
    columns = [[op[b] for op in ob.ops] for b in range(dim)]

    def on_a(x: dict) -> tuple:  # the map on A with E-coordinates x
        return tuple(combine(x, col) for col in columns)

    weights, labels = [], []  # (first input of the block, label images)
    for unit, basis, d in zip(units, bases, dims):
        t = _primitive_image(e, unit, basis, d, on_a)
        if t is None:
            return None
        # the maps phi restricted to T_j: E p_j, which has dimension d
        span = RowSpan()
        mine = [r for r in ([combine(v, op) for v in t] for op in ob.ops)
                if span.insert(stack(enumerate(r), dim))]
        if len(mine) != d:
            raise IntegrityError(f"a block of size {d} of the operator "
                                 f"algebra gives {len(mine)} labels")
        labels += [(len(weights), r) for r in mine]
        weights += [d] * len(t)
    ops = tuple(tuple(r[b - start] if start <= b < start + len(r) else {}
                      for b in range(len(weights))) for start, r in labels)
    return IsotypicRoute(ops=ops, weights=tuple(weights))


class DiffMonomial(NamedTuple):
    """One product x_{perm[0]}^{labels[0]} ... with 0-indexed variables.

    Ordering of monomials (and hence every deterministic choice built on
    it) is plain tuple order on (perm, labels). The columns of the
    consequence span are all degree-n monomials in this order.
    """
    perm: tuple
    labels: tuple


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

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, DiffPoly) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        return DiffPoly(max(self.n, other.n),
                        combine({0: ONE, 1: ONE}, (self.terms, other.terms)))

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self + other.scale(-ONE)

    def scale(self, c: Fraction) -> "DiffPoly":
        return DiffPoly(self.n, combine({0: c}, (self.terms,)))

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


def _monomial_text(m: DiffMonomial, ob: Optional[OperatorBasis]) -> str:
    """x1^w*x2*...: labels as operator words, or no labels without ob."""
    return "*".join(f"x{v + 1}" if ob is None or not lab
                    else f"x{v + 1}^{ob.word_name(lab)}"
                    for v, lab in zip(m.perm, m.labels))


def _check_multilinear(p: DiffPoly, ob: Optional[OperatorBasis]) -> int:
    n = p.n
    for m in p.terms:
        if len(m.perm) != n or sorted(m.perm) != list(range(n)):
            raise NotMultilinear(
                f"monomial {_monomial_text(m, ob)} is not multilinear in "
                f"x1..x{n}: each variable must appear exactly once")
    return n


def validate_multilinear(p: DiffPoly) -> int:
    """Check every monomial uses exactly the variables 0..n-1 once each.

    Returns n. The zero polynomial passes with its declared n.
    """
    return _check_multilinear(p, None)


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


_MAX_DEPTH = 100  # each level of nesting takes four Python stack frames
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
        self.toks = []
        self._tokenize()
        self.i = 0
        self.max_var = -1
        self.depth = 0  # brackets open around the current atom

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
            try:
                coeff = Fraction(tok)
            except ZeroDivisionError:
                raise DiffSyntaxError("zero denominator", pos, self.src)
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
        names = self.ob.gen_names
        # ways[i]: at most two splits of tok[i:] into declared names
        ways = [[] for _ in tok] + [[()]]
        for i in reversed(range(len(tok))):
            ways[i] = [(g,) + rest for g, nm in enumerate(names)
                       if tok.startswith(nm, i)
                       for rest in ways[i + len(nm)]][:2]
        if not ways[0]:
            raise UnknownOperator(f"cannot split {tok!r} into declared "
                                  f"operator names {list(names)}")
        if len(ways[0]) > 1:
            a, b = ([names[g] for g in w] for w in ways[0])
            raise UnknownOperator(f"{tok!r} splits into declared operator "
                                  f"names in two ways: {a} and {b}")
        return ways[0][0]

    def atom(self) -> DiffPoly:
        tok, kind, pos = self.take()
        if kind == "name" and re.fullmatch(r"x\d+", tok):
            var = int(tok[1:]) - 1
            if var < 0:
                raise DiffSyntaxError("variables are numbered from x1", pos, self.src)
            self.max_var = max(self.max_var, var)
            return DiffPoly.variable(var, var + 1)
        if tok in ("[", "("):
            self.depth += 1
            if self.depth > _MAX_DEPTH:
                raise DiffSyntaxError(f"brackets nested more than "
                                      f"{_MAX_DEPTH} deep", pos, self.src)
            p = self.poly()
            if tok == "[":
                self.expect(",")
                v = self.poly()
                p = p * v - v * p
            self.expect("]" if tok == "[" else ")")
            self.depth -= 1
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
    _check_multilinear(p, ob)  # names a failing monomial with its words
    return p


def format_diff_poly(p: DiffPoly, ob: OperatorBasis) -> str:
    """Canonical text form, round-trips through parse_diff_poly."""
    if p.is_zero():
        return "0 " + "*".join(f"x{i + 1}" for i in range(max(p.n, 1)))
    parts = []
    for m in p.monomials():
        c = p.terms[m]
        body = _monomial_text(m, ob)
        mag = abs(c)
        coeff = "" if mag == 1 else f"{mag} "
        if not parts:
            sign = "-" if c < 0 else ""
            parts.append(f"{sign}{coeff}{body}")
        else:
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {coeff}{body}")
    return " ".join(parts)


def _leibniz(row: dict, act: Sequence[dict], places: Sequence[int],
             k: int) -> dict:
    """One generator on a row of columns, by the Leibniz rule over the
    label digits at places: the digit l at place p becomes each label of
    act[l] in turn, times its coefficient, one place at a time."""
    out: dict = {}
    for col, x in row.items():
        for p in places:
            lab = col // p % k
            rest = col - lab * p
            for new, c in act[lab].items():
                key = rest + new * p
                out[key] = out.get(key, 0) + x * c
    return {col: x for col, x in out.items() if x}


def consequences(gens: Sequence[DiffPoly], n: int, ob: OperatorBasis) -> list[DiffPoly]:
    """Basis of the degree-n multilinear consequences of the generators.

    Span of the substitution and outer multiplication instances, closed
    under the symmetric group action and under the generating
    derivations, iterated to a fixed point. Returned as the reduced
    echelon basis of the span, sorted by pivot in monomial order: it is
    unique for the span, so it depends only on the ideal, not on the
    order or the scaling of the generators.

    A column is a number: r*k^n + sum of labels[p]*k^(n-1-p) is the
    monomial with the r-th variable order of permutations(range(n)) and
    those labels, so columns run in monomial order. A derivation changes
    one label digit at a time (_leibniz), and a swap moves the order r.

    Instances are built in identity order, and the S_n closure supplies
    the rest. Variables 0..n-1 are cut into an optional left factor,
    one nonempty block per variable of g and an optional right factor,
    and every variable takes every label. Each term of g is then one
    column, and each slot's operator word acts, rightmost letter first,
    on the label digits of its block.

    The closure steps on integer rows, as codim's does: generator g acts
    by its action times the common denominator D_g. A positive multiple
    of a row reduces to the same primitive row, so the span is the one
    the exact polynomials build, row for row.
    """
    for g in gens:
        validate_multilinear(g)
    # generators of degree above n have no degree-n instances
    gens = [g for g in gens if g.n <= n and not g.is_zero()]
    if not gens:
        return []
    k = ob.k
    width = k ** n  # the columns of one variable order
    places = [k ** (n - 1 - p) for p in range(n)]
    perms = list(permutations(range(n)))
    order = {perm: r for r, perm in enumerate(perms)}
    span = RowSpan()
    queue: list[dict] = []

    def push(row: dict):
        if row and span.insert(row):
            queue.append(row)

    for g in gens:
        d = g.n
        for cuts in combinations(range(n + 1), d + 1):
            blocks = [range(cuts[i], cuts[i + 1]) for i in range(d)]
            # each term as (its order's first column, the place of each
            # variable's label, its slot words with their places, coeff)
            terms = []
            for gm, gc in g.terms.items():
                mid = chain(*(blocks[y] for y in gm.perm))
                perm = (*range(cuts[0]), *mid, *range(cuts[d], n))
                at = [places[perm.index(v)] for v in range(n)]
                slots = [(ob.words[lab], [at[v] for v in blocks[y]])
                         for y, lab in zip(gm.perm, gm.labels)]
                terms.append((order[perm] * width, at, slots, gc))
            for labels in product(range(k), repeat=n):
                inst: dict = {}
                for first, at, slots, gc in terms:
                    row = {first + sum(map(mul, labels, at)): gc}
                    for word, slot in slots:
                        for h in reversed(word):
                            row = _leibniz(row, ob.gen_action[h], slot, k)
                    for col, x in row.items():
                        inst[col] = inst.get(col, 0) + x
                den = lcm(*(x.denominator for x in inst.values()))
                push({col: int(x * den) for col, x in inst.items() if x})
    acts = []  # D_g times the action of generator g
    for act in ob.gen_action:
        den = lcm(*(c.denominator for img in act for c in img.values()))
        acts.append([{lab: int(c * den) for lab, c in img.items()}
                     for img in act])
    swaps = [[order[tuple(sw[v] for v in perm)] for perm in perms]
             for sw in adjacent_swaps(n)]
    while queue:
        row = queue.pop()
        for act in acts:
            push(_leibniz(row, act, places, k))
        for swap in swaps:
            push({swap[col // width] * width + col % width: x
                  for col, x in row.items()})
    rref = span.reduced_rows()
    return [DiffPoly(n, {DiffMonomial(perms[col // width],
                                      tuple(col // p % k for p in places)): c
                         for col, c in rref[r].items()})
            for r in sorted(rref)]
