"""Exact Laurent-polynomial arithmetic over F_q in the variable t.

The ambient local field is F = F_q((1/t)) with uniformizer 1/t, so the
valuation is v(f) = -deg(f): v(t^n) = -n and v(t^-n) = +n.  The valuation
ring O = F_q[[1/t]] consists of the elements with no positive exponents.

Polynomials are stored sparsely as {exponent: nonzero residue}; the zero
polynomial is the empty map.  All ring operations are exact.

q is validated once, where a value enters from outside: `LaurentPoly(...)`,
`zero`, `constant`, `t_power`, `parse`, `LaurentMatrix(...)`,
`from_literal` and the random samplers.  Arithmetic on those values
builds its result through the private `_poly`, which neither re-checks q
nor re-reduces coefficients: `+`, `-`, `*`, negation, `shift`, `part_*`,
`series_inverse`, `dot` and the matrix product, determinant and adjugate.
Every binary operation still checks that its operands share q.

Every product and sum of products goes through one private kernel,
`dot(terms, q, above=None)`: the sum of c * a * b over (c, a, b) triples,
accumulated in one integer dict and reduced mod q once, so a matrix
entry, a minor or a row update builds one polynomial rather than one per
product and per partial sum.  With `above` it equals the sum's
`part_above(above)` and never forms the products at or below the cutoff:
the lattice normal form, which works modulo a power of 1/t, discards them
anyway.

A truncated inverse of an O-unit (`series_inverse`) is exact modulo a
power of 1/t; its one consumer, the lattice normal form, works modulo a
power of 1/t that the lattice contains, so its result is exact.  The
normal form still certifies it without series arithmetic: the triangular
canonical basis has monic monomial pivots, so its inverse times the input
comes from an exact back-substitution, and must lie in GL_d(O).
`LaurentMatrix.det`, `minor` and `adjugate` are exact Laplace expansions
that compute each minor once: d 2^(d-1) products, not d!.  Matrix
literals are read as they are; the CLI bounds the work they predict.
"""

from __future__ import annotations

import random
import re

from .errors import InvalidInputError
from .gf import check_prime, inv_mod, left_null_vector


class LaurentPoly:
    """Immutable sparse Laurent polynomial over F_q.

    Invariant: every stored coefficient is a nonzero residue in [1, q).
    """

    __slots__ = ("q", "coeffs")

    def __init__(self, coeffs: dict[int, int], q: int):
        check_prime(q)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "coeffs", _reduced(coeffs, q))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, q: int) -> "LaurentPoly":
        return cls({}, q)

    @classmethod
    def constant(cls, c: int, q: int) -> "LaurentPoly":
        return cls({0: c}, q)

    @classmethod
    def t_power(cls, e: int, q: int, c: int = 1) -> "LaurentPoly":
        return cls({e: c}, q)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Largest exponent; the zero polynomial has no degree."""
        if not self.coeffs:
            raise InvalidInputError("the zero polynomial has no degree")
        return max(self.coeffs)

    def low_exponent(self) -> int:
        if not self.coeffs:
            raise InvalidInputError("the zero polynomial has no low exponent")
        return min(self.coeffs)

    def valuation(self) -> int:
        """v(f) = -deg(f) for the uniformizer 1/t."""
        return -self.degree()

    def coeff(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    def in_O(self) -> bool:
        """True iff the element lies in the valuation ring F_q[[1/t]]."""
        return not self.coeffs or max(self.coeffs) <= 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.q == other.q
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.q, frozenset(self.coeffs.items())))

    # -- arithmetic --------------------------------------------------------

    def _check_compat(self, other: "LaurentPoly"):
        if not isinstance(other, LaurentPoly):
            raise InvalidInputError(f"expected LaurentPoly, got {type(other).__name__}")
        if other.q != self.q:
            raise InvalidInputError("mixed moduli in Laurent arithmetic")

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int) -> "LaurentPoly":
        """self + sign * other, for sign = 1 or -1."""
        self._check_compat(other)
        if not other.coeffs:
            return self
        q = self.q
        out = dict(self.coeffs)
        get = out.get
        for e, c in other.coeffs.items():
            s = (get(e, 0) + sign * c) % q
            if s:
                out[e] = s
            else:  # c is nonzero, so e was present
                del out[e]
        return _poly(out, q)

    def __neg__(self):
        q = self.q
        return _poly({e: q - c for e, c in self.coeffs.items()}, q)

    def __mul__(self, other):
        self._check_compat(other)
        return dot(((1, self, other),), self.q)

    def shift(self, e: int) -> "LaurentPoly":
        """Multiply by t^e."""
        if not e:
            return self
        return _poly({k + e: c for k, c in self.coeffs.items()}, self.q)

    # -- support windows ---------------------------------------------------

    def part_above(self, cutoff: int) -> "LaurentPoly":
        """Terms with exponent strictly greater than cutoff."""
        if all(e > cutoff for e in self.coeffs):
            return self
        return _poly({e: c for e, c in self.coeffs.items() if e > cutoff}, self.q)

    def part_at_most(self, cutoff: int) -> "LaurentPoly":
        """Terms with exponent at most cutoff."""
        return _poly({e: c for e, c in self.coeffs.items() if e <= cutoff}, self.q)

    # -- text form ---------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append("t" if e == 1 else f"t^{e}")
            else:
                parts.append(f"{c}*t^{e}")
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self}, q={self.q})"

    _TERM_RE = re.compile(
        r"\s*(?P<sign>[+-])?\s*"
        r"(?:(?P<coeff>\d+)\s*\*\s*t\^(?P<exp1>-?\d+)"
        r"|(?P<coeff2>\d+)\s*\*\s*t"
        r"|t\^(?P<exp2>-?\d+)"
        r"|t"
        r"|(?P<const>\d+))\s*"
    )

    @classmethod
    def parse(cls, text: str, q: int) -> "LaurentPoly":
        """Parse the ASCII grammar `term (("+"|"-") term)*`.

        term := coeff | coeff "*" "t^" int | "t^" int | "t"; exponents may
        be negative.  Round-trips with str().
        """
        check_prime(q)
        s = text.strip()
        if not s:
            raise InvalidInputError("empty polynomial literal")
        out: dict[int, int] = {}
        pos = 0
        first = True
        while pos < len(s):
            m = cls._TERM_RE.match(s, pos)
            if not m or (not first and m.group("sign") is None):
                raise InvalidInputError(f"bad polynomial literal {text!r} at {s[pos:]!r}")
            sign = -1 if m.group("sign") == "-" else 1
            try:
                if m.group("const") is not None:
                    c, e = int(m.group("const")), 0
                elif m.group("coeff") is not None:
                    c, e = int(m.group("coeff")), int(m.group("exp1"))
                elif m.group("coeff2") is not None:
                    c, e = int(m.group("coeff2")), 1
                elif m.group("exp2") is not None:
                    c, e = 1, int(m.group("exp2"))
                else:
                    c, e = 1, 1
            except ValueError as exc:  # past Python's int-to-str digit limit
                raise InvalidInputError("bad polynomial literal: a number is too long") from exc
            v = (out.get(e, 0) + sign * c) % q
            if v:
                out[e] = v
            else:
                out.pop(e, None)
            pos = m.end()
            first = False
        return _poly(out, q)


_new = object.__new__
_set_q = LaurentPoly.q.__set__
_set_coeffs = LaurentPoly.coeffs.__set__


def _poly(coeffs: dict[int, int], q: int) -> LaurentPoly:
    """The constructor of arithmetic results: q was validated when an
    operand was built, and every coefficient already lies in [1, q)."""
    p = _new(LaurentPoly)
    _set_q(p, q)
    _set_coeffs(p, coeffs)
    return p


def _reduced(coeffs: dict[int, int], q: int) -> dict[int, int]:
    return {e: r for e, c in coeffs.items() if (r := c % q)}


def dot(terms, q: int, above: int | None = None) -> LaurentPoly:
    """The sum of c * a * b over the (c, a, b) triples, c an int and a, b
    LaurentPoly over q; with `above`, only its terms of exponent strictly
    greater than `above`, and the coefficient products at or below it are
    never formed.

    Every coefficient product goes into one integer dict, reduced mod q
    once at the end, so a sum of products builds one polynomial instead of
    one per product and per partial sum.
    """
    out: dict[int, int] = {}
    get = out.get
    for c, a, b in terms:
        if a.q != q or b.q != q:
            raise InvalidInputError("mixed moduli in Laurent arithmetic")
        short, long = a.coeffs, b.coeffs
        if not (short and long):
            continue
        c %= q
        if not c:
            continue
        if len(short) > len(long):
            short, long = long, short
        if above is None:
            for e1, c1 in short.items():
                c1 *= c
                for e2, c2 in long.items():
                    e = e1 + e2
                    out[e] = get(e, 0) + c1 * c2
            continue
        # both factors by falling exponent: once a pair lands at or below
        # the cutoff, so does every later pair in that row, and every later row
        inner = sorted(short.items(), reverse=True)
        top = inner[0][0]
        for e1, c1 in sorted(long.items(), reverse=True):
            cut = above - e1
            if top <= cut:
                break
            c1 *= c
            for e2, c2 in inner:
                if e2 <= cut:
                    break
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
    return _poly({e: r for e, v in out.items() if (r := v % q)}, q)


def is_unit_in_O(f: LaurentPoly) -> bool:
    """True iff f is an invertible element of O = F_q[[1/t]].

    Equivalent to v(f) = 0 with all exponents <= 0, i.e. deg(f) = 0.
    """
    if f.is_zero():
        raise InvalidInputError("zero is not in O^x and has no valuation")
    return f.degree() == 0


def series_inverse(f: LaurentPoly, depth: int) -> LaurentPoly:
    """Truncated inverse of an O-unit: exponents of the result lie in [-depth, 0].

    The returned g satisfies f*g = 1 + (terms with exponent < -depth), so
    g is the exact inverse modulo (1/t)^(depth+1).
    """
    if f.is_zero() or f.degree() != 0:
        raise InvalidInputError("series_inverse requires an O-unit (degree 0)")
    q = f.q
    c0_inv = inv_mod(f.coeff(0), q)
    g: dict[int, int] = {0: c0_inv}
    if len(f.coeffs) == 1:  # a constant: its inverse is exact at every depth
        return _poly(g, q)
    for k in range(1, depth + 1):
        acc = 0
        for e, c in f.coeffs.items():
            if -k < e < 0 or e == -k:
                # term f_{e} * g_{-k-e}; e in [-k, -1]
                ge = g.get(-k - e, 0)
                if ge:
                    acc += c * ge
        v = (-c0_inv * acc) % q
        if v:
            g[-k] = v
    return _poly(g, q)


class LaurentMatrix:
    """Immutable square matrix of LaurentPoly entries (shared modulus q)."""

    __slots__ = ("d", "q", "rows")

    def __init__(self, rows, q: int | None = None):
        rows = tuple(tuple(r) for r in rows)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise InvalidInputError("matrix must be square and nonempty")
        if q is None:
            q = rows[0][0].q
        check_prime(q)
        for r in rows:
            for x in r:
                if not isinstance(x, LaurentPoly) or x.q != q:
                    raise InvalidInputError("matrix entries must be LaurentPoly over one q")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "d", len(rows))
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentMatrix is immutable")

    @classmethod
    def identity(cls, d: int, q: int) -> "LaurentMatrix":
        one = LaurentPoly.constant(1, q)
        zero = LaurentPoly.zero(q)
        return cls(
            [[one if i == j else zero for j in range(d)] for i in range(d)], q
        )

    @classmethod
    def diagonal(cls, exps, q: int) -> "LaurentMatrix":
        """diag(t^e for e in exps)."""
        zero = LaurentPoly.zero(q)
        d = len(exps)
        return cls(
            [
                [LaurentPoly.t_power(exps[i], q) if i == j else zero for j in range(d)]
                for i in range(d)
            ],
            q,
        )

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self.rows[i][j]

    def column(self, j: int) -> list[LaurentPoly]:
        return [self.rows[i][j] for i in range(self.d)]

    def __eq__(self, other):
        return (
            isinstance(other, LaurentMatrix)
            and self.q == other.q
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.q, self.rows))

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return LaurentMatrix(
                [[x * other for x in row] for row in self.rows], self.q
            )
        if not isinstance(other, LaurentMatrix) or other.q != self.q:
            raise InvalidInputError("matrix product requires matching moduli")
        if other.d != self.d:
            raise InvalidInputError("matrix product requires matching sizes")
        q = self.q
        zero = _poly({}, q)
        cols = list(zip(*other.rows))
        out = []
        for row in self.rows:
            out.append([])
            for col in cols:
                terms = [(1, a, b) for a, b in zip(row, col) if a.coeffs and b.coeffs]
                out[-1].append(dot(terms, q) if terms else zero)
        return LaurentMatrix(out, q)

    def shift(self, e: int) -> "LaurentMatrix":
        """Multiply every entry by t^e (a homothety of the column span)."""
        return LaurentMatrix(
            [[x.shift(e) for x in row] for row in self.rows], self.q
        )

    def minor(self, rows_idx, cols_idx) -> LaurentPoly:
        """Determinant of the submatrix on the given index tuples."""
        sub = [[self.rows[i][j] for j in cols_idx] for i in rows_idx]
        return _det_rows(sub, self.q)

    def det(self) -> LaurentPoly:
        """Exact determinant (Laplace expansion with shared minors)."""
        return _det_rows([list(r) for r in self.rows], self.q)

    def adjugate(self) -> "LaurentMatrix":
        """Adjugate matrix: adj(M) * M = det(M) * I, exactly."""
        d = self.d
        if d == 1:
            return LaurentMatrix([[LaurentPoly.constant(1, self.q)]], self.q)
        idx = tuple(range(d))
        out = [[None] * d for _ in range(d)]
        for i in range(d):
            rows_idx = idx[:i] + idx[i + 1 :]
            for j in range(d):
                cols_idx = idx[:j] + idx[j + 1 :]
                cof = self.minor(rows_idx, cols_idx)
                if (i + j) % 2:
                    cof = -cof
                out[j][i] = cof
        return LaurentMatrix(out, self.q)

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self.rows)
        return f"LaurentMatrix([{body}], q={self.q})"

    # -- matrix literal format --------------------------------------------

    def to_literal(self) -> dict:
        """The JSON matrix literal: {"q":..., "d":..., "entries":[[str,...]]}."""
        return {
            "q": self.q,
            "d": self.d,
            "entries": [[str(x) for x in row] for row in self.rows],
        }

    @classmethod
    def from_literal(cls, obj: dict) -> "LaurentMatrix":
        try:
            q = obj["q"]
            d = obj["d"]
            entries = obj["entries"]
        except (TypeError, KeyError) as exc:
            raise InvalidInputError(f"bad matrix literal: missing {exc}") from exc
        if not (
            isinstance(entries, list)
            and len(entries) == d
            and all(isinstance(r, list) and len(r) == d for r in entries)
            and all(isinstance(x, str) for r in entries for x in r)
        ):
            raise InvalidInputError("matrix literal entries must be d lists of d strings")
        rows = [[LaurentPoly.parse(s, q) for s in row] for row in entries]
        return cls(rows, q)


def _det_rows(rows: list[list[LaurentPoly]], q: int) -> LaurentPoly:
    """Laplace expansion along each row in turn, from the bottom up, with
    every minor of the rows below computed once and keyed by the bitmask
    of its columns: d 2^(d-1) products where the plain recursion takes d!,
    summed by one `dot` per minor.  Zero entries and zero minors are
    skipped."""
    minors = {1 << j: x for j, x in enumerate(rows[-1]) if x}
    for row in reversed(rows[:-1]):
        wider: dict[int, list] = {}
        for mask, m in minors.items():
            for j, x in enumerate(row):
                bit = 1 << j
                if not x or mask & bit:
                    continue
                # j's position among the columns of mask | bit gives the sign
                sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
                wider.setdefault(mask | bit, []).append((sign, x, m))
        minors = {mask: m for mask, terms in wider.items() if (m := dot(terms, q))}
    return minors.get((1 << len(rows)) - 1, LaurentPoly.zero(q))


def _as_rng(seed) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _random_unitriangular(d, q, bound, upper, rng) -> LaurentMatrix:
    one = LaurentPoly.constant(1, q)
    zero = LaurentPoly.zero(q)
    rows = [[zero] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = one
        js = range(i + 1, d) if upper else range(i)
        for j in js:
            rows[i][j] = LaurentPoly({e: rng.randrange(q) for e in range(bound + 1)}, q)
    return LaurentMatrix(rows, q)


def _random_permutation(d, q, rng) -> LaurentMatrix:
    perm = list(range(d))
    rng.shuffle(perm)
    one = LaurentPoly.constant(1, q)
    zero = LaurentPoly.zero(q)
    return LaurentMatrix(
        [[one if j == perm[i] else zero for j in range(d)] for i in range(d)], q
    )


def _random_constant_invertible(d, q, rng) -> LaurentMatrix:
    while True:
        rows = [[rng.randrange(q) for _ in range(d)] for _ in range(d)]
        if left_null_vector(rows, q) is None:
            return LaurentMatrix([[LaurentPoly.constant(c, q) for c in row] for row in rows], q)


def random_gamma(d: int, q: int, deg_bound: int, seed) -> LaurentMatrix:
    """Random element of GL_d(F_q[t]) with entry degrees <= deg_bound.

    Built as permutation * lower-unitriangular * permutation *
    upper-unitriangular * constant-invertible, so the determinant lies in
    F_q^x by construction and the degree bound is respected exactly.
    Deterministic in the seed (not a uniform sample).
    """
    check_prime(q)
    if d < 2 or deg_bound < 0:
        raise InvalidInputError("need d >= 2 and deg_bound >= 0")
    rng = _as_rng(seed)
    lo = deg_bound // 2
    hi = deg_bound - lo
    m = _random_permutation(d, q, rng)
    m = m * _random_unitriangular(d, q, hi, upper=False, rng=rng)
    m = m * _random_permutation(d, q, rng)
    m = m * _random_unitriangular(d, q, lo, upper=True, rng=rng)
    return m * _random_constant_invertible(d, q, rng)


def random_k(d: int, q: int, depth: int, seed) -> LaurentMatrix:
    """Random element of GL_d(O) with entry exponents in [-depth, 0].

    Draws until the constant-term matrix is invertible over F_q, which is
    exactly when the determinant is an O-unit.
    """
    check_prime(q)
    if d < 2:
        raise InvalidInputError("need d >= 2")
    if not isinstance(depth, int) or depth < 0:
        raise InvalidInputError(f"depth must be an int >= 0, got {depth!r}")
    rng = _as_rng(seed)
    while True:
        rows = [
            [
                LaurentPoly(
                    {-e: rng.randrange(q) for e in range(depth + 1)}, q
                )
                for _ in range(d)
            ]
            for _ in range(d)
        ]
        if left_null_vector([[x.coeff(0) for x in row] for row in rows], q) is None:
            return LaurentMatrix(rows, q)
