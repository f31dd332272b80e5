"""Exact Laurent-polynomial arithmetic over F_q in the variable t.

The ambient local field is F = F_q((1/t)) with uniformizer 1/t, so the
valuation is v(f) = -deg(f): v(t^n) = -n and v(t^-n) = +n.  The valuation
ring O = F_q[[1/t]] consists of the elements with no positive exponents.

Polynomials are stored sparsely as {exponent: nonzero residue}; the zero
polynomial is the empty map.  All ring operations are exact.

q is validated once, where a value enters from outside: `LaurentPoly(...)`
(the zero polynomial is `LaurentPoly({}, q)`, the monomial c t^e is
`LaurentPoly({e: c}, q)`), `parse`, `LaurentMatrix(...)`, `diagonal` (the
identity is `diagonal((0,) * d, q)`), `from_literal` and the random
samplers.  Every result of arithmetic on those values is built through
the private `_poly` or, for a matrix, `_matrix`, which neither re-check q
nor re-reduce coefficients.  Every binary operation still checks that its
operands share q.

Every polynomial product goes through one private kernel,
`_mul_add(acc, c, a, b, q, above=None)`: acc += c * a * b on
{exponent: residue} dicts, in place and reduced as it goes, and with
`above` forming only the products above the cutoff, as the normal form
works modulo a power of 1/t and discards the rest.  LaurentPoly `+`, `-`
and negation are products with the constant 1, and `*`, the matrix
product `LaurentMatrix.__mul__` (of matrices only, for `random_gamma`)
and the determinant's minors (`_det_rows`) accumulate their sums of
products in one dict each.  The lattice layer works on dict matrices,
rows of mutable {exponent: residue} dicts, updated by the same kernel.
Its loops are the Hermite pass of the normal form
(`building._normal_form`), the triangular products and reductions that
give the neighbor bases (`building.neighbors`), the weak Popov pass
(`building._weak_popov`, on rows packed into one dict each), the one row
reduction, which gives the normal form its determinant degree, the
relative position its valuations and the domain reduction its reduced
rows, and the one substitution by a triangular basis with
monic monomial pivots (`building._solve_canonical`), which serves the
certificate, the start of `relative_position` and, on reversed
transposes, the witness of `domain.reduce_to_domain`.  Dict matrices pass
between those loops as they are; LaurentPoly values are built only for
what leaves the layer, the canonical basis and the witness.

A truncated inverse of an O-unit (`series_inverse`) is exact modulo a
power of 1/t.  Its one consumer is also the lattice normal form, which
works modulo a power of 1/t that the lattice contains, so its result is
exact; the relative position and the domain reduction need neither,
because their row reduction multiplies rows by monomials only.  The
normal form still certifies its result without series arithmetic: the
triangular canonical basis has monic monomial pivots, so its inverse
times the input comes from an exact back-substitution, and must lie in
GL_d(O).
`LaurentMatrix.det`, `minor` and `adjugate` are exact Laplace expansions
that compute each minor once: d 2^(d-1) products, not d!.  The library
itself takes no determinant.  Matrix literals are read as they are; the
CLI bounds the work they predict.
"""

from __future__ import annotations

import random
import re

from .errors import InvalidInputError
from .gf import check_prime, inv_mod, reduced_echelon_form


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

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Largest exponent; the zero polynomial has no degree."""
        if not self.coeffs:
            raise InvalidInputError("the zero polynomial has no degree")
        return max(self.coeffs)

    def coeff(self, e: int) -> int:
        return self.coeffs.get(e, 0)

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
        self._check_compat(other)
        out = dict(self.coeffs)
        _mul_add(out, 1, other.coeffs, _ONE, self.q)
        return _poly(out, self.q)

    def __sub__(self, other):
        self._check_compat(other)
        out = dict(self.coeffs)
        _mul_add(out, -1, other.coeffs, _ONE, self.q)
        return _poly(out, self.q)

    def __neg__(self):
        out: dict[int, int] = {}
        _mul_add(out, -1, self.coeffs, _ONE, self.q)
        return _poly(out, self.q)

    def __mul__(self, other):
        self._check_compat(other)
        out: dict[int, int] = {}
        _mul_add(out, 1, self.coeffs, other.coeffs, self.q)
        return _poly(out, self.q)

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


_ONE = {0: 1}


def _mul_add(acc: dict[int, int], c: int, a: dict[int, int], b: dict[int, int], q: int,
             above: int | None = None) -> None:
    """acc += c * a * b in place, for an int c and sparse
    {exponent: nonzero residue} dicts over F_q; with `above`, only the
    products of exponent strictly greater than `above` are formed, and
    acc's own terms at or below it stay.

    acc keeps the LaurentPoly invariant: each sum is reduced mod q as it is
    formed, and a key whose sum vanishes is deleted.
    """
    c %= q
    if not (c and a and b):
        return
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    if above is None:
        for e1, c1 in a.items():
            c1 *= c
            for e2, c2 in b.items():
                e = e1 + e2
                if r := (get(e, 0) + c1 * c2) % q:
                    acc[e] = r
                else:
                    del acc[e]
        return
    # both factors by falling exponent: once a pair lands at or below
    # the cutoff, so does every later pair in that row, and every later row
    inner = sorted(a.items(), reverse=True)
    top = inner[0][0]
    for e1, c1 in sorted(b.items(), reverse=True):
        cut = above - e1
        if top <= cut:
            break
        c1 *= c
        for e2, c2 in inner:
            if e2 <= cut:
                break
            e = e1 + e2
            if r := (get(e, 0) + c1 * c2) % q:
                acc[e] = r
            else:
                del acc[e]


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
    # g_{-k} = -c0^-1 * sum of f_e g_{-k-e} over the terms e in [-k, -1],
    # taken from the top, so the loop stops at the first e below -k
    tail = sorted(((e, c) for e, c in f.coeffs.items() if e < 0), reverse=True)
    get = g.get
    for k in range(1, depth + 1):
        acc = 0
        for e, c in tail:
            if e < -k:
                break
            acc += c * get(-k - e, 0)
        if v := -c0_inv * acc % q:
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
    def diagonal(cls, exps, q: int) -> "LaurentMatrix":
        """diag(t^e for e in exps)."""
        check_prime(q)
        if not exps:
            raise InvalidInputError("matrix must be square and nonempty")
        return _matrix(_diagonal_rows(exps, q), q)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentMatrix)
            and self.q == other.q
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.q, self.rows))

    def __mul__(self, other):
        if not isinstance(other, LaurentMatrix) or other.q != self.q:
            raise InvalidInputError("matrix product requires matching moduli")
        if other.d != self.d:
            raise InvalidInputError("matrix product requires matching sizes")
        q = self.q
        cols = [[x.coeffs for x in col] for col in zip(*other.rows)]
        out = []
        for row in self.rows:
            out.append([])
            for col in cols:
                acc: dict[int, int] = {}
                for a, b in zip(row, col):
                    _mul_add(acc, 1, a.coeffs, b, q)
                out[-1].append(_poly(acc, q))
        return _matrix(out, q)

    def minor(self, rows_idx, cols_idx) -> LaurentPoly:
        """Determinant of the submatrix on the given index tuples."""
        sub = [[self.rows[i][j].coeffs for j in cols_idx] for i in rows_idx]
        return _poly(_det_rows(sub, self.q), self.q)

    def det(self) -> LaurentPoly:
        """Exact determinant (Laplace expansion with shared minors)."""
        idx = range(self.d)
        return self.minor(idx, idx)

    def adjugate(self) -> "LaurentMatrix":
        """Adjugate matrix: adj(M) * M = det(M) * I, exactly."""
        d = self.d
        if d == 1:
            return _matrix([[_poly({0: 1}, self.q)]], self.q)
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
        return _matrix(out, self.q)

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


_set_rows = LaurentMatrix.rows.__set__
_set_d = LaurentMatrix.d.__set__
_set_matrix_q = LaurentMatrix.q.__set__


def _matrix(rows, q: int) -> LaurentMatrix:
    """The constructor of matrix results: `_poly` for matrices.  rows is a
    square list of rows of LaurentPoly over q, q validated on entry."""
    m = _new(LaurentMatrix)
    _set_rows(m, tuple(map(tuple, rows)))
    _set_d(m, len(rows))
    _set_matrix_q(m, q)
    return m


def _diagonal_rows(exps, q: int) -> list[list[LaurentPoly]]:
    """The rows of diag(t^e for e in exps), built without checks."""
    zero = _poly({}, q)
    d = len(exps)
    return [[_poly({e: 1}, q) if i == j else zero for j in range(d)] for i, e in enumerate(exps)]


def _det_rows(rows: list[list[dict[int, int]]], q: int) -> dict[int, int]:
    """The determinant of a dict matrix: Laplace expansion along each row
    in turn, from the bottom up, with every minor of the rows below
    computed once and keyed by the bitmask of its columns, d 2^(d-1)
    products where the plain recursion takes d!, each minor summed in one
    dict by `_mul_add`.  Zero entries and zero minors are skipped."""
    minors = {1 << j: x for j, x in enumerate(rows[-1]) if x}
    for row in reversed(rows[:-1]):
        wider: dict[int, dict[int, int]] = {}
        for mask, m in minors.items():
            for j, x in enumerate(row):
                bit = 1 << j
                if not x or mask & bit:
                    continue
                # j's position among the columns of mask | bit gives the sign
                sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
                _mul_add(wider.setdefault(mask | bit, {}), sign, x, m, q)
        minors = {mask: m for mask, m in wider.items() if m}
    return minors.get((1 << len(rows)) - 1, {})


def _as_rng(seed) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _random_poly(exponents, q, rng) -> LaurentPoly:
    """One uniform residue drawn per exponent, in order; zeros dropped."""
    return _poly({e: c for e in exponents if (c := rng.randrange(q))}, q)


def _random_unitriangular(d, q, bound, upper, rng) -> LaurentMatrix:
    rows = _diagonal_rows((0,) * d, q)
    for i in range(d):
        js = range(i + 1, d) if upper else range(i)
        for j in js:
            rows[i][j] = _random_poly(range(bound + 1), q, rng)
    return _matrix(rows, q)


def _random_permutation(d, q, rng) -> LaurentMatrix:
    perm = list(range(d))
    rng.shuffle(perm)
    rows = _diagonal_rows((0,) * d, q)
    return _matrix([rows[p] for p in perm], q)


def _random_constant_invertible(d, q, rng) -> LaurentMatrix:
    while True:
        rows = [[rng.randrange(q) for _ in range(d)] for _ in range(d)]
        if len(reduced_echelon_form(rows, q)) == d:
            return _matrix([[_poly({0: c} if c else {}, q) for c in row] for row in rows], q)


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
        exponents = range(0, -depth - 1, -1)
        rows = [[_random_poly(exponents, q, rng) for _ in range(d)] for _ in range(d)]
        if len(reduced_echelon_form([[x.coeff(0) for x in row] for row in rows], q)) == d:
            return _matrix(rows, q)
