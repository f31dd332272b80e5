"""The full affine building B for PGL_d(F_q((1/t))).

Vertices are homothety classes of O-lattices in F^d, represented by a
canonical upper-triangular basis: pivots are exact monomials t^(a_i), the
entry above a pivot in row i is supported on exponents strictly greater
than a_i, and min(a_i) = 0 fixes the homothety.  Two vertices are equal
iff their canonical bases are entrywise equal.  A `BuildingVertex` is
its canonical basis: it reads the profile (a_i) off the pivots and
refuses any other basis.

Neighbor enumeration goes through subspaces of the residue space: the
canonical basis of a neighbor is the vertex's canonical basis times a
triangular basis of the subspace's lattice, reduced above its pivots and
certified, with no Hermite pass of its own (`neighbors`).  The
lattice routines take and return dict matrices, rows of
{exponent: residue} dicts, and one back-substitution by a canonical basis
(`_solve_canonical`) serves the normal form's certificate, the relative
position and the witness of the domain reduction.  One weak Popov pass
(`_weak_popov`), which solves no null vector, is the one row reduction:
over F_q[t] its row degrees sum to the determinant degree a basis's
normal form needs (`vertex_normal_form`), and its reduced rows take a
vertex into the fundamental domain (`domain.reduce_to_domain`), whose
witness is solved from them; over O its row degrees give the relative
position of two vertices, the Smith valuations of y^-1 x.  Both
distances are read off the relative position, or, for two
label vertices, off the sorted label differences
(`label_relative_position`); breadth-first search on the 1-skeleton is
their oracle in the tests.  The `bfs_*` names are kept from the search
they replaced.  The closed-form
label distances (`distance_formulas`) are the old label formulas the CLI
has always printed next to them; they do not agree with the graph metric
everywhere, and the CLI reports both.
"""

from __future__ import annotations

from itertools import combinations, product

from .errors import (
    InternalInvariantError,
    InvalidInputError,
    ResourceBoundError,
    SingularMatrixError,
)
from .gf import check_prime, gaussian_binomial, inv_mod, reduced_echelon_form
from .laurent import LaurentMatrix, _matrix, _mul_add, _poly, series_inverse

# The one bound on predicted work, about a microsecond per unit (measured on
# a shared 2-core x86-64 with Python 3.11): `neighbors` is predicted at one
# `normal_form_work` per neighbor, an upper bound since a neighbor takes a
# triangular product and no normal form, and the CLI checks label commands
# and matrix literals against it before it builds anything
NEIGHBOR_WORK_BOUND = 5 * 10**6


class BuildingVertex:
    """A vertex of B, given by its canonical basis; the profile, the
    exponents of the pivots, is read off it (`_canonical_profile`).

    Any other basis raises InvalidInputError: `vertex_normal_form` gives
    the vertex of an arbitrary one.  The library builds its vertices,
    canonical by construction, through `_vertex`, which skips the check.
    """

    __slots__ = ("basis", "profile", "d", "q")

    def __init__(self, basis: LaurentMatrix):
        if not isinstance(basis, LaurentMatrix) or basis.d < 2:
            raise InvalidInputError("a vertex basis is a LaurentMatrix with d >= 2")
        profile = _canonical_profile(_coeff_rows(basis))
        if profile is None:
            raise InvalidInputError(
                "not a canonical basis; vertex_normal_form gives the vertex of any basis"
            )
        self._set(basis, profile)

    def _set(self, basis, profile):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "d", basis.d)
        object.__setattr__(self, "q", basis.q)

    def __setattr__(self, name, value):
        raise AttributeError("BuildingVertex is immutable")

    def key(self):
        return self.basis

    def __eq__(self, other):
        return isinstance(other, BuildingVertex) and self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"BuildingVertex(profile={self.profile}, q={self.q})"

    def to_literal(self) -> dict:
        obj = self.basis.to_literal()
        obj["profile"] = list(self.profile)
        return obj


def _vertex(basis: LaurentMatrix, profile: tuple[int, ...]) -> BuildingVertex:
    """The constructor of library-built vertices: `BuildingVertex` for a
    basis that is canonical with this profile by construction, unchecked."""
    v = object.__new__(BuildingVertex)
    v._set(basis, profile)
    return v


def vertex_from_label(label, q: int) -> BuildingVertex:
    """The diagonal vertex diag(t^n_1, ..., t^n_d) for a domain label."""
    label = tuple(label)
    d = len(label)
    if d < 2:
        raise InvalidInputError("d = 1 is rejected: the building is a point")
    if any(n < 0 for n in label) or label[-1] != 0 or list(label) != sorted(label, reverse=True):
        raise InvalidInputError(f"not a domain label: {label}")
    return _vertex(LaurentMatrix.diagonal(label, q), label)


# ---------------------------------------------------------------------------
# canonical normal form
# ---------------------------------------------------------------------------


def _coeff_rows(m: LaurentMatrix) -> list[list[dict[int, int]]]:
    """m as a dict matrix: the rows of its entries' coefficient dicts,
    shared with m, so only for reading."""
    return [[x.coeffs for x in row] for row in m.rows]


def _solve_canonical(canon, m, q: int) -> list[list[dict[int, int]]]:
    """canon^-1 * m, exactly, for dict matrices over F_q (lists of rows of
    {exponent: residue} dicts, read and not changed), canon upper
    triangular with pivots t^(a_i); returns a new dict matrix.

    Back-substitution from the last row: each entry starts as a copy of
    m's, takes every product of the row above through `laurent._mul_add`,
    and the division by the monic monomial pivot is an exponent shift.
    Any other shape of canon is a bug and raises InternalInvariantError.
    """
    d = len(canon)
    pivots = []
    for i in range(d):
        piv = canon[i][i]
        if len(piv) != 1 or 1 not in piv.values() or any(canon[r][i] for r in range(i + 1, d)):
            raise InternalInvariantError(
                "expected an upper-triangular basis with monic monomial pivots"
            )
        pivots.append(next(iter(piv)))
    out = [[None] * d for _ in range(d)]
    for j in range(d):
        for i in range(d - 1, -1, -1):
            acc = dict(m[i][j])
            for k in range(i + 1, d):
                _mul_add(acc, -1, canon[i][k], out[k][j], q)
            out[i][j] = {e - pivots[i]: c for e, c in acc.items()}
    return out


def _certify_same_lattice(canon, original, q: int) -> bool:
    """Exact check that the dict matrices canon and original span the same
    O-lattice.

    The lattices agree iff U = canon^-1 * original lies in GL_d(O): every
    entry of U is in O (no positive exponent), and U modulo 1/t (its
    constant-term matrix) is invertible over F_q.  canon is upper
    triangular with monic monomial pivots, so U is one exact
    back-substitution (`_solve_canonical`), and the residue matrix is
    invertible when its reduced echelon basis (`gf.reduced_echelon_form`)
    has d rows; no series arithmetic and no determinant.
    """
    u = _solve_canonical(canon, original, q)
    if any(e > 0 for row in u for x in row for e in x):
        return False
    return len(reduced_echelon_form([[x.get(0, 0) for x in row] for row in u], q)) == len(u)


def vertex_normal_form(m: LaurentMatrix) -> BuildingVertex:
    """Canonical representative of the homothety class of m's column span,
    the `_normal_form` of m with the degree of its determinant.

    That degree is the sum of the row degrees of a weak Popov form of m
    over F_q[t] (`_weak_popov`, which reads m's rows and solves no null
    vector): every step is a left multiplication by GL_d(F_q[t]), and the
    leading row coefficients of the form it ends in are invertible
    (Mulders and Storjohann, J. Symbolic Comput. 2003).  A singular m
    reaches a zero row there and raises SingularMatrixError.

    Idempotent; invariant under right multiplication by GL_d(O) and under
    scaling by powers of t.
    """
    if m.d < 2:
        raise InvalidInputError("d = 1 is rejected: the building is a point")
    rows = _coeff_rows(m)
    return _normal_form(rows, sum(_weak_popov(rows, m.q)[0]), m.q)


def _normal_form(m, det_degree: int, q: int) -> BuildingVertex:
    """`vertex_normal_form` of the nonsingular dict matrix m, read and not
    changed, whose determinant has degree det_degree.

    Once m is scaled to entries in O = F_q[[1/t]], its column lattice L
    contains u^N O^d, where u = 1/t and N = v(det m), because
    m adj(m) = det(m) I.  So one column Hermite pass over O, computed
    modulo u^N, is exact (Domich, Kannan and Trotter, Math. Oper. Res.
    1987).  Row by row from the bottom, the entry of least valuation
    becomes the pivot, or u^N e_r when the row vanishes modulo u^N.  Then
    N drops by the pivot's valuation, because the lattice left in the rows
    above has that much smaller a determinant.  Only the degree of m's
    determinant enters N, and a wrong det_degree never gives a wrong
    vertex: too low, the pass is exact but ends with a modulus above u^0;
    too high, it ends on a lattice of another determinant, which the
    certificate rejects.  Either raises InternalInvariantError.  The
    pass keeps each column of the scaled m as a list of mutable dicts: the
    truncation modulo u^N deletes keys in place, and the pivot head and
    each column update x -= f * head go into the dicts through
    `laurent._mul_add`, forming only the terms above u^N (every other term
    is dropped by the truncation).  The exact reduction above the pivots,
    the certificate against the scaled m and the shift to min profile 0
    are `_canonical_vertex`'s, on the same dicts.
    """
    d = len(m)
    top = max(max(x) for row in m for x in row if x)
    # m / t^top, entries in O
    scaled = [[{e - top: c for e, c in x.items()} for x in row] for row in m]
    modulus = d * top - det_degree
    cols = [[dict(row[j]) for row in scaled] for j in range(d)]
    work = [None] * d
    pivots = [0] * d
    for r in range(d - 1, -1, -1):
        # each column holds rows 0..r (the rows below are zero), known
        # modulo u^modulus: the terms at or below -modulus are deleted
        for col in cols:
            for x in col:
                for e in [e for e in x if e <= -modulus]:
                    del x[e]
        live = [j for j, col in enumerate(cols) if col[r]]
        if live:
            piv = cols.pop(max(live, key=lambda j: max(cols[j][r])))
            a = max(piv[r])
        else:
            a = -modulus
            piv = [{}] * r + [{a: 1}]
        # from here on, rows 0..r-1 are needed modulo the new u^modulus only
        modulus += a
        inv = series_inverse(_poly({e - a: c for e, c in piv[r].items()}, q), modulus - 1).coeffs
        head = [{} for _ in range(r)]
        for h, x in zip(head, piv):
            _mul_add(h, 1, x, inv, q, -modulus)
        for col in cols:
            # x -= f * head, forming only the terms above -modulus; the
            # next row's truncation drops the older terms at or below it
            f = {e - a: c for e, c in col.pop().items()}
            if f:
                for x, y in zip(col, head):
                    _mul_add(x, -1, f, y, q, -modulus)
        work[r] = head + [{a: 1}] + [{} for _ in range(d - 1 - r)]
        pivots[r] = a
    if modulus != 0:
        raise InternalInvariantError(
            f"Hermite pass left modulus u^{modulus}, expected the full determinant"
        )
    return _canonical_vertex(work, pivots, scaled, q)


def _canonical_vertex(cols, pivots, original, q: int) -> BuildingVertex:
    """The vertex of an upper-triangular dict matrix, given by its columns
    `cols` (mutable dicts, reduced in place) with monic pivots
    t^pivots[r], that spans the lattice of the dict matrix `original`.

    Each entry above a pivot is reduced, exactly, to exponents above that
    row's pivot: column j takes the low part of its entry in row i, from
    the bottom up, times column i, a right multiplication by GL_d(O).  The
    result is certified exactly on dicts: canon^-1 * original, found by
    back-substitution (`_solve_canonical`), must lie in GL_d(O).  A failed
    certificate is a bug and raises InternalInvariantError.  The
    LaurentPoly basis is built once, at the end, already shifted to min
    profile 0.
    """
    d = len(cols)
    for j in range(d):
        col = cols[j]
        for i in range(j - 1, -1, -1):
            p = pivots[i]
            low = {e - p: c for e, c in col[i].items() if e <= p}
            if low:
                for x, y in zip(col, cols[i]):
                    _mul_add(x, -1, low, y, q)
    canon = [[cols[j][i] for j in range(d)] for i in range(d)]
    if not _certify_same_lattice(canon, original, q):
        raise InternalInvariantError("lattice normal form failed its exact certificate")

    shift = min(pivots)
    basis = [[_poly({e - shift: c for e, c in x.items()}, q) for x in row] for row in canon]
    return _vertex(_matrix(basis, q), tuple(a - shift for a in pivots))


# ---------------------------------------------------------------------------
# neighbors
# ---------------------------------------------------------------------------


def subspace_bases(d: int, s: int, q: int):
    """All s-dimensional subspaces of F_q^d as reduced row-echelon bases.

    Yields tuples of s rows (each a tuple of d residues), one canonical
    basis per subspace, in lexicographic pivot order.
    """
    check_prime(q)
    if s == 0:
        yield ()
        return
    for pivs in combinations(range(d), s):
        free = []
        for i, p in enumerate(pivs):
            for j in range(p + 1, d):
                if j not in pivs:
                    free.append((i, j))
        for values in product(range(q), repeat=len(free)):
            rows = [[0] * d for _ in range(s)]
            for i, p in enumerate(pivs):
                rows[i][p] = 1
            for (i, j), c in zip(free, values):
                rows[i][j] = c
            yield tuple(tuple(r) for r in rows)


def check_work(work: int, what: str) -> None:
    """Raise ResourceBoundError when `what` predicts more than
    NEIGHBOR_WORK_BOUND units of work."""
    if work > NEIGHBOR_WORK_BOUND:
        raise ResourceBoundError(
            f"the predicted work of {what} is {work} units, over the bound {NEIGHBOR_WORK_BOUND}"
        )


def matrix_work(m: LaurentMatrix) -> int:
    """The predicted work of the normal form and domain reduction of an
    arbitrary matrix m, in the units of NEIGHBOR_WORK_BOUND.

    With s the exponent span of m, the intermediate entries hold up to
    w = d s + 1 terms.  Each polynomial product costs 3 units plus 1/16
    unit per coefficient product, and the weak Popov passes of the
    determinant degree and of the domain reduction, the Hermite pass, its
    certificate and the witness's back-substitution take about d^3 / 4
    products of entries that may fill up (w^2 each).  The model is an
    estimate of that work, not a proven upper bound: on a few small
    inputs the counted products exceed it.
    """
    d = m.d
    exponents = [e for row in m.rows for x in row for e in x.coeffs]
    window = d * (max(exponents) - min(exponents) if exponents else 0) + 1
    return d**3 * (12 + window * window // 4) // 16


def normal_form_work(d: int, terms: int) -> int:
    """The predicted work of one normal form of a d x d basis whose entries
    have at most `terms` terms, in the units of NEIGHBOR_WORK_BOUND:
    d^2 (terms + 40), a Hermite pass over entries about as dense as the
    densest one."""
    return d * d * (terms + 40)


def check_neighbor_work(d: int, k: int, q: int, terms: int = 1) -> None:
    """Refuse the degree-k neighbors of a vertex of B_d over F_q, whose
    basis entries have at most `terms` terms, when their predicted work,
    one `normal_form_work` per neighbor (an upper bound on the triangular
    product, reduction and certificate each one takes), is above
    NEIGHBOR_WORK_BOUND.
    Needs only the sizes, so the CLI runs it on a label before the d x d
    basis exists."""
    if d < 2:
        raise InvalidInputError("d = 1 is rejected: the building is a point")
    check_prime(q)
    if not 1 <= k <= d - 1:
        raise InvalidInputError(f"neighbor degree must be in [1, {d - 1}], got {k}")
    # the count is at least q^(k(d-k)) >= 2^(k(d-k)), so a long label is
    # refused before its Gaussian binomial is formed
    if k * (d - k) < NEIGHBOR_WORK_BOUND.bit_length():
        work = gaussian_binomial(d, k, q) * normal_form_work(d, terms)
        if work <= NEIGHBOR_WORK_BOUND:
            return
    raise ResourceBoundError(
        f"the predicted work of the degree-{k} neighbors at d = {d}, q = {q} "
        f"is over the bound {NEIGHBOR_WORK_BOUND}"
    )


def neighbors(v: BuildingVertex, k: int) -> list[BuildingVertex]:
    """All degree-k neighbors of v: classes [L] with (1/t)L' < L < L', [L':L] = q^k.

    Enumerates codimension-k subspaces of the residue space L'/(1/t)L';
    returns exactly gaussian_binomial(d, k, q) pairwise-distinct vertices,
    the i-th one the lattice of the i-th subspace of
    `subspace_bases(d, d - k, q)`: L = C (W + (1/t)O^d) for the canonical
    basis C of v and the span W of that subspace's rows.  Above
    NEIGHBOR_WORK_BOUND predicted work (`check_neighbor_work`), this
    raises ResourceBoundError before enumerating any.

    No Hermite pass runs per neighbor.  W + (1/t)O^d has an
    upper-triangular basis H with pivots 1 and 1/t (`_triangular_basis`),
    so C H is upper triangular with monic pivots, and the neighbor is C H
    after the exact reduction above its pivots and the shift of
    `_canonical_vertex`.  Every neighbor is certified exactly against a
    basis formed on C's dict rows, whose columns are sum_j r_j C[:, j] for
    each row r of W and C[:, j] (1/t), one exponent lower, for each
    coordinate j that is no pivot of W.
    """
    d, q = v.d, v.q
    canon = _coeff_rows(v.basis)
    check_neighbor_work(d, k, q, max(len(x) for row in canon for x in row))
    one = {0: 1}
    out = []
    for rows in subspace_bases(d, d - k, q):
        pivs = {next(j for j in range(d) if r[j]) for r in rows}
        cols = [[{} for _ in range(d)] for _ in rows]
        for col, r in zip(cols, rows):
            for j, c in enumerate(r):
                if c:
                    for x, y in zip(col, canon):
                        _mul_add(x, c, one, y[j], q)
        cols += [[{e - 1: c for e, c in y[j].items()} for y in canon] for j in range(d) if j not in pivs]
        h = _triangular_basis(rows, d, q)
        pivots = [next(iter(canon[r][r])) + next(iter(h[r][r])) for r in range(d)]
        out.append(_canonical_vertex(_triangular_product(canon, h, q), pivots, list(zip(*cols)), q))
    return out


def _canonical_profile(rows) -> tuple[int, ...] | None:
    """The profile of the dict matrix `rows` if it has the shape of a
    canonical basis, else None.  The shape: upper triangular, pivots
    t^profile_i, each entry above a pivot supported on exponents above
    that row's pivot, and min profile 0.  Such a basis is its own
    `vertex_normal_form`."""
    profile = tuple(next(iter(row[i]), 0) for i, row in enumerate(rows))
    canonical = min(profile) == 0 and all(
        row[i] == {a: 1} and not any(row[:i]) and all(e > a for x in row[i + 1:] for e in x)
        for i, (row, a) in enumerate(zip(rows, profile))
    )
    return profile if canonical else None


def _triangular_basis(rows, d: int, q: int) -> list[list[dict[int, int]]]:
    """An upper-triangular dict matrix whose columns span the O-lattice
    W + (1/t)O^d, for the span W over F_q of `rows`, vectors of d
    residues taken as constant vectors.

    Column r is the vector of W's reduced echelon basis on reversed
    coordinates (`gf.reduced_echelon_form`) whose last nonzero coordinate
    is r, a 1 there, or (1/t) e_r when no vector of that basis ends at r.
    So the pivots are 1 and 1/t, and the columns lie in W + (1/t)O^d and
    span it: the other coordinates of an end-r vector sit at coordinates
    where no vector ends, so (1/t) e_r is in the span too.
    """
    h = [[{-1: 1} if i == j else {} for j in range(d)] for i in range(d)]
    for w in reduced_echelon_form([r[::-1] for r in rows], q):
        # w is reversed: its first nonzero, a 1, is the end coordinate
        end = d - 1 - next(p for p, c in enumerate(w) if c)
        for i in range(end + 1):
            h[i][end] = {0: c} if (c := w[d - 1 - i]) else {}
    return h


def _triangular_product(a, b, q: int) -> list[list[dict[int, int]]]:
    """The columns of a b, for upper-triangular dict matrices a and b (read
    and not changed), as lists of new dicts; a b is upper triangular, so
    column r takes only the products a[i][j] b[j][r] with i <= j <= r."""
    d = len(a)
    cols = [[{} for _ in range(d)] for _ in range(d)]
    for r, col in enumerate(cols):
        for j in range(r + 1):
            if y := b[j][r]:
                for i in range(j + 1):
                    _mul_add(col[i], 1, a[i][j], y, q)
    return cols


def _weak_popov(rows, q: int, det_deg: int | None = None) -> tuple[list[int], list[dict[int, int]]]:
    """A weak Popov form of the nonsingular dict matrix `rows` (read and
    not changed) over F_q[t] or, given the degree det_deg of its
    determinant, over O = F_q[[1/t]] (Mulders and Storjohann, J. Symbolic
    Comput. 2003): its row degrees and its rows, packed.

    Each row is packed into one dict keyed by e d + j for its term t^e in
    column j, so its top key gives its degree (key // d) and its leading
    position (key % d), the rightmost column at that degree.  While two
    rows share a leading position, c t^shift times one is subtracted from
    the other to cancel that row's top key: over F_q[t] the row of higher
    key takes it (shift >= 0), over O the row of lower key (shift <= 0), so
    every step is left multiplication by an element of GL_d of that ring
    and strictly lowers one top key.  On a tie of top keys the row that
    holds the position keeps it over F_q[t], which keeps the domain
    witness solved from the rows smaller, and passes it to the incoming
    row over O.  Once the leading positions differ, the leading row
    coefficients form an invertible matrix, so the rows are diag(t^deg) A
    with A in GL_d(O) and the degrees sum to deg det exactly; no null
    vector is solved.

    Every pass is bounded.  Over F_q[t] no key falls below d times the
    least exponent of the input.  Over O det_deg is the bound, and a
    degree sum below it is a bug and raises InternalInvariantError: the
    degree sum never falls below deg det, and without the check a singular
    pair such as v, (1 - 1/t) v would be reduced forever.  Final degrees
    that do not sum to det_deg raise InternalInvariantError too.  A zero
    row means a singular matrix (SingularMatrixError).
    """
    d = len(rows)
    packed = [{e * d + j: c for j, x in enumerate(row) for e, c in x.items()} for row in rows]
    if not all(packed):
        raise SingularMatrixError("matrix is singular: the row reduction reached a zero row")
    tops = [max(p) for p in packed]
    total = sum(k // d for k in tops)
    owner: dict[int, int] = {}
    for row in range(d):
        i = row
        while (j := owner.get(pos := tops[i] % d)) is not None:
            # row i takes the subtraction, unless the ring's multipliers
            # cancel row j's top key instead: then the two swap places
            if (tops[j] > tops[i]) if det_deg is None else (tops[j] <= tops[i]):
                owner[pos] = i
                i, j = j, i
            target, top = packed[i], tops[i]
            # the monomial shifts row j's keys by d per degree of t
            c = -target[top] * inv_mod(packed[j][tops[j]], q)
            _mul_add(target, c, {top - tops[j]: 1}, packed[j], q)
            if not target:
                raise SingularMatrixError("matrix is singular: the row reduction reached a zero row")
            tops[i] = max(target)
            total += tops[i] // d - top // d
            if det_deg is not None and total < det_deg:
                raise InternalInvariantError("total row degree fell below deg(det) during row reduction")
        owner[pos] = i
    degs = [k // d for k in tops]
    if det_deg is not None and total != det_deg:
        raise InternalInvariantError(
            f"row degrees {degs} do not account for the determinant degree {det_deg}"
        )
    return degs, packed


def relative_position(x: BuildingVertex, y: BuildingVertex) -> tuple[int, ...]:
    """Smith valuations s_1 <= ... <= s_d of y^-1 x over O = F_q[[1/t]].

    In bases adapted to both lattices, x's lattice is spanned by the
    (1/t)^(s_i) e_i where y's is spanned by the e_i; the tuple is the
    relative position of the two vertices up to a common shift (Garrett,
    Buildings and Classical Groups, 1997).  y^-1 x comes from one
    back-substitution, and the weak Popov pass over O (`_weak_popov`)
    finds the row degrees of a form diag(t^deg) A with A in GL_d(O), so the
    valuations are the negated row degrees.  Its determinant has degree
    sum profile(x) - sum profile(y), read off the monomial determinants of
    the canonical bases; row degrees that do not sum to it raise
    InternalInvariantError.
    """
    if x.q != y.q or x.d != y.d:
        raise InvalidInputError("vertices live in different buildings")
    q = x.q
    rows = _solve_canonical(_coeff_rows(y.basis), _coeff_rows(x.basis), q)
    degs = _weak_popov(rows, q, det_deg=sum(x.profile) - sum(y.profile))[0]
    return tuple(sorted(-e for e in degs))


def label_relative_position(label1, label2) -> tuple[int, ...]:
    """`relative_position` of the vertices of two labels, read off the
    labels: y^-1 x = diag(t^(n_i - m_i)) is already diagonal, with
    valuations m_i - n_i, so those are its Smith valuations, sorted."""
    if len(label1) != len(label2):
        raise InvalidInputError("vertices live in different buildings")
    return tuple(sorted(b - a for a, b in zip(label1, label2)))


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def _within_radius(dist: int, radius: int) -> int | None:
    if radius < 0:
        raise InvalidInputError("radius must be >= 0")
    return dist if dist <= radius else None


def position_distances(s, radius: int) -> tuple[int | None, int | None]:
    """The graph distance and the directed color-1 distance of two
    vertices in relative position s (sorted), each None beyond the radius.

    The graph distance is max s - min s: an edge changes s by a 0/1 vector
    up to a common shift, so the spread drops by at most one per edge, and
    lowering every largest entry at once attains that.  A color-1 step from
    v leads to the classes of its degree-(d-1) neighbors: those are exactly
    the superlattices of index q.  The smallest representative of y
    containing x's lattice has index q^(sum_i (s_i - min s)), and every
    containment of that index is a chain of that many index-q steps.
    """
    return (
        _within_radius(s[-1] - s[0], radius),
        _within_radius(sum(e - s[0] for e in s), radius),
    )


def bfs_distance(x: BuildingVertex, y: BuildingVertex, radius: int) -> int | None:
    """Edge count of a shortest 1-skeleton path, or None beyond the radius
    (`position_distances`).  Breadth-first search over the 1-skeleton is
    the oracle in the tests."""
    return position_distances(relative_position(x, y), radius)[0]


def bfs_color1_distance(x: BuildingVertex, y: BuildingVertex, radius: int) -> int | None:
    """Length of a shortest directed color-1 path from x to y, or None
    beyond the radius (`position_distances`)."""
    return position_distances(relative_position(x, y), radius)[1]


def distance_formulas(label1, label2) -> tuple[int, int]:
    """Closed-form label distances (graph metric and color-1 metric).

    Evaluates min_j max_i |n_i - m_i - j| and min_j sum_i |n_i - m_i - j|
    over integers j.  The first is least at the midpoint of the
    differences, where it is half their spread rounded up; the second at
    their median.  These are the old label formulas, kept because the
    `distance` output pinned in bench/pins.json prints them; correcting
    them is a change of pinned output.  The first disagrees
    with the 1-skeleton metric (`bfs_distance`) already on (2,1,0) vs
    (0,0,0), and for d = 2 it gives ceil(n/2) where the tree distance is
    n.  The CLI `distance` subcommand surfaces both values with a note.
    """
    n = tuple(label1)
    m = tuple(label2)
    if len(n) != len(m):
        raise InvalidInputError("labels must have the same length")
    diffs = sorted(a - b for a, b in zip(n, m))
    median = diffs[len(diffs) // 2]
    return (diffs[-1] - diffs[0] + 1) // 2, sum(abs(x - median) for x in diffs)
