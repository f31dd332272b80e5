"""The full affine building B for PGL_d(F_q((1/t))).

Vertices are homothety classes of O-lattices in F^d, represented by a
canonical upper-triangular basis: pivots are exact monomials t^(a_i), the
entry above a pivot in row i is supported on exponents strictly greater
than a_i, and min(a_i) = 0 fixes the homothety.  Two vertices are equal
iff their canonical bases are entrywise equal.

Neighbor enumeration goes through subspaces of the residue space.  Edge
colors and both distances are read off the relative position of two
vertices, the Smith valuations of y^-1 x from one elimination over O,
or, for two label vertices, the sorted label differences
(`label_relative_position`); breadth-first search on the 1-skeleton is
their oracle in the tests.  The
`bfs_*` names are kept from the search they replaced.  The closed-form
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
from .gf import check_prime, gaussian_binomial, left_null_vector
from .laurent import LaurentMatrix, LaurentPoly, _poly, dot, series_inverse

# The one bound on predicted work, about a microsecond per unit (measured on
# a shared 2-core x86-64 with Python 3.11): `neighbors` costs one
# `normal_form_work` per neighbor, and the CLI checks label commands and
# matrix literals against it before it builds anything
NEIGHBOR_WORK_BOUND = 5 * 10**6


class BuildingVertex:
    """A vertex of B: canonical lattice basis plus its diagonal profile."""

    __slots__ = ("basis", "profile", "d", "q")

    def __init__(self, basis: LaurentMatrix, profile: tuple[int, ...]):
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


def vertex_from_label(label, q: int) -> BuildingVertex:
    """The diagonal vertex diag(t^n_1, ..., t^n_d) for a domain label."""
    label = tuple(label)
    d = len(label)
    if d < 2:
        raise InvalidInputError("d = 1 is rejected: the building is a point")
    if any(n < 0 for n in label) or label[-1] != 0 or list(label) != sorted(label, reverse=True):
        raise InvalidInputError(f"not a domain label: {label}")
    return BuildingVertex(LaurentMatrix.diagonal(label, q), label)


def standard_vertex(d: int, q: int) -> BuildingVertex:
    """The class of the standard lattice O^d."""
    return vertex_from_label((0,) * d, q)


# ---------------------------------------------------------------------------
# canonical normal form
# ---------------------------------------------------------------------------


def _solve_canonical(canon: LaurentMatrix, m: LaurentMatrix) -> LaurentMatrix:
    """canon^-1 * m, exactly, for canon upper triangular with pivots t^(a_i).

    Back-substitution from the last row, one `dot` per entry; each
    division is by a monic monomial, so it is an exponent shift.  Any other
    shape of canon is a bug and raises InternalInvariantError.
    """
    d, q, rows = canon.d, canon.q, canon.rows
    one = _poly({0: 1}, q)
    pivots = []
    for i in range(d):
        piv = rows[i][i].coeffs
        if len(piv) != 1 or 1 not in piv.values() or any(rows[r][i] for r in range(i + 1, d)):
            raise InternalInvariantError(
                "expected an upper-triangular basis with monic monomial pivots"
            )
        pivots.append(next(iter(piv)))
    out = [[None] * d for _ in range(d)]
    for j in range(d):
        for i in range(d - 1, -1, -1):
            terms = [(-1, rows[i][k], out[k][j]) for k in range(i + 1, d) if rows[i][k]]
            acc = dot([(1, m.rows[i][j], one), *terms], q) if terms else m.rows[i][j]
            out[i][j] = acc.shift(-pivots[i])
    return LaurentMatrix(out, q)


def _certify_same_lattice(canon: LaurentMatrix, original: LaurentMatrix) -> bool:
    """Exact check that canon and original span the same O-lattice.

    The lattices agree iff U = canon^-1 * original lies in GL_d(O): every
    entry of U is in O, and U modulo 1/t (its constant-term matrix) is
    invertible over F_q.  canon is upper triangular with monic monomial
    pivots, so U is one exact back-substitution (`_solve_canonical`); no
    series arithmetic and no determinant.
    """
    u = _solve_canonical(canon, original)
    if not all(x.in_O() for row in u.rows for x in row):
        return False
    residue = [[x.coeff(0) for x in row] for row in u.rows]
    return left_null_vector(residue, canon.q) is None


def vertex_normal_form(m: LaurentMatrix) -> BuildingVertex:
    """Canonical representative of the homothety class of m's column span.

    Idempotent; invariant under right multiplication by GL_d(O) and under
    scaling by powers of t.

    Once m is scaled to entries in O = F_q[[1/t]], its column lattice L
    contains u^N O^d, where u = 1/t and N = v(det m), because
    m adj(m) = det(m) I.  So one column Hermite pass over O, computed
    modulo u^N, is exact (Domich, Kannan and Trotter, Math. Oper. Res.
    1987).  Row by row from the bottom, the entry of least valuation
    becomes the pivot, or u^N e_r when the row vanishes modulo u^N.  Then
    N drops by the pivot's valuation, because the lattice left in the rows
    above has that much smaller a determinant.  m's determinant is the one
    Laurent determinant computed.  Each product or sum of products is one
    `laurent.dot`: the pivot head and the column updates form only the
    terms above u^N (every other term is dropped by the truncation modulo
    u^N), the final reduction above the pivots is exact, and each entry of
    the certificate's back-substitution is one sum.  The result is
    certified exactly: canon^-1 * m, found by back-substitution, must lie
    in GL_d(O).  A failed certificate is a bug and raises
    InternalInvariantError.
    """
    if m.d < 2:
        raise InvalidInputError("d = 1 is rejected: the building is a point")
    d, q = m.d, m.q
    det = m.det()
    if det.is_zero():
        raise SingularMatrixError("matrix is singular over F_q((1/t))")

    top = max(x.degree() for row in m.rows for x in row if x)
    scaled = m.shift(-top)
    modulus = d * top - det.degree()
    zero, one = _poly({}, q), _poly({0: 1}, q)
    cols = [scaled.column(j) for j in range(d)]
    work = [None] * d
    pivots = [0] * d
    for r in range(d - 1, -1, -1):
        # each column holds rows 0..r (the rows below are zero), known
        # modulo u^modulus
        cols = [[x.part_above(-modulus) for x in col] for col in cols]
        live = [j for j, col in enumerate(cols) if col[r]]
        if live:
            piv = cols.pop(max(live, key=lambda j: cols[j][r].degree()))
            a = piv[r].degree()
        else:
            a = -modulus
            piv = [zero] * r + [_poly({a: 1}, q)]
        # from here on, rows 0..r-1 are needed modulo the new u^modulus only
        modulus += a
        inv = series_inverse(piv[r].shift(-a), modulus - 1)
        head = [dot(((1, x, inv),), q, -modulus) if x else x for x in piv[:r]]
        piv = head + [_poly({a: 1}, q)]
        for j, col in enumerate(cols):
            # the next row's truncation drops every term at or below -modulus
            f = col[r].shift(-a)
            if f:
                cols[j] = [dot(((1, x, one), (-1, f, y)), q, -modulus) for x, y in zip(col, head)]
        work[r] = piv + [zero] * (d - 1 - r)
        pivots[r] = a
    if modulus != 0:
        raise InternalInvariantError(
            f"Hermite pass left modulus u^{modulus}, expected the full determinant"
        )

    for j in range(d):
        for i in range(j - 1, -1, -1):
            low = work[j][i].part_at_most(pivots[i])
            if low:
                f = low.shift(-pivots[i])
                col_i = work[i]
                work[j] = [
                    dot(((1, x, one), (-1, f, y)), q) if y else x
                    for x, y in zip(work[j], col_i)
                ]
    canon = LaurentMatrix([[work[j][i] for j in range(d)] for i in range(d)], q)
    if not _certify_same_lattice(canon, scaled):
        raise InternalInvariantError("lattice normal form failed its exact certificate")

    shift = min(pivots)
    canon = canon.shift(-shift)
    profile = tuple(a - shift for a in pivots)
    return BuildingVertex(canon, profile)


def vertex_color(v: BuildingVertex) -> int:
    """Vertex color: (-v(det basis)) mod d = sum of the profile mod d."""
    return sum(v.profile) % v.d


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

    With T the most terms of one entry of m and s its exponent span, the
    intermediate entries hold up to w = d s + 1 terms.  Each polynomial
    product costs 3 units plus 1/16 unit per coefficient product: the
    determinant takes d 2^(d-1) products of an entry by a minor (T w
    coefficient products each), and the Hermite pass, its certificate and
    the domain reduction about d^3 / 4 products of entries that may fill
    up (w^2 each).
    """
    d = m.d
    exponents = [e for row in m.rows for x in row for e in x.coeffs]
    window = d * (max(exponents) - min(exponents) if exponents else 0) + 1
    terms = max(len(x.coeffs) for row in m.rows for x in row)
    return ((d << (d - 1)) * (48 + terms * window) + d**3 * (12 + window * window // 4)) // 16


def normal_form_work(d: int, terms: int) -> int:
    """The predicted work of one normal form of a d x d basis whose entries
    have at most `terms` terms, in the units of NEIGHBOR_WORK_BOUND:
    d^2 (terms + 40), a Hermite pass over entries about as dense as the
    densest one."""
    return d * d * (terms + 40)


def check_neighbor_work(d: int, k: int, q: int, terms: int = 1) -> None:
    """Refuse the degree-k neighbors of a vertex of B_d over F_q, whose
    basis entries have at most `terms` terms, when their predicted work,
    one `normal_form_work` per neighbor, is above NEIGHBOR_WORK_BOUND.
    Needs only the sizes, so the CLI runs it on a label before the d x d
    basis exists."""
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
    returns exactly gaussian_binomial(d, k, q) pairwise-distinct vertices.
    Above NEIGHBOR_WORK_BOUND predicted work (`check_neighbor_work`), this
    raises ResourceBoundError before enumerating any.
    """
    d, q = v.d, v.q
    terms = max(len(x.coeffs) for row in v.basis.rows for x in row)
    check_neighbor_work(d, k, q, terms)
    zero = LaurentPoly.zero(q)
    uniformizer = LaurentPoly.t_power(-1, q)
    out = []
    for rows in subspace_bases(d, d - k, q):
        pivs = {next(j for j in range(d) if r[j]) for r in rows}
        ncols = []
        for r in rows:
            ncols.append([LaurentPoly.constant(c, q) if c else zero for c in r])
        for j in range(d):
            if j not in pivs:
                ncols.append([uniformizer if i == j else zero for i in range(d)])
        n = LaurentMatrix([[ncols[j][i] for j in range(d)] for i in range(d)], q)
        out.append(vertex_normal_form(v.basis * n))
    return out


def relative_position(x: BuildingVertex, y: BuildingVertex) -> tuple[int, ...]:
    """Smith valuations s_1 <= ... <= s_d of y^-1 x over O = F_q[[1/t]].

    In bases adapted to both lattices, x's lattice is spanned by the
    (1/t)^(s_i) e_i where y's is spanned by the e_i; the tuple is the
    relative position of the two vertices up to a common shift (Garrett,
    Buildings and Classical Groups, 1997).  y^-1 x comes from one
    back-substitution.  Scaled by t^-top into O, it has determinant
    valuation N = d top - sum profile(x) + sum profile(y), read off the
    monomial determinants of the canonical bases.  With u = 1/t, each
    valuation is at most N, so one elimination modulo u^(N+1) is exact: each
    step takes the entry of least valuation a, clears its row and column,
    records a, and leaves the rest needed modulo u^(N+1-a) only.  The
    recorded valuations must sum to N, else InternalInvariantError.
    """
    if x.q != y.q or x.d != y.d:
        raise InvalidInputError("vertices live in different buildings")
    q = x.q
    rel = _solve_canonical(y.basis, x.basis)
    top = max(e.degree() for row in rel.rows for e in row if e)
    det_val = x.d * top - sum(x.profile) + sum(y.profile)
    modulus = det_val + 1
    rows = [[e.shift(-top).part_above(-modulus) for e in row] for row in rel.rows]
    one = _poly({0: 1}, q)
    vals = []
    while rows:
        live = [(i, j) for i, row in enumerate(rows) for j, e in enumerate(row) if e]
        if not live:
            break
        r, c = max(live, key=lambda ij: rows[ij[0]][ij[1]].degree())
        piv = rows.pop(r)
        a = -piv[c].degree()
        modulus -= a
        inv = series_inverse(piv[c].shift(a), modulus - 1)
        # every entry has valuation at least a, so each f below lies in O
        # and f * p above u^modulus needs p above u^modulus only
        piv = [dot(((1, e, inv),), q, -modulus) for e in piv]
        for i, row in enumerate(rows):
            f = row[c].shift(a)
            rows[i] = [
                dot(((1, e, one), (-1, f, p)), q, -modulus)
                for j, (e, p) in enumerate(zip(row, piv))
                if j != c
            ]
        vals.append(a)
    if len(vals) != x.d or sum(vals) != det_val:
        raise InternalInvariantError(
            f"Smith valuations {vals} do not account for the determinant valuation {det_val}"
        )
    return tuple(a - top for a in vals)


def label_relative_position(label1, label2) -> tuple[int, ...]:
    """`relative_position` of the vertices of two labels, read off the
    labels: y^-1 x = diag(t^(n_i - m_i)) is already diagonal, with
    valuations m_i - n_i, so those are its Smith valuations, sorted."""
    if len(label1) != len(label2):
        raise InvalidInputError("vertices live in different buildings")
    return tuple(sorted(b - a for a, b in zip(label1, label2)))


def edge_color(x: BuildingVertex, y: BuildingVertex) -> int | None:
    """Color of the edge between x and y, or None if not adjacent.

    Returns i when representatives exist with (1/t)L' < L < L' where
    L' represents x, L represents y and [L' : L] = q^i: the relative
    position, shifted to s_1 = 0, is d - i zeros and i ones.  Satisfies
    edge_color(x, y) + edge_color(y, x) = 0 mod d.
    """
    s = relative_position(x, y)
    shat = [e - s[0] for e in s]
    colength = sum(shat)
    if colength == 0 or shat[-1] > 1:
        return None
    return x.d - colength


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
