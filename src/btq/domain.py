"""The fundamental domain of the building under PGL_d(F_q[t]).

Domain vertices are labels: weakly decreasing nonnegative integer tuples
with last entry 0.  This module owns the label combinatorics (difference
and block sequences), the in-domain neighbor enumeration (block-suffix
drops; alternating changes of the difference sequence are its oracle in
the tests), friends, stabilizer orders and brute-force stabilizer groups,
the orbit decomposition of neighbors (each orbit the closure of one
neighbor under a generating set; enumerating the whole group is its
oracle in the tests), and the reduction of an arbitrary building vertex
to its unique domain label together with a group-element witness.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from math import comb, log2, prod

from .building import BuildingVertex, neighbors, vertex_from_label, vertex_normal_form
from .errors import (
    InternalInvariantError,
    InvalidInputError,
    ResourceBoundError,
    SingularMatrixError,
)
from .gf import check_prime, left_null_vector
from .laurent import LaurentMatrix, LaurentPoly, _poly, dot

# stabilizer_enumerate refuses groups of larger order than this
DEFAULT_GROUP_BOUND = 10**6
# enumerate_domain refuses to list more labels than this
LABEL_COUNT_BOUND = 10**6
# exact results predicted above this many bits are refused before the work;
# two such fractions and their difference print within Python's 4300-digit
# int-to-str limit
RESULT_BIT_BOUND = 7000
# _gl_matrices refuses to scan more candidate matrices than this; the group
# bound does not imply it (at q = 97 the stabilizer of (0, 0) has order
# 912,576, but GL_2(F_97) has 97^4 candidates)
_GL_CANDIDATE_BOUND = 2 * 10**6


def check_result_size(q_exponent: int, q: int, what: str) -> None:
    """Raise ResourceBoundError if q^q_exponent exceeds RESULT_BIT_BOUND bits."""
    bits = q_exponent * log2(q)
    if bits > RESULT_BIT_BOUND:
        raise ResourceBoundError(
            f"{what} would have about {bits:.0f} bits, over the bound {RESULT_BIT_BOUND}"
        )


def validate_label(label) -> tuple[int, ...]:
    label = tuple(map(int, label))
    if len(label) < 2:
        raise InvalidInputError("d = 1 is rejected: the building is a point")
    if label[-1] != 0:
        raise InvalidInputError(f"label must end in 0, got {label}")
    if list(label) != sorted(label, reverse=True):
        raise InvalidInputError(f"label must be weakly decreasing, got {label}")
    return label


def parse_label(text: str) -> tuple[int, ...]:
    """Parse the comma-separated serialization, e.g. '2,1,0'."""
    try:
        label = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"bad label literal {text!r}") from exc
    return validate_label(label)


def format_label(label) -> str:
    return ",".join(str(n) for n in label)


def diff_seq(label) -> tuple[int, ...]:
    """Consecutive differences (m_1, ..., m_{d-1}), m_i = n_i - n_{i+1}."""
    label = validate_label(label)
    return tuple(label[i] - label[i + 1] for i in range(len(label) - 1))


def support_size(m_seq) -> int:
    """|m|: the number of nonzero entries of a difference sequence."""
    return sum(1 for m in m_seq if m)


def block_seq(label) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Run lengths and values of the label: ((d_1,...,d_r), (g_1 > ... > g_r))."""
    label = validate_label(label)
    sizes: list[int] = []
    values: list[int] = []
    for n in label:
        if values and values[-1] == n:
            sizes[-1] += 1
        else:
            values.append(n)
            sizes.append(1)
    return tuple(sizes), tuple(values)


def _normalize(entries) -> tuple[int, ...]:
    low = min(entries)
    return tuple(n - low for n in entries)


def label_count(d: int, max_n1: int) -> int:
    """C(max_n1 + d - 1, d - 1), the number of domain labels with
    n_1 <= max_n1; above LABEL_COUNT_BOUND this raises ResourceBoundError."""
    if d < 2:
        raise InvalidInputError("d = 1 is rejected: the building is a point")
    if max_n1 < 0:
        raise InvalidInputError("max_n1 must be >= 0")
    count = comb(max_n1 + d - 1, d - 1)
    if count > LABEL_COUNT_BOUND:
        # the count itself can be too long to print
        raise ResourceBoundError(
            f"the domain up to n_1 = {max_n1} has more than {LABEL_COUNT_BOUND} labels"
        )
    return count


def enumerate_domain(d: int, max_n1: int) -> list[tuple[int, ...]]:
    """All domain labels with n_1 <= max_n1, in lexicographic order.

    There are `label_count(d, max_n1)` of them, checked before any is
    listed.
    """
    label_count(d, max_n1)
    return sorted(
        tuple(reversed(c)) + (0,)
        for c in combinations_with_replacement(range(max_n1 + 1), d - 1)
    )


# ---------------------------------------------------------------------------
# in-domain neighbors
# ---------------------------------------------------------------------------


def _blocks(label, k: int) -> list[tuple[int, int]]:
    """The (value, size) blocks of a valid label, for a degree k in [1, d - 1]."""
    sizes, values = block_seq(label)
    d = sum(sizes)
    if not 1 <= k <= d - 1:
        raise InvalidInputError(f"degree must be in [1, {d - 1}], got {k}")
    return list(zip(values, sizes))


def in_domain_work(label, k: int) -> int:
    """The predicted work of `neighbors_in_domain(label, k)` and of printing
    its result, in the units of building.NEIGHBOR_WORK_BOUND: d / 4 for
    each drop combination it tries, prod(min(size, k) + 1) over the blocks."""
    blocks = _blocks(label, k)
    return len(label) * prod(min(size, k) + 1 for _, size in blocks) // 4


def neighbors_in_domain(label, k: int) -> list[tuple[int, ...]]:
    """All domain labels adjacent to `label` by a degree-k edge.

    Each one lowers a suffix of every block of the label by one, the suffix
    lengths summing to k, and is renormalized: when the zero block drops,
    every entry rises by one.  For k = 1 the count is 1 + |m|.  Distinct
    drops give distinct labels, since 1 <= k <= d - 1.  Alternating changes
    of the difference sequence give the same set independently; the tests
    use them as the oracle.
    """
    blocks = _blocks(label, k)
    out = []
    for drops in product(*(range(min(size, k) + 1) for _, size in blocks)):
        if sum(drops) == k:
            lift = 1 if drops[-1] else 0
            entries: list[int] = []
            for (n, size), s in zip(blocks, drops):
                entries += [n + lift] * (size - s) + [n + lift - 1] * s
            out.append(tuple(entries))
    out.sort()
    return out


def friends(label) -> dict[int, tuple[int, ...]]:
    """The in-domain neighbors fixed pointwise by the whole vertex stabilizer.

    A friend of degree k exists exactly when the last k coordinates form
    complete blocks (k a proper suffix sum of the block-size sequence);
    it is the label with those k coordinates lowered by one, renormalized.
    The zero label has no friends.
    """
    label = validate_label(label)
    d = len(label)
    sizes, _ = block_seq(label)
    out: dict[int, tuple[int, ...]] = {}
    k = 0
    for size in reversed(sizes):
        k += size
        if k >= d:
            break
        lowered = list(label)
        for i in range(d - k, d):
            lowered[i] -= 1
        out[k] = _normalize(lowered)
    return out


# ---------------------------------------------------------------------------
# stabilizers
# ---------------------------------------------------------------------------


def stabilizer_order(label, q: int) -> int:
    """|Gamma_label|: the degree-pattern order of the label with itself."""
    return pattern_order(label, label, q)


def pattern_order(label1, label2, q: int) -> int:
    """|Gamma_{label1} intersect Gamma_{label2}| in closed form.

    The intersection is the set of g with deg g_ij <= c_ij =
    min(u_i - u_j, v_i - v_j) (a negative bound forces g_ij = 0).  Indices
    with equal (u_i, v_i) form contiguous blocks; entries below the blocks
    vanish and the diagonal blocks are constant, so the order is
    prod_blocks |GL_s(F_q)| * q^E / (q - 1), where E sums
    s_a * s_b * (c_ab + 1) over block pairs a < b.  With label1 = label2
    this is the vertex stabilizer order.
    """
    u = validate_label(label1)
    v = validate_label(label2)
    if len(u) != len(v):
        raise InvalidInputError("labels must have the same length")
    check_prime(q)
    return _pattern_order(u, v, q)


def _pattern_order(u, v, q: int) -> int:
    # pattern_order on validated input.  |GL_s(F_q)| = q^(s(s-1)/2) *
    # prod_{r=1}^{s} (q^r - 1), and c_ij = 0 inside a block, so the powers
    # of q from all pairs i < j sum to one exponent, and the position r of
    # each index within its block contributes the factor q^r - 1.
    # The order is below q^(exp + d(d+1)/2), which is checked before the
    # product.  Each of the d(d-1)/2 pairs adds at least 1 to exp, so d^2
    # bounds that exponent from below; checking it before the pair sum
    # refuses a long label without the quadratic work.
    d = len(u)
    check_result_size(d * d, q, "the stabilizer order")
    exp = sum(min(u[i] - u[j], v[i] - v[j]) + 1 for i in range(d) for j in range(i + 1, d))
    check_result_size(exp + d * (d + 1) // 2, q, "the stabilizer order")
    order = 1
    r = 0
    for i in range(d):
        r = r + 1 if i and u[i] == u[i - 1] and v[i] == v[i - 1] else 1
        order *= q**r - 1
    return order * q**exp // (q - 1)


def stabilizer_contains(label1, label2) -> bool:
    """Whether Gamma_{label1} is a subgroup of Gamma_{label2}.

    Holds iff the labels have the same block-size sequence and the
    difference sequences satisfy m^1 <= m^2 pointwise, which nests the
    entrywise degree bounds of the two matrix patterns.
    """
    label1 = validate_label(label1)
    label2 = validate_label(label2)
    if len(label1) != len(label2):
        raise InvalidInputError("labels must have the same length")
    sizes1, _ = block_seq(label1)
    sizes2, _ = block_seq(label2)
    if sizes1 != sizes2:
        return False
    return all(a <= b for a, b in zip(diff_seq(label1), diff_seq(label2)))


_GL_CACHE: dict[tuple[int, int], list] = {}


def _gl_matrices(m: int, q: int):
    """All invertible m x m matrices over F_q (cached; m stays tiny here)."""
    key = (m, q)
    if key not in _GL_CACHE:
        if q ** (m * m) > _GL_CANDIDATE_BOUND:
            raise ResourceBoundError(
                f"GL_{m}(F_{q}) needs {q**(m*m)} candidate matrices, over the bound"
            )
        mats = (
            tuple(flat[i * m : (i + 1) * m] for i in range(m))
            for flat in product(range(q), repeat=m * m)
        )
        _GL_CACHE[key] = [mat for mat in mats if left_null_vector(mat, q) is None]
    return _GL_CACHE[key]


def stabilizer_enumerate(label, q: int) -> list[LaurentMatrix]:
    """Materialize the full vertex stabilizer modulo scalars, or raise
    ResourceBoundError when its order is above DEFAULT_GROUP_BOUND.

    Elements are block upper-triangular matrices over F_q[t]: diagonal
    blocks invertible over F_q, and each entry of an off-diagonal block
    (l, m) a polynomial of degree at most g_l - g_m.  One representative
    per scalar class: the first nonzero entry in row-major order has its
    lowest-exponent coefficient normalized to 1.
    """
    label = validate_label(label)
    check_prime(q)
    predicted = stabilizer_order(label, q)
    if predicted > DEFAULT_GROUP_BOUND:
        raise ResourceBoundError(
            f"stabilizer of {label} has order {predicted}, over the bound {DEFAULT_GROUP_BOUND}"
        )
    sizes, values = block_seq(label)
    r = len(sizes)
    starts = [sum(sizes[:i]) for i in range(r)]
    d = len(label)

    poly_slots = []  # (row, col, degree cap) for the free polynomial entries
    for l in range(r):
        for m in range(l + 1, r):
            cap = values[l] - values[m]
            for i in range(starts[l], starts[l] + sizes[l]):
                for j in range(starts[m], starts[m] + sizes[m]):
                    poly_slots.append((i, j, cap))
    choices_by_cap = {
        cap: [
            LaurentPoly(dict(enumerate(coeffs)), q)
            for coeffs in product(range(q), repeat=cap + 1)
        ]
        for cap in {cap for _, _, cap in poly_slots}
    }
    zero = LaurentPoly.zero(q)

    out: list[LaurentMatrix] = []
    for diag_blocks in product(*(_gl_matrices(sizes[l], q) for l in range(r))):
        base = [[zero] * d for _ in range(d)]
        for l, blk in enumerate(diag_blocks):
            s = starts[l]
            for i in range(sizes[l]):
                for j in range(sizes[l]):
                    if blk[i][j]:
                        base[s + i][s + j] = LaurentPoly.constant(blk[i][j], q)
        for combo in product(*(choices_by_cap[cap] for _, _, cap in poly_slots)):
            rows = [row[:] for row in base]
            for (i, j, _), p in zip(poly_slots, combo):
                rows[i][j] = p
            lead = next(x for row in rows for x in row if x)
            if lead.coeffs[min(lead.coeffs)] != 1:
                continue
            out.append(LaurentMatrix(rows, q))
    if len(out) != predicted:
        raise InternalInvariantError(
            f"stabilizer enumeration for {label}, q={q}: got {len(out)}, "
            f"formula predicts {predicted}"
        )
    return out


def stabilizer_degree_pattern_ok(gamma: LaurentMatrix, label) -> bool:
    """Exact membership test for the stabilizer of a label's lattice:
    deg(gamma[i][j]) <= n_i - n_j for every entry (negative bound = 0)."""
    label = validate_label(label)
    d = len(label)
    if gamma.d != d:
        raise InvalidInputError("matrix size does not match label length")
    return all(
        not x or x.degree() <= label[i] - label[j]
        for i, row in enumerate(gamma.rows)
        for j, x in enumerate(row)
    )


def edge_stabilizer_brute(label1, label2, q: int) -> int:
    """|Gamma_{label1} intersect Gamma_{label2}| by full enumeration plus
    the exact degree-pattern membership test."""
    group = stabilizer_enumerate(label1, q)
    return sum(1 for g in group if stabilizer_degree_pattern_ok(g, label2))


# ---------------------------------------------------------------------------
# orbits of the stabilizer action on neighbors
# ---------------------------------------------------------------------------


def _matrix_sort_key(mat: LaurentMatrix):
    return tuple(
        tuple(sorted(x.coeffs.items())) for row in mat.rows for x in row
    )


def _residue_action_generators(label, q: int) -> list[LaurentMatrix]:
    # g in Gamma_label acts on the residue space L'/(1/t)L', L' = diag(t^n)O^d,
    # through D^-1 g D mod 1/t, D = diag(t^n): entry (i, j) keeps only the
    # coefficient of t^(n_i - n_j) in g_ij.  The image is the parabolic
    # subgroup with blocks given by the label, and its orbits on subspaces
    # are those of the elementary matrices I + c E_ij, n_i >= n_j: each
    # orbit holds a coordinate subspace (Bruhat decomposition), which the
    # diagonal matrices fix.  q is prime, so the powers of
    # I + t^(n_i - n_j) E_ij give every multiple c.
    d = len(label)
    one, zero = LaurentPoly.constant(1, q), LaurentPoly.zero(q)
    gens = []
    for i in range(d):
        for j in range(d):
            if i != j and label[i] >= label[j]:
                rows = [[one if r == c else zero for c in range(d)] for r in range(d)]
                rows[i][j] = LaurentPoly.t_power(label[i] - label[j], q)
                gens.append(LaurentMatrix(rows, q))
    return gens


def orbit_decomposition(label, q: int, k: int) -> list[list[BuildingVertex]]:
    """Partition the degree-k neighbors of the label's vertex into orbits
    of its stabilizer.

    Each orbit is the closure of one representative under a generating
    set of the stabilizer's action on the neighbors: one normal form per
    neighbor and generator.  Exact check: every orbit has size
    |Gamma_label| / |Gamma_label cap Gamma_w| for the domain label w it
    reduces to, else InternalInvariantError.  Friends are exactly the
    singleton orbits.  Deterministic order.  Applying every enumerated
    stabilizer element is the oracle in the tests.
    """
    label = validate_label(label)
    order = stabilizer_order(label, q)
    gens = _residue_action_generators(label, q)
    remaining = {v.key(): v for v in neighbors(vertex_from_label(label, q), k)}
    orbits: list[list[BuildingVertex]] = []
    while remaining:
        key = min(remaining, key=_matrix_sort_key)
        rep = remaining.pop(key)
        orbit = {key: rep}
        frontier = [rep]
        while frontier:
            v = frontier.pop()
            for g in gens:
                img = vertex_normal_form(g * v.basis)
                if img.key() not in orbit:
                    orbit[img.key()] = img
                    remaining.pop(img.key(), None)
                    frontier.append(img)
        w = reduce_to_domain(rep)[0]
        if len(orbit) * _pattern_order(label, w, q) != order:
            raise InternalInvariantError(
                f"the orbit reducing to {w} under the stabilizer of {label}, q={q}, has "
                f"{len(orbit)} neighbors, not |Gamma_v| / |Gamma_v cap Gamma_w|"
            )
        orbits.append(sorted(orbit.values(), key=lambda v: _matrix_sort_key(v.key())))
    orbits.sort(key=lambda orb: _matrix_sort_key(orb[0].key()))
    return orbits


# ---------------------------------------------------------------------------
# reduction into the domain
# ---------------------------------------------------------------------------


def reduce_to_domain(v) -> tuple[tuple[int, ...], LaurentMatrix]:
    """The unique domain label of a building vertex's orbit, plus a witness
    w over F_q[t] with unit determinant and [w * basis] = [label diagonal].

    Row reduction over F_q[t]: while the matrix of leading row
    coefficients is singular over F_q, a null combination cancels the top
    degree of one row, strictly decreasing the total row degree (which is
    bounded below by deg det).  Each entry of the new row and of the new
    witness row is one `laurent.dot`.  Once the leading matrix is
    invertible the row degrees are the label exponents up to sorting and
    homothety.
    """
    if isinstance(v, LaurentMatrix):
        v = vertex_normal_form(v)
    elif not isinstance(v, BuildingVertex):
        raise InvalidInputError("expected a BuildingVertex or LaurentMatrix")
    basis = v.basis
    d, q = basis.d, basis.q

    low = min((x.low_exponent() for row in basis.rows for x in row if x), default=0)
    low = min(low, 0)
    rows = [[x.shift(-low) if x else x for x in row] for row in basis.rows]
    acc = [list(r) for r in LaurentMatrix.identity(d, q).rows]
    # the canonical basis is triangular with pivots t^profile_i
    det_deg = sum(v.profile) - low * d

    def row_degree(i: int) -> int:
        degs = [x.degree() for x in rows[i] if x]
        if not degs:
            raise SingularMatrixError("zero row during domain reduction")
        return max(degs)

    # only the pivot row changes in a step, so only its degree is recomputed
    degs = [row_degree(i) for i in range(d)]
    while True:
        lead = [[x.coeffs.get(degs[i], 0) for x in rows[i]] for i in range(d)]
        combo = left_null_vector(lead, q)
        if combo is None:
            break
        used = [i for i in range(d) if combo[i]]
        pivot = max(used, key=lambda i: (degs[i], i))
        # row i enters as combo[i] t^(deg pivot - deg i) times row i
        monos = {i: _poly({degs[pivot] - degs[i]: 1}, q) for i in used}
        rows[pivot] = [dot([(combo[i], monos[i], rows[i][j]) for i in used], q) for j in range(d)]
        acc[pivot] = [dot([(combo[i], monos[i], acc[i][j]) for i in used], q) for j in range(d)]
        new_deg = row_degree(pivot)
        if new_deg >= degs[pivot]:
            raise InternalInvariantError(
                "row degree did not decrease during domain reduction"
            )
        degs[pivot] = new_deg
        if sum(degs) < det_deg:
            raise InternalInvariantError(
                "total row degree fell below deg(det) during domain reduction"
            )

    order = sorted(range(d), key=lambda i: (-degs[i], i))
    base_deg = min(degs)
    label = tuple(degs[i] - base_deg for i in order)
    witness = LaurentMatrix([acc[i] for i in order], q)
    return label, witness

