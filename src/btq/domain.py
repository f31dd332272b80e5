"""The fundamental domain of the building under PGL_d(F_q[t]).

Domain vertices are labels: weakly decreasing nonnegative integer tuples
with last entry 0.  This module owns the label combinatorics (block
sequences), the in-domain neighbor enumeration (block-suffix drops, made
directly as the compositions of the degree and memoized as difference
vectors per block-size sequence; alternating changes of the
difference sequence and the product of all drop combinations are its
oracles in the tests), the edge ratios |Gamma_v| / |Gamma_u cap Gamma_v|
memoized per drop in the same way (pattern orders are their oracle in the
tests), friends, stabilizer orders (one closed-form
exponent, O(d) for a vertex; the pair sum is its oracle in the tests) and
brute-force stabilizer groups, the orbit decomposition of neighbors (each
orbit the closure of one neighbor's residue subspace under a generating
set, on reduced echelon bases over F_q with no further normal form;
enumerating the whole group, and the closure on normal forms, are its
oracles in the tests), and the reduction of an arbitrary building vertex
to its unique domain label together with a group-element witness.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache, lru_cache
from itertools import accumulate, combinations, combinations_with_replacement, product
from math import comb, log2
from operator import add, mul, sub

from . import building
from .building import (
    BuildingVertex,
    _coeff_rows,
    _solve_canonical,
    _weak_popov,
    neighbors,
    vertex_from_label,
)
from .errors import InternalInvariantError, InvalidInputError, ResourceBoundError
from .gf import check_prime, reduced_echelon_form
from .laurent import LaurentMatrix, _matrix, _poly

# enumerate_domain refuses to list more labels than this
LABEL_COUNT_BOUND = 10**6
# exact results predicted above this many bits are refused before the work;
# two such fractions and their difference print within Python's 4300-digit
# int-to-str limit
RESULT_BIT_BOUND = 7000


def check_result_size(q_exponent: int, q: int, what: str) -> None:
    """Raise ResourceBoundError if q^q_exponent exceeds RESULT_BIT_BOUND bits."""
    bits = q_exponent * log2(q)
    if bits > RESULT_BIT_BOUND:
        raise ResourceBoundError(
            f"{what} would have about {bits:.0f} bits, over the bound {RESULT_BIT_BOUND}"
        )


def _read_label(label) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The validated label and its block sizes, read in one pass."""
    label = tuple(map(int, label))
    if len(label) < 2:
        raise InvalidInputError("d = 1 is rejected: the building is a point")
    if label[-1] != 0:
        raise InvalidInputError(f"label must end in 0, got {label}")
    sizes = []
    run = 1
    prev = label[0]
    for n in label[1:]:
        if n == prev:
            run += 1
        elif n < prev:
            sizes.append(run)
            run = 1
            prev = n
        else:
            raise InvalidInputError(f"label must be weakly decreasing, got {label}")
    sizes.append(run)
    return label, tuple(sizes)


def validate_label(label) -> tuple[int, ...]:
    return _read_label(label)[0]


def parse_label(text: str) -> tuple[int, ...]:
    """Parse the comma-separated serialization, e.g. '2,1,0'."""
    try:
        label = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"bad label literal {text!r}") from exc
    return validate_label(label)


def format_label(label) -> str:
    return ",".join(str(n) for n in label)


def block_seq(label) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Run lengths and values of the label: ((d_1,...,d_r), (g_1 > ... > g_r))."""
    label, sizes = _read_label(label)
    return sizes, tuple(dict.fromkeys(label))


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


def _check_degree(k: int, d: int) -> None:
    if not 1 <= k <= d - 1:
        raise InvalidInputError(f"degree must be in [1, {d - 1}], got {k}")


def in_domain_work(label, k: int) -> int:
    """The predicted work of `neighbors_in_domain(label, k)` and of printing
    its result, in the units of building.NEIGHBOR_WORK_BOUND: d / 4 for
    each neighbor, the compositions of k with part b at most min(d_b, k).

    Exact while it is within the bound.  The count runs block by block
    over the partial sums that can still reach k; each of them extends to
    at least one neighbor, so it stops, returning a value over the bound,
    as soon as they alone are too many.  A long label is thus refused
    after a few blocks, never after the product of the per-block choices.
    """
    label, sizes = _read_label(label)
    d = len(label)
    _check_degree(k, d)
    caps = [min(size, k) for size in sizes]
    # room[b]: the most that blocks b, b + 1, ... can still drop
    room = list(accumulate(reversed(caps), initial=0))[::-1]
    lo, ways = 0, [1]  # ways[j]: the partial drop vectors summing to lo + j
    for b, cap in enumerate(caps):
        new_lo = max(0, k - room[b + 1])
        new_hi = min(k, lo + len(ways) - 1 + cap)
        sums = list(accumulate(ways, initial=0))
        ways = [
            sums[min(j - lo, len(ways) - 1) + 1] - sums[max(j - cap - lo, 0)]
            for j in range(new_lo, new_hi + 1)
        ]
        lo = new_lo
        work = d * sum(ways) // 4
        if work > building.NEIGHBOR_WORK_BOUND:
            return work
    return work


# 128 entries hold the deltas of every (block sizes, k) with d <= 5 at
# once (98 of them).  One large CLI call fills one entry, as large as the
# list of neighbors it prints, and quotient.build_graph walks its labels
# grouped by block sizes, so it fills each of its keys once at every d.
@lru_cache(maxsize=128)
def _drop_deltas(sizes: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
    # The differences neighbor - label of the degree-k in-domain neighbors
    # of any label with these block sizes, in lexicographic order, which
    # adding the label keeps.  The compositions of k with part
    # b in [0, min(d_b, k)] are built from the last block back, keeping
    # only partial sums the earlier blocks can still complete; the block
    # segments are linked, not copied, until the whole delta is joined.
    caps = [min(size, k) for size in sizes]
    room = list(accumulate(caps, initial=0))  # room[b]: what blocks < b can drop
    partial = [(k, None)]
    for b in range(len(sizes) - 1, -1, -1):
        size = sizes[b]
        partial = [
            (left - s, ((0,) * (size - s) + (-1,) * s, tail))
            for left, tail in partial
            for s in range(max(0, left - room[b]), min(caps[b], left) + 1)
        ]
    out = []
    for _, node in partial:
        delta: list[int] = []
        while node:
            segment, node = node
            delta += segment
        # when the zero block drops, every entry rises by one
        out.append(tuple(x + 1 for x in delta) if delta[-1] else tuple(delta))
    out.sort()
    return tuple(out)


# one entry per (block sizes, k, q), each no longer than its _drop_deltas entry
@lru_cache(maxsize=128)
def _drop_ratios(sizes: tuple[int, ...], k: int, q: int) -> tuple[int, ...]:
    # |Gamma_v| / |Gamma_u cap Gamma_v| for the degree-k in-domain neighbors
    # u of any label v with these block sizes, in the order of
    # _drop_deltas(sizes, k); q is checked by the caller.  In the exponent
    # of _pattern_order the part linear in v cancels, which leaves the pair
    # sum over w = u - v, the drop's delta; and the runs of zip(u, v) are
    # the blocks of v cut where the delta changes.  So the ratio depends on
    # the sizes and the drop only, and is read off the label with these
    # sizes and gaps 1.  Its exponent is at most that of every label with
    # these sizes, so this fill passes every size check their orders pass.
    r = len(sizes)
    v = tuple(n for b, size in enumerate(sizes) for n in (r - 1 - b,) * size)
    order = _pattern_order(v, v, q)
    out = []
    for delta in _drop_deltas(sizes, k):
        ratio, rem = divmod(order, _pattern_order(tuple(map(add, v, delta)), v, q))
        if rem:
            raise InternalInvariantError(
                f"an edge order does not divide |Gamma_v| for v = {v}, drop {delta}, q={q}"
            )
        out.append(ratio)
    return tuple(out)


def neighbors_in_domain(label, k: int) -> list[tuple[int, ...]]:
    """All domain labels adjacent to `label` by a degree-k edge.

    Each one lowers a suffix of every block of the label by one, the suffix
    lengths summing to k, and is renormalized: when the zero block drops,
    every entry rises by one.  For k = 1 the count is 1 + |m|.  Distinct
    drops give distinct labels, since 1 <= k <= d - 1.

    The drops are the compositions of k with part b at most the size of
    block b, made directly, so the work follows the output.  They depend
    only on the block sizes and k, so their difference vectors, lift
    included, are kept in a bounded LRU cache; a call validates the label,
    reading its block sizes in the same pass, and adds each vector to it.
    Alternating changes of the difference sequence, and trying every drop
    combination, give the same list independently; the tests use both as
    oracles.
    """
    label, sizes = _read_label(label)
    _check_degree(k, len(label))
    return [tuple(map(add, label, delta)) for delta in _drop_deltas(sizes, k)]


def friends(label) -> dict[int, tuple[int, ...]]:
    """The in-domain neighbors fixed pointwise by the whole vertex stabilizer.

    A friend of degree k exists exactly when the last k coordinates form
    complete blocks (k a proper suffix sum of the block-size sequence);
    it is the label with those k coordinates lowered by one, renormalized.
    The zero label has no friends.
    """
    label, sizes = _read_label(label)
    d = len(label)
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
    label = validate_label(label)
    check_prime(q)
    return _pattern_order(label, label, q)


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
    # With w = u - v, min(u_i - u_j, v_i - v_j) = v_i - v_j +
    # min(w_i - w_j, 0), and the v-differences of all pairs sum to
    # sum_i (d - 1 - 2i) v_i, so the exponent is C(d, 2) plus that plus the
    # pair sum of min(w_i - w_j, 0), which vanishes when u = v: a
    # stabilizer order takes O(d) steps.
    # The order is below q^(exp + d(d+1)/2), which is checked before the
    # product.  Each of the d(d-1)/2 pairs adds at least 1 to exp, so d^2
    # bounds that exponent from below; checking it before the pair sum
    # refuses a long label without the quadratic work.
    d = len(u)
    check_result_size(d * d, q, "the stabilizer order")
    exp = d * (d - 1) // 2 + sum(map(mul, range(d - 1, -d, -2), v))
    same = u == v
    if not same:
        exp += sum(min(a - b, 0) for a, b in combinations(map(sub, u, v), 2))
    check_result_size(exp + d * (d + 1) // 2, q, "the stabilizer order")
    order = 1
    r = 0
    previous = None
    for key in u if same else zip(u, v):
        r = r + 1 if key == previous else 1
        previous = key
        order *= q**r - 1
    return order * q**exp // (q - 1)


@cache
def _gl_matrices(m: int, q: int, leading_one: bool = False):
    """The invertible m x m matrices over F_q in lexicographic order, as
    tuples of rows; with leading_one, only those whose first row leads
    with 1, one per scalar class (cached; m stays tiny here).

    Built row by row: each row runs over the vectors outside the span of
    the rows above, in lexicographic order, so no singular candidate is
    ever formed.  Scanning all q^(m^2) matrices is the oracle in the tests.
    """
    vectors = list(product(range(q), repeat=m))
    mats = [(v,) for v in vectors[1:] if not leading_one or next(x for x in v if x) == 1]
    for _ in range(m - 1):
        grown = []
        for mat in mats:
            span = {(0,) * m}
            for row in mat:
                span = {
                    tuple((x + c * y) % q for x, y in zip(v, row))
                    for v in span
                    for c in range(q)
                }
            grown += [mat + (v,) for v in vectors if v not in span]
        mats = grown
    return mats


def stabilizer_enumerate(label, q: int) -> Iterator[LaurentMatrix]:
    """The full vertex stabilizer modulo scalars, one element at a time.

    Elements are block upper-triangular matrices over F_q[t]: diagonal
    blocks invertible over F_q, and each entry of an off-diagonal block
    (l, m) a polynomial of degree at most g_l - g_m.  One representative
    per scalar class: the first nonzero entry in row-major order, which
    lies in the first row of the first diagonal block, is 1.  So only the
    first blocks whose first row leads with 1 are combined, and every
    element built is kept.

    Raises ResourceBoundError when called, before any element is built,
    if the predicted work is above building.NEIGHBOR_WORK_BOUND: d^2 + 8
    units for each d x d element, printing included.  The returned
    iterator builds each element as it is asked for, and raises
    InternalInvariantError after the last one if their count is not the
    predicted order.  The diagonal blocks are built row by row, and none
    of their lists is longer than the group: the first holds
    |GL_(d_1)(F_q)| / (q - 1) matrices, and the group order is that times
    the other |GL_(d_i)(F_q)| and a power of q.
    """
    label = validate_label(label)
    predicted = stabilizer_order(label, q)
    sizes, values = block_seq(label)
    d = len(label)
    building.check_work(predicted * (d * d + 8), f"the stabilizer of {format_label(label)} over F_{q}")
    r = len(sizes)
    starts = [sum(sizes[:i]) for i in range(r)]

    poly_slots = []  # (row, col, degree cap) for the free polynomial entries
    for l in range(r):
        for m in range(l + 1, r):
            cap = values[l] - values[m]
            for i in range(starts[l], starts[l] + sizes[l]):
                for j in range(starts[m], starts[m] + sizes[m]):
                    poly_slots.append((i, j, cap))
    choices_by_cap = {
        cap: [
            _poly({e: c for e, c in enumerate(coeffs) if c}, q)
            for coeffs in product(range(q), repeat=cap + 1)
        ]
        for cap in {cap for _, _, cap in poly_slots}
    }
    zero = _poly({}, q)
    blocks = [_gl_matrices(sizes[0], q, leading_one=True)]
    blocks += [_gl_matrices(size, q) for size in sizes[1:]]

    def elements():
        count = 0
        for diag_blocks in product(*blocks):
            base = [[zero] * d for _ in range(d)]
            for l, blk in enumerate(diag_blocks):
                s = starts[l]
                for i in range(sizes[l]):
                    for j in range(sizes[l]):
                        if blk[i][j]:
                            base[s + i][s + j] = _poly({0: blk[i][j]}, q)
            for combo in product(*(choices_by_cap[cap] for _, _, cap in poly_slots)):
                rows = [row[:] for row in base]
                for (i, j, _), p in zip(poly_slots, combo):
                    rows[i][j] = p
                count += 1
                yield _matrix(rows, q)
        if count != predicted:
            raise InternalInvariantError(
                f"stabilizer enumeration for {label}, q={q}: got {count}, "
                f"formula predicts {predicted}"
            )

    return elements()


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


def _residue_action_generators(label, q: int) -> list[tuple[int, int]]:
    # g in Gamma_label acts on the residue space L'/(1/t)L', L' = diag(t^n)O^d,
    # through D^-1 g D mod 1/t, D = diag(t^n): entry (i, j) keeps only the
    # coefficient of t^(n_i - n_j) in g_ij.  The image is the parabolic
    # subgroup with blocks given by the label, and its orbits on subspaces
    # are those of the elementary matrices I + c E_ij, n_i >= n_j: each
    # orbit holds a coordinate subspace (Bruhat decomposition), which the
    # diagonal matrices fix.  q is prime, so the powers of I + E_ij, the
    # image of I + t^(n_i - n_j) E_ij, give every multiple c.  Each
    # generator is returned as its pair (i, j).
    d = len(label)
    return [(i, j) for i in range(d) for j in range(d) if i != j and label[i] >= label[j]]


def orbit_decomposition(label, q: int, k: int) -> list[list[BuildingVertex]]:
    """Partition the degree-k neighbors of the label's vertex into orbits
    of its stabilizer.

    The stabilizer acts on the neighbors through the residue space, where
    `neighbors` lists them in the order of their subspaces in
    `building.subspace_bases(d, d - k, q)`.  So each orbit is the closure
    of one subspace under the residue generators I + E_ij
    (`_residue_action_generators`): a generator adds coordinate j of each
    basis row to coordinate i, and `gf.reduced_echelon_form` of the result
    is looked up among the subspaces.  One `neighbors` call builds the
    only lattice bases, with no normal form.  Exact check: every orbit has size
    |Gamma_label| / |Gamma_label cap Gamma_w| for the domain label w it
    reduces to, else InternalInvariantError.  Friends are exactly the
    singleton orbits.  Deterministic order.  Applying every enumerated
    stabilizer element, and the closure under the generators' normal
    forms, are the oracles in the tests.
    """
    label = validate_label(label)
    order = stabilizer_order(label, q)
    d = len(label)
    gens = _residue_action_generators(label, q)
    nbrs = neighbors(vertex_from_label(label, q), k)
    remaining = dict(zip(building.subspace_bases(d, d - k, q), nbrs))
    orbits: list[list[BuildingVertex]] = []
    while remaining:
        start = next(iter(remaining))
        orbit = {start}
        frontier = [start]
        while frontier:
            rows = frontier.pop()
            for i, j in gens:
                img = reduced_echelon_form([r[:i] + (r[i] + r[j],) + r[i + 1:] for r in rows], q)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        members = sorted(map(remaining.pop, orbit), key=lambda v: _matrix_sort_key(v.key()))
        w = reduce_to_domain(members[0])[0]
        if len(members) * _pattern_order(label, w, q) != order:
            raise InternalInvariantError(
                f"the orbit reducing to {w} under the stabilizer of {label}, q={q}, has "
                f"{len(members)} neighbors, not |Gamma_v| / |Gamma_v cap Gamma_w|"
            )
        orbits.append(members)
    orbits.sort(key=lambda orb: _matrix_sort_key(orb[0].key()))
    return orbits


# ---------------------------------------------------------------------------
# reduction into the domain
# ---------------------------------------------------------------------------


def reduce_to_domain(v: BuildingVertex) -> tuple[tuple[int, ...], LaurentMatrix]:
    """The unique domain label of a building vertex's orbit, plus a witness
    w over F_q[t] with unit determinant and [w * basis] = [label diagonal].
    A matrix goes through `building.vertex_normal_form` first.

    The basis B goes through the weak Popov pass over F_q[t]
    (`building._weak_popov`, the one that gives the normal form its
    determinant degree) to R = W B, diag(t^deg) A with A in GL_d(O), whose
    lattice class is the diagonal one of the sorted row degrees: they are
    the label exponents up to homothety.  The canonical basis is
    triangular with pivots t^profile_i, so its determinant has degree
    sum(profile), and row degrees summing to anything else raise
    InternalInvariantError.  The witness is not tracked through the steps
    but solved once afterwards from the reduced rows, unpacked into a dict
    matrix in label order, by the normal form's back-substitution
    (`building._solve_canonical`): with rev(X) = J X^T J for the index
    reversal J, rev(B) is upper triangular with the same monic pivots and
    rev(R) = rev(B) rev(W), so W = rev(rev(B)^-1 rev(R)).  All of it runs
    on dict matrices; the entries of W become LaurentPoly once.
    """
    if not isinstance(v, BuildingVertex):
        raise InvalidInputError("expected a BuildingVertex")
    d, q = v.d, v.q
    basis = _coeff_rows(v.basis)
    degs, packed = _weak_popov(basis, q)
    if sum(degs) != sum(v.profile):
        raise InternalInvariantError(
            f"row degrees {degs} do not account for the determinant degree {sum(v.profile)}"
        )
    order = sorted(range(d), key=lambda i: (-degs[i], i))
    base_deg = min(degs)
    label = tuple(degs[i] - base_deg for i in order)
    reduced = [[{} for _ in range(d)] for _ in range(d)]
    for row, i in zip(reduced, order):
        # the packed key e d + j is the term t^e in column j
        for key, c in packed[i].items():
            e, j = divmod(key, d)
            row[j][e] = c

    def rev(m):
        return [[m[d - 1 - j][d - 1 - i] for j in range(d)] for i in range(d)]

    witness = rev(_solve_canonical(rev(basis), rev(reduced), q))
    return label, _matrix([[_poly(x, q) for x in row] for row in witness], q)
