"""Normal forms, neighbors, colors and distances against brute-force oracles.

Breadth-first search over the 1-skeleton and the Smith valuations from
minors live here as oracles for `relative_position` and the distances read
off it.
"""

import random
import time
from itertools import combinations

import pytest

from btq import building
from btq.building import (
    bfs_color1_distance,
    bfs_distance,
    distance_formulas,
    edge_color,
    label_relative_position,
    neighbors,
    position_distances,
    relative_position,
    standard_vertex,
    subspace_bases,
    vertex_color,
    vertex_from_label,
    vertex_normal_form,
)
from btq.errors import (
    InternalInvariantError,
    InvalidInputError,
    ResourceBoundError,
    SingularMatrixError,
)
from btq.gf import gaussian_binomial
from btq.laurent import LaurentMatrix, LaurentPoly, random_gamma, random_k


def P(s, q=2):
    return LaurentPoly.parse(s, q)


def mat(entries, q=2):
    return LaurentMatrix([[P(s, q) for s in row] for row in entries], q)


def random_invertible(d, q, rng):
    while True:
        m = LaurentMatrix(
            [
                [
                    LaurentPoly({e: rng.randrange(q) for e in range(-2, 3)}, q)
                    for _ in range(d)
                ]
                for _ in range(d)
            ],
            q,
        )
        if not m.det().is_zero():
            return m


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

# breadth-first searches stop with ResourceBoundError past this many vertices
ORACLE_VERTEX_BOUND = 2000


def adjacent_vertices(v):
    """All vertices sharing a chamber with v (union over neighbor degrees)."""
    seen = {}
    for k in range(1, v.d):
        for w in neighbors(v, k):
            seen.setdefault(w.key(), w)
    return list(seen.values())


def _bfs(x, y, radius, expand, bound):
    if x == y:
        return 0
    frontier = [x]
    seen = {x.key()}
    for dist in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for w in expand(v):
                if w == y:
                    return dist
                if w.key() not in seen:
                    seen.add(w.key())
                    nxt.append(w)
                    if len(seen) > bound:
                        raise ResourceBoundError(f"search passed {bound} vertices")
        frontier = nxt
    return None


def oracle_distance(x, y, radius, bound=ORACLE_VERTEX_BOUND):
    """Edge count of a shortest 1-skeleton path by search, or None beyond the radius."""
    return _bfs(x, y, radius, adjacent_vertices, bound)


def oracle_color1_distance(x, y, radius, bound=ORACLE_VERTEX_BOUND):
    """Directed search along color-1 edges: to the superlattices of index q."""
    return _bfs(x, y, radius, lambda v: neighbors(v, v.d - 1), bound)


def smith_by_minors(x, y):
    """Smith valuations of y^-1 x: the k-th partial sum is the least
    valuation of a k x k minor."""
    rel = building._solve_canonical(y.basis, x.basis)
    idx = range(x.d)
    sums = [0]
    for k in range(1, x.d + 1):
        sums.append(
            min(
                -mn.degree()
                for ri in combinations(idx, k)
                for ci in combinations(idx, k)
                if (mn := rel.minor(ri, ci))
            )
        )
    return tuple(b - a for a, b in zip(sums, sums[1:]))


def _random_label(rng, d, max_n1):
    return tuple(sorted((rng.randint(0, max_n1) for _ in range(d - 1)), reverse=True)) + (0,)


def test_normal_form_worked_example():
    # lower-triangular neighbor basis reduces to the canonical superdiagonal
    # shape with diagonal (t^2, t, t), then profile (1, 0, 0) after homothety
    m = mat([["t^3", "0", "0"], ["t^2", "t", "0"], ["t", "0", "1"]])
    v = vertex_normal_form(m)
    assert v.profile == (1, 0, 0)
    assert v.basis == mat([["t", "0", "t^2"], ["0", "1", "t"], ["0", "0", "1"]])


def test_normal_form_diag_and_homothety():
    m = LaurentMatrix.diagonal((2, 1, 0), 2)
    v = vertex_normal_form(m)
    assert v.basis == m and v.profile == (2, 1, 0)
    assert vertex_normal_form(m.shift(1)) == v
    for j in range(-3, 4):
        assert vertex_normal_form(m.shift(j)) == v


def test_normal_form_idempotent_random():
    rng = random.Random(17)
    for q in (2, 3, 5):
        for d in (2, 3, 4):
            for _ in range(50):
                m = random_invertible(d, q, rng)
                v = vertex_normal_form(m)
                assert vertex_normal_form(v.basis) == v
                assert min(v.profile) == 0


def test_normal_form_k_invariance():
    rng = random.Random(23)
    for q in (2, 3, 5):
        for d in (3, 4):
            for _ in range(10):
                m = random_invertible(d, q, rng)
                k = random_k(d, q, 10, rng)
                assert vertex_normal_form(m * k) == vertex_normal_form(m)


def test_normal_form_zero_row_pivot():
    # det = t^-2 + t^-4 gives modulus u^2, below which row 1 (t^-3, t^-2)
    # vanishes, so its pivot is u^2 e_1 rather than an input column
    v = vertex_normal_form(mat([["1", "t^-1"], ["t^-3", "t^-2"]]))
    assert v == vertex_from_label((2, 0), 2) and v.profile == (2, 0)


def test_normal_form_failed_certificate_is_internal(monkeypatch):
    monkeypatch.setattr(building, "_certify_same_lattice", lambda canon, original: False)
    with pytest.raises(InternalInvariantError):
        vertex_normal_form(LaurentMatrix.diagonal((2, 1, 0), 2))


def _with_entry(canon, r, i, value):
    rows = [list(row) for row in canon.rows]
    rows[r][i] = value
    return LaurentMatrix(rows, canon.q)


def test_certificate_accepts_scaled_frame_only():
    # canon spans m.shift(e) for the one e matching determinant degrees;
    # every other homothety is a lattice of different determinant
    rng = random.Random(31)
    for q, d in ((2, 2), (2, 3), (3, 3), (5, 4)):
        for _ in range(5):
            m = random_invertible(d, q, rng)
            v = vertex_normal_form(m)
            e, rem = divmod(sum(v.profile) - m.det().degree(), d)
            assert rem == 0
            assert building._certify_same_lattice(v.basis, m.shift(e))
            assert not building._certify_same_lattice(v.basis, m.shift(e + 1))
            assert not building._certify_same_lattice(v.basis, m.shift(e - 1))


def test_certificate_rejects_raised_entry_above_pivot():
    # entry (r, i) above pivot i, raised by t^(a_r + 1), stays reduced
    # against pivot r: the same determinant, another canonical basis
    rng = random.Random(37)
    for q, d in ((2, 3), (3, 3), (2, 4)):
        for _ in range(3):
            canon = vertex_normal_form(random_invertible(d, q, rng)).basis
            assert building._certify_same_lattice(canon, canon)
            for i in range(1, d):
                for r in range(i):
                    a_r = canon.rows[r][r].degree()
                    raised = canon.rows[r][i] + LaurentPoly.t_power(a_r + 1, q)
                    wrong = _with_entry(canon, r, i, raised)
                    assert wrong.det() == canon.det()
                    assert not building._certify_same_lattice(wrong, canon)
                    assert not building._certify_same_lattice(canon, wrong)


def test_certificate_rejects_raised_pivot_mod_uniformizer():
    # canon^-1 * original is over O and singular modulo 1/t: only the F_q
    # invertibility half of the certificate can reject it
    for label in ((0, 0), (2, 1, 0), (3, 3, 1, 0)):
        canon = vertex_from_label(label, 3).basis
        for i in range(len(label)):
            a_i = canon.rows[i][i].degree()
            wrong = _with_entry(canon, i, i, LaurentPoly.t_power(a_i + 1, 3))
            u = building._solve_canonical(wrong, canon)
            assert all(x.in_O() for row in u.rows for x in row)
            assert not building._certify_same_lattice(wrong, canon)


def test_certificate_catches_wrong_determinant(monkeypatch):
    # a determinant off by a factor of t sets the wrong modulus for the
    # Hermite pass; the certificate does not trust it
    inputs = [LaurentMatrix.diagonal((2, 1, 0), 2), mat([["1", "t^-1"], ["t^-3", "t^-2"]])]
    rng = random.Random(41)
    inputs += [random_invertible(3, 2, rng) for _ in range(5)]
    true_det = LaurentMatrix.det
    monkeypatch.setattr(LaurentMatrix, "det", lambda self: true_det(self) * P("t"))
    for m in inputs:
        with pytest.raises(InternalInvariantError):
            vertex_normal_form(m)


def test_solve_canonical_requires_triangular_monic_pivots():
    with pytest.raises(InternalInvariantError):
        building._solve_canonical(mat([["1", "0"], ["t", "1"]]), mat([["1", "0"], ["0", "1"]]))
    with pytest.raises(InternalInvariantError):
        building._solve_canonical(mat([["1", "0"], ["0", "1 + t"]]), mat([["1", "0"], ["0", "1"]]))


def test_normal_form_rejects_singular():
    one = LaurentPoly.constant(1, 2)
    with pytest.raises(SingularMatrixError):
        vertex_normal_form(LaurentMatrix([[one, one], [one, one]], 2))
    with pytest.raises(InvalidInputError):
        vertex_normal_form(LaurentMatrix([[one]], 2))


def test_vertex_color():
    assert vertex_color(standard_vertex(3, 2)) == 0
    assert vertex_color(vertex_from_label((1, 0, 0), 2)) == 1
    assert vertex_color(vertex_from_label((1, 1, 0), 2)) == 2


def test_neighbor_counts_origin():
    v = standard_vertex(3, 2)
    assert len(neighbors(v, 1)) == 7
    assert len(neighbors(v, 2)) == 7
    assert len(set(neighbors(v, 1))) == 7
    v2 = standard_vertex(2, 2)
    assert len(neighbors(v2, 1)) == 3


def test_neighbors_contain_diagonal_shapes():
    # degree-1 in-domain neighbors of (2,1,0) appear among the 7 classes
    v = vertex_from_label((2, 1, 0), 2)
    got = set(neighbors(v, 1))
    for lab in ((3, 2, 0), (2, 0, 0), (1, 1, 0)):
        assert vertex_from_label(lab, 2) in got


def test_neighbor_guard(monkeypatch):
    with pytest.raises(InvalidInputError):
        neighbors(standard_vertex(3, 2), 3)
    # 7 neighbors, one normal form of 9 * 41 units each
    monkeypatch.setattr(building, "NEIGHBOR_WORK_BOUND", 7 * 9 * 41 - 1)
    with pytest.raises(ResourceBoundError):
        neighbors(standard_vertex(3, 2), 1)
    monkeypatch.undo()
    # the work bound is the only gate: q^d = 100,489 residue vectors are fine
    assert len(neighbors(standard_vertex(2, 317), 1)) == 318


def test_neighbor_work_bound(monkeypatch):
    # d^2 (T + 40) per normal form, whatever the exponent span
    assert building.normal_form_work(3, 1) == 9 * 41
    dense = vertex_normal_form(random_gamma(3, 5, 40, 2) * LaurentMatrix.diagonal((2, 1, 0), 5))
    terms = max(len(x.coeffs) for row in dense.basis.rows for x in row)
    assert terms > 20
    work = 31 * building.normal_form_work(3, terms)  # 31 neighbors
    monkeypatch.setattr(building, "NEIGHBOR_WORK_BOUND", work)
    assert len(neighbors(dense, 1)) == 31
    monkeypatch.setattr(building, "NEIGHBOR_WORK_BOUND", work - 1)
    with pytest.raises(ResourceBoundError):
        neighbors(dense, 1)
    monkeypatch.undo()
    # monomial vertices far from the origin cost no more than the origin
    for label in ((10**6, 0, 0), (10**9, 7, 0)):
        start = time.perf_counter()
        assert len(neighbors(vertex_from_label(label, 3), 1)) == 13
        assert time.perf_counter() - start < 0.5, label
    # 89,000 neighbors at q = 17
    with pytest.raises(ResourceBoundError):
        neighbors(standard_vertex(4, 17), 2)
    # sizes alone decide, before any basis of a long label exists
    start = time.perf_counter()
    for d, k in ((12000, 1), (12000, 6000), (24, 12)):
        with pytest.raises(ResourceBoundError):
            building.check_neighbor_work(d, k, 2)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(InvalidInputError):
        building.check_neighbor_work(12000, 12000, 2)


def test_subspace_bases_count():
    for q in (2, 3):
        for d in (2, 3, 4):
            for s in range(d + 1):
                n = sum(1 for _ in subspace_bases(d, s, q))
                assert n == gaussian_binomial(d, s, q)


def test_edge_color_examples():
    L0 = standard_vertex(3, 2)
    assert edge_color(vertex_from_label((1, 0, 0), 2), L0) == 1
    assert edge_color(vertex_from_label((1, 1, 0), 2), L0) == 2
    assert edge_color(L0, L0) is None
    assert edge_color(vertex_from_label((2, 1, 0), 2), L0) is None  # not adjacent


def test_edge_color_antisymmetry_radius3():
    # complete over the radius-2 ball, sampled on the radius-3 shell
    # (the full shell is a few thousand vertices; a fixed stride keeps the
    # check deterministic and fast)
    q, d = 2, 3
    L0 = standard_vertex(d, q)
    ball = {L0.key(): L0}
    shells = [[L0]]
    for _ in range(3):
        nxt = []
        for v in shells[-1]:
            for w in adjacent_vertices(v):
                if w.key() not in ball:
                    ball[w.key()] = w
                    nxt.append(w)
        shells.append(nxt)
    sample = [v for shell in shells[:3] for v in shell] + shells[3][::40]
    checked = 0
    for v in sample[:80]:
        for w in adjacent_vertices(v):
            c1 = edge_color(v, w)
            c2 = edge_color(w, v)
            assert c1 is not None and c2 is not None
            assert (c1 + c2) % d == 0
            checked += 1
    assert checked > 500


def test_neighbors_are_adjacent_with_spread_one():
    # every degree-k neighbor w < v is adjacent per the relative-elementary-
    # divisor test, with v on the super-lattice side of the color pair
    for lab in ((0, 0, 0), (2, 1, 0), (3, 3, 0)):
        v = vertex_from_label(lab, 2)
        for k in (1, 2):
            for w in neighbors(v, k):
                assert edge_color(v, w) == k
                assert edge_color(w, v) == (3 - k)


def test_chamber_color_additivity():
    # chambers through a vertex are chains L_2 < L_1 < L_0 of degree-1 steps
    # with L_2 still a degree-2 neighbor of L_0; walking the chain upward,
    # consecutive edge colors are 1 and vertex colors increment by 1 mod d,
    # so each chamber carries all d colors
    q, d = 2, 3
    for lab in ((0, 0, 0), (2, 1, 0)):
        base = vertex_from_label(lab, q)
        count = 0
        for mid in neighbors(base, 1):
            for top in neighbors(mid, 1):
                if edge_color(base, top) != 2:
                    continue
                count += 1
                chain = [top, mid, base]  # upward: smallest lattice first
                for small, big in zip(chain, chain[1:]):
                    assert edge_color(big, small) == 1
                colors = [vertex_color(v) for v in chain]
                assert colors[1] == (colors[0] + 1) % d
                assert colors[2] == (colors[1] + 1) % d
                assert len(set(colors)) == d
        assert count > 0


def test_relative_position_matches_minors():
    rng = random.Random(61)
    checked = 0
    for q in (2, 3):
        for d in (2, 3, 4):
            for _ in range(40):
                x = vertex_normal_form(random_invertible(d, q, rng))
                y = vertex_normal_form(random_invertible(d, q, rng))
                assert relative_position(x, y) == smith_by_minors(x, y), (x, y)
                checked += 1
    assert checked >= 200


def test_relative_position_labels_and_checks():
    x = vertex_from_label((10**9, 7, 0), 2)
    assert relative_position(x, standard_vertex(3, 2)) == (-(10**9), -7, 0)
    assert relative_position(standard_vertex(3, 2), x) == (0, 7, 10**9)
    with pytest.raises(InvalidInputError):
        relative_position(vertex_from_label((1, 0), 2), standard_vertex(3, 2))
    with pytest.raises(InvalidInputError):
        edge_color(standard_vertex(2, 3), standard_vertex(2, 2))


def test_label_relative_position_matches_elimination():
    # the label path of `btq distance` against the elimination over O
    rng = random.Random(12)
    for _ in range(150):
        d = rng.randint(2, 6)
        q = rng.choice([2, 3, 5])
        n, m = _random_label(rng, d, 9), _random_label(rng, d, 9)
        x, y = vertex_from_label(n, q), vertex_from_label(m, q)
        s = label_relative_position(n, m)
        assert s == relative_position(x, y), (n, m)
        for radius in (0, 3, 40):
            assert position_distances(s, radius) == (
                bfs_distance(x, y, radius),
                bfs_color1_distance(x, y, radius),
            )
    with pytest.raises(InvalidInputError):
        label_relative_position((1, 0), (0, 0, 0))


def test_relative_position_wrong_determinant_is_internal():
    # a profile that misstates the determinant leaves valuations unaccounted
    v = vertex_from_label((2, 1, 0), 2)
    wrong = building.BuildingVertex(v.basis, (3, 1, 0))
    with pytest.raises(InternalInvariantError):
        relative_position(wrong, standard_vertex(3, 2))


# (d, q, label bound, pairs, graph radius, color-1 radius): searches of the
# oracle stay within a few hundred normal forms per pair
_DISTANCE_GRID = [
    (2, 2, 4, 8, 4, 4),
    (2, 3, 3, 8, 3, 3),
    (3, 2, 2, 14, 2, 3),
    (3, 3, 1, 6, 2, 2),
    (4, 2, 1, 4, 1, 2),
]


def test_distances_match_bfs_oracle():
    # a Gamma-translate of a label against the origin (odd i), or two labels
    # translated by the same element (even i); the directed color-1
    # distance in both orders
    rng = random.Random(71)
    checked = 0
    for d, q, max_n1, pairs, radius, radius1 in _DISTANCE_GRID:
        origin = standard_vertex(d, q)
        for i in range(pairs):
            g = random_gamma(d, q, 1, rng)
            x = vertex_normal_form(g * vertex_from_label(_random_label(rng, d, max_n1), q).basis)
            y = origin if i % 2 else vertex_normal_form(
                g * vertex_from_label(_random_label(rng, d, max_n1), q).basis
            )
            assert bfs_distance(x, y, radius) == oracle_distance(x, y, radius)
            assert bfs_distance(y, x, radius) == bfs_distance(x, y, radius)
            for a, b in ((x, y), (y, x)):
                assert bfs_color1_distance(a, b, radius1) == oracle_color1_distance(a, b, radius1)
            checked += 1
    assert checked >= 40


def test_bfs_examples():
    q = 2
    L0 = standard_vertex(3, q)
    v110 = vertex_from_label((1, 1, 0), q)
    v210 = vertex_from_label((2, 1, 0), q)
    assert bfs_distance(L0, L0, 0) == 0
    assert bfs_distance(v110, L0, 3) == 1
    assert bfs_distance(v210, L0, 3) == 2
    assert bfs_distance(v210, L0, 1) is None
    assert bfs_color1_distance(L0, L0, 0) == 0
    assert bfs_color1_distance(v110, L0, 3) == 1
    assert bfs_color1_distance(L0, vertex_from_label((1, 0, 0), q), 3) == 1
    with pytest.raises(InvalidInputError):
        bfs_distance(L0, L0, -1)
    with pytest.raises(InvalidInputError):
        bfs_color1_distance(L0, L0, -1)


def test_bfs_gamma_invariance():
    # the orbit label is BFS-invariant: gamma moves paths to paths
    rng = random.Random(9)
    q = 2
    L0 = standard_vertex(3, q)
    v = vertex_from_label((1, 1, 0), q)
    g = random_gamma(3, q, 1, rng)
    gv = vertex_normal_form(g * v.basis)
    gL0 = vertex_normal_form(g * L0.basis)
    assert bfs_distance(gv, gL0, 3) == bfs_distance(v, L0, 3)


def test_distance_formulas():
    assert distance_formulas((2, 1, 0), (2, 1, 0)) == (0, 0)
    assert distance_formulas((2, 1, 0), (0, 0, 0))[0] == 1
    assert distance_formulas((1, 1, 0), (0, 0, 0))[1] == 1
    # d = 2: formula gives ceil(n/2) where the tree distance is n
    for n in range(1, 7):
        assert distance_formulas((n, 0), (0, 0))[0] == (n + 1) // 2


def _distance_formulas_by_scan(n, m):
    # every j from min(diffs) - 1 to max(diffs) + 1
    diffs = [a - b for a, b in zip(n, m)]
    js = range(min(diffs) - 1, max(diffs) + 2)
    return (
        min(max(abs(x - j) for x in diffs) for j in js),
        min(sum(abs(x - j) for x in diffs) for j in js),
    )


def test_distance_formulas_match_scan():
    rng = random.Random(17)
    for _ in range(400):
        d = rng.randint(2, 6)
        n, m = ([0] * d, [0] * d)
        for lab in (n, m):
            for i in range(d - 2, -1, -1):
                lab[i] = lab[i + 1] + rng.randint(0, 5)
        assert distance_formulas(n, m) == _distance_formulas_by_scan(n, m), (n, m)


def test_distance_formulas_huge_labels():
    big = 10**30
    assert distance_formulas((big, 0), (0, 0)) == ((big + 1) // 2, big)
    assert distance_formulas((big, big, 0), (0, 0, 0)) == ((big + 1) // 2, big)


def test_bfs_vertex_bound():
    # the search oracle stops at its vertex bound; the library answers the
    # same pair at once, well beyond any radius a search could reach
    origin = standard_vertex(3, 2)
    far = vertex_from_label((9, 0, 0), 2)
    with pytest.raises(ResourceBoundError):
        oracle_distance(far, origin, 6, bound=100)
    with pytest.raises(ResourceBoundError):
        oracle_color1_distance(far, origin, 9, bound=100)
    assert oracle_distance(vertex_from_label((2, 1, 0), 2), origin, 3, bound=100) == 2
    assert bfs_distance(far, origin, 6) is None
    assert bfs_distance(far, origin, 9) == 9
    assert bfs_color1_distance(far, origin, 10**9) == 18
    assert bfs_color1_distance(origin, far, 10**9) == 9


def test_bfs_rejects_vertices_of_different_buildings():
    with pytest.raises(InvalidInputError):
        bfs_distance(vertex_from_label((1, 0), 2), standard_vertex(3, 2), 2)
    with pytest.raises(InvalidInputError):
        bfs_color1_distance(standard_vertex(2, 3), standard_vertex(2, 2), 2)
