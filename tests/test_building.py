"""Normal forms, neighbors, colors and distances against brute-force oracles.

Breadth-first search over the 1-skeleton and the Smith valuations from
minors live here as oracles for `relative_position`, the weak Popov pass
over O, and for the distances read off it.  The minors check it up to
d = 6 and on a label of span 10^4.  The null-vector reduction on dot
products and the Laplace determinant check the pass over F_q[t], whose
row degrees give the normal form its determinant degree and the domain
reduction its label.
"""

import hashlib
import io
import json
import random
import time
from collections import Counter
from itertools import combinations

import pytest

from btq import building
from btq.building import (
    BuildingVertex,
    bfs_color1_distance,
    bfs_distance,
    distance_formulas,
    label_relative_position,
    neighbors,
    position_distances,
    relative_position,
    subspace_bases,
    vertex_from_label,
    vertex_normal_form,
)
from btq.cli import main
from btq.domain import reduce_to_domain
from btq.errors import (
    InternalInvariantError,
    InvalidInputError,
    ResourceBoundError,
    SingularMatrixError,
)
from btq.gf import gaussian_binomial
from btq.laurent import LaurentMatrix, LaurentPoly, _poly, random_gamma, random_k
from test_gf import null_vector_by_transpose


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


def standard_vertex(d, q):
    """The class of the standard lattice O^d."""
    return vertex_from_label((0,) * d, q)


def edge_color(x, y):
    """The color i of the edge from x to y, or None if not adjacent: the
    relative position, shifted to start at 0, is d - i zeros and i ones."""
    s = relative_position(x, y)
    colength = sum(e - s[0] for e in s)
    if colength == 0 or s[-1] - s[0] > 1:
        return None
    return x.d - colength


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


def coeff_rows(m):
    """m as a dict matrix, the form the lattice routines take: fresh
    coefficient dicts, so a routine may change them."""
    return [[dict(x.coeffs) for x in row] for row in m.rows]


def as_matrix(rows, q):
    return LaurentMatrix([[LaurentPoly(x, q) for x in row] for row in rows], q)


def solve_canonical_matrix(canon, m):
    """canon^-1 * m by back-substitution in LaurentPoly arithmetic, for
    canon upper triangular with monic monomial pivots t^(a_i): the
    LaurentMatrix form of `building._solve_canonical`, its oracle."""
    d, q = canon.d, canon.q
    out = [[None] * d for _ in range(d)]
    for j in range(d):
        for i in range(d - 1, -1, -1):
            acc = m.rows[i][j]
            for k in range(i + 1, d):
                acc = acc - canon.rows[i][k] * out[k][j]
            out[i][j] = acc * LaurentPoly({-canon.rows[i][i].degree(): 1}, q)
    return LaurentMatrix(out, q)


def certify(canon, original):
    """`building._certify_same_lattice` on two LaurentMatrix values."""
    return building._certify_same_lattice(coeff_rows(canon), coeff_rows(original), canon.q)


def smith_by_minors(x, y):
    """Smith valuations of y^-1 x: the k-th partial sum is the least
    valuation of a k x k minor."""
    rel = solve_canonical_matrix(y.basis, x.basis)
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


def reduce_rows_by_dot(rows, det_deg, q, over_O):
    """A row reduction by leading row coefficients on immutable rows,
    independent of the weak Popov pass: while the leading matrix has a null
    combination, the used row of largest degree over F_q[t] (least over
    O) is rebuilt as a dot product, a sum of LaurentPoly operator products
    of a scalar, a monomial per used row and that row's entry.  Its
    degrees, sorted, are the pass's, and its rows give a witness of the
    domain reduction to compare sizes with."""
    d = len(rows)
    sign = -1 if over_O else 1

    def row_degree(i):
        degs = [x.degree() for x in rows[i] if x]
        if not degs:
            raise SingularMatrixError("zero row during row reduction")
        return max(degs)

    def leading(i):
        return [x.coeffs.get(degs[i], 0) for x in rows[i]]

    degs = [row_degree(i) for i in range(d)]
    lead = [leading(i) for i in range(d)]
    while (combo := null_vector_by_transpose(lead, q)) is not None:
        used = [i for i in range(d) if combo[i]]
        pivot = max(used, key=lambda i: (sign * degs[i], i))
        monos = {i: _poly({degs[pivot] - degs[i]: combo[i]}, q) for i in used}
        zero = _poly({}, q)
        rows[pivot] = [sum((monos[i] * rows[i][j] for i in used), zero) for j in range(d)]
        new_deg = row_degree(pivot)
        if new_deg >= degs[pivot]:
            raise InternalInvariantError("row degree did not decrease during row reduction")
        degs[pivot] = new_deg
        lead[pivot] = leading(pivot)
        if sum(degs) < det_deg:
            raise InternalInvariantError("total row degree fell below deg(det) during row reduction")
    if sum(degs) != det_deg:
        raise InternalInvariantError(f"row degrees {degs} do not account for {det_deg}")
    return degs


def _random_label(rng, d, max_n1):
    return tuple(sorted((rng.randint(0, max_n1) for _ in range(d - 1)), reverse=True)) + (0,)


def test_normal_form_worked_example():
    # lower-triangular neighbor basis reduces to the canonical superdiagonal
    # shape with diagonal (t^2, t, t), then profile (1, 0, 0) after homothety
    m = mat([["t^3", "0", "0"], ["t^2", "t", "0"], ["t", "0", "1"]])
    v = vertex_normal_form(m)
    assert v.profile == (1, 0, 0)
    assert v.basis == mat([["t", "0", "t^2"], ["0", "1", "t"], ["0", "0", "1"]])


def homothety(m, e):
    """t^e m, as the product with the scalar matrix t^e I."""
    return m * LaurentMatrix.diagonal((e,) * m.d, m.q)


def test_normal_form_diag_and_homothety():
    m = LaurentMatrix.diagonal((2, 1, 0), 2)
    v = vertex_normal_form(m)
    assert v.basis == m and v.profile == (2, 1, 0)
    for j in range(-3, 4):
        assert vertex_normal_form(homothety(m, j)) == v


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


def test_vertex_is_its_canonical_basis():
    # every normal form and label basis is a vertex basis with its profile
    rng = random.Random(29)
    for q in (2, 3, 5):
        for d in (2, 3, 4):
            for v in [vertex_normal_form(random_invertible(d, q, rng)) for _ in range(10)] + [
                vertex_from_label(_random_label(rng, d, 5), q) for _ in range(3)
            ]:
                w = BuildingVertex(v.basis)
                assert w == v and w.profile == v.profile
    # any other basis is refused at construction
    diag = LaurentMatrix.diagonal((2, 1, 0), 3)
    canon = vertex_normal_form(random_gamma(3, 3, 2, rng) * diag).basis
    refused = [
        diag * random_k(3, 3, 3, random.Random(1)),
        homothety(diag, 2),
        homothety(canon, -1),
        _with_entry(diag, 1, 1, P("2*t", 3)),  # a pivot that is not monic
        _with_entry(diag, 2, 0, P("1", 3)),  # an entry below the diagonal
        _with_entry(diag, 0, 1, P("t^3 + t^2", 3)),  # t^2 is not above the pivot t^2
        # an entry with a term at its row's pivot exponent
        _with_entry(canon, 0, 2, canon.rows[0][2] + LaurentPoly({canon.rows[0][0].degree(): 1}, 3)),
        LaurentMatrix.diagonal((0,), 3),
    ]
    for basis in refused:
        with pytest.raises(InvalidInputError):
            BuildingVertex(basis)
    with pytest.raises(InvalidInputError):
        BuildingVertex(vertex_from_label((2, 1, 0), 3))


def test_normal_form_zero_row_pivot():
    # det = t^-2 + t^-4 gives modulus u^2, below which row 1 (t^-3, t^-2)
    # vanishes, so its pivot is u^2 e_1 rather than an input column
    v = vertex_normal_form(mat([["1", "t^-1"], ["t^-3", "t^-2"]]))
    assert v == vertex_from_label((2, 0), 2) and v.profile == (2, 0)


def test_normal_form_failed_certificate_is_internal(monkeypatch):
    monkeypatch.setattr(building, "_certify_same_lattice", lambda canon, original, q: False)
    with pytest.raises(InternalInvariantError):
        vertex_normal_form(LaurentMatrix.diagonal((2, 1, 0), 2))


def _with_entry(canon, r, i, value):
    rows = [list(row) for row in canon.rows]
    rows[r][i] = value
    return LaurentMatrix(rows, canon.q)


def test_certificate_accepts_scaled_frame_only():
    # canon spans t^e m for the one e matching determinant degrees;
    # every other homothety is a lattice of different determinant
    rng = random.Random(31)
    for q, d in ((2, 2), (2, 3), (3, 3), (5, 4)):
        for _ in range(5):
            m = random_invertible(d, q, rng)
            v = vertex_normal_form(m)
            e, rem = divmod(sum(v.profile) - m.det().degree(), d)
            assert rem == 0
            assert certify(v.basis, homothety(m, e))
            assert not certify(v.basis, homothety(m, e + 1))
            assert not certify(v.basis, homothety(m, e - 1))


def test_certificate_rejects_raised_entry_above_pivot():
    # entry (r, i) above pivot i, raised by t^(a_r + 1), stays reduced
    # against pivot r: the same determinant, another canonical basis
    rng = random.Random(37)
    for q, d in ((2, 3), (3, 3), (2, 4)):
        for _ in range(3):
            canon = vertex_normal_form(random_invertible(d, q, rng)).basis
            assert certify(canon, canon)
            for i in range(1, d):
                for r in range(i):
                    a_r = canon.rows[r][r].degree()
                    raised = canon.rows[r][i] + LaurentPoly({a_r + 1: 1}, q)
                    wrong = _with_entry(canon, r, i, raised)
                    assert wrong.det() == canon.det()
                    assert not certify(wrong, canon)
                    assert not certify(canon, wrong)


def test_certificate_rejects_raised_pivot_mod_uniformizer():
    # canon^-1 * original is over O and singular modulo 1/t: only the F_q
    # invertibility half of the certificate can reject it
    for label in ((0, 0), (2, 1, 0), (3, 3, 1, 0)):
        canon = vertex_from_label(label, 3).basis
        for i in range(len(label)):
            a_i = canon.rows[i][i].degree()
            wrong = _with_entry(canon, i, i, LaurentPoly({a_i + 1: 1}, 3))
            u = building._solve_canonical(coeff_rows(wrong), coeff_rows(canon), 3)
            assert all(e <= 0 for row in u for x in row for e in x)
            assert not certify(wrong, canon)


def test_certificate_catches_wrong_determinant(monkeypatch):
    # a determinant off by a factor of t sets the wrong modulus for the
    # Hermite pass; the certificate does not trust it.  The normal form
    # reads the degree off the weak Popov pass, so the pass is patched to
    # report one row degree too high
    inputs = [LaurentMatrix.diagonal((2, 1, 0), 2), mat([["1", "t^-1"], ["t^-3", "t^-2"]])]
    rng = random.Random(41)
    inputs += [random_invertible(3, 2, rng) for _ in range(5)]
    true_pass = building._weak_popov

    def degrees_off_by_t(*args, **kwargs):
        degs, packed = true_pass(*args, **kwargs)
        return [degs[0] + 1] + degs[1:], packed

    monkeypatch.setattr(building, "_weak_popov", degrees_off_by_t)
    for m in inputs:
        with pytest.raises(InternalInvariantError):
            vertex_normal_form(m)


def test_wrong_det_degree_is_internal():
    # a determinant degree one too high or too low sets the wrong modulus
    # for the Hermite pass and never gives a vertex: the modulus check or
    # the certificate rejects it; the true degree from the Laplace
    # expansion gives vertex_normal_form's vertex, whose degree comes from
    # the row reduction, here on seeded dense inputs up to d = 8
    rng = random.Random(27)
    inputs = [LaurentMatrix.diagonal((2, 1, 0), 2), mat([["1", "t^-1"], ["t^-3", "t^-2"]])]
    inputs += [random_invertible(d, q, rng) for d in (2, 3, 4, 6, 8) for q in (2, 3)]
    v = vertex_from_label((2, 1, 0), 3)
    inputs += [n.basis for n in neighbors(v, 1)[:4]]
    for m in inputs:
        true = m.det().degree()
        assert building._normal_form(coeff_rows(m), true, m.q) == vertex_normal_form(m)
        for wrong in (true - 1, true + 1):
            with pytest.raises(InternalInvariantError):
                building._normal_form(coeff_rows(m), wrong, m.q)


def test_solve_canonical_requires_triangular_monic_pivots():
    identity = coeff_rows(mat([["1", "0"], ["0", "1"]]))
    with pytest.raises(InternalInvariantError):
        building._solve_canonical(coeff_rows(mat([["1", "0"], ["t", "1"]])), identity, 2)
    with pytest.raises(InternalInvariantError):
        building._solve_canonical(coeff_rows(mat([["1", "0"], ["0", "1 + t"]])), identity, 2)


def test_solve_canonical_matches_matrix_oracle():
    # canonical bases of seeded vertices against seeded matrices, d = 2-6;
    # the solve reads its operands without changing them
    rng = random.Random(281)
    for d in range(2, 7):
        for q in (2, 3, 5):
            for _ in range(3):
                canon = vertex_normal_form(random_invertible(d, q, rng)).basis
                m = random_invertible(d, q, rng)
                a, b = coeff_rows(canon), coeff_rows(m)
                got = building._solve_canonical(a, b, q)
                assert as_matrix(got, q) == solve_canonical_matrix(canon, m), (canon, m)
                assert (a, b) == (coeff_rows(canon), coeff_rows(m))


def test_normal_form_rejects_singular(capsys, monkeypatch):
    one = LaurentPoly({0: 1}, 2)
    with pytest.raises(SingularMatrixError):
        vertex_normal_form(LaurentMatrix([[one, one], [one, one]], 2))
    with pytest.raises(InvalidInputError):
        vertex_normal_form(LaurentMatrix([[one]], 2))
    # row 3 = t row 1 + t^-1 row 2: no zero row until the reduction reaches one
    m = mat([["t", "1", "0"], ["0", "t^-1", "1"], ["t^2", "t + t^-2", "t^-1"]], q=3)
    assert m.det().is_zero()
    with pytest.raises(SingularMatrixError, match="singular"):
        vertex_normal_form(m)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(m.to_literal())))
    assert main(["reduce", "--matrix", "-"]) == 2
    out, err = capsys.readouterr()
    assert not out and "singular" in err


def test_neighbor_counts_origin():
    v = standard_vertex(3, 2)
    assert len(neighbors(v, 1)) == 7
    assert len(neighbors(v, 2)) == 7
    assert len(set(neighbors(v, 1))) == 7
    v2 = standard_vertex(2, 2)
    assert len(neighbors(v2, 1)) == 3


def residue_lattice_basis(rows, d, q):
    """n, the basis of W + (1/t)O^d that `neighbors` certifies against: the
    rows of a subspace basis W as constant columns, then (1/t) e_j for
    each coordinate j that is no pivot of W."""
    pivs = {next(j for j in range(d) if r[j]) for r in rows}
    cols = [[LaurentPoly({0: c} if c else {}, q) for c in r] for r in rows]
    cols += [
        [LaurentPoly({-1: 1} if i == j else {}, q) for i in range(d)]
        for j in range(d)
        if j not in pivs
    ]
    return LaurentMatrix([[cols[j][i] for j in range(d)] for i in range(d)], q)


def neighbors_by_determinant(v, k):
    """Oracle: the degree-k neighbors as normal forms of the LaurentMatrix
    product B n, each computing det(B n) itself."""
    d, q = v.d, v.q
    return [
        vertex_normal_form(v.basis * residue_lattice_basis(rows, d, q))
        for rows in subspace_bases(d, d - k, q)
    ]


def test_triangular_basis_matches_residue_lattice_basis():
    # H of `building._triangular_basis` is upper triangular with k pivots
    # 1/t and the rest 1, and spans the lattice of n: the same normal form
    # for every subspace at d = 2-5, q in {2, 3, 5} and every k the work
    # bound allows (all but k = 2, 3 at d = 5, q = 5)
    refused = []
    for d in (2, 3, 4, 5):
        for q in (2, 3, 5):
            for k in range(1, d):
                try:
                    building.check_neighbor_work(d, k, q)
                except ResourceBoundError:
                    refused.append((d, q, k))
                    continue
                for rows in subspace_bases(d, d - k, q):
                    h = building._triangular_basis(rows, d, q)
                    assert not any(h[i][j] for i in range(d) for j in range(i))
                    pivots = [h[r][r] for r in range(d)]
                    assert pivots.count({-1: 1}) == k and pivots.count({0: 1}) == d - k
                    assert vertex_normal_form(as_matrix(h, q)) == vertex_normal_form(
                        residue_lattice_basis(rows, d, q)
                    ), (rows, q)
    assert refused == [(5, 5, 2), (5, 5, 3)]


def test_neighbors_match_normal_forms_with_determinant():
    rng = random.Random(271)
    vertices = []
    for d in (3, 4):
        for q in (2, 3):
            label = _random_label(rng, d, 3)
            vertices.append(vertex_from_label(label, q))
            vertices += [
                vertex_normal_form(random_gamma(d, q, 2, rng) * LaurentMatrix.diagonal(label, q))
                for _ in range(2)
            ]
    # one more vertex for every other d = 2-5 and q in {2, 3, 5}: a dense
    # one, or a label where a degree has over 700 neighbors (d = 5, q > 2)
    for d in (2, 3, 4, 5):
        for q in (2, 3, 5):
            if d in (3, 4) and q in (2, 3):
                continue
            label = _random_label(rng, d, 3)
            if d == 5 and q > 2:
                vertices.append(vertex_from_label(label, q))
            else:
                m = random_gamma(d, q, 2, rng) * LaurentMatrix.diagonal(label, q)
                vertices.append(vertex_normal_form(m))
    for v in vertices:
        terms = max(len(x.coeffs) for row in v.basis.rows for x in row)
        for k in range(1, v.d):
            try:
                building.check_neighbor_work(v.d, k, v.q, terms)
            except ResourceBoundError:
                assert (v.d, v.q, k) in ((5, 5, 2), (5, 5, 3))
                continue
            assert neighbors(v, k) == neighbors_by_determinant(v, k), (v, k)


def test_shifted_basis_has_the_same_neighbors():
    # t^s C spans a lattice of C's class, so it is no vertex basis, and its
    # normal form is C's vertex, with the same neighbors in the same order
    rng = random.Random(272)
    for d, q in ((2, 5), (3, 3), (4, 2), (5, 2)):
        label = _random_label(rng, d, 3)
        diag = LaurentMatrix.diagonal(label, q)
        for basis in (diag, vertex_normal_form(random_gamma(d, q, 2, rng) * diag).basis):
            v = BuildingVertex(basis)
            for s in (-2, 1, 3):
                with pytest.raises(InvalidInputError):
                    BuildingVertex(homothety(basis, s))
                shifted = vertex_normal_form(homothety(basis, s))
                assert shifted.basis == basis and shifted.profile == v.profile
                for k in range(1, d):
                    assert neighbors(shifted, k) == neighbors(v, k), (d, q, s, k)


def test_neighbors_run_no_normal_form_per_neighbor(monkeypatch):
    # a vertex takes no normal form, no Hermite pass (its series inverses)
    # and one certificate per neighbor
    rng = random.Random(273)
    label = (3, 1, 1, 0)
    diag = LaurentMatrix.diagonal(label, 3)
    canonical = [
        vertex_from_label(label, 3),
        vertex_normal_form(random_gamma(4, 3, 2, rng) * diag),
    ]
    calls = Counter()
    for name in ("_normal_form", "_certify_same_lattice", "series_inverse"):
        real = getattr(building, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(building, name, counted)
    for v in canonical:
        for k in range(1, 4):
            calls.clear()
            n = len(neighbors(v, k))
            assert calls == {"_certify_same_lattice": n}, (v, k)


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
                colors = [sum(v.profile) % d for v in chain]
                assert colors[1] == (colors[0] + 1) % d
                assert colors[2] == (colors[1] + 1) % d
                assert len(set(colors)) == d
        assert count > 0


def test_relative_position_matches_minors():
    rng = random.Random(61)
    checked = 0
    for q in (2, 3):
        for d, pairs in ((2, 40), (3, 40), (4, 40), (5, 6), (6, 4)):
            for _ in range(pairs):
                x = vertex_normal_form(random_invertible(d, q, rng))
                y = vertex_normal_form(random_invertible(d, q, rng))
                assert relative_position(x, y) == smith_by_minors(x, y), (x, y)
                checked += 1
    assert checked >= 250


def test_relative_position_wide_label():
    # a label vertex of span 10^4 against a dense vertex: the reduction over
    # O cancels leading terms, so its cost does not grow with the span
    x = vertex_from_label((10**4, 9, 2, 1, 0), 2)
    m = random_gamma(5, 2, 3, 5) * LaurentMatrix.diagonal((4, 3, 1, 1, 0), 2)
    y = vertex_normal_form(m)
    assert max(len(e.coeffs) for row in y.basis.rows for e in row) > 1
    for a, b in ((x, y), (y, x)):
        start = time.perf_counter()
        s = relative_position(a, b)
        assert time.perf_counter() - start < 0.25
        assert s == smith_by_minors(a, b)
    assert relative_position(x, y) == tuple(sorted(-e for e in relative_position(y, x)))


def test_relative_position_labels_and_checks():
    x = vertex_from_label((10**9, 7, 0), 2)
    assert relative_position(x, standard_vertex(3, 2)) == (-(10**9), -7, 0)
    assert relative_position(standard_vertex(3, 2), x) == (0, 7, 10**9)
    with pytest.raises(InvalidInputError):
        relative_position(vertex_from_label((1, 0), 2), standard_vertex(3, 2))
    with pytest.raises(InvalidInputError):
        edge_color(standard_vertex(2, 3), standard_vertex(2, 2))
    # a matrix is not a vertex, as in reduce_to_domain
    m, v = LaurentMatrix.diagonal((1, 0), 2), standard_vertex(2, 2)
    for call in (lambda: neighbors(m, 1), lambda: relative_position(m, v),
                 lambda: relative_position(v, m), lambda: bfs_distance(m, v, 2),
                 lambda: bfs_color1_distance(v, m, 2), lambda: reduce_to_domain(m)):
        with pytest.raises(InvalidInputError, match="expected a BuildingVertex"):
            call()


def test_label_relative_position_matches_elimination():
    # the label path of `btq distance` against the row reduction over O
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


def row_degrees(rows, q, det_deg=None):
    """The degrees of `building._weak_popov` on LaurentPoly rows."""
    return building._weak_popov([[dict(x.coeffs) for x in row] for row in rows], q, det_deg)[0]


def _degree_outcome(reduce, rows, *args):
    """The sorted degrees of a reduction, or the type of its exception."""
    try:
        return sorted(reduce(list(rows), *args))
    except (SingularMatrixError, InternalInvariantError) as exc:
        return type(exc)


def _assert_reductions_agree(v):
    """Over F_q[t], on a canonical basis: the pass's sorted degrees are the
    oracle's, and the domain label is the oracle's sorted degrees, shifted
    to end in 0."""
    q = v.q
    degs = row_degrees(v.basis.rows, q)
    want = sorted(reduce_rows_by_dot(list(v.basis.rows), sum(v.profile), q, False), reverse=True)
    assert sorted(degs, reverse=True) == want, v
    assert reduce_to_domain(v)[0] == tuple(e - want[-1] for e in want), v


def _singular_rows():
    """Two singular 3 x 3 matrices over F_3: a zero row, and a row that the
    reduction zeroes."""
    r0, r1 = (P("t^2 + 1", 3), P("t", 3), P("2", 3)), (P("t", 3), P("t^-1", 3), P("1", 3))
    t = P("t", 3)
    return [(r0, (P("0", 3),) * 3, r1), (r0, r1, tuple(t * x for x in r0))]


def test_reduce_rows_matches_dot_oracle():
    rng = random.Random(25)
    # over F_q[t]: the canonical bases that the domain reduction reduces
    for d in (3, 4, 5):
        for q in (2, 3, 5):
            for _ in range(4):
                label = _random_label(rng, d, 12)
                m = (
                    random_gamma(d, q, rng.choice((2, 4, 6)), rng)
                    * LaurentMatrix.diagonal(label, q)
                    * random_k(d, q, 3, rng)
                )
                _assert_reductions_agree(vertex_normal_form(m))
    # over O: y^-1 x of relative_position pairs, whose degrees the weak
    # Popov pass gives; the same up to order, and the same exception types
    # one degree either side of the determinant's
    for q in (2, 3):
        for d in (2, 3, 4):
            for _ in range(8):
                x = vertex_normal_form(random_invertible(d, q, rng))
                y = vertex_normal_form(random_invertible(d, q, rng))
                rows = solve_canonical_matrix(y.basis, x.basis).rows
                det_deg = sum(x.profile) - sum(y.profile)
                for deg in (det_deg, det_deg - 1, det_deg + 1):
                    got = _degree_outcome(row_degrees, rows, q, deg)
                    assert got == _degree_outcome(reduce_rows_by_dot, rows, deg, q, True), (rows, deg)
                    assert (deg == det_deg) == (got is not InternalInvariantError)
    for rows in _singular_rows():
        assert _degree_outcome(row_degrees, rows, 3) is SingularMatrixError
        for deg in (-5, 0, 3):
            assert _degree_outcome(row_degrees, rows, 3, deg) is SingularMatrixError
            for over_O in (False, True):
                assert _degree_outcome(reduce_rows_by_dot, rows, deg, 3, over_O) is SingularMatrixError


def test_row_degrees_match_oracles():
    rng = random.Random(72)
    # over F_q[t]: seeded dense matrices, against the dot oracle's degrees
    # and the degree of the Laplace determinant
    for d in range(2, 9):
        for q in (2, 3, 5):
            for _ in range(3 if d <= 5 else 1):
                m = random_invertible(d, q, rng)
                det_deg = m.det().degree()
                degs = row_degrees(m.rows, q)
                assert sum(degs) == det_deg, (m, degs)
                assert sorted(degs) == sorted(reduce_rows_by_dot(list(m.rows), det_deg, q, False))
    # over O: the negated degrees of y^-1 x are its Smith valuations
    for q in (2, 3, 5):
        for d in (2, 3, 4, 5):
            for _ in range(4):
                x = vertex_normal_form(random_invertible(d, q, rng))
                y = vertex_normal_form(random_invertible(d, q, rng))
                rows = building._solve_canonical(coeff_rows(y.basis), coeff_rows(x.basis), q)
                degs = building._weak_popov(rows, q, sum(x.profile) - sum(y.profile))[0]
                assert tuple(sorted(-e for e in degs)) == smith_by_minors(x, y), (x, y)
    for rows in _singular_rows():
        with pytest.raises(SingularMatrixError, match="the row reduction reached a zero row"):
            row_degrees(rows, 3)
    # rows v and (1 - 1/t) v: over F_q[t] a zero row; over O the pass would
    # cancel v against the unit multiple forever, and the degree sum
    # falling below det_deg stops it.  In the other order the pass may
    # reach a zero row over O instead, but it ends either way
    v = (P("t^2 + 1", 3), P("t", 3), P("2", 3))
    w = tuple(P("1 - t^-1", 3) * x for x in v)
    for third in [r[-1] for r in _singular_rows()]:
        with pytest.raises(SingularMatrixError):
            row_degrees((v, w, third), 3)
        for deg in (0, -50):
            with pytest.raises(InternalInvariantError):
                row_degrees((v, w, third), 3, deg)
            outcome = _degree_outcome(row_degrees, (w, v, third), 3, deg)
            assert outcome in (SingularMatrixError, InternalInvariantError)


def test_relative_position_wrong_determinant_is_internal():
    # a profile that misstates the determinant leaves valuations
    # unaccounted; only the unchecked constructor can build such a vertex
    v = vertex_from_label((2, 1, 0), 2)
    wrong = building._vertex(v.basis, (3, 1, 0))
    with pytest.raises(InternalInvariantError):
        relative_position(wrong, standard_vertex(3, 2))


# sha256 of the seeded lattice results below; a change to the lattice layer
# that is meant to keep every output keeps this digest
LATTICE_RESULTS_DIGEST = "caefafa5696ceb623f4b8295818c7c7fb0e0de203a3b5e6befe7c57416bebf8c"


def test_lattice_results_digest_pinned():
    # 12 seeded dense inputs at each d = 2..6 and q in {2, 3, 5}: the normal
    # form, the domain label and witness, and the relative position to the
    # previous input's vertex (the standard vertex for the first)
    rng = random.Random(180)
    digest = hashlib.sha256()
    for d in range(2, 7):
        for q in (2, 3, 5):
            prev = standard_vertex(d, q)
            for _ in range(12):
                v = vertex_normal_form(random_invertible(d, q, rng))
                label, witness = reduce_to_domain(v)
                record = [v.to_literal(), label, witness.to_literal(), relative_position(v, prev)]
                digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
                prev = v
    assert digest.hexdigest() == LATTICE_RESULTS_DIGEST


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
