"""Label combinatorics, stabilizers, orbits and the domain reduction."""

import random

import pytest

from btq import domain
from btq.building import neighbors, vertex_from_label, vertex_normal_form
from btq.domain import (
    block_seq,
    diff_seq,
    edge_stabilizer_brute,
    enumerate_domain,
    friends,
    label_from_diffs,
    neighbors_in_domain,
    orbit_decomposition,
    parse_label,
    reduce_to_domain,
    stabilizer_contains,
    stabilizer_degree_pattern_ok,
    stabilizer_enumerate,
    pattern_order,
    stabilizer_order,
    support_size,
    validate_label,
)
from btq.errors import InternalInvariantError, InvalidInputError, ResourceBoundError
from btq.gf import gaussian_binomial, pgl_order
from btq.laurent import LaurentMatrix, LaurentPoly, random_gamma, random_k


def test_label_validation():
    assert validate_label((2, 1, 0)) == (2, 1, 0)
    for bad in ((1, 2, 0), (2, 1, 1), (0,), (-1, 0)):
        with pytest.raises(InvalidInputError):
            validate_label(bad)
    assert parse_label("2,1,0") == (2, 1, 0)
    with pytest.raises(InvalidInputError):
        parse_label("2;1;0")


def test_diff_and_block_sequences():
    assert diff_seq((0, 0, 0)) == (0, 0)
    assert block_seq((0, 0, 0)) == ((3,), (0,))
    assert support_size(diff_seq((0, 0, 0))) == 0
    assert block_seq((6, 4, 4, 4, 0, 0))[0] == (1, 3, 2)
    assert diff_seq((2, 1, 0)) == (1, 1)
    assert support_size(diff_seq((2, 1, 0))) == 2
    for lab in enumerate_domain(4, 3):
        assert label_from_diffs(diff_seq(lab)) == lab


def test_enumerate_domain():
    assert enumerate_domain(3, 1) == [(0, 0, 0), (1, 0, 0), (1, 1, 0)]
    assert len(enumerate_domain(3, 4)) == 15
    assert enumerate_domain(2, 3) == [(0, 0), (1, 0), (2, 0), (3, 0)]
    for m in range(6):
        assert len(enumerate_domain(3, m)) == (m + 1) * (m + 2) // 2


def test_neighbors_in_domain_examples():
    assert neighbors_in_domain((2, 1, 0), 1) == [(1, 1, 0), (2, 0, 0), (3, 2, 0)]
    assert neighbors_in_domain((2, 1, 0), 2) == [(1, 0, 0), (2, 2, 0), (3, 1, 0)]
    # at the origin the unique degree-1 neighbor lowers the last coordinate;
    # renormalized it is (1,1,0), and (1,0,0) is the degree-2 neighbor
    assert neighbors_in_domain((0, 0, 0), 1) == [(1, 1, 0)]
    assert neighbors_in_domain((0, 0, 0), 2) == [(1, 0, 0)]


def test_neighbor_count_law():
    for d in (3, 4, 5):
        for lab in enumerate_domain(d, 8):
            got = len(neighbors_in_domain(lab, 1))
            assert got == 1 + support_size(diff_seq(lab)), lab


def test_pattern_order_row_sum_law_every_color():
    # |Gamma_v| / |Gamma_u cap Gamma_v| is the size of the Gamma_v-orbit of
    # degree-k neighbors reducing to u, so the orbits of every color k
    # partition all [d choose k]_q degree-k neighbors of v
    cases = 0
    for d in (3, 4, 5):
        for q in (2, 3):
            for v in enumerate_domain(d, 6):
                stab_v = stabilizer_order(v, q)
                for k in range(1, d):
                    total = 0
                    for u in neighbors_in_domain(v, k):
                        index, rem = divmod(stab_v, pattern_order(u, v, q))
                        assert rem == 0, (u, v, q)
                        total += index
                    assert total == gaussian_binomial(d, k, q), (v, k, q)
                    cases += 1
    assert cases == 2296


def test_pattern_order_result_size_bound():
    assert stabilizer_order((6000, 0), 2) == 2**6001
    with pytest.raises(ResourceBoundError):
        stabilizer_order((20000, 0), 2)
    with pytest.raises(ResourceBoundError):
        pattern_order((2000, 1000, 0), (2000, 0, 0), 7)


def test_pattern_order_validation():
    assert pattern_order((2, 1, 0), (1, 0, 0), 3) == pattern_order((1, 0, 0), (2, 1, 0), 3)
    with pytest.raises(InvalidInputError):
        pattern_order((1, 0), (1, 0, 0), 2)
    with pytest.raises(InvalidInputError):
        pattern_order((1, 0, 0), (1, 1, 0), 4)


def test_neighbors_symmetry_of_degrees():
    # w is a degree-k neighbor of v iff v is a degree-(d-k) neighbor of w
    for d in (3, 4):
        for lab in enumerate_domain(d, 3):
            for k in range(1, d):
                for other in neighbors_in_domain(lab, k):
                    assert lab in neighbors_in_domain(other, d - k)


def test_friends_examples():
    assert friends((3, 3, 0)) == {1: (4, 4, 0)}
    assert friends((3, 2, 0))[1] == (4, 3, 0)
    assert friends((0, 0, 0)) == {}
    assert friends((2, 1, 0)) == {1: (3, 2, 0), 2: (3, 1, 0)}
    assert friends((1, 0, 0)) == {2: (2, 0, 0)}
    assert friends((1, 1, 0)) == {1: (2, 2, 0)}


def test_friends_are_neighbors_with_support_count():
    for d in (3, 4):
        for lab in enumerate_domain(d, 4):
            fr = friends(lab)
            assert len(fr) == support_size(diff_seq(lab))
            for k, other in fr.items():
                assert other in neighbors_in_domain(lab, k)
                assert stabilizer_contains(lab, other)


def test_stabilizer_order_closed_forms_d3():
    # the four vertex classes: corner, bottom wall, equal-pair wall, interior
    for q in (2, 3, 5):
        assert stabilizer_order((0, 0, 0), q) == (q - 1) ** 2 * (q**2 + q + 1) * (q + 1) * q**3
        for n1 in (1, 2, 5):
            wall = (q - 1) ** 2 * (q + 1) * q ** (2 * n1 + 3)
            assert stabilizer_order((n1, n1, 0), q) == wall
            assert stabilizer_order((n1, 0, 0), q) == wall
        for n1, n2 in ((2, 1), (5, 3), (7, 2)):
            assert stabilizer_order((n1, n2, 0), q) == (q - 1) ** 2 * q ** (2 * n1 + 3)
    assert stabilizer_order((2, 1, 0), 2) == 128


def test_stabilizer_origin_is_pgl():
    for d in (2, 3, 4):
        for q in (2, 3):
            assert stabilizer_order((0,) * d, q) == pgl_order(d, q)


def test_stabilizer_enumerate_matches_order_small():
    for q in (2, 3):
        for lab in ((0, 0), (1, 0), (0, 0, 0), (1, 1, 0)):
            group = stabilizer_enumerate(lab, q)
            assert len(group) == stabilizer_order(lab, q)


def test_stabilizer_enumerate_bound():
    with pytest.raises(ResourceBoundError):
        stabilizer_enumerate((9, 5, 0), 3, bound=10**4)


def test_stabilizer_elements_fix_vertex():
    q = 2
    lab = (2, 1, 0)
    base = vertex_from_label(lab, q)
    group = stabilizer_enumerate(lab, q)
    rng = random.Random(1)
    for g in rng.sample(group, 12):
        assert vertex_normal_form(g * base.basis) == base
    for g in group:
        assert stabilizer_degree_pattern_ok(g, lab)


def test_stabilizer_closure_spot_check():
    q = 2
    lab = (1, 1, 0)
    group = stabilizer_enumerate(lab, q)
    keys = set()
    for g in group:
        keys.add(tuple(tuple(sorted(x.coeffs.items())) for row in g.rows for x in row))
    rng = random.Random(3)
    for _ in range(40):
        a, b = rng.choice(group), rng.choice(group)
        prod = a * b
        # normalize the scalar class like the enumeration does
        lead = next(x for row in prod.rows for x in row if x)
        c = lead.coeffs[min(lead.coeffs)]
        inv = pow(c, q - 2, q) if c != 1 else 1
        prod = prod * LaurentPoly.constant(inv, q)
        key = tuple(tuple(sorted(x.coeffs.items())) for row in prod.rows for x in row)
        assert key in keys


def test_stabilizer_contains_vs_brute_force():
    q = 2
    labels = enumerate_domain(3, 2)
    groups = {lab: stabilizer_enumerate(lab, q) for lab in labels}
    for lab1 in labels:
        for lab2 in labels:
            if lab1 == lab2:
                continue
            brute = all(stabilizer_degree_pattern_ok(g, lab2) for g in groups[lab1])
            assert stabilizer_contains(lab1, lab2) == brute, (lab1, lab2)


def test_edge_stabilizer_brute_example():
    assert edge_stabilizer_brute((1, 0, 0), (1, 1, 0), 2) == 16


def _matrix_sort_key(mat):
    return tuple(tuple(sorted(x.coeffs.items())) for row in mat.rows for x in row)


def orbits_by_enumeration(label, q, k):
    """Oracle: apply every enumerated stabilizer element to each orbit
    representative, in the deterministic order of orbit_decomposition."""
    group = stabilizer_enumerate(label, q)
    remaining = {v.key(): v for v in neighbors(vertex_from_label(label, q), k)}
    orbits = []
    while remaining:
        key = min(remaining, key=_matrix_sort_key)
        rep = remaining.pop(key)
        orbit = {key: rep}
        for g in group:
            img = vertex_normal_form(g * rep.basis)
            orbit.setdefault(img.key(), img)
        for kk in orbit:
            remaining.pop(kk, None)
        orbits.append(sorted(orbit.values(), key=lambda v: _matrix_sort_key(v.key())))
    orbits.sort(key=lambda orb: _matrix_sort_key(orb[0].key()))
    return orbits


def test_orbit_decomposition_matches_enumeration():
    # the d = 3, q = 3 case is the one the benchmark times
    cases = [((0, 0), 2, 1), ((1, 0), 3, 1), ((2, 0), 2, 1), ((1, 1, 0), 3, 1)]
    cases += [(lab, 2, k) for lab in enumerate_domain(3, 2) for k in (1, 2)]
    for label, q, k in cases:
        got = orbit_decomposition(label, q, k)
        assert got == orbits_by_enumeration(label, q, k), (label, q, k)


def test_orbit_decomposition_checks_orbit_sizes(monkeypatch):
    # a closure under too few generators leaves orbits the count check rejects
    real = domain._residue_action_generators
    monkeypatch.setattr(domain, "_residue_action_generators", lambda lab, q: real(lab, q)[:1])
    with pytest.raises(InternalInvariantError):
        orbit_decomposition((0, 0, 0), 2, 1)


def test_orbit_decomposition_origin_transitive():
    orbits = orbit_decomposition((0, 0, 0), 2, 1)
    assert len(orbits) == 1 and len(orbits[0]) == 7


def test_orbit_decomposition_friend_fixed():
    orbits = orbit_decomposition((2, 1, 0), 2, 1)
    assert sum(len(o) for o in orbits) == 7
    singletons = [o[0] for o in orbits if len(o) == 1]
    assert [v for v in singletons] == [vertex_from_label((3, 2, 0), 2)]


def test_orbit_reduction_consistency():
    # all members of an orbit reduce to the same in-domain label, and that
    # label is one of the in-domain neighbors
    for lab in ((1, 1, 0), (2, 1, 0)):
        for k in (1, 2):
            in_domain = set(neighbors_in_domain(lab, k))
            for orbit in orbit_decomposition(lab, 2, k):
                reduced = {reduce_to_domain(v)[0] for v in orbit}
                assert len(reduced) == 1
                assert reduced.pop() in in_domain


def test_reduce_identity_on_domain_vertices():
    for lab in enumerate_domain(3, 3):
        got, witness = reduce_to_domain(vertex_from_label(lab, 2))
        assert got == lab
        assert witness == LaurentMatrix.identity(3, 2)


def test_reduce_out_of_domain_neighbor_lands_on_degree2():
    # the twisted superdiagonal neighbor of (2,1,0) always reduces to (1,0,0)
    q = 2
    for b1 in range(q):
        for b2 in range(q):
            rows = [
                ["t", f"{b1}*t^2", "0"],
                ["0", "1", f"{b2}*t"],
                ["0", "0", "1"],
            ]
            m = LaurentMatrix([[LaurentPoly.parse(s, q) for s in row] for row in rows], q)
            lab, _ = reduce_to_domain(m)
            assert lab == (1, 0, 0)


def test_reduce_orbit_invariance():
    rng = random.Random(77)
    q = 2
    labels = enumerate_domain(3, 3)
    for _ in range(30):
        lab = labels[rng.randrange(len(labels))]
        g = random_gamma(3, q, 3, rng)
        k = random_k(3, q, 12, rng)
        v = vertex_normal_form(g * vertex_from_label(lab, q).basis * k)
        got, witness = reduce_to_domain(v)
        assert got == lab
        assert vertex_normal_form(witness * v.basis) == vertex_from_label(lab, q)
        det = witness.det()
        assert det.is_monomial() and det.degree() == 0


def test_reduce_disjointness():
    # an orbit meets the domain in exactly one label: pushing a domain
    # vertex around by the group never changes its reduction
    rng = random.Random(123)
    q = 2
    labels = enumerate_domain(3, 2)
    for i in range(100):
        lab = labels[i % len(labels)]
        g = random_gamma(3, q, 2, rng)
        v = vertex_normal_form(g * vertex_from_label(lab, q).basis)
        assert reduce_to_domain(v)[0] == lab
