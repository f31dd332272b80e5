"""Label combinatorics, stabilizers, orbits and the domain reduction."""

import random
import time
from collections import Counter
from itertools import product
from math import comb

import pytest

from btq import building, domain
from btq.building import neighbors, vertex_from_label, vertex_normal_form
from btq.domain import (
    _matrix_sort_key,
    block_seq,
    edge_stabilizer_brute,
    enumerate_domain,
    friends,
    neighbors_in_domain,
    orbit_decomposition,
    parse_label,
    reduce_to_domain,
    stabilizer_degree_pattern_ok,
    stabilizer_enumerate,
    pattern_order,
    stabilizer_order,
    validate_label,
)
from btq.errors import InternalInvariantError, InvalidInputError, ResourceBoundError
from btq.gf import gaussian_binomial, gl_order, reduced_echelon_form
from btq.laurent import LaurentMatrix, LaurentPoly, random_gamma, random_k
from test_building import reduce_rows_by_dot


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
    assert block_seq((6, 4, 4, 4, 0, 0)) == ((1, 3, 2), (6, 4, 0))
    assert diff_seq((2, 1, 0)) == (1, 1)
    for lab in enumerate_domain(4, 3):
        assert label_from_diffs(diff_seq(lab)) == lab


def test_enumerate_domain():
    assert enumerate_domain(3, 1) == [(0, 0, 0), (1, 0, 0), (1, 1, 0)]
    assert len(enumerate_domain(3, 4)) == 15
    assert enumerate_domain(2, 3) == [(0, 0), (1, 0), (2, 0), (3, 0)]
    for m in range(6):
        assert len(enumerate_domain(3, m)) == (m + 1) * (m + 2) // 2


def enumerate_domain_recursive(d, max_n1):
    # the label list built one coordinate at a time, d - 1 levels deep
    labels = []

    def build(prefix):
        if len(prefix) == d - 1:
            labels.append(tuple(prefix) + (0,))
            return
        for n in range((prefix[-1] if prefix else max_n1) + 1):
            build(prefix + [n])

    build([])
    return sorted(labels)


def test_enumerate_domain_matches_recursive_builder():
    for d in range(2, 7):
        for m in range(9):
            assert enumerate_domain(d, m) == enumerate_domain_recursive(d, m), (d, m)
    # no recursion, so a long label is no deeper than a short one
    assert enumerate_domain(1500, 0) == [(0,) * 1500]


def diff_seq(label):
    """Consecutive differences (m_1, ..., m_{d-1}), m_i = n_i - n_{i+1}."""
    return tuple(a - b for a, b in zip(label, label[1:]))


def support_size(label):
    """|m|: the number of nonzero differences of the label."""
    return sum(1 for m in diff_seq(label) if m)


def label_from_diffs(m_seq):
    """Inverse of diff_seq: n_i = sum_{j >= i} m_j, n_d = 0."""
    out = [0]
    for m in reversed(m_seq):
        out.append(out[-1] + m)
    return tuple(reversed(out))


def neighbors_by_chains(label, k):
    """Degree-k in-domain neighbors as alternating changes of the
    difference sequence, independent of the block-suffix drops."""
    m1 = diff_seq(label)
    found = set()
    for chain in product((-1, 0, 1), repeat=len(m1)):
        if all(c == 0 for c in chain):
            continue
        if any(m == 0 and c < 0 for m, c in zip(m1, chain)):
            continue
        signs = [c for c in chain if c]
        if any(signs[i] == signs[i + 1] for i in range(len(signs) - 1)):
            continue
        # recover the drop vector: v_i = v_d + sum_{j>=i} c_j must land in {0,-1}
        suffix = [0] * (len(m1) + 1)
        for i in range(len(m1) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + chain[i]
        if all(s in (0, -1) for s in suffix):
            v_last = 0
        elif all(s in (0, 1) for s in suffix):
            v_last = -1
        else:
            continue
        if sum(1 for s in suffix if v_last + s == -1) != k:
            continue
        found.add(label_from_diffs([m + c for m, c in zip(m1, chain)]))
    return found


def test_neighbors_in_domain_matches_chains():
    cases = 0
    for d in (2, 3, 4, 5):
        for lab in enumerate_domain(d, 6):
            for k in range(1, d):
                assert neighbors_in_domain(lab, k) == sorted(neighbors_by_chains(lab, k)), (lab, k)
                cases += 1
    assert cases == 1155


def neighbors_by_drop_products(label, k):
    """Degree-k in-domain neighbors by trying every drop combination,
    prod(min(size, k) + 1) over the blocks, and keeping those summing to k."""
    sizes, values = block_seq(label)
    out = []
    for drops in product(*(range(min(size, k) + 1) for size in sizes)):
        if sum(drops) == k:
            lift = 1 if drops[-1] else 0
            entries = []
            for n, size, s in zip(values, sizes, drops):
                entries += [n + lift] * (size - s) + [n + lift - 1] * s
            out.append(tuple(entries))
    return sorted(out)


def test_neighbors_in_domain_matches_drop_products():
    cases = 0
    for d in range(2, 8):
        for lab in enumerate_domain(d, 4):
            for k in range(1, d):
                assert neighbors_in_domain(lab, k) == neighbors_by_drop_products(lab, k), (lab, k)
                cases += 1
    assert cases == 2310


def test_drop_ratios_match_pattern_orders():
    # each cached |Gamma_v| / |Gamma_u cap Gamma_v| against the two pattern
    # orders of the actual neighbor u, for every label, degree and q
    cases = 0
    for d in range(2, 7):
        for lab in enumerate_domain(d, 4 if d < 5 else 2):
            sizes = block_seq(lab)[0]
            for k in range(1, d):
                nbrs = neighbors_in_domain(lab, k)
                for q in (2, 3, 5):
                    ratios = domain._drop_ratios(sizes, k, q)
                    assert len(ratios) == len(nbrs)
                    order = pattern_order(lab, lab, q)
                    for u, ratio in zip(nbrs, ratios):
                        edge = pattern_order(u, lab, q)
                        assert order % edge == 0 and order // edge == ratio, (lab, k, q, u)
                        cases += 1
    assert cases == 2688


def test_neighbors_in_domain_examples():
    assert neighbors_in_domain((2, 1, 0), 1) == [(1, 1, 0), (2, 0, 0), (3, 2, 0)]
    assert neighbors_in_domain((2, 1, 0), 2) == [(1, 0, 0), (2, 2, 0), (3, 1, 0)]
    # at the origin the unique degree-1 neighbor lowers the last coordinate;
    # renormalized it is (1,1,0), and (1,0,0) is the degree-2 neighbor
    assert neighbors_in_domain((0, 0, 0), 1) == [(1, 1, 0)]
    assert neighbors_in_domain((0, 0, 0), 2) == [(1, 0, 0)]


def test_in_domain_work(monkeypatch):
    # d / 4 per neighbor: 3 for (2,1,0) at k = 1, 1 for (0,0,0,0) at k = 2
    assert domain.in_domain_work((2, 1, 0), 1) == 3 * 3 // 4
    assert domain.in_domain_work((0, 0, 0, 0), 2) == 4 * 1 // 4
    assert domain.in_domain_work(tuple(range(19, -1, -1)), 3) == 20 * comb(20, 3) // 4
    for d in range(2, 7):
        for lab in enumerate_domain(d, 4):
            for k in range(1, d):
                assert domain.in_domain_work(lab, k) == d * len(neighbors_in_domain(lab, k)) // 4
    # over the bound the count stops early, at a value that is still over it
    long = tuple(range(23, -1, -1))
    assert building.NEIGHBOR_WORK_BOUND < domain.in_domain_work(long, 12) < 24 * comb(24, 12) // 4
    monkeypatch.setattr(building, "NEIGHBOR_WORK_BOUND", 24 * comb(24, 12) // 4)
    assert domain.in_domain_work(long, 12) == 24 * comb(24, 12) // 4
    with pytest.raises(InvalidInputError):
        domain.in_domain_work((2, 1, 0), 3)
    with pytest.raises(InvalidInputError):
        domain.in_domain_work((1, 2, 0), 1)


def test_in_domain_work_long_labels_are_fast():
    # neither the product of the per-block choices nor k^2 steps: 2^12000
    # drop combinations, and a degree of 6000
    for label, k in (
        (tuple(range(11999, -1, -1)), 6000),
        ((1,) * 6000 + (0,) * 6000, 5999),
        (tuple(range(3999, -1, -1)), 1),
    ):
        start = time.perf_counter()
        work = domain.in_domain_work(label, k)
        assert time.perf_counter() - start < 0.5
        assert (work > building.NEIGHBOR_WORK_BOUND) == (k != 1)
    assert domain.in_domain_work(tuple(range(3999, -1, -1)), 1) == 4000 * 4000 // 4


def test_neighbor_count_law():
    for d in (3, 4, 5):
        for lab in enumerate_domain(d, 8):
            got = len(neighbors_in_domain(lab, 1))
            assert got == 1 + support_size(lab), lab


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


def test_building_neighbors_reduce_to_the_quotient_weights():
    # reducing every degree-k building neighbor of v's vertex into the
    # domain gives each in-domain neighbor u exactly |Gamma_v| /
    # |Gamma_u cap Gamma_v| times and no other label: one check of the
    # fundamental domain, the pattern formula, the weights of every A_k and
    # reduce_to_domain, which also shows that no two orbits share a label
    cases = 0
    for d, q, max_n1 in ((3, 2, 4), (3, 3, 3), (4, 2, 3), (4, 3, 1), (5, 2, 2)):
        for v in enumerate_domain(d, max_n1):
            stab_v = stabilizer_order(v, q)
            vertex = vertex_from_label(v, q)
            for k in range(1, d):
                got = Counter(reduce_to_domain(w)[0] for w in neighbors(vertex, k))
                weights = {u: stab_v // pattern_order(u, v, q) for u in neighbors_in_domain(v, k)}
                assert got == weights, (v, k, q)
                cases += 1
    assert cases == 182


def pattern_order_by_pairs(u, v, q):
    """|Gamma_u cap Gamma_v| from the block form of the docstring: one
    |GL_s(F_q)| per run of equal (u_i, v_i), times q^(c_ij + 1) for every
    pair i < j in different runs, over q - 1."""
    d = len(u)
    run = [0] * d
    for i in range(1, d):
        run[i] = run[i - 1] + ((u[i], v[i]) != (u[i - 1], v[i - 1]))
    order = 1
    for r in set(run):
        order *= gl_order(run.count(r), q)
    exp = sum(
        min(u[i] - u[j], v[i] - v[j]) + 1
        for i in range(d)
        for j in range(i + 1, d)
        if run[i] != run[j]
    )
    return order * q**exp // (q - 1)


def test_pattern_order_matches_pair_sum():
    rng = random.Random(7)
    pairs = 0
    for d in range(2, 9):
        for _ in range(500):
            u, v = (tuple(sorted(rng.choices(range(7), k=d - 1), reverse=True)) + (0,) for _ in "uv")
            q = rng.choice((2, 3, 5))
            assert pattern_order(u, v, q) == pattern_order_by_pairs(u, v, q), (u, v, q)
            pairs += 1
    assert pairs == 3500
    orders = 0
    for d in range(2, 9):
        for lab in enumerate_domain(d, 3):
            for q in (2, 3):
                assert stabilizer_order(lab, q) == pattern_order_by_pairs(lab, lab, q), (lab, q)
                orders += 1
    assert orders == 2 * sum(comb(d + 2, 3) for d in range(2, 9))


def test_pattern_order_result_size_bound():
    assert stabilizer_order((6000, 0), 2) == 2**6001
    with pytest.raises(ResourceBoundError):
        stabilizer_order((20000, 0), 2)
    with pytest.raises(ResourceBoundError):
        pattern_order((2000, 1000, 0), (2000, 0, 0), 7)


def test_pattern_order_refuses_long_labels_before_the_pair_sum(monkeypatch):
    # d^2 is checked before the d(d-1)/2 pairs are summed, so a label too
    # long for any order is refused after one check of that lower bound
    exponents = []
    check = domain.check_result_size

    def record(q_exponent, q, what):
        exponents.append(q_exponent)
        check(q_exponent, q, what)

    monkeypatch.setattr(domain, "check_result_size", record)
    d = 3000
    with pytest.raises(ResourceBoundError):
        stabilizer_order(tuple(range(d - 1, -1, -1)), 2)
    assert exponents == [d * d]
    # an accepted label passes the lower bound, then its exact exponent
    exponents.clear()
    assert stabilizer_order((5, 3, 0), 2) == 2**13
    assert exponents == [9, 19]


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
            assert len(fr) == support_size(lab)
            for k, other in fr.items():
                assert other in neighbors_in_domain(lab, k)
                # the whole stabilizer of the label fixes its friend
                assert pattern_order(lab, other, 2) == stabilizer_order(lab, 2)


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
            assert stabilizer_order((0,) * d, q) == gl_order(d, q) // (q - 1)


def test_stabilizer_enumerate_matches_order_small():
    for q in (2, 3):
        for lab in ((0, 0), (1, 0), (0, 0, 0), (1, 1, 0)):
            group = list(stabilizer_enumerate(lab, q))
            assert len(group) == stabilizer_order(lab, q)


def test_gl_matrices_match_full_scan():
    # the row-by-row construction lists what the scan of all q^(m^2)
    # matrices keeps, in the same order
    for m, q in ((1, 2), (1, 5), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)):
        scan = [
            tuple(flat[i * m : (i + 1) * m] for i in range(m))
            for flat in product(range(q), repeat=m * m)
        ]
        invertible = [mat for mat in scan if len(reduced_echelon_form(mat, q)) == m]
        assert domain._gl_matrices(m, q) == invertible, (m, q)
        assert len(invertible) == gl_order(m, q)
        leading_one = [mat for mat in invertible if next(x for x in mat[0] if x) == 1]
        assert domain._gl_matrices(m, q, leading_one=True) == leading_one, (m, q)


def test_stabilizer_enumerate_bound(monkeypatch):
    # (1, 1, 0) over F_2: 96 elements of 3^2 + 8 units; the diagonal
    # blocks are built row by row and not counted
    work = 96 * 17
    monkeypatch.setattr(building, "NEIGHBOR_WORK_BOUND", work)
    assert len(list(stabilizer_enumerate((1, 1, 0), 2))) == stabilizer_order((1, 1, 0), 2)
    monkeypatch.setattr(building, "NEIGHBOR_WORK_BOUND", work - 1)
    with pytest.raises(ResourceBoundError):
        stabilizer_enumerate((1, 1, 0), 2)
    with pytest.raises(ResourceBoundError):
        domain.edge_stabilizer_brute((1, 1, 0), (1, 0, 0), 2)
    monkeypatch.undo()
    # order 242,121,642: refused before any element is built
    with pytest.raises(ResourceBoundError):
        stabilizer_enumerate((8, 0), 7)


def test_stabilizer_elements_fix_vertex():
    q = 2
    lab = (2, 1, 0)
    base = vertex_from_label(lab, q)
    group = list(stabilizer_enumerate(lab, q))
    rng = random.Random(1)
    for g in rng.sample(group, 12):
        assert vertex_normal_form(g * base.basis) == base
    for g in group:
        assert stabilizer_degree_pattern_ok(g, lab)


def test_stabilizer_closure_spot_check():
    q = 2
    lab = (1, 1, 0)
    group = list(stabilizer_enumerate(lab, q))
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
        prod = prod * LaurentMatrix(
            [[LaurentPoly({0: inv} if i == j else {}, q) for j in range(3)] for i in range(3)], q
        )
        key = tuple(tuple(sorted(x.coeffs.items())) for row in prod.rows for x in row)
        assert key in keys


def test_edge_stabilizer_brute_example():
    assert edge_stabilizer_brute((1, 0, 0), (1, 1, 0), 2) == 16


def orbits_by_enumeration(label, q, k):
    """Oracle: apply every enumerated stabilizer element to each orbit
    representative, in the deterministic order of orbit_decomposition."""
    group = list(stabilizer_enumerate(label, q))
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


def orbits_by_closure(label, q, k):
    """Oracle: the closure of each neighbor under the stabilizer elements
    I + t^(n_i - n_j) E_ij, n_i >= n_j, applied to its basis and put in
    normal form, in the deterministic order of orbit_decomposition."""
    d = len(label)
    gens = []
    for i in range(d):
        for j in range(d):
            if i != j and label[i] >= label[j]:
                rows = [list(row) for row in LaurentMatrix.diagonal((0,) * d, q).rows]
                rows[i][j] = LaurentPoly({label[i] - label[j]: 1}, q)
                gens.append(LaurentMatrix(rows, q))
    remaining = {v.key(): v for v in neighbors(vertex_from_label(label, q), k)}
    orbits = []
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
        orbits.append(sorted(orbit.values(), key=lambda v: _matrix_sort_key(v.key())))
    orbits.sort(key=lambda orb: _matrix_sort_key(orb[0].key()))
    return orbits


def test_orbit_decomposition_matches_closure_d4():
    # at d = 4 enumerating the whole stabilizer is too slow, so the closure
    # on normal forms is the oracle
    for label in ((1, 0, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0)):
        for k in (1, 2):
            got = orbit_decomposition(label, 2, k)
            assert got == orbits_by_closure(label, 2, k), (label, k)
            assert sum(map(len, got)) == gaussian_binomial(4, k, 2)


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
        assert witness == LaurentMatrix.diagonal((0, 0, 0), 2)


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
            lab, _ = reduce_to_domain(vertex_normal_form(m))
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
        assert set(det.coeffs) == {0}


def step_tracked_reduction(v):
    """reduce_to_domain's label and witness, the witness taking every step of
    the weak Popov pass over F_q[t] along with the basis rows.  A row leads
    at its rightmost entry of top degree.  The rows come in order, and
    while row i leads where an earlier row j does, the one of higher
    degree (row i on a tie) takes c t^shift times the other, which cancels
    its leading term, and the other one holds the position."""
    d, q = v.d, v.q
    rows = [list(row) for row in v.basis.rows]
    witness = [[LaurentPoly({0: int(i == j)}, q) for j in range(d)] for i in range(d)]

    def lead(i):
        deg = max(x.degree() for x in rows[i] if x)
        return deg, max(j for j, x in enumerate(rows[i]) if x and x.degree() == deg)

    owner = {}
    for i in range(d):
        while (j := owner.get(lead(i)[1])) is not None:
            if lead(j)[0] > lead(i)[0]:
                owner[lead(i)[1]] = i
                i, j = j, i
            (deg_i, pos), deg_j = lead(i), lead(j)[0]
            c = rows[i][pos].coeff(deg_i) * pow(rows[j][pos].coeff(deg_j), -1, q)
            mono = LaurentPoly({deg_i - deg_j: -c}, q)
            rows[i] = [x + mono * y for x, y in zip(rows[i], rows[j])]
            witness[i] = [x + mono * y for x, y in zip(witness[i], witness[j])]
        owner[lead(i)[1]] = i
    degs = [lead(i)[0] for i in range(d)]
    order = sorted(range(d), key=lambda i: (-degs[i], i))
    label = tuple(degs[i] - min(degs) for i in order)
    return label, LaurentMatrix([witness[i] for i in order], q)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_solved_witness_matches_step_tracked_witness(d):
    rng = random.Random(500 + d)
    for _ in range(6):
        q = rng.choice((2, 3))
        n1 = rng.randint(0, 6)
        label = [n1] + sorted((rng.randint(0, n1) for _ in range(d - 2)), reverse=True) + [0]
        m = random_gamma(d, q, 3, rng) * LaurentMatrix.diagonal(label, q) * random_k(d, q, 3, rng)
        v = vertex_normal_form(m)
        got = reduce_to_domain(v)
        assert got[0] == tuple(label)
        assert got == step_tracked_reduction(v)


def witness_from_rows(v, degs, rows):
    """The witness W = R B^-1 for the reduced LaurentPoly rows R, taken in
    label order, by one forward substitution per row in LaurentPoly
    arithmetic, w_j = (r_j - sum_{k<j} w_k B[k][j]) / t^profile_j, in
    place of the back-substitution on reversed transposes."""
    d, q = v.d, v.q
    basis = v.basis.rows
    witness = []
    for i in sorted(range(d), key=lambda i: (-degs[i], i)):
        w = []
        for j in range(d):
            acc = rows[i][j]
            for k in range(j):
                acc = acc - w[k] * basis[k][j]
            w.append(acc * LaurentPoly({-v.profile[j]: 1}, q))
        witness.append(w)
    return LaurentMatrix(witness, q)


def witness_by_forward_substitution(v):
    """reduce_to_domain's witness, solved by `witness_from_rows` from the
    rows the weak Popov pass leaves, unpacked from their keys e d + j."""
    d, q = v.d, v.q
    degs, packed = building._weak_popov([[dict(x.coeffs) for x in row] for row in v.basis.rows], q)
    rows = [[{} for _ in range(d)] for _ in range(d)]
    for row, keys in zip(rows, packed):
        for key, c in keys.items():
            row[key % d][key // d] = c
    return witness_from_rows(v, degs, [[LaurentPoly(x, q) for x in row] for row in rows])


def test_witness_matches_forward_substitution():
    rng = random.Random(601)
    for d in range(2, 7):
        for q in (2, 3, 5):
            for _ in range(3):
                label = [rng.randint(0, 5)]
                label += sorted((rng.randint(0, label[0]) for _ in range(d - 2)), reverse=True) + [0]
                m = random_gamma(d, q, 2, rng) * LaurentMatrix.diagonal(label, q) * random_k(d, q, 2, rng)
                v = vertex_normal_form(m)
                assert reduce_to_domain(v)[1] == witness_by_forward_substitution(v), (d, q, label)


def elementary_product(d, q, exponents, count, rng):
    """A product of `count` elementary matrices I + c t^e E_ij, i != j, each
    e drawn from `exponents`: in GL_d(F_q[t]) for exponents >= 0 and in
    GL_d(O) for exponents <= 0, with few nonzero entries."""
    m = LaurentMatrix.diagonal((0,) * d, q)
    for _ in range(count):
        i, j = rng.sample(range(d), 2)
        rows = [[LaurentPoly({0: 1} if a == b else {}, q) for b in range(d)] for a in range(d)]
        rows[i][j] = LaurentPoly({rng.choice(exponents): rng.randrange(1, q)}, q)
        m = m * LaurentMatrix(rows, q)
    return m


def witness_terms(w):
    return sum(len(x.coeffs) for row in w.rows for x in row)


def test_witness_on_dense_and_sparse_inputs():
    # the witness that the weak Popov pass leaves, on seeded dense inputs
    # (random_gamma, random_k) and sparse ones (a few elementary matrices
    # on each side of the label's diagonal): the drawn label, a witness
    # over F_q[t] of constant determinant that takes the basis to the
    # label's vertex, and no more than 1.6 times the terms of the witness
    # solved from the null-vector reduction's rows
    rng = random.Random(36)
    terms = oracle_terms = 0
    for d in range(2, 9):
        for q in (2, 3, 5):
            label = [rng.randint(0, 6)]
            label = tuple(label + sorted((rng.randint(0, label[0]) for _ in range(d - 2)), reverse=True) + [0])
            diag = LaurentMatrix.diagonal(label, q)
            for m in (
                random_gamma(d, q, 2, rng) * diag * random_k(d, q, 2, rng),
                elementary_product(d, q, range(4), d, rng) * diag * elementary_product(d, q, range(-3, 1), d, rng),
            ):
                v = vertex_normal_form(m)
                got, witness = reduce_to_domain(v)
                assert got == label, (m, got)
                assert set(witness.det().coeffs) == {0}, m
                assert all(e >= 0 for row in witness.rows for x in row for e in x.coeffs), m
                assert vertex_normal_form(witness * v.basis) == vertex_from_label(label, q), m
                rows = list(v.basis.rows)
                degs = reduce_rows_by_dot(rows, sum(v.profile), q, False)
                terms += witness_terms(witness)
                oracle_terms += witness_terms(witness_from_rows(v, degs, rows))
    assert terms <= 1.6 * oracle_terms, (terms, oracle_terms)


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


def test_reduce_wrong_determinant_is_internal():
    # a profile that misstates the determinant leaves row degrees
    # unaccounted; only the unchecked constructor can build such a vertex
    v = vertex_from_label((2, 1, 0), 2)
    for profile in ((3, 1, 0), (1, 1, 0)):
        with pytest.raises(InternalInvariantError):
            reduce_to_domain(building._vertex(v.basis, profile))
    # a matrix is not a vertex: its normal form comes first
    with pytest.raises(InvalidInputError):
        reduce_to_domain(v.basis)
