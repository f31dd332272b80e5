"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible under pytest -s or -v via the
test name) and enforces the criterion's runtime bound.  Tolerances are
exact equality unless the criterion itself states a numeric tolerance.
"""

import random
import time
from fractions import Fraction
from math import comb

from btq import building, domain, hecke, quotient
from btq.cli import main as cli_main
from btq.gf import gaussian_binomial
from btq.laurent import LaurentMatrix, random_gamma, random_k
import test_quotient as quotient_tests


def _report(name, elapsed, bound):
    print(f"{name}: PASS ({elapsed:.1f}s, bound {bound}s)")
    assert elapsed < bound, f"{name} exceeded its runtime bound"


def test_criterion_1_stabilizer_orders():
    t0 = time.time()
    for d in (2, 3):
        for q in (2, 3):
            for lab in domain.enumerate_domain(d, 2):
                group = list(domain.stabilizer_enumerate(lab, q))
                assert len(group) == domain.stabilizer_order(lab, q), (lab, q)
    assert domain.stabilizer_order((0, 0, 0), 2) == 168
    assert domain.stabilizer_order((2, 1, 0), 2) == 128
    _report("criterion 1 (stabilizer orders vs enumeration)", time.time() - t0, 30)


def test_criterion_2_edge_table():
    t0 = time.time()
    for u, v, etype in quotient_tests.EDGE_TYPE_CASES:
        assert quotient.classify_edge_d3(u, v) == etype
    # stabilizer and ratio forms at q in {2, 3, 5, 7}, brute force at q = 2
    quotient_tests.test_edge_stabilizer_table_consistency()
    quotient_tests.test_edge_stabilizer_brute_force_agreement()
    _report("criterion 2 (d=3 edge table, 12 types, q in {2,3,5,7} + brute force)",
            time.time() - t0, 120)


def test_criterion_3_covolume():
    t0 = time.time()
    assert hecke.covolume(2, 2) == Fraction(2, 3)
    for d, q in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        closed = hecke.covolume(d, q)
        partial40 = hecke.covolume_partial(d, q, 40)
        assert partial40 < closed
        gap = closed - partial40
        assert gap < Fraction(1, 10**8), (d, q, float(gap))
        prev_gap = None
        for m in (10, 20, 30, 40):
            g = closed - hecke.covolume_partial(d, q, m)
            assert g > 0
            if prev_gap is not None:
                assert g < prev_gap
            prev_gap = g
    _report("criterion 3 (covolume closed form vs partial sums)", time.time() - t0, 60)


def test_criterion_4_domain_reduction():
    t0 = time.time()
    q = 2
    rng = random.Random(2024)
    labels = domain.enumerate_domain(3, 3)
    for lab in labels:
        got, wit = domain.reduce_to_domain(building.vertex_from_label(lab, q))
        assert got == lab and wit == LaurentMatrix.diagonal((0, 0, 0), q)
    for i in range(500):
        lab = labels[i % len(labels)]
        g = random_gamma(3, q, 3, rng)
        k = random_k(3, q, 16, rng)
        v = building.vertex_normal_form(g * building.vertex_from_label(lab, q).basis * k)
        got, wit = domain.reduce_to_domain(v)
        assert got == lab, (i, lab, got)
        assert building.vertex_normal_form(wit * v.basis) == building.vertex_from_label(lab, q)
        det = wit.det()
        assert set(det.coeffs) == {0}
    _report("criterion 4 (500 random reductions with witnesses)", time.time() - t0, 120)


def test_criterion_5_neighbor_combinatorics():
    t0 = time.time()
    q = 2
    # building neighbor counts on the radius-2 ball around the origin
    origin = building.vertex_from_label((0, 0, 0), q)
    ball = {origin.key(): origin}
    frontier = [origin]
    for _ in range(2):
        nxt = []
        for v in frontier:
            for w in building.neighbors(v, 1) + building.neighbors(v, 2):
                if w.key() not in ball:
                    ball[w.key()] = w
                    nxt.append(w)
        frontier = nxt
    for v in ball.values():
        for k in (1, 2):
            nbrs = building.neighbors(v, k)
            assert len(nbrs) == len(set(nbrs)) == gaussian_binomial(3, k, q)
    # in-domain count law
    for d in (3, 4, 5):
        for lab in domain.enumerate_domain(d, 8):
            expected = 1 + sum(a != b for a, b in zip(lab, lab[1:]))
            assert len(domain.neighbors_in_domain(lab, 1)) == expected
    # friends = the singleton orbits of the stabilizer action, exactly
    for lab in domain.enumerate_domain(3, 2) + [(1, 1, 0, 0), (2, 1, 0, 0)]:
        fr = domain.friends(lab)
        for k in range(1, len(lab)):
            orbits = domain.orbit_decomposition(lab, q, k)
            fixed = {o[0] for o in orbits if len(o) == 1}
            expected = (
                {building.vertex_from_label(fr[k], q)} if k in fr else set()
            )
            assert fixed == expected, (lab, k)
    _report("criterion 5 (neighbor counts, count law, friends = fixed points)",
            time.time() - t0, 60)


def test_criterion_6_hecke_identities():
    t0 = time.time()
    for q in (2, 3):
        graph = quotient.build_graph(3, q, 12)
        t3 = q * q + q + 1
        for u in graph.nodes:
            if u[0] < graph.max_n1:
                assert sum(r for _, r in graph.forward[graph.index[u]]) == t3
        ones = hecke.DomainFunction(3, q, 12, dict.fromkeys(graph.nodes, Fraction(1)))
        for i in (1, 2):
            out = hecke.apply_hecke(graph, i, ones)
            assert out.values and all(v == t3 for v in out.values.values())
        for seed in range(25):
            f = hecke.DomainFunction.random_integer(3, q, 12, seed)
            assert hecke.commutator_check(graph, f) == 0
        rng = random.Random(q)
        interior = {u for u in graph.nodes if u[0] + 2 <= graph.max_n1}
        for _ in range(5):
            fv = {u: Fraction(rng.randint(-9, 9)) if u in interior else Fraction(0)
                  for u in graph.nodes}
            gv = {u: Fraction(rng.randint(-9, 9)) if u in interior else Fraction(0)
                  for u in graph.nodes}
            f = hecke.DomainFunction(3, q, 12, fv)
            g = hecke.DomainFunction(3, q, 12, gv)
            assert hecke.adjointness_residual(graph, f, g) == 0
    _report("criterion 6 (row sums, 50 commutators, adjointness at max_n1=12)",
            time.time() - t0, 60)


def test_criterion_7_eigenvector_regression():
    t0 = time.time()
    rng = random.Random(7)
    asserted = {f"{a}{b}0" for a in range(5) for b in range(a + 1)}
    for trial in range(20):
        q = (2, 3, 5)[trial % 3]
        params = (
            Fraction(rng.randint(-60, 60), rng.randint(1, 15)),
            Fraction(rng.randint(-60, 60), rng.randint(1, 15)),
            q,
        )
        func, residuals = hecke.eigenvector_d3(*params, 6)
        assert all(res == 0 for _, res in residuals)
        report = hecke.closed_form_regression(*params)
        for name, entry in report.items():
            if name in asserted:
                assert entry["status"] == "asserted" and entry["match"], (name, params)
            else:
                assert entry["status"] == "flagged"
                print(f"  flagged {name}: residual {entry['residual']}")
    # root-of-unity coloring at max_n1 = 20 needs arbitrary-precision complex:
    # the forward recursion amplifies double rounding by ~x4 per diagonal
    import mpmath

    with mpmath.workdps(60):
        q = 2
        t3 = q * q + q + 1
        rho = mpmath.exp(2j * mpmath.pi / 3)
        func, residuals = hecke.eigenvector_d3(rho * t3, rho**2 * t3, q, 20)
        for (a, b, _), val in func.values.items():
            assert abs(complex(val) - complex(rho ** (a + b))) < 1e-9
    _report("criterion 7 (closed-form regression + root-of-unity coloring)",
            time.time() - t0, 30)


def test_criterion_8_d2_tree():
    t0 = time.time()
    rng = random.Random(8)
    done = 0
    while done < 20:
        q = (2, 3)[done % 2]
        lam = Fraction(rng.randint(-40, 40), rng.randint(1, 10))
        if lam * lam == 4 * q:
            continue
        f = hecke.eigenvector_d2(lam, q, 30)
        # the closed form as an exact binomial sum: f_n = lam/(q+1) U_n -
        # q U_(n-1), U the Lucas sequence of x^2 - lam x + q
        u = [
            sum((comb(m - 1 - k, k) * lam ** (m - 1 - 2 * k) * (-q) ** k
                 for k in range((m + 1) // 2)), Fraction(0))
            for m in range(31)
        ]
        for n in range(31):
            assert f[(n, 0)] == (1 if n == 0 else lam / (q + 1) * u[n] - q * u[n - 1])
        lamc = complex(lam)
        fc = hecke.eigenvector_d2(lamc, q, 30)
        for n in range(31):
            closed = hecke.eigenvector_d2_closed_form(lamc, q, n)
            assert abs(fc[(n, 0)] - closed) <= 1e-9 * max(1.0, abs(closed))
        done += 1
    _report("criterion 8 (d=2 recursion vs closed form, both backends)",
            time.time() - t0, 5)


def test_criterion_9_distance_discrepancy(capsys):
    t0 = time.time()
    q = 2
    v210 = building.vertex_from_label((2, 1, 0), q)
    origin3 = building.vertex_from_label((0, 0, 0), q)
    assert building.bfs_distance(v210, origin3, 4) == 2
    assert building.distance_formulas((2, 1, 0), (0, 0, 0))[0] == 1
    origin2 = building.vertex_from_label((0, 0), q)
    for n in range(1, 7):
        vn = building.vertex_from_label((n, 0), q)
        assert building.bfs_distance(vn, origin2, 8) == n
        assert building.distance_formulas((n, 0), (0, 0))[0] == (n + 1) // 2
    code = cli_main(["distance", "--n", "2,1,0", "--m", "0,0,0", "--q", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bfs_distance 2" in out and "formula_distance 1" in out
    assert "note:" in out
    _report("criterion 9 (BFS vs formula discrepancy, CLI surface)",
            time.time() - t0, 60)