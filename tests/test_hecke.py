"""Operators, eigenvector recursions, closed forms, norms and covolume."""

import cmath
import random
from fractions import Fraction
from math import comb

import pytest

from btq import domain, hecke
from btq.domain import enumerate_domain, stabilizer_order
from btq.errors import InternalInvariantError, InvalidInputError, ResourceBoundError
from btq.gf import gaussian_binomial, gl_order
from btq.hecke import (
    CLOSED_FORMS,
    COMPLEX_TOLERANCE,
    DomainFunction,
    adjointness_residual,
    apply_hecke,
    closed_form_regression,
    commutator_check,
    covolume,
    covolume_partial,
    eigenvector_d2,
    eigenvector_d2_closed_form,
    eigenvector_d3,
    l2_partial_norm,
    scalars_close,
    weighted_inner,
)
from btq.quotient import QuotientGraph, build_graph


def rational_params(seed, q=2):
    """(lambda1, lambda2, q) with random rational eigenvalues."""
    rng = random.Random(seed)
    l1 = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    l2 = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    return l1, l2, q


# -- operators ----------------------------------------------------------------


def test_apply_hecke_reference_values():
    q = 2
    t3 = q * q + q + 1
    g = build_graph(3, q, 6)
    f = DomainFunction.random_integer(3, q, 6, seed=5)
    a1 = apply_hecke(g, 1, f)
    a2 = apply_hecke(g, 2, f)
    F = f.values
    assert a1.values[(0, 0, 0)] == t3 * F[(1, 0, 0)]
    assert a2.values[(0, 0, 0)] == t3 * F[(1, 1, 0)]
    assert a1.values[(1, 0, 0)] == (q + 1) * q * F[(1, 1, 0)] + F[(2, 0, 0)]
    assert a2.values[(1, 0, 0)] == (q + 1) * F[(2, 1, 0)] + q**2 * F[(0, 0, 0)]
    assert a1.values[(2, 1, 0)] == F[(3, 1, 0)] + q * F[(2, 2, 0)] + q**2 * F[(1, 0, 0)]
    assert a2.values[(2, 1, 0)] == F[(3, 2, 0)] + q * F[(2, 0, 0)] + q**2 * F[(1, 1, 0)]


def test_apply_hecke_d2():
    q = 3
    g = build_graph(2, q, 8)
    f = DomainFunction.random_integer(2, q, 8, seed=6)
    a1 = apply_hecke(g, 1, f)
    assert a1.values[(0, 0)] == (q + 1) * f.values[(1, 0)]
    for n in range(1, 8):
        assert a1.values[(n, 0)] == q * f.values[(n - 1, 0)] + f.values[(n + 1, 0)]


def test_boundary_is_undefined_not_zero():
    g = build_graph(3, 2, 4)
    f = DomainFunction(3, 2, 4, dict.fromkeys(enumerate_domain(3, 4), Fraction(1)))
    a1 = apply_hecke(g, 1, f)
    assert (4, 2, 0) not in a1.values
    assert (3, 2, 0) in a1.values
    with pytest.raises(InvalidInputError):
        a1[(4, 2, 0)]


def test_constant_eigenfunction():
    for d, q in ((2, 2), (3, 2), (3, 3)):
        g = build_graph(d, q, 6)
        one = DomainFunction(d, q, 6, dict.fromkeys(enumerate_domain(d, 6), Fraction(1)))
        expected = gaussian_binomial(d, 1, q)
        for i in (1, d - 1) if d > 2 else (1,):
            out = apply_hecke(g, i, one)
            assert out.values and all(v == expected for v in out.values.values())


def test_commutator_vanishes_random():
    for q in (2, 3):
        g = build_graph(3, q, 9)
        for seed in range(8):
            f = DomainFunction.random_integer(3, q, 9, seed=seed)
            assert commutator_check(g, f) == 0
    # A_1 and A_(d-1) commute at every d; at d = 2 they are one operator
    for d, q, max_n in ((4, 2, 4), (4, 3, 3), (4, 2, 6), (5, 2, 3), (6, 2, 3), (2, 2, 6)):
        g = build_graph(d, q, max_n)
        for seed in range(3):
            f = DomainFunction.random_integer(d, q, max_n, seed=seed)
            assert commutator_check(g, f) == 0, (d, q, max_n, seed)
    # float values enter as their Fractions, so the commutator is exactly 0
    g = build_graph(3, 2, 8)
    rng = random.Random(1)
    f = DomainFunction(3, 2, 8, {u: rng.uniform(-1, 1) for u in g.labels})
    assert all(type(x) is Fraction for x in f.values.values())
    commutator = commutator_check(g, f)
    assert type(commutator) is Fraction and commutator == 0
    # the check sees a wrong edge at d != 3 too
    g = one_wrong_ratio(4, 2, 4)
    f = DomainFunction.random_integer(4, 2, 4, seed=0)
    assert commutator_check(g, f) != 0


def test_commutator_needs_interior():
    for d, max_n in ((3, 1), (4, 1), (2, 0)):
        g = build_graph(d, 2, max_n)
        f = DomainFunction(d, 2, max_n, dict.fromkeys(enumerate_domain(d, max_n), Fraction(1)))
        with pytest.raises(InvalidInputError):
            commutator_check(g, f)


def test_adjointness_exact():
    q = 2
    N = 9
    g = build_graph(3, q, N)
    rng = random.Random(11)
    interior = {u for u in g.nodes if u[0] + 2 <= N}
    for _ in range(5):
        fv = {u: Fraction(rng.randint(-9, 9)) if u in interior else Fraction(0) for u in g.nodes}
        gv = {u: Fraction(rng.randint(-9, 9)) if u in interior else Fraction(0) for u in g.nodes}
        f = DomainFunction(3, q, N, fv)
        h = DomainFunction(3, q, N, gv)
        assert adjointness_residual(g, f, h) == 0


def one_wrong_ratio(d, q, max_n1):
    """The graph with the first ratio of the zero label's forward row off by one."""
    g = build_graph(d, q, max_n1)
    row = g.forward[g.index[(0,) * d]]
    row[0] = (row[0][0], row[0][1] + 1)
    return g


def wrong_edge_graph(d, q, max_n1):
    """The graph rebuilt from its edges with the ratio_from of the first edge
    out of the zero label off by one: `one_wrong_ratio` read off the edges."""
    g = build_graph(d, q, max_n1)
    edges = list(g.edges)
    k = next(k for k, e in enumerate(edges) if e.src == (0,) * d)
    edges[k] = edges[k]._replace(ratio_from=edges[k].ratio_from + 1)
    return QuotientGraph(d, q, max_n1, g.nodes, edges)


def label_keyed_hecke(g, i, values):
    """(A_i f) on a label-keyed dict, read off the edges and independent of
    the id rows: color 1 sums ratio_from * f(dst) over the edges out of u,
    color d-1 ratio_to * f(src) over the edges into u.  Boundary vertices
    (n_1 = max_n1) and those reaching an undefined value are left out."""
    adjacent = {u: [] for u in g.nodes}
    for e in g.edges:
        if i == 1:
            adjacent[e.src].append((e.dst, e.ratio_from))
        else:
            adjacent[e.dst].append((e.src, e.ratio_to))
    out = {}
    for u in g.nodes:
        if u[0] >= g.max_n1:
            continue
        acc = None
        for other, ratio in adjacent[u]:
            if other not in values:
                break
            term = ratio * values[other]
            acc = term if acc is None else acc + term
        else:
            if acc is not None:
                out[u] = acc
    return out


def label_keyed_commutator(g, values):
    top = g.d - 1
    left = label_keyed_hecke(g, 1, label_keyed_hecke(g, top, values))
    right = label_keyed_hecke(g, top, label_keyed_hecke(g, 1, values))
    return max(abs(left[u] - right[u]) for u in sorted(left.keys() & right.keys()))


def label_keyed_adjointness(g, f, h):
    """<A_1 f, h> - <f, A_{d-1} h> summed in label order, for f and h that
    vanish wherever the operators leave their images undefined."""

    def pairing(x, y):
        total = 0
        for u in sorted(x.keys() & y.keys()):
            total = total + Fraction(1, g.nodes[u]) * x[u] * y[u].conjugate()
        return total

    return pairing(label_keyed_hecke(g, 1, f), h) - pairing(f, label_keyed_hecke(g, g.d - 1, h))


@pytest.mark.parametrize("wrong", [False, True])
@pytest.mark.parametrize(
    "d, q, max_n1",
    [(2, 2, 8), (2, 3, 8), (3, 2, 7), (3, 3, 6), (4, 2, 5), (4, 3, 4), (5, 2, 4), (5, 3, 3)],
)
def test_id_rows_match_the_label_keyed_oracle(d, q, max_n1, wrong):
    g = wrong_edge_graph(d, q, max_n1) if wrong else build_graph(d, q, max_n1)
    if wrong:
        assert g.forward == one_wrong_ratio(d, q, max_n1).forward
    rng = random.Random(f"{d} {q} {max_n1}")
    interior = {u for u in g.nodes if u[0] + 2 <= max_n1}
    draws = {
        "int": lambda: rng.randint(-50, 50),
        "fraction": lambda: Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
        "complex": lambda: complex(rng.randint(-9, 9), rng.randint(-9, 9)),
    }
    for kind, draw in draws.items():
        f = DomainFunction(d, q, max_n1, {u: draw() for u in g.nodes})
        # a function with holes: every vertex that reaches one is undefined
        holes = DomainFunction(d, q, max_n1, {u: x for u, x in f.values.items() if rng.random() < 0.9})
        for func in (f, holes):
            for i in {1, d - 1}:
                out = apply_hecke(g, i, func)
                assert out.values == label_keyed_hecke(g, i, func.values), (kind, i)
                assert list(out.values) == sorted(out.values)
        zero = 0 * draw()
        pair = [{u: draw() if u in interior else zero for u in g.nodes} for _ in range(2)]
        commutator = commutator_check(g, f)
        adjointness = adjointness_residual(g, *(DomainFunction(d, q, max_n1, v) for v in pair))
        assert commutator == label_keyed_commutator(g, f.values), kind
        assert adjointness == label_keyed_adjointness(g, *pair), kind
        if kind != "complex":  # complex residuals of the exact graph are rounding
            assert (commutator != 0) == (wrong and d > 2)
            assert (adjointness != 0) == wrong


def direct_commutator(g, f):
    """max |(A_1 A_2 - A_2 A_1) f|, the operators applied to f unscaled."""
    a12 = apply_hecke(g, 1, apply_hecke(g, 2, f))
    a21 = apply_hecke(g, 2, apply_hecke(g, 1, f))
    return max(abs(a12.values[u] - a21.values[u]) for u in set(a12.values) & set(a21.values))


def direct_adjointness(g, f, h):
    """<A_1 f, h> - <f, A_{d-1} h>, the operators applied unscaled."""
    a1f = apply_hecke(g, 1, f)
    a2h = apply_hecke(g, g.d - 1, h)
    return weighted_inner(g, a1f, h) - weighted_inner(g, f, a2h)


@pytest.mark.parametrize("kind", ["fraction", "int", "mixed"])
def test_integer_scaled_checks_match_direct_sums(kind):
    q, N = 2, 8
    g = one_wrong_ratio(3, q, N)
    rng = random.Random(kind)
    interior = {u for u in g.nodes if u[0] + 2 <= N}

    def value(u):
        if u not in interior:
            return 0 if kind == "int" else Fraction(0)
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return rng.randint(-50, 50)
        return Fraction(rng.randint(-50, 50), rng.randint(1, 20))

    f = DomainFunction(3, q, N, {u: value(u) for u in g.nodes})
    h = DomainFunction(3, q, N, {u: value(u) for u in g.nodes})
    commutator = commutator_check(g, f)
    adjointness = adjointness_residual(g, f, h)
    assert type(commutator) is Fraction and commutator != 0
    assert commutator == direct_commutator(g, f)
    assert type(adjointness) is Fraction and adjointness != 0
    assert adjointness == direct_adjointness(g, f, h)


def test_drawn_integer_functions_check_as_their_rationals():
    # random_integer draws one randint per label in lexicographic order,
    # and the checks run on those ints as they are: no factor
    q, N = 2, 8
    g = one_wrong_ratio(3, q, N)
    interior = {u for u in g.nodes if u[0] + 2 <= N}
    drawn = []
    for seed in (1, 2):
        f = DomainFunction.random_integer(3, q, N, seed)
        rng = random.Random(seed)
        assert all(type(x) is int for x in f.values.values())
        assert f.values == {u: rng.randint(-50, 50) for u in enumerate_domain(3, N)}
        drawn.append(DomainFunction(3, q, N, {u: f[u] if u in interior else 0 for u in g.nodes}))
    commutator = commutator_check(g, drawn[0])
    assert type(commutator) is Fraction and commutator != 0
    assert commutator == direct_commutator(g, drawn[0])
    adjointness = adjointness_residual(g, *drawn)
    assert type(adjointness) is Fraction and adjointness != 0
    assert adjointness == direct_adjointness(g, *drawn)


def test_integer_scaled_checks_leave_complex_input_generic():
    q, N = 2, 6
    g = one_wrong_ratio(3, q, N)
    rng = random.Random(3)
    interior = {u for u in g.nodes if u[0] + 2 <= N}
    vals = {u: complex(rng.randint(-9, 9), rng.randint(-9, 9)) if u in interior else 0j
            for u in g.nodes}
    f = DomainFunction(3, q, N, vals)
    # one complex value sends an otherwise exact function down the generic path
    mixed = DomainFunction(3, q, N, {**f.values, (0, 0, 0): Fraction(1, 3)})
    for func in (f, mixed):
        commutator = commutator_check(g, func)
        assert type(commutator) is float and commutator == direct_commutator(g, func)
        adjointness = adjointness_residual(g, func, f)
        assert type(adjointness) is complex and adjointness == direct_adjointness(g, func, f)


def test_weighted_inner_rejects_lossy_pairing():
    g = build_graph(3, 2, 3)
    f = DomainFunction(3, 2, 3, dict.fromkeys(enumerate_domain(3, 3), Fraction(1)))
    a1 = apply_hecke(g, 1, f)  # undefined on the outer shell
    with pytest.raises(InvalidInputError):
        weighted_inner(g, a1, f)
    # a function on another building would read as undefined everywhere
    g = build_graph(3, 2, 8)
    f = DomainFunction.random_integer(3, 2, 8, 1)
    for other in (DomainFunction.random_integer(4, 2, 8, 1), DomainFunction.random_integer(3, 3, 8, 1)):
        for call in (lambda: apply_hecke(g, 1, other), lambda: commutator_check(g, other),
                     lambda: weighted_inner(g, other, other), lambda: adjointness_residual(g, other, other),
                     lambda: adjointness_residual(g, f, other)):
            with pytest.raises(InvalidInputError, match="building"):
                call()
    # a smaller truncation of the same building is undefined beyond it, the
    # boundary marker
    small = DomainFunction.random_integer(3, 2, 4, 1)
    assert apply_hecke(g, 1, small).values == apply_hecke(build_graph(3, 2, 4), 1, small).values != {}


# -- eigenvectors -------------------------------------------------------------


def test_eigenvector_d3_first_values():
    l1, l2, q = rational_params(3)
    t3, r = Fraction(q * q + q + 1), Fraction(q + 1)
    f, residuals = eigenvector_d3(l1, l2, q, 6)
    assert f[(0, 0, 0)] == 1
    assert f[(1, 0, 0)] == l1 / t3
    assert f[(1, 1, 0)] == l2 / t3
    assert f[(2, 1, 0)] == (l1 * l2 - q**2 * t3) / (t3 * r)
    assert f[(3, 2, 0)] == (l1 * l2**2 - q * r * l1**2 - l2 * q**2) / (r * t3)
    assert all(res == 0 for _, res in residuals)


def test_eigenvector_d3_is_simultaneous_eigenvector():
    # the operators share no case split with the recursion, so this is the
    # check of eigenvector_d3 that does not go through hand_recursion_d3
    for q in (2, 3, 5):
        g = build_graph(3, q, 9)
        for seed in (8, 9, 10):
            l1, l2, _ = rational_params(seed, q=q)
            f, _ = eigenvector_d3(l1, l2, q, 9)
            for i, lam in ((1, l1), (2, l2)):
                out = apply_hecke(g, i, f)
                assert len(out.values) == len(enumerate_domain(3, 8)), (q, seed, i)
                for u, val in out.values.items():
                    assert val == lam * f[u], (q, seed, i, u)


def hand_recursion_d3(l1, l2, q, max_n1):
    """The d = 3 recursion written out case by case on the eigenvalues
    themselves, through the number protocol: (values, residuals).

    eigenvector_d3 writes the same cases, so this checks its integer form
    N(a, b) and its order of operations on inexact scalars, not the cases;
    test_eigenvector_d3_is_simultaneous_eigenvector checks those against
    the operators."""
    t3, r = q * q + q + 1, q + 1
    f, residuals = {}, []

    def F(a, b):
        return f[(a, b, 0)]

    for s in range(2 * max_n1 + 1):
        for b in range(s // 2, -1, -1):
            a = s - b
            if a > max_n1:
                continue
            if (a, b) == (0, 0):
                val = l1 * 0 + 1
            elif (a, b) == (1, 0):
                val = l1 * F(0, 0) / t3
            elif (a, b) == (1, 1):
                val = l2 * F(0, 0) / t3
            elif (a, b) == (2, 1):
                val = (l2 * F(1, 0) - q**2 * F(0, 0)) / r
            elif b == 0:
                val = l1 * F(a - 1, 0) - r * q * F(a - 1, 1)
            elif b == a:
                val = l2 * F(a - 1, a - 1) - q * r * F(a - 1, a - 2)
            elif b == 1:
                val = (l2 * F(a - 1, 0) - q**2 * F(a - 2, 0)) / r
                second = l1 * F(a - 1, 1) - q * F(a - 1, 2) - q**2 * F(a - 2, 0)
                residuals.append(((a, b, 0), val - second))
            elif b == a - 1:
                val = (l1 * F(a - 1, a - 1) - q**2 * F(a - 2, a - 2)) / r
                second = l2 * F(a - 1, a - 2) - q * F(a - 1, a - 3) - q**2 * F(a - 2, a - 2)
                residuals.append(((a, b, 0), val - second))
            else:
                val = l2 * F(a - 1, b - 1) - q * F(a - 1, b - 2) - q**2 * F(a - 2, b - 1)
                second = l1 * F(a - 1, b) - q * F(a - 1, b + 1) - q**2 * F(a - 2, b - 1)
                residuals.append(((a, b, 0), val - second))
            f[(a, b, 0)] = val
    return f, residuals


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_eigenvector_d3_integer_recursion_matches_number_protocol(q):
    # exact eigenvalues run the recursion on integers, and the hand
    # recursion runs its cases on Fractions through the number protocol
    rng = random.Random(q)
    for _ in range(8):
        l1 = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        l2 = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        max_n = rng.randint(2, 12)
        func, residuals = eigenvector_d3(l1, l2, q, max_n)
        values, hand_residuals = hand_recursion_d3(l1, l2, q, max_n)
        assert list(func.values.items()) == list(values.items()), (l1, l2, max_n)
        assert residuals == hand_residuals, (l1, l2, max_n)
        assert all(type(v) is Fraction for v in func.values.values())
        assert all(type(res) is Fraction and res == 0 for _, res in residuals)


def test_eigenvector_d3_complex_matches_hand_recursion():
    # the number protocol keeps the order of every operation, so every value
    # and residual agrees to the bit; repr tells -0.0 from 0.0, which == does not
    import mpmath

    cases = [
        (1 + 2j, 0.5 - 1j, 3),
        (0j, 1 + 2j, 3),
        (3.5j, -2 + 0j, 2),
        (complex(-0.0, -1.0), complex(-0.0, -0.5), 5),
        (mpmath.mpc(1, 2), mpmath.mpc("-0.5", "0.25"), 3),
    ]
    for l1, l2, q in cases:
        func, residuals = eigenvector_d3(l1, l2, q, 14)
        values, hand_residuals = hand_recursion_d3(l1, l2, q, 14)
        assert [(u, repr(x)) for u, x in func.values.items()] == [
            (u, repr(x)) for u, x in values.items()
        ], (l1, l2, q)
        assert [(u, repr(x)) for u, x in residuals] == [
            (u, repr(x)) for u, x in hand_residuals
        ], (l1, l2, q)


def test_eigenvector_d3_requires_depth():
    with pytest.raises(InvalidInputError):
        eigenvector_d3(*rational_params(1), 1)


def test_every_closed_form_matches_the_recursion():
    # the flagged fifth diagonal included: 'flagged' only keeps the status
    # that the regression output prints
    for q in (2, 3, 5, 7, 11):
        for seed in range(40):
            report = closed_form_regression(*rational_params(10 + seed, q=q))
            for name, entry in report.items():
                assert entry["match"] and entry["residual"] == 0, (name, q, seed)


def test_integer_eigenvalues_stay_exact():
    # ints (and floats) enter as Fractions, so the recursion, its residuals
    # and the closed forms are exact
    f, residuals = eigenvector_d3(3, 2, 2, 6)
    assert all(type(v) is Fraction for v in f.values.values())
    assert residuals and all(res == 0 and type(res) is Fraction for _, res in residuals)
    for name, entry in closed_form_regression(3, 2, 2, f).items():
        assert entry["match"] or entry["status"] == "flagged", name
    assert closed_form_regression(0.5, 3, 2)["210"]["residual"] == 0
    g = eigenvector_d2(0.5, 3, 6)
    assert all(type(v) is Fraction for v in g.values.values())
    with pytest.raises(InvalidInputError):
        eigenvector_d2(float("inf"), 3, 6)


def test_scalars_close_forks_on_exactness():
    tiny = Fraction(1, 10**12)
    assert scalars_close(Fraction(1, 3), Fraction(1, 3)) and scalars_close(2, Fraction(2))
    assert not scalars_close(Fraction(1, 3), Fraction(1, 3) + tiny)
    assert scalars_close(1 / 3 + 0j, Fraction(1, 3) + tiny)
    assert not scalars_close(1 + 0j, 1 + 1e-6j)


def test_closed_form_table_covers_first_six_diagonals():
    names = set(CLOSED_FORMS)
    assert {f"{a}{b}0" for a in range(6) for b in range(a + 1)} == names


def test_constant_choice_gives_all_ones():
    q = 2
    t3 = q * q + q + 1
    f, _ = eigenvector_d3(Fraction(t3), Fraction(t3), q, 8)
    assert all(v == 1 for v in f.values.values())


def test_root_of_unity_coloring():
    q = 2
    t3 = q * q + q + 1
    rho = cmath.exp(2j * cmath.pi / 3)
    f, residuals = eigenvector_d3(rho * t3, rho**2 * t3, q, 8)
    for (a, b, _), val in f.values.items():
        assert abs(val - rho ** (a + b)) < 1e-9
    for _, res in residuals:
        assert abs(res) < 1e-9


def test_root_of_unity_coloring_deep_high_precision():
    # the forward recursion amplifies double rounding by ~x4 per diagonal,
    # so the deep run uses arbitrary-precision complex scalars
    import mpmath

    with mpmath.workdps(60):
        q = 2
        t3 = q * q + q + 1
        rho = mpmath.exp(2j * mpmath.pi / 3)
        f, residuals = eigenvector_d3(rho * t3, rho**2 * t3, q, 20)
        for (a, b, _), val in f.values.items():
            assert abs(complex(val) - complex(rho ** (a + b))) < 1e-9
        assert max(abs(complex(res)) for _, res in residuals) < 1e-9


def test_mpmath_norm_commutator_and_regression():
    import mpmath

    with mpmath.workdps(30):
        # the (rho t3, rho^2 t3) colouring, f = rho^(n_1 + n_2), so |f| = 1
        rho = mpmath.exp(2j * mpmath.pi / 3)
        params = (rho * 7, rho**2 * 7, 2)
        f, _ = eigenvector_d3(*params, 4)
        graph = build_graph(3, 2, 4)
        total, shells = l2_partial_norm(f)
        partial = covolume_partial(3, 2, 4)
        assert isinstance(total, mpmath.mpf) and all(isinstance(s, mpmath.mpf) for s in shells)
        assert abs(total - mpmath.mpf(partial.numerator) / partial.denominator) < 1e-20
        assert abs(weighted_inner(graph, f, f) - total) < 1e-20
        assert commutator_check(graph, f) < 1e-20
        report = closed_form_regression(*params, f)
        assert all(e["match"] for e in report.values() if e["status"] == "asserted")


def test_eigenvector_d2_mpmath():
    import mpmath

    with mpmath.workdps(30):
        lam = mpmath.mpc(1, 2)
        f = eigenvector_d2(lam, 2, 5)  # the closed-form cross-check passes
        for n in range(6):
            closed = eigenvector_d2_closed_form(lam, 2, n)
            assert abs(f[(n, 0)] - closed) < 1e-25 * max(1, abs(closed))
        assert abs(f[(2, 0)] - (lam**2 / 3 - 2)) < 1e-25


def test_eigenvector_d2_recursion_and_closed_form():
    for q in (2, 3):
        for seed in range(5):
            rng = random.Random(seed)
            lam = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            if lam * lam == 4 * q:
                continue
            f = eigenvector_d2(lam, q, 30)
            assert f[(0, 0)] == 1
            assert f[(1, 0)] == lam / (q + 1)
            for n in range(2, 31):
                assert f[(n, 0)] == lam * f[(n - 1, 0)] - q * f[(n - 2, 0)]


def test_eigenvector_d2_closed_form_values():
    for q in (2, 3, 5):
        for lam in (Fraction(-7, 3), Fraction(1, 2), Fraction(4), Fraction(q + 1)):
            r = q + 1
            expected = [
                1,
                lam / r,
                lam**2 / r - q,
                lam**3 / r - q * lam - q * lam / r,
                lam**4 / r - q * lam**2 * (1 + 2 / Fraction(r)) + q**2,
            ]
            f = eigenvector_d2(lam, q, 4)
            for n, value in enumerate(expected):
                assert type(f[(n, 0)]) is Fraction and f[(n, 0)] == value, (q, lam, n)
    # lam = q+1 gives the all-ones vector
    assert all(v == 1 for v in eigenvector_d2(Fraction(6), 5, 39).values.values())


def lucas_u(lam, q, m):
    """U_m = sum_k C(m-1-k, k) lam^(m-1-2k) (-q)^k, summed as Fractions."""
    terms = (comb(m - 1 - k, k) * lam ** (m - 1 - 2 * k) * (-q) ** k for k in range((m + 1) // 2))
    return sum(terms, Fraction(0))


def test_eigenvector_d2_matches_binomial_sum():
    # f_n = lam/(q+1) U_n - q U_{n-1} with the Lucas sequence U of
    # x^2 - lam x + q: the closed form as a sum over Q, independent of the
    # recursion
    grid = {Fraction(a, b) for a in range(-60, 61) for b in range(1, 16)}
    for q in (2, 3, 5, 7, 11, 13):
        for lam in sorted(grid | {Fraction(q + 1)}):
            # every depth to 40 for q + 1 and on a sub-grid, the first and
            # last ones elsewhere: the Fraction sums to depth 40 take about
            # 5 ms per eigenvalue
            every = lam == q + 1 or (lam.denominator in (1, 15) and abs(lam.numerator) <= 10)
            depths = range(41) if every else (0, 1, 2, 40)
            u = {m: lucas_u(lam, q, m) for n in depths for m in (n - 1, n) if m >= 0}
            f = eigenvector_d2(lam, q, 40)
            for n in depths:
                expected = Fraction(1) if n == 0 else lam / (q + 1) * u[n] - q * u[n - 1]
                assert type(f[(n, 0)]) is Fraction and f[(n, 0)] == expected, (lam, q, n)


def test_eigenvector_d2_complex_backend():
    lam = 1.25 + 0.5j
    q = 2
    f = eigenvector_d2(lam, q, 25)
    for n in (5, 12, 25):
        closed = eigenvector_d2_closed_form(lam, q, n)
        assert abs(f[(n, 0)] - closed) <= COMPLEX_TOLERANCE * max(1, abs(closed))


def test_eigenvector_d2_degenerate_root_recursion_only():
    q = 2
    lam = complex(2 * cmath.sqrt(q).real)
    f = eigenvector_d2(lam, q, 10)
    assert (10, 0) in f.values
    with pytest.raises(InvalidInputError):
        eigenvector_d2_closed_form(lam, q, 3)


def test_eigenvector_d2_checks_inexact_values_only(monkeypatch):
    # exact values cannot drift and are computed once; inexact ones are
    # checked at every n against the two-root closed form
    exact = eigenvector_d2(Fraction(5, 3), 2, 12).values
    closed = eigenvector_d2_closed_form
    monkeypatch.setattr(hecke, "eigenvector_d2_closed_form", lambda lam, q, n: closed(lam, q, n) + (n == 7))
    assert eigenvector_d2(Fraction(5, 3), 2, 12).values == exact
    assert (6, 0) in eigenvector_d2(1.25 + 0.5j, 2, 6).values
    with pytest.raises(InternalInvariantError, match="n=7"):
        eigenvector_d2(1.25 + 0.5j, 2, 12)


def test_eigenvalue_q_plus_one_case():
    for q in (2, 3):
        lam = Fraction(q + 1)
        f = eigenvector_d2(lam, q, 30)
        # lam = q+1 makes the all-ones vector the eigenvector
        assert all(v == 1 for v in f.values.values())


# -- norms and covolume --------------------------------------------------------


def test_l2_partial_norm_of_constant_is_covolume_partial():
    for d, q in ((2, 3), (3, 2), (4, 2)):
        one = DomainFunction(d, q, 10, dict.fromkeys(enumerate_domain(d, 10), Fraction(1)))
        total, shells = l2_partial_norm(one)
        assert total == covolume_partial(d, q, 10)
        assert len(shells) == 11
        assert shells[0] == Fraction(q - 1, gl_order(d, q))  # 1 / |PGL_d(F_q)|
    zero = DomainFunction(3, 2, 10, dict.fromkeys(enumerate_domain(3, 10), Fraction(0)))
    assert l2_partial_norm(zero)[0] == 0
    # a label beyond the truncation, not weakly decreasing, or of another d
    for values in ({(5, 0, 0): 1}, {(1, 2, 0): 1}, {(1, 0): 1}, {(1, 1, 1): 1}):
        with pytest.raises(InvalidInputError):
            l2_partial_norm(DomainFunction(3, 2, 4, values))


def test_l2_partial_norm_rho_coloring_matches_ones():
    q = 2
    t3 = q * q + q + 1
    rho = cmath.exp(2j * cmath.pi / 3)
    f, _ = eigenvector_d3(rho * t3, rho**2 * t3, q, 8)
    total, shells = l2_partial_norm(f)
    assert len(shells) == 9
    assert abs(total - float(covolume_partial(3, q, 8))) < 1e-9


def compositions(d):
    """Ordered compositions of d (block-size sequences of domain labels)."""
    if d == 0:
        yield ()
        return
    for first in range(1, d + 1):
        for rest in compositions(d - first):
            yield (first,) + rest


def covolume_by_compositions(d, q):
    # the closed form summed term by term over all 2^(d-1) compositions
    total = Fraction(0)
    for comp in compositions(d):
        r = len(comp)
        denom = 1
        for size in comp:
            denom *= gl_order(size, q)
        cross = sum(comp[i] * comp[j] for i in range(r) for j in range(i + 1, r))
        term = Fraction(1, denom) * Fraction(1, q**cross)
        for l in range(1, r):
            s_l = sum(comp[:l]) * sum(comp[l:])
            term *= Fraction(1, q**s_l - 1)
        total += term
    return (q - 1) * total


def covolume_by_prefix_sums(d, q):
    # the composition sum as a recursion over prefix sums, O(d^2) steps:
    # F[0] = 1, F[P] = sum_{b=1..P} F[P-b] c(P-b) / (|GL_b(F_q)| q^(b(d-P))),
    # with c(0) = 1 and c(p) = 1/(q^(p(d-p)) - 1); the covolume is (q-1) F[d]
    prefix = [Fraction(1)]
    for total in range(1, d + 1):
        f = sum(
            prefix[total - b] / (gl_order(b, q) * q ** (b * (d - total)))
            for b in range(1, total + 1)
        )
        prefix.append(f / (q ** (total * (d - total)) - 1) if total < d else f)
    return (q - 1) * prefix[d]


def test_compositions():
    assert sorted(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert len(list(compositions(4))) == 8


def test_covolume_recursion_matches_composition_sum():
    for q in (2, 3, 5):
        for d in range(2, 13):
            assert covolume(d, q) == covolume_by_compositions(d, q), (d, q)
            assert covolume_by_prefix_sums(d, q) == covolume_by_compositions(d, q), (d, q)


def test_covolume_product_matches_recursion():
    # the product form against the prefix-sum recursion on 145 cases
    for q in (2, 3, 5, 7, 11):
        for d in range(2, 31):
            assert covolume(d, q) == covolume_by_prefix_sums(d, q), (d, q)


def test_covolume_result_size_bound():
    assert covolume(60, 2).denominator.bit_length() < 60 * 60
    for d, q in ((100, 2), (60, 5), (10**9, 2)):
        with pytest.raises(ResourceBoundError):
            covolume(d, q)
    covolume_partial(12, 2, 4)
    # the stabilizer orders in the sum are bounded, and so is its denominator
    for d, q, max_n in ((2, 2, 7100), (100, 2, 0)):
        with pytest.raises(ResourceBoundError):
            covolume_partial(d, q, max_n)


def test_covolume_partial_work_bound(monkeypatch):
    for d, q, max_n in ((3, 3, 40), (12, 2, 4), (22, 2, 2)):
        assert 0 < covolume_partial(d, q, max_n) < covolume(d, q)
    # refused from the label count, before one stabilizer order is formed
    monkeypatch.setattr(domain, "_pattern_order", None)
    for d, q, max_n in ((3, 2, 800), (3, 2, 1400), (4, 2, 170)):
        with pytest.raises(ResourceBoundError, match="partial covolume"):
            covolume_partial(d, q, max_n)


def test_covolume_d2():
    assert covolume(2, 2) == Fraction(2, 3)
    for q in (2, 3, 5):
        direct = Fraction(1, (q - 1) * q * (q + 1)) + Fraction(1, q * (q - 1) ** 2)
        assert covolume(2, q) == direct


def test_covolume_single_block_term():
    # the one-block composition contributes exactly the origin weight
    for d, q in ((2, 2), (3, 2), (4, 2), (3, 3)):
        origin = Fraction(1, stabilizer_order((0,) * d, q))
        assert origin == (q - 1) * Fraction(1, gl_order(d, q))


def test_covolume_dominates_partials_and_monotone():
    for d, q in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        closed = covolume(d, q)
        prev = Fraction(0)
        for m in (2, 5, 9):
            part = covolume_partial(d, q, m)
            assert prev < part < closed
            prev = part


def test_covolume_gap_bound_dominates_gap():
    from btq.hecke import covolume_gap_bound

    for d, q in ((2, 2), (3, 2), (3, 3), (4, 2)):
        closed = covolume(d, q)
        for m in (0, 3, 8):
            gap = closed - covolume_partial(d, q, m)
            assert 0 < gap <= covolume_gap_bound(d, q, m), (d, q, m)


def test_covolume_normalization_flag():
    for d, q in ((2, 3), (3, 3)):
        assert covolume(d, q, "gl") == covolume(d, q) / (q - 1)
        assert covolume_partial(d, q, 6, "gl") == covolume_partial(d, q, 6) / (q - 1)
    with pytest.raises(InvalidInputError):
        covolume(3, 2, "sl")


def test_covolume_partial_matches_direct_sum():
    for d, q in ((2, 2), (3, 2)):
        for m in (0, 3):
            direct = sum(
                Fraction(1, stabilizer_order(lab, q)) for lab in enumerate_domain(d, m)
            )
            assert covolume_partial(d, q, m) == direct


# -- integer sums against Fraction sums --------------------------------------


def test_l2_partial_norm_integer_shells_match_fraction_sums():
    for q, params in ((2, rational_params(4)), (3, rational_params(5, q=3))):
        f, _ = eigenvector_d3(*params, 9)
        total, shells = l2_partial_norm(f)
        direct = [Fraction(0)] * 10
        for u, val in f.values.items():
            direct[u[0]] += val * val / stabilizer_order(u, q)
        assert shells == direct and total == sum(direct)
        assert type(total) is Fraction and all(type(s) is Fraction for s in shells)
    g = eigenvector_d2(Fraction(5, 3), 2, 12)
    total, shells = l2_partial_norm(g)
    assert shells == [g[(n, 0)] ** 2 / stabilizer_order((n, 0), 2) for n in range(13)]


def test_weighted_inner_integer_sum_matches_fraction_sum():
    rng = random.Random(9)
    for q in (2, 3):
        graph = build_graph(3, q, 8)
        f = DomainFunction(3, q, 8, {u: rng.randint(-50, 50) for u in graph.nodes})
        g = DomainFunction(3, q, 8, {u: rng.randint(-50, 50) for u in graph.nodes})
        inner = weighted_inner(graph, f, g)
        direct = sum(Fraction(f[u] * g[u], stabilizer_order(u, q)) for u in graph.nodes)
        assert type(inner) is Fraction and inner == direct
        as_fractions = DomainFunction(3, q, 8, {u: Fraction(x) for u, x in f.values.items()})
        assert weighted_inner(graph, as_fractions, g) == inner
    # float values enter as their Fractions, so the pairing and the norm agree
    graph = build_graph(3, 2, 8)
    interior = {u for u in graph.nodes if u[0] + 2 <= 8}
    h = DomainFunction(3, 2, 8, {u: 0.3 if u in interior else 0.0 for u in graph.nodes})
    direct = sum(Fraction(0.3) ** 2 / stabilizer_order(u, 2) for u in interior)
    assert weighted_inner(graph, h, h) == l2_partial_norm(h)[0] == direct
    for bad in (float("inf"), float("nan")):
        with pytest.raises(InvalidInputError):
            DomainFunction(3, 2, 8, {(0, 0, 0): bad})


def test_covolume_partial_integer_sum_matches_fraction_sum():
    for d, q, m in ((3, 3, 12), (4, 2, 6), (12, 2, 2)):
        direct = sum(Fraction(1, stabilizer_order(lab, q)) for lab in enumerate_domain(d, m))
        partial = covolume_partial(d, q, m)
        assert type(partial) is Fraction and partial == direct
