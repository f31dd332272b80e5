"""Laurent arithmetic, parsing, matrices and the random samplers."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btq.errors import InvalidInputError
from btq.laurent import (
    LaurentMatrix,
    LaurentPoly,
    dot,
    is_unit_in_O,
    random_gamma,
    random_k,
    series_inverse,
)


def P(s, q=2):
    return LaurentPoly.parse(s, q)


def laplace_det(rows, q):
    """The determinant by plain recursive Laplace expansion along the first
    row (d! products): the oracle for the shared-minor expansion."""
    if len(rows) == 1:
        return rows[0][0]
    acc = LaurentPoly.zero(q)
    for j, top in enumerate(rows[0]):
        if top:
            term = top * laplace_det([r[:j] + r[j + 1 :] for r in rows[1:]], q)
            acc = acc + term if j % 2 == 0 else acc - term
    return acc


def random_poly(rng, q, low=-3, high=3, density=0.7):
    if rng.random() > density:
        return LaurentPoly.zero(q)
    return LaurentPoly({e: rng.randrange(q) for e in range(low, rng.randint(low, high) + 1)}, q)


def test_monomial_shift_example():
    assert P("t^2 + 1") * P("t^-1") == P("t + t^-1")


def test_char2_square():
    assert P("t + 1") * P("t + 1") == P("t^2 + 1")


def test_valuation_example():
    assert P("t^3 + t").valuation() == -3


def test_is_unit_in_O():
    assert is_unit_in_O(P("1 + t^-1"))
    assert not is_unit_in_O(P("t"))
    assert not is_unit_in_O(P("t^-2"))
    with pytest.raises(InvalidInputError):
        is_unit_in_O(LaurentPoly.zero(2))


def test_parse_round_trip():
    cases = ["0", "1", "t", "t^-2", "2*t^3 + 1", "t^2 + t + 1", "t^5 + t^-5"]
    for q in (2, 3, 5):
        for s in cases:
            f = LaurentPoly.parse(s, q)
            assert LaurentPoly.parse(str(f), q) == f


def test_parse_signs_and_rejects():
    assert P("t - 1", 3) == P("t + 2", 3)
    assert P("-t^2", 3) == P("2*t^2", 3)
    with pytest.raises(InvalidInputError):
        LaurentPoly.parse("t^", 2)
    with pytest.raises(InvalidInputError):
        LaurentPoly.parse("t +", 2)
    with pytest.raises(InvalidInputError):
        LaurentPoly.parse("", 2)


coeff_maps = st.dictionaries(st.integers(-6, 6), st.integers(0, 2), max_size=5)


@settings(max_examples=200, deadline=None)
@given(coeff_maps, coeff_maps, coeff_maps)
def test_ring_axioms_hypothesis(ca, cb, cc):
    q = 3
    a, b, c = (LaurentPoly(m, q) for m in (ca, cb, cc))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == LaurentPoly.zero(q)


@settings(max_examples=150, deadline=None)
@given(coeff_maps, coeff_maps)
def test_valuation_additivity(ca, cb):
    a, b = LaurentPoly(ca, 3), LaurentPoly(cb, 3)
    if a.is_zero() or b.is_zero():
        return
    assert (a * b).valuation() == a.valuation() + b.valuation()


def test_det_examples():
    q = 2
    assert LaurentMatrix.diagonal((2, 1, 0), q).det() == P("t^3")
    assert LaurentMatrix.identity(3, q).det() == P("1")
    m = LaurentMatrix(
        [[P("t^3"), P("0"), P("0")], [P("t^2"), P("t"), P("0")], [P("t"), P("0"), P("1")]],
        q,
    )
    assert m.det() == P("t^4")


def test_det_multiplicative_random():
    rng = random.Random(11)
    for q in (2, 3):
        for d in (2, 3, 4):
            for _ in range(17):
                a = random_gamma(d, q, 2, rng)
                b = random_k(d, q, 3, rng)
                assert (a * b).det() == a.det() * b.det()


def test_det_matches_laplace_oracle():
    rng = random.Random(23)
    for _ in range(150):
        d = rng.randint(1, 7)
        q = rng.choice([2, 3, 5, 7])
        density = rng.choice([0.3, 0.7, 1.0])
        rows = [[random_poly(rng, q, density=density) for _ in range(d)] for _ in range(d)]
        m = LaurentMatrix(rows, q)
        assert m.det() == laplace_det(rows, q)
        if d > 1:
            rows_idx = tuple(sorted(rng.sample(range(d), d - 1)))
            cols_idx = tuple(sorted(rng.sample(range(d), d - 1)))
            sub = [[rows[i][j] for j in cols_idx] for i in rows_idx]
            assert m.minor(rows_idx, cols_idx) == laplace_det(sub, q)
    # a singular matrix, and one whose first row vanishes
    rows = [[P("t + 1"), P("1")], [P("t^2 + t"), P("t")]]
    assert LaurentMatrix(rows, 2).det() == laplace_det(rows, 2) == LaurentPoly.zero(2)
    assert LaurentMatrix([[P("0"), P("0")], [P("1"), P("t")]], 2).det().is_zero()


def test_adjugate_identity():
    rng = random.Random(5)
    for d in (2, 3, 4, 5):
        m = random_gamma(d, 3, 2, rng)
        prod = m.adjugate() * m
        det = m.det()
        for i in range(d):
            for j in range(d):
                expected = det if i == j else LaurentPoly.zero(3)
                assert prod.entry(i, j) == expected


def test_random_gamma_contract():
    for seed in range(20):
        g = random_gamma(3, 2, 2, seed)
        det = g.det()
        assert det.is_monomial() and det.degree() == 0
        for row in g.rows:
            for x in row:
                assert x.is_zero() or (0 <= x.low_exponent() and x.degree() <= 2)


def test_random_gamma_deg_zero_is_constant():
    g = random_gamma(3, 3, 0, 4)
    for row in g.rows:
        for x in row:
            assert x.is_zero() or x.degree() == 0


def test_random_gamma_product_degree():
    rng = random.Random(3)
    a = random_gamma(3, 2, 2, rng)
    b = random_gamma(3, 2, 3, rng)
    prod = a * b
    assert all(x.is_zero() or x.degree() <= 5 for row in prod.rows for x in row)
    det = prod.det()
    assert det.is_monomial() and det.degree() == 0


def test_random_k_contract():
    for seed in range(20):
        k = random_k(3, 2, 8, seed)
        assert is_unit_in_O(k.det())
        for row in k.rows:
            for x in row:
                assert x.is_zero() or (-8 <= x.low_exponent() and x.degree() <= 0)


def test_series_inverse():
    for q in (2, 5):
        f = LaurentPoly({0: 1, -1: q - 1, -3: 1}, q)
        g = series_inverse(f, 12)
        prod = f * g
        assert prod.coeff(0) == 1
        assert all(e < -12 for e in prod.coeffs if e != 0)
    with pytest.raises(InvalidInputError):
        series_inverse(P("t"), 4)


def test_series_inverse_of_a_constant():
    # one term: the inverse is exact at every depth, and equals the general
    # loop's result for a unit that agrees with it modulo (1/t)^(depth+1)
    for q in (2, 5, 7):
        for c in range(1, q):
            f = LaurentPoly.constant(c, q)
            for depth in (-1, 0, 1, 7, 1000):
                g = series_inverse(f, depth)
                assert (f * g).coeffs == {0: 1}
                if depth >= 0:
                    assert g == series_inverse(f + LaurentPoly.t_power(-depth - 1, q), depth)


def test_matrix_literal_round_trip():
    m = LaurentMatrix(
        [[P("t^2 + 1"), P("t^-1")], [P("0"), P("1")]],
        2,
    )
    assert LaurentMatrix.from_literal(m.to_literal()) == m
    for bad in (
        {"q": 2, "d": 2, "entries": [["1"]]},
        {"q": 2, "d": 2, "entries": 5},
        {"q": 2, "d": 2, "entries": [[1, 0], [0, 1]]},
    ):
        with pytest.raises(InvalidInputError):
            LaurentMatrix.from_literal(bad)


def test_oprecision_validation():
    with pytest.raises(InvalidInputError):
        random_k(3, 2, -1, 0)


# -- the kernel against a reference -----------------------------------------
#
# The reference is the plain dict double loop, reducing modulo q at every
# step, on raw coefficient maps: the kernel's fast paths (one reduction per
# sum of products, truncated products, no re-validation of q) must agree
# with it everywhere.


def _ref_clean(coeffs, q):
    return {e: c % q for e, c in coeffs.items() if c % q}


def _ref_add(a, b, q):
    out = dict(a)
    for e, c in b.items():
        s = (out.get(e, 0) + c) % q
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _ref_neg(a, q):
    return {e: (-c) % q for e, c in a.items()}


def _ref_mul(a, b, q):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = (out.get(e, 0) + c1 * c2) % q
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


@st.composite
def _kernel_operands(draw):
    q = draw(st.sampled_from([2, 3, 5, 1000003]))
    # coefficients up to 3q: zero, reducible and multiples of q at input
    coeffs = st.integers(0, 3 * q) | st.sampled_from([q, 2 * q, q + 1])
    maps = st.dictionaries(st.integers(-8, 8), coeffs, max_size=6)
    monomial = st.dictionaries(st.integers(-8, 8), st.integers(1, 3 * q), min_size=1, max_size=1)
    a = draw(maps | monomial)
    b = draw(maps | monomial | st.just({}))
    return q, a, b


def _clean_invariant(f, q):
    return f.q == q and all(isinstance(c, int) and 0 < c < q for c in f.coeffs.values())


@settings(max_examples=400, deadline=None)
@given(_kernel_operands())
def test_kernel_matches_reference(operands):
    q, ca, cb = operands
    a, b = LaurentPoly(ca, q), LaurentPoly(cb, q)
    ra, rb = _ref_clean(ca, q), _ref_clean(cb, q)
    assert a.coeffs == ra and b.coeffs == rb
    results = {
        "add": (a + b, _ref_add(ra, rb, q)),
        "sub": (a - b, _ref_add(ra, _ref_neg(rb, q), q)),
        "mul": (a * b, _ref_mul(ra, rb, q)),
        "rmul": (b * a, _ref_mul(rb, ra, q)),
        "neg": (-a, _ref_neg(ra, q)),
        "shift": (a.shift(3), {e + 3: c for e, c in ra.items()}),
    }
    for name, (got, expected) in results.items():
        assert got.coeffs == expected, name
        assert _clean_invariant(got, q), name
    product = _ref_mul(ra, rb, q)
    # exponent sums lie in [-16, 16]; the cutoffs cover every split of it
    for cutoff in range(-18, 19):
        above = dot(((1, a, b),), q, cutoff)
        assert above == (a * b).part_above(cutoff)
        assert above.coeffs == {e: c for e, c in product.items() if e > cutoff}
        assert _clean_invariant(above, q)


def _dot_oracle(terms, q, above):
    # the sum of c * (a * b) from the ring operators, then the cutoff
    total = LaurentPoly.zero(q)
    for c, a, b in terms:
        term = LaurentPoly.constant(abs(c), q) * (a * b)
        total = total + term if c >= 0 else total - term
    return total if above is None else total.part_above(above)


@st.composite
def _dot_terms(draw):
    q = draw(st.sampled_from([2, 3, 5, 1000003]))
    poly = st.one_of(
        st.dictionaries(st.integers(-8, 8), st.integers(0, 3 * q), max_size=6),
        st.dictionaries(st.integers(-8, 8), st.integers(1, 3 * q), min_size=1, max_size=1),
        st.just({}),
    ).map(lambda coeffs: LaurentPoly(coeffs, q))
    # negative, zero and multiples of q among the scalars
    scalar = st.integers(-3 * q, 3 * q) | st.sampled_from([0, q, -q, 2 * q, -1])
    terms = draw(st.lists(st.tuples(scalar, poly, poly), max_size=5))
    if terms and draw(st.booleans()):
        # a term and its negation, factors swapped: they cancel
        c, a, b = draw(st.sampled_from(terms))
        terms.append((-c, b, a))
    above = draw(st.none() | st.integers(-18, 18))
    return q, terms, above


@settings(max_examples=400, deadline=None)
@given(_dot_terms())
@example((2, [], None))
@example((3, [], -1))
@example((5, [(2, P("t + 1", 5), P("t - 1", 5)), (-2, P("t^2 - 1", 5), P("1", 5))], None))
@example((3, [(3, P("t + 1", 3), P("t", 3)), (-4, P("t", 3), P("0", 3))], 0))
def test_dot_matches_operators(operands):
    q, terms, above = operands
    got = dot(terms, q, above)
    assert got == _dot_oracle(terms, q, above)
    assert _clean_invariant(got, q)
    # and the plain dict reference, free of the operators
    expected = {}
    for c, a, b in terms:
        scaled = {e: v * c for e, v in _ref_mul(a.coeffs, b.coeffs, q).items()}
        expected = _ref_add(expected, _ref_clean(scaled, q), q)
    if above is not None:
        expected = {e: v for e, v in expected.items() if e > above}
    assert got.coeffs == expected


def test_dot_cancels_to_zero():
    a, b = P("t^3 + 2*t + 4", 5), P("3*t^-2 + 1", 5)
    for above in (None, -5, 0, 10):
        assert dot([(1, a, b), (-1, b, a)], 5, above) == LaurentPoly.zero(5)
        assert dot([(2, a, b), (3, a, b)], 5, above) == LaurentPoly.zero(5)
    assert dot((), 7) == LaurentPoly.zero(7)


def test_public_constructors_validate_q():
    for q in (1, 4, 9, 0, -3, 2.0, "2"):
        for build in (
            lambda: LaurentPoly({0: 1}, q),
            lambda: LaurentPoly.zero(q),
            lambda: LaurentPoly.constant(1, q),
            lambda: LaurentPoly.t_power(2, q),
            lambda: LaurentPoly.parse("t + 1", q),
            lambda: LaurentMatrix([[P("1")]], q),
            lambda: LaurentMatrix.from_literal({"q": q, "d": 1, "entries": [["1"]]}),
            lambda: random_gamma(2, q, 1, 0),
            lambda: random_k(2, q, 1, 0),
        ):
            with pytest.raises(InvalidInputError):
                build()


def test_mixed_moduli_rejected():
    a, b = P("t + 1", 2), P("t + 1", 3)
    for op in (
        lambda: a + b,
        lambda: a - b,
        lambda: a * b,
        lambda: P("t", 2) * P("2", 3),
        lambda: dot(((1, a, b),), 2),
        lambda: dot(((1, a, a),), 3, 0),
        lambda: dot(((1, a, a), (1, b, b)), 2),
        lambda: a + 1,
    ):
        with pytest.raises(InvalidInputError):
            op()
