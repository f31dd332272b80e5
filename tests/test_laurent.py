"""Laurent arithmetic, parsing, matrices and the random samplers."""

import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btq import building, domain, gf, laurent
from btq.errors import InvalidInputError
from btq.laurent import (
    LaurentMatrix,
    LaurentPoly,
    _mul_add,
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
    acc = LaurentPoly({}, q)
    for j, top in enumerate(rows[0]):
        if top:
            term = top * laplace_det([r[:j] + r[j + 1 :] for r in rows[1:]], q)
            acc = acc + term if j % 2 == 0 else acc - term
    return acc


def random_poly(rng, q, low=-3, high=3, density=0.7):
    if rng.random() > density:
        return LaurentPoly({}, q)
    return LaurentPoly({e: rng.randrange(q) for e in range(low, rng.randint(low, high) + 1)}, q)


def test_monomial_shift_example():
    assert P("t^2 + 1") * P("t^-1") == P("t + t^-1")


def test_char2_square():
    assert P("t + 1") * P("t + 1") == P("t^2 + 1")


def test_valuation_example():
    # v(f) = -deg(f) for the uniformizer 1/t
    assert -P("t^3 + t").degree() == -3
    assert -P("t^-2 + 1").degree() == 0


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
    assert a + (-a) == LaurentPoly({}, q)


@settings(max_examples=150, deadline=None)
@given(coeff_maps, coeff_maps)
def test_valuation_additivity(ca, cb):
    a, b = LaurentPoly(ca, 3), LaurentPoly(cb, 3)
    if a.is_zero() or b.is_zero():
        return
    assert (a * b).degree() == a.degree() + b.degree()


def test_det_examples():
    q = 2
    assert LaurentMatrix.diagonal((2, 1, 0), q).det() == P("t^3")
    assert LaurentMatrix.diagonal((0, 0, 0), q).det() == P("1")
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
    assert LaurentMatrix(rows, 2).det() == laplace_det(rows, 2) == LaurentPoly({}, 2)
    assert LaurentMatrix([[P("0"), P("0")], [P("1"), P("t")]], 2).det().is_zero()


def test_adjugate_identity():
    rng = random.Random(5)
    for d in (2, 3, 4, 5):
        m = random_gamma(d, 3, 2, rng)
        prod = m.adjugate() * m
        det = m.det()
        for i in range(d):
            for j in range(d):
                expected = det if i == j else LaurentPoly({}, 3)
                assert prod.rows[i][j] == expected


def test_random_gamma_contract():
    for seed in range(20):
        g = random_gamma(3, 2, 2, seed)
        det = g.det()
        assert set(det.coeffs) == {0}
        for row in g.rows:
            for x in row:
                assert x.is_zero() or (0 <= min(x.coeffs) and x.degree() <= 2)


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
    assert set(det.coeffs) == {0}


def test_random_k_contract():
    for seed in range(20):
        k = random_k(3, 2, 8, seed)
        assert k.det().degree() == 0
        for row in k.rows:
            for x in row:
                assert x.is_zero() or (-8 <= min(x.coeffs) and x.degree() <= 0)


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
            f = LaurentPoly({0: c}, q)
            for depth in (-1, 0, 1, 7, 1000):
                g = series_inverse(f, depth)
                assert (f * g).coeffs == {0: 1}
                if depth >= 0:
                    assert g == series_inverse(f + LaurentPoly({-depth - 1: 1}, q), depth)


def series_inverse_all_terms(f, depth):
    """`series_inverse` by the loop over every term of f at every depth k,
    testing each exponent against [-k, -1]."""
    q = f.q
    c0_inv = pow(f.coeff(0), q - 2, q)
    g = {0: c0_inv}
    for k in range(1, depth + 1):
        acc = 0
        for e, c in f.coeffs.items():
            if -k <= e < 0:
                acc += c * g.get(-k - e, 0)
        v = (-c0_inv * acc) % q
        if v:
            g[-k] = v
    return LaurentPoly(g, q)


def test_series_inverse_matches_all_terms_oracle():
    # seeded O-units with a term below -depth, so the sorted loop stops
    # early at every k, and random terms in between
    rng = random.Random(26)
    for q in (2, 3, 5, 7):
        for depth in range(31):
            for _ in range(3):
                span = rng.randint(depth + 1, depth + 6)
                coeffs = {e: rng.randrange(q) for e in rng.sample(range(-span, 0), rng.randint(0, span))}
                coeffs[0] = rng.randrange(1, q)
                coeffs[-span] = rng.randrange(1, q)
                f = LaurentPoly(coeffs, q)
                assert series_inverse(f, depth) == series_inverse_all_terms(f, depth), (f, depth)


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
    }
    for name, (got, expected) in results.items():
        assert got.coeffs == expected, name
        assert _clean_invariant(got, q), name
    product = _ref_mul(ra, rb, q)
    # exponent sums lie in [-16, 16]; the cutoffs cover every split of it
    for cutoff in range(-18, 19):
        above = {}
        _mul_add(above, 1, a.coeffs, b.coeffs, q, cutoff)
        assert above == {e: c for e, c in product.items() if e > cutoff}
        assert all(isinstance(c, int) and 0 < c < q for c in above.values())


def _operator_oracle(terms, q, above):
    # the sum of c * (a * b) from the ring operators, then the cutoff; the
    # operators themselves run on _mul_add, so the plain dict reference in
    # the test keeps the check independent
    total = LaurentPoly({}, q)
    for c, a, b in terms:
        term = LaurentPoly({0: abs(c)}, q) * (a * b)
        if c >= 0:
            total = total + term
        else:  # binary minus, or unary minus and a difference
            total = total - term if c % 2 else -(term - total)
    if above is None:
        return total
    return LaurentPoly({e: c for e, c in total.coeffs.items() if e > above}, q)


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
    return q, terms, above, draw(poly)


@settings(max_examples=400, deadline=None)
@given(_dot_terms())
@example((2, [], None, P("0", 2)))
@example((3, [], -1, P("t", 3)))
@example((5, [(2, P("t + 1", 5), P("t - 1", 5)), (-2, P("t^2 - 1", 5), P("1", 5))], None, P("1", 5)))
@example((3, [(3, P("t + 1", 3), P("t", 3)), (-4, P("t", 3), P("0", 3))], 0, P("2*t^-1", 3)))
def test_dot_matches_operators(operands):
    # a sum of products, a dot product of the terms, accumulated by the
    # kernel and by the operators, against the plain dict reference
    q, terms, above, start = operands
    expected = {}
    for c, a, b in terms:
        scaled = {e: v * c for e, v in _ref_mul(a.coeffs, b.coeffs, q).items()}
        expected = _ref_add(expected, _ref_clean(scaled, q), q)
    got = {}
    for c, a, b in terms:
        _mul_add(got, c, a.coeffs, b.coeffs, q)
    assert got == expected
    assert all(isinstance(c, int) and 0 < c < q for c in got.values())
    oracle = _operator_oracle(terms, q, None)
    assert oracle.coeffs == expected
    assert _clean_invariant(oracle, q)
    # the in-place primitive adds the same products onto a start value;
    # with a cutoff it forms only those above it and keeps start whole
    acc = dict(start.coeffs)
    for c, a, b in terms:
        _mul_add(acc, c, a.coeffs, b.coeffs, q, above)
    oracle = _operator_oracle(terms, q, above)
    assert acc == (start + oracle).coeffs
    if above is not None:
        expected = {e: v for e, v in expected.items() if e > above}
    assert acc == _ref_add(start.coeffs, expected, q)


def test_dot_cancels_to_zero():
    a, b = P("t^3 + 2*t + 4", 5), P("3*t^-2 + 1", 5)
    for above in (None, -5, 0, 10):
        for c1, c2 in ((1, -1), (2, 3)):
            acc = {}
            _mul_add(acc, c1, a.coeffs, b.coeffs, 5, above)
            _mul_add(acc, c2, b.coeffs, a.coeffs, 5, above)
            assert acc == {}


def test_public_constructors_validate_q():
    for q in (1, 4, 9, 0, -3, 2.0, "2"):
        for build in (
            lambda: LaurentPoly({0: 1}, q),
            lambda: LaurentPoly.parse("t + 1", q),
            lambda: LaurentMatrix([[P("1")]], q),
            lambda: LaurentMatrix.from_literal({"q": q, "d": 1, "entries": [["1"]]}),
            lambda: random_gamma(2, q, 1, 0),
            lambda: random_k(2, q, 1, 0),
        ):
            with pytest.raises(InvalidInputError):
                build()


def test_matrix_constructors_validate_entries():
    one2, one3 = P("1", 2), P("1", 3)
    for build in (
        lambda: LaurentMatrix([[one2, one2]]),
        lambda: LaurentMatrix([[one2, one2], [one2]], 2),
        lambda: LaurentMatrix([], 2),
        lambda: LaurentMatrix([[one2, 1], [one2, one2]], 2),
        lambda: LaurentMatrix([[one2, "t"], [one2, one2]], 2),
        lambda: LaurentMatrix([[one2, one3], [one2, one2]]),
        lambda: LaurentMatrix([[one2]], 3),
        lambda: LaurentMatrix([[one2]], 4),
        lambda: LaurentMatrix.diagonal((), 3),
        lambda: LaurentMatrix.diagonal((1, 0), 6),
    ):
        with pytest.raises(InvalidInputError):
            build()
    zero, one = P("0", 3), P("1", 3)
    assert LaurentMatrix.diagonal((0, 0), 3) == LaurentMatrix([[one, zero], [zero, one]])
    assert LaurentMatrix.diagonal((2, 0), 2) == LaurentMatrix.from_literal(
        {"q": 2, "d": 2, "entries": [["t^2", "0"], ["0", "1"]]}
    )


def test_results_skip_the_entry_checks(monkeypatch):
    """q is checked where a value enters, never again in the arithmetic:
    one normal form and domain reduction of a seeded matrix make no
    check_prime call."""
    m = random_gamma(4, 3, 3, 7) * random_k(4, 3, 2, 7)
    calls = []
    real = gf.check_prime

    def counted(q):
        calls.append(q)
        return real(q)

    for module in (gf, laurent, building, domain):
        if getattr(module, "check_prime", None) is real:
            monkeypatch.setattr(module, "check_prime", counted)
    label, witness = domain.reduce_to_domain(building.vertex_normal_form(m))
    assert calls == []
    assert witness.d == 4 and label[-1] == 0
    LaurentMatrix(m.rows, 3)  # the counter sees the entry point
    assert calls == [3]


def test_samplers_draw_fixed_matrices():
    # the benchmark's seeded inputs come from these draws: a change in how
    # the samplers consume the random stream changes this hash
    h = hashlib.sha256()
    for d in (2, 3, 4):
        for q in (2, 3, 5):
            for seed in range(10):
                for m in (random_gamma(d, q, 3, seed), random_k(d, q, 2, seed)):
                    h.update(json.dumps(m.to_literal()).encode())
    assert h.hexdigest() == "b9bd1ef5fe86e63d4da789a59b611528e461f6855436dbb68e977af759914866"


def test_mixed_moduli_rejected():
    a, b = P("t + 1", 2), P("t + 1", 3)
    for op in (
        lambda: a + b,
        lambda: a - b,
        lambda: a * b,
        lambda: P("t", 2) * P("2", 3),
        lambda: a + 1,
    ):
        with pytest.raises(InvalidInputError):
            op()
