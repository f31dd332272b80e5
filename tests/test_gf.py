"""Counting functions checked against exhaustive enumeration oracles."""

import random
from itertools import product

import pytest

from btq import gf
from btq.building import subspace_bases
from btq.errors import InvalidInputError, ResourceBoundError
from btq.gf import (
    gaussian_binomial,
    gl_order,
    inv_mod,
    is_prime,
    reduced_echelon_form,
)


def det_mod(mat, q):
    n = len(mat)
    m = [list(row) for row in mat]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] % q), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det = (det * m[col][col]) % q
        inv = pow(m[col][col], q - 2, q)
        for r in range(col + 1, n):
            f = (m[r][col] * inv) % q
            for c in range(col, n):
                m[r][c] = (m[r][c] - f * m[col][c]) % q
    return det % q


def null_vector_by_transpose(mat, q):
    """Gauss-Jordan elimination on the transpose of mat, read modulo q: the
    first free column f gets coefficient 1 and every pivot column the
    negated entry of its reduced row at f.  The null vector it returns is
    the one supported on rows 0..f with coefficient 1 at f."""
    n = len(mat)
    a = [[mat[j][i] % q for j in range(n)] for i in range(n)]
    pivots = {}  # column -> reduced row index
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], q - 2, q)
        a[row] = [(x * inv) % q for x in a[row]]
        for r in range(n):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % q for x, y in zip(a[r], a[row])]
        pivots[col] = row
        row += 1
    if row == n:
        return None
    free = next(c for c in range(n) if c not in pivots)
    x = [0] * n
    x[free] = 1
    for col, r in pivots.items():
        x[col] = (-a[r][free]) % q
    return x


def count_invertible(m, q):
    return sum(
        1
        for flat in product(range(q), repeat=m * m)
        if det_mod([flat[i * m : (i + 1) * m] for i in range(m)], q)
    )


def count_subspaces(d, k, q):
    # count distinct row spans of k x d matrices by collecting RREFs
    seen = set()
    for flat in product(range(q), repeat=k * d):
        rows = [list(flat[i * d : (i + 1) * d]) for i in range(k)]
        # row reduce
        rank = 0
        for col in range(d):
            piv = next((r for r in range(rank, k) if rows[r][col] % q), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = pow(rows[rank][col], q - 2, q)
            rows[rank] = [(x * inv) % q for x in rows[rank]]
            for r in range(k):
                if r != rank and rows[r][col] % q:
                    f = rows[r][col]
                    rows[r] = [(x - f * y) % q for x, y in zip(rows[r], rows[rank])]
            rank += 1
        if rank == k:
            seen.add(tuple(tuple(r) for r in rows))
    return len(seen)


def test_gl_order_examples():
    assert gl_order(1, 2) == 1
    assert gl_order(2, 2) == 6
    assert gl_order(3, 2) == 168


def test_gl_order_matches_enumeration():
    for q in (2, 3):
        for m in (1, 2, 3):
            if q ** (m * m) > 30000:
                continue
            assert gl_order(m, q) == count_invertible(m, q)
    assert gl_order(3, 3) == count_invertible(3, 3)


def test_rank_decides_invertibility_exhaustive():
    # every 2x2 and 3x3 matrix over F_2 and every 2x2 matrix over F_3: full
    # rank is a nonzero determinant, and the oracle of the row reduction in
    # the building tests returns a null vector exactly when there is one
    for m, q in ((2, 2), (3, 2), (2, 3)):
        for flat in product(range(q), repeat=m * m):
            mat = [flat[i * m : (i + 1) * m] for i in range(m)]
            assert (len(reduced_echelon_form(mat, q)) == m) == bool(det_mod(mat, q)), mat
            c = null_vector_by_transpose(mat, q)
            if det_mod(mat, q):
                assert c is None, mat
            else:
                assert c is not None and any(c), mat
                assert all(sum(c[i] * mat[i][j] for i in range(m)) % q == 0 for j in range(m))


def test_reduced_echelon_form_fixes_subspace_bases():
    for q in (2, 3):
        for d in (2, 3, 4):
            for s in range(d + 1):
                for basis in subspace_bases(d, s, q):
                    assert reduced_echelon_form(basis, q) == basis


def _span(rows, q, d):
    return frozenset(
        tuple(sum(c * r[j] for c, r in zip(cs, rows)) % q for j in range(d))
        for cs in product(range(q), repeat=len(rows))
    )


def test_reduced_echelon_form_matches_spans():
    # seeded spanning sets, often dependent and with entries outside 0..q-1,
    # give the listed basis of the subspace they span, found by its elements
    rng = random.Random(2027)
    for q in (2, 3):
        for d in (2, 3, 4):
            by_span = {
                _span(basis, q, d): basis
                for s in range(d + 1)
                for basis in subspace_bases(d, s, q)
            }
            for _ in range(60):
                count = rng.randrange(d + 2)
                rows = [[rng.randrange(-q, 2 * q) for _ in range(d)] for _ in range(count)]
                assert reduced_echelon_form(rows, q) == by_span[_span(rows, q, d)], (rows, q)


def test_pgl_order_examples():
    # |PGL_d(F_q)| = |GL_d(F_q)| / (q - 1)
    pgl = {(d, q): gl_order(d, q) // (q - 1) for d, q in ((2, 2), (3, 2), (3, 3))}
    assert pgl == {(2, 2): 6, (3, 2): 168, (3, 3): (3 - 1) ** 2 * 13 * 4 * 27}


def test_gaussian_binomial_examples():
    assert gaussian_binomial(3, 0, 2) == 1
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 2, 2) == 7


def test_gaussian_binomial_vs_subspace_enumeration():
    for q in (2, 3):
        for d in (2, 3):
            for k in range(d + 1):
                if q ** (k * d) > 100000:
                    continue
                assert gaussian_binomial(d, k, q) == count_subspaces(d, k, q)


def test_gaussian_binomial_symmetry():
    for q in (2, 3, 5):
        for d in range(1, 6):
            for k in range(d + 1):
                assert gaussian_binomial(d, k, q) == gaussian_binomial(d, d - k, q)


def test_is_prime_trial_division_bound(monkeypatch):
    monkeypatch.setattr(gf, "TRIAL_DIVISOR_BOUND", 10)
    monkeypatch.setattr(gf, "_PRIME_CACHE", {})
    assert [n for n in range(-3, 121) if is_prime(n)] == [
        n for n in range(2, 121) if all(n % k for k in range(2, n))
    ]
    assert not is_prime(130) and not is_prime(10**400)
    for undecided in (127, 143):  # isqrt above 10, no divisor up to 10
        with pytest.raises(ResourceBoundError):
            is_prime(undecided)
        assert undecided not in gf._PRIME_CACHE


def test_is_prime_large_prime_is_undecided():
    assert is_prime(999983) and is_prime(10**12 + 39)  # isqrt <= 10^6: decided
    with pytest.raises(ResourceBoundError):
        is_prime(10**18 + 3)


def test_input_validation():
    with pytest.raises(InvalidInputError):
        gl_order(0, 2)
    with pytest.raises(InvalidInputError):
        gl_order(2, 4)
    with pytest.raises(InvalidInputError):
        gaussian_binomial(3, 4, 2)
    with pytest.raises(InvalidInputError):
        gaussian_binomial(3, -1, 2)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_field_axioms_exhaustive(q):
    # the library's F_q arithmetic is residues mod q with inverses from
    # inv_mod: every nonzero residue, in any representative, is a unit
    for a in range(1, q):
        for rep in (a, a + q, a - q):
            assert (a * inv_mod(rep, q)) % q == 1
    with pytest.raises(ZeroDivisionError):
        inv_mod(q, q)
