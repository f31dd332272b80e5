"""Arithmetic in the prime field F_q and q-combinatorial counting functions.

`left_null_vector` is the library's one elimination over F_q: it decides
invertibility and returns a null combination when there is one.

Counting functions (`gl_order`, `gaussian_binomial`) return Python ints,
so they are arbitrary precision by construction.  Extension fields are
intentionally not supported: q must be prime.
"""

from __future__ import annotations

from math import isqrt

from .errors import InvalidInputError, ResourceBoundError

TRIAL_DIVISOR_BOUND = 10**6

_PRIME_CACHE: dict[int, bool] = {}


def is_prime(n: int) -> bool:
    """Trial-division primality test, cached (q stays small in practice).

    Divisors run up to TRIAL_DIVISOR_BOUND only: an n with no divisor there
    and isqrt(n) above it is undecided, and raises ResourceBoundError.
    """
    if n in _PRIME_CACHE:
        return _PRIME_CACHE[n]
    root = isqrt(n) if n >= 2 else 0
    result = n >= 2 and all(n % k for k in range(2, min(root, TRIAL_DIVISOR_BOUND) + 1))
    if result and root > TRIAL_DIVISOR_BOUND:
        raise ResourceBoundError(
            f"q = {n} has no divisor up to {TRIAL_DIVISOR_BOUND}; "
            "deciding whether it is prime exceeds the trial-division bound"
        )
    _PRIME_CACHE[n] = result
    return result


def check_prime(q: int) -> int:
    if not isinstance(q, int) or not is_prime(q):
        raise InvalidInputError(f"q must be a prime integer, got {q!r}")
    return q


def inv_mod(a: int, q: int) -> int:
    """Inverse of a nonzero residue mod prime q (internal int fast path)."""
    a %= q
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in F_q")
    return pow(a, q - 2, q)


def left_null_vector(mat, q: int):
    """A nonzero vector c with c * mat = 0 over F_q, or None if mat is invertible.

    Gauss-Jordan elimination on the transpose of the square integer
    matrix mat, read modulo q.
    """
    n = len(mat)
    a = [[mat[j][i] % q for j in range(n)] for i in range(n)]
    pivots: dict[int, int] = {}  # column -> reduced row index
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = inv_mod(a[row][col], q)
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


def gl_order(m: int, q: int) -> int:
    """Order of GL_m(F_q): prod_{i=0}^{m-1} (q^m - q^i)."""
    check_prime(q)
    if not isinstance(m, int) or m < 1:
        raise InvalidInputError(f"matrix size must be a positive integer, got {m!r}")
    qm = q**m
    order = 1
    for i in range(m):
        order *= qm - q**i
    return order


def gaussian_binomial(d: int, k: int, q: int) -> int:
    """q-binomial coefficient [d choose k]_q.

    Counts k-dimensional (equivalently codimension-k) subspaces of F_q^d.
    """
    check_prime(q)
    if not isinstance(d, int) or d < 1:
        raise InvalidInputError(f"d must be a positive integer, got {d!r}")
    if not isinstance(k, int) or k < 0 or k > d:
        raise InvalidInputError(f"k must lie in [0, {d}], got {k!r}")
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    return num // den
