"""Arithmetic in the prime field F_q and q-combinatorial counting functions.

One elimination over F_q serves the library: `reduced_echelon_form`
gives the canonical basis of a span, the form in which
`building.subspace_bases` lists the subspaces of F_q^d, so a subspace
moved by a matrix is looked up among them (`domain.orbit_decomposition`).
A d x d matrix is invertible exactly when that basis of its row span
has d rows, which is the test of the normal form's certificate
(`building._certify_same_lattice`) and of the samplers
`laurent.random_gamma` and `laurent.random_k`.

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


def reduced_echelon_form(rows, q: int) -> tuple[tuple[int, ...], ...]:
    """The reduced row-echelon basis of the span of `rows` over F_q.

    Each row, read modulo q, is reduced against the basis so far; a
    nonzero remainder is scaled to 1 at its pivot, cleared from the
    pivot column of the other basis rows, and kept.  The basis rows are
    returned sorted by pivot column, so two spanning sets of one subspace
    give the same tuple of tuples, exactly as `building.subspace_bases`
    yields it.
    """
    basis: dict[int, list[int]] = {}  # pivot column -> row, 1 there, 0 at other pivots
    for r in rows:
        row = [x % q for x in r]
        for p, kept in basis.items():
            if f := row[p]:
                row = [(x - f * y) % q for x, y in zip(row, kept)]
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            continue
        if row[p] != 1:
            inv = inv_mod(row[p], q)
            row = [x * inv % q for x in row]
        for kept in basis.values():
            if f := kept[p]:
                kept[:] = [(x - f * y) % q for x, y in zip(kept, row)]
        basis[p] = row
    return tuple(tuple(basis[p]) for p in sorted(basis))


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
