"""Weighted adjacency (Hecke) operators on the quotient graph.

One scalar rule covers every function here.  Exact input (int, float or
Fraction) becomes a Fraction where it enters, and everything computed
from it stays exact.  Exact eigenvalues run the recursions on Python ints
over a denominator known in advance, and each returned value becomes one
Fraction at the end (fraction-free, as in Bareiss elimination): the
d = 3 recursion over g^(n_1 + n_2), the d = 2 recursion over (q+1) b^n
for lam = a/b.  The sums weighted by 1/|Gamma_u| (the pairing, the norm
and the partial covolume) add int numerators over the lcm of their
orders.  The commutator and adjointness checks run int values as ints
and return a Fraction; Fraction values go through the number protocol,
which is exact for them.  An exact d = 2 value is computed once, since
exact arithmetic cannot drift; an inexact one is also checked against
the two-root closed form.  Any other scalar (Python complex, mpmath
mpf/mpc for high-precision runs) goes through the number protocol only:
`x.conjugate()`, `abs(x)`, `(x * x.conjugate()).real` and `** 0.5`, and
is compared within COMPLEX_TOLERANCE relative to its size.  The
tabulated d = 3 closed forms are the code in CLOSED_FORMS.

The operators run on the quotient graph's node ids: each call reads a
label-keyed DomainFunction into a list indexed by node id once (one of
another d or q is refused), applies A_1 on the forward rows and A_(d-1)
on the backward rows of (id, ratio) pairs, and gives its results
label-keyed again; the commutator and adjointness checks apply all their
operators to such lists, and a function with int values enters them as
it is.  Operator application at a truncation boundary yields an explicit
undefined marker (None in a list, and the vertex absent from a
DomainFunction), never a silent zero: zero-padding would fabricate
boundary conditions and corrupt the commutator and adjointness
identities.
"""

from __future__ import annotations

import operator
import random
import sys
from fractions import Fraction
from math import ceil, lcm, log2

from . import building, domain
from .errors import InternalInvariantError, InvalidInputError, ResourceBoundError
from .gf import check_prime
from .quotient import QuotientGraph

Label = tuple[int, ...]

COMPLEX_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def _exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def _lift(x):
    """An int, float or Fraction as a Fraction; any other scalar unchanged."""
    if not isinstance(x, (int, float, Fraction)):
        return x
    try:
        return Fraction(x)
    except (OverflowError, ValueError) as exc:
        raise InvalidInputError(f"scalar {x!r} is not finite") from exc


def scalars_close(x, y) -> bool:
    """Equality for exact scalars, |x - y| <= COMPLEX_TOLERANCE*max(1, |x|, |y|)
    otherwise."""
    if _exact(x) and _exact(y):
        return x == y
    return abs(x - y) <= COMPLEX_TOLERANCE * max(1.0, abs(x), abs(y))


def _over_orders(pairs: list) -> Fraction:
    """sum x / order over int pairs (x, order), as ints over the lcm of the
    orders and one Fraction at the end; 0 for no pairs."""
    common = lcm(*(order for _, order in pairs))
    return Fraction(sum(x * (common // order) for x, order in pairs), common)


def _check_eigenvector_size(lambdas, q: int, max_n1: int, operations: int) -> None:
    """Raise ResourceBoundError if eigenvector values to depth max_n1 are
    predicted above RESULT_BIT_BOUND bits (for inexact scalars, beyond the
    float exponent range), or `operations` times that size above
    building.NEIGHBOR_WORK_BOUND, at 40 operand bits per unit.

    A unit of n_1 multiplies by an eigenvalue and powers of q and divides by
    q + 1 or q^2 + q + 1: about 2 log2 H + 2 log2(q + 1) bits per eigenvalue,
    H = max(1, |numerator|, denominator), or max(1, |lambda|) if inexact.
    """
    lambdas = [_lift(x) for x in lambdas]
    exact = all(_exact(x) for x in lambdas)
    heights = [
        max(1, abs(x.numerator), x.denominator) if exact else max(1.0, abs(x))
        for x in lambdas
    ]
    bits = max_n1 * sum(2 * log2(h) + 2 * log2(q + 1) for h in heights)
    limit = domain.RESULT_BIT_BOUND if exact else sys.float_info.max_exp
    if not bits <= limit:
        raise ResourceBoundError(
            f"eigenvector values to n_1 = {max_n1} would have about {bits:.0f} bits, "
            f"over the bound {limit}"
        )
    building.check_work(ceil(operations * bits / 40), f"the eigenvector to n_1 = {max_n1}")


# ---------------------------------------------------------------------------
# functions on the domain
# ---------------------------------------------------------------------------


class DomainFunction:
    """A scalar-valued function on a truncation of the fundamental domain.

    Vertices absent from `values` are undefined (the boundary marker after
    operator application).  Values are ints, Fractions or inexact scalars
    (Python complex, or mpmath numbers for high-precision runs); a float
    value is lifted to its Fraction, and inf or nan is refused.
    """

    def __init__(self, d: int, q: int, max_n1: int, values: dict[Label, object]):
        self.d = d
        self.q = q
        self.max_n1 = max_n1
        values = dict(values)
        # the scan of the value types runs in C; most functions hold no float
        if any(issubclass(t, float) for t in set(map(type, values.values()))):
            values = {u: _lift(x) if isinstance(x, float) else x for u, x in values.items()}
        self.values = values

    @classmethod
    def random_integer(cls, d: int, q: int, max_n1: int, seed: int) -> "DomainFunction":
        """A random function with int values, one uniform draw from
        [-50, 50] per label in lexicographic order."""
        rng = random.Random(seed)
        labels = domain.enumerate_domain(d, max_n1)
        return cls(d, q, max_n1, {lab: rng.randint(-50, 50) for lab in labels})

    def __getitem__(self, label):
        label = tuple(label)
        if label not in self.values:
            raise InvalidInputError(f"function is undefined at {label}")
        return self.values[label]


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def _rows(graph: QuotientGraph, i: int) -> list:
    """The id rows of the color-i operator: the forward rows for color 1,
    the backward rows for color d-1."""
    d = graph.d
    if d == 2 and i != 1:
        raise InvalidInputError("d = 2 has a single operator, i = 1")
    if i not in (1, d - 1):
        raise InvalidInputError(
            f"only colors 1 and {d - 1} are realized on the stored graph, got {i}"
        )
    return graph.forward if i == 1 else graph.backward


def _on_ids(graph: QuotientGraph, f: DomainFunction) -> list:
    """The values of f by node id, None where f is undefined.  f must live
    on the graph's building; a smaller truncation is fine."""
    if (f.d, f.q) != (graph.d, graph.q):
        raise InvalidInputError(
            f"function on the d = {f.d}, q = {f.q} building, graph on d = {graph.d}, q = {graph.q}"
        )
    get = f.values.get
    return [get(lab) for lab in graph.labels]


def _apply_rows(rows: list, values: list) -> list:
    """sum ratio * values[v] over each row, by node id; None where the row
    is None (a boundary node) or reaches a None value."""
    out = []
    for row in rows:
        acc = None
        if row:
            for v, ratio in row:
                x = values[v]
                if x is None:
                    acc = None
                    break
                term = ratio * x
                acc = term if acc is None else acc + term
        out.append(acc)
    return out


def apply_hecke(graph: QuotientGraph, i: int, f: DomainFunction) -> DomainFunction:
    """Weighted color-i neighbor sum: (A_i f)(u) = sum ratio * f(v).

    Color 1 runs on the forward rows (ratio_from), color d-1 on the
    backward rows (ratio_to).  A vertex whose required neighbors leave the
    truncation (n_1 = max_n1) or hit an undefined value of f is left
    undefined in the result.
    """
    out = _apply_rows(_rows(graph, i), _on_ids(graph, f))
    values = {lab: x for lab, x in zip(graph.labels, out) if x is not None}
    return DomainFunction(graph.d, graph.q, graph.max_n1, values)


def commutator_check(graph: QuotientGraph, f: DomainFunction):
    """Max |(A_1 A_{d-1} - A_{d-1} A_1) f| over the doubly-interior vertices,
    for the two operators stored at every d.

    Exactly zero for exact scalars: int values run as ints (the ratios are
    ints), Fraction values through the number protocol, and both give a
    Fraction.  Raises if the truncation is too small to contain any
    doubly-interior vertex.

    Fraction values cost Fraction arithmetic at every edge: on
    `build_graph(3, 2, 24)` a call takes 10-14 ms against 0.6-1.4 ms for
    ints (2-core x86-64, Python 3.11).  Callers with rational values scale
    them to ints over a common denominator first and divide the residual
    by it.
    """
    values = _on_ids(graph, f)
    one, top = _rows(graph, 1), _rows(graph, graph.d - 1)
    left = _apply_rows(one, _apply_rows(top, values))
    right = _apply_rows(top, _apply_rows(one, values))
    residuals = [abs(a - b) for a, b in zip(left, right) if a is not None and b is not None]
    if not residuals:
        raise InvalidInputError("truncation has no doubly-interior vertex")
    residual = max(residuals)
    return Fraction(residual) if type(residual) is int else residual


def weighted_inner(graph: QuotientGraph, f: DomainFunction, g: DomainFunction):
    """<f, g> = sum w(u) f(u) conj(g(u)) with w(u) = 1/|Gamma_u|.

    Summed over the vertices where both are defined; wherever exactly one
    is undefined the other must vanish, otherwise the truncated pairing
    would be meaningless and an error is raised.  Int values, which
    `adjointness_residual` passes, sum as ints over the lcm of the orders
    (so no pairs at all give Fraction(0)).
    """
    return _inner(graph, _on_ids(graph, f), _on_ids(graph, g))


def _inner(graph: QuotientGraph, x: list, y: list):
    # weighted_inner on values by node id
    pairs = []
    for lab, xu, yu in zip(graph.labels, x, y):
        if xu is None or yu is None:
            present = xu if yu is None else yu
            if present is not None and present != 0:
                raise InvalidInputError(
                    f"inner product undefined: one factor missing at {lab} "
                    "where the other is nonzero"
                )
            continue
        pairs.append((graph.nodes[lab], xu, yu))
    if all(type(xu) is int and type(yu) is int for _, xu, yu in pairs):
        return _over_orders([(xu * yu, order) for order, xu, yu in pairs])
    total = None
    for order, xu, yu in pairs:
        term = Fraction(1, order) * xu * yu.conjugate()
        total = term if total is None else total + term
    return total


def adjointness_residual(graph: QuotientGraph, f: DomainFunction, g: DomainFunction):
    """<A_1 f, g> - <f, A_{d-1} g>; exactly zero for compact supports.

    Int f and g run as ints, Fraction values through the number protocol,
    and both give a Fraction.  Fraction values cost Fraction arithmetic at
    every edge and in the pairing, as in `commutator_check` (10-14 ms
    against 0.6-1.4 ms on `build_graph(3, 2, 24)`), so callers scale them
    to ints over a common denominator first and divide the residual by its
    square."""
    x, y = _on_ids(graph, f), _on_ids(graph, g)
    a1x = _apply_rows(_rows(graph, 1), x)
    aty = _apply_rows(_rows(graph, graph.d - 1), y)
    return _inner(graph, a1x, y) - _inner(graph, x, aty)


# ---------------------------------------------------------------------------
# the d = 3 eigenvector recursion
# ---------------------------------------------------------------------------


def eigenvector_d3(lambda1, lambda2, q: int, max_n1: int):
    """Simultaneous eigenvector values on the truncation, plus residuals.

    Walks the diagonals n_1 + n_2 in increasing order (larger n_2 first
    within a diagonal), defining each value by one recursion; at every
    vertex that a second recursion also defines, the difference of the
    two is recorded as a residual.  With exact scalars every residual is
    identically zero; that is the commutation of the two operators.

    One loop writes out the eight cases for every scalar.  Exact
    eigenvalues run it on the ints N(a, b) = f(a, b) g^(a+b), with
    g = lcm(den l1, den l2) (q^2 + q + 1)(q + 1): a term that steps back
    k diagonals takes g^k, so l1 enters as l1 g and l2 as l2 g^2, the int
    coefficients of the terms that step back three diagonals (q, q^2 and
    q (q + 1)) take g^3, and the two that step back none (q f(a-1, b+1)
    and q (q + 1) f(a-1, 1)) stay plain.  g^3 and l1 g, l2 g^2 are
    divisible by q^2 + q + 1 and q + 1, so a divided sum divides exactly,
    and each value and residual becomes one Fraction at the end.  Any
    other scalar runs the same expressions with l1, l2, g^3 = 1 and true
    division.
    """
    if max_n1 < 2:
        raise InvalidInputError("the recursion needs max_n1 >= 2")
    check_prime(q)
    l1, l2 = _lift(lambda1), _lift(lambda2)
    # about six products per label, on (max_n1 + 1)(max_n1 + 2)/2 labels
    _check_eigenvector_size((l1, l2), q, max_n1, 3 * (max_n1 + 1) ** 2)
    t3, r = q * q + q + 1, q + 1
    exact = _exact(l1) and _exact(l2)
    if exact:
        g = lcm(l1.denominator, l2.denominator) * t3 * r
        c1 = l1.numerator * (g // l1.denominator)
        c2 = l2.numerator * (g * g // l2.denominator)
        g3, div = g**3, operator.floordiv
    else:
        c1, c2, g3, div = l1, l2, 1, operator.truediv
    qg3, q2g3, qrg3 = q * g3, q * q * g3, q * r * g3
    one = c1 * 0 + 1  # one in the scalar type of c1
    start = {(0, 0): one}
    start[1, 0] = div(c1 * one, t3)
    start[1, 1] = div(c2 * one, t3)
    start[2, 1] = div(c2 * start[1, 0] - q2g3 * one, r)
    F: dict[tuple[int, int], object] = {}  # N(a, b) for exact eigenvalues
    residuals: list[tuple[Label, object]] = []
    for s in range(2 * max_n1 + 1):
        for b in range(s // 2, max(s - max_n1, 0) - 1, -1):
            a = s - b
            if (a, b) in start:
                val = start[a, b]
            elif b == 0:
                val = c1 * F[a - 1, 0] - q * r * F[a - 1, 1]
            elif b == a:
                val = c2 * F[a - 1, b - 1] - qrg3 * F[a - 1, b - 2]
            else:
                if b == 1:
                    val = div(c2 * F[a - 1, 0] - q2g3 * F[a - 2, 0], r)
                    second = c1 * F[a - 1, 1] - q * F[a - 1, 2] - q2g3 * F[a - 2, 0]
                elif b == a - 1:
                    val = div(c1 * F[a - 1, b] - q2g3 * F[a - 2, b - 1], r)
                    second = c2 * F[a - 1, b - 1] - qg3 * F[a - 1, b - 2] - q2g3 * F[a - 2, b - 1]
                else:
                    val = c2 * F[a - 1, b - 1] - qg3 * F[a - 1, b - 2] - q2g3 * F[a - 2, b - 1]
                    second = c1 * F[a - 1, b] - q * F[a - 1, b + 1] - q2g3 * F[a - 2, b - 1]
                residuals.append(((a, b, 0), val - second))
            F[a, b] = val
    if exact:
        power = [1]
        for _ in range(2 * max_n1):
            power.append(power[-1] * g)
        values = {(a, b, 0): Fraction(x, power[a + b]) for (a, b), x in F.items()}
        residuals = [(u, Fraction(x, power[u[0] + u[1]])) for u, x in residuals]
    else:
        values = {(a, b, 0): x for (a, b), x in F.items()}
    return DomainFunction(3, q, max_n1, values), residuals


# ---------------------------------------------------------------------------
# tabulated closed forms
# ---------------------------------------------------------------------------


# Values of the d = 3 simultaneous eigenvector on the first six diagonals,
# as polynomials in l1, l2, q with t = q^2 + q + 1 and r = q + 1.  Every
# entry, the fifth diagonal included, equals eigenvector_d3 exactly for
# q in {2, 3, 5, 7, 11} and 40 rational eigenvalue pairs each
# (test_every_closed_form_matches_the_recursion).  The fifth diagonal stays
# 'flagged', so the regression reports its residuals instead of asserting
# them, only because the `--regression` output prints that status.
CLOSED_FORMS = {
    "000": ("asserted", lambda l1, l2, q, t, r: 1),
    "100": ("asserted", lambda l1, l2, q, t, r: l1/t),
    "110": ("asserted", lambda l1, l2, q, t, r: l2/t),
    "200": ("asserted", lambda l1, l2, q, t, r: (l1**2 - q*r*l2)/t),
    "210": ("asserted", lambda l1, l2, q, t, r: (l1*l2 - q**2*t)/(t*r)),
    "220": ("asserted", lambda l1, l2, q, t, r: (l2**2 - q*r*l1)/t),
    "300": ("asserted", lambda l1, l2, q, t, r: (l1**3 - q*(r+1)*l1*l2 + q**3*t)/t),
    "310": ("asserted", lambda l1, l2, q, t, r: (l2*l1**2 - q*r*l2**2 - q**2*l1)/(r*t)),
    "320": ("asserted", lambda l1, l2, q, t, r: (l1*l2**2 - q*r*l1**2 - l2*q**2)/(r*t)),
    "330": ("asserted", lambda l1, l2, q, t, r: (l2**3 - q*l1*l2*(r+1) + q**3*t)/t),
    "400": ("asserted", lambda l1, l2, q, t, r:
            (l1**4 - q*l2*l1**2*(r+2) + q**2*r*l2**2 + q**3*l1*(t+1))/t),
    "410": ("asserted", lambda l1, l2, q, t, r:
            (l2*l1**3 - q*l1*l2**2*(r+1) + q**3*l2*(1+r**2) - q**2*l1**2)/(r*t)),
    "420": ("asserted", lambda l1, l2, q, t, r:
            (l1**2*l2**2 - q*r*(l1**3 + l2**3) + l1*l2*q**3*(r+2) - q**5*t)/(r*t)),
    "430": ("asserted", lambda l1, l2, q, t, r:
            (l1*l2**3 - q*l1**2*l2*(r+1) - l2**2*q**2 + l1*q**3*(t+r))/(r*t)),
    "440": ("asserted", lambda l1, l2, q, t, r:
            (l2**4 - q*l1*l2**2*(r+2) + l2*q**3*(t+1) + q**2*r*l1**2)/t),
    "500": ("flagged", lambda l1, l2, q, t, r:
            (l1**5 - q*l1**3*l2*(r+3) + l1*l2**2*q**2*(2*r+1) + l1**2*q**3*(t+2)
             - q**4*l2*(r**2+1))/t),
    "510": ("flagged", lambda l1, l2, q, t, r:
            (l2*l1**4 - q*l1**2*l2**2*(r+2) + q**3*l1*l2*(t+r+2) - q**2*l1**3
             + q**2*r*l2**3 - q**5*t)/(r*t)),
    "520": ("flagged", lambda l1, l2, q, t, r:
            (l1**3*l2**2 - q*l1*l2**3*(r+1) + q**2*l2*l1**2*(t+3*q) - q*r*l1**4
             + q**3*l2**2*(r+1) - q**4*l1*(r*t+q))/(r*t)),
    "530": ("flagged", lambda l1, l2, q, t, r:
            (l1**2*l2**3 - l2*l1**3*q*(q+2) + q**2*l1*l2**2*(q**2+4*q+1) - q*r*l2**4
             + q**3*l1**2*(q+2) - l2*q**4*(q**3+2*q**2+3*q+1))/(r*t)),
    "540": ("flagged", lambda l1, l2, q, t, r:
            (l1*l2**4 - l1**2*l2**2*q*(r+2) + l1*l2*q**3*(t+r+2) - q**2*l2**3
             + q**2*r*l1**3 - q**5*t)/(r*t)),
    "550": ("flagged", lambda l1, l2, q, t, r:
            (l2**5 - q*l1*l2**3*(r+3) + q**2*l1**2*l2*(2*r+1) + l2**2*q**3*(t+2)
             - l1*q**4*(t+r))/t),
}


def closed_form_regression(
    lambda1, lambda2, q: int, func: DomainFunction | None = None
) -> dict[str, dict]:
    """Compare the recursion against every tabulated closed form.

    func, the values of `eigenvector_d3(lambda1, lambda2, q, n)`, is reused
    when n >= 6, which covers every tabulated label; otherwise the
    recursion runs to n = 6 here.  Returns, per label, the tabulated status
    ('asserted' or 'flagged'), whether the two values agree, and their
    difference.  Flagged entries are reported, never asserted by callers.
    """
    if func is None or func.max_n1 < 6:
        func, _ = eigenvector_d3(lambda1, lambda2, q, 6)
    l1, l2 = _lift(lambda1), _lift(lambda2)
    zero = l1 * 0  # q, t and r enter in the scalar type of l1
    out = {}
    for name, (status, closed) in CLOSED_FORMS.items():
        label = tuple(int(c) for c in name)
        expected = closed(l1, l2, zero + q, zero + q * q + q + 1, zero + q + 1)
        actual = func[label]
        out[name] = {
            "status": status,
            "match": scalars_close(actual, expected),
            "residual": actual - expected,
        }
    return out


# ---------------------------------------------------------------------------
# the d = 2 tree
# ---------------------------------------------------------------------------


def eigenvector_d2(lam, q: int, max_n: int) -> DomainFunction:
    """Eigenvector on the half-line: f_0 = 1, f_1 = lam/(q+1),
    f_{n+1} = lam f_n - q f_{n-1}.

    Exact lam = a/b runs on the integers V_n = (q+1) b^n f_n, V_0 = q + 1,
    V_1 = a, V_(n+1) = a V_n - q b^2 V_(n-1), and each value is one
    Fraction.  Any other lam runs through the number protocol, and since
    rounding can drift, every value is checked within tolerance against
    `eigenvector_d2_closed_form`; a disagreement is an internal error.
    An inexact lam with lam^2 = 4q (numerically coincident roots) has no
    two-root closed form and is returned unchecked.
    """
    check_prime(q)
    if max_n < 1:
        raise InvalidInputError("max_n must be >= 1")
    lam = _lift(lam)
    # three products per n
    _check_eigenvector_size((lam,), q, max_n, 3 * (max_n + 1))
    if _exact(lam):
        a, b = lam.numerator, lam.denominator
        tops = [q + 1, a]
        for _ in range(2, max_n + 1):
            tops.append(a * tops[-1] - q * b * b * tops[-2])
        vals = [Fraction(top, (q + 1) * b**n) for n, top in enumerate(tops)]
    else:
        vals = [lam * 0 + 1, lam / (q + 1)]
        for _ in range(2, max_n + 1):
            vals.append(lam * vals[-1] - q * vals[-2])
        if not _degenerate_roots(lam, q):
            for n, val in enumerate(vals):
                if not scalars_close(val, eigenvector_d2_closed_form(lam, q, n)):
                    raise InternalInvariantError(f"d=2 recursion and closed form disagree at n={n}")
    return DomainFunction(2, q, max_n, {(n, 0): val for n, val in enumerate(vals)})


def _degenerate_roots(lam, q: int) -> bool:
    return abs(lam * lam - 4 * q) <= COMPLEX_TOLERANCE * max(1.0, abs(lam) ** 2)


def eigenvector_d2_closed_form(lam, q: int, n: int):
    """f_n in closed form, independent of the recursion: f_n = C r1^n +
    D r2^n with r_{1,2} the roots of x^2 - lam x + q, C = (lam - (q+1) r2)
    / ((q+1) sqrt(lam^2 - 4q)) and D = 1 - C.

    The square root makes the value inexact (float, complex or mpmath)
    for every lam, so it checks inexact runs only.
    """
    lam = _lift(lam)
    if _degenerate_roots(lam, q):
        raise InvalidInputError("lam^2 = 4q has no two-root closed form")
    s = (lam * lam - 4 * q) ** 0.5
    r1 = (lam + s) / 2
    r2 = (lam - s) / 2
    c = (lam - (q + 1) * r2) / ((q + 1) * s)
    d = 1 - c
    return c * r1**n + d * r2**n


# ---------------------------------------------------------------------------
# norms and covolume
# ---------------------------------------------------------------------------


def l2_partial_norm(f: DomainFunction):
    """Partial square norm sum |f(u)|^2 / |Gamma_u|, reported per shell.

    Returns (total, shells) where shells[n] is the contribution of the
    vertices with n_1 = n <= f.max_n1; the total is monotone in the
    truncation.  A label of f that is not a domain label of f's d with
    n_1 <= f.max_n1 is refused.  Exact f sums each shell from the int
    pairs (numerator^2, denominator^2 |Gamma_u|) over the lcm of its
    second entries, and the total from the shells the same way: one
    Fraction each.
    """
    q = check_prime(f.q)
    for u in f.values:
        label = domain._read_label(u)[0]
        if len(label) != f.d or label[0] > f.max_n1:
            raise InvalidInputError(f"{label} is not a d = {f.d} domain label with n_1 <= {f.max_n1}")
    if all(_exact(x) for x in f.values.values()):
        members: list[list[tuple[int, int]]] = [[] for _ in range(f.max_n1 + 1)]
        for u, x in f.values.items():
            order = domain._pattern_order(u, u, q)
            members[u[0]].append((x.numerator**2, x.denominator**2 * order))
        shells = [_over_orders(shell) for shell in members]
        return _over_orders([(s.numerator, s.denominator) for s in shells]), shells
    shells = [Fraction(0)] * (f.max_n1 + 1)
    for u, val in f.values.items():
        weight = Fraction(1, domain._pattern_order(u, u, q))
        shells[u[0]] = shells[u[0]] + (val * val.conjugate()).real * weight
    total = sum(shells[1:], shells[0]) if shells else Fraction(0)
    return total, shells


def covolume(d: int, q: int, normalization: str = "pgl") -> Fraction:
    """Exact total weight of the fundamental domain.

    Closed form: d / prod_{i=1}^{d-1} (q^i - 1)(q^(i+1) - 1), that is
    d / |PGL_d(F_q)| * prod_{i=2}^{d} zeta_A(i) for the zeta function
    zeta_A(s) = 1/(1 - q^(1-s)) of A = F_q[t], the shape of the
    Siegel-Weil mass formula (Harder, Ann. of Math. 1974).  It takes O(d)
    integer steps.  The tests check it against the stabilizer weights
    summed over the ordered compositions of d, and against that sum's
    recursion over prefix sums.  The 'gl' normalization divides by q-1.
    """
    check_prime(q)
    if d < 2:
        raise InvalidInputError("d must be >= 2")
    # the denominator is below q^(d^2 - 1), so q^(d^2) bounds its size
    domain.check_result_size(d * d, q, "the covolume")
    denominator = 1
    power = q
    for _ in range(1, d):
        denominator *= (power - 1) * (power * q - 1)
        power *= q
    return _apply_normalization(Fraction(d, denominator), q, normalization)


def covolume_partial(d: int, q: int, max_n1: int, normalization: str = "pgl") -> Fraction:
    """Sum of 1/|Gamma_label| over the truncated domain; below covolume.

    The weights sum as ints over the lcm of the orders, one Fraction at
    the end.  Refused before the loop when its predicted work, 16 + 5 d
    units per label (one stabilizer order, O(d), and one int sum), is
    over building.NEIGHBOR_WORK_BOUND.  It is an upper estimate: a label
    took 3.5-32 us for d = 3-40 (about 3 + 0.7 d) on a shared 2-core
    x86-64 with Python 3.11."""
    check_prime(q)
    building.check_work(domain.label_count(d, max_n1) * (16 + 5 * d), "the partial covolume")
    # the enumerated labels are valid and q is checked above
    labels = domain.enumerate_domain(d, max_n1)
    total = _over_orders([(1, domain._pattern_order(lab, lab, q)) for lab in labels])
    return _apply_normalization(total, q, normalization)


def covolume_gap_bound(d: int, q: int, max_n1: int) -> Fraction:
    """An explicit geometric bound on covolume - covolume_partial.

    A label with n_1 = m pairs its first coordinate against every lower
    block, so the stabilizer exponent is at least (d-1)(m+1) and the
    vertex weight is at most (q-1) q^(-(d-1)(m+1)).  A shell has at most
    (m+1)^(d-2) labels, and per increment of m the shell total shrinks by
    at least (3/2)^(d-2) q^(-(d-1)) < 1, so the tail beyond max_n1 is
    dominated by a geometric series.
    """
    check_prime(q)
    if d < 2 or max_n1 < 0:
        raise InvalidInputError("need d >= 2 and max_n1 >= 0")
    m = max_n1 + 1
    first = (m + 1) ** (d - 2) * Fraction(q - 1, q ** ((d - 1) * (m + 1)))
    ratio = Fraction(3, 2) ** (d - 2) * Fraction(1, q ** (d - 1))
    return first / (1 - ratio)


def _apply_normalization(value: Fraction, q: int, normalization: str) -> Fraction:
    if normalization == "pgl":
        return value
    if normalization == "gl":
        return value / (q - 1)
    raise InvalidInputError(f"unknown normalization {normalization!r}")
