"""The `btq` command line: exact, scriptable access to all modules.

Every numeric in the output is an exact integer or rational string unless
the complex scalar backend is explicitly selected via a complex literal.
Identical invocations produce byte-identical output.

Exit codes: 0 success, 2 invalid input, 3 resource bound exceeded,
4 internal invariant violation (always a bug).

`main` may be called any number of times in one process, as the tests and
the benchmark do.  The process holds one argument parser, built on the
first `main` call (not at import) and reused by every later one.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import sys
from fractions import Fraction

from . import building, domain, hecke, quotient
from .errors import (
    BtqError,
    InternalInvariantError,
    InvalidInputError,
    ResourceBoundError,
)
from .gf import check_prime, gaussian_binomial
from .laurent import LaurentMatrix


def _parse_scalar(text: str):
    """Rational ('5', '-3/7', '2.5') or complex ('1+2i', '0.5-0.1i') literal."""
    s = text.strip().replace(" ", "")
    if "i" in s:
        try:
            z = complex(s.replace("i", "j"))
        except ValueError as exc:
            raise InvalidInputError(f"bad complex literal {text!r}") from exc
        if not cmath.isfinite(z):
            raise InvalidInputError(f"complex literal {text!r} is not finite")
        return z
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"bad rational literal {text!r}") from exc


def _load_matrix(path: str) -> LaurentMatrix:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InvalidInputError(f"cannot read matrix file {path!r}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"matrix file is not valid JSON: {exc}") from exc
    mat = LaurentMatrix.from_literal(obj)
    building.check_work(building.matrix_work(mat), f"the d = {mat.d} matrix literal")
    return mat


def _emit(data: bytes | str):
    if isinstance(data, str):
        data = data.encode()
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_domain(args) -> int:
    quotient.check_export_size(args.d, args.q, args.max_n, args.format)
    graph = quotient.build_graph(args.d, args.q, args.max_n)
    _emit(quotient.export(graph, args.format))
    return 0


def _cmd_neighbors(args) -> int:
    if (args.matrix is None) == (args.n is None):
        raise InvalidInputError("provide exactly one of --matrix or --n")
    if args.in_domain and args.n is None:
        raise InvalidInputError("--in-domain takes --n, a domain label, not --matrix")
    if args.n is not None:
        q = 2 if args.q is None else args.q
        label = domain.parse_label(args.n)
        if args.in_domain:
            # q does not enter the in-domain labels, but it names the building
            check_prime(q)
            work = domain.in_domain_work(label, args.degree)
            building.check_work(work, f"the degree-{args.degree} in-domain neighbors")
            labels = domain.neighbors_in_domain(label, args.degree)
            _emit("\n".join(domain.format_label(l) for l in labels) + "\n")
            return 0
        building.check_neighbor_work(len(label), args.degree, q)
        vertex = building.vertex_from_label(label, q)
    else:
        mat = _load_matrix(args.matrix)
        # the literal carries its q; a --q that names another one is an error
        if args.q is not None and args.q != mat.q:
            raise InvalidInputError(f"--q {args.q} does not match the matrix literal's q = {mat.q}")
        # the count alone may refuse them, before the normal form
        building.check_neighbor_work(mat.d, args.degree, mat.q)
        vertex = building.vertex_normal_form(mat)
    _emit(_neighbors_json(building.neighbors(vertex, args.degree)))
    return 0


def _neighbors_json(vertices: list) -> str:
    """json.dumps([v.to_literal() for v in vertices], indent=2,
    sort_keys=True) plus a newline for the `neighbors` output, written from
    one template per vertex (keys d, entries, profile, q).  The list is
    never empty: a vertex has at least one neighbor of each degree 1..d-1.

    Integers print as str(int), and every entry is str(LaurentPoly), made
    of digits, t, ^, *, +, - and spaces, which need no escaping.  The tests
    keep json.dumps as the oracle.
    """
    items = []
    for v in vertices:
        rows = ",\n      ".join(
            '[\n        "' + '",\n        "'.join(map(str, row)) + '"\n      ]' for row in v.basis.rows
        )
        profile = ",\n      ".join(map(str, v.profile))
        items.append(
            f'  {{\n    "d": {v.d},\n    "entries": [\n      {rows}\n    ],\n'
            f'    "profile": [\n      {profile}\n    ],\n    "q": {v.q}\n  }}'
        )
    return "[\n" + ",\n".join(items) + "\n]\n"


def _cmd_stabilizer(args) -> int:
    label = domain.parse_label(args.n)
    order = domain.stabilizer_order(label, args.q)
    if not args.enumerate:
        _emit(f"{order}\n")
        return 0
    # the elements are written in chunks as they come; a count that differs
    # from the order raises after the last one, which is written first
    group = domain.stabilizer_enumerate(label, args.q)
    _emit(f"order {order}\nenumerated {order}\n")
    lines = []
    try:
        for g in group:
            lines.append("; ".join(", ".join(map(str, row)) for row in g.rows) + "\n")
            if len(lines) == 4096:
                _emit("".join(lines))
                lines = []
    finally:
        _emit("".join(lines))
    return 0


def _cmd_reduce(args) -> int:
    mat = _load_matrix(args.matrix)
    vertex = building.vertex_normal_form(mat)
    label, witness = domain.reduce_to_domain(vertex)
    obj = {
        "label": list(label),
        "witness": witness.to_literal(),
        "input_profile": list(vertex.profile),
    }
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_covolume(args) -> int:
    closed = hecke.covolume(args.d, args.q, args.normalization)
    partial = hecke.covolume_partial(args.d, args.q, args.max_n, args.normalization)
    gap = closed - partial
    _emit(
        f"covolume {closed}\n"
        f"partial_sum[max_n1={args.max_n}] {partial}\n"
        f"gap {gap}\n"
    )
    return 0


def _cmd_hecke_check(args) -> int:
    if args.trials < 1:
        raise InvalidInputError(f"--trials must be >= 1, got {args.trials}")
    # at d = 2, A_1 = A_(d-1) commutes with itself by construction, so no
    # commutator is checked
    two_operators = args.d > 2
    # the work of the checks grows with the graph, so the bound on its
    # export bounds them too; each commutator trial draws one function and
    # applies an operator four times, about a unit per node and edge visited
    quotient.check_export_size(args.d, args.q, args.max_n, "json")
    if two_operators:
        nodes, edges = quotient.graph_counts(args.d, args.max_n)
        building.check_work(args.trials * (nodes + 4 * edges), f"{args.trials} commutator trials")
    graph = quotient.build_graph(args.d, args.q, args.max_n)
    lines = []
    gb = gaussian_binomial(args.d, 1, args.q)
    # the forward rows of the boundary nodes are None
    row_ok = all(sum(r for _, r in row) == gb for row in graph.forward if row is not None)
    lines.append(f"row_sums {'ok' if row_ok else 'FAIL'} (expected {gb})")
    worst = Fraction(0)
    if two_operators:
        for seed in range(args.trials):
            f = hecke.DomainFunction.random_integer(args.d, args.q, args.max_n, args.seed + seed)
            worst = max(worst, hecke.commutator_check(graph, f))
        lines.append(f"commutator_max_residual {worst} over {args.trials} random functions")
    rng_f = hecke.DomainFunction.random_integer(args.d, args.q, args.max_n, args.seed + 104729)
    rng_g = hecke.DomainFunction.random_integer(args.d, args.q, args.max_n, args.seed + 1299709)
    interior2 = {u for u in graph.nodes if u[0] + 2 <= graph.max_n1}
    fvals = {u: (rng_f.values[u] if u in interior2 else 0) for u in graph.nodes}
    gvals = {u: (rng_g.values[u] if u in interior2 else 0) for u in graph.nodes}
    f = hecke.DomainFunction(args.d, args.q, args.max_n, fvals)
    g = hecke.DomainFunction(args.d, args.q, args.max_n, gvals)
    adjointness = hecke.adjointness_residual(graph, f, g)
    lines.append(f"adjointness_residual {adjointness}")
    _emit("\n".join(lines) + "\n")
    checks = {"row sums": row_ok, "commutator": worst == 0, "adjointness": adjointness == 0}
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise InternalInvariantError(f"hecke-check fails: {', '.join(failed)}")
    return 0


def _cmd_eigenvector(args) -> int:
    if args.d not in (2, 3):
        raise InvalidInputError(f"eigenvector supports d = 2 and d = 3, got {args.d}")
    if args.d == 2 and (args.regression or args.lambda2 is not None):
        raise InvalidInputError("--regression and --lambda2 apply to d = 3 only")
    failed: list[str] = []  # the residuals and asserted closed forms that fail
    residuals = regression = norm = None
    if args.d == 2:
        func = hecke.eigenvector_d2(_parse_scalar(args.lambda1), args.q, args.max_n)
    else:
        if args.lambda2 is None:
            raise InvalidInputError("--lambda2 is required for d = 3")
        l1 = _parse_scalar(args.lambda1)
        l2 = _parse_scalar(args.lambda2)
        if isinstance(l1, complex) != isinstance(l2, complex):
            try:
                l1, l2 = complex(l1), complex(l2)
            except OverflowError as exc:
                raise ResourceBoundError("an eigenvalue is outside the float range") from exc
        func, residuals = hecke.eigenvector_d3(l1, l2, args.q, args.max_n)
        # exact residuals must vanish; complex ones must be small next to the value
        failed += [
            f"residual at {domain.format_label(u)}"
            for u, r in residuals
            if (r != 0 if isinstance(r, Fraction) else not hecke.scalars_close(func[u], func[u] - r))
        ]
        if args.regression:
            regression = hecke.closed_form_regression(l1, l2, args.q, func)
            failed += [
                f"closed form {name}"
                for name, entry in regression.items()
                if entry["status"] == "asserted" and not entry["match"]
            ]
    values = [(u, _scalar_str(x)) for u, x in sorted(func.values.items())]
    if args.format == "json":
        # the text table has no place for the norm, so only JSON computes it
        if args.l2:
            norm = hecke.l2_partial_norm(func)
        _emit(_eigenvector_json(args.d, args.q, values, residuals, regression, norm))
    else:
        lines = [f"{'label':>10}  value"]
        lines += [f"{domain.format_label(u):>10}  {value}" for u, value in values]
        _emit("\n".join(lines) + "\n")
    if failed:
        raise InternalInvariantError(
            f"{len(failed)} eigenvector checks fail, first the {failed[0]}"
        )
    return 0


def _eigenvector_json(d: int, q: int, values: list, residuals, regression, norm) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) plus a newline for the
    `eigenvector` output, written from templates: values from the
    (label, value string) rows, and residuals, regression and l2_partial,
    each unless None, from the results of `hecke.eigenvector_d3`,
    `closed_form_regression` and `l2_partial_norm` as they come.

    Every scalar string is str(Fraction) or the repr of two floats around
    '+' and 'i', which need no escaping.  The tests keep json.dumps as the
    oracle.
    """

    def rows(key: str, entries: list) -> str:
        return quotient._json_list([
            '    {\n      "label": [\n        '
            + ",\n        ".join(map(str, u))
            + f'\n      ],\n      "{key}": "{text}"\n    }}'
            for u, text in entries
        ])

    parts = [f'"d": {d}']
    if norm is not None:
        total, shells = norm
        lines = ",\n".join(f'      "{_scalar_str(s)}"' for s in shells)
        parts.append(
            f'"l2_partial": {{\n    "shells": [\n{lines}\n    ],\n'
            f'    "total": "{_scalar_str(total)}"\n  }}'
        )
    parts.append(f'"q": {q}')
    if regression is not None:
        entries = [
            f'    "{name}": {{\n      "match": {"true" if e["match"] else "false"},\n'
            f'      "residual": "{_scalar_str(e["residual"])}",\n      "status": "{e["status"]}"\n    }}'
            for name, e in sorted(regression.items())
        ]
        parts.append('"regression": {\n' + ",\n".join(entries) + "\n  }")
    if residuals is not None:
        parts.append(f'"residuals": {rows("residual", [(u, _scalar_str(r)) for u, r in residuals])}')
    parts.append(f'"values": {rows("value", values)}')
    return "{\n  " + ",\n  ".join(parts) + "\n}\n"


def _scalar_str(x) -> str:
    if isinstance(x, complex):
        return f"{x.real!r}+{x.imag!r}i"
    return str(x)


def _cmd_distance(args) -> int:
    lab1 = domain.parse_label(args.n)
    lab2 = domain.parse_label(args.m)
    # q does not enter the distances of two labels, but it names the building
    check_prime(args.q)
    position = building.label_relative_position(lab1, lab2)
    bfs, bfs1 = building.position_distances(position, args.radius)
    formula, formula1 = building.distance_formulas(lab1, lab2)
    lines = [
        f"bfs_distance {bfs if bfs is not None else 'unreachable-within-radius'}",
        f"bfs_color1_distance {bfs1 if bfs1 is not None else 'unreachable-within-radius'}",
        f"formula_distance {formula}",
        f"formula_color1_distance {formula1}",
    ]
    if bfs is not None and bfs != formula:
        lines.append(
            "note: the closed-form graph distance disagrees with the BFS ground "
            "truth on this pair; BFS counts edges of the 1-skeleton"
        )
    _emit("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `btq` argument parser: one instance per process, built on the
    first call (the first `main` call) and returned by every later one.

    Reusing it carries no state from one `main` call to the next: each
    parse_args fills a fresh Namespace, and every default is an immutable
    value (an int, a str, None, False or a subcommand function).
    """
    p = argparse.ArgumentParser(
        prog="btq",
        description="Exact computations in the PGL_d building quotient",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("domain", help="enumerate the domain and export the weighted graph")
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--max-n", type=int, default=12)
    sp.add_argument("--format", choices=("json", "dot"), default="json")
    sp.set_defaults(func=_cmd_domain)

    sp = sub.add_parser("neighbors", help="neighbors of a vertex (building or in-domain)")
    sp.add_argument("--matrix", help="matrix literal JSON file, or - for stdin")
    sp.add_argument("--n", help="domain label, e.g. 2,1,0")
    sp.add_argument("--q", type=int, help="2 with --n; with --matrix, the literal's q")
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--in-domain", action="store_true", help="restrict to in-domain labels")
    sp.set_defaults(func=_cmd_neighbors)

    sp = sub.add_parser("stabilizer", help="vertex stabilizer order (optionally enumerate)")
    sp.add_argument("--n", required=True)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--enumerate", action="store_true")
    sp.set_defaults(func=_cmd_stabilizer)

    sp = sub.add_parser("reduce", help="reduce a matrix's lattice class into the domain")
    sp.add_argument("--matrix", required=True)
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("covolume", help="exact covolume: closed form, partial sum, gap")
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--max-n", type=int, default=40)
    sp.add_argument("--normalization", choices=("pgl", "gl"), default="pgl")
    sp.set_defaults(func=_cmd_covolume)

    sp = sub.add_parser("hecke-check", help="row sums, commutator, adjointness")
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--max-n", type=int, default=12)
    sp.add_argument("--trials", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_hecke_check)

    sp = sub.add_parser("eigenvector", help="simultaneous eigenvector values and residuals")
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--lambda1", required=True)
    sp.add_argument("--lambda2")
    sp.add_argument("--max-n", type=int, default=12)
    sp.add_argument("--l2", action="store_true",
                    help="add the partial L2 norm per shell to the JSON output (not printed in text)")
    sp.add_argument("--regression", action="store_true")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.set_defaults(func=_cmd_eigenvector)

    help_text = "distances from the relative position (bfs_* lines) vs the old label formulas"
    sp = sub.add_parser(
        "distance",
        help=help_text,
        description=help_text + ".  The bfs_* lines keep the names of the breadth-first "
        "search they replaced.  The formula_* lines are the old label formulas, which "
        "disagree with the graph metric on some pairs; a note line says so.",
    )
    sp.add_argument("--n", required=True)
    sp.add_argument("--m", required=True)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--radius", type=int, default=6,
                    help="print unreachable-within-radius above this distance")
    sp.set_defaults(func=_cmd_distance)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceBoundError as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4
    except BtqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
