"""The `btq` command line: exact, scriptable access to all modules.

Every numeric in the output is an exact integer or rational string unless
the complex scalar backend is explicitly selected via a complex literal.
Identical invocations produce byte-identical output.

Exit codes: 0 success, 2 invalid input, 3 resource bound exceeded,
4 internal invariant violation (always a bug).
"""

from __future__ import annotations

import argparse
import cmath
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
    if args.n is not None:
        label = domain.parse_label(args.n)
        if args.in_domain:
            work = domain.in_domain_work(label, args.degree)
            building.check_work(work, f"the degree-{args.degree} in-domain neighbors")
            labels = domain.neighbors_in_domain(label, args.degree)
            _emit("\n".join(domain.format_label(l) for l in labels) + "\n")
            return 0
        building.check_neighbor_work(len(label), args.degree, args.q)
        vertex = building.vertex_from_label(label, args.q)
    else:
        mat = _load_matrix(args.matrix)
        # the count alone may refuse them, before the normal form
        building.check_neighbor_work(mat.d, args.degree, mat.q)
        vertex = building.vertex_normal_form(mat)
    nbrs = building.neighbors(vertex, args.degree)
    out = [v.to_literal() for v in nbrs]
    _emit(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_stabilizer(args) -> int:
    label = domain.parse_label(args.n)
    order = domain.stabilizer_order(label, args.q)
    if not args.enumerate:
        _emit(f"{order}\n")
        return 0
    group = domain.stabilizer_enumerate(label, args.q)
    lines = [f"order {order}", f"enumerated {len(group)}"]
    for g in group:
        lines.append("; ".join(", ".join(str(x) for x in row) for row in g.rows))
    _emit("\n".join(lines) + "\n")
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
    # the work of the checks grows with the graph, so the bound on its
    # export bounds them too
    quotient.check_export_size(args.d, args.q, args.max_n, "json")
    graph = quotient.build_graph(args.d, args.q, args.max_n)
    lines = []
    gb = gaussian_binomial(args.d, 1, args.q)
    interior = [u for u in graph.nodes if u[0] < graph.max_n1]
    row_ok = all(
        sum(e.ratio_from for e in graph.out_edges[u]) == gb for u in interior
    )
    lines.append(f"row_sums {'ok' if row_ok else 'FAIL'} (expected {gb})")
    worst = Fraction(0)
    if args.d == 3:
        for seed in range(args.trials):
            f = hecke.DomainFunction.random_rational(args.d, args.q, args.max_n, args.seed + seed)
            worst = max(worst, hecke.commutator_check(graph, f))
        lines.append(f"commutator_max_residual {worst} over {args.trials} random functions")
    rng_f = hecke.DomainFunction.random_rational(args.d, args.q, args.max_n, args.seed + 104729)
    rng_g = hecke.DomainFunction.random_rational(args.d, args.q, args.max_n, args.seed + 1299709)
    interior2 = {u for u in graph.nodes if u[0] + 2 <= graph.max_n1}
    fvals = {u: (rng_f.values[u] if u in interior2 else Fraction(0)) for u in graph.nodes}
    gvals = {u: (rng_g.values[u] if u in interior2 else Fraction(0)) for u in graph.nodes}
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
    payload: dict = {"d": args.d, "q": args.q}
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
        params = hecke.HeckeParams(l1, l2, args.q)
        func, residuals = hecke.eigenvector_d3(params, args.max_n)
        payload["residuals"] = [
            {"label": list(u), "residual": _scalar_str(r)} for u, r in residuals
        ]
        # exact residuals must vanish; complex ones must be small next to the value
        failed += [
            f"residual at {domain.format_label(u)}"
            for u, r in residuals
            if not hecke.scalars_close(func[u], func[u] - r)
        ]
        if args.regression:
            reg = hecke.closed_form_regression(params, func)
            payload["regression"] = {
                name: {
                    "status": entry["status"],
                    "match": entry["match"],
                    "residual": _scalar_str(entry["residual"]),
                }
                for name, entry in reg.items()
            }
            failed += [
                f"closed form {name}"
                for name, entry in reg.items()
                if entry["status"] == "asserted" and not entry["match"]
            ]
    if args.l2:
        total, shells = hecke.l2_partial_norm(func)
        payload["l2_partial"] = {
            "total": _scalar_str(total),
            "shells": [_scalar_str(s) for s in shells],
        }
    payload["values"] = [
        {"label": list(u), "value": _scalar_str(func[u])} for u in sorted(func.values)
    ]
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        lines = [f"{'label':>10}  value"]
        for row in payload["values"]:
            lines.append(f"{','.join(map(str, row['label'])):>10}  {row['value']}")
        _emit("\n".join(lines) + "\n")
    if failed:
        raise InternalInvariantError(
            f"{len(failed)} eigenvector checks fail, first the {failed[0]}"
        )
    return 0


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


def build_parser() -> argparse.ArgumentParser:
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
    sp.add_argument("--q", type=int, default=2)
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
    sp.add_argument("--l2", action="store_true")
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
    parser = build_parser()
    args = parser.parse_args(argv)
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
