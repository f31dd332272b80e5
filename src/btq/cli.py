"""The `btq` command line: exact, scriptable access to all modules.

Every numeric in the output is an exact integer or rational string unless
the complex scalar backend is explicitly selected via a complex literal.
Identical invocations produce byte-identical output.

Exit codes: 0 success, 2 invalid input, 3 resource bound exceeded,
4 internal invariant violation (always a bug).
"""

from __future__ import annotations

import argparse
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
from .gf import gaussian_binomial
from .laurent import LaurentMatrix


def _parse_scalar(text: str):
    """Rational ('5', '-3/7', '2.5') or complex ('1+2i', '0.5-0.1i') literal."""
    s = text.strip().replace(" ", "")
    if "i" in s:
        try:
            return complex(s.replace("i", "j"))
        except ValueError as exc:
            raise InvalidInputError(f"bad complex literal {text!r}") from exc
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
    return LaurentMatrix.from_literal(obj)


def _emit(data: bytes | str):
    if isinstance(data, str):
        data = data.encode()
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_domain(args) -> int:
    graph = quotient.build_graph(args.d, args.q, args.max_n)
    _emit(quotient.export(graph, args.format))
    return 0


def _cmd_neighbors(args) -> int:
    if (args.matrix is None) == (args.n is None):
        raise InvalidInputError("provide exactly one of --matrix or --n")
    if args.n is not None:
        label = domain.parse_label(args.n)
        if args.in_domain:
            labels = domain.neighbors_in_domain(label, args.degree)
            _emit("\n".join(domain.format_label(l) for l in labels) + "\n")
            return 0
        vertex = building.vertex_from_label(label, args.q)
    else:
        vertex = building.vertex_normal_form(_load_matrix(args.matrix))
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
    group = domain.stabilizer_enumerate(label, args.q, args.bound)
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
    graph = quotient.build_graph(args.d, args.q, args.max_n)
    lines = []
    gb = gaussian_binomial(args.d, 1, args.q)
    interior = [u for u in graph.nodes if u[0] < graph.max_n1]
    row_ok = all(
        sum(e.ratio_from for e in graph.out_edges[u]) == gb for u in interior
    )
    lines.append(f"row_sums {'ok' if row_ok else 'FAIL'} (expected {gb})")
    if args.d == 3:
        worst = Fraction(0)
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
    lines.append(f"adjointness_residual {hecke.adjointness_residual(graph, f, g)}")
    _emit("\n".join(lines) + "\n")
    return 0 if row_ok else 4


def _cmd_eigenvector(args) -> int:
    if args.d not in (2, 3):
        raise InvalidInputError(f"eigenvector supports d = 2 and d = 3, got {args.d}")
    if args.d == 2:
        lam = _parse_scalar(args.lambda1)
        func = hecke.eigenvector_d2(lam, args.q, args.max_n)
        rows = [
            {"label": list(u), "value": _scalar_str(func[u])}
            for u in sorted(func.values)
        ]
        payload: dict = {"d": 2, "q": args.q, "values": rows}
    else:
        if args.lambda2 is None:
            raise InvalidInputError("--lambda2 is required for d = 3")
        l1 = _parse_scalar(args.lambda1)
        l2 = _parse_scalar(args.lambda2)
        if isinstance(l1, complex) != isinstance(l2, complex):
            l1, l2 = complex(l1), complex(l2)
        params = hecke.HeckeParams(l1, l2, args.q)
        func, residuals = hecke.eigenvector_d3(params, args.max_n)
        rows = [
            {"label": list(u), "value": _scalar_str(func[u])}
            for u in sorted(func.values)
        ]
        payload = {
            "d": 3,
            "q": args.q,
            "values": rows,
            "residuals": [
                {"label": list(u), "residual": _scalar_str(r)} for u, r in residuals
            ],
        }
        if args.regression:
            reg = hecke.closed_form_regression(params, max_n1=max(args.max_n, 6))
            payload["regression"] = {
                name: {
                    "status": entry["status"],
                    "match": entry["match"],
                    "residual": _scalar_str(entry["residual"]),
                }
                for name, entry in sorted(reg.items())
            }
        if args.l2:
            graph = quotient.build_graph(3, args.q, args.max_n)
            total, shells = hecke.l2_partial_norm(graph, func)
            payload["l2_partial"] = {
                "total": _scalar_str(total),
                "shells": [_scalar_str(s) for s in shells],
            }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        lines = [f"{'label':>10}  value"]
        for row in payload["values"]:
            lines.append(f"{','.join(map(str, row['label'])):>10}  {row['value']}")
        _emit("\n".join(lines) + "\n")
    return 0


def _scalar_str(x) -> str:
    if isinstance(x, complex):
        return f"{x.real!r}+{x.imag!r}i"
    return str(x)


def _cmd_distance(args) -> int:
    lab1 = domain.parse_label(args.n)
    lab2 = domain.parse_label(args.m)
    v1 = building.vertex_from_label(lab1, args.q)
    v2 = building.vertex_from_label(lab2, args.q)
    bfs = building.bfs_distance(v1, v2, args.radius)
    bfs1 = building.bfs_color1_distance(v1, v2, args.radius)
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
    sp.add_argument("--bound", type=int, default=domain.DEFAULT_GROUP_BOUND)
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
