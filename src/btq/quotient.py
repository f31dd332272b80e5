"""The truncated weighted quotient graph on the fundamental domain.

Only color-1 directed edges are stored (u -> v whenever u is a degree-1
in-domain neighbor of v); the color-(d-1) operators read them in reverse.
Every edge carries the exact edge-stabilizer order and the two weight
ratios, which are subgroup indices and therefore positive integers.

The graph numbers its nodes once, in label order, and keeps its
adjacency on these ids: per node a forward row of (dst id, ratio_from)
over the edges out of it and a backward row of (src id, ratio_to) over
the edges into it, None at a boundary node (n_1 = max_n1), whose outward
edges leave the truncation.  The Hecke operators run on these rows.

Orders come from one degree-pattern formula for every d
(`domain.pattern_order`), computed once per node.  An edge's ratio
|Gamma_v| / |Gamma_u cap Gamma_v| depends only on the block sizes of v
and the drop that makes u, so it is read from a cache next to the drops
themselves (`domain._drop_ratios`), and the edge order and the other ratio
follow by exact division: the work per edge is constant at every d.  For
d = 3 each edge is also labeled with one of the twelve shape types of the
domain's edge table; other d label every edge "generic".
"""

from __future__ import annotations

import json
from functools import cached_property
from math import ceil, comb, log2
from typing import NamedTuple

from . import domain
from .errors import InternalInvariantError, InvalidInputError, ResourceBoundError
from .gf import check_prime, gaussian_binomial

Label = tuple[int, ...]

# `check_export_size` refuses exports predicted above this many bytes
EXPORT_BYTE_BOUND = 10**7


class QuotientEdge(NamedTuple):
    src: Label
    dst: Label
    color: int
    edge_type: int | str  # 1..12 for d = 3, "generic" otherwise
    edge_stab_order: int
    ratio_from: int  # w(u,v)/w(u) = |Gamma_u| / |Gamma(u,v)|
    ratio_to: int  # w(u,v)/w(v) = |Gamma_v| / |Gamma(u,v)|


class QuotientGraph:
    """Finite truncation of the quotient 1-skeleton with exact weights.

    Node i is the label `labels[i]`, in sorted order, and `index` maps a
    label to its id.  `forward[i]` lists (dst id, ratio_from) over the
    edges out of node i and `backward[i]` (src id, ratio_to) over the edges
    into it, both in the order of `edges`; both are None at a boundary
    node (n_1 = max_n1).  The index and the rows are built on first use.
    """

    # every edge has a closed form; the benchmark's traced run reads this
    missing_closed_forms: tuple = ()

    def __init__(self, d, q, max_n1, nodes, edges):
        self.d = d
        self.q = q
        self.max_n1 = max_n1
        self.nodes = nodes  # dict label -> stabilizer order
        self.edges = edges  # list[QuotientEdge], color-1 only
        self.labels: list[Label] = sorted(nodes)

    @cached_property
    def index(self) -> dict[Label, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    @property
    def forward(self) -> list:
        return self._id_rows[0]

    @property
    def backward(self) -> list:
        return self._id_rows[1]

    @cached_property
    def _id_rows(self) -> tuple[list, list]:
        # (forward, backward), built on first use: an export reads neither
        boundary = [lab[0] >= self.max_n1 for lab in self.labels]
        forward: list[list[tuple[int, int]] | None] = [None if b else [] for b in boundary]
        backward: list[list[tuple[int, int]] | None] = [None if b else [] for b in boundary]
        index = self.index
        for src, dst, _, _, _, ratio_from, ratio_to in self.edges:
            i, j = index[src], index[dst]
            if forward[i] is not None:
                forward[i].append((j, ratio_from))
            if backward[j] is not None:
                backward[j].append((i, ratio_to))
        return forward, backward


def classify_edge_d3(label1, label2) -> int:
    """The row 1..12 of the d = 3 color-1 edge table matching (u, v).

    u must be a degree-1 in-domain neighbor of v; anything else is
    rejected.  The shapes split by the walls of the domain: the corner,
    the equal-pair wall (n,n,0), the bottom wall (n,0,0), and the interior.
    The labels are read once: listing the neighbors of v validates v, and
    the list holds only valid labels, so finding u in it validates u.
    """
    u = tuple(label1)
    v = tuple(label2)
    if len(u) != 3 or len(v) != 3:
        raise InvalidInputError("edge classification is only defined for d = 3")
    if u not in domain.neighbors_in_domain(v, 1):
        raise InvalidInputError(f"{u} -> {v} is not a color-1 edge of the domain")
    a, b = u[0], u[1]
    if u == (0, 0, 0):
        return 1
    if u == (1, 0, 0) and v == (1, 1, 0):
        return 2
    if u == (1, 1, 0) and v == (0, 0, 0):
        return 3
    if b == 0:  # bottom wall, n >= 1
        return 4 if v == (a + 1, 0, 0) else 5
    if a == b:  # equal-pair wall, n >= 2 (the n = 1 edges matched above)
        return 6 if v == (a + 1, a, 0) else 12
    # interior u: a > b >= 1
    if v == (a + 1, b, 0):
        return 8
    if v == (a, b + 1, 0):
        return 7 if b + 1 == a else 11
    # remaining: v == (a - 1, b - 1, 0)
    return 9 if b == 1 else 10


def build_graph(d: int, q: int, max_n1: int) -> QuotientGraph:
    """Assemble the truncated quotient graph with all exact edge data.

    Edges are the color-1 pairs with both endpoints inside the truncation;
    vertices with n_1 = max_n1 are therefore missing their outward edges
    and operator application treats them as boundary.

    One pattern order per node: |Gamma_v|.  Per edge u -> v the ratio
    |Gamma_v| / |Gamma_u cap Gamma_v| comes from the drop cache
    (`domain._drop_ratios`, filled once per block sizes and q), the edge
    order is |Gamma_v| over it and the other ratio |Gamma_u| over the
    edge order.  A division that leaves a remainder raises
    InternalInvariantError.  The walk takes the labels grouped by their
    block sizes, the key of both drop caches, so each key is filled once
    however many of them the graph meets (2^(d-1) at most).
    """
    check_prime(q)
    if max_n1 < 0:
        raise InvalidInputError("max_n1 must be >= 0")
    labels = domain.enumerate_domain(d, max_n1)
    # the enumerated labels are valid and q is checked above
    nodes = {lab: domain._pattern_order(lab, lab, q) for lab in labels}
    groups: dict[tuple[int, ...], list[Label]] = {}
    for v in labels:
        groups.setdefault(domain._read_label(v)[1], []).append(v)
    edges = []
    for sizes, members in groups.items():
        ratios = domain._drop_ratios(sizes, 1, q)
        for v in members:
            order_v = nodes[v]
            for u, rt in zip(domain.neighbors_in_domain(v, 1), ratios):
                if u not in nodes:
                    continue
                etype = classify_edge_d3(u, v) if d == 3 else "generic"
                stab, rem_t = divmod(order_v, rt)
                rf, rem_f = divmod(nodes[u], stab)
                if rem_f or rem_t:
                    raise InternalInvariantError(
                        f"edge stabilizer does not divide endpoint orders on {u}->{v}"
                    )
                edges.append(QuotientEdge(u, v, 1, etype, stab, rf, rt))
    # the (src, dst) pairs are distinct, so this is the order by (src, dst)
    edges.sort()
    return QuotientGraph(d, q, max_n1, nodes, edges)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _json_list(items: list[str]) -> str:
    # a list of objects one level below the top, as json.dumps(indent=2) writes it
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def export_json(graph: QuotientGraph) -> bytes:
    """Serialize per the documented schema; big integers as decimal strings.

    The bytes are exactly those of json.dumps(obj, indent=2, sort_keys=True)
    plus a newline, for obj the dict of the schema (keys d, edges, max_n1,
    nodes, q; each label a list of ints).  Each node and edge is written
    from one template instead: every label is formatted once, integers
    print as str(int), the strings are decimal digits that need no
    escaping, and an edge type prints as json.dumps does (an int for
    d = 3, "generic" otherwise).  The tests keep json.dumps as the oracle.
    """
    labels = {lab: "[\n        " + ",\n        ".join(map(str, lab)) + "\n      ]" for lab in graph.nodes}
    types = {t: json.dumps(t) for t in {e.edge_type for e in graph.edges}}
    nodes = [
        f'    {{\n      "label": {labels[lab]},\n      "stab_order": "{graph.nodes[lab]}"\n    }}'
        for lab in graph.labels
    ]
    edges = [
        f'    {{\n      "color": {e.color},\n      "edge_stab_order": "{e.edge_stab_order}",\n'
        f'      "from": {labels[e.src]},\n      "ratio_from": "{e.ratio_from}",\n'
        f'      "ratio_to": "{e.ratio_to}",\n      "to": {labels[e.dst]},\n'
        f'      "type": {types[e.edge_type]}\n    }}'
        for e in graph.edges
    ]
    return (
        f'{{\n  "d": {graph.d},\n  "edges": {_json_list(edges)},\n  "max_n1": {graph.max_n1},\n'
        f'  "nodes": {_json_list(nodes)},\n  "q": {graph.q}\n}}\n'
    ).encode()


def export_dot(graph: QuotientGraph) -> bytes:
    """Graphviz rendering: one arrow per color-1 edge, labeled type/ratio.

    A node is named by its label's entries, concatenated while every entry
    is below 100: the entries decrease, so the two-digit ones lead and the
    name's length fixes how many there are, and no two labels share a
    name.  From max_n1 = 100 on, (10, 10, 0) and (101, 0, 0) would both be
    "10100", so the entries are joined with commas instead.
    """
    sep = "," if graph.max_n1 >= 100 else ""
    names = {lab: sep.join(map(str, lab)) for lab in graph.labels}
    lines = ["digraph domain {"]
    lines += [f'  "{name}" [label="{name}"];' for name in names.values()]
    for e in graph.edges:
        lines.append(f'  "{names[e.src]}" -> "{names[e.dst]}" [label="{e.edge_type}/{e.ratio_from}"];')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def _writer(fmt: str):
    writers = {"json": export_json, "dot": export_dot}
    if fmt not in writers:
        raise InvalidInputError(f"unknown export format {fmt!r}")
    return writers[fmt]


def export(graph: QuotientGraph, fmt: str) -> bytes:
    return _writer(fmt)(graph)


def graph_counts(d: int, max_n1: int) -> tuple[int, int]:
    """The node and edge counts of build_graph(d, q, max_n1), exactly, for
    every q, found without building the graph.

    With N = max_n1 there are L = C(N+d-1, d-1) labels; L' = C(N+d-2, d-2)
    of them have n_i = n_(i+1), for any one i, and L' have n_1 = N.  A
    label has one degree-1 in-domain neighbor per block, so
    1 + #{i : n_i > n_(i+1)} of them, and the one that lowers the zero
    block leaves the truncation exactly when n_1 = N: there are
    L + (d-1)(L - L') - L' edges.
    """
    n_labels = domain.label_count(d, max_n1)
    n_flat = comb(max_n1 + d - 2, d - 2)
    return n_labels, n_labels + (d - 1) * (n_labels - n_flat) - n_flat


def predicted_export_bytes(d: int, q: int, max_n1: int, fmt: str) -> int:
    """An upper estimate of len(export(build_graph(d, q, max_n1), fmt)),
    found from the exact `graph_counts` without building the graph.

    Each node and edge is costed at its widest: label entries as wide as
    N = max_n1, orders below q^(floor(d^2/4) N + d^2), the bound on every
    |Gamma_u| (capped at domain.RESULT_BIT_BOUND bits, where the orders
    themselves are refused), and ratios up to [d choose 1]_q, their row sum.
    """
    check_prime(q)
    if d < 2 or max_n1 < 0:
        raise InvalidInputError(f"need d >= 2 and max_n1 >= 0, got d = {d}, max_n1 = {max_n1}")
    # every stabilizer order checks a q-exponent of at least d^2 first, so
    # above this no graph can be built, whatever its size
    domain.check_result_size(d * d, q, "every stabilizer order")
    n_labels, n_edges = graph_counts(d, max_n1)
    exponent = d * d // 4 * max_n1 + d * d
    order = 2 ** min(ceil(exponent * log2(q)), domain.RESULT_BIT_BOUND)
    ratio = gaussian_binomial(d, 1, q)
    label = (max_n1,) * d
    edge = QuotientEdge(label, label, 1, 12 if d == 3 else "generic", order, ratio, ratio)
    write = _writer(fmt)
    sizes = [
        len(write(QuotientGraph(d, q, max_n1, nodes, edges)))
        for nodes, edges in (({}, []), ({label: order}, []), ({label: order}, [edge]))
    ]
    return sizes[0] + n_labels * (sizes[1] - sizes[0]) + n_edges * (sizes[2] - sizes[1])


def check_export_size(d: int, q: int, max_n1: int, fmt: str) -> None:
    """Raise ResourceBoundError before any work if the export of the graph
    is predicted above EXPORT_BYTE_BOUND bytes."""
    size = predicted_export_bytes(d, q, max_n1, fmt)
    if size > EXPORT_BYTE_BOUND:
        raise ResourceBoundError(
            f"the {fmt} export of the graph up to n_1 = {max_n1} would be about {size} bytes, "
            f"over the bound {EXPORT_BYTE_BOUND}"
        )
