"""Edge classification, stabilizer table, graph assembly and export."""

import json

import pytest

from btq import domain, quotient
from btq.domain import (
    edge_stabilizer_brute,
    enumerate_domain,
    neighbors_in_domain,
    pattern_order,
    stabilizer_order,
)
from btq.errors import InternalInvariantError, InvalidInputError, ResourceBoundError
from btq.gf import gaussian_binomial
from btq.quotient import (
    EXPORT_BYTE_BOUND,
    build_graph,
    check_export_size,
    classify_edge_d3,
    export,
    export_dot,
    export_json,
    predicted_export_bytes,
)

# one minimal instantiation per d = 3 edge type: (u, v, expected type); with
# edge_stab_table and ratio_table it is the twelve-row table.  Its checks live
# here; test_acceptance.py's criterion 2 runs them under its time bound
EDGE_TYPE_CASES = [
    ((0, 0, 0), (1, 0, 0), 1),
    ((1, 0, 0), (1, 1, 0), 2),
    ((1, 1, 0), (0, 0, 0), 3),
    ((1, 0, 0), (2, 0, 0), 4),
    ((2, 0, 0), (2, 1, 0), 5),
    ((1, 1, 0), (2, 1, 0), 6),
    ((2, 1, 0), (2, 2, 0), 7),
    ((2, 1, 0), (3, 1, 0), 8),
    ((2, 1, 0), (1, 0, 0), 9),
    ((3, 2, 0), (2, 1, 0), 10),
    ((3, 1, 0), (3, 2, 0), 11),
    ((2, 2, 0), (1, 1, 0), 12),
]


def edge_stab_table(edge_type, n1, q):
    # the twelve closed forms, written independently of the implementation
    forms = {
        1: (q + 1) * (q - 1) ** 2 * q**3,
        2: (q - 1) ** 2 * q**4,
        3: (q + 1) * (q - 1) ** 2 * q**3,
        4: (q + 1) * (q - 1) ** 2 * q ** (2 * n1 + 3),
        5: (q - 1) ** 2 * q ** (2 * n1 + 2),
        6: (q - 1) ** 2 * q ** (2 * n1 + 3),
        7: (q - 1) ** 2 * q ** (2 * n1 + 2),
        8: (q - 1) ** 2 * q ** (2 * n1 + 3),
        9: (q - 1) ** 2 * q ** (2 * n1 + 1),
        10: (q - 1) ** 2 * q ** (2 * n1 + 1),
        11: (q - 1) ** 2 * q ** (2 * n1 + 2),
        12: (q + 1) * (q - 1) ** 2 * q ** (2 * n1 + 1),
    }
    return forms[edge_type]


def ratio_table(edge_type, q):
    # (w(u,v)/w(u), w(u,v)/w(v)) per type
    t = q**2 + q + 1
    return {
        1: (t, q**2),
        2: ((q + 1) * q, (q + 1) * q),
        3: (q**2, t),
        4: (1, q**2),
        5: ((q + 1) * q, q),
        6: (q + 1, q**2),
        7: (q, (q + 1) * q),
        8: (1, q**2),
        9: (q**2, q + 1),
        10: (q**2, 1),
        11: (q, q),
        12: (q**2, 1),
    }[edge_type]


def test_classify_edge_d3():
    # generic-parameter rows; test_acceptance.py checks EDGE_TYPE_CASES
    assert classify_edge_d3((4, 0, 0), (4, 1, 0)) == 5
    assert classify_edge_d3((5, 2, 0), (6, 2, 0)) == 8
    assert classify_edge_d3((5, 2, 0), (5, 3, 0)) == 11
    assert classify_edge_d3((5, 4, 0), (5, 5, 0)) == 7
    assert classify_edge_d3((5, 1, 0), (4, 0, 0)) == 9
    with pytest.raises(InvalidInputError):
        classify_edge_d3((2, 1, 0), (0, 0, 0))


def test_edge_stabilizer_table_consistency():
    # across q, the table value against the vertex-order ratios
    for q in (2, 3, 5, 7):
        for u, v, etype in EDGE_TYPE_CASES:
            stab = pattern_order(u, v, q)
            assert stab == edge_stab_table(etype, u[0], q), (etype, q)
            rf, rt = ratio_table(etype, q)
            assert stabilizer_order(u, q) == rf * stab, (etype, q)
            assert stabilizer_order(v, q) == rt * stab, (etype, q)


def test_pattern_formula_matches_table_on_every_d3_edge():
    checked = 0
    for q in (2, 3, 5, 7):
        for e in build_graph(3, q, 10).edges:
            u, v = e.src, e.dst
            expected = edge_stab_table(classify_edge_d3(u, v), u[0], q)
            assert e.edge_stab_order == expected == pattern_order(u, v, q), (u, v, q)
            checked += 1
    assert checked == 660


def test_pattern_formula_matches_brute_force_d4():
    g = build_graph(4, 2, 2)
    assert len(g.edges) == 16
    for e in g.edges:
        # the intersection is symmetric: enumerate the smaller stabilizer
        a, b = sorted((e.src, e.dst), key=g.nodes.__getitem__)
        assert e.edge_stab_order == edge_stabilizer_brute(a, b, 2), (e.src, e.dst)


def test_d4_q3_graph_has_every_ratio():
    g = build_graph(4, 3, 2)
    expected = 40  # [4 choose 1]_3 = [4 choose 3]_3
    for e in g.edges:
        assert e.ratio_from * e.edge_stab_order == g.nodes[e.src]
        assert e.ratio_to * e.edge_stab_order == g.nodes[e.dst]
    for u, forward, backward in zip(g.labels, g.forward, g.backward):
        if u[0] < g.max_n1:
            assert sum(r for _, r in forward) == expected
            assert sum(r for _, r in backward) == expected


def test_non_dividing_edge_order_is_an_invariant_violation(monkeypatch):
    # vertex orders stay exact, and the drop cache is filled from wrong edge
    # orders: 5 divides no vertex order, and |Gamma_v| makes every cached
    # ratio 1, so that |Gamma_v| becomes the edge order, which does not
    # divide every |Gamma_u|
    exact = domain._pattern_order
    for wrong in (lambda u, v, q: 5, lambda u, v, q: exact(v, v, q)):
        monkeypatch.setattr(
            domain, "_pattern_order", lambda u, v, q: exact(u, v, q) if u == v else wrong(u, v, q)
        )
        domain._drop_ratios.cache_clear()
        try:
            with pytest.raises(InternalInvariantError):
                build_graph(3, 2, 2)
        finally:
            domain._drop_ratios.cache_clear()


@pytest.mark.parametrize("d, q, max_n1", [(3, 2, 12), (3, 5, 6), (4, 2, 6), (4, 3, 4), (5, 2, 4), (5, 3, 3)])
def test_edge_orders_from_the_drop_cache_match_pattern_orders(d, q, max_n1):
    g = build_graph(d, q, max_n1)
    assert len(g.edges) == quotient.graph_counts(d, max_n1)[1]
    for e in g.edges:
        assert e.edge_stab_order == pattern_order(e.src, e.dst, q), (e.src, e.dst)
        assert e.ratio_from * e.edge_stab_order == g.nodes[e.src] == stabilizer_order(e.src, q)
        assert e.ratio_to * e.edge_stab_order == g.nodes[e.dst] == stabilizer_order(e.dst, q)


def test_edge_stabilizer_brute_force_agreement():
    q = 2
    for u, v, etype in EDGE_TYPE_CASES:
        assert pattern_order(u, v, q) == edge_stabilizer_brute(u, v, q), etype


def test_edge_stabilizer_examples():
    for q in (2, 3, 5):
        assert pattern_order((0, 0, 0), (1, 0, 0), q) == (q + 1) * (q - 1) ** 2 * q**3
        assert pattern_order((1, 0, 0), (1, 1, 0), q) == (q - 1) ** 2 * q**4
    assert pattern_order((1, 0, 0), (1, 1, 0), 2) == 16


def test_edge_stabilizer_divides_endpoints():
    g = build_graph(3, 3, 6)
    for e in g.edges:
        assert g.nodes[e.src] % e.edge_stab_order == 0
        assert g.nodes[e.dst] % e.edge_stab_order == 0
        assert e.ratio_from * e.edge_stab_order == g.nodes[e.src]
        assert e.ratio_to * e.edge_stab_order == g.nodes[e.dst]


def test_row_sum_law():
    for q in (2, 3, 5):
        g = build_graph(3, q, 20)
        expected = gaussian_binomial(3, 1, q)
        for u, forward, backward in zip(g.labels, g.forward, g.backward):
            if u[0] < g.max_n1:
                assert sum(r for _, r in forward) == expected
                assert sum(r for _, r in backward) == expected


@pytest.mark.parametrize("d, q, max_n1", [(2, 3, 6), (3, 2, 8), (4, 3, 3), (5, 2, 3)])
def test_id_rows_follow_the_edges(d, q, max_n1):
    g = build_graph(d, q, max_n1)
    assert g.labels == sorted(g.nodes)
    assert all(g.index[lab] == i for i, lab in enumerate(g.labels))
    for i, lab in enumerate(g.labels):
        if lab[0] == max_n1:
            assert g.forward[i] is None and g.backward[i] is None
            continue
        assert g.forward[i] == [(g.index[e.dst], e.ratio_from) for e in g.edges if e.src == lab]
        assert g.backward[i] == [(g.index[e.src], e.ratio_to) for e in g.edges if e.dst == lab]


@pytest.mark.parametrize("d, max_n1", [(10, 5), (9, 6), (3, 12)])
def test_drop_caches_fill_each_key_once(d, max_n1):
    # at d >= 9 there are more block-size sequences than cache entries, and
    # the graph still fills each of them once
    keys = {domain._read_label(lab)[1] for lab in enumerate_domain(d, max_n1)}
    if d >= 9:
        assert len(keys) > domain._drop_ratios.cache_info().maxsize
    domain._drop_deltas.cache_clear()
    domain._drop_ratios.cache_clear()
    build_graph(d, 2, max_n1)
    assert domain._drop_ratios.cache_info().misses == len(keys)
    assert domain._drop_deltas.cache_info().misses == len(keys)


def test_build_graph_examples():
    g = build_graph(3, 2, 2)
    assert g.nodes[(0, 0, 0)] == 168
    for u in g.nodes:
        if u[0] < g.max_n1:
            assert len(g.forward[g.index[u]]) == 1 + sum(a != b for a, b in zip(u, u[1:]))
    for e in g.edges:
        if e.src == (2, 1, 0) and e.dst == (1, 0, 0):
            assert e.ratio_from == 4  # q^2 on the inward diagonal
        if e.src == (1, 1, 0) and e.dst == (2, 1, 0):
            assert e.ratio_from == 3  # q+1 leaving the equal-pair wall
    g0 = build_graph(3, 2, 0)
    assert len(g0.nodes) == 1 and not g0.edges


def test_reversal_duality():
    # (u, v) a color-1 pair iff (v, u) a color-(d-1) pair
    g = build_graph(3, 2, 5)
    for e in g.edges:
        assert e.dst in neighbors_in_domain(e.src, 2)
    g4 = build_graph(4, 2, 1)
    for e in g4.edges:
        assert e.dst in neighbors_in_domain(e.src, 3)


def test_d2_graph_matches_tree_recursion():
    for q in (2, 3):
        g = build_graph(2, q, 8)
        for u in g.nodes:
            if u[0] >= g.max_n1:
                continue
            ratios = sorted(r for _, r in g.forward[g.index[u]])
            if u == (0, 0):
                assert ratios == [q + 1]
            else:
                assert ratios == [1, q]


def test_d2_edge_stab_vs_brute():
    for q in (2, 3):
        for n in range(4):
            u, v = (n, 0), (n + 1, 0)
            assert pattern_order(u, v, q) == edge_stabilizer_brute(u, v, q)
            assert pattern_order(v, u, q) == edge_stabilizer_brute(v, u, q)


def test_d4_brute_force_spot_check():
    g = build_graph(4, 2, 1)
    assert not g.missing_closed_forms
    expected = gaussian_binomial(4, 1, 2)
    origin = (0, 0, 0, 0)
    assert sum(r for _, r in g.forward[g.index[origin]]) == expected
    for e in g.edges:
        assert e.edge_type == "generic"
        assert e.ratio_from * e.edge_stab_order == g.nodes[e.src]


def test_export_json_round_trip():
    g = build_graph(3, 2, 4)
    blob = export_json(g)
    obj = json.loads(blob)
    assert obj["d"] == 3 and obj["q"] == 2 and obj["max_n1"] == 4
    assert len(obj["nodes"]) == 15
    assert all(isinstance(n["stab_order"], str) for n in obj["nodes"])
    labels = {tuple(n["label"]) for n in obj["nodes"]}
    assert labels == set(enumerate_domain(3, 4))
    for edge in obj["edges"]:
        assert edge["color"] == 1
        assert 1 <= edge["type"] <= 12


def export_json_by_dumps(graph):
    """The documented schema through json.dumps, the template's oracle."""
    obj = {
        "d": graph.d,
        "q": graph.q,
        "max_n1": graph.max_n1,
        "nodes": [
            {"label": list(lab), "stab_order": str(graph.nodes[lab])} for lab in graph.labels
        ],
        "edges": [
            {
                "from": list(e.src),
                "to": list(e.dst),
                "color": e.color,
                "type": e.edge_type,
                "edge_stab_order": str(e.edge_stab_order),
                "ratio_from": str(e.ratio_from),
                "ratio_to": str(e.ratio_to),
            }
            for e in graph.edges
        ],
    }
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def test_export_json_matches_json_dumps():
    cases = 0
    for d, qs, max_ns in (
        (2, (2, 3, 5, 7), (0, 1, 2, 5, 8)),
        (3, (2, 3, 5, 7), (0, 1, 2, 5, 8)),
        (4, (2, 3, 5), (0, 1, 2, 5, 8)),
        (5, (2, 3), (0, 1, 2, 5, 8)),
    ):
        for q in qs:
            for max_n1 in max_ns:
                graph = build_graph(d, q, max_n1)
                assert bool(graph.edges) == (max_n1 > 0)
                assert {type(e.edge_type) for e in graph.edges} <= ({int} if d == 3 else {str})
                assert export_json(graph) == export_json_by_dumps(graph), (d, q, max_n1)
                cases += 1
    assert cases == 65


def test_predicted_export_bytes_matches_json_dumps(monkeypatch):
    # the prediction writes three synthetic graphs: no nodes, one node, and
    # one node with a self-edge of the widest values
    written = []

    def checked(graph):
        blob = export_json(graph)
        assert blob == export_json_by_dumps(graph)
        written.append(blob)
        return blob

    monkeypatch.setattr(quotient, "export_json", checked)
    grid = [(d, q, max_n1) for d in (2, 3, 4, 5) for q in (2, 3, 7) for max_n1 in (0, 1, 8, 40)]
    for d, q, max_n1 in grid:
        predicted_export_bytes(d, q, max_n1, "json")
    assert len(written) == 3 * len(grid)
    assert sum(b'"nodes": []' in blob for blob in written) == len(grid)


def test_export_dot_arrow_pattern():
    g = build_graph(3, 2, 4)
    text = export_dot(g).decode()
    # the corner and its two wall arrows as drawn in the domain diagram
    assert '"000" -> "100"' in text
    assert '"110" -> "000"' in text
    assert '"110" -> "210"' in text
    assert text.count("->") == len(g.edges)


def test_export_dot_node_names_are_distinct():
    # from max_n1 = 100 on, concatenated entries would name (10, 10, 0) and
    # (101, 0, 0) both "10100"; the names join the entries with commas there
    graph = build_graph(3, 2, 101)
    out = export_dot(graph)
    lines = out.decode().splitlines()
    names = [line.split('"')[1] for line in lines if line.endswith("];") and "->" not in line]
    assert len(set(names)) == len(names) == len(graph.labels) == 5253
    assert {"10,10,0", "101,0,0"} <= set(names)
    assert len(out) <= predicted_export_bytes(3, 2, 101, "dot")


def test_export_unknown_format():
    g = build_graph(3, 2, 1)
    with pytest.raises(InvalidInputError):
        export(g, "xml")


def test_export_deterministic():
    a = export_json(build_graph(3, 2, 5))
    b = export_json(build_graph(3, 2, 5))
    assert a == b


@pytest.mark.parametrize(
    "d, q, max_n1",
    [(2, 2, 0), (2, 3, 30), (3, 2, 0), (3, 2, 1), (3, 2, 24), (3, 5, 12), (4, 2, 8), (4, 3, 6),
     (5, 2, 5)],
)
def test_predicted_export_bytes_bounds_the_export(d, q, max_n1):
    graph = build_graph(d, q, max_n1)
    for fmt in ("json", "dot"):
        actual = len(export(graph, fmt))
        predicted = predicted_export_bytes(d, q, max_n1, fmt)
        assert actual <= predicted <= 1.25 * actual, (fmt, actual, predicted)


def test_check_export_size():
    # the pinned domain jobs and the largest d = 4 one stay under the bound
    for d, q, max_n1, fmt in ((3, 2, 48, "json"), (3, 3, 48, "dot"), (4, 3, 12, "json")):
        check_export_size(d, q, max_n1, fmt)
    assert predicted_export_bytes(3, 2, 100, "json") < EXPORT_BYTE_BOUND
    # too many bytes; every stabilizer order over the bit bound; too many labels
    for d, max_n1 in ((3, 200), (84, 0), (3, 10**9)):
        with pytest.raises(ResourceBoundError):
            check_export_size(d, 2, max_n1, "json")
    for d, q, max_n1 in ((1, 2, 4), (3, 2, -1), (3, 4, 4)):
        with pytest.raises(InvalidInputError):
            check_export_size(d, q, max_n1, "json")
