"""CLI surface: determinism, exit codes, and the documented outputs."""

import hashlib
import io
import json
import random
import sys
import time
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btq.cli import main
from btq.laurent import LaurentMatrix, LaurentPoly, random_gamma, random_k


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def matrix_file(tmp_path, entries, q=2, name="matrix.json"):
    m = LaurentMatrix([[LaurentPoly.parse(s, q) for s in row] for row in entries], q)
    path = tmp_path / name
    path.write_text(json.dumps(m.to_literal()))
    return str(path)


def test_covolume_d2(run):
    code, out, _ = run("covolume", "--d", "2", "--q", "2")
    assert code == 0
    assert out.splitlines()[0] == "covolume 2/3"


def test_covolume_gap_shrinks(run):
    _, out20, _ = run("covolume", "--d", "3", "--q", "2", "--max-n", "20")
    _, out30, _ = run("covolume", "--d", "3", "--q", "2", "--max-n", "30")
    from fractions import Fraction

    gap20 = Fraction(out20.splitlines()[2].split()[1])
    gap30 = Fraction(out30.splitlines()[2].split()[1])
    assert 0 < gap30 < gap20


def test_stabilizer_order(run):
    code, out, _ = run("stabilizer", "--n", "0,0,0", "--q", "2")
    assert code == 0 and out.strip() == "168"
    with pytest.raises(SystemExit) as exc:
        main(["stabilizer", "--n", "1,0", "--d", "3"])
    assert exc.value.code == 2
    code, out, _ = run("stabilizer", "--n", "2,1,0", "--q", "2", "--enumerate")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order 128" and lines[1] == "enumerated 128"


def test_domain_json_nodes(run):
    code, out, _ = run("domain", "--d", "3", "--max-n", "1", "--q", "2", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["nodes"]) == 3


def test_domain_dot(run):
    code, out, _ = run("domain", "--d", "3", "--max-n", "2", "--format", "dot")
    assert code == 0 and out.startswith("digraph") and '"000" -> "100"' in out


def test_determinism(run):
    a = run("domain", "--d", "3", "--max-n", "6", "--format", "json")
    b = run("domain", "--d", "3", "--max-n", "6", "--format", "json")
    assert a == b
    c = run("eigenvector", "--d", "3", "--q", "2", "--lambda1", "3/7", "--lambda2=-1/2")
    d = run("eigenvector", "--d", "3", "--q", "2", "--lambda1", "3/7", "--lambda2=-1/2")
    assert c == d


def test_neighbors_label(run):
    code, out, _ = run("neighbors", "--n", "2,1,0", "--q", "2", "--degree", "1", "--in-domain")
    assert code == 0
    assert out.splitlines() == ["1,1,0", "2,0,0", "3,2,0"]
    code, out, _ = run("neighbors", "--n", "0,0,0", "--q", "2", "--degree", "1")
    assert code == 0
    assert len(json.loads(out)) == 7


def test_neighbors_matrix(run, tmp_path):
    path = matrix_file(tmp_path, [["t^2", "0", "0"], ["0", "t", "0"], ["0", "0", "1"]])
    code, out, _ = run("neighbors", "--matrix", path, "--degree", "2")
    assert code == 0 and len(json.loads(out)) == 7


def test_reduce_matrix(run, tmp_path):
    path = matrix_file(
        tmp_path, [["t^3", "0", "0"], ["t^2", "t", "0"], ["t", "0", "1"]]
    )
    code, out, _ = run("reduce", "--matrix", path)
    assert code == 0
    obj = json.loads(out)
    assert obj["label"] == [1, 0, 0]
    assert obj["witness"]["d"] == 3


# sha256 of `btq reduce --matrix` stdout for the literal
# random_gamma(d, q, 2, seed) * diag(label) * random_k(d, q, 2, seed), seed = 100 d + q
REDUCE_LABELS = {3: (4, 1, 0), 4: (3, 2, 2, 0), 5: (5, 3, 1, 1, 0)}
REDUCE_HASHES = {
    (3, 2): "9cd5425f290ccd158396b0e7aa990fcdd7e350d7f5a95f90e607fa7fded78f74",
    (3, 3): "1224af2de98ff23f83beeaf3ac3c82b497930b6ba0998c8bdf5ca30533ac2c82",
    (3, 5): "ce565fc1a95e316a3c47dc9af46a18e4a0940cbbeb0c0dfb5f8b683f6624ce18",
    (4, 2): "46e440d73f2f7ba94c1d2f9e4da2960a267d0f0ec401cbe0658653df7d67da96",
    (4, 3): "94ef3620ac8799f9a750ffdee83f7e54e4e453922520d3092b74cc6e9a290bba",
    (4, 5): "6ccff6d26d71b59602b138e0117d4d7ac1d7ef6c4846a8e97e3f80cd4c897efa",
    (5, 2): "ec97ff49b41f67b015bbae9972d5869eba062a1e99f801983967e32eb500a91a",
    (5, 3): "04f486bbcc0645a97572ea2ed0a9ed6f5c322deec9056a103978be6ef31d94c7",
    (5, 5): "2aa4b5d0fbecd493429f5f7017490d8c540bb82c3cb9fe937f367d5a4e862e7d",
}


@pytest.mark.parametrize("d, q", sorted(REDUCE_HASHES))
def test_reduce_output_pinned(d, q, tmp_path, capsysbinary):
    label = REDUCE_LABELS[d]
    seed = 100 * d + q
    m = random_gamma(d, q, 2, seed) * LaurentMatrix.diagonal(label, q) * random_k(d, q, 2, seed)
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(m.to_literal()))
    code = main(["reduce", "--matrix", str(path)])
    out = capsysbinary.readouterr().out
    assert code == 0 and json.loads(out)["label"] == list(label)
    assert hashlib.sha256(out).hexdigest() == REDUCE_HASHES[d, q]


def test_eigenvector_text_and_l2(run):
    code, out, _ = run(
        "eigenvector", "--d", "3", "--q", "2", "--lambda1", "7", "--lambda2", "7",
        "--max-n", "4", "--format", "text",
    )
    assert code == 0
    assert all(line.endswith(("value", "1")) for line in out.splitlines())
    code, out, _ = run(
        "eigenvector", "--d", "3", "--q", "2", "--lambda1", "7", "--lambda2", "7",
        "--max-n", "4", "--l2", "--regression",
    )
    obj = json.loads(out)
    assert obj["l2_partial"]["total"] == "671/14336"  # the partial covolume
    assert obj["regression"]["000"]["match"] is True


def test_eigenvector_d2_cli(run):
    code, out, _ = run("eigenvector", "--d", "2", "--q", "2", "--lambda1", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["values"][0] == {"label": [0, 0], "value": "1"}
    assert obj["values"][1] == {"label": [1, 0], "value": "1"}


def test_eigenvector_d2_l2(run):
    code, out, _ = run("eigenvector", "--d", "2", "--q", "2", "--lambda1", "3", "--max-n", "2",
                       "--l2")
    assert code == 0
    # every value is 1, so the shells are 1/|Gamma_u|: |PGL_2(F_2)| = 6, then 4 and 8
    assert json.loads(out)["l2_partial"] == {"total": "13/24", "shells": ["1/6", "1/4", "1/8"]}


@pytest.mark.parametrize("flag", [["--regression"], ["--lambda2", "5"]])
def test_eigenvector_d2_rejects_d3_flags(run, flag):
    code, out, err = run("eigenvector", "--d", "2", "--q", "2", "--lambda1", "3", "--max-n", "2",
                         "--l2", *flag)
    assert code == 2 and not out and "d = 3 only" in err


@pytest.mark.parametrize("max_n, runs", [(8, 1), (4, 2)])
def test_eigenvector_regression_reuses_values(run, monkeypatch, max_n, runs):
    from btq import hecke

    calls = []
    recursion = hecke.eigenvector_d3

    def counted(params, max_n1):
        calls.append(max_n1)
        return recursion(params, max_n1)

    monkeypatch.setattr(hecke, "eigenvector_d3", counted)
    code, out, _ = run("eigenvector", "--d", "3", "--q", "2", "--lambda1", "3/7",
                       "--lambda2=-1/2", "--max-n", str(max_n), "--regression")
    assert code == 0 and json.loads(out)["regression"]["420"]["match"] is True
    assert len(calls) == runs


def test_eigenvector_complex(run):
    code, out, _ = run(
        "eigenvector", "--d", "3", "--q", "2",
        "--lambda1=-3.5+6.06217782649107i", "--lambda2=-3.5-6.06217782649107i",
        "--max-n", "3",
    )
    assert code == 0
    assert "residuals" in json.loads(out)


def test_hecke_check(run):
    code, out, _ = run("hecke-check", "--d", "3", "--q", "2", "--max-n", "8", "--trials", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "row_sums ok (expected 7)"
    assert lines[1].startswith("commutator_max_residual 0 ")
    assert lines[2] == "adjointness_residual 0"
    code, out, _ = run("hecke-check", "--d", "2", "--q", "3", "--max-n", "8")
    assert code == 0 and out.splitlines()[0] == "row_sums ok (expected 4)"
    code, out, _ = run("hecke-check", "--d", "4", "--q", "2", "--max-n", "3")
    assert code == 0 and out.splitlines()[0] == "row_sums ok (expected 15)"


def test_hecke_check_fail_exit_code(run, monkeypatch):
    from dataclasses import replace

    from btq import quotient

    exact = quotient.build_graph

    def one_wrong_ratio(*args):
        graph = exact(*args)
        edges = graph.out_edges[(0, 0, 0)]
        edges[0] = replace(edges[0], ratio_from=edges[0].ratio_from + 1)
        return graph

    monkeypatch.setattr(quotient, "build_graph", one_wrong_ratio)
    code, out, _ = run("hecke-check", "--d", "3", "--q", "2", "--max-n", "4", "--trials", "1")
    assert code == 4 and out.splitlines()[0] == "row_sums FAIL (expected 7)"


@pytest.mark.parametrize("name, failing, d", [
    ("commutator_check", "commutator", "3"),
    ("adjointness_residual", "adjointness", "4"),
])
def test_hecke_check_residual_exit_code(run, monkeypatch, name, failing, d):
    from btq import hecke

    monkeypatch.setattr(hecke, name, lambda *args: Fraction(1, 3))
    code, out, err = run("hecke-check", "--d", d, "--q", "2", "--max-n", "4", "--trials", "1")
    assert code == 4 and out.splitlines()[0].startswith("row_sums ok")
    assert out.splitlines()[-1] == "adjointness_residual " + ("1/3" if d == "4" else "0")
    assert err == f"internal invariant violation: hecke-check fails: {failing}\n"


def test_eigenvector_regression_exit_code(run, monkeypatch):
    from btq import hecke

    argv = ("eigenvector", "--d", "3", "--q", "2", "--lambda1", "3/7", "--lambda2=-1/2",
            "--max-n", "4", "--regression")
    for status, expected in (("flagged", 0), ("asserted", 4)):
        wrong = {
            "000": ("asserted", lambda l1, l2, q, t, r: 1),
            "100": (status, lambda l1, l2, q, t, r: l1),
        }
        monkeypatch.setattr(hecke, "CLOSED_FORMS", wrong)
        code, out, err = run(*argv)
        assert code == expected
        assert json.loads(out)["regression"]["100"] == {
            "status": status, "match": False, "residual": "-18/49",
        }
    assert err.endswith(": 1 eigenvector checks fail, first the closed form 100\n")


def _complex(text):
    """Parse the CLI's complex output, e.g. '1.5+-0.25i'."""
    return complex(text.replace("+-", "-").replace("i", "j"))


@pytest.mark.parametrize("lambdas", [("3/7", "-1/2"), ("0.5-0.1i", "7")])
def test_eigenvector_residual_exit_code(run, monkeypatch, lambdas):
    from btq import hecke

    argv = ("eigenvector", "--d", "3", "--q", "11", "--lambda1=" + lambdas[0],
            "--lambda2=" + lambdas[1], "--max-n", "14")
    code, out, _ = run(*argv)
    assert code == 0
    if "i" in lambdas[0]:
        # complex residuals are judged next to the value: the largest is above
        # 1 in absolute terms, at a label whose value is about 6e14
        worst = max(json.loads(out)["residuals"], key=lambda r: abs(_complex(r["residual"])))
        assert worst["label"] == [14, 10, 0] and abs(_complex(worst["residual"])) > 1
    exact = hecke.eigenvector_d3

    def one_wrong_residual(params, max_n1):
        func, residuals = exact(params, max_n1)
        u, r = residuals[-1]
        residuals[-1] = (u, r + func[u] / 10**6)
        return func, residuals

    monkeypatch.setattr(hecke, "eigenvector_d3", one_wrong_residual)
    code, wrong_out, err = run(*argv)
    assert code == 4 and json.loads(wrong_out)["values"] == json.loads(out)["values"]
    assert err.endswith(": 1 eigenvector checks fail, first the residual at 14,13,0\n")


def test_distance_discrepancy_note(run):
    code, out, _ = run("distance", "--n", "2,1,0", "--m", "0,0,0", "--q", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bfs_distance 2"
    assert lines[2] == "formula_distance 1"
    assert lines[-1].startswith("note:")


def test_exit_code_invalid_input(run):
    code, _, err = run("stabilizer", "--n", "1,2,0", "--q", "2")
    assert code == 2 and "error" in err
    code, _, err = run("stabilizer", "--n", "1,0", "--q", "4")
    assert code == 2
    code, _, err = run("eigenvector", "--d", "3", "--q", "2", "--lambda1", "1")
    assert code == 2
    code, out, err = run("eigenvector", "--d", "4", "--q", "2", "--lambda1", "1", "--lambda2", "1")
    assert code == 2 and not out and "d = 2 and d = 3" in err
    code, _, err = run("stabilizer", "--n", "1,0", "--q", "1" + "0" * 400)
    assert code == 2 and "prime" in err
    for literal in ("nan+1i", "1e400+1i"):
        code, out, err = run("eigenvector", "--d", "2", "--q", "2", "--lambda1", literal)
        assert code == 2 and not out and "not finite" in err


# three over the value-size bound, one over the work bound only (all ones,
# but a closed form of n^3 work) and one outside the float range
EIGENVECTOR_OVER_BOUNDS = [
    ("eigenvector", "--d=2", "--q=2", "--lambda1=1e1000", "--max-n=5"),
    ("eigenvector", "--d=2", "--q=2", "--lambda1=3", "--max-n=3000"),
    ("eigenvector", "--d=3", "--q=2", "--lambda1=3", "--lambda2=2", "--max-n=2000"),
    ("eigenvector", "--d=2", "--q=2", "--lambda1=3", "--max-n=1000"),
    ("eigenvector", "--d=3", "--q=2", "--lambda1=1e1000", "--lambda2=1+2i"),
]


def _label(entries):
    return ",".join(map(str, entries))


# long labels, refused from their sizes before any d x d basis is built
LONG_LABELS_OVER_BOUNDS = [
    ("neighbors", "--n", _label([0] * 12000), "--degree", "1"),
    ("neighbors", "--n", _label(range(23, -1, -1)), "--degree", "12", "--in-domain"),
]


def test_distance_long_labels(run):
    # the distances of two labels are read off the labels, so no length is
    # refused; only labels of different lengths are invalid
    for argv, lines in (
        (("--n", _label([0] * 200), "--m", _label([1] * 199 + [0])),
         ["bfs_distance 1", "bfs_color1_distance unreachable-within-radius",
          "formula_distance 1", "formula_color1_distance 1"]),
        (("--n", _label([0] * 12000), "--m", _label([1] * 11999 + [0]), "--radius", "20000"),
         ["bfs_distance 1", "bfs_color1_distance 11999",
          "formula_distance 1", "formula_color1_distance 1"]),
        (("--n", _label(range(11999, -1, -1)), "--m", _label([0] * 12000), "--q", "3"),
         ["bfs_distance unreachable-within-radius", "bfs_color1_distance unreachable-within-radius",
          "formula_distance 6000", "formula_color1_distance 36000000"]),
    ):
        start = time.perf_counter()
        code, out, _ = run("distance", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 0 and out.splitlines() == lines
    code, out, err = run("distance", "--n", _label([0] * 12000), "--m", "0,0")
    assert code == 2 and not out and "different buildings" in err
    code, out, err = run("distance", "--n", "1,0", "--m", "0,0", "--q", "4")
    assert code == 2 and not out and "prime" in err


def test_exit_code_resource_bound(run):
    # the group order is the one bound of an enumeration; it has no override
    with pytest.raises(SystemExit) as exc:
        main(["stabilizer", "--n", "1,0", "--enumerate", "--bound", "100"])
    assert exc.value.code == 2
    code, out, err = run("covolume", "--d", "22")
    assert code == 3 and not out and "labels" in err
    code, out, _ = run("covolume", "--d", "22", "--max-n", "2")
    assert code == 0 and out.startswith("covolume ")
    code, out, _ = run("covolume", "--d", "12", "--q", "2", "--max-n", "4")
    assert code == 0 and out.startswith("covolume ")
    for argv in (
        ("stabilizer", "--n", "1,0", "--q", "1000000000000000003"),
        ("stabilizer", "--n", "20000,0", "--q", "2"),
        ("covolume", "--d", "100", "--max-n", "0"),
        # 23 MB of JSON, refused before the graph is built
        ("domain", "--d", "3", "--q", "2", "--max-n", "200", "--format", "json"),
        # hecke-check builds the same graph, so the same prediction bounds it
        ("hecke-check", "--d", "3", "--q", "2", "--max-n", "150"),
        ("hecke-check", "--d", "1500", "--max-n", "0"),
        # a group of order 242,121,642
        ("stabilizer", "--n", "8,0", "--q", "7", "--enumerate"),
        # refused by predicted work: about 89,000 normal forms
        ("neighbors", "--n", "0,0,0,0", "--q", "17", "--degree", "2"),
        *LONG_LABELS_OVER_BOUNDS,
        *EIGENVECTOR_OVER_BOUNDS,
    ):
        start = time.perf_counter()
        code, out, err = run(*argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 3 and not out and err.startswith("resource bound:"), argv
        assert len(err.splitlines()) == 1, argv
    # the span of a basis costs nothing, and q^d residue vectors are never listed
    for argv, count in (
        (("--n", "1000000000,0,0", "--q", "3", "--degree", "1"), 13),
        (("--n", "1000000,0,0", "--q", "3", "--degree", "1"), 13),
        (("--n", "0,0", "--q", "317", "--degree", "1"), 318),
    ):
        start = time.perf_counter()
        code, out, _ = run("neighbors", *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 0 and len(json.loads(out)) == count, argv
    # distances are no longer searched, so no vertex bound applies
    code, out, _ = run("distance", "--n", "9,0,0", "--m", "0,0,0", "--q", "2")
    assert code == 0
    assert out.splitlines()[:2] == [
        "bfs_distance unreachable-within-radius",
        "bfs_color1_distance unreachable-within-radius",
    ]
    code, out, _ = run("distance", "--n", "3,1,0", "--m", "0,0,0", "--q", "3", "--radius", "3")
    assert code == 0
    assert out.splitlines()[:2] == ["bfs_distance 3", "bfs_color1_distance unreachable-within-radius"]
    code, out, _ = run("distance", "--n", "3,1,0", "--m", "0,0,0", "--q", "3", "--radius", "5")
    assert code == 0 and out.splitlines()[1] == "bfs_color1_distance 5"


def test_distance_far_labels_and_mismatched_lengths(run):
    start = time.perf_counter()
    code, out, _ = run("distance", "--n=1000000000,7,0", "--m=0,0,0", "--radius=1000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out.splitlines()[:2] == [
        "bfs_distance 1000000000",
        "bfs_color1_distance unreachable-within-radius",
    ]
    code, out, err = run("distance", "--n=0,0", "--m=0,0,0")
    assert code == 2 and not out and "different buildings" in err


def test_matrix_from_stdin(run, monkeypatch, tmp_path):
    m = LaurentMatrix.diagonal((2, 1, 0), 2)
    text = json.dumps(m.to_literal())
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run("reduce", "--matrix", "-")
    assert code == 0 and json.loads(out)["label"] == [2, 1, 0]


def test_bad_matrix_file(run, tmp_path, monkeypatch):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run("reduce", "--matrix", str(path))
    assert code == 2
    code, _, err = run("reduce", "--matrix", str(tmp_path / "missing.json"))
    assert code == 2
    literal = '{"q": 2, "d": 2, "entries": [[1, 0], [0, 1]]}'
    monkeypatch.setattr(sys, "stdin", io.StringIO(literal))
    code, out, err = run("reduce", "--matrix", "-")
    assert code == 2 and not out and "entries" in err


def test_matrix_literal_work_bound(run, tmp_path, monkeypatch):
    from btq import building

    top = "t^160"
    narrow = matrix_file(tmp_path, [[top, "0"], ["0", "1"]])
    code, out, _ = run("reduce", "--matrix", narrow)
    assert code == 0 and json.loads(out)["label"] == [160, 0]
    # the literal's predicted work decides, before the normal form and
    # whatever the command: a wide span, a large d, or sparse entries whose
    # Hermite pass may fill in (one literal like this one ran for 98 s)
    wide = matrix_file(tmp_path, [["t^1000000000", "0"], ["0", "t^-1"]], name="wide.json")
    rng = random.Random(3)
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps(random_gamma(16, 3, 3, rng).to_literal()))
    sparse = [
        [" + ".join(f"t^{e}" for e in sorted({rng.randint(0, 16000) for _ in range(3)})) for _ in range(5)]
        for _ in range(5)
    ]
    sparse = matrix_file(tmp_path, sparse, q=5, name="sparse.json")
    for path in (wide, str(dense), sparse):
        for argv in (("reduce", "--matrix", path), ("neighbors", "--matrix", path, "--degree", "1")):
            start = time.perf_counter()
            code, out, err = run(*argv)
            assert time.perf_counter() - start < 1.0, argv
            assert code == 3 and not out and err.startswith("resource bound:"), argv
    # the bound is inclusive
    m = LaurentMatrix.from_literal(json.loads((tmp_path / "matrix.json").read_text()))
    monkeypatch.setattr(building, "NEIGHBOR_WORK_BOUND", building.matrix_work(m))
    assert run("reduce", "--matrix", narrow)[0] == 0
    monkeypatch.setattr(building, "NEIGHBOR_WORK_BOUND", building.matrix_work(m) - 1)
    assert run("reduce", "--matrix", narrow)[0] == 3
    monkeypatch.undo()
    # an exponent past Python's int-to-str digit limit is invalid input
    literal = json.dumps({"q": 2, "d": 2, "entries": [["t^" + "9" * 5000, "0"], ["0", "1"]]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(literal))
    code, out, err = run("reduce", "--matrix", "-")
    assert code == 2 and not out and "number is too long" in err


def test_failed_certificate_exit_code(run, tmp_path, monkeypatch):
    from btq import building

    monkeypatch.setattr(building, "_certify_same_lattice", lambda canon, original: False)
    path = matrix_file(tmp_path, [["t^2", "0"], ["1", "t"]])
    code, out, err = run("reduce", "--matrix", path)
    assert code == 4 and not out and "internal invariant" in err


_TERM = st.tuples(st.sampled_from([" + ", " - "]), st.integers(1, 7), st.integers(-20, 20))
_POLY = st.lists(_TERM, max_size=4).map(
    lambda terms: "".join(f"{sign}{c}*t^{e}" for sign, c, e in terms).removeprefix(" + ") or "0"
)
_SCALAR = st.none() | st.booleans() | st.integers(-3, 7) | st.floats(allow_nan=False)
_JSON = st.recursive(
    _SCALAR | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_CORRUPTIONS = [None] * 4 + ["q", "d", "entries", "entry", "row", "key", "whole"]


@st.composite
def _literals(draw):
    """A well-formed literal with d <= 4, then at most one corruption."""
    d = draw(st.integers(1, 4))
    entries = [[draw(_POLY) for _ in range(d)] for _ in range(d)]
    obj = {"q": draw(st.sampled_from([2, 3, 5])), "d": d, "entries": entries}
    corruption = draw(st.sampled_from(_CORRUPTIONS))
    if corruption in ("q", "d", "entries"):
        obj[corruption] = draw(_JSON)
    elif corruption == "entry":
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        entries[i][j] = draw(_JSON | st.text(max_size=8))
    elif corruption == "row":
        entries[draw(st.integers(0, d - 1))].pop()
    elif corruption == "key":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif corruption == "whole":
        return draw(_JSON)
    return obj


@settings(max_examples=200, deadline=None)
@given(literal=_literals())
def test_reduce_fuzz_literals(literal):
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(json.dumps(literal))
    sys.stdout = io.TextIOWrapper(io.BytesIO())
    try:
        code = main(["reduce", "--matrix", "-"])
    finally:
        sys.stdin, sys.stdout = stdin, stdout
    assert code in (0, 2)


_MALFORMED_ENTRIES = ["", "t^", "1 +", "x", "t^" + "9" * 5000, "2**t"]


@st.composite
def _sized_literals(draw):
    """A literal with d in [2, 16], q small and a span up to and past what
    the work bound admits: entries are sparse or dense sums of terms from a
    seeded generator, and at most one entry is malformed."""
    d = draw(st.integers(2, 16))
    q = draw(st.sampled_from([2, 3, 5]))
    span = draw(st.integers(0, 8) | st.integers(0, 600) | st.sampled_from([5000, 10**9]))
    terms = draw(st.integers(1, 6))
    density = draw(st.sampled_from([0.2, 0.6, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    low = rng.randint(-span, 0)

    def entry():
        if rng.random() > density:
            return "0"
        exps = {rng.randint(low, low + span) for _ in range(terms)}
        return " + ".join(f"{rng.randrange(1, q)}*t^{e}" for e in sorted(exps))

    entries = [[entry() for _ in range(d)] for _ in range(d)]
    if draw(st.booleans()):
        entries[rng.randrange(d)][rng.randrange(d)] = draw(st.sampled_from(_MALFORMED_ENTRIES))
    return {"q": q, "d": d, "entries": entries}


def _exit_code(argv, stdin_text=""):
    stdin, stdout, stderr = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(stdin_text)
    sys.stdout = io.TextIOWrapper(io.BytesIO())
    sys.stderr = io.StringIO()
    try:
        return main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = stdin, stdout, stderr


@settings(max_examples=60, deadline=timedelta(seconds=10))
@given(literal=_sized_literals(), degree=st.integers(0, 3), neighbors=st.booleans())
def test_literal_commands_fuzz(literal, degree, neighbors):
    argv = ["neighbors", "--matrix", "-", f"--degree={degree}"] if neighbors else ["reduce", "--matrix", "-"]
    assert _exit_code(argv, json.dumps(literal)) in (0, 2, 3)


_LONG_LABEL = st.one_of(
    st.integers(1, 400).map(lambda d: [0] * d),
    st.integers(1, 400).map(lambda d: [1] * (d - 1) + [0]),
    st.integers(1, 40).map(lambda d: list(range(d - 1, -1, -1))),
    st.just([0] * 12000),
).map(_label)


@settings(max_examples=60, deadline=timedelta(seconds=10))
@given(
    n=_LONG_LABEL,
    m=_LONG_LABEL,
    degree=st.integers(0, 40),
    flags=st.sampled_from([["distance"], ["neighbors"], ["neighbors", "--in-domain"]]),
    q=st.sampled_from([2, 3, 5]),
)
def test_long_label_fuzz(n, m, degree, flags, q):
    command, *rest = flags
    if command == "distance":
        argv = [command, f"--n={n}", f"--m={m}", f"--q={q}"]
    else:
        argv = [command, f"--n={n}", f"--degree={degree}", f"--q={q}", *rest]
    assert _exit_code(argv) in (0, 2, 3), argv


# weighted towards valid input: a repeated strategy is drawn more often
_SMALL_PRIME = st.sampled_from([2, 3, 5])
_Q = st.one_of(
    _SMALL_PRIME,
    _SMALL_PRIME,
    st.integers(-3, 12),
    st.sampled_from([10**12 + 39, 10**18 + 3, 10**18 + 4, 10**400]),
)
_COORD = st.one_of(
    st.integers(0, 6), st.integers(0, 6), st.integers(-3, -1), st.sampled_from([10**5, 10**9])
)
_LABEL = st.lists(_COORD, min_size=1, max_size=3).map(
    lambda xs: ",".join(map(str, sorted(xs, reverse=True) + [0]))
) | st.sampled_from(["", "a,b", "1,2,0", "1;0", "0", "3,1"])
_SCALAR_TEXT = st.sampled_from(["3", "-3/7", "2.5", "0", "7", "1+2i", "0.5-0.1i", "x", "1/0"])


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


# the required flags
_ALWAYS = {"n", "m", "degree", "lambda1"}


@st.composite
def _cli_argv(draw):
    """One subcommand with the flags in _ALWAYS and a random subset of the others."""
    small = st.integers(-2, 4)
    common = {"q": _Q}
    flags = {
        "stabilizer": {"n": _LABEL, "enumerate": None, **common},
        "covolume": {
            "d": st.integers(-1, 6) | st.sampled_from([100, 10**9]),
            "max-n": st.integers(-1, 8) | st.sampled_from([10**6, 10**9]),
            "normalization": st.sampled_from(["pgl", "gl", "sl"]),
            **common,
        },
        "distance": {"n": _LABEL, "m": _LABEL, "radius": st.integers(-1, 10**9), **common},
        "neighbors": {"n": _LABEL, "degree": small, "in-domain": None, **common},
        "eigenvector": {
            "d": st.sampled_from([2, 3, 3, 1, 4]),
            "lambda1": _SCALAR_TEXT | st.sampled_from(["1e1000", "1e300+1i"]),
            "lambda2": _SCALAR_TEXT,
            "max-n": st.integers(-1, 14) | st.sampled_from([200, 2000, 3000, 10**9]),
            "l2": None,
            "regression": None,
            "format": st.sampled_from(["json", "text"]),
            **common,
        },
        "hecke-check": {
            "d": st.integers(1, 4),
            "max-n": st.integers(-1, 4) | st.sampled_from([10**6, 10**9]),
            "trials": small,
            "seed": st.integers(-5, 5),
            **common,
        },
        "domain": {
            "d": st.integers(1, 4),
            "max-n": st.integers(-1, 4) | st.sampled_from([10**6, 10**9]),
            "format": st.sampled_from(["json", "dot"]),
            **common,
        },
    }
    command = draw(st.sampled_from(sorted(flags)))
    argv = [command]
    for name, values in flags[command].items():
        if values is None:
            argv += draw(st.sampled_from([[], [f"--{name}"]]))
        elif name in _ALWAYS:
            argv.append(f"--{name}={draw(values)}")
        else:
            argv += draw(_flag(name, values))
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_cli_argv())
@example(argv=["stabilizer", "--n=1,0", "--q=1000000000000000003"])
@example(argv=["stabilizer", "--n=1,0", "--q=1" + "0" * 400])
@example(argv=["stabilizer", "--n=20000,0", "--q=2"])
@example(argv=["covolume", "--d=100", "--max-n=0"])
@example(argv=["covolume", "--d=22", "--max-n=2"])
@example(argv=["distance", "--n=100000000,0", "--m=0,0", "--radius=2"])
@example(argv=["distance", "--n=1000000000,7,0", "--m=0,0,0"])
@example(argv=["distance", "--n=0,0", "--m=0,0,0"])
@example(argv=["domain", "--d=3", "--max-n=1" + "0" * 3000])
@example(argv=["domain", "--d=1000000000", "--max-n=0"])
@example(argv=list(EIGENVECTOR_OVER_BOUNDS[0]))
@example(argv=list(EIGENVECTOR_OVER_BOUNDS[1]))
@example(argv=list(EIGENVECTOR_OVER_BOUNDS[2]))
@example(argv=list(EIGENVECTOR_OVER_BOUNDS[3]))
@example(argv=list(EIGENVECTOR_OVER_BOUNDS[4]))
def test_cli_fuzz_flags(argv):
    stdout, stderr = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(io.BytesIO())
    sys.stderr = io.StringIO()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a value, such as --normalization=sl
        code = exc.code
    finally:
        sys.stdout, sys.stderr = stdout, stderr
    assert code in (0, 2, 3), argv
