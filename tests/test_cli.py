"""CLI surface: determinism, exit codes, and the documented outputs."""

import io
import json
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btq.cli import main
from btq.laurent import LaurentMatrix, LaurentPoly


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def matrix_file(tmp_path, entries, q=2):
    m = LaurentMatrix([[LaurentPoly.parse(s, q) for s in row] for row in entries], q)
    path = tmp_path / "matrix.json"
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


def test_exit_code_resource_bound(run):
    code, _, err = run("stabilizer", "--n", "9,5,0", "--q", "3", "--enumerate", "--bound", "100")
    assert code == 3 and "bound" in err
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
    ):
        code, out, err = run(*argv)
        assert code == 3 and not out and err.startswith("resource bound:"), argv
        assert len(err.splitlines()) == 1, argv
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
        "stabilizer": {"n": _LABEL, "enumerate": None, "bound": st.integers(-1, 500), **common},
        "covolume": {
            "d": st.integers(-1, 6) | st.sampled_from([100, 10**9]),
            "max-n": st.integers(-1, 8) | st.sampled_from([10**6, 10**9]),
            "normalization": st.sampled_from(["pgl", "gl", "sl"]),
            **common,
        },
        "distance": {"n": _LABEL, "m": _LABEL, "radius": st.integers(-1, 10**9), **common},
        "neighbors": {"n": _LABEL, "degree": small, "in-domain": None, **common},
        # small only: eigenvector has no bound on --max-n or on the size of lambda
        "eigenvector": {
            "d": st.sampled_from([2, 3, 3, 1, 4]),
            "lambda1": _SCALAR_TEXT,
            "lambda2": _SCALAR_TEXT,
            "max-n": st.integers(-1, 14),
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
