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
    assert lines[0] == "order 128" and lines[1] == "enumerated 128" and len(lines) == 130
    code, out, _ = run("stabilizer", "--n", "1,0", "--q", "7", "--enumerate")
    lines = out.splitlines()
    assert code == 0 and lines[:2] == ["order 294", "enumerated 294"] and len(lines) == 296


def test_stabilizer_enumerate_count_check_exits_after_output(run, monkeypatch):
    # the elements stream out after the predicted order; a count that
    # differs from it is an invariant violation, found after the last one
    from btq import domain

    _, expected, _ = run("stabilizer", "--n", "1,1,0", "--q", "2", "--enumerate")
    exact = domain.stabilizer_order
    monkeypatch.setattr(domain, "stabilizer_order", lambda label, q: exact(label, q) + 1)
    code, out, err = run("stabilizer", "--n", "1,1,0", "--q", "2", "--enumerate")
    assert code == 4 and "got 96, formula predicts 97" in err
    assert out.splitlines()[:2] == ["order 97", "enumerated 97"]
    assert out.splitlines()[2:] == expected.splitlines()[2:] and len(out.splitlines()) == 98


def test_domain_json_nodes(run):
    code, out, _ = run("domain", "--d", "3", "--max-n", "1", "--q", "2", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["nodes"]) == 3
    # at generic d the writer gives the bytes of json.dumps(indent=2, sort_keys=True)
    code, out, _ = run("domain", "--d", "5", "--q", "2", "--max-n", "8", "--format", "json")
    obj = json.loads(out)
    assert code == 0 and out == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert (len(obj["nodes"]), len(obj["edges"])) == (495, 1650)


def test_domain_dot(run):
    code, out, _ = run("domain", "--d", "3", "--max-n", "2", "--format", "dot")
    assert code == 0 and out.startswith("digraph") and '"000" -> "100"' in out


def test_domain_dot_names_below_100_are_concatenated(run):
    # while every label entry is below 100 the node names are the entries'
    # digits run together, as the dot exports have always been written
    code, out, _ = run("domain", "--d", "4", "--q", "2", "--max-n", "11", "--format", "dot")
    assert code == 0 and '"11100" -> "11110"' in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4c72f45e80372da413c336da9bb79b979446b91b23867104ce6ba89491da1fd6"
    )


def test_domain_export_builds_no_id_rows(run, monkeypatch):
    # an export reads the labels and edges only; hecke-check reads the rows
    from btq import quotient

    graphs = []
    exact = quotient.build_graph

    def recorded(*args):
        graphs.append(exact(*args))
        return graphs[-1]

    monkeypatch.setattr(quotient, "build_graph", recorded)
    for fmt in ("json", "dot"):
        code, _, _ = run("domain", "--d", "3", "--q", "2", "--max-n", "6", "--format", fmt)
        assert code == 0 and "_id_rows" not in vars(graphs[-1]), fmt
    code, _, _ = run("hecke-check", "--d", "3", "--q", "2", "--max-n", "6", "--trials", "1")
    assert code == 0 and "_id_rows" in vars(graphs[-1])


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


def test_neighbors_in_domain_takes_a_label(run, tmp_path):
    path = matrix_file(tmp_path, [["t", "0"], ["0", "1"]])
    code, out, err = run("neighbors", "--matrix", path, "--degree", "1", "--in-domain")
    assert code == 2 and not out and "--in-domain takes --n" in err


def test_neighbors_in_domain_checks_q(run):
    code, out, err = run("neighbors", "--n", "2,1,0", "--degree", "1", "--in-domain", "--q", "4")
    assert code == 2 and not out and "q must be a prime" in err


def test_neighbors_matrix(run, tmp_path):
    path = matrix_file(tmp_path, [["t^2", "0", "0"], ["0", "t", "0"], ["0", "0", "1"]])
    code, out, _ = run("neighbors", "--matrix", path, "--degree", "2")
    assert code == 0 and len(json.loads(out)) == 7


def test_neighbors_matrix_checks_q(run, tmp_path):
    # the literal carries its q: a --q that names another one is refused,
    # a non-prime one too, and the same q is accepted
    path = matrix_file(tmp_path, [["t", "0"], ["0", "1"]])
    for q in ("3", "4"):
        code, out, err = run("neighbors", "--matrix", path, "--q", q, "--degree", "1")
        assert code == 2 and not out and "does not match" in err
    code, out, _ = run("neighbors", "--matrix", path, "--q", "2", "--degree", "1")
    assert (code, out) == (0, run("neighbors", "--matrix", path, "--degree", "1")[1])
    assert len(json.loads(out)) == 3


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
    (3, 3): "c60f6802fe179b830d953d9445ad10b63f283b1fac960c05edbcb6685d9c83cd",
    (3, 5): "131b2fe148855585d66adb0a94dfb05d132bd528dcd91fc23b77b26a58b0b3be",
    (4, 2): "46e440d73f2f7ba94c1d2f9e4da2960a267d0f0ec401cbe0658653df7d67da96",
    (4, 3): "7941c316fc5fa2d9ebcf19ef384729f9d426d5110011b552e2783fde2b7083e0",
    (4, 5): "8d8647845ceac31e6aa4dbb256d1da5f61fff313fa04a0eea27c1cfc4ae13b9e",
    (5, 2): "0955047ac1052acf9fd203f2322898452eb6a852e685e767f40d48cfacde99b4",
    (5, 3): "e2525ba064f673342a7f1a59ea9a93bb8ede76bbf64ef401d70712521d94d1c4",
    (5, 5): "3ab75304b11b67f38b298898a79d59b6737ac7cc42da976ec1d0f511049903ea",
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


# sha256 of `btq reduce --matrix -` stdout for three written-out literals: a
# d = 2 one; a d = 4 one whose weak Popov pass takes three steps, one where
# the row holding a leading position gives it up, one plain subtraction and
# one tie of top keys, where the incoming row is reduced; and a seeded
# d = 5 one, whose witness comes from the back-substitution on reversed
# transposes
REDUCE_LITERAL_HASHES = {
    2: ('{"q": 2, "d": 2, "entries": [["t^2", "1"], ["t", "1"]]}',
        "f3942fb279d84e95e9397b58164e56637b6836430b6806ba144a4656327c23b9"),
    4: ('{"q": 3, "d": 4, "entries": [["2", "0", "1", "t^2 + t"], ["2", "t", "2*t^2 + t", "t"], '
        '["0", "0", "0", "1"], ["0", "0", "2*t^2 + t + 2", "0"]]}',
        "6066514f7b62844806ae3eba0ab8febfc3ea9f9da6c70ab3eb92d1aad323b736"),
    5: ('{"q": 3, "d": 5, "entries": [["t^2 + t + 2 + t^-1", "2*t^2 + 2*t^1 + 1 + t^-1", '
        '"t^3 + t^2 + 1", "2*t^2 + t + 1 + 2*t^-1", "2*t^2 + 2*t^-1"], ["t + 1 + t^-1", "1 + t^-1", '
        '"t^2 + 2*t^1", "2*t^-1", "2*t^1 + 1 + 2*t^-1"], ["t^3 + 2*t^1 + 1", "t^3 + 2*t^2 + t + 1", '
        '"t^2 + t", "t^3 + 2*t^2 + 2", "2"], ["2*t^2 + t + 2 + t^-1", "1 + t^-1", "2*t^3 + 1", '
        '"t + 1 + 2*t^-1", "t^2 + 2*t^-1"], ["t^2 + t + 2", "2*t^1", "t^3 + 2*t^2 + t + 1", "t + 2", '
        '"2*t^2 + 1"]]}',
        "b802a0db492e6ee73a9c3f2b6bb4b8b5e1fc05ee4587a73343f6b2519885fd10"),
}


@pytest.mark.parametrize("d", sorted(REDUCE_LITERAL_HASHES))
def test_reduce_literal_output_pinned(d, monkeypatch, capsysbinary):
    literal, digest = REDUCE_LITERAL_HASHES[d]
    monkeypatch.setattr(sys, "stdin", io.StringIO(literal))
    code = main(["reduce", "--matrix", "-"])
    assert code == 0 and hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digest


# the same at the lattice-reduce benchmark's largest sizes: the literal
# random_gamma(d, q, 6, seed) * diag(label) * random_k(d, q, 4, seed), n_1 = 12
REDUCE_WIDE_LABELS = {3: (12, 7, 0), 4: (12, 9, 4, 0)}
REDUCE_WIDE_HASHES = {
    (3, 2): "0805b19037fcd6b2bfab493a0afb6e774b2525381b792f498dd074a2e3fe3e1f",
    (3, 3): "1372496ddff7721f08c930c5020813bb9ad51014dff58a30f270d407e9eab011",
    (4, 2): "889ba56861531252080049e2105fb3e6c3cd59013d3f131b3a8665d85d8df589",
    (4, 3): "4999f7b1b1ef80e98b72fac2eb90f6e245fc36465b17f1237187b13f76b1bff8",
}


@pytest.mark.parametrize("d, q", sorted(REDUCE_WIDE_HASHES))
def test_reduce_output_pinned_at_benchmark_sizes(d, q, tmp_path, capsysbinary):
    label = REDUCE_WIDE_LABELS[d]
    seed = 100 * d + q
    m = random_gamma(d, q, 6, seed) * LaurentMatrix.diagonal(label, q) * random_k(d, q, 4, seed)
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(m.to_literal()))
    code = main(["reduce", "--matrix", str(path)])
    out = capsysbinary.readouterr().out
    assert code == 0 and json.loads(out)["label"] == list(label)
    assert hashlib.sha256(out).hexdigest() == REDUCE_WIDE_HASHES[d, q]


# (q, entries, {degree: (neighbor count, sha256 of `btq neighbors --matrix` stdout)}):
# random_gamma(4, 2, 2, 401) * diag(2, 1, 1, 0), a dense d = 4 basis as in the
# building-walk benchmark, and a seeded dense d = 3, q = 3 literal
NEIGHBOR_PINS = [
    (2, [["t^4 + t^3", "t", "t", "t + 1"],
         ["0", "t^2 + t", "t^2 + t", "t"],
         ["t^2", "t", "t", "1"],
         ["t^3 + t^2", "t", "0", "t + 1"]],
     {2: (35, "c08be849eb1f7f258b1e163b1fdcfed72795dec95ccdb63ef44e5052d73585fd")}),
    (3, [["2*t^2 + t + 1 + 2*t^-1 + 2*t^-2", "2*t^2 + 1 + 2*t^-1 + 2*t^-2", "t^2 + 1 + 2*t^-1 + t^-2"],
         ["2 + 2*t^-1 + 2*t^-2", "1 + t^-1 + 2*t^-2", "1 + 2*t^-1 + t^-2"],
         ["t", "t + 2 + 2*t^-1", "t"]],
     {1: (13, "dc84d3b4f1a828613d52509981d2ac50be44835fdf3819f3ed9a55b9046c7074"),
      2: (13, "9d2769ed2b71143849de3adb549619bd3243f5ef0ae0bd1e8cf16942a77bce6b")}),
]


def test_neighbors_matrix_output_pinned(tmp_path, capsysbinary):
    for q, entries, pins in NEIGHBOR_PINS:
        path = matrix_file(tmp_path, entries, q)
        for degree, (count, digest) in pins.items():
            code = main(["neighbors", "--matrix", path, "--degree", str(degree)])
            out = capsysbinary.readouterr().out
            assert code == 0 and len(json.loads(out)) == count, (q, degree)
            assert hashlib.sha256(out).hexdigest() == digest, (q, degree)


def test_neighbors_json_matches_json_dumps(tmp_path, monkeypatch, capsysbinary):
    # the template writer gives the bytes of json.dumps(indent=2, sort_keys=True)
    # on the very list building.neighbors returned, for labels and seeded
    # dense literals at every degree; above the work bound it exits 3 unwritten
    from btq import building

    results = []
    exact = building.neighbors

    def recorded(vertex, k):
        results.append(exact(vertex, k))
        return results[-1]

    monkeypatch.setattr(building, "neighbors", recorded)
    for d in range(2, 6):
        label = tuple(range(d - 1, -1, -1))
        for q in (2, 3, 5):
            seed = 100 * d + q
            m = random_gamma(d, q, 2, seed) * LaurentMatrix.diagonal(label, q) * random_k(d, q, 2, seed)
            path = tmp_path / f"lattice-{d}-{q}.json"
            path.write_text(json.dumps(m.to_literal()))
            for degree in range(1, d):
                for source in (["--n", ",".join(map(str, label)), "--q", str(q)], ["--matrix", str(path)]):
                    argv = ["neighbors", *source, "--degree", str(degree)]
                    count = len(results)
                    code = main(argv)
                    out = capsysbinary.readouterr().out
                    if code == 3:
                        assert (d, q, degree) in {(5, 5, 2), (5, 5, 3)} and not out, argv
                        continue
                    assert code == 0 and len(results) == count + 1, argv
                    literals = [v.to_literal() for v in results[-1]]
                    assert out.decode() == json.dumps(literals, indent=2, sort_keys=True) + "\n", argv


def test_parser_reuse_after_rejected_and_help_argv(run, capsys):
    # a parse that argparse ends with SystemExit, an error on stderr or a
    # help page on stdout, leaves the shared parser as it was
    valid = ("neighbors", "--n", "2,1,0", "--q", "3", "--degree", "2")
    expected = run(*valid)
    assert expected[0] == 0
    for argv, status in (
        (["covolume", "--normalization=sl"], 2),
        (["neighbors", "--n", "2,1,0"], 2),
        (["--help"], 0),
        (["neighbors", "--help"], 0),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == status, argv
        assert (captured.err if status else captured.out).startswith("usage: btq"), argv
        assert run(*valid) == expected, argv


def test_parser_carries_no_default_over(run):
    # --q 3 in one call leaves --q unset (2 for a label) in the next
    plain = run("neighbors", "--n", "2,1,0", "--degree", "1")
    other = run("neighbors", "--n", "2,1,0", "--q", "3", "--degree", "1")
    assert plain[0] == other[0] == 0 and plain != other
    assert run("neighbors", "--n", "2,1,0", "--degree", "1") == plain
    assert run("neighbors", "--n", "2,1,0", "--q", "2", "--degree", "1") == plain


def test_main_calls_share_one_parser(run, monkeypatch):
    # the first main call builds the parser and every later one reuses it
    import argparse

    from btq import cli

    cli.build_parser.cache_clear()
    built, used = [], []
    init, parse = argparse.ArgumentParser.__init__, argparse.ArgumentParser.parse_args

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def recorded_parse(self, *args, **kwargs):
        used.append(self)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded_parse)
    assert run("covolume", "--d", "2")[0] == 0
    count = len(built)
    assert count > 1  # the top-level parser and its subcommands
    assert run("stabilizer", "--n", "1,0")[0] == 0
    assert len(built) == count and len(used) == 2
    assert used[0] is used[1] is built[0] is cli.build_parser()


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


def test_eigenvector_text_skips_l2(run, monkeypatch):
    # the text table never prints the norm, so it is not computed there
    from btq import hecke

    argv = ("eigenvector", "--d", "3", "--q", "2", "--lambda1", "3/7", "--lambda2=-1/2",
            "--max-n", "12", "--format", "text")
    plain = run(*argv)

    def refused(f):
        raise AssertionError("l2_partial_norm called for text output")

    monkeypatch.setattr(hecke, "l2_partial_norm", refused)
    assert run(*argv, "--l2") == plain
    assert plain[0] == 0


@pytest.mark.parametrize("argv", [
    ("--d", "3", "--q", "3", "--lambda1", "3/7", "--lambda2=-1/2", "--max-n", "9"),
    ("--d", "3", "--q", "2", "--lambda1=-0-1i", "--lambda2=1+2i", "--max-n", "5", "--l2"),
    ("--d", "2", "--q", "5", "--lambda1=-7/3", "--max-n", "11"),
])
def test_eigenvector_text_rows_are_the_json_values(run, argv):
    code, text, _ = run("eigenvector", *argv, "--format", "text")
    assert code == 0
    _, out, _ = run("eigenvector", *argv)
    rows = [f"{','.join(map(str, v['label'])):>10}  {v['value']}" for v in json.loads(out)["values"]]
    assert text.splitlines() == ["     label  value", *rows]


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

    def counted(lambda1, lambda2, q, max_n1):
        calls.append(max_n1)
        return recursion(lambda1, lambda2, q, max_n1)

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
    # the commutator of A_1 and A_(d-1) is checked at every d >= 3, also on
    # generic-d graphs deep enough to use every cached edge ratio
    for d, q, max_n, sums in (("4", "2", "3", 15), ("5", "2", "3", 31),
                              ("4", "2", "12", 15), ("5", "2", "8", 31)):
        code, out, _ = run("hecke-check", "--d", d, "--q", q, "--max-n", max_n)
        assert code == 0 and out.splitlines() == [
            f"row_sums ok (expected {sums})",
            "commutator_max_residual 0 over 5 random functions",
            "adjointness_residual 0",
        ]
    # at d = 2, A_1 = A_(d-1): there is no commutator to check, so no
    # doubly-interior vertex is needed
    for q, max_n in (("3", "8"), ("3", "0"), ("2", "4")):
        code, out, _ = run("hecke-check", "--d", "2", "--q", q, "--max-n", max_n)
        assert code == 0 and out.splitlines() == [
            f"row_sums ok (expected {int(q) + 1})", "adjointness_residual 0",
        ]
    # a truncation with no doubly-interior vertex is invalid at d >= 3
    for d in ("3", "4"):
        code, out, err = run("hecke-check", "--d", d, "--max-n", "1")
        assert code == 2 and not out and "doubly-interior" in err


def _one_wrong_ratio(monkeypatch):
    """Make quotient.build_graph add one to the first ratio of the zero
    label's forward row."""
    from btq import quotient

    exact = quotient.build_graph

    def one_wrong_ratio(*args):
        graph = exact(*args)
        row = graph.forward[graph.index[(0,) * graph.d]]
        row[0] = (row[0][0], row[0][1] + 1)
        return graph

    monkeypatch.setattr(quotient, "build_graph", one_wrong_ratio)


def test_hecke_check_fail_exit_code(run, monkeypatch):
    _one_wrong_ratio(monkeypatch)
    code, out, _ = run("hecke-check", "--d", "3", "--q", "2", "--max-n", "4", "--trials", "1")
    assert code == 4 and out.splitlines()[0] == "row_sums FAIL (expected 7)"


@pytest.mark.parametrize("d, max_n, seed", [(3, 6, 0), (4, 4, 3)])
def test_hecke_check_prints_residuals_of_the_rationals(run, monkeypatch, d, max_n, seed):
    # the CLI draws ints over RANDOM_DENOMINATOR; the residuals it prints are
    # those of the rationals they stand for, summed here directly as Fractions
    from btq import hecke, quotient

    _one_wrong_ratio(monkeypatch)
    graph = quotient.build_graph(d, 2, max_n)
    top = d - 1

    def rational(draw_seed):
        f = hecke.DomainFunction.random_integer(d, 2, max_n, draw_seed)
        return {u: Fraction(x, hecke.RANDOM_DENOMINATOR) for u, x in f.values.items()}

    def apply(i, values):
        return hecke.apply_hecke(graph, i, hecke.DomainFunction(d, 2, max_n, values)).values

    commutator = Fraction(0)
    for trial in range(2):
        f = rational(seed + trial)
        left, right = apply(1, apply(top, f)), apply(top, apply(1, f))
        commutator = max(commutator, *(abs(left[u] - right[u]) for u in set(left) & set(right)))
    interior = {u for u in graph.nodes if u[0] + 2 <= max_n}
    f, g = ({u: x if u in interior else 0 for u, x in rational(seed + s).items()}
            for s in (104729, 1299709))
    a1f, atg = apply(1, f), apply(top, g)
    adjointness = sum(Fraction(a1f[u] * g[u], order) for u, order in graph.nodes.items() if u in a1f)
    adjointness -= sum(Fraction(f[u] * atg[u], order) for u, order in graph.nodes.items() if u in atg)
    assert commutator != 0 and adjointness != 0
    code, out, _ = run("hecke-check", "--d", str(d), "--q", "2", "--max-n", str(max_n),
                       "--trials", "2", "--seed", str(seed))
    assert code == 4 and out.splitlines()[1:] == [
        f"commutator_max_residual {commutator} over 2 random functions",
        f"adjointness_residual {adjointness}",
    ]


@pytest.mark.parametrize("name, failing, d", [
    ("commutator_check", "commutator", "3"),
    ("adjointness_residual", "adjointness", "4"),
])
def test_hecke_check_residual_exit_code(run, monkeypatch, name, failing, d):
    from btq import hecke

    # the library's units: the drawn functions are ints over RANDOM_DENOMINATOR
    monkeypatch.setattr(hecke, name, lambda *args: Fraction(hecke.RANDOM_DENOMINATOR**2, 3))
    code, out, err = run("hecke-check", "--d", d, "--q", "2", "--max-n", "4", "--trials", "1")
    assert code == 4 and out.splitlines()[0].startswith("row_sums ok")
    assert out.splitlines()[-1] == "adjointness_residual " + ("1/3" if d == "4" else "0")
    assert err == f"internal invariant violation: hecke-check fails: {failing}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("--d", "3", "--q", "2", "--lambda1", "3/7", "--lambda2=-1/2", "--max-n", "12",
         "--l2", "--regression"),
        ("--d", "3", "--q", "3", "--lambda1", "5", "--lambda2=-2/9", "--max-n", "6"),
        ("--d", "3", "--q", "2", "--lambda1", "3/7", "--lambda2=-1/2", "--max-n", "2", "--l2"),
        ("--d", "3", "--q", "3", "--lambda1=0", "--lambda2=1+2i", "--max-n", "14", "--l2",
         "--regression"),
        ("--d", "3", "--q", "3", "--lambda1=0.5-1i", "--lambda2=1", "--max-n", "5"),
        ("--d", "2", "--q", "2", "--lambda1", "3", "--max-n", "30"),
        ("--d", "2", "--q", "5", "--lambda1=-7/3", "--max-n", "9", "--l2"),
        ("--d", "2", "--q", "3", "--lambda1=1+2i", "--max-n", "20", "--l2"),
        # deep: the CLI checks a complex d = 2 run against the two-root closed form at every depth
        ("--d", "2", "--q", "3", "--lambda1=1+2i", "--max-n", "150"),
    ],
)
def test_eigenvector_json_matches_json_dumps(run, argv):
    # the template writer gives the bytes of json.dumps(indent=2, sort_keys=True)
    code, out, _ = run("eigenvector", *argv, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert out == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert ("l2_partial" in obj) == ("--l2" in argv)
    assert ("regression" in obj) == ("--regression" in argv)
    if argv[argv.index("--max-n") + 1] == "2":
        assert obj["residuals"] == [] and '"residuals": [],' in out


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

    def one_wrong_residual(*args):
        func, residuals = exact(*args)
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


def test_exit_code_invalid_input(run, tmp_path):
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
    for trials in ("0", "-3"):
        code, out, err = run("hecke-check", "--max-n", "4", "--trials", trials)
        assert code == 2 and not out and "--trials" in err
    # a d = 1 literal names no building, whatever the degree
    path = matrix_file(tmp_path, [["t"]])
    code, out, err = run("neighbors", "--matrix", path, "--degree", "1")
    assert code == 2 and not out and "the building is a point" in err


# four over the value-size bound (the last one just over: 7608 bits over
# 7000, while --max-n=1000 runs), one outside the float range, and a d = 3
# one just over the work bound (5,068,829 units over 5,000,000); a d = 2
# recursion takes a few products per n, so no d = 2 input is over the work
# bound alone
EIGENVECTOR_OVER_BOUNDS = [
    ("eigenvector", "--d=2", "--q=2", "--lambda1=1e1000", "--max-n=5"),
    ("eigenvector", "--d=2", "--q=2", "--lambda1=3", "--max-n=3000"),
    ("eigenvector", "--d=3", "--q=2", "--lambda1=3", "--lambda2=2", "--max-n=2000"),
    ("eigenvector", "--d=2", "--q=2", "--lambda1=3", "--max-n=1200"),
    ("eigenvector", "--d=3", "--q=2", "--lambda1=1e1000", "--lambda2=1+2i"),
    ("eigenvector", "--d=3", "--q=3", "--lambda1=1", "--lambda2=1", "--max-n=203"),
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
    # the predicted work is the one bound of an enumeration; it has no override
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
        # the commutator trials are bounded by their predicted work
        ("hecke-check", "--max-n", "4", "--trials", "1000000000"),
        ("hecke-check", "--d", "3", "--q", "2", "--max-n", "4", "--trials", "100000"),
        # and so is the partial covolume sum, by its label count
        ("covolume", "--d", "3", "--q", "2", "--max-n", "800"),
        ("covolume", "--d", "3", "--q", "2", "--max-n", "1400"),
        ("covolume", "--d", "4", "--q", "2", "--max-n", "170"),
        # a group of order 242,121,642
        ("stabilizer", "--n", "8,0", "--q", "7", "--enumerate"),
        # the 5^9 candidates of GL_3(F_5), and 893,730 elements of GL_2 size
        ("stabilizer", "--n", "0,0,0", "--q", "5", "--enumerate"),
        ("stabilizer", "--n", "2,0", "--q", "31", "--enumerate"),
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
    code, out, _ = run("stabilizer", "--n", "1,0", "--q", "31", "--enumerate")
    assert code == 0 and out.splitlines()[:2] == ["order 28830", "enumerated 28830"]
    code, out, _ = run("eigenvector", "--d=2", "--q=2", "--lambda1=3", "--max-n=1000")
    assert code == 0 and len(json.loads(out)["values"]) == 1001
    # the span of a basis costs nothing, and q^d residue vectors are never listed
    for argv, count in (
        (("--n", "1000000000,0,0", "--q", "3", "--degree", "1"), 13),
        (("--n", "1000000,0,0", "--q", "3", "--degree", "1"), 13),
        (("--n", "0,0", "--q", "317", "--degree", "1"), 318),
        (("--n", "2,1,0", "--q", "3", "--degree", "1"), 13),
    ):
        start = time.perf_counter()
        code, out, _ = run("neighbors", *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 0 and len(json.loads(out)) == count, argv
    # in-domain neighbors cost their count, not every drop combination:
    # 1140 of them for 19,...,0 at degree 3, from 2^20 combinations
    start = time.perf_counter()
    code, out, _ = run("neighbors", "--in-domain", "--n", _label(range(19, -1, -1)), "--q", "2",
                       "--degree", "3")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and len(out.splitlines()) == 1140
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
    dense16 = tmp_path / "dense16.json"
    dense16.write_text(json.dumps(random_gamma(16, 3, 3, rng).to_literal()))
    sparse = [
        [" + ".join(f"t^{e}" for e in sorted({rng.randint(0, 16000) for _ in range(3)})) for _ in range(5)]
        for _ in range(5)
    ]
    sparse = matrix_file(tmp_path, sparse, q=5, name="sparse.json")
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps(random_gamma(40, 3, 3, random.Random(40)).to_literal()))
    # a dense d = 16 element of GL_d(F_q[t]) is within the bound and
    # reduces to the origin's label
    start = time.perf_counter()
    code, out, _ = run("reduce", "--matrix", str(dense16))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["label"] == [0] * 16
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

    monkeypatch.setattr(building, "_certify_same_lattice", lambda canon, original, q: False)
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
@example(argv=["covolume", "--d=3", "--max-n=1400"])
@example(argv=["hecke-check", "--max-n=4", "--trials=1000000000"])
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
