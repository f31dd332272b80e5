"""Workloads of the btq benchmark: job lists, seeded inputs and output checks.

A workload is a fixed list of jobs built from the seed.  A job runs either
`btq.cli.main(argv)` with stdout captured or a public library call, and
returns its output; its check runs afterwards, outside the timed region,
and returns a list of problems (empty when the output is correct).  CLI
jobs whose stdout is a documented contract are pinned by the sha256 of
that stdout (`pins.json`); every job also has invariant checks that do not
rely on the pins.

Library functions are always looked up through their module at call time
(`building.vertex_normal_form`, not a captured reference) so that a traced
run sees the calls.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
from collections import defaultdict
from fractions import Fraction
from math import comb

from btq import building, cli, domain, hecke, laurent

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def q_binomial(d: int, k: int, q: int) -> int:
    """[d choose k]_q, written out here so checks do not lean on btq.gf."""
    num = den = 1
    for i in range(k):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


class Job:
    """One unit of timed work.  `sample` marks the homogeneous jobs whose
    latencies feed the per-job percentiles; only lattice-reduce has them."""

    __slots__ = ("name", "run", "check", "sample")

    def __init__(self, name, run, check, sample=False):
        self.name = name
        self.run = run
        self.check = check
        self.sample = sample


class CliOutput:
    __slots__ = ("code", "stdout", "stderr")

    def __init__(self, code, stdout, stderr):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr


def run_cli(argv) -> CliOutput:
    """`btq.cli.main(argv)` in this process with stdout and stderr captured."""
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8")
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(argv)
    finally:
        out.flush()
        sys.stdout, sys.stderr = saved
    data = raw.getvalue()
    out.detach()
    return CliOutput(code, data, err.getvalue())


def load_pins() -> dict[str, str]:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def cli_job(pins, name, check, extra_args=()) -> Job:
    """A CLI job; `name` is the invocation and the key of its pin, and
    `extra_args` are seeded arguments that must not change the output."""
    argv = name.split() + list(extra_args)
    pin = pins.get(name)

    def checked(result: CliOutput, stats) -> list[str]:
        if result.code != 0:
            return [f"exit code {result.code}: {result.stderr.strip()}"]
        if pin is not None and hashlib.sha256(result.stdout).hexdigest() != pin:
            return ["stdout differs from the pinned sha256"]
        return check(result.stdout, stats)

    return Job(name, lambda: run_cli(argv), checked)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def graph_json_check(d, q, max_n, edges=None):
    """Node count, per-edge ratio consistency, and the row-sum law:
    ratio_from over out-edges sums to [d choose 1]_q and ratio_to over
    in-edges to [d choose d-1]_q at every vertex with n_1 < max_n.  Edges
    without ratios are counted as missing, and a vertex with such an edge
    on the summed side is skipped and counted, not checked."""

    def check(stdout, stats):
        obj = json.loads(stdout)
        nodes = {tuple(x["label"]): int(x["stab_order"]) for x in obj["nodes"]}
        problems = []
        if len(nodes) != comb(max_n + d - 1, d - 1):
            problems.append(f"{len(nodes)} nodes, expected {comb(max_n + d - 1, d - 1)}")
        if edges is not None and len(obj["edges"]) != edges:
            problems.append(f"{len(obj['edges'])} edges, expected {edges}")
        fwd = defaultdict(int)
        bwd = defaultdict(int)
        partial_out, partial_in = set(), set()
        missing = 0
        for e in obj["edges"]:
            src, dst = tuple(e["from"]), tuple(e["to"])
            if e["ratio_from"] is None or e["ratio_to"] is None:
                missing += 1
                partial_out.add(src)
                partial_in.add(dst)
                continue
            stab = int(e["edge_stab_order"])
            rf, rt = int(e["ratio_from"]), int(e["ratio_to"])
            if rf * stab != nodes[src] or rt * stab != nodes[dst]:
                problems.append(f"edge {src}->{dst}: ratio times edge order is not the vertex order")
            fwd[src] += rf
            bwd[dst] += rt
        skipped = 0
        for u in nodes:
            if u[0] >= max_n:
                continue
            if u in partial_out or u in partial_in:
                skipped += 1
                continue
            if fwd[u] != q_binomial(d, 1, q) or bwd[u] != q_binomial(d, d - 1, q):
                problems.append(f"row sums at {u}: {fwd[u]} forward, {bwd[u]} backward")
        stats["missing_edges"] += missing
        stats["rowsum_skipped_vertices"] += skipped
        return problems[:5]

    return check


def graph_dot_check(d, q, max_n):
    """Node count, ratios present, and the forward row sums, read from the DOT text.

    DOT names are concatenated label digits; for d = 3 and max_n < 100 that
    string determines the label, which the check asserts."""
    labels = domain.enumerate_domain(d, max_n)
    by_name = {"".join(map(str, lab)): lab for lab in labels}
    if len(by_name) != len(labels):
        raise ValueError(f"DOT names do not determine the labels for d = {d}, max_n = {max_n}")

    def check(stdout, stats):
        lines = stdout.decode().splitlines()
        node_lines = [ln for ln in lines if "->" not in ln and "[label=" in ln]
        edge_lines = [ln for ln in lines if "->" in ln]
        problems = []
        if len(node_lines) != len(labels):
            problems.append(f"{len(node_lines)} DOT nodes, expected {len(labels)}")
        fwd = defaultdict(int)
        for ln in edge_lines:
            src = ln.split('"')[1]
            ratio = ln.rsplit("/", 1)[1].split('"')[0]
            if ratio == "?":
                problems.append(f"edge from {src} has no ratio")
                continue
            fwd[by_name[src]] += int(ratio)
        for lab in labels:
            if lab[0] < max_n and fwd[lab] != q_binomial(d, 1, q):
                problems.append(f"forward row sum at {lab} is {fwd[lab]}")
        return problems[:5]

    return check


def hecke_check_check(d, q):
    def check(stdout, stats):
        lines = stdout.decode().splitlines()
        expected = [
            f"row_sums ok (expected {q_binomial(d, 1, q)})",
            "commutator_max_residual 0 over 5 random functions",
            "adjointness_residual 0",
        ]
        return [] if lines == expected else [f"hecke-check printed {lines}"]

    return check


def eigenvector_d3_check(stdout, stats):
    """Residuals exactly 0, asserted closed forms matching, L2 shells summing to the total."""
    obj = json.loads(stdout)
    problems = [
        f"residual {r['residual']} at {r['label']}"
        for r in obj["residuals"]
        if r["residual"] != "0"
    ]
    if not obj["residuals"]:
        problems.append("no residuals reported")
    problems += [
        f"asserted closed form {name} does not match"
        for name, entry in obj["regression"].items()
        if entry["status"] == "asserted" and not entry["match"]
    ]
    shells = sum(Fraction(s) for s in obj["l2_partial"]["shells"])
    if shells != Fraction(obj["l2_partial"]["total"]):
        problems.append("l2 shells do not sum to the total")
    return problems[:5]


def eigenvector_d2_check(lam, q, max_n):
    """Re-run f_0 = 1, f_1 = lam/(q+1), f_{n+1} = lam f_n - q f_{n-1}."""
    vals = [Fraction(1), Fraction(lam) / (q + 1)]
    while len(vals) <= max_n:
        vals.append(lam * vals[-1] - q * vals[-2])

    def check(stdout, stats):
        rows = json.loads(stdout)["values"]
        got = [Fraction(r["value"]) for r in sorted(rows, key=lambda r: r["label"])]
        return [] if got == vals else ["d = 2 eigenvector values differ from the recursion"]

    return check


def covolume_check(d, q, max_n):
    bound = hecke.covolume_gap_bound(d, q, max_n)

    def check(stdout, stats):
        lines = stdout.decode().splitlines()
        closed = Fraction(lines[0].split()[1])
        partial = Fraction(lines[1].split()[1])
        gap = Fraction(lines[2].split()[1])
        problems = []
        if not 0 < partial <= closed:
            problems.append("partial sum is not in (0, covolume]")
        if gap != closed - partial or gap > bound:
            problems.append("gap is not covolume - partial within covolume_gap_bound")
        return problems

    return check


def distance_check(radius):
    """A colour-1 path is a 1-skeleton path, so its length bounds BFS."""

    def check(stdout, stats):
        fields = dict(ln.split(" ", 1) for ln in stdout.decode().splitlines())
        bfs = fields["bfs_distance"]
        bfs1 = fields["bfs_color1_distance"]
        if not bfs.isdigit() or int(bfs) > radius:
            return [f"bfs_distance {bfs} within radius {radius}"]
        if bfs1.isdigit() and int(bfs1) < int(bfs):
            return [f"colour-1 distance {bfs1} below the graph distance {bfs}"]
        return []

    return check


def neighbors_check(d, k, q):
    def check(stdout, stats):
        rows = json.loads(stdout)
        keys = {json.dumps(r["entries"]) for r in rows}
        expected = q_binomial(d, k, q)
        if len(rows) != expected or len(keys) != len(rows):
            return [f"{len(rows)} neighbors ({len(keys)} distinct), expected {expected}"]
        return []

    return check


def witness_problems(witness) -> list[str]:
    det = witness.det()
    if set(det.coeffs) != {0}:
        return [f"witness determinant {det} is not a nonzero constant"]
    return []


def reduction_check(label):
    def check(result, stats):
        _, got, witness = result
        if got != label:
            return [f"reduced to {got}, drawn label {label}"]
        return witness_problems(witness)

    return check


def reduce_cli_check(label):
    def check(stdout, stats):
        obj = json.loads(stdout)
        if tuple(obj["label"]) != label:
            return [f"reduced to {obj['label']}, drawn label {label}"]
        return witness_problems(laurent.LaurentMatrix.from_literal(obj["witness"]))

    return check


def orbit_check(label, q, k):
    """Orbit sizes sum to [d choose k]_q, each orbit reduces to one domain
    label, and the orbits biject onto the in-domain neighbors."""
    d = len(label)

    def check(orbits, stats):
        problems = []
        if sum(len(o) for o in orbits) != q_binomial(d, k, q):
            problems.append(f"orbit sizes {[len(o) for o in orbits]} do not sum to [d choose k]_q")
        reduced = []
        for orbit in orbits:
            labels = {domain.reduce_to_domain(v)[0] for v in orbit}
            if len(labels) != 1:
                problems.append(f"an orbit reduces to several labels {sorted(labels)}")
            reduced.extend(labels)
        if sorted(reduced) != sorted(domain.neighbors_in_domain(label, k)):
            problems.append("orbits do not biject onto the in-domain neighbors")
        return problems

    return check


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def _domain_label(rng, d, n1):
    inner = sorted((rng.randint(0, n1) for _ in range(d - 2)), reverse=True)
    return tuple([n1] + inner + [0])


def _write_literal(workdir, name, matrix) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix.to_literal(), fh)
    return path


def quotient_d3(seed, workdir, pins):
    rng = random.Random(seed)
    jobs = [
        cli_job(pins, "domain --d 3 --q 2 --max-n 48 --format json", graph_json_check(3, 2, 48)),
        cli_job(pins, "domain --d 3 --q 3 --max-n 48 --format dot", graph_dot_check(3, 3, 48)),
        cli_job(pins, "eigenvector --d 3 --q 2 --lambda1 3/7 --lambda2=-1/2 --max-n 48 --l2 --regression", eigenvector_d3_check),
        cli_job(pins, "eigenvector --d 2 --q 2 --lambda1 3 --max-n 200", eigenvector_d2_check(3, 2, 200)),
        cli_job(pins, "covolume --d 3 --q 3 --max-n 40", covolume_check(3, 3, 40)),
        cli_job(pins, "covolume --d 12 --q 2 --max-n 4", covolume_check(12, 2, 4)),
    ]
    for q in (2, 3):
        jobs.append(
            cli_job(
                pins,
                f"hecke-check --d 3 --q {q} --max-n 24",
                hecke_check_check(3, q),
                extra_args=("--seed", str(rng.randrange(10**9))),
            )
        )
    return jobs


def quotient_d4(seed, workdir, pins):
    # The inputs are fixed, so the seed changes nothing here.  d = 4, q = 3
    # keeps its missing edges visible: that output is not pinned, and its
    # row sums skip the vertices the missing edges touch.
    jobs = [
        cli_job(pins, "domain --d 4 --q 2 --max-n 2 --format json", graph_json_check(4, 2, 2, edges=16)),
        cli_job(pins, "domain --d 4 --q 3 --max-n 1 --format json", graph_json_check(4, 3, 1, edges=4)),
    ]
    return jobs


LATTICE_GRID = [(d, q, deg) for d in (3, 4) for q in (2, 3) for deg in (3, 6)]
LATTICE_MAX_N1 = 12
LATTICE_REPEATS = 3
LATTICE_PRECISION = 4


def lattice_reduce(seed, workdir, pins):
    """Every (d, q, deg, n_1) cell of the grid gets LATTICE_REPEATS drawn
    vertices, so the seed changes the matrices but not the mix of sizes.
    Jobs run in grid order: the order stays the same for every seed."""
    rng = random.Random(seed)
    jobs = []
    for _ in range(LATTICE_REPEATS):
        for d, q, deg in LATTICE_GRID:
            for n1 in range(LATTICE_MAX_N1 + 1):
                label = _domain_label(rng, d, n1)
                m = (
                    laurent.random_gamma(d, q, deg, rng)
                    * laurent.LaurentMatrix.diagonal(label, q)
                    * laurent.random_k(d, q, LATTICE_PRECISION, rng)
                )
                jobs.append(Job(f"reduce d={d} q={q} deg={deg} {label}", _reduce_job(m),
                                reduction_check(label), sample=True))
    for d in (3, 4):
        for q in (2, 3):
            label = _domain_label(rng, d, rng.randint(1, LATTICE_MAX_N1))
            m = laurent.random_gamma(d, q, 3, rng) * laurent.LaurentMatrix.diagonal(label, q)
            path = _write_literal(workdir, f"reduce-d{d}-q{q}.json", m)
            jobs.append(cli_job(pins, f"reduce --matrix {path}", reduce_cli_check(label)))
    return jobs


def _reduce_job(m):
    def run():
        vertex = building.vertex_normal_form(m)
        label, witness = domain.reduce_to_domain(vertex)
        return vertex, label, witness

    return run


def building_walk(seed, workdir, pins):
    rng = random.Random(seed)
    jobs = [
        cli_job(pins, "distance --n 3,1,0 --m 0,0,0 --q 2 --radius 4", distance_check(4)),
        cli_job(pins, "distance --n 2,1,0 --m 0,0,0 --q 3 --radius 3", distance_check(3)),
        cli_job(pins, "distance --n 1,1,0,0 --m 0,0,0,0 --q 2 --radius 2", distance_check(2)),
    ]
    for label, q, k in (((1, 1, 0), 3, 1), ((2, 1, 0), 2, 1)):
        jobs.append(
            Job(
                f"orbit_decomposition {label} q={q} k={k}",
                lambda label=label, q=q, k=k: domain.orbit_decomposition(label, q, k),
                orbit_check(label, q, k),
            )
        )
    for i in range(4):
        label = _domain_label(rng, 4, rng.randint(0, 2))
        m = laurent.random_gamma(4, 2, 2, rng) * laurent.LaurentMatrix.diagonal(label, 2)
        path = _write_literal(workdir, f"neighbors-{i}.json", m)
        jobs.append(cli_job(pins, f"neighbors --matrix {path} --degree 2", neighbors_check(4, 2, 2)))
    return jobs


WORKLOADS = {
    "quotient-d3": quotient_d3,
    "quotient-d4": quotient_d4,
    "lattice-reduce": lattice_reduce,
    "building-walk": building_walk,
}
