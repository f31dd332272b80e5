#!/usr/bin/env python3
"""Closed-loop benchmark of btq: one process, one client, no threads.

    python3 bench/run.py --workload quotient-d3 --seed 1 --seconds 20 --trace 0

Builds the workload's job list from the seed, then runs the whole list
pass after pass, in this process, for about --seconds seconds; a pass
starts only while it is expected to end inside the window, and at least
one pass runs.  Every output is checked after its pass, outside the timed
region.  While a pass runs, a fixed reference computation is timed every
quarter second, so a pass's time can also be given in units of it
(wall_ref), which cancels most of the drift of a shared machine.  Set-up
time is measured on fresh processes that stop where the first timed job
would start, and given in units of a shorter reference that they sample
while they set up.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.
--trace 1 runs the same untraced passes, then one traced pass, and reports
the per-layer metrics; its untraced passes are the baseline of the
tracing overhead.  Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Each run also appends a record to --out, which compare.py reads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import tracer as tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
# reference() takes about 0.05 s; an untraced pass runs it every
# REFERENCE_EVERY_S seconds of wall time, from a SIGALRM handler.
REFERENCE_ITERATIONS = 5_000
REFERENCE_EVERY_S = 0.25
# Set-up is timed on at least SETUP_MIN_REPEATS fresh processes and for at
# least SETUP_MIN_SECONDS.  A shorter reference is sampled just before each
# process starts and every SETUP_PROBE_EVERY_S while it sets up; setup_s is
# the set-up time in units of that reference, times SETUP_REFERENCE_S,
# which is what the short reference takes on a 2-core x86-64 machine under
# Python 3.11.
SETUP_MIN_REPEATS = 7
SETUP_MIN_SECONDS = 4.0
SETUP_PROBE_EVERY_S = 0.05
SETUP_PROBE_ITERATIONS = 1_000
SETUP_REFERENCE_S = 0.01
# neighbors_in_domain calls made by build_graph(3, 2, 48): 1225 nodes + 3528 edges.
NEIGHBORS_IN_DOMAIN_CALLS = 4753

# Public functions traced with a span, and what each span records from the
# result; counted-only functions and methods are the hottest arithmetic.
SPAN_FUNCTIONS = [
    ("laurent", "series_inverse", None),
    ("building", "vertex_normal_form", None),
    ("building", "neighbors", len),
    ("building", "bfs_distance", None),
    ("building", "bfs_color1_distance", None),
    ("domain", "enumerate_domain", None),
    ("domain", "neighbors_in_domain", None),
    ("domain", "stabilizer_order", None),
    ("domain", "stabilizer_enumerate", len),
    ("domain", "edge_stabilizer_brute", int),
    ("domain", "orbit_decomposition", None),
    ("domain", "reduce_to_domain", None),
    ("quotient", "build_graph", lambda g: (len(g.nodes), len(g.edges), len(g.missing_closed_forms))),
    ("quotient", "classify_edge_d3", None),
    ("quotient", "export", len),
    ("hecke", "apply_hecke", None),
    ("hecke", "commutator_check", None),
    ("hecke", "adjointness_residual", None),
    ("hecke", "eigenvector_d3", None),
    ("hecke", "eigenvector_d2", None),
    ("hecke", "closed_form_regression", None),
    ("hecke", "l2_partial_norm", None),
    ("hecke", "covolume", None),
    ("hecke", "covolume_partial", None),
    ("cli", "main", None),
]
SPAN_METHODS = [("laurent", "LaurentMatrix", m) for m in ("__mul__", "det", "adjugate")]
COUNTED_FUNCTIONS = [("gf", "check_prime"), ("gf", "inv_mod"), ("domain", "stabilizer_degree_pattern_ok")]
COUNTED_METHODS = [("laurent", "LaurentPoly", m) for m in ("__init__", "__mul__", "__add__", "__sub__")] + [
    ("laurent", "LaurentMatrix", m) for m in ("__init__", "__hash__")
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=os.path.join(BENCH, "out", "results.jsonl"),
                   help="JSON-lines file this run appends its record to")
    p.add_argument("--setup-only", action="store_true",
                   help="stop where the first timed job would start (set-up timing)")
    return p.parse_args(argv)


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_pass(jobs, tracer=None):
    """Run every job once.

    Returns (seconds inside jobs, [(output, error)], per-job seconds,
    reference times).  An untraced pass samples `reference()` while its
    jobs run; the time spent sampling is taken out of the job timings.  A
    traced pass samples nothing.
    """
    gc.collect()
    outputs, spans = [], []
    probe = SpeedProbe() if tracer is None else None
    with probe or contextlib.nullcontext():
        for job_id, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = job_id
            t0 = perf_counter()
            try:
                outputs.append((job.run(), None))
            except (Exception, SystemExit):
                outputs.append((None, traceback.format_exc(limit=-3)))
            spans.append((t0, perf_counter()))
    intervals = probe.intervals if probe else []
    latencies = [b - a - tracing.covered_length(intervals, a, b) for a, b in spans]
    refs = (probe.times or [reference()]) if probe else []
    return sum(latencies), outputs, latencies, refs


def check_pass(jobs, outputs, stats, failures):
    for job, (out, error) in zip(jobs, outputs):
        if error is None:
            try:
                problems = job.check(out, stats)
            except Exception:
                problems = [f"check raised {traceback.format_exc(limit=-2)}"]
        else:
            problems = [f"job raised {error}"]
        if problems:
            failures.append((job.name, problems))


def reference(iterations=REFERENCE_ITERATIONS) -> float:
    """Seconds taken by a fixed pure-Python computation that does not use btq.

    It multiplies small sparse polynomials stored as {exponent: residue}
    dicts, the same kind of interpreter work as btq's Laurent arithmetic,
    and measures how fast the machine runs Python at that moment.
    """
    start = perf_counter()
    acc = {0: 1}
    for i in range(iterations):
        factor = {(i * 7) % 13: i % 7 + 1, (i * 3) % 11: 3, -(i % 5): 2}
        out = {}
        for e1, c1 in factor.items():
            for e2, c2 in acc.items():
                c = (out.get(e1 + e2, 0) + c1 * c2) % 7
                if c:
                    out[e1 + e2] = c
                else:
                    out.pop(e1 + e2, None)
        acc = dict(sorted(out.items())[:6]) or {0: 1}
    return perf_counter() - start


class SpeedProbe:
    """Runs `reference(iterations)` every `every` seconds from SIGALRM.

    Records each run's duration and the wall-time interval it occupied,
    so callers can take that interval out of their own timings.
    """

    def __init__(self, every=REFERENCE_EVERY_S, iterations=REFERENCE_ITERATIONS):
        self.every, self.iterations = every, iterations
        self.times, self.intervals = [], []
        self._busy = False

    def sample(self, signum=None, frame=None):
        if self._busy:  # an alarm that lands inside a sample is dropped
            return
        self._busy = True
        start = perf_counter()
        self.times.append(reference(self.iterations))
        self.intervals.append((start, perf_counter()))
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Window:
    """Untraced passes for the measuring window, with their checks.

    A pass's time in reference units is its job time divided by the mean
    time of the `reference()` runs sampled while it ran.  Both see the
    same momentary machine speed, so the ratio drifts far less than either.
    """

    def __init__(self, jobs, seconds):
        self.walls, self.ref_units, self.samples, self.failures = [], [], [], []
        self.reference_s = []
        self.stats = {}
        start = perf_counter()
        while True:
            stats = {"missing_edges": 0, "rowsum_skipped_vertices": 0}
            pass_start = perf_counter()
            wall, outputs, latencies, refs = run_pass(jobs)
            pass_time = perf_counter() - pass_start
            check_pass(jobs, outputs, stats, self.failures)
            del outputs
            self.stats = stats
            self.walls.append(wall)
            self.ref_units.append(wall / statistics.mean(refs))
            self.reference_s += refs
            self.samples += [t for job, t in zip(jobs, latencies) if job.sample]
            if perf_counter() - start + pass_time > seconds:
                break
        self.attempted = len(self.walls) * len(jobs)


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Set-up of fresh processes that import btq, build the inputs and stop.

    Returns each process's wall time less its reference samples, and that
    time in units of the mean of the reference sampled just before it
    started and while it ran.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    seconds, ref_units = [], []
    start = perf_counter()
    while len(seconds) < SETUP_MIN_REPEATS or perf_counter() - start < SETUP_MIN_SECONDS:
        before = reference(SETUP_PROBE_ITERATIONS)
        t0 = perf_counter()
        # No timeout: with one, the wait polls and rounds up to 50 ms steps.
        child = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        wall = perf_counter() - t0
        probe = json.loads(child.stdout.splitlines()[-1])
        seconds.append(wall - probe["probe_s"])
        ref_units.append(seconds[-1] / statistics.mean([before] + probe["reference_s"]))
    return seconds, ref_units


def set_up_only(args, workdir) -> int:
    """Set up as a timed run would, sampling the short reference meanwhile,
    and print the time spent in the samples and their durations."""
    with SpeedProbe(SETUP_PROBE_EVERY_S, SETUP_PROBE_ITERATIONS) as probe:
        set_up(args, workdir)
    probe.sample()  # a set-up shorter than one period still gets a sample
    print(json.dumps({"probe_s": sum(b - a for a, b in probe.intervals), "reference_s": probe.times}))
    return 0


def percentile(values, p):
    """Inclusive-method percentile, as statistics.quantiles computes it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def install_tracer(tracer):
    for module, attr, extra in SPAN_FUNCTIONS:
        tracer.function(module, attr, extra=extra)
    for module, attr in COUNTED_FUNCTIONS:
        tracer.function(module, attr, count_only=True)
    for module, cls, attr in SPAN_METHODS:
        tracer.method(module, cls, attr)
    for module, cls, attr in COUNTED_METHODS:
        tracer.method(module, cls, attr, count_only=True)


def layer_metrics(tracer, agg) -> dict[str, float]:
    m: dict[str, float] = {}
    for module, attr in COUNTED_FUNCTIONS:
        m[f"{module}.{attr}.calls"] = tracer.counts[f"{module}.{attr}"]
    for module, cls, attr in COUNTED_METHODS:
        m[f"{module}.{cls}.{attr}.calls"] = tracer.counts[f"{module}.{cls}.{attr}"]
    names = [f"{mod}.{attr}" for mod, attr, _ in SPAN_FUNCTIONS]
    names += [f"{mod}.{cls}.{attr}" for mod, cls, attr in SPAN_METHODS]
    for name in names:
        m[f"{name}.calls"] = agg.calls[name]
        m[f"{name}.self_s"] = agg.self_s[name]
        m[f"{name}.total_s"] = agg.total_s[name]

    def ratio(a, b):
        return a / b if b else 0.0

    nf = "building.vertex_normal_form"
    m[f"{nf}.us_per_call"] = ratio(agg.total_s[nf], agg.calls[nf]) * 1e6
    m["building.certificate_attempts_per_nf"] = ratio(agg.calls["laurent.LaurentMatrix.adjugate"], agg.calls[nf])
    m["building.neighbors.vertices"] = agg.extra["building.neighbors"]
    m["domain.stabilizer_enumerate.elements"] = agg.extra["domain.stabilizer_enumerate"]
    graphs = [v for (name, _), v in agg.extra_by_job.items() if name == "quotient.build_graph"]
    nodes, edges, missing = (sum(col) for col in zip(*graphs)) if graphs else (0, 0, 0)
    m["quotient.build_graph.nodes"] = nodes
    m["quotient.build_graph.edges"] = edges
    m["quotient.build_graph.missing_edges"] = missing
    m["quotient.export.bytes"] = agg.extra["quotient.export"]
    m["domain.neighbors_in_domain.useful_ratio"] = ratio(nodes, agg.calls["domain.neighbors_in_domain"])
    m["domain.edge_stabilizer_brute.kept_ratio"] = ratio(
        agg.extra["domain.edge_stabilizer_brute"],
        agg.child_extra["domain.edge_stabilizer_brute", "domain.stabilizer_enumerate"],
    )
    return m


def tracer_self_checks(workload, jobs, agg):
    """Checks of the tracer on the traced pass: (failures, notes).

    On quotient-d3 the domain job must make exactly NEIGHBORS_IN_DOMAIN_CALLS
    neighbors_in_domain calls, which is nodes + edges of build_graph(3, 2, 48):
    one call per vertex in build_graph and one per edge in classify_edge_d3,
    through two different namespaces.  A change to build_graph that alters
    that call structure on purpose updates the expected count, as a change
    to an output updates pins.json.
    """
    failures, notes = [], []
    if workload == "quotient-d3":
        name = "domain --d 3 --q 2 --max-n 48 --format json"
        job = next(i for i, j in enumerate(jobs) if j.name == name)
        calls = agg.calls_by_job["domain.neighbors_in_domain", job]
        nodes, edges, _ = agg.extra_by_job.get(("quotient.build_graph", job), (0, 0, 0))
        line = (f"{calls} neighbors_in_domain calls in build_graph(3, 2, 48) with {nodes} nodes "
                f"+ {edges} edges ({NEIGHBORS_IN_DOMAIN_CALLS} expected)")
        if calls == nodes + edges == NEIGHBORS_IN_DOMAIN_CALLS:
            notes.append(f"count cross-check holds: {line}")
        else:
            failures.append(("tracer", [f"count cross-check fails: {line}"]))
    if workload == "lattice-reduce":
        sampled = sum(1 for j in jobs if j.sample)
        if agg.calls["building.vertex_normal_form"] < sampled:
            failures.append(("tracer", [f"{agg.calls['building.vertex_normal_form']} normal forms "
                                        f"traced for {sampled} jobs"]))
    failures += [("tracer", [p]) for p in tracing.synthetic_self_check()]
    return failures, notes


def unit_of(name: str) -> str:
    if name.endswith("_ref"):
        return "ref"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("ratio", "per_nf")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def set_up(args, workdir):
    """Everything before the first timed job: import btq from src/ and build
    the workload's jobs.  Returns (BENCHMARK.json, jobs)."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import btq
    import workloads

    if os.path.dirname(os.path.abspath(btq.__file__)) != os.path.join(SRC, "btq"):
        sys.exit(f"bench: imported btq from {btq.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    return spec, workloads.WORKLOADS[args.workload](args.seed, workdir, workloads.load_pins())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "btq", "__init__.py")):
        sys.exit(f"bench: no btq sources at {SRC}")
    workdir = os.path.join(BENCH, "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_only:
            return set_up_only(args, workdir)
        spec, jobs = set_up(args, workdir)
        return measure(args, spec, jobs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(args, window):
    setups, setup_units = measure_setup(args)
    metrics = {
        "wall_ref": statistics.median(window.ref_units),
        "wall_s": statistics.median(window.walls),
        "setup_s": statistics.median(setup_units) * SETUP_REFERENCE_S,
        "setup_wall_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"wall_ref, wall_s: median of {len(window.walls)} passes; {len(window.reference_s)} "
        f"reference() runs took {min(window.reference_s):.4f}-{max(window.reference_s):.4f} s",
        f"setup_s, setup_wall_s: median of {len(setups)} fresh processes; setup_s in units of "
        f"the short reference times {SETUP_REFERENCE_S} s",
    ]
    samples = window.samples
    if samples:
        # Only lattice-reduce has homogeneous jobs; these are not in
        # BENCHMARK.json, which needs every metric on every workload.
        metrics["job_p50_ms"] = statistics.median(samples) * 1e3
        metrics["job_p90_ms"] = percentile(samples, 90) * 1e3
        notes.append(f"job_p50_ms, job_p90_ms: over {len(samples)} job latencies")
    return metrics, notes, {"pass_walls": window.walls, "reference_s": window.reference_s,
                            "setup_runs": setups, "setup_ref_units": setup_units}


def per_layer(args, jobs, window, failures):
    """One traced pass; returns its metrics and appends its check failures."""
    tracer = tracing.Tracer()
    install_tracer(tracer)
    try:
        traced_wall, outputs, _, _ = run_pass(jobs, tracer)
    finally:
        tracer.remove()
    check_pass(jobs, outputs, {"missing_edges": 0, "rowsum_skipped_vertices": 0}, failures)
    cli_bytes = sum(len(out.stdout) for out, _ in outputs if hasattr(out, "stdout"))
    del outputs
    spans_path = os.path.join(os.path.dirname(os.path.abspath(args.out)),
                              f"spans-{args.workload}-s{args.seed}.jsonl")
    tracing.write_spans(spans_path, tracer.spans, [job.name for job in jobs])
    agg = tracing.Aggregate(tracer.spans)
    check_failures, check_notes = tracer_self_checks(args.workload, jobs, agg)
    failures += check_failures

    untraced = statistics.median(window.walls)
    metrics = layer_metrics(tracer, agg)
    metrics["cli.stdout_bytes"] = cli_bytes
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.traced_pass_s"] = traced_wall
    metrics["trace.untraced_pass_s"] = untraced
    metrics["trace.overhead_ratio"] = traced_wall / untraced
    notes = check_notes + [
        f"spans written to {spans_path}",
        f"per-layer metrics from one traced pass; tracing overhead "
        f"{traced_wall / untraced:.3f}x the untraced median of {len(window.walls)} passes",
    ]
    return metrics, notes, {"pass_walls": window.walls}


def measure(args, spec, jobs) -> int:
    window = Window(jobs, args.seconds)
    failures = list(window.failures)
    attempted = window.attempted
    if args.trace == 0:
        metrics, notes, detail = end_to_end(args, window)
        selected = spec["end_to_end"]
    else:
        metrics, notes, detail = per_layer(args, jobs, window, failures)
        attempted += len(jobs)
        selected = spec["per_layer"]
    failed = len(failures)
    units = {m["name"]: m["unit"] for m in selected}
    commit = git_commit()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"python {platform.python_version()} nproc {os.cpu_count()} commit {commit}")
    print(f"{len(jobs)} jobs per pass; attempted {attempted} failed {failed} "
          f"error_rate {failed / attempted!r}")
    print(f"checks (last untraced pass): {window.stats['missing_edges']} edges without ratios, "
          f"{window.stats['rowsum_skipped_vertices']} interior vertices skipped in row sums")
    for line in notes:
        print(line)
    for name, problems in failures[:20]:
        print(f"FAIL {name}: {'; '.join(problems)[:500]}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units.get(name) or unit_of(name)}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": commit,
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "jobs_per_pass": len(jobs), "checks": window.stats, "notes": notes, **detail,
        "metrics": {k: {"value": v, "unit": units.get(k) or unit_of(k)} for k, v in metrics.items()},
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in selected},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
