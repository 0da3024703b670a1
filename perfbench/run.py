#!/usr/bin/env python3
"""The isobound benchmark: one command, four workloads.

    python3 perfbench/run.py --workload corpus_verify --seed 1 --seconds 25 --trace 0

Each workload is a closed loop in this one process (the jobs=2 corpus
workload adds two pool workers). A run sets up several times (import
isobound, build the inputs) and reports the median, then repeats whole
passes over its inputs while another pass still fits in --seconds, then
checks every output outside the timed region. With --trace 1 it runs one
untraced and one traced pass over the same inputs and reports the
per-layer split instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 1 when any graph failed.
Without --workload the command runs every workload in turn, each in its own
process. --small runs the same code on a few graphs.
"""

import argparse
import contextlib
import importlib
import io
import json
import mmap
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "tests", "data", "connected_upto8.g6")
OUT_DIR = os.path.join(ROOT, ".bench_out")

import calibrate  # noqa: E402
import gate  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("corpus_verify", "corpus_verify_j2", "ir_sparse", "iota_geometric")
JOBS = {"corpus_verify": 1, "corpus_verify_j2": 2}
END_TO_END = {
    "setup_s": "s",
    "graphs_per_s": "graphs/s",
    "graph_p50_ms": "ms",
    "graph_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}
SETUP_REPEATS = 5
SPIN_REPEATS = 5
SMALL_CORPUS_LINES = 200
SMALL_GRAPHS = 8


def spin_ms():
    """A fixed pure-Python loop; its time tracks the host's speed."""
    start = time.perf_counter()
    x = 0
    for i in range(200_000):
        x = (x + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


def import_isobound():
    """Import isobound afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "isobound" or m.startswith("isobound.")]:
        del sys.modules[name]
    importlib.import_module("isobound")
    return importlib.import_module("isobound.cli")


def quantiles(samples):
    """Median and 90th percentile, as statistics.quantiles gives them."""
    if len(samples) < 2:
        return samples[0], samples[0]
    deciles = statistics.quantiles(samples, n=10)
    return statistics.median(samples), deciles[8]


@dataclass
class Pass:
    """One pass over the inputs: wall seconds, per-graph wall latencies and
    the calibration factor that applied to each graph, and the gate's count."""

    wall: float
    graphs: int
    latencies: list
    factors: list
    failed: int
    messages: list

    def calibrated_wall(self):
        """Wall time scaled by the latency-weighted calibration factor."""
        raw = sum(self.latencies)
        scaled = sum(t * f for t, f in zip(self.latencies, self.factors))
        return self.wall * scaled / raw if raw else self.wall


# ---------------------------------------------------------------------------
# corpus workloads
# ---------------------------------------------------------------------------


class GraphClock:
    """Times and calibrates every harness.check_graph call, in whichever
    process makes it.

    Forked pool workers inherit the patched binding, probe the host on their
    own, and write into shared memory indexed by the graph's input position.
    """

    def __init__(self, lines):
        self.index = {line: i for i, line in enumerate(lines)}
        # anonymous shared mappings: forked workers write, the parent reads
        self.latencies = memoryview(mmap.mmap(-1, 8 * len(lines))).cast("d")
        self.factors = memoryview(mmap.mmap(-1, 8 * len(lines))).cast("d")

    def __enter__(self):
        self.harness = importlib.import_module("isobound.harness")
        self.original = fn = self.harness.check_graph
        index, latencies, factors = self.index, self.latencies, self.factors
        clock, tick = time.perf_counter, calibrate.Calibrator().tick
        for i in range(len(latencies)):
            latencies[i] = -1.0

        def timed(g6, *args, **kwargs):
            before = tick()
            start = clock()
            try:
                return fn(g6, *args, **kwargs)
            finally:
                i = index[g6.strip()]
                latencies[i] = clock() - start
                factors[i] = (before + tick()) / 2

        self.harness.check_graph = timed
        return self

    def __exit__(self, *exc):
        self.harness.check_graph = self.original
        return False

    def samples(self):
        got = self.latencies.tolist()
        if min(got) < 0:
            raise RuntimeError("check_graph was not timed for every graph")
        return got, self.factors.tolist()


class CorpusWorkload:
    def __init__(self, name, seed, small, tmp):
        self.jobs = JOBS[name]
        with open(CORPUS) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        self.path = CORPUS
        if small:
            lines = lines[:SMALL_CORPUS_LINES]
            self.path = os.path.join(tmp, "corpus_small.g6")
            with open(self.path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        self.lines = lines
        self.reference = gate.corpus_reference(len(lines) if small else None)
        self.json_path = os.path.join(tmp, "report.json")
        self.csv_path = os.path.join(tmp, "records.csv")

    def setup(self):
        self.cli = import_isobound()

    def run_pass(self, tracer=None):
        argv = ["verify", "--g6", self.path, "--jobs", str(self.jobs),
                "--json", self.json_path, "--csv", self.csv_path]
        for path in (self.json_path, self.csv_path):
            if os.path.exists(path):
                os.remove(path)  # a pass that writes nothing must not pass the gate
        # the traced pass has its own check_graph spans instead
        clock = GraphClock(self.lines) if tracer is None else contextlib.nullcontext()
        with clock, tracer or contextlib.nullcontext():
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.cli.main(argv)
            except Exception as exc:  # a crash fails the whole pass
                code = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        latencies, factors = clock.samples() if tracer is None and code == 0 else ([], [])
        failed, messages = gate.check_corpus_pass(
            code, _read(self.json_path), _read(self.csv_path), self.reference
        )
        return Pass(wall, len(self.lines), latencies, factors, failed, messages)


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


# ---------------------------------------------------------------------------
# solver workloads
# ---------------------------------------------------------------------------


def solve_ir(solvers, g):
    return solvers.ir(g)


def solve_iota(solvers, g):
    """gamma, then iota_k for the k range check_graph uses."""
    out = [(1, solvers.gamma(g))]
    for k in range(2, g.max_degree() + 2):
        out.append((k, solvers.iota(g, k)))
    return out


SOLVE = {"ir_sparse": solve_ir, "iota_geometric": solve_iota}


class SolverWorkload:
    def __init__(self, name, seed, small, tmp):
        make = inputs.sparse_graphs if name == "ir_sparse" else inputs.geometric_graphs
        spec = inputs.IR_SPARSE if name == "ir_sparse" else inputs.IOTA_GEOMETRIC
        self.edge_lists = make(seed, SMALL_GRAPHS if small else spec["graphs"])
        self.solve = SOLVE[name]
        self.check = gate.check_ir if name == "ir_sparse" else gate.check_iota
        self.reference = gate.solver_reference(name, seed)

    def setup(self):
        import_isobound()
        self.solvers = importlib.import_module("isobound.solvers")
        self.graph_type = importlib.import_module("isobound.graph").Graph
        return self.build()

    def build(self):
        return [self.graph_type(n, edges) for n, edges in self.edge_lists]

    def run_pass(self, tracer=None):
        graphs = self.build()  # fresh objects, so nothing carries over between passes
        results = []
        latencies = []
        factors = []
        clock, tick = time.perf_counter, calibrate.Calibrator().tick
        solve = self.solve
        solvers = self.solvers
        with tracer or contextlib.nullcontext():
            start = clock()
            for i, g in enumerate(graphs):
                if tracer is not None:
                    tracer.graph = i
                before = tick()
                t0 = clock()
                try:
                    out = solve(solvers, g)
                except Exception as exc:  # counted as a failed graph below
                    out = exc
                latencies.append(clock() - t0)
                factors.append((before + tick()) / 2)
                results.append(out)
            wall = clock() - start
        failed = 0
        messages = []
        for i, (g, out) in enumerate(zip(graphs, results)):
            ref = self.reference[i] if self.reference is not None else None
            problems = self.check(g, out, ref)
            if problems:
                failed += 1
                messages.extend(f"graph {i}: {p}" for p in problems[: gate.MAX_MESSAGES])
        return Pass(wall, len(graphs), latencies, factors, failed, messages[: gate.MAX_MESSAGES])


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def measure(args):
    """Set up SETUP_REPEATS times, then run the passes; returns the passes,
    the calibrated set-up samples (wall, factor), the traced pass's tracer
    (or None), the host probe samples and the peak RSS of this process and
    of its largest child, in MiB."""
    spin = [spin_ms() for _ in range(SPIN_REPEATS)]
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        kind = CorpusWorkload if args.workload in JOBS else SolverWorkload
        workload = kind(args.workload, args.seed, args.small, tmp)
        setups = []
        setup_cal = calibrate.Calibrator()
        for _ in range(SETUP_REPEATS):
            setup_cal.tick(force=True)
            start = time.perf_counter()
            workload.setup()
            wall = time.perf_counter() - start
            setups.append((wall, setup_cal.tick(force=True)))
        passes = []
        tracer = None
        if args.trace:
            passes.append(workload.run_pass())
            tracer = spans.Tracer()
            passes.append(workload.run_pass(tracer=tracer))
        else:
            elapsed = 0.0
            while True:
                done = workload.run_pass()
                passes.append(done)
                elapsed += done.wall
                if elapsed + done.wall > args.seconds:
                    break
        spin += [spin_ms() for _ in range(SPIN_REPEATS)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    peaks = [resource.getrusage(who).ru_maxrss / 1024
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return passes, setups, tracer, spin, peaks


def end_to_end(passes, setups, peak_mib, info):
    """Calibrated end-to-end metrics; the raw wall-clock ones go to info."""
    graphs = sum(p.graphs for p in passes)
    raw = [t for p in passes for t in p.latencies]
    scaled = [t * f for p in passes for t, f in zip(p.latencies, p.factors)]
    p50, p90 = quantiles(scaled) if scaled else (0.0, 0.0)
    raw_p50, raw_p90 = quantiles(raw) if raw else (0.0, 0.0)
    info["latency_samples"] = len(raw)
    info["wall"] = {
        "setup_s": statistics.median(wall for wall, _ in setups),
        "graphs_per_s": graphs / sum(p.wall for p in passes),
        "graph_p50_ms": raw_p50 * 1e3,
        "graph_p90_ms": raw_p90 * 1e3,
    }
    info["calibration_factor"] = sum(scaled) / sum(raw) if raw else 1.0
    return {
        "setup_s": statistics.median(wall * f for wall, f in setups),
        "graphs_per_s": graphs / sum(p.calibrated_wall() for p in passes),
        "graph_p50_ms": p50 * 1e3,
        "graph_p90_ms": p90 * 1e3,
        "peak_rss_mib": peak_mib,
    }


def per_layer(args, passes, tracer, spin_median, info):
    """Per-layer metrics of the traced pass; writes its spans to OUT_DIR."""
    untraced, traced = passes
    values, self_s = tracer.metrics(traced.wall)
    values["trace.overhead_ratio"] = traced.wall / untraced.wall
    values["host.spin_ms"] = spin_median
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    tracer.write(stem + ".spans")
    with open(stem + ".layers.json", "w") as fh:
        json.dump({"traced_wall_s": traced.wall, "self_s": self_s}, fh, indent=1)
    info["spans"] = len(tracer.names)
    return values


def run_workload(args):
    run_start = time.perf_counter()
    passes, setups, tracer, spin, (peak_mib, worker_mib) = measure(args)
    attempted = sum(p.graphs for p in passes)
    failed = sum(p.failed for p in passes)
    messages = [m for p in passes for m in p.messages][: gate.MAX_MESSAGES]
    spin_q = statistics.quantiles(spin, n=4)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "small": args.small,
        "passes": len(passes),
        "graphs": attempted,
        "fail_ratio": failed / attempted,
        "setup_wall_s": [wall for wall, _ in setups],
        "host.spin_ms": {"q1": spin_q[0], "q2": spin_q[1], "q3": spin_q[2], "unit": "ms"},
    }
    if JOBS.get(args.workload, 1) > 1:
        info["worker_peak_rss_mib"] = worker_mib
    if args.trace:
        values = per_layer(args, passes, tracer, spin_q[1], info)
        units = {m["name"]: m["unit"] for m in spans.per_layer_declaration()}
    else:
        values = end_to_end(passes, setups, peak_mib, info)
        units = END_TO_END
    info["run_wall_s"] = time.perf_counter() - run_start

    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    print(f"fail_ratio {info['fail_ratio']} ratio ({failed}/{attempted})")
    for msg in messages:
        print(f"FAILED {msg}")
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload in its own process; nonzero if any of them failed."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--small"] if args.small else [])
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload; all of them in turn when omitted")
    parser.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="a few graphs, same code path")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "isobound")) or not os.path.isfile(CORPUS):
        print(f"error: no isobound checkout around {HERE}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, SRC)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
