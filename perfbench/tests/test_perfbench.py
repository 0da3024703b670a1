"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Runs of the command use --small (the same code path on a few graphs) in a
separate process, because a run re-imports isobound.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

from isobound import cli, solvers  # noqa: E402
from isobound.graph import Graph  # noqa: E402
from isobound.solvers import SolveResult  # noqa: E402

COUNTS = ("calls", "explored", "cliques", "distinct_ratio")


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_small(workload, trace, seed=1, extra=()):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--small", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
    return proc, json.loads(proc.stdout.splitlines()[-1])


def test_declaration_matches_the_command():
    bench = bench_json()
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert bench["per_layer"] == spans.per_layer_declaration()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_small_mode_prints_every_end_to_end_metric(workload):
    proc, result = run_small(workload, trace=0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = proc.stdout.splitlines()
    for metric in bench_json()["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
        assert any(
            line.startswith(metric["name"] + " ") and line.endswith(" " + metric["unit"])
            for line in printed
        )
    assert len(result["metrics"]) == len(bench_json()["end_to_end"])
    assert any(line.startswith("fail_ratio 0.0 ") for line in printed)


@pytest.mark.parametrize("workload", ["corpus_verify", "ir_sparse", "iota_geometric"])
def test_traced_counts_repeat_exactly(workload):
    first_proc, first = run_small(workload, trace=1, seed=3)
    second_proc, second = run_small(workload, trace=1, seed=3)
    assert first_proc.returncode == 0 and second_proc.returncode == 0
    declared = {m["name"]: m["unit"] for m in bench_json()["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    counts = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(COUNTS)}
    again = {k: v["value"] for k, v in second["metrics"].items() if k.endswith(COUNTS)}
    assert counts == again
    assert sum(counts.values()) > 0


def test_traced_split_matches_the_workload():
    _, corpus = run_small("corpus_verify", trace=1)
    m = {k: v["value"] for k, v in corpus["metrics"].items()}
    machinery = sum(
        v for k, v in m.items()
        if k.endswith(".self_pct") and k.startswith(("partition.", "constructive.", "predicates.is_maximal"))
    )
    solver = sum(m[f"solvers.{s}.self_pct"] for s in ("ir", "gamma", "iota"))
    assert machinery > solver
    _, ir = run_small("ir_sparse", trace=1)
    m = {k: v["value"] for k, v in ir["metrics"].items()}
    assert m["solvers.ir.calls"] == run.SMALL_GRAPHS
    assert m["graph.enumerate_k_cliques.calls"] == 0
    assert m["solvers.ir.self_pct"] > 50
    _, iota = run_small("iota_geometric", trace=1)
    m = {k: v["value"] for k, v in iota["metrics"].items()}
    solver = m["solvers.gamma.self_pct"] + m["solvers.iota.self_pct"]
    assert 10 * m["graph.enumerate_k_cliques.self_pct"] < solver


def test_calibrated_wall_scales_by_the_latency_weighted_factor():
    done = run.Pass(10.0, 2, [1.0, 3.0], [0.5, 1.0], 0, [])
    assert done.calibrated_wall() == pytest.approx(10.0 * (0.5 * 1.0 + 1.0 * 3.0) / 4.0)


def test_calibrator_keeps_a_window_of_probes():
    cal = calibrate.Calibrator()
    for _ in range(calibrate.WINDOW + 2):
        factor = cal.tick(force=True)
    assert len(cal.recent) == calibrate.WINDOW
    assert factor == calibrate.REFERENCE_PROBE_S / sorted(cal.recent)[calibrate.WINDOW // 2]


# ---------------------------------------------------------------------------
# perturbed references count as failures
# ---------------------------------------------------------------------------


def solver_workload(name):
    wl = run.SolverWorkload(name, gate.DEFAULT_SEED, True, None)
    wl.solvers = solvers
    wl.graph_type = Graph
    return wl


def test_reference_run_passes():
    for name in ("ir_sparse", "iota_geometric"):
        done = solver_workload(name).run_pass()
        assert done.failed == 0 and done.graphs == run.SMALL_GRAPHS, done.messages


def test_wrong_value_in_reference_fails_the_graph():
    wl = solver_workload("ir_sparse")
    wl.reference = [list(r) for r in wl.reference]
    wl.reference[2] = [wl.reference[2][0] + 1, wl.reference[2][1]]
    done = wl.run_pass()
    assert done.failed == 1
    assert "reference" in done.messages[0]


def test_non_maximal_witness_fails_the_graph():
    wl = solver_workload("ir_sparse")

    def truncated(solvers_module, g):
        r = solvers_module.ir(g)
        return SolveResult(r.value - 1, r.witness[:-1], r.explored)

    wl.solve = truncated
    wl.reference = None
    done = wl.run_pass()
    assert done.failed == run.SMALL_GRAPHS
    assert any("not maximal irredundant" in m for m in done.messages)


def test_non_isolating_witness_fails_the_graph():
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    good = [(1, solvers.gamma(g)), (2, solvers.iota(g, 2)), (3, solvers.iota(g, 3)),
            (4, solvers.iota(g, 4))]
    assert gate.check_iota(g, good) == []
    bad = list(good)
    bad[2] = (3, SolveResult(0, (), 0))
    problems = gate.check_iota(g, bad)
    assert any("fails its predicate" in p for p in problems)


def corpus_workload(tmp_path):
    wl = run.CorpusWorkload("corpus_verify", 1, True, str(tmp_path))
    wl.cli = cli
    return wl


def test_altered_csv_row_fails_that_graph(tmp_path):
    wl = corpus_workload(tmp_path)
    assert wl.run_pass().failed == 0
    rows = list(wl.reference["rows"])
    rows[7] = rows[7].replace(b",0\r\n", b",1\r\n")
    wl.reference = dict(wl.reference, rows=rows)
    done = wl.run_pass()
    assert done.failed == 1
    assert done.messages[0].startswith("CSV row 8:")


def test_altered_json_fails_every_graph(tmp_path):
    wl = corpus_workload(tmp_path)
    wl.reference = dict(wl.reference, json=wl.reference["json"].replace(b"1", b"2", 1))
    done = wl.run_pass()
    assert done.failed == done.graphs == run.SMALL_CORPUS_LINES


def test_failed_graph_makes_the_command_fail():
    # the same command, with the reference of one graph perturbed in memory
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gate, run\n"
        "real = gate.solver_reference\n"
        "def wrong(name, seed):\n"
        "    ref = real(name, seed)\n"
        "    ref[0] = [ref[0][0] + 1, ref[0][1]]\n"
        "    return ref\n"
        "gate.solver_reference = wrong\n"
        "sys.exit(run.main(['--workload', 'ir_sparse', '--seed', '1', '--seconds', '0.1',"
        " '--trace', '0', '--small']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, BENCH], capture_output=True,
                          text=True, timeout=170, check=False)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ir_sparse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
