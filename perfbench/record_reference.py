#!/usr/bin/env python3
"""Record the outputs the benchmark's correctness gate compares against.

    python3 perfbench/record_reference.py

Writes perfbench/reference/: the corpus verify CSV (gzipped) and JSON, the
JSON for the first SMALL_CORPUS_LINES corpus graphs, and the value and
lex-least witness of every solver result for the default seed. Run it only
at a commit whose reports are trusted; it refuses to record any output that
fails its own checks.
"""

import contextlib
import gzip
import io
import json
import os
import shutil
import sys

import gate
import inputs
import run


def verify(lines_path, tmp):
    from isobound import cli

    json_path = os.path.join(tmp, "report.json")
    csv_path = os.path.join(tmp, "records.csv")
    argv = ["verify", "--g6", lines_path, "--jobs", "1", "--json", json_path, "--csv", csv_path]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"verify over {lines_path} exited with {code}")
    with open(json_path, "rb") as fh, open(csv_path, "rb") as fc:
        return fh.read(), fc.read()


def main():
    sys.path.insert(0, run.SRC)
    from isobound.graph import Graph
    from isobound import solvers

    os.makedirs(gate.REFERENCE_DIR, exist_ok=True)
    tmp = os.path.join(run.OUT_DIR, "record-reference")
    os.makedirs(tmp, exist_ok=True)
    try:
        report, records = verify(run.CORPUS, tmp)
        rows = records.splitlines(keepends=True)
        if any(gate.failure_count(row) != 0 for row in rows[1:]):
            raise SystemExit("the corpus verify reports failures; not recording")
        with open(gate.reference_path("corpus_report.json"), "wb") as fh:
            fh.write(report)
        with open(gate.reference_path("corpus_records.csv.gz"), "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                fh.write(records)

        with open(run.CORPUS) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()][: run.SMALL_CORPUS_LINES]
        small_path = os.path.join(tmp, "corpus_small.g6")
        with open(small_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        small_report, small_records = verify(small_path, tmp)
        if small_records.splitlines(keepends=True) != rows[: len(lines) + 1]:
            raise SystemExit("the small corpus rows differ from the full run's rows")
        name = f"corpus_report_first{len(lines)}.json"
        with open(gate.reference_path(name), "wb") as fh:
            fh.write(small_report)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    seed = gate.DEFAULT_SEED
    for workload, make, spec, check, summarize in (
        ("ir_sparse", inputs.sparse_graphs, inputs.IR_SPARSE, gate.check_ir, gate.summarize_ir),
        ("iota_geometric", inputs.geometric_graphs, inputs.IOTA_GEOMETRIC, gate.check_iota,
         gate.summarize_iota),
    ):
        summary = []
        for i, (n, edges) in enumerate(make(seed, spec["graphs"])):
            g = Graph(n, edges)
            out = run.SOLVE[workload](solvers, g)
            problems = check(g, out)
            if problems:
                raise SystemExit(f"{workload} graph {i}: {problems}")
            summary.append(summarize(out))
        with open(gate.reference_path(f"{workload}_seed{seed}.json"), "w") as fh:
            json.dump(summary, fh, separators=(",", ":"))
            fh.write("\n")


if __name__ == "__main__":
    main()
