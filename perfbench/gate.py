"""Correctness gates. They run outside the timed region.

Every gate returns the number of failed graphs plus a few messages, and the
benchmark reports failed / attempted as its fail ratio. The references were
recorded by record_reference.py at the commit that introduced the benchmark.
"""

import gzip
import json
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
DEFAULT_SEED = 1
MAX_MESSAGES = 5


def reference_path(name):
    return os.path.join(REFERENCE_DIR, name)


# ---------------------------------------------------------------------------
# corpus verify
# ---------------------------------------------------------------------------


def corpus_reference(line_count=None):
    """Expected CSV rows and JSON bytes for the first line_count corpus graphs
    (all of them when None)."""
    with gzip.open(reference_path("corpus_records.csv.gz"), "rb") as fh:
        rows = fh.read().splitlines(keepends=True)
    name = "corpus_report.json" if line_count is None else f"corpus_report_first{line_count}.json"
    with open(reference_path(name), "rb") as fh:
        report = fh.read()
    if line_count is not None:
        rows = rows[: line_count + 1]
    return {"header": rows[0], "rows": rows[1:], "json": report}


def check_corpus_pass(exit_code, json_bytes, csv_bytes, reference):
    """Failed graph count and messages for one `verify` pass.

    A graph fails when its CSV row differs from the reference row at its
    position or reports failures. Every graph of the pass fails when the exit
    code is not 0, the JSON differs or the header differs, since those cover
    the whole report.
    """
    expected = reference["rows"]
    messages = []
    if exit_code != 0:
        messages.append(f"verify exited with {exit_code!r}")
    if json_bytes != reference["json"]:
        messages.append("JSON report differs from the reference")
    lines = csv_bytes.splitlines(keepends=True)
    if not lines or lines[0] != reference["header"]:
        messages.append("CSV header differs from the reference")
    if messages:
        return len(expected), messages
    got = lines[1:]
    failed = 0
    for pos in range(max(len(got), len(expected))):
        row = got[pos] if pos < len(got) else None
        want = expected[pos] if pos < len(expected) else None
        bad = row != want or failure_count(row) != 0
        if bad:
            failed += 1
            if len(messages) < MAX_MESSAGES:
                messages.append(f"CSV row {pos + 1}: got {_text(row)}, want {_text(want)}")
    return failed, messages


def failure_count(row):
    """The last field of a CSV row as an int, or None if there is none."""
    if row is None:
        return None
    try:
        return int(row.rstrip(b"\r\n").rsplit(b",", 1)[1])
    except (IndexError, ValueError):
        return None


def _text(row):
    return "nothing" if row is None else row.decode(errors="replace").rstrip("\r\n")


# ---------------------------------------------------------------------------
# solver workloads
# ---------------------------------------------------------------------------


def solver_reference(workload, seed):
    """Recorded values and witnesses for the default seed, else None."""
    if seed != DEFAULT_SEED:
        return None
    with open(reference_path(f"{workload}_seed{seed}.json")) as fh:
        return json.load(fh)


def summarize_ir(result):
    return [result.value, list(result.witness)]


def summarize_iota(results):
    return [[k, r.value, list(r.witness)] for k, r in results]


def check_ir(g, result, ref=None):
    """Problems with one ir result: a raised call, a witness that is not
    maximal irredundant or not of the reported size, or a reference mismatch."""
    from isobound.predicates import is_maximal_irredundant

    if isinstance(result, BaseException):
        return [f"raised {type(result).__name__}: {result}"]
    problems = []
    if len(result.witness) != result.value:
        problems.append(f"ir={result.value} but the witness has {len(result.witness)} vertices")
    if not is_maximal_irredundant(g, result.witness):
        problems.append(f"ir witness {list(result.witness)} is not maximal irredundant")
    if ref is not None and summarize_ir(result) != ref:
        problems.append(f"ir result {summarize_ir(result)} != reference {ref}")
    return problems


def check_iota(g, results, ref=None):
    """Problems with gamma (k=1) and iota_k results for one graph: a raised
    call, a witness failing its predicate or size, a packing lower bound
    above the value, a missing k, or a reference mismatch."""
    from isobound.predicates import is_dominating, is_k_isolating
    from isobound.solvers import iota_lower_bound

    if isinstance(results, BaseException):
        return [f"raised {type(results).__name__}: {results}"]
    problems = []
    ks = [k for k, _ in results]
    if ks != list(range(1, g.max_degree() + 2)):
        problems.append(f"solved k={ks}, expected 1..{g.max_degree() + 1}")
    for k, r in results:
        if len(r.witness) != r.value:
            problems.append(f"k={k}: value {r.value} but the witness has {len(r.witness)} vertices")
        ok = is_dominating(g, r.witness) if k == 1 else is_k_isolating(g, r.witness, k)
        if not ok:
            problems.append(f"k={k}: witness {list(r.witness)} fails its predicate")
        lower = iota_lower_bound(g, k)[0]
        if lower > r.value:
            problems.append(f"k={k}: packing lower bound {lower} exceeds value {r.value}")
    if ref is not None and summarize_iota(results) != ref:
        problems.append(f"results {summarize_iota(results)} != reference {ref}")
    return problems
