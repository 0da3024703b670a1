"""Acceptance gate.

Each test prints one criterion line so a run shows exactly which
guarantees held. The heavy shared pass runs the full check suite over the
committed corpus of all 12113 connected graphs on up to 8 vertices.
"""

import collections
import os
from fractions import Fraction

import pytest

from isobound.harness import certify_family, verify_stream, write_csv, write_json

CORPUS = os.path.join(os.path.dirname(__file__), "data", "connected_upto8.g6")
ORDER_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

THEOREM_CHECKS = (
    "gamma_lt_2ir",
    "iota_le_ir_at_delta",
    "iota_le_ir_above_delta",
    "ratio_bound_below_delta",
    "three_halves_two_below",
    "delta3_gamma_3_2",
    "tree_strict_3_2",
    "cactus_8_5",
    "clawfree_3_2",
    "iota_monotone",
    "iota1_is_gamma",
)

MACHINERY_CHECKS = (
    "witnesses_min",
    "delta_regime_min",
    "pairs_min",
    "twins_min",
    "witnesses_spot",
    "delta_regime_spot",
    "pairs_spot",
    "twins_spot",
    "machinery_clean",
)


def _tally(report, names):
    evaluated = passed = 0
    for name in names:
        slot = report.aggregate["checks"].get(name)
        if slot:
            evaluated += slot["evaluated"]
            passed += slot["passed"]
    return evaluated, passed


@pytest.fixture(scope="module")
def corpus():
    with open(CORPUS) as fh:
        return [ln.strip() for ln in fh if ln.strip()]


def _streamed_run(corpus, jobs, out_dir):
    """verify over the corpus with its CSV streamed to out_dir; returns the
    report, the graph count by order and the JSON and CSV bytes."""
    by_order = collections.Counter()
    with write_csv(str(out_dir / "records.csv")) as write_row:

        def sink(rec):
            by_order[rec["n"]] += 1
            write_row(rec)

        report = verify_stream(corpus, jobs=jobs, sink=sink)
    write_json(report, str(out_dir / "report.json"))
    blobs = ((out_dir / "report.json").read_bytes(), (out_dir / "records.csv").read_bytes())
    return report, dict(by_order), blobs


@pytest.fixture(scope="module")
def pooled_run(corpus, tmp_path_factory):
    # at least two workers, so criterion 6 can hold it against a jobs=1 run
    jobs = max(2, min(8, os.cpu_count() or 1))
    return _streamed_run(corpus, jobs, tmp_path_factory.mktemp("pooled"))


@pytest.fixture(scope="module")
def full_report(pooled_run):
    return pooled_run[0]


def test_criterion_1_exhaustive_theorem_suite(corpus, full_report, pooled_run):
    by_order = pooled_run[1]
    assert by_order == ORDER_COUNTS, "corpus does not cover every connected graph"
    evaluated, passed = _tally(full_report, THEOREM_CHECKS)
    theorem_failures = [
        msg
        for msg in full_report.hard_failures
        if "construct" not in msg and "machinery" not in msg and "roundtrip" not in msg
    ]
    line = (
        f"criterion 1: {'PASS' if passed == evaluated and not theorem_failures else 'FAIL'} "
        f"theorem suite over {sum(by_order.values())} graphs, "
        f"{passed}/{evaluated} checks, {len(theorem_failures)} violations"
    )
    print(line)
    assert passed == evaluated and not theorem_failures, line


def test_criterion_2_constructive_pipeline(full_report):
    names = [k for k in full_report.aggregate["checks"] if k.startswith("construct_k")]
    evaluated, passed = _tally(full_report, names)
    construct_failures = [m for m in full_report.hard_failures if "construct" in m or " k=" in m]
    line = (
        f"criterion 2: {'PASS' if passed == evaluated and not construct_failures else 'FAIL'} "
        f"constructive pipeline, {passed}/{evaluated} builds certified, "
        f"{len(construct_failures)} failures"
    )
    print(line)
    assert evaluated > 0
    assert passed == evaluated and not construct_failures, line


def test_criterion_3_family_exactness():
    expectations = []
    for t in (1, 2, 3):
        for k in (1, 2, 3, 4):
            expectations.append(("G1", {"t": t, "k": k}, {"ir": t, "iota": t}))
    for t in (1, 2):
        for k in (2, 3):
            expectations.append(("G2", {"t": t, "k": k}, {"ir": 2 * t, "iota": 2 * t}))
    for k in (1, 2):
        for t in (1, 2):
            expectations.append(("Dkt", {"k": k, "t": t}, {"ir": 2 * t, "iota": 3 * t}))
    for c in (2, 3):
        expectations.append(("subcubicH", {"c": c}, {"gamma": 3 * c, "ir": 2 * c}))
    expectations.append(("fivethirds", {}, {"gamma": 10, "ir": 6}))

    problems = []
    for name, params, want in expectations:
        row, failures = certify_family(name, params)
        problems.extend(failures)
        for key, val in want.items():
            if row.get(key) != val or row.get(f"{key}_certification") != "solver":
                problems.append(f"{name}{params}: {key}={row.get(key)} wanted {val} (solver)")
    ratio = Fraction(10, 6)
    if ratio != Fraction(5, 3):
        problems.append("five-thirds ratio drifted")
    line = (
        f"criterion 3: {'PASS' if not problems else 'FAIL'} "
        f"{len(expectations)} family instances solver-verified, {len(problems)} problems"
    )
    print(line)
    assert not problems, line


def test_criterion_4_large_family_certificates():
    problems = []
    row, failures = certify_family("Gkl", {"k": 6, "l": 3})
    problems.extend(failures)
    if not (row.get("iota_lower") == row.get("iota_upper") == row.get("iota") == 12):
        problems.append(f"Gkl(6,3) iota not pinned at 12: {row}")
    if row.get("iota_certification") != "witness+packing":
        problems.append("Gkl(6,3) iota certification label wrong")
    if row.get("ir") != 9 or row.get("ir_certification") != "witness-upper+asserted-lower":
        problems.append(f"Gkl(6,3) ir not upper-bound certified at 9: {row}")
    if row.get("delta") != 7:
        problems.append("Gkl(6,3) degree audit failed")

    row, failures = certify_family("Hksl", {"k": 8, "s": 6})
    problems.extend(failures)
    if not (row.get("iota_lower") == row.get("iota_upper") == row.get("iota") == 38):
        problems.append(f"H(8,6,7) iota not pinned at 38: {row}")
    if row.get("iota_certification") != "witness+packing":
        problems.append("H(8,6,7) iota certification label wrong")
    if row.get("ir") != 30 or row.get("ir_certification") != "witness-upper+asserted-lower":
        problems.append(f"H(8,6,7) ir not upper-bound certified at 30: {row}")
    if row.get("delta") != 9:
        problems.append("H(8,6,7) degree audit failed")

    line = (
        f"criterion 4: {'PASS' if not problems else 'FAIL'} "
        f"large-family certificates, {len(problems)} problems"
    )
    print(line)
    assert not problems, line


def test_criterion_5_machinery_property_suite(full_report):
    evaluated, passed = _tally(full_report, MACHINERY_CHECKS)
    machinery_failures = [m for m in full_report.hard_failures if "machinery" in m or "witness" in m]
    line = (
        f"criterion 5: {'PASS' if passed == evaluated and not machinery_failures else 'FAIL'} "
        f"machinery suite, {passed}/{evaluated} checks, {len(machinery_failures)} failures"
    )
    print(line)
    assert evaluated > 0
    assert passed == evaluated and not machinery_failures, line


def test_criterion_6_codec_and_determinism(corpus, full_report, pooled_run, tmp_path):
    slot = full_report.aggregate["checks"].get("roundtrip", {"evaluated": 0, "passed": 0})
    codec_ok = slot["evaluated"] == len(corpus) and slot["passed"] == slot["evaluated"]

    blobs = {"single": _streamed_run(corpus, 1, tmp_path)[2], "pooled": pooled_run[2]}
    deterministic = blobs["single"] == blobs["pooled"]

    line = (
        f"criterion 6: {'PASS' if codec_ok and deterministic else 'FAIL'} "
        f"codec round-trip {slot['passed']}/{slot['evaluated']}, "
        f"jobs=1 vs pooled byte-identical: {deterministic}"
    )
    print(line)
    assert codec_ok and deterministic, line
