import csv
import errno
import gc
import io
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from isobound import (
    Graph,
    build_isolating_set,
    check_graph,
    compute_partition,
    conjecture_survey,
    verify_stream,
)
from isobound import (
    MachineryError, ParameterError, cli, constructive, harness, partition, refine_pairs, solvers
)
from isobound.cli import main
from isobound.constructive import applicable_ks
from isobound.harness import (
    certify_family,
    random_maximal_irredundant,
    write_csv,
    write_json,
)
from isobound.predicates import is_irredundant, is_maximal_irredundant, is_minimum_dominating
from isobound.graph import RECORD_CAP, bits, encode_graph6, parse_graph6
from isobound.solvers import SolveResult, gamma, ir

import random
import zlib

import oracles


def greedy_maximal_irredundant(g, rng):
    """Reference: the greedy that retests the whole set for every candidate
    and repeats passes until one adds nothing."""
    smask = 0
    order = list(range(g.n))
    rng.shuffle(order)
    grown = True
    while grown:
        grown = False
        for v in order:
            if smask >> v & 1:
                continue
            if is_irredundant(g, bits(smask | (1 << v))):
                smask |= 1 << v
                grown = True
    return tuple(bits(smask))


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestCheckGraph:
    def test_path_clean(self):
        rec = check_graph("DQc")
        assert rec["n"] == 5
        assert rec["failures"] == []
        assert all(rec["checks"].values())
        assert rec["iota"][1] == rec["gamma"]

    def test_empty_graph_record(self):
        # no ir, no spot set, and only the k = 1 certificate at Delta = 0
        rec = check_graph("?")
        assert list(rec["checks"]) == [
            "roundtrip", "iota1_is_gamma", "iota_monotone",
            "construct_k1", "witnesses_min", "machinery_clean",
        ]
        assert all(rec["checks"].values()) and rec["failures"] == []
        assert rec["iota"] == {1: 0}

    def test_failure_lines_use_the_stripped_record(self, monkeypatch):
        monkeypatch.setattr(constructive, "is_k_isolating_mask", lambda *args: False)
        rec = check_graph("@\n")
        assert rec["graph6"] == "@"
        assert rec["failures"]
        for line in rec["failures"]:
            assert "\n" not in line
            assert line.startswith("@ ")

    def test_applicable_ks(self):
        assert applicable_ks(0) == [1]
        assert applicable_ks(1) == [1, 2]
        assert applicable_ks(2) == [1, 2, 3]
        assert applicable_ks(3) == [1, 2, 3, 4]
        assert applicable_ks(5) == [3, 4, 5, 6]

    def test_random_maximal_irredundant_is_valid(self, corpus_by_order):
        rng = random.Random(12)
        for line, g in corpus_by_order[7][:60]:
            s = random_maximal_irredundant(g, rng)
            assert is_maximal_irredundant(g, s)
            assert oracles.maximal_irredundant(g, set(s))


    def test_random_maximal_irredundant_matches_reference(self, corpus_by_order):
        for n in range(1, 8):
            for line, g in corpus_by_order[n]:
                seed = zlib.crc32(line.encode())
                rng, ref_rng = random.Random(seed), random.Random(seed)
                got = random_maximal_irredundant(g, rng)
                assert got == greedy_maximal_irredundant(g, ref_rng), line
                assert rng.random() == ref_rng.random()

    def test_each_set_partitioned_once(self, corpus_by_order, monkeypatch):
        calls = []
        real = compute_partition

        def counting(g, i):
            calls.append(tuple(i))
            return real(g, i)

        # the certificates take the partition, so the harness's calls are all
        monkeypatch.setattr(harness, "compute_partition", counting)
        for line, g in corpus_by_order[6][:40] + corpus_by_order[7][:40]:
            calls.clear()
            rec = check_graph(line)
            assert rec["failures"] == []
            assert 1 <= len(calls) <= 2
            assert len(set(calls)) == len(calls)

    def test_records_share_their_key_objects(self, corpus_by_order):
        # check names made from a number or a tag come from module tables
        # and the iota keys are small ints, which the interpreter shares: one
        # object per key across records, so pickle sends it once per chunk
        seen = {}
        for line, _ in corpus_by_order[6][:40]:
            rec = check_graph(line)
            for key in itertools.chain(rec["checks"], rec["iota"]):
                assert seen.setdefault(key, key) is key, key
        assert {"construct_k4", "twins_spot", "witnesses_spot", 4} <= seen.keys()

    def test_random_graphs_past_the_corpus(self):
        # seeded G(n, p), n = 9..12: the ir witness, the spot set and every
        # applicable k, where the exhaustive corpus stops
        for seed in range(40):
            rng = random.Random(seed)
            n = 9 + seed % 4
            p = (0.2, 0.3, 0.45, 0.6)[seed // 4 % 4]
            edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
            g = Graph(n, edges)
            rec = check_graph(encode_graph6(g))
            assert rec["failures"] == [], rec["failures"]
            assert rec["checks"]["machinery_clean"] is True
            assert rec["checks"]["witnesses_min"] and rec["checks"]["witnesses_spot"]
            for k in applicable_ks(g.max_degree()):
                assert rec["checks"][f"construct_k{k}"] is True

    def test_a_raised_ir_cap_reaches_every_construct_key(self, monkeypatch):
        # the star K1,33 has k up to Delta + 1 = 34, past the ir cap of 32;
        # the key table is sized by the codec's cap, not by ir's
        monkeypatch.setattr(solvers, "IR_ORDER_CAP", 34)
        rec = check_graph(encode_graph6(Graph(34, [(0, v) for v in range(1, 34)])))
        assert rec["failures"] == []
        assert rec["checks"]["machinery_clean"] is True
        assert rec["checks"]["construct_k34"] is True



class TestWitnessRecheck:
    # the minimum set {0, 1} leaves 5 undominated, with x = 0 and the one
    # nonadjacent pair (2, 3) of PN(0) = {2, 3}, both covered by y = 1
    G6 = "Fsoro"

    @pytest.mark.parametrize(
        "change,problem",
        [
            ({"x": 5}, "undominated 5: x=5 is not in b with PN(x) inside N(u)"),
            ({"pairs": ((2, 2, 1, 1),)}, "undominated 5: (2, 2) is not a nonadjacent pair in PN(0)"),
            ({"pairs": ((2, 3, 0, 1),)}, "undominated 5: y=0 does not cover pair vertex 2"),
        ],
    )
    def test_a_wrong_witness_fails(self, monkeypatch, change, problem):
        real = harness.undominated_witnesses
        g = parse_graph6(self.G6)
        assert real(g, compute_partition(g, (0, 1))) == (
            partition.UndominatedWitness(u=5, x=0, pairs=((2, 3, 1, 1),)),
        )
        monkeypatch.setattr(
            harness, "undominated_witnesses",
            lambda g, part: tuple(w._replace(**change) for w in real(g, part)),
        )
        rec = check_graph(self.G6)
        assert rec["checks"]["witnesses_min"] is False
        assert f"{self.G6} min: {problem}" in rec["failures"]

    # DqG's minimum set (0, 1) leaves vertex 4 undominated, so it has one
    # witness to drop
    @pytest.mark.parametrize(
        "name, fake, problem",
        [
            ("undominated_witnesses", lambda real: lambda g, part: real(g, part)[:-1],
             "witness count mismatch"),
            ("representatives_dominate", lambda real: lambda g, part: False,
             "representatives fail to dominate member privates"),
        ],
        ids=["count", "representatives"],
    )
    def test_a_failed_summary_check_fails(self, monkeypatch, name, fake, problem):
        g = parse_graph6("DqG")
        assert harness.undominated_witnesses(g, compute_partition(g, (0, 1)))
        monkeypatch.setattr(harness, name, fake(getattr(harness, name)))
        rec = check_graph("DqG")
        assert rec["checks"]["witnesses_min"] is False
        assert f"DqG min: {problem}" in rec["failures"]

@st.composite
def random_graphs(draw):
    """G(n, p) with n = 9..14, past the exhaustive corpus."""
    n = draw(st.integers(9, 14))
    p = draw(st.sampled_from((0.15, 0.25, 0.4, 0.6)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(random_graphs())
def test_machinery_fuzz_past_the_corpus(g):
    # check_graph runs the ir witness and a seeded random maximal
    # irredundant set (the spot set) through every applicable k
    g6 = encode_graph6(g)
    rec = check_graph(g6)
    assert rec["failures"] == [], rec["failures"]
    assert rec["checks"]["machinery_clean"] is True
    for k in applicable_ks(g.max_degree()):
        assert rec["checks"][f"construct_k{k}"] is True
    if g.max_degree() >= 2:
        # how often the defect s of the k = Delta-1 refinement reaches 1,
        # which no corpus set does (--hypothesis-show-statistics)
        spot = random_maximal_irredundant(g, random.Random(zlib.crc32(g6.encode())))
        s = max(refine_pairs(g, compute_partition(g, iset)).s_param for iset in (ir(g).witness, spot))
        event("s >= 1" if s else "s = 0")


def _breaking_invariants(real):
    """_exact_invariants with gamma = 5 (empty witness), ir = 1 and
    iota_k = 4 + k: every theorem inequality that applies fails. ir keeps
    its real witness, so the machinery stages still run."""

    def fake(g, top):
        _gam, irr, _iotas = real(g, top)
        iotas = {k: 4 + k for k in range(1, top + 1)}
        return SolveResult(5, (), 0), SolveResult(1, irr.witness, 0), iotas

    return fake


THEOREM_FAILURES = {
    # spider with legs 3, 3, 4: a tree, so a cactus, with delta 3 and n = 11,
    # above the gamma recheck order
    "Jh_GK?@?G?_": [
        ("iota_monotone", "iota not monotone in k: {1: 5, 2: 6, 3: 7, 4: 8}"),
        ("gamma_lt_2ir", "gamma=5 not < 2*ir=2"),
        ("iota_le_ir_at_delta", "iota(3)=7 > ir=1"),
        ("iota_le_ir_above_delta", "iota(4) > ir"),
        ("ratio_bound_below_delta", "iota(2)=6 breaks the (3d-4)/(2d-2) bound"),
        ("three_halves_two_below", "iota(1) breaks the 3/2 bound"),
        ("delta3_gamma_3_2", "gamma breaks the 3/2 bound at delta 3"),
        ("tree_strict_3_2", "tree gamma not < 3/2 ir"),
        ("cactus_8_5", "cactus gamma not < 8/5 ir"),
    ],
    # a triangle and a 4-cycle sharing a vertex, plus a pendant: a cactus
    "FxCgO": [
        ("iota1_is_gamma", "gamma=5 witness [] is not a minimum dominating set"),
        ("iota_monotone", "iota not monotone in k: {1: 5, 2: 6, 3: 7, 4: 8, 5: 9}"),
        ("gamma_lt_2ir", "gamma=5 not < 2*ir=2"),
        ("iota_le_ir_at_delta", "iota(4)=8 > ir=1"),
        ("iota_le_ir_above_delta", "iota(5) > ir"),
        ("ratio_bound_below_delta", "iota(3)=7 breaks the (3d-4)/(2d-2) bound"),
        ("three_halves_two_below", "iota(2) breaks the 3/2 bound"),
        ("cactus_8_5", "cactus gamma not < 8/5 ir"),
    ],
    # the octahedron K(2,2,2): claw-free
    "EznW": [
        ("iota1_is_gamma", "gamma=5 witness [] is not a minimum dominating set"),
        ("iota_monotone", "iota not monotone in k: {1: 5, 2: 6, 3: 7, 4: 8, 5: 9}"),
        ("gamma_lt_2ir", "gamma=5 not < 2*ir=2"),
        ("iota_le_ir_at_delta", "iota(4)=8 > ir=1"),
        ("iota_le_ir_above_delta", "iota(5) > ir"),
        ("ratio_bound_below_delta", "iota(3)=7 breaks the (3d-4)/(2d-2) bound"),
        ("three_halves_two_below", "iota(2) breaks the 3/2 bound"),
        ("clawfree_3_2", "claw-free gamma exceeds 3/2 ir"),
    ],
    # the Petersen graph: delta 3, n = 10, in no subclass
    "IheA@GUAo": [
        ("iota1_is_gamma", "gamma=5 witness [] is not a minimum dominating set"),
        ("iota_monotone", "iota not monotone in k: {1: 5, 2: 6, 3: 7, 4: 8}"),
        ("gamma_lt_2ir", "gamma=5 not < 2*ir=2"),
        ("iota_le_ir_at_delta", "iota(3)=7 > ir=1"),
        ("iota_le_ir_above_delta", "iota(4) > ir"),
        ("ratio_bound_below_delta", "iota(2)=6 breaks the (3d-4)/(2d-2) bound"),
        ("three_halves_two_below", "iota(1) breaks the 3/2 bound"),
        ("delta3_gamma_3_2", "gamma breaks the 3/2 bound at delta 3"),
    ],
}


def _invariants_at(real, gamma_value, ir_value):
    """_exact_invariants with the gamma and ir values replaced; the witnesses
    and iota_k stay real, so the machinery stages still run."""

    def fake(g, top):
        gam, irr, iotas = real(g, top)
        return SolveResult(gamma_value, gam.witness, 0), SolveResult(ir_value, irr.witness, 0), iotas

    return fake


# The strict theorem checks at equality: (graph6, check, failure text, gamma
# and ir on the bound, a gamma one below it). The spider is a tree, so a
# cactus; FxCgO is a cactus and not a tree.
STRICT_AT_EQUALITY = [
    ("Jh_GK?@?G?_", "gamma_lt_2ir", "gamma=4 not < 2*ir=4", (4, 2), 3),
    ("Jh_GK?@?G?_", "tree_strict_3_2", "tree gamma not < 3/2 ir", (3, 2), 2),
    ("FxCgO", "cactus_8_5", "cactus gamma not < 8/5 ir", (8, 5), 7),
]


class TestTheoremChecks:
    @pytest.mark.parametrize("g6", sorted(THEOREM_FAILURES))
    def test_every_applicable_check_reports_its_failure(self, g6, monkeypatch):
        monkeypatch.setattr(
            harness, "_exact_invariants", _breaking_invariants(harness._exact_invariants)
        )
        rec = check_graph(g6)
        expected = THEOREM_FAILURES[g6]
        names = list(rec["checks"])
        # the theorem checks come first, after the roundtrip, in this order
        assert names[: len(expected) + 1] == ["roundtrip"] + [name for name, _ in expected]
        assert names[len(expected) + 1].startswith("construct_k")
        assert rec["checks"]["roundtrip"] is True
        assert [rec["checks"][name] for name, _ in expected] == [False] * len(expected)
        assert rec["failures"][: len(expected)] == [f"{g6}: {text}" for _, text in expected]
        assert " construct k=" in rec["failures"][len(expected)]

    def test_roundtrip_compares_the_body(self, monkeypatch):
        assert check_graph(">>graph6<<DQc")["checks"]["roundtrip"] is True
        monkeypatch.setattr(harness, "encode_graph6", lambda g: "DQg")
        rec = check_graph(">>graph6<<DQc")
        assert rec["checks"]["roundtrip"] is False
        assert rec["failures"] == [">>graph6<<DQc roundtrip: re-encoded to DQg"]

    @pytest.mark.parametrize("g6, name, text, on_bound, below", STRICT_AT_EQUALITY)
    def test_strict_check_fails_on_its_bound(self, g6, name, text, on_bound, below, monkeypatch):
        real = harness._exact_invariants
        gamma_value, ir_value = on_bound
        monkeypatch.setattr(harness, "_exact_invariants", _invariants_at(real, gamma_value, ir_value))
        rec = check_graph(g6)
        assert rec["checks"][name] is False
        assert f"{g6}: {text}" in rec["failures"]
        monkeypatch.setattr(harness, "_exact_invariants", _invariants_at(real, below, ir_value))
        assert check_graph(g6)["checks"][name] is True

    def test_certificate_over_its_bound_fails(self, monkeypatch):
        g6 = "Jh_GK?@?G?_"
        g = parse_graph6(g6)
        part = compute_partition(g, ir(g).witness)
        k = g.max_degree()
        size = len(build_isolating_set(g, part, k).t)
        real = constructive.isolation_bound

        def bound_at(ceiling):
            def patched(k_, delta, ir_value, s=None):
                return Fraction(ceiling) if k_ == k else real(k_, delta, ir_value, s)

            return patched

        monkeypatch.setattr(constructive, "isolation_bound", bound_at(size))
        assert build_isolating_set(g, part, k).satisfied is True
        monkeypatch.setattr(constructive, "isolation_bound", bound_at(size - 1))
        cert = build_isolating_set(g, part, k)
        assert len(cert.t) == size and cert.satisfied is False
        rec = check_graph(g6)
        assert rec["checks"][f"construct_k{k}"] is False
        assert f"{g6} construct k={k}: |T|={size} exceeds bound {size - 1}/1" in rec["failures"]

    def test_iota_over_its_certified_bound_fails(self, monkeypatch):
        # the certificates still hold, so only this check fails construct_k:
        # "|T| beats the exact optimum" adds a failure line and nothing else
        real = harness.iota

        def inflated(g, k):
            res = real(g, k)
            return res._replace(value=res.value + 3)

        monkeypatch.setattr(harness, "iota", inflated)
        rec = check_graph("DQc")
        assert [rec["checks"][f"construct_k{k}"] for k in (1, 2, 3)] == [True, False, False]
        for k in (2, 3):
            assert f"DQc k={k}: exact iota exceeds the certified bound" in rec["failures"]


# Corpus graphs whose seeded spot set is their ir witness: the first one,
# and the first with Delta >= 3, where all four regimes build a certificate
SPOT_REPEATS = {
    "@": {
        "roundtrip": True, "iota1_is_gamma": True, "iota_monotone": True,
        "gamma_lt_2ir": True, "tree_strict_3_2": True, "cactus_8_5": True,
        "clawfree_3_2": True, "construct_k1": True, "witnesses_min": True,
        "witnesses_spot": True, "machinery_clean": True,
    },
    "Cs": {
        "roundtrip": True, "iota1_is_gamma": True, "iota_monotone": True,
        "gamma_lt_2ir": True, "iota_le_ir_at_delta": True, "iota_le_ir_above_delta": True,
        "ratio_bound_below_delta": True, "three_halves_two_below": True,
        "delta3_gamma_3_2": True, "tree_strict_3_2": True, "cactus_8_5": True,
        "construct_k1": True, "twins_min": True, "construct_k2": True, "pairs_min": True,
        "construct_k3": True, "delta_regime_min": True, "construct_k4": True,
        "witnesses_min": True, "witnesses_spot": True, "twins_spot": True,
        "pairs_spot": True, "delta_regime_spot": True, "machinery_clean": True,
    },
}


class TestSharedMachinery:
    def test_shared_certificates_equal_fresh_ones(self, corpus_by_order):
        for n in range(1, 7):
            for line, g in corpus_by_order[n]:
                ks = applicable_ks(g.max_degree())
                for iset in oracles.maximal_irredundant_sets(g):
                    fresh = [build_isolating_set(g, compute_partition(g, iset), k) for k in ks]
                    part = compute_partition(g, iset)
                    got = [build_isolating_set(g, part, k) for k in ks]
                    assert got == fresh, (line, iset)
                    # a second pass reads the same partition in the other order
                    again = [build_isolating_set(g, part, k) for k in reversed(ks)]
                    assert again == fresh[::-1], (line, iset)

    @pytest.mark.parametrize("g6", sorted(SPOT_REPEATS))
    def test_spot_repeat_reuses_the_minimum_certificates(self, g6, monkeypatch):
        g = parse_graph6(g6)
        spot = random_maximal_irredundant(g, random.Random(zlib.crc32(g6.encode())))
        assert spot == ir(g).witness
        built = []
        real = harness.build_isolating_set

        def counting(g, part, k):
            built.append((tuple(bits(part.i)), k))
            return real(g, part, k)

        monkeypatch.setattr(harness, "build_isolating_set", counting)
        rec = check_graph(g6)
        ks = applicable_ks(g.max_degree())
        assert built == [(spot, k) for k in ks]
        assert rec["checks"] == SPOT_REPEATS[g6]
        assert list(rec["checks"]) == list(SPOT_REPEATS[g6])
        assert rec["failures"] == []

    @pytest.mark.parametrize("g6", sorted(SPOT_REPEATS))
    def test_spot_repeat_replays_failures(self, g6, monkeypatch):
        monkeypatch.setattr(constructive, "is_k_isolating_mask", lambda *args: False)
        rec = check_graph(g6)
        ks = applicable_ks(parse_graph6(g6).max_degree())
        assert rec["failures"] == [
            f"{g6} {key} k={k}: T is not {k}-isolating" for key in ("construct", "spot") for k in ks
        ]
        want = dict(SPOT_REPEATS[g6], **{f"construct_k{k}": False for k in ks})
        assert rec["checks"] == want
        assert list(rec["checks"]) == list(want)


class TestGammaRecheck:
    def test_solver_result_accepted(self, corpus_by_order):
        for line, g in corpus_by_order[6]:
            assert is_minimum_dominating(g, gamma(g).witness), line

    def test_wrong_results_rejected(self):
        g = path(5)
        assert gamma(g).witness == (0, 3) and is_minimum_dominating(g, (0, 3))
        assert not is_minimum_dominating(g, (0, 2, 4))  # dominates, but two vertices do
        assert not is_minimum_dominating(g, (0, 1))  # does not dominate

    def test_empty_graph(self):
        assert is_minimum_dominating(Graph(0), ())

    def test_value_must_match_the_witness_size(self, monkeypatch):
        # gamma reads 3 with P5's real witness (0, 3), which the re-check
        # accepts: only the size clause of iota1_is_gamma can fail
        g6 = encode_graph6(path(5))
        real = harness._exact_invariants
        monkeypatch.setattr(harness, "_exact_invariants", _invariants_at(real, 3, 2))
        rec = check_graph(g6)
        assert rec["checks"]["iota1_is_gamma"] is False
        assert rec["failures"][0] == f"{g6}: gamma=3 witness [0, 3] is not a minimum dominating set"
        monkeypatch.setattr(harness, "_exact_invariants", _invariants_at(real, 2, 2))
        assert check_graph(g6)["checks"]["iota1_is_gamma"] is True

    def test_evaluated_up_to_the_order_cap(self):
        cap = harness.GAMMA_RECHECK_ORDER_CAP
        at_cap = check_graph(encode_graph6(path(cap)))
        above = check_graph(encode_graph6(path(cap + 1)))
        assert at_cap["checks"]["iota1_is_gamma"] is True
        assert "iota1_is_gamma" not in above["checks"]
        assert at_cap["failures"] == [] and above["failures"] == []


CERTIFY_DEFAULT = os.path.join(os.path.dirname(__file__), "data", "certify_default.json")


class TestCertifyFamily:
    def test_default_report_pinned(self, tmp_path):
        # the `certify --json` report over the default grid, byte for byte
        out = tmp_path / "certify.json"
        write_json(harness.certify_families(), out)
        with open(CERTIFY_DEFAULT, "rb") as fh:
            assert out.read_bytes() == fh.read()

    @pytest.mark.parametrize(
        "params, n, solved",
        [({"t": 8, "k": 4}, 32, {"gamma", "ir", "iota"}), ({"t": 11, "k": 3}, 33, set())],
    )
    def test_one_order_limit_for_every_claim(self, params, n, solved):
        # at IR_ORDER_CAP the solver decides every claim, one vertex above it none
        row, failures = certify_family("G1", params)
        assert failures == [] and row["status"] == "ok" and row["n"] == n
        keys = ("gamma", "ir", "iota")
        assert {key for key in keys if row[f"{key}_certification"] == "solver"} == solved

    @staticmethod
    def _altered(monkeypatch, **changes):
        """Have certify build each instance with the given fields replaced."""
        real = harness.make_instance
        monkeypatch.setattr(
            harness, "make_instance",
            lambda name, params: real(name, params)._replace(**changes),
        )

    def test_gamma_claim_above_its_witness_is_asserted(self, monkeypatch):
        # the dominating witness has 2 vertices, so it cannot pin gamma = 3
        monkeypatch.setattr(harness, "IR_ORDER_CAP", 0)
        self._altered(monkeypatch, claimed_gamma=3)
        row, failures = certify_family("G1", {"t": 2, "k": 2})
        assert row["status"] == "FAIL"
        assert row["gamma_certification"] == "asserted" and "gamma" not in row
        assert failures == ["G1{'t': 2, 'k': 2}: gamma claim not pinned by certificates"]

    def test_ir_claim_without_a_witness_is_asserted(self, monkeypatch):
        monkeypatch.setattr(harness, "IR_ORDER_CAP", 0)
        self._altered(monkeypatch, witness_irredundant=None)
        row, failures = certify_family("G1", {"t": 2, "k": 2})
        assert row["status"] == "FAIL"
        assert row["ir_certification"] == "asserted" and "ir" not in row
        assert failures == ["G1{'t': 2, 'k': 2}: ir claim not pinned by certificates"]

    @pytest.mark.parametrize(
        "changes, failure",
        [
            ({"witness_dominating": (0,)}, "dominating witness fails its predicate"),
            ({"designated_cliques": ((0, 1),)}, "packing bound 1 != claimed 2"),
        ],
    )
    def test_a_failed_certificate_is_a_failure(self, monkeypatch, changes, failure):
        # the solvers still pin every claim, so the certificate is the one failure
        self._altered(monkeypatch, **changes)
        row, failures = certify_family("G1", {"t": 2, "k": 2})
        assert row["status"] == "FAIL"
        assert failures == [f"G1{{'t': 2, 'k': 2}}: {failure}"]

    def test_iota_claim_needs_the_packing_bound(self, monkeypatch):
        monkeypatch.setattr(harness, "IR_ORDER_CAP", 0)
        row, failures = certify_family("G1", {"t": 2, "k": 2})
        assert failures == [] and row["iota_certification"] == "witness+packing"
        self._altered(monkeypatch, designated_cliques=None)
        row, failures = certify_family("G1", {"t": 2, "k": 2})
        assert row["iota_certification"] == "asserted"
        assert failures == ["G1{'t': 2, 'k': 2}: iota claim not pinned by certificates"]


class TestVerifyStream:
    def test_small_corpus_clean(self, corpus_by_order):
        lines = [line for n in (1, 2, 3, 4, 5) for line, _ in corpus_by_order[n]]
        records = []
        report = verify_stream(lines, sink=records.append)
        assert report.hard_failures == []
        assert report.parse_errors == []
        assert len(records) == 31
        assert report.aggregate["graphs"] == 31

    def test_parse_errors_recorded_not_fatal(self, corpus_by_order):
        lines = [corpus_by_order[4][0][0], "??bad??", corpus_by_order[4][1][0]]
        records = []
        report = verify_stream(lines, sink=records.append)
        assert len(records) == 2
        assert len(report.parse_errors) == 1
        assert report.parse_errors[0]["line_number"] == 2
        assert report.hard_failures == []

    @pytest.mark.parametrize("max_n", [None, 8])
    def test_non_ascii_line_is_a_parse_error(self, max_n):
        # "Dq" passes the max_n order check and fails in the body; errors
        # still come out in line order
        records = []
        report = verify_stream(["DQc", "Dq", "B\u00e9", "DQc"], max_n=max_n, sink=records.append)
        assert len(records) == 2
        assert report.parse_errors == [
            {"line_number": 2, "error": "body needs 2 bytes, found 1 (byte offset 2)"},
            {"line_number": 3, "error": "non-ASCII character '\\xe9' (byte offset 1)"},
        ]
        assert report.hard_failures == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_graph_above_ir_cap_is_a_line_error(self, jobs):
        big = encode_graph6(path(harness.IR_ORDER_CAP + 1))
        records = []
        report = verify_stream(["DQc", big, "Dq", "DQc"], jobs=jobs, sink=records.append)
        assert [rec["graph6"] for rec in records] == ["DQc", "DQc"]
        assert report.parse_errors == [
            {"line_number": 2, "error": "ir solve on n=33 exceeds cap 32"},
            {"line_number": 3, "error": "body needs 2 bytes, found 1 (byte offset 2)"},
        ]
        assert report.aggregate["parse_error_count"] == 2
        assert report.hard_failures == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_line_above_the_codec_cap_is_a_line_error(self, jobs):
        # "~?G@" declares 513 vertices, one past what the codec reads
        error = {"line_number": 1, "error": "graph6 order 513 exceeds supported cap 512"}
        records = []
        report = verify_stream(["~?G@", "DQc"], jobs=jobs, sink=records.append)
        assert [rec["graph6"] for rec in records] == ["DQc"]
        assert report.parse_errors == [error]
        assert report.over_cap == {1}
        assert report.hard_failures == []
        out = conjecture_survey(["~?G@", "DQc"], jobs=jobs)
        assert out["graphs"] == 1
        assert out["parse_errors"] == [error]

    def test_rebound_check_graph_reaches_pool_workers(self, monkeypatch):
        real = harness.check_graph

        def marked(g6, *args, **kwargs):
            rec = real(g6, *args, **kwargs)
            rec["failures"].append(f"marked {g6}")
            return rec

        monkeypatch.setattr(harness, "check_graph", marked)
        lines = ["DQc", "Cr", "Bw"]
        report = verify_stream(lines, jobs=2)
        assert report.hard_failures == [f"marked {line}" for line in lines]

    def test_failing_checks_folded_at_any_jobs(self, corpus_by_order, tmp_path, monkeypatch):
        # a seeded third of the lines fail roundtrip, past one chunk of input
        lines = [line for n in (4, 5, 6, 7) for line, _ in corpus_by_order[n]]
        lines = lines[: harness.CHUNK_LINES + 60]
        failing = set(random.Random(24).sample(lines, len(lines) // 3))
        real = harness.check_graph

        def roundtrip_fails(g6, *args, **kwargs):
            rec = real(g6, *args, **kwargs)
            if g6 in failing:
                rec["checks"]["roundtrip"] = False
                rec["failures"].append(f"{g6} roundtrip: failed on purpose")
            return rec

        monkeypatch.setattr(harness, "check_graph", roundtrip_fails)
        outputs = {}
        for jobs in (1, 2):
            report = verify_stream(lines, jobs=jobs)
            checks = report.aggregate["checks"]
            assert checks["roundtrip"] == {
                "evaluated": len(lines), "passed": len(lines) - len(failing)
            }
            assert checks["machinery_clean"] == {"evaluated": len(lines), "passed": len(lines)}
            assert all(c["evaluated"] == c["passed"] > 0 for name, c in checks.items()
                       if name != "roundtrip")
            assert report.hard_failures == [
                f"{g6} roundtrip: failed on purpose" for g6 in lines if g6 in failing
            ]
            json_path = tmp_path / f"j{jobs}.json"
            write_json(report, str(json_path))
            outputs[jobs] = json_path.read_bytes()
        assert outputs[1] == outputs[2]

    @pytest.mark.parametrize("rotation", [0, 1, 2])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_boundaries_at_any_jobs(self, corpus_by_order, tmp_path, offset, rotation):
        # CHUNK_LINES + offset non-empty lines; a parse error, a line above
        # the ir cap and a line skipped by max_n lie on each side of the first
        # chunk boundary, each of them next to it in one rotation
        cap = harness.IR_ORDER_CAP
        unchecked = ["Dq", encode_graph6(path(cap + 1))]
        skip = encode_graph6(path(cap + 2))
        kinds = unchecked + [skip]
        kinds = kinds[rotation:] + kinds[:rotation]
        fill = [line for n in (3, 4, 5) for line, _ in corpus_by_order[n]]
        count = harness.CHUNK_LINES + offset
        lines = [fill[i % len(fill)] for i in range(count)]
        at = harness.CHUNK_LINES
        lines[at - 3:at] = kinds
        lines[at:at + 3] = kinds
        lines = lines[:count]
        # a blank line first, so line numbers are not positions
        lines = [""] + lines
        outputs = {}
        for jobs in (1, 2):
            csv_path = tmp_path / f"j{jobs}.csv"
            json_path = tmp_path / f"j{jobs}.json"
            with write_csv(str(csv_path)) as sink:
                report = verify_stream(lines, jobs=jobs, max_n=cap + 1, sink=sink)
            write_json(report, str(json_path))
            outputs[jobs] = (csv_path.read_bytes(), json_path.read_bytes(), report.over_cap)
        assert outputs[1] == outputs[2]
        report = json.loads(outputs[2][1])
        numbers = [error["line_number"] for error in report["parse_errors"]]
        expected = [i + 1 for i, line in enumerate(lines) if line in unchecked]
        assert numbers == expected
        skipped = lines.count(skip)
        assert report["aggregate"]["skipped_over_max_n"] == skipped
        checked = count - len(expected) - skipped
        assert report["aggregate"]["graphs"] == checked
        assert outputs[2][0].count(b"\n") == checked + 1

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ParameterError):
            verify_stream(["DQc"], jobs=0)

    def test_max_n_skips(self, corpus_by_order):
        lines = [line for n in (3, 4, 5) for line, _ in corpus_by_order[n]]
        records = []
        report = verify_stream(lines, max_n=4, sink=records.append)
        assert report.aggregate["skipped_over_max_n"] == 21
        assert len(records) == 8

    def test_jobs_byte_identical(self, corpus_by_order, tmp_path):
        lines = [line for n in (5, 6) for line, _ in corpus_by_order[n]][:60]
        outputs = {}
        for jobs in (1, 2):
            csv_path = tmp_path / f"j{jobs}.csv"
            json_path = tmp_path / f"j{jobs}.json"
            with write_csv(str(csv_path)) as sink:
                report = verify_stream(lines, jobs=jobs, sink=sink)
            write_json(report, str(json_path))
            outputs[jobs] = (csv_path.read_bytes(), json_path.read_bytes())
        assert outputs[1] == outputs[2]

    def test_spot_check_toggle(self, corpus_by_order):
        lines = [corpus_by_order[6][10][0]]
        with_spot, without = [], []
        verify_stream(lines, spot_check=True, sink=with_spot.append)
        verify_stream(lines, spot_check=False, sink=without.append)
        assert any(k.endswith("_spot") for k in with_spot[0]["checks"])
        assert not any(k.endswith("_spot") for k in without[0]["checks"])


class TestStreaming:
    def test_peak_memory_flat_in_the_input_length(self, corpus_by_order):
        lines = [line for n in range(1, 6) for line, _ in corpus_by_order[n]]
        count = 200

        def peak(lines_run):
            tracemalloc.start()
            try:
                verify_stream(
                    itertools.islice(itertools.cycle(lines), lines_run), spot_check=False
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        verify_stream(lines * 8, spot_check=False)  # fill the interpreter's caches first
        small, large = peak(count), peak(4 * count)
        # A kept record takes about 4 KiB, so keeping them would add about
        # 4 KiB per extra line; allow a quarter of that.
        assert large - small < 3 * count * 1024, (small, large)

    def test_check_graph_leaves_no_reference_cycles(self, corpus_by_order):
        # what a graph's checks allocate is freed as soon as its record is
        # dropped, not at some later cyclic garbage collection
        gc.collect()
        gc.disable()
        try:
            for line, _ in corpus_by_order[6][:30] + corpus_by_order[7][:30]:
                check_graph(line)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_pool_reads_ahead_at_most_the_chunks_in_flight(self):
        pulled = 0

        def source():
            nonlocal pulled
            for _ in range(3000):
                pulled += 1
                yield "DQc"

        class Enough(Exception):
            pass

        at_first_record = []

        def sink(rec):
            at_first_record.append(pulled)
            raise Enough

        with pytest.raises(Enough):
            verify_stream(source(), jobs=2, spot_check=False, sink=sink)
        assert at_first_record == [harness.CHUNKS_PER_JOB * 2 * harness.CHUNK_LINES]
        assert multiprocessing.active_children() == []

    def test_failed_consumer_returns_promptly_and_publishes_no_csv(
        self, corpus_by_order, tmp_path, monkeypatch
    ):
        g6 = tmp_path / "in.g6"
        order8 = [line for line, _ in corpus_by_order[8][:1000]]
        # about a minute of work at two jobs, were it all checked
        g6.write_text("\n".join(order8 * 100) + "\n")
        csv_out = tmp_path / "records.csv"
        rows = 0
        real_writer = harness.csv.writer

        class FullDisk:
            """A csv writer whose disk fills after 100 rows."""

            def __init__(self, fh):
                self.writer = real_writer(fh)

            def writerow(self, row):
                nonlocal rows
                rows += 1
                if rows > 100:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.writer.writerow(row)

        monkeypatch.setattr(harness.csv, "writer", FullDisk)
        start = time.monotonic()
        with pytest.raises(OSError):
            main(["verify", "--g6", str(g6), "--jobs", "2", "--csv", str(csv_out)])
        assert time.monotonic() - start < 10
        assert sorted(os.listdir(tmp_path)) == ["in.g6"]
        assert multiprocessing.active_children() == []


class TestConjectureSurvey:
    def test_rows_and_monotone(self, corpus_by_order):
        lines = [line for line, _ in corpus_by_order[5]]
        out = conjecture_survey(lines)
        assert out["graphs"] == 21
        deltas = {row["delta"] for row in out["rows"]}
        assert deltas <= {1, 2, 3, 4}
        for row in out["rows"]:
            num, den = map(int, row["ratio"].split("/"))
            assert num >= 0 and den > 0
        assert set(out["monotone_by_delta"]) == {str(d) for d in deltas}

    def test_non_ascii_line_is_a_parse_error(self):
        for max_n in (None, 8):
            out = conjecture_survey(["DQc", "Dq", "B\u00e9", "DQc"], max_n=max_n)
            assert out["graphs"] == 2
            assert [e["line_number"] for e in out["parse_errors"]] == [2, 3]

    def test_graph_above_ir_cap_is_a_line_error(self):
        big = encode_graph6(path(harness.IR_ORDER_CAP + 1))
        out = conjecture_survey(["DQc", big, "DQc"])
        assert out["graphs"] == 2
        assert out["parse_errors"] == [
            {"line_number": 2, "error": "ir solve on n=33 exceeds cap 32"}
        ]
        assert out["rows"] == conjecture_survey(["DQc", "DQc"])["rows"]

    def test_jobs_equal_output(self, corpus_by_order):
        lines = [line for n in (5, 6) for line, _ in corpus_by_order[n]][:80]
        lines[7] = "Dq"
        single = conjecture_survey(lines, jobs=1, max_n=5)
        assert single["graphs"] == 20
        assert single == conjecture_survey(lines, jobs=2, max_n=5)
        assert conjecture_survey(lines, jobs=1) == conjecture_survey(lines, jobs=2)

    def test_rows_are_the_verify_ratio_maxima(self, corpus_by_order):
        lines = [line for n in range(1, 7) for line, _ in corpus_by_order[n]]
        rows = conjecture_survey(lines)["rows"]
        projected = {
            f"delta={row['delta']},k={row['k']}": {"ratio": row["ratio"], "witness": row["witness"]}
            for row in rows
        }
        assert projected == verify_stream(lines, spot_check=False).aggregate["max_ratios"]

    @pytest.mark.parametrize("kwargs", [{"jobs": 0}, {"jobs": -1}, {"k_max": 0}, {"max_n": -1}])
    def test_parameters_below_one_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            conjecture_survey(["DQc"], **kwargs)

    def test_never_asserts_on_extremes(self):
        # a graph with gamma close to 2 ir would violate nothing here
        out = conjecture_survey(["DQc"])
        assert out["graphs"] == 1


# the commands that read exactly one graph from --g6
ONE_GRAPH_COMMANDS = [
    ["partition", "--iset", "1,2"],
    ["construct", "--iset", "1,2", "--k", "2"],
    ["check", "--set", "1,2", "--predicate", "dominating"],
]


class TestCli:
    def run(self, argv):
        return main(argv)

    def test_solve_gamma(self, capsys, tmp_path):
        g6 = tmp_path / "in.g6"
        g6.write_text("DQc\n")
        assert self.run(["solve", "--invariant", "gamma", "--g6", str(g6)]) == 0
        out = capsys.readouterr().out
        assert "gamma=2" in out

    def test_solve_iota_requires_k(self, capsys, tmp_path):
        g6 = tmp_path / "in.g6"
        g6.write_text("DQc\nCr\n")
        assert self.run(["solve", "--invariant", "iota", "--g6", str(g6)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --k is required for iota\n"

    @pytest.mark.parametrize("k", [0, -2])
    def test_solve_iota_k_out_of_range(self, capsys, tmp_path, k):
        g6 = tmp_path / "in.g6"
        g6.write_text("DQc\nCr\n")
        argv = ["solve", "--invariant", "iota", "--k", str(k), "--g6", str(g6)]
        assert self.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: isolation order must be positive, got {k}\n"

    @pytest.mark.parametrize("invariant", ["gamma", "ir"])
    def test_solve_refuses_k_without_iota(self, capsys, tmp_path, invariant):
        # refused before any line is read or solved
        g6 = tmp_path / "in.g6"
        g6.write_text("DQc\nBx\n")
        argv = ["solve", "--invariant", invariant, "--k", "-5", "--g6", str(g6)]
        assert self.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --k applies only to --invariant iota, not {invariant}\n"

    @pytest.mark.parametrize("invariant, k", [("gamma", []), ("iota", ["--k", "2"])])
    def test_solve_refuses_force_without_ir(self, capsys, tmp_path, invariant, k):
        # refused before any line is read or solved
        g6 = tmp_path / "in.g6"
        g6.write_text("DQc\nBx\n")
        argv = ["solve", "--invariant", invariant, *k, "--force", "--g6", str(g6)]
        assert self.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --force applies only to --invariant ir, not {invariant}\n"

    def test_solve_reports_an_input_error_per_line_and_lets_a_bug_propagate(
        self, capsys, tmp_path, monkeypatch
    ):
        g6 = tmp_path / "in.g6"
        g6.write_text("DQc\nCr\n")
        argv = ["solve", "--invariant", "gamma", "--g6", str(g6)]

        def refuse(g):
            raise ParameterError(f"refused n={g.n}")

        monkeypatch.setattr(cli, "gamma", refuse)
        assert self.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "DQc error: refused n=5\nCr error: refused n=4\n"

        def broken(g):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "gamma", broken)
        with pytest.raises(ValueError, match="^internal$"):
            self.run(argv)

    def test_solve_ir_above_cap_points_to_force(self, capsys, tmp_path):
        n = harness.IR_ORDER_CAP + 1
        k33 = encode_graph6(Graph(n, list(itertools.combinations(range(n), 2))))
        g6 = tmp_path / "in.g6"
        g6.write_text(f"{k33}\n")
        argv = ["solve", "--invariant", "ir", "--g6", str(g6)]
        assert self.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{k33} error: ir solve on n=33 exceeds cap 32; pass --force\n"
        assert self.run(argv + ["--force"]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"{k33} ir=1 witness=[0]\n"
        assert captured.err == ""

    def test_verify_writes_reports(self, capsys, tmp_path, corpus_by_order):
        g6 = tmp_path / "in.g6"
        g6.write_text("\n".join(line for line, _ in corpus_by_order[4]) + "\n")
        csv_out = tmp_path / "per.csv"
        json_out = tmp_path / "agg.json"
        code = self.run(
            ["verify", "--g6", str(g6), "--csv", str(csv_out), "--json", str(json_out)]
        )
        assert code == 0
        assert "all checks passed" in capsys.readouterr().out
        payload = json.loads(json_out.read_text())
        assert payload["aggregate"]["graphs"] == 6
        header = csv_out.read_text().splitlines()[0]
        assert header.startswith("graph6,n,m,delta")

    def test_partition_output(self, capsys, tmp_path):
        g6 = tmp_path / "in.g6"
        g6.write_text("Cr\n")  # 4-cycle
        code = self.run(["partition", "--g6", str(g6), "--iset", "1,2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "i: 1 2" in out

    def test_construct_certifies(self, capsys, tmp_path):
        g6 = tmp_path / "in.g6"
        g6.write_text("Cr\n")
        code = self.run(["construct", "--g6", str(g6), "--iset", "1,2", "--k", "2"])
        assert code == 0
        assert "bound satisfied: True" in capsys.readouterr().out

    def test_family_emit(self, capsys):
        code = self.run(
            ["family", "--name", "G1", "--params", "t=2,k=3", "--emit-g6", "--emit-witnesses"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "claimed ir: 2" in out
        lines = [ln for ln in out.splitlines() if ln and " " not in ln]
        g = parse_graph6(lines[-1])
        assert g.n == 6

    def test_check_predicate_exit_codes(self, capsys, tmp_path):
        g6 = tmp_path / "in.g6"
        g6.write_text("Cr\n")
        ok = self.run(["check", "--g6", str(g6), "--set", "1,2", "--predicate", "dominating"])
        bad = self.run(["check", "--g6", str(g6), "--set", "0", "--predicate", "dominating"])
        assert ok == 0 and bad == 1

    def test_bound_command(self, capsys):
        assert self.run(["bound", "--k", "6", "--delta", "7", "--ir", "9"]) == 0
        assert capsys.readouterr().out.strip() == "51/4"

    # each input-fault type a command raises past its own checks
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["construct", "--iset", "0,1", "--k", "9"],
             "no constructive regime for k=9 at maximum degree 2; supported orders are 1..3"),
            (["partition", "--iset", "0"], "input set is not maximal irredundant"),
            (["check", "--set", "0", "--predicate", "isolating", "--k", "0"],
             "k must be positive, got 0"),
        ],
        ids=["regime", "precondition", "isolating-k"],
    )
    def test_input_fault_exit_two(self, capsys, tmp_path, argv, message):
        g6 = tmp_path / "in.g6"
        g6.write_text("DQc\n")
        assert self.run(argv + ["--g6", str(g6)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_a_plain_value_error_propagates(self, monkeypatch):
        def broken(args):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "cmd_bound", broken)
        with pytest.raises(ValueError, match="^internal$"):
            self.run(["bound", "--k", "1", "--delta", "1", "--ir", "1"])

    # every integer option takes the one rule of the vertex sets: int() alone
    # reads 1_0 as 10 and the Arabic-Indic digit two as 2
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["verify", "--g6", "{g6}", "--max-n", "{token}"], "--max-n"),
            (["survey", "--g6", "{g6}", "--k-max", "{token}"], "--k-max"),
            (["solve", "--g6", "{g6}", "--invariant", "iota", "--k", "{token}"], "--k"),
            (["bound", "--k", "{token}", "--delta", "9", "--ir", "3"], "--k"),
        ],
        ids=["verify", "survey", "solve", "bound"],
    )
    @pytest.mark.parametrize("token", ["1_0", "\u0662"], ids=["underscore", "arabic-indic"])
    def test_integer_option_not_an_integer_exit_two(self, capsys, tmp_path, argv, option, token):
        g6 = tmp_path / "in.g6"
        g6.write_text("DQc\n")
        with pytest.raises(SystemExit) as exc:
            self.run([a.format(g6=g6, token=token) for a in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f": error: argument {option}: expected an integer, got {token!r}\n"
        )

    def test_integer_options_take_a_sign(self, capsys):
        assert self.run(["bound", "--k", "+3", "--delta", "4", "--ir", "+3"]) == 0
        assert capsys.readouterr().out == "4/1\n"
        assert self.run(["bound", "--k", "1", "--delta", "-2", "--ir", "1"]) == 2
        assert capsys.readouterr().err == "error: maximum degree must be non-negative, got -2\n"

    def test_user_error_exit_two(self, capsys, tmp_path):
        g6 = tmp_path / "in.g6"
        g6.write_text("Cr\n")
        code = self.run(["partition", "--g6", str(g6), "--iset", "0"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["partition", "--iset", "0"],
            ["construct", "--iset", "0", "--k", "1"],
            ["check", "--set", "0", "--predicate", "dominating"],
        ],
    )
    def test_empty_input_exit_two(self, capsys, tmp_path, argv):
        g6 = tmp_path / "in.g6"
        g6.write_text("\n")
        assert self.run(argv + ["--g6", str(g6)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: no graph6 line found in input (byte offset 0)\n"

    @pytest.mark.parametrize("argv", ONE_GRAPH_COMMANDS)
    def test_second_graph_exit_two(self, capsys, tmp_path, argv):
        g6 = tmp_path / "in.g6"
        g6.write_text("Cr\n\nCr\nDQc\n")
        assert self.run(argv + ["--g6", str(g6)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expected one graph, found a second at line 3\n"

    @pytest.mark.parametrize("argv", ONE_GRAPH_COMMANDS)
    def test_input_read_up_to_the_second_graph(self, capsys, monkeypatch, argv):
        def lines(path):
            yield from ("Cr", "", "Cr")
            raise AssertionError("read past the second graph line")

        monkeypatch.setattr(cli, "_read_lines", lines)
        assert self.run(argv) == 2
        assert "found a second at line 3" in capsys.readouterr().err

    def test_vertex_out_of_range_exit_two(self, capsys, tmp_path):
        g6 = tmp_path / "in.g6"
        g6.write_text("Cr\n")
        for bad in ("-1", "4"):
            code = self.run(["partition", "--g6", str(g6), f"--iset=1,{bad}"])
            assert code == 2
            err = capsys.readouterr().err
            assert err == f"error: vertex {bad} out of range for n=4\n"

    TOKEN_ARGVS = [
        (["check", "--g6", "{g6}", "--set", "1 {token}", "--predicate", "dominating"], "--set"),
        (["partition", "--g6", "{g6}", "--iset", "1,{token}"], "--iset"),
        (["construct", "--g6", "{g6}", "--iset", "{token}", "--k", "2"], "--iset"),
        (["family", "--name", "G1", "--params", "k={token}"], "--params"),
    ]

    # int() reads 0_1 as 1 and the Arabic-Indic digit three as 3; the "x"
    # rows keep the ids they had before the token became a parameter
    @pytest.mark.parametrize(
        "argv, option, token",
        [
            pytest.param(
                argv, option, token, id=f"argv{i}-{option}" + ("" if token == "x" else f"-{token}")
            )
            for i, (argv, option) in enumerate(TOKEN_ARGVS)
            for token in ("x", "0_1", "\u0663")
        ],
    )
    def test_token_not_an_integer_exit_two(self, capsys, tmp_path, argv, option, token):
        g6 = tmp_path / "in.g6"
        g6.write_text("Cr\n")
        assert self.run([a.format(g6=g6, token=token) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option}: expected an integer, got {token!r}\n"

    # "+0" spells vertex 0 again; before the check, each set was collapsed
    # to its distinct vertices and checked or partitioned as that
    @pytest.mark.parametrize(
        "argv, option, vertex",
        [
            (["check", "--g6", "{g6}", "--set", "1,1", "--predicate", "irredundant"], "--set", 1),
            (["partition", "--g6", "{g6}", "--iset", "0,0"], "--iset", 0),
            (["construct", "--g6", "{g6}", "--iset", "0 2 +0", "--k", "2"], "--iset", 0),
        ],
        ids=["check", "partition", "construct"],
    )
    def test_repeated_vertex_exit_two(self, capsys, tmp_path, argv, option, vertex):
        g6 = tmp_path / "in.g6"
        g6.write_text("Cs\n")
        assert self.run([a.format(g6=g6) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option}: vertex {vertex} given twice\n"

    def test_family_params_item_without_value(self, capsys):
        assert self.run(["family", "--name", "G1", "--params", "t=2,k"]) == 2
        assert capsys.readouterr().err == "error: --params: expected key=value, got 'k'\n"

    def test_family_params_repeated_key(self, capsys):
        assert self.run(["family", "--name", "G1", "--params", "t=1,k=2,t=3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --params: key 't' given twice\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["family", "--name", "G1", "--params", "foo=1"],
            ["family", "--name", "G1", "--params", "t=2"],
            ["certify", "--family", "G1", "--params", "foo=1"],
            ["certify", "--family", "G1", "--params", "t=1,k=2,foo=1"],
        ],
    )
    def test_unknown_family_parameters_exit_two(self, capsys, argv):
        assert self.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: family G1 takes parameters t, k; got ")
        assert captured.out == ""

    def test_unknown_family_name_exit_two(self, capsys):
        assert self.run(["family", "--name", "G9"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown family 'G9'; choices: ")

    def test_verify_graph_above_ir_cap(self, capsys, tmp_path):
        g6 = tmp_path / "in.g6"
        big = encode_graph6(path(harness.IR_ORDER_CAP + 1))
        g6.write_text(f"DQc\n{big}\nCr\n")
        json_out = tmp_path / "agg.json"
        code = self.run(["verify", "--g6", str(g6), "--json", str(json_out)])
        assert code == 0
        assert "line 2 not checked: ir solve on n=33" in capsys.readouterr().out
        payload = json.loads(json_out.read_text())
        assert payload["aggregate"]["graphs"] == 2
        assert payload["parse_errors"] == [
            {"line_number": 2, "error": "ir solve on n=33 exceeds cap 32"}
        ]

    def test_verify_labels_lines_it_did_not_check(self, capsys, tmp_path):
        # line 2 parses but is above the ir cap; line 3 is malformed
        g6 = tmp_path / "in.g6"
        big = encode_graph6(path(harness.IR_ORDER_CAP + 1))
        g6.write_text(f"DQc\n{big}\nDq\n")
        json_out = tmp_path / "agg.json"
        assert self.run(["verify", "--g6", str(g6), "--json", str(json_out)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "parse errors: 1" in out
        assert "not checked (above a size cap): 1" in out
        assert "line 2 not checked: ir solve on n=33 exceeds cap 32" in out
        assert "parse error at line 3: body needs 2 bytes, found 1 (byte offset 2)" in out
        assert not any(line.startswith("parse error at line 2") for line in out)
        payload = json.loads(json_out.read_text())
        assert payload["aggregate"]["parse_error_count"] == 2
        assert [e["line_number"] for e in payload["parse_errors"]] == [2, 3]

    def test_machinery_error_exit_three(self, capsys, monkeypatch):
        def broken(args):
            raise MachineryError("closure representatives collide")

        monkeypatch.setattr(cli, "cmd_bound", broken)
        code = self.run(["bound", "--k", "3", "--delta", "3", "--ir", "4"])
        assert code == 3
        assert "closure representatives collide" in capsys.readouterr().err

    def test_verify_non_ascii_line(self, capsys, tmp_path):
        g6 = tmp_path / "in.g6"
        g6.write_text("DQc\nB\u00e9\n", encoding="utf-8")
        json_out = tmp_path / "agg.json"
        code = self.run(["verify", "--g6", str(g6), "--json", str(json_out)])
        assert code == 0
        assert "parse error at line 2: non-ASCII character" in capsys.readouterr().out
        agg = json.loads(json_out.read_text())["aggregate"]
        assert agg["graphs"] == 1 and agg["parse_error_count"] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["survey", "--k-max", "0"],
            ["survey", "--k-max", "-2"],
            ["survey", "--jobs", "0"],
            ["verify", "--jobs", "0"],
            ["verify", "--jobs", "-1"],
        ],
    )
    def test_counts_below_one_exit_two(self, capsys, tmp_path, argv):
        g6 = tmp_path / "in.g6"
        g6.write_text("DQc\n")
        assert self.run(argv + ["--g6", str(g6)]) == 2
        captured = capsys.readouterr()
        assert "must be at least 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["verify", "survey"])
    def test_negative_max_n_exit_two(self, capsys, tmp_path, command):
        g6 = tmp_path / "in.g6"
        g6.write_text("DQc\n")
        assert self.run([command, "--g6", str(g6), "--max-n", "0"]) == 0
        capsys.readouterr()
        assert self.run([command, "--g6", str(g6), "--max-n", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: max_n must be at least 0, got -1\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["verify", "--g6", "{missing}"], "--g6"),
            (["solve", "--invariant", "gamma", "--g6", "{missing}"], "--g6"),
            (["check", "--set", "0", "--predicate", "dominating", "--g6", "{missing}"], "--g6"),
            (["verify", "--g6", "{g6}", "--csv", "{missing}"], "--csv"),
            (["verify", "--g6", "{g6}", "--json", "{missing}"], "--json"),
            (["survey", "--g6", "{g6}", "--json", "{missing}"], "--json"),
            (["certify", "--family", "G1", "--params", "t=1,k=2", "--json", "{missing}"], "--json"),
        ],
    )
    def test_unopenable_path_exit_two(self, capsys, tmp_path, argv, option):
        g6 = tmp_path / "in.g6"
        g6.write_text("DQc\n")
        missing = tmp_path / "nodir" / "x"
        assert self.run([a.format(g6=g6, missing=missing) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {option}: {missing}: No such file or directory\n"
        assert os.listdir(tmp_path) == ["in.g6"]

    @pytest.mark.parametrize("option", ["--csv", "--json"])
    def test_directory_path_exit_two_before_any_graph(self, capsys, monkeypatch, tmp_path, option):
        # a directory can never be replaced by the report, so it is refused
        # before the first graph is checked, leaving no temporary file
        checked = []
        real = harness.check_graph
        monkeypatch.setattr(harness, "check_graph", lambda *a, **kw: checked.append(a) or real(*a, **kw))
        g6 = tmp_path / "in.g6"
        g6.write_text("DQc\nCr\n")
        out = tmp_path / "out"
        out.mkdir()
        assert self.run(["verify", "--g6", str(g6), option, str(out)]) == 2
        assert capsys.readouterr().err == f"error: {option}: {out}: Is a directory\n"
        assert checked == []
        assert sorted(os.listdir(tmp_path)) == ["in.g6", "out"]
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command, per_graph", [("verify", "check_graph"), ("survey", "_survey_line")])
    def test_bad_json_exit_two_before_any_graph(self, capsys, monkeypatch, tmp_path, command, per_graph):
        # the report file is opened before the input is read, so a bad
        # --json ends the run before any graph and publishes no CSV
        seen = []
        real = getattr(harness, per_graph)
        monkeypatch.setattr(harness, per_graph, lambda *a, **kw: seen.append(a) or real(*a, **kw))
        g6 = tmp_path / "two.g6"
        g6.write_text("DQc\nCr\n")
        missing = tmp_path / "nodir" / "x.json"
        argv = [command, "--g6", str(g6), "--json", str(missing)]
        if command == "verify":
            argv += ["--csv", str(tmp_path / "out.csv")]
        assert self.run(argv) == 2
        assert capsys.readouterr().err == f"error: --json: {missing}: No such file or directory\n"
        assert seen == []
        assert os.listdir(tmp_path) == ["two.g6"]

    def test_csv_and_json_on_one_file_exit_two(self, capsys, tmp_path):
        g6 = tmp_path / "in.g6"
        g6.write_text("DQc\n")
        out = tmp_path / "out"
        assert self.run(["verify", "--g6", str(g6), "--csv", str(out), "--json", f"{tmp_path}/./out"]) == 2
        assert capsys.readouterr().err == f"error: --csv and --json name the same file: {tmp_path}/./out\n"
        assert os.listdir(tmp_path) == ["in.g6"]

    def test_unopenable_input_leaves_no_csv(self, capsys, tmp_path):
        # the CSV's temporary file is open when reading --g6 fails
        argv = ["verify", "--g6", str(tmp_path / "missing.g6"), "--csv", str(tmp_path / "out.csv")]
        assert self.run(argv) == 2
        assert "error: --g6: " in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_verify_lists_hard_failures(self, capsys, tmp_path, monkeypatch):
        # every line fails its roundtrip; the listing stops at 50
        monkeypatch.setattr(harness, "encode_graph6", lambda g: "X")
        g6 = tmp_path / "in.g6"
        g6.write_text("@\n" * 51)
        assert self.run(["verify", "--g6", str(g6)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "  roundtrip: 0/51" in out
        at = out.index("HARD FAILURES: 51")
        assert out[at + 1:] == ["  @ roundtrip: re-encoded to X"] * 50

    def test_verify_line_above_the_codec_cap(self, capsys, tmp_path):
        g6 = tmp_path / "in.g6"
        g6.write_text("~?G@\n")
        assert self.run(["verify", "--g6", str(g6)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "not checked (above a size cap): 1" in out
        assert "line 1 not checked: graph6 order 513 exceeds supported cap 512" in out

    def test_verify_long_form_order_is_a_parse_error(self, capsys, tmp_path):
        # DQc with its order written in the long form: bad input, not a
        # graph that fails its roundtrip
        error = "order 5 written in a long form that starts at 63 (byte offset 0)"
        g6 = tmp_path / "in.g6"
        g6.write_text("~??DQc\nDQc\n")
        json_out = tmp_path / "agg.json"
        assert self.run(["verify", "--g6", str(g6), "--json", str(json_out)]) == 0
        assert f"parse error at line 1: {error}" in capsys.readouterr().out.splitlines()
        payload = json.loads(json_out.read_text())
        assert payload["parse_errors"] == [{"line_number": 1, "error": error}]
        assert payload["aggregate"]["graphs"] == 1
        assert payload["hard_failures"] == []

    def test_survey_prints_its_table_and_writes_json(self, capsys, tmp_path):
        lines = ["DQc", "Cr", "Bw"]
        g6 = tmp_path / "in.g6"
        g6.write_text("\n".join(lines) + "\n")
        json_out = tmp_path / "survey.json"
        assert self.run(["survey", "--g6", str(g6), "--json", str(json_out)]) == 0
        assert capsys.readouterr().out == (
            "graphs surveyed: 3\n"
            "delta  k  max iota_k/ir  witness\n"
            "    2  1           1/1  DQc\n"
            "    2  2           1/1  Bw\n"
            "    2  3           1/1  Bw\n"
            "observed maxima for delta=2: non-increasing\n"
        )
        expected = io.StringIO()
        write_json(conjecture_survey(lines), expected)
        assert json_out.read_text() == expected.getvalue()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_survey_reports_the_lines_it_did_not_survey(self, capsys, tmp_path, jobs):
        # line 2 has order 8, above --max-n; line 3 is malformed
        g6 = tmp_path / "in.g6"
        g6.write_text("DQc\nG?????\nB?x\n")
        json_out = tmp_path / "survey.json"
        argv = ["survey", "--g6", str(g6), "--max-n", "5", "--jobs", str(jobs)]
        assert self.run(argv + ["--json", str(json_out)]) == 0
        assert capsys.readouterr().out == (
            "graphs surveyed: 1\n"
            "delta  k  max iota_k/ir  witness\n"
            "    2  1           1/1  DQc\n"
            "    2  2           1/2  DQc\n"
            "    2  3           0/1  DQc\n"
            "observed maxima for delta=2: non-increasing\n"
            "skipped (order above cap): 1\n"
            "line 3 not surveyed: trailing data after graph6 body (byte offset 2)\n"
        )
        assert json.loads(json_out.read_text()) == {
            "graphs": 1,
            "skipped_over_max_n": 1,
            "parse_errors": [
                {"line_number": 3, "error": "trailing data after graph6 body (byte offset 2)"}
            ],
            "rows": [
                {"delta": 2, "k": k, "ratio": ratio, "ratio_float": value, "witness": "DQc"}
                for k, ratio, value in ((1, "1/1", 1.0), (2, "1/2", 0.5), (3, "0/1", 0.0))
            ],
            "monotone_by_delta": {"2": True},
        }

    def test_certify_writes_json_and_fails_a_wrong_claim(self, capsys, tmp_path, monkeypatch):
        json_out = tmp_path / "certify.json"
        argv = ["certify", "--family", "G1", "--params", "t=1,k=2", "--json", str(json_out)]
        assert self.run(argv) == 0
        expected = io.StringIO()
        write_json(harness.certify_families([("G1", {"t": 1, "k": 2})]), expected)
        assert json_out.read_text() == expected.getvalue()
        capsys.readouterr()
        TestCertifyFamily._altered(monkeypatch, claimed_ir=5)
        assert self.run(argv) == 1
        failure = "G1{'t': 1, 'k': 2}: ir 1 != claimed 5"
        assert capsys.readouterr().out.splitlines()[-2:] == ["HARD FAILURES: 1", f"  {failure}"]
        assert json.loads(json_out.read_text())["hard_failures"] == [failure]

    def test_every_reader_takes_the_same_lines(self, capfd, tmp_path):
        # line 1 has whitespace around it, line 2 is blank, line 3 holds a
        # byte that does not decode and line 4 is plain
        g6 = tmp_path / "in.g6"
        g6.write_bytes(b" DQc \t\n\nB\xff\nCr\n")
        error = "byte 255 outside graph6 range 63..126 (byte offset 1)"
        reports = []
        for jobs in ("1", "2"):
            csv_out, json_out = tmp_path / f"{jobs}.csv", tmp_path / f"{jobs}.json"
            argv = ["verify", "--g6", str(g6), "--jobs", jobs, "--csv", str(csv_out)]
            assert self.run(argv + ["--json", str(json_out)]) == 0
            assert f"parse error at line 3: {error}" in capfd.readouterr().out.splitlines()
            with open(csv_out, newline="") as fh:
                assert [row["graph6"] for row in csv.DictReader(fh)] == ["DQc", "Cr"]
            reports.append(json.loads(json_out.read_text()))
        assert reports[0] == reports[1]
        assert reports[0]["parse_errors"] == [{"line_number": 3, "error": error}]
        json_out = tmp_path / "survey.json"
        assert self.run(["survey", "--g6", str(g6), "--json", str(json_out)]) == 0
        survey = json.loads(json_out.read_text())
        assert survey["graphs"] == 2
        assert survey["parse_errors"] == [{"line_number": 3, "error": error}]
        capfd.readouterr()
        assert self.run(["solve", "--invariant", "gamma", "--g6", str(g6)]) == 1
        out, err = capfd.readouterr()
        assert out == "DQc gamma=2 witness=[0 1]\nCr gamma=2 witness=[0 1]\n"
        # the echo writes the undecodable byte as the escape of that byte
        assert err == f"B\\xff error: {error}\n"

    def test_stdin_read_as_files_are(self, capsys, monkeypatch):
        # a strict decoder, as stdin has outside Python's UTF-8 mode
        stdin = io.TextIOWrapper(io.BytesIO(b"DQc\nB\xff\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert self.run(["verify", "--g6", "-"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "parse error at line 2: byte 255 outside graph6 range 63..126 (byte offset 1)" in out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_one_long_line_is_a_parse_error_in_bounded_memory(self, capsys, tmp_path, jobs):
        # an 8 MiB line between two good ones is never held whole: the run
        # peaks within 1 MiB of the same run without it
        short, long = tmp_path / "short.g6", tmp_path / "long.g6"
        short.write_text("DQc\nDQc\n")
        long.write_text("DQc\n" + "A" * (8 << 20) + "\nDQc\n")
        csv_out = tmp_path / "records.csv"

        def peak(g6):
            tracemalloc.start()
            try:
                argv = ["verify", "--g6", str(g6), "--jobs", jobs, "--csv", str(csv_out)]
                assert self.run(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(short)  # fill the interpreter's caches first
        clean = peak(short)
        capsys.readouterr()
        assert peak(long) - clean < 1 << 20
        out = capsys.readouterr().out.splitlines()
        assert "parse error at line 2: trailing data after graph6 body (byte offset 2)" in out
        with open(csv_out, newline="") as fh:
            assert [row["graph6"] for row in csv.DictReader(fh)] == ["DQc", "DQc"]

    def test_longest_record_with_blanks_around_it_still_reads(self, capsys, tmp_path):
        n = 512
        record = ">>graph6<<" + encode_graph6(Graph(n, list(itertools.combinations(range(n), 2))))
        assert len(record) == RECORD_CAP == 21817
        g6 = tmp_path / "in.g6"
        g6.write_text(f" \t{record}  \n")
        assert self.run(["solve", "--invariant", "gamma", "--g6", str(g6)]) == 0
        assert capsys.readouterr().out == f"{record} gamma=1 witness=[0]\n"
        # one more non-blank character past a blank makes the text too long
        g6.write_text(f"{record} x\nCr\n")
        assert self.run(["solve", "--invariant", "gamma", "--g6", str(g6)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "Cr gamma=2 witness=[0 1]\n"
        assert captured.err.endswith(" error: trailing data after graph6 body (byte offset 21817)\n")

    @staticmethod
    def _strict_ascii(monkeypatch, name):
        """Replace sys.<name> with a stream whose encoder refuses non-ASCII."""
        stream = io.TextIOWrapper(io.BytesIO(), encoding="ascii", errors="strict")
        monkeypatch.setattr(sys, name, stream)
        return stream

    def test_solve_echoes_an_undecodable_byte_as_that_byte(self, monkeypatch, tmp_path):
        # a stderr with a strict encoder, which a lone surrogate would break
        g6 = tmp_path / "in.g6"
        g6.write_bytes(b"B\xff\nCr\n")
        stderr = self._strict_ascii(monkeypatch, "stderr")
        assert self.run(["solve", "--invariant", "gamma", "--g6", str(g6)]) == 1
        stderr.flush()
        assert stderr.buffer.getvalue() == (
            b"B\\xff error: byte 255 outside graph6 range 63..126 (byte offset 1)\n"
        )

    def test_solve_echoes_a_non_ascii_character_as_its_bytes(
        self, capsys, monkeypatch, tmp_path
    ):
        # the echo and the message stay ASCII, and the next line is still solved
        g6 = tmp_path / "in.g6"
        g6.write_bytes(b"B\xc3\xa9\nBw\n")
        stderr = self._strict_ascii(monkeypatch, "stderr")
        assert self.run(["solve", "--invariant", "gamma", "--g6", str(g6)]) == 1
        stderr.flush()
        assert stderr.buffer.getvalue() == (
            b"B\\xc3\\xa9 error: non-ASCII character '\\xe9' (byte offset 1)\n"
        )
        assert capsys.readouterr().out == "Bw gamma=1 witness=[0]\n"

    def test_verify_reports_a_non_ascii_character_on_a_strict_stdout(
        self, monkeypatch, tmp_path
    ):
        g6 = tmp_path / "in.g6"
        g6.write_bytes(b"B\xc3\xa9\nBw\n")
        stdout = self._strict_ascii(monkeypatch, "stdout")
        assert self.run(["verify", "--g6", str(g6)]) == 0
        stdout.flush()
        out = stdout.buffer.getvalue().splitlines()
        assert out[:3] == [b"graphs checked: 1", b"skipped (order above cap): 0", b"parse errors: 1"]
        assert out[-2:] == [
            b"parse error at line 1: non-ASCII character '\\xe9' (byte offset 1)",
            b"all checks passed",
        ]

    @pytest.mark.parametrize("argv", ONE_GRAPH_COMMANDS)
    def test_one_graph_commands_strip_the_line(self, capsys, tmp_path, argv):
        outputs = []
        for text in ("Cr\n", "\n \tCr \r\n\n"):
            g6 = tmp_path / "in.g6"
            g6.write_text(text)
            assert self.run(argv + ["--g6", str(g6)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", [["family", "--name"], ["certify", "--family"]])
    def test_family_above_the_order_cap_exit_two(self, capsys, command):
        assert self.run(command + ["G1", "--params", "t=1,k=2000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: order at least 2000 outside supported range 0..512\n"

    def test_solve_iota_skips_blank_lines_and_reports_bad_ones(self, capsys, tmp_path):
        g6 = tmp_path / "in.g6"
        g6.write_text("DQc\n\nDq\nCr\n")
        assert self.run(["solve", "--invariant", "iota", "--k", "2", "--g6", str(g6)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "DQc iota=1 witness=[4]\nCr iota=1 witness=[0]\n"
        assert captured.err == "Dq error: body needs 2 bytes, found 1 (byte offset 2)\n"

    @pytest.mark.parametrize(
        "line, predicate, vset, k, holds",
        [
            ("Cr", "irredundant", "1,2", None, True),
            ("Cr", "irredundant", "0,1,2", None, False),
            ("Cr", "maximal-irredundant", "1,2", None, True),
            ("Cr", "maximal-irredundant", "1", None, False),
            ("DQc", "isolating", "4", "2", True),
            ("DQc", "isolating", "4", "1", False),
        ],
    )
    def test_check_predicates(self, capsys, tmp_path, line, predicate, vset, k, holds):
        g6 = tmp_path / "in.g6"
        g6.write_text(f"{line}\n")
        argv = ["check", "--g6", str(g6), "--set", vset, "--predicate", predicate]
        assert self.run(argv + (["--k", k] if k else [])) == (0 if holds else 1)
        assert capsys.readouterr().out == ("true\n" if holds else "false\n")

    @pytest.mark.parametrize("predicate", ["dominating", "irredundant", "maximal-irredundant"])
    def test_check_refuses_k_without_isolating(self, capsys, tmp_path, predicate):
        # refused before the input is read: its second graph is no error here
        g6 = tmp_path / "in.g6"
        g6.write_text("DQc\nCr\n")
        argv = ["check", "--g6", str(g6), "--set", "0,4", "--predicate", predicate, "--k", "3"]
        assert self.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --k applies only to --predicate isolating, not {predicate}\n"
        )

    def test_check_isolating_requires_k(self, capsys, tmp_path):
        g6 = tmp_path / "in.g6"
        g6.write_text("DQc\n")
        assert self.run(["check", "--g6", str(g6), "--set", "4", "--predicate", "isolating"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --k is required for the isolating predicate\n"

    @pytest.mark.parametrize(
        "k, message",
        [
            ([], "--k is required for the isolating predicate"),
            (["--k", "0"], "k must be positive, got 0"),
        ],
    )
    def test_check_refuses_bad_k_before_reading(self, capsys, tmp_path, k, message):
        # the input is not read, so its malformed line is no error here
        g6 = tmp_path / "in.g6"
        g6.write_text("garbage\n")
        argv = ["check", "--g6", str(g6), "--set", "0", "--predicate", "isolating", *k]
        assert self.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "--set", "0_1", "--predicate", "dominating"],
             "--set: expected an integer, got '0_1'"),
            (["partition", "--iset", "0_1"], "--iset: expected an integer, got '0_1'"),
            (["construct", "--iset", "0", "--k", "0"], "isolation order must be positive, got 0"),
        ],
        ids=["check", "partition", "construct"],
    )
    def test_options_refused_before_reading(self, capsys, tmp_path, argv, message):
        # the malformed line is never read: the option's fault is the error
        g6 = tmp_path / "in.g6"
        g6.write_text("garbage\n")
        assert self.run(argv + ["--g6", str(g6)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_g6_dash_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("DQc\nCr\n"))
        assert self.run(["solve", "--invariant", "gamma", "--g6", "-"]) == 0
        assert capsys.readouterr().out == "DQc gamma=2 witness=[0 1]\nCr gamma=2 witness=[0 1]\n"

    def test_bound_negative_delta_exit_two(self, capsys):
        assert self.run(["bound", "--k", "1", "--delta", "-1", "--ir", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: maximum degree must be non-negative, got -1\n"

    def test_certify_single_family(self, capsys):
        assert self.run(["certify", "--family", "G1", "--params", "t=1,k=2"]) == 0
        assert "all instances certified" in capsys.readouterr().out

    def test_certify_params_need_a_family(self, capsys):
        assert self.run(["certify", "--params", "t=1,k=2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --params needs --family\n"
        assert captured.out == ""

    @staticmethod
    def run_module(module, *args):
        # the child finds the package where this process imported it from
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", module, *args], capture_output=True, text=True, env=env
        )

    def test_console_script_entry(self):
        proc = self.run_module("isobound.cli", "bound", "--k", "3", "--delta", "3", "--ir", "4")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "4/1"

    def test_package_entry(self):
        argv = ("bound", "--k", "3", "--delta", "3", "--ir", "4")
        package, cli = self.run_module("isobound", *argv), self.run_module("isobound.cli", *argv)
        assert (package.returncode, package.stdout, package.stderr) == (
            cli.returncode,
            cli.stdout,
            cli.stderr,
        )
        assert package.stdout.strip() == "4/1"


class TestSerialization:
    def test_fraction_strings_in_json(self, corpus_by_order, tmp_path):
        lines = [line for line, _ in corpus_by_order[4]]
        report = verify_stream(lines)
        path = tmp_path / "agg.json"
        write_json(report, str(path))
        payload = json.loads(path.read_text())
        for row in payload["aggregate"]["max_ratios"].values():
            num, den = row["ratio"].split("/")
            assert int(num) >= 0 and int(den) > 0

    def test_csv_na_blanks(self, corpus_by_order, tmp_path):
        lines = [corpus_by_order[1][0][0]]  # single vertex: no iota beyond k=1
        path = tmp_path / "one.csv"
        with write_csv(str(path)) as sink:
            verify_stream(lines, sink=sink)
        rows = path.read_text().splitlines()
        header = rows[0].split(",")
        values = rows[1].split(",")
        record = dict(zip(header, values))
        assert record["iota_k1"] == "1"
        assert record["iota_k2"] == ""

    def test_csv_stops_at_iota_k8(self, tmp_path):
        # the star K1,9 has iota_k for k = 1..10: the CSV keeps k = 1..8,
        # while the JSON's max_ratios keeps k = 9 and 10 too
        path = tmp_path / "star.csv"
        with write_csv(str(path)) as sink:
            report = verify_stream(["IsaCCA?_?"], sink=sink)
        header, values = (row.split(",") for row in path.read_text().splitlines())
        assert header == harness.CSV_COLUMNS
        record = dict(zip(header, values))
        assert [c for c in header if c.startswith("iota_k")] == [f"iota_k{k}" for k in range(1, 9)]
        assert [record[f"iota_k{k}"] for k in range(1, 9)] == ["1", "1"] + ["0"] * 6
        ratios = report.aggregate["max_ratios"]
        assert [key for key in ratios if key.startswith("delta=9,")] == [
            f"delta=9,k={k}" for k in range(1, 11)
        ]

    def test_rows_are_those_of_a_dict_writer(self, corpus_by_order, tmp_path, monkeypatch):
        # every n <= 6 corpus graph, the star K1,9 (iota_k beyond k = 8), the
        # empty graph and a record whose machinery raised partway, which
        # the monkeypatch of the test below sets up
        records = []
        lines = [line for n in range(1, 7) for line, _ in corpus_by_order[n]]
        verify_stream(lines + ["IsaCCA?_?", "?"], sink=records.append)
        real = harness.build_isolating_set

        def second_order_raises(g, part, k):
            if k == applicable_ks(g.max_degree())[1]:
                raise MachineryError("injected at the second order")
            return real(g, part, k)

        monkeypatch.setattr(harness, "build_isolating_set", second_order_raises)
        verify_stream(["Cs"], sink=records.append)
        assert records[-1]["checks"]["machinery_clean"] is False
        path = tmp_path / "records.csv"
        with write_csv(str(path)) as sink:
            for rec in records:
                sink(rec)
        want = io.StringIO(newline="")
        writer = csv.DictWriter(want, fieldnames=harness.CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for rec in records:
            writer.writerow(dict(rec, **{f"iota_k{k}": v for k, v in rec["iota"].items()}))
        assert path.read_bytes() == want.getvalue().encode()

    def test_csv_row_after_the_machinery_raised_partway(self, tmp_path, monkeypatch):
        # building T raises at the second order of the star K1,3: the
        # construct columns keep the first order, and failure_count counts
        # the machinery line
        real = harness.build_isolating_set

        def second_order_raises(g, part, k):
            if k == applicable_ks(g.max_degree())[1]:
                raise MachineryError("injected at the second order")
            return real(g, part, k)

        monkeypatch.setattr(harness, "build_isolating_set", second_order_raises)
        path = tmp_path / "raised.csv"
        with write_csv(str(path)) as sink:
            report = verify_stream(["Cs"], sink=sink)
        assert report.hard_failures == ["Cs machinery: MachineryError: injected at the second order"]
        assert path.read_text().splitlines()[1] == (
            "Cs,4,3,3,1,1,1,1,0,0,1,1,0,1,1,0,0,,,,,1,3/2,None,1"
        )
