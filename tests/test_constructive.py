from fractions import Fraction

import pytest

from isobound import (
    Graph,
    ParameterError,
    PreconditionError,
    RegimeError,
    applicable_ks,
    build_isolating_set,
    classify,
    compute_partition,
    gamma,
    harness,
    iota,
    ir,
    is_k_isolating,
    isolation_bound,
    survey_ratios,
)

import oracles
from graphgen import cubic_graphs
from isobound.families import make_instance


def complete(n):
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestBuildIsolatingSet:
    def test_complete_graph_regimes(self):
        g = complete(4)
        part = compute_partition(g, (0,))
        for k, regime in ((4, "delta_plus_1"), (3, "delta"), (2, "delta_minus_1"), (1, "delta_minus_2")):
            cert = build_isolating_set(g, part, k)
            assert cert.regime == regime
            assert cert.satisfied and cert.isolating_verified

    def test_out_of_range_k(self):
        g = complete(4)
        part = compute_partition(g, (0,))
        with pytest.raises(RegimeError):
            build_isolating_set(g, part, 5)
        with pytest.raises(ParameterError):
            build_isolating_set(g, part, 0)

    def test_rejects_non_maximal_input(self):
        # a set that is not maximal irredundant has no partition to build from
        g = cycle(6)
        with pytest.raises(PreconditionError):
            build_isolating_set(g, compute_partition(g, (0,)), 2)

    def test_disjoint_cliques(self):
        # two K3 components, k = 3 = delta + 1
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        cert = build_isolating_set(g, compute_partition(g, ir(g).witness), 3)
        assert cert.regime == "delta_plus_1"
        assert cert.t == (0, 3)
        assert cert.satisfied and cert.isolating_verified

    def test_t_is_verified_against_optimum(self, corpus_by_order):
        for line, g in corpus_by_order[6][:80]:
            delta = g.max_degree()
            part = compute_partition(g, ir(g).witness)
            for k in range(max(1, delta - 2), delta + 2):
                cert = build_isolating_set(g, part, k)
                assert cert.satisfied, (line, k)
                assert cert.isolating_verified, (line, k)
                assert iota(g, k).value <= len(cert.t)

    def test_every_maximal_set_works(self, corpus_by_order):
        for line, g in corpus_by_order[5]:
            delta = g.max_degree()
            for iset in oracles.maximal_irredundant_sets(g):
                part = compute_partition(g, iset)
                for k in range(max(1, delta - 2), delta + 2):
                    cert = build_isolating_set(g, part, k)
                    assert cert.satisfied and cert.isolating_verified, (line, iset, k)

    def test_bound_is_exact_fraction(self):
        g = complete(5)
        cert = build_isolating_set(g, compute_partition(g, (0,)), 3)  # delta - 1 regime
        assert isinstance(cert.bound, Fraction)

    def test_s_param_only_in_pair_regime(self):
        g = complete(4)
        part = compute_partition(g, (0,))
        assert build_isolating_set(g, part, 2).s_param is not None
        assert build_isolating_set(g, part, 3).s_param is None


class TestIsolationBound:
    def test_reference_values(self):
        assert isolation_bound(6, 7, 9) == Fraction(153, 12)
        assert isolation_bound(6, 7, 9, s=1) == Fraction(153, 12)
        assert isolation_bound(6, 7, 9, s=0) == 9
        assert isolation_bound(6, 7, 9, s=2) == Fraction(153, 12) - 1
        assert isolation_bound(7, 7, 9) == 9
        assert isolation_bound(8, 7, 9) == 9
        assert isolation_bound(5, 7, 9) == Fraction(27, 2)

    def test_regime_errors(self):
        with pytest.raises(RegimeError):
            isolation_bound(4, 7, 9)  # delta - 3 unsupported
        with pytest.raises(RegimeError):
            isolation_bound(9, 7, 9)  # above delta + 1

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            isolation_bound(7, 7, 9, s=1)  # s outside the pair regime
        with pytest.raises(ParameterError):
            isolation_bound(5, 7, 9, s=0)
        with pytest.raises(ParameterError):
            isolation_bound(6, 7, 9, s=6)  # above delta - 2
        with pytest.raises(ParameterError):
            isolation_bound(6, 7, 9, s=-1)
        with pytest.raises(ParameterError):
            isolation_bound(0, 7, 9)
        with pytest.raises(ParameterError):
            isolation_bound(1, 2, -1)

    def test_tightness_on_corpus(self, corpus_by_order):
        # the certified bound is never beaten by the exact optimum
        for line, g in corpus_by_order[6][:60]:
            delta = g.max_degree()
            irv = ir(g).value
            for k in range(max(1, delta - 2), delta + 2):
                assert Fraction(iota(g, k).value) <= isolation_bound(k, delta, irv)


def reference_bound(k, delta, ir_value, s=None):
    """The certified bound on iota_k, written out apart from
    isolation_bound: ir at k = Delta and Delta + 1, 3 ir / 2 at Delta - 2,
    and (3 Delta - 4) ir / (2 Delta - 2) at Delta - 1, which is ir when the
    defect parameter s is 0 and drops by s - 1 when s is at least 1."""
    if k in (delta, delta + 1):
        return Fraction(ir_value)
    if k == delta - 2:
        return Fraction(3 * ir_value, 2)
    assert k == delta - 1
    if s == 0:
        return Fraction(ir_value)
    return Fraction((3 * delta - 4) * ir_value, 2 * delta - 2) - s + 1


def reference_checks(delta, ir_value, iotas):
    """The four iota-ir theorem checks as integer inequalities."""
    out = {}
    if delta >= 1:
        out["iota_le_ir_at_delta"] = iotas[delta] <= ir_value
        out["iota_le_ir_above_delta"] = iotas[delta + 1] <= ir_value
    if delta >= 2:
        out["ratio_bound_below_delta"] = (2 * delta - 2) * iotas[delta - 1] <= (3 * delta - 4) * ir_value
    if delta >= 3:
        out["three_halves_two_below"] = 2 * iotas[delta - 2] <= 3 * ir_value
    return out


class TestReferenceBounds:
    def test_certificate_bounds(self, corpus_by_order):
        regimes = set()
        for n in range(1, 7):
            for line, g in corpus_by_order[n]:
                delta = g.max_degree()
                for iset in oracles.maximal_irredundant_sets(g):
                    part = compute_partition(g, iset)
                    for k in applicable_ks(delta):
                        cert = build_isolating_set(g, part, k)
                        want = reference_bound(k, delta, len(iset), cert.s_param)
                        assert cert.bound == want, (line, iset, k)
                        regimes.add(cert.regime)
        assert regimes == {"delta_plus_1", "delta", "delta_minus_1", "delta_minus_2"}

    def test_certificate_bounds_with_a_defect(self):
        # the corpus only has s = 0 at k = Delta - 1; these instances have
        # s = 1 and s = 6
        seen = set()
        for name, params in (("Gkl", {"k": 6, "l": 3}), ("Hksl", {"k": 8, "s": 6})):
            inst = make_instance(name, params)
            g, iset = inst.graph, inst.witness_irredundant
            delta = g.max_degree()
            part = compute_partition(g, iset)
            for k in applicable_ks(delta):
                cert = build_isolating_set(g, part, k)
                assert cert.bound == reference_bound(k, delta, len(iset), cert.s_param), (name, k)
                seen.add(cert.s_param)
        assert seen == {None, 1, 6}

    def test_theorem_checks(self, corpus_by_order):
        outcomes = set()
        for n in range(1, 8):
            for line, g in corpus_by_order[n]:
                cls = classify(g)
                gam, irr, iotas = harness._exact_invariants(g, cls.max_degree + 1)
                for shift in (-1, 0, 1):
                    shifted = {k: v + shift for k, v in iotas.items()}
                    want = reference_checks(cls.max_degree, irr.value, shifted)
                    got = {
                        name: ok
                        for name, ok, _ in harness._theorem_checks(line, g, cls, gam, irr.value, shifted)
                        if name in want
                    }
                    assert got == want, (line, shift)
                    outcomes.update(want.items())
        # each check both holds and fails somewhere, so no comparison is vacuous
        assert len(outcomes) == 8


class TestSurveyRatios:
    def test_synthetic_records(self):
        records = [
            {"delta": 3, "ir": 2, "iota": {1: 3, 2: 2}, "graph6": "a"},
            {"delta": 3, "ir": 2, "iota": {1: 2, 2: 2}, "graph6": "b"},
            {"delta": 3, "ir": 0, "iota": {1: 9}, "graph6": "ignored"},
        ]
        out = survey_ratios(records)
        assert out["rows"][(3, 1)] == {"ratio": Fraction(3, 2), "witness": "a"}
        assert out["rows"][(3, 2)] == {"ratio": Fraction(1, 1), "witness": "a"}
        assert out["monotone"] == {3: True}

    def test_first_graph_at_the_maximum_is_the_witness(self):
        # equal ratios written with different (iota, ir) pairs tie: the
        # first graph that attains a maximum stays its witness
        records = [
            {"delta": 4, "ir": 1, "iota": {1: 1}, "graph6": "a"},
            {"delta": 4, "ir": 2, "iota": {1: 2}, "graph6": "b"},
            {"delta": 4, "ir": 3, "iota": {1: 4}, "graph6": "c"},
            {"delta": 4, "ir": 6, "iota": {1: 8}, "graph6": "d"},
            {"delta": 4, "ir": 2, "iota": {1: 2}, "graph6": "e"},
        ]
        assert survey_ratios(records[:2])["rows"] == {(4, 1): {"ratio": 1, "witness": "a"}}
        row = survey_ratios(records)["rows"][(4, 1)]
        assert row == {"ratio": Fraction(4, 3), "witness": "c"}
        assert (row["ratio"].numerator, row["ratio"].denominator) == (4, 3)

    def test_degree_two_ratio_is_one(self, corpus_by_order):
        records = []
        for n in (3, 4, 5, 6, 7):
            for line, g in corpus_by_order[n]:
                if g.max_degree() != 2:
                    continue
                records.append(
                    {
                        "delta": 2,
                        "ir": ir(g).value,
                        "iota": {1: gamma(g).value},
                        "graph6": line,
                    }
                )
        out = survey_ratios(records)
        assert out["rows"][(2, 1)]["ratio"] == 1


class TestCubicTallies:
    def test_informational_bounds_hold(self):
        # connected 3-regular graphs through n = 10: the gamma/ir ratio stays
        # under 3/2 and the classical size bounds hold on every instance
        seen = 0
        worst = Fraction(0)
        for n in (4, 6, 8, 10):
            graphs = cubic_graphs(n)
            for h in graphs:
                g = Graph(n, [tuple(sorted(e)) for e in h.edges()])
                gam = gamma(g).value
                irv = ir(g).value
                seen += 1
                worst = max(worst, Fraction(gam, irv))
                assert 2 * gam <= 3 * irv
                assert 8 * gam <= 3 * n
                assert 9 * irv >= 2 * n
        assert seen == 1 + 2 + 5 + 19
        assert worst <= Fraction(3, 2)
