import random
from itertools import combinations

import pytest

from isobound import (
    CertificateError,
    Graph,
    SizeCapError,
    encode_graph6,
    gamma,
    iota,
    iota_lower_bound,
    ir,
    is_dominating,
    is_k_isolating,
    is_maximal_irredundant,
    parse_graph6,
)
from isobound.families import gen_five_thirds
from isobound.graph import bits, clique_table, closed_mask
from isobound.predicates import irredundant_extension
from isobound.solvers import SolveResult, _isolation_solve

import oracles
from graphgen import connected_trees


def reference_isolation_solve(g, k):
    """The isolation search before pruning: branch on a smallest live target
    in lex order, with one greedy packing at the root as its only bound.
    Kept as the reference the pruned search must agree with."""
    targets = clique_table(g, k)
    explored = [0]
    if not targets:
        return SolveResult(0, (), 0)

    def greedy_packing():
        used = 0
        count = 0
        for vmask, cover in targets:
            if not cover & used:
                used |= cover
                count += 1
        return count

    def dfs(budget, covered, allowed):
        explored[0] += 1
        best_cando = None
        best_size = None
        for vmask, cover in targets:
            if vmask & covered:
                continue
            cando = cover & allowed
            size = cando.bit_count()
            if size == 0:
                return False
            if best_size is None or size < best_size:
                best_cando, best_size = cando, size
                if size == 1:
                    break
        if best_cando is None:
            return allowed.bit_count() >= budget
        if budget == 0:
            return False
        for v in bits(best_cando):
            if dfs(budget - 1, covered | g.clo[v], allowed & ~(1 << v)):
                return True
        return False

    def feasible(size, forced, min_free):
        budget = size - forced.bit_count()
        if budget < 0:
            return False
        allowed = (g.full >> min_free << min_free) & ~forced
        return dfs(budget, closed_mask(g, forced), allowed)

    value = None
    for size in range(greedy_packing(), g.n + 1):
        if feasible(size, 0, 0):
            value = size
            break
    witness = []
    forced = 0
    start = 0
    for _ in range(value):
        for v in range(start, g.n):
            trial = forced | (1 << v)
            if feasible(value, trial, v + 1):
                forced = trial
                witness.append(v)
                start = v + 1
                break
    return SolveResult(value, tuple(witness), explored[0])


def reference_ir(g):
    """The irredundance search before the last member was chosen in place:
    one DFS node per final candidate, each testing maximality through
    `irredundant_extension`. Kept as the reference the in-place search must
    agree with."""
    if g.n == 0:
        return SolveResult(0, (), 0)
    explored = [0]

    def dfs(start, smask, members, pns, union_closed, need):
        explored[0] += 1
        if need == 0:
            return irredundant_extension(g, pns, union_closed, g.full & ~smask) is None
        for u in range(start, g.n - need + 1):
            cu = g.clo[u]
            pn_u = cu & ~union_closed
            if not pn_u:
                continue
            new_pns = []
            ok = True
            for pn in pns:
                np = pn & ~cu
                if not np:
                    ok = False
                    break
                new_pns.append(np)
            if not ok:
                continue
            new_pns.append(pn_u)
            members.append(u)
            if dfs(
                u + 1, smask | (1 << u), members, new_pns, union_closed | cu, need - 1
            ):
                return True
            members.pop()
        return False

    for size in range(1, g.n + 1):
        members = []
        if dfs(0, 0, members, [], 0, size):
            return SolveResult(size, tuple(members), explored[0])
    raise AssertionError("every nonempty graph has a maximal irredundant set")


def random_gnm(n, m, rng):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, rng.sample(pairs, m))


def unit_disk(n, degree, rng):
    """The round(n * degree / 2) closest pairs of n uniform points in the
    unit square: a clique-rich graph, unlike G(n, m) of the same density."""
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    pairs = sorted(
        ((pts[u][0] - pts[v][0]) ** 2 + (pts[u][1] - pts[v][1]) ** 2, u, v)
        for u in range(n)
        for v in range(u + 1, n)
    )
    return Graph(n, [(u, v) for _, u, v in pairs[: round(n * degree / 2)]])


# A seeded unit-disk graph (unit_disk(28, 7, rng)): 98 edges, Delta = 12,
# 112 4-cliques, 66 5-cliques and 29 6-cliques.
CLIQUE_RICH_G6 = "[@Khuck@K?O@AA_BWHeAH??Oy??H_AE@_GY???Q@u?IFw?dNg@B??aK@BODiE@aO"


def complete(n):
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestGamma:
    def test_known_values(self):
        assert gamma(complete(5)).value == 1
        assert gamma(path(7)).value == 3
        assert gamma(cycle(6)).value == 2
        assert gamma(Graph(4, [(0, 1), (0, 2), (0, 3)])).value == 1
        assert gamma(Graph(3)).value == 3

    def test_empty_graph(self):
        res = gamma(Graph(0))
        assert res.value == 0 and res.witness == ()

    def test_witness_dominates(self, corpus_by_order):
        for line, g in corpus_by_order[7][:150]:
            res = gamma(g)
            assert is_dominating(g, res.witness)
            assert len(res.witness) == res.value

    def test_lex_least_witness(self, corpus_by_order):
        for n in range(1, 7):
            for line, g in corpus_by_order[n]:
                res = gamma(g)
                size, brute = oracles.brute_gamma(g)
                assert res.value == size, line
                assert res.witness == brute  # combinations() yields lex order


class TestIr:
    def test_known_values(self):
        assert ir(complete(5)).value == 1
        assert ir(path(7)).value == 3
        assert ir(cycle(6)).value == 2
        assert ir(path(4)).value == 2

    def test_against_oracle(self, corpus_by_order):
        for n in range(1, 7):
            for line, g in corpus_by_order[n]:
                res = ir(g)
                size, brute = oracles.brute_ir(g)
                assert res.value == size, line
                assert res.witness == brute
                assert is_maximal_irredundant(g, res.witness)

    def test_ir_at_most_gamma(self, corpus_by_order):
        for line, g in corpus_by_order[7][:200]:
            assert ir(g).value <= gamma(g).value

    def test_order_cap(self):
        big = complete(33)
        with pytest.raises(SizeCapError, match=r"n=33 exceeds cap 32; pass force=True$"):
            ir(big)
        assert ir(big, force=True).value == 1

    def test_five_thirds_instance(self):
        inst = gen_five_thirds()
        assert ir(inst.graph).value == 6
        assert gamma(inst.graph).value == 10

    def test_trees_strict_bound(self):
        for n in range(2, 10):
            for t in connected_trees(n):
                edges = [tuple(sorted(e)) for e in t.edges()]
                g = Graph(n, edges)
                assert 2 * gamma(g).value < 3 * ir(g).value


class TestIrInPlace:
    """The ir search that picks its last member in place, against the search
    it replaced, past the orders the brute-force oracle reaches."""

    @staticmethod
    def assert_matches_reference(g):
        got = ir(g)
        ref = reference_ir(g)
        assert (got.value, got.witness) == (ref.value, ref.witness), encode_graph6(g)

    def test_matches_reference_gnm(self):
        rng = random.Random(6006)
        for n in range(9, 21):
            for _ in range(8):
                m = rng.randint(n, 3 * n)
                self.assert_matches_reference(random_gnm(n, m, rng))

    def test_matches_reference_unit_disk(self):
        rng = random.Random(6007)
        for n in range(12, 21):
            for degree in (3.5, 4.5, 5.5, 6.5) * 2:
                self.assert_matches_reference(unit_disk(n, degree, rng))

    def test_seeded_n28(self):
        rng = random.Random(28)
        n = 28
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.15]
        res = ir(Graph(n, edges))
        assert (res.value, res.witness) == (6, (0, 4, 6, 7, 20, 22))


class TestIota:
    def test_known_values(self):
        assert iota(complete(5), 5).value == 1
        assert iota(cycle(6), 2).value == 2
        assert iota(path(7), 2).value == 2
        # triangle-free graph never holds a 3-clique
        res = iota(cycle(6), 3)
        assert res.value == 0 and res.witness == ()

    def test_iota_one_is_gamma(self, corpus_by_order):
        for line, g in corpus_by_order[6][:80]:
            assert iota(g, 1).value == gamma(g).value

    def test_against_oracle(self, corpus_by_order):
        for n in range(1, 7):
            for line, g in corpus_by_order[n]:
                for k in range(1, g.max_degree() + 2):
                    res = iota(g, k)
                    size, brute = oracles.brute_iota(g, k)
                    assert res.value == size, (line, k)
                    assert res.witness == brute
                    assert is_k_isolating(g, res.witness, k)

    def test_monotone_in_k(self, corpus_by_order):
        for line, g in corpus_by_order[7][:100]:
            delta = g.max_degree()
            vals = [iota(g, k).value for k in range(1, delta + 2)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            iota(path(3), 0)


class TestPrunedSearch:
    """The pruned isolation search against the unpruned search it replaced,
    past the orders the brute-force oracles reach."""

    @staticmethod
    def assert_matches_reference(g):
        for k in range(1, g.max_degree() + 2):
            got = _isolation_solve(g, k)
            ref = reference_isolation_solve(g, k)
            assert (got.value, got.witness) == (ref.value, ref.witness), (
                encode_graph6(g),
                k,
            )

    def test_matches_reference_gnm(self):
        rng = random.Random(3003)
        for n in range(9, 17):
            for _ in range(10):
                m = rng.randint(n, 3 * n)
                self.assert_matches_reference(random_gnm(n, m, rng))

    def test_matches_reference_unit_disk(self):
        rng = random.Random(3004)
        for n in range(14, 21):
            for degree in (4.5, 5.5, 6.5, 7.5) * 2:
                self.assert_matches_reference(unit_disk(n, degree, rng))

    def test_matches_reference_large_unit_disk(self):
        rng = random.Random(3005)
        for n in range(21, 35):
            for degree in (4.5, 5.5, 6.5, 7.5):
                self.assert_matches_reference(unit_disk(n, degree, rng))

    def test_prunes_below_reference(self):
        g = parse_graph6(CLIQUE_RICH_G6)
        explored = {}
        for k in (1, 2, 3):
            got = _isolation_solve(g, k)
            assert got.explored < reference_isolation_solve(g, k).explored
            explored[k] = got.explored
        # DFS node counts of the pruned search; they move whenever its rules
        # change. Without sibling exclusion k = 2 explores 122 nodes.
        assert explored == {1: 242, 2: 103, 3: 28}


class TestRelabelling:
    """gamma and iota_k are invariants: relabelling the vertices keeps every
    value, and the relabelled graph's witness still dominates or isolates at
    that size."""

    @staticmethod
    def assert_relabelling_keeps_values(g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        res = gamma(h)
        assert res.value == gamma(g).value, encode_graph6(g)
        assert is_dominating(h, res.witness) and len(res.witness) == res.value
        for k in range(2, g.max_degree() + 2):
            res = iota(h, k)
            assert res.value == iota(g, k).value, (encode_graph6(g), k)
            assert is_k_isolating(h, res.witness, k)
            assert len(res.witness) == res.value

    def test_corpus(self, corpus_by_order):
        rng = random.Random(4004)
        for line, g in rng.sample(corpus_by_order[8], 40):
            self.assert_relabelling_keeps_values(g, rng)

    def test_unit_disk(self):
        rng = random.Random(4005)
        for n in range(15, 25):
            for degree in (4.5, 6.5):
                self.assert_relabelling_keeps_values(unit_disk(n, degree, rng), rng)


class TestPackingBound:
    def test_greedy_on_disjoint_triangles(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        bound, cert = iota_lower_bound(g, 3)
        assert bound == 2
        assert len(cert.cliques) == 2
        assert iota(g, 3).value == 2

    def test_designated_validation(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        bound, cert = iota_lower_bound(g, 3, designated=[(0, 1, 2), (3, 4, 5)])
        assert bound == 2
        with pytest.raises(CertificateError):
            iota_lower_bound(g, 3, designated=[(0, 1, 3)])  # not a clique
        with pytest.raises(CertificateError):
            # shared closed neighborhood: both triangles touch vertex 2's edge
            iota_lower_bound(
                Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
                3,
                designated=[(0, 1, 2), (2, 3, 4)],
            )

    def test_bound_never_exceeds_optimum(self, corpus_by_order):
        for line, g in corpus_by_order[6][:80]:
            for k in (2, 3):
                bound, _ = iota_lower_bound(g, k)
                assert bound <= iota(g, k).value


class TestSolveResult:
    def test_explored_positive(self):
        res = gamma(path(5))
        assert res.explored > 0

    def test_witness_tuple_sorted(self):
        res = gamma(cycle(9))
        assert list(res.witness) == sorted(res.witness)
