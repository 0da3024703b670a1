import pytest

from isobound import (
    Graph,
    MachineryError,
    PreconditionError,
    RegimeError,
    SetMachinery,
    check_delta_regime,
    compute_partition,
    is_maximal_irredundant,
    refine_pairs,
    refine_twins,
    representatives_dominate,
    undominated_witnesses,
)
from isobound import partition
from isobound.graph import bits, mask_of

import oracles


def p4():
    return Graph(4, [(0, 1), (1, 2), (2, 3)])


def c6():
    return Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])


def complete(n):
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def members(mask):
    return tuple(bits(mask))


def assert_split(whole, *parts):
    """The part masks are pairwise disjoint and their union is whole."""
    union = 0
    for part in parts:
        assert not part & union
        union |= part
    assert union == whole


class TestComputePartition:
    def test_path_example(self):
        part = compute_partition(p4(), (1, 2))
        assert members(part.i) == (1, 2)
        assert members(part.u) == ()
        assert members(part.p) == (0, 3)
        assert members(part.s) == ()
        assert members(part.z) == ()
        assert members(part.a) == (1, 2)
        assert members(part.q) == (1, 2)
        assert members(part.b) == ()
        assert members(part.nset) == () and members(part.m) == ()
        assert part.nhat == () and part.nhat_mask == 0
        assert part.pn == {1: 0b0001, 2: 0b1000}

    def test_cycle_isolated_members(self):
        part = compute_partition(c6(), (0, 3))
        assert members(part.z) == (0, 3)
        assert members(part.a) == ()
        assert members(part.p) == (1, 2, 4, 5)
        assert members(part.u) == () and members(part.s) == ()
        assert members(part.pn[0]) == (0, 1, 5)

    def test_complete_graph(self):
        part = compute_partition(complete(4), (0,))
        assert members(part.i) == (0,)
        assert members(part.z) == (0,)
        assert members(part.p) == (1, 2, 3)
        assert members(part.u) == () and members(part.s) == ()

    def test_rejects_non_maximal(self):
        with pytest.raises(PreconditionError):
            compute_partition(c6(), (0,))

    def test_rejects_redundant(self):
        with pytest.raises(PreconditionError):
            compute_partition(p4(), (0, 1, 2))

    def test_exhaustive_invariants(self, corpus_by_order):
        for n in (2, 3, 4, 5, 6):
            for line, g in corpus_by_order[n]:
                for iset in oracles.maximal_irredundant_sets(g):
                    part = compute_partition(g, iset)
                    assert members(part.i) == tuple(iset), line
                    assert_split(g.full, part.i, part.u, part.p, part.s)
                    assert_split(part.i, part.z, part.a)
                    assert_split(part.a, part.b, part.q)
                    assert_split(part.b, part.nset, part.m)
                    assert len(part.nhat) == part.nset.bit_count()
                    assert part.nhat_mask == mask_of(part.nhat)
                    assert list(part.pn) == list(iset)
                    for x in iset:
                        assert set(bits(part.pn[x])) == oracles.privates(g, iset, x), line
                    for v in bits(part.s):
                        hits = sum(1 for y in iset if g.has_edge(v, y))
                        assert hits >= 2
                    if part.u:
                        assert part.b, line


class TestUndominatedWitnesses:
    def test_empty_when_dominating(self):
        assert undominated_witnesses(p4(), compute_partition(p4(), (1, 2))) == ()

    def test_witness_structure_exhaustive(self, corpus_by_order):
        for n in (4, 5, 6):
            for line, g in corpus_by_order[n]:
                for iset in oracles.maximal_irredundant_sets(g):
                    part = compute_partition(g, iset)
                    wits = undominated_witnesses(g, part)
                    assert len(wits) == part.u.bit_count()
                    for wit in wits:
                        assert part.u >> wit.u & 1
                        assert part.b >> wit.x & 1
                        # the designated member's privates sit in N(u)
                        assert set(bits(part.pn[wit.x])) <= oracles.nbrs(g, wit.u)
                        for x1, x2, y1, y2 in wit.pairs:
                            assert x1 < x2
                            assert not g.has_edge(x1, x2)
                            assert {x1, x2} <= set(bits(part.pn[wit.x]))

    def test_representatives_dominate_exhaustive(self, corpus_by_order):
        for n in (4, 5, 6):
            for line, g in corpus_by_order[n]:
                for iset in oracles.maximal_irredundant_sets(g):
                    part = compute_partition(g, iset)
                    assert representatives_dominate(g, part), line


class TestDeltaRegime:
    def test_reads_the_cliques_of_order_delta(self, monkeypatch):
        # the check takes k from the graph: at Delta = 2 it reads the edges
        asked = []
        real = partition.clique_table

        def recording(g, k):
            asked.append(k)
            return real(g, k)

        monkeypatch.setattr(partition, "clique_table", recording)
        assert check_delta_regime(p4(), compute_partition(p4(), (1, 2))) is True
        assert asked == [2]

    def test_edgeless_rejected(self):
        g = Graph(3, [])
        part = compute_partition(g, (0, 1, 2))
        with pytest.raises(RegimeError, match="needs delta >= 1, got delta=0"):
            check_delta_regime(g, part)

    def test_exhaustive_clean(self, corpus_by_order):
        for n in (2, 3, 4, 5, 6):
            for line, g in corpus_by_order[n]:
                for iset in oracles.maximal_irredundant_sets(g):
                    part = compute_partition(g, iset)
                    check_delta_regime(g, part)


class TestRefinePairs:
    def test_low_degree_rejected(self):
        g = Graph(2, [(0, 1)])
        part = compute_partition(g, (0,))
        with pytest.raises(RegimeError):
            refine_pairs(g, part)  # delta is 1

    def test_readings_agree_exhaustive(self, corpus_by_order):
        # sprime is read as "no i-neighbor outside nset and mprime"; the
        # other documented reading, "no neighbor in mtilde, q or z", must
        # give the same set
        for n in (3, 4, 5, 6):
            for line, g in corpus_by_order[n]:
                delta = g.max_degree()
                if delta < 2:
                    continue
                for iset in oracles.maximal_irredundant_sets(g):
                    part = compute_partition(g, iset)
                    ref = refine_pairs(g, part)
                    rest = ref.mtilde | part.q | part.z
                    via_g = mask_of(v for v in bits(part.s) if not g.adj[v] & rest)
                    assert ref.sprime == via_g, line
                    assert 0 <= ref.s_param <= max(0, delta - 2)
                    if ref.s_param == 0:
                        assert ref.x == 0

    def test_pair_fields(self, corpus_by_order):
        for line, g in corpus_by_order[6][:60]:
            delta = g.max_degree()
            if delta < 2:
                continue
            from isobound.solvers import ir

            iset = ir(g).witness
            part = compute_partition(g, iset)
            ref = refine_pairs(g, part)
            assert_split(part.m, ref.mprime, ref.mtilde)
            assert [x for x, _, _ in ref.pairs] == list(bits(ref.mprime))
            for x, lo, hi in ref.pairs:
                assert lo < hi
                assert members(part.pn[x]) == (lo, hi)
            assert ref.y == mask_of(lo for _, lo, _ in ref.pairs)
            assert ref.w == mask_of(hi for _, _, hi in ref.pairs)


class TestRefineTwins:
    def test_reads_the_cliques_of_order_delta_minus_2(self):
        # K4 has Delta = 3, so the twin regime is k = 1: the cliques are the
        # single vertices of the shared zone, which {0} leaves empty
        g = complete(4)
        ref = refine_twins(g, compute_partition(g, (0,)))
        assert ref.cliques == () and ref.x == 0
        g = Graph(5, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4)])  # Delta = 3
        ref = refine_twins(g, compute_partition(g, (0, 1)))
        assert ref.cliques == ((4,),) and ref.x == 1 << 4

    def test_low_degree_rejected(self):
        g = c6()
        part = compute_partition(g, (0, 3))
        with pytest.raises(RegimeError):
            refine_twins(g, part)

    def test_exhaustive_clean(self, corpus_by_order):
        for n in (4, 5, 6):
            for line, g in corpus_by_order[n]:
                delta = g.max_degree()
                if delta < 3:
                    continue
                for iset in oracles.maximal_irredundant_sets(g):
                    part = compute_partition(g, iset)
                    ref = refine_twins(g, part)
                    assert_split(part.m, ref.mprime, ref.mdouble, ref.mbar)
                    assert_split(part.q, ref.qprime, ref.qtilde)
                    assert ref.isolated_count + ref.twin_count == len(ref.clusters)
                    assert ref.x == mask_of(c[0] for c in ref.clusters)
                    pair_members = ref.mprime | ref.mdouble
                    assert ref.mhat.bit_count() == pair_members.bit_count()
                    assert ref.qhat.bit_count() == ref.qprime.bit_count()


class TestRefinementCliques:
    def test_cliques_are_the_zone_cliques(self, corpus_by_order):
        # each refinement keeps the k-cliques of the whole graph that lie
        # inside its zone, in lex order
        for n in (3, 4, 5, 6):
            for line, g in corpus_by_order[n]:
                delta = g.max_degree()
                if delta < 2:
                    continue
                for iset in oracles.maximal_irredundant_sets(g):
                    part = compute_partition(g, iset)
                    pairs = refine_pairs(g, part)
                    zones = [(pairs.cliques, pairs.sprime, delta - 1)]
                    if delta >= 3:
                        twins = refine_twins(g, part)
                        zones.append((twins.cliques, twins.sdouble, delta - 2))
                    for cliques, zone, k in zones:
                        inside = set(bits(zone))
                        want = [c for c in oracles.all_k_cliques(g, k) if set(c) <= inside]
                        assert cliques == tuple(want), line


class TestSetMachinery:
    def test_pieces_match_direct_calls(self, corpus_by_order):
        for line, g in corpus_by_order[6][:40]:
            for iset in oracles.maximal_irredundant_sets(g)[:4]:
                mach = SetMachinery(g, reversed(iset))
                part = compute_partition(g, iset)
                assert mach.i == tuple(iset)
                assert mach.delta == g.max_degree()
                assert mach.partition == part
                assert mach.partition is mach.partition

    def test_failure_is_not_kept(self):
        mach = SetMachinery(c6(), (0,))
        for _ in range(2):
            with pytest.raises(PreconditionError):
                mach.partition

    def test_low_degree_refinements_raise(self):
        mach = SetMachinery(c6(), (0, 3))
        with pytest.raises(RegimeError):
            refine_twins(mach.g, mach.partition)


class TestMachineryGuard:
    def test_machinery_error_is_runtime_error(self):
        assert issubclass(MachineryError, RuntimeError)
