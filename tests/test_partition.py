import random
from fractions import Fraction

import pytest

from isobound import (
    DichotomyError,
    Graph,
    MachineryError,
    PreconditionError,
    RegimeError,
    build_isolating_set,
    check_delta_regime,
    compute_partition,
    is_k_isolating,
    is_maximal_irredundant,
    parse_graph6,
    refine_pairs,
    refine_twins,
    representatives_dominate,
    undominated_witnesses,
)
from isobound import partition
from isobound.families import make_instance
from isobound.graph import bits, clique_table, mask_of
from isobound.harness import check_graph, random_maximal_irredundant
from isobound.solvers import ir

import oracles
from test_solvers import unit_disk


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
        assert part.nhat == 0
        assert part.pn == (0, 0b0001, 0b1000, 0)

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

    def test_failure_raises_again(self):
        for _ in range(2):
            with pytest.raises(PreconditionError):
                compute_partition(c6(), (0,))

    def test_equal_partitions_hash_equal(self, corpus_by_order):
        # a partition compares and hashes by every field, pn included, so
        # it can key a dict
        for line, g in corpus_by_order[6][:40]:
            isets = oracles.maximal_irredundant_sets(g)[:4]
            parts = [compute_partition(g, iset) for iset in isets]
            for iset, part in zip(isets, parts):
                again = compute_partition(g, reversed(iset))
                assert again == part and hash(again) == hash(part), line
            assert len(set(parts)) == len(parts), line

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
                    assert part.nhat.bit_count() == part.nset.bit_count()
                    assert part.nhat == mask_of(members(part.pn[x])[0] for x in bits(part.nset))
                    assert len(part.pn) == g.n
                    for x in range(g.n):
                        if x in iset:
                            assert part.pn[x], line
                            assert set(bits(part.pn[x])) == oracles.privates(g, iset, x), line
                        else:
                            assert part.pn[x] == 0, line
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
            for x in bits(part.m):
                assert (ref.mprime >> x & 1) == (part.pn[x].bit_count() == 2)
            assert ref.y == mask_of(members(part.pn[x])[0] for x in bits(ref.mprime))

    def test_qualifying_member_outside_the_anchors(self):
        # member 0 qualifies for the undominated vertex 9 but is no anchor,
        # and the undominated vertex 10 lies in a triangle that avoids P, so
        # the anchor check runs for 10 against member 0
        line = "N_ICC@F@o?I@SBGA@??"
        g = parse_graph6(line)
        assert (g.n, g.max_degree()) == (15, 4)
        iset = (0, 1, 2, 3, 4)
        assert ir(g).witness == iset
        part = compute_partition(g, iset)
        assert members(part.pn[0]) == (5, 6, 7) and not part.pn[0] & ~g.adj[9]
        assert members(part.b) == (0, 2)
        assert members(part.nset) == (2,) and members(part.m) == (0,)
        assert members(part.u) == (9, 10)
        triangle = mask_of((10, 11, 12))
        assert triangle in (c for c, _ in clique_table(g, 3))
        assert not triangle & part.p
        ref = refine_pairs(g, part)
        assert ref.mprime == 0
        rec = check_graph(line)
        assert rec["failures"] == [], rec["failures"]


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


def reference_twin_clusters(cliques, k):
    """The clustering of refine_twins before clusters were merged as masks:
    a union-find over the indices of intersecting cliques, then one cluster
    per group. Kept as the reference that refine_twins' clusters,
    isolated_count, twin_count and x must match."""
    cmasks = [mask_of(c) for c in cliques]
    parent = list(range(len(cliques)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for ia in range(len(cliques)):
        for ib in range(ia + 1, len(cliques)):
            if cmasks[ia] & cmasks[ib]:
                ra, rb = find(ia), find(ib)
                if ra != rb:
                    parent[rb] = ra

    groups = {}
    for idx in range(len(cliques)):
        groups.setdefault(find(idx), []).append(idx)
    clusters = []
    isolated_count = 0
    twin_count = 0
    for idxs in groups.values():
        union = 0
        for idx in idxs:
            union |= cmasks[idx]
        size = union.bit_count()
        if size == k:
            isolated_count += 1
        elif size == k + 1:
            twin_count += 1
        else:
            raise DichotomyError(
                f"clique cluster on {size} vertices is neither a single clique nor a twin"
            )
        clusters.append(tuple(bits(union)))
    clusters.sort()
    return tuple(clusters), isolated_count, twin_count, mask_of(c[0] for c in clusters)


class TestTwinClusters:
    """refine_twins' clusters against reference_twin_clusters."""

    @staticmethod
    def assert_matches_reference(g, iset):
        ref = refine_twins(g, compute_partition(g, iset))
        got = (ref.clusters, ref.isolated_count, ref.twin_count, ref.x)
        assert got == reference_twin_clusters(ref.cliques, g.max_degree() - 2), iset
        return ref

    def test_corpus_sets(self, corpus_by_order):
        # every maximal irredundant set of n <= 7: isolated clusters only
        calls = isolated = twins = 0
        for n in range(4, 8):
            for line, g in corpus_by_order[n]:
                if g.max_degree() < 3:
                    continue
                for iset in oracles.maximal_irredundant_sets(g):
                    ref = self.assert_matches_reference(g, iset)
                    calls += 1
                    isolated += ref.isolated_count
                    twins += ref.twin_count
        assert (calls, isolated, twins) == (10820, 227, 0)

    @pytest.mark.parametrize(
        "name, params, twins",
        [("Gkl", {"k": 6, "l": 3}, 3), ("Hksl", {"k": 8, "s": 6}, 13)],
    )
    def test_family_witnesses_have_twins(self, name, params, twins):
        inst = make_instance(name, params)
        ref = self.assert_matches_reference(inst.graph, inst.witness_irredundant)
        assert ref.twin_count == twins

    def test_twin_cluster_off_the_families(self):
        # a graph no family builds, found by a seeded random search: the two
        # shared-zone cliques meet in vertex 10 and merge into one cluster
        g = parse_graph6("L?oOCWO?QOgFW?")
        iset = (1, 5, 6, 7, 11)
        ref = self.assert_matches_reference(g, iset)
        assert (g.n, g.max_degree()) == (13, 4)
        assert ref.cliques == ((4, 10), (9, 10)) and ref.clusters == ((4, 9, 10),)
        assert (ref.twin_count, list(bits(ref.x))) == (1, [4])
        cert = build_isolating_set(g, compute_partition(g, iset), 2)
        assert (cert.regime, len(cert.t), cert.bound) == ("delta_minus_2", 6, Fraction(15, 2))
        assert cert.satisfied and is_k_isolating(g, cert.t, 2)

    def test_seeded_unit_disk(self):
        # sparse enough that Delta - 2 stays small and some cliques fit
        # inside the shared zone
        rng = random.Random(5)
        calls = isolated = twins = 0
        for _ in range(600):
            g = unit_disk(rng.randint(8, 20), rng.uniform(2.0, 4.5), rng)
            if g.max_degree() < 3:
                continue
            for _ in range(3):
                ref = self.assert_matches_reference(g, random_maximal_irredundant(g, rng))
                calls += 1
                isolated += ref.isolated_count
                twins += ref.twin_count
        assert (calls, isolated, twins) == (1800, 26, 0)


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
    """The per-set pieces all read one partition of the set."""

    def test_low_degree_refinements_raise(self):
        # C6 has Delta = 2: the delta regime and the pair refinement take the
        # partition, and the twin refinement, which needs Delta >= 3, rejects it
        g = c6()
        part = compute_partition(g, (0, 3))
        assert check_delta_regime(g, part) is True
        refine_pairs(g, part)
        with pytest.raises(RegimeError):
            refine_twins(g, part)


def outcome(fn, *args):
    """What fn(*args) returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestReferenceCrossCheck:
    """compute_partition, refine_pairs and refine_twins give the whole
    records of their reference copies in oracles, or raise the same
    exception with the same message."""

    @staticmethod
    def assert_matches_reference(g, iset):
        """Cross-check the set's partition and both refinements; the type
        compute_partition raised, or None."""
        part = outcome(compute_partition, g, iset)
        assert part == outcome(oracles.compute_partition, g, iset), iset
        if not isinstance(part, partition.IrredundancePartition):
            return part[0]
        for new, ref in (
            (refine_pairs, oracles.refine_pairs),
            (refine_twins, oracles.refine_twins),
        ):
            assert outcome(new, g, part) == outcome(ref, g, part), iset
        return None

    def test_corpus_sets(self, corpus_by_order):
        # every maximal irredundant set of the graphs on up to 6 vertices;
        # an edgeless or low-degree graph gets the same RegimeError
        sets = raised = 0
        for n in range(1, 7):
            for line, g in corpus_by_order[n]:
                for iset in oracles.maximal_irredundant_sets(g):
                    raised += self.assert_matches_reference(g, iset) is not None
                    sets += 1
        assert (sets, raised) == (1039, 0)

    def test_seeded_unit_disk(self):
        rng = random.Random(23)
        for _ in range(100):
            g = unit_disk(rng.randint(12, 20), rng.uniform(2.0, 5.0), rng)
            for _ in range(3):
                assert self.assert_matches_reference(g, random_maximal_irredundant(g, rng)) is None

    def test_non_maximal_sets(self, corpus_by_order):
        # a maximal irredundant set less a member, and a redundant set, on
        # both sides raise PreconditionError with one message
        rng = random.Random(7)
        for line, g in corpus_by_order[6][::10]:
            iset = random_maximal_irredundant(g, rng)
            for bad in (iset[1:], tuple(range(g.n))):
                if is_maximal_irredundant(g, bad):
                    continue
                assert self.assert_matches_reference(g, bad) is PreconditionError, line
        assert self.assert_matches_reference(c6(), (0,)) is PreconditionError
        assert self.assert_matches_reference(p4(), (0, 1, 2)) is PreconditionError

    def test_members_with_three_or_more_private_neighbors(self):
        # no set of the two tests above puts such a member in m: found among
        # seeded random maximal irredundant sets of the 7- and 8-vertex graphs
        g = parse_graph6("FsXvg")
        ref = refine_twins(g, compute_partition(g, (2, 4)))
        assert ref.mdouble and not ref.mbar
        assert self.assert_matches_reference(g, (2, 4)) is None
        g = parse_graph6("GsXvng")
        ref = refine_twins(g, compute_partition(g, (2, 4)))
        assert ref.mbar and not ref.mdouble
        assert self.assert_matches_reference(g, (2, 4)) is None

    @pytest.mark.parametrize("name, params", [("Gkl", {"k": 6, "l": 3}), ("Hksl", {"k": 8, "s": 6})])
    def test_family_witnesses(self, name, params):
        # the only inputs known to reach s >= 1 and a twin merge
        inst = make_instance(name, params)
        g, iset = inst.graph, inst.witness_irredundant
        assert self.assert_matches_reference(g, iset) is None
        part = compute_partition(g, iset)
        assert refine_pairs(g, part).s_param >= 1 and refine_twins(g, part).twin_count >= 1


class TestMachineryGuard:
    def test_machinery_error_is_runtime_error(self):
        assert issubclass(MachineryError, RuntimeError)
