import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isobound import (
    BoundCertificate,
    CertificateError,
    Graph,
    GraphClass,
    PairRefinement,
    ParameterError,
    SizeCapError,
    TwinRefinement,
    build_isolating_set,
    check_graph,
    classify,
    compute_partition,
    encode_graph6,
    gamma,
    iota,
    iota_lower_bound,
    ir,
    is_dominating,
    is_k_isolating,
    is_maximal_irredundant,
    packing_bound,
    parse_graph6,
    refine_pairs,
    refine_twins,
    solvers,
)
from isobound.families import gen_five_thirds, gen_Gkl, gen_Hksl
from isobound.graph import bits, clique_table, closed_mask, components, isolation_covers, mask_of
from isobound.predicates import irredundant_extension, is_k_isolating_mask
from isobound.solvers import SolveResult, _ir_search, _isolation_solve, _minimal_targets

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


def candidate_mask(g):
    """The vertices a with no neighbour b < a whose closed neighbourhood
    holds N[a], by the definition."""
    return mask_of(
        a
        for a in range(g.n)
        if not any(g.has_edge(a, b) and not g.clo[a] & ~g.clo[b] for b in range(a))
    )


def full_target_isolation_solve(g, k, cand=None):
    """The isolation search over every k-clique target, before the targets
    whose cover holds another's were dropped. It searches the vertices of
    `cand` only, with each cover cut down to them: by default the candidate
    vertices, as the reduced search does, and every vertex with g.full.
    Kept as the reference the reduced search must agree with, node counts
    included."""
    if cand is None:
        cand = candidate_mask(g)
    targets = sorted(
        ((vmask, cover & cand) for vmask, cover in clique_table(g, k)),
        key=lambda t: t[1].bit_count(),
    )
    explored = [0]
    if not targets:
        return SolveResult(0, (), 0)

    def dfs(budget, covered, allowed):
        # A set of exactly `budget` vertices of `allowed` that kills every
        # target not yet killed by `covered`, as a mask, or None if there is
        # none (a success at budget 0 is the mask 0).
        explored[0] += 1
        best_cando = None
        best_size = None
        packed = 0
        used = 0
        for vmask, cover in targets:
            if vmask & covered:
                continue
            cando = cover & allowed
            size = cando.bit_count()
            if size == 0:
                return None
            # Live targets with pairwise disjoint candidate sets each need
            # their own vertex, so packing more than `budget` of them proves
            # the node infeasible (this also covers budget == 0).
            if not cando & used:
                used |= cando
                packed += 1
                if packed > budget:
                    return None
            if best_size is None or size < best_size:
                best_cando, best_size = cando, size
                if size == 1:
                    break
        if best_cando is None:
            # nothing left to kill; pad with the lowest allowed vertices
            if allowed.bit_count() < budget:
                return None
            pad = 0
            for _ in range(budget):
                low = allowed & -allowed
                pad |= low
                allowed ^= low
            return pad
        # Sibling exclusion: a solution holding v lies in v's branch, whose
        # `allowed` only shrinks below it, so later siblings may drop v.
        for v in bits(best_cando):
            bit = 1 << v
            allowed &= ~bit
            found = dfs(budget - 1, covered | g.clo[v], allowed)
            if found is not None:
                return found | bit
        return None

    # no separate lower bound: the packing at each node cuts too-small sizes
    for value in range(g.n + 1):
        known = dfs(value, 0, cand)
        if known is not None:
            break
    assert known is not None, "the full vertex set is always isolating"
    # The lex-least witness, one vertex per position. `known` is a solution
    # holding the prefix, with the rest above the prefix's last vertex, so
    # its lowest vertex past the prefix, nxt, is a feasible next vertex: only
    # the vertices below nxt are searched, and the first that extends is the
    # next witness vertex, with its solution as the new `known`.
    witness = []
    prefix = 0
    covered = 0
    start = 0
    for _ in range(value):
        rest = known & ~prefix
        nxt = (rest & -rest).bit_length() - 1
        budget = value - len(witness) - 1
        for v in range(start, nxt):
            if not cand >> v & 1:
                continue
            found = dfs(budget, covered | g.clo[v], cand >> (v + 1) << (v + 1))
            if found is not None:
                known = prefix | found | (1 << v)
                nxt = v
                break
        prefix |= 1 << nxt
        covered |= g.clo[nxt]
        witness.append(nxt)
        start = nxt + 1
    assert is_k_isolating_mask(g, prefix, k)
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


def reference_ir_search(g):
    """The ir kernel before the carried-extender refutation: every candidate
    last member that passes the irredundance test gets the full maximality
    scan. Kept verbatim as the reference that _ir_search must match in
    value, witness and `explored`."""
    if g.n == 0:
        return SolveResult(0, (), 0)
    n = g.n
    clo = g.clo
    full = g.full
    explored = [0]

    def dfs(start, smask, pns, union_closed, need):
        explored[0] += 1
        if need == 1:
            return reference_last_member(clo, full, start, smask, pns, union_closed)
        for u in range(start, n - need + 1):
            cu = clo[u]
            pn_u = cu & ~union_closed
            if not pn_u:
                continue
            new_pns = []
            for pn in pns:
                pn &= ~cu
                if not pn:
                    break
                new_pns.append(pn)
            else:
                new_pns.append(pn_u)
                found = dfs(u + 1, smask | (1 << u), new_pns, union_closed | cu, need - 1)
                if found:
                    return found
        return 0

    for size in range(1, n + 1):
        found = dfs(0, 0, [], 0, size)
        if found:
            dfs = None  # frees the search state now, as in _isolation_solve
            return SolveResult(size, tuple(bits(found)), explored[0])
    raise AssertionError("every nonempty graph has a maximal irredundant set")


def reference_last_member(clo, full, start, smask, pns, union_closed):
    """The mask of S + u for the lowest u >= start with S + u maximal
    irredundant, or 0 when there is none.

    smask is the irredundant set S and (pns, union_closed) its state. S + u
    keeps the private neighbourhoods pn & ~N[u] of S and gives u the part of
    N[u] outside N[S]; an outside vertex w extends S + u exactly when N[w]
    reaches outside N[S + u] and none of those neighbourhoods fits inside
    N[w].
    """
    for u in range(start, len(clo)):
        cu = clo[u]
        pn_u = cu & ~union_closed
        if not pn_u:
            continue
        for pn in pns:
            if not pn & ~cu:
                break
        else:
            free = full & ~(union_closed | cu)
            rest = full & ~(smask | 1 << u)
            while rest:
                b = rest & -rest
                rest ^= b
                cw = clo[b.bit_length() - 1]
                if not cw & free or not pn_u & ~cw:
                    continue
                for pn in pns:
                    if not pn & ~(cu | cw):
                        break
                else:
                    break  # w extends S + u
            else:
                return smask | 1 << u
    return 0


def planted_dominance(n, rng):
    """A seeded graph on n vertices in which many vertices have a neighbour
    whose closed neighbourhood holds theirs.

    A random core on a few vertices comes first. Each further vertex a joins
    one earlier vertex b as a pendant (N[a] = {a, b}), as a true twin
    (N[a] = N[b]) or nested (b and a random part of N(b)). Later vertices
    may break an earlier containment. The labels are then shuffled, so the
    vertex b that holds N[a] lands below a in some graphs and above it in
    others.
    """
    core = rng.randint(2, max(2, n // 2))
    nbrs = [set() for _ in range(n)]
    for u, v in combinations(range(core), 2):
        if rng.random() < 0.5:
            nbrs[u].add(v)
            nbrs[v].add(u)
    for a in range(core, n):
        b = rng.randrange(a)
        kind = rng.choice(("pendant", "twin", "nested"))
        join = {b}
        if kind == "twin":
            join |= nbrs[b]
        elif kind == "nested":
            join |= {x for x in nbrs[b] if rng.random() < 0.5}
        for x in join:
            nbrs[a].add(x)
            nbrs[x].add(a)
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[u], label[v]) for u in range(n) for v in nbrs[u] if u < v])


def random_gnp(n, p, rng):
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


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
        # the lower end of the domination chain: a minimal dominating set is
        # maximal irredundant
        for n in range(1, 8):
            for line, g in corpus_by_order[n]:
                assert ir(g).value <= gamma(g).value, line
        rng = random.Random(3008)
        for i in range(40):
            g = random_gnp(9 + i % 8, rng.uniform(0.1, 0.6), rng)
            assert ir(g).value <= gamma(g).value, encode_graph6(g)

    def test_order_cap(self):
        big = complete(33)
        with pytest.raises(SizeCapError, match=r"^ir solve on n=33 exceeds cap 32$"):
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
        assert res == (6, (0, 4, 6, 7, 20, 22), 24936)


def assert_matches_reference_search(g):
    """_ir_search against reference_ir_search on each component of g (the
    kernel is meant for one component at a time; an edgeless part of a
    dozen vertices would take it exponentially long)."""
    for part in components(g):
        sub = g.induced(part)[0]
        assert _ir_search(sub) == reference_ir_search(sub), encode_graph6(sub)


@st.composite
def gnp_graphs(draw):
    """G(n, p) with n = 9..16, the density of the ir benchmark and above."""
    n = draw(st.integers(9, 16))
    p = draw(st.sampled_from((0.2, 0.3, 0.45)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_gnp(n, p, rng)


class TestCarriedExtender:
    """The last-member scan refutes a candidate with the last extender it
    found before it runs the full scan. A refuted candidate is one the full
    scan rejects, so the search, its witness and `explored` are those of
    the kernel without the refutation."""

    def test_corpus(self, corpus_lines):
        for line in corpus_lines:
            g = parse_graph6(line)
            assert _ir_search(g) == reference_ir_search(g), line

    def test_seeded_gnm(self):
        rng = random.Random(6008)
        for n in range(9, 25):
            for _ in range(3):
                assert_matches_reference_search(random_gnm(n, rng.randint(n, 3 * n), rng))

    def test_seeded_unit_disk(self):
        rng = random.Random(6009)
        for n in range(12, 25):
            for degree in (3.5, 5.0, 6.5):
                assert_matches_reference_search(unit_disk(n, degree, rng))

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(gnp_graphs())
    def test_fuzz(self, g):
        assert_matches_reference_search(g)


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
        # change. Without sibling exclusion k = 3 explores 29 nodes, and
        # before the search kept to the candidate vertices it explored
        # {1: 242, 2: 103, 3: 28}.
        assert explored == {1: 81, 2: 97, 3: 23}


class TestMinimalTargets:
    """The search over the inclusion-minimal covers against the search over
    every clique: a cover holding another's is never live alone, is never
    packed and is never the fewest-candidates branch, so the DFS tree and
    with it every result, node counts included, stay the same."""

    @staticmethod
    def assert_matches_full_targets(g):
        for k in range(1, g.max_degree() + 2):
            assert _isolation_solve(g, k) == full_target_isolation_solve(g, k), (
                encode_graph6(g),
                k,
            )

    def test_corpus_every_k(self, corpus_by_order):
        for n in range(1, 8):
            for _, g in corpus_by_order[n]:
                self.assert_matches_full_targets(g)

    def test_unit_disk_every_k(self):
        rng = random.Random(3006)
        for n in range(30, 37):
            for degree in (5.0, 6.0, 7.0, 8.0) * 2:
                self.assert_matches_full_targets(unit_disk(n, degree, rng))

    def test_kept_rows_are_the_minimal_covers(self):
        # the rule as stated: all covers cut down to the candidates, by
        # ascending size, stable, each kept unless a kept cover lies inside it
        def reference(covers, candidates):
            kept = []
            for cover in sorted((c & candidates for c in covers), key=int.bit_count):
                if all(smaller & ~cover for smaller in kept):
                    kept.append(cover)
            return kept

        rng = random.Random(3007)
        for n in range(12, 30, 3):
            g = unit_disk(n, 6.0, rng)
            for k in range(1, g.max_degree() + 2):
                covers = [cover for _, cover in clique_table(g, k)]
                for candidates in (g.full, candidate_mask(g)):
                    assert _minimal_targets(covers, candidates) == reference(
                        covers, candidates
                    ), (encode_graph6(g), k)


class TestCandidateMask:
    """The search keeps to the vertices a with no neighbour b < a whose
    closed neighbourhood holds N[a]. Checked apart from the tree: against
    the same search over every vertex, against the brute-force oracles, and
    by what the rule promises of witnesses and covers."""

    @staticmethod
    def planted(seed, orders, per_order):
        rng = random.Random(seed)
        return [planted_dominance(n, rng) for n in orders for _ in range(per_order)]

    def test_planted_graphs_have_both_orders(self):
        # the dominating vertex lies below the dominated one in some pairs
        # (the rule drops the dominated one) and above it in others
        below = above = 0
        for g in self.planted(4200, range(5, 25), 10):
            for a in range(g.n):
                for b in bits(g.adj[a]):
                    if not g.clo[a] & ~g.clo[b]:
                        if b < a:
                            below += 1
                        else:
                            above += 1
        assert below > 100 and above > 100

    def test_matches_the_search_over_every_vertex(self):
        for g in self.planted(4201, range(5, 25), 10):
            for k in range(1, g.max_degree() + 2):
                got = _isolation_solve(g, k)
                ref = full_target_isolation_solve(g, k, g.full)
                assert (got.value, got.witness) == (ref.value, ref.witness), (
                    encode_graph6(g),
                    k,
                )

    def test_matches_the_oracles(self):
        for g in self.planted(4202, range(3, 11), 6):
            for k in range(1, g.max_degree() + 2):
                got = _isolation_solve(g, k)
                assert (got.value, got.witness) == oracles.brute_iota(g, k), (
                    encode_graph6(g),
                    k,
                )

    def test_witnesses_and_covers_keep_to_the_candidates(self):
        graphs = self.planted(4203, range(5, 25), 10)
        rng = random.Random(4204)
        graphs += [unit_disk(n, 6.0, rng) for n in range(20, 31)]
        for g in graphs:
            cand = candidate_mask(g)
            for k in range(1, g.max_degree() + 2):
                assert isolation_covers(g, k)[0] == cand, encode_graph6(g)
                assert not mask_of(_isolation_solve(g, k).witness) & ~cand, (
                    encode_graph6(g),
                    k,
                )
                for _, cover in clique_table(g, k):
                    assert cover & cand, (encode_graph6(g), k)

    def test_gkl_6_3_gamma(self):
        # before the rule this search took 9.6M nodes
        g = gen_Gkl(6, 3).graph
        got = gamma(g)
        assert got.value == 12
        assert len(got.witness) == 12 and is_dominating(g, got.witness)
        assert got.explored < 1000

    def test_hksl_8_6_gamma_finishes(self):
        # no value is pinned: nothing apart from this search confirms one
        g = gen_Hksl(8, 6).graph
        got = gamma(g)
        packing, _ = iota_lower_bound(g, 1)
        assert packing == 35
        assert len(got.witness) == got.value >= packing
        assert is_dominating(g, got.witness)


# The theorem checks of a verify record, which depend only on the graph's
# invariants and class, never on its labelling
THEOREM_CHECKS = (
    "roundtrip", "iota1_is_gamma", "iota_monotone", "gamma_lt_2ir",
    "iota_le_ir_at_delta", "iota_le_ir_above_delta", "ratio_bound_below_delta",
    "three_halves_two_below", "delta3_gamma_3_2", "tree_strict_3_2",
    "cactus_8_5", "clawfree_3_2",
)


def theorem_checks(g):
    checks = check_graph(encode_graph6(g))["checks"]
    return {name: ok for name, ok in checks.items() if name in THEOREM_CHECKS}


class TestRelabelling:
    """gamma, ir and iota_k are invariants: relabelling the vertices keeps
    every value, and the relabelled graph's witness still dominates, is
    maximal irredundant or isolates at that size."""

    @staticmethod
    def assert_relabelling_keeps_values(g, rng):
        """Checks one seeded relabelling of g and returns the relabelled graph."""
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        res = gamma(h)
        assert res.value == gamma(g).value, encode_graph6(g)
        assert is_dominating(h, res.witness) and len(res.witness) == res.value
        res, before = ir(h), ir(g)
        assert res.value == before.value, encode_graph6(g)
        assert is_maximal_irredundant(h, res.witness) and len(res.witness) == res.value
        assert is_maximal_irredundant(h, [perm[v] for v in before.witness])
        for k in range(2, g.max_degree() + 2):
            res = iota(h, k)
            assert res.value == iota(g, k).value, (encode_graph6(g), k)
            assert is_k_isolating(h, res.witness, k)
            assert len(res.witness) == res.value
        return h

    def test_corpus(self, corpus_by_order):
        rng = random.Random(4004)
        for line, g in rng.sample(corpus_by_order[8], 40):
            h = self.assert_relabelling_keeps_values(g, rng)
            assert theorem_checks(h) == theorem_checks(g), line

    def test_unit_disk(self):
        rng = random.Random(4005)
        for n in range(15, 25):
            for degree in (4.5, 6.5):
                self.assert_relabelling_keeps_values(unit_disk(n, degree, rng), rng)


def disjoint_union(a, b):
    """a on vertices 0..a.n-1 and b shifted onto the next b.n vertices."""
    return Graph(a.n + b.n, list(a.edges()) + [(u + a.n, v + a.n) for u, v in b.edges()])


class TestDisjointUnion:
    """gamma, ir and iota_k add over a disjoint union, and each lex-least
    witness of the union is the parts' witnesses side by side. Every vertex
    of the first part sorts below the second, and its witness has the same
    size in every optimum, so it decides the lex order first. ir splits
    its input into components, so the union is solved here by the kernel
    in one search: the relation is what makes that split exact."""

    def test_corpus_pairs(self, corpus_by_order):
        rng = random.Random(4006)
        for _ in range(60):
            na = rng.randint(1, 8)
            nb = rng.randint(1, min(8, 10 - na))
            _, a = rng.choice(corpus_by_order[na])
            _, b = rng.choice(corpus_by_order[nb])
            union = disjoint_union(a, b)
            label = (encode_graph6(a), encode_graph6(b))
            solvers = [gamma, _ir_search] + [
                lambda g, k=k: iota(g, k) for k in range(2, union.max_degree() + 2)
            ]
            for solve in solvers:
                ra, rb, got = solve(a), solve(b), solve(union)
                assert got.value == ra.value + rb.value, label
                assert got.witness == ra.witness + tuple(v + a.n for v in rb.witness), label


class TestComponents:
    """ir solves each connected component on its own. The reference is the
    kernel run once over the whole graph, which never splits it, and the
    brute-force oracle up to n = 10."""

    @staticmethod
    def assert_matches_unsplit(g):
        label = encode_graph6(g)
        got = ir(g)
        ref = _ir_search(g)
        assert (got.value, got.witness) == (ref.value, ref.witness), label
        parts = [g.induced(part)[0] for part in components(g)]
        assert got.explored == sum(_ir_search(sub).explored for sub in parts), label
        if g.n <= 10:
            assert (got.value, got.witness) == oracles.brute_ir(g), label

    def test_sparse_gnm_with_isolated_vertices(self):
        rng = random.Random(1414)
        graphs = 0
        while graphs < 24:
            n = rng.randint(16, 22)
            g = random_gnm(n, round(n * rng.uniform(3, 5) / 2), rng)
            if all(g.adj):
                continue
            graphs += 1
            self.assert_matches_unsplit(g)

    def test_corpus_unions_interleaved(self, corpus_by_order):
        # relabelled so that the components' vertices interleave
        rng = random.Random(1415)
        small = 0
        for _ in range(60):
            g = Graph(0)
            for _ in range(rng.randint(2, 3)):
                g = disjoint_union(g, rng.choice(corpus_by_order[rng.randint(1, 6)])[1])
            perm = list(range(g.n))
            rng.shuffle(perm)
            g = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            self.assert_matches_unsplit(g)
            small += g.n <= 10
        assert small >= 20

    def test_order_cap_on_the_whole_graph(self):
        edges = [(t + a, t + b) for t in range(0, 33, 3) for a, b in ((0, 1), (1, 2), (0, 2))]
        triangles = Graph(33, edges)
        assert len(components(triangles)) == 11
        with pytest.raises(SizeCapError) as exc:
            ir(triangles)
        assert str(exc.value) == "ir solve on n=33 exceeds cap 32"
        res = ir(triangles, force=True)
        assert (res.value, res.witness) == (11, tuple(range(0, 33, 3)))


class TestUniversalVertex:
    def test_gamma_and_ir_are_one(self, corpus_by_order):
        for n in range(1, 8):
            for line, g in corpus_by_order[n][:30]:
                h = Graph(n + 1, list(g.edges()) + [(v, n) for v in range(n)])
                assert gamma(h).value == 1 and ir(h).value == 1, line
                assert is_dominating(h, gamma(h).witness)
                assert is_maximal_irredundant(h, ir(h).witness)


TRIANGLES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]


class TestPackingBound:
    def test_greedy_on_disjoint_triangles(self):
        g = Graph(6, TRIANGLES)
        assert iota_lower_bound(g, 3) == (2, ((0, 1, 2), (3, 4, 5)))
        assert iota(g, 3).value == 2
        with pytest.raises(ParameterError, match="^k must be positive, got 0$"):
            iota_lower_bound(g, 0)

    def test_designated_validation(self):
        g = Graph(6, TRIANGLES)
        assert packing_bound(g, 3, [(0, 1, 2), (3, 4, 5)]) == 2
        assert packing_bound(g, 3, []) == 0
        with pytest.raises(CertificateError) as info:
            packing_bound(g, 3, [(0, 1, 3)])  # three vertices, not pairwise adjacent
        assert str(info.value) == "designated set (0, 1, 3) is not a 3-clique"
        with pytest.raises(CertificateError, match="^clique vertex 6 out of range$"):
            packing_bound(g, 3, [(4, 5, 6)])
        # a repeated vertex: too few distinct vertices, or k of them in k + 1 entries
        for repeated in ((0, 1, 1), (0, 1, 2, 2)):
            with pytest.raises(CertificateError) as info:
                packing_bound(g, 3, [repeated])
            assert str(info.value) == f"designated set {repeated} is not a 3-clique"
        with pytest.raises(ParameterError, match="^k must be positive, got 0$"):
            packing_bound(g, 0, [])
        # closed neighborhoods that meet: through a shared vertex, and
        # through an edge between two vertex-disjoint triangles
        for h, second in (
            (Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]), (2, 3, 4)),
            (Graph(6, TRIANGLES + [(2, 3)]), (3, 4, 5)),
        ):
            with pytest.raises(CertificateError) as info:
                packing_bound(h, 3, [(0, 1, 2), second])
            assert str(info.value) == f"closed neighborhood of {second} overlaps an earlier region"

    def test_bound_never_exceeds_optimum(self, corpus_by_order):
        for line, g in corpus_by_order[6][:80]:
            for k in (2, 3):
                bound, cliques = iota_lower_bound(g, k)
                assert bound <= iota(g, k).value
                # the greedy packing passes the validator
                assert packing_bound(g, k, cliques) == bound, line


class TestSolveResult:
    def test_explored_positive(self):
        res = gamma(path(5))
        assert res.explored > 0

    def test_witness_tuple_sorted(self):
        res = gamma(cycle(9))
        assert list(res.witness) == sorted(res.witness)


def verify_records(g6):
    """The five records a verify call builds, each computed from g6 afresh."""
    g = parse_graph6(g6)
    witness = ir(g).witness
    part = compute_partition(g, witness)
    return [
        gamma(g),
        classify(g),
        build_isolating_set(g, part, g.max_degree() - 1),
        refine_pairs(g, part),
        refine_twins(g, part),
    ]


class TestRecords:
    G6 = "IheA@GUAo"  # the Petersen graph: delta 3, so all four regimes apply

    def test_the_five_record_types(self):
        assert [type(r) for r in verify_records(self.G6)] == [
            SolveResult, GraphClass, BoundCertificate, PairRefinement, TwinRefinement
        ]

    def test_records_refuse_assignment(self):
        for rec in verify_records(self.G6):
            with pytest.raises(AttributeError):
                setattr(rec, rec._fields[0], 0)
            with pytest.raises(AttributeError):
                rec.extra = 0

    def test_equal_records_hash_equal(self):
        for first, again in zip(verify_records(self.G6), verify_records(self.G6)):
            assert first is not again
            assert first == again and hash(first) == hash(again)

    def test_repr_names_every_field(self):
        for rec in verify_records(self.G6):
            body = ", ".join(f"{name}={getattr(rec, name)!r}" for name in rec._fields)
            assert repr(rec) == f"{type(rec).__name__}({body})"
        assert repr(SolveResult(2, (0, 3), 5)) == "SolveResult(value=2, witness=(0, 3), explored=5)"

    def test_equal_to_a_plain_tuple(self):
        res = gamma(path(5))
        assert res == (2, (0, 3), res.explored)

    def test_certificate_s_param_defaults_to_none(self):
        cert = BoundCertificate("delta", 3, (0,), Fraction(1), True, True)
        assert cert.s_param is None


class TestSelfChecks:
    """The isolation solver re-checks its witness before returning it."""

    def test_a_witness_that_does_not_isolate_raises(self, monkeypatch):
        monkeypatch.setattr(solvers, "is_k_isolating_mask", lambda g, mask, k: False)
        with pytest.raises(AssertionError, match=r"isolation self-check: .* \(n=5, k=1\)"):
            gamma(path(5))

    def test_the_check_runs_under_python_O(self):
        # the child finds the package where this process imported it from
        src = os.path.dirname(os.path.dirname(solvers.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "from isobound import Graph, solvers\n"
            "solvers.is_k_isolating_mask = lambda g, mask, k: False\n"
            "solvers.gamma(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 1
        assert "AssertionError: isolation self-check:" in proc.stderr
        assert "(n=5, k=1)" in proc.stderr
