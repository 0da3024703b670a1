import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isobound import (
    Graph,
    Graph6ParseError,
    OrderCapError,
    classify,
    compute_partition,
    encode_graph6,
    enumerate_k_cliques,
    is_dominating,
    is_irredundant,
    is_k_isolating,
    is_maximal_irredundant,
    parse_graph6,
    private_neighbors,
)
from isobound.graph import (
    bits,
    clique_table,
    closed_mask,
    graph6_order,
    mask_of,
    vertex_mask,
)

import oracles


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestConstruction:
    def test_basic(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.n == 4
        assert g.edge_count() == 3
        assert g.degree(1) == 2
        assert g.max_degree() == 2
        assert g.has_edge(0, 1) and not g.has_edge(0, 2)
        assert g.neighbors(1) == (0, 2)

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(3, [(0, 2)])

    def test_induced(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub, keep = g.induced(0b11010)
        assert keep == (1, 3, 4)
        assert sub.n == 3
        assert sorted(sub.edges()) == [(1, 2)]

    def test_max_degree_of_every_constructor(self):
        rng = random.Random(77)
        assert Graph(0).max_degree() == 0
        assert Graph(3).max_degree() == 0
        for _ in range(40):
            g = random_graph(rng.randint(1, 12), rng.random(), rng)
            delta = max(g.degree(v) for v in range(g.n))
            assert g.max_degree() == delta
            assert Graph.from_adj(list(g.adj)).max_degree() == delta
            sub, keep = g.induced(rng.getrandbits(g.n))
            assert sub.max_degree() == max((sub.degree(v) for v in range(sub.n)), default=0)


class TestCodec:
    def test_known_small_values(self):
        # path on 4 vertices and its standard encoding
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        enc = encode_graph6(p4)
        assert parse_graph6(enc) == p4
        assert nx.from_graph6_bytes(enc.encode()).number_of_edges() == 3

    def test_against_networkx_random(self):
        rng = random.Random(711)
        for trial in range(120):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.random(), rng)
            enc = encode_graph6(g)
            h = nx.from_graph6_bytes(enc.encode())
            assert h.number_of_nodes() == g.n
            assert sorted(map(tuple, map(sorted, h.edges()))) == sorted(g.edges())
            theirs = nx.to_graph6_bytes(to_nx(g), header=False).strip().decode()
            assert parse_graph6(theirs) == g
            assert enc == theirs

    @pytest.mark.parametrize("n", [63, 64, 100])
    def test_long_form_orders(self, n):
        rng = random.Random(n)
        g = random_graph(n, 0.1, rng)
        enc = encode_graph6(g)
        assert parse_graph6(enc) == g
        h = nx.from_graph6_bytes(enc.encode())
        assert sorted(map(tuple, map(sorted, h.edges()))) == sorted(g.edges())

    def test_header_accepted(self):
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        enc = encode_graph6(p4)
        assert parse_graph6(">>graph6<<" + enc) == p4

    def test_bytes_input(self):
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert parse_graph6(encode_graph6(p4).encode()) == p4

    def test_empty_and_singleton(self):
        assert parse_graph6(encode_graph6(Graph(0))).n == 0
        assert parse_graph6(encode_graph6(Graph(1))).n == 1

    def test_corpus_roundtrip_sample(self, corpus_lines):
        for line in corpus_lines[:500]:
            g = parse_graph6(line)
            assert encode_graph6(g) == line


class TestParseErrors:
    def test_empty_record(self):
        with pytest.raises(Graph6ParseError):
            parse_graph6("")

    def test_truncated_body(self):
        with pytest.raises(Graph6ParseError, match="body needs"):
            parse_graph6("G")  # order 8 needs 5 body bytes

    def test_trailing_data(self):
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(Graph6ParseError, match="trailing"):
            parse_graph6(encode_graph6(p4) + "??")

    def test_out_of_range_byte_offset(self):
        err = None
        try:
            parse_graph6("C" + chr(32))
        except Graph6ParseError as exc:
            err = exc
        assert err is not None
        assert err.offset == 1
        assert "byte offset 1" in str(err)

    def test_nonzero_padding(self):
        # order 2 has one body byte with a single meaningful bit; set a pad bit
        with pytest.raises(Graph6ParseError, match="padding"):
            parse_graph6("A" + chr(63 + 1))

    def test_order_cap(self):
        with pytest.raises(OrderCapError):
            parse_graph6("~" + chr(63) + chr(63 + 8) + chr(63 + 1) + "rest")

    def test_truncated_long_form(self):
        with pytest.raises(Graph6ParseError, match="long-form"):
            parse_graph6("~" + chr(63))

    def test_non_ascii_character(self):
        with pytest.raises(Graph6ParseError) as info:
            parse_graph6("B\u00e9")
        assert info.value.offset == 1
        with pytest.raises(Graph6ParseError) as info:
            parse_graph6(">>graph6<<B\u00e9")
        assert info.value.offset == 11
        with pytest.raises(Graph6ParseError) as info:
            graph6_order("\u00e9")
        assert info.value.offset == 0

    def test_graph6_order_peeks(self):
        assert graph6_order("G???????") == 8
        assert graph6_order(">>graph6<<G") == 8  # the body is never read
        with pytest.raises(Graph6ParseError) as info:
            graph6_order(">>graph6<< ")
        assert info.value.offset == 10


# One graph6 record with a random tail, so the fuzz also reaches the body
# checks rather than failing at the order byte almost every time.
_near_records = st.builds(
    lambda n, body: chr(63 + n) + body,
    st.integers(0, 8),
    st.text(alphabet=[chr(c) for c in range(60, 128)], max_size=6),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(st.binary(max_size=24), st.text(max_size=24), _near_records))
def test_parse_fuzz_roundtrips_or_raises_typed(data):
    try:
        g = parse_graph6(data)
    except Graph6ParseError as exc:
        assert 0 <= exc.offset <= len(data)
    except OrderCapError:
        pass
    else:
        assert parse_graph6(encode_graph6(g)) == g


class TestCliques:
    def test_against_brute_force(self):
        rng = random.Random(4096)
        for trial in range(60):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.random(), rng)
            for k in range(1, 5):
                mine = sorted(enumerate_k_cliques(g, k))
                brute = sorted(oracles.all_k_cliques(g, k))
                assert mine == brute

    def test_exact_list_against_brute_force(self):
        # the emitted list itself, order included, and the table rows: the
        # clique and closed-neighbourhood masks in the same order, whose
        # filter by a zone mask is the list restricted to that zone
        rng = random.Random(4097)
        for _ in range(80):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.uniform(0.3, 0.9), rng)
            zone = rng.getrandbits(n)
            for k in range(1, 7):
                brute = oracles.all_k_cliques(g, k)
                assert enumerate_k_cliques(g, k) == brute
                table = clique_table(g, k)
                assert table == tuple((mask_of(c), closed_mask(g, mask_of(c))) for c in brute)
                assert [vmask for vmask, _ in table if not vmask & ~zone] == [
                    mask_of(c) for c in brute if all(zone >> v & 1 for v in c)
                ]

    def test_kept_sizes_survive_any_call_order(self):
        # the sizes and tables kept for the last graph: k asked in any order,
        # graphs and both kinds of call interleaved, and a caller editing a
        # returned list
        rng = random.Random(4098)
        graphs = [random_graph(rng.randint(1, 11), rng.uniform(0.4, 0.9), rng) for _ in range(12)]
        for _ in range(300):
            g = rng.choice(graphs)
            k = rng.randint(1, 8)
            brute = oracles.all_k_cliques(g, k)
            if rng.random() < 0.5:
                assert clique_table(g, k) == tuple(
                    (mask_of(c), closed_mask(g, mask_of(c))) for c in brute
                )
                continue
            got = enumerate_k_cliques(g, k)
            assert got == brute
            got.append((-1,))
            got.reverse()
        twin = Graph.from_adj(graphs[0].adj)
        assert enumerate_k_cliques(twin, 3) == oracles.all_k_cliques(graphs[0], 3)
        assert clique_table(twin, 2) == clique_table(graphs[0], 2)

    def test_within_restriction(self):
        # a zone's cliques are the table rows inside the zone mask
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4)])
        inside = [vmask for vmask, _ in clique_table(g, 3) if not vmask & ~0b00111]
        assert inside == [0b00111]

    def test_lex_order(self):
        g = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        assert list(enumerate_k_cliques(g, 2))[:3] == [(0, 1), (0, 2), (0, 3)]


class TestNeighborhoods:
    @staticmethod
    def union_of_closed(g, smask):
        m = 0
        for v in range(g.n):
            if smask >> v & 1:
                m |= g.clo[v]
        return m

    def test_closed_mask_on_every_subset(self, corpus_by_order):
        for n in range(1, 7):
            for line, g in corpus_by_order[n]:
                for smask in range(1 << n):
                    assert closed_mask(g, smask) == self.union_of_closed(g, smask), line

    def test_closed_mask_random(self):
        rng = random.Random(616)
        for n in range(9, 17):
            for _ in range(6):
                g = random_graph(n, rng.choice((0.15, 0.3, 0.5)), rng)
                for _ in range(40):
                    smask = rng.getrandbits(n)
                    assert closed_mask(g, smask) == self.union_of_closed(g, smask)

    def test_vertex_sets_validated_in_one_place(self):
        # every entry point that takes a vertex set names the bad vertex,
        # below 0 as well as at n
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        takers = [
            lambda s: vertex_mask(g, s),
            lambda s: is_dominating(g, s),
            lambda s: is_irredundant(g, s),
            lambda s: is_maximal_irredundant(g, s),
            lambda s: is_k_isolating(g, s, 2),
            lambda s: compute_partition(g, s),
        ]
        for take in takers:
            for bad in (-1, g.n):
                with pytest.raises(ValueError, match=f"vertex {bad} out of range for n=5"):
                    take([1, bad])
        assert vertex_mask(g, [4, 0, 4]) == 0b10001
        with pytest.raises(ValueError, match="vertex -1 is not in the set"):
            private_neighbors(g, [1], -1)


class TestClassify:
    def test_path(self):
        cls = classify(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
        assert cls.is_connected and cls.is_tree and cls.is_cactus
        assert cls.is_block_graph and cls.is_claw_free
        assert cls.cyclomatic_number == 0

    def test_star_has_claw(self):
        cls = classify(Graph(4, [(0, 1), (0, 2), (0, 3)]))
        assert cls.is_tree and not cls.is_claw_free

    def test_cycle(self):
        cls = classify(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        assert not cls.is_tree and cls.is_cactus and not cls.is_block_graph
        assert cls.cyclomatic_number == 1

    def test_bowtie(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        cls = classify(g)
        assert cls.is_cactus and cls.is_block_graph and cls.is_claw_free

    def test_diamond_not_cactus(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        cls = classify(g)
        assert not cls.is_cactus and not cls.is_block_graph
        assert cls.cyclomatic_number == 2

    def test_petersen(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        cls = classify(Graph(10, outer + inner + spokes))
        assert cls.is_connected and not cls.is_claw_free and not cls.is_cactus
        assert cls.max_degree == 3 and cls.cyclomatic_number == 6

    def test_disconnected(self):
        cls = classify(Graph(4, [(0, 1)]))
        assert not cls.is_connected and cls.components == 3
        assert cls.is_tree is False  # forests that are not trees do not count

    def test_against_networkx(self, corpus_by_order):
        # the connected corpus up to n = 7 and seeded G(n, p), n <= 12,
        # many of them disconnected or with isolated vertices
        graphs = [g for n in range(1, 8) for _, g in corpus_by_order[n]]
        rng = random.Random(9)
        for i in range(200):
            graphs.append(random_graph(rng.randint(0, 12), rng.choice((0.1, 0.2, 0.35, 0.6)), rng))
        for g in graphs:
            h = to_nx(g)
            cls = classify(g)
            assert cls.components == nx.number_connected_components(h)
            assert cls.is_connected == (cls.components <= 1)
            assert cls.is_tree == (g.n > 0 and nx.is_tree(h))
            assert cls.cyclomatic_number == len(nx.cycle_basis(h))
            blocks = [h.subgraph(b) for b in nx.biconnected_components(h)]
            assert cls.is_cactus == all(
                b.number_of_edges() == 1 or b.number_of_edges() == b.number_of_nodes()
                for b in blocks
            )
            assert cls.is_block_graph == all(
                2 * b.number_of_edges() == b.number_of_nodes() * (b.number_of_nodes() - 1)
                for b in blocks
            )
            claw = any(
                not any(h.has_edge(a, b) for a, b in combinations(leaves, 2))
                for v in h
                for leaves in combinations(h[v], 3)
            )
            assert cls.is_claw_free == (not claw)
