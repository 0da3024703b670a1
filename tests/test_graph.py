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
    ParameterError,
    classify,
    compute_partition,
    encode_graph6,
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
    components,
    graph6_lines,
    graph6_order,
    isolation_covers,
    mask_of,
    vertex_mask,
)

import oracles


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def unit_disk(n, degree, rng):
    """The round(n * degree / 2) closest pairs of n uniform points in the
    unit square: cliques that overlap, so many share a closed neighbourhood."""
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    pairs = sorted(
        ((pts[u][0] - pts[v][0]) ** 2 + (pts[u][1] - pts[v][1]) ** 2, u, v)
        for u, v in combinations(range(n), 2)
    )
    return Graph(n, [(u, v) for _, u, v in pairs[: round(n * degree / 2)]])


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def reference_bits(mask):
    """bits as a lazy walk of the lowest set bit, the reference the table
    lookup must agree with."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class TestBits:
    def test_every_mask_below_4096(self):
        for m in range(1 << 12):
            assert tuple(bits(m)) == tuple(reference_bits(m)), m

    def test_seeded_wide_masks(self):
        rng = random.Random(16)
        for width in (9, 16, 63, 64, 65, 200, 511, 512):
            for _ in range(40):
                m = rng.getrandbits(width)
                assert tuple(bits(m)) == tuple(reference_bits(m)), m


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

    def test_rejects_an_order_above_the_cap(self):
        message = "^order 513 outside supported range 0..512$"
        with pytest.raises(OrderCapError, match=message):
            Graph(513, [])
        with pytest.raises(OrderCapError, match=message):
            Graph.from_adj([0] * 513)

    # masks that are not a simple graph: unchecked, gamma of [2, 0] fails the
    # isolation self-check
    def test_from_adj_refuses_an_unmirrored_mask(self):
        with pytest.raises(ParameterError, match="^vertex 0 lists 1, whose mask does not list 0$"):
            Graph.from_adj([0b10, 0])

    def test_from_adj_refuses_a_self_loop(self):
        with pytest.raises(ParameterError, match="^self-loop at vertex 0$"):
            Graph.from_adj([0b1])

    def test_from_adj_refuses_a_mask_outside_the_vertices(self):
        with pytest.raises(ParameterError, match=r"^mask of vertex 0 reaches outside 0\.\.1$"):
            Graph.from_adj([0b100, 0])
        with pytest.raises(ParameterError, match=r"^mask of vertex 1 reaches outside 0\.\.1$"):
            Graph.from_adj([0, -1])

    def test_from_adj_rebuilds_every_corpus_graph(self, corpus_by_order):
        for graphs in corpus_by_order.values():
            for _, g in graphs:
                assert Graph.from_adj(g.adj) == g

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(3, [(0, 2)])
        # equal graphs hash alike, whichever way they were built
        c = Graph.from_adj(a.adj)
        assert hash(a) == hash(a) == hash(c) == hash((a.n, a.adj))

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
        # a space in the body and in a long-form order, and the surrogate
        # that errors="surrogateescape" reads for the undecodable byte 0xff
        for text, byte, offset in [("C ", 32, 1), ("~? ?", 32, 2), ("B\udcff", 255, 1)]:
            with pytest.raises(Graph6ParseError) as info:
                parse_graph6(text)
            assert info.value.offset == offset
            error = f"byte {byte} outside graph6 range 63..126 (byte offset {offset})"
            assert str(info.value) == error

    def test_nonzero_padding(self):
        # order 2 has one body byte with a single meaningful bit; set a pad bit
        with pytest.raises(Graph6ParseError, match="padding"):
            parse_graph6("A" + chr(63 + 1))

    def test_order_cap(self):
        with pytest.raises(OrderCapError):
            parse_graph6("~" + chr(63) + chr(63 + 8) + chr(63 + 1) + "rest")

    def test_truncated_long_form(self):
        for text, offset in [("~", 1), ("~?", 2)]:
            with pytest.raises(Graph6ParseError, match="truncated long-form order") as info:
                parse_graph6(text)
            assert info.value.offset == offset

    @pytest.mark.parametrize(
        "text, offset",
        [("~??DQc", 0), (">>graph6<<~??DQc", 10), ("~~?????DQc", 0), ("~~???}~~", 0)],
    )
    def test_long_form_below_its_range(self, text, offset):
        # '~' and 3 bytes write the orders 63..258047 and '~~' and 6 bytes
        # the larger ones; a smaller order in either form is not graph6
        for read in (parse_graph6, graph6_order):
            with pytest.raises(Graph6ParseError, match="long form") as info:
                read(text)
            assert info.value.offset == offset

    def test_long_forms_from_their_first_order(self):
        g = Graph(63, [(0, 62), (30, 31)])
        enc = encode_graph6(g)
        assert enc.startswith("~??~")
        assert parse_graph6(enc) == g
        assert graph6_order("~~???~??") == 258048

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

    def test_graph6_lines_strip_and_count_every_line(self):
        lines = [" DQc \t\n", "\n", "  \r\n", "Cr", "B\udcff\n"]
        assert list(graph6_lines(lines)) == [(1, "DQc"), (4, "Cr"), (5, "B\udcff")]

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


def cliques_of(g, k):
    """The k-cliques as sorted tuples, read off the clique_table rows."""
    return [tuple(bits(vmask)) for vmask, _ in clique_table(g, k)]


class TestCliques:
    def test_against_brute_force(self):
        rng = random.Random(4096)
        for trial in range(60):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.random(), rng)
            for k in range(1, 5):
                mine = sorted(cliques_of(g, k))
                brute = sorted(oracles.all_k_cliques(g, k))
                assert mine == brute

    def test_exact_list_against_brute_force(self):
        # the rows' cliques, order included, and the table rows: the clique
        # and closed-neighbourhood masks in the same order, whose filter by
        # a zone mask is the list restricted to that zone
        rng = random.Random(4097)
        for _ in range(80):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.uniform(0.3, 0.9), rng)
            zone = rng.getrandbits(n)
            for k in range(1, 7):
                brute = oracles.all_k_cliques(g, k)
                assert cliques_of(g, k) == brute
                table = clique_table(g, k)
                assert table == tuple((mask_of(c), closed_mask(g, mask_of(c))) for c in brute)
                assert [vmask for vmask, _ in table if not vmask & ~zone] == [
                    mask_of(c) for c in brute if all(zone >> v & 1 for v in c)
                ]

    def test_kept_sizes_survive_any_call_order(self):
        # the sizes and tables kept for the last graph: k asked in any order
        # and graphs interleaved
        rng = random.Random(4098)
        graphs = [random_graph(rng.randint(1, 11), rng.uniform(0.4, 0.9), rng) for _ in range(12)]
        for _ in range(300):
            g = rng.choice(graphs)
            k = rng.randint(1, 8)
            brute = oracles.all_k_cliques(g, k)
            assert clique_table(g, k) == tuple(
                (mask_of(c), closed_mask(g, mask_of(c))) for c in brute
            )
        twin = Graph.from_adj(graphs[0].adj)
        assert cliques_of(twin, 3) == oracles.all_k_cliques(graphs[0], 3)
        assert clique_table(twin, 2) == clique_table(graphs[0], 2)

    def test_kept_levels_still_refuse_k_below_one(self):
        # every size of the kept graph built and its rows derived, so a
        # lookup of the kept levels would find one at k - 1 = -1
        g = parse_graph6("DQc")
        for k in range(1, g.max_degree() + 3):
            clique_table(g, k)
            isolation_covers(g, k)
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be positive"):
                clique_table(g, k)
            with pytest.raises(ValueError, match="k must be positive"):
                isolation_covers(g, k)

    def test_equal_graph_built_apart_gets_levels_of_its_own(self):
        g = parse_graph6("E~~w")
        rows, covers = clique_table(g, 3), isolation_covers(g, 3)[1]
        twin = Graph.from_adj(g.adj)
        assert twin == g
        assert clique_table(twin, 3) == rows and clique_table(twin, 3) is not rows
        assert isolation_covers(twin, 3)[1] == covers
        assert isolation_covers(twin, 3)[1] is not covers

    def test_rows_on_unit_disk_graphs(self):
        # the rows carry both masks, grown level by level: each cover is the
        # closed neighbourhood of its clique, and the order is strictly lex
        # at every size up to Delta + 1
        rng = random.Random(4099)
        for n in range(14, 37, 2):
            g = unit_disk(n, rng.uniform(5.0, 8.0), rng)
            shared = 0
            for k in range(1, g.max_degree() + 2):
                table = clique_table(g, k)
                cliques = cliques_of(g, k)
                assert all(a < b for a, b in zip(cliques, cliques[1:]))
                for vmask, cover in table:
                    assert vmask.bit_count() == k
                    assert cover == closed_mask(g, vmask)
                shared += len(table) - len({cover for _, cover in table})
                if n <= 16:
                    assert cliques == oracles.all_k_cliques(g, k)
            assert shared, n

    def test_within_restriction(self):
        # a zone's cliques are the table rows inside the zone mask
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4)])
        inside = [vmask for vmask, _ in clique_table(g, 3) if not vmask & ~0b00111]
        assert inside == [0b00111]

    def test_lex_order(self):
        g = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        assert cliques_of(g, 2)[:3] == [(0, 1), (0, 2), (0, 3)]


def lex_clique_rows(g, k):
    """The (vertex mask, cover) rows of the k-cliques in lex order, by plain
    recursion over the common neighbours above the last vertex."""
    rows = []

    def grow(vmask, cand, need):
        if not need:
            rows.append((vmask, closed_mask(g, vmask)))
            return
        for v in bits(cand):
            grow(vmask | 1 << v, cand & g.adj[v] >> (v + 1) << (v + 1), need - 1)

    grow(0, g.full, k)
    return tuple(rows)


class TestCliqueCovers:
    """isolation_covers(g, k) holds the covers of clique_table(g, k), whichever
    of the two is asked first, for k in any order and for graphs that
    alternate, so the kept levels never hold stale vertex masks."""

    @staticmethod
    def call_orders(graphs):
        """Lists of (graph, k, ask covers first) calls, each list run on
        fresh copies of the graphs; k runs one past Delta + 1, an empty size. The
        last order per graph is a seeded shuffle of both kinds of call."""
        ks = {id(g): range(1, g.max_degree() + 3) for g in graphs}
        for g in graphs:
            for covers_first in (True, False):
                yield [(g, k, covers_first) for k in ks[id(g)]]
                yield [(g, k, covers_first) for k in reversed(ks[id(g)])]
            mixed = [(g, k, covers_first) for k in ks[id(g)] for covers_first in (True, False)]
            random.Random(g.n).shuffle(mixed)
            yield mixed
        for covers_first in (True, False):
            yield [
                (g, k, covers_first)
                for k in range(1, max(map(len, ks.values())) + 1)
                for g in graphs
                if k in ks[id(g)]
            ]

    def assert_orders_agree(self, graphs):
        want = {id(g): {k: lex_clique_rows(g, k) for k in range(1, g.max_degree() + 3)} for g in graphs}
        for calls in self.call_orders(graphs):
            # the levels are kept for one graph, matched by identity: fresh
            # copies start each order from nothing
            fresh = {id(g): Graph.from_adj(g.adj) for g in graphs}
            for g, k, covers_first in calls:
                h = fresh[id(g)]
                if covers_first:
                    covers, rows = isolation_covers(h, k)[1], clique_table(h, k)
                else:
                    rows, covers = clique_table(h, k), isolation_covers(h, k)[1]
                assert rows == want[id(g)][k], (encode_graph6(g), k)
                assert covers == tuple(cover for _, cover in rows), (encode_graph6(g), k)
                assert isolation_covers(h, k)[1] is covers

    def test_corpus_up_to_seven(self, corpus_by_order):
        graphs = [g for n in range(1, 8) for _, g in corpus_by_order[n]]
        for pair in zip(graphs[::2], graphs[1::2] + graphs[:1]):
            self.assert_orders_agree(pair)

    def test_unit_disk_graphs(self):
        rng = random.Random(4100)
        graphs = [unit_disk(n, rng.uniform(5.0, 8.0), rng) for n in range(12, 37)]
        for pair in zip(graphs[::2], graphs[1::2] + graphs[:1]):
            self.assert_orders_agree(pair)


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

    def test_components_against_networkx(self):
        rng = random.Random(1416)
        assert components(Graph(0)) == []
        for n in range(1, 23):
            for _ in range(4):
                g = random_graph(n, rng.uniform(0.02, 0.2), rng)
                h = nx.Graph()
                h.add_nodes_from(range(n))
                h.add_edges_from(g.edges())
                expect = sorted(mask_of(c) for c in nx.connected_components(h))
                got = components(g)
                assert sorted(got) == expect
                lows = [(m & -m).bit_length() for m in got]
                assert lows == sorted(lows)

    def test_vertex_sets_validated_in_one_place(self):
        # every entry point that takes a vertex set names the bad vertex,
        # below 0 as well as at n, and a vertex given twice: a repeat is
        # refused, not collapsed into a set the caller did not write
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        takers = [
            lambda s: vertex_mask(g, s),
            lambda s: is_dominating(g, s),
            lambda s: is_irredundant(g, s),
            lambda s: is_maximal_irredundant(g, s),
            lambda s: is_k_isolating(g, s, 2),
            lambda s: compute_partition(g, s),
            lambda s: private_neighbors(g, s, 1),
        ]
        for take in takers:
            for bad in (-1, g.n):
                with pytest.raises(ValueError, match=f"vertex {bad} out of range for n=5"):
                    take([1, bad])
            with pytest.raises(ValueError, match="vertex 4 given twice"):
                take([1, 4, 0, 4])
        assert vertex_mask(g, [4, 0, 1]) == 0b10011
        with pytest.raises(ValueError, match="vertex 1 given twice"):
            is_irredundant(parse_graph6("Cs"), (1, 1))
        with pytest.raises(ValueError, match="vertex 0 given twice"):
            compute_partition(parse_graph6("Cs"), (0, 0))
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
