"""Immutable bitset graphs, the graph6 codec, clique enumeration, classification.

Vertices are integers 0..n-1. Adjacency lives in Python ints used as bit
masks, which keeps the set algebra the rest of the package runs on (private
neighborhoods, domination closures, clique residuals) branch-light. The
supported order cap is n <= 512.

The k-cliques are enumerated once per graph and size, as closed
neighbourhood masks ("covers"): isolation_covers serves them to the
isolation search with the graph's candidate mask, and clique_table adds the
vertex masks, each size's from the size below, for the callers that read them.
"""

from typing import NamedTuple

from .errors import Graph6ParseError, OrderCapError, ParameterError

ORDER_CAP = 512

GRAPH6_HEADER = ">>graph6<<"

# the longest record the codec accepts: the header, four bytes of order and
# the body of a graph on ORDER_CAP vertices
RECORD_CAP = len(GRAPH6_HEADER) + 4 + (ORDER_CAP * (ORDER_CAP - 1) // 2 + 5) // 6


# The set bit positions of every byte value, so that a mask below 256 (any
# vertex set of a graph on up to 8 vertices) is walked by one lookup.
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def bits(mask):
    """The set bit positions of mask (nonnegative) in ascending order: a
    tuple from a table below 256, a lazy iterator above."""
    if mask < 256:
        return _BYTE_BITS[mask]
    return _bits_wide(mask)


def _bits_wide(mask):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertex_mask(g, vertices):
    """The vertices as a mask of g; ParameterError naming the first one
    outside 0..n-1 or given twice."""
    m = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ParameterError(f"vertex {v} out of range for n={g.n}")
        if m >> v & 1:
            raise ParameterError(f"vertex {v} given twice")
        m |= 1 << v
    return m


class Graph:
    """Undirected simple graph over vertices 0..n-1.

    adj[v] is the open neighborhood of v as a bit mask; clo[v] additionally
    contains v itself. Both are plain ints, so subset tests are single
    operations regardless of n.
    """

    __slots__ = ("n", "adj", "clo", "full", "_delta")

    def __init__(self, n, edges=()):
        if n < 0 or n > ORDER_CAP:
            raise OrderCapError(f"order {n} outside supported range 0..{ORDER_CAP}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ParameterError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._fill(adj)

    @classmethod
    def from_adj(cls, adj_masks):
        """The graph whose open neighbourhoods are adj_masks; ParameterError
        naming the first vertex whose mask reaches outside 0..n-1, holds the
        vertex itself or lists a vertex whose mask does not list it back."""
        n = len(adj_masks)
        if n > ORDER_CAP:
            raise OrderCapError(f"order {n} outside supported range 0..{ORDER_CAP}")
        for v, a in enumerate(adj_masks):
            if a >> n:
                raise ParameterError(f"mask of vertex {v} reaches outside 0..{n - 1}")
            if a >> v & 1:
                raise ParameterError(f"self-loop at vertex {v}")
            for w in bits(a):
                if not adj_masks[w] >> v & 1:
                    raise ParameterError(f"vertex {v} lists {w}, whose mask does not list {v}")
        return _of_masks(adj_masks)

    def _fill(self, adj_masks):
        self.n = len(adj_masks)
        self.adj = tuple(adj_masks)
        self.clo = tuple(a | (1 << v) for v, a in enumerate(adj_masks))
        self.full = (1 << self.n) - 1
        self._delta = max(map(int.bit_count, adj_masks), default=0)

    def degree(self, v):
        return self.adj[v].bit_count()

    def max_degree(self):
        return self._delta

    def edge_count(self):
        return sum(a.bit_count() for a in self.adj) // 2

    def has_edge(self, u, v):
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v):
        return tuple(bits(self.adj[v]))

    def edges(self):
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def induced(self, vertex_mask):
        """Induced subgraph plus the map from new indices to original ones."""
        keep = list(bits(vertex_mask))
        pos = {v: i for i, v in enumerate(keep)}
        adj = [0] * len(keep)
        for i, v in enumerate(keep):
            for w in bits(self.adj[v] & vertex_mask):
                adj[i] |= 1 << pos[w]
        return _of_masks(adj), tuple(keep)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"


def _of_masks(adj_masks):
    """The Graph of masks known to be a simple graph on 0..n-1, n <= 512,
    which from_adj would check again: the codec's and induced's own."""
    g = Graph.__new__(Graph)
    g._fill(adj_masks)
    return g


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------


def _parse_order(data, pos):
    """Decode the N(n) prefix, returning (n, next_pos)."""
    if pos >= len(data):
        raise Graph6ParseError("empty graph6 record", pos)
    c = data[pos]
    if not 63 <= c <= 126:
        raise Graph6ParseError(f"byte {c} outside graph6 range 63..126", pos)
    if c != 126:
        return c - 63, pos + 1
    # long form: '~' then 3 bytes, or '~~' then 6 bytes
    if pos + 1 >= len(data):
        raise Graph6ParseError("truncated long-form order", pos + 1)
    if data[pos + 1] == 126:
        span, start, least = 6, pos + 2, 258048
    else:
        span, start, least = 3, pos + 1, 63
    if start + span > len(data):
        raise Graph6ParseError("truncated long-form order", len(data))
    n = 0
    for i in range(start, start + span):
        c = data[i]
        if not 63 <= c <= 126:
            raise Graph6ParseError(f"byte {c} outside graph6 range 63..126", i)
        n = n << 6 | (c - 63)
    # each order has one form: the short one below 63, '~' and 3 bytes
    # below 258048; another form re-encodes to different text
    if n < least:
        raise Graph6ParseError(f"order {n} written in a long form that starts at {least}", pos)
    return n, start + span


def graph6_lines(lines):
    """(number, stripped text) of each non-blank line; blank ones are counted."""
    for number, line in enumerate(lines, 1):
        if text := line.strip():
            yield number, text


def _graph6_head(text):
    """One graph6 record as bytes, its order and the offset of its body.

    A str must be ASCII but for the surrogates that errors="surrogateescape"
    puts for bytes it cannot decode, each refused as its byte. Any other
    character raises Graph6ParseError at its offset, also its byte offset.
    """
    if isinstance(text, str):
        try:
            data = text.encode("ascii", "surrogateescape")
        except UnicodeEncodeError as exc:
            raise Graph6ParseError(
                f"non-ASCII character {text[exc.start]!a}", exc.start
            ) from None
    else:
        data = bytes(text)
    data = data.rstrip(b"\r\n")
    pos = len(GRAPH6_HEADER) if data.startswith(GRAPH6_HEADER.encode()) else 0
    n, pos = _parse_order(data, pos)
    return data, n, pos


def graph6_order(text):
    """The order a graph6 record declares, without decoding its body."""
    return _graph6_head(text)[1]


def parse_graph6(text):
    """Decode one graph6 record (str or bytes, optional format header).

    Raises Graph6ParseError with the byte offset of the first offending byte
    for malformed input, and OrderCapError when the encoded order exceeds the
    supported cap.
    """
    data, n, pos = _graph6_head(text)
    if n > ORDER_CAP:
        raise OrderCapError(f"graph6 order {n} exceeds supported cap {ORDER_CAP}")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise Graph6ParseError(
            f"body needs {nbytes} bytes, found {len(data) - pos}", len(data)
        )
    if len(data) - pos > nbytes:
        raise Graph6ParseError("trailing data after graph6 body", pos + nbytes)
    adj = [0] * n
    bit = 0
    i, j = 0, 1  # upper triangle, column order
    for off in range(pos, pos + nbytes):
        c = data[off]
        if not 63 <= c <= 126:
            raise Graph6ParseError(f"byte {c} outside graph6 range 63..126", off)
        group = c - 63
        for shift in (5, 4, 3, 2, 1, 0):
            if bit >= nbits:
                if group >> shift & 1:
                    raise Graph6ParseError("nonzero padding bits", off)
                continue
            if group >> shift & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            bit += 1
            i += 1
            if i == j:
                i, j = 0, j + 1
    return _of_masks(adj)


def encode_graph6(g):
    """Encode a Graph as a canonical graph6 string (no header, no newline)."""
    n = g.n
    out = bytearray()
    if n <= 62:
        out.append(n + 63)
    else:
        out.append(126)
        out.extend(((n >> s) & 63) + 63 for s in (12, 6, 0))
    group, filled = 0, 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            group = group << 1 | (col >> i & 1)
            filled += 1
            if filled == 6:
                out.append(group + 63)
                group, filled = 0, 0
    if filled:
        out.append((group << (6 - filled)) + 63)
    return out.decode("ascii")


# ---------------------------------------------------------------------------
# neighborhoods
# ---------------------------------------------------------------------------


def closed_mask(g, smask):
    """N[S] as a mask."""
    clo = g.clo
    m = 0
    while smask:
        b = smask & -smask
        m |= clo[b.bit_length() - 1]
        smask ^= b
    return m


def components(g):
    """The vertex masks of g's connected components, ordered by lowest vertex."""
    parts = []
    rest = g.full
    while rest:
        part = frontier = rest & -rest
        while frontier:
            reach = closed_mask(g, frontier)
            frontier = reach & ~part
            part |= reach
        parts.append(part)
        rest &= ~part
    return parts


# ---------------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------------


# The graph whose clique levels are kept, as (graph, candidate mask,
# levels) from _first_levels. The graph is matched by identity, so a hit
# neither hashes nor compares it: verify asks one parsed graph for all its
# sizes, while an equal graph built apart gets levels of its own.
_kept = (None, 0, None)


def _first_levels(g):
    """(g, candidate mask, levels) for the graph g, with its first two
    clique levels built.

    The candidate mask holds each vertex a that has no neighbour b < a with
    N[a] inside N[b]. Such a b lies in every clique cover that a lies in,
    since a clique that meets N[a] meets N[b], so the lex-least minimum
    isolating set never holds a (see solvers), and the lowest vertex of
    every cover is a candidate. The test is one per edge, so it rides on
    the loop that builds the edges, the 2-cliques: the first two levels are
    built here, and _clique_levels grows the rest.

    levels[j - 1] is [covers, above, rows] for the j-cliques in lex order:
    their closed-neighbourhood masks, per clique the common neighbours above
    its last vertex, and the (vertex mask, cover) rows, or None until
    clique_table asks for them. The isolation search and the partition
    checks ask for several k of the same graph in a row, so each size is
    built once; holding one graph keeps memory to that graph's cliques.
    """
    adj = g.adj
    clo = g.clo
    rows = tuple((1 << v, c) for v, c in enumerate(clo))
    above = [a >> (v + 1) << (v + 1) for v, a in enumerate(adj)]
    covers, common_above = [], []
    add_cover, add_above = covers.append, common_above.append
    dominated = 0
    for v, common in enumerate(above):
        cv = clo[v]
        while common:
            b = common & -common
            common ^= b
            w = b.bit_length() - 1
            if not clo[w] & ~cv:
                dominated |= b
            add_cover(cv | clo[w])
            add_above(common & adj[w])
    levels = [[clo, above, rows], [tuple(covers), common_above, None]]
    return g, g.full ^ dominated, levels


def _clique_levels(g, k):
    """(g, candidate mask, levels) as kept for g, the levels grown to size
    k or to the first empty size. The only lookup of the kept graph: a size
    already built for it is returned first, which most calls are.

    A j-clique is extended by each common neighbour w above its last vertex,
    in ascending order, to the (j + 1)-clique with cover cover | N[w] and
    common neighbours common & N(w), which yields the (j + 1)-cliques in
    lex order.
    """
    global _kept
    kept = _kept
    if kept[0] is g and 0 < k <= len(kept[2]):
        return kept
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    if kept[0] is not g:
        kept = _kept = _first_levels(g)
    levels = kept[2]
    adj = g.adj
    clo = g.clo
    while len(levels) < k and levels[-1][0]:
        covers, above = [], []
        add_cover, add_above = covers.append, above.append
        for cover, common in zip(levels[-1][0], levels[-1][1]):
            while common:
                b = common & -common
                common ^= b
                w = b.bit_length() - 1
                add_cover(cover | clo[w])
                add_above(common & adj[w])
        levels.append([tuple(covers), above, None])
    return kept


def isolation_covers(g, k):
    """The candidate mask of g and the closed-neighbourhood mask of each
    k-clique, in lex order: all the isolation search reads.

    The tuple is the kept level's own, shared and not copied.
    """
    _, candidates, levels = _clique_levels(g, k)
    return candidates, levels[k - 1][0] if k <= len(levels) else ()


def clique_table(g, k):
    """(vertex mask, closed-neighbourhood mask) per k-clique, in lex order.

    The levels come from _clique_levels, the one lookup of the kept graph,
    and hold covers only. A size's rows are derived on the first call that
    asks for them, from clique_table of the size below: the children of a
    j-clique are the bits of its common-neighbour mask in ascending order,
    each added to its vertex mask. The rows are kept in the level, shared
    and not copied. The cliques inside a vertex mask `zone` are the rows
    with `not vmask & ~zone`, still in lex order.
    """
    levels = _clique_levels(g, k)[2]
    if k > len(levels):
        return ()
    level = levels[k - 1]
    if level[2] is None:
        # rows go to a list first: a tuple built from an iterator is grown
        # by resizing, and on small graphs the resized tuples pile up in
        # the interpreter's per-size tuple free lists, which raised the
        # peak memory of verify over the n <= 8 corpus by about 4 MiB
        rows = []
        add = rows.append
        covers = iter(level[0])
        for (vmask, _), common in zip(clique_table(g, k - 1), levels[k - 2][1]):
            while common:
                b = common & -common
                common ^= b
                add((vmask | b, next(covers)))
        level[2] = tuple(rows)
    return level[2]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


class GraphClass(NamedTuple):
    n: int
    m: int
    max_degree: int
    components: int
    is_connected: bool
    is_tree: bool
    is_cactus: bool
    is_block_graph: bool
    is_claw_free: bool
    cyclomatic_number: int


def _blocks(g):
    """The biconnected blocks of g as vertex masks, and the number of
    connected components.

    One iterative lowpoint DFS (Hopcroft & Tarjan, CACM 1973) over a vertex
    stack: when the subtree of a child w of v has no edge to a vertex above
    v, v and the vertices pushed since w form a block. A bridge is a block
    of two vertices; an isolated vertex is in none. Each DFS root starts one
    component.
    """
    adj = g.adj
    depth = [0] * g.n
    low = [0] * g.n
    blocks = []
    roots = 0
    t = 0
    for root in range(g.n):
        if depth[root]:
            continue
        roots += 1
        t += 1
        depth[root] = low[root] = t
        stack = [root]
        frames = [[root, adj[root]]]
        while frames:
            frame = frames[-1]
            v, rest = frame
            if rest:
                b = rest & -rest
                frame[1] = rest ^ b
                w = b.bit_length() - 1
                if not depth[w]:
                    t += 1
                    depth[w] = low[w] = t
                    stack.append(w)
                    frames.append([w, adj[w]])
                elif depth[w] < low[v]:
                    # the tree edge back to the parent lowers low[v] at most
                    # to the parent's depth, which leaves the block test as is
                    low[v] = depth[w]
                continue
            frames.pop()
            if not frames:
                continue
            u = frames[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= depth[u]:
                blk = 1 << u
                w = -1
                while w != v:
                    w = stack.pop()
                    blk |= 1 << w
                blocks.append(blk)
    return blocks, roots


def _is_claw_free(g):
    adj = g.adj
    clo = g.clo
    for v in range(g.n):
        nv = adj[v]
        for a in bits(nv):
            # b runs over the neighbours of v above a and not adjacent to it;
            # a third leaf is a neighbour of v outside N[a] and N[b]
            rest = nv & ~clo[a]
            for b in bits(rest >> (a + 1) << (a + 1)):
                if rest & ~clo[b]:
                    return False
    return True


def classify(g):
    """Structural summary used by the theorem harness to route subclass checks."""
    n = g.n
    m = g.edge_count()
    blocks, ncomp = _blocks(g)
    connected = ncomp <= 1
    adj = g.adj
    cactus = True
    block_graph = True
    for blk in blocks:
        # a block is an induced subgraph, so its edges are those inside it
        nv = blk.bit_count()
        ne = sum((adj[v] & blk).bit_count() for v in bits(blk)) // 2
        if ne > 1 and ne != nv:
            cactus = False
        if ne != nv * (nv - 1) // 2:
            block_graph = False
    return GraphClass(
        n=n,
        m=m,
        max_degree=g.max_degree(),
        components=ncomp,
        is_connected=connected,
        is_tree=connected and m == n - 1,
        is_cactus=cactus,
        is_block_graph=block_graph,
        is_claw_free=_is_claw_free(g),
        cyclomatic_number=m - n + ncomp,
    )
