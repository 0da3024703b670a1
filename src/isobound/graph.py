"""Immutable bitset graphs, the graph6 codec, clique enumeration, classification.

Vertices are integers 0..n-1. Adjacency lives in Python ints used as bit
masks, which keeps the set algebra the rest of the package runs on (private
neighborhoods, domination closures, clique residuals) branch-light. The
supported order cap is n <= 512.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import Graph6ParseError, OrderCapError

ORDER_CAP = 512

GRAPH6_HEADER = ">>graph6<<"


def bits(mask):
    """Iterate set bit positions of mask in ascending order."""
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
    """The vertices as a mask of g; ValueError naming the first one outside
    0..n-1."""
    m = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
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
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._fill(adj)

    @classmethod
    def from_adj(cls, adj_masks):
        if len(adj_masks) > ORDER_CAP:
            raise OrderCapError(
                f"order {len(adj_masks)} outside supported range 0..{ORDER_CAP}"
            )
        g = cls.__new__(cls)
        g._fill(adj_masks)
        return g

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
        return Graph.from_adj(adj), tuple(keep)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"


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
        span, start = 6, pos + 2
    else:
        span, start = 3, pos + 1
    if start + span > len(data):
        raise Graph6ParseError("truncated long-form order", len(data))
    n = 0
    for i in range(start, start + span):
        c = data[i]
        if not 63 <= c <= 126:
            raise Graph6ParseError(f"byte {c} outside graph6 range 63..126", i)
        n = n << 6 | (c - 63)
    return n, start + span


def _graph6_head(text):
    """One graph6 record as bytes, its order and the offset of its body.

    A str must be ASCII: its first other character raises Graph6ParseError
    at its offset, which is also its byte offset.
    """
    if isinstance(text, str):
        try:
            data = text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6ParseError(
                f"non-ASCII character {text[exc.start]!r}", exc.start
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
    return Graph.from_adj(adj)


def encode_graph6(g):
    """Encode a Graph as a canonical graph6 string (no header, no newline)."""
    n = g.n
    if n > ORDER_CAP:
        raise OrderCapError(f"order {n} exceeds supported cap {ORDER_CAP}")
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


# ---------------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------------


def _grow_cliques(adj, levels, k):
    """Append levels until `levels` holds the k-cliques or a level is empty.

    levels[j - 1] is (the j-cliques in lex order, per clique the common
    neighbours above its last vertex). Extending each j-clique by those
    vertices in ascending order yields the (j + 1)-cliques in lex order.
    """
    while len(levels) < k and levels[-1][0]:
        grown, above = [], []
        add_clique, add_above = grown.append, above.append
        for clique, common in zip(*levels[-1]):
            while common:
                b = common & -common
                common ^= b
                w = b.bit_length() - 1
                add_clique(clique + (w,))
                add_above(common & adj[w])
        levels.append((grown, above))


@lru_cache(maxsize=1)
def _kept_cliques(g):
    # One graph's clique levels and clique tables, grown as larger k are
    # asked for. The isolation search and the partition checks ask for
    # several k of the same graph in a row, so each size is built once;
    # holding one graph keeps memory to that graph's cliques.
    adj = g.adj
    vertices = range(g.n)
    level_one = ([(v,) for v in vertices], [adj[v] >> (v + 1) << (v + 1) for v in vertices])
    return [level_one], {}


def enumerate_k_cliques(g, k):
    """All k-cliques, each a sorted tuple, in ascending lexicographic order.

    Sizes are built up from 1: each j-clique is extended by its common
    neighbours above its last vertex. The sizes built for the most recently
    asked graph are kept and reused.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    levels = _kept_cliques(g)[0]
    _grow_cliques(g.adj, levels, k)
    return list(levels[k - 1][0]) if k <= len(levels) else []


def clique_table(g, k):
    """(vertex mask, closed-neighbourhood mask) per k-clique, in lex order.

    Built once from enumerate_k_cliques and kept beside its sizes for the
    most recently asked graph; the returned tuple is shared, not copied.
    The cliques inside a vertex mask `zone` are the entries with
    `not vmask & ~zone`, still in lex order.
    """
    tables = _kept_cliques(g)[1]
    table = tables.get(k)
    if table is None:
        clo = g.clo
        rows = []
        for c in enumerate_k_cliques(g, k):
            vmask = 0
            cover = 0
            for v in c:
                vmask |= 1 << v
                cover |= clo[v]
            rows.append((vmask, cover))
        table = tables[k] = tuple(rows)
    return table


def _clique_within(adj, cand, need):
    """Whether cand holds a clique on need vertices."""
    if need == 0:
        return True
    while cand:
        if cand.bit_count() < need:
            return False
        b = cand & -cand
        v = b.bit_length() - 1
        cand ^= b
        if _clique_within(adj, cand & adj[v], need - 1):
            return True
    return False


def has_k_clique(g, k, within=None):
    """Whether any k-clique exists (early-exit variant)."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return _clique_within(g.adj, g.full if within is None else within, k)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphClass:
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
    for v in range(g.n):
        nbrs = list(bits(g.adj[v]))
        for ai, a in enumerate(nbrs):
            for b in nbrs[ai + 1 :]:
                if g.adj[a] >> b & 1:
                    continue
                # third leaf: neighbor of v avoiding N[a] and N[b]
                if g.adj[v] & ~g.clo[a] & ~g.clo[b]:
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
