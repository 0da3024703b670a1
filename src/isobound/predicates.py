"""Vertex-set predicates and the re-checks of solver results.

Public functions take iterables of vertex indices and validate their input.
Isolation also has a _mask variant on raw bit masks without validation,
which the isolation solver and the constructive certificates call; the
irredundance state that the ir search and the partition machinery share is
built by private_neighborhoods and irredundant_extension.

is_minimum_dominating re-checks gamma and packing_bound validates a clique
packing. A checker shares no code with what it checks: this module imports
only errors and graph's bits, closed_mask and vertex_mask, never a solver or
clique_table, and a test in tests/test_predicates.py holds it to that.
"""

from itertools import combinations

from .errors import CertificateError, ParameterError
from .graph import bits, closed_mask, vertex_mask


def private_neighbors(g, s, x):
    """The private neighborhood PN(x, s) = N[x] \\ N[s \\ {x}].

    x must be a member of s; vertices of s \\ {x} never qualify, and x itself
    qualifies exactly when it has no neighbor inside s.
    """
    smask = vertex_mask(g, s)
    if x < 0 or not smask >> x & 1:
        raise ParameterError(f"vertex {x} is not in the set")
    return tuple(bits(g.clo[x] & ~closed_mask(g, smask & ~(1 << x))))


def is_dominating(g, s):
    """Whether N[s] covers every vertex."""
    return closed_mask(g, vertex_mask(g, s)) == g.full


def is_minimum_dominating(g, s):
    """Whether s is a minimum dominating set, checked without a solver: s
    dominates and no |s| - 1 closed neighborhoods cover every vertex
    (domination is monotone, so smaller sets need no check)."""
    full = g.full
    smask = vertex_mask(g, s)
    if closed_mask(g, smask) != full:
        return False
    if not smask:
        return True
    for nbhds in combinations(g.clo, smask.bit_count() - 1):
        covered = 0
        for c in nbhds:
            covered |= c
        if covered == full:
            return False
    return True


def private_neighborhoods(g, smask):
    """The irredundance state of a set: (pns, union_closed).

    pns lists PN(x, S) for the members x of S in ascending order and
    union_closed is N[S]. Returns None when some member has an empty private
    neighborhood, i.e. when S is not irredundant. Built one member at a time,
    as the ir search does: adding x shrinks every earlier PN by N[x] and
    gives x the part of N[x] outside the union so far.
    """
    pns = []
    union_closed = 0
    for x in bits(smask):
        cx = g.clo[x]
        pn_x = cx & ~union_closed
        if not pn_x:
            return None
        for j, pn in enumerate(pns):
            pn &= ~cx
            if not pn:
                return None
            pns[j] = pn
        pns.append(pn_x)
        union_closed |= cx
    return pns, union_closed


def irredundant_extension(g, pns, union_closed, candidates):
    """The lowest candidate w with S + w irredundant, or None.

    (pns, union_closed) is the state of an irredundant set S and candidates
    a mask of vertices outside S. S + w is irredundant exactly when w has a
    private neighbor outside N[S] and no member's private neighborhood fits
    inside N[w].
    """
    clo = g.clo
    while candidates:
        b = candidates & -candidates
        candidates ^= b
        w = b.bit_length() - 1
        cw = clo[w]
        if not cw & ~union_closed:
            continue  # w would have no private neighbor of its own
        for pn in pns:
            if not pn & ~cw:
                break
        else:
            return w
    return None


def is_irredundant(g, s):
    """Whether every member of s keeps a nonempty private neighborhood.

    The empty set is irredundant.
    """
    return private_neighborhoods(g, vertex_mask(g, s)) is not None


def is_maximal_irredundant(g, s):
    """Irredundant and not extendable by any single outside vertex."""
    smask = vertex_mask(g, s)
    state = private_neighborhoods(g, smask)
    return state is not None and irredundant_extension(g, *state, g.full & ~smask) is None


def _clique_within(adj, cand, need):
    """Whether cand holds a clique on need vertices: an early-exit search of
    its own, which never reads the clique table."""
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


def is_k_isolating_mask(g, smask, k):
    return not _clique_within(g.adj, g.full & ~closed_mask(g, smask), k)


def is_k_isolating(g, s, k):
    """Whether G - N[s] contains no k-clique.

    k=1 coincides with domination. Any k above the largest clique order makes
    every set (including the empty one) isolating.
    """
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    return is_k_isolating_mask(g, vertex_mask(g, s), k)


def packing_bound(g, k, cliques):
    """The size of a clique packing, validated: a lower bound on iota(g, k).

    cliques is a sequence of k-cliques of g, each k distinct vertices, whose
    closed neighborhoods are pairwise disjoint (else CertificateError), so
    every k-isolating set takes a vertex in each.
    """
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    used = 0
    for c in cliques:
        cs = tuple(sorted(c))
        vmask = 0
        for v in cs:
            if not 0 <= v < g.n:
                raise CertificateError(f"clique vertex {v} out of range")
            vmask |= 1 << v
        if vmask.bit_count() != k or len(cs) != k:
            raise CertificateError(f"designated set {cs} is not a {k}-clique")
        for v in cs:
            if vmask & ~g.clo[v]:
                raise CertificateError(f"designated set {cs} is not a {k}-clique")
        cover = closed_mask(g, vmask)
        if cover & used:
            raise CertificateError(f"closed neighborhood of {cs} overlaps an earlier region")
        used |= cover
    return len(cliques)
