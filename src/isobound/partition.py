"""Structure induced on a graph by a maximal irredundant set.

Fixing a maximal irredundant set I splits the graph into zones (undominated
vertices, external private neighbors, shared neighbors) and splits I itself
by how members keep their private neighborhoods. The refinements for the
k = Delta-1 and k = Delta-2 regimes further organize the shared zone into
clique clusters. Everything here is exact set algebra over bit masks: the
zones and private neighborhoods are held as masks, and the k-cliques are
read from graph.clique_table. Any failure of a guaranteed structural
property raises MachineryError rather than degrading silently.
"""

from typing import NamedTuple

from .errors import DichotomyError, MachineryError, PreconditionError, RegimeError
from .graph import bits, clique_table, closed_mask, vertex_mask
from .predicates import irredundant_extension, private_neighborhoods


class IrredundancePartition(NamedTuple):
    """Zones carved out by a maximal irredundant set i, each a vertex mask.

    u: vertices outside N[i] (undominated).
    p: external private neighbors of members of i.
    s: remaining neighbors of i (each has at least two i-neighbors).
    z: members isolated inside G[i]; a: the non-isolated members.
    b: members of a whose private neighborhood fits inside the open
       neighborhood of some undominated vertex; q: the rest of a.
    nset: the closure inside b seeded by members whose private neighborhood
       is a clique (see compute_partition); m: b minus nset.
    nhat: the lowest-index private neighbor of each member of nset.
    pn: per vertex, laid out like Graph.adj: pn[x] is the private
       neighborhood mask of x for a member x of i, and 0 for every other
       vertex.
    """

    i: int
    u: int
    p: int
    s: int
    z: int
    a: int
    q: int
    b: int
    nset: int
    m: int
    nhat: int
    pn: tuple


class UndominatedWitness(NamedTuple):
    """For an undominated vertex u: a member x whose private neighborhood u
    dominates, and per nonadjacent pair (x1, x2) inside that neighborhood,
    non-isolated members y1, y2 whose private neighborhoods x1 and x2
    dominate in turn."""

    u: int
    x: int
    pairs: tuple  # (x1, x2, y1, y2) rows, x1 < x2


def _lows(masks):
    """The lowest vertex of each nonempty mask, together as one mask."""
    out = 0
    for m in masks:
        out |= m & -m
    return out


def _by_pn_size(pn, mask):
    """The members x of mask with |PN(x)| = 1, = 2, = 3 and > 3, as four
    masks."""
    one = two = three = more = 0
    for x in bits(mask):
        size = pn[x].bit_count()
        if size == 1:
            one |= 1 << x
        elif size == 2:
            two |= 1 << x
        elif size == 3:
            three |= 1 << x
        elif size > 3:
            more |= 1 << x
    return one, two, three, more


def _fenced(g, zone, outside):
    """The vertices of zone with no neighbor in outside, as a mask."""
    adj = g.adj
    out = 0
    for v in bits(zone):
        if not adj[v] & outside:
            out |= 1 << v
    return out


def compute_partition(g, i):
    """Carve the zone partition induced by a maximal irredundant set i.

    Raises PreconditionError if i is not maximal irredundant, and
    MachineryError if any structural guarantee fails (which would mean a bug,
    not a property of the input).
    """
    imask = vertex_mask(g, i)
    state = private_neighborhoods(g, imask)
    if state is None or irredundant_extension(g, *state, g.full & ~imask) is not None:
        raise PreconditionError("input set is not maximal irredundant")

    pns, closed_i = state
    adj = g.adj
    clo = g.clo
    umask = g.full & ~closed_i
    nus = [adj[u] for u in bits(umask)]
    # one pass over the members sorts each into z (isolated in G[i]) or a,
    # and a member of a into b when its private neighborhood fits inside the
    # open neighborhood of an undominated vertex; the closure below is
    # seeded with the members of b whose private neighborhood is a clique
    pn = [0] * g.n
    seen = zmask = bmask = nmask = 0
    for x, pnm in zip(bits(imask), pns):
        if pnm & seen:
            raise MachineryError("private neighborhoods of distinct members overlap")
        seen |= pnm
        pn[x] = pnm
        if not adj[x] & imask:
            zmask |= 1 << x
            continue
        for nu in nus:
            if not pnm & ~nu:
                bmask |= 1 << x
                for v in bits(pnm):
                    if pnm & ~clo[v]:
                        break
                else:
                    nmask |= 1 << x
                break

    pmask = seen & ~imask
    # N(i) and N[i] agree outside i
    smask = closed_i & ~imask & ~seen
    for v in bits(smask):
        if (adj[v] & imask).bit_count() < 2:
            raise MachineryError(f"shared vertex {v} has fewer than two i-neighbors")

    amask = imask & ~zmask
    qmask = amask & ~bmask
    if umask and not bmask:
        raise MachineryError("undominated vertices exist but no member qualifies")

    # closure: from the seed, keep adding members all of whose private
    # neighbors dominate the private neighborhood of some member already
    # inside, in ascending index order
    changed = True
    while changed:
        changed = False
        for x in bits(bmask & ~nmask):
            if all(any(not pn[y] & ~clo[xp] for y in bits(nmask)) for xp in bits(pn[x])):
                nmask |= 1 << x
                changed = True
    mmask = bmask & ~nmask
    for x in bits(mmask):
        if pn[x].bit_count() < 2:
            raise MachineryError(f"member {x} outside the closure has a tiny private neighborhood")

    nhat = _lows(pn[x] for x in bits(nmask))
    if nhat.bit_count() != nmask.bit_count():
        raise MachineryError("closure representatives collide")

    # the records of this module are built positionally, in field order:
    # a named tuple matches keyword arguments to its fields on every call
    return IrredundancePartition(
        imask, umask, pmask, smask, zmask, amask, qmask, bmask, nmask, mmask,
        nhat, tuple(pn),
    )


def representatives_dominate(g, part):
    """Whether nhat dominates the union of closure members' private
    neighborhoods. Guaranteed by construction; exposed for the harness."""
    union = 0
    for x in bits(part.nset):
        union |= part.pn[x]
    return not union & ~closed_mask(g, part.nhat)


def undominated_witnesses(g, part):
    """The guaranteed witness structure for every undominated vertex of the
    partition part of g.

    For each u outside N[i]: the lowest-index member x of b with its private
    neighborhood inside N(u), and for every nonadjacent pair x1, x2 of that
    neighborhood, the lowest-index non-isolated members y1, y2 whose private
    neighborhoods x1 and x2 dominate. Absence of any of these raises
    MachineryError, since maximal irredundance guarantees them.
    """
    pn = part.pn
    out = []
    for u in bits(part.u):
        nu = g.adj[u]
        x = None
        for cand in bits(part.b):
            if not pn[cand] & ~nu:
                x = cand
                break
        if x is None:
            raise MachineryError(f"no member's private neighborhood fits N({u})")
        pnx = pn[x]
        pairs = []
        for x1 in bits(pnx):
            # the members of pn_x above x1 and not adjacent to it
            for x2 in bits((pnx >> (x1 + 1) << (x1 + 1)) & ~g.adj[x1]):
                ys = []
                for xi in (x1, x2):
                    cxi = g.clo[xi]
                    y = None
                    for cand in bits(part.a & ~(1 << x)):
                        if not pn[cand] & ~cxi:
                            y = cand
                            break
                    if y is None:
                        for cand in bits(part.z):
                            if not pn[cand] & ~cxi:
                                raise MachineryError(
                                    f"only an isolated member covers for pair vertex {xi}"
                                )
                        raise MachineryError(
                            f"no member covers for pair vertex {xi} of undominated {u}"
                        )
                    ys.append(y)
                pairs.append((x1, x2, ys[0], ys[1]))
        out.append(UndominatedWitness(u=u, x=x, pairs=tuple(pairs)))
    return tuple(out)


# ---------------------------------------------------------------------------
# k = Delta regime claims
# ---------------------------------------------------------------------------


def check_delta_regime(g, part):
    """Clique-zone exclusions guaranteed at k = Delta, the maximum degree.

    For every k-clique H: if H avoids i it avoids the shared zone entirely;
    if H lies in the undominated zone, each of its vertices dominates the
    private neighborhood of some closure member; if H avoids both i and the
    private zone, each of its vertices is adjacent to a representative.
    Raises MachineryError on violation.
    """
    delta = g.max_degree()
    if delta < 1:
        raise RegimeError(f"the delta regime needs delta >= 1, got delta={delta}")
    npn = [part.pn[x] for x in bits(part.nset)]
    for cmask, _ in clique_table(g, delta):
        if not cmask & part.i and cmask & part.s:
            raise MachineryError(
                f"clique {tuple(bits(cmask))} avoids the set but meets the shared zone"
            )
        if not cmask & ~part.u:
            for v in bits(cmask):
                cv = g.clo[v]
                if not any(not pn & ~cv for pn in npn):
                    raise MachineryError(
                        f"undominated clique vertex {v} dominates no closure member's privates"
                    )
        if not cmask & (part.p | part.i):
            for v in bits(cmask):
                if not g.adj[v] & part.nhat:
                    raise MachineryError(
                        f"clique vertex {v} misses every representative"
                    )
    return True


# ---------------------------------------------------------------------------
# k = Delta - 1 refinement
# ---------------------------------------------------------------------------


class PairRefinement(NamedTuple):
    """Refinement data for the k = Delta-1 regime; vertex sets are masks.

    mprime: members of m with exactly two private neighbors; mtilde: the rest.
    y: the lower private neighbor of each member of mprime.
    sprime: shared vertices whose i-neighbors all lie in nset or mprime.
    cliques: the k-cliques inside sprime, as sorted tuples in lex order.
    s_param: the largest number of those cliques adjacent to one vertex of
    nset or mprime; anchor: the lowest vertex attaining it (None when 0).
    x: the anchor plus the lowest vertex of every clique not adjacent to it.
    """

    mprime: int
    mtilde: int
    y: int
    sprime: int
    cliques: tuple
    s_param: int
    anchor: object
    x: int


def refine_pairs(g, part):
    """Organize the shared zone for the k = Delta-1 bound.

    sprime keeps the shared vertices with no i-neighbor outside nset and
    mprime. (Reading it instead as "no neighbor in mtilde, q or z" gives the
    same set; the test suite checks the equivalence.) Counting guarantees
    are enforced: k-cliques of the shared zone are components of it, and 2k
    times the clique count is at most (Delta-2) times |nset u mprime|.
    """
    delta = g.max_degree()
    if delta < 2:
        raise RegimeError(f"the delta-1 regime needs delta >= 2, got delta={delta}")
    k = delta - 1
    pn = part.pn
    smask = part.s
    mprime = _by_pn_size(pn, part.m)[1]
    nm_mask = part.nset | mprime
    sprime = _fenced(g, smask, part.i & ~nm_mask)

    # one pass over the k-cliques: those of the shared zone must be closed
    # off inside it, those of sprime must be disjoint, and those meeting the
    # undominated zone but not the private one must keep their qualifying
    # members among the anchors
    outside = part.b & ~nm_mask
    cliques = []
    seen = 0
    for cmask, cover in clique_table(g, k):
        if not cmask & ~smask:
            if cover & smask & ~cmask:
                raise MachineryError(
                    f"shared-zone clique {tuple(bits(cmask))} is not a component there"
                )
            if not cmask & ~sprime:
                if cmask & seen:
                    raise MachineryError("sprime cliques overlap")
                seen |= cmask
                cliques.append(cmask)
        if cmask & part.u and not cmask & part.p:
            for u in bits(cmask & part.u):
                nu = g.adj[u]
                for x in bits(outside):
                    if not pn[x] & ~nu:
                        raise MachineryError(
                            f"qualifying member {x} for undominated {u} sits outside the anchors"
                        )

    anchors = nm_mask.bit_count()
    if 2 * k * len(cliques) > (delta - 2) * anchors:
        raise MachineryError(
            f"clique count {len(cliques)} breaks the counting bound for {anchors} anchors"
        )

    s_param = 0
    anchor = None
    if cliques:
        for v in bits(nm_mask):
            cnt = sum(1 for c in cliques if g.adj[v] & c)
            if cnt > s_param:
                s_param = cnt
                anchor = v
    if s_param > delta - 2:
        raise MachineryError(f"anchor degree {s_param} exceeds delta-2")
    xs = 0
    if s_param:
        xs = 1 << anchor | _lows(c for c in cliques if not g.adj[anchor] & c)

    return PairRefinement(
        mprime,
        part.m & ~mprime,  # mtilde
        _lows(pn[x] for x in bits(mprime)),  # y
        sprime,
        tuple(tuple(bits(c)) for c in cliques),  # cliques
        s_param,
        anchor,
        xs,  # x
    )


# ---------------------------------------------------------------------------
# k = Delta - 2 refinement
# ---------------------------------------------------------------------------


class TwinRefinement(NamedTuple):
    """Refinement data for the k = Delta-2 regime; vertex sets are masks.

    mprime / mdouble: members of m with exactly two / three private
    neighbors; mbar: the rest of m. qprime: members of q with exactly one
    private neighbor; qtilde: the rest of q. sdouble: shared vertices whose
    i-neighbors all lie in nset, mprime, mdouble or qprime. cliques: the
    k-cliques inside sdouble, as sorted tuples in lex order. Clusters of
    intersecting cliques are either a single clique (isolated) or two
    cliques on k+1 vertices (twin); clusters holds each one's vertices as a
    sorted tuple, isolated_count / twin_count tally them and x holds the
    lowest vertex of each. mhat / qhat are lowest-index private neighbors
    for mprime u mdouble and qprime respectively.
    """

    mprime: int
    mdouble: int
    mbar: int
    qprime: int
    qtilde: int
    sdouble: int
    cliques: tuple
    clusters: tuple
    isolated_count: int
    twin_count: int
    mhat: int
    qhat: int
    x: int


def refine_twins(g, part):
    """Organize the shared zone for the k = Delta-2 bound.

    Enforces the guarantees the bound's counting argument rests on:
    intersecting shared-zone cliques overlap in exactly k-1 vertices with
    the overlap saturated, every cluster is a single clique or a twin, and
    twice the cluster count never exceeds the anchor count.
    """
    delta = g.max_degree()
    if delta < 3:
        raise RegimeError(f"the delta-2 regime needs delta >= 3, got delta={delta}")
    k = delta - 2
    pn = part.pn
    _, mprime, mdouble, mbar = _by_pn_size(pn, part.m)
    qprime = _by_pn_size(pn, part.q)[0]
    core_mask = part.nset | mprime | mdouble | qprime
    sdouble = _fenced(g, part.s, part.i & ~core_mask)

    apn = [pn[y] for y in bits(part.a)]
    for x in bits(mprime | mdouble):
        pnx = pn[x]
        for xp in bits(pnx):
            if g.adj[xp] & pnx:
                continue
            cxp = g.clo[xp]
            if not any(not pny & ~cxp for pny in apn):
                raise MachineryError(
                    f"lonely private neighbor {xp} of {x} dominates nobody's privates"
                )

    # a clique is nonempty, so an empty sdouble holds none
    cmasks = [c for c, _ in clique_table(g, k) if not c & ~sdouble] if sdouble else []
    cliques = tuple(tuple(bits(c)) for c in cmasks)

    for ia in range(len(cliques)):
        for ib in range(ia + 1, len(cliques)):
            shared = cmasks[ia] & cmasks[ib]
            if not shared:
                continue
            if shared.bit_count() != k - 1:
                raise MachineryError(
                    f"cliques {cliques[ia]} and {cliques[ib]} share {shared.bit_count()} vertices"
                )
            for v in bits(shared):
                if g.degree(v) != delta:
                    raise MachineryError(f"shared clique vertex {v} is unsaturated")

    # cluster intersecting cliques: each clique absorbs every cluster it
    # meets, so the clusters stay pairwise disjoint
    merged = []
    for c in cmasks:
        apart = []
        for u in merged:
            if u & c:
                c |= u
            else:
                apart.append(u)
        merged = apart + [c]
    clusters = sorted(tuple(bits(c)) for c in merged)
    isolated_count = 0
    twin_count = 0
    for cluster in clusters:
        size = len(cluster)
        if size == k:
            isolated_count += 1
        elif size == k + 1:
            twin_count += 1
        else:
            raise DichotomyError(
                f"clique cluster on {size} vertices is neither a single clique nor a twin"
            )

    anchors = core_mask.bit_count()
    if 2 * (isolated_count + twin_count) > anchors:
        raise MachineryError(
            f"{isolated_count + twin_count} clusters break the counting bound for {anchors} anchors"
        )

    return TwinRefinement(
        mprime,
        mdouble,
        mbar,
        qprime,
        part.q & ~qprime,  # qtilde
        sdouble,
        cliques,
        tuple(clusters),
        isolated_count,
        twin_count,
        _lows(pn[x] for x in bits(mprime | mdouble)),  # mhat
        _lows(pn[x] for x in bits(qprime)),  # qhat
        _lows(merged),  # x
    )
