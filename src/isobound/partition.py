"""Structure induced on a graph by a maximal irredundant set.

Fixing a maximal irredundant set I splits the graph into zones (undominated
vertices, external private neighbors, shared neighbors) and splits I itself
by how members keep their private neighborhoods. The refinements for the
k = Delta-1 and k = Delta-2 regimes further organize the shared zone into
clique clusters. Everything here is exact set algebra over bit masks; any
failure of a guaranteed structural property raises MachineryError rather
than degrading silently.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import DichotomyError, MachineryError, PreconditionError, RegimeError
from .graph import bits, closed_mask, enumerate_k_cliques, mask_of
from .predicates import is_maximal_irredundant_mask, private_neighborhoods


@dataclass(frozen=True, eq=True)
class IrredundancePartition:
    """Zones carved out by a maximal irredundant set i.

    u: vertices outside N[i] (undominated).
    p: external private neighbors of members of i.
    s: remaining neighbors of i (each has at least two i-neighbors).
    z: members isolated inside G[i]; a: the non-isolated members.
    b: members of a whose private neighborhood fits inside the open
       neighborhood of some undominated vertex; q: the rest of a.
    nset: the closure inside b seeded by members whose private neighborhood
       is a clique (see compute_partition); m: b minus nset.
    nhat: per member of nset, its lowest-index private neighbor.
    pn: private neighborhood of every member of i, as sorted tuples.
    """

    i: tuple
    u: tuple
    p: tuple
    s: tuple
    z: tuple
    a: tuple
    q: tuple
    b: tuple
    nset: tuple
    m: tuple
    nhat: tuple
    pn: dict


@dataclass(frozen=True)
class UndominatedWitness:
    """For an undominated vertex u: a member x whose private neighborhood u
    dominates, and per nonadjacent pair (x1, x2) inside that neighborhood,
    non-isolated members y1, y2 whose private neighborhoods x1 and x2
    dominate in turn."""

    u: int
    x: int
    pairs: tuple  # (x1, x2, y1, y2) rows, x1 < x2


def _is_clique_mask(g, m):
    for v in bits(m):
        if m & ~g.clo[v]:
            return False
    return True


def _tuple(mask):
    return tuple(bits(mask))


def compute_partition(g, i):
    """Carve the zone partition induced by a maximal irredundant set i.

    Raises PreconditionError if i is not maximal irredundant, and
    MachineryError if any structural guarantee fails (which would mean a bug,
    not a property of the input).
    """
    imask = mask_of(i)
    if imask & ~g.full:
        raise ValueError("vertex out of range")
    if not is_maximal_irredundant_mask(g, imask):
        raise PreconditionError("input set is not maximal irredundant")

    pns, closed_i = private_neighborhoods(g, imask)
    pn = dict(zip(bits(imask), pns))
    seen = 0
    for x, pnm in pn.items():
        if pnm & seen:
            raise MachineryError("private neighborhoods of distinct members overlap")
        seen |= pnm

    umask = g.full & ~closed_i
    open_i = 0
    for x in bits(imask):
        open_i |= g.adj[x]
    pmask = 0
    for pnm in pn.values():
        pmask |= pnm
    pmask &= ~imask
    smask = open_i & ~pmask & ~imask
    for v in bits(smask):
        if (g.adj[v] & imask).bit_count() < 2:
            raise MachineryError(f"shared vertex {v} has fewer than two i-neighbors")

    zmask = 0
    for x in bits(imask):
        if not g.adj[x] & imask:
            zmask |= 1 << x
    amask = imask & ~zmask

    bmask = 0
    for x in bits(amask):
        pnx = pn[x]
        for u in bits(umask):
            if not pnx & ~g.adj[u]:
                bmask |= 1 << x
                break
    qmask = amask & ~bmask
    if umask and not bmask:
        raise MachineryError("undominated vertices exist but no member qualifies")

    # closure: seed with members whose private neighborhood is a clique, then
    # keep adding members all of whose private neighbors dominate the private
    # neighborhood of some member already inside, in ascending index order
    blist = list(bits(bmask))
    nmask = 0
    for x in blist:
        if _is_clique_mask(g, pn[x]):
            nmask |= 1 << x
    changed = True
    while changed:
        changed = False
        for x in blist:
            if nmask >> x & 1:
                continue
            qualifies = True
            for xp in bits(pn[x]):
                cxp = g.clo[xp]
                if not any(not pn[y] & ~cxp for y in bits(nmask)):
                    qualifies = False
                    break
            if qualifies:
                nmask |= 1 << x
                changed = True
    mmask = bmask & ~nmask
    for x in bits(mmask):
        if pn[x].bit_count() < 2:
            raise MachineryError(f"member {x} outside the closure has a tiny private neighborhood")

    nhat = tuple((pn[x] & -pn[x]).bit_length() - 1 for x in bits(nmask))
    if len(set(nhat)) != len(nhat):
        raise MachineryError("closure representatives collide")

    return IrredundancePartition(
        i=_tuple(imask),
        u=_tuple(umask),
        p=_tuple(pmask),
        s=_tuple(smask),
        z=_tuple(zmask),
        a=_tuple(amask),
        q=_tuple(qmask),
        b=_tuple(bmask),
        nset=_tuple(nmask),
        m=_tuple(mmask),
        nhat=nhat,
        pn={x: _tuple(m) for x, m in pn.items()},
    )


def representatives_dominate(g, part):
    """Whether nhat dominates the union of closure members' private
    neighborhoods. Guaranteed by construction; exposed for the harness."""
    union = 0
    for x in part.nset:
        union |= mask_of(part.pn[x])
    return not union & ~closed_mask(g, mask_of(part.nhat))


def undominated_witnesses(g, i, part=None):
    """The guaranteed witness structure for every undominated vertex.

    For each u outside N[i]: the lowest-index member x of b with its private
    neighborhood inside N(u), and for every nonadjacent pair x1, x2 of that
    neighborhood, the lowest-index non-isolated members y1, y2 whose private
    neighborhoods x1 and x2 dominate. Absence of any of these raises
    MachineryError, since maximal irredundance guarantees them.
    """
    if part is None:
        part = compute_partition(g, i)
    pn_mask = {x: mask_of(t) for x, t in part.pn.items()}
    amask = mask_of(part.a)
    zmask = mask_of(part.z)
    out = []
    for u in part.u:
        nu = g.adj[u]
        x = None
        for cand in part.b:
            if not pn_mask[cand] & ~nu:
                x = cand
                break
        if x is None:
            raise MachineryError(f"no member's private neighborhood fits N({u})")
        pnx = part.pn[x]
        pairs = []
        for ii, x1 in enumerate(pnx):
            for x2 in pnx[ii + 1 :]:
                if g.has_edge(x1, x2):
                    continue
                ys = []
                for xi in (x1, x2):
                    cxi = g.clo[xi]
                    y = None
                    for cand in bits(amask & ~(1 << x)):
                        if not pn_mask[cand] & ~cxi:
                            y = cand
                            break
                    if y is None:
                        for cand in bits(zmask):
                            if not pn_mask[cand] & ~cxi:
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


def check_delta_regime(g, part, k):
    """Clique-zone exclusions guaranteed when k equals the maximum degree.

    For every k-clique H: if H avoids i it avoids the shared zone entirely;
    if H lies in the undominated zone, each of its vertices dominates the
    private neighborhood of some closure member; if H avoids both i and the
    private zone, each of its vertices is adjacent to a representative.
    Raises MachineryError on violation.
    """
    if k != g.max_degree():
        raise RegimeError(f"k={k} is not the maximum degree {g.max_degree()}")
    imask = mask_of(part.i)
    smask = mask_of(part.s)
    umask = mask_of(part.u)
    pmask = mask_of(part.p)
    nhat_mask = mask_of(part.nhat)
    npn = [mask_of(part.pn[x]) for x in part.nset]
    for c in enumerate_k_cliques(g, k):
        cmask = mask_of(c)
        if not cmask & imask and cmask & smask:
            raise MachineryError(f"clique {c} avoids the set but meets the shared zone")
        if not cmask & ~umask:
            for v in c:
                cv = g.clo[v]
                if not any(not pn & ~cv for pn in npn):
                    raise MachineryError(
                        f"undominated clique vertex {v} dominates no closure member's privates"
                    )
        if not cmask & (pmask | imask):
            for v in c:
                if not g.adj[v] & nhat_mask:
                    raise MachineryError(
                        f"clique vertex {v} misses every representative"
                    )
    return True


# ---------------------------------------------------------------------------
# k = Delta - 1 refinement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairRefinement:
    """Refinement data for the k = Delta-1 regime.

    mprime: members of m with exactly two private neighbors; mtilde: the rest.
    pairs: (member, low private neighbor, high private neighbor) triples.
    y / w: the low / high private neighbors across mprime.
    sprime: shared vertices whose i-neighbors all lie in nset or mprime.
    cliques: the k-cliques inside sprime.
    s_param: the largest number of those cliques adjacent to one vertex of
    nset or mprime; anchor: the lowest vertex attaining it (None when 0).
    x: the anchor plus the lowest vertex of every clique not adjacent to it.
    """

    mprime: tuple
    mtilde: tuple
    pairs: tuple
    y: tuple
    w: tuple
    sprime: tuple
    cliques: tuple
    s_param: int
    anchor: object
    x: tuple


def refine_pairs(g, i, part, k):
    """Organize the shared zone for the k = Delta-1 bound.

    sprime keeps the shared vertices with no i-neighbor outside nset and
    mprime. (Reading it instead as "no neighbor in mtilde, q or z" gives the
    same set; the test suite checks the equivalence.) Counting guarantees
    are enforced: k-cliques of the shared zone are components of it, and 2k
    times the clique count is at most (Delta-2) times |nset u mprime|.
    """
    delta = g.max_degree()
    if delta < 2 or k != delta - 1:
        raise RegimeError(f"k={k} outside the delta-1 regime for delta={delta}")
    imask = mask_of(part.i)
    smask = mask_of(part.s)

    mprime = tuple(x for x in part.m if len(part.pn[x]) == 2)
    mtilde = tuple(x for x in part.m if len(part.pn[x]) != 2)
    pairs = tuple((x, part.pn[x][0], part.pn[x][1]) for x in mprime)
    y = tuple(p[1] for p in pairs)
    w = tuple(p[2] for p in pairs)

    nm_mask = mask_of(part.nset) | mask_of(mprime)
    sprime_mask = 0
    for v in bits(smask):
        if not g.adj[v] & imask & ~nm_mask:
            sprime_mask |= 1 << v

    # k-cliques of the shared zone must be closed off inside it
    for c in enumerate_k_cliques(g, k, within=smask):
        cmask = mask_of(c)
        reach = 0
        for v in c:
            reach |= g.adj[v]
        if reach & smask & ~cmask:
            raise MachineryError(f"shared-zone clique {c} is not a component there")

    cliques = tuple(enumerate_k_cliques(g, k, within=sprime_mask))
    seen = 0
    for c in cliques:
        cmask = mask_of(c)
        if cmask & seen:
            raise MachineryError("sprime cliques overlap")
        seen |= cmask

    nm = sorted(bits(nm_mask))
    if 2 * k * len(cliques) > (delta - 2) * len(nm):
        raise MachineryError(
            f"clique count {len(cliques)} breaks the counting bound for {len(nm)} anchors"
        )

    umask = mask_of(part.u)
    pmask = mask_of(part.p)
    bpn = [(x, mask_of(part.pn[x])) for x in part.b]
    for c in enumerate_k_cliques(g, k):
        cmask = mask_of(c)
        if cmask & umask and not cmask & pmask:
            for u in bits(cmask & umask):
                nu = g.adj[u]
                for x, pnx in bpn:
                    if not pnx & ~nu and not nm_mask >> x & 1:
                        raise MachineryError(
                            f"qualifying member {x} for undominated {u} sits outside the anchors"
                        )

    s_param = 0
    anchor = None
    counts = []
    for v in nm:
        cnt = sum(1 for c in cliques if g.adj[v] & mask_of(c))
        counts.append(cnt)
        if cnt > s_param:
            s_param = cnt
            anchor = v
    if s_param > delta - 2:
        raise MachineryError(f"anchor degree {s_param} exceeds delta-2")
    if s_param == 0:
        xs = ()
        anchor = None
    else:
        amask_adj = g.adj[anchor]
        xs = [anchor]
        for c in cliques:
            if not amask_adj & mask_of(c):
                xs.append(c[0])
        xs = tuple(sorted(xs))

    return PairRefinement(
        mprime=mprime,
        mtilde=mtilde,
        pairs=pairs,
        y=y,
        w=w,
        sprime=_tuple(sprime_mask),
        cliques=cliques,
        s_param=s_param,
        anchor=anchor,
        x=xs,
    )


# ---------------------------------------------------------------------------
# k = Delta - 2 refinement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwinRefinement:
    """Refinement data for the k = Delta-2 regime.

    mprime / mdouble: members of m with exactly two / three private
    neighbors; mbar: the rest of m. qprime: members of q with exactly one
    private neighbor; qtilde: the rest of q. sdouble: shared vertices whose
    i-neighbors all lie in nset, mprime, mdouble or qprime. cliques: the
    k-cliques inside sdouble. Clusters of intersecting cliques are either a
    single clique (isolated) or two cliques on k+1 vertices (twin);
    isolated_count / twin_count tally them and x holds the lowest vertex of
    each cluster. mhat / qhat are lowest-index private neighbors for
    mprime u mdouble and qprime respectively.
    """

    mprime: tuple
    mdouble: tuple
    mbar: tuple
    qprime: tuple
    qtilde: tuple
    sdouble: tuple
    cliques: tuple
    clusters: tuple
    isolated_count: int
    twin_count: int
    mhat: tuple
    qhat: tuple
    x: tuple


def refine_twins(g, i, part, k):
    """Organize the shared zone for the k = Delta-2 bound.

    Enforces the guarantees the bound's counting argument rests on:
    intersecting shared-zone cliques overlap in exactly k-1 vertices with
    the overlap saturated, every cluster is a single clique or a twin, and
    twice the cluster count never exceeds the anchor count.
    """
    delta = g.max_degree()
    if delta < 3 or k != delta - 2:
        raise RegimeError(f"k={k} outside the delta-2 regime for delta={delta}")
    imask = mask_of(part.i)
    smask = mask_of(part.s)

    mprime = tuple(x for x in part.m if len(part.pn[x]) == 2)
    mdouble = tuple(x for x in part.m if len(part.pn[x]) == 3)
    mbar = tuple(x for x in part.m if len(part.pn[x]) > 3)
    qprime = tuple(x for x in part.q if len(part.pn[x]) == 1)
    qtilde = tuple(x for x in part.q if len(part.pn[x]) != 1)

    core_mask = mask_of(part.nset) | mask_of(mprime) | mask_of(mdouble) | mask_of(qprime)
    sdouble_mask = 0
    for v in bits(smask):
        if not g.adj[v] & imask & ~core_mask:
            sdouble_mask |= 1 << v

    apn = [mask_of(part.pn[y]) for y in part.a]
    for x in mprime + mdouble:
        pnx = mask_of(part.pn[x])
        for xp in part.pn[x]:
            if g.adj[xp] & pnx & ~(1 << xp):
                continue
            cxp = g.clo[xp]
            if not any(not pny & ~cxp for pny in apn):
                raise MachineryError(
                    f"lonely private neighbor {xp} of {x} dominates nobody's privates"
                )

    cliques = tuple(enumerate_k_cliques(g, k, within=sdouble_mask))
    cmasks = [mask_of(c) for c in cliques]

    # cluster intersecting cliques
    parent = list(range(len(cliques)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

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
        clusters.append(_tuple(union))
    clusters.sort()

    core = sorted(bits(core_mask))
    if 2 * (isolated_count + twin_count) > len(core):
        raise MachineryError(
            f"{isolated_count + twin_count} clusters break the counting bound for {len(core)} anchors"
        )

    mhat = tuple(part.pn[x][0] for x in mprime + mdouble)
    qhat = tuple(part.pn[x][0] for x in qprime)
    xs = tuple(sorted(c[0] for c in clusters))

    return TwinRefinement(
        mprime=mprime,
        mdouble=mdouble,
        mbar=mbar,
        qprime=qprime,
        qtilde=qtilde,
        sdouble=_tuple(sdouble_mask),
        cliques=cliques,
        clusters=tuple(clusters),
        isolated_count=isolated_count,
        twin_count=twin_count,
        mhat=mhat,
        qhat=qhat,
        x=xs,
    )


# ---------------------------------------------------------------------------
# per-set sharing
# ---------------------------------------------------------------------------


class SetMachinery:
    """The partition machinery of one set i in g, each piece computed on
    first use and kept.

    partition is compute_partition(g, i), which certifies that i is maximal
    irredundant; delta_regime, pairs and twins are check_delta_regime at
    k = Delta, refine_pairs at Delta-1 and refine_twins at Delta-2 on that
    partition. A piece that raises is not kept, so asking again raises again.
    """

    def __init__(self, g, i):
        self.g = g
        self.i = tuple(sorted(set(i)))
        self.delta = g.max_degree()

    @cached_property
    def partition(self):
        return compute_partition(self.g, self.i)

    @cached_property
    def delta_regime(self):
        return check_delta_regime(self.g, self.partition, self.delta)

    @cached_property
    def pairs(self):
        return refine_pairs(self.g, self.i, self.partition, self.delta - 1)

    @cached_property
    def twins(self):
        return refine_twins(self.g, self.i, self.partition, self.delta - 2)
