"""Independent brute-force oracles for the test suite, and reference copies
of earlier package code.

The oracles work on plain sets straight from the definitions, with no
bitmask tricks shared with the package, so a bug in the package cannot hide
inside its oracle. The reference copies at the end are older versions of
package functions, kept to cross-check the current ones against.
"""

from itertools import combinations

from isobound.errors import DichotomyError, MachineryError, PreconditionError, RegimeError
from isobound.graph import bits, clique_table, mask_of, vertex_mask
from isobound.partition import IrredundancePartition, PairRefinement, TwinRefinement
from isobound.predicates import irredundant_extension, private_neighborhoods


def nbrs(g, v):
    return {u for u in range(g.n) if g.has_edge(u, v)}


def closed(g, vs):
    out = set(vs)
    for v in vs:
        out |= nbrs(g, v)
    return out


def dominating(g, s):
    return closed(g, s) == set(range(g.n))


def privates(g, s, x):
    others = set(s) - {x}
    return (nbrs(g, x) | {x}) - closed(g, others)


def irredundant(g, s):
    return all(privates(g, s, x) for x in s)


def maximal_irredundant(g, s):
    s = set(s)
    if not irredundant(g, s):
        return False
    return all(not irredundant(g, s | {v}) for v in range(g.n) if v not in s)


def has_clique(g, vs, k):
    vs = sorted(vs)
    for combo in combinations(vs, k):
        if all(g.has_edge(a, b) for a, b in combinations(combo, 2)):
            return True
    return False


def k_isolating(g, s, k):
    rest = set(range(g.n)) - closed(g, s)
    return not has_clique(g, rest, k)


def brute_gamma(g):
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            if dominating(g, combo):
                return size, combo
    raise AssertionError("no dominating set found")


def brute_ir(g):
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            if maximal_irredundant(g, combo):
                return size, combo
    raise AssertionError("no maximal irredundant set found")


def brute_iota(g, k):
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            if k_isolating(g, combo, k):
                return size, combo
    raise AssertionError("no isolating set found")


def minimal_dominating_sets(g):
    """Every dominating set minimal under inclusion (not just minimum)."""
    out = []
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            if not dominating(g, combo):
                continue
            if all(not dominating(g, set(combo) - {x}) for x in combo):
                out.append(combo)
    return out


def maximal_irredundant_sets(g):
    out = []
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            if maximal_irredundant(g, combo):
                out.append(combo)
    return out


def all_k_cliques(g, k):
    return [
        c
        for c in combinations(range(g.n), k)
        if all(g.has_edge(a, b) for a, b in combinations(c, 2))
    ]


# ---------------------------------------------------------------------------
# reference copies of the partition machinery
# ---------------------------------------------------------------------------
#
# Unlike the oracles above, these are not independent of the package: they
# are compute_partition, refine_pairs and refine_twins as they stood before
# each vertex class came to be selected in one loop, kept verbatim (with the
# helpers they called) so that the current ones can be checked against them
# record for record. They read the package's clique table and irredundance
# state, which have oracle tests of their own.

def _is_clique_mask(g, m):
    for v in bits(m):
        if m & ~g.clo[v]:
            return False
    return True


def _select(mask, keep):
    """The members x of mask with keep(x), as a mask."""
    out = 0
    for x in bits(mask):
        if keep(x):
            out |= 1 << x
    return out


def _lows(masks):
    """The lowest vertex of each nonempty mask, together as one mask."""
    out = 0
    for m in masks:
        out |= m & -m
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
    pn = [0] * g.n
    seen = 0
    for x, pnm in zip(bits(imask), pns):
        if pnm & seen:
            raise MachineryError("private neighborhoods of distinct members overlap")
        seen |= pnm
        pn[x] = pnm

    umask = g.full & ~closed_i
    pmask = seen & ~imask
    # N(i) and N[i] agree outside i
    smask = closed_i & ~imask & ~seen
    for v in bits(smask):
        if (g.adj[v] & imask).bit_count() < 2:
            raise MachineryError(f"shared vertex {v} has fewer than two i-neighbors")

    zmask = _select(imask, lambda x: not g.adj[x] & imask)
    amask = imask & ~zmask
    bmask = _select(amask, lambda x: any(not pn[x] & ~g.adj[u] for u in bits(umask)))
    qmask = amask & ~bmask
    if umask and not bmask:
        raise MachineryError("undominated vertices exist but no member qualifies")

    # closure: seed with members whose private neighborhood is a clique, then
    # keep adding members all of whose private neighbors dominate the private
    # neighborhood of some member already inside, in ascending index order
    nmask = _select(bmask, lambda x: _is_clique_mask(g, pn[x]))
    changed = True
    while changed:
        changed = False
        for x in bits(bmask & ~nmask):
            if all(any(not pn[y] & ~g.clo[xp] for y in bits(nmask)) for xp in bits(pn[x])):
                nmask |= 1 << x
                changed = True
    mmask = bmask & ~nmask
    for x in bits(mmask):
        if pn[x].bit_count() < 2:
            raise MachineryError(f"member {x} outside the closure has a tiny private neighborhood")

    nhat = tuple((pn[x] & -pn[x]).bit_length() - 1 for x in bits(nmask))
    nhat_mask = mask_of(nhat)
    if nhat_mask.bit_count() != len(nhat):
        raise MachineryError("closure representatives collide")

    return IrredundancePartition(
        i=imask,
        u=umask,
        p=pmask,
        s=smask,
        z=zmask,
        a=amask,
        q=qmask,
        b=bmask,
        nset=nmask,
        m=mmask,
        nhat=nhat_mask,
        pn=tuple(pn),
    )


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
    mprime = _select(part.m, lambda x: pn[x].bit_count() == 2)
    pairs = tuple((x, *bits(pn[x])) for x in bits(mprime))
    nm_mask = part.nset | mprime
    sprime = _select(smask, lambda v: not g.adj[v] & part.i & ~nm_mask)

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
        mprime=mprime,
        mtilde=part.m & ~mprime,
        y=mask_of(lo for _, lo, _ in pairs),
        sprime=sprime,
        cliques=tuple(tuple(bits(c)) for c in cliques),
        s_param=s_param,
        anchor=anchor,
        x=xs,
    )


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
    mprime = _select(part.m, lambda x: pn[x].bit_count() == 2)
    mdouble = _select(part.m, lambda x: pn[x].bit_count() == 3)
    mbar = _select(part.m, lambda x: pn[x].bit_count() > 3)
    qprime = _select(part.q, lambda x: pn[x].bit_count() == 1)
    core_mask = part.nset | mprime | mdouble | qprime
    sdouble = _select(part.s, lambda v: not g.adj[v] & part.i & ~core_mask)

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

    cmasks = [c for c, _ in clique_table(g, k) if not c & ~sdouble]
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
        mprime=mprime,
        mdouble=mdouble,
        mbar=mbar,
        qprime=qprime,
        qtilde=part.q & ~qprime,
        sdouble=sdouble,
        cliques=cliques,
        clusters=tuple(clusters),
        isolated_count=isolated_count,
        twin_count=twin_count,
        mhat=_lows(pn[x] for x in bits(mprime | mdouble)),
        qhat=_lows(pn[x] for x in bits(qprime)),
        x=mask_of(c[0] for c in clusters),
    )
