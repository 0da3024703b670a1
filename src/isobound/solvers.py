"""Exact solvers for domination, k-isolation and irredundance numbers.

All three return the invariant value together with the lexicographically
least optimal witness (as a sorted tuple) and a count of explored search
nodes. Exactness is non-negotiable here; the solvers are the ground truth
the rest of the package is checked against, so they favor simple provably
complete branching over cleverness.

gamma and iota share one search: every k-clique (every vertex, for gamma)
is a target, and a chosen vertex kills each target whose closed
neighbourhood holds it. A DFS node branches on the live target with the
fewest candidate vertices and prunes by three rules, each exact:

- Sibling exclusion. Once the branch on v fails, later siblings may not use
  v. A solution holding v that fits the node lies in v's branch, because
  the allowed vertices only shrink along a path, so that branch found it.
- A packing bound at every node. Live targets whose candidate sets are
  pairwise disjoint each need their own vertex, so a greedy pack of more
  of them than the remaining budget prunes. Packing fewer (the scan stops
  at a target with one candidate) only weakens the bound.
- Small regions first. Targets are scanned in order of closed-neighbourhood
  size, which packs tighter and meets a one-candidate target sooner. The
  order changes only which nodes are visited, not what is feasible.

The value is the smallest feasible size, and the DFS returns the set it
found. The witness is fixed vertex by vertex in lex order from that set:
the set's next vertex is known to extend the prefix, so only the vertices
below it are tried, each by asking whether the prefix plus that vertex
still extends, and a success replaces the set. Neither the value nor the
witness depends on the order the DFS visits nodes in.
"""

from dataclasses import dataclass

from .errors import CertificateError, SizeCapError
from .graph import bits, clique_table, closed_mask
from .predicates import is_k_isolating_mask

IR_ORDER_CAP = 32


@dataclass(frozen=True)
class SolveResult:
    value: int
    witness: tuple
    explored: int


@dataclass(frozen=True)
class PackingCertificate:
    """Pairwise disjoint closed neighborhoods of k-cliques.

    Every k-isolating set must take a vertex inside each region, so the
    number of regions is a lower bound on the k-isolation number. For k=1
    this is the classical disjoint-closed-neighborhood bound on domination.
    """

    k: int
    cliques: tuple
    regions: tuple


def _isolation_solve(g, k):
    # Smallest closed neighbourhoods first (stable, so ties keep lex order):
    # the packing below gets tighter and a forced target turns up sooner.
    # The order decides only which nodes are visited, never what is feasible.
    targets = sorted(clique_table(g, k), key=lambda t: t[1].bit_count())
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
        known = dfs(value, 0, g.full)
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
            found = dfs(budget, covered | g.clo[v], g.full >> (v + 1) << (v + 1))
            if found is not None:
                known = prefix | found | (1 << v)
                nxt = v
                break
        prefix |= 1 << nxt
        covered |= g.clo[nxt]
        witness.append(nxt)
        start = nxt + 1
    assert is_k_isolating_mask(g, prefix, k)
    # dfs holds itself through its closure: clearing it frees the search
    # state now instead of at the next cyclic garbage collection
    dfs = None
    return SolveResult(value, tuple(witness), explored[0])


def gamma(g):
    """Domination number with its lex-least minimum dominating set."""
    return _isolation_solve(g, 1)


def iota(g, k):
    """k-isolation number: fewest vertices whose closed neighborhood removal
    leaves the graph k-clique-free."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return _isolation_solve(g, k)


def ir(g, force=False):
    """Irredundance lower number: smallest maximal irredundant set.

    The search walks irredundant sets in ascending lexicographic order per
    size (irredundance is hereditary, so prefix pruning is exact) and tests
    maximality literally, by attempting every one-vertex extension. The first
    hit at the smallest feasible size is the lex-least witness.

    The last member is chosen in place: a node with one member left to pick
    scans the candidates in ascending order and stops at the first u for
    which S + u is irredundant and maximal, reading the private
    neighbourhoods of S + u as pn & ~N[u] without building them. Such a scan
    counts as one node in `explored`, like every node below the target size.

    Refuses n > 32 unless force=True; the enumeration is exponential and the
    cap keeps accidental huge inputs from hanging.
    """
    if g.n > IR_ORDER_CAP and not force:
        raise SizeCapError(
            f"ir solve on n={g.n} exceeds cap {IR_ORDER_CAP}", "pass force=True"
        )
    if g.n == 0:
        return SolveResult(0, (), 0)
    n = g.n
    clo = g.clo
    full = g.full
    explored = [0]

    def dfs(start, smask, members, pns, union_closed, need):
        explored[0] += 1
        if need == 1:
            return _last_member(clo, full, start, smask, members, pns, union_closed)
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
                members.append(u)
                if dfs(
                    u + 1,
                    smask | (1 << u),
                    members,
                    new_pns,
                    union_closed | cu,
                    need - 1,
                ):
                    return True
                members.pop()
        return False

    for size in range(1, n + 1):
        members = []
        if dfs(0, 0, members, [], 0, size):
            dfs = None  # frees the search state now, as in _isolation_solve
            return SolveResult(size, tuple(members), explored[0])
    raise AssertionError("every nonempty graph has a maximal irredundant set")


def _last_member(clo, full, start, smask, members, pns, union_closed):
    """Append to members the lowest u >= start with S + u maximal
    irredundant and return True, or return False when there is none.

    (pns, union_closed) is the state of the irredundant set S. S + u keeps
    the private neighbourhoods pn & ~N[u] of S and gives u the part of N[u]
    outside N[S]; an outside vertex w extends S + u exactly when N[w]
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
                members.append(u)
                return True
    return False


def iota_lower_bound(g, k, designated=None):
    """Packing lower bound on iota(g, k) with its certificate.

    With designated cliques the certificate is validated (each must be a
    k-clique, closed neighborhoods pairwise disjoint) and its size returned;
    otherwise a deterministic greedy packing over the lex clique order is
    built.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    cliques = []
    regions = []
    used = 0
    if designated is not None:
        for c in designated:
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
                raise CertificateError(
                    f"closed neighborhood of {cs} overlaps an earlier region"
                )
            used |= cover
            cliques.append(cs)
            regions.append(tuple(bits(cover)))
    else:
        for vmask, cover in clique_table(g, k):
            if not cover & used:
                used |= cover
                cliques.append(tuple(bits(vmask)))
                regions.append(tuple(bits(cover)))
    cert = PackingCertificate(k=k, cliques=tuple(cliques), regions=tuple(regions))
    return len(cliques), cert
