"""Exact solvers for domination, k-isolation and irredundance numbers.

All three return the invariant value together with the lexicographically
least optimal witness (as a sorted tuple) and a count of explored search
nodes. Exactness is non-negotiable here; the solvers are the ground truth
the rest of the package is checked against, so they favor simple provably
complete branching over cleverness.

gamma and iota share one search: every k-clique (every vertex, for gamma)
is a target, and a chosen vertex kills each target whose closed
neighbourhood holds it. A DFS node branches on the live target with the
fewest candidate vertices and prunes by three rules, each exact, over
targets reduced by a fourth:

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
- Minimal targets only. A target whose closed neighbourhood holds another
  target's is dropped, as in the subsumption rule of set-cover search (van
  Rooij & Bodlaender, "Exact algorithms for dominating set", 2011); of
  equal neighbourhoods the first is kept. While the dropped target is live
  so is the kept one, which comes earlier in the scan with no more
  candidates: it has already stopped the scan if empty, shares a vertex
  with the packing and is at least as good a branch. So every node acts
  as it would with all targets, and the DFS visits the same tree.

The search runs over candidate vertices only. A vertex a is dropped when a
neighbour b < a has N[a] inside N[b], the subset rule of the same paper
(its true-twin case is N[a] = N[b]). A clique C whose cover holds a meets
N[a], so it meets N[b] and its cover holds b: b kills every target a
kills, at every k. If the lex-least minimum solution held a, then either
it holds b too, and dropping a leaves a smaller solution, or swapping a
for b leaves a lex-smaller one of the same size. Neither can be, so that
solution uses candidates only, and a search whose vertices and covers are
cut down to the candidates finds the same value and witness. No cut cover
is empty: the lowest vertex of a cover is a candidate, since a lower b
would lie in the cover too. Targets are then the minimal cut covers.

The value is the smallest feasible size, and the DFS returns the set it
found. The witness is fixed vertex by vertex in lex order from that set:
the set's next vertex is known to extend the prefix, so only the vertices
below it are tried, each by asking whether the prefix plus that vertex
still extends, and a success replaces the set. Neither the value nor the
witness depends on the order the DFS visits nodes in.
"""

from typing import NamedTuple

from .errors import SizeCapError
from .graph import bits, clique_table, components, isolation_covers
from .predicates import is_k_isolating_mask

IR_ORDER_CAP = 32


class SolveResult(NamedTuple):
    value: int
    witness: tuple
    explored: int


def _minimal_targets(covers, candidates):
    """The inclusion-minimal covers cut down to the candidate vertices,
    smallest first.

    Equal cut covers count once, at their first place. The distinct ones
    are scanned by ascending size, stable, so ties keep lex order, and a
    cover is kept when no kept cover lies inside it.
    """
    kept = []
    cut = {cover & candidates: None for cover in covers}
    for cover in sorted(cut, key=int.bit_count):
        outside = ~cover
        for smaller in kept:
            if not smaller & outside:
                break
        else:
            kept.append(cover)
    return kept


def _isolation_solve(g, k):
    candidates, covers = isolation_covers(g, k)
    if not covers:
        return SolveResult(0, (), 0)
    # Smallest closed neighbourhoods first, and only the minimal ones: the
    # packing gets tighter and a forced target turns up sooner. Neither the
    # order nor the dropped targets change what is feasible.
    targets = _minimal_targets(covers, candidates)
    explored = [0]

    def dfs(budget, chosen, allowed):
        # A set of exactly `budget` vertices of `allowed` that kills every
        # target `chosen` has not killed, as a mask, or None if there is
        # none (a success at budget 0 is the mask 0). A chosen vertex kills
        # the targets whose cover holds it.
        explored[0] += 1
        best_cando = None
        best_size = None
        packed = 0
        used = 0
        for cover in targets:
            if cover & chosen:
                continue
            # No live target is out of candidates: each holds its lowest vertex
            # at the root; the branch target is a smallest live one, so the
            # siblings that exclusion drops never cover another's candidates;
            # in the witness pass `known` keeps a candidate above v in each. An
            # empty one could never be killed, so the node would return None.
            cando = cover & allowed
            size = cando.bit_count()
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
            # nothing left to kill, so `chosen` isolates and budget is 0: with
            # budget b > 0 it would isolate with b fewer vertices than the
            # size searched, which the value loop proved infeasible before
            # reaching this size, and the witness pass searches at that value
            return 0
        # Sibling exclusion: a solution holding v lies in v's branch, whose
        # `allowed` only shrinks below it, so later siblings may drop v.
        while best_cando:
            bit = best_cando & -best_cando
            best_cando ^= bit
            allowed ^= bit
            found = dfs(budget - 1, chosen | bit, allowed)
            if found is not None:
                return found | bit
        return None

    # no separate lower bound: the packing at each node cuts too-small sizes
    for value in range(g.n + 1):
        known = dfs(value, 0, candidates)
        if known is not None:
            break
    if known is None:
        raise AssertionError(
            f"isolation self-check: no size up to n isolates (n={g.n}, k={k}), "
            "but the full vertex set always does"
        )
    # The lex-least witness, one vertex per position. `known` is a solution
    # holding the prefix, with the rest above the prefix's last vertex, so
    # its lowest vertex past the prefix, nxt, is a feasible next vertex: only
    # the candidates below nxt are searched, and the first that extends is
    # the next witness vertex, with its solution as the new `known`.
    witness = []
    prefix = 0
    start = 0
    for _ in range(value):
        rest = known & ~prefix
        nxt = (rest & -rest).bit_length() - 1
        budget = value - len(witness) - 1
        for v in bits(candidates & ((1 << nxt) - (1 << start))):
            found = dfs(budget, prefix | 1 << v, candidates >> (v + 1) << (v + 1))
            if found is not None:
                known = prefix | found | (1 << v)
                nxt = v
                break
        prefix |= 1 << nxt
        witness.append(nxt)
        start = nxt + 1
    if not is_k_isolating_mask(g, prefix, k):
        raise AssertionError(
            f"isolation self-check: witness {witness} is not {k}-isolating (n={g.n}, k={k})"
        )
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
    return _isolation_solve(g, k)


def ir(g, force=False):
    """Irredundance lower number: smallest maximal irredundant set.

    Each connected component is solved on its own (see _ir_search) and the
    results are added: a set is maximal irredundant exactly when its trace
    on every component is, and the empty trace is never maximal in a
    nonempty component. Two sets of one size compare, in lex order, by the
    lowest vertex where they differ, so the union of the components'
    lex-least witnesses is the lex-least witness. `explored` is the sum
    over the components.

    Refuses n > 32 unless force=True; the enumeration is exponential and the
    cap keeps accidental huge inputs from hanging.
    """
    if g.n > IR_ORDER_CAP and not force:
        raise SizeCapError(f"ir solve on n={g.n} exceeds cap {IR_ORDER_CAP}")
    parts = components(g)
    if len(parts) < 2:
        return _ir_search(g)
    value = explored = 0
    witness = []
    for part in parts:
        sub, keep = g.induced(part)
        res = _ir_search(sub)
        value += res.value
        explored += res.explored
        witness.extend(keep[v] for v in res.witness)
    return SolveResult(value, tuple(sorted(witness)), explored)


def _ir_search(g):
    """ir of the whole graph by one search, components and all.

    The search walks irredundant sets in ascending lexicographic order per
    size (irredundance is hereditary, so prefix pruning is exact) and tests
    maximality literally, by attempting every one-vertex extension. The first
    hit at the smallest feasible size is the lex-least witness.

    The last member is chosen in place, by the loop that picks the member
    before it. With S the irredundant set picked so far, it scans the
    candidates v in ascending order and stops at the first v for which
    S + v is irredundant and maximal, reading the private neighbourhoods of
    S + v as pn & ~N[v] without building them. Such a scan counts as one
    node in `explored`, like every node below the target size. Size 1 is
    that scan with S empty, one node, and it needs no extension test: {v}
    is maximal irredundant exactly when v dominates. A w outside N[v] would
    extend {v}, each of the two being its own private neighbour, and when
    N[v] holds every vertex no N[w] reaches outside it.

    The scan first tries to refute v with the carried extender kw = N[w],
    the last vertex w that extended some S + v in a full scan of this search
    (the killer heuristic of game-tree search). When N[w] reaches outside
    N[S + v], v keeps a private neighbour outside N[w] and every member of S
    keeps one outside N[v] and N[w], then S + v + w is irredundant: w lies
    outside S + v and extends it, so S + v is not maximal and the full scan
    would reject v too. Whether v and w are adjacent does not enter. Only
    when the refutation fails does the full scan over every outside w run,
    and the extender it finds becomes kw. A refuted candidate is one the
    scan rejects anyway, so the tree and `explored` are those of the scan
    alone.
    """
    if g.n == 0:
        return SolveResult(0, (), 0)
    n = g.n
    clo = g.clo
    full = g.full
    for v, cv in enumerate(clo):
        if cv == full:
            return SolveResult(1, (v,), 1)
    explored = 1
    kw = 0

    def dfs(start, smask, pns, union_closed, need):
        nonlocal explored, kw
        explored += 1
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
                smask_u = smask | 1 << u
                union_u = union_closed | cu
                if need > 2:
                    found = dfs(u + 1, smask_u, new_pns, union_u, need - 1)
                    if found:
                        return found
                    continue
                # the last-member scan of the set S + u
                explored += 1
                for v in range(u + 1, n):
                    cv = clo[v]
                    pn_v = cv & ~union_u
                    if not pn_v:
                        continue
                    covered = union_u | cv
                    if kw & ~covered and pn_v & ~kw:
                        cvw = cv | kw
                        for pn in new_pns:
                            if not pn & ~cvw:
                                break
                        else:
                            continue  # kw extends S + u + v
                    for pn in new_pns:
                        if not pn & ~cv:
                            break
                    else:
                        rest = full & ~(smask_u | 1 << v)
                        while rest:
                            b = rest & -rest
                            rest ^= b
                            cw = clo[b.bit_length() - 1]
                            if not cw & ~covered or not pn_v & ~cw:
                                continue
                            for pn in new_pns:
                                if not pn & ~(cv | cw):
                                    break
                            else:
                                kw = cw  # w extends S + u + v
                                break
                        else:
                            return smask_u | 1 << v
        return 0

    for size in range(2, n + 1):
        found = dfs(0, 0, [], 0, size)
        if found:
            dfs = None  # frees the search state now, as in _isolation_solve
            return SolveResult(size, tuple(bits(found)), explored)
    raise AssertionError("every nonempty graph has a maximal irredundant set")


def iota_lower_bound(g, k):
    """A greedy packing lower bound on iota(g, k): (count, cliques), the
    k-cliques taken in lex order whose closed neighborhoods miss those of
    the cliques taken before. predicates.packing_bound validates a given
    packing."""
    cliques = []
    used = 0
    for vmask, cover in clique_table(g, k):
        if not cover & used:
            used |= cover
            cliques.append(tuple(bits(vmask)))
    return len(cliques), tuple(cliques)
