"""Generators for the extremal families the bounds are tight against.

Every generator returns a FamilyInstance bundling the graph, the claimed
invariant values, the witness sets that certify them from one side, the
designated clique packing that certifies isolation from the other, and a
label map from construction names to vertex indices. Generators validate
their parameters loudly and build deterministically; they never solve.
"""

import inspect
import math
from itertools import combinations
from typing import NamedTuple

from .constructive import isolation_bound
from .errors import OrderCapError, ParameterError
from .graph import ORDER_CAP, Graph


class FamilyInstance(NamedTuple):
    name: str
    params: dict
    graph: Graph
    k: object  # isolation order the family targets, None when not applicable
    labels: dict
    claimed_ir: object = None
    claimed_gamma: object = None
    claimed_iota: object = None
    witness_irredundant: tuple = None
    witness_isolating: tuple = None
    witness_dominating: tuple = None
    designated_cliques: tuple = None


class _Layout:
    """A construction under way: vertex ids handed out in order, each under
    its construction name in labels, and the edges added so far."""

    def __init__(self):
        self.n = 0
        self.edges = []
        self.labels = {}

    def take(self, count):
        """count new vertex ids; OrderCapError first if they pass ORDER_CAP."""
        n = self.n + count
        if n > ORDER_CAP:
            raise OrderCapError(f"order at least {n} outside supported range 0..{ORDER_CAP}")
        self.n = n
        return list(range(n - count, n))

    def add(self, *names):
        """One new vertex per name, in order."""
        verts = self.take(len(names))
        self.labels.update(zip(names, verts))
        return verts

    def numbered(self, prefix, count):
        """count new vertices named prefix1 .. prefix<count>."""
        verts = self.take(count)
        self.labels.update((f"{prefix}{j}", v) for j, v in enumerate(verts, 1))
        return verts

    def clique(self, prefix, size):
        """size new pairwise adjacent vertices named prefix.0 .. prefix.<size-1>."""
        verts = self.take(size)
        self.labels.update((f"{prefix}.{j}", v) for j, v in enumerate(verts))
        self.complete(verts)
        return verts

    def complete(self, verts):
        self.edges += combinations(verts, 2)

    def path(self, verts):
        self.edges += zip(verts, verts[1:])

    def join(self, u, verts):
        self.edges += [(u, v) for v in verts]

    def graph(self, delta):
        """The Graph built so far; ParameterError unless its maximum degree
        is delta, the one the construction promises."""
        g = Graph(self.n, self.edges)
        if g.max_degree() != delta:
            raise ParameterError(f"construction broke: max degree {g.max_degree()} != {delta}")
        return g


def gen_G1(t, k):
    """t disjoint complete graphs on k vertices; k sits one above the
    maximum degree, and both ir and the k-isolation number equal t."""
    if t < 1 or k < 1:
        raise ParameterError(f"G1 needs t >= 1 and k >= 1, got t={t}, k={k}")
    lay = _Layout()
    cliques = []
    for c in range(1, t + 1):
        cliques.append(tuple(lay.clique(f"K{c}", k)))
        lay.labels[f"x{c}"] = cliques[-1][0]
    reps = tuple(block[0] for block in cliques)
    return FamilyInstance(
        name="G1",
        params={"t": t, "k": k},
        graph=lay.graph(k - 1),
        k=k,
        labels=lay.labels,
        claimed_ir=t,
        claimed_gamma=t,
        claimed_iota=t,
        witness_irredundant=reps,
        witness_isolating=reps,
        witness_dominating=reps,
        designated_cliques=tuple(cliques),
    )


def gen_G2(t, k):
    """2t complete graphs on k vertices tied pairwise through t paths on two
    vertices; k equals the maximum degree and ir, gamma and the k-isolation
    number all equal 2t."""
    if t < 1 or k < 2:
        raise ParameterError(f"G2 needs t >= 1 and k >= 2, got t={t}, k={k}")
    lay = _Layout()
    cliques = []
    for c in range(1, 2 * t + 1):
        cliques.append(tuple(lay.clique(f"K{c}", k)))
        lay.labels[f"x{c}"] = cliques[-1][0]
    reps = tuple(block[0] for block in cliques)
    for c in range(t):
        p1, p2 = lay.numbered(f"x{c + 1}_", 2)
        lay.path([reps[2 * c], p1, p2, reps[2 * c + 1]])
    return FamilyInstance(
        name="G2",
        params={"t": t, "k": k},
        graph=lay.graph(k),
        k=k,
        labels=lay.labels,
        claimed_ir=2 * t,
        claimed_gamma=2 * t,
        claimed_iota=2 * t,
        witness_irredundant=reps,
        witness_isolating=reps,
        witness_dominating=reps,
        designated_cliques=tuple(cliques),
    )


def gen_Gkl(k, l):
    """l chained gadgets around a three-vertex path, tight for the
    k = Delta-1 bound: the k-isolation number is 4l against ir = 3l.

    Valid only when 4l equals the floored bound value, which confines l to
    small values per k; the constructor enforces it.
    """
    if k < 6 or l < 1:
        raise ParameterError(f"Gkl needs k >= 6 and l >= 1, got k={k}, l={l}")
    delta = k + 1
    if 4 * l != math.floor(isolation_bound(k, delta, 3 * l)):
        raise ParameterError(
            f"l={l} incompatible with k={k}: the floored bound misses 4l"
        )
    lay = _Layout()
    iso = []
    irr = []
    cliques = []
    prev_x3 = None
    for c in range(1, l + 1):
        xs = lay.numbered(f"x{c}_", 3)
        ys = lay.numbered(f"y{c}_", 3)
        blocks = [lay.clique(f"K{c}_{j}", k) for j in range(4)]
        cliques += map(tuple, blocks)
        core = blocks[0]
        lay.labels[f"z{c}"] = core[0]
        lay.path(xs)
        for x, y, block in zip(xs, ys, blocks[1:]):
            lay.join(y, [x] + block)
        # core block: k-4 vertices see x1 and x2, two see x1 and x3, two see x2 and x3
        for v in core[: k - 4]:
            lay.join(v, [xs[0], xs[1]])
        for v in core[k - 4 : k - 2]:
            lay.join(v, [xs[0], xs[2]])
        for v in core[k - 2 :]:
            lay.join(v, [xs[1], xs[2]])
        if prev_x3 is not None:
            lay.join(prev_x3, [xs[0]])
        prev_x3 = xs[2]
        iso += ys + [core[0]]
        irr += xs
    return FamilyInstance(
        name="Gkl",
        params={"k": k, "l": l},
        graph=lay.graph(delta),
        k=k,
        labels=lay.labels,
        claimed_ir=3 * l,
        claimed_iota=4 * l,
        witness_irredundant=tuple(sorted(irr)),
        witness_isolating=tuple(sorted(iso)),
        designated_cliques=tuple(cliques),
    )


def gen_Dkt(k, t):
    """t chained gadgets around a four-vertex path, tight for the
    k = Delta-2 bound: the k-isolation number is 3t against ir = 2t."""
    if k < 1 or t < 1:
        raise ParameterError(f"Dkt needs k >= 1 and t >= 1, got k={k}, t={t}")
    lay = _Layout()
    iso = []
    irr = []
    cliques = []
    prev_x4 = None
    for c in range(1, t + 1):
        x = lay.numbered(f"x{c}_", 4)
        blocks = [lay.clique(f"K{c}_{j}", k) for j in range(3)]
        cliques += map(tuple, blocks)
        lay.path(x)
        lay.join(x[0], blocks[1])
        lay.join(x[3], blocks[2])
        lay.join(x[1], blocks[0])
        lay.join(x[2], blocks[0])
        if prev_x4 is not None:
            lay.join(prev_x4, [x[0]])
        prev_x4 = x[3]
        iso += [x[0], x[1], x[3]]
        irr += [x[1], x[2]]
    iso = tuple(sorted(iso))
    return FamilyInstance(
        name="Dkt",
        params={"k": k, "t": t},
        graph=lay.graph(k + 2),
        k=k,
        labels=lay.labels,
        claimed_ir=2 * t,
        claimed_gamma=3 * t,
        claimed_iota=3 * t,
        witness_irredundant=tuple(sorted(irr)),
        witness_isolating=iso,
        witness_dominating=iso,
        designated_cliques=tuple(cliques),
    )


def gen_subcubicH(c):
    """c seven-vertex path gadgets joined in a ring; maximum degree three
    with gamma = 3c against ir = 2c."""
    if c < 1:
        raise ParameterError(f"subcubicH needs c >= 1, got c={c}")
    lay = _Layout()
    copies = [lay.numbered(f"x{i}_", 7) for i in range(1, c + 1)]
    dom = []
    irr = []
    cliques = []
    for i, xs in enumerate(copies):
        lay.path(xs)
        lay.join(xs[2], [xs[4]])  # x3 to x5
        lay.join(xs[5], [copies[(i + 1) % c][1]])  # x6 to next copy's x2
        dom += [xs[1], xs[3], xs[5]]
        irr += [xs[2], xs[4]]
        cliques += [(xs[0],), (xs[3],), (xs[6],)]
    dom = tuple(sorted(dom))
    return FamilyInstance(
        name="subcubicH",
        params={"c": c},
        graph=lay.graph(3),
        k=1,
        labels=lay.labels,
        claimed_ir=2 * c,
        claimed_gamma=3 * c,
        claimed_iota=3 * c,
        witness_irredundant=tuple(sorted(irr)),
        witness_isolating=dom,
        witness_dominating=dom,
        designated_cliques=tuple(cliques),
    )


def gen_five_thirds():
    """The 24-vertex maximum-degree-four graph with gamma = 10 against
    ir = 6, meeting the 5/3 ratio."""
    lay = _Layout()
    arms = [
        lay.add(*(f"{nm}{i}" for nm in ("c1", "b1", "a1", "a2", "b2", "c2"))) for i in (1, 2, 3)
    ]
    for arm in arms:
        lay.path(arm)
    u, v, w, x, y, z = lay.add(*"uvwxyz")
    _c1, b1, a1, a2, b2, _c2 = zip(*arms)
    for hub, (i, j) in zip((u, w, x), ((0, 1), (0, 2), (1, 2))):
        lay.join(hub, [a1[i], a1[j]])
    for hub, (i, j) in zip((v, y, z), ((0, 1), (0, 2), (1, 2))):
        lay.join(hub, [a2[i], a2[j]])
    dom = tuple(sorted(b1 + b2 + (a2[0], a1[2], u, z)))
    return FamilyInstance(
        name="fivethirds",
        params={},
        graph=lay.graph(4),
        k=1,
        labels=lay.labels,
        claimed_ir=6,
        claimed_gamma=10,
        claimed_iota=10,
        witness_irredundant=tuple(sorted(a1 + a2)),
        witness_isolating=dom,
        witness_dominating=dom,
    )


# ---------------------------------------------------------------------------
# building blocks for the composite family
# ---------------------------------------------------------------------------


def _sk_parts(lay, k, tag):
    """Lay out one S(k) block; returns its path vertices, its clique z and
    its four anchored cliques."""
    xs = lay.numbered(f"x{tag}_", 8)
    z = lay.numbered(f"z{tag}_", k)
    lay.complete(z)
    blocks = [lay.clique(f"K{tag}_{j}", k) for j in range(1, 5)]
    lay.path(xs[:4])
    lay.path(xs[4:])
    for anchor, block in zip((xs[0], xs[3], xs[4], xs[7]), blocks):
        lay.join(anchor, block)
    lay.join(xs[1], z[: k - 1])
    lay.join(xs[2], z[1:])
    lay.join(xs[5], [z[0], z[k - 1]])
    return xs, z, blocks


def gen_Sk(k):
    """The double-path gadget used as the repeated block of the composite
    family; maximum degree k+1 with two saturated path centers."""
    if k < 3:
        raise ParameterError(f"Sk needs k >= 3, got k={k}")
    lay = _Layout()
    _sk_parts(lay, k, "")
    return FamilyInstance(
        name="Sk", params={"k": k}, graph=lay.graph(k + 1), k=k, labels=lay.labels
    )


def _fks_parts(lay, k, s):
    """Lay out the F(k, s) block; returns its path vertices, its two end
    cliques and its s tail cliques."""
    a = lay.numbered("a", 4)
    kp = lay.clique("Kp", k)
    kpp = lay.clique("Kpp", k)
    tails = [lay.clique(f"Kt{j}", k) for j in range(1, s + 1)]
    v1 = tails[0]
    lay.labels.update((f"v{j}", v) for j, v in enumerate(v1))
    lay.path(a)
    lay.join(a[0], kp)
    lay.join(a[3], kpp)
    lay.join(a[1], [v1[0], v1[1]] + [tail[0] for tail in tails[1:]])
    lay.join(a[2], v1[1:])
    return a, kp, kpp, tails


def gen_Fks(k, s):
    """The head gadget of the composite family: a four-vertex path whose
    second vertex fans out over s tail cliques."""
    if k < 3 or not 1 <= s <= k - 2:
        raise ParameterError(f"Fks needs k >= 3 and 1 <= s <= k-2, got k={k}, s={s}")
    lay = _Layout()
    _fks_parts(lay, k, s)
    return FamilyInstance(
        name="Fks", params={"k": k, "s": s}, graph=lay.graph(k + 1), k=k, labels=lay.labels
    )


def gen_Hksl(k, s):
    """The composite family: one head gadget plus l repeated blocks, with l
    and the leftover wiring budget determined by k and s.

    The block count l satisfies (s-1)(2k-1) = (2k-4)(l-1) + r with
    0 <= r < 2k-4; the tail cliques of the head absorb the blocks' spare
    edge capacity through a rolling-pointer assignment that keeps every tail
    vertex at no more than two outside edges. Both the irredundant and the
    isolating witnesses ship with the instance, as does the clique packing
    that pins the k-isolation number at 5l+3 exactly.
    """
    if k < 4 or not 2 <= s <= k - 2:
        raise ParameterError(f"Hksl needs k >= 4 and 2 <= s <= k-2, got k={k}, s={s}")
    delta = k + 1
    need = (s - 1) * (2 * k - 1)
    step = 2 * delta - 6
    l = need // step + 1
    r = need - step * (l - 1)
    if r > delta - 4:
        # With leftover r above delta-4 the tail wiring cannot saturate every
        # tail vertex at exactly two outside edges, and the shipped
        # irredundant witness stops being maximal (single-loaded tail
        # vertices leave the last head clique extendable).
        raise ParameterError(
            f"Hksl needs the wiring leftover r <= k-3; k={k}, s={s} gives r={r}"
        )

    lay = _Layout()
    a, kp, kpp, tails = _fks_parts(lay, k, s)
    copies = [_sk_parts(lay, k, str(i)) for i in range(1, l + 1)]

    # spare-capacity wiring into the tail cliques: the preloads and the
    # quotas come to (s-1) + (s-1)(2k-1) = 2k(s-1), two outside edges for
    # each of the k(s-1) vertices of l1, so the quotas fit l1 exactly
    l1 = [v for tail in tails[1:] for v in tail]
    load = {v: 0 for v in l1}
    for tail in tails[1:]:
        load[tail[0]] = 1  # the head's second path vertex already holds it
    v1 = tails[0]
    last_xs = copies[-1][0]
    lay.join(last_xs[6], [v for v in v1 if v != v1[1]])
    sources = []
    for xs, _z, _blocks in copies[:-1]:
        sources.append((xs[5], delta - 4))
        sources.append((xs[6], delta - 2))
    sources.append((last_xs[5], r))
    pointer = 0
    for src, quota in sources:
        taken = set()
        placed = 0
        spins = 0
        while placed < quota:
            v = l1[pointer % len(l1)]
            pointer += 1
            spins += 1
            if spins > 2 * len(l1):
                raise ParameterError(f"tail wiring stuck with {quota - placed} edges left to place")
            if load[v] >= 2 or v in taken:
                continue
            lay.join(src, [v])
            load[v] += 1
            taken.add(v)
            placed += 1

    iso = [a[0], a[1], a[3]]
    irr = [a[1], a[2]]
    cliques = [tuple(kp), tuple(kpp), tuple(v1)]
    for xs, z, blocks in copies:
        iso += [xs[0], xs[1], xs[3], xs[4], xs[7]]
        irr += [xs[1], xs[2], xs[5], xs[6]]
        cliques.append(tuple(z))
        cliques += [tuple(b) for b in blocks]
    return FamilyInstance(
        name="Hksl",
        params={"k": k, "s": s, "l": l, "r": r, "rprime": r},
        graph=lay.graph(delta),
        k=k,
        labels=lay.labels,
        claimed_ir=4 * l + 2,
        claimed_iota=5 * l + 3,
        witness_irredundant=tuple(sorted(irr)),
        witness_isolating=tuple(sorted(iso)),
        designated_cliques=tuple(cliques),
    )


FAMILIES = {
    "G1": gen_G1,
    "G2": gen_G2,
    "Gkl": gen_Gkl,
    "Dkt": gen_Dkt,
    "subcubicH": gen_subcubicH,
    "fivethirds": gen_five_thirds,
    "Sk": gen_Sk,
    "Fks": gen_Fks,
    "Hksl": gen_Hksl,
}


def make_instance(name, params):
    """The instance of family `name` built from the keyword dict `params`.

    Raises ParameterError for an unknown family or when the keys are not
    exactly the generator's parameters; the generator checks the values.
    """
    gen = FAMILIES.get(name)
    if gen is None:
        raise ParameterError(
            f"unknown family {name!r}; choices: {' '.join(sorted(FAMILIES))}"
        )
    expected = list(inspect.signature(gen).parameters)
    if sorted(params) != sorted(expected):
        raise ParameterError(
            f"family {name} takes parameters {', '.join(expected) or 'none'}; "
            f"got {', '.join(params) or 'none'}"
        )
    return gen(**params)
