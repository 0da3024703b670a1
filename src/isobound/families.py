"""Generators for the extremal families the bounds are tight against.

Every generator returns a FamilyInstance bundling the graph, the claimed
invariant values, the witness sets that certify them from one side, the
designated clique packing that certifies isolation from the other, and a
label map from construction names to vertex indices. Generators validate
their parameters loudly and build deterministically; they never solve.
"""

import inspect
import math
from dataclasses import dataclass, field

from .constructive import isolation_bound
from .errors import ParameterError
from .graph import Graph


@dataclass(frozen=True)
class FamilyInstance:
    name: str
    params: dict
    graph: Graph
    k: object  # isolation order the family targets, None when not applicable
    claimed_ir: object
    claimed_gamma: object
    claimed_iota: object
    witness_irredundant: tuple
    witness_isolating: tuple
    witness_dominating: tuple
    designated_cliques: tuple
    labels: dict = field(repr=False)


def _clique_edges(verts):
    return [(a, b) for idx, a in enumerate(verts) for b in verts[idx + 1 :]]


def gen_G1(t, k):
    """t disjoint complete graphs on k vertices; k sits one above the
    maximum degree, and both ir and the k-isolation number equal t."""
    if t < 1 or k < 1:
        raise ParameterError(f"G1 needs t >= 1 and k >= 1, got t={t}, k={k}")
    edges = []
    labels = {}
    reps = []
    cliques = []
    for c in range(t):
        block = list(range(c * k, (c + 1) * k))
        edges += _clique_edges(block)
        for j, v in enumerate(block):
            labels[f"K{c + 1}.{j}"] = v
        labels[f"x{c + 1}"] = block[0]
        reps.append(block[0])
        cliques.append(tuple(block))
    reps = tuple(reps)
    return FamilyInstance(
        name="G1",
        params={"t": t, "k": k},
        graph=Graph(t * k, edges),
        k=k,
        claimed_ir=t,
        claimed_gamma=t,
        claimed_iota=t,
        witness_irredundant=reps,
        witness_isolating=reps,
        witness_dominating=reps,
        designated_cliques=tuple(cliques),
        labels=labels,
    )


def gen_G2(t, k):
    """2t complete graphs on k vertices tied pairwise through t paths on two
    vertices; k equals the maximum degree and ir, gamma and the k-isolation
    number all equal 2t."""
    if t < 1 or k < 2:
        raise ParameterError(f"G2 needs t >= 1 and k >= 2, got t={t}, k={k}")
    edges = []
    labels = {}
    reps = []
    cliques = []
    for c in range(2 * t):
        block = list(range(c * k, (c + 1) * k))
        edges += _clique_edges(block)
        for j, v in enumerate(block):
            labels[f"K{c + 1}.{j}"] = v
        labels[f"x{c + 1}"] = block[0]
        reps.append(block[0])
        cliques.append(tuple(block))
    base = 2 * t * k
    for c in range(t):
        p1, p2 = base + 2 * c, base + 2 * c + 1
        labels[f"x{c + 1}_1"] = p1
        labels[f"x{c + 1}_2"] = p2
        edges.append((p1, p2))
        edges.append((p1, reps[2 * c]))
        edges.append((p2, reps[2 * c + 1]))
    reps = tuple(reps)
    return FamilyInstance(
        name="G2",
        params={"t": t, "k": k},
        graph=Graph(base + 2 * t, edges),
        k=k,
        claimed_ir=2 * t,
        claimed_gamma=2 * t,
        claimed_iota=2 * t,
        witness_irredundant=reps,
        witness_isolating=reps,
        witness_dominating=reps,
        designated_cliques=tuple(cliques),
        labels=labels,
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
    per = 6 + 4 * k
    edges = []
    labels = {}
    iso = []
    irr = []
    cliques = []
    for c in range(l):
        base = c * per
        x1, x2, x3 = base, base + 1, base + 2
        y = [base + 3, base + 4, base + 5]
        blocks = [
            list(range(base + 6 + j * k, base + 6 + (j + 1) * k)) for j in range(4)
        ]
        labels[f"x{c + 1}_1"] = x1
        labels[f"x{c + 1}_2"] = x2
        labels[f"x{c + 1}_3"] = x3
        for j in range(3):
            labels[f"y{c + 1}_{j + 1}"] = y[j]
        for j, block in enumerate(blocks):
            for jj, v in enumerate(block):
                labels[f"K{c + 1}_{j}.{jj}"] = v
            edges += _clique_edges(block)
            cliques.append(tuple(block))
        labels[f"z{c + 1}"] = blocks[0][0]
        edges += [(x1, x2), (x2, x3)]
        for j in range(3):
            edges.append((y[j], [x1, x2, x3][j]))
            edges += [(y[j], v) for v in blocks[j + 1]]
        # core block: k-4 vertices see x1 and x2, two see x1 and x3, two see x2 and x3
        core = blocks[0]
        for v in core[: k - 4]:
            edges += [(x1, v), (x2, v)]
        for v in core[k - 4 : k - 2]:
            edges += [(x1, v), (x3, v)]
        for v in core[k - 2 :]:
            edges += [(x2, v), (x3, v)]
        if c:
            edges.append((base - per + 2, x1))  # previous x3 to this x1
        iso += [y[0], y[1], y[2], core[0]]
        irr += [x1, x2, x3]
    g = Graph(l * per, edges)
    if g.max_degree() != delta:
        raise ParameterError(f"construction broke: max degree {g.max_degree()} != {delta}")
    return FamilyInstance(
        name="Gkl",
        params={"k": k, "l": l},
        graph=g,
        k=k,
        claimed_ir=3 * l,
        claimed_gamma=None,
        claimed_iota=4 * l,
        witness_irredundant=tuple(sorted(irr)),
        witness_isolating=tuple(sorted(iso)),
        witness_dominating=None,
        designated_cliques=tuple(cliques),
        labels=labels,
    )


def gen_Dkt(k, t):
    """t chained gadgets around a four-vertex path, tight for the
    k = Delta-2 bound: the k-isolation number is 3t against ir = 2t."""
    if k < 1 or t < 1:
        raise ParameterError(f"Dkt needs k >= 1 and t >= 1, got k={k}, t={t}")
    per = 4 + 3 * k
    edges = []
    labels = {}
    iso = []
    irr = []
    cliques = []
    for c in range(t):
        base = c * per
        x = [base, base + 1, base + 2, base + 3]
        blocks = [
            list(range(base + 4 + j * k, base + 4 + (j + 1) * k)) for j in range(3)
        ]
        for j in range(4):
            labels[f"x{c + 1}_{j + 1}"] = x[j]
        for j, block in enumerate(blocks):
            for jj, v in enumerate(block):
                labels[f"K{c + 1}_{j}.{jj}"] = v
            edges += _clique_edges(block)
            cliques.append(tuple(block))
        edges += [(x[0], x[1]), (x[1], x[2]), (x[2], x[3])]
        edges += [(x[0], v) for v in blocks[1]]
        edges += [(x[3], v) for v in blocks[2]]
        edges += [(x[1], v) for v in blocks[0]]
        edges += [(x[2], v) for v in blocks[0]]
        if c:
            edges.append((base - per + 3, x[0]))  # previous x4 to this x1
        iso += [x[0], x[1], x[3]]
        irr += [x[1], x[2]]
    g = Graph(t * per, edges)
    if g.max_degree() != k + 2:
        raise ParameterError(f"construction broke: max degree {g.max_degree()} != {k + 2}")
    iso = tuple(sorted(iso))
    return FamilyInstance(
        name="Dkt",
        params={"k": k, "t": t},
        graph=g,
        k=k,
        claimed_ir=2 * t,
        claimed_gamma=3 * t,
        claimed_iota=3 * t,
        witness_irredundant=tuple(sorted(irr)),
        witness_isolating=iso,
        witness_dominating=iso,
        designated_cliques=tuple(cliques),
        labels=labels,
    )


def gen_subcubicH(c):
    """c seven-vertex path gadgets joined in a ring; maximum degree three
    with gamma = 3c against ir = 2c."""
    if c < 1:
        raise ParameterError(f"subcubicH needs c >= 1, got c={c}")
    edges = []
    labels = {}
    dom = []
    irr = []
    cliques = []
    for i in range(c):
        base = 7 * i
        xs = list(range(base, base + 7))
        for j, v in enumerate(xs):
            labels[f"x{i + 1}_{j + 1}"] = v
        edges += [(xs[j], xs[j + 1]) for j in range(6)]
        edges.append((xs[2], xs[4]))  # x3 to x5
        nxt = 7 * ((i + 1) % c)
        edges.append((xs[5], nxt + 1))  # x6 to next copy's x2
        dom += [xs[1], xs[3], xs[5]]
        irr += [xs[2], xs[4]]
        cliques += [(xs[0],), (xs[3],), (xs[6],)]
    g = Graph(7 * c, edges)
    if g.max_degree() != 3:
        raise ParameterError(f"construction broke: max degree {g.max_degree()} != 3")
    dom = tuple(sorted(dom))
    return FamilyInstance(
        name="subcubicH",
        params={"c": c},
        graph=g,
        k=1,
        claimed_ir=2 * c,
        claimed_gamma=3 * c,
        claimed_iota=3 * c,
        witness_irredundant=tuple(sorted(irr)),
        witness_isolating=dom,
        witness_dominating=dom,
        designated_cliques=tuple(cliques),
        labels=labels,
    )


def gen_five_thirds():
    """The 24-vertex maximum-degree-four graph with gamma = 10 against
    ir = 6, meeting the 5/3 ratio."""
    labels = {}
    edges = []
    names = ["c1", "b1", "a1", "a2", "b2", "c2"]
    for i in range(3):
        base = 6 * i
        for j, nm in enumerate(names):
            labels[f"{nm}{i + 1}"] = base + j
        edges += [(base + j, base + j + 1) for j in range(5)]
    for j, nm in enumerate("uvwxyz"):
        labels[nm] = 18 + j
    a1 = {i: labels[f"a1{i}"] for i in (1, 2, 3)}
    a2 = {i: labels[f"a2{i}"] for i in (1, 2, 3)}
    hub = {nm: labels[nm] for nm in "uvwxyz"}
    edges += [
        (hub["u"], a1[1]), (hub["u"], a1[2]),
        (hub["v"], a2[1]), (hub["v"], a2[2]),
        (hub["w"], a1[1]), (hub["w"], a1[3]),
        (hub["x"], a1[2]), (hub["x"], a1[3]),
        (hub["y"], a2[1]), (hub["y"], a2[3]),
        (hub["z"], a2[2]), (hub["z"], a2[3]),
    ]
    g = Graph(24, edges)
    if g.max_degree() != 4:
        raise ParameterError(f"construction broke: max degree {g.max_degree()} != 4")
    irr = tuple(sorted(list(a1.values()) + list(a2.values())))
    dom = tuple(
        sorted(
            [labels[f"b1{i}"] for i in (1, 2, 3)]
            + [labels[f"b2{i}"] for i in (1, 2, 3)]
            + [a2[1], a1[3], hub["u"], hub["z"]]
        )
    )
    return FamilyInstance(
        name="fivethirds",
        params={},
        graph=g,
        k=1,
        claimed_ir=6,
        claimed_gamma=10,
        claimed_iota=10,
        witness_irredundant=irr,
        witness_isolating=dom,
        witness_dominating=dom,
        designated_cliques=None,
        labels=labels,
    )


# ---------------------------------------------------------------------------
# building blocks for the composite family
# ---------------------------------------------------------------------------


def _sk_parts(k, base, tag):
    """Edges, labels and anchors of one S(k) block starting at index base."""
    xs = list(range(base, base + 8))
    z = list(range(base + 8, base + 8 + k))
    blocks = [
        list(range(base + 8 + (j + 1) * k, base + 8 + (j + 2) * k)) for j in range(4)
    ]
    edges = [(xs[0], xs[1]), (xs[1], xs[2]), (xs[2], xs[3])]
    edges += [(xs[4], xs[5]), (xs[5], xs[6]), (xs[6], xs[7])]
    edges += _clique_edges(z)
    for anchor, block in zip((xs[0], xs[3], xs[4], xs[7]), blocks):
        edges += _clique_edges(block)
        edges += [(anchor, v) for v in block]
    edges += [(xs[1], v) for v in z[: k - 1]]
    edges += [(xs[2], v) for v in z[1:]]
    edges += [(xs[5], z[0]), (xs[5], z[k - 1])]
    labels = {}
    for j, v in enumerate(xs):
        labels[f"x{tag}_{j + 1}"] = v
    for j, v in enumerate(z):
        labels[f"z{tag}_{j + 1}"] = v
    for j, block in enumerate(blocks):
        for jj, v in enumerate(block):
            labels[f"K{tag}_{j + 1}.{jj}"] = v
    return edges, labels, xs, z, blocks


def gen_Sk(k):
    """The double-path gadget used as the repeated block of the composite
    family; maximum degree k+1 with two saturated path centers."""
    if k < 3:
        raise ParameterError(f"Sk needs k >= 3, got k={k}")
    edges, labels, xs, z, blocks = _sk_parts(k, 0, "")
    g = Graph(8 + 5 * k, edges)
    if g.max_degree() != k + 1:
        raise ParameterError(f"construction broke: max degree {g.max_degree()} != {k + 1}")
    return FamilyInstance(
        name="Sk",
        params={"k": k},
        graph=g,
        k=k,
        claimed_ir=None,
        claimed_gamma=None,
        claimed_iota=None,
        witness_irredundant=None,
        witness_isolating=None,
        witness_dominating=None,
        designated_cliques=None,
        labels=labels,
    )


def _fks_parts(k, s, base):
    """Edges, labels and anchors of the F(k, s) block starting at base."""
    a = list(range(base, base + 4))
    kp = list(range(base + 4, base + 4 + k))
    kpp = list(range(base + 4 + k, base + 4 + 2 * k))
    tails = [
        list(range(base + 4 + (j + 2) * k, base + 4 + (j + 3) * k)) for j in range(s)
    ]
    edges = [(a[0], a[1]), (a[1], a[2]), (a[2], a[3])]
    edges += _clique_edges(kp) + [(a[0], v) for v in kp]
    edges += _clique_edges(kpp) + [(a[3], v) for v in kpp]
    v1 = tails[0]
    edges += _clique_edges(v1)
    edges += [(a[1], v1[0]), (a[1], v1[1])]
    edges += [(a[2], v) for v in v1[1:]]
    for tail in tails[1:]:
        edges += _clique_edges(tail)
        edges.append((a[1], tail[0]))
    labels = {}
    for j, v in enumerate(a):
        labels[f"a{j + 1}"] = v
    for j, v in enumerate(kp):
        labels[f"Kp.{j}"] = v
    for j, v in enumerate(kpp):
        labels[f"Kpp.{j}"] = v
    for jj, tail in enumerate(tails):
        for j, v in enumerate(tail):
            labels[f"Kt{jj + 1}.{j}"] = v
    for j, v in enumerate(v1):
        labels[f"v{j}"] = v
    return edges, labels, a, kp, kpp, tails


def gen_Fks(k, s):
    """The head gadget of the composite family: a four-vertex path whose
    second vertex fans out over s tail cliques."""
    if k < 3 or not 1 <= s <= k - 2:
        raise ParameterError(f"Fks needs k >= 3 and 1 <= s <= k-2, got k={k}, s={s}")
    edges, labels, a, kp, kpp, tails = _fks_parts(k, s, 0)
    g = Graph(4 + (s + 2) * k, edges)
    if g.max_degree() != k + 1:
        raise ParameterError(f"construction broke: max degree {g.max_degree()} != {k + 1}")
    return FamilyInstance(
        name="Fks",
        params={"k": k, "s": s},
        graph=g,
        k=k,
        claimed_ir=None,
        claimed_gamma=None,
        claimed_iota=None,
        witness_irredundant=None,
        witness_isolating=None,
        witness_dominating=None,
        designated_cliques=None,
        labels=labels,
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
    rprime = r
    supply = (s - 1) + step * (l - 1) + rprime
    capacity = 2 * (s - 1) * k
    if supply > capacity:
        raise ParameterError(
            f"wiring demand {supply} exceeds tail capacity {capacity} for k={k}, s={s}"
        )

    edges, labels, a, kp, kpp, tails = _fks_parts(k, s, 0)
    nf = 4 + (s + 2) * k
    ns = 8 + 5 * k
    copies = []
    for i in range(l):
        base = nf + i * ns
        e2, lab2, xs, z, blocks = _sk_parts(k, base, str(i + 1))
        edges += e2
        labels.update(lab2)
        copies.append((xs, z, blocks))

    # spare-capacity wiring into the tail cliques
    l1 = [v for tail in tails[1:] for v in tail]
    load = {v: 0 for v in l1}
    for tail in tails[1:]:
        load[tail[0]] = 1  # the head's second path vertex already holds it
    v1 = tails[0]
    last_xs = copies[-1][0]
    edges += [(last_xs[6], v) for v in v1 if v != v1[1]]
    sources = []
    for i in range(l - 1):
        xs = copies[i][0]
        sources.append((xs[5], delta - 4))
        sources.append((xs[6], delta - 2))
    sources.append((last_xs[5], rprime))
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
                raise ParameterError("tail wiring stuck; capacity audit was wrong")
            if load[v] >= 2 or v in taken:
                continue
            edges.append((src, v))
            load[v] += 1
            taken.add(v)
            placed += 1

    g = Graph(nf + l * ns, edges)
    if g.max_degree() != delta:
        raise ParameterError(f"construction broke: max degree {g.max_degree()} != {delta}")

    iso = [a[0], a[1], a[3]]
    irr = [a[1], a[2]]
    cliques = [tuple(kp), tuple(kpp), tuple(v1)]
    for xs, z, blocks in copies:
        iso += [xs[0], xs[1], xs[3], xs[4], xs[7]]
        irr += [xs[1], xs[2], xs[5], xs[6]]
        cliques.append(tuple(z))
        cliques += [tuple(b) for b in blocks]
    claimed = 5 * l + 3
    return FamilyInstance(
        name="Hksl",
        params={"k": k, "s": s, "l": l, "r": r, "rprime": rprime},
        graph=g,
        k=k,
        claimed_ir=4 * l + 2,
        claimed_gamma=None,
        claimed_iota=claimed,
        witness_irredundant=tuple(sorted(irr)),
        witness_isolating=tuple(sorted(iso)),
        witness_dominating=None,
        designated_cliques=tuple(cliques),
        labels=labels,
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
