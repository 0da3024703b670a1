"""Seeded workload inputs.

The benchmark draws every input from its own `random.Random(seed)`; the
program only ever receives `Graph` objects built from these edge lists.
Orders and average degrees are stratified (each order gets the same spread
of degrees) and every graph has exactly round(n * d / 2) edges, so two
seeds differ in which graphs they draw, not in how hard the batch is.
"""

import random

IR_SPARSE = {"orders": range(16, 23), "degree": (4.0, 6.0), "graphs": 1800}
IOTA_GEOMETRIC = {"orders": range(30, 37), "degree": (5.0, 8.0), "graphs": 640}
DEGREE_STRATA = 5


def _stratified(rng, index, orders, degree):
    """Order cycles through `orders`; the degree of the j-th graph of an order
    falls in the j-th of DEGREE_STRATA equal slices of `degree`."""
    n = orders[index % len(orders)]
    stratum = (index // len(orders)) % DEGREE_STRATA
    lo, hi = degree
    d = lo + (hi - lo) * (stratum + rng.random()) / DEGREE_STRATA
    return n, round(n * d / 2)


def sparse_graphs(seed, count):
    """Uniform random graphs G(n, m) as (n, edges) pairs."""
    rng = random.Random(f"ir_sparse:{seed}")
    out = []
    for index in range(count):
        n, m = _stratified(rng, index, IR_SPARSE["orders"], IR_SPARSE["degree"])
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        out.append((n, sorted(rng.sample(pairs, m))))
    return out


def geometric_graphs(seed, count):
    """Random unit-disk graphs on the unit square as (n, edges) pairs.

    The radius is the distance of the m-th closest pair, so the graph joins
    exactly the m closest pairs of n uniform points.
    """
    rng = random.Random(f"iota_geometric:{seed}")
    out = []
    for index in range(count):
        n, m = _stratified(rng, index, IOTA_GEOMETRIC["orders"], IOTA_GEOMETRIC["degree"])
        pts = [(rng.random(), rng.random()) for _ in range(n)]
        pairs = sorted(
            ((pts[u][0] - pts[v][0]) ** 2 + (pts[u][1] - pts[v][1]) ** 2, u, v)
            for u in range(n)
            for v in range(u + 1, n)
        )
        out.append((n, sorted((u, v) for _, u, v in pairs[:m])))
    return out
