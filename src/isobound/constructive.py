"""Constructive isolating sets derived from a maximal irredundant set.

Given the partition of a maximal irredundant set I and an order k close to
the maximum degree, build_isolating_set assembles a k-isolating set T out of
the partition machinery and certifies |T| against the matching size bound.
All arithmetic is exact: bounds are fractions, comparisons are never
performed on floats.
"""

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .errors import ParameterError, RegimeError
from .graph import Graph, bits, clique_table
from .partition import IrredundancePartition, check_delta_regime, refine_pairs, refine_twins
from .predicates import is_k_isolating_mask


class BoundCertificate(NamedTuple):
    """Outcome of one constructive run.

    t is the isolating set built from the partition's set; bound is the
    certified ceiling on |t| for the regime; satisfied records the exact
    comparison len(t) <= bound; isolating_verified is a direct predicate
    check of t. s_param is only set in the delta_minus_1 regime.
    """

    regime: str
    k: int
    t: tuple
    bound: Fraction
    satisfied: bool
    isolating_verified: bool
    s_param: Optional[int] = None


def applicable_ks(delta):
    """The isolation orders the bounds and the certificates cover at
    maximum degree delta: Delta-2 to Delta+1, from 1 up."""
    return list(range(max(1, delta - 2), delta + 2))


def _regime_error(kind, k, delta):
    ks = applicable_ks(delta)
    return RegimeError(
        f"no {kind} regime for k={k} at maximum degree {delta}; "
        f"supported orders are {ks[0]}..{ks[-1]}"
    )


def build_isolating_set(g: Graph, part: IrredundancePartition, k: int) -> BoundCertificate:
    """Build a k-isolating set from the partition of a maximal irredundant set.

    part is compute_partition(g, i), which certifies that i is maximal
    irredundant (PreconditionError otherwise); the certificates of one set
    at every k read the same partition. Supported orders are
    applicable_ks(delta), where delta is the maximum degree; anything else
    raises RegimeError. At k = Delta, Delta-1 and Delta-2 the check or
    refinement of that k runs on the partition and raises unless its
    guarantees hold. The bound is isolation_bound at ir = |i|.
    """
    if k < 1:
        raise ParameterError(f"isolation order must be positive, got {k}")
    delta = g.max_degree()
    s_param = None

    # T is the union of vertex masks the partition machinery hands over
    if k == delta + 1:
        # at maximum degree k - 1 a k-clique is a whole component, complete
        # on k vertices; each holds a member of every maximal irredundant
        # set, and T takes the lowest vertex of each
        regime, t = "delta_plus_1", 0
        for vmask, _cover in clique_table(g, k):
            t |= vmask & -vmask
    elif k == delta:
        check_delta_regime(g, part)
        regime, t = "delta", part.nhat | part.m | part.q | part.z
    elif k == delta - 1:
        ref = refine_pairs(g, part)
        regime, s_param = "delta_minus_1", ref.s_param
        t = part.nhat | ref.y | ref.x | ref.mtilde | part.q | part.z
    elif k == delta - 2:
        ref = refine_twins(g, part)
        regime = "delta_minus_2"
        t = part.nhat | ref.mhat | ref.mbar | ref.qhat | ref.qtilde | part.z | ref.x
    else:
        raise _regime_error("constructive", k, delta)

    bound = isolation_bound(k, delta, part.i.bit_count(), s_param)
    # positional: a named tuple matches keyword arguments to its fields on
    # every call
    return BoundCertificate(
        regime,
        k,
        tuple(bits(t)),
        bound,
        t.bit_count() * bound.denominator <= bound.numerator,
        is_k_isolating_mask(g, t, k),
        s_param,
    )


def fraction_str(f: Fraction) -> str:
    """An exact fraction as "p/q", the form every report uses."""
    return f"{f.numerator}/{f.denominator}"


# Every certificate and every check asks for one of a few (k, delta, ir, s);
# a Fraction is immutable, so the callers can share one.
@lru_cache(maxsize=256)
def isolation_bound(k: int, delta: int, ir_value: int, s: Optional[int] = None) -> Fraction:
    """The certified upper bound on iota_k in terms of ir, for k in
    applicable_ks(delta); the one place the bounds are written down.

    For k in {delta, delta + 1} the bound is ir itself. For k = delta - 1
    it is (3*delta - 4) * ir / (2*delta - 2), refined to ir when s = 0 and
    to the formula minus (s - 1) when 1 <= s <= delta - 2. For k = delta - 2
    it is 3 * ir / 2. The parameter s is only accepted for k = delta - 1.
    """
    if k < 1:
        raise ParameterError(f"isolation order must be positive, got {k}")
    if delta < 0:
        raise ParameterError(f"maximum degree must be non-negative, got {delta}")
    if ir_value < 0:
        raise ParameterError(f"ir must be non-negative, got {ir_value}")

    # k >= 1, so k = delta - 1 needs delta >= 2 and k = delta - 2 needs delta >= 3
    if k in (delta, delta + 1, delta - 2):
        if s is not None:
            raise ParameterError("the s parameter only applies when k = delta - 1")
        return Fraction(3 * ir_value, 2) if k == delta - 2 else Fraction(ir_value)
    if k == delta - 1:
        base = Fraction((3 * delta - 4) * ir_value, 2 * delta - 2)
        if s is None:
            return base
        if s == 0:
            return Fraction(ir_value)
        if 1 <= s <= delta - 2:
            return base - s + 1
        raise ParameterError(f"s must lie in 0..{delta - 2}, got {s}")
    raise _regime_error("bound", k, delta)
