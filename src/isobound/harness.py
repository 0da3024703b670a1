"""Streaming verification of the bounds over graph6 input, ratio surveys,
and family certification.

Per-graph records go to CSV, aggregates to JSON; both are byte-identical
across runs and worker counts. A hard failure is any violated guarantee:
a theorem check, a constructive certificate that does not satisfy its bound,
a witness that fails its predicate, or machinery that raises. A line that
cannot be checked (malformed graph6, an order above a cap) is recorded with
its line number and skipped, never fatal.

verify and survey share one pipeline: each line that graph6_lines yields goes
through one worker, in input order, and the survey is the ratio projection of
the invariants verify computes. The pipeline streams: it reads the input only
as far ahead as its workers, and verify folds each record into the aggregate
and drops it, so memory does not grow with the input.
"""

import collections
import contextlib
import csv
import errno
import functools
import json
import multiprocessing
import operator
import os
import random
import zlib
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .constructive import applicable_ks, build_isolating_set, fraction_str, isolation_bound
from .errors import Graph6ParseError, OrderCapError, ParameterError
from .families import make_instance
from .graph import (
    GRAPH6_HEADER, ORDER_CAP, bits, classify, encode_graph6, graph6_lines, graph6_order,
    parse_graph6,
)
from .partition import compute_partition, representatives_dominate, undominated_witnesses
from .predicates import (
    is_dominating, is_k_isolating, is_maximal_irredundant, is_minimum_dominating, packing_bound,
)
from .solvers import IR_ORDER_CAP, gamma, iota, ir

# Largest order on which verify re-checks gamma apart from the solver, by
# testing every set one vertex smaller than the witness: at most
# C(10, 5) = 252 domination tests per graph.
GAMMA_RECHECK_ORDER_CAP = 10


# At jobs > 1 the input goes to the workers in ordered chunks of CHUNK_LINES
# lines, at most CHUNKS_PER_JOB chunks per worker in flight: enough to keep
# every worker busy while the parent folds a finished chunk, and a fixed
# read-ahead however long the input is. A chunk's round trip costs the parent
# about 0.3 ms of CPU, which the workers lack on a host with as many cores as
# jobs: a verify pass over the 12113-graph corpus at jobs 2 on 2 vCPUs took
# 205 ms of parent CPU in 64-line chunks and 164 ms in 256-line ones. Past 256
# lines that pass stops getting faster (512 read within 0.5%), and two chunks
# per job keep the workers as busy as four, while one starves them (5% slower).
CHUNK_LINES = 256
CHUNKS_PER_JOB = 2


class CheckReport(NamedTuple):
    """What a verify run keeps: the aggregate, the hard failures and the
    lines it could not check. over_cap holds the line numbers, among
    parse_errors, of lines above an order or size cap: well-formed lines
    that were not checked."""

    aggregate: dict
    hard_failures: list
    parse_errors: list
    over_cap: set


def random_maximal_irredundant(g, rng):
    """A maximal irredundant set grown greedily in a seeded random order.

    One pass suffices: irredundance is hereditary, so a vertex that cannot
    join the set now cannot join any larger set later. v joins S when N[v]
    reaches outside N[S] and every member keeps a private neighbour outside
    N[v].
    """
    order = list(range(g.n))
    rng.shuffle(order)
    clo = g.clo
    smask = 0
    pns = []
    union_closed = 0
    for v in order:
        cv = clo[v]
        own = cv & ~union_closed
        if not own:
            continue
        for pn in pns:
            if not pn & ~cv:
                break
        else:
            pns = [pn & ~cv for pn in pns]
            pns.append(own)
            union_closed |= cv
            smask |= 1 << v
    return tuple(bits(smask))


# The report key of the check or refinement that each regime's certificate runs
REGIME_CHECKS = {"delta": "delta_regime", "delta_minus_1": "pairs", "delta_minus_2": "twins"}

# Every check name a record builds from a number or a tag comes from these
# tables, so all records share one object per name and pickle sends it once
# per chunk; the iota map is keyed by the int k itself. check_graph reaches
# k <= delta + 1 <= n <= ORDER_CAP, the codec's cap, whatever the solvers'.
CONSTRUCT_KEYS = tuple(f"construct_k{k}" for k in range(ORDER_CAP + 1))
REGIME_KEYS = {
    tag: {regime: f"{piece}_{tag}" for regime, piece in REGIME_CHECKS.items()}
    for tag in ("min", "spot")
}
WITNESS_KEYS = {tag: f"witnesses_{tag}" for tag in ("min", "spot")}


def _record_certificate(cert, tag, record_key, checks, failures, g6, iotas):
    k = cert.k
    key = CONSTRUCT_KEYS[k]
    checks[key] = checks.get(key, True) and cert.satisfied and cert.isolating_verified
    # below Delta + 1, building T ran the check or refinement of its regime,
    # which raises unless the guarantees it checks hold
    piece_key = REGIME_KEYS[tag].get(cert.regime)
    if piece_key:
        checks[piece_key] = True
    if not cert.satisfied:
        failures.append(
            f"{g6} {record_key} k={k}: |T|={len(cert.t)} exceeds bound {fraction_str(cert.bound)}"
        )
    if not cert.isolating_verified:
        failures.append(f"{g6} {record_key} k={k}: T is not {k}-isolating")
    if len(cert.t) < iotas[k]:
        failures.append(f"{g6} {record_key} k={k}: |T| beats the exact optimum")


def _witness_problems(g, part):
    """What fails among the witness checks of a partition, as message tails;
    raises if undominated_witnesses does.

    Each witness is re-checked against its definition: x is in b with PN(x)
    inside N(u), each pair is two nonadjacent vertices of PN(x), and each
    y_i is in a - {x} with PN(y_i) inside N[x_i].
    """
    problems = []
    witnesses = undominated_witnesses(g, part)
    if len(witnesses) != part.u.bit_count():
        problems.append("witness count mismatch")
    pn = part.pn
    for w in witnesses:
        if not (part.b >> w.x & 1 and not pn[w.x] & ~g.adj[w.u]):
            problems.append(f"undominated {w.u}: x={w.x} is not in b with PN(x) inside N(u)")
            continue
        ys = part.a & ~(1 << w.x)
        for x1, x2, y1, y2 in w.pairs:
            if x1 == x2 or g.has_edge(x1, x2) or (1 << x1 | 1 << x2) & ~pn[w.x]:
                problems.append(
                    f"undominated {w.u}: ({x1}, {x2}) is not a nonadjacent pair in PN({w.x})"
                )
            for xi, y in ((x1, y1), (x2, y2)):
                if not (ys >> y & 1 and not pn[y] & ~g.clo[xi]):
                    problems.append(f"undominated {w.u}: y={y} does not cover pair vertex {xi}")
    if not representatives_dominate(g, part):
        problems.append("representatives fail to dominate member privates")
    return problems


def _record_witnesses(problems, tag, checks, failures, g6):
    checks[WITNESS_KEYS[tag]] = not problems
    failures.extend(f"{g6} {tag}: {problem}" for problem in problems)


def _exact_invariants(g, top):
    """gamma, ir and {k: iota_k} for k = 1..top.

    iota_1 is gamma by definition: both solve the same search at k = 1. ir
    goes first, so a graph above its order cap fails before any search.
    """
    irr = ir(g)
    gam = gamma(g)
    iotas = {1: gam.value}
    for k in range(2, top + 1):
        iotas[k] = iota(g, k).value
    return gam, irr, iotas


def _theorem_checks(g6, g, cls, gam, ir_value, iotas):
    """(name, holds, failure message) for each theorem check that applies
    to g, in report order; iotas holds iota_k for k = 1..delta+1. Each
    message is a callable, so it is formatted only for a failed check."""
    delta, gv = cls.max_degree, gam.value
    enc = encode_graph6(g)
    # g was parsed from exactly this body, so equal text is a full round trip
    body = g6.removeprefix(GRAPH6_HEADER)
    yield "roundtrip", enc == body, lambda: f"{g6} roundtrip: re-encoded to {enc}"
    if g.n <= GAMMA_RECHECK_ORDER_CAP:
        minimum = len(gam.witness) == gv and is_minimum_dominating(g, gam.witness)
        yield "iota1_is_gamma", minimum, lambda: (
            f"{g6}: gamma={gv} witness {list(gam.witness)} is not a minimum dominating set"
        )
    monotone = all(iotas[k + 1] <= iotas[k] for k in range(1, delta + 1))
    yield "iota_monotone", monotone, lambda: f"{g6}: iota not monotone in k: {iotas}"
    if not (g.n and ir_value):
        return
    yield "gamma_lt_2ir", gv < 2 * ir_value, lambda: f"{g6}: gamma={gv} not < 2*ir={2 * ir_value}"

    def bounded(k):
        bound = isolation_bound(k, delta, ir_value)
        return iotas[k] * bound.denominator <= bound.numerator

    if delta >= 1:
        yield "iota_le_ir_at_delta", bounded(delta), lambda: (
            f"{g6}: iota({delta})={iotas[delta]} > ir={ir_value}"
        )
        yield "iota_le_ir_above_delta", bounded(delta + 1), lambda: f"{g6}: iota({delta + 1}) > ir"
    if delta >= 2:
        yield "ratio_bound_below_delta", bounded(delta - 1), lambda: (
            f"{g6}: iota({delta - 1})={iotas[delta - 1]} breaks the (3d-4)/(2d-2) bound"
        )
    if delta >= 3:
        yield "three_halves_two_below", bounded(delta - 2), lambda: (
            f"{g6}: iota({delta - 2}) breaks the 3/2 bound"
        )
    if delta == 3:
        yield "delta3_gamma_3_2", 2 * gv <= 3 * ir_value, lambda: (
            f"{g6}: gamma breaks the 3/2 bound at delta 3"
        )
    if cls.is_tree:
        yield "tree_strict_3_2", 2 * gv < 3 * ir_value, lambda: f"{g6}: tree gamma not < 3/2 ir"
    if cls.is_cactus:
        yield "cactus_8_5", 5 * gv < 8 * ir_value, lambda: f"{g6}: cactus gamma not < 8/5 ir"
    if cls.is_claw_free:
        yield "clawfree_3_2", 2 * gv <= 3 * ir_value, lambda: (
            f"{g6}: claw-free gamma exceeds 3/2 ir"
        )


def check_graph(g6, spot_check=True):
    """Full per-graph verification; returns the record dict.

    The record is the graph's CSV row: every column of CSV_COLUMNS but the
    iota_k<k> ones, with the class flags as 0/1 and the construct columns
    joined from the minimum set's certificates in ascending k (those built
    before the machinery raised, if it did). Beside them it holds iota
    ({k: iota_k} for k = 1..delta+1), checks and failures.
    """
    g6 = g6.strip()
    g = parse_graph6(g6)
    cls = classify(g)
    delta = cls.max_degree
    gam, irr, iotas = _exact_invariants(g, delta + 1)
    failures = []
    checks = {}
    for name, ok, message in _theorem_checks(g6, g, cls, gam, irr.value, iotas):
        checks[name] = ok
        if not ok:
            failures.append(message())

    # each set's partition is computed once and shared by its certificates
    # and witness checks; a seeded spot set equal to the minimum set reuses
    # the minimum set's outcomes, which rebuilding would repeat exactly
    min_certs = []
    try:
        ks = applicable_ks(delta)
        min_part = compute_partition(g, irr.witness)
        for k in ks:
            cert = build_isolating_set(g, min_part, k)
            _record_certificate(cert, "min", "construct", checks, failures, g6, iotas)
            min_certs.append(cert)
            bound = cert.bound
            if iotas[k] * bound.denominator > bound.numerator:
                failures.append(f"{g6} k={k}: exact iota exceeds the certified bound")
                checks[CONSTRUCT_KEYS[k]] = False
        min_problems = _witness_problems(g, min_part)
        _record_witnesses(min_problems, "min", checks, failures, g6)
        if spot_check and g.n:
            rng = random.Random(zlib.crc32(g6.encode()))
            spot = random_maximal_irredundant(g, rng)
            if spot == irr.witness:
                spot_problems, spot_certs = min_problems, min_certs
            else:
                spot_part = compute_partition(g, spot)
                spot_problems = _witness_problems(g, spot_part)
                # built one k at a time, so a raise keeps the lower orders' records
                spot_certs = (build_isolating_set(g, spot_part, k) for k in ks)
            _record_witnesses(spot_problems, "spot", checks, failures, g6)
            for cert in spot_certs:
                _record_certificate(cert, "spot", "spot", checks, failures, g6, iotas)
    except Exception as exc:  # machinery violations are hard failures, not crashes
        failures.append(f"{g6} machinery: {type(exc).__name__}: {exc}")
        checks["machinery_clean"] = False
    else:
        checks["machinery_clean"] = True

    return {
        "graph6": g6,
        "n": g.n,
        "m": cls.m,
        "delta": delta,
        "connected": int(cls.is_connected),
        "tree": int(cls.is_tree),
        "cactus": int(cls.is_cactus),
        "block_graph": int(cls.is_block_graph),
        "claw_free": int(cls.is_claw_free),
        "cyclomatic": cls.cyclomatic_number,
        "gamma": gam.value,
        "ir": irr.value,
        "ir_witness": " ".join(map(str, irr.witness)),
        "construct_sizes": " ".join(str(len(cert.t)) for cert in min_certs),
        "construct_bounds": " ".join(fraction_str(cert.bound) for cert in min_certs),
        "s_params": " ".join(str(cert.s_param) for cert in min_certs),
        "failure_count": len(failures),
        "iota": iotas,
        "checks": checks,
        "failures": failures,
    }


def _require_at_least(name, value, least):
    # None stands for an unset option, which has no floor
    if value is not None and value < least:
        raise ParameterError(f"{name} must be at least {least}, got {value}")


def _verify_line(line, spot_check):
    # check_graph is looked up at call time, so a rebinding of the module
    # global reaches every line, in forked pool workers too
    return check_graph(line, spot_check=spot_check)


def _survey_line(line, k_max):
    g = parse_graph6(line)
    delta = g.max_degree()
    top = delta + 1 if k_max is None else min(k_max, delta + 1)
    _gam, irr, iotas = _exact_invariants(g, top)
    return {"graph6": line, "delta": delta, "ir": irr.value, "iota": iotas}


def survey_ratios(records):
    """Aggregate iota_k / ir maxima from the records that check_graph or
    _survey_line builds.

    Each record holds graph6, delta, ir and iota ({k: iota_k}); graph6 is
    the witness. Records with ir = 0 contribute nothing. Returns {"rows":
    {(delta, k): {"ratio", "witness"}}, "monotone": {delta: bool}} with
    exact fractions.
    """
    # each cell's maximum as (iota, ir, witness), compared with val/irv by
    # cross-multiplication; only the kept maxima become Fractions. A strict
    # comparison keeps the first graph that attains the maximum.
    best = {}
    for rec in records:
        irv = rec["ir"]
        if not irv:
            continue
        delta = rec["delta"]
        for k, val in rec["iota"].items():
            cell = (delta, k)
            cur = best.get(cell)
            if cur is None or val * cur[1] > cur[0] * irv:
                best[cell] = (val, irv, rec["graph6"])
    rows = {
        cell: {"ratio": Fraction(val, irv), "witness": witness}
        for cell, (val, irv, witness) in best.items()
    }
    monotone = {}
    for delta in sorted({d for d, _ in rows}):
        ks = sorted(kk for d, kk in rows if d == delta)
        vals = [rows[(delta, kk)]["ratio"] for kk in ks]
        monotone[delta] = all(a >= b for a, b in zip(vals, vals[1:]))
    return {"rows": rows, "monotone": monotone}


def _run_line(per_line, max_n, option, numbered):
    """The pipeline worker: ("record", record) for a checked line,
    ("skipped", None) for an order above max_n, ("parse_error", error) for a
    malformed line and ("over_cap", error) for a line above the codec's or a
    solver's order cap, where error is {"line_number", "error"}."""
    line_number, line = numbered
    try:
        if max_n is not None and graph6_order(line) > max_n:
            return "skipped", None
        return "record", per_line(line, option)
    except Graph6ParseError as exc:
        return "parse_error", {"line_number": line_number, "error": str(exc)}
    except OrderCapError as exc:
        return "over_cap", {"line_number": line_number, "error": str(exc)}


class _Pipeline:
    """Every line that graph6_lines yields through one per-line function.

    Use it as a context manager: at jobs > 1 the worker pool lives for the
    with block and is terminated when the block exits, also when the consumer
    raises. Iterating yields the records in input order as they arrive: from
    map at jobs = 1, which reads the input one line at a time, else from
    ordered chunks, at most CHUNKS_PER_JOB * jobs of them in flight, so the
    input is read only as far ahead as the workers. Lines that cannot be
    checked land in parse_errors, in line order (those above a cap also in
    over_cap); lines whose order is above max_n are counted in skipped.
    """

    def __init__(self, lines, jobs, max_n, per_line, option):
        _require_at_least("jobs", jobs, 1)
        _require_at_least("max_n", max_n, 0)
        self.lines = lines
        self.jobs = jobs
        self.work = functools.partial(_run_line, per_line, max_n, option)
        self.pool = None
        self.graphs = 0
        self.skipped = 0
        self.parse_errors = []
        self.over_cap = set()

    def __enter__(self):
        if self.jobs > 1:
            self.pool = multiprocessing.Pool(self.jobs)
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.terminate()
        return False

    def _results(self):
        numbered = graph6_lines(self.lines)
        if self.pool is None:
            yield from map(self.work, numbered)
            return
        # the input is read here, not gated in a feeder thread: terminating
        # a pool joins its task thread, which would hang on a gated input
        pending = collections.deque()
        while True:
            while len(pending) < CHUNKS_PER_JOB * self.jobs:
                chunk = list(islice(numbered, CHUNK_LINES))
                if not chunk:
                    break
                pending.append(self.pool.map_async(self.work, chunk, len(chunk)))
            if not pending:
                return
            yield from pending.popleft().get()

    def __iter__(self):
        for kind, value in self._results():
            if kind == "record":
                self.graphs += 1
                yield value
            elif kind == "skipped":
                self.skipped += 1
            else:
                self.parse_errors.append(value)
                if kind == "over_cap":
                    self.over_cap.add(value["line_number"])


def verify_stream(lines, jobs=1, max_n=None, spot_check=True, sink=None):
    """Run the full theorem and machinery suite over graph6 lines.

    Each record is folded into the aggregate as it arrives, in input order
    for any jobs, passed to sink (a callable, when given) and dropped: the
    run keeps no record, and reports are byte-identical for any worker
    count. A caller that wants the records collects them, for example with
    sink=records.append; write_csv gives a sink that writes them as rows.
    """
    hard_failures = []
    # counted in C: iter() so that update counts the names, not adds the
    # values, and filter(checks.get) for the names whose check passed
    evaluated = collections.Counter()
    passed = collections.Counter()

    def folded(records):
        for rec in records:
            hard_failures.extend(rec["failures"])
            checks = rec["checks"]
            evaluated.update(iter(checks))
            passed.update(filter(checks.get, checks))
            if sink is not None:
                sink(rec)
            yield rec

    with _Pipeline(lines, jobs, max_n, _verify_line, spot_check) as stream:
        ratios = survey_ratios(folded(stream))

    aggregate = {
        "graphs": stream.graphs,
        "skipped_over_max_n": stream.skipped,
        "parse_error_count": len(stream.parse_errors),
        "hard_failure_count": len(hard_failures),
        "checks": {
            name: {"evaluated": ev, "passed": passed[name]}
            for name, ev in sorted(evaluated.items())
        },
        "max_ratios": {
            f"delta={d},k={k}": {"ratio": fraction_str(row["ratio"]), "witness": row["witness"]}
            for (d, k), row in sorted(ratios["rows"].items())
        },
    }
    return CheckReport(
        aggregate=aggregate,
        hard_failures=hard_failures,
        parse_errors=stream.parse_errors,
        over_cap=stream.over_cap,
    )


def conjecture_survey(lines, jobs=1, max_n=None, k_max=None):
    """Largest observed iota_k / ir per (delta, k), with witnesses.

    The same pipeline as verify_stream with only the exact invariants per
    line, and the same accounting of the lines it did not survey:
    skipped_over_max_n counts those above max_n, parse_errors lists the
    rest. Ratios are reported, never asserted; the monotone flags say whether
    the observed maxima are non-increasing in k for each delta.
    """
    stream = _Pipeline(lines, jobs, max_n, _survey_line, k_max)  # checks jobs, max_n first
    _require_at_least("k_max", k_max, 1)
    with stream:
        agg = survey_ratios(stream)
    return {
        "graphs": stream.graphs,
        "skipped_over_max_n": stream.skipped,
        "parse_errors": stream.parse_errors,
        "rows": [
            {
                "delta": d,
                "k": k,
                "ratio": fraction_str(row["ratio"]),
                "ratio_float": float(row["ratio"]),
                "witness": row["witness"],
            }
            for (d, k), row in sorted(agg["rows"].items())
        ],
        "monotone_by_delta": {str(d): ok for d, ok in agg["monotone"].items()},
    }


# ---------------------------------------------------------------------------
# family certification
# ---------------------------------------------------------------------------

DEFAULT_GRID = (
    [("G1", {"t": t, "k": k}) for t in (1, 2, 3) for k in (1, 2, 3, 4)]
    + [("G2", {"t": t, "k": k}) for t in (1, 2) for k in (2, 3)]
    + [("Dkt", {"k": k, "t": t}) for k in (1, 2) for t in (1, 2)]
    + [("subcubicH", {"c": c}) for c in (2, 3)]
    + [("fivethirds", {})]
    + [("Sk", {"k": 3}), ("Fks", {"k": 4, "s": 2})]
    + [("Gkl", {"k": 6, "l": 3}), ("Hksl", {"k": 8, "s": 6})]
)


def certify_family(name, params):
    """Certify one family instance; returns (row, failures).

    Every claim goes through one rule, in this order. At or below
    IR_ORDER_CAP, the limit of ir, verify and survey, the exact solver
    decides it ("solver"); any other value is a failure. Above it, a witness
    of the claimed size that passes its predicate pins ir and gamma from
    above ("witness-upper+asserted-lower"), and iota when the clique-packing
    bound equals it too ("witness+packing"). Else it is "asserted", a failure.
    """
    inst = make_instance(name, params)
    g = inst.graph
    where = f"{name}{params}"
    failures = []
    row = {
        "family": name,
        "params": json.dumps(params, sort_keys=True),
        "n": g.n,
        "m": g.edge_count(),
        "delta": g.max_degree(),
    }
    # the size of each witness that passes its predicate
    sizes = {}
    for key, kind, witness, holds in (
        ("ir", "irredundant", inst.witness_irredundant, is_maximal_irredundant),
        ("iota", "isolating", inst.witness_isolating, functools.partial(is_k_isolating, k=inst.k)),
        ("gamma", "dominating", inst.witness_dominating, is_dominating),
    ):
        if witness is None:
            continue
        if key != "gamma":  # the report has no gamma_upper key
            row[f"{key}_upper"] = len(witness)
        if holds(g, witness):
            sizes[key] = len(witness)
        else:
            failures.append(f"{where}: {kind} witness fails its predicate")

    packing = None
    if inst.designated_cliques is not None:
        packing = packing_bound(g, inst.k, inst.designated_cliques)
        row["iota_lower"] = packing
        if inst.claimed_iota is not None and packing != inst.claimed_iota:
            failures.append(f"{where}: packing bound {packing} != claimed {inst.claimed_iota}")

    solvable = g.n <= IR_ORDER_CAP
    upper_only = "witness-upper+asserted-lower"
    for key, claim, solve, pinned, label in (
        ("iota", inst.claimed_iota, functools.partial(iota, g, inst.k),
         sizes.get("iota") == inst.claimed_iota == packing, "witness+packing"),
        ("ir", inst.claimed_ir, functools.partial(ir, g),
         sizes.get("ir") == inst.claimed_ir, upper_only),
        ("gamma", inst.claimed_gamma, functools.partial(gamma, g),
         sizes.get("gamma") == inst.claimed_gamma, upper_only),
    ):
        if claim is None:
            continue
        cert = f"{key}_certification"
        if solvable:
            row[key], row[cert] = solve().value, "solver"
            if row[key] != claim:
                failures.append(f"{where}: {key} {row[key]} != claimed {claim}")
        elif pinned:
            row[key], row[cert] = claim, label
        else:
            row[cert] = "asserted"
            failures.append(f"{where}: {key} claim not pinned by certificates")
    row["status"] = "ok" if not failures else "FAIL"
    return row, failures


def certify_families(grid=None):
    """Certify a grid of family instances; default covers the tight cases
    the solvers can pin plus the two large certificate-only instances.

    Returns {"aggregate", "rows", "hard_failures"}, the certify JSON report.
    """
    rows = []
    hard_failures = []
    for name, params in DEFAULT_GRID if grid is None else grid:
        row, failures = certify_family(name, params)
        rows.append(row)
        hard_failures.extend(failures)
    aggregate = {
        "instances": len(rows),
        "hard_failure_count": len(hard_failures),
        "by_status": {
            "ok": sum(1 for r in rows if r["status"] == "ok"),
            "FAIL": sum(1 for r in rows if r["status"] == "FAIL"),
        },
    }
    return {"aggregate": aggregate, "rows": rows, "hard_failures": hard_failures}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# The iota columns stop at iota_k8, so a graph with Delta >= 8 loses its
# iota_k for k >= 9 in the CSV (the JSON's max_ratios keeps them); the
# header stays as it is, since widening it would change every CSV's bytes.
_CSV_IOTA_KS = range(1, 9)
_CSV_BEFORE_IOTA = (
    "graph6", "n", "m", "delta",
    "connected", "tree", "cactus", "block_graph", "claw_free", "cyclomatic",
    "gamma", "ir", "ir_witness",
)
_CSV_AFTER_IOTA = ("construct_sizes", "construct_bounds", "s_params", "failure_count")
CSV_COLUMNS = [
    *_CSV_BEFORE_IOTA, *(f"iota_k{k}" for k in _CSV_IOTA_KS), *_CSV_AFTER_IOTA
]


@contextlib.contextmanager
def replacing(path, newline=None):
    """An open text file, for the with block, that replaces path when the
    block completes.

    The file is a temporary one beside path. A block that raises removes it
    and leaves path as it was, so nothing partial is ever published. A path
    that is a directory raises IsADirectoryError before anything is opened,
    since it could never be replaced.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


@contextlib.contextmanager
def write_csv(path):
    """A sink, for the with block, that writes each check_graph record it
    is given as its CSV row, with iota spread into the iota_k<k> columns,
    published at path as `replacing` does.

    Rows go through csv.writer in CSV_COLUMNS order; an iota_k<k> column
    whose k the record lacks gets None, which csv writes as an empty cell.
    """
    before = operator.itemgetter(*_CSV_BEFORE_IOTA)
    after = operator.itemgetter(*_CSV_AFTER_IOTA)
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        yield lambda rec: writer.writerow(
            (*before(rec), *map(rec["iota"].get, _CSV_IOTA_KS), *after(rec))
        )


def write_json(report_or_dict, path):
    """Write a report as indented JSON to the open text file path, or,
    given a file name, publish it there as `replacing` does."""
    payload = report_or_dict
    if isinstance(report_or_dict, CheckReport):
        payload = {
            "aggregate": report_or_dict.aggregate,
            "hard_failures": report_or_dict.hard_failures,
            "parse_errors": report_or_dict.parse_errors,
        }
    with contextlib.nullcontext(path) if hasattr(path, "write") else replacing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
