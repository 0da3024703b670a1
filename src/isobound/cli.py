"""Command line front end.

Subcommands: verify (theorem suite over a graph6 stream), survey (ratio
tables, never asserted), certify (extremal family audits), solve (exact
invariants), partition / construct (machinery for one graph), family
(generator access), check (set predicates), bound (the certified iota_k
bound).

Exit status: 0 when every requested guarantee held, 1 when one was violated
(or a tested predicate is false), 2 on bad input (an InputError, or an
option that is not an integer), 3 when the machinery itself failed (a
MachineryError: an internal bug or a falsified guarantee). verify is the
exception: it records a MachineryError as that graph's hard failure and
exits 1. Any other exception is a bug; it propagates with its traceback,
and Python exits 1.
"""

import argparse
import contextlib
import json
import os
import re
import sys

from .constructive import build_isolating_set, fraction_str, isolation_bound
from .errors import Graph6ParseError, InputError, MachineryError, ParameterError, SizeCapError
from .families import FAMILIES, make_instance
from .graph import RECORD_CAP, bits, encode_graph6, graph6_lines, parse_graph6
from .harness import (
    certify_families,
    certify_family,
    conjecture_survey,
    replacing,
    verify_stream,
    write_csv,
    write_json,
)
from .partition import compute_partition, refine_pairs, refine_twins, undominated_witnesses
from .predicates import (
    is_dominating,
    is_irredundant,
    is_k_isolating,
    is_maximal_irredundant,
)
from .solvers import gamma, iota, ir


@contextlib.contextmanager
def _named_path(option, path):
    """Report an OSError on a path the user named as bad input, naming the
    option and the path."""
    try:
        yield
    except OSError as exc:
        raise ParameterError(f"{option}: {path}: {exc.strerror or exc}") from exc


def _bounded_lines(fh):
    """The lines of fh, read in pieces of at most RECORD_CAP + 1 characters,
    so that one line costs bounded memory whatever its length."""
    size = RECORD_CAP + 1
    while piece := fh.readline(size):
        if len(piece) == size and not piece.endswith("\n"):
            piece = _rest_of_long_line(fh, piece, size)
        yield piece


def _rest_of_long_line(fh, head, size):
    """The line that head, a piece that filled size characters, begins. If
    its text, blanks around it aside, is longer than RECORD_CAP, it comes
    out cut to its first RECORD_CAP characters and the next non-blank one,
    which the codec refuses, and the rest of the line is read and dropped."""
    piece = head
    head = head.lstrip()
    while len(head.rstrip()) < size:
        if piece.endswith("\n") or not (piece := fh.readline(size)):
            return head
        # past size characters of text, only whether a non-blank one
        # follows matters, so head keeps no more than that before a piece
        head = (head[:size] + piece).lstrip()
    while piece and not piece.endswith("\n"):
        piece = fh.readline(size)
    return head[:RECORD_CAP] + head[RECORD_CAP:].lstrip()[0]


def _read_lines(path):
    """The lines of --g6, or of stdin for "-", read one at a time by
    _bounded_lines, both with errors="surrogateescape": a byte that does not
    decode reaches the codec as that line's fault."""
    if path == "-":
        with contextlib.suppress(AttributeError):  # io.StringIO decodes nothing
            sys.stdin.reconfigure(errors="surrogateescape")
        yield from _bounded_lines(sys.stdin)
        return
    with _named_path("--g6", path):
        fh = open(path, errors="surrogateescape")
    with fh:
        yield from _bounded_lines(fh)


def _report_file(stack, path):
    """The open --json file, or None without --json.

    It is opened before any input is read, so a bad path ends the command
    before it starts, and it replaces path when the stack closes without an
    error.
    """
    if not path:
        return None
    with _named_path("--json", path):
        return stack.enter_context(replacing(path))


def _only_graph(path):
    """The one graph of the input; reading stops at a second graph6 line,
    which is an error."""
    g = None
    for number, line in graph6_lines(_read_lines(path)):
        if g is not None:
            raise ParameterError(f"expected one graph, found a second at line {number}")
        g = parse_graph6(line)
    if g is None:
        raise Graph6ParseError("no graph6 line found in input", 0)
    return g


def _vertices(vertices):
    """A vertex sequence as printed: space separated, "-" when empty."""
    return " ".join(map(str, vertices)) or "-"


def _integer(token):
    """The integer an optional sign and ASCII digits spell, the rule of every
    integer option, or an ArgumentTypeError naming the token. int() alone
    would also take 1_0 and non-ASCII digits."""
    if re.fullmatch(r"[+-]?[0-9]+", token.strip()) is None:
        raise argparse.ArgumentTypeError(f"expected an integer, got {token!r}")
    return int(token)


def _option_int(option, token):
    """_integer of a token inside an option's value, its fault a
    ParameterError naming the option and the token."""
    try:
        return _integer(token)
    except argparse.ArgumentTypeError as exc:
        raise ParameterError(f"{option}: {exc}") from None


def _parse_vertex_set(text, option):
    """The vertices a comma or space separated list spells, in its order; a
    vertex given twice is a ParameterError, not a silent repeat."""
    vertices = []
    for tok in text.replace(",", " ").split():
        v = _option_int(option, tok)
        if v in vertices:
            raise ParameterError(f"{option}: vertex {v} given twice")
        vertices.append(v)
    return tuple(vertices)


def _parse_params(text):
    params = {}
    if not text:
        return params
    for item in text.split(","):
        key, _, val = item.partition("=")
        if not _:
            raise ParameterError(f"--params: expected key=value, got {item!r}")
        key = key.strip()
        if key in params:
            raise ParameterError(f"--params: key {key!r} given twice")
        params[key] = _option_int("--params", val)
    return params


def cmd_verify(args):
    # each record becomes one CSV row as it arrives; the CSV and the report
    # are opened before the first graph is read and published only when the
    # whole run completes. Only opening them is reported as a bad path: an
    # OSError inside the run is not the path's fault. Both go through a
    # temporary file named after the path, so one path cannot take both.
    if args.csv and args.json and os.path.realpath(args.csv) == os.path.realpath(args.json):
        raise ParameterError(f"--csv and --json name the same file: {args.json}")
    with contextlib.ExitStack() as stack:
        sink = None
        if args.csv:
            with _named_path("--csv", args.csv):
                sink = stack.enter_context(write_csv(args.csv))
        report_file = _report_file(stack, args.json)
        report = verify_stream(
            _read_lines(args.g6),
            jobs=args.jobs,
            max_n=args.max_n,
            spot_check=not args.no_spot_check,
            sink=sink,
        )
        if report_file is not None:
            write_json(report, report_file)
    agg = report.aggregate
    print(f"graphs checked: {agg['graphs']}")
    print(f"skipped (order above cap): {agg['skipped_over_max_n']}")
    print(f"parse errors: {agg['parse_error_count'] - len(report.over_cap)}")
    print(f"not checked (above a size cap): {len(report.over_cap)}")
    for name, slot in agg["checks"].items():
        print(f"  {name}: {slot['passed']}/{slot['evaluated']}")
    for err in report.parse_errors:
        if err["line_number"] in report.over_cap:
            print(f"line {err['line_number']} not checked: {err['error']}")
        else:
            print(f"parse error at line {err['line_number']}: {err['error']}")
    if report.hard_failures:
        print(f"HARD FAILURES: {len(report.hard_failures)}")
        for msg in report.hard_failures[:50]:
            print(f"  {msg}")
        return 1
    print("all checks passed")
    return 0


def cmd_survey(args):
    with contextlib.ExitStack() as stack:
        report_file = _report_file(stack, args.json)
        out = conjecture_survey(
            _read_lines(args.g6), jobs=args.jobs, max_n=args.max_n, k_max=args.k_max
        )
        if report_file is not None:
            write_json(out, report_file)
    print(f"graphs surveyed: {out['graphs']}")
    print("delta  k  max iota_k/ir  witness")
    for row in out["rows"]:
        print(
            f"{row['delta']:5d} {row['k']:2d}  {row['ratio']:>12s}  {row['witness']}"
        )
    for delta, ok in out["monotone_by_delta"].items():
        tag = "non-increasing" if ok else "NOT monotone"
        print(f"observed maxima for delta={delta}: {tag}")
    if out["skipped_over_max_n"]:
        print(f"skipped (order above cap): {out['skipped_over_max_n']}")
    for err in out["parse_errors"]:
        print(f"line {err['line_number']} not surveyed: {err['error']}")
    return 0


def cmd_certify(args):
    grid = None
    if args.family:
        grid = [(args.family, _parse_params(args.params))]
    elif args.params:
        raise ParameterError("--params needs --family")
    with contextlib.ExitStack() as stack:
        report_file = _report_file(stack, args.json)
        report = certify_families(grid)
        if report_file is not None:
            write_json(report, report_file)
    for row in report["rows"]:
        fields = [f"{row['family']} {row['params']}: n={row['n']} delta={row['delta']}"]
        for key in ("gamma", "ir", "iota", "iota_lower", "iota_upper"):
            if key in row:
                fields.append(f"{key}={row[key]}")
        for key in ("gamma_certification", "ir_certification", "iota_certification"):
            if key in row:
                fields.append(f"{key.split('_')[0]}:{row[key]}")
        fields.append(row["status"])
        print("  ".join(fields))
    if report["hard_failures"]:
        print(f"HARD FAILURES: {len(report['hard_failures'])}")
        for msg in report["hard_failures"]:
            print(f"  {msg}")
        return 1
    print("all instances certified")
    return 0


def cmd_solve(args):
    # --k and --force are checked before any input is read: a bad option is
    # one error, not one per line
    if args.invariant == "iota":
        if args.k is None:
            raise ParameterError("--k is required for iota")
        if args.k < 1:
            raise ParameterError(f"isolation order must be positive, got {args.k}")
    elif args.k is not None:
        raise ParameterError(f"--k applies only to --invariant iota, not {args.invariant}")
    if args.force and args.invariant != "ir":
        raise ParameterError(f"--force applies only to --invariant ir, not {args.invariant}")
    status = 0
    for _number, line in graph6_lines(_read_lines(args.g6)):
        try:
            g = parse_graph6(line)
            if args.invariant == "gamma":
                res = gamma(g)
            elif args.invariant == "ir":
                res = ir(g, force=args.force)
            else:
                res = iota(g, args.k)
            witness = " ".join(map(str, res.witness))
            print(f"{line} {args.invariant}={res.value} witness=[{witness}]")
        except InputError as exc:
            hint = "; pass --force" if isinstance(exc, SizeCapError) else ""
            # echoed as its bytes, each non-ASCII one written \xNN, so that a
            # stream with a strict ASCII encoder can print it
            echo = line.encode("utf-8", "surrogateescape").decode("ascii", "backslashreplace")
            print(f"{echo} error: {exc}{hint}", file=sys.stderr)
            status = 1
    return status


def cmd_partition(args):
    iset = _parse_vertex_set(args.iset, "--iset")
    g = _only_graph(args.g6)
    part = compute_partition(g, iset)
    for name in ("i", "u", "p", "s", "z", "a", "q", "b", "nset", "m"):
        print(f"{name}: {_vertices(bits(getattr(part, name)))}")
    reps = ((part.pn[x] & -part.pn[x]).bit_length() - 1 for x in bits(part.nset))
    print(f"nhat: {_vertices(reps)}")  # in the order of the members of nset
    for x in bits(part.i):
        print(f"pn[{x}]: {_vertices(bits(part.pn[x]))}")
    for wit in undominated_witnesses(g, part):
        pairs = "; ".join(f"({a},{b})<-({c},{d})" for a, b, c, d in wit.pairs)
        print(f"witness u={wit.u} x={wit.x} pairs=[{pairs}]")
    delta = g.max_degree()
    if args.refine and delta >= 2:
        ref = refine_pairs(g, part)
        print(f"pairs: s={ref.s_param} anchor={ref.anchor} x={list(bits(ref.x))}")
    if args.refine and delta >= 3:
        ref2 = refine_twins(g, part)
        print(
            f"twins: isolated={ref2.isolated_count} twin={ref2.twin_count} "
            f"x={list(bits(ref2.x))}"
        )
    return 0


def cmd_construct(args):
    # the options are checked before the input is read, as in solve
    iset = _parse_vertex_set(args.iset, "--iset")
    if args.k < 1:
        raise ParameterError(f"isolation order must be positive, got {args.k}")
    g = _only_graph(args.g6)
    cert = build_isolating_set(g, compute_partition(g, iset), args.k)
    print(f"regime: {cert.regime}")
    print(f"t: {_vertices(cert.t)}")
    print(f"size: {len(cert.t)}  bound: {fraction_str(cert.bound)}  s: {cert.s_param}")
    print(f"bound satisfied: {cert.satisfied}")
    print(f"isolating verified: {cert.isolating_verified}")
    return 0 if cert.satisfied and cert.isolating_verified else 1


def cmd_family(args):
    inst = make_instance(args.name, _parse_params(args.params))
    g = inst.graph
    print(
        f"{inst.name} {json.dumps(inst.params, sort_keys=True)}: "
        f"n={g.n} m={g.edge_count()} delta={g.max_degree()} k={inst.k}"
    )
    for label, value in (
        ("claimed ir", inst.claimed_ir),
        ("claimed gamma", inst.claimed_gamma),
        ("claimed iota", inst.claimed_iota),
    ):
        if value is not None:
            print(f"{label}: {value}")
    if args.emit_g6:
        print(encode_graph6(g))
    if args.emit_witnesses:
        for label, wit in (
            ("irredundant", inst.witness_irredundant),
            ("isolating", inst.witness_isolating),
            ("dominating", inst.witness_dominating),
        ):
            if wit is not None:
                print(f"witness {label}: {' '.join(map(str, wit))}")
        if inst.designated_cliques is not None:
            for cq in inst.designated_cliques:
                print(f"designated clique: {' '.join(map(str, cq))}")
    return 0


def cmd_check(args):
    # the options are checked before the input is read, as in solve
    if args.predicate == "isolating":
        if args.k is None:
            raise ParameterError("--k is required for the isolating predicate")
        if args.k < 1:
            raise ParameterError(f"k must be positive, got {args.k}")
    elif args.k is not None:
        raise ParameterError(f"--k applies only to --predicate isolating, not {args.predicate}")
    vset = _parse_vertex_set(args.set, "--set")
    g = _only_graph(args.g6)
    if args.predicate == "dominating":
        ok = is_dominating(g, vset)
    elif args.predicate == "irredundant":
        ok = is_irredundant(g, vset)
    elif args.predicate == "maximal-irredundant":
        ok = is_maximal_irredundant(g, vset)
    else:
        ok = is_k_isolating(g, vset, args.k)
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_bound(args):
    b = isolation_bound(args.k, args.delta, args.ir, s=args.s)
    print(fraction_str(b))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="isobound",
        description="exact domination, irredundance, and isolation machinery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_g6(p):
        p.add_argument("--g6", default="-", help="graph6 file, or - for stdin")

    p = sub.add_parser("verify", help="run the full check suite over a graph6 stream")
    add_g6(p)
    p.add_argument("--jobs", type=_integer, default=1)
    p.add_argument("--max-n", type=_integer, default=None)
    p.add_argument("--json", default=None, help="write the aggregate report here")
    p.add_argument("--csv", default=None, help="write per-graph records here")
    p.add_argument("--no-spot-check", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("survey", help="tabulate observed iota_k/ir maxima")
    add_g6(p)
    p.add_argument("--jobs", type=_integer, default=1)
    p.add_argument("--max-n", type=_integer, default=None)
    p.add_argument("--k-max", type=_integer, default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("certify", help="audit extremal family instances")
    p.add_argument("--family", default=None, choices=sorted(FAMILIES))
    p.add_argument("--params", default="", help="comma separated key=value")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("solve", help="exact gamma, ir, or iota values")
    add_g6(p)
    p.add_argument("--invariant", required=True, choices=("gamma", "ir", "iota"))
    p.add_argument("--k", type=_integer, default=None)
    p.add_argument("--force", action="store_true", help="lift the ir order cap")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("partition", help="decompose around a maximal irredundant set")
    add_g6(p)
    p.add_argument("--iset", required=True, help="comma separated vertices")
    p.add_argument("--refine", action="store_true", help="also run both refinements")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("construct", help="build and certify a k-isolating set")
    add_g6(p)
    p.add_argument("--iset", required=True)
    p.add_argument("--k", type=_integer, required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("family", help="generate an extremal family instance")
    p.add_argument("--name", required=True)
    p.add_argument("--params", default="")
    p.add_argument("--emit-g6", action="store_true")
    p.add_argument("--emit-witnesses", action="store_true")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("check", help="test a vertex set against a predicate")
    add_g6(p)
    p.add_argument("--set", required=True, help="comma separated vertices")
    p.add_argument(
        "--predicate",
        required=True,
        choices=("dominating", "irredundant", "maximal-irredundant", "isolating"),
    )
    p.add_argument("--k", type=_integer, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bound", help="evaluate the certified iota bound")
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--delta", type=_integer, required=True)
    p.add_argument("--ir", type=_integer, required=True)
    p.add_argument("--s", type=_integer, default=None)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MachineryError as exc:
        print(f"machinery error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
