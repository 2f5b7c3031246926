"""Command-line interface.

Subcommands: zech (table construction), debruijn (full cycle-joining
pipeline), certify (star / almost-star certificates), crossjoin, fryers,
cyclotomic. Outputs are deterministic: the same arguments and seeds give
byte-identical files. Exit codes: 0 success, 2 partial result (incomplete
table, disconnected graph), 3 invalid input, usage errors included.
"""

import argparse
import contextlib
import io
import json
import sys

from .conjugacy import cyclotomic_numbers
from .crossjoin import (
    check_crossjoin_degree,
    fryers_coefficients,
    fryers_total,
    random_crossjoin,
)
from .cycles import CycleCtx, check_t
from .gf2poly import (
    degree,
    is_debruijn,
    poly_from_set_notation,
    poly_to_set_notation,
    seq_to_hex,
)
from .graph import (
    certify_almost_star,
    certify_star,
    connected_subgraph,
    count_spanning_trees,
    deterministic_spanning_tree,
    export_dot,
    log2_int,
    sample_spanning_tree,
)
from .joining import MATERIALIZE_CAP, generate_debruijn, tree_feedback
from .zech import MissingEntryError, build_zech_table

EXIT_OK = 0
EXIT_PARTIAL = 2
EXIT_INVALID = 3


@contextlib.contextmanager
def _output(args):
    """The --out file, opened for writing, or standard output."""
    if args.out:
        with open(args.out, "w") as fp:
            yield fp
    else:
        yield sys.stdout


def _emit(args, text):
    with _output(args) as fp:
        fp.write(text)


def cmd_zech(args):
    if args.budget is not None:
        _check_least("--budget", args.budget, 0)
    p = poly_from_set_notation(args.p)
    table = build_zech_table(p, mode=args.mode, lift=not args.no_lift,
                             budget=args.budget)
    buf = io.StringIO()
    table.dump(buf)
    _emit(args, buf.getvalue())
    cov = table.coverage()
    print(
        f"zech n={table.n} elements={cov['elements_known']}/{cov['elements_total']} "
        f"cosets={cov['cosets_known']}/{cov['cosets_total']} "
        f"complete={int(cov['complete'])}",
        file=sys.stderr,
    )
    return EXIT_OK if table.complete else EXIT_PARTIAL


def _build_ctx(p, t):
    check_t(degree(p), t)
    return CycleCtx(p, t, zech=build_zech_table(p))


def _parse_ab(text):
    """The forced exponent pair of `crossjoin --ab a,b`."""
    parts = text.split(",")
    try:
        a, b = (int(x) for x in parts)
    except ValueError:
        raise ValueError(f"--ab expects two exponents as a,b (e.g. 7,21), "
                         f"got {text!r}") from None
    return a, b


def _feedback_text(fb):
    """The expanded ANF of a joined feedback, or its compact form when the
    expansion needs more than 2^16 monomials."""
    try:
        return str(fb.to_anf(1 << 16))
    except ValueError:
        return str(fb)


def _check_least(flag, value, least):
    """Refuse a numeric flag below its minimum, before any work is done."""
    if value < least:
        raise ValueError(f"{flag} must be at least {least}, got {value}")


def cmd_debruijn(args):
    _check_least("--count", args.count, 0)   # 0: certificate only, no sequence
    if args.format == "hex" and args.count == 0:
        raise ValueError("--format hex writes sequences, but --count is 0")
    if args.materialize_cap > MATERIALIZE_CAP:
        raise ValueError(f"--materialize-cap {args.materialize_cap} is above the "
                         f"sequence generation cap {MATERIALIZE_CAP}")
    p = poly_from_set_notation(args.p)
    n = degree(p)
    if args.format == "hex" and n > args.materialize_cap:
        raise ValueError(f"--format hex writes sequences, but n = {n} is above "
                         f"--materialize-cap {args.materialize_cap}")
    ctx = _build_ctx(p, args.t)
    g = connected_subgraph(ctx)
    missing = g.unreached()
    if missing:
        print(f"error: adjacency graph disconnected; unreached cycles {missing}",
              file=sys.stderr)
        return EXIT_PARTIAL
    if args.format == "dot":
        _emit(args, export_dot(g))
        return EXIT_OK
    count_trees, log2 = count_spanning_trees(g), None
    if count_trees:
        log2 = log2_int(count_trees)
    records = []
    for idx in range(args.count):
        if idx == 0:
            tree = deterministic_spanning_tree(g)
        else:
            tree = sample_spanning_tree(g, seed=(args.seed << 20) ^ idx)
        fb = tree_feedback(ctx, tree)
        rec = {"tree": idx, "feedback": _feedback_text(fb), "degree": fb.degree}
        if n <= args.materialize_cap:
            bits = generate_debruijn(ctx, tree)
            if n <= 14 and not is_debruijn(bits, n):
                raise AssertionError("window test failed on generated sequence")
            rec["period"] = len(bits)
            rec["hex"] = seq_to_hex(bits)
        records.append(rec)
    payload = {
        "p": poly_to_set_notation(p),
        "t": ctx.t,
        "f": poly_to_set_notation(ctx.f),
        "spanning_trees": str(count_trees),
        "log2_trees": round(log2, 2) if log2 is not None else None,
        "sequences": records,
    }
    if args.format == "json":
        _emit(args, json.dumps(payload, sort_keys=True) + "\n")
    elif args.format == "hex":
        lines = [f"{rec['period']} {rec['hex']}" for rec in records if "hex" in rec]
        _emit(args, "\n".join(lines) + "\n")
    else:
        lines = [
            f"p = {payload['p']}",
            f"t = {ctx.t}",
            f"f = {payload['f']}",
            f"spanning trees = {count_trees} (~2^{payload['log2_trees']})",
        ]
        for rec in records:
            lines.append(f"tree {rec['tree']}: h = {rec['feedback']}")
            if "hex" in rec:
                lines.append(f"tree {rec['tree']}: period {rec['period']} hex {rec['hex']}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_certify(args):
    if args.t is None:
        if args.l is not None:
            raise ValueError("--l needs --t")
        _check_least("--budget-s", args.budget_s, 3)   # the least t swept
    _check_least("--budget-z", args.budget_z, 1)
    p = poly_from_set_notation(args.p)
    zech = build_zech_table(p)
    if args.l is not None:
        certs = [certify_almost_star(p, args.t, args.l, z_max=args.budget_z, zech=zech)]
    elif args.t is not None:
        certs = certify_star(p, z_max=args.budget_z, zech=zech, ts=[args.t])
        if not certs:
            print(f"note: t = {args.t} skipped (invalid for this polynomial)",
                  file=sys.stderr)
            return EXIT_INVALID
    else:
        certs = certify_star(p, t_max=args.budget_s, z_max=args.budget_z, zech=zech)
    if args.format == "json":
        _emit(args, "\n".join(c.to_json() for c in certs) + "\n")
    else:
        lines = []
        for c in certs:
            if c.found:
                lines.append(
                    f"t={c.t} center=u{c.center} witness={{{','.join(map(str, c.witness))}}} "
                    f"cp={c.cp} dbseqs~2^{round(c.log2, 2)}"
                )
            else:
                lines.append(f"t={c.t} center=u{c.center}: no star spanning tree found")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if all(c.found for c in certs) else EXIT_PARTIAL


def cmd_crossjoin(args):
    _check_least("--count", args.count, 1)
    ab = _parse_ab(args.ab) if args.ab else None
    p = poly_from_set_notation(args.p)
    check_crossjoin_degree(degree(p))
    zech = build_zech_table(p)
    records = []
    for idx in range(args.count):
        seed = ((args.seed << 20) ^ idx) if ab is None else None
        pair, fb, prov = random_crossjoin(p, zech=zech, seed=seed, ab=ab)
        records.append({"feedback": _feedback_text(fb), "degree": fb.degree, **prov})
    if args.format == "json":
        _emit(args, "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n")
    else:
        lines = []
        for r in records:
            lines.append(
                f"a={r['a']} b={r['b']} tau(a)={r['tau_a']} tau(b)={r['tau_b']} "
                f"degree={r['degree']}"
            )
            lines.append(f"h = {r['feedback']}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_fryers(args):
    """Rows are written as the recurrence yields them; their exact Decimal
    values convert to text in linear time, with no digit limit."""
    total = fryers_total(args.n, verify=args.n <= 12)
    rows = fryers_coefficients(args.n)
    with _output(args) as fp:
        if args.format == "json":
            payload = {"n": args.n, "coefficients": {str(k): c for k, c in rows},
                       "total": total}
            json.dump(payload, fp, sort_keys=True, default=str)
            fp.write("\n")
        else:
            for k, c in rows:
                fp.write(f"N({args.n};{k}) = {c}\n")
            fp.write(f"total = {total}\n")
    return EXIT_OK


def cmd_cyclotomic(args):
    p = poly_from_set_notation(args.p)
    ctx = _build_ctx(p, args.t)
    matrix = cyclotomic_numbers(ctx)
    if args.format == "json":
        _emit(args, json.dumps({"p": poly_to_set_notation(p), "t": args.t,
                                "matrix": matrix}, sort_keys=True) + "\n")
    else:
        lines = [" ".join(str(x) for x in row) for row in matrix]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, invalid input: argparse's 2 means a partial
    result here. Subparsers are made of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="zechbruijn",
        description="Binary de Bruijn sequences by cycle joining and "
                    "cross-joining, driven by Zech logarithm tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, formats=("text", "json")):
        sp.add_argument("--out", help="output file (default stdout)")
        if formats:
            sp.add_argument("--format", default="text", choices=formats)

    sp = sub.add_parser("zech", help="build a Zech logarithm table file")
    sp.add_argument("--p", required=True, help='polynomial, e.g. "n=10;{3}" or 0x409')
    sp.add_argument("--mode", default="auto",
                    choices=["auto", "bruteforce", "propagate"])
    sp.add_argument("--no-lift", action="store_true",
                    help="disable the subfield lift fallback")
    sp.add_argument("--budget", type=int, default=None,
                    help="chain-sweep candidate budget (large degrees)")
    add_common(sp, formats=())
    sp.set_defaults(func=cmd_zech)

    sp = sub.add_parser("debruijn", help="generate de Bruijn sequences")
    sp.add_argument("--p", required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--materialize-cap", type=int, default=MATERIALIZE_CAP)
    add_common(sp, formats=("text", "json", "dot", "hex"))
    sp.set_defaults(func=cmd_debruijn)

    sp = sub.add_parser("certify", help="star / almost-star certificates")
    sp.add_argument("--p", required=True)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--l", type=int, default=None, help="almost-star center index")
    sp.add_argument("--budget-s", type=int, default=2000, help="t sweep bound")
    sp.add_argument("--budget-z", type=int, default=2000, help="witness walk bound")
    add_common(sp)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("crossjoin", help="cross-join NLFSR construction")
    sp.add_argument("--p", required=True)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--ab", default=None, help="force exponents, e.g. 7,21")
    add_common(sp)
    sp.set_defaults(func=cmd_crossjoin)

    sp = sub.add_parser("fryers", help="Fryers coefficients and total")
    sp.add_argument("--n", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_fryers)

    sp = sub.add_parser("cyclotomic", help="cyclotomic number matrix")
    sp.add_argument("--p", required=True)
    sp.add_argument("--t", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_cyclotomic)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MissingEntryError as exc:    # str() of a KeyError adds quotes
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
