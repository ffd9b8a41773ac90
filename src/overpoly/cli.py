"""Command-line front door.

Subcommands expose every operation with machine-readable output and stable
exit codes: 0 when the computation succeeded and every claim checked held,
1 when a check found a counterexample or an unexpected exception set, or a
certificate failed (one error: line, no traceback), or a reader closed
stdout early, as `| head -1` does (nothing printed), 2 for usage, parse, and
resource-cap errors.

Rationals cross the boundary as exact "p/q" strings (plain integers and exact
decimals also parse); output is deterministic for fixed arguments.  The
enumeration cap, the root-bracket width and the evaluation grid have
defaults; --cap, --width and --xs override them on the command that reads
them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from math import factorial

from .bijections import MAP_NAMES, audit, expected_verdict
from .enumeration import (
    CapExceededError,
    Constraint,
    NO_CONSTRAINT,
    count_ops,
    enumerate_ops,
    format_parts,
)
from .polynomials import pbar_derivative, pbar_poly, scaled_values, series_expand
from .serial import encode
from .verification import (
    CLAIMS,
    DEFAULT_WIDTH,
    SANDWICH_N_MAX,
    roots_csv,
    roots_table,
    run_claim,
    sandwich,
    sandwich_verdict,
)

__all__ = ["main", "build_parser"]


def _rational(text: str) -> Fraction:
    """What Fraction() reads, in ASCII and without '_'; Fraction() alone also reads '1_0' and non-ASCII digits."""
    try:
        if text.isascii() and "_" not in text:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _rational_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_rational(chunk) for chunk in text.split(",") if chunk.strip())


def _int(text: str) -> int:
    """An optional sign and ASCII digits; int() alone also reads '1_2' and non-ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", text.strip()):
        raise argparse.ArgumentTypeError(f"not an integer: {text.strip()!r}")
    return int(text)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(_int(chunk) for chunk in text.split(",") if chunk.strip())


# verify flag -> (checker range parameter, type, help); CLAIMS says which claim takes which.
_RANGE_FLAGS = {
    "--nmax": ("n_max", _int, None),
    "--amax": ("a_max", _int, None),
    "--alo": ("a_lo", _int, None),
    "--ahi": ("a_hi", _int, None),
    "--xs": ("xs", _rational_list, 'grid, e.g. "1,3/2,2,5/2,3"'),
    "--kset": ("k_set", _int_list, 'color counts, e.g. "2,3"'),
    "--ns": ("ns", _int_list, 'descent inputs, e.g. "3,7,15,31"'),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overpoly",
        description="Exact arithmetic and verification for overpartition polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="overpartition polynomial for one n")
    p.set_defaults(handler=_cmd_poly)
    p.add_argument("n", type=_int)
    p.add_argument("--eval", dest="point", type=_rational, help="evaluate at a rational point")
    p.add_argument("--derivative", action="store_true", help="use the derivative-identity polynomial")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("series", help="truncated exponential generating series")
    p.set_defaults(handler=_cmd_series)
    p.add_argument("order", type=_int)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("enumerate", help="list k-colored overpartitions of n")
    p.set_defaults(handler=_cmd_enumerate)
    p.add_argument("n", type=_int)
    p.add_argument("--colors", type=_int, default=1)
    p.add_argument("--forbid", default="", help='non-overlined bans, e.g. "1_1,2_1"')
    p.add_argument("--count", action="store_true", help="print the count only")
    p.add_argument("--cap", type=_int, help="enumeration cap for this color count")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("bijection", help="exhaustively audit one of the injections")
    p.set_defaults(handler=_cmd_bijection)
    p.add_argument("map", choices=MAP_NAMES)
    p.add_argument("--a", type=_int, required=True)
    p.add_argument("--b", type=_int)
    p.add_argument("--colors", type=_int, default=1)
    p.add_argument("--cap", type=_int, help="enumeration cap for this color count")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="check one claim over its range")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("claim", choices=tuple(CLAIMS))
    for flag, (param, kind, text) in _RANGE_FLAGS.items():
        p.add_argument(flag, dest=param, metavar=flag[2:].upper(), type=kind, help=text)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("roots", help="certified max-root table for the gap polynomials")
    p.set_defaults(handler=_cmd_roots)
    p.add_argument("--amax", type=_int, default=10)
    p.add_argument("--bmax", type=_int, default=10)
    p.add_argument("--width", type=_rational, default=DEFAULT_WIDTH, help=f"bracket width (default {DEFAULT_WIDTH})")
    p.add_argument("--format", choices=("csv", "json", "text"), default="csv")

    p = sub.add_parser("bounds", help="analytic sandwich and truncated-series data")
    p.set_defaults(handler=_cmd_bounds)
    p.add_argument("n", type=_int, nargs="?")
    p.add_argument("--nmax", type=_int, help="scan 1..nmax instead of a single n")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _cmd_poly(args) -> int:
    if args.point is not None:
        # The n-th of scaled_values, over its scale: no polynomial is built.
        name, least = ("pbar_derivative", 1) if args.derivative else ("pbar_poly", 0)
        if args.n < least:
            raise ValueError(f"{name} undefined for n={args.n}; need n >= {least}")
        scale = args.point.denominator ** (args.n - 1 if args.derivative else args.n) * factorial(args.n)
        value = Fraction(scaled_values(args.n, args.point, args.derivative)[args.n], scale)
        if args.format == "json":
            _emit_json({"n": args.n, "x": encode(args.point), "value": encode(value)})
        else:
            print(value)
        return 0
    poly = pbar_derivative(args.n) if args.derivative else pbar_poly(args.n)
    if args.format == "json":
        _emit_json({"n": args.n, "derivative": args.derivative, "coeffs": encode(poly.coeffs)})
    else:
        label = "pbar_derivative" if args.derivative else "pbar_poly"
        print(f"{label}({args.n}) = {poly}")
    return 0


def _cmd_series(args) -> int:
    coeff_polys = series_expand(args.order)
    if args.format == "json":
        _emit_json({"order": args.order, "coeffs": [encode(p.coeffs) for p in coeff_polys]})
    else:
        for n, poly in enumerate(coeff_polys):
            print(f"q^{n}: {poly}")
    return 0


def _cmd_enumerate(args) -> int:
    constraint = Constraint.parse(args.forbid) if args.forbid else NO_CONSTRAINT
    for size, color in sorted(constraint.forbidden):
        if color > args.colors >= 1:  # a color count below 1 is iter_ops's error
            raise ValueError(f"ban '{size}_{color}' has color {color}, above --colors {args.colors}")
    items = () if args.count else enumerate_ops(args.n, args.colors, constraint, cap=args.cap)
    count = count_ops(args.n, args.colors, constraint, cap=args.cap) if args.count else len(items)
    if args.format == "json":
        payload = {"n": args.n, "colors": args.colors, "count": count}
        if not args.count:
            payload["overpartitions"] = encode(items)
        _emit_json(payload)
    else:
        print(f"count = {count}")
        for parts in items:
            print(format_parts(parts))
    return 0


def _cmd_bijection(args) -> int:
    report = audit(args.map, args.a, args.b, args.colors, cap=args.cap)
    if args.format == "json":
        _emit_json(encode(report))
    else:
        print(
            f"map={report.map_name} a={report.a} b={report.b} k={report.k} "
            f"domain={report.domain_size} image={report.image_size} codomain={report.codomain_size}"
        )
        print(
            f"well_defined={report.well_defined} injective={report.injective} "
            f"surjective={report.surjective}"
        )
        if report.collision_witness:
            lam, mu = report.collision_witness
            print(f"collision: {format_parts(lam)} and {format_parts(mu)}")
        if report.unhit_witness:
            left, right = report.unhit_witness
            print(f"unhit: ({format_parts(left)}; {format_parts(right)})")
    return 0 if expected_verdict(report) else 1


def _cmd_verify(args) -> int:
    takes = CLAIMS[args.claim][1]
    ranges = {}
    for flag, (param, _, _) in _RANGE_FLAGS.items():
        value = getattr(args, param)
        if value is None:
            continue
        if param not in takes:
            known = [f for f, (name, _, _) in _RANGE_FLAGS.items() if name in takes]
            raise ValueError(f"verify {args.claim} does not take {flag}; it takes {', '.join(known)}")
        ranges[param] = value
    report = run_claim(args.claim, **ranges)
    if args.format == "json":
        _emit_json(encode(report))
    else:
        print(f"claim={report.claim} range='{report.range_checked}' holds={report.holds}")
        if report.exceptions:
            print(f"exceptions={json.dumps(encode(sorted(report.exceptions)))}")
        if report.counterexample is not None:
            print(f"counterexample={json.dumps(encode(report.counterexample))}")
        if report.inconclusive:
            print(f"inconclusive={json.dumps(encode(report.inconclusive))}")
        if report.stats:
            print(f"stats={json.dumps(encode(report.stats), sort_keys=True)}")
    return 0 if report.holds else 1


def _cmd_roots(args) -> int:
    records = roots_table(args.amax, args.bmax, args.width)
    if args.format == "csv":
        sys.stdout.write(roots_csv(records))
    elif args.format == "json":
        for record in records:
            _emit_json(encode(record))
    else:
        for record in records:
            print(f"x({record.a},{record.b}) = {record.rounded}  bracket=[{record.bracket_lo}, {record.bracket_hi}]")
    return 0


def _cmd_bounds(args) -> int:
    if (args.n is None) == (args.nmax is None):
        raise ValueError("bounds takes exactly one of n and --nmax")
    if args.nmax is not None and args.nmax < 1:
        raise ValueError(f"need nmax >= 1, got {args.nmax}")
    if args.nmax is not None and args.nmax > SANDWICH_N_MAX:
        raise ValueError(f"need nmax <= {SANDWICH_N_MAX}, got {args.nmax}")
    ns = [args.n] if args.nmax is None else range(1, args.nmax + 1)
    all_ok = True
    for n in ns:
        triple = sandwich(n)
        _, inconclusive, failed = sandwich_verdict(triple)
        all_ok = all_ok and not inconclusive and not failed
        if args.format == "json":
            _emit_json(encode(triple))
        else:
            print(
                f"n={triple.n} lower={triple.lower!r} exact={triple.exact} upper={triple.upper!r} "
                f"main_term={triple.main_term!r} remainder_bound={triple.remainder_bound!r} "
                f"remainder_ok={triple.remainder_ok}"
            )
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a reader gone before the last buffered write shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early, as `| head -1` does.  Point the
        # descriptor at devnull so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CapExceededError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
