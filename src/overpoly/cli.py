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

Each subcommand's arguments are declared once, in _COMMANDS.  build_parser
gives them to argparse, and _parse_exact reads them to parse a well-formed
argv (full flag names, each at most once, valid values) without importing
argparse, which loads gettext; argparse parses every other argv and remains
the only source of help, usage and error messages.

run() is the process entry point.  It freezes the import-time heap and has
argparse, when it runs, print its messages untranslated, whatever the
locale; main() does neither, so it can be called in-process.
"""

from __future__ import annotations

import gc
import os
import sys
from fractions import Fraction
from math import factorial
from types import SimpleNamespace

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
from .serial import dumps, encode
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

__all__ = ["main", "build_parser", "run"]


def _rational(text: str) -> Fraction:
    """What Fraction() reads, in ASCII and without '_'; Fraction() alone also reads '1_0' and non-ASCII digits."""
    try:
        if text.isascii() and "_" not in text:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    import argparse

    raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _rational_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_rational(chunk) for chunk in text.split(",") if chunk.strip())


def _int(text: str) -> int:
    """An optional sign and ASCII digits; int() alone also reads '1_2' and non-ASCII digits."""
    body = text.strip()
    digits = body[1:] if body.startswith(("+", "-")) else body
    if not (digits.isascii() and digits.isdigit()):
        import argparse

        raise argparse.ArgumentTypeError(f"not an integer: {body!r}")
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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; for one of _COMMANDS, only that subcommand's parser is built.

    main passes its first argument: a parser built for it prints the same
    help, usage and errors as the full one on every argv that starts with it.
    """
    import argparse

    names = (command,) if command in _COMMANDS else _COMMANDS
    parser = argparse.ArgumentParser(
        prog="overpoly",
        description="Exact arithmetic and verification for overpartition polynomials.",
    )
    # A one-subcommand parser still names every subcommand in its usage line.
    # The metavar would rename the subcommand argument in the full parser's
    # errors (no subcommand, an unknown one); a one-subcommand parser has none.
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        text, handler, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        for flag, spec in arguments:
            p.add_argument(flag, **spec)
    return parser


def _emit_json(obj) -> None:
    print(dumps(obj, sort_keys=True))


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
            print(f"exceptions={dumps(encode(sorted(report.exceptions)))}")
        if report.counterexample is not None:
            print(f"counterexample={dumps(encode(report.counterexample))}")
        if report.inconclusive:
            print(f"inconclusive={dumps(encode(report.inconclusive))}")
        if report.stats:
            print(f"stats={dumps(encode(report.stats), sort_keys=True)}")
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


_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})
_CAP = ("--cap", {"type": _int, "help": "enumeration cap for this color count"})

# subcommand -> (help, handler, arguments), each argument add_argument's
# (name, keywords).  build_parser declares them to argparse and _parse_exact
# reads the same entries; each subcommand has at most one positional.
_COMMANDS = {
    "poly": ("overpartition polynomial for one n", _cmd_poly, (
        ("n", {"type": _int}),
        ("--eval", {"dest": "point", "type": _rational, "help": "evaluate at a rational point"}),
        ("--derivative", {"action": "store_true", "help": "use the derivative-identity polynomial"}),
        _FORMAT,
    )),
    "series": ("truncated exponential generating series", _cmd_series, (("order", {"type": _int}), _FORMAT)),
    "enumerate": ("list k-colored overpartitions of n", _cmd_enumerate, (
        ("n", {"type": _int}),
        ("--colors", {"type": _int, "default": 1}),
        ("--forbid", {"default": "", "help": 'non-overlined bans, e.g. "1_1,2_1"'}),
        ("--count", {"action": "store_true", "help": "print the count only"}),
        _CAP,
        _FORMAT,
    )),
    "bijection": ("exhaustively audit one of the injections", _cmd_bijection, (
        ("map", {"choices": MAP_NAMES}),
        ("--a", {"type": _int, "required": True}),
        ("--b", {"type": _int}),
        ("--colors", {"type": _int, "default": 1}),
        _CAP,
        _FORMAT,
    )),
    "verify": ("check one claim over its range", _cmd_verify, (
        ("claim", {"choices": tuple(CLAIMS)}),
        *((flag, {"dest": param, "metavar": flag[2:].upper(), "type": kind, "help": text})
          for flag, (param, kind, text) in _RANGE_FLAGS.items()),
        _FORMAT,
    )),
    "roots": ("certified max-root table for the gap polynomials", _cmd_roots, (
        ("--amax", {"type": _int, "default": 10}),
        ("--bmax", {"type": _int, "default": 10}),
        ("--width", {"type": _rational, "default": DEFAULT_WIDTH, "help": f"bracket width (default {DEFAULT_WIDTH})"}),
        ("--format", {"choices": ("csv", "json", "text"), "default": "csv"}),
    )),
    "bounds": ("analytic sandwich and truncated-series data", _cmd_bounds, (
        ("n", {"type": _int, "nargs": "?"}),
        ("--nmax", {"type": _int, "help": "scan 1..nmax instead of a single n"}),
        _FORMAT,
    )),
}


def _parse_exact(argv) -> SimpleNamespace | None:
    """The attributes build_parser().parse_args(argv) would set, when that is certain; else None.

    Certain means: argv starts with a subcommand; every other word is a
    positional or one of that subcommand's flags spelled in full and given
    at most once; a flag that takes a value is followed by one that does not
    start with '-'; there are no more positionals than the subcommand takes;
    every required argument is present; and each value passes its type and
    choices.  Everything else (-h, --flag=value, abbreviations, repeats,
    '--', negative numbers, every error) is left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, arguments = _COMMANDS[argv[0]]
    flags = {name: spec for name, spec in arguments if name[0] == "-"}
    given, positionals = {}, []
    words = iter(argv[1:])
    for word in words:
        if word[:1] != "-":
            positionals.append(word)
            continue
        if word not in flags or word in given:
            return None
        if flags[word].get("action") == "store_true":
            given[word] = True
            continue
        given[word] = next(words, "-")
        if given[word][:1] == "-":
            return None
    namespace = {"command": argv[0], "handler": handler}
    for name, spec in arguments:
        if name[0] == "-":
            dest, text = spec.get("dest", name[2:]), given.get(name)
        else:
            dest, text = name, positionals.pop() if positionals else None
        if text is None:
            if spec.get("required", name[0] != "-" and spec.get("nargs") != "?"):
                return None
            namespace[dest] = spec.get("default", False if spec.get("action") == "store_true" else None)
        elif text is True:
            namespace[dest] = True
        else:
            try:
                value = spec["type"](text) if "type" in spec else text
            except Exception:  # argparse reports it, or raises it again
                return None
            if "choices" in spec and value not in spec["choices"]:
                return None
            namespace[dest] = value
    return None if positionals else SimpleNamespace(**namespace)


def main(argv=None) -> int:
    """Run one command in-process and return its exit code.

    A well-formed argv is parsed by _parse_exact, any other by argparse, with
    its stock messages; the handler gets the same attributes either way.
    """
    return _main(sys.argv[1:] if argv is None else argv, untranslated=False)


def _main(argv, untranslated: bool) -> int:
    args = _parse_exact(argv)
    if args is None:
        # argparse is imported only here, for help, usage, errors and every
        # argv _parse_exact leaves to it.  It passes each message through
        # gettext, whose first call imports locale (about 0.9 ms) only to find
        # no argparse catalog; untranslated takes the messages as written,
        # which is what gettext returns without a catalog.
        import argparse

        if untranslated:
            argparse._ = str
            argparse.ngettext = _untranslated_plural
        try:
            args = build_parser(argv[0] if argv else None).parse_args(argv)
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


def _untranslated_plural(singular: str, plural: str, n: int) -> str:
    return singular if n == 1 else plural


def run() -> None:
    """Process entry point: `python -m overpoly.cli` and the `overpoly` script.

    Moves every object the imports made into the collector's permanent
    generation, so that the interpreter's shutdown neither traces nor tears
    down that heap, then exits with the code main would return; when the
    argv needs argparse, its messages are untranslated.  Atexit handlers,
    flushes, exit codes and output are unchanged.  main itself does neither,
    because tests and tracers call it in-process.
    """
    gc.freeze()
    sys.exit(_main(sys.argv[1:], untranslated=True))


if __name__ == "__main__":
    run()
