"""Outside-in per-layer tracing of one CLI command, and the per-layer metrics.

Run as a child process, with PYTHONPATH pointing at the tree's src/:

    python perfbench/tracer.py SPANS_FILE COMMAND_ID ARGV...

It imports overpoly, replaces each traced public function at every module
attribute where callers look it up (and `Poly.__call__` on the class) with a
wrapper that records a span, then calls `overpoly.cli.main(ARGV)` and exits
with its code.  No file of the package changes.

A span is [name, start, end, parent index, command id].  Spans stay in memory
and are written to SPANS_FILE when the command ends, with the counters the
wrappers keep.  A call that re-enters a function whose span is still open
(`encode` recursing into its items) adds no span of its own.

`layer_metrics` turns the spans and counters of one pass into the per-layer
metrics.  Self time is a span's duration minus the time its child spans
cover; the process runs one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

CHECKS = (
    "check_th1",
    "check_th3_grid",
    "check_th4_grid",
    "check_colored",
    "check_le3",
    "check_ie7",
    "check_ie8",
    "check_ie11",
    "check_logconcave",
    "check_descent",
)

# (module, function): each gets a span named "<module>.<function>".
TRACED = (
    ("divisors", "pbar_prefix"),
    ("polynomials", "pbar_poly"),
    ("polynomials", "product_gap_poly"),
    ("rootisolation", "isolate_max_root"),
    ("rootisolation", "variations_in_interval"),
    ("rootisolation", "squarefree_part"),
    ("verification", "roots_table"),
    ("verification", "sandwich"),
    *(("verification", check) for check in CHECKS),
    ("enumeration", "enumerate_ops"),
    ("bijections", "audit"),
    ("serial", "encode"),
    ("cli", "main"),
)
POLY_CALL = "polynomials.Poly.call"

# The maps `audit` applies, counted (not timed) as bijections.audit.map_applications.
AUDIT_MAPS = ("split_pair", "peel_one", "peel_two", "split_pair_colored", "peel_one_colored")

# Counters kept as a maximum; all others are summed over a pass.
_MAX_COUNTERS = (
    "divisors.pbar_prefix.max_n",
    "polynomials.pbar_poly.max_n",
    "polynomials.product_gap_poly.max_coeff_bits",
)


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _max_n(key):
    def after(counters, args, kwargs, result):
        counters[key] = max(counters[key], _first_arg(args, kwargs, "n"))
    return after


def _coeff_bits(counters, args, kwargs, result):
    bits = max(
        (max(q.numerator.bit_length(), q.denominator.bit_length())
         for q in map(Fraction, result.coeffs)),
        default=0,
    )
    key = "polynomials.product_gap_poly.max_coeff_bits"
    counters[key] = max(counters[key], bits)


def _squarefree_useful(counters, args, kwargs, result):
    if result.degree < _first_arg(args, kwargs, "p").degree:
        counters["rootisolation.squarefree_part.useful"] += 1


def _add_len(key):
    def after(counters, args, kwargs, result):
        counters[key] += len(result)
    return after


AFTER = {
    "divisors.pbar_prefix": _max_n("divisors.pbar_prefix.max_n"),
    "polynomials.pbar_poly": _max_n("polynomials.pbar_poly.max_n"),
    "polynomials.product_gap_poly": _coeff_bits,
    "rootisolation.squarefree_part": _squarefree_useful,
    "verification.roots_table": _add_len("verification.roots_table.cells"),
    "enumeration.enumerate_ops": _add_len("enumeration.enumerate_ops.items"),
}


class Tracer:
    """Spans and counters of one command, filled in by the wrappers it makes."""

    def __init__(self, command_id: int):
        self.command_id = command_id
        self.spans: list[list] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._open: set[str] = set()

    def span(self, name: str, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in self._open:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.command_id]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            self._open.add(name)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()
                self._open.discard(name)
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _rebind(original, wrapper) -> None:
    """Point every overpoly module attribute bound to `original` at `wrapper`."""
    for name, module in list(sys.modules.items()):
        if name != "overpoly" and not name.startswith("overpoly."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer):
    """Wrap every traced function; returns the overpoly.cli module."""
    import overpoly.cli

    for module_name, function in TRACED:
        module = sys.modules[f"overpoly.{module_name}"]
        original = getattr(module, function)
        _rebind(original, tracer.span(f"{module_name}.{function}", original))
    bijections = sys.modules["overpoly.bijections"]
    for function in AUDIT_MAPS:
        original = getattr(bijections, function)
        _rebind(original, tracer.count("bijections.audit.map_applications", original))
    poly = sys.modules["overpoly.polynomials"].Poly
    poly.__call__ = tracer.span(POLY_CALL, poly.__call__)
    return overpoly.cli


def layer_metrics(traces) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one pass from its commands' (spans, counters)."""
    self_s: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    counters: defaultdict[str, int] = defaultdict(int)
    nodes = 0
    for spans, command_counters in traces:
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent is not None:
                covered[parent] += end - start
        for index, (name, start, end, parent, _) in enumerate(spans):
            self_s[name] += end - start - covered[index]
            calls[name] += 1
            if name == "rootisolation.variations_in_interval":
                nodes += _inside(spans, parent, "rootisolation.isolate_max_root")
        for key, value in command_counters.items():
            counters[key] = max(counters[key], value) if key in _MAX_COUNTERS else counters[key] + value

    roots = calls["rootisolation.isolate_max_root"]
    squarefree = calls["rootisolation.squarefree_part"]
    metrics: dict[str, tuple[float, str]] = {}
    for module_name, function in TRACED:
        name = f"{module_name}.{function}"
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    metrics[f"{POLY_CALL}.self_s"] = (self_s[POLY_CALL], "s")
    for name in (
        "divisors.pbar_prefix",
        "polynomials.pbar_poly",
        "polynomials.product_gap_poly",
        POLY_CALL,
        "rootisolation.isolate_max_root",
        "rootisolation.variations_in_interval",
        "rootisolation.squarefree_part",
        "verification.sandwich",
        "enumeration.enumerate_ops",
    ):
        metrics[f"{name}.calls"] = (calls[name], "count")
    for key in _MAX_COUNTERS:
        metrics[key] = (counters[key], "bits" if key.endswith("_bits") else "n")
    for key in (
        "verification.roots_table.cells",
        "enumeration.enumerate_ops.items",
        "bijections.audit.map_applications",
    ):
        metrics[key] = (counters[key], "count")
    metrics["rootisolation.nodes_per_root"] = (nodes / roots if roots else 0.0, "nodes/root")
    useful = counters["rootisolation.squarefree_part.useful"]
    metrics["rootisolation.squarefree_part.useful_ratio"] = (
        useful / squarefree if squarefree else 0.0,
        "ratio",
    )
    return metrics


def _inside(spans, index, ancestor: str) -> bool:
    while index is not None:
        if spans[index][0] == ancestor:
            return True
        index = spans[index][3]
    return False


def main(argv: list[str]) -> int:
    spans_path, command_id, command = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(command_id)
    cli = install(tracer)
    try:
        return cli.main(command)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
