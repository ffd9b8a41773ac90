"""Exact arithmetic for overpartition polynomials.

The package computes the polynomial family attached to the overpartition
counting function with exact rational arithmetic, enumerates (k-colored)
overpartitions as an independent counting oracle, executes and audits the
case-defined injections behind the product inequalities, and verifies the
analytic bounds and the certified table of largest gap-polynomial roots.
"""

from .divisors import divisors, pbar_exact, pbar_prefix, sigma, sigma_bar, tau_alt
from .enumeration import (
    CapExceededError,
    Constraint,
    NO_CONSTRAINT,
    Part,
    canonicalize,
    count_ops,
    enumerate_ops,
    forbid,
    iter_ops,
    weight,
)
from .polynomials import (
    Poly,
    colored_count_via_product,
    pbar_derivative,
    pbar_poly,
    product_gap_poly,
    scaled_values,
    series_expand,
)
from .bijections import (
    AuditReport,
    ImagePair,
    SplitPoint,
    audit,
    peel_one,
    peel_one_colored,
    peel_two,
    split_pair,
    split_pair_colored,
    split_point,
)
from .rootisolation import RootBracket, isolate_max_root
from .verification import (
    BoundTriple,
    RootRecord,
    VerifyReport,
    check_colored,
    check_descent,
    check_ie7,
    check_ie8,
    check_ie11,
    check_le3,
    check_logconcave,
    check_th1,
    check_th3_grid,
    check_th4_grid,
    find_descent_x,
    roots_csv,
    roots_table,
    run_claim,
    sandwich,
)

__version__ = "0.1.0"
