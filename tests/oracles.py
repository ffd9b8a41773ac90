"""Reference routines that the tests compare the package against.

They work on plain lists of Fraction coefficients, ascending by degree, and
share no code with overpoly.
"""

from fractions import Fraction


def fraction_shift(coeffs, c) -> list[Fraction]:
    """Coefficients of p(x + c), by repeated synthetic division."""
    out = [Fraction(v) for v in coeffs]
    c = Fraction(c)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += c * out[j + 1]
    return out


def fraction_variations_in_interval(coeffs, lo, hi) -> int:
    """Sign variations of (1+t)^d p((lo + hi*t)/(1+t)), the Moebius transform
    of p onto (lo, hi), from two Fraction shifts."""
    lo, hi = Fraction(lo), Fraction(hi)
    scaled = [c * (hi - lo) ** i for i, c in enumerate(fraction_shift(coeffs, lo))]
    signs = [v > 0 for v in fraction_shift(scaled[::-1], 1) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))
