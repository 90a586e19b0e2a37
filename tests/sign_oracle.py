"""The slow sign oracle: the sum of the reciprocals of the exponents.

classify_sign reads the sign of d - |w| off the weight system that
bp_link builds; for Brieskorn-Pham exponents |w| = d sum 1/a_i, so the
sign class is the comparison of this exact sum against 1, and the two
agree only if bp_link's weights are d / a_i.
"""

from fractions import Fraction

from linkatlas.links import _as_exponents


def reciprocal_sum(a):
    """sum 1/a_i; the sign class of a BP link compares this against 1."""
    exps = _as_exponents(a).exponents
    return sum((Fraction(1, x) for x in exps), Fraction(0))
