"""The slow Betti oracle: the Milnor-Orlik subset sum, one term per subset.

betti() folds each run of equal weights into one step and merges its
terms by lcm as it goes; this loop takes every one of the 2^n subsets of
the quotients on its own, in Fraction, and groups nothing until the sum
is done, so the two agree only if the grouped step is the binomial
identity of the betti module docstring.  old_product is the evaluation
of prod l^{c_l} that betti() replaced: every power built, one floor
division.  repeated_non_fermat_systems and join_fermat make the inputs
with repeated weights that the comparisons run on.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm

from linkatlas import WeightSystem, is_quasi_smooth


def old_product(divisor, times=1):
    """times * prod of l^{c_l} over the divisor's entries, by the
    powers themselves and one floor division."""
    num, den = times, 1
    for ell, k in divisor.items():
        if k > 0:
            num *= ell**k
        else:
            den *= ell**-k
    return num // den


def subset_betti(ws):
    """(middle_betti, divisor, |Delta(1)|, |Delta(-1)|, quotients) of
    the weight system: c_l sums (-1)^{N-|S|} prod_{i in S} u_i / v_i / l
    over the subsets S of the N quotients u_i / v_i with lcm u_i = l."""
    quotients = tuple(Fraction(ws.degree, w) for w in ws.weights)
    n = len(quotients)
    sums = {}
    for size in range(n + 1):
        for subset in itertools.combinations(quotients, size):
            ell = lcm(*(q.numerator for q in subset))
            term = Fraction((-1) ** (n - size))
            for q in subset:
                term *= q
            sums[ell] = sums.get(ell, 0) + term / ell
    assert all(c.denominator == 1 for c in sums.values()), sums
    divisor = {ell: int(c) for ell, c in sums.items() if c}
    betti = sum(divisor.values())
    at_one = Fraction(1)
    at_minus_one = Fraction(1)
    for ell, c in divisor.items():
        at_one *= Fraction(ell) ** c
        at_minus_one *= Fraction(2 if ell % 2 else ell) ** c
    if betti:
        at_one = 0
    if sum(c for ell, c in divisor.items() if ell % 2 == 0):
        at_minus_one = 0
    assert Fraction(at_one).denominator == Fraction(at_minus_one).denominator == 1
    return betti, divisor, int(at_one), int(at_minus_one), quotients


def repeated_non_fermat_systems(windows):
    """Every quasi-smooth system of nvars variables and degree d, for
    each (nvars, degrees) of windows, that repeats a weight and has one
    that does not divide d."""
    for nvars, degrees in windows:
        for d in degrees:
            for weights in itertools.combinations_with_replacement(range(1, d), nvars):
                if gcd(*weights) > 1 or len(set(weights)) == nvars:
                    continue
                ws = WeightSystem(weights, d)
                if any(d % w for w in ws.weights) and is_quasi_smooth(ws):
                    yield ws


def join_fermat(ws, extra):
    """ws joined with z^a for each a in extra (Sebastiani-Thom): the
    degree becomes lcm(d, extra), and the join of two isolated
    singularities is one, so the result is quasi-smooth with ws."""
    top = lcm(ws.degree, *extra)
    scale = top // ws.degree
    return WeightSystem(tuple(w * scale for w in ws.weights) + tuple(top // a for a in extra), top)
