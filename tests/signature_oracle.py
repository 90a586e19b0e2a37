"""The slow signature oracles: a nested loop over every lattice point,
and one pass over the prefix residues per member for the last factor.

brieskorn_signature factors the count and reads the last factor from
sums cached once per residue class of the last exponent.
brieskorn_signature_direct visits each of the prod(a_i - 1) lattice
points on its own, and by_residue counts the last factor again for every
exponent from the prefix histogram alone, so they agree only if the
factoring and the class sums are the identities of the spheres module
docstring.
"""

import itertools
from math import lcm

from linkatlas.spheres import SignatureResult, _signature_exponents


def brieskorn_signature_direct(a):
    """Nested-loop oracle for brieskorn_signature; cost prod(a_i - 1)."""
    exps = _signature_exponents(a)
    d = lcm(*exps)
    steps = [d // x for x in exps]
    pos = neg = 0
    for tup in itertools.product(*(range(1, x) for x in exps)):
        r = sum(i * s for i, s in zip(tup, steps)) % (2 * d)
        if 0 < r < d:
            pos += 1
        elif r > d:
            neg += 1
    return SignatureResult(pos, neg)


def by_residue(residues, cumulative, d, a):
    """(sigma+, sigma-) of prefix residues mod 2d joined with exponent a,
    one pass over the residues.  With L = lcm(d, a) and x = R L / d, the
    values x + i L / a (1 <= i <= a - 1) span less than L: below the
    next multiple of L lie (L - 1 - y) // s of them (y = x mod L,
    s = L / a), on it at most one, and the rest above it."""
    ell = lcm(d, a)
    g, s, top = ell // d, ell // a, a - 1
    # indexed by half = x // L: below the next multiple of L means t in
    # (0, 1) for half 0 and in (1, 2) for half 1; above it, the reverse
    below = [0, 0]
    above = [0, 0]
    for r, lo, hi in zip(residues, cumulative, cumulative[1:]):
        half, y = divmod(r * g, ell)
        count = hi - lo
        below[half] += count * ((ell - 1 - y) // s)
        above[half] += count * (top - min((ell - y) // s, top))
    return below[0] + above[1], below[1] + above[0]
