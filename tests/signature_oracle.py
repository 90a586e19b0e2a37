"""The slow last-factor oracle: one pass over the prefix residues per
member.

brieskorn_signature reads the last factor from sums cached once per
residue class of the last exponent; this loop counts it again for every
exponent from the prefix histogram alone, so the two agree only if the
class sums are the identity of the spheres module docstring.
"""

from math import lcm


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
