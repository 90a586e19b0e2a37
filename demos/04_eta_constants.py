"""The algebra of eta-Einstein constants under homotheties.

A (2n+1)-dimensional structure with Ric = lam g + nu eta (x) eta is
pinned down by the pair (lam, nu) with lam + nu = 2n.  Rescaling the
transverse metric by a moves the pair in a one-parameter group; the
orbit geometry decides which special metrics the family can reach.
"""

from fractions import Fraction

from linkatlas import EtaConstants, transverse_homothety
from linkatlas.eta import (
    einstein_scale,
    ew_mu_squared,
    heisenberg_alpha_squared,
    lorentzian_scale,
    null_constants,
    scalar_curvature,
    scalar_flat_scale,
    squash_class,
)


def main():
    # A positive example in dimension 3 (n = 1).
    c = EtaConstants.of(1, 6)
    print("start:", c, "sign", c.sign.value, "scalar", scalar_curvature(c))

    # The homothety with parameter a acts by lam -> (lam + 2 - 2a)/a.
    for a in (Fraction(1, 2), Fraction(2), Fraction(4)):
        moved = transverse_homothety(c, a)
        print("  a=%s -> (%s, %s)" % (a, moved.lam, moved.nu))

    # Composition is multiplication of the parameters.
    lhs = transverse_homothety(transverse_homothety(c, 3), Fraction(1, 2))
    rhs = transverse_homothety(c, Fraction(3, 2))
    assert lhs == rhs

    # Any positive pair reaches the Einstein point (2n, 0) at a unique scale.
    a = einstein_scale(c)
    print("einstein scale:", a, "->", transverse_homothety(c, a))

    # The null pair (-2, 2n+2) is a fixed point of every homothety.
    z = null_constants(2)
    assert transverse_homothety(z, Fraction(7, 3)) == z
    print("null pair in dim 5:", z, "is homothety-fixed")

    # Negative pairs reach a Lorentzian Einstein metric instead; the
    # required scale is negative and is reported as such.
    neg = EtaConstants.of(1, -8)
    print("lorentzian scale for", neg, "is", lorentzian_scale(neg))

    # Squashing direction of the scale that reaches the Einstein point.
    for lam in (6, 2, 1):
        scale = einstein_scale(EtaConstants.of(1, lam))
        print("lam=%d einstein scale %s is %s" % (lam, scale,
                                                  squash_class(scale)))

    # Scalar-flat and Einstein-Weyl targets.
    c5 = EtaConstants.of(2, 10)
    print()
    print("scalar-flat scale for", c5, "is", scalar_flat_scale(c5))
    ew = EtaConstants(1, 6, -4)
    print("ew pair", ew, "has mu^2 =", ew_mu_squared(ew))

    # The half-scale image of the Einstein pair meets the Heisenberg bound.
    for n in (1, 2, 3):
        einstein = EtaConstants.of(n, 2 * n)
        half = transverse_homothety(einstein, Fraction(1, 2))
        assert ew_mu_squared(half) == heisenberg_alpha_squared(n)
        print("n=%d: mu^2 at a=1/2 equals alpha^2 = %s"
              % (n, heisenberg_alpha_squared(n)))


if __name__ == "__main__":
    main()
