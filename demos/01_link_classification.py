"""Tour of weight systems and link classification.

Each weighted homogeneous polynomial with an isolated singularity at the
origin cuts out a link: the intersection of the hypersurface with a small
sphere.  The combinatorics of the weights already decides a lot about the
geometry of that link, before any curvature enters the picture.
"""

from linkatlas import bp_link, classify_sign
from linkatlas.links import (
    SignClass,
    WeightSystem,
    ade_match,
    canonical_key,
    count_monomials,
    pi1_class,
    solve_weights,
)


def main():
    # A Brieskorn-Pham link z0^a0 + ... + zn^an = 0 has weights d/ai
    # for d the lcm of the exponents.
    poincare = bp_link((2, 3, 5))
    print("L(2,3,5):", canonical_key(poincare))
    print("  d - |w|:", poincare.degree - poincare.total_weight)

    # The sign of d - |w| splits links into three regimes.  For three
    # variables it is the same trichotomy as spherical / nil / hyperbolic
    # base orbifold.
    for exps in ((5, 3, 2), (6, 3, 2), (7, 3, 2)):
        link = bp_link(exps)
        print("L%s -> %s, pi1 %s" % (exps, classify_sign(link).value,
                                     pi1_class(link).value))

    # Positive 3-dimensional links are exactly the ADE hypersurfaces.
    print()
    print("ADE matches:")
    for exps in ((2, 3, 5), (2, 3, 4), (2, 3, 3), (2, 2, 7)):
        link = bp_link(exps)
        print("  L%s -> %s" % (exps, ade_match(link)))

    # Weighted homogeneous but not Brieskorn-Pham: recover the weights
    # from the exponent rows of the defining monomials.
    rows = [
        [20, 0, 0, 0],
        [0, 3, 0, 1],
        [0, 1, 3, 0],
        [1, 0, 0, 2],
    ]
    ws = solve_weights(rows)
    print()
    print("solved from monomial rows:", canonical_key(ws))
    print("  sign:", classify_sign(ws).value)

    # Null weight systems in three variables admit only a handful of
    # normalized monomial counts.
    print()
    print("null cones and their monomial counts:")
    for weights, degree in (((1, 2, 3), 6), ((1, 1, 2), 4), ((1, 1, 1), 3)):
        ws = WeightSystem(weights, degree)
        assert classify_sign(ws) is SignClass.NULL
        print("  w=%s d=%d -> %d monomials" % (weights, degree,
                                               count_monomials(ws)))


if __name__ == "__main__":
    main()
