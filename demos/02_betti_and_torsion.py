"""Middle Betti numbers of links via the weighted divisor sum.

The rank of the middle homology of a link is an alternating sum of
rational products indexed by subsets of the variables.  Everything here
is exact: the sum is assembled in integer arithmetic, one step per
distinct weight, and each of its terms is only accepted if it divides
exactly.
"""

from linkatlas import bp_link
from linkatlas.betti import betti, torsion_closed_form
from linkatlas.links import WeightSystem, is_quasi_smooth


def main():
    # Two quasi-smooth K3 links with the same second Betti number.
    for exps in ((4, 4, 4, 4), (6, 6, 6, 2)):
        res = betti(bp_link(exps))
        print("L%s: b_%d = %d" % (exps, res.link_dim // 2, res.middle_betti))

    # Perturbing the exponents moves the rank.
    for exps in ((2, 3, 12, 12), (2, 3, 11, 66)):
        print("L%s: b_2 = %d" % (exps, betti(bp_link(exps)).middle_betti))

    # Weight systems that are not Brieskorn-Pham work the same way.
    for weights in ((13, 43, 101, 158), (11, 61, 85, 158)):
        ws = WeightSystem(weights, 316)
        print("w=%s@316: b_2 = %d" % (weights, betti(ws).middle_betti))

    # Only a quasi-smooth weight system has a link: no polynomial of
    # degree 11 in weights (1,1,1,4) has an isolated singularity, so
    # betti() refuses it with NotQuasiSmooth.
    ws = WeightSystem((1, 1, 1, 4), 11)
    print("w=(1, 1, 1, 4)@11 quasi-smooth: %s" % is_quasi_smooth(ws))

    # A closed form for one family, checked against the subset sum.
    print()
    print("L(k,k,k+1,k+1) has b_2 = k(k-1):")
    for k in range(4, 9):
        got = betti(bp_link((k, k, k + 1, k + 1))).middle_betti
        assert got == k * (k - 1)
        print("  k=%d -> %d" % (k, got))

    # Rational homology spheres are the links with vanishing middle rank.
    print()
    for exps in ((2, 3, 5), (2, 3, 7, 43), (2, 3, 7, 42)):
        b = betti(bp_link(exps)).middle_betti
        print("L%s rational homology sphere: %s" % (exps, b == 0))

    # Torsion in closed form where one is known, read off the same Betti
    # table of the weight system: a homotopy sphere (|Delta(1)| = 1, here
    # Brieskorn's generator of bP_8) has no middle homology, L(3,3,3,k)
    # carries Z_k + Z_k when k is coprime to 3, well-formed links are
    # torsion free, and anything else is reported unknown rather than
    # guessed.
    print()
    for exps in ((2, 2, 2, 3, 5), (3, 3, 3, 4), (3, 3, 3, 5), (3, 3, 3, 6), (4, 4, 4, 4)):
        ws = bp_link(exps)
        print("L%s torsion: %s" % (exps, torsion_closed_form(ws, betti(ws))))


if __name__ == "__main__":
    main()
