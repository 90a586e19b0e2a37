"""Signatures, the Casson invariant, and exotic 7-spheres.

For links in dimensions 3 and 7 the signature of the Milnor fiber is a
lattice point count, which every record checks against the Betti sum;
dividing it by 8 gives the Casson invariant of a Brieskorn homology
3-sphere, and mod 28 it separates the oriented diffeomorphism types of
homotopy 7-spheres.
"""

from math import prod

from linkatlas import casson_invariant
from linkatlas.catalog import build_record
from linkatlas.errors import InvalidInput
from linkatlas.links import BPExponents, parse_link
from linkatlas.search import seven_sphere_sweep
from linkatlas.spheres import bp8_class, brieskorn_signature


def main():
    # sigma(Sigma(6k-1,3,2)) = -8k, the E_8 chain.
    for k in range(1, 6):
        exps = (6 * k - 1, 3, 2)
        res = brieskorn_signature(exps)
        print("sigma%s = %d (+%d, -%d)" % (exps, res.signature,
                                           res.positive, res.negative))

    # The lattice points with integer t are the eigenvalue-1 part of the
    # monodromy, so they number the middle Betti number: a record of the
    # link is built only when the count and the Betti sum agree.
    exps = (12, 8, 3)
    res = brieskorn_signature(exps)
    rec = build_record(BPExponents(exps))
    points = prod(x - 1 for x in exps)
    assert res.positive + res.negative + rec.middle_betti == points
    print()
    print("%s: %d + %d lattice points off the integers, b = %d, of %d"
          % (rec.key, res.positive, res.negative, rec.middle_betti, points))

    # Casson invariant of the Poincare sphere chain.
    for exps in ((5, 3, 2), (7, 3, 2), (11, 3, 2)):
        print("casson%s = %d" % (exps, casson_invariant(exps)))

    # In dimension 7 the signature/8 mod 28 residue labels the sphere.
    print()
    for exps in ((2, 2, 2, 3, 5), (2, 2, 2, 3, 7), (2, 2, 2, 3, 11)):
        verdict = bp8_class(exps)
        print("L%s: %s, residue %s" % (exps, verdict.kind, verdict.bp8_residue))
    # Betti number 0 is not enough: H_3 of L(2,2,2,4,5) has order 5.
    try:
        bp8_class((2, 2, 2, 4, 5))
    except InvalidInput as exc:
        print("L(2, 2, 2, 4, 5): no bP_8 class,", exc)

    # Kervaire-type links L(2,2r1,...,2r2m,a), written kervaire:r1,...@a:
    # the record reads the class off Delta(-1) mod 8.  For odd a coprime
    # to every ri it depends only on a mod 8 (standard for +-1, Kervaire
    # for +-3); the sign class compares sum 1/ri with (a-2)/a.
    print()
    for link in ("kervaire:3,5@7", "kervaire:3,5@11", "kervaire:3,5@4"):
        rec = build_record(parse_link(link))
        print("%s is %s -> %s, %s" % (link, rec.key, rec.sphere.kind, rec.sign))
    # It also decides where the mod 8 rule does not hold: in
    # kervaire:1,3@3, a = 3 shares a factor with r2 = 3, so the link
    # L(2,2,6,3) has middle Betti number 2 and is no sphere.
    rec = build_record(parse_link("kervaire:1,3@3"))
    print("kervaire:1,3@3 is %s -> %s, b = %d"
          % (rec.key, rec.sphere.kind, rec.middle_betti))

    # Sweep L(k,k,k,k+1,p) for all 28 residues.  The small box below finds
    # some of them; the full k=2:8, p=2:600 box, also within the default
    # budget, finds every residue class.
    print()
    sweep = seven_sphere_sweep({"k": (2, 8), "p": (2, 40)})
    print("sweep k<=8, p<=40: %d of 28 residues, %d members examined"
          % (len(sweep.witnesses), sweep.examined))
    for residue in sorted(sweep.witnesses)[:5]:
        print("  residue %d from L%s" % (residue, sweep.witnesses[residue]))
    # The sweep takes the search's record filters: negative links
    # L(4,4,4,5,p), p <= 193, carry negative eta-Einstein structures and
    # reach every class.
    sweep = seven_sphere_sweep({"k": (4, 4), "p": (2, 193)}, sign="negative")
    print("negative sweep k=4, p<=193: %d of 28 residues, %d members examined"
          % (len(sweep.witnesses), sweep.examined))


if __name__ == "__main__":
    main()
