"""Signatures, the Casson invariant, and exotic 7-spheres.

For links in dimensions 3 and 7 the signature of the Milnor fiber is a
lattice point count.  Two independent routes compute it; dividing by 8
gives the Casson invariant of a Brieskorn homology 3-sphere, and mod 28
it separates the oriented diffeomorphism types of homotopy 7-spheres.
"""

from linkatlas import (
    BPExponents,
    NotASphere,
    bp8_class,
    bp_link,
    brieskorn_signature,
    brieskorn_signature_direct,
    casson_invariant,
    build_record,
    kervaire_classify,
    seven_sphere_sweep,
)


def main():
    # sigma(Sigma(6k-1,3,2)) = -8k, the E_8 chain.
    for k in range(1, 6):
        exps = (6 * k - 1, 3, 2)
        res = brieskorn_signature(exps)
        print("sigma%s = %d (+%d, -%d)" % (exps, res.signature,
                                           res.positive, res.negative))

    # The histogram route and the direct lattice walk must agree.
    exps = (11, 7, 3)
    assert brieskorn_signature(exps) == brieskorn_signature_direct(exps)
    print()
    print("dual routes agree on", exps)

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
    except NotASphere as exc:
        print("L(2, 2, 2, 4, 5): no bP_8 class,", exc)

    # Kervaire-type links L(2,2r1,...,2r2m,a): the class depends only on
    # a mod 8, the sign class on sum 1/ri against (a-2)/a.
    print()
    for r, a in (((3, 5), 7), ((3, 5), 11), ((3, 5), 4)):
        verdict, sign = kervaire_classify(r, a)
        print("r=%s a=%d -> %s, %s" % (r, a, verdict.kind, sign.value))
    # The record of the same link reads the class off Delta(-1) mod 8.
    rec = build_record(BPExponents((2, 6, 10, 11)))
    print("%s -> %s" % (rec.key, rec.sphere.kind))

    # Sweep L(k,k,k,k+1,p) for all 28 residues.  The small box below finds
    # some of them; the full k=2:8, p=2:600 box, also within the default
    # budget, finds every residue class.
    print()
    sweep = seven_sphere_sweep({"k": (2, 8), "p": (2, 40)})
    print("sweep k<=8, p<=40: %d of 28 residues, %d members examined"
          % (sweep.distinct, sweep.examined))
    for residue in sorted(sweep.witnesses)[:5]:
        print("  residue %d from L%s" % (residue, sweep.witnesses[residue]))


if __name__ == "__main__":
    main()
