"""Exact Ricci tensors of left-invariant metrics, fit against the
eta-Einstein ansatz.

A frame algebra is given by its structure constants and an inner
product; the Koszul formula then yields the Ricci tensor in exact
rational arithmetic.  Fitting Ric = lam g + nu eta (x) eta recovers the
constants predicted by the homothety algebra, with a residual of
exactly zero when the ansatz holds.
"""

from fractions import Fraction

from linkatlas import (
    EtaConstants,
    MetricAlgebra,
    eta_fit,
    heisenberg_algebra,
    transverse_homothety,
)
from linkatlas.curvature import berger_sphere, ew_function_check, ricci_tensor


def main():
    # The Heisenberg group with its standard contact metric sits at the
    # null pair (-2, 2n+2) in every dimension.
    for n in (1, 2, 3):
        fit = eta_fit(heisenberg_algebra(n))
        print("heisenberg n=%d: (lam, nu) = (%s, %s), residual %s"
              % (n, fit.lam, fit.nu, fit.residual))

    # Berger spheres realize the whole homothety orbit of the round S^3.
    print()
    base = EtaConstants.of(1, 2)
    for a in (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3)):
        fit = eta_fit(berger_sphere(a))
        predicted = transverse_homothety(base, a)
        assert (fit.lam, fit.nu) == (predicted.lam, predicted.nu)
        print("berger a=%s: (%s, %s), matches homothety orbit"
              % (a, fit.lam, fit.nu))

    # A frame algebra built by hand: su(2) with a diagonal metric that
    # breaks the transverse symmetry.  The fit reports a nonzero
    # residual instead of pretending the ansatz holds.  The bracket table
    # lists each pair i < j once, with the nonzero coefficients of
    # [e_i, e_j]; here [e1,e2] = e3, [e2,e3] = 2 e1, [e3,e1] = 4 e2.
    brackets = {(0, 1): {2: 1}, (1, 2): {0: 2}, (0, 2): {1: -4}}
    metric = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    alg = MetricAlgebra(brackets, metric, reeb_index=2)
    ric = ricci_tensor(alg)
    print()
    print("lopsided su(2) Ricci diagonal:", [ric[i][i] for i in range(3)])
    fit = eta_fit(alg)
    print("fit residual:", fit.residual, "(not eta-Einstein:",
          not fit.is_eta_einstein, ")")

    # Numerical gauge: the explicit Einstein-Weyl function pair on the
    # Heisenberg group satisfies its defining ODE to machine precision.
    print()
    for n in (1, 2, 3):
        print("ew function residual n=%d: %.2e" % (n, ew_function_check(n, 50)))


if __name__ == "__main__":
    main()
