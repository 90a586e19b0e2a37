"""Middle Betti number of a link from its weight system.

For a link of dimension 2n - 1 the rank of H_{n-1} is an alternating
sum over all subsets of the reduced degree/weight quotients
d / w_i = u_i / v_i (lowest terms):

    b = sum over S of (-1)^{n+1-|S|} * (prod u_i) / (prod v_i * lcm u_i)

where the empty subset contributes (-1)^{n+1} (empty product 1, empty
lcm 1).  The sum is evaluated exactly, in integers over the common
denominator lcm(u) * prod(v), and must come out a nonnegative integer;
anything else is an error, never a rounding.

The same table is the characteristic divisor of the monodromy
(Milnor-Orlik 1970): grouping the subsets by l = lcm u_i gives the
integer exponents c_l = terms[l] / (l * prod v) of

    Delta(t) = prod over l of (t^l - 1)^{c_l},

whose multiplicity of the root 1 is sum c_l, the Betti number.  When
that sum is 0, |Delta(1)| = prod l^{c_l} is the order of the middle
homology; when the root -1 is absent (sum over even l of c_l is 0),
|Delta(-1)| = prod over odd l of 2^{c_l} * prod over even l of l^{c_l}.
BettiResult.delta_at_one and delta_at_minus_one evaluate them as exact
integer products; both are meaningful only for a quasi-smooth weight
system, as every Brieskorn-Pham one is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

from .errors import NonIntegerResult
from .links import BPExponents, WeightSystem, bp_link, is_well_formed


@dataclass(frozen=True)
class BettiResult:
    middle_betti: int
    link_dim: int
    quotients: tuple[Fraction, ...]
    # the characteristic divisor: c_l = terms[l] / (l * vprod)
    terms: dict[int, int] = field(compare=False, repr=False)
    vprod: int = field(compare=False, repr=False)

    def delta_at_one(self) -> int:
        """|Delta(1)|, the order of the middle homology: 0 when it is
        infinite (see the module docstring)."""
        if self.middle_betti:
            return 0
        num = den = 1
        vprod = self.vprod
        for ell, t in self.terms.items():
            k = t // (ell * vprod)
            if k > 0:
                num *= ell**k
            elif k < 0:
                den *= ell**-k
        return num // den

    def delta_at_minus_one(self) -> int:
        """|Delta(-1)|: 0 when -1 is a root (see the module docstring)."""
        num = den = 1
        odd = even = 0  # the sums of c_l over the odd and the even l
        vprod = self.vprod
        for ell, t in self.terms.items():
            k = t // (ell * vprod)
            if ell % 2:
                odd += k
            else:
                even += k
                if k > 0:
                    num *= ell**k
                elif k < 0:
                    den *= ell**-k
        if even:
            return 0
        # each odd l gives 2^{c_l}
        return (num << max(odd, 0)) // (den << max(-odd, 0))


@dataclass(frozen=True)
class TorsionForm:
    """Closed-form description of the torsion of the middle homology.

    kind is one of "torsion_free", "cyclic_pair" (Z_k + Z_k, with k
    set), or "unknown"."""

    kind: str
    k: int | None = None

    def __str__(self) -> str:
        if self.kind == "cyclic_pair":
            return "Z_%d+Z_%d" % (self.k, self.k)
        return self.kind


TORSION_FREE = TorsionForm("torsion_free")
TORSION_UNKNOWN = TorsionForm("unknown")


def betti(ws: WeightSystem) -> BettiResult:
    """Exact middle Betti number of the link of the weight system."""
    quotients = tuple(Fraction(ws.degree, w) for w in ws.weights)
    u = [q.numerator for q in quotients]
    v = [q.denominator for q in quotients]

    # terms[l] sums (-1)^{n+1-|S|} prod_{i in S} u_i prod_{i not in S} v_i
    # over the subsets S with lcm_{i in S} u_i = l; leaving i out of S
    # flips the sign
    terms = {1: 1}
    for ui, vi in zip(u, v):
        grown: dict[int, int] = {}
        for ell, t in terms.items():
            with_i = lcm(ell, ui)
            grown[with_i] = grown.get(with_i, 0) + t * ui
            grown[ell] = grown.get(ell, 0) - t * vi
        terms = grown
    top = lcm(*u)
    numerator = sum(t * (top // ell) for ell, t in terms.items())
    vprod = prod(v)
    denominator = top * vprod
    total, rest = divmod(numerator, denominator)
    if rest or total < 0:
        raise NonIntegerResult(
            "betti sum reduced to %s" % Fraction(numerator, denominator)
        )
    return BettiResult(total, ws.link_dim, quotients, terms, vprod)


def betti_cost(nvars: int) -> int:
    """Budget estimate of betti: its terms table holds at most one entry
    per subset of the nvars quotients, and each entry is an integer
    that grows with nvars, so nvars * 2^nvars."""
    return nvars << nvars


def is_rational_homology_sphere(ws: WeightSystem) -> bool:
    return betti(ws).middle_betti == 0


def torsion_closed_form(a: Sequence[int] | BPExponents) -> TorsionForm:
    """Torsion of H_2 for the closed-form families that have one.

    Exponents (3,3,3,k) with gcd(k,3) = 1 give Z_k + Z_k.  Otherwise a
    well-formed four-variable weight system is torsion free.  Everything
    else is reported unknown rather than guessed.
    """
    exps = (a if isinstance(a, BPExponents) else BPExponents(tuple(a))).exponents
    if len(exps) == 4:
        threes = [x for x in exps if x == 3]
        rest = [x for x in exps if x != 3]
        if len(threes) == 3 and gcd(rest[0], 3) == 1:
            return TorsionForm("cyclic_pair", rest[0])
        if is_well_formed(bp_link(exps)):
            return TORSION_FREE
    return TORSION_UNKNOWN


__all__ = [
    "BettiResult",
    "TorsionForm",
    "TORSION_FREE",
    "TORSION_UNKNOWN",
    "betti",
    "is_rational_homology_sphere",
    "torsion_closed_form",
]
