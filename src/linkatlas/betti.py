"""Middle Betti number of a link from its weight system.

For a link of dimension 2n - 1 the rank of H_{n-1} is an alternating
sum over all subsets of the reduced degree/weight quotients
d / w_i = u_i / v_i (lowest terms):

    b = sum over S of (-1)^{n+1-|S|} * (prod u_i) / (prod v_i * lcm u_i)

where the empty subset contributes (-1)^{n+1} (empty product 1, empty
lcm 1).  Grouping the subsets by l = lcm u_i gives the characteristic
divisor of the monodromy (Milnor-Orlik 1970): the integer exponents
c_l = terms[l] / (l * prod v) of

    Delta(t) = prod over l of (t^l - 1)^{c_l},

whose multiplicity of the root 1 is sum c_l, the Betti number.
betti() divides each term exactly and keeps the nonzero c_l as
BettiResult.divisor; a term that leaves a remainder, or a negative sum,
is an error (NonIntegerResult), never a rounding.  When that sum is 0,
|Delta(1)| = prod l^{c_l} is the order of the middle homology; when the
root -1 is absent (sum over even l of c_l is 0), |Delta(-1)| = prod
over odd l of 2^{c_l} * prod over even l of l^{c_l}.
BettiResult.delta_at_one and delta_at_minus_one evaluate them as exact
integer products of that one divisor.  All of this describes a link
only when the weight system is quasi-smooth, as every Brieskorn-Pham
one is, so betti() first refuses any other (NotQuasiSmooth): every
BettiResult is that of a link.  torsion_closed_form reads |Delta(1)|
too: a homotopy sphere has no middle homology at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm, prod

from .errors import NonIntegerResult, NotQuasiSmooth
from .links import WeightSystem, bp_link, canonical_key, is_quasi_smooth, is_well_formed


@dataclass(frozen=True)
class BettiResult:
    middle_betti: int
    link_dim: int
    quotients: tuple[Fraction, ...]
    # the characteristic divisor: {l: c_l} for each nonzero c_l
    divisor: dict[int, int] = field(compare=False, repr=False)

    def delta_at_one(self) -> int:
        """|Delta(1)|, the order of the middle homology: 0 when it is
        infinite (see the module docstring).  Evaluated once per result:
        the torsion and the sphere rule both read it."""
        return self._order

    @cached_property
    def _order(self) -> int:
        return 0 if self.middle_betti else _product(self.divisor)

    def delta_at_minus_one(self) -> int:
        """|Delta(-1)|: 0 when -1 is a root (see the module docstring)."""
        even = {ell: k for ell, k in self.divisor.items() if ell % 2 == 0}
        if sum(even.values()):
            return 0
        # each odd l gives 2^{c_l}, and those c_l sum to the Betti number
        return _product(even, 1 << self.middle_betti)


def _product(divisor: dict[int, int], times: int = 1) -> int:
    """times * prod of l^{c_l} over the divisor's entries, where the
    module docstring says it is an integer."""
    num, den = times, 1
    for ell, k in divisor.items():
        if k > 0:
            num *= ell**k
        else:
            den *= ell**-k
    return num // den


TORSION_FREE = "torsion_free"
TORSION_UNKNOWN = "unknown"


def betti(ws: WeightSystem) -> BettiResult:
    """Exact middle Betti number of the link of the weight system;
    NotQuasiSmooth when it has no link."""
    if not is_quasi_smooth(ws):
        raise NotQuasiSmooth(
            "%s is not quasi-smooth, so it has no link" % canonical_key(ws)
        )
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
    vprod = prod(v)
    divisor = {}
    for ell, t in terms.items():
        c, rest = divmod(t, ell * vprod)
        if rest:
            raise NonIntegerResult("divisor c_%d = %s" % (ell, Fraction(t, ell * vprod)))
        if c:
            divisor[ell] = c
    total = sum(divisor.values())
    if total < 0:
        raise NonIntegerResult("betti sum reduced to %d" % total)
    return BettiResult(total, ws.link_dim, quotients, divisor)


def betti_cost(nvars: int) -> int:
    """Budget estimate of betti: its terms table holds at most one entry
    per subset of the nvars quotients, and each entry is an integer
    that grows with nvars, so nvars * 2^nvars."""
    return nvars << nvars


def is_rational_homology_sphere(ws: WeightSystem) -> bool:
    return betti(ws).middle_betti == 0


def torsion_closed_form(ws: WeightSystem, b: BettiResult) -> str:
    """Torsion of the middle homology of the link of ws, whose betti()
    result is b, the one torsion rule: 3 or more variables with
    |Delta(1)| = 1 (a homotopy sphere) are torsion free, the link of
    exponents (3,3,3,k) with gcd(k,3) = 1 has Z_k+Z_k, and a well-formed
    four-variable system is torsion free.  Everything else is reported
    unknown, not guessed."""
    if ws.nvars >= 3 and b.delta_at_one() == 1:
        return TORSION_FREE
    if ws.nvars != 4:
        return TORSION_UNKNOWN
    k = ws.degree // 3  # the degree of (3,3,3,k) is 3k
    if k > 1 and k % 3 and ws == bp_link((3, 3, 3, k)):
        return "Z_%d+Z_%d" % (k, k)
    if is_well_formed(ws):
        return TORSION_FREE
    return TORSION_UNKNOWN


__all__ = [
    "BettiResult",
    "TORSION_FREE",
    "TORSION_UNKNOWN",
    "betti",
    "is_rational_homology_sphere",
    "torsion_closed_form",
]
