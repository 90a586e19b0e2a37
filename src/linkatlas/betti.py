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

betti() builds terms one distinct weight at a time.  Equal weights
have equal quotients u/v, and a run of m of them is one step: by the
binomial theorem the subsets T of the run sum to

    sum over T of u^{|T|} (-v)^{m-|T|} = (u - v)^m,

of which T empty gives (-v)^m and leaves l alone, and every other T
moves l to lcm(l, u) with weight (u - v)^m - (-v)^m.  So the table
holds at most 2^(distinct quotients) entries, and every step is
integer arithmetic on u = d / gcd(d, w) and v = w / gcd(d, w).

betti() divides each term exactly and keeps the nonzero c_l as
BettiResult.divisor; a term that leaves a remainder, or a negative sum,
breaks an identity of the program (InconsistentInvariants), never a
rounding.  When that sum is 0, |Delta(1)| = prod l^{c_l} is the order
of the middle homology; when the root -1 is absent (sum over even l of
c_l is 0), |Delta(-1)| = prod over odd l of 2^{c_l} * prod over even l
of l^{c_l}.  Neither product builds an l^{c_l}, whose c_l grows like
(u - 1)^m / l: both run over a coprime base (gcd refinement) of numbers
that every l is an lcm of: the distinct u for |Delta(1)|, the even l
and 2 for |Delta(-1)|.  The exponent of a base element b sums c_l times
the power of b in l, each base element is raised once, and a negative
exponent is InconsistentInvariants.  betti() evaluates |Delta(1)| once,
since the torsion and the sphere rule both read it.

All of this describes a link only when the weight system is
quasi-smooth, as every Brieskorn-Pham one is, so betti() first refuses
any other (NotQuasiSmooth): every BettiResult is that of a link.
torsion_closed_form reads |Delta(1)| too: a homotopy sphere has no
middle homology at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from math import gcd, lcm

from .errors import InconsistentInvariants, NotQuasiSmooth
from .links import WeightSystem, bp_link, canonical_key, is_quasi_smooth, is_well_formed


@dataclass(frozen=True)
class BettiResult:
    ws: WeightSystem
    middle_betti: int
    # the characteristic divisor: {l: c_l} for each nonzero c_l
    divisor: dict[int, int] = field(compare=False, repr=False)
    # |Delta(1)|, read through delta_at_one()
    _order: int = field(compare=False, repr=False)

    @property
    def link_dim(self) -> int:
        return self.ws.link_dim

    @property
    def quotients(self) -> tuple[Fraction, ...]:
        """The reduced quotients d / w_i, in weight order."""
        return tuple(Fraction(self.ws.degree, w) for w in self.ws.weights)

    def delta_at_one(self) -> int:
        """|Delta(1)|, the order of the middle homology: 0 when it is
        infinite (see the module docstring)."""
        return self._order

    def delta_at_minus_one(self) -> int:
        """|Delta(-1)|: 0 when -1 is a root (see the module docstring)."""
        even = {ell: k for ell, k in self.divisor.items() if ell % 2 == 0}
        if sum(even.values()):
            return 0
        # each odd l gives 2^{c_l}, and those c_l sum to the Betti number
        factors = [*even.items(), (2, self.middle_betti)]
        return _product(factors, [*even, 2])


def _coprime_base(numbers: list[int]) -> list[int]:
    """Pairwise coprime integers > 1 of which every number is a product
    of powers (gcd refinement): a number that a base element b divides
    goes on as its cofactor, and two that share another factor g are
    split into g and their cofactors."""
    pending = [x for x in set(numbers) if x > 1]
    base: list[int] = []
    while pending:
        y = pending.pop()
        for i, b in enumerate(base):
            g = gcd(b, y)
            if g > 1:
                if g == b:
                    rest: tuple[int, ...] = (y // b,)
                else:
                    del base[i]
                    rest = (g, b // g, y // g)
                pending += [z for z in rest if z > 1]
                break
        else:
            base.append(y)
    return base


def _product(factors: list[tuple[int, int]], atoms: list[int]) -> int:
    """prod of l^{c_l} over the (l, c_l) pairs, where every l is the lcm
    of some of the atoms, so a product of powers of their coprime base
    (the module docstring says the product is an integer).  The exponent
    of a base element b is the sum of c_l times the power of b in l; b
    is raised once, and a negative exponent is InconsistentInvariants."""
    total = 1
    for b in _coprime_base(atoms):
        e = 0
        for ell, k in factors:
            while ell % b == 0:
                ell //= b
                e += k
        if e < 0:
            raise InconsistentInvariants(
                "prod l^c_l of %s is not an integer" % dict(factors)
            )
        total *= b**e
    return total


TORSION_FREE = "torsion_free"
TORSION_UNKNOWN = "unknown"


def betti(ws: WeightSystem) -> BettiResult:
    """Exact middle Betti number of the link of the weight system;
    NotQuasiSmooth when it has no link."""
    if not is_quasi_smooth(ws):
        raise NotQuasiSmooth(
            "%s is not quasi-smooth, so it has no link" % canonical_key(ws)
        )
    d = ws.degree
    # terms[l] sums (-1)^{n+1-|S|} prod_{i in S} u_i prod_{i not in S} v_i
    # over the subsets S with lcm_{i in S} u_i = l; leaving i out of S
    # flips the sign, and a run of equal weights is one step (see the
    # module docstring)
    terms = {1: 1}
    vprod = 1
    us = []
    for w, run in groupby(ws.weights):
        m = len(list(run))
        g = gcd(d, w)
        u, v = d // g, w // g
        us.append(u)
        vprod *= v**m
        left_out = (-v) ** m
        taken = (u - v) ** m - left_out
        grown = {ell: t * left_out for ell, t in terms.items()}
        for ell, t in terms.items():
            with_u = lcm(ell, u)
            grown[with_u] = grown.get(with_u, 0) + t * taken
        terms = grown
    divisor = {}
    for ell, t in terms.items():
        c, rest = divmod(t, ell * vprod)
        if rest:
            raise InconsistentInvariants(
                "divisor c_%d = %s is not an integer" % (ell, Fraction(t, ell * vprod))
            )
        if c:
            divisor[ell] = c
    total = sum(divisor.values())
    if total < 0:
        raise InconsistentInvariants("betti sum reduced to %d, which is negative" % total)
    # every l is an lcm of the u's
    order = 0 if total else _product(list(divisor.items()), us)
    return BettiResult(ws, total, divisor, order)


def betti_cost(nvars: int) -> int:
    """Budget estimate of betti: its terms table holds at most one entry
    per subset of the distinct quotients, at most 2^nvars, and each entry
    is an integer that grows with nvars, so nvars * 2^nvars.  It stays
    the charge for weight systems with repeated weights too, as an upper
    bound: every budget refusal is a function of nvars alone."""
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
