"""Signatures, Casson invariants and exotic sphere classes of BP links.

The signature of the Milnor fiber of z_0^{a_0} + ... + z_n^{a_n} counts
interior lattice points (0 < i_j < a_j) by the fractional part of
t = sum i_j / a_j:

    sigma+ = #{ t mod 2 in (0, 1) },   sigma- = #{ t mod 2 in (1, 2) },

integer values of t counted in neither (open interval convention).

brieskorn_signature factors the count.  With the exponents sorted and
a the largest, the points of the other exponents (the prefix) are
binned by R = sum i_j D' / a_j mod 2D', D' = lcm(prefix); that
histogram is cached per prefix.  The last factor adds i L / a for
i in [1, a - 1] (L = lcm(D', a)) to R L / D', and is counted by floor
arithmetic, looping over whichever is shorter: the prefix residues or
the values of i (bisecting the cumulative counts).  Everything is exact
integer arithmetic.  brieskorn_signature_direct is the nested-loop
oracle the tests compare against.

sphere_verdict is the one sphere rule, read off the characteristic
divisor that betti() builds (see linkatlas.betti).  A BP link of n >= 3
exponents with Betti number 0 is a homotopy sphere exactly when
|Delta(1)| = 1.  Then three exponents give an integral homology
3-sphere; an even count, a (2n-3)-sphere whose class Levine's rule
reads off |Delta(-1)| mod 8 (+-1 standard, +-3 Kervaire); five, a
7-sphere with its bP_8 residue.  The label kervaire_sphere names the
Kervaire manifold, which is the standard sphere in dimensions 5, 13, 29
and 61.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence

from .betti import TORSION_FREE, TORSION_UNKNOWN, BettiResult, TorsionForm, betti
from .betti import is_rational_homology_sphere  # noqa: F401  (a name perfbench traces)
from .errors import (
    DimensionUnsupported,
    InvalidInput,
    NonDivisible,
    NotASphere,
    NotPairwiseCoprime,
)
from .links import (
    BPExponents,
    SignClass,
    WeightSystem,
    _as_exponents,
    bp_link,
    classify_sign,
)


SIGNATURE_NVARS = (3, 5)  # exponent counts whose links have a symmetric middle form
BP8_ORDER = 28  # order of bP_8, the exotic 7-spheres bounding parallelizable manifolds


@dataclass(frozen=True)
class SignatureResult:
    positive: int
    negative: int

    @property
    def signature(self) -> int:
        return self.positive - self.negative


SPHERE_KINDS = (
    "standard_sphere",
    "kervaire_sphere",
    "homology_sphere",
    "rational_homology_sphere",
    "not_a_sphere",
    "undetermined",
)


@dataclass(frozen=True)
class SphereVerdict:
    """kind is one of SPHERE_KINDS."""

    kind: str
    bp8_residue: int | None = None


@lru_cache(maxsize=1024)
def _prefix_histogram(
    prefix: tuple[int, ...]
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(D, residues, cumulative) of the lattice points of prefix: the
    distinct values of sum i_j D / a_j mod 2D (D = lcm(prefix)) in
    increasing order, and cumulative[k] the number of points whose
    residue is among the first k."""
    if not prefix:
        return 1, (0,), (0, 1)
    d0, residues0, cumulative0 = _prefix_histogram(prefix[:-1])
    a = prefix[-1]
    d = lcm(d0, a)
    scale, step, big = d // d0, d // a, 2 * d
    hist: dict[int, int] = {}
    for r, lo, hi in zip(residues0, cumulative0, cumulative0[1:]):
        count, base = hi - lo, r * scale
        for x in range(base + step, base + a * step, step):
            x %= big
            hist[x] = hist.get(x, 0) + count
    residues = tuple(sorted(hist))
    cumulative = itertools.accumulate((hist[r] for r in residues), initial=0)
    return d, residues, tuple(cumulative)


def _by_residue(
    residues: Sequence[int], cumulative: Sequence[int], d: int, a: int
) -> tuple[int, int]:
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


def _by_step(
    residues: Sequence[int], cumulative: Sequence[int], d: int, a: int
) -> tuple[int, int]:
    """The same count as _by_residue, one pass over i in [1, a - 1]:
    the prefix points with x = R g below, on or above L - i s and
    2L - i s (g = L / d, s = L / a) are counted by bisecting the sorted
    residues."""
    ell = lcm(d, a)
    g, s = ell // d, ell // a
    total = cumulative[-1]
    pos = neg = 0
    # points with R g <= bound are those with R <= bound // g
    for v in range(s, a * s, s):
        lt_one = cumulative[bisect_right(residues, (ell - v - 1) // g)]
        le_one = cumulative[bisect_right(residues, (ell - v) // g)]
        lt_two = cumulative[bisect_right(residues, (2 * ell - v - 1) // g)]
        le_two = cumulative[bisect_right(residues, (2 * ell - v) // g)]
        pos += lt_one + total - le_two
        neg += lt_two - le_one
    return pos, neg


def _signature_exponents(a: Sequence[int] | BPExponents) -> tuple[int, ...]:
    exps = _as_exponents(a).exponents
    if len(exps) not in SIGNATURE_NVARS:
        raise DimensionUnsupported(
            "signature defined for %d or %d exponents" % SIGNATURE_NVARS
        )
    return exps


def brieskorn_signature(a: Sequence[int] | BPExponents) -> SignatureResult:
    """Signature pair of the Milnor fiber lattice count.

    Supported for the exponent counts in SIGNATURE_NVARS.
    """
    *prefix, last = sorted(_signature_exponents(a))
    d, residues, cumulative = _prefix_histogram(tuple(prefix))
    # a residue costs two floor divisions, a step four bisections
    count = _by_residue if len(residues) <= 3 * (last - 1) else _by_step
    return SignatureResult(*count(residues, cumulative, d, last))


def signature_cost(exps: Sequence[int]) -> int:
    """Upper bound on the steps brieskorn_signature takes, from the
    exponents alone: each prefix factor a_j spreads at most
    min(2 lcm, points) cells over a_j - 1 steps, and the last-factor
    loop runs over at most min(cells, 3 (a - 1)) items."""
    *prefix, last = sorted(exps)
    cost, cells, d = 0, 1, 1
    for x in prefix:
        cost += cells * (x - 1)
        d = lcm(d, x)
        cells = min(2 * d, cells * (x - 1))
    return cost + min(cells, 3 * (last - 1))


def brieskorn_signature_direct(a: Sequence[int] | BPExponents) -> SignatureResult:
    """Nested-loop oracle for the same count; cost Prod(a_i - 1)."""
    exps = _signature_exponents(a)
    d = lcm(*exps)
    steps = [d // x for x in exps]
    pos = neg = 0
    for tup in itertools.product(*(range(1, x) for x in exps)):
        r = sum(i * s for i, s in zip(tup, steps)) % (2 * d)
        if 0 < r < d:
            pos += 1
        elif r > d:
            neg += 1
    return SignatureResult(pos, neg)


def casson_invariant(a: Sequence[int] | BPExponents) -> int:
    """Casson invariant of a Brieskorn homology 3-sphere: signature / 8."""
    exps = _as_exponents(a)
    if exps.nvars != 3:
        raise DimensionUnsupported("Casson invariant needs 3 exponents")
    if not exps.pairwise_coprime():
        raise NotPairwiseCoprime("exponents %s" % (exps.exponents,))
    sig = brieskorn_signature(exps).signature
    if sig % 8:
        raise NonDivisible("signature %d not divisible by 8" % sig)
    return sig // 8


def is_homology_3_sphere(a: Sequence[int] | BPExponents) -> bool:
    """A 3-dimensional BP link is an integral homology sphere exactly
    when the exponents are pairwise coprime."""
    exps = _as_exponents(a)
    if exps.nvars != 3:
        raise DimensionUnsupported("needs 3 exponents")
    return exps.pairwise_coprime()


def bp8_residue(signature: int) -> int | None:
    """Class of a 7-dimensional rational homology sphere link in bP_8:
    (signature / 8) mod BP8_ORDER, None when 8 does not divide the
    signature."""
    return (signature // 8) % BP8_ORDER if signature % 8 == 0 else None


def sphere_verdict(
    source: BPExponents | WeightSystem,
    b: BettiResult,
    signature: int | None = None,
    torsion: TorsionForm = TORSION_UNKNOWN,
) -> SphereVerdict:
    """Sphere verdict of the link of source, whose betti() result is b,
    by the rule of the module docstring; signature gives a 5-exponent
    source its bP_8 residue.  A weight system (Delta of one that is not
    quasi-smooth describes no link) and a 1-dimensional link keep the
    torsion rule: Betti number 0 and TORSION_FREE make it standard."""
    if b.middle_betti:
        return SphereVerdict("not_a_sphere")
    if not isinstance(source, BPExponents) or source.nvars < 3:
        # a simply connected 5-manifold with H_2 = 0 is the standard sphere
        if torsion == TORSION_FREE:
            return SphereVerdict("standard_sphere")
        return SphereVerdict("rational_homology_sphere")
    n = source.nvars
    if b.delta_at_one() != 1:
        return SphereVerdict("rational_homology_sphere")
    if n == 3:
        return SphereVerdict("homology_sphere")
    if n % 2 == 0:
        standard = b.delta_at_minus_one() % 8 in (1, 7)
        return SphereVerdict("standard_sphere" if standard else "kervaire_sphere")
    if n == 5 and signature is not None:
        return SphereVerdict("rational_homology_sphere", bp8_residue(signature))
    return SphereVerdict("rational_homology_sphere")


def bp8_class(a: Sequence[int] | BPExponents) -> SphereVerdict:
    """bp8_residue of a 5-exponent homotopy sphere link; NotASphere names
    the order of H_3 of any other."""
    exps = _as_exponents(a)
    if exps.nvars != 5:
        raise DimensionUnsupported("bp8 class needs 5 exponents")
    b = betti(bp_link(exps))
    if b.middle_betti:
        raise NotASphere("middle Betti number is nonzero")
    sig = brieskorn_signature(exps).signature
    verdict = sphere_verdict(exps, b, sig)
    if verdict.bp8_residue is None:
        order = b.delta_at_one()
        if order != 1:
            raise NotASphere("H_3 has order %d, not 1" % order)
        raise NonDivisible("signature %d not divisible by 8" % sig)
    return verdict


def kervaire_classify(
    r: Sequence[int], a: int
) -> tuple[SphereVerdict, SignClass]:
    """Classify the link of z_0^2 + z_1^{2 r_1} + ... + z_{2m}^{2 r_2m}
    + z_{2m+1}^a for pairwise coprime r_i.

    For odd a the link is the standard sphere when a = +-1 mod 8 and
    the Kervaire sphere when a = +-3 mod 8; even a is undetermined
    here.  The sign class of the accompanying structure is returned
    alongside (negative exactly when sum 1/r_i < (a-2)/a).
    """
    rs = tuple(r)
    if len(rs) < 2 or len(rs) % 2:
        raise DimensionUnsupported("need an even count 2m >= 2 of r_i")
    if any(x < 1 for x in rs) or a < 2:
        raise InvalidInput("r_i must be >= 1 and a >= 2")
    # BPExponents refuses a non-integer r_i or a
    exps = BPExponents((2,) + tuple(2 * x for x in rs) + (a,))
    if any(gcd(x, y) != 1 for x, y in itertools.combinations(rs, 2)):
        raise NotPairwiseCoprime("r must be pairwise coprime")
    sign = classify_sign(bp_link(exps))
    if a % 2 == 0:
        return SphereVerdict("undetermined"), sign
    if a % 8 in (1, 7):
        return SphereVerdict("standard_sphere"), sign
    return SphereVerdict("kervaire_sphere"), sign


__all__ = [
    "SignatureResult",
    "SPHERE_KINDS",
    "SphereVerdict",
    "brieskorn_signature",
    "brieskorn_signature_direct",
    "signature_cost",
    "casson_invariant",
    "is_homology_3_sphere",
    "bp8_residue",
    "sphere_verdict",
    "bp8_class",
    "kervaire_classify",
]
