"""Signatures, Casson invariants and exotic sphere classes of BP links.

The signature of the Milnor fiber of z_0^{a_0} + ... + z_n^{a_n} counts
interior lattice points (0 < i_j < a_j) by the fractional part of
t = sum i_j / a_j:

    sigma+ = #{ t mod 2 in (0, 1) },   sigma- = #{ t mod 2 in (1, 2) },

integer values of t counted in neither (open interval convention).

brieskorn_signature factors the count.  With the exponents sorted and
a the largest, the points of the other exponents (the prefix) are
binned by R = sum i_j D / a_j mod 2D, D = lcm(prefix); that histogram
is cached per prefix.  The last factor adds i / a for i in [1, a - 1]
to R / D.  When the prefix has many residues against a, it is counted
by looping over the values of i and bisecting the cumulative counts.
Otherwise it is read per residue class of a.  Write R = h D + rho
(h = 0, 1 the half, 0 <= rho < D), a = q D + t (0 <= t < D) and
G = gcd(D, t).  Of the values of i, those that keep R / D + i / a
below h + 1 (inside the half of R) number

    floor(((D - rho) a - G) / D) = (D - rho) q + floor(((D - rho) t - G) / D),

and those that carry it past h + 1 (into the other half) number, for
rho >= 1,

    (a - 1) - floor((D - rho) a / D) = (a - 1) - (D - rho) q - floor((D - rho) t / D),

and 0 for rho = 0.  Each count is linear in q and a - 1 with
coefficients that depend on the prefix and t alone, so the sums over
the residues are cached per (prefix, t) and a member of a known class
costs a few multiplications.  Everything is exact integer arithmetic.
The tests check it against a nested-loop oracle, tests/signature_oracle.py.

sphere_verdict is the one sphere rule, read off the characteristic
divisor that betti() builds (see linkatlas.betti), so it holds for
every spelling of a link: betti() answers only quasi-smooth weight
systems.  A link of n >= 3 variables with Betti number 0 is a homotopy
sphere exactly when |Delta(1)| = 1.  Then three variables give an
integral homology 3-sphere; an even count, a (2n-3)-sphere whose class
Levine's rule reads off |Delta(-1)| mod 8 (+-1 standard, +-3
Kervaire); five, a 7-sphere with its bP_8 residue.  A 2-variable link
with Betti number 0 is a rational homology sphere and nothing more is
claimed; no torsion is read.  The label kervaire_sphere names the
Kervaire manifold, which is the standard sphere in dimensions 5, 13, 29
and 61.  kervaire_classify, the closed form the tests check the rule
against, answers only where its theorem holds: odd a coprime to every r_i.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence

from .betti import BettiResult, betti
from .betti import is_rational_homology_sphere  # noqa: F401  (a name perfbench traces)
from .errors import InconsistentInvariants, InvalidInput
from .links import (
    BPExponents,
    SignClass,
    _as_exponents,
    bp_link,
    classify_sign,
    kervaire_exponents,
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

    @property
    def label(self) -> str:
        """kind, then [residue] when there is one: a record's sphere column."""
        return self.kind if self.bp8_residue is None else "%s[%d]" % (self.kind, self.bp8_residue)


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


@lru_cache(maxsize=512)
def _residue_class(prefix: tuple[int, ...], t: int) -> tuple[int, int, int, int, int]:
    """What every last exponent a = q D + t (0 <= t < D = lcm(prefix))
    shares in the last-factor count, summed over the prefix residues by
    the identity of the module docstring: (slope, points of half 0,
    points of half 1, sigma+ part, sigma- part); see _by_class."""
    d, residues, cumulative = _prefix_histogram(prefix)
    g = gcd(d, t)
    # per half: points, their weight D - rho, and the t parts of the
    # values of i that stay in the half and that carry over
    points, weight, stay, carry = [0, 0], [0, 0], [0, 0], [0, 0]
    for r, lo, hi in zip(residues, cumulative, cumulative[1:]):
        half, rho = divmod(r, d)
        c, w = hi - lo, d - rho
        points[half] += c
        weight[half] += c * w
        stay[half] += c * ((w * t - g) // d)
        # at rho = 0 nothing carries: (a - 1) - D q - t = -1 is made 0
        carry[half] += c * ((w * t) // d - (rho == 0))
    return (
        weight[0] - weight[1],
        points[0],
        points[1],
        stay[0] - carry[1],
        stay[1] - carry[0],
    )


def _by_class(prefix: tuple[int, ...], d: int, a: int) -> tuple[int, int]:
    """(sigma+, sigma-) of the prefix, whose histogram has modulus d,
    joined with exponent a, from the cached sums of its residue class:
    sigma+ gathers half 0 staying and half 1 carrying, sigma- the
    reverse."""
    q, t = divmod(a, d)
    slope, points0, points1, pos, neg = _residue_class(prefix, t)
    return q * slope + (a - 1) * points1 + pos, (a - 1) * points0 - q * slope + neg


def _by_step(
    residues: Sequence[int], cumulative: Sequence[int], d: int, a: int
) -> tuple[int, int]:
    """The same count as _by_class, one pass over i in [1, a - 1]:
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
        raise InvalidInput(
            "signature defined for %d or %d exponents" % SIGNATURE_NVARS
        )
    return exps


def brieskorn_signature(a: Sequence[int] | BPExponents) -> SignatureResult:
    """Signature pair of the Milnor fiber lattice count.

    Supported for the exponent counts in SIGNATURE_NVARS.
    """
    *prefix, last = sorted(_signature_exponents(a))
    prefix = tuple(prefix)
    d, residues, cumulative = _prefix_histogram(prefix)
    # a residue of a new class costs two floor divisions, a step four
    # bisections
    if len(residues) <= 3 * (last - 1):
        return SignatureResult(*_by_class(prefix, d, last))
    return SignatureResult(*_by_step(residues, cumulative, d, last))


def signature_cost(exps: Sequence[int]) -> int:
    """Upper bound on the steps brieskorn_signature takes, from the
    exponents alone: each prefix factor a_j spreads at most
    min(2 lcm, points) cells over a_j - 1 steps, and the last-factor
    loop runs over at most min(cells, 3 (a - 1)) items.  It stays an
    upper bound, charged in full, when the prefix or the residue class
    of a is already cached and the call takes fewer steps."""
    *prefix, last = sorted(exps)
    cost, cells, d = 0, 1, 1
    for x in prefix:
        cost += cells * (x - 1)
        d = lcm(d, x)
        cells = min(2 * d, cells * (x - 1))
    return cost + min(cells, 3 * (last - 1))


def casson_invariant(a: Sequence[int] | BPExponents) -> int:
    """Casson invariant of a Brieskorn homology 3-sphere: signature / 8."""
    exps = _as_exponents(a)
    if exps.nvars != 3:
        raise InvalidInput("Casson invariant needs 3 exponents")
    if not exps.pairwise_coprime():
        raise InvalidInput("exponents %s are not pairwise coprime" % (exps.exponents,))
    sig = brieskorn_signature(exps).signature
    if sig % 8:
        raise InconsistentInvariants("signature %d not divisible by 8" % sig)
    return sig // 8


def bp8_residue(signature: int) -> int | None:
    """Class of a 7-dimensional rational homology sphere link in bP_8:
    (signature / 8) mod BP8_ORDER, None when 8 does not divide the
    signature."""
    return (signature // 8) % BP8_ORDER if signature % 8 == 0 else None


def sphere_verdict(b: BettiResult, signature: int | None = None) -> SphereVerdict:
    """Sphere verdict of the link whose betti() result is b, by the rule
    of the module docstring; signature gives a 5-variable link its bP_8
    residue.  A 1-dimensional link with Betti number 0 is a rational
    homology sphere, no more."""
    if b.middle_betti:
        return SphereVerdict("not_a_sphere")
    n = (b.link_dim + 3) // 2
    if n < 3 or b.delta_at_one() != 1:
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
    """bp8_residue of a 5-exponent homotopy sphere link; the InvalidInput
    raised for any other names the order of H_3."""
    exps = _as_exponents(a)
    if exps.nvars != 5:
        raise InvalidInput("bp8 class needs 5 exponents")
    b = betti(bp_link(exps))
    if b.middle_betti:
        raise InvalidInput("middle Betti number is nonzero")
    sig = brieskorn_signature(exps).signature
    verdict = sphere_verdict(b, sig)
    if verdict.bp8_residue is None:
        order = b.delta_at_one()
        if order != 1:
            raise InvalidInput("H_3 has order %d, not 1" % order)
        raise InconsistentInvariants("signature %d not divisible by 8" % sig)
    return verdict


def kervaire_classify(
    r: Sequence[int], a: int
) -> tuple[SphereVerdict, SignClass]:
    """Closed-form class of the link of z_0^2 + z_1^{2 r_1} + ... +
    z_{2m}^{2 r_2m} + z_{2m+1}^a (links.kervaire_exponents).

    For odd a coprime to every r_i the link is the standard sphere when
    a = +-1 mod 8 and the Kervaire sphere when a = +-3 mod 8; any other
    a is undetermined here.  The sign class of the accompanying
    structure is returned alongside (negative exactly when
    sum 1/r_i < (a-2)/a).
    """
    exps = kervaire_exponents(r, a)
    sign = classify_sign(bp_link(exps))
    if a % 2 == 0 or any(gcd(a, x) != 1 for x in r):
        return SphereVerdict("undetermined"), sign
    if a % 8 in (1, 7):
        return SphereVerdict("standard_sphere"), sign
    return SphereVerdict("kervaire_sphere"), sign


__all__ = [
    "SignatureResult",
    "SPHERE_KINDS",
    "SphereVerdict",
    "brieskorn_signature",
    "signature_cost",
    "casson_invariant",
    "bp8_residue",
    "sphere_verdict",
    "bp8_class",
    "kervaire_classify",
]
