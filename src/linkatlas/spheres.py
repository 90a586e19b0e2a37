"""Signatures, Casson invariants and exotic sphere classes of BP links.

The signature of the Milnor fiber of z_0^{a_0} + ... + z_n^{a_n} counts
interior lattice points (0 < i_j < a_j) by the fractional part of
t = sum i_j / a_j:

    sigma+ = #{ t mod 2 in (0, 1) },   sigma- = #{ t mod 2 in (1, 2) },

integer values of t counted in neither (open interval convention).
Two independent routes are kept: a histogram convolution over the
common denominator (fast, used by default) and a direct nested loop
(slow, retained for cross validation).  They must always agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Sequence

import numpy as np

from .betti import is_rational_homology_sphere
from .errors import (
    DimensionUnsupported,
    InvalidInput,
    NonDivisible,
    NotASphere,
    NotPairwiseCoprime,
)
from .links import BPExponents, SignClass, _as_exponents, bp_link, classify_sign

# counts stay below Prod(a_i - 1); int64 is exact below this bound
_INT64_SAFE = 1 << 61


@dataclass(frozen=True)
class SignatureResult:
    positive: int
    negative: int

    @property
    def signature(self) -> int:
        return self.positive - self.negative


@dataclass(frozen=True)
class SphereVerdict:
    """kind is one of standard_sphere, kervaire_sphere, homology_sphere,
    rational_homology_sphere, not_a_sphere, undetermined."""

    kind: str
    bp8_residue: int | None = None


def _histogram_python(exps: tuple[int, ...], big: int) -> list[int]:
    """Exact sliding-window convolution of the numerator histogram,
    cyclically over residues mod 2D.  Pure integer arithmetic."""
    hist = [0] * big
    hist[0] = 1
    half = big // 2
    for a in exps:
        step = half // a
        span = 2 * a  # class length: big / step
        out = [0] * big
        for c in range(step):
            seq = hist[c::step]
            ext = seq + seq
            pref = [0]
            for x in ext:
                pref.append(pref[-1] + x)
            # window of the a-1 previous slots, cyclically
            for t in range(span):
                out[c + t * step] = pref[t + span] - pref[t + span - (a - 1)]
        hist = out
    return hist


def _histogram_numpy(exps: tuple[int, ...], big: int) -> np.ndarray:
    hist = np.zeros(big, dtype=np.int64)
    hist[0] = 1
    half = big // 2
    for a in exps:
        step = half // a
        span = 2 * a
        m = hist.reshape(span, step)
        pref = np.zeros((2 * span + 1, step), dtype=np.int64)
        np.cumsum(np.concatenate([m, m], axis=0), axis=0, out=pref[1:])
        idx = np.arange(span) + span
        hist = (pref[idx] - pref[idx - (a - 1)]).reshape(big)
    return hist


def brieskorn_signature(a: Sequence[int] | BPExponents) -> SignatureResult:
    """Signature pair of the Milnor fiber lattice count.

    Supported for 3 and 5 exponents (links of dimension 3 and 7, where
    the middle intersection form is symmetric).
    """
    exps = _as_exponents(a).exponents
    if len(exps) not in (3, 5):
        raise DimensionUnsupported("signature defined for 3 or 5 exponents")
    d = lcm(*exps)
    big = 2 * d
    if prod(x - 1 for x in exps) < _INT64_SAFE:
        hist = _histogram_numpy(exps, big)
        pos = int(hist[1:d].sum())
        neg = int(hist[d + 1 :].sum())
    else:
        hist = _histogram_python(exps, big)
        pos = sum(hist[1:d])
        neg = sum(hist[d + 1 :])
    return SignatureResult(pos, neg)


def brieskorn_signature_direct(a: Sequence[int] | BPExponents) -> SignatureResult:
    """Nested-loop oracle for the same count; cost Prod(a_i - 1)."""
    exps = _as_exponents(a).exponents
    if len(exps) not in (3, 5):
        raise DimensionUnsupported("signature defined for 3 or 5 exponents")
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
    """Class of a 7-dimensional rational homology sphere link in the
    cyclic group of order 28 of exotic spheres bounding parallelizable
    manifolds: (signature / 8) mod 28, None when 8 does not divide the
    signature."""
    return (signature // 8) % 28 if signature % 8 == 0 else None


def bp8_class(a: Sequence[int] | BPExponents) -> SphereVerdict:
    """bp8_residue of a 5-exponent rational homology sphere link."""
    exps = _as_exponents(a)
    if exps.nvars != 5:
        raise DimensionUnsupported("bp8 class needs 5 exponents")
    if not is_rational_homology_sphere(bp_link(exps)):
        raise NotASphere("middle Betti number is nonzero")
    sig = brieskorn_signature(exps).signature
    residue = bp8_residue(sig)
    if residue is None:
        raise NonDivisible("signature %d not divisible by 8" % sig)
    return SphereVerdict("rational_homology_sphere", residue)


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
    rs = tuple(int(x) for x in r)
    if len(rs) < 2 or len(rs) % 2:
        raise DimensionUnsupported("need an even count 2m >= 2 of r_i")
    if any(x < 1 for x in rs) or a < 2:
        raise InvalidInput("r_i must be >= 1 and a >= 2")
    if any(gcd(x, y) != 1 for x, y in itertools.combinations(rs, 2)):
        raise NotPairwiseCoprime("r must be pairwise coprime")
    exps = BPExponents((2,) + tuple(2 * x for x in rs) + (int(a),))
    sign = classify_sign(bp_link(exps))
    if a % 2 == 0:
        return SphereVerdict("undetermined"), sign
    if a % 8 in (1, 7):
        return SphereVerdict("standard_sphere"), sign
    return SphereVerdict("kervaire_sphere"), sign


__all__ = [
    "SignatureResult",
    "SphereVerdict",
    "brieskorn_signature",
    "brieskorn_signature_direct",
    "casson_invariant",
    "is_homology_3_sphere",
    "bp8_residue",
    "bp8_class",
    "kervaire_classify",
]
