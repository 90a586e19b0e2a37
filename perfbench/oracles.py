"""Reference computations the benchmark checks the program against.

Nothing here imports linkatlas: every expected value comes from a
direct lattice-point count, a closed form, or plain enumeration.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm, prod


def lattice_cost(exps) -> int:
    """Points the lattice count visits: Prod(a_i - 1)."""
    return prod(a - 1 for a in exps)


def lattice_counts(exps) -> tuple[int, int, int]:
    """(middle_betti, sigma_plus, sigma_minus) of the Brieskorn-Pham
    link with exponents `exps`.

    Interior points 0 < i_j < a_j are classed by t = sum i_j / a_j:
    integer t is the eigenvalue-1 part of the monodromy (the middle
    Betti number); t mod 2 in (0, 1) counts toward sigma+, in (1, 2)
    toward sigma-.
    """
    d = lcm(*exps)
    steps = [d // a for a in exps]
    big = 2 * d
    integral = plus = minus = 0
    for point in itertools.product(*(range(1, a) for a in exps)):
        r = sum(i * s for i, s in zip(point, steps)) % big
        if r % d == 0:
            integral += 1
        elif r < d:
            plus += 1
        else:
            minus += 1
    return integral, plus, minus


def bp_sign(exps) -> str:
    """Sign class of a BP link: sum 1/a_i against 1."""
    total = sum(Fraction(1, a) for a in exps)
    if total > 1:
        return "positive"
    if total == 1:
        return "null"
    return "negative"


def weights_sign(weights, degree) -> str:
    """Sign class of a weight system: degree against the total weight."""
    diff = degree - sum(weights)
    if diff < 0:
        return "positive"
    if diff == 0:
        return "null"
    return "negative"


def normalize_weights(weights, degree) -> tuple[tuple[int, ...], int]:
    """Sorted primitive weights with the matching degree."""
    g = gcd(*weights)
    return tuple(sorted(w // g for w in weights)), degree // g


def kkkk1p_count(k_lo, k_hi, p_lo, p_hi) -> int:
    """Members (k,k,k,k+1,p) inside the bounds with p coprime to k and k+1."""
    return sum(
        1
        for k in range(k_lo, k_hi + 1)
        for p in range(p_lo, p_hi + 1)
        if gcd(p, k) == 1 and gcd(p, k + 1) == 1
    )


def box_distinct_keys(spans) -> int:
    """Distinct sorted exponent vectors in a box of (lo, hi) spans."""
    return len({tuple(sorted(t)) for t in itertools.product(*(range(lo, hi + 1) for lo, hi in spans))})


def brieskorn_residue(p: int) -> int | None:
    """Residue of Sigma(2,2,2,3,p) for p = 6k - 1 (Brieskorn 1966): k mod 28."""
    if p % 6 != 5:
        return None
    return ((p + 1) // 6) % 28


def casson_closed_form(p: int) -> int:
    """casson(6k-1, 3, 2) = -k, for p = 6k - 1."""
    return -((p + 1) // 6)


def ade_weights(label: str) -> tuple[tuple[int, ...], int]:
    """Weights of the ADE surface singularity named by `label`."""
    kind, _, index = label.partition("_")
    index = int(index)
    if kind == "A":
        p = index + 1
        return normalize_weights((2, p, p), 2 * p)
    if kind == "D":
        m = index
        return normalize_weights((m - 1, 2, m), 2 * m)
    return {
        "E_6": ((3, 4, 6), 12),
        "E_7": ((4, 6, 9), 18),
        "E_8": ((6, 10, 15), 30),
    }[label]


def monomial_count(weights, degree) -> int:
    """Monomials of weighted degree `degree`, by enumerating exponents."""
    *head, last = weights
    count = 0
    for ms in itertools.product(*(range(degree // w + 1) for w in head)):
        rest = degree - sum(m * w for m, w in zip(ms, head))
        if rest >= 0 and rest % last == 0:
            count += 1
    return count


# --- eta-Einstein constants (lambda + nu = 2n), all in Fraction -------


def eta_transform(n, lam, a):
    lam2 = (lam + 2 - 2 * a) / a
    squash = "squashed" if a < 1 else ("einstein" if a == 1 else "stretched")
    return lam2, 2 * n - lam2, squash


def eta_scale(n, lam):
    """Scale to the Einstein point (lam > -2), or the formal Lorentzian
    scale (lam < -2): the same expression, (lam + 2) / (2n + 2)."""
    return (lam + 2) / Fraction(2 * n + 2)


def eta_ew_mu_squared(n, lam):
    return -(2 * n - lam) / Fraction(2 * n - 1)


def eta_scalar(n, lam):
    return 2 * n * (lam + 1)


def eta_sign(lam) -> str:
    return "positive" if lam > -2 else ("null" if lam == -2 else "negative")


def berger_constants(a):
    """Berger sphere with scale a: lambda = (4 - 2a)/a, nu = 2 - lambda."""
    lam = (4 - 2 * a) / a
    return lam, 2 - lam


def heisenberg_constants(n):
    """H(n) is null eta-Einstein: (lambda, nu) = (-2, 2n + 2)."""
    return Fraction(-2), Fraction(2 * n + 2)
