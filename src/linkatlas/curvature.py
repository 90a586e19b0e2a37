"""Exact Ricci curvature of left-invariant metrics on frame algebras.

A MetricAlgebra is a frame e_1, ..., e_d with constant brackets and a
constant frame metric.  The brackets are one sparse table
{(i, j): {k: c}} over the pairs i < j: [e_i, e_j] = sum_k c e_k, only
nonzero coefficients are stored, an absent pair brackets to zero and
[e_j, e_i] is the negative (MetricAlgebra.bracket), so antisymmetry
holds by construction.  The Levi-Civita connection follows from the
Koszul formula restricted to the frame,

    2 g(nabla_i e_j, e_k) = g([e_i,e_j],e_k) - g([e_j,e_k],e_i)
                            + g([e_k,e_i],e_j),

and curvature from R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_[X,Y] Z.  Connection coefficients are kept sparse too, so the
work follows the nonzero structure constants rather than d^4.
Everything is exact rational arithmetic, so an eta-Einstein fit either
has residual exactly zero or it does not.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InvalidInput
from .eta import Rational, heisenberg_alpha_squared
from .links import row_reduce

Matrix = tuple[tuple[Fraction, ...], ...]


def _frac_matrix(rows: Sequence[Sequence[Rational]]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in r) for r in rows)


@dataclass(frozen=True)
class MetricAlgebra:
    """Frame algebra with metric; brackets[(i, j)][k], i < j, is the
    e_k coefficient of [e_i, e_j] (see the module docstring)."""

    brackets: Mapping[tuple[int, int], Mapping[int, Rational]]
    metric: Matrix
    reeb_index: int

    def __post_init__(self) -> None:
        g = _frac_matrix(self.metric)
        d = len(g)
        if d < 2:
            raise InvalidInput("need dimension >= 2")
        if any(len(r) != d for r in g):
            raise InvalidInput("metric must be d x d")
        if any(g[i][j] != g[j][i] for i in range(d) for j in range(d)):
            raise InvalidInput("metric must be symmetric")
        if not 0 <= self.reeb_index < d:
            raise InvalidInput("reeb_index out of range")
        pairs = list(itertools.combinations(range(d), 2))
        if not set(self.brackets) <= set(pairs):
            raise InvalidInput("bracket pairs must be (i, j) with 0 <= i < j < %d" % d)
        table = {}
        for pair in pairs:
            row = self.brackets.get(pair, {})
            if not set(row) <= set(range(d)):
                raise InvalidInput("[e_%d, e_%d] has an index out of range" % pair)
            coeffs = {k: Fraction(row[k]) for k in range(d) if row.get(k, 0) != 0}
            if coeffs:
                table[pair] = coeffs
        object.__setattr__(self, "brackets", table)
        object.__setattr__(self, "metric", g)
        self._check_jacobi()

    def bracket(self, i: int, j: int) -> dict[int, Fraction]:
        """Nonzero e_k coefficients of [e_i, e_j], for any i, j."""
        if i > j:
            return {k: -c for k, c in self.bracket(j, i).items()}
        return self.brackets.get((i, j), {})

    def _check_jacobi(self) -> None:
        for i, j, k in itertools.combinations(range(self.dim), 3):
            total: dict[int, Fraction] = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, x in self.bracket(a, b).items():
                    for l, y in self.bracket(m, c).items():
                        total[l] = total.get(l, 0) + x * y
            if any(total.values()):
                raise InvalidInput(
                    "Jacobi identity fails at (%d,%d,%d)" % (i, j, k)
                )

    @property
    def dim(self) -> int:
        return len(self.metric)

    @property
    def eta(self) -> tuple[Fraction, ...]:
        """Frame components of eta = g(xi, .)."""
        return self.metric[self.reeb_index]


def _inverse(g: Matrix) -> list[list[Fraction]]:
    d = len(g)
    a = [list(row) + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(g)]
    if row_reduce(a)[:d] != list(range(d)):
        raise InvalidInput("frame metric is singular")
    return [row[d:] for row in a]


def ricci_tensor(alg: MetricAlgebra) -> Matrix:
    """Ricci tensor of the left-invariant metric, in frame components."""
    g = alg.metric
    d = alg.dim
    ginv = _inverse(g)

    # gamma[(i, j, m)] = Gamma_ij^m, the e_m component of nabla_i e_j
    gamma: dict[tuple[int, int, int], Fraction] = {}

    def koszul(i, j, k, v):  # g(nabla_i e_j, e_k) += v
        for m, x in enumerate(ginv[k]):
            if x:
                gamma[i, j, m] = gamma.get((i, j, m), 0) + v * x

    # each nonzero w = g([e_a, e_b], e_s) / 2 enters three Koszul terms
    for (p, q), row in alg.brackets.items():
        for s in range(d):
            w = sum(c * g[l][s] for l, c in row.items()) / 2
            if w:
                for a, b, v in ((p, q, w), (q, p, -w)):
                    koszul(a, b, s, v)
                    koszul(s, a, b, -v)
                    koszul(b, s, a, v)
    gamma = {key: v for key, v in gamma.items() if v}
    trace = [Fraction(0)] * d  # trace[l] = sum_i Gamma_il^i
    for (i, l, m), v in gamma.items():
        if m == i:
            trace[l] += v

    # Ric(e_j, e_k) = sum_i e_i-component of R(e_i, e_j) e_k
    #   = sum_l Gamma_jk^l trace_l - sum_il Gamma_ik^l Gamma_jl^i
    #     - sum_il c_ij^l Gamma_lk^i
    ric = [[Fraction(0)] * d for _ in range(d)]
    for (i, k, l), v in gamma.items():
        ric[i][k] += v * trace[l]  # the first term, with j = i
        for j in range(d):
            ric[j][k] -= v * gamma.get((j, l, i), 0)
    for (p, q), row in alg.brackets.items():
        for i, j, sign in ((p, q, 1), (q, p, -1)):
            for l, c in row.items():
                for k in range(d):
                    ric[j][k] -= sign * c * gamma.get((l, k, i), 0)
    return tuple(tuple(row) for row in ric)


@dataclass(frozen=True)
class RicciFit:
    """Least-squares fit Ric = lam g + nu eta (x) eta with exact
    residuals; k_contact_residual is max |Ric(xi, e_i) - 2n eta_i|."""

    n: int
    lam: Fraction
    nu: Fraction
    residual: Fraction
    k_contact_residual: Fraction

    @property
    def is_eta_einstein(self) -> bool:
        return self.residual == 0


def eta_fit(alg: MetricAlgebra) -> RicciFit:
    """Fit the Ricci tensor of the algebra to lam g + nu eta (x) eta."""
    d = alg.dim
    if d % 2 == 0 or d < 3:
        raise InvalidInput("eta-Einstein fit needs odd dimension >= 3")
    n = (d - 1) // 2
    ric = ricci_tensor(alg)
    eta = alg.eta
    # g and eta (x) eta by their nonzero entries: the dot products of the
    # normal equations are sums over those alone
    g = {(i, j): x for i, row in enumerate(alg.metric) for j, x in enumerate(row) if x}
    support = [i for i in range(d) if eta[i]]
    q = {(i, j): eta[i] * eta[j] for i in support for j in support}

    a11 = sum(x * x for x in g.values())
    a12 = sum(x * q[ij] for ij, x in g.items() if ij in q)
    a22 = sum(x * x for x in q.values())
    b1 = sum(x * ric[i][j] for (i, j), x in g.items())
    b2 = sum(x * ric[i][j] for (i, j), x in q.items())
    det = a11 * a22 - a12 * a12
    if det == 0:
        raise InvalidInput("g and eta (x) eta are dependent")
    lam = (b1 * a22 - b2 * a12) / det
    nu = (a11 * b2 - a12 * b1) / det

    # off both supports the fit is 0 and the residual entry is |Ric_ij|
    fitted = {ij: lam * x for ij, x in g.items()}
    for ij, x in q.items():
        fitted[ij] = fitted.get(ij, 0) + nu * x
    residual = max(
        abs(x - fitted[i, j]) if (i, j) in fitted else abs(x)
        for i, row in enumerate(ric)
        for j, x in enumerate(row)
    )
    r = alg.reeb_index
    kc = max(abs(ric[r][i] - 2 * n * eta[i]) for i in range(d))
    return RicciFit(n, lam, nu, residual, kc)


def heisenberg_algebra(n: int) -> MetricAlgebra:
    """Sasakian frame of the Heisenberg group H(n): orthonormal
    X_1..X_n, Y_1..Y_n, xi with [X_i, Y_i] = 2 xi.

    The factor 2 is the contact normalization: it makes xi a unit
    Killing field with sectional curvature 1 on planes containing it,
    so the fit lands on the null constants (-2, 2n+2).
    """
    if n < 1:
        raise InvalidInput("n must be >= 1")
    d = 2 * n + 1
    brackets = {(i, n + i): {d - 1: 2} for i in range(n)}
    g = [[int(i == j) for j in range(d)] for i in range(d)]
    return MetricAlgebra(brackets, g, d - 1)


def berger_sphere(a: Rational) -> MetricAlgebra:
    """Transverse homothety of the round 3-sphere with scale a > 0.

    Round frame: [e_i, e_j] = 2 e_k cyclically, identity metric.  The
    deformed structure keeps e_1, e_2 and rescales the Reeb direction
    to xi = e_3 / a; in the frame (e_1, e_2, xi) the metric is
    diag(a, a, 1) and the brackets pick up factors a and 1/a.
    """
    a = Fraction(a)
    if a <= 0:
        raise InvalidInput("scale must be positive")
    brackets = {(0, 1): {2: 2 * a}, (1, 2): {0: 2 / a}, (0, 2): {1: -2 / a}}
    return MetricAlgebra(brackets, [[a, 0, 0], [0, a, 0], [0, 0, 1]], 2)


def ew_function_check(
    n: int,
    samples: int | Sequence[float] = 100,
    offset: float = 0.0,
    seed: int = 0,
) -> float:
    """Max residual of f^2 - xibar(f) = -alpha^2 for f = alpha tan(z+c).

    xibar is the rescaled Reeb field alpha d/dz, so the identity reads
    alpha^2 tan^2 - alpha^2 sec^2 + alpha^2 = 0 pointwise.  Floats are
    appropriate here (alpha is irrational).  A sample within 1e-6 of a
    pole of tan, a non-finite offset, or no sample at all raises
    InvalidInput instead of returning garbage.
    """
    if not math.isfinite(offset):
        raise InvalidInput("offset must be finite, got %r" % offset)
    alpha = math.sqrt(float(heisenberg_alpha_squared(n)))
    if isinstance(samples, int):
        rng = random.Random(seed)
        zs = [rng.uniform(-1.5, 1.5) for _ in range(samples)]
    else:
        zs = [float(z) for z in samples]
    if not zs:
        raise InvalidInput("need at least one sample")
    worst = 0.0
    for z in zs:
        t = z + offset
        dist = abs((t - math.pi / 2) % math.pi)
        dist = min(dist, math.pi - dist)
        if dist < 1e-6:
            raise InvalidInput("z + c = %r is within 1e-6 of a pole" % t)
        f = alpha * math.tan(t)
        xibar_f = alpha * (alpha / math.cos(t) ** 2)
        worst = max(worst, abs(f * f - xibar_f + alpha * alpha))
    return worst


__all__ = [
    "MetricAlgebra",
    "RicciFit",
    "ricci_tensor",
    "eta_fit",
    "heisenberg_algebra",
    "berger_sphere",
    "ew_function_check",
]
