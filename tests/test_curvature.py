"""Exact Ricci tensors of frame algebras and eta-Einstein fits."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from linkatlas import (
    EtaConstants,
    MetricAlgebra,
    eta_fit,
    heisenberg_algebra,
    transverse_homothety,
)
from linkatlas import curvature
from linkatlas.curvature import berger_sphere, ew_function_check, ricci_tensor
from linkatlas.errors import InvalidInput
from linkatlas.eta import scalar_curvature

F = Fraction


def _identity(d):
    return [[F(int(i == j)) for j in range(d)] for i in range(d)]


def _diagonal_su2(alpha, beta, gamma, metric=None):
    # [e1,e2] = gamma e3, [e2,e3] = alpha e1, [e3,e1] = beta e2;
    # Jacobi holds for any coefficients
    brackets = {(0, 1): {2: gamma}, (1, 2): {0: alpha}, (0, 2): {1: -beta}}
    return MetricAlgebra(brackets, metric or _identity(3), 2)


def test_flat_abelian_ricci_zero():
    alg = MetricAlgebra({}, _identity(3), 2)
    assert ricci_tensor(alg) == tuple((F(0),) * 3 for _ in range(3))


def test_heisenberg_ricci_values():
    ric = ricci_tensor(heisenberg_algebra(1))
    assert ric == ((F(-2), F(0), F(0)), (F(0), F(-2), F(0)), (F(0), F(0), F(2)))


def test_round_sphere_is_einstein():
    alg = berger_sphere(1)
    ric = ricci_tensor(alg)
    assert ric == tuple(tuple(2 * x for x in row) for row in alg.metric)


def test_ricci_symmetric_on_random_algebras():
    rng = random.Random(71)
    for _ in range(40):
        coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        m = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        g = [[sum(m[k][i] * m[k][j] for k in range(3)) + (4 if i == j else 0)
              for j in range(3)] for i in range(3)]
        alg = _diagonal_su2(*coeffs, metric=g)
        ric = ricci_tensor(alg)
        assert all(ric[i][j] == ric[j][i] for i in range(3) for j in range(3))


def _milnor_nilpotent_ricci(table, d):
    # Milnor 1976, nilpotent algebra with integer structure constants in
    # an orthonormal frame: Ric(x,y) = -1/2 sum <[x,e_i],e_j><[y,e_i],e_j>
    #                                  + 1/4 sum <[e_i,e_j],x><[e_i,e_j],y>
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    for (i, j), row in table.items():
        for k, v in row.items():
            c[i][j][k], c[j][i][k] = v, -v
    pairs = [(i, j) for i in range(d) for j in range(d)]
    return tuple(
        tuple(
            F(
                -2 * sum(c[x][i][j] * c[y][i][j] for i, j in pairs)
                + sum(c[i][j][x] * c[i][j][y] for i, j in pairs),
                4,
            )
            for y in range(d)
        )
        for x in range(d)
    )


def test_ricci_matches_milnor_nilpotent_formula():
    rng = random.Random(1976)
    kept = 0
    while kept < 200:
        d = rng.randint(3, 7)
        # [e_i, e_j] in span(e_k : k > j) makes the algebra nilpotent
        table = {
            (i, j): {k: rng.randint(-3, 3) for k in rng.sample(
                range(j + 1, d), rng.randint(1, min(2, d - j - 1)))}
            for i, j in itertools.combinations(range(d - 1), 2)
            if rng.random() < 0.3
        }
        try:
            alg = MetricAlgebra(table, _identity(d), d - 1)
        except InvalidInput:
            continue
        if not alg.brackets:
            continue
        assert ricci_tensor(alg) == _milnor_nilpotent_ricci(table, d)
        kept += 1
    for n in range(1, 9):
        d = 2 * n + 1
        table = {(i, n + i): {d - 1: 2} for i in range(n)}
        alg = heisenberg_algebra(n)
        assert alg.brackets == table
        assert ricci_tensor(alg) == _milnor_nilpotent_ricci(table, d)


def test_ricci_of_hyperbolic_space():
    # [e_0, e_i] = a e_i is real hyperbolic space, not unimodular: with
    # g = diag(g_0, ..., g_{d-1}) the sectional curvature is -a^2 / g_0,
    # so Ric = -(d-1) a^2 / g_0 * g
    for d in range(2, 7):
        for a, g0, rest in ((1, 1, 1), (2, 3, F(1, 2)), (F(1, 3), F(5, 2), 7)):
            g = [[(g0 if i == 0 else rest) if i == j else 0 for j in range(d)]
                 for i in range(d)]
            alg = MetricAlgebra({(0, i): {i: a} for i in range(1, d)}, g, 0)
            factor = -(d - 1) * F(a) ** 2 / g0
            assert ricci_tensor(alg) == tuple(
                tuple(factor * x for x in row) for row in alg.metric
            )


def test_algebra_validation():
    # a pair given as (j, i), (i, i) or with an index >= d is rejected
    for bad in (
        {(1, 0): {2: 1}},
        {(1, 1): {2: 1}},
        {(0, 3): {2: 1}},
        {(0, 1): {3: 1}},
        {(0, 1): {-1: 1}},
        {0: {2: 1}},
    ):
        with pytest.raises(InvalidInput):
            MetricAlgebra(bad, _identity(3), 2)
    with pytest.raises(InvalidInput):
        MetricAlgebra({}, ((F(1), F(2)), (F(3), F(4))), 0)
    with pytest.raises(InvalidInput):
        MetricAlgebra({}, _identity(3), 5)


@pytest.mark.parametrize(
    "metric, message",
    [([[1]], "need dimension >= 2"), ([[1, 0], [0]], "metric must be d x d")],
    ids=["1x1", "ragged"],
)
def test_metric_algebra_refuses_a_metric_of_no_shape(metric, message):
    with pytest.raises(InvalidInput, match="^%s$" % message):
        MetricAlgebra({}, metric, 0)


def test_heisenberg_algebra_needs_n_at_least_1():
    with pytest.raises(InvalidInput, match="^n must be >= 1$"):
        heisenberg_algebra(0)


def test_bracket_is_antisymmetric_and_sparse():
    alg = _diagonal_su2(F(1), F(0), F(4))
    assert alg.brackets == {(0, 1): {2: 4}, (1, 2): {0: 1}}
    assert alg.bracket(1, 0) == {2: -4}
    assert alg.bracket(0, 2) == {} and alg.bracket(2, 2) == {}


def test_jacobi_violation_rejected():
    # [e1,e2] = e1 with [e1,e3] = e2 leaves a nonzero cyclic sum
    with pytest.raises(InvalidInput):
        MetricAlgebra({(0, 1): {0: 1}, (0, 2): {1: 1}}, _identity(3), 2)


def test_degenerate_metric():
    # symmetric but singular: passes shape checks, fails inversion
    g = ((F(1), F(0), F(0)), (F(0), F(0), F(0)), (F(0), F(0), F(1)))
    alg = MetricAlgebra({}, g, 2)
    with pytest.raises(InvalidInput, match="frame metric is singular"):
        ricci_tensor(alg)


def test_heisenberg_fits():
    for n in range(1, 9):
        fit = eta_fit(heisenberg_algebra(n))
        assert (fit.lam, fit.nu) == (-2, 2 * n + 2)
        assert fit.residual == 0
        assert fit.k_contact_residual == 0
        assert fit.is_eta_einstein


def test_heisenberg_scalar_trace():
    # trace of Ric against the identity metric equals 2n(lam + 1) = -2n
    for n in range(1, 5):
        ric = ricci_tensor(heisenberg_algebra(n))
        trace = sum(ric[i][i] for i in range(2 * n + 1))
        assert trace == -2 * n
        assert trace == scalar_curvature(EtaConstants.of(n, -2))


def test_berger_fits_match_homothety():
    base = EtaConstants.of(1, 2)
    for a in (F(1, 3), F(1, 2), 2, 3):
        fit = eta_fit(berger_sphere(a))
        expected = transverse_homothety(base, a)
        assert fit.lam == expected.lam
        assert fit.nu == expected.nu
        assert fit.residual == 0
        assert fit.k_contact_residual == 0


def test_berger_expected_values():
    fit = eta_fit(berger_sphere(F(1, 2)))
    assert (fit.lam, fit.nu) == (6, -4)
    fit = eta_fit(berger_sphere(2))
    assert (fit.lam, fit.nu) == (0, 2)


def test_berger_scalar_trace_matches_constants(monkeypatch):
    from linkatlas.curvature import _inverse

    for a in (F(1, 3), F(1, 2), 2, 3):
        alg = berger_sphere(a)
        ric = ricci_tensor(alg)
        ginv = _inverse(alg.metric)
        trace = sum(ginv[i][j] * ric[j][i] for i in range(3) for j in range(3))
        monkeypatch.setattr(curvature, "ricci_tensor", lambda _alg, ric=ric: ric)
        fit = eta_fit(alg)
        assert trace == scalar_curvature(EtaConstants.of(1, fit.lam))


def test_berger_rejects_nonpositive_scale():
    with pytest.raises(InvalidInput):
        berger_sphere(0)
    with pytest.raises(InvalidInput):
        berger_sphere(F(-1, 2))


def test_eta_fit_needs_odd_dimension():
    alg = MetricAlgebra({}, _identity(2), 0)
    with pytest.raises(InvalidInput):
        eta_fit(alg)


def test_non_eta_einstein_fit_has_residual():
    # Ric = diag(-3/2, -5/2, 15/2): the transverse eigenvalues differ,
    # so no (lam, nu) pair can absorb the difference
    alg = _diagonal_su2(F(1), F(2), F(4))
    fit = eta_fit(alg)
    assert fit.residual > 0
    assert not fit.is_eta_einstein


def test_ew_function_identity():
    assert ew_function_check(1, [0.0, 0.3, 1.0]) < 1e-12
    for n in (1, 2, 3):
        assert ew_function_check(n, 100, seed=5) < 1e-12
    # independence of the offset c (kept small so tan poles stay clear)
    assert ew_function_check(2, 50, offset=0.01, seed=9) < 1e-12


def test_ew_function_pole_guard():
    with pytest.raises(InvalidInput, match="of a pole"):
        ew_function_check(1, [math.pi / 2])
    with pytest.raises(InvalidInput, match="of a pole"):
        ew_function_check(1, [math.pi / 2 + math.pi])
    with pytest.raises(InvalidInput, match="of a pole"):
        ew_function_check(1, [0.0], offset=math.pi / 2)


@pytest.mark.parametrize(
    "samples, offset",
    [(10, math.inf), (10, math.nan), (0, 0.0), (-5, 0.0)],
    ids=["offset-inf", "offset-nan", "samples-0", "samples-negative"],
)
def test_ew_check_refuses_non_finite_offset_and_no_samples(samples, offset):
    # inf used to end in a math domain error, and nan or no samples in a
    # residual of 0.0 that checked nothing
    with pytest.raises(InvalidInput):
        ew_function_check(1, samples, offset=offset)


def _dense_fit(alg, ric):
    """(lam, nu, residual) of the fit over every entry of the d x d
    matrices, eta (x) eta built in full."""
    d, g, eta = alg.dim, alg.metric, alg.eta
    q = [[eta[i] * eta[j] for j in range(d)] for i in range(d)]

    def dot(x, y):
        return sum(x[i][j] * y[i][j] for i in range(d) for j in range(d))

    a11, a12, a22 = dot(g, g), dot(g, q), dot(q, q)
    b1, b2 = dot(g, ric), dot(q, ric)
    det = a11 * a22 - a12 * a12
    lam = (b1 * a22 - b2 * a12) / det
    nu = (a11 * b2 - a12 * b1) / det
    residual = max(
        abs(ric[i][j] - lam * g[i][j] - nu * q[i][j]) for i in range(d) for j in range(d)
    )
    return lam, nu, residual


def _random_metric(rng, d):
    # m^T m + 4 I is symmetric positive definite, with few zero entries
    m = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
    return [
        [F(sum(m[k][i] * m[k][j] for k in range(d)) + (4 if i == j else 0)) for j in range(d)]
        for i in range(d)
    ]


def test_the_sparse_fit_is_the_dense_fit(monkeypatch):
    rng = random.Random(83)
    algebras = [heisenberg_algebra(n) for n in range(1, 9)]
    algebras += [berger_sphere(a) for a in (F(1, 3), F(1, 2), 2, 3)]
    for _ in range(40):
        coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        algebras.append(_diagonal_su2(*coeffs, metric=_random_metric(rng, 3)))
    for n in range(1, 4):
        # a Heisenberg bracket table under a dense metric, Reeb field anywhere
        d = 2 * n + 1
        table = {(i, n + i): {d - 1: 2} for i in range(n)}
        for _ in range(5):
            algebras.append(MetricAlgebra(table, _random_metric(rng, d), rng.randrange(d)))
    while len(algebras) < 90:
        # nilpotent tables under the identity metric: Ric has entries off
        # the supports of g and eta (x) eta
        d = rng.choice((5, 7))
        table = {
            (i, j): {k: rng.randint(-3, 3) for k in rng.sample(range(j + 1, d), 1)}
            for i, j in itertools.combinations(range(d - 1), 2)
            if rng.random() < 0.3
        }
        try:
            algebras.append(MetricAlgebra(table, _identity(d), rng.randrange(d)))
        except InvalidInput:
            continue
    fitted = set()
    for alg in algebras:
        d = alg.dim
        # the Ricci tensor, and a symmetric matrix with entries anywhere
        noise = [[F(rng.randint(-5, 5)) for _ in range(d)] for _ in range(d)]
        noise = [[noise[min(i, j)][max(i, j)] for j in range(d)] for i in range(d)]
        for ric in (ricci_tensor(alg), noise):
            monkeypatch.setattr(curvature, "ricci_tensor", lambda _alg, ric=ric: ric)
            fit = eta_fit(alg)
            assert (fit.lam, fit.nu, fit.residual) == _dense_fit(alg, ric)
            assert all(type(x) is F for x in (fit.lam, fit.nu, fit.residual))
            fitted.add(fit.is_eta_einstein)
    assert fitted == {True, False}
