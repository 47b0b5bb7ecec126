import math

import numpy as np
import pytest
from scipy.optimize import brentq

from hardy_optim import (GridMapping, GridSpec, RadialPotential, SmoothFn,
                         bessel_j0, hardy_quotient, lambda_limit, poincare_check,
                         reduced_rayleigh_min, weighted_eigen)
from hardy_optim.errors import (BoundaryConditionViolated, DegenerateDenominator,
                                DomainError, IndefiniteForm, NonMonotoneSequence,
                                SingularMass)

from conftest import Z0, Z0_SQ, J1_AT_Z0, power_law_best_constant

PI_SQ = math.pi ** 2


def _grid(n=10_000, R=1.0, r_min=1e-6):
    return GridSpec(n, GridMapping.LOG_SPACED, R, r_min)


def _bessel_j1(x: float) -> float:
    # -J0' by its series; only needed well inside the first zero
    q = 0.25 * x * x
    term = 0.5 * x
    total = term
    k = 0
    while abs(term) > 1e-17 * max(1.0, abs(total)):
        k += 1
        term *= -q / (k * (k + 1))
        total += term
    return total


# ---------------------------------------------------------------------------
# reduced quotient
# ---------------------------------------------------------------------------

def test_reduced_rayleigh_constant(constant_pot):
    res = reduced_rayleigh_min(constant_pot, _grid())
    assert res.lambda1 == pytest.approx(Z0_SQ, rel=0.01)
    assert res.residual_norm <= 1e-8


def test_reduced_rayleigh_scaling():
    p = RadialPotential.constant(1.0, r_max=2.0)
    res = reduced_rayleigh_min(p, _grid(R=2.0, r_min=2e-6))
    assert res.lambda1 == pytest.approx(Z0_SQ / 4.0, rel=0.01)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_reduced_rayleigh_power_laws(alpha):
    res = reduced_rayleigh_min(RadialPotential.power_law(alpha), _grid())
    assert res.lambda1 == pytest.approx(power_law_best_constant(alpha, 1.0), rel=0.01)


def test_reduced_rayleigh_borderline_truncated_threshold():
    # On [r_min, R] the m = 1 iterated-log quotient has minimum 1/4 + w^2,
    # w the root of tan(w L) = -2w in (pi / 2L, pi / L), with
    # L = ln(ln(rho / r_min) / ln(rho / R)).  rho = 5 is not e * R, so the
    # shortcut L = ln(ln(rho / r_min)) would give 0.7215 instead of 0.8644.
    p = RadialPotential.adimurthi_log(1, rho=5.0)
    res = reduced_rayleigh_min(p, _grid(n=20_000, r_min=1e-10))
    L = math.log(math.log(5.0 / 1e-10) / math.log(5.0))
    w = brentq(lambda x: x * math.cos(x * L) + 0.5 * math.sin(x * L),
               0.5 * math.pi / L * (1.0 + 1e-12), math.pi / L * (1.0 - 1e-12), xtol=1e-15)
    assert res.lambda1 == pytest.approx(0.25 + w * w, rel=1e-5)


def test_reduced_rayleigh_grid_convergence(constant_pot):
    errors = []
    for n in (500, 1000, 2000):
        res = reduced_rayleigh_min(constant_pot, _grid(n=n))
        errors.append(abs(res.lambda1 - Z0_SQ))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 1.5


def test_eigenvector_positive(constant_pot):
    res = reduced_rayleigh_min(constant_pot, _grid(n=2000))
    assert np.all(res.eigenvector >= -1e-12 * np.max(res.eigenvector))


def test_singular_mass():
    with pytest.raises(SingularMass):
        reduced_rayleigh_min(RadialPotential.constant(0.0), _grid(n=100))


# ---------------------------------------------------------------------------
# weighted eigenproblem
# ---------------------------------------------------------------------------

def test_weighted_eigen_laplacian_mode(constant_pot):
    res = weighted_eigen(constant_pot, 0.0, 3, _grid())
    assert res.lambda1 == pytest.approx(PI_SQ, rel=1e-3)


def test_weighted_eigen_refines_toward_mode(constant_pot):
    coarse = weighted_eigen(constant_pot, 0.0, 3, _grid(n=1000)).lambda1
    fine = weighted_eigen(constant_pot, 0.0, 3, _grid(n=8000)).lambda1
    assert abs(fine - PI_SQ) < abs(coarse - PI_SQ)
    assert fine == pytest.approx(PI_SQ, rel=1e-3)


def test_weighted_eigen_scaling():
    p = RadialPotential.constant(1.0, r_max=2.0)
    res = weighted_eigen(p, 0.0, 3, _grid(R=2.0, r_min=2e-6))
    assert res.lambda1 == pytest.approx(PI_SQ / 4.0, rel=1e-3)


def test_weighted_eigen_monotone_in_mu(constant_pot):
    g = _grid()
    lams = [weighted_eigen(constant_pot, f * 0.25, 3, g).lambda1
            for f in (0.0, 0.5, 0.9, 0.99, 0.999)]
    assert all(lams[i + 1] < lams[i] for i in range(len(lams) - 1))
    assert lams[-1] > Z0_SQ  # bounded below by the critical limit


def test_weighted_eigen_guards(constant_pot):
    with pytest.raises(IndefiniteForm):
        weighted_eigen(constant_pot, 0.25, 3, _grid(n=100))
    with pytest.raises(IndefiniteForm):
        weighted_eigen(constant_pot, -0.1, 3, _grid(n=100))
    with pytest.raises(SingularMass):
        weighted_eigen(RadialPotential.constant(0.0), 0.1, 3, _grid(n=100))


# ---------------------------------------------------------------------------
# critical-coupling limit
# ---------------------------------------------------------------------------

def test_lambda_limit_constant(constant_pot):
    res = lambda_limit(constant_pot, 3, 1.0)
    assert res.limit == pytest.approx(Z0_SQ, rel=0.02)
    assert np.all(np.diff(res.lambdas) < 0.0)
    assert res.lambdas.size == 12


def test_lambda_limit_power_law():
    res = lambda_limit(RadialPotential.power_law(1.0), 3, 1.0)
    assert res.limit == pytest.approx(power_law_best_constant(1.0, 1.0), rel=0.02)


def test_lambda_limit_nonmonotone_guard(constant_pot):
    # an inner cutoff too deep for float64 conditioning breaks monotonicity
    # and must be reported, not extrapolated
    bad = GridSpec(6000, GridMapping.LOG_SPACED, 1.0, 1e-60)
    with pytest.raises(NonMonotoneSequence):
        lambda_limit(constant_pot, 3, 1.0, grid=bad)


def test_two_routes_agree_on_custom_potential(settings):
    # wire the whole tabulated-potential path through both the shooting
    # bisection and the discretized quotient; v = 2/sqrt(r) has the exact
    # threshold (z0 * 3/4)^2 / 2 via the Bessel substitution
    from hardy_optim import best_constant
    r = np.logspace(-9, 0, 400)
    p = RadialPotential.custom(r, 2.0 / np.sqrt(r))
    analytic = (Z0 * 0.75) ** 2 / 2.0
    bc = best_constant(p, 1.0, tol=1e-6, settings=settings).c_best
    rr = reduced_rayleigh_min(p, _grid()).lambda1
    assert bc == pytest.approx(analytic, rel=1e-4)
    assert rr == pytest.approx(bc, rel=0.01)


def test_lambda_limit_reuses_one_assembly_exactly():
    # lambda_limit assembles once and shifts the diagonal per mu; every raw
    # eigenvalue must be the one weighted_eigen computes at that mu
    p = RadialPotential.power_law(0.5, amplitude=2.0)
    res = lambda_limit(p, 3, 1.0)
    grid = GridSpec(4000, GridMapping.LOG_SPACED, 1.0, 1e-40)
    for k, mu in enumerate(res.mu_values):
        assert res.lambdas[k] == weighted_eigen(p, mu, 3, grid).lambda1


@pytest.mark.parametrize("potential", [RadialPotential.power_law(1.0),
                                       RadialPotential.adimurthi_log(2)])
def test_fe_assembly_evaluates_the_potential_o1_times(monkeypatch, potential):
    # the FE mass is assembled from one array evaluation per Gauss node,
    # not one scalar evaluation per grid node
    calls = []
    value = RadialPotential.value

    def spy(self, r):
        calls.append(np.size(r))
        return value(self, r)

    monkeypatch.setattr(RadialPotential, "value", spy)
    counts = []
    for n_nodes in (64, 4096):
        calls.clear()
        weighted_eigen(potential, 0.1, 3, _grid(n_nodes))
        reduced_rayleigh_min(potential, _grid(n_nodes))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 12
    assert min(calls) >= 4095


# ---------------------------------------------------------------------------
# weighted one-dimensional inequality
# ---------------------------------------------------------------------------

def _j0_profile():
    return SmoothFn(
        lambda r: bessel_j0(Z0 * r),
        lambda r: -Z0 * _bessel_j1(Z0 * r),
        lambda r: -Z0 * Z0 * bessel_j0(Z0 * r) + (Z0 * _bessel_j1(Z0 * r) / r
                                                  if r > 0 else -0.5 * Z0 * Z0),
    )


def _sin_profile(freq=1.0):
    w = freq * math.pi
    return SmoothFn(lambda r: math.sin(w * r), lambda r: w * math.cos(w * r),
                    lambda r: -w * w * math.sin(w * r))


_IDENTITY_WEIGHT = SmoothFn(lambda r: r, lambda r: 1.0)
_UNIT_WEIGHT = SmoothFn(lambda r: 1.0, lambda r: 0.0)


def test_poincare_equality_bessel():
    phi = _j0_profile()
    res = poincare_check(_IDENTITY_WEIGHT, phi, phi, 0.0, 1.0,
                         GridSpec(2000, GridMapping.LOG_SPACED, 1.0, 1e-10))
    lhs_exact = 0.5 * Z0_SQ * J1_AT_Z0 ** 2
    assert res.lhs == pytest.approx(lhs_exact, rel=1e-9)
    assert abs(res.margin) <= 1e-8 * res.lhs


def test_poincare_equality_sine():
    phi = _sin_profile()
    res = poincare_check(_UNIT_WEIGHT, phi, phi, 0.0, 1.0,
                         GridSpec(2000, GridMapping.UNIFORM, 1.0, 1e-10))
    assert res.lhs == pytest.approx(PI_SQ / 2.0, rel=1e-10)
    assert abs(res.margin) <= 1e-8 * res.lhs


def test_poincare_strict_inequality():
    # h = sin(2 pi r) against phi = sin(pi r): lhs = 2 pi^2, rhs = pi^2/2
    res = poincare_check(_UNIT_WEIGHT, _sin_profile(), _sin_profile(2.0), 0.0, 1.0,
                         GridSpec(2000, GridMapping.UNIFORM, 1.0, 1e-10))
    assert res.lhs == pytest.approx(2.0 * PI_SQ, rel=1e-10)
    assert res.rhs == pytest.approx(PI_SQ / 2.0, rel=1e-10)
    assert res.margin > 0.0


def test_poincare_boundary_violation():
    exp_phi = SmoothFn(math.exp, math.exp, math.exp)
    affine = SmoothFn(lambda r: r + 1.0, lambda r: 1.0)
    with pytest.raises(BoundaryConditionViolated):
        poincare_check(_UNIT_WEIGHT, exp_phi, affine, 0.0, 1.0,
                       GridSpec(500, GridMapping.UNIFORM, 1.0, 1e-10))


def test_poincare_needs_second_derivative():
    with pytest.raises(DomainError):
        poincare_check(_UNIT_WEIGHT, SmoothFn(lambda r: 1.0, lambda r: 0.0),
                       _sin_profile(), 0.0, 1.0,
                       GridSpec(100, GridMapping.UNIFORM, 1.0, 1e-10))


# ---------------------------------------------------------------------------
# quotient on sampled test functions
# ---------------------------------------------------------------------------

def _log_radii(n=20_001):
    r = np.exp(np.linspace(math.log(1e-6), 0.0, n))
    r[-1] = 1.0
    return r


def test_quotient_sine_mode(constant_pot):
    r = _log_radii()
    q = hardy_quotient(r, np.sin(math.pi * r), constant_pot, 3, 1.0,
                       du=math.pi * np.cos(math.pi * r))
    assert q >= Z0_SQ
    assert q == pytest.approx(12.52, rel=0.01)   # frozen from the analytic integrals


def test_quotient_truncated_minimizer(constant_pot):
    # u = r^(-1/2) J0(z0 r): the gap quotient converges to
    # z0^2 + 1/J1(z0)^2 = 9.4936 (the boundary term survives truncation:
    # the formal minimizer is not attained)
    r = _log_radii()
    j0 = np.array([bessel_j0(Z0 * ri) for ri in r])
    j1 = np.array([_bessel_j1(Z0 * ri) for ri in r])
    u = j0 / np.sqrt(r)
    du = -Z0 * j1 / np.sqrt(r) - 0.5 * u / r
    q = hardy_quotient(r, u, constant_pot, 3, 1.0, du=du)
    assert q >= Z0_SQ
    assert q == pytest.approx(Z0_SQ + 1.0 / J1_AT_Z0 ** 2, rel=1e-3)


def test_quotient_bounds_best_constant_from_above(constant_pot):
    rng = np.random.default_rng(42)
    r = _log_radii(8001)
    for _ in range(20):
        coeffs = rng.normal(size=6) / (1.0 + np.arange(6)) ** 2
        u = sum(a * np.sin((j + 1) * math.pi * r) for j, a in enumerate(coeffs))
        du = sum(a * (j + 1) * math.pi * np.cos((j + 1) * math.pi * r)
                 for j, a in enumerate(coeffs))
        q = hardy_quotient(r, u, constant_pot, 3, 1.0, du=du)
        assert q >= Z0_SQ * (1.0 - 1e-3)


def test_quotient_degenerate_denominator():
    r = _log_radii(101)
    with pytest.raises(DegenerateDenominator):
        hardy_quotient(r, np.sin(math.pi * r), RadialPotential.constant(0.0), 3, 1.0)


def test_quotient_requires_boundary_zero(constant_pot):
    r = _log_radii(101)
    with pytest.raises(DomainError):
        hardy_quotient(r, np.cos(math.pi * r / 2.0) + 0.5, constant_pot, 3, 1.0)


# ---------------------------------------------------------------------------
# grid spec
# ---------------------------------------------------------------------------

def test_grid_spec_guards():
    with pytest.raises(DomainError):
        GridSpec(8, GridMapping.UNIFORM, 1.0, 1e-6)
    with pytest.raises(DomainError):
        GridSpec(100, GridMapping.UNIFORM, 1.0, 2.0)


def test_grid_nodes_ordering():
    g = GridSpec(64, GridMapping.LOG_SPACED, 2.0, 1e-5)
    nodes = g.nodes()
    assert nodes[0] == pytest.approx(1e-5) and nodes[-1] == pytest.approx(2.0)
    assert np.all(np.diff(nodes) > 0.0)


def test_deep_cutoff_squared_cell_width_underflow_is_rejected():
    # N = 1e5 cells down to 1e-157: h^2 is subnormal and v overflows
    grid = GridSpec(100_000, GridMapping.LOG_SPACED, 1.0, 1e-157)
    with pytest.raises(DomainError, match="underflow"):
        reduced_rayleigh_min(RadialPotential.adimurthi_log(1), grid)


def test_deep_cutoff_weight_underflow_is_rejected():
    # the r^2 stiffness and mass weights of dimension 3 underflow near 1e-107
    grid = GridSpec(4_000, GridMapping.LOG_SPACED, 1.0, 1e-107)
    with pytest.raises(DomainError, match="underflow"):
        weighted_eigen(RadialPotential.constant(1.0), 0.0, 3, grid)
