import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf
from scipy.optimize import brentq
from scipy.special import j0

from hardy_optim import (GridMapping, GridSpec, RadialPotential, SmoothFn,
                         hardy_quotient, lambda_limit, oracle, poincare_check,
                         potentials, reduced_rayleigh_min, weighted_eigen)
from hardy_optim.errors import (BoundaryConditionViolated, DegenerateDenominator,
                                DomainError, HardyError, IndefiniteForm,
                                NonMonotoneSequence, SingularMass)

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


@pytest.mark.parametrize("n", [1, 2])
def test_lambda_limit_rejects_low_dimension(constant_pot, n):
    # n = 2 once returned 5.7826 from twelve identical mu = 0 solves (mu_2 = 0),
    # n = 1 an IndefiniteForm from a negative weight integral
    with pytest.raises(DomainError, match="dimension"):
        lambda_limit(constant_pot, n, 1.0)


def test_lambda_limit_nonmonotone_guard(constant_pot, monkeypatch):
    # a sequence that rises along mu must be reported, not extrapolated
    rising = iter(np.linspace(1.0, 2.0, 12))
    monkeypatch.setattr(oracle, "_smallest_eigenpair",
                        lambda *args: (float(next(rising)), None, 0.0, 1))
    with pytest.raises(NonMonotoneSequence):
        lambda_limit(constant_pot, 3, 1.0)


def test_lambda_limit_deep_cutoff_is_monotone(constant_pot):
    # the sequence that once rose at this cutoff came from unconverged solves
    deep = GridSpec(6000, GridMapping.LOG_SPACED, 1.0, 1e-60)
    res = lambda_limit(constant_pot, 3, 1.0, grid=deep)
    assert np.all(np.diff(res.lambdas) < 0.0)
    assert res.limit == pytest.approx(Z0_SQ, rel=0.02)


def test_lambda_limit_first_solve_converges():
    # mu = mu_n / 2 on the default grid: once 11.486 after the iteration cap
    res = lambda_limit(RadialPotential.power_law(0.7, amplitude=2.0), 3, 1.0)
    assert res.lambdas[0] == pytest.approx(2.16830, rel=1e-5)


_CATALOG = {"constant": RadialPotential.constant(1.0),
            "power-1": RadialPotential.power_law(1.0),
            "power-1.8": RadialPotential.power_law(1.8)}
_CATALOG.update({f"{family.__name__}-{m}": family(m) for m in (1, 2, 3)
                 for family in (RadialPotential.adimurthi_log,
                                RadialPotential.filippas_tertikas)})


@pytest.mark.parametrize("potential", _CATALOG.values(), ids=_CATALOG.keys())
def test_lambda_limit_eigenvalues_match_lapack_bisection(potential):
    # every raw eigenvalue against an independent bisection (stebz) of the
    # symmetrically scaled pencil M^-1/2 K M^-1/2 on lambda_limit's grid
    res = lambda_limit(potential, 3, 1.0)
    grid = GridSpec(4000, GridMapping.LOG_SPACED, 1.0, 1e-40)
    k_diag, k_off, m_diag, hardy_diag = oracle._pencil(potential, grid.nodes(), 3, hardy=True)
    scale = 1.0 / np.sqrt(m_diag)
    for mu, lam in zip(res.mu_values, res.lambdas):
        ref = eigh_tridiagonal((k_diag - mu * hardy_diag) * scale ** 2,
                               k_off * scale[:-1] * scale[1:], eigvals_only=True,
                               select="i", select_range=(0, 0),
                               tol=np.finfo(float).tiny)[0]
        assert lam == pytest.approx(ref, rel=1e-8), mu


@pytest.mark.parametrize("r_min", [1e-60, 1e-80, 1e-100])
def test_weighted_eigen_deep_cutoffs(constant_pot, r_min):
    # once 1.0e8, 1.2e28 and 5.0e43 after the iteration cap, returned silently
    res = weighted_eigen(constant_pot, 0.0, 3, _grid(10_000, r_min=r_min))
    assert res.lambda1 == pytest.approx(PI_SQ, rel=1e-3)


@pytest.mark.parametrize("mu", [0.0, 0.125, 0.2499])
def test_returned_eigenvalue_is_inertia_certified(constant_pot, mu):
    # K - lambda (1 - gap) M is positive definite (no eigenvalue below) and
    # K - lambda (1 + gap) M is not (an eigenvalue within gap of lambda)
    gap = oracle._CERT_GAP
    grid = _grid(4000, r_min=1e-40)
    k_diag, k_off, m_diag, hardy_diag = oracle._pencil(constant_pot, grid.nodes(), 3, hardy=True)
    lam = weighted_eigen(constant_pot, mu, 3, grid).lambda1
    for factor, indefinite in ((1.0 - gap, False), (1.0 + gap, True)):
        info = dpttrf(k_diag - mu * hardy_diag - lam * factor * m_diag, k_off)[2]
        assert bool(info) == indefinite


def test_indefinite_stiffness_is_rejected():
    k_diag = np.full(32, 2.0)
    k_diag[5] = -1.0
    with pytest.raises(IndefiniteForm):
        oracle._smallest_eigenpair(k_diag, np.full(31, -1.0), np.ones(32))


def test_eigensolve_raises_at_the_iteration_cap(constant_pot, monkeypatch):
    # no shift above 0 ever certifies, so lambda~ never gets a close lower
    # bound; the cap must raise, not return the uncertified quotient
    factor = oracle.dpttrf
    calls = []

    def only_unshifted(d, e):
        calls.append(1)
        d, e, info = factor(d, e)
        return d, e, info if len(calls) == 1 else 1

    monkeypatch.setattr(oracle, "dpttrf", only_unshifted)
    with pytest.raises(HardyError, match="unsettled after 80"):
        weighted_eigen(constant_pot, 0.0, 3, _grid(2000))


def test_two_routes_agree_on_custom_potential(s_max):
    # wire the whole tabulated-potential path through both the shooting
    # bisection and the discretized quotient; v = 2/sqrt(r) has the exact
    # threshold (z0 * 3/4)^2 / 2 via the Bessel substitution
    from hardy_optim import best_constant
    r = np.logspace(-9, 0, 400)
    p = RadialPotential.custom(r, 2.0 / np.sqrt(r))
    analytic = (Z0 * 0.75) ** 2 / 2.0
    bc = best_constant(p, 1.0, tol=1e-6, s_max=s_max).c_best
    rr = reduced_rayleigh_min(p, _grid()).lambda1
    assert bc == pytest.approx(analytic, rel=1e-4)
    assert rr == pytest.approx(bc, rel=0.01)


def test_lambda_limit_reuses_one_assembly_exactly(monkeypatch):
    # lambda_limit assembles once and shifts the diagonal per mu: the pencil
    # it hands the eigensolver at each mu is, bit for bit, the one
    # weighted_eigen builds.  Its warm-started iteration path differs from a
    # cold solve, so the eigenvalues agree to rounding, not bitwise.
    pencils = []
    solver = oracle._smallest_eigenpair

    def spy(*args):
        pencils.append([a.tobytes() for a in args[:3]])
        return solver(*args)

    monkeypatch.setattr(oracle, "_smallest_eigenpair", spy)
    p = RadialPotential.power_law(0.5, amplitude=2.0)
    res = lambda_limit(p, 3, 1.0)
    grid = GridSpec(4000, GridMapping.LOG_SPACED, 1.0, 1e-40)
    for k, mu in enumerate(res.mu_values):
        assert res.lambdas[k] == pytest.approx(weighted_eigen(p, mu, 3, grid).lambda1, rel=1e-12)
        assert pencils[-1] == pencils[k]


def _record_factorizations(monkeypatch):
    """Wrap oracle.dpttrf; returns the list that collects each call's info
    (0 where the factorization succeeded)."""
    infos, factor = [], oracle.dpttrf

    def counted(*args):
        out = factor(*args)
        infos.append(out[2])
        return out

    monkeypatch.setattr(oracle, "dpttrf", counted)
    return infos


@pytest.mark.parametrize("potential,solves,factorizations",
                         [(RadialPotential.constant(1.0), 37, 32),
                          (RadialPotential.adimurthi_log(3), 55, 47)],
                         ids=["constant", "adimurthi_log-3"])
def test_lambda_limit_inverse_iteration_count(monkeypatch, potential, solves, factorizations):
    # one dpttrs solve per inverse-iteration step over the 12 mu, and no
    # dpttrf of a shift that fails; a cold start at every mu took 72 and 88
    # solves, and shifts aimed at lambda~(1 - gap) from the first step took
    # 38 and 59 solves with 34 and 69 factorizations (5 and 23 failed)
    calls = []
    solve = oracle.solve_banded
    monkeypatch.setattr(oracle, "solve_banded", lambda *args: calls.append(1) or solve(*args))
    infos = _record_factorizations(monkeypatch)
    lambda_limit(potential, 3, 1.0)
    assert (len(calls), len(infos)) == (solves, factorizations)
    assert not any(infos)


@pytest.mark.parametrize("potential", [RadialPotential.power_law(1.8),
                                       RadialPotential.filippas_tertikas(3)])
def test_lambda_limit_eigenvalues_are_inertia_certified(potential):
    # warm starts and predicted shifts keep every eigenvalue within the
    # certificate gap above a shift that factors positive definite
    gap = oracle._CERT_GAP
    res = lambda_limit(potential, 3, 1.0)
    grid = GridSpec(4000, GridMapping.LOG_SPACED, 1.0, 1e-40)
    k_diag, k_off, m_diag, hardy_diag = oracle._pencil(potential, grid.nodes(), 3, hardy=True)
    for mu, lam in zip(res.mu_values, res.lambdas):
        for factor, indefinite in ((1.0 - gap, False), (1.0 + gap, True)):
            info = dpttrf(k_diag - mu * hardy_diag - lam * factor * m_diag, k_off)[2]
            assert bool(info) == indefinite


@pytest.mark.parametrize("potential", [RadialPotential.power_law(1.0),
                                       RadialPotential.adimurthi_log(2)])
def test_fe_assembly_evaluates_the_potential_o1_times(monkeypatch, potential):
    # the FE mass is assembled from one array evaluation of log_weight per
    # Gauss node, not one scalar evaluation per grid node
    calls = []
    log_weight = RadialPotential.log_weight

    def spy(self, s):
        calls.append(np.size(s))
        return log_weight(self, s)

    monkeypatch.setattr(RadialPotential, "log_weight", spy)
    counts = []
    for n_nodes in (64, 4096):
        calls.clear()
        weighted_eigen(potential, 0.1, 3, _grid(n_nodes))
        reduced_rayleigh_min(potential, _grid(n_nodes))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 12
    assert min(calls) >= 4095


@pytest.mark.parametrize("module, n", [(oracle, 6), (potentials, 8)])
def test_gauss_legendre_literals_are_leggauss(module, n):
    # the rules are float literals, so that importing the package loads no
    # numpy.polynomial
    nodes, weights = np.polynomial.legendre.leggauss(n)
    assert module._GL_NODES.tobytes() == nodes.tobytes()
    assert module._GL_WEIGHTS.tobytes() == weights.tobytes()


def _lumped_exp(nodes, n):
    """The Hardy diagonal as it was lumped on its own: e^((n-2)t) at the
    Gauss points of each node's half-cells in t = ln r."""
    t = np.log(nodes)
    t_mid = 0.5 * (t[:-1] + t[1:])
    t_lo, t_hi = np.concatenate([t[:1], t_mid]), np.concatenate([t_mid, t[-1:]])
    half, mid = 0.5 * (t_hi - t_lo), 0.5 * (t_hi + t_lo)
    total = np.zeros(nodes.size)
    for xi, wi in zip(*np.polynomial.legendre.leggauss(6)):
        total += wi * np.exp((n - 2.0) * (mid + half * xi))
    return (total * half)[:-1]


@pytest.mark.parametrize("n", [3, 5])
def test_pencil_shares_its_exp_samples_with_the_hardy_weight(n):
    # the Hardy diagonal reuses the mass's e^((n-2)t) samples, bit for bit,
    # and asking for it leaves the pencil as it was
    nodes = _grid(500, r_min=1e-40).nodes()
    p = RadialPotential.adimurthi_log(2)
    *pencil, hardy = oracle._pencil(p, nodes, n, hardy=True)
    for got, want in zip(pencil, oracle._pencil(p, nodes, n)):
        assert got.tobytes() == want.tobytes()
    assert hardy.tobytes() == _lumped_exp(nodes, n).tobytes()


def _reference_pencil(p, nodes, n, hardy=False):
    """_pencil as it was assembled with temporaries: log_weight(-t) and
    e^((n-2)t) evaluated at every Gauss point for every n, and each product
    formed in a new array."""
    k_diag, k_off = oracle._stiffness(nodes, float(n - 1))
    t_nodes = np.log(nodes)
    t_mid = 0.5 * (t_nodes[:-1] + t_nodes[1:])
    t_lo = np.concatenate([t_nodes[:1], t_mid])
    t_hi = np.concatenate([t_mid, t_nodes[-1:]])
    half = 0.5 * (t_hi - t_lo)
    mid = 0.5 * (t_hi + t_lo)
    m_diag, h_diag = np.zeros(nodes.size), np.zeros(nodes.size)
    for xi, wi in zip(*np.polynomial.legendre.leggauss(6)):
        t = mid + half * xi
        e = np.exp((n - 2.0) * t)
        m_diag += wi * (p.log_weight(-t) * e)
        if hardy:
            h_diag += wi * e
    m_diag *= half
    pencil = k_diag[:-1], k_off[:-1], m_diag[:-1]
    return pencil + ((h_diag * half)[:-1],) if hardy else pencil


_TABLE_R = np.logspace(-9, 0, 400)
_PENCIL_POTENTIALS = {"constant": RadialPotential.constant(2.5),
                      "power_law": RadialPotential.power_law(1.3, amplitude=0.7),
                      "table-400": RadialPotential.custom(_TABLE_R, 2.0 / np.sqrt(_TABLE_R)),
                      "adimurthi_log": RadialPotential.adimurthi_log(2),
                      "filippas_tertikas": RadialPotential.filippas_tertikas(3)}


@pytest.mark.parametrize("hardy", [False, True], ids=["plain", "hardy"])
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("potential", _PENCIL_POTENTIALS.values(), ids=_PENCIL_POTENTIALS.keys())
def test_pencil_matches_the_reference_assembly_bitwise(potential, n, hardy):
    nodes = _grid(500, r_min=1e-40).nodes()
    got = oracle._pencil(potential, nodes, n, hardy)
    want = _reference_pencil(potential, nodes, n, hardy)
    assert len(got) == len(want) == (4 if hardy else 3)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


_COLD_POTENTIALS = {"power_law-1.8": RadialPotential.power_law(1.8),
                    "adimurthi_log-3": RadialPotential.adimurthi_log(3),
                    "filippas_tertikas-3": RadialPotential.filippas_tertikas(3)}


@pytest.mark.parametrize("potential", _COLD_POTENTIALS.values(), ids=_COLD_POTENTIALS.keys())
def test_cold_solves_are_inertia_certified(monkeypatch, potential):
    # weighted_eigen and reduced_rayleigh_min from a cold start: K - lambda
    # (1 - gap) M factors, K - lambda (1 + gap) M does not, and no shift the
    # solver tried failed to factor
    gap, mu = oracle._CERT_GAP, 0.125
    grid = _grid(4000, r_min=1e-40)
    infos = _record_factorizations(monkeypatch)
    k_diag, k_off, m_diag, hardy_diag = oracle._pencil(potential, grid.nodes(), 3, hardy=True)
    reduced = oracle._pencil(potential, grid.nodes(), 2)
    cases = [(k_diag - mu * hardy_diag, k_off, m_diag,
              weighted_eigen(potential, mu, 3, grid).lambda1),
             (*reduced, reduced_rayleigh_min(potential, grid).lambda1)]
    assert infos and not any(infos)
    for k, off, m, lam in cases:
        for scale, indefinite in ((1.0 - gap, False), (1.0 + gap, True)):
            info = dpttrf(k - lam * scale * m, off)[2]
            assert bool(info) == indefinite


def test_lambda_limit_reports_each_solves_residual(monkeypatch):
    residuals = []
    solver = oracle._smallest_eigenpair

    def spy(*args):
        out = solver(*args)
        residuals.append(out[2])
        return out

    monkeypatch.setattr(oracle, "_smallest_eigenpair", spy)
    res = lambda_limit(RadialPotential.power_law(1.0), 3, 1.0)
    assert res.residual_norms.tolist() == residuals and len(residuals) == 12
    assert np.all(res.residual_norms < 1e-6)


@pytest.mark.parametrize("j", [-200, -60, 60, 200])
def test_eigenpair_is_exact_under_a_power_of_four_mass(j):
    # the iteration is homogeneous in M: on 4^j M, cold and warm, lambda
    # comes out times 4^-j and x times 2^-j, to the bit
    k_diag, k_off, m_diag, hardy_diag = oracle._pencil(RadialPotential.constant(), _grid(2000).nodes(),
                                                       3, hardy=True)
    k_diag = k_diag - 0.1 * hardy_diag
    lam, x, res, iters = oracle._smallest_eigenpair(k_diag, k_off, m_diag)
    warm = oracle._smallest_eigenpair(k_diag, k_off, m_diag, x, 0.9 * lam)
    scaled = np.ldexp(m_diag, 2 * j)
    got = oracle._smallest_eigenpair(k_diag, k_off, scaled)
    assert (math.ldexp(got[0], 2 * j), got[2:]) == (lam, (res, iters))
    assert np.array_equal(np.ldexp(got[1], j), x)
    got = oracle._smallest_eigenpair(k_diag, k_off, scaled, np.ldexp(x, -j),
                                     math.ldexp(0.9 * lam, -2 * j))
    assert (math.ldexp(got[0], 2 * j), got[2:]) == (warm[0], warm[2:])
    assert np.array_equal(np.ldexp(got[1], j), warm[1])


@pytest.mark.parametrize("amplitude", [1e-100, 1e-80, 1e80, 1e200, 1e301, 1e305])
def test_fe_quotients_scale_with_every_float_amplitude(amplitude):
    # lambda A does not depend on A: y.My no longer over- or underflows, and
    # past 1e300, where log_weight once saturated, the mass is exact
    grid, deep = _grid(2000), _grid(400, r_min=1e-40)
    one, p = RadialPotential.constant(), RadialPotential.constant(amplitude)
    pairs = [(weighted_eigen(p, 0.1, 3, grid).lambda1, 8.8837960585),
             (reduced_rayleigh_min(p, grid).lambda1, reduced_rayleigh_min(one, grid).lambda1),
             (lambda_limit(p, 3, 1.0, deep).limit, lambda_limit(one, 3, 1.0, deep).limit)]
    for lam, expected in pairs:
        assert lam * amplitude == pytest.approx(expected, rel=1e-9)


def test_rising_power_law_mass_reads_the_exponent_where_it_saturates():
    # r^2 v = A r^-0.5 passes 1e300 toward r_min at A = 1e298, where
    # log_weight once saturated
    grid = _grid(2000)
    lam = weighted_eigen(RadialPotential.power_law(2.5, amplitude=1e298), 0.1, 3, grid).lambda1
    expected = weighted_eigen(RadialPotential.power_law(2.5), 0.1, 3, grid).lambda1
    assert lam * 1e298 == pytest.approx(expected, rel=1e-9)


def test_fe_quotients_are_dilation_invariant_past_the_float_powers_of_R():
    # on r = R rho the quotients of v are R^(alpha - 2) times those of the
    # unit ball's r^-alpha: at R = 1e300 the stiffness formed R^2 = inf and
    # weighted_eigen raised "inverse iteration unsettled after 80 steps"
    p, one = RadialPotential.power_law(1.5, r_max=1e300), RadialPotential.power_law(1.5)
    grid, unit = _grid(2000, 1e300, 1e294), _grid(2000)
    pairs = [(weighted_eigen(p, 0.1, 3, grid).lambda1, weighted_eigen(one, 0.1, 3, unit).lambda1),
             (reduced_rayleigh_min(p, grid).lambda1, reduced_rayleigh_min(one, unit).lambda1),
             (lambda_limit(p, 3, 1e300, grid).limit, lambda_limit(one, 3, 1.0, unit).limit)]
    for lam, expected in pairs:
        assert lam == pytest.approx(1e-150 * expected, rel=1e-11)


def _tri_mul(diag, off, x):
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def _reference_eigenpair(k_diag, k_off, m_diag, start=None, shift=0.0):
    """_smallest_eigenpair as it was with a new array for every product: the
    same iteration, x and M x formed afresh each step, K's row sums as K
    times a vector of ones."""
    dpttrf, solve_banded = oracle.dpttrf, oracle.solve_banded
    k = math.frexp(float(m_diag.max()))[1] // 2
    m_diag, shift = np.ldexp(m_diag, -2 * k), float(np.ldexp(shift, 2 * k))
    sigma, failed = 0.0, math.inf
    if shift > 0.0:
        d, e, info = dpttrf(k_diag - shift * m_diag, k_off)
        sigma = 0.0 if info else shift
    if not sigma:
        d, e, info = dpttrf(k_diag, k_off)
        if info:
            raise IndefiniteForm(f"K is not positive definite (LDL^T pivot {info} <= 0)")
    x = np.sqrt(np.maximum(m_diag, 1e-300)) if start is None else np.ldexp(start, k)
    mx = m_diag * x
    lam = math.inf
    for iterations in range(1, oracle._MAX_ITER + 1):
        y, _ = solve_banded(d, e, mx)
        my = m_diag * y
        y_my = float(y @ my)
        lam, lam_prev = sigma + float(y @ mx) / y_my, lam
        scale = 1.0 / math.sqrt(y_my)
        x, mx = y * scale, my * scale
        target, step = lam * (1.0 - oracle._CERT_GAP), abs(lam - lam_prev)
        aim = target if step <= oracle._CERT_GAP * lam else lam - 2.0 * step
        if sigma < aim:
            shift = aim if aim < failed else 0.5 * (sigma + failed)
            for _ in range(2):
                d_new, e_new, info = dpttrf(k_diag - shift * m_diag, k_off)
                if not info:
                    sigma, d, e = shift, d_new, e_new
                    break
                failed, shift = shift, 0.5 * (sigma + shift)
        if step <= oracle._EIG_TOL * lam and sigma >= target:
            break
    else:
        raise HardyError(f"inverse iteration unsettled after {oracle._MAX_ITER} steps")
    dx = np.diff(x)
    lam = float(_tri_mul(k_diag, k_off, np.ones_like(k_diag)) @ (x * x) - k_off @ (dx * dx))
    kx = _tri_mul(k_diag, k_off, x)
    res_norm = float(np.linalg.norm(kx - lam * m_diag * x)
                     / (np.linalg.norm(kx) + lam * np.linalg.norm(m_diag * x)))
    return float(np.ldexp(lam, -2 * k)), np.ldexp(x, -k), res_norm, iterations


def _same_eigenpair(got, want):
    return (got[0], got[1].tobytes(), got[2:]) == (want[0], want[1].tobytes(), want[2:])


_SOLVER_POTENTIALS = {**_PENCIL_POTENTIALS, **_COLD_POTENTIALS}


@pytest.mark.parametrize("potential", _SOLVER_POTENTIALS.values(), ids=_SOLVER_POTENTIALS.keys())
def test_eigenpair_matches_the_reference_solver_bitwise(potential):
    # the solver's fixed working set keeps every bit of lambda, x, the
    # residual and the iteration count: cold and warm, on the reduced and the
    # weighted pencil, and on 4^j M
    nodes = _grid(2000, r_min=1e-40).nodes()
    k_diag, k_off, m_diag, hardy_diag = oracle._pencil(potential, nodes, 3, hardy=True)
    for pencil in (oracle._pencil(potential, nodes, 2), (k_diag - 0.1 * hardy_diag, k_off, m_diag)):
        cold = _reference_eigenpair(*pencil)
        cases = [(pencil, ()), (pencil, (cold[1], 0.9 * cold[0]))]
        cases += [((*pencil[:2], np.ldexp(pencil[2], 2 * j)), ()) for j in (-60, 60)]
        for args, warm in cases:
            want = _reference_eigenpair(*args, *warm)
            assert _same_eigenpair(oracle._smallest_eigenpair(*args, *warm), want)


@pytest.mark.parametrize("potential", [RadialPotential.power_law(1.0),
                                       RadialPotential.adimurthi_log(3)],
                         ids=["power_law-1", "adimurthi_log-3"])
def test_lambda_limit_matches_the_reference_solver_bitwise(monkeypatch, potential):
    # the K - mu H buffer and the warm starts hand the solver the same
    # pencils and vectors as the reference did
    got = lambda_limit(potential, 3, 1.0)
    monkeypatch.setattr(oracle, "_smallest_eigenpair", _reference_eigenpair)
    want = lambda_limit(potential, 3, 1.0)
    assert got.limit == want.limit
    for name in ("lambdas", "extrapolants", "residual_norms"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def _peak_n_arrays(run, n):
    """Peak traced memory of run() in units of n doubles, after a first
    untraced call (which loads LAPACK)."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / (8.0 * n)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("potential, bounds", [(RadialPotential.power_law(1.0), (11, 13, 14)),
                                               (RadialPotential.adimurthi_log(3), (13, 13, 14))],
                         ids=["power_law-1", "adimurthi_log-3"])
def test_fe_working_set_is_pinned_in_n_arrays(potential, bounds):
    # at N = 10,000, with a new array for every product, the pencil peaked
    # at 15 (power law) and 19 (adimurthi_log(3)) N-arrays and both quotients
    # at 16 and 20; in fixed working sets the pencil peaks at 10 and 12,
    # reduced_rayleigh_min at 12 and weighted_eigen at 13
    grid = _grid()
    nodes = grid.nodes()
    peaks = (_peak_n_arrays(lambda: oracle._pencil(potential, nodes, 3, hardy=True), grid.N),
             _peak_n_arrays(lambda: reduced_rayleigh_min(potential, grid), grid.N),
             _peak_n_arrays(lambda: weighted_eigen(potential, 0.1, 3, grid), grid.N))
    assert all(peak <= bound for peak, bound in zip(peaks, bounds)), peaks


@pytest.mark.parametrize("entry", ["reduced_rayleigh_min", "weighted_eigen", "lambda_limit",
                                   "lambda_limit-default-grid"])
def test_fe_quotients_refuse_a_grid_past_the_potentials_domain(entry):
    # on r_max = 1 a grid out to R = 4 once answered (0.36145 from the reduced
    # quotient, the extrapolated c(V) of R = 4) where best_constant,
    # feasible, dual_lower_bound, hardy_quotient and value raise
    p = RadialPotential.power_law(1.0, r_max=1.0)
    grid = GridSpec(2000, GridMapping.LOG_SPACED, 4.0, 4e-6)
    calls = {"reduced_rayleigh_min": lambda: reduced_rayleigh_min(p, grid),
             "weighted_eigen": lambda: weighted_eigen(p, 0.1, 3, grid),
             "lambda_limit": lambda: lambda_limit(p, 3, 4.0, grid),
             "lambda_limit-default-grid": lambda: lambda_limit(p, 3, 4.0)}
    with pytest.raises(DomainError, match=r"radius 4\.0 outside \(0, r_max = 1\.0\]"):
        calls[entry]()


def test_lambda_limit_refuses_a_grid_that_ends_elsewhere():
    # a grid ending at 0.5 once answered 3.0009, the limit of R = 0.5, for R = 1
    grid = GridSpec(2000, GridMapping.LOG_SPACED, 0.5, 1e-30)
    with pytest.raises(DomainError, match="ends at 0.5, not at R = 1.0"):
        lambda_limit(RadialPotential.power_law(1.0), 3, 1.0, grid=grid)


# ---------------------------------------------------------------------------
# weighted one-dimensional inequality
# ---------------------------------------------------------------------------

def _j0_profile():
    return SmoothFn(
        lambda r: j0(Z0 * r),
        lambda r: -Z0 * _bessel_j1(Z0 * r),
        lambda r: -Z0 * Z0 * j0(Z0 * r) + (Z0 * _bessel_j1(Z0 * r) / r
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
    j1 = np.array([_bessel_j1(Z0 * ri) for ri in r])
    u = j0(Z0 * r) / np.sqrt(r)
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


def test_quotient_refuses_a_mass_past_the_largest_double():
    # v is inf where v r^2 passes the largest double, or r^2 underflows (r
    # below 1.5e-154): the mass is then inf, or nan from inf * u(R)^2 = 0,
    # and the old `denominator <= 1e-300` check let nan through
    r = np.geomspace(1e-8, 1.0, 16)
    r[-1] = 1.0
    with pytest.raises(DegenerateDenominator):      # mass inf
        hardy_quotient(r, 1.0 - r, RadialPotential.adimurthi_log(1, amplitude=1e300), 3, 1.0)
    r = np.geomspace(1e-170, 1e-160, 16)
    r[-1] = 1e-160
    with pytest.raises(DegenerateDenominator):      # mass nan
        hardy_quotient(r, 1.0 - r / 1e-160, RadialPotential.adimurthi_log(1, r_max=1e-160),
                       3, 1e-160, du=np.zeros_like(r))


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


def test_grid_spec_refuses_an_infinite_radius():
    # R = inf once gave the nodes [nan, inf, ...], RuntimeWarnings and an
    # unsettled eigensolve
    for mapping in GridMapping:
        with pytest.raises(DomainError, match="R = inf"):
            GridSpec(2000, mapping, math.inf, 1e-6)


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
