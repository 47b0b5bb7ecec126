import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardy_optim import RadialPotential, dual, dual_lower_bound, hardy_quotient
from hardy_optim.errors import DivergentNorm, DomainError, InvalidP, QuadratureError

from conftest import Z0_SQ


def test_essential_infimum_for_constants():
    assert dual_lower_bound(RadialPotential.constant(1.0), 1.0, 2.0, 3, 1.0).bound == 1.0
    b = dual_lower_bound(RadialPotential.constant(1.0), Z0_SQ, 2.0, 3, 1.0)
    assert b.bound == pytest.approx(Z0_SQ, rel=1e-12)
    assert b.q is None


def test_essential_infimum_of_table_sees_a_dip_between_samples():
    # The p = 2 bound once took the minimum over 4096 log-spaced samples of
    # [1e-9 R, R], an upper estimate of the infimum: a one-node dip that
    # falls between two samples went unseen.
    h = 9.0 * math.log(10.0) / 4095
    log_dip = math.log(1e-9) + 3000.5 * h
    log_r = np.concatenate([np.linspace(math.log(1e-10), log_dip - 1e-4, 50), [log_dip],
                            np.linspace(log_dip + 1e-4, 0.0, 50)])
    v = np.ones_like(log_r)
    v[50] = 0.01
    p = RadialPotential.custom(np.exp(log_r), v)
    assert dual_lower_bound(p, 2.0, 2.0, 3, 1.0).bound == pytest.approx(0.02, rel=1e-12)


def test_essential_infimum_of_table_uses_the_extrapolation_limits():
    r = np.geomspace(1e-6, 1.0, 30)
    # v rises outward at the origin: the inner extrapolation tends to 0
    rising = RadialPotential.custom(r, np.sqrt(r))
    assert dual_lower_bound(rising, 1.0, 2.0, 3, 1.0).bound == 0.0
    # v falls outward: the infimum over (0, R] is v(R), also for R < r_max
    falling = RadialPotential.custom(r, 1.0 / r)
    assert dual_lower_bound(falling, 1.0, 2.0, 3, 0.5).bound == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("alpha", [-0.5, -3.0])
def test_essential_infimum_of_power_law_vanishing_at_origin(alpha):
    # r^(-alpha) -> 0 as r -> 0: the sampled minimum at 1e-9 R was 3.16e-5
    # (alpha = -0.5) and 1e-27 (alpha = -3)
    p = RadialPotential.power_law(alpha)
    assert dual_lower_bound(p, 1.0, 2.0, 3, 1.0).bound == 0.0


def _no_refinement(*args, **kwargs):
    raise AssertionError("the infimum on log_cells needs no refinement")


_R = np.geomspace(1e-9, 2.0, 200)
_BUMPY = RadialPotential.custom(_R, 1.0 + 0.5 * np.sin(3.0 * np.log(_R)) + 1.0 / _R ** 0.3)


@pytest.mark.parametrize("p, R", [
    (RadialPotential.constant(3.0), 1.0), (RadialPotential.constant(2.0, 2.0), 0.5),
    (RadialPotential.power_law(-0.5), 1.0), (RadialPotential.power_law(0.0, 2.0), 1.0),
    (RadialPotential.power_law(1.0), 0.5), (RadialPotential.power_law(1.9, 3.0), 1.0),
    (_BUMPY, 2.0), (_BUMPY, 0.3)],
    ids=["constant", "constant-R/4", "power-0.5", "power0", "power1-R/2", "power1.9",
         "table", "table-R0.3"])
def test_essential_infimum_reads_the_cells(p, R, monkeypatch):
    # v is monotone on each cell of log_cells: the infimum is the least of
    # v(R) and v at the knots inside the ball, or 0 when v falls to the
    # origin; constants and power laws once took 4096 samples and a
    # minimize_scalar call, the log families' refinement
    monkeypatch.setattr(dual, "_golden_section", _no_refinement)
    if p.sigma < 0.0:
        expected = 0.0
    else:
        r = np.exp(-p.log_cells[0])
        expected = min(p.value(R), p.value(r[r <= R]).min(initial=math.inf))
    assert dual_lower_bound(p, 0.7, 2.0, 3, R).bound == pytest.approx(0.7 * expected,
                                                                     rel=4e-16, abs=0.0)


def test_table_rising_from_the_origin_has_a_divergent_norm():
    # flat, but its first segment rises like r^4: below r[0] the table is
    # r^4, so int (c v)^-1 r^2 dr diverges at the origin; a sigma fitted over
    # the small decades (0) gave the bound 0.2387 and divergent = false
    r = np.geomspace(1e-9, 1.0, 200)
    v = np.ones_like(r)
    v[0] = v[1] * (r[0] / r[1]) ** 4
    p = RadialPotential.custom(r, v)
    b = dual_lower_bound(p, 1.0, 1.0, 3, 1.0)
    assert b.divergent and b.bound == 0.0
    assert dual_lower_bound(p, 1.0, 2.0, 3, 1.0).bound == 0.0


@pytest.mark.parametrize("m", [2, 3])
def test_essential_infimum_of_x_family_is_not_overstated(m):
    # v dips inside the ball for m >= 2; the 4096-point sampled minimum alone
    # lay 4.7e-8 (m = 2) and 7.0e-7 (m = 3) above the infimum
    p = RadialPotential.filippas_tertikas(m)
    fine = float(np.min(p.value(np.exp(np.linspace(-1.0, 0.0, 400_001)))))
    bound = dual_lower_bound(p, 1.0, 2.0, 3, 1.0).bound
    assert fine - 1e-9 <= bound <= fine + 1e-12


def test_power_law_analytic_value():
    # q = 1: norm = 4 pi int_0^1 r * r^2 dr = pi, so the bound is 1/pi
    b = dual_lower_bound(RadialPotential.power_law(1.0), 1.0, 1.0, 3, 1.0)
    assert b.q == 1.0
    assert b.bound == pytest.approx(1.0 / math.pi, abs=1e-6)


@given(st.floats(0.25, 4.0))
def test_linearity_in_multiplier(c):
    base = dual_lower_bound(RadialPotential.power_law(1.0), 1.0, 1.0, 3, 1.0).bound
    scaled = dual_lower_bound(RadialPotential.power_law(1.0), c, 1.0, 3, 1.0).bound
    assert scaled == pytest.approx(c * base, rel=1e-9)


def test_monotone_in_p_reported():
    # on the unit ball the bound tightens as p grows for the power-law entry
    bounds = [dual_lower_bound(RadialPotential.power_law(1.0), 1.0, p, 3, 1.0).bound
              for p in (0.5, 1.0, 1.5, 2.0)]
    assert all(bounds[i] < bounds[i + 1] for i in range(len(bounds) - 1))


def test_divergent_norm_reported_as_zero():
    # v = r^3 vanishing fast at the origin: (c v)^{-q} r^2 ~ r^{-1}
    b = dual_lower_bound(RadialPotential.power_law(-3.0), 1.0, 1.0, 3, 1.0)
    assert b.divergent and b.bound == 0.0


def test_invalid_exponents():
    p = RadialPotential.constant(1.0)
    for bad in (0.0, -1.0, 2.5):
        with pytest.raises(InvalidP):
            dual_lower_bound(p, 1.0, bad, 3, 1.0)
    with pytest.raises(DomainError):
        dual_lower_bound(p, -1.0, 1.0, 3, 1.0)


def test_bound_caps_gap_of_normalized_functions():
    # wire the dual and quotient modules together: for ||u||_p = 1 the
    # (angular-complete) gap must exceed the dual bound
    p_pot = RadialPotential.power_law(1.0)
    cstar = 1.0   # any feasible multiplier works; 1 < c(V) here
    b = dual_lower_bound(p_pot, cstar, 1.0, 3, 1.0)
    r = np.exp(np.linspace(math.log(1e-6), 0.0, 20001))
    r[-1] = 1.0
    four_pi = 4.0 * math.pi
    for freq in (1, 2, 3):
        u = np.sin(freq * math.pi * r)
        du = freq * math.pi * np.cos(freq * math.pi * r)
        norm_p = four_pi * np.trapezoid(np.abs(u) * r ** 2, r)   # p = 1
        u_n, du_n = u / norm_p, du / norm_p
        denom = four_pi * np.trapezoid(p_pot_values(p_pot, r) * u_n ** 2 * r ** 2, r)
        gap = hardy_quotient(r, u_n, p_pot, 3, 1.0, du=du_n) * denom
        assert gap >= b.bound * (1.0 - 1e-6)


def p_pot_values(p_pot, r):
    return np.array([p_pot.value(float(ri)) for ri in r])


# ---------------------------------------------------------------------------
# The norm integral ln I, I = int_{s_R}^inf (c g)^(-q) e^(-(2q+n) s) ds
# ---------------------------------------------------------------------------

def _closed_form_bound(alpha, amplitude, R, c, p, n=3):
    # n omega_n I = (c A)^(-q) n omega_n R^(q alpha + n) / (q alpha + n)
    q = p / (2.0 - p)
    volume = n * math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    return c * amplitude * (volume * R ** (q * alpha + n) / (q * alpha + n)) ** (-1.0 / q)


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 1.9])
def test_cell_integral_matches_the_closed_form(p):
    # constants and power laws over the bench ranges: one exact inner cell
    worst = 0.0
    for alpha in np.linspace(0.0, 1.9, 11):
        for amplitude in np.geomspace(0.05, 20.0, 5):
            for R in np.geomspace(0.25, 4.0, 5):
                pot = (RadialPotential.constant(amplitude, R) if alpha == 0.0
                       else RadialPotential.power_law(alpha, amplitude, R))
                bound = dual_lower_bound(pot, 1.3, p, 3, R).bound
                worst = max(worst, abs(bound / _closed_form_bound(alpha, amplitude, R, 1.3, p) - 1.0))
    assert worst <= 1e-13


@pytest.mark.parametrize("p", [0.5, 1.0, 1.9])
def test_cell_integral_of_a_table_sums_its_cells(p):
    # a table sampled from a power law is that power law, cell by cell,
    # also on a ball smaller than its last radius
    r = np.geomspace(1e-6, 2.0, 60)
    table = RadialPotential.custom(r, 3.0 * r ** -1.2)
    for R in (2.0, 0.7):
        bound = dual_lower_bound(table, 0.9, p, 3, R).bound
        assert bound == pytest.approx(_closed_form_bound(1.2, 3.0, R, 0.9, p), rel=1e-13)


def _quad_log_integral(pot, c, q, n, R):
    """ln I by scipy.integrate.quad on e^(f - max f), f the log integrand,
    split at the sampled maximum."""
    from scipy import integrate
    s_R = -math.log(R)

    def f(s):
        return -q * math.log(c * pot.log_weight(s)) - (2.0 * q + n) * (s - s_R)

    grid = s_R + np.geomspace(1e-12, 1e3, 2000)
    values = [f(s) for s in grid]
    top, peak = max(values), float(grid[int(np.argmax(values))])
    total = 0.0
    for lo, hi in ((s_R, peak), (peak, peak + 10.0), (peak + 10.0, math.inf)):
        total += integrate.quad(lambda s: math.exp(f(s) - top), lo, hi, epsabs=0.0,
                                epsrel=1e-12, limit=500)[0]
    return top + math.log(total) - (2.0 * q + n) * s_R


_FAMILIES = {"log": RadialPotential.adimurthi_log, "x": RadialPotential.filippas_tertikas}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("family", _FAMILIES)
def test_exp_sinh_rule_matches_quad(family, m):
    # the two log families at their floors (rho, d), amplitude and p over
    # the bench ranges and up to p = 1.99, where (c v)^(-q) overflowed
    for amplitude, c in ((0.05, 5.0), (1.0, 0.7), (20.0, 0.01)):
        pot = _FAMILIES[family](m, amplitude=amplitude)
        for p in (0.1, 1.0, 1.5, 1.99):
            q = p / (2.0 - p)
            for R in (1.0, 0.5):
                rule = dual._exp_sinh_log_integral(pot, c, q, 3, -math.log(R))
                assert math.exp(rule - _quad_log_integral(pot, c, q, 3, R)) == pytest.approx(
                    1.0, rel=1e-10, abs=0.0), (amplitude, p, R)


def test_exp_sinh_rule_raises_when_it_does_not_settle(monkeypatch):
    monkeypatch.setattr(dual, "_DE_LEVELS", 1)
    with pytest.raises(QuadratureError):
        dual_lower_bound(RadialPotential.adimurthi_log(1), 1.0, 1.0, 3, 1.0)


@pytest.mark.parametrize("c, expected", [(1e-3, 9.928277938747e-4), (1e3, 992.8277938747)])
def test_bound_near_p_2_is_taken_in_log_space(c, expected):
    # c A (omega_3)^(-1/q) at q = 199: (c v)^(-q) = 1e597 raised
    # OverflowError, and at c = 1e3 the norm 1e-597 read as 0 (DivergentNorm)
    b = dual_lower_bound(RadialPotential.constant(1.0), c, 1.99, 3, 1.0)
    assert b.bound == pytest.approx(expected, rel=1e-12) and not b.divergent


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_log_family_bound_near_p_2_is_finite():
    # iterated-log m = 3, A = 0.05: (c v)^(-q) overflowed under quad
    pot = RadialPotential.adimurthi_log(3, amplitude=0.05)
    b = dual_lower_bound(pot, 5.0, 1.99, 3, 1.0)
    q = 1.99 / 0.01
    ref = math.exp(-(math.log(4.0 * math.pi) + _quad_log_integral(pot, 5.0, q, 3, 1.0)) / q)
    assert b.bound == pytest.approx(ref, rel=1e-12) and not b.divergent


def test_a_bound_beyond_the_floats_is_a_divergent_norm():
    # c A (omega_3)^(-1/q) = 1e600 is no float: an explicit error, not inf
    with pytest.raises(DivergentNorm):
        dual_lower_bound(RadialPotential.constant(1e300), 1e300, 1.99, 3, 1.0)
