import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardy_optim import RadialPotential, dual_lower_bound, hardy_quotient
from hardy_optim.errors import DomainError, InvalidP

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
