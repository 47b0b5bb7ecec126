import functools
import itertools
import math
import sys
import timeit
import warnings

import numpy as np
import pytest

from hardy_optim import (Domain, RadialPotential, ShootingOutcome, Status, TailCertificate,
                         best_constant, euler_tail_certificate, feasible, integrate,
                         integrate_principal_tail, log_problem, radius_problem, radius_rows,
                         residual, riccati_check, to_log_domain)
from hardy_optim.errors import (DomainError, GridTooCoarse, IndeterminateAtHorizon,
                                NonPositiveTrajectory, UnsupportedSingularity)
from hardy_optim.ode import _fundamental, _segments, _transfer

from conftest import Z0, power_law_zero


# ---------------------------------------------------------------------------
# recessive initialization: the exact inner-cell state against the Frobenius
# series y = 1 - c A r^(2-sigma)/(2-sigma)^2 + O(r^(2(2-sigma)))
# ---------------------------------------------------------------------------

def _radius_state(out, r):
    """(y, dy/dr) of a shot at radius r, from its dense output of s = ln(1/r)."""
    z, dz = out.dense(-np.log(r))
    return np.array([z, -dz / r])


def _recessive_state(p, c, r, R=1.0):
    """(y, dy/dr) of the recessive shot at radius r."""
    return _radius_state(integrate(radius_problem(p, c, R)), r)


def test_frobenius_constant():
    y0, dy0 = _recessive_state(RadialPotential.constant(1.0), 1.0, 1e-4)
    # series of the J0 equation: y = 1 - r^2/4 + O(r^4)
    assert y0 == pytest.approx(1.0 - 2.5e-9, abs=1e-16)
    assert dy0 == pytest.approx(-5e-5, rel=1e-7)


def test_frobenius_power_law():
    y0, dy0 = _recessive_state(RadialPotential.power_law(1.0), 1.0, 1e-4)
    # A = 1, sigma = 1: y = J0(2 sqrt(r)) = 1 - r + r^2/4 - ..., whose first
    # correction r/(2-1)^2 and slope -1 are the series' leading terms
    assert y0 == pytest.approx(1.0 - 1e-4 + 2.5e-9, rel=1e-14)
    assert dy0 == pytest.approx(-1.0 + 0.5e-4 - 1e-8 / 12.0, rel=1e-12)


def test_frobenius_zero_amplitude():
    out = integrate(radius_problem(RadialPotential.constant(0.0), 1.0, 1.0))
    assert tuple(_radius_state(out, 1e-4)) == (1.0, 0.0)


def test_frobenius_rejects_critical():
    # the log families have no cells; sigma >= 2 has no recessive J0 branch
    with pytest.raises(UnsupportedSingularity):
        integrate(radius_problem(RadialPotential.adimurthi_log(1), 0.2, 1.0))
    with pytest.raises(UnsupportedSingularity):
        integrate(radius_problem(RadialPotential.power_law(2.5), 0.2, 1.0))
    with pytest.raises(UnsupportedSingularity):
        integrate(radius_problem(RadialPotential.filippas_tertikas(1), 0.2, 1.0))


def test_recessive_normalization():
    # r y'/y -> 0 at r = 0, within 10x the series correction size
    for p, c in [(RadialPotential.constant(1.0), 1.0),
                 (RadialPotential.power_law(1.5), 0.5)]:
        ratios = []
        for r in (1e-4, 1e-6, 1e-8):
            y0, dy0 = _recessive_state(p, c, r)
            correction = c * r ** (2.0 - p.sigma) / (2.0 - p.sigma) ** 2
            ratios.append(abs(r * dy0 / y0))
            assert ratios[-1] <= 10.0 * correction
        assert ratios[0] > ratios[1] > ratios[2]


# ---------------------------------------------------------------------------
# shooting
# ---------------------------------------------------------------------------

def test_first_zero_is_bessel_zero():
    p = RadialPotential.constant(1.0, r_max=10.0)
    out = integrate(radius_problem(p, 1.0, 10.0))
    assert out.status is Status.ZERO_FOUND
    assert out.first_zero == pytest.approx(Z0, abs=1e-9)


def test_no_zero_below_bessel_zero():
    p = RadialPotential.constant(1.0, r_max=2.0)
    out = integrate(radius_problem(p, 1.0, 2.0))
    assert out.status is Status.NO_ZERO_ON_INTERVAL
    assert out.first_zero is None


def test_zero_amplitude_stays_at_one():
    out = integrate(radius_problem(RadialPotential.constant(0.0), 1.0, 1.0))
    assert out.status is Status.NO_ZERO_ON_INTERVAL
    assert np.all(out.trajectory["z"] == 1.0)


@pytest.mark.parametrize("p", [
    RadialPotential.constant(2.0), RadialPotential.power_law(1.5),
    RadialPotential.custom(np.geomspace(1e-6, 1.0, 40), 1.0 + 5.0 / np.geomspace(1e-6, 1.0, 40)),
    RadialPotential.power_law(2.5)], ids=["constant", "power_law", "custom", "supercritical"])
def test_zero_multiplier_is_the_line_without_a_cell_sweep(p, monkeypatch):
    # at c = 0 every sweep entering with z' = 0 is z = 1, for the cell kinds
    # as for the log families: two samples, no transfer matrices
    import hardy_optim.ode as ode_mod

    def no_sweep(*args):
        raise AssertionError("a cell sweep ran at c = 0")

    monkeypatch.setattr(ode_mod, "_cell_sweep", no_sweep)
    prob = radius_problem(p, 0.0, 1.0)
    if p.tail.log_domain:
        prob = to_log_domain(prob)
    out = integrate(prob)
    s, z, dz = out.trajectory.values()
    assert out.status is not Status.ZERO_FOUND
    assert z.tolist() == [1.0, 1.0] and dz.tolist() == [0.0, 0.0]
    assert tuple(out.dense(s[0])) == (1.0, 0.0)


@pytest.mark.parametrize("p", [RadialPotential.constant(0.0),
                               RadialPotential.adimurthi_log(2, amplitude=0.0)],
                         ids=["constant", "adimurthi_log"])
@pytest.mark.parametrize("shift", [-1.0, 9.5])
def test_vanishing_sweep_with_a_slope_is_the_exact_line(p, shift, monkeypatch):
    # a non-oscillatory certificate with gamma > 0, built by hand on an a = 0
    # problem, seeds the principal tail with z' > 0: the sweep is the line
    # z = 1 + z'(s - s_top), ending at its zero if it crosses 0; it once ran a
    # cell sweep (a cell model of a = 0) or DOP853
    import hardy_optim.ode as ode_mod

    def no_sweep(*args, **kwargs):
        raise AssertionError("a vanishing coefficient was swept")

    monkeypatch.setattr(ode_mod, "_cell_sweep", no_sweep)
    monkeypatch.setattr(ode_mod, "_euler_sweep", no_sweep)
    prob = log_problem(p, 1.0, 1.0, s_max=10.0)
    cert = TailCertificate("nonoscillatory", 0.25, shift, (10.0, math.inf))
    out = integrate_principal_tail(prob, cert)
    slope = 0.5 / (10.0 - shift)    # mu / (s_top - shift), mu = 1/2 at gamma = 1/4
    s, z, dz = (out.trajectory[k] for k in ("s", "z", "dz"))
    assert np.all(dz == slope)
    if shift < 0.0:    # z(R) = 1 - 10 / 22 > 0: no zero on the ball
        assert out.status is Status.NO_ZERO_ON_INTERVAL and out.zero_s is None
        assert s.tolist() == [0.0, 10.0]
        assert z.tolist() == [1.0 - 10.0 * slope, 1.0]
    else:              # z = 1 + (s - 10) vanishes at s = 9
        assert out.status is Status.ZERO_FOUND and out.zero_s == 9.0
        assert s.tolist() == [9.0, 10.0] and z.tolist() == [0.0, 1.0]
    np.testing.assert_array_equal(out.dense(s), [z, dz])
    with pytest.raises(DomainError):
        out.dense(s[0] - 1e-6)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_power_law_zeros_match_analytic(alpha):
    p = RadialPotential.power_law(alpha, r_max=50.0)
    out = integrate(radius_problem(p, 1.0, 50.0))
    assert out.first_zero == pytest.approx(power_law_zero(alpha, 1.0), rel=1e-9)


@pytest.mark.parametrize("alpha", [round(0.1 * k, 1) for k in range(20)])
def test_zero_in_a_cell_takes_few_phase_evaluations(alpha, monkeypatch):
    # Newton steps on the monotone Bessel phase, from the inverse of its
    # large-x form, take at most 3 phase evaluations per zero (brentq took
    # 6-17 here, and imported scipy.optimize), and land on the cell's
    # closed-form zero x = z0, s* = (2/|q|) ln(2 sqrt(c A) / (z0 |q|)), to
    # the rounding of the phase's argument (which the sweep anchors at s ~ 20)
    import hardy_optim.ode as ode_mod
    calls = []
    phase_root = ode_mod._phase_root
    monkeypatch.setattr(ode_mod, "_phase_root", lambda phase, *a: phase_root(
        lambda s: calls.append(1) or phase(s), *a))
    q = alpha - 2.0
    for amplitude, R, f in itertools.product((0.05, 1.0, 20.0), (0.25, 1.0, 4.0),
                                             (1.0 + 1.25e-7, 1.001, 30.0)):
        p = RadialPotential.constant(amplitude, R) if alpha == 0.0 else \
            RadialPotential.power_law(alpha, amplitude, R)
        c = f * (Z0 * q / 2.0) ** 2 * R ** q / amplitude    # f c(V)
        calls.clear()
        out = integrate(radius_problem(p, c, R))
        assert out.status is Status.ZERO_FOUND and 0 < len(calls) <= 3, (amplitude, R, calls)
        exact = 2.0 / -q * math.log(2.0 * math.sqrt(c * amplitude) / (Z0 * -q))
        assert out.zero_s == pytest.approx(exact, rel=8.0 * 2.0 ** -52, abs=2e-14)


def test_recessive_zero_below_every_float_radius():
    # where J0(x) already vanishes beyond s = 700, the shot is that zero,
    # x = z0 on the inner cell, with no trajectory; it raised
    # UnsupportedSingularity
    for alpha in (1.999, 1.9999):
        q = alpha - 2.0
        out = integrate(radius_problem(RadialPotential.power_law(alpha), 1.0, 1.0))
        assert out.status is Status.ZERO_FOUND and out.first_zero == 0.0
        assert out.zero_s == pytest.approx(2.0 / -q * math.log(2.0 / (Z0 * -q)), rel=1e-13)
        assert all(column.size == 0 for column in out.trajectory.values())


def test_trajectory_positive_before_zero():
    p = RadialPotential.constant(1.0, r_max=10.0)
    out = integrate(radius_problem(p, 1.0, 10.0))
    z = out.trajectory["z"]    # in increasing s: the zero is the first row
    assert np.all(z[1:] > 0.0)


def test_zero_bracket_tightness():
    # the refined zero sits within 1e-12 R of the true crossing: the
    # solution is still positive one width below it and essentially zero
    # at it (the dense range ends at the event, so probe from the left)
    p = RadialPotential.constant(1.0, r_max=10.0)
    out = integrate(radius_problem(p, 1.0, 10.0))
    width = 1e-12 * 10.0
    assert _radius_state(out, out.first_zero - 5 * width)[0] > 0.0
    slope = abs(_radius_state(out, out.first_zero)[1])
    assert abs(_radius_state(out, out.first_zero)[0]) <= 10 * width * slope


def test_sturm_zero_monotonicity():
    # larger multiplier, earlier first zero
    p = RadialPotential.power_law(1.0, r_max=30.0)
    zeros = []
    for c in (0.5, 1.0, 2.0, 4.0):
        out = integrate(radius_problem(p, c, 30.0))
        zeros.append(out.first_zero)
    assert all(zeros[i + 1] < zeros[i] + 1e-10 for i in range(len(zeros) - 1))


# ---------------------------------------------------------------------------
# exact cell sweeps
# ---------------------------------------------------------------------------

def test_first_zero_inside_a_cell_with_two_zeros():
    # v = 1 tabulated on [1e-3, 6]: one cell holds both J0 zeros below 6 and
    # J0(6) > 0, so a sign test at the knots sees no zero at all
    p = RadialPotential.custom(np.array([1e-3, 6.0]), np.array([1.0, 1.0]))
    out = integrate(radius_problem(p, 1.0, 6.0))
    assert out.status is Status.ZERO_FOUND
    assert out.first_zero == pytest.approx(Z0, abs=1e-12)
    assert radius_rows(out)["r"][-1] == out.first_zero


def test_flat_cell_propagates_by_cos_and_sin():
    # v = r^-2: q = 0 on the cell between the knots, a = c, z = cos(2 (s - s_start))
    p = RadialPotential.custom(np.array([1e-3, 1.0]), np.array([1e6, 1.0]))
    lp = log_problem(p, 4.0, 1.0, s_max=5.0)
    assert p.log_cells[3][1] == 0.0
    out = integrate(lp)
    s_start = 1e-9
    assert out.first_zero == pytest.approx(math.exp(-(s_start + math.pi / 4.0)), rel=1e-14)
    s = out.trajectory["s"]
    np.testing.assert_allclose(out.trajectory["z"], np.cos(2.0 * (s - s_start)), atol=1e-14)
    np.testing.assert_allclose(out.trajectory["dz"], -2.0 * np.sin(2.0 * (s - s_start)),
                               atol=1e-14)


@pytest.mark.parametrize("eps", [1e-10, 1e-8, 1e-6, 1e-4])
def test_nearly_flat_cell_keeps_its_zero(eps):
    # v = r^(-2 + eps): q = -eps, x = 2 sqrt(a) / eps is huge, where Z0(x)
    # in plain float loses ~eps x of phase and cos / sin at one frequency
    # ~eps h; the modulus-phase form keeps the zero to rounding
    from scipy.integrate import solve_ivp
    p = RadialPotential.custom(np.array([1e-3, 1.0]), np.array([1e-3 ** (-2.0 + eps), 1.0]))
    out = integrate(log_problem(p, 50.0, 1.0, s_max=6.0))

    def crossing(s, u):
        return u[0]
    crossing.terminal = True
    ref = solve_ivp(lambda s, u: (u[1], -50.0 * p.log_weight(s) * u[0]), (1e-9, 6.0),
                    (1.0, 0.0), method="DOP853", rtol=1e-13, atol=1e-15, events=crossing)
    assert -math.log(out.first_zero) == pytest.approx(ref.t_events[0][0], abs=1e-12)


@pytest.mark.parametrize("p, c, s_from, s_to", [
    (RadialPotential.custom(np.geomspace(1e-8, 1.0, 60),
                            np.geomspace(1e-8, 1.0, 60) ** -0.5 + 10.0
                            * np.geomspace(1e-8, 1.0, 60) ** 2), 50.0, 40.0, 0.0),
    (RadialPotential.power_law(1.999), 3e-6, 1e3, 0.0),       # x ~ 1, Y0 ~ 1
    (RadialPotential.constant(1.0), 1.0, 0.0, 1e6),           # x underflows, Y0 ~ -1e6
    (RadialPotential.constant(1.0), 1e6, 0.0, 5.0),           # x from 1e3 down to 7
    (RadialPotential.constant(1.0), 1e12, 0.0, 5.0),          # modulus-phase form
    (RadialPotential.custom(np.array([1e-3, 1.0]), np.array([1e6, 1.0])), 4.0, 0.0, 5.0)])
def test_transfer_matrices_have_unit_determinant(p, c, s_from, s_to):
    seg = _segments(radius_problem(p, c, 1.0), s_from, s_to)
    idx = np.arange(seg.u.size)
    t11, t12, t21, t22 = _transfer(_fundamental(seg, idx, seg.u), _fundamental(seg, idx, seg.w))
    np.testing.assert_allclose(t11 * t22 - t12 * t21, 1.0, rtol=0.0, atol=1e-12)


def _slope_tables():
    """(name, table) pairs for the Pruefer slope identity."""
    r = np.geomspace(1e-8, 1.0, 400)
    yield "exp(3r)", RadialPotential.custom(r, np.exp(3.0 * r))
    yield "item 17", RadialPotential.custom(r, (1.0 + r ** -1.2) * (1.0 + 0.5 * np.sin(40.0 * r)))
    # v = r^-2 exactly on the nodes 2^-14 .. 2^-10, so r^2 v is flat there
    # (q = 0, the cos / sin form), r^-1.5 on either side
    k = np.arange(30.0, -1.0, -1.0)
    rise = np.where(k < 10.0, 20.0 + 1.5 * (k - 10.0), 28.0 + 1.5 * (k - 14.0))
    v = np.where((k >= 10.0) & (k <= 14.0), 4.0 ** k, 2.0 ** rise)
    yield "flat decade", RadialPotential.custom(2.0 ** -k, v)
    yield "1e8 exp(3r)", RadialPotential.custom(r, 1e8 * np.exp(3.0 * r))
    # a thin shell where r^2 v is near-flat (q = -0.1) and x ~ 6e3: the
    # modulus-phase form on a sloped cell
    e = np.array([1e-7, 1e-4, 1.001e-4])
    spike = 1e10 * ((1.0 + e[1]) / (1.0 + e[0])) ** -2 * 1.00001
    r = np.concatenate([np.geomspace(1e-8, 0.9, 60), 0.9 + 0.9 * e, [1.0]])
    yield "thin shell", RadialPotential.custom(r, np.append(np.ones(60), [1e10, spike, 1.0, 1.0]))


@pytest.mark.parametrize("name, p", [pytest.param(n, p, id=n) for n, p in _slope_tables()])
def test_sweep_mass_is_the_pruefer_slope_of_the_margin(name, p):
    # the c-derivative of the Pruefer angle at R is the integral of g z^2
    # from r = 0 over z^2 + (dz/ds)^2 there (Pryce 1993, Ch. 5): the margin,
    # pi less that angle or ln(1/R) - s* past a zero, falls at that rate
    c_star = best_constant(p, 1.0).c_best
    for c in (0.5 * c_star, 1.2 * c_star):
        out = integrate(radius_problem(p, c, 1.0))
        _, z, dz = out.end.values()
        h = 1e-6 * c
        slope = (feasible(p, c + h, 1.0).margin - feasible(p, c - h, 1.0).margin) / (2.0 * h)
        mass = out.c_mass / c
        assert mass / (z * z + dz * dz) == pytest.approx(-slope, rel=1e-6), (name, c)
    assert name != "flat decade" or np.count_nonzero(p.log_cells[3] == 0.0) == 4


def test_sweep_from_bessel_into_modulus_phase_segments():
    # v = 1 up to r = 0.5, then a jump to 1e8: the recessive sweep crosses
    # Bessel segments (x <= 1) into one with x >= 5e3 before its first zero,
    # so one _fundamental call holds both forms; against a tight DOP853
    # solve of y'' + y'/r + c v y = 0, split at the knots.  The modulus once
    # read P = 1 + p^2/8: dy/dr then missed by p^2/4 ~ 1e-8 relative (3e-12
    # now)
    from scipy import special
    from scipy.integrate import solve_ivp
    r = np.array([1e-3, 0.5, 0.5 * (1.0 + 1e-6), 1.0])
    p = RadialPotential.custom(r, np.array([1.0, 1.0, 1e8, 1e8]))
    prob = radius_problem(p, 1.0, 1.0)
    seg = _segments(prob, -math.log(1e-8), 0.0)
    assert seg.bessel[:-1].all() and not seg.bessel[-1]
    out = integrate(prob)

    def crossing(t, y):
        return y[0]
    crossing.terminal = True
    state, pieces = (special.j0(r[0]), -special.j1(r[0])), []
    for a, b in zip(r[:-1], r[1:]):
        sol = solve_ivp(lambda t, y: (y[1], -y[1] / t - p.value(t) * y[0]), (a, b), state,
                        method="DOP853", rtol=1e-13, atol=1e-15, events=crossing,
                        dense_output=True)
        pieces.append(sol)
        state = sol.y[:, -1]
    zero = pieces[-1].t_events[0][0]
    assert out.status is Status.ZERO_FOUND
    assert out.first_zero == pytest.approx(zero, rel=1e-12)
    for piece, radius in ((pieces[0], 0.25), (pieces[1], 0.5 * (1.0 + 5e-7)),
                          (pieces[2], 0.50001), (pieces[2], 0.5001), (pieces[2], 0.50015)):
        np.testing.assert_allclose(_radius_state(out, radius), piece.sol(radius), rtol=1e-10)


# ---------------------------------------------------------------------------
# log domain
# ---------------------------------------------------------------------------

def test_to_log_domain_coefficient_identity():
    prob = radius_problem(RadialPotential.power_law(2.0, amplitude=0.25), 1.0, 1.0)
    lp = to_log_domain(prob)
    for s in (0.5, 7.0, 300.0):
        assert lp.coefficient(s) == pytest.approx(0.25, rel=1e-14)
    cprob = radius_problem(RadialPotential.constant(1.0), 1.0, 1.0)
    assert to_log_domain(cprob).coefficient(2.0) == pytest.approx(math.exp(-4.0), rel=1e-14)


def test_log_domain_round_trip():
    prob = radius_problem(RadialPotential.power_law(0.8, amplitude=1.7), 2.3, 1.0)
    lp = to_log_domain(prob)
    # the same problem, only its frame changes
    assert lp.domain is Domain.LOG
    assert (lp.potential, lp.c, lp.R) == (prob.potential, prob.c, prob.R)
    for r in np.logspace(-8, -0.01, 9):
        # pulled-back coefficient equals r^2 c v(r) pointwise
        assert lp.coefficient(math.log(1.0 / r)) == pytest.approx(
            r * r * prob.coefficient(float(r)), rel=1e-13)
    with pytest.raises(DomainError):
        to_log_domain(lp)


def test_adimurthi_log_coefficient_is_shifted_euler():
    p = RadialPotential.adimurthi_log(1, rho=1.0, r_max=1.0 / math.e)
    lp = log_problem(p, 0.25, 1.0 / math.e)
    for s in (2.0, 10.0, 1e5):
        assert lp.coefficient(s) == pytest.approx(0.25 / s ** 2, rel=1e-13)


def test_log_shots_end_at_first_zero():
    # the outer-edge shot stops at the bisected zero, the last row in s
    out = integrate(log_problem(RadialPotential.filippas_tertikas(1), 0.5, 1.0))
    assert out.status is Status.ZERO_FOUND
    assert math.exp(-out.trajectory["s"][-1]) == out.first_zero
    assert np.all(out.trajectory["z"][:-1] > 0.0)
    # the recessive sweep runs toward decreasing s: in the radius frame its
    # zero is the last row
    rec = integrate(radius_problem(RadialPotential.power_law(0.5), 5.0, 1.0))
    assert rec.status is Status.ZERO_FOUND
    rows = radius_rows(rec)
    assert rows["r"][-1] == rec.first_zero
    assert np.all(np.diff(rows["r"]) > 0.0)


@pytest.mark.parametrize("prob", [
    log_problem(RadialPotential.adimurthi_log(1), 1e80, 1.0),
    log_problem(RadialPotential.filippas_tertikas(2), 1e40, 1.0),
    log_problem(RadialPotential.filippas_tertikas(1), 0.5, 1.0),
    log_problem(RadialPotential.power_law(2.5), 1.0, 1.0),
    radius_problem(RadialPotential.power_law(0.5), 5.0, 1.0)],
    ids=["adimurthi-1e80", "ft2-1e40", "ft1-0.5", "cell-log", "cell-radius"])
def test_zero_row_is_an_exact_zero(prob):
    # the zero row held the engine's state at the located root: z = -0.0611
    # for adimurthi_log m = 1 at c = 1e80, where the root is not resolved in
    # tau; the row is now z = 0 with the engine's slope
    out = integrate(prob)
    assert out.status is Status.ZERO_FOUND
    i = 0 if prob.domain is Domain.RADIUS else -1    # toward the edge the zero is the least s
    value, slope = (out.trajectory[k][i] for k in ("z", "dz"))
    assert value == 0.0 and slope != 0.0
    if prob.c >= 1e40:    # the energy z'^2 + a z^2 = a of the start, at the zero
        a = prob.coefficient(out.zero_s)
        assert slope == pytest.approx(-math.sqrt(a), rel=1e-2)


def test_forward_log_integration_finds_oscillation_zero():
    p = RadialPotential.adimurthi_log(1)
    out = integrate(log_problem(p, 0.35, 1.0, s_max=1e6))
    assert out.status is Status.ZERO_FOUND
    assert 0.0 < out.first_zero < 1.0


def test_forward_log_integration_horizon():
    # outer-edge shots eventually cross zero for any nonzero potential (they
    # carry the subdominant branch), so pick a horizon short of the crossing
    p = RadialPotential.constant(0.1)
    out = integrate(log_problem(p, 1.0, 1.0, s_max=5.0))
    assert out.status is Status.HORIZON_REACHED
    assert np.all(out.trajectory["z"] > 0.0)


# ---------------------------------------------------------------------------
# Euler tail certificates
# ---------------------------------------------------------------------------

def test_certificate_nonoscillatory_only_where_a_vanishes(adimurthi_1):
    # the closed form decides every c <= 1/(4A), and above it a log family
    # oscillates at infinity: only a = 0 (c = 0 or amplitude 0) has a
    # non-oscillatory tail, gamma = 0
    assert euler_tail_certificate(log_problem(adimurthi_1, 0.25, 1.0)) is None
    for family in ("adimurthi_log", "filippas_tertikas"):
        null = getattr(RadialPotential, family)(2, amplitude=0.0)
        for p, c in ((adimurthi_1, 0.0), (null, 1.0), (null, 1e300)):
            cert = euler_tail_certificate(log_problem(p, c, 1.0, s_max=1e6))
            assert cert.kind == "nonoscillatory" and cert.gamma == 0.0
            assert cert.window == (1e6, math.inf)


def test_vanishing_coefficient_is_swept_as_the_line(monkeypatch):
    # a = 0 at c > 0 (amplitude 0) is the line z = 1 for every kind: the
    # recessive shot, the outer-edge shot and the principal tail, with no
    # cell sweep and no Euler-cell sweep (the log families once took DOP853)
    import hardy_optim.ode as ode_mod
    calls = []
    for name in ("_euler_sweep", "_cell_sweep"):
        real = getattr(ode_mod, name)
        monkeypatch.setattr(ode_mod, name,
                            lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k))
    for p in (RadialPotential.constant(0.0), RadialPotential.power_law(1.0, 0.0),
              RadialPotential.adimurthi_log(1, amplitude=0.0),
              RadialPotential.filippas_tertikas(2, amplitude=0.0)):
        prob = log_problem(p, 2.0, 1.0)
        shots = [integrate(prob), integrate_principal_tail(prob, euler_tail_certificate(prob))]
        if p.log_cells is not None:
            shots.append(integrate(radius_problem(p, 2.0, 1.0)))
        for out in shots:
            assert out.first_zero is None and out.status is not Status.ZERO_FOUND
            z = out.trajectory["z"]
            assert z.size == 2 and np.all(z == 1.0)
    assert calls == []


def test_certificate_oscillatory_above_quarter(adimurthi_1):
    cert = euler_tail_certificate(log_problem(adimurthi_1, 0.35, 1.0))
    assert cert is not None and cert.kind == "oscillatory"
    assert cert.gamma > 0.25
    # window long enough for an Euler half-oscillation
    s1, s2 = cert.window
    assert math.log((s2 - cert.shift) / (s1 - cert.shift)) >= \
        math.pi / math.sqrt(cert.gamma - 0.25)


def test_certificate_band_shrinks_with_horizon(adimurthi_1):
    at_1e4 = euler_tail_certificate(log_problem(adimurthi_1, 0.35, 1.0, s_max=1e4))
    at_1e6 = euler_tail_certificate(log_problem(adimurthi_1, 0.35, 1.0, s_max=1e6))
    assert at_1e4 is None and at_1e6 is not None


def test_certificate_none_inside_band(adimurthi_1):
    # 0.28 lies inside the band [1/4, 0.3017] of the horizon 1e6
    assert euler_tail_certificate(log_problem(adimurthi_1, 0.28, 1.0, s_max=1e6)) is None


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_tail_edges_decide_the_certificate(family):
    # the certificate is the comparison of the multiplier with the edge,
    # exactly at it included; below it, at 1/4 and under, there is none
    p = getattr(RadialPotential, family)(2)
    c_osc = p.tail.edge(1.0, 1e300)[0]
    assert 0.25 < c_osc < math.inf
    certs = [euler_tail_certificate(log_problem(p, c, 1.0))
             for c in (0.2, 0.25, np.nextafter(c_osc, 0.0), c_osc)]
    assert certs[:3] == [None, None, None]
    assert certs[3].kind == "oscillatory"
    s1, s2 = certs[3].window
    assert math.log((s2 - certs[3].shift) / (s1 - certs[3].shift)) >= \
        (1.0 - 1e-12) * math.pi / math.sqrt(certs[3].gamma - 0.25)


_FAMILIES = {"adimurthi_log": ("rho", 5.0), "filippas_tertikas": ("d_scale", 3.0)}


def _gamma(p, s, s0):
    """a (s - s0)^2 at c = 1, saturated as ``EulerTail.edge`` saturates it."""
    with np.errstate(over="ignore"):
        return np.minimum(p.log_weight(s) * (s - s0) ** 2, 1e300)


@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_gamma_is_non_increasing_at_the_hint_shift(family, m, scaled):
    # Fact 1, which EulerTail.edge takes as given: at the tail's shift s0,
    # gamma = g (s - s0)^2 is A (1 + sum of products of squared inverse logs
    # or of squared X's), non-increasing toward A, whatever rho or d
    key, factor = _FAMILIES[family]
    s = np.geomspace(1e-9, 1e150, 20001)
    for amplitude in (0.05, 1.0, 20.0):
        p = getattr(RadialPotential, family)(m, amplitude=amplitude)
        if scaled:
            p = getattr(RadialPotential, family)(m, **{key: factor * getattr(p, key)},
                                                 amplitude=amplitude)
        gamma = _gamma(p, s, p.tail.s0)
        assert np.all(np.diff(gamma) <= 1e-15 * gamma[1:]), (family, m, amplitude)
        assert gamma[-1] >= amplitude * (1.0 - 1e-15)


def _tail_cases():
    for family, m, amplitude in itertools.product(sorted(_FAMILIES), (1, 2, 3),
                                                  (0.05, 1.0, 20.0)):
        yield getattr(RadialPotential, family)(m, amplitude=amplitude)


@pytest.mark.parametrize("s_max", [1e4, 1e6, 1e30, 1e150])
def test_tail_edges_hold_on_a_dense_grid(s_max):
    # every edge is a certificate: gamma on the returned oscillation window
    # is at least its gamma, and the window holds an Euler half-oscillation
    # at c_osc; beyond the horizon gamma stays at most that gamma too, the
    # bound B = gamma(s_max) of ``classify``
    for p, R in itertools.product(_tail_cases(), (1.0, 0.5)):
        c_osc, (gamma, shift, (s1, s2)) = p.tail.edge(R, s_max)
        assert 0.0 < c_osc < math.inf
        assert -math.log(R) < s1 < s2 <= s_max
        s = shift + np.geomspace(s1 - shift, s2 - shift, 20001)[1:-1]
        assert np.all(_gamma(p, s, shift) >= gamma * (1.0 - 1e-12)), p
        length = math.log((s2 - shift) / (s1 - shift))
        assert length >= (1.0 - 1e-12) * math.pi / math.sqrt(c_osc * gamma - 0.25)
        s = np.geomspace(s_max, 1e3 * s_max, 20001)
        assert np.all(_gamma(p, s, shift) <= gamma * (1.0 + 1e-12)), p


def test_tail_edges_gamma_is_the_horizon_value():
    # gamma at the horizon, not a sampled maximum from a fitted shift: the
    # sampler's gave 1/4 over 0.248551 here
    p = RadialPotential.adimurthi_log(2)
    _, (gamma, shift, _) = p.tail.edge(1.0, 1e6)
    assert gamma <= 0.25 / 0.24869
    assert shift == p.tail.s0
    # at m = 1 gamma is A = 1 and is clipped below at A, so it is 1 (at s_max
    # = 1e6 the X family's gamma rounds one ulp above 1 at the horizon, and
    # the edge's, the smaller, is 1)
    for s_max in (1e4, 1e6, 1e30, 1e150):
        for family in _FAMILIES:
            one = getattr(RadialPotential, family)(1).tail.edge(1.0, s_max)
            assert one[1][0] == 1.0


def test_tail_edges_evaluate_the_potential_once(monkeypatch):
    # gamma at the outer edge and at the horizon, by two scalar gamma
    # evaluations at tau = ln(s - s0), and g itself not at all
    from hardy_optim.potentials import EulerTail
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)
        return lambda self, x: calls.append((name, np.shape(x))) or real(self, x)

    monkeypatch.setattr(RadialPotential, "log_weight", spy(RadialPotential, "log_weight"))
    monkeypatch.setattr(EulerTail, "gamma", spy(EulerTail, "gamma"))
    for p in _tail_cases():
        calls.clear()
        p.tail.edge(1.0, 1e300)
        assert calls == [("gamma", ())] * 2


def _pair_search_edges(p, R, s_max):
    """The oscillatory edge of a log family as the pair search over 100
    window ends found it: the least multiplier over all pairs of ends
    geometric in s - s0, inside the horizon, with (gamma, s0, window) at c = 1."""
    lo = -math.log(R) + 1e-9
    s0 = p.tail.s0
    s = s0 + np.geomspace(lo - s0, s_max - s0, 100)
    s[0], s[-1] = lo, s_max
    sigma = s - s0
    i, j = np.triu_indices(s.size, 1)
    gamma = np.array([p.tail.gamma(math.log(x)) for x in sigma])
    with np.errstate(divide="ignore", over="ignore"):
        need = (0.25 + (math.pi / np.log(sigma[j] / sigma[i])) ** 2) \
            / np.minimum(gamma[i], gamma[j])
    k = int(np.argmin(need))
    return float(need[k]), (float(min(gamma[i[k]], gamma[j[k]])), s0,
                            (float(s[i[k]]), float(s[j[k]])))


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_tail_edges_equal_the_pair_search(family):
    # gamma does not rise at the tail's shift, so of all windows inside the
    # horizon the whole one, outer edge to horizon, needs the least
    # multiplier: the two-point edges are the pair search's, bit for bit
    for m, amplitude, R, s_max in itertools.product(
            (1, 2, 3), (1e-3, 0.05, 0.3, 1.0, 20.0, 1e3), (1.0, 0.5, 0.25),
            (2.0, 10.0, 1e2, 1e4, 1e6, 1e30, 1e100, 1e150, 1e300)):
        p = getattr(RadialPotential, family)(m, amplitude=amplitude)
        assert p.tail.edge(R, s_max) == _pair_search_edges(p, R, s_max), (m, amplitude, R, s_max)


_RISING = np.geomspace(1e-6, 1.0, 400)


def _rising_cases():
    for alpha in (2.0, 2.5, 3.0):
        yield RadialPotential.power_law(alpha)
    yield RadialPotential.custom(_RISING, _RISING ** -2.2)
    r = np.geomspace(1e-60, 1.0, 50)
    yield RadialPotential.custom(r, r ** -2.2)    # inner knot at s = 138


def test_tail_edges_without_an_inner_cell_inside_the_horizon():
    # tail edges are the log families' (``EulerTail.edge``); a cell kind's
    # log domain is decided by its inner cell, here one that starts beyond
    # the horizon s_max = 100: the certificate's window lies past s_max,
    # where the cell model is exact
    r = np.geomspace(1e-60, 1.0, 50)
    prob = log_problem(RadialPotential.custom(r, r ** -2.2), 1.0, 1.0, s_max=100.0)
    cert = euler_tail_certificate(prob)
    assert cert.kind == "oscillatory" and cert.shift is None
    assert cert.window[0] == pytest.approx(60.0 * math.log(10.0), rel=1e-15)
    assert cert.window[0] > prob.s_max
    assert not any(hasattr(p.tail, "edge") for p in (*_rising_cases(), prob.potential))


def test_tail_edges_of_a_window_inside_the_rounding_of_the_shift():
    # one ulp past the outer edge s = 1e-9, s_max - s0 rounds to the edge's
    # s - s0 when s0 = -ln(1e300): the window's log ratio is 0, which the
    # edge formula divided by, so no multiplier is certified oscillatory
    p = RadialPotential.adimurthi_log(1, rho=1e300)
    s_max = math.nextafter(1e-9, math.inf)
    c_osc, (_, _, window) = p.tail.edge(1.0, s_max)
    assert c_osc == math.inf and window == (1e-9, s_max)
    assert euler_tail_certificate(log_problem(p, 1e6, 1.0, s_max=s_max)) is None


@pytest.mark.parametrize("R", [1.0, 0.5])
def test_rising_cell_certificate_holds_on_a_dense_grid(R):
    # from s1 = max(outer edge, innermost knot) on, a = c g rises, so
    # a >= gamma = c g(s1) on the window, whose length pi / sqrt(gamma) holds
    # a half-oscillation of z'' + gamma z = 0: every c > 0 oscillates
    for p, c in itertools.product(_rising_cases(), (1e-300, 1e-12, 1.0, 1e12)):
        prob = log_problem(p, c, R)
        cert = euler_tail_certificate(prob)
        assert cert.kind == "oscillatory" and cert.shift is None
        s1, s2 = cert.window
        knots = p.log_cells[0]
        assert s1 == max(-math.log(R) + 1e-9, knots[-1] if knots.size else -math.inf)
        assert s2 - s1 >= math.pi / math.sqrt(cert.gamma)
        s = np.linspace(s1, s2, 20001)
        assert np.all(c * p.log_weight(s) >= cert.gamma * (1.0 - 1e-15)), (p, c)


def test_flat_rising_cell_certifies_no_subnormal_gamma():
    # on a flat inner cell (q = 0) gamma = c g(s1) was returned subnormal,
    # where its rounding no longer bounds a: a certificate's gamma is a
    # normal double, and below that there is none
    for p, c in ((RadialPotential.power_law(2.0, 1e-300), 1e-10),
                 (RadialPotential.custom([2.0 ** -34, 2.0 ** -33], [2.0 ** -1010, 2.0 ** -1012]),
                  1e10)):
        R = p.r_max
        assert p.inner_cell[3] == 0.0
        assert euler_tail_certificate(log_problem(p, c, R)) is None
        assert euler_tail_certificate(log_problem(p, 1e20 * c, R)).gamma >= 2.0 ** -1022


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
def test_rising_cell_sweep_finds_the_zero_its_certificate_proves(alpha):
    # a rising segment is capped where x grows by 2 pi, and that rise in ln x
    # was formed as ln(x + 2 pi) - ln x, which rounds to 0 from x ~ 1e15 on:
    # the capped segment had zero width, and the sweep reported
    # HorizonReached with one sample where every c > 0 oscillates (alpha =
    # 2.5 from amplitude 1e30 on); past ~1e100 the cap's width is below the
    # spacing of s, and the zero is its start
    for amplitude in 10.0 ** np.arange(10, 301, 10):
        p = RadialPotential.power_law(alpha, amplitude)
        assert not feasible(p, 0.2, 1.0).feasible
        out = integrate(log_problem(p, 0.2, 1.0))
        assert out.status is Status.ZERO_FOUND, amplitude
        # a >= 0.2 A from the outer edge on: a zero within pi / sqrt(0.2 A) of it
        assert 1e-9 <= out.zero_s <= 1e-9 + math.pi / math.sqrt(0.2 * amplitude)
        assert out.trajectory["z"][-1] == 0.0


def test_euler_certificate_rejects_a_falling_inner_cell():
    # an inner cell of slope q < 0 (alpha < 2) has no rising-cell bound and
    # no Euler edge; its recessive shot runs in the radius domain
    for p in (RadialPotential.power_law(1.9), RadialPotential.constant(1.0)):
        with pytest.raises(DomainError):
            euler_tail_certificate(log_problem(p, 1.0, 1.0))
        assert not hasattr(p.tail, "edge")


def _principal_tail(p, c, R=1.0, s_max=1e6, edge=None):
    """The principal tail at c from a non-oscillatory certificate built by
    hand, gamma = c gamma(s_max) on [s_max, inf): a log family's tail is
    non-oscillatory up to c = 1/(4 gamma(s_max)), which no verdict reads.
    ``edge`` is an ``EulerTail.edge`` to read gamma from instead."""
    _, (gamma, shift, _) = edge or p.tail.edge(R, s_max)
    prob = log_problem(p, c, R, s_max=s_max)
    cert = TailCertificate("nonoscillatory", c * gamma, shift, (s_max, math.inf))
    return prob, integrate_principal_tail(prob, cert)


def test_principal_tail_positive_at_threshold(adimurthi_1):
    _, out = _principal_tail(adimurthi_1, 0.25)
    assert out.status is Status.NO_ZERO_ON_INTERVAL
    assert np.all(out.trajectory["z"] > 0.0)
    # tracks the exact solution sqrt(s + ln rho) up to normalization
    s, z = out.trajectory["s"], out.trajectory["z"]
    ratio = z / np.sqrt(s + math.log(adimurthi_1.rho))
    assert ratio.max() / ratio.min() - 1.0 < 0.05


# ---------------------------------------------------------------------------
# Riccati residuals
# ---------------------------------------------------------------------------

def test_riccati_zero_potential():
    p = RadialPotential.constant(0.0)
    lp = log_problem(p, 1.0, 1.0, s_max=10.0)
    out = integrate(lp)
    assert riccati_check(out, lp) <= 1e-12


def test_riccati_integrated_trajectory():
    # the J0 profile seen in the log frame over s in [1, 5]
    p = RadialPotential.constant(1.0, r_max=math.exp(-1.0))
    lp = log_problem(p, 1.0, math.exp(-1.0), s_max=5.0)
    out = integrate(lp)
    assert riccati_check(out, lp) <= 1e-6


def test_riccati_exact_sqrt_trajectory():
    # z = sqrt(s) solves z'' + z/(4 s^2) = 0 exactly
    p = RadialPotential.adimurthi_log(1, rho=1.0, r_max=1.0 / math.e)
    lp = log_problem(p, 0.25, 1.0 / math.e)
    s = np.linspace(1.0, 5.0, 40001)
    out = ShootingOutcome({"s": s, "z": np.sqrt(s), "dz": 0.5 / np.sqrt(s)},
                          None, Status.HORIZON_REACHED)
    assert riccati_check(out, lp) <= 1e-8


def test_riccati_rejects_sign_change():
    p = RadialPotential.constant(0.0)
    lp = log_problem(p, 1.0, 1.0, s_max=10.0)
    s = np.linspace(0.0, 10.0, 101)
    out = ShootingOutcome({"s": s, "z": np.cos(s), "dz": -np.sin(s)},
                          None, Status.HORIZON_REACHED)
    with pytest.raises(NonPositiveTrajectory):
        riccati_check(out, lp)


def test_riccati_rejects_a_zero_at_the_start():
    # at c = 1e80 the first zero lies ~1e-40 past the outer edge, so the
    # trajectory's start and zero share one s and span no range to sample
    lp = log_problem(RadialPotential.adimurthi_log(1), 1e80, 1.0)
    out = integrate(lp)
    assert out.status is Status.ZERO_FOUND and out.trajectory["s"].size == 2
    with pytest.raises(DomainError):
        riccati_check(out, lp)


def _dense_cases():
    """Sweeps of every engine and direction: cells outward and recessive
    (toward the edge), Euler cells outward (to a zero) and back from the
    horizon, the line."""
    cells = RadialPotential.custom([0.01, 0.1, 1.0], [30.0, 3.0, 2.0])
    yield integrate(log_problem(cells, 0.05, 1.0, s_max=8.0))
    yield integrate(radius_problem(RadialPotential.power_law(1.5), 6.0, 1.0))
    yield integrate(log_problem(RadialPotential.adimurthi_log(2), 0.35, 1.0))
    p = RadialPotential.filippas_tertikas(3)
    yield _principal_tail(p, 0.25 / p.tail.edge(1.0, 1e300)[1][0])[1]
    yield integrate(log_problem(RadialPotential.constant(0.0), 1.0, 1.0, s_max=10.0))


def test_dense_answers_an_array_as_its_points():
    # one call on an array, not one per point (each of which took ~160 us
    # through _fundamental on size-1 arrays for a cell sweep)
    for out in _dense_cases():
        x = next(iter(out.trajectory.values()))
        grid = np.linspace(x[0], x[-1], 257)
        states = out.dense(grid)
        assert states.shape == (2, grid.size)
        points = np.array([out.dense(float(v)) for v in grid]).T
        assert np.all(np.abs(states - points) <= 4.0 * np.spacing(np.abs(points))), out.status
        with pytest.raises(DomainError):
            out.dense(np.array([x[0], x[-1] + 1e-3 * (x[-1] - x[0])]))


def test_trajectory_is_a_view_formed_on_first_read():
    # a sweep keeps its dense output alone; the rows are formed from it once,
    # when first read
    for out in _dense_cases():
        assert "trajectory" not in vars(out)
        rows = out.trajectory
        assert out.trajectory is rows and "trajectory" in vars(out)


def test_end_row_is_where_the_view_stops_and_span_its_range_of_s():
    # the end row is the view's row at the zero or the far end, bit for bit:
    # in s last outward, first toward the edge (the recessive shot and the
    # principal tail)
    for out, toward_edge in zip(_dense_cases(), (False, True, False, True, False), strict=True):
        rows = [{k: float(v[i]) for k, v in out.trajectory.items()} for i in (0, -1)]
        assert out.end == (rows[0] if toward_edge else rows[-1])
        assert out.span == (out.trajectory["s"][0], out.trajectory["s"][-1])


def test_log_rows_are_the_dense_output_at_the_samples():
    # every row but an exact zero's is the dense output at its abscissa, bit
    # for bit: an Euler sweep's uniform in tau, a cell sweep's knots on the
    # segment they start
    for out in _dense_cases():
        s, z, dz = out.trajectory.values()
        rows = np.ones(s.size, dtype=bool)
        if out.zero_s is not None:
            rows[np.flatnonzero(s == out.zero_s)] = False
        np.testing.assert_array_equal(out.dense(s[rows]), [z[rows], dz[rows]])


@pytest.mark.parametrize("p, c, R, s_max, value", [
    (RadialPotential.constant(1.0, r_max=math.exp(-1.0)), 1.0, math.exp(-1.0), 5.0,
     9.146290180783723e-08),
    (RadialPotential.power_law(1.5), 0.05, 1.0, 6.0, 6.2440869419422285e-09),
    (RadialPotential.custom([0.01, 0.1, 1.0], [30.0, 3.0, 2.0]), 0.05, 1.0, 8.0,
     5.164824381880245e-07)], ids=["constant", "power_law", "custom"])
def test_riccati_check_resamples_a_cell_sweep_in_one_call(p, c, R, s_max, value, monkeypatch):
    # its 4,097 samples were 4,097 dense calls, 0.16-0.28 s on a constant's
    # sweep; now one, with the same residual
    import hardy_optim.ode as ode_mod
    lp = log_problem(p, c, R, s_max=s_max)
    out = integrate(lp)
    calls = []
    fundamental = ode_mod._fundamental
    monkeypatch.setattr(ode_mod, "_fundamental", lambda *a: calls.append(1) or fundamental(*a))
    assert riccati_check(out, lp) == pytest.approx(value, rel=1e-12)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# pointwise residual
# ---------------------------------------------------------------------------

def _log_grid(n=10_000, lo=1e-6, hi=1.0 - 1e-12):
    return np.exp(np.linspace(math.log(lo), math.log(hi), n))


def test_residual_trivial():
    prob = radius_problem(RadialPotential.constant(0.0), 1.0, 1.0)
    assert residual(np.ones(10_000), prob, _log_grid()) == 0.0


def test_residual_bessel_profile():
    p = RadialPotential.constant(1.0)
    grid = _log_grid()
    phi = np.array([p.closed_form(float(r), 1.0) for r in grid])
    prob = radius_problem(p, p.closed_form_multiplier(1.0), 1.0)
    assert residual(phi, prob, grid) <= 1e-6


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_residual_log_family_profiles(family, m):
    p = getattr(RadialPotential, family)(m)
    grid = _log_grid()
    phi = np.array([p.closed_form(float(r), 1.0) for r in grid])
    prob = radius_problem(p, p.closed_form_multiplier(1.0), 1.0)
    assert residual(phi, prob, grid) <= 1e-6


def test_residual_detects_wrong_profile():
    # sanity: a non-solution leaves an O(1) residual
    p = RadialPotential.constant(1.0)
    grid = _log_grid()
    phi = np.cos(grid)
    prob = radius_problem(p, p.closed_form_multiplier(1.0), 1.0)
    assert residual(phi, prob, grid) > 1e-2


def test_residual_on_a_jittered_grid():
    # a non-uniform log grid takes the 2nd-order uneven differences
    p = RadialPotential.constant(1.0)
    t = np.linspace(math.log(1e-6), math.log(1.0 - 1e-12), 10_000)
    t[1:-1] += np.random.default_rng(7).uniform(-0.1, 0.1, t.size - 2) * (t[1] - t[0])
    grid = np.exp(t)
    phi = p.closed_form(grid, 1.0)
    c = p.closed_form_multiplier(1.0)
    # the differences are 1st order in the jitter: 3.0e-4 here, against
    # 0.0117 from a multiplier 1% off (0.01 c r^2 J0 near r = 0.6)
    assert residual(phi, radius_problem(p, c, 1.0), grid) <= 5e-4
    assert residual(phi, radius_problem(p, 1.01 * c, 1.0), grid) >= 1e-2


def test_residual_grid_too_coarse():
    prob = radius_problem(RadialPotential.constant(1.0), 1.0, 1.0)
    with pytest.raises(GridTooCoarse):
        residual(np.ones(4), prob, np.array([0.1, 0.2, 0.3, 0.4]))


# ---------------------------------------------------------------------------
# Euler-cell sweeps of the log families: bounded states, cost and brackets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_log_family_sweeps_stay_bounded(family, m):
    # g is positive and decreasing, and every sweep starts at z = 1, not
    # rising along the sweep, and ends at its first zero: so z <= 1 and
    # |z'| <= sqrt(z'(start)^2 + c g(outer edge)), far from overflow
    for amplitude in (0.05, 1.0, 20.0):
        p = getattr(RadialPotential, family)(m, amplitude=amplitude)
        g = p.log_weight(np.geomspace(1e-9, 1e6, 4000))
        assert np.all(g > 0.0) and np.all(np.diff(g) <= 0.0)
        edge = p.tail.edge(1.0, 1e300)
        c_osc, (gamma, _, _) = edge
        tail, out = _principal_tail(p, 0.25 / gamma, edge=edge)
        sweeps = [(tail, out)]
        for c in (c_osc, 3.0 * c_osc, 1e40 / amplitude):
            shot = log_problem(p, c, 1.0)
            sweeps.append((shot, integrate(shot)))
        for prob, out in sweeps:
            z, dz = out.trajectory["z"], out.trajectory["dz"]
            start, end = (-1, 0) if prob is tail else (0, -1)   # the tail runs down in s
            assert z[start] == 1.0 and np.all(z <= 1.0)
            assert np.all((z if out.first_zero is None else np.delete(z, end)) > 0.0)
            bound = math.sqrt(dz[start] ** 2 + prob.c * float(p.log_weight(0.0)))
            assert np.max(np.abs(dz)) <= bound * (1.0 + 1e-9)


@pytest.mark.parametrize("s_max", [1e6, 1e150])
def test_principal_tail_reads_gamma_in_one_call(s_max, monkeypatch):
    # the principal tail at 1/(4 gamma(s_max)) of every borderline entry reads
    # G at its cells' ends and midpoints in one array EulerTail.gamma call,
    # at any horizon: one cell at m = 1, _EULER_CELLS past it (DOP853 took a
    # few hundred scalar right-hand sides; swept in s, 1,391-19.9k)
    import hardy_optim.ode as ode_mod
    from hardy_optim.potentials import EulerTail
    shapes = []
    gamma = EulerTail.gamma
    monkeypatch.setattr(EulerTail, "gamma",
                        lambda self, tau: shapes.append(np.shape(tau)) or gamma(self, tau))
    for family in ("adimurthi_log", "filippas_tertikas"):
        for m in (1, 2, 3):
            p = getattr(RadialPotential, family)(m)
            edge = p.tail.edge(1.0, s_max)
            shapes.clear()
            _, out = _principal_tail(p, 0.25 / edge[1][0], s_max=s_max, edge=edge)
            cells = 1 if m == 1 else ode_mod._EULER_CELLS
            assert out.status is Status.NO_ZERO_ON_INTERVAL
            assert shapes == [(2 * cells + 1,)], (family, m, shapes)


@functools.lru_cache(maxsize=None)
def _reference_zero(family, m, c):
    """First zero in s of the outer-edge shot z'' + c g(s) z = 0, z = 1,
    z' = 0 at s = 1e-9 (R = 1), by DOP853 at rtol 1e-12 on g itself."""
    from scipy.integrate import solve_ivp
    p = getattr(RadialPotential, family)(m)

    def crossing(s, u):
        return u[0]
    crossing.terminal = True
    sol = solve_ivp(lambda s, u: (u[1], -c * float(p.log_weight(s)) * u[0]), (1e-9, 1e3),
                    (1.0, 0.0), method="DOP853", rtol=1e-12, atol=1e-15, events=crossing)
    return float(sol.t_events[0][0])


_M1_ZEROS = {0.3: 5.558006844672, 0.35: 4.949714393964, 1.0: 2.350801520790}


@pytest.mark.parametrize("s_max", [1e6, 1e300])
@pytest.mark.parametrize("c", [0.3, 0.35, 1.0])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_euler_sweep_brackets_the_first_zero(family, m, c, s_max):
    # G does not rise, so the laws at each cell's left and right end bracket
    # the first zero (Sturm comparison), to 1e-3 relative, and the midpoint
    # law's zero, the one reported, lies between, within 1e-5 of DOP853's; at
    # m = 1 (G = A = 1) all are s0 + sigma_e exp(atan(2 w) / w), w = sqrt(c -
    # 1/4), sigma_e = 1 + 1e-9 (DOP853 had them to ~1e-11)
    prob = log_problem(getattr(RadialPotential, family)(m), c, 1.0, s_max=s_max)
    out = integrate(prob)
    ref = _reference_zero(family, m, c)
    lo, hi = out.zero_bracket
    assert out.status is Status.ZERO_FOUND
    assert lo * (1.0 - 1e-12) <= ref <= hi * (1.0 + 1e-12)
    assert hi - lo <= 1e-3 * ref and lo <= out.zero_s <= hi
    assert out.zero_s == pytest.approx(ref, rel=1e-5)
    if m == 1:
        assert lo == out.zero_s == hi == pytest.approx(_M1_ZEROS[c], abs=1e-12)
    assert min(timeit.repeat(lambda: integrate(prob), number=1, repeat=5)) <= 10e-3


def test_euler_sweep_between_the_end_laws_is_undecided():
    # a horizon between the end laws' zeros: the left-end law vanishes before
    # it, the right-end law does not, so neither status is certified
    p = RadialPotential.adimurthi_log(2)
    lo, hi = integrate(log_problem(p, 0.3, 1.0, s_max=20.0)).zero_bracket
    assert integrate(log_problem(p, 0.3, 1.0, s_max=hi * (1.0 + 1e-3))).status is \
        Status.ZERO_FOUND
    assert integrate(log_problem(p, 0.3, 1.0, s_max=lo * (1.0 - 1e-3))).status is \
        Status.HORIZON_REACHED
    with pytest.raises(IndeterminateAtHorizon) as err:
        integrate(log_problem(p, 0.3, 1.0, s_max=0.5 * (lo + hi)))
    assert err.value.multiplier == 0.3


def test_euler_sweep_past_the_largest_double_is_a_domain_error():
    # c G = 1e300 x 2e10 overflows: its cells' laws read cos(inf) (nan, with
    # RuntimeWarnings), where DOP853 ended in StepSizeUnderflow
    p = RadialPotential.adimurthi_log(2, amplitude=1e10)
    with pytest.raises(DomainError, match="overflows"):
        integrate(log_problem(p, 1e300, 1.0))
    assert integrate(log_problem(p, 1e290, 1.0)).status is Status.ZERO_FOUND


@pytest.mark.parametrize("make", [radius_problem, log_problem], ids=["radius", "log"])
def test_nan_multiplier_is_a_domain_error(make):
    # c < 0 let nan through: a radius sweep warned from _segments and
    # reported NoZeroOnInterval
    with pytest.raises(DomainError, match="multiplier must be >= 0, got nan"):
        make(RadialPotential.power_law(1.0), math.nan, 1.0)


def test_horizon_is_any_finite_float():
    # horizons were cut to 1e150 without a word, so 1e300 answered as 1e150
    p = RadialPotential.adimurthi_log(1)
    assert log_problem(p, 0.25, 1.0, s_max=1e300).s_max == 1e300
    assert log_problem(p, 0.25, 1.0, s_max=sys.float_info.max).s_max == sys.float_info.max
    for s_max in (math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            log_problem(p, 0.25, 1.0, s_max=s_max)


@pytest.mark.parametrize("s_max", [1e300, sys.float_info.max], ids=["1e300", "max"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_log_family_sweeps_at_the_largest_horizons(family, m, s_max):
    # gamma is read from ln(s - s0), so no (s - s0)^2 is formed: the tail
    # edges, the principal tail back from the horizon and an outer-edge shot
    # out to it raise nothing, warnings included
    p = getattr(RadialPotential, family)(m)
    assert log_problem(p, 1.0, 1.0, s_max=s_max).s_max == s_max    # no cut to 1e150
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c_osc, (gamma, _, _) = p.tail.edge(1.0, s_max)
        _, tail = _principal_tail(p, 0.25 / gamma, s_max=s_max)
        shot = integrate(log_problem(p, 1e-3, 1.0, s_max=s_max))
    assert gamma >= 1.0 and 0.25 < c_osc < 0.25 * (1.0 + 1e-4)
    assert tail.status is Status.NO_ZERO_ON_INTERVAL and np.all(tail.trajectory["z"] > 0.0)
    assert shot.status is Status.ZERO_FOUND and 1.0 < shot.zero_s < s_max
