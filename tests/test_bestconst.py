import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from hardy_optim import (RadialPotential, SolverSettings, Status, best_constant,
                         bessel_j0, bessel_j0_first_zero, brezis_vazquez_lambda,
                         equal_volume_radius, feasible, integrate, log_problem,
                         radius_problem, unit_ball_volume)
from hardy_optim.errors import DomainError, IndeterminateAtHorizon, NoUpperBracket
from hardy_optim.ode import CERTIFICATE_SLACK

from conftest import Z0, Z0_SQ, power_law_best_constant


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

def test_feasible_constant_bracket(settings, constant_pot):
    # first zero of the scaled Bessel profile is z0/sqrt(c)
    assert feasible(constant_pot, 5.0, 1.0, settings).feasible      # 1.075 > 1
    assert not feasible(constant_pot, 6.0, 1.0, settings).feasible  # 0.982 < 1


def test_feasible_at_zero_multiplier(settings):
    for p in [RadialPotential.power_law(1.5), RadialPotential.adimurthi_log(1),
              RadialPotential.power_law(2.5)]:
        assert feasible(p, 0.0, 1.0, settings).feasible


def test_feasible_rejects_negative_multiplier(settings, constant_pot):
    with pytest.raises(DomainError):
        feasible(constant_pot, -0.1, 1.0, settings)


def test_feasibility_monotone_interval(settings):
    # the feasible set over a c grid is an initial interval (no re-entry)
    for p in [RadialPotential.constant(1.0), RadialPotential.power_law(1.0)]:
        flags = [feasible(p, c, 1.0, settings).feasible
                 for c in np.linspace(0.0, 8.0, 17)]
        assert flags == sorted(flags, reverse=True)


def test_feasible_supercritical_power_laws(settings):
    # alpha >= 2: no multiplier works (certified through the log domain)
    for alpha in (2.0, 2.5):
        p = RadialPotential.power_law(alpha)
        for c in (0.1, 1.0, 10.0):
            check = feasible(p, c, 1.0, settings)
            assert not check.feasible
            assert check.evidence.certificate is not None


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_oscillation_certificate_is_the_whole_evidence(family):
    # an outer-edge sweep at c = 1e80 stalls at its first step; the
    # certificate alone proves a zero, so no sweep runs after it
    check = feasible(getattr(RadialPotential, family)(1), 1e80, 1.0)
    assert not check.feasible and check.method == "oscillation-certificate"
    out = check.evidence
    assert out.status is Status.ZERO_FOUND and out.first_zero is None
    assert out.certificate.kind == "oscillatory"
    assert all(column.size == 0 for column in out.trajectory.values())


# ---------------------------------------------------------------------------
# best constant
# ---------------------------------------------------------------------------

def test_best_constant_is_bessel_level(settings, constant_pot):
    res = best_constant(constant_pot, 1.0, tol=1e-6, settings=settings)
    assert res.converged
    assert abs(res.c_best - Z0_SQ) <= 1e-4
    assert res.c_hi - res.c_lo <= res.tolerance * max(1.0, res.c_best)
    assert res.evidence_lo.status in (Status.NO_ZERO_ON_INTERVAL, Status.HORIZON_REACHED)
    assert res.evidence_hi.status is Status.ZERO_FOUND


def test_best_constant_scaling(settings):
    values = []
    for R in (0.5, 1.0, 2.0, 4.0):
        p = RadialPotential.constant(1.0, r_max=R)
        res = best_constant(p, R, tol=1e-6, settings=settings)
        values.append(res.c_best * R * R)
    spread = (max(values) - min(values)) / min(values)
    assert spread <= 1e-5


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.9])
def test_best_constant_power_laws(alpha, settings):
    res = best_constant(RadialPotential.power_law(alpha), 1.0, tol=1e-6,
                        settings=settings)
    # bisection tolerance is absolute below c = 1 (tol * max(1, c))
    assert abs(res.c_best - power_law_best_constant(alpha, 1.0)) <= 2e-6


def test_best_constant_scale_invariance(settings):
    # c(V) is invariant under r -> beta r with amplitude beta^2
    p = RadialPotential.power_law(1.0)
    direct = best_constant(p, 1.0, tol=1e-8, settings=settings)
    scaled = best_constant(p.scaled(2.0), 0.5, tol=1e-8, settings=settings)
    assert scaled.c_best == pytest.approx(direct.c_best, rel=1e-7)


def test_no_upper_bracket(settings):
    with pytest.raises(NoUpperBracket):
        best_constant(RadialPotential.constant(0.0), 1.0, settings=settings)


def test_power_laws_near_sigma_two_bracket_the_closed_form(settings):
    # the series start gave up from alpha ~ 1.94 on; the exact J0 start on
    # the power law's one cell answers in the radius domain, in 4 probes
    for alpha in (1.99, 1.999):
        p = RadialPotential.power_law(alpha)
        res = best_constant(p, 1.0, settings=settings)
        assert res.converged and res.iterations == 4
        assert "r" in res.evidence_hi.trajectory
        assert res.c_lo <= power_law_best_constant(alpha, 1.0) <= res.c_hi
        _assert_certified_bracket(p, 1.0, res, settings)
    assert power_law_best_constant(1.99, 1.0) == pytest.approx(1.44580e-4, rel=1e-5)


# ---------------------------------------------------------------------------
# radius-domain root solve: probe counts and certified ends
# ---------------------------------------------------------------------------

def _assert_certified_bracket(p, R, res, settings):
    assert res.converged and res.band is None
    assert res.c_lo < res.c_best < res.c_hi
    assert res.c_hi - res.c_lo <= 0.5 * res.tolerance * max(1.0, res.c_best)
    assert feasible(p, res.c_lo, R, settings).feasible
    assert not feasible(p, res.c_hi, R, settings).feasible


@pytest.mark.parametrize("alpha, amplitude, R", [
    (0.0, 1.0, 1.0), (0.0, 3.0, 2.0), (0.0, 0.05, 0.25),
    (0.5, 1.0, 1.0), (0.5, 7.0, 3.0), (1.0, 1.0, 1.0), (1.0, 0.2, 0.5),
    (1.9, 1.0, 1.0), (1.9, 20.0, 4.0)])
def test_root_solve_shots_constant_and_power_law(alpha, amplitude, R, settings):
    # the Bessel start is exact here: c = 0, the start, one expansion and
    # one clamped iterate
    p = RadialPotential.constant(amplitude, R) if alpha == 0.0 else \
        RadialPotential.power_law(alpha, amplitude, R)
    res = best_constant(p, R, tol=1e-6, settings=settings)
    assert res.iterations <= 6
    c = power_law_best_constant(alpha, R) / amplitude
    assert res.c_lo <= c <= res.c_hi
    _assert_certified_bracket(p, R, res, settings)


# (table, c_best of the bisection driver on it at tol 1e-6, probe budget);
# the bisection took 22-24 probes on each.  Without the Illinois step the
# oscillating table needs 12.
_CUSTOM_TABLES = {"1+5/r": (lambda r: 1.0 + 5.0 / r, 0.2768874168395996, 14),
                  "exp(3r)": (lambda r: np.exp(3.0 * r), 1.2259259223937988, 14),
                  "2+sin(8r)": (lambda r: 2.0 + np.sin(8.0 * r), 2.840723991394043, 10)}


@pytest.mark.parametrize("name", sorted(_CUSTOM_TABLES))
def test_root_solve_shots_custom_tables(name, settings):
    fn, c_bisected, budget = _CUSTOM_TABLES[name]
    r = np.geomspace(1e-6, 1.0, 40)
    p = RadialPotential.custom(r, fn(r))
    res = best_constant(p, 1.0, tol=1e-6, settings=settings)
    assert res.iterations <= budget
    assert abs(res.c_best - c_bisected) <= res.tolerance * max(1.0, c_bisected)
    _assert_certified_bracket(p, 1.0, res, settings)


def test_custom_table_brackets_are_reproducible(settings):
    # one ulp of any one sample moves the exact sweeps by rounding only, so
    # the Illinois iterates and the final bracket do not wander (adaptive
    # steps moved them by up to 8.8e-7)
    r = np.geomspace(1e-6, 1.0, 40)
    v = 1.0 + 5.0 / r
    a = best_constant(RadialPotential.custom(r, v), 1.0, settings=settings)
    for k in range(v.size):
        nudged = v.copy()
        nudged[k] = np.nextafter(nudged[k], math.inf)
        b = best_constant(RadialPotential.custom(r, nudged), 1.0, settings=settings)
        assert b.iterations == a.iterations
        for x, y in ((a.c_lo, b.c_lo), (a.c_hi, b.c_hi)):
            assert abs(x - y) <= 1e-10 * x


class _Counter:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


@pytest.mark.parametrize("p", [
    RadialPotential.constant(2.0), RadialPotential.power_law(1.5, 3.0),
    RadialPotential.custom(np.geomspace(1e-6, 1.0, 40),
                           np.exp(3.0 * np.geomspace(1e-6, 1.0, 40)))],
    ids=["constant", "power_law", "custom"])
def test_radius_best_constant_makes_no_solve_ivp_call(p, settings, monkeypatch):
    import hardy_optim.ode as ode_mod
    counter = _Counter(ode_mod.solve_ivp)
    monkeypatch.setattr(ode_mod, "solve_ivp", counter)
    assert best_constant(p, 1.0, settings=settings).converged
    assert counter.calls == 0


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_log_best_constant_samples_the_tail_once(family, settings, monkeypatch):
    import hardy_optim.bestconst as bestconst_mod
    import hardy_optim.ode as ode_mod
    counter = _Counter(ode_mod.tail_edges)
    monkeypatch.setattr(ode_mod, "tail_edges", counter)
    monkeypatch.setattr(bestconst_mod, "tail_edges", counter)
    res = best_constant(getattr(RadialPotential, family)(2), 1.0, settings=settings)
    assert res.iterations >= 5
    assert counter.calls == 1


def test_shooting_margin_changes_sign_at_the_threshold(settings, constant_pot):
    below = feasible(constant_pot, Z0_SQ * (1.0 - 1e-3), 1.0, settings)
    above = feasible(constant_pot, Z0_SQ * (1.0 + 1e-3), 1.0, settings)
    assert below.feasible and below.margin > 0.0
    assert not above.feasible and above.margin < 0.0
    # continuous across the zero reaching R: both sides are O(1e-3)
    assert below.margin - above.margin < 1e-2
    # the principal tail has a margin too; an oscillation certificate has none
    assert feasible(RadialPotential.adimurthi_log(1), 0.2, 1.0, settings).margin > 0.0
    assert feasible(RadialPotential.adimurthi_log(1), 0.35, 1.0, settings).margin is None


@pytest.mark.parametrize("alpha", [1.9, 1.99])
def test_principal_tail_margin_root_solves_log_domain(alpha, settings):
    # a power law forced into the log domain is decided by the principal
    # tail on both sides of c(V); the bisection took 23 probes on each
    p = dataclasses.replace(RadialPotential.power_law(alpha), critical=True)
    below = feasible(p, 0.9 * power_law_best_constant(alpha, 1.0), 1.0, settings)
    above = feasible(p, 1.1 * power_law_best_constant(alpha, 1.0), 1.0, settings)
    assert below.method == above.method == "principal-tail"
    assert below.margin > 0.0 > above.margin
    res = best_constant(p, 1.0, tol=1e-6, settings=settings)
    assert res.iterations <= 14
    # within tol: the principal tail puts the zero of c(V) itself a hair inside R
    assert res.c_lo - 1e-6 <= power_law_best_constant(alpha, 1.0) <= res.c_hi + 1e-6
    _assert_certified_bracket(p, 1.0, res, settings)


def test_class_y_potential_collapses_to_zero(settings):
    # a converged log-domain solve closes its bracket to the same width as
    # the radius-domain root solve
    p = RadialPotential.power_law(2.5)
    res = best_constant(p, 1.0, tol=1e-6, settings=settings)
    assert res.c_best <= 1e-5
    _assert_certified_bracket(p, 1.0, res, settings)


# ---------------------------------------------------------------------------
# borderline catalog: certified bracketing around 1/4
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_critical_quarter_bracketing(family, settings):
    p = getattr(RadialPotential, family)(1)
    check_lo = feasible(p, 0.25, 1.0, settings)
    check_hi = feasible(p, 0.35, 1.0, settings)
    assert check_lo.feasible and check_lo.method == "principal-tail"
    assert not check_hi.feasible and check_hi.method == "oscillation-certificate"


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
@pytest.mark.parametrize("m", [2, 3])
def test_critical_deeper_levels(family, m, settings):
    # the cumulative sum potentials keep threshold 1/4 for every depth, but
    # their coefficient approaches the Euler line only like 1/(ln s)^2, so
    # at desk scale: certified on both sides away from 1/4, honest
    # indeterminate exactly at it (deciding there needs the next
    # iterated-log comparison level)
    p = getattr(RadialPotential, family)(m)
    assert feasible(p, 0.20, 1.0, settings).feasible
    assert not feasible(p, 0.35, 1.0, settings).feasible
    assert not feasible(p, 1.0, 1.0, settings).feasible
    with pytest.raises(IndeterminateAtHorizon):
        feasible(p, 0.25, 1.0, settings)


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_critical_indeterminate_at_short_horizon(family):
    p = getattr(RadialPotential, family)(1)
    st = SolverSettings(s_max=1e4)
    with pytest.raises(IndeterminateAtHorizon):
        feasible(p, 0.35, 1.0, st)


def test_critical_best_constant_reports_band(settings, adimurthi_1):
    res = best_constant(adimurthi_1, 1.0, tol=1e-6, settings=settings)
    assert not res.converged
    assert res.band is not None
    assert res.c_lo == pytest.approx(0.25, abs=1e-6)   # certified feasible edge
    assert 0.25 < res.c_hi < 0.35                      # certified infeasible edge
    assert res.c_best == res.c_lo
    # the bracket evidence carries the certificates
    lo_ev, hi_ev = res.evidence_lo, res.evidence_hi
    assert lo_ev.status is Status.NO_ZERO_ON_INTERVAL
    assert lo_ev.certificate is not None and lo_ev.certificate.kind == "nonoscillatory"
    assert hi_ev.status is Status.ZERO_FOUND or (
        hi_ev.certificate is not None and hi_ev.certificate.kind == "oscillatory")


@pytest.mark.parametrize("family, m, amplitude", [
    ("adimurthi_log", 1, 0.26), ("adimurthi_log", 1, 0.3), ("filippas_tertikas", 2, 0.26)])
def test_indeterminate_doubling_multiplier_reports_band(family, m, amplitude, settings):
    # c = 1 lies inside the band above 1/(4A): the doubling phase meets an
    # undecided multiplier before a certified-infeasible one
    p = getattr(RadialPotential, family)(m, amplitude=amplitude)
    with pytest.raises(IndeterminateAtHorizon):
        feasible(p, 1.0, 1.0, settings)
    res = best_constant(p, 1.0, tol=1e-6, settings=settings)
    assert not res.converged and res.band == (res.c_lo, res.c_hi)
    assert res.c_lo <= 0.25 / amplitude <= res.c_hi
    assert res.c_best == res.c_lo
    assert (res.c_hi - res.c_lo) * amplitude / 0.25 < 0.3
    # both band edges re-verify as certified
    assert feasible(p, res.c_lo, 1.0, settings).feasible
    hi = feasible(p, res.c_hi, 1.0, settings)
    assert not hi.feasible and hi.method == "oscillation-certificate"


# A * [c_lo, c_hi] of the bisection driver at A = 1: the predicted edges
# may only lie inside these bands
_BISECTED_BANDS = {
    ("adimurthi_log", 1): (0.25, 0.30295), ("filippas_tertikas", 1): (0.25, 0.30295),
    ("adimurthi_log", 2): (0.24855, 0.31351), ("filippas_tertikas", 2): (0.24874, 0.30234),
    ("adimurthi_log", 3): (0.24833, 0.33174), ("filippas_tertikas", 3): (0.24865, 0.30125)}


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("amplitude", [0.05, 1.0, 20.0])
def test_predicted_band_edges_are_certified_and_sharp(family, m, amplitude, settings):
    p = getattr(RadialPotential, family)(m, amplitude=amplitude)
    res = best_constant(p, 1.0, tol=1e-6, settings=settings)
    assert res.iterations <= 6
    assert not res.converged and res.band == (res.c_lo, res.c_hi)
    lo, hi = feasible(p, res.c_lo, 1.0, settings), feasible(p, res.c_hi, 1.0, settings)
    assert lo.feasible and lo.method == "principal-tail"
    assert not hi.feasible and hi.method == "oscillation-certificate"
    # the next multiplier beyond either certified extreme is undecided; the
    # non-oscillatory certificate reaches CERTIFICATE_SLACK above c_lo
    for c in (np.nextafter(res.c_lo * (1.0 + CERTIFICATE_SLACK), math.inf),
              np.nextafter(res.c_hi, 0.0)):
        with pytest.raises(IndeterminateAtHorizon):
            feasible(p, float(c), 1.0, settings)
    # c(V) = 1/(4A) stays in the band; for m = 1 the lower edge is c(V) up to
    # the rounding of max gamma, which the bisected 0.25 did not have
    assert res.c_lo <= 0.25 / amplitude <= res.c_hi
    bisected_lo, bisected_hi = _BISECTED_BANDS[family, m]
    if m == 1:
        assert res.c_lo == pytest.approx(0.25 / amplitude, rel=1e-14)
    else:
        assert bisected_lo <= amplitude * res.c_lo
    assert amplitude * res.c_hi <= bisected_hi


@pytest.mark.parametrize("s_max", [1e30, 1e300])
def test_band_at_huge_horizons(s_max, settings):
    # at s_max = 1e300 the shifted gamma once formed inf * 0 = nan, and the
    # band came out as [0, 0.25010] with c_best = 0; horizons now stop at 1e150
    p = RadialPotential.adimurthi_log(1)
    assert log_problem(p, 0.25, 1.0, s_max=s_max).s_max == min(s_max, 1e150)
    with pytest.raises(IndeterminateAtHorizon, match=re.escape(f"s_max = {min(s_max, 1e150)}")):
        feasible(p, 0.25005, 1.0, SolverSettings(s_max=s_max))
    at_1e6 = best_constant(p, 1.0, tol=1e-6, settings=settings)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = best_constant(p, 1.0, tol=1e-6, settings=SolverSettings(s_max=s_max))
    assert res.c_lo == pytest.approx(0.25, abs=1e-6) and res.c_best == res.c_lo
    assert res.c_lo < res.c_hi <= at_1e6.c_hi


def test_contradicting_verdict_widens_the_band(monkeypatch, settings):
    # a feasible verdict above an undecided multiplier contradicts Sturm
    # monotonicity: it joins the band instead of moving the feasible end
    # past it, which would probe the same multiplier forever
    import hardy_optim.bestconst as bestconst_mod
    calls = []

    def fake_feasible(p, c, R, settings, edges=None):
        calls.append(c)
        assert len(calls) < 200, "best_constant did not terminate"
        if 0.25 <= c < 0.3:
            raise IndeterminateAtHorizon(f"multiplier {c}", multiplier=c)
        return bestconst_mod.FeasibilityCheck(c < 0.25 or 0.3 <= c < 0.35, None, "fake")

    monkeypatch.setattr(bestconst_mod, "feasible", fake_feasible)
    res = best_constant(RadialPotential.adimurthi_log(1), 1.0, tol=1e-6, settings=settings)
    assert not res.converged and res.band == (res.c_lo, res.c_hi)
    assert 0.25 - 1e-6 <= res.c_lo < 0.25 and 0.35 <= res.c_hi <= 0.35 + 1e-6


# ---------------------------------------------------------------------------
# Bessel cross-checks and reference constants
# ---------------------------------------------------------------------------

def test_ode_and_series_agree_on_z0():
    p = RadialPotential.constant(1.0, r_max=10.0)
    out = integrate(radius_problem(p, 1.0, 10.0))
    assert out.first_zero == pytest.approx(bessel_j0_first_zero(), abs=1e-9)


def test_brezis_vazquez_cancellation():
    for n in (3, 4, 5):
        lam = brezis_vazquez_lambda(n, unit_ball_volume(n))
        assert lam == pytest.approx(Z0_SQ, rel=1e-12)
    assert brezis_vazquez_lambda(3, unit_ball_volume(3) * 8.0) == \
        pytest.approx(Z0_SQ / 4.0, rel=1e-12)


def test_unit_ball_volume():
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    assert unit_ball_volume(4) == pytest.approx(math.pi ** 2 / 2.0, rel=1e-14)


def test_equal_volume_radius():
    assert equal_volume_radius(unit_ball_volume(3) * 27.0, 3) == \
        pytest.approx(3.0, rel=1e-14)


def test_brezis_vazquez_guards():
    with pytest.raises(DomainError):
        brezis_vazquez_lambda(2, 1.0)
    with pytest.raises(DomainError):
        brezis_vazquez_lambda(3, -1.0)
