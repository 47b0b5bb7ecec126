import math
import re
from dataclasses import replace
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hardy_optim import (Kind, RadialPotential, Status, TailCertificate, best_constant,
                         brezis_vazquez_lambda, euler_tail_certificate, feasible, integrate,
                         integrate_principal_tail, log_problem, radius_problem,
                         unit_ball_volume)
from hardy_optim.errors import DomainError, IndeterminateAtHorizon, NoUpperBracket

from conftest import Z0, Z0_SQ, power_law_best_constant


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

def test_feasible_constant_bracket(s_max, constant_pot):
    # first zero of the scaled Bessel profile is z0/sqrt(c)
    assert feasible(constant_pot, 5.0, 1.0, s_max).feasible      # 1.075 > 1
    assert not feasible(constant_pot, 6.0, 1.0, s_max).feasible  # 0.982 < 1


def test_feasible_at_zero_multiplier(s_max):
    for p in [RadialPotential.power_law(1.5), RadialPotential.adimurthi_log(1),
              RadialPotential.power_law(2.5)]:
        assert feasible(p, 0.0, 1.0, s_max).feasible


def test_feasible_rejects_negative_multiplier(s_max, constant_pot):
    with pytest.raises(DomainError):
        feasible(constant_pot, -0.1, 1.0, s_max)


def test_feasibility_monotone_interval(s_max):
    # the feasible set over a c grid is an initial interval (no re-entry)
    for p in [RadialPotential.constant(1.0), RadialPotential.power_law(1.0)]:
        flags = [feasible(p, c, 1.0, s_max).feasible
                 for c in np.linspace(0.0, 8.0, 17)]
        assert flags == sorted(flags, reverse=True)


def test_feasible_supercritical_power_laws(s_max):
    # alpha >= 2: no multiplier works (certified through the log domain)
    for alpha in (2.0, 2.5):
        p = RadialPotential.power_law(alpha)
        for c in (0.1, 1.0, 10.0):
            check = feasible(p, c, 1.0, s_max)
            assert not check.feasible
            assert check.evidence.certificate is not None


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_oscillation_certificate_is_the_whole_evidence(family):
    # the certificate alone proves a zero, so no sweep runs after it
    check = feasible(getattr(RadialPotential, family)(1), 1e80, 1.0)
    assert not check.feasible and check.method == "oscillation-certificate"
    out = check.evidence
    assert out.status is Status.ZERO_FOUND and out.first_zero is None
    assert out.certificate.kind == "oscillatory"
    assert all(column.size == 0 for column in out.trajectory.values())


# ---------------------------------------------------------------------------
# best constant
# ---------------------------------------------------------------------------

def test_best_constant_is_bessel_level(s_max, constant_pot):
    res = best_constant(constant_pot, 1.0, tol=1e-6, s_max=s_max)
    assert res.converged
    assert abs(res.c_best - Z0_SQ) <= 1e-4
    assert res.c_hi - res.c_lo <= res.tolerance * max(1.0, res.c_best)
    # the probes c* (1 -+ tol / 8) straddle the exact Bessel level c* = (z0 / R)^2,
    # so their midpoint is c* itself
    assert res.c_lo < Z0_SQ < res.c_hi
    assert abs(res.c_best / Z0_SQ - 1.0) <= 1e-14
    lo = res.evidence_lo
    assert lo.status is not Status.ZERO_FOUND or lo.first_zero >= 1.0 - 1e-9
    assert res.evidence_hi.status is Status.ZERO_FOUND


def test_best_constant_scaling(s_max):
    values = []
    for R in (0.5, 1.0, 2.0, 4.0):
        p = RadialPotential.constant(1.0, r_max=R)
        res = best_constant(p, R, tol=1e-6, s_max=s_max)
        values.append(res.c_best * R * R)
    spread = (max(values) - min(values)) / min(values)
    assert spread <= 1e-5


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.9, 1.999])
def test_best_constant_power_laws(alpha, s_max):
    res = best_constant(RadialPotential.power_law(alpha), 1.0, tol=1e-6,
                        s_max=s_max)
    # the bracket is relative for a single cell, also below c = 1, where the
    # absolute closing rule tol * max(1, c) / 2 let alpha = 1.999 (c = 1.4e-6)
    # return a bracket 17% wide
    c = power_law_best_constant(alpha, 1.0)
    assert res.c_hi - res.c_lo <= 0.25 * res.tolerance * c * (1.0 + 1e-9)
    assert abs(res.c_best / c - 1.0) <= 1e-14


def test_best_constant_scale_invariance(s_max):
    # c(V) is invariant under r -> beta r with amplitude beta^2
    p = RadialPotential.power_law(1.0)
    direct = best_constant(p, 1.0, tol=1e-8, s_max=s_max)
    scaled = best_constant(p.scaled(2.0), 0.5, tol=1e-8, s_max=s_max)
    assert scaled.c_best == pytest.approx(direct.c_best, rel=1e-7)


_R2 = np.geomspace(1e-8, 2.0, 200)


@pytest.mark.parametrize("p", [RadialPotential.constant(3.0, 2.0),
                               RadialPotential.custom(_R2, np.exp(3.0 * _R2)),
                               RadialPotential.custom(_R2, _R2 ** -1.5)],
                         ids=["constant", "exp3r", "r-1.5"])
@pytest.mark.parametrize("beta", [0.5, 4.0])
def test_best_constant_scale_invariance_of_cell_kinds(p, beta, s_max):
    # r -> beta^2 v(beta r) on the ball of radius R / beta has the same c(V)
    direct = best_constant(p, 1.5, s_max=s_max)
    scaled = best_constant(p.scaled(beta), 1.5 / beta, s_max=s_max)
    assert direct.converged and scaled.converged
    assert abs(scaled.c_best - direct.c_best) <= 1e-6 * max(1.0, direct.c_best)


_R40 = np.geomspace(1e-6, 1.0, 40)


@pytest.mark.parametrize("p, lo, hi", [
    (replace(RadialPotential.power_law(1.0), alpha=1.5), Z0_SQ / 16.0 * (1.0 - 1.3e-7),
     Z0_SQ / 16.0 * (1.0 + 1.3e-7)),
    (replace(RadialPotential.constant(), alpha=1.5), Z0_SQ * (1.0 - 1.3e-7),
     Z0_SQ * (1.0 + 1.3e-7)),
    (replace(RadialPotential.custom(_R40, np.exp(3.0 * _R40)), amplitude=0.0),
     1.2259260, 1.2259262)],
    ids=["power_law alpha 1 -> 1.5", "constant alpha 1.5", "table amplitude 0"])
def test_replaced_fields_answer_for_the_model_value_describes(p, lo, hi, s_max):
    # sigma is read off the model at every construction: a stored sigma = 1
    # kept alpha = 1's bracket [1.4457963, 1.4457967]; a constant's slope
    # read alpha, so v was r^-1.5 while its bracket was v = 1's; and a
    # table's unused amplitude 0 made its tail vanish (NoUpperBracket)
    res = best_constant(p, 1.0, s_max=s_max)
    assert res.converged and lo <= res.c_lo <= res.c_hi <= hi
    assert p.value(0.5) == pytest.approx(
        {Kind.POWER_LAW: 0.5 ** -1.5, Kind.CONSTANT: 1.0, Kind.CUSTOM: 4.501263}[p.kind], rel=1e-6)


def test_no_upper_bracket(s_max):
    with pytest.raises(NoUpperBracket):
        best_constant(RadialPotential.constant(0.0), 1.0, s_max=s_max)


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_amplitude_zero_log_family_has_no_upper_bracket(family, s_max, monkeypatch):
    # closed_form_multiplier raises UnsupportedPotential at A = 0, so the
    # closed form certifies nothing there: every probe is the principal
    # tail, the line z = 1 (61 DOP853 sweeps once), and all are feasible up
    # to the doubling cap, with no Euler-cell sweep
    import hardy_optim.ode as ode_mod
    ivp = _Counter(ode_mod._euler_sweep)
    monkeypatch.setattr(ode_mod, "_euler_sweep", ivp)
    p = getattr(RadialPotential, family)(1, amplitude=0.0)
    assert feasible(p, 1.0, 1.0, s_max).method == "principal-tail"
    with pytest.raises(NoUpperBracket):
        best_constant(p, 1.0, s_max=s_max)
    assert ivp.calls == 0


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
@pytest.mark.parametrize("amplitude", [0.05, 1.0, 20.0])
@pytest.mark.parametrize("f", [1e-12, 5e-11, 1e-10])
def test_no_feasible_verdict_just_above_the_sharp_threshold(family, amplitude, f, s_max,
                                                            monkeypatch):
    # 1/(4A) is sharp, yet a relative slack of 1e-10 on the non-oscillatory
    # edge 1/(4 gamma(s_max)), which is 1/(4A) at m = 1, once admitted a
    # certificate there, and the principal tail answered feasible.  Now the
    # answer is undecided, without a sweep
    import hardy_optim.ode as ode_mod
    ivp = _Counter(ode_mod._euler_sweep)
    monkeypatch.setattr(ode_mod, "_euler_sweep", ivp)
    p = getattr(RadialPotential, family)(1, amplitude=amplitude)
    with pytest.raises(IndeterminateAtHorizon):
        feasible(p, 0.25 / amplitude * (1.0 + f), 1.0, s_max)
    assert ivp.calls == 0


def test_power_laws_near_sigma_two_bracket_the_closed_form(s_max):
    # the series start gave up from alpha ~ 1.94 on; the exact J0 start on
    # the power law's one cell answers in the radius domain, in 3 probes
    # (c = 0 and the two around the Bessel level).  From alpha ~ 1.9999 on,
    # an expansion probe 2 c* put the first zero below every float radius
    # and raised UnsupportedSingularity; the probes c* (1 -+ tol/8) do not
    for alpha in (1.99, 1.999, 1.9999, 1.99999):
        p = RadialPotential.power_law(alpha)
        res = best_constant(p, 1.0, s_max=s_max)
        assert res.converged and res.iterations == 3
        assert "r" in res.evidence_hi.trajectory
        assert res.c_lo <= power_law_best_constant(alpha, 1.0) <= res.c_hi
        _assert_certified_bracket(p, 1.0, res, s_max)
    assert power_law_best_constant(1.99, 1.0) == pytest.approx(1.44580e-4, rel=1e-5)


@pytest.mark.parametrize("n, alpha", [(300, 1.9999), (400, 1.9999), (400, 1.99995),
                                      (500, 1.99991)])
def test_tables_near_sigma_two_bracket_the_closed_form(n, alpha, s_max):
    # a table has no predicted pair: its search doubles c, and past ~1.07 c*
    # the exact J0 start vanishes below every float radius (beyond s = 700),
    # which raised UnsupportedSingularity out of best_constant.  That zero is
    # an interior one: the multiplier is infeasible, and the shot reports its
    # log abscissa, whose radius underflows
    r = np.geomspace(1e-8, 1.0, n)
    p = RadialPotential.custom(r, r ** -alpha)
    c_star = power_law_best_constant(alpha, 1.0)
    far = feasible(p, 2.0 * c_star, 1.0, s_max)
    assert not far.feasible and far.method == "recessive-shot" and far.margin is None
    assert far.evidence.status is Status.ZERO_FOUND and far.evidence.first_zero == 0.0
    assert far.evidence.zero_s > 745.0
    # the table's own Bessel level, from its rounded inner cell, is c* to ~2e-9
    res = best_constant(p, 1.0, s_max=s_max)
    assert res.converged and res.c_lo <= c_star * (1.0 + 1e-8) and c_star <= res.c_hi


# ---------------------------------------------------------------------------
# radius-domain root solve: probe counts and certified ends
# ---------------------------------------------------------------------------

def _assert_certified_bracket(p, R, res, s_max):
    assert res.converged and res.band is None
    assert res.c_lo < res.c_best < res.c_hi or res.c_best == res.c_lo == 0.0   # c(V) = 0
    assert res.c_hi - res.c_lo <= 0.5 * res.tolerance * max(1.0, res.c_best)
    assert feasible(p, res.c_lo, R, s_max).feasible
    assert not feasible(p, res.c_hi, R, s_max).feasible


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 1.9])
def test_single_cell_best_constant_takes_three_probes_and_two_sweeps(alpha, s_max,
                                                                      monkeypatch):
    # the Bessel level is exact for one cell: c = 0 and the probes c* (1 -+
    # tol/8) are each decided by x(R) against z0, with no cell sweep (each
    # probe once took one)
    import hardy_optim.ode as ode_mod
    sweeps = _Counter(ode_mod._cell_sweep)
    monkeypatch.setattr(ode_mod, "_cell_sweep", sweeps)
    for amplitude in (0.05, 1.0, 20.0):
        for R in (0.25, 1.0, 4.0):
            p = RadialPotential.constant(amplitude, R) if alpha == 0.0 else \
                RadialPotential.power_law(alpha, amplitude, R)
            res = best_constant(p, R, tol=1e-6, s_max=s_max)
            assert res.iterations == 3 and sweeps.calls == 0
            c = power_law_best_constant(alpha, R) / amplitude
            assert abs(res.c_best / c - 1.0) <= 1e-14


@pytest.mark.parametrize("tol", [4.0, 8.0, 10.0])
def test_single_cell_plan_never_probes_a_nonpositive_multiplier(tol, s_max, monkeypatch):
    # at tol >= 8 the probe c* (1 - tol/8) would be <= 0: the loop searches
    # from c* instead
    import hardy_optim.bestconst as bestconst_mod
    probed = []

    def recorded(p, c, *args, **kwargs):
        probed.append(c)
        return feasible(p, c, *args, **kwargs)

    monkeypatch.setattr(bestconst_mod, "feasible", recorded)
    p = RadialPotential.power_law(1.0)
    res = best_constant(p, 1.0, tol=tol, s_max=s_max)
    assert probed[0] == 0.0 and all(c > 0.0 for c in probed[1:])
    assert res.c_lo <= power_law_best_constant(1.0, 1.0) <= res.c_hi
    assert feasible(p, res.c_lo, 1.0, s_max).feasible
    assert not feasible(p, res.c_hi, 1.0, s_max).feasible


def test_single_cell_level_at_any_size_takes_three_probes():
    # c* = (z0 / 2)^2 1e30 lies above 2^60: the plan skipped its exact pair
    # there, and the ladder from 2^60 raised NoUpperBracket
    p = RadialPotential.power_law(1.0, amplitude=1e-30)
    res = best_constant(p, 1.0)
    c_star = power_law_best_constant(1.0, 1.0) * 1e30
    assert res.converged and res.iterations == 3
    assert res.c_lo < c_star < res.c_hi and res.c_best == pytest.approx(1.4458e30, rel=1e-4)
    _assert_certified_bracket(p, 1.0, res, 1e6)
    # where c* (1 + tol / 8) overflows, the upper probe is the largest float
    p = RadialPotential.power_law(1.0, amplitude=1e-307)
    res = best_constant(p, 1.0, tol=100.0)
    assert res.converged and res.bracket == (0.0, sys.float_info.max)
    assert not feasible(p, res.c_hi, 1.0).feasible


@pytest.mark.parametrize("amplitude", [3.3e-308, 4e-308, 7e-308])
def test_single_cell_level_next_to_the_largest_double_converges(amplitude, s_max):
    # c* from 8.3e307 to 1.8e308: ln c* >= 709.0 was taken for an overflow
    # (ln of the largest double is 709.78), and the half-sums a + b of the
    # bracket's ends overflowed, so each answer was [2^1023, the largest
    # double], "converged" with c_best = inf
    p, tol = RadialPotential.constant(amplitude), 1e-6
    res = best_constant(p, 1.0, tol=tol, s_max=s_max)
    c_star = _exact_level(0.0, amplitude, 1.0)
    assert res.converged and res.iterations == 3
    assert abs(Decimal(res.c_lo) / (c_star * Decimal(1.0 - tol / 8.0)) - 1) <= Decimal(1e-12)
    assert abs(Decimal(res.c_hi) / (c_star * Decimal(1.0 + tol / 8.0)) - 1) <= Decimal(1e-12)
    assert math.isfinite(res.c_best) and abs(Decimal(res.c_best) / c_star - 1) <= Decimal(1e-12)
    _assert_certified_bracket(p, 1.0, res, s_max)


def test_table_search_is_unchanged(s_max):
    # a table's plan: probe count and bracket of a 400-node table, Newton on
    # its sweep's margin from the Bessel level, then the pair about the last
    # estimate (the doubling ladder and the Illinois close took 11 probes to
    # [1.2495454431420094, 1.249545755320257]).  That c_hi has its first
    # zero 2.3e-10 inside R: a boundary grace of 1e-9 R once certified it
    # feasible; it is infeasible
    r = np.geomspace(1e-8, 1.0, 400)
    p = RadialPotential.custom(r, np.exp(3.0 * r))
    res = best_constant(p, 1.0, s_max=s_max)
    assert res.iterations == 7
    assert res.c_lo == pytest.approx(1.2495455980255739, rel=1e-12)
    assert res.c_hi == pytest.approx(1.2495457545831166, rel=1e-12)
    _assert_certified_bracket(p, 1.0, res, s_max)
    old = feasible(p, 1.249545755320257, 1.0, s_max)
    assert not old.feasible and 2e-10 < old.evidence.zero_s < 3e-10


@pytest.mark.parametrize("shape", [lambda r: np.exp(3.0 * r), lambda r: r ** -1.5],
                         ids=["exp(3r)", "r^-1.5"])
def test_table_verdict_forms_no_trajectory(shape, monkeypatch):
    # a verdict reads the sweep's end row: one feasible call on a 400-node
    # table evaluates J0 and Y0 at both ends of its 399 segments, at the
    # inner start and at the end row or the zero's slope, 2 points per node,
    # and the zero search at most 3 more, one per phase evaluation; the
    # trajectory rows, formed eagerly, took 7,184 at c_lo
    import hardy_optim.ode as ode_mod
    r = np.geomspace(1e-8, 1.0, 400)
    p = RadialPotential.custom(r, shape(r))
    res = best_constant(p, 1.0)
    assert not {"trajectory"} & (vars(res.evidence_lo).keys() | vars(res.evidence_hi).keys())
    bessel, phase_root = ode_mod._bessel, ode_mod._phase_root
    for c, verdict in ((res.c_lo, True), (res.c_hi, False)):
        points = {False: [], True: []}    # outside and inside the zero search
        searching = []

        def search(*args):
            searching.append(True)
            try:
                return phase_root(*args)
            finally:
                searching.pop()
        monkeypatch.setattr(ode_mod, "_phase_root", search)
        monkeypatch.setattr(ode_mod, "_bessel",
                            lambda lnx: points[bool(searching)].append(np.size(lnx)) or bessel(lnx))
        check = feasible(p, c, 1.0)
        assert check.feasible is verdict and sum(points[False]) == 2 * r.size
        assert sum(points[True]) <= 3 and bool(points[True]) is not verdict
        assert "trajectory" not in vars(check.evidence)


@pytest.mark.parametrize("alpha, amplitude, R", [(0.0, 20.0, 4.0), (0.5, 3.0, 2.0)])
def test_table_zero_just_past_R_is_undecided(alpha, amplitude, R, s_max):
    # a two-node table of a constant or a power law is one cell, whose first
    # zero reaches R at the Bessel level c*.  Just above c* the zero lies
    # inside R by less than the sweep's accuracy, and the sweep may put it
    # past R: a zero-free sweep whose tangent at R vanishes within that
    # sliver past R is undecided, as a zero within it inside R is.  The
    # first 4 floats above c* were certified feasible
    from hardy_optim.bestconst import _bessel_level
    r = np.array([1e-3 * R, R])
    p = RadialPotential.custom(r, amplitude * r ** -alpha)
    c = _bessel_level(p, R)[0]
    for _ in range(4):
        c = math.nextafter(c, math.inf)
        try:
            assert not feasible(p, c, R, s_max).feasible, c
        except IndeterminateAtHorizon:
            pass
    # a zero-free sweep away from the sliver is still decided by it
    check = feasible(p, c * (1.0 - 1e-9), R, s_max)
    assert check.feasible and check.margin > 0.0


def test_table_level_within_the_sliver_closes_around_it(s_max):
    # a table of r^-1 starts its plan at its Bessel level, its c(V) to
    # rounding, which is undecided now that a zero just past R is.  The
    # pair c (1 -+ tol/8) beside that one undecided multiplier closes the
    # bracket around it: c = 0, c and the pair; bisecting toward it from 0
    # and 2c left a band (45 probes on the two-node table)
    from hardy_optim.bestconst import _bessel_level
    for r in (np.array([1e-3, 1.0]), np.logspace(-8, 0, 200)):
        p = RadialPotential.custom(r, 1.0 / r)
        c = _bessel_level(p, 1.0)[0]
        with pytest.raises(IndeterminateAtHorizon, match="accuracy of R"):
            feasible(p, c, 1.0, s_max)
        for tol in (1e-6, 1e-10):
            res = best_constant(p, 1.0, tol=tol, s_max=s_max)
            assert res.iterations == 4 and res.c_lo < c < res.c_hi
            assert res.c_best == pytest.approx(c, rel=1e-15)
            _assert_certified_bracket(p, 1.0, res, s_max)


@pytest.mark.parametrize("alpha, amplitude, R", [
    (0.0, 1.0, 1.0), (0.0, 3.0, 2.0), (0.0, 0.05, 0.25),
    (0.5, 1.0, 1.0), (0.5, 7.0, 3.0), (1.0, 1.0, 1.0), (1.0, 0.2, 0.5),
    (1.9, 1.0, 1.0), (1.9, 20.0, 4.0)])
def test_root_solve_shots_constant_and_power_law(alpha, amplitude, R, s_max):
    # the Bessel level is exact here: c = 0 and the two probes around it
    p = RadialPotential.constant(amplitude, R) if alpha == 0.0 else \
        RadialPotential.power_law(alpha, amplitude, R)
    res = best_constant(p, R, tol=1e-6, s_max=s_max)
    assert res.iterations <= 6
    c = power_law_best_constant(alpha, R) / amplitude
    assert res.c_lo <= c <= res.c_hi
    _assert_certified_bracket(p, R, res, s_max)


# (table, c_best of the bisection driver on it at tol 1e-6, probe budget);
# the bisection took 22-24 probes on each.  Without the Illinois step the
# oscillating table needs 12.
_CUSTOM_TABLES = {"1+5/r": (lambda r: 1.0 + 5.0 / r, 0.2768874168395996, 14),
                  "exp(3r)": (lambda r: np.exp(3.0 * r), 1.2259259223937988, 14),
                  "2+sin(8r)": (lambda r: 2.0 + np.sin(8.0 * r), 2.840723991394043, 10)}


@pytest.mark.parametrize("name", sorted(_CUSTOM_TABLES))
def test_root_solve_shots_custom_tables(name, s_max):
    fn, c_bisected, budget = _CUSTOM_TABLES[name]
    r = np.geomspace(1e-6, 1.0, 40)
    p = RadialPotential.custom(r, fn(r))
    res = best_constant(p, 1.0, tol=1e-6, s_max=s_max)
    assert res.iterations <= budget
    assert abs(res.c_best - c_bisected) <= res.tolerance * max(1.0, c_bisected)
    _assert_certified_bracket(p, 1.0, res, s_max)


_TABLE_NODES = np.geomspace(1e-7, 1.0, 40)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.9), st.floats(0.0, 8.0), st.floats(0.0, 6.3), st.floats(-12.0, 12.0))
@example(1.3, 7.0, 0.0, -12.0)    # the record digest's table, at 1e-12
def test_table_amplitude_symmetry(sigma, omega, phase, log_beta):
    # c(beta V) = c(V) / beta exactly, so beta times the bracket of beta v
    # and the bracket of v certify one number.  A table's bracket once
    # closed to width tol * max(1, c) / 2, all of [0, 2c] below c ~ 1e-6,
    # and its iterates moved with beta: 0.37422037 for the digest's table,
    # 0.37422045 for its copy scaled by 1e-30
    r = _TABLE_NODES
    v = r ** -sigma * (2.0 + np.sin(omega * np.log(r) + phase))
    p = RadialPotential.custom(r, v)
    assume(p.inner_cell[3] < 0.0)    # a falling inner cell: c(V) > 0
    beta = 10.0 ** log_beta
    a, b = best_constant(p, 1.0), best_constant(RadialPotential.custom(r, beta * v), 1.0)
    assert max(a.c_lo, beta * b.c_lo) <= min(a.c_hi, beta * b.c_hi) * (1.0 + 1e-15)
    for res in (a, b):
        assert not res.converged or res.c_hi - res.c_lo <= 0.5 * res.tolerance * res.c_lo


def test_custom_table_brackets_are_reproducible(s_max):
    # one ulp of any one sample moves the exact sweeps by rounding only, so
    # the Illinois iterates and the final bracket do not wander (adaptive
    # steps moved them by up to 8.8e-7)
    r = np.geomspace(1e-6, 1.0, 40)
    v = 1.0 + 5.0 / r
    a = best_constant(RadialPotential.custom(r, v), 1.0, s_max=s_max)
    for k in range(v.size):
        nudged = v.copy()
        nudged[k] = np.nextafter(nudged[k], math.inf)
        b = best_constant(RadialPotential.custom(r, nudged), 1.0, s_max=s_max)
        assert b.iterations == a.iterations
        for x, y in ((a.c_lo, b.c_lo), (a.c_hi, b.c_hi)):
            assert abs(x - y) <= 1e-10 * x


def test_illinois_close_bisects_where_an_end_has_no_margin(monkeypatch, s_max):
    # the zeros of this table lie beyond s = 700, below every float radius,
    # so its infeasible ends have no margin: the Illinois step put each
    # iterate on that end, and the clamp moved it by tol c / 4 a probe
    # (5,044 probes, 0.47 s, for [3.524488755113951e298, 3.5244896362257485e298])
    p = RadialPotential.custom([1e-10, 1e-9], [1e-305, 1e-307])
    assert feasible(p, 3.6e298, 1e-9, s_max).margin is None
    probes = _probe_counter(monkeypatch)
    res = best_constant(p, 1e-9, s_max=s_max)
    assert probes.calls == res.iterations <= 40
    assert res.c_lo <= 3.5244896362257485e298 and 3.524488755113951e298 <= res.c_hi
    _assert_certified_bracket(p, 1e-9, res, s_max)


def test_table_with_zeros_below_every_float_radius_is_planned_by_newton(monkeypatch, s_max):
    # c(V) ~ 3.5e298: a feasible probe's integral of g z^2 is below every
    # float, so each probe carried a mass of 0 or 5e-324, and past c(V) the
    # zeros lie below every float radius, with no margin: the plan bisected
    # ln c, 28 probes.  The integral of a z^2 (~2e-14) is a float, and such
    # a zero sits on the inner cell, where s* moves by -1/q in ln c
    p = RadialPotential.custom([1e-10, 1e-9], [1e-305, 1e-307])
    probes = _probe_counter(monkeypatch)
    res = best_constant(p, 1e-9, s_max=s_max)
    assert probes.calls == res.iterations <= 8
    assert res.c_lo <= 3.5244895629616671e298 and 3.5244887634764511e298 <= res.c_hi
    _assert_certified_bracket(p, 1e-9, res, s_max)
    out = feasible(p, res.c_lo, 1e-9, s_max).evidence
    assert out.c_mass / res.c_lo < 1e-300 and 1e-20 < out.c_mass < 1e-10


def test_table_domain_follows_its_inner_cell():
    # over its small decades the table is r^-1.5, but its inner cell, where
    # a recessive sweep starts, is r^-2.5 (slope q = 0.5 >= 0): the radius
    # domain raised UnsupportedSingularity ("use the log domain"), and sigma
    # was once the slope fitted over those decades, 1.5
    r = np.geomspace(1e-9, 1.0, 200)
    v = r ** -1.5
    v[0] = v[1] * (r[0] / r[1]) ** -2.5
    p = RadialPotential.custom(r, v)
    assert p.sigma == pytest.approx(2.5) and p.tail.log_domain
    check = feasible(p, 0.1, 1.0)
    assert not check.feasible and check.method == "oscillation-certificate"
    res = best_constant(p, 1.0)
    assert res.converged and res.c_lo == 0.0 and 0.0 < res.c_hi < 1e-6
    # the catalog kinds keep their domain: q = alpha - 2
    for alpha in (0.0, 1.0, 1.999, 2.0, 2.5):
        assert RadialPotential.power_law(alpha).tail.log_domain is (alpha >= 2.0)


class _Counter:
    """fn, counting its calls and those that raise IndeterminateAtHorizon."""

    def __init__(self, fn):
        self.fn, self.calls, self.undecided = fn, 0, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        try:
            return self.fn(*args, **kwargs)
        except IndeterminateAtHorizon:
            self.undecided += 1
            raise


@pytest.mark.parametrize("p", [
    RadialPotential.constant(2.0), RadialPotential.power_law(1.5, 3.0),
    RadialPotential.custom(np.geomspace(1e-6, 1.0, 40),
                           np.exp(3.0 * np.geomspace(1e-6, 1.0, 40)))],
    ids=["constant", "power_law", "custom"])
def test_radius_best_constant_sweeps_once_per_table_probe(p, s_max, monkeypatch):
    # a constant's and a power law's rules are closed form, with no sweep; a
    # table's plan sweeps once per probe, the line at c = 0 included
    import hardy_optim.ode as ode_mod
    counter = _Counter(ode_mod._sweep)
    monkeypatch.setattr(ode_mod, "_sweep", counter)
    res = best_constant(p, 1.0, s_max=s_max)
    assert res.converged
    assert counter.calls == (res.iterations if p.kind is Kind.CUSTOM else 0)
    assert p.kind is not Kind.CUSTOM or res.iterations == 7


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_log_best_constant_samples_the_tail_once(family, s_max, monkeypatch):
    # the tail is read as gamma from ln(s - s0) at two abscissae per edge
    # (``EulerTail.gamma``), so no probe samples g on an array; an array call
    # once cost 46 us, which an ``edges`` cache passed down saved
    shapes = []
    log_weight = RadialPotential.log_weight

    def spy(self, s):
        shapes.append(np.shape(s))
        return log_weight(self, s)

    monkeypatch.setattr(RadialPotential, "log_weight", spy)
    res = best_constant(getattr(RadialPotential, family)(2), 1.0, s_max=s_max)
    assert res.iterations == 3
    assert all(shape == () for shape in shapes)


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_log_best_constant_answers_c_zero_without_solve_ivp(family, s_max, monkeypatch):
    # c = 0 and c* = 1/(4A) are certified by the closed form, the upper end
    # by the oscillation certificate: the whole solve sweeps nothing (it
    # took one DOP853 principal tail at c_non)
    import hardy_optim.bestconst as bestconst_mod
    import hardy_optim.ode as ode_mod
    ivp = _Counter(ode_mod._euler_sweep)
    monkeypatch.setattr(ode_mod, "_euler_sweep", ivp)
    methods = {}

    def counted(p, c, *args, **kwargs):
        check = feasible(p, c, *args, **kwargs)
        methods[c] = check.method
        return check

    monkeypatch.setattr(bestconst_mod, "feasible", counted)
    res = best_constant(getattr(RadialPotential, family)(1), 1.0, s_max=s_max)
    assert ivp.calls == 0
    assert methods == {0.0: "closed-form", 0.25: "closed-form",
                       res.c_hi: "oscillation-certificate"}


def test_deep_horizon_bracket_holds_the_threshold():
    # at s_max = 1e120 the c_non tail of the s-variable sweep met a spurious
    # zero near s = 1.07e32, whose radius underflowed: ln(R / 0) raised
    # ZeroDivisionError; in tau = ln(s - s0) that tail stays positive
    res = best_constant(RadialPotential.filippas_tertikas(2), 1.0, s_max=1e120)
    assert res.c_lo <= 0.25 <= res.c_hi
    assert res.c_hi - res.c_lo < 2e-4


def test_shooting_margin_changes_sign_at_the_threshold(s_max, constant_pot):
    below = feasible(constant_pot, Z0_SQ * (1.0 - 1e-3), 1.0, s_max)
    above = feasible(constant_pot, Z0_SQ * (1.0 + 1e-3), 1.0, s_max)
    assert below.feasible and below.margin > 0.0
    assert not above.feasible and above.margin < 0.0
    # continuous across the zero reaching R: both sides are O(1e-3)
    assert below.margin - above.margin < 1e-2
    # only a recessive shot has one: the principal tail (which now only
    # decides where a = 0), the closed form and an oscillation certificate
    # have none
    tail = feasible(RadialPotential.power_law(2.5), 0.0, 1.0, s_max)
    assert tail.method == "principal-tail" and tail.feasible and tail.margin is None
    assert feasible(RadialPotential.adimurthi_log(1), 0.2, 1.0, s_max).margin is None
    assert feasible(RadialPotential.adimurthi_log(1), 0.35, 1.0, s_max).margin is None


def test_class_y_potential_collapses_to_zero(s_max):
    # a converged log-domain solve closes its bracket to the same width as
    # the radius-domain root solve
    p = RadialPotential.power_law(2.5)
    res = best_constant(p, 1.0, tol=1e-6, s_max=s_max)
    assert res.c_best <= 1e-5
    _assert_certified_bracket(p, 1.0, res, s_max)


_STEEP = np.geomspace(1e-6, 1.0, 400)


@pytest.mark.parametrize("p", [RadialPotential.power_law(2.0), RadialPotential.power_law(2.5),
                               RadialPotential.custom(_STEEP, _STEEP ** -2.2)],
                         ids=["alpha-2", "alpha-2.5", "table-r^-2.2"])
def test_zero_best_constant_takes_two_probes(p, s_max):
    # an inner cell with q >= 0 certifies every c > 0 infeasible, and the
    # upper probe is at most tol / 4: c = 0 and it close the bracket (the
    # halving search down from c = 1 took 23 probes)
    res = best_constant(p, 1.0, tol=1e-6, s_max=s_max)
    assert res.iterations == 2
    assert res.c_lo == 0.0
    _assert_certified_bracket(p, 1.0, res, s_max)


@pytest.mark.parametrize("p", [RadialPotential.power_law(2.0), RadialPotential.power_law(2.5),
                               RadialPotential.custom(_STEEP, _STEEP ** -2.2)],
                         ids=["alpha-2", "alpha-2.5", "table-r^-2.2"])
def test_zero_best_constant_is_its_feasible_end(p, s_max):
    # c(V) = 0 on a rising cell, bracketed by [0, 2^-1022]: c_best was that
    # bracket's midpoint, 1.1125369292536007e-308, a multiplier certified
    # infeasible like every c > 0
    res = best_constant(p, 1.0, s_max=s_max)
    assert res.converged and res.bracket == (0.0, 2.0 ** -1022)
    assert res.c_best == 0.0


@pytest.mark.parametrize("p", [RadialPotential.power_law(2.0), RadialPotential.power_law(2.5),
                               RadialPotential.custom(_STEEP, _STEEP ** -2.2)],
                         ids=["alpha-2", "alpha-2.5", "table-r^-2.2"])
@pytest.mark.parametrize("R", [1.0, 0.5])
def test_rising_inner_cell_is_infeasible_at_every_multiplier(p, R, s_max):
    # below the horizon-bound edge c_osc (7.47e-11 for alpha = 2 at
    # s_max = 1e6) these were undecided; the inner cell certifies them all
    assert feasible(p, 0.0, R, s_max).feasible
    for c in (1e-300, 1e-12, 1.0, 1e12):
        check = feasible(p, c, R, s_max)
        assert not check.feasible and check.method == "oscillation-certificate"
        cert = check.evidence.certificate
        assert cert.kind == "oscillatory" and cert.gamma > 0.0
        assert check.evidence.status is Status.ZERO_FOUND and check.evidence.first_zero is None


def _normal_end(p, R, s_max):
    """2^-1022 / min(gamma, 1), gamma of the rising cell's certificate at c =
    1: the least c whose c g(s1) is a normal double."""
    unit = euler_tail_certificate(log_problem(p, 1.0, R, s_max=s_max))
    return 2.0 ** -1022 / min(unit.gamma, 1.0)


def test_rising_inner_cell_at_the_tolerance_floor_takes_two_probes():
    # it stopped undecided after 35 probes, with the band (0, c_osc) between
    # the certified ends c = 0 and c_osc = 7.47e-11
    tol = 8.0 * 2.0 ** -52
    res = best_constant(RadialPotential.power_law(2.0), 1.0, tol=tol)
    assert res.converged and res.iterations == 2 and res.band is None
    assert res.c_lo == 0.0 and res.c_hi == 2.0 ** -1022    # g = 1


def test_rising_inner_cell_upper_end():
    # 2^-1022 / min(gamma, 1): for alpha = 2 g = 1, for alpha = 2.5 g at
    # the horizon passes the largest double.  The half-oscillation window
    # ending at s_max gave pi^2 / 1e12 and (pi / 4)^2 / 1e300
    for alpha in (2.0, 2.5):
        res = best_constant(RadialPotential.power_law(alpha), 1.0, tol=1.0)
        assert res.iterations == 2 and res.c_hi == 2.0 ** -1022
    # an inner cell beyond the horizon: the certificate still holds there
    # (the window gave tol / 4 = 0.25e-6)
    r = np.geomspace(1e-60, 1.0, 50)
    p = RadialPotential.custom(r, r ** -2.2)
    res = best_constant(p, 1.0, s_max=100.0)
    assert res.converged and res.iterations == 2 and res.c_hi == _normal_end(p, 1.0, 100.0)
    assert res.c_hi == 2.0 ** -1022


@pytest.mark.parametrize("amplitude", [1.0, 1e30, 1e-30])
@pytest.mark.parametrize("alpha", [2.0, 2.5])
def test_rising_inner_cell_upper_end_never_underflows(alpha, amplitude):
    # a window end (pi / (s_max - s*))^2 / g(s*) underflowed to 0 for
    # amplitude 1e30 at s_max = 1e150 (and for alpha = 2 beyond ~1e160), and
    # best_constant then doubled c = 0 forever.  The planned end is
    # positive, the same at every horizon, and certified by the cell
    p = RadialPotential.power_law(alpha, amplitude)
    horizons = (1e150, 1e300)
    ends = [_normal_end(p, 1.0, s_max) for s_max in horizons]
    assert all(end > 0.0 for end in ends) and ends[1] == ends[0]
    assert ends[0] == pytest.approx(2.0 ** -1022 / min(amplitude, 1.0), rel=1e-12)
    for s_max, end in zip(horizons, ends):
        end = end if alpha == 2.0 else 2.0 ** -1022    # q > 0: certified out where c g = 1
        res = best_constant(p, 1.0, s_max=s_max)
        assert res.bracket == (0.0, end) and res.iterations == 2
        check = feasible(p, end, 1.0, s_max)
        assert not check.feasible and check.method == "oscillation-certificate"


@pytest.mark.parametrize("p", [RadialPotential.power_law(2.0), RadialPotential.power_law(2.5),
                               RadialPotential.custom(_STEEP, _STEEP ** -2.2)],
                         ids=["alpha-2", "alpha-2.5", "table-r^-2.2"])
def test_rising_inner_cell_upper_end_is_the_same_at_every_horizon_and_tol(p):
    # the certificate holds out to s = inf, so neither the horizon nor tol
    # moves the end: the window gave 9.87e-12 (alpha = 2) at s_max = 1e6
    # and tol = 1e-6, but tol / 4 at 8 eps
    ends = {best_constant(p, 1.0, tol=tol, s_max=s_max).c_hi
            for s_max in (1e6, 1e300) for tol in (1e-6, 8.0 * 2.0 ** -52)}
    assert ends == {_normal_end(p, 1.0, 1e6)}


@pytest.mark.parametrize("alpha", [2.0, 2.5])
def test_rising_inner_cell_upper_end_does_not_widen_with_the_horizon(alpha):
    # s* = s_max - 2/q rounded to s_max once 2/q fell below the float spacing
    # of s_max, so the width was 0 and c_hi jumped to tol/4: for alpha = 2.5
    # 6.17e-301 at 1e6 and 1e15, but 2.5e-7 from 1e17 on
    p = RadialPotential.power_law(alpha)
    ends = [best_constant(p, 1.0, s_max=s_max).c_hi for s_max in (1e6, 1e15, 1e17, 1e20, 1e300)]
    assert all(b <= a for a, b in zip(ends, ends[1:])) and ends[-1] < 1e-290


@pytest.mark.parametrize("s_max", [math.inf, math.nan])
@pytest.mark.parametrize("p", [RadialPotential.constant(), RadialPotential.power_law(1.0),
                               RadialPotential.custom(_STEEP, 1.0 + _STEEP ** -1.5),
                               RadialPotential.power_law(2.5)],
                         ids=["constant", "alpha-1", "table", "alpha-2.5"])
def test_non_finite_horizon_is_rejected_for_every_kind(p, s_max):
    # the kinds decided in the radius domain build no log-domain problem, and
    # best_constant(constant(), 1.0, s_max=inf) returned c* = 5.78
    with pytest.raises(DomainError, match="horizon"):
        feasible(p, 1.0, 1.0, s_max)
    with pytest.raises(DomainError, match="horizon"):
        best_constant(p, 1.0, s_max=s_max)


@pytest.mark.parametrize("p", [RadialPotential.adimurthi_log(1),
                               RadialPotential.filippas_tertikas(2),
                               RadialPotential.power_law(2.5)],
                         ids=["adimurthi-1", "ft-2", "alpha-2.5"])
def test_log_domain_horizon_inside_the_ball_is_rejected(p):
    # at R = 1e-3 the outer edge is s = 6.9: s_max = 5 probed 60 undecided
    # multipliers of adimurthi_log(1) and raised NoUpperBracket (c(V) = 1/4),
    # and power_law(2.5) returned [0, 2.5e-7] from a principal tail swept
    # outward from the horizon to the edge
    edge = -math.log(1e-3) + 1e-9
    message = rf"horizon s_max = 5.0 not beyond the outer edge {re.escape(repr(edge))}"
    for s_max in (5.0, edge):
        with pytest.raises(DomainError, match="not beyond the outer edge"):
            log_problem(p, 1.0, 1e-3, s_max=s_max)
    with pytest.raises(DomainError, match=message):
        feasible(p, 1.0, 1e-3, s_max=5.0)
    with pytest.raises(DomainError, match=message):
        best_constant(p, 1e-3, s_max=5.0)
    assert log_problem(p, 1.0, 1e-3, s_max=math.nextafter(edge, math.inf)).s_max > edge


def test_tolerance_below_the_float_spacing_is_rejected():
    # below 8 eps the closing step no longer clears the float spacing of the
    # bracket's ends, and the same multiplier was probed forever
    p = RadialPotential.power_law(1.0)
    for tol in (1e-17, float(np.nextafter(8.0 * 2.0 ** -52, 0.0)), 0.0, -1e-6, math.nan):
        with pytest.raises(DomainError, match="tolerance"):
            best_constant(p, 1.0, tol=tol)


def test_tolerance_at_the_floor_converges(s_max):
    # at the floor every closing step lands strictly inside the bracket: the
    # plan's ends c* (1 -+ step), step = 2 slack + 8 eps, each certified,
    # are the band of test_single_cell_probes_at_the_floor, wider than tol
    # relative (it read converged while the test was absolute below c = 1)
    import hardy_optim.bestconst as bestconst_mod
    p, tol = RadialPotential.power_law(1.0, amplitude=1e6), 8.0 * 2.0 ** -52
    res = best_constant(p, 1.0, tol=tol, s_max=s_max)
    rule = bestconst_mod._rule(p, 1.0, s_max)
    step = 2.0 * rule.slack + tol
    assert res.iterations == 3 and not res.converged and res.band == res.bracket
    assert res.bracket == (rule.level * (1.0 - step), rule.level * (1.0 + step))
    assert res.c_best == res.c_lo and res.c_hi - res.c_lo > 0.5 * tol * res.c_lo
    assert feasible(p, res.c_lo, 1.0, s_max).feasible
    assert not feasible(p, res.c_hi, 1.0, s_max).feasible


@pytest.mark.parametrize("horizon", [1e6, 1e300])
def test_borderline_band_below_one_is_not_converged(horizon):
    # converged means within tol c / 2 wherever c_lo > 0: at amplitude 1e6
    # the band [1/(4A), c_osc] is 21% wide at the horizon 1e6 and 8e-5 at
    # 1e300, both of which read converged below c = 1 while the test was
    # absolute, tol / 2 = 5e-7
    p = RadialPotential.adimurthi_log(1, amplitude=1e6)
    res = best_constant(p, 1.0, s_max=horizon)
    assert not res.converged and res.band == res.bracket
    assert res.c_best == res.c_lo == 2.5e-7 and res.c_hi > res.c_lo * (1.0 + 1e-5)


def test_table_bracket_converges_only_within_a_relative_tol():
    # the 400-node r^-1.999 table at tol 1e-14: its certified ends lie 3e-14
    # apart relative, the sweep's accuracy, which read converged below c = 1
    # while the test was absolute; now the band of those ends
    r = np.geomspace(1e-8, 1.0, 400)
    p = RadialPotential.custom(r, r ** -1.999)
    res = best_constant(p, 1.0, tol=1e-14)
    assert not res.converged and res.band == res.bracket and res.c_best == res.c_lo
    assert 5e-15 < res.c_hi / res.c_lo - 1.0 < 1e-13
    assert feasible(p, res.c_lo, 1.0).feasible and not feasible(p, res.c_hi, 1.0).feasible


# ---------------------------------------------------------------------------
# one cell in closed form: x(R) against z0, and the undecided sliver
# ---------------------------------------------------------------------------

_Z0_40 = Decimal("2.404825557695772768621631879326454643124")   # first zero of J0


def _exact_level(alpha, amplitude, R):
    """c* = (z0 (2 - alpha)/2)^2 R^(alpha - 2) / A to 50 digits, for the
    floats alpha, A and R taken exactly."""
    with localcontext() as ctx:
        ctx.prec = 50
        two_minus = 2 - Decimal(alpha)
        return (_Z0_40 * two_minus / 2) ** 2 / (Decimal(amplitude) * Decimal(R) ** two_minus)


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12, 8.0 * 2.0 ** -52])
@pytest.mark.parametrize("alpha", [0.0, -0.5, 0.5, 1.0, 1.5, 1.9, 1.999])
def test_single_cell_bracket_holds_the_exact_level(alpha, tol, s_max):
    # a zero within 1e-9 R of R once counted as the boundary case: from tol
    # 1e-8 down, certified brackets excluded c* by ~(2 - alpha) 1e-9, and
    # below tol 1e-10 the Illinois close crawled (2,157 probes at 1e-12).
    # Decided by x(R) against z0, the bracket, or the band at the floor,
    # holds c* for every cell, tolerance and ball, in 3 probes down to 1e-12
    for amplitude in (0.05, 1.0, 20.0):
        for R in (0.25, 1.0, 4.0):
            p = RadialPotential.constant(amplitude, R) if alpha == 0.0 else \
                RadialPotential.power_law(alpha, amplitude, R)
            res = best_constant(p, R, tol=tol, s_max=s_max)
            assert Decimal(res.c_lo) < _exact_level(alpha, amplitude, R) < Decimal(res.c_hi)
            if tol >= 1e-12:
                assert res.converged and res.iterations == 3
            if res.converged:
                assert res.c_hi - res.c_lo <= 0.5 * tol * max(1.0, res.c_best)
            else:    # a band of the level's rounding
                assert res.c_hi / res.c_lo - 1.0 <= 1e-12


@pytest.mark.parametrize("alpha", [0.0, -0.5, 0.5, 1.0, 1.5, 1.9, 1.999])
def test_single_cell_probes_at_the_floor(alpha, s_max):
    # at tol = 8 eps the plan's ends c* (1 -+ step), step = 2 slack + 8 eps,
    # are the answer in three probes: a band where wider than tol.  A search
    # once closed it beside one undecided multiplier in 3 to 18 (132 for the
    # constant's when c (1 -+ tol/8) was undecided too)
    import hardy_optim.bestconst as bestconst_mod
    tol = 8.0 * 2.0 ** -52
    for amplitude in (0.05, 1.0, 20.0):
        for R in (0.25, 1.0, 4.0):
            p = _one_cell_potential(alpha, amplitude, R)
            res = best_constant(p, R, tol=tol, s_max=s_max)
            rule = bestconst_mod._rule(p, R, s_max)
            step = 2.0 * rule.slack + tol
            assert res.iterations == 3 and res.band in (None, res.bracket)
            assert res.bracket == (rule.level * (1.0 - step), rule.level * (1.0 + step))


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_power_law_close_takes_three_probes(tol, s_max):
    # 31 and 2,157 probes (1.2 s) when each probe was a sweep and the
    # Illinois close crawled by its clamp
    res = best_constant(RadialPotential.power_law(1.0), 1.0, tol=tol, s_max=s_max)
    assert res.converged and res.iterations == 3


def test_constant_boundary_grace_no_longer_admits_infeasible_multipliers(s_max):
    # its first zero lies at r = 0.99999999905: inside the ball, though
    # within the former grace of 1e-9 R, which counted it as feasible
    check = feasible(RadialPotential.constant(), Z0_SQ * (1.0 + 1.9e-9), 1.0, s_max)
    assert not check.feasible and check.margin < 0.0
    assert check.evidence.first_zero == pytest.approx(0.99999999905, abs=1e-11)
    for tol in (1e-8, 1e-9, 1e-10):    # c_lo / z0^2 - 1 was +1.25e-9, +1.62e-9, +2.0e-9
        res = best_constant(RadialPotential.constant(), 1.0, tol=tol, s_max=s_max)
        assert res.iterations == 3 and res.c_lo < Z0_SQ < res.c_hi


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.999])
def test_single_cell_verdict_within_the_rounding_of_the_level_is_undecided(alpha, s_max):
    p = RadialPotential.power_law(alpha, 3.0, 2.0)
    c = float(_exact_level(alpha, 3.0, 2.0))
    with pytest.raises(IndeterminateAtHorizon, match="Bessel threshold"):
        feasible(p, c, 2.0, s_max)
    above = feasible(p, c * (1.0 + 1e-12), 2.0, s_max)
    assert not above.feasible and above.method == "recessive-shot"
    # the zero where x = z0, s* = ln(1/R) + 2 ln(c / c*) / (2 - alpha), unswept
    zero_s = -math.log(2.0) + math.log1p(1e-12) / (2.0 - alpha)
    assert above.evidence.zero_s == pytest.approx(zero_s, rel=1e-12)
    assert above.evidence.trajectory["r"].size == 0
    assert feasible(p, c * (1.0 - 1e-12), 2.0, s_max).feasible


def _one_cell_potential(alpha, amplitude, R):
    return RadialPotential.constant(amplitude, R) if alpha == 0.0 else \
        RadialPotential.power_law(alpha, amplitude, R)


# a one cell drawn by alpha, log10 R and log10 c*, its amplitude solved for:
# c* inside and outside the float range, amplitudes from subnormal to 1e308
_CELLS = st.tuples(
    st.floats(-1.0, 1.9999), st.floats(-300.0, 300.0),
    st.one_of(st.floats(-330.0, -300.0), st.floats(-310.0, 310.0), st.floats(300.0, 330.0)))


def _cell(draw):
    alpha, log_R, log_level = draw
    two_minus = 2.0 - alpha
    log_amplitude = 2.0 * math.log10(Z0 * two_minus / 2.0) - two_minus * log_R - log_level
    if not -320.0 <= log_amplitude <= 308.0:
        return None
    R = 10.0 ** log_R
    return alpha, 10.0 ** log_amplitude, R


@settings(max_examples=400, deadline=None)
@given(_CELLS, st.sampled_from([0.0, 2e-16, -2e-16, 1e-15, -1e-15, 3e-14, -3e-14,
                                1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6]))
def test_single_cell_margin_is_within_its_slack_of_the_exact_margin(draw, offset):
    # the margin ln(c*/c) / 2 against 50 digits at c next to c*, the nearest
    # float (the largest double, or a subnormal) where c* leaves the floats:
    # within the rule's slack, and every verdict has the exact sign
    from hardy_optim import bestconst as bestconst_mod
    cell = _cell(draw)
    assume(cell is not None)
    alpha, amplitude, R = cell
    p = _one_cell_potential(alpha, amplitude, R)
    with localcontext() as ctx:
        ctx.prec = 50
        level = _exact_level(alpha, amplitude, R)
        c = min(max(float(level * (1 + Decimal(offset))), 5e-324), sys.float_info.max)
        exact = float((level.ln() - Decimal(c).ln()) / 2)
    try:
        check = feasible(p, c, R)
    except IndeterminateAtHorizon:
        check = None
    slack = bestconst_mod._slot[3].slack
    assert 0.0 < slack < 1e-11
    if check is None:
        assert abs(exact) <= 2.0 * slack, (cell, c)
    else:
        assert abs(check.margin - exact) <= slack, (cell, c, check.margin, exact)
        assert check.feasible is (exact > 0.0) and check.method == "recessive-shot"


@settings(max_examples=100, deadline=None)
@given(_CELLS)
@example((0.0, 0.0, 308.0))
def test_single_cell_is_never_swept(draw):
    # at every amplitude and R: probes decided in closed form, three of them
    # wherever c* (1 -+ tol / 8) are normal floats; the level past the float
    # range took the ladder and swept each probe (power_law(1.5) on R = 1e300)
    from hardy_optim import bestconst as bestconst_mod
    cell = _cell(draw)
    assume(cell is not None)
    alpha, amplitude, R = cell
    p = _one_cell_potential(alpha, amplitude, R)
    level = _exact_level(alpha, amplitude, R)
    with pytest.MonkeyPatch.context() as patch:
        sweeps = _Counter(bestconst_mod.integrate)
        patch.setattr(bestconst_mod, "integrate", sweeps)
        try:
            res = best_constant(p, R)
            assert res.converged and Decimal(res.c_lo) < level < Decimal(res.c_hi)
            assert res.c_hi - res.c_lo <= 0.5 * res.tolerance * max(1.0, res.c_hi)
            assert math.isfinite(res.c_best)
            assert res.iterations == 3 or (res.iterations == 2 and level < Decimal(2.0 ** -1021))
        except NoUpperBracket:
            assert level > Decimal(sys.float_info.max) * (1 - Decimal(1e-12))
        for c in (0.0, 5e-324, 1e-300, 1.0, 1e300, sys.float_info.max):
            try:
                feasible(p, c, R)
            except IndeterminateAtHorizon:
                pass
        assert sweeps.calls == 0


@settings(max_examples=150, deadline=None)
@given(_CELLS, st.sampled_from([8.0 * 2.0 ** -52, 1e-12, 1e-6]))
def test_single_cell_probes_no_undecided_multiplier(draw, tol):
    # each probe is an end its rule certifies: c = 0 and c* (1 -+ step), step
    # = max(tol / 8, 2 slack + 8 eps).  A search once closed the bracket
    # beside undecided multipliers, up to 24 probes a cell at tol = 8 eps
    cell = _cell(draw)
    assume(cell is not None)
    alpha, amplitude, R = cell
    level = _exact_level(alpha, amplitude, R)
    with pytest.MonkeyPatch.context() as patch:
        probes = _probe_counter(patch)
        try:
            res = best_constant(_one_cell_potential(alpha, amplitude, R), R, tol=tol)
        except NoUpperBracket:    # the largest double within the level's rounding, or below it
            assert level > Decimal(sys.float_info.max) * (1 - Decimal(1e-10))
            return
    assert probes.calls == res.iterations <= 3 and probes.undecided == 0
    assert Decimal(res.c_lo) < level < Decimal(res.c_hi)


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_log_family_probes_no_undecided_multiplier(family, m, monkeypatch):
    # c = 0, the closed-form end and the Euler edge, and the band between
    # them from the rule: two probes inside it were undecided by design
    probes = _probe_counter(monkeypatch)
    for amplitude in (0.05, 1.0, 20.0):
        for s_max in (1e6, 1e300):
            probes.calls = probes.undecided = 0
            res = best_constant(getattr(RadialPotential, family)(m, amplitude=amplitude), 1.0,
                                s_max=s_max)
            assert probes.calls == res.iterations == 3 and probes.undecided == 0
            assert res.band == (res.c_lo, res.c_hi)


def test_constant_level_past_the_saturation_of_value(s_max):
    # value(R) once saturated at 1e300, so amplitude 1e301 gave a converged
    # bracket around 5.78e-300, ten times c(V) = z0^2 / 1e301, and c = 1e-300
    # was certified feasible; amplitude 1e305 likewise at c = 1e-302
    p = RadialPotential.constant(1e301)
    res = best_constant(p, 1.0, s_max=s_max)
    assert res.converged and res.iterations == 3
    assert Decimal(res.c_lo) < _exact_level(0.0, 1e301, 1.0) < Decimal(res.c_hi)
    # c* to the rounding of e^(ln 1e301), ~700 ulps; relative, as pytest.approx's
    # absolute floor 1e-12 would pass any c ~ 1e-300
    assert abs(res.c_best / 5.7831859629467845e-301 - 1.0) <= 1e-12
    assert not feasible(p, 1e-300, 1.0, s_max).feasible
    assert not feasible(RadialPotential.constant(1e305), 1e-302, 1.0, s_max).feasible
    assert feasible(RadialPotential.constant(1e305), 5e-305, 1.0, s_max).feasible


def test_power_law_level_past_the_float_range_of_R_is_planned(s_max):
    # R^1.5 = 1e450: the search started from the level and the ladder closed
    # it to [3.6e-151, 7.2e-151]; it is c* (1 -+ tol / 8) now, in 3 probes
    p, tol = RadialPotential.power_law(1.5, r_max=1e300), 1e-6
    res = best_constant(p, 1e300, tol=tol, s_max=s_max)
    c_star = float(_exact_level(1.5, 1.0, 1e300))
    assert res.converged and res.iterations == 3
    # relative: pytest.approx's absolute floor 1e-12 would pass any c ~ 1e-151
    assert abs(res.c_lo / (c_star * (1.0 - tol / 8.0)) - 1.0) <= 1e-13
    assert abs(res.c_hi / (c_star * (1.0 + tol / 8.0)) - 1.0) <= 1e-13
    _assert_certified_bracket(p, 1e300, res, s_max)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.999])
def test_amplitude_zero_one_cell_is_feasible_in_closed_form(alpha, monkeypatch, s_max):
    # c v = 0: every multiplier is feasible by the vanishing tail's
    # certificate, unswept, as on every kind at amplitude 0 (a one cell's
    # answer was once its Bessel level c* = inf, "recessive-shot")
    import hardy_optim.bestconst as bestconst_mod
    sweeps = _Counter(bestconst_mod.integrate)
    monkeypatch.setattr(bestconst_mod, "integrate", sweeps)
    p = _one_cell_potential(alpha, 0.0, 2.0)
    for c in (0.0, 0.2, 1e300, sys.float_info.max, math.inf):
        check = feasible(p, c, 2.0, s_max)
        assert check.feasible and check.method == "principal-tail"
        assert check.evidence.status is Status.NO_ZERO_ON_INTERVAL
        assert check.evidence.first_zero is None
        cert = check.evidence.certificate
        assert cert.kind == "nonoscillatory" and cert.gamma == 0.0
    assert sweeps.calls == 0


_RISING_TABLE = np.geomspace(1e-6, 1.0, 400)
_C_V_ZERO = [(p, 0.0) for p in (RadialPotential.power_law(2.5), RadialPotential.power_law(2.0),
                                RadialPotential.custom(_RISING_TABLE, _RISING_TABLE ** -2.2))]
_C_V_ZERO += [(p, c) for p in (RadialPotential.constant(0.0), RadialPotential.power_law(1.5, 0.0),
                               RadialPotential.power_law(2.5, 0.0),
                               RadialPotential.adimurthi_log(2, amplitude=0.0),
                               RadialPotential.filippas_tertikas(1, amplitude=0.0))
              for c in (0.0, 1.0, 1e300)]


@pytest.mark.parametrize("p, c", _C_V_ZERO, ids=[
    "alpha-2.5", "alpha-2", "table-rising", *(f"{name}-A0-c{c:g}" for name in (
        "constant", "alpha-1.5", "alpha-2.5", "log-m2", "x-m1") for c in (0.0, 1.0, 1e300))])
def test_c_v_zero_is_answered_by_the_tail_without_a_sweep(p, c, monkeypatch, s_max):
    # where c v = 0 (c = 0, or amplitude 0 of any kind) y = 1 solves on the
    # whole ball, known before any integration: the verdict is the vanishing
    # tail's certificate, with no shooting problem, tail certificate or
    # sweep.  A rising cell's probe at c = 0 built a log problem and swept
    # the line z = 1 back from the horizon, and a falling kind at amplitude 0
    # answered "recessive-shot" from its Bessel level c* = inf
    import hardy_optim.bestconst as bestconst_mod
    import hardy_optim.ode as ode_mod

    def boom(*args, **kwargs):
        raise AssertionError("c v = 0 built a shooting problem or swept")

    monkeypatch.setattr(ode_mod.HardyODEProblem, "__post_init__", boom)
    for module, name in ((bestconst_mod, "euler_tail_certificate"),
                         (bestconst_mod, "integrate_principal_tail"), (ode_mod, "_sweep")):
        monkeypatch.setattr(module, name, boom)
    check = feasible(p, c, 1.0, s_max)
    out = check.evidence
    assert check.feasible and check.method == "principal-tail"
    assert out.status is Status.NO_ZERO_ON_INTERVAL and out.first_zero is None
    assert out.certificate.kind == "nonoscillatory" and out.certificate.gamma == 0.0


@pytest.mark.parametrize("alpha, amplitude, R", [(0.5, 3.0, 2.0), (0.0, 20.0, 4.0)])
def test_table_zero_next_to_the_boundary_is_undecided(alpha, amplitude, R, s_max):
    # a two-node table that is exactly a power law is one model cell with
    # knots, so it is swept; a zero within 1e-9 R of R was feasible
    r = np.array([1e-3 * R, R])
    p = RadialPotential.custom(r, amplitude * r ** -alpha)
    c = float(_exact_level(alpha, amplitude, R))
    for f in (1e-9, 1e-13):
        assert not feasible(p, c * (1.0 + f), R, s_max).feasible
        assert feasible(p, c * (1.0 - f), R, s_max).feasible
    with pytest.raises(IndeterminateAtHorizon, match="accuracy"):
        feasible(p, c * (1.0 + 4e-15), R, s_max)


# ---------------------------------------------------------------------------
# borderline catalog: certified bracketing around 1/4
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_critical_quarter_bracketing(family, s_max):
    p = getattr(RadialPotential, family)(1)
    check_lo = feasible(p, 0.25, 1.0, s_max)
    check_hi = feasible(p, 0.35, 1.0, s_max)
    assert check_lo.feasible and check_lo.method == "closed-form"
    assert not check_hi.feasible and check_hi.method == "oscillation-certificate"


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
@pytest.mark.parametrize("m", [2, 3])
def test_critical_deeper_levels(family, m, s_max):
    # the cumulative sum potentials keep threshold 1/4 for every depth: the
    # closed form certifies it, but their coefficient approaches the Euler
    # line only like 1/(ln s)^2, so at desk scale the next multiplier above
    # 1/4 is an honest indeterminate (deciding there needs the next
    # iterated-log comparison level)
    p = getattr(RadialPotential, family)(m)
    assert feasible(p, 0.20, 1.0, s_max).feasible
    at = feasible(p, 0.25, 1.0, s_max)
    assert at.feasible and at.method == "closed-form"
    assert not feasible(p, 0.35, 1.0, s_max).feasible
    assert not feasible(p, 1.0, 1.0, s_max).feasible
    with pytest.raises(IndeterminateAtHorizon):
        feasible(p, math.nextafter(0.25, 1.0), 1.0, s_max)


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_critical_indeterminate_at_short_horizon(family):
    p = getattr(RadialPotential, family)(1)
    with pytest.raises(IndeterminateAtHorizon):
        feasible(p, 0.35, 1.0, s_max=1e4)


def test_critical_best_constant_reports_band(s_max, adimurthi_1):
    res = best_constant(adimurthi_1, 1.0, tol=1e-6, s_max=s_max)
    assert not res.converged
    assert res.band is not None
    assert res.c_lo == 0.25                            # certified feasible edge
    assert 0.25 < res.c_hi < 0.35                      # certified infeasible edge
    assert res.c_best == res.c_lo
    # the closed form is the lower evidence, the certificate the upper
    lo_ev, hi_ev = res.evidence_lo, res.evidence_hi
    assert lo_ev.status is Status.NO_ZERO_ON_INTERVAL
    assert lo_ev.certificate is None and lo_ev.first_zero is None
    assert all(column.size == 0 for column in lo_ev.trajectory.values())
    assert hi_ev.status is Status.ZERO_FOUND or (
        hi_ev.certificate is not None and hi_ev.certificate.kind == "oscillatory")


@pytest.mark.parametrize("family, m, amplitude", [
    ("adimurthi_log", 1, 0.26), ("adimurthi_log", 1, 0.3), ("filippas_tertikas", 2, 0.26)])
def test_indeterminate_doubling_multiplier_reports_band(family, m, amplitude):
    # c = 1 lies inside the band above 1/(4A), undecided at the horizon 1e6
    # (certified at the default, 1e300); the plan's predicted edges bracket
    # that band (the doubling phase once met c = 1 before a
    # certified-infeasible multiplier)
    p, s_max = getattr(RadialPotential, family)(m, amplitude=amplitude), 1e6
    with pytest.raises(IndeterminateAtHorizon):
        feasible(p, 1.0, 1.0, s_max)
    res = best_constant(p, 1.0, tol=1e-6, s_max=s_max)
    assert not res.converged and res.band == (res.c_lo, res.c_hi)
    assert res.c_lo <= 0.25 / amplitude <= res.c_hi
    assert res.c_best == res.c_lo
    assert (res.c_hi - res.c_lo) * amplitude / 0.25 < 0.3
    # both band edges re-verify as certified
    assert feasible(p, res.c_lo, 1.0, s_max).feasible
    hi = feasible(p, res.c_hi, 1.0, s_max)
    assert not hi.feasible and hi.method == "oscillation-certificate"


def _assert_quarter_edge(c, amplitude):
    """c is the largest float whose product with A is at most 1/4, exactly."""
    a = Fraction(amplitude)
    assert Fraction(c) * a <= Fraction(1, 4) < Fraction(math.nextafter(c, math.inf)) * a


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("amplitude", [0.05, 1.0, 20.0])
@pytest.mark.parametrize("R", [1.0, 0.5])
def test_closed_form_lower_end_agrees_with_the_sweep(family, m, amplitude, R, monkeypatch):
    # the principal tail at c = 1/(4 gamma(s_max)) <= 1/(4A), from a
    # non-oscillatory certificate built by hand (no verdict reads one), finds
    # what the closed form proves on all of [0, 1/(4A)]: no interior zero.
    # best_constant then starts at 1/(4A) and sweeps nothing
    import hardy_optim.ode as ode_mod
    p = getattr(RadialPotential, family)(m, amplitude=amplitude)
    horizons = (1e4, 1e6, 1e150)
    for s_max in horizons:
        _, (gamma, shift, _) = p.tail.edge(R, s_max)
        c = 0.25 / gamma
        assert 0.0 < c * amplitude <= 0.25 * (1.0 + 1e-15)
        prob = log_problem(p, c, R, s_max=s_max)
        cert = TailCertificate("nonoscillatory", c * gamma, shift, (s_max, math.inf))
        out = integrate_principal_tail(prob, cert)
        assert out.status is Status.NO_ZERO_ON_INTERVAL and out.first_zero is None
    ivp = _Counter(ode_mod._euler_sweep)
    monkeypatch.setattr(ode_mod, "_euler_sweep", ivp)
    for s_max in horizons:
        res = best_constant(p, R, s_max=s_max)
        assert res.c_lo == res.c_best and res.iterations <= 5
        _assert_quarter_edge(res.c_lo, amplitude)
        assert res.evidence_lo.certificate is None
    assert ivp.calls == 0


# A * [c_lo, c_hi] of the bisection driver at A = 1: the predicted upper
# edge may only lie inside these bands
_BISECTED_BANDS = {
    ("adimurthi_log", 1): (0.25, 0.30295), ("filippas_tertikas", 1): (0.25, 0.30295),
    ("adimurthi_log", 2): (0.24855, 0.31351), ("filippas_tertikas", 2): (0.24874, 0.30234),
    ("adimurthi_log", 3): (0.24833, 0.33174), ("filippas_tertikas", 3): (0.24865, 0.30125)}


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("amplitude", [0.05, 1.0, 20.0])
def test_predicted_band_edges_are_certified_and_sharp(family, m, amplitude, s_max):
    p = getattr(RadialPotential, family)(m, amplitude=amplitude)
    res = best_constant(p, 1.0, tol=1e-6, s_max=s_max)
    assert res.iterations <= 6
    assert not res.converged and res.band == (res.c_lo, res.c_hi)
    lo, hi = feasible(p, res.c_lo, 1.0, s_max), feasible(p, res.c_hi, 1.0, s_max)
    assert lo.feasible and lo.method == "closed-form"
    assert not hi.feasible and hi.method == "oscillation-certificate"
    # the next float beyond either certified extreme is undecided: no
    # certificate of any kind reaches above c_lo = 1/(4A)
    for c in (math.nextafter(res.c_lo, math.inf), math.nextafter(res.c_hi, 0.0)):
        with pytest.raises(IndeterminateAtHorizon):
            feasible(p, float(c), 1.0, s_max)
    # the lower edge is c(V) = 1/(4A) itself for every m, the largest float
    # not above it; the bisection had only 0.2486 A^-1 for m >= 2
    _assert_quarter_edge(res.c_lo, amplitude)
    assert res.c_lo < res.c_hi
    assert amplitude * res.c_hi <= _BISECTED_BANDS[family, m][1]


@pytest.mark.parametrize("s_max", [1e30, 1e300])
def test_band_at_huge_horizons(s_max):
    # at s_max = 1e300 the shifted gamma once formed inf * 0 = nan, and the
    # band came out as [0, 0.25010] with c_best = 0; then horizons stopped at
    # 1e150; read from ln(s - s0), gamma is exact at every finite horizon
    p = RadialPotential.adimurthi_log(1)
    assert log_problem(p, 0.25, 1.0, s_max=s_max).s_max == s_max
    with pytest.raises(IndeterminateAtHorizon, match=re.escape(f"s_max = {s_max}")):
        feasible(p, 0.25005 if s_max < 1e150 else 0.2500005, 1.0, s_max=s_max)
    at_1e6, at_1e150 = (best_constant(p, 1.0, tol=1e-6, s_max=h) for h in (1e6, 1e150))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = best_constant(p, 1.0, tol=1e-6, s_max=s_max)
    assert res.c_lo == pytest.approx(0.25, abs=1e-6) and res.c_best == res.c_lo
    assert res.c_lo < res.c_hi <= at_1e6.c_hi
    if s_max > 1e150:
        assert res.c_hi < at_1e150.c_hi


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_band_at_1e300_is_within_1e_4(family, m):
    # the band [1/(4A), c_osc] narrows like 4 (pi / ln s_max)^2 and took
    # 3.3e-4 relative at the former horizon cap 1e150; at 1e300 it is
    # 8.3e-5, in three probes (five, with two undecided inside the band)
    res = best_constant(getattr(RadialPotential, family)(m), 1.0, s_max=1e300)
    assert res.iterations == 3 and res.band == (res.c_lo, res.c_hi)
    assert res.c_lo == 0.25 and res.c_hi / res.c_lo - 1.0 <= 1e-4


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_band_narrower_than_tol_takes_three_probes(family):
    # at s_max = 1e300 the band [1/4, c_osc] of m = 2 is ~2e-5 wide, below
    # tol = 1e-3, so the inside probes are not ordered: the plan fell back to
    # the doubling ladder from c = 1 (13 probes, c_hi = 0.2504883)
    p = getattr(RadialPotential, family)(2)
    c_osc = p.tail.edge(1.0, 1e300)[0]
    res = best_constant(p, 1.0, tol=1e-3, s_max=1e300)
    assert res.converged and res.iterations == 3 and res.band is None
    assert res.bracket == (0.25, c_osc) and 0.0 < c_osc - 0.25 < 3e-5


def test_infinite_euler_edge_is_indeterminate(monkeypatch):
    # with s_max one ulp past the outer edge, s_max - s0 rounds to the
    # edge's sigma and c_osc is infinite: the ladder doubled 60 undecided
    # multipliers and raised NoUpperBracket ("best constant is unbounded"),
    # though nothing above 1/(4A) is decided infeasible
    import hardy_optim.bestconst as bestconst_mod
    p, s_max = RadialPotential.adimurthi_log(1, rho=1e300), math.nextafter(1e-9, math.inf)
    assert p.tail.edge(1.0, s_max)[0] == math.inf
    probed = []

    def recorded(p, c, *args):
        probed.append(c)
        return feasible(p, c, *args)

    monkeypatch.setattr(bestconst_mod, "feasible", recorded)
    band = re.escape(f"[0.25, inf) undecided") + ".*" + re.escape(f"s_max = {s_max!r}")
    with pytest.raises(IndeterminateAtHorizon, match=band):
        best_constant(p, 1.0, s_max=s_max)
    assert len(probed) <= 2


def test_contradicting_verdict_widens_the_band(monkeypatch, s_max):
    # a feasible verdict above an undecided multiplier contradicts Sturm
    # monotonicity: it joins the band instead of moving the feasible end
    # past it, which would probe the same multiplier forever.  The pair
    # about the undecided level steps out by doubling, so each end lands
    # less than twice as far from the level as the edge on its side, not
    # within 1e-6 of it
    import hardy_optim.bestconst as bestconst_mod
    calls = []

    def fake_feasible(p, c, R, s_max, edges=None):
        calls.append(c)
        assert len(calls) < 200, "best_constant did not terminate"
        if 0.25 <= c < 0.3:
            raise IndeterminateAtHorizon(f"multiplier {c}", multiplier=c)
        return bestconst_mod.FeasibilityCheck(c < 0.25 or 0.3 <= c < 0.35, None, "fake")

    monkeypatch.setattr(bestconst_mod, "feasible", fake_feasible)
    # a flat 40-node table of Bessel level 0.27: a log family no longer searches
    r = np.geomspace(1e-3, 1.0, 40)
    p = RadialPotential.custom(r, np.full(40, Z0_SQ / 0.27))
    assert bestconst_mod._bessel_level(p, 1.0)[0] == pytest.approx(0.27, rel=1e-12)
    res = best_constant(p, 1.0, tol=1e-6, s_max=s_max)
    assert not res.converged and res.band == (res.c_lo, res.c_hi)
    assert res.c_lo < 0.25 and 0.35 <= res.c_hi


# ---------------------------------------------------------------------------
# the rule: what decides a probe before c is known, built once per (p, R, s_max)
# ---------------------------------------------------------------------------

# every magnitude of double, subnormals and 2^+-1000 included (and 0, where
# ldexp underflows)
_DOUBLES = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1080, 1023))


def _exactly_covered(c, A):
    return Fraction(c) * Fraction(A) <= Fraction(1, 4)


@settings(max_examples=500, deadline=None)
@given(_DOUBLES, _DOUBLES)
def test_closed_form_cover_is_exact(c, A):
    import hardy_optim.potentials as potentials_mod
    assert potentials_mod._closed_form_covers(c, A) == _exactly_covered(c, A)
    assert not potentials_mod._closed_form_covers(math.inf, A)


@settings(max_examples=300, deadline=None)
@given(_DOUBLES.filter(lambda A: A > 0.0), st.integers(-2, 2))
def test_closed_form_cover_next_to_the_quarter(A, steps):
    # c a few ulps either side of 1/(4A), where the product decides by ulps
    import hardy_optim.potentials as potentials_mod
    c = 0.25 / A
    for _ in range(abs(steps)):
        c = math.nextafter(c, math.copysign(math.inf, steps))
    if c < math.inf:
        assert potentials_mod._closed_form_covers(c, A) == _exactly_covered(c, A)


@settings(max_examples=100, deadline=None)
@given(_DOUBLES.filter(lambda A: A > 0.0))
def test_rule_closed_form_end_is_the_largest_covered_float(A):
    import hardy_optim.bestconst as bestconst_mod
    rule = bestconst_mod._rule(RadialPotential.adimurthi_log(1, amplitude=A), 1.0, 40.0)
    assert _exactly_covered(rule.c_closed, A)
    above = math.nextafter(rule.c_closed, math.inf)
    assert above == math.inf or not _exactly_covered(above, A)


def _verdict(p, c, R, s_max):
    """A probe's verdict with its evidence, or the message of an undecided one."""
    try:
        check = feasible(p, c, R, s_max)
    except IndeterminateAtHorizon as exc:
        return str(exc)
    ev = check.evidence
    return (check.feasible, check.method, check.margin, ev.zero_s, ev.status, ev.certificate,
            {name: column.size for name, column in ev.trajectory.items()})


def test_interleaved_rules_give_the_verdicts_of_a_cleared_slot(s_max):
    # the slot is keyed by the potential object and equal R and s_max: each
    # switch builds the rule of its own key, and an equal but distinct
    # potential gets its own
    import hardy_optim.bestconst as bestconst_mod
    p, q = RadialPotential.adimurthi_log(2, amplitude=3.0), RadialPotential.power_law(1.2, 2.0)
    twin = RadialPotential.adimurthi_log(2, amplitude=3.0)
    assert twin == p and twin is not p
    keys = [(p, 1.0, s_max), (p, 0.5, s_max), (q, 1.0, s_max), (p, 1.0, 2.0 * s_max),
            (twin, 1.0, s_max), (p, 1.0, s_max), (q, 0.5, s_max)]
    multipliers = [0.0, 0.05, 0.25 / 3.0, 0.25 / 3.0 * (1.0 + 1e-9), 0.0834, 0.3, 0.46, 0.8, 10.0]
    decided = set()
    for key in keys:
        for c in multipliers:
            kept = _verdict(key[0], c, *key[1:])
            assert bestconst_mod._slot[0] is key[0]
            bestconst_mod._slot = None
            assert _verdict(key[0], c, *key[1:]) == kept, (key[1:], c)
            decided.add(kept if isinstance(kept, str) else kept[1])
    assert {"closed-form", "oscillation-certificate", "recessive-shot"} <= decided
    assert any(isinstance(v, str) and "Euler" in v for v in decided)


def test_invalid_horizon_builds_no_rule(s_max):
    # a rule that fails to build stores nothing: the horizon is checked on
    # every call, and the kept rule of the valid horizon stays
    import hardy_optim.bestconst as bestconst_mod
    p = RadialPotential.filippas_tertikas(1)
    assert feasible(p, 0.1, 1e-3, s_max).method == "closed-form"
    kept = bestconst_mod._slot
    for _ in range(2):
        with pytest.raises(DomainError, match="not beyond the outer edge"):
            feasible(p, 0.1, 1e-3, 5.0)
        assert bestconst_mod._slot is kept


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_best_constant_reads_the_euler_edges_once(family, s_max, monkeypatch):
    # the plan and all three probes share one rule, whose Euler edge is read
    # once, from floats: no shooting problem is built (tail_edges of a log
    # problem was read for the plan and once more in each probe above 1/(4A))
    from hardy_optim.ode import HardyODEProblem
    from hardy_optim.potentials import EulerTail
    edges, problems = _Counter(EulerTail.edge), _Counter(HardyODEProblem.__post_init__)
    monkeypatch.setattr(EulerTail, "edge", lambda tail, *args: edges(tail, *args))
    monkeypatch.setattr(HardyODEProblem, "__post_init__", lambda prob: problems(prob))
    res = best_constant(getattr(RadialPotential, family)(2, amplitude=0.7), 1.0, s_max=s_max)
    assert res.iterations == 3 and res.c_lo == 0.25 / 0.7
    assert edges.calls == 1 and problems.calls == 0


def test_power_law_best_constant_reads_the_bessel_level_once(s_max, monkeypatch):
    # it ran once for the plan and once more in each of the 3 probes
    import hardy_optim.bestconst as bestconst_mod
    level = _Counter(bestconst_mod._bessel_level)
    monkeypatch.setattr(bestconst_mod, "_bessel_level", level)
    res = best_constant(RadialPotential.power_law(1.3, 2.0, r_max=0.7), 0.7, s_max=s_max)
    assert res.iterations == 3 and res.converged
    assert level.calls == 1


# ---------------------------------------------------------------------------
# the ends of the search: no float multiplier is infeasible, or a certified end
# ---------------------------------------------------------------------------

_FLAT = np.geomspace(1e-8, 1.0, 400)


def _probe_counter(monkeypatch):
    import hardy_optim.bestconst as bestconst_mod
    counter = _Counter(bestconst_mod.feasible)
    monkeypatch.setattr(bestconst_mod, "feasible", counter)
    return counter


def test_table_level_above_2_to_60_converges(monkeypatch, s_max):
    # c(V) = z0^2 / 1e-30: the ladder started at 2^60 and stopped there with
    # NoUpperBracket, "best constant is unbounded"
    p = RadialPotential.custom(_FLAT, 1e-30 * np.ones(_FLAT.size))
    probes = _probe_counter(monkeypatch)
    res = best_constant(p, 1.0, s_max=s_max)
    assert probes.calls == res.iterations <= 5
    assert res.c_lo < Z0_SQ / 1e-30 < res.c_hi and res.c_best == pytest.approx(5.7831859e30)
    _assert_certified_bracket(p, 1.0, res, s_max)


def test_table_level_past_the_largest_double_has_no_upper_bracket(monkeypatch, s_max):
    # c(V) = 5.8e310: the search starts at the largest double, which is
    # feasible, so no float multiplier is infeasible (62 probes to 2^60 before)
    p = RadialPotential.custom(_FLAT, 1e-310 * np.ones(_FLAT.size))
    probes = _probe_counter(monkeypatch)
    with pytest.raises(NoUpperBracket, match="no float multiplier"):
        best_constant(p, 1.0, s_max=s_max)
    assert probes.calls <= 3
    assert feasible(p, sys.float_info.max, 1.0, s_max).feasible


@pytest.mark.parametrize("r_max", [1e-200, 1e200])
def test_constant_level_whose_power_of_R_leaves_the_float_range(r_max, s_max):
    # c* = z0^2 / R^2 was a ZeroDivisionError (R^2 underflows) or an
    # OverflowError (R^2 overflows); the search starts at its nearest float
    p = RadialPotential.constant(1.0, r_max)
    if r_max < 1.0:
        with pytest.raises(NoUpperBracket, match="no float multiplier"):
            best_constant(p, r_max, s_max=s_max)
        return
    res = best_constant(p, r_max, s_max=s_max)
    assert res.converged and res.c_lo == 0.0 and 0.0 < res.c_hi <= 1e-299
    assert not feasible(p, res.c_hi, r_max, s_max).feasible


def test_power_law_level_whose_power_of_R_overflows(s_max):
    # R^alpha = 1e450 raised OverflowError; the search starts at c* = (z0 / 4)^2
    # / 1e150 from R^2 v(R) = 1e150
    p, c_star = RadialPotential.power_law(1.5, r_max=1e300), (Z0 / 4.0) ** 2 / 1e150
    res = best_constant(p, 1e300, s_max=s_max)
    assert res.iterations <= 4
    assert res.c_lo <= c_star * (1.0 + 1e-12) and c_star <= res.c_hi <= 4.0 * c_star
    _assert_certified_bracket(p, 1e300, res, s_max)


@pytest.mark.parametrize("p", [
    RadialPotential.constant(0.0), RadialPotential.power_law(1.0, 0.0),
    RadialPotential.power_law(2.5, 0.0), RadialPotential.adimurthi_log(1, amplitude=0.0),
    RadialPotential.filippas_tertikas(2, amplitude=0.0)],
    ids=["constant", "alpha-1", "alpha-2.5", "log-m1", "x-m2"])
def test_amplitude_zero_is_answered_after_one_probe(p, monkeypatch, s_max):
    # c v = 0 at every c: the ladder spent 62 probes doubling to 2^60
    probes = _probe_counter(monkeypatch)
    with pytest.raises(NoUpperBracket, match="amplitude 0"):
        best_constant(p, 1.0, s_max=s_max)
    assert probes.calls <= 1


@pytest.mark.parametrize("alpha, R", [(2.5, 1e300), (3.0, 1e200)])
def test_rising_cell_with_an_underflowing_outer_edge_is_certified(alpha, R, monkeypatch):
    # g(s1) = 1e-300 R^(2 - alpha) underflows, so the certificate was None:
    # the plan probed tol / 4 and the ladder doubled to 2^60 in 83 probes,
    # "best constant is unbounded".  It starts where c g = 1 now
    p = RadialPotential.power_law(alpha, 1e-300, r_max=R)
    probes = _probe_counter(monkeypatch)
    res = best_constant(p, R)
    assert probes.calls == res.iterations == 2 and res.converged
    assert res.c_lo == 0.0 and res.c_hi == pytest.approx(2.0 ** -1022, rel=1e-12)
    check = feasible(p, res.c_hi, R)
    assert not check.feasible and check.method == "oscillation-certificate"
    cert = check.evidence.certificate
    assert cert.gamma >= 2.0 ** -1022 and cert.window[0] > -math.log(R)
    grid = np.linspace(*cert.window, 10001)
    assert np.all(cert.gamma <= res.c_hi * p.log_weight(grid))


def test_flat_rising_cell_whose_weight_underflows_is_certified(s_max):
    # r^2 v = 2^-1078 = e^-747.2 on a flat inner cell (q = 0) underflows to
    # 0: c g(s1) read as c * 0 left c = 1e300 undecided, though c g =
    # e^-56.4, and the plan's end at c = 1 raised AttributeError.  c g is
    # read from ln g now
    R = 2.0 ** -33
    p = RadialPotential.custom([2.0 ** -34, R], [2.0 ** -1010, 2.0 ** -1012])
    assert p.tail.log_domain and p.log_weight(-math.log(R)) == 0.0
    check = feasible(p, 1e300, R, s_max)
    assert not check.feasible and check.method == "oscillation-certificate"
    assert check.evidence.certificate.gamma == pytest.approx(math.exp(-56.4), rel=1e-3)
    res = best_constant(p, R, s_max=s_max)
    assert res.c_lo == 0.0 and 0.0 < res.c_hi < math.inf
    assert res.band is None or res.band == (res.c_lo, res.c_hi)
    hi = feasible(p, res.c_hi, R, s_max)
    assert not hi.feasible and hi.method == "oscillation-certificate"


def test_rising_cell_ends_near_the_tolerance_floor_are_normal(monkeypatch):
    # halving from 2^-1022 / 1e-300 to 6.6e-16, each end was certified with
    # gamma = c g(s1) subnormal (6.6e-316 for the last)
    import hardy_optim.bestconst as bestconst_mod
    checks = []

    def recorded(*args):
        checks.append(feasible(*args))
        return checks[-1]

    monkeypatch.setattr(bestconst_mod, "feasible", recorded)
    res = best_constant(RadialPotential.power_law(2.5, 1e-300), 1.0, tol=8.0 * 2.0 ** -52)
    assert res.converged and res.c_lo == 0.0
    ends = [check.evidence.certificate for check in checks if not check.feasible]
    assert len(ends) == res.iterations - 1
    assert all(cert.gamma >= 2.0 ** -1022 for cert in ends)


def _rising_power_law(alpha, log_amplitude, log_R):
    R = 10.0 ** log_R
    return RadialPotential.power_law(alpha, 10.0 ** log_amplitude, r_max=R), R


def _flat_table(a, b):
    """The two-node table r^2 v = 2^(2a + b) on [2^a, 2^(a + 1)], flat to
    rounding (q = 0, or +-1 ulp over ln 2)."""
    return RadialPotential.custom([2.0 ** a, 2.0 ** (a + 1)], [2.0 ** b, 2.0 ** (b - 2)]), 2.0 ** (a + 1)


# rising inner cells: power laws with alpha in [2, 4] on R in [1e-3, 1e3], and
# flat two-node tables whose r^2 v underflows (2a + b <= -1075)
_RISING_CELLS = st.one_of(
    st.builds(_rising_power_law, st.one_of(st.just(2.0), st.floats(2.0, 4.0)),
              st.floats(-300.0, 300.0), st.floats(-3.0, 3.0)),
    st.integers(-1000, -2).flatmap(
        lambda a: st.builds(_flat_table, st.just(a), st.integers(-1072, -1075 - 2 * a))))


@settings(max_examples=300, deadline=None)
@given(_RISING_CELLS, st.sampled_from([8.0 * 2.0 ** -52, 1e-12, 1e-6]))
@example(_rising_power_law(2.0, -300.0, 0.0), 8.0 * 2.0 ** -52)
@example(_flat_table(-34, -1010), 8.0 * 2.0 ** -52)
@example(_flat_table(-500, -1072), 1e-6)
def test_rising_inner_cell_is_answered_by_its_planned_end(cell, tol):
    # c(V) = 0, and every c > 0 is infeasible by the cell out to s = inf.
    # The ladder halved a planned end wider than tol through certificates of
    # subnormal gamma: 27 probes for power_law(2, 1e-300) at tol 8 eps, 101
    # for the flat table r^2 v = 2^-1078
    p, R = cell
    assume(p.tail.log_domain)
    with pytest.MonkeyPatch.context() as patch:
        probes = _probe_counter(patch)
        try:
            res = best_constant(p, R, tol=tol)
        except NoUpperBracket:    # even the largest double gives a subnormal gamma
            _, _, ell, q = p.inner_cell
            assert q == 0.0 and math.exp(math.log(sys.float_info.max) + ell) < 2.0 ** -1022
            assert probes.calls <= 2
            return
    assert probes.calls == res.iterations <= 2 and res.c_lo == 0.0
    check = feasible(p, res.c_hi, R)
    assert not check.feasible and check.evidence.certificate.gamma >= 2.0 ** -1022
    wide = res.c_hi > 0.5 * tol * max(1.0, 0.5 * res.c_hi)
    assert (res.band is not None) == wide == (not res.converged)


# ---------------------------------------------------------------------------
# Bessel cross-checks and reference constants
# ---------------------------------------------------------------------------

def test_ode_and_series_agree_on_z0():
    p = RadialPotential.constant(1.0, r_max=10.0)
    out = integrate(radius_problem(p, 1.0, 10.0))
    assert out.first_zero == pytest.approx(Z0, abs=1e-9)


def test_brezis_vazquez_cancellation():
    for n in (3, 4, 5):
        lam = brezis_vazquez_lambda(n, unit_ball_volume(n))
        assert lam == pytest.approx(Z0_SQ, rel=1e-12)
    assert brezis_vazquez_lambda(3, unit_ball_volume(3) * 8.0) == \
        pytest.approx(Z0_SQ / 4.0, rel=1e-12)


def test_unit_ball_volume():
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    assert unit_ball_volume(4) == pytest.approx(math.pi ** 2 / 2.0, rel=1e-14)


def test_brezis_vazquez_guards():
    with pytest.raises(DomainError):
        brezis_vazquez_lambda(2, 1.0)
    with pytest.raises(DomainError):
        brezis_vazquez_lambda(3, -1.0)
