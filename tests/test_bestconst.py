import dataclasses
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hardy_optim import (RadialPotential, ShootingOutcome, Status, best_constant,
                         brezis_vazquez_lambda, equal_volume_radius, euler_tail_certificate,
                         feasible, integrate, integrate_principal_tail, log_problem,
                         radius_problem, tail_edges, unit_ball_volume)
from hardy_optim.errors import DomainError, IndeterminateAtHorizon, NoUpperBracket
from hardy_optim.ode import CERTIFICATE_SLACK, wants_log_domain

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


def test_no_upper_bracket(s_max):
    with pytest.raises(NoUpperBracket):
        best_constant(RadialPotential.constant(0.0), 1.0, s_max=s_max)


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_amplitude_zero_log_family_has_no_upper_bracket(family, s_max):
    # closed_form_multiplier raises UnsupportedPotential at A = 0, so the
    # closed form certifies nothing there: every probe sweeps, and all are
    # feasible up to the doubling cap
    p = getattr(RadialPotential, family)(1, amplitude=0.0)
    assert feasible(p, 1.0, 1.0, s_max).method == "principal-tail"
    with pytest.raises(NoUpperBracket):
        best_constant(p, 1.0, s_max=s_max)


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


# ---------------------------------------------------------------------------
# radius-domain root solve: probe counts and certified ends
# ---------------------------------------------------------------------------

def _assert_certified_bracket(p, R, res, s_max):
    assert res.converged and res.band is None
    assert res.c_lo < res.c_best < res.c_hi
    assert res.c_hi - res.c_lo <= 0.5 * res.tolerance * max(1.0, res.c_best)
    assert feasible(p, res.c_lo, R, s_max).feasible
    assert not feasible(p, res.c_hi, R, s_max).feasible


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 1.9])
def test_single_cell_best_constant_takes_three_probes_and_two_sweeps(alpha, s_max,
                                                                      monkeypatch):
    # the Bessel level is exact for one cell: c = 0 is the line z = 1, with no
    # sweep, and the probes c* (1 -+ tol/8) are each one cell sweep
    import hardy_optim.ode as ode_mod
    sweeps = _Counter(ode_mod._cell_sweep)
    monkeypatch.setattr(ode_mod, "_cell_sweep", sweeps)
    for amplitude in (0.05, 1.0, 20.0):
        for R in (0.25, 1.0, 4.0):
            p = RadialPotential.constant(amplitude, R) if alpha == 0.0 else \
                RadialPotential.power_law(alpha, amplitude, R)
            before = sweeps.calls
            res = best_constant(p, R, tol=1e-6, s_max=s_max)
            assert res.iterations == 3 and sweeps.calls - before == 2
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


def test_table_search_is_unchanged(s_max):
    # tables keep the single start and the search: probe count and bracket
    # of a 400-node table as before the single-cell plan
    r = np.geomspace(1e-8, 1.0, 400)
    res = best_constant(RadialPotential.custom(r, np.exp(3.0 * r)), 1.0, s_max=s_max)
    assert res.iterations == 11
    assert res.c_lo == pytest.approx(1.2495457553191462, rel=1e-12)
    assert res.c_hi == pytest.approx(1.2495460677057655, rel=1e-12)


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


def test_table_domain_follows_its_inner_cell():
    # fitted over its small decades the table is r^-1.5, but its inner cell,
    # where a recessive sweep starts, is r^-2.5 (slope q = 0.5 >= 0): the
    # radius domain raised UnsupportedSingularity ("use the log domain")
    r = np.geomspace(1e-9, 1.0, 200)
    v = r ** -1.5
    v[0] = v[1] * (r[0] / r[1]) ** -2.5
    p = RadialPotential.custom(r, v)
    assert p.sigma == pytest.approx(1.5) and wants_log_domain(p)
    check = feasible(p, 0.1, 1.0)
    assert not check.feasible and check.method == "oscillation-certificate"
    res = best_constant(p, 1.0)
    assert res.converged and res.c_lo == 0.0 and 0.0 < res.c_hi < 1e-6
    # the catalog kinds keep their domain: q = alpha - 2
    for alpha in (0.0, 1.0, 1.999, 2.0, 2.5):
        assert wants_log_domain(RadialPotential.power_law(alpha)) is (alpha >= 2.0)


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
def test_radius_best_constant_makes_no_solve_ivp_call(p, s_max, monkeypatch):
    import hardy_optim.ode as ode_mod
    counter = _Counter(ode_mod.solve_ivp)
    monkeypatch.setattr(ode_mod, "solve_ivp", counter)
    assert best_constant(p, 1.0, s_max=s_max).converged
    assert counter.calls == 0


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_log_best_constant_samples_the_tail_once(family, s_max, monkeypatch):
    import hardy_optim.bestconst as bestconst_mod
    import hardy_optim.ode as ode_mod
    counter = _Counter(ode_mod.tail_edges)
    monkeypatch.setattr(ode_mod, "tail_edges", counter)
    monkeypatch.setattr(bestconst_mod, "tail_edges", counter)
    res = best_constant(getattr(RadialPotential, family)(2), 1.0, s_max=s_max)
    assert res.iterations >= 5
    assert counter.calls == 1


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_log_best_constant_answers_c_zero_without_solve_ivp(family, s_max, monkeypatch):
    # c = 0 and c* = 1/(4A) are certified by the closed form, the upper end
    # by the oscillation certificate: the whole solve sweeps nothing (it
    # took one DOP853 principal tail at c_non)
    import hardy_optim.bestconst as bestconst_mod
    import hardy_optim.ode as ode_mod
    ivp = _Counter(ode_mod.solve_ivp)
    monkeypatch.setattr(ode_mod, "solve_ivp", ivp)
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


def test_tail_margin_of_a_zero_beyond_float_radii():
    # r* = e^-1000 underflows to 0: ln(R / r*) is taken as s* + ln R
    from hardy_optim.bestconst import _tail_margin
    s = np.array([1e3, 2e3])
    out = ShootingOutcome({"s": s, "z": np.array([0.0, 1.0]), "dz": np.array([2.0, 0.0])},
                          1e3, Status.ZERO_FOUND)
    assert out.first_zero == 0.0
    assert _tail_margin(out, 2.0) == pytest.approx(-2.0 * (1e3 + math.log(2.0)), rel=1e-15)


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
    # the principal tail has a margin too (a power law forced critical, which
    # it still decides); the closed form and an oscillation certificate have none
    forced = dataclasses.replace(RadialPotential.power_law(1.9), critical=True)
    tail = feasible(forced, 0.9 * power_law_best_constant(1.9, 1.0), 1.0, s_max)
    assert tail.method == "principal-tail" and tail.margin > 0.0
    assert feasible(RadialPotential.adimurthi_log(1), 0.2, 1.0, s_max).margin is None
    assert feasible(RadialPotential.adimurthi_log(1), 0.35, 1.0, s_max).margin is None


@pytest.mark.parametrize("alpha", [1.9, 1.99])
def test_principal_tail_margin_root_solves_log_domain(alpha, s_max):
    # a power law forced into the log domain is decided by the principal
    # tail on both sides of c(V); the bisection took 23 probes on each
    p = dataclasses.replace(RadialPotential.power_law(alpha), critical=True)
    below = feasible(p, 0.9 * power_law_best_constant(alpha, 1.0), 1.0, s_max)
    above = feasible(p, 1.1 * power_law_best_constant(alpha, 1.0), 1.0, s_max)
    assert below.method == above.method == "principal-tail"
    assert below.margin > 0.0 > above.margin
    res = best_constant(p, 1.0, tol=1e-6, s_max=s_max)
    assert res.iterations <= 14
    # within tol: the principal tail puts the zero of c(V) itself a hair inside R
    assert res.c_lo - 1e-6 <= power_law_best_constant(alpha, 1.0) <= res.c_hi + 1e-6
    _assert_certified_bracket(p, 1.0, res, s_max)


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
    # an inner cell with q >= 0 has no non-oscillatory edge, and its c_osc is
    # below tol / 2: c = 0 and c_osc close the bracket (the halving search
    # down from c = 1 took 23 probes)
    res = best_constant(p, 1.0, tol=1e-6, s_max=s_max)
    assert res.iterations == 2
    assert res.c_lo == 0.0
    _assert_certified_bracket(p, 1.0, res, s_max)


def test_tolerance_below_the_float_spacing_is_rejected():
    # below 8 eps the closing step no longer clears the float spacing of the
    # bracket's ends, and the same multiplier was probed forever
    p = RadialPotential.power_law(1.0)
    for tol in (1e-17, float(np.nextafter(8.0 * 2.0 ** -52, 0.0)), 0.0, -1e-6, math.nan):
        with pytest.raises(DomainError, match="tolerance"):
            best_constant(p, 1.0, tol=tol)


def test_tolerance_at_the_floor_converges(s_max):
    # at the floor every closing step lands strictly inside the bracket
    p = RadialPotential.power_law(1.0, amplitude=1e6)
    res = best_constant(p, 1.0, tol=8.0 * 2.0 ** -52, s_max=s_max)
    assert res.iterations <= 10
    _assert_certified_bracket(p, 1.0, res, s_max)


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
def test_indeterminate_doubling_multiplier_reports_band(family, m, amplitude, s_max):
    # c = 1 lies inside the band above 1/(4A): the doubling phase meets an
    # undecided multiplier before a certified-infeasible one
    p = getattr(RadialPotential, family)(m, amplitude=amplitude)
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
    # the principal tail at c_non <= 1/(4A), which it still decides, finds
    # what the closed form proves on all of [0, 1/(4A)]: no interior zero.
    # best_constant then starts at 1/(4A) and sweeps nothing
    import hardy_optim.ode as ode_mod
    p = getattr(RadialPotential, family)(m, amplitude=amplitude)
    horizons = (1e4, 1e6, 1e150)
    for s_max in horizons:
        c_non = tail_edges(log_problem(p, 1.0, R, s_max=s_max)).c_non
        assert 0.0 < c_non * amplitude <= 0.25 * (1.0 + 1e-15)
        prob = log_problem(p, c_non, R, s_max=s_max)
        out = integrate_principal_tail(prob, euler_tail_certificate(prob))
        assert out.status is Status.NO_ZERO_ON_INTERVAL and out.first_zero is None
    ivp = _Counter(ode_mod.solve_ivp)
    monkeypatch.setattr(ode_mod, "solve_ivp", ivp)
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
    # the next multiplier beyond either certified extreme is undecided; the
    # non-oscillatory certificate reaches CERTIFICATE_SLACK above c_non, which
    # is c_lo or below for m >= 2 and may round 1 ulp above it for m = 1
    edge = max(res.c_lo, tail_edges(log_problem(p, 1.0, 1.0, s_max=s_max)).c_non)
    assert edge <= math.nextafter(res.c_lo, math.inf)
    for c in (np.nextafter(edge * (1.0 + CERTIFICATE_SLACK), math.inf),
              np.nextafter(res.c_hi, 0.0)):
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
    # band came out as [0, 0.25010] with c_best = 0; horizons now stop at 1e150
    p = RadialPotential.adimurthi_log(1)
    assert log_problem(p, 0.25, 1.0, s_max=s_max).s_max == min(s_max, 1e150)
    with pytest.raises(IndeterminateAtHorizon, match=re.escape(f"s_max = {min(s_max, 1e150)}")):
        feasible(p, 0.25005, 1.0, s_max=s_max)
    at_1e6 = best_constant(p, 1.0, tol=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = best_constant(p, 1.0, tol=1e-6, s_max=s_max)
    assert res.c_lo == pytest.approx(0.25, abs=1e-6) and res.c_best == res.c_lo
    assert res.c_lo < res.c_hi <= at_1e6.c_hi


def test_contradicting_verdict_widens_the_band(monkeypatch, s_max):
    # a feasible verdict above an undecided multiplier contradicts Sturm
    # monotonicity: it joins the band instead of moving the feasible end
    # past it, which would probe the same multiplier forever
    import hardy_optim.bestconst as bestconst_mod
    calls = []

    def fake_feasible(p, c, R, s_max, edges=None):
        calls.append(c)
        assert len(calls) < 200, "best_constant did not terminate"
        if 0.25 <= c < 0.3:
            raise IndeterminateAtHorizon(f"multiplier {c}", multiplier=c)
        return bestconst_mod.FeasibilityCheck(c < 0.25 or 0.3 <= c < 0.35, None, "fake")

    monkeypatch.setattr(bestconst_mod, "feasible", fake_feasible)
    res = best_constant(RadialPotential.adimurthi_log(1), 1.0, tol=1e-6, s_max=s_max)
    assert not res.converged and res.band == (res.c_lo, res.c_hi)
    assert 0.25 - 1e-6 <= res.c_lo < 0.25 and 0.35 <= res.c_hi <= 0.35 + 1e-6


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


def test_equal_volume_radius():
    assert equal_volume_radius(unit_ball_volume(3) * 27.0, 3) == \
        pytest.approx(3.0, rel=1e-14)


def test_brezis_vazquez_guards():
    with pytest.raises(DomainError):
        brezis_vazquez_lambda(2, 1.0)
    with pytest.raises(DomainError):
        brezis_vazquez_lambda(3, -1.0)
