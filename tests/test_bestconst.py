import math
import re
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from hardy_optim import (RadialPotential, Status, TailCertificate, best_constant,
                         brezis_vazquez_lambda, equal_volume_radius, feasible, integrate,
                         integrate_principal_tail, log_problem, radius_problem, tail_edges,
                         unit_ball_volume)
from hardy_optim.errors import DomainError, IndeterminateAtHorizon, NoUpperBracket
from hardy_optim.ode import wants_log_domain

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


def test_no_upper_bracket(s_max):
    with pytest.raises(NoUpperBracket):
        best_constant(RadialPotential.constant(0.0), 1.0, s_max=s_max)


@pytest.mark.parametrize("family", ["adimurthi_log", "filippas_tertikas"])
def test_amplitude_zero_log_family_has_no_upper_bracket(family, s_max, monkeypatch):
    # closed_form_multiplier raises UnsupportedPotential at A = 0, so the
    # closed form certifies nothing there: every probe is the principal
    # tail, the line z = 1 (61 DOP853 sweeps once), and all are feasible up
    # to the doubling cap
    import hardy_optim.ode as ode_mod
    ivp = _Counter(ode_mod.solve_ivp)
    monkeypatch.setattr(ode_mod, "solve_ivp", ivp)
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
    ivp = _Counter(ode_mod.solve_ivp)
    monkeypatch.setattr(ode_mod, "solve_ivp", ivp)
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
    assert res.c_lo < res.c_best < res.c_hi
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


def test_table_search_is_unchanged(s_max):
    # tables keep the single start and the search: probe count and bracket
    # of a 400-node table as before the single-cell plan.  Its tenth probe,
    # 1.2495457553..., has its first zero 2.3e-10 inside R: a boundary grace
    # of 1e-9 R once certified it feasible and made it c_lo; it is c_hi now
    r = np.geomspace(1e-8, 1.0, 400)
    p = RadialPotential.custom(r, np.exp(3.0 * r))
    res = best_constant(p, 1.0, s_max=s_max)
    assert res.iterations == 11
    assert res.c_lo == pytest.approx(1.2495454431420094, rel=1e-12)
    assert res.c_hi == pytest.approx(1.249545755320257, rel=1e-12)
    assert 2e-10 < feasible(p, res.c_hi, 1.0, s_max).evidence.zero_s < 3e-10


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
    c = _bessel_level(p, R)
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
    # a table of r^-1 starts its search at its Bessel level, its c(V) to
    # rounding, which is undecided now that a zero just past R is.  The
    # probes c (1 -+ tol/8) beside that one undecided multiplier close the
    # bracket around it; bisecting toward it from 0 and 2c left a band (45
    # probes on the two-node table)
    from hardy_optim.bestconst import _bessel_level
    for r in (np.array([1e-3, 1.0]), np.logspace(-8, 0, 200)):
        p = RadialPotential.custom(r, 1.0 / r)
        c = _bessel_level(p, 1.0)
        with pytest.raises(IndeterminateAtHorizon, match="accuracy of R"):
            feasible(p, c, 1.0, s_max)
        for tol in (1e-6, 1e-10):
            res = best_constant(p, 1.0, tol=tol, s_max=s_max)
            assert res.iterations == 5 and res.c_lo < c < res.c_hi
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
    # over its small decades the table is r^-1.5, but its inner cell, where
    # a recessive sweep starts, is r^-2.5 (slope q = 0.5 >= 0): the radius
    # domain raised UnsupportedSingularity ("use the log domain"), and sigma
    # was once the slope fitted over those decades, 1.5
    r = np.geomspace(1e-9, 1.0, 200)
    v = r ** -1.5
    v[0] = v[1] * (r[0] / r[1]) ** -2.5
    p = RadialPotential.custom(r, v)
    assert p.sigma == pytest.approx(2.5) and wants_log_domain(p)
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
    # the tail is read as gamma from ln(s - s0) at two abscissae per edge
    # (``euler_gamma``), so no probe samples g on an array; an array call
    # once cost 46 us, which an ``edges`` cache passed down saved
    shapes = []
    log_weight = RadialPotential.log_weight

    def spy(self, s):
        shapes.append(np.shape(s))
        return log_weight(self, s)

    monkeypatch.setattr(RadialPotential, "log_weight", spy)
    res = best_constant(getattr(RadialPotential, family)(2), 1.0, s_max=s_max)
    assert res.iterations >= 5
    assert all(shape == () for shape in shapes)


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


def test_rising_inner_cell_at_the_tolerance_floor_takes_two_probes():
    # it stopped undecided after 35 probes, with the band (0, c_osc) between
    # the certified ends c = 0 and c_osc = 7.47e-11
    tol = 8.0 * 2.0 ** -52
    res = best_constant(RadialPotential.power_law(2.0), 1.0, tol=tol)
    assert res.converged and res.iterations == 2 and res.band is None
    assert res.c_lo == 0.0 and res.c_hi == 0.25 * tol


def test_rising_inner_cell_upper_end():
    # (pi / (s_max - s*))^2 / g(s*) with s* = max(s1, s_max - 2/q): for
    # alpha = 2, q = 0 and s* = s1 = 1e-9, so pi^2 / (1e6 - 1e-9)^2; for
    # alpha = 2.5 g saturates at 1e300 there
    res = best_constant(RadialPotential.power_law(2.0), 1.0, tol=1.0)
    assert res.iterations == 2 and res.c_hi == pytest.approx(math.pi ** 2 / 1e12, rel=1e-14)
    res = best_constant(RadialPotential.power_law(2.5), 1.0, tol=1.0)
    assert res.iterations == 2 and res.c_hi == pytest.approx((math.pi / 4.0) ** 2 / 1e300,
                                                             rel=1e-12)
    # an inner cell beyond the horizon: the certificate still holds there
    r = np.geomspace(1e-60, 1.0, 50)
    res = best_constant(RadialPotential.custom(r, r ** -2.2), 1.0, s_max=100.0)
    assert res.converged and res.iterations == 2 and res.c_hi == 0.25e-6


@pytest.mark.parametrize("amplitude", [1.0, 1e30])
@pytest.mark.parametrize("alpha", [2.0, 2.5])
def test_rising_inner_cell_upper_end_never_underflows(alpha, amplitude):
    # (pi / (s_max - s*))^2 / g(s*) underflowed to 0 for amplitude 1e30 at
    # s_max = 1e150 (and for alpha = 2 beyond ~1e160), and best_constant then
    # doubled c = 0 forever.  The planned end stays positive, no larger at a
    # farther horizon, and certified by the cell
    from hardy_optim.bestconst import _rising_cell_hi
    p = RadialPotential.power_law(alpha, amplitude)
    horizons = (1e150, 1e300)
    ends = [_rising_cell_hi(p, 1.0, s_max, 1e-6) for s_max in horizons]
    assert all(end > 0.0 for end in ends) and ends[1] <= ends[0]
    for s_max, end in zip(horizons, ends):
        res = best_constant(p, 1.0, s_max=s_max)
        assert res.bracket == (0.0, end) and res.iterations <= 3
        check = feasible(p, end, 1.0, s_max)
        assert not check.feasible and check.method == "oscillation-certificate"


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


# probes of best_constant at tol = 8 eps on the grid above, amplitude x R
_FLOOR_PROBES = {
    0.0: [16, 16, 16, 16, 14, 12, 16, 12, 6], -0.5: [18, 16, 18, 16, 14, 12, 18, 14, 6],
    0.5: [16, 16, 16, 16, 12, 12, 16, 10, 6], 1.0: [16, 16, 16, 16, 14, 12, 14, 8, 6],
    1.5: [16, 16, 16, 14, 10, 10, 8, 4, 4], 1.9: [14, 12, 12, 4, 3, 3, 3, 3, 3],
    1.999: [3, 3, 3, 3, 3, 3, 3, 3, 3]}


@pytest.mark.parametrize("alpha", sorted(_FLOOR_PROBES))
def test_single_cell_probes_at_the_floor(alpha, s_max):
    # beside a band of one multiplier c the search probed c (1 -+ tol/8),
    # which at tol = 8 eps lies within the level's rounding and so was
    # undecided too: one probe more on most cells (132 for the constant's)
    tol, counts = 8.0 * 2.0 ** -52, []
    for amplitude in (0.05, 1.0, 20.0):
        for R in (0.25, 1.0, 4.0):
            p = RadialPotential.constant(amplitude, R) if alpha == 0.0 else \
                RadialPotential.power_law(alpha, amplitude, R)
            counts.append(best_constant(p, R, tol=tol, s_max=s_max).iterations)
    assert counts == _FLOOR_PROBES[alpha]


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
def test_indeterminate_doubling_multiplier_reports_band(family, m, amplitude, s_max):
    # c = 1 lies inside the band above 1/(4A), undecided; the plan's
    # predicted edges bracket that band (the doubling phase once met c = 1
    # before a certified-infeasible multiplier)
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
    # the principal tail at c = 1/(4 gamma(s_max)) <= 1/(4A), from a
    # non-oscillatory certificate built by hand (no verdict reads one), finds
    # what the closed form proves on all of [0, 1/(4A)]: no interior zero.
    # best_constant then starts at 1/(4A) and sweeps nothing
    import hardy_optim.ode as ode_mod
    p = getattr(RadialPotential, family)(m, amplitude=amplitude)
    horizons = (1e4, 1e6, 1e150)
    for s_max in horizons:
        unit = tail_edges(log_problem(p, 1.0, R, s_max=s_max)).unit_osc
        c = 0.25 / unit.gamma
        assert 0.0 < c * amplitude <= 0.25 * (1.0 + 1e-15)
        prob = log_problem(p, c, R, s_max=s_max)
        cert = TailCertificate("nonoscillatory", c * unit.gamma, unit.shift, (s_max, math.inf))
        out = integrate_principal_tail(prob, cert)
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
    # 8.3e-5, in the same five probes
    res = best_constant(getattr(RadialPotential, family)(m), 1.0, s_max=1e300)
    assert res.iterations == 5 and res.band == (res.c_lo, res.c_hi)
    assert res.c_lo == 0.25 and res.c_hi / res.c_lo - 1.0 <= 1e-4


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
