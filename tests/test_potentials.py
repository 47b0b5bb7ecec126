import decimal
import math
import re
from dataclasses import replace
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardy_optim import Kind, Label, RadialPotential, classify, exp_tower
from hardy_optim.config import read_potential
from hardy_optim.errors import DomainError, UnsupportedPotential
from hardy_optim.potentials import (VANISHING, EulerTail, FallingCell, RisingCell, VanishingTail,
                                    _tail_integrals, exp_or_inf, log_cell_tails)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_constant():
    assert RadialPotential.constant(1.0)(0.5) == 1.0


def test_eval_power_law():
    assert RadialPotential.power_law(1.0)(0.25) == pytest.approx(4.0, rel=1e-15)


def test_eval_adimurthi_m1():
    # v = (log(rho/r))^-2 / r^2 without the 1/4 prefactor: the feasibility
    # threshold of this family is then exactly 1/4 (its closed form solves
    # the equation at that multiplier).
    p = RadialPotential.adimurthi_log(1, rho=math.e, r_max=1.0)
    assert p(1.0) == pytest.approx(1.0, rel=1e-15)
    assert p(0.5) == pytest.approx(1.0 / (0.25 * (1.0 + math.log(2.0)) ** 2), rel=1e-14)


def test_eval_out_of_domain():
    p = RadialPotential.constant(1.0)
    with pytest.raises(DomainError):
        p(0.0)
    with pytest.raises(DomainError):
        p(-0.5)
    with pytest.raises(DomainError):
        p(1.5)


def test_eval_nonnegative_across_catalog():
    pots = [RadialPotential.constant(2.0), RadialPotential.power_law(1.3),
            RadialPotential.adimurthi_log(2), RadialPotential.filippas_tertikas(3)]
    radii = np.logspace(-9, 0, 200)
    for p in pots:
        for r in radii:
            assert p(float(r) * p.r_max) >= 0.0


def test_subcritical_weight_vanishes_at_origin():
    # non-critical potentials must have r^2 v(r) -> 0
    for p in [RadialPotential.constant(1.0), RadialPotential.power_law(1.5)]:
        vals = [p.log_weight(s) for s in (10.0, 20.0, 40.0)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-4


def test_log_weight_matches_direct_evaluation():
    pots = [RadialPotential.constant(1.0), RadialPotential.power_law(0.7),
            RadialPotential.adimurthi_log(2), RadialPotential.filippas_tertikas(2)]
    for p in pots:
        for s in (0.5, 3.0, 13.0):
            r = math.exp(-s)
            assert p.log_weight(s) == pytest.approx(r * r * p(r), rel=1e-13)


def test_log_weight_stable_far_beyond_underflow():
    p = RadialPotential.adimurthi_log(1, rho=math.e)
    assert p.log_weight(1e6) == pytest.approx((1e6 + 1.0) ** -2, rel=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("family, key", [("adimurthi_log", "rho"),
                                         ("filippas_tertikas", "d_scale")])
def test_euler_gamma_is_the_shifted_coefficient(family, key, m):
    # self-similarity: gamma = g (s - s0)^2 at the tail's shift, read from
    # tau = ln(s - s0) alone, is A plus the family one level shallower, for
    # rho or d at and above its floor
    s = np.geomspace(1.5, 1e140, 200)
    for amplitude in (0.05, 1.0, 20.0):
        floor = getattr(getattr(RadialPotential, family)(m, amplitude=amplitude), key)
        for scale in (1.0, 5.0):
            p = getattr(RadialPotential, family)(m, amplitude=amplitude, **{key: scale * floor})
            sigma = s - p.tail.s0
            tau = np.log(sigma)
            expected = p.log_weight(s) * sigma ** 2
            for t, want in zip(tau, expected):
                got = p.tail.gamma(float(t))
                assert abs(got - want) <= 4.0 * math.ulp(want), (amplitude, scale, t)
            np.testing.assert_array_equal(p.tail.gamma(tau),
                                          [p.tail.gamma(float(t)) for t in tau])
            if m == 1:
                assert p.tail.gamma(float(tau[0])) == amplitude


# ---------------------------------------------------------------------------
# array evaluation: the same formula as the scalar calls
# ---------------------------------------------------------------------------

def _table_potential():
    r = np.geomspace(1e-7, 2.0, 40)
    return RadialPotential.custom(r, r ** -1.3 * (2.0 + np.sin(7.0 * np.log(r))))


ARRAY_POTENTIALS = {
    "constant": RadialPotential.constant(2.5),
    "power_law": RadialPotential.power_law(1.3, amplitude=0.7),
    "power_law_steep": RadialPotential.power_law(2.6, amplitude=3.0),
    "adimurthi_m1": RadialPotential.adimurthi_log(1),
    "adimurthi_m2": RadialPotential.adimurthi_log(2, amplitude=4.0, r_max=3.0),
    "adimurthi_m3": RadialPotential.adimurthi_log(3, rho=1e7),
    "ft_x_m1": RadialPotential.filippas_tertikas(1),
    "ft_x_m2": RadialPotential.filippas_tertikas(2, d_scale=5.0, r_max=2.0),
    "ft_x_m3": RadialPotential.filippas_tertikas(3, amplitude=0.1),
    "custom": _table_potential(),
}


def _assert_within_ulps(array_result, scalar_results, ulps=4):
    """Within ``ulps`` where the expected value is finite; the same inf or
    nan elsewhere."""
    expected = np.array(scalar_results)
    assert array_result.shape == expected.shape
    finite = np.isfinite(expected)
    assert np.array_equal(array_result[~finite], expected[~finite], equal_nan=True)
    error = np.abs(array_result[finite] - expected[finite])
    assert np.all(error <= ulps * np.spacing(np.abs(expected[finite])))


@pytest.mark.parametrize("name", sorted(ARRAY_POTENTIALS))
@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 250.0), min_size=1, max_size=40))
def test_value_array_matches_scalar_calls(name, depths):
    # radii down to r_max * e^-250, where v is still a finite float for
    # every entry (deep log-domain work goes through log_weight)
    p = ARRAY_POTENTIALS[name]
    r = p.r_max * np.exp(-np.array(depths))
    _assert_within_ulps(p.value(r), [p.value(float(ri)) for ri in r])


@pytest.mark.parametrize("name", sorted(ARRAY_POTENTIALS))
@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.floats(0.0, 1e6), st.floats(0.0, 1e3)), min_size=1, max_size=40))
def test_log_weight_array_matches_scalar_calls(name, offsets):
    p = ARRAY_POTENTIALS[name]
    s = np.array(offsets) - math.log(p.r_max)
    _assert_within_ulps(p.log_weight(s), [p.log_weight(float(si)) for si in s])


@pytest.mark.parametrize("name", ["power_law", "power_law_steep", "constant", "custom"])
def test_log_weight_array_saturates_like_scalar(name):
    # far past the largest double: r^2 v of the steep power law overflows to
    # inf, no longer to 1e300, in the array and the scalar calls alike
    p = ARRAY_POTENTIALS[name]
    s = np.concatenate([np.linspace(300.0, 1200.0, 901), [1e6, 1e300]])
    array = p.log_weight(s)
    assert not np.isnan(array).any()
    _assert_within_ulps(array, [p.log_weight(float(si)) for si in s])


LN_MAX = math.log(sys.float_info.max)    # e^LN_MAX is the largest double

_EXPONENTS = {
    "empty": [],
    "nan": [math.nan],
    "nan-among-finite": [0.5, math.nan, -3.0],
    "inf": [math.inf, 1.0],
    "minus-inf": [-math.inf, 1.0],
    "ln-max": [LN_MAX, math.nextafter(LN_MAX, math.inf)],
    "above-ln-max": [709.9, 710.0, 1e300],
    "subnormal": [-708.4, -745.0, -745.2, -1e300],
    "in-range": np.linspace(-745.0, LN_MAX, 1001),
}


@pytest.mark.parametrize("exponent", _EXPONENTS.values(), ids=_EXPONENTS.keys())
def test_exp_or_inf_is_exp_up_to_the_largest_double(exponent):
    # numpy's exp bit for bit on arrays, within an ulp of math.exp on floats,
    # inf past e^LN_MAX, with no warning and no OverflowError
    exponent = np.array(exponent, dtype=float)
    array = exp_or_inf(exponent)
    with np.errstate(over="ignore"):
        assert array.tobytes() == np.exp(exponent).tobytes()
    scalars = [exp_or_inf(float(x)) for x in exponent]
    assert all(type(y) is float for y in scalars)
    _assert_within_ulps(array, scalars, ulps=1)
    assert np.all((array == math.inf) == (exponent > LN_MAX))


@pytest.mark.parametrize("name", ["power_law", "power_law_steep", "constant", "custom"])
def test_cell_weights_are_exp_of_the_exponent_up_to_the_largest_double(name):
    # value and log_weight on cells are e^(ln v) and e^(ln r^2 v), exact
    # wherever that is a float and inf above it; once they saturated at 1e300
    base = ARRAY_POTENTIALS[name]
    r = base.r_max * np.exp(-np.linspace(0.0, 700.0, 141))
    for p in (base, base.scaled(1e-100)):
        for s in np.append(np.linspace(-5.0, 2000.0, 401), [1e6]):
            exponent = p.log_weight_exponent(s)
            want = math.exp(exponent) if exponent <= LN_MAX else math.inf
            assert p.log_weight(float(s)) == want
        radii = np.append(r / base.r_max * p.r_max, p.r_max)
        exponent = p.log_weight_exponent(-np.log(radii), 2.0)
        with np.errstate(over="ignore"):
            assert p.value(radii).tobytes() == np.exp(exponent).tobytes()
        assert np.all((p.value(radii) == math.inf) == (exponent > LN_MAX))
    assert RadialPotential.constant(sys.float_info.max).value(1.0) == math.exp(LN_MAX)
    assert RadialPotential.power_law(1.0, sys.float_info.max).value(0.5) == math.inf


@pytest.mark.parametrize("p", [RadialPotential.constant(0.0),
                               RadialPotential.power_law(1.3, amplitude=0.0)],
                         ids=["constant", "power_law"])
def test_weights_are_zero_at_amplitude_zero(p):
    # ell = -inf on the single cell: every exponent is -inf, every weight 0
    _, anchor, ell, q = p.inner_cell
    assert ell == -math.inf
    s = np.linspace(-5.0, 800.0, 50)
    assert p.log_weight(s).tobytes() == np.zeros(s.size).tobytes()
    assert p.value(np.geomspace(1e-300, 1.0, 50)).tobytes() == np.zeros(50).tobytes()
    assert p.log_weight(800.0) == p.value(1e-300) == p.value(1.0) == 0.0


def test_inner_cell_is_the_last_of_log_cells_as_floats():
    r = np.geomspace(1e-6, 1.0, 30)
    for p in (RadialPotential.constant(3.0), RadialPotential.power_law(2.5, 1e-30),
              RadialPotential.custom(r, r ** -1.3)):
        cell = p.inner_cell
        assert all(type(x) is float for x in cell)
        knots, anchors, ell, q = p.log_cells
        assert cell == ((knots[-1] if knots.size else -math.inf), anchors[-1], ell[-1], q[-1])
    assert RadialPotential.adimurthi_log(2).inner_cell is None


_R = np.geomspace(1e-6, 1.0, 30)


@pytest.mark.parametrize("p, form, log_domain", [
    (RadialPotential.constant(3.0), FallingCell, False),
    (RadialPotential.power_law(1.999), FallingCell, False),
    (RadialPotential.custom(_R, _R ** -1.3), FallingCell, False),
    (RadialPotential.power_law(2.0), RisingCell, True),
    (RadialPotential.power_law(2.5, 1e-30), RisingCell, True),
    (RadialPotential.custom(_R, _R ** -2.2), RisingCell, True),
    (RadialPotential.adimurthi_log(2), EulerTail, True),
    (RadialPotential.filippas_tertikas(3, amplitude=0.05), EulerTail, True),
    (RadialPotential.constant(0.0), VanishingTail, True),
    (RadialPotential.power_law(1.5, 0.0), VanishingTail, True),
    (RadialPotential.power_law(2.5, 0.0), VanishingTail, True),
    (RadialPotential.adimurthi_log(2, amplitude=0.0), VanishingTail, True),
    (RadialPotential.filippas_tertikas(1, amplitude=0.0), VanishingTail, True),
], ids=["constant", "alpha-1.999", "table-falling", "alpha-2", "alpha-2.5", "table-rising",
        "log-m2", "x-m3", "constant-A0", "alpha-1.5-A0", "alpha-2.5-A0", "log-m2-A0", "x-m1-A0"])
def test_tail_is_one_cached_form_per_potential(p, form, log_domain):
    # the one place the kind of inner tail is decided: a falling or rising
    # inner cell is the cell itself, read in floats; an Euler tail holds
    # the chain's floats; amplitude 0 is the one shared vanishing tail, of
    # the log domain whatever the kind (a falling kind's was of the radius
    # domain)
    tail = p.tail
    assert type(tail) is form and tail.log_domain is log_domain and p.tail is tail
    assert (tail is VANISHING) is (form is VanishingTail)
    if form in (FallingCell, RisingCell):
        assert tail is p.inner_cell and (tail[3] < 0.0) is (form is FallingCell)
    if form is EulerTail:
        kappa, scale = (0.0, p.rho) if p.kind is Kind.ADIMURTHI_LOG else (1.0, p.d_scale)
        assert (tail.m, tail.kappa, tail.amplitude, tail.s0) == \
            (p.m, kappa, p.amplitude, -(kappa + math.log(scale)))
        c = p.closed_form_multiplier()    # 1/(4A) rounded: c_closed is it or the float below
        assert tail.c_closed in (c, math.nextafter(c, 0.0))


def test_tail_certificates_by_form():
    # each form answers the certificate of its own tail: a falling cell has
    # none (it is swept in the radius domain), a vanishing one is
    # non-oscillatory with gamma 0, a rising cell and an Euler tail bound a
    with pytest.raises(DomainError):
        RadialPotential.power_law(1.5).tail.certificate(1.0, 1.0, 1e6)
    cert = RadialPotential.adimurthi_log(2, amplitude=0.0).tail.certificate(1.0, 1.0, 1e6)
    assert (cert.kind, cert.gamma, cert.window) == ("nonoscillatory", 0.0, (1e6, math.inf))
    cert = RadialPotential.power_law(2.5).tail.certificate(1.0, 1.0, 1e6)
    assert cert.kind == "oscillatory" and cert.shift is None and cert.window[0] == 1e-9
    tail = RadialPotential.filippas_tertikas(2).tail
    c_osc, (gamma, s0, window) = tail.edge(1.0, 1e6)
    assert tail.certificate(math.nextafter(c_osc, 0.0), 1.0, 1e6) is None
    assert tail.certificate(c_osc, 1.0, 1e6).gamma == c_osc * gamma and window == (1e-9, 1e6)
    with pytest.raises(DomainError, match="not beyond the outer edge"):
        tail.edge(1.0, 1e-9)


def test_classify_builds_no_ode_problem(monkeypatch):
    # a log family's bound is its Euler tail's, read from floats: classify
    # imported ode and built a log problem for it
    import hardy_optim.ode as ode_mod

    def refuse(self):
        raise AssertionError("classify built a HardyODEProblem")

    monkeypatch.setattr(ode_mod.HardyODEProblem, "__post_init__", refuse)
    for p in (RadialPotential.adimurthi_log(2), RadialPotential.filippas_tertikas(3),
              RadialPotential.power_law(2.5), RadialPotential.adimurthi_log(1, amplitude=0.0)):
        assert classify(p).label is (Label.Y if p.sigma > 2.0 else Label.X)


@pytest.mark.parametrize("name", ["adimurthi_m1", "ft_x_m3"])
def test_log_family_value_saturates_below_square_underflow(name):
    # r * r underflows below 1.5e-154: a float radius once raised
    # ZeroDivisionError, an ndarray gave inf with an overflow warning; v
    # then saturated at 1e300, and now overflows to inf, with no warning
    p = ARRAY_POTENTIALS[name]
    assert p.value(1e-170) == math.inf
    np.testing.assert_array_equal(p.value(np.array([1e-170, 1e-3])), [math.inf, p.value(1e-3)])


def test_constant_array_evaluation_is_exact():
    p = RadialPotential.constant(1.0)
    assert np.all(p.value(np.geomspace(1e-9, 1.0, 50)) == 1.0)


@pytest.mark.parametrize("amplitude", [2.5, 20.0])
def test_constant_value_is_its_amplitude_at_every_depth(amplitude):
    # v comes from ln v on the cell; ln(r^2 v) + 2s would lose ulp(2s),
    # about 1e-13 at s = 250
    p = RadialPotential.constant(amplitude, r_max=3.0)
    r = p.r_max * np.exp(-np.linspace(0.0, 250.0, 251))
    _assert_within_ulps(p.value(r), np.full(r.size, amplitude), ulps=2)
    _assert_within_ulps(np.array([p.value(float(ri)) for ri in r]),
                        np.full(r.size, amplitude), ulps=2)


def test_table_value_reproduces_its_samples():
    # ln |v| <= 4.6 here, so the log / exp round trip itself costs <= 2 ulps
    r = np.geomspace(0.01, 2.0, 40)
    v = r ** -0.8 * (2.0 + np.sin(7.0 * np.log(r)))
    p = RadialPotential.custom(r, v)
    _assert_within_ulps(p.value(r), v)
    _assert_within_ulps(np.array([p.value(float(ri)) for ri in r]), v)


@pytest.mark.parametrize("name", ["adimurthi_m2", "ft_x_m2"])
def test_closed_form_array_matches_scalar_calls(name):
    p = ARRAY_POTENTIALS[name]
    r = p.r_max * np.geomspace(1e-12, 1.0, 200)
    _assert_within_ulps(p.closed_form(r), [p.closed_form(float(ri)) for ri in r])
    constant = ARRAY_POTENTIALS["constant"]
    assert np.array_equal(constant.closed_form(r / p.r_max),
                          [constant.closed_form(float(ri)) for ri in r / p.r_max])


@pytest.mark.parametrize("name", sorted(ARRAY_POTENTIALS))
def test_array_with_one_bad_radius_raises(name):
    p = ARRAY_POTENTIALS[name]
    with pytest.raises(DomainError):
        p.value(float(2.0 * p.r_max))
    with pytest.raises(DomainError):
        p.value(np.array([0.5 * p.r_max, 2.0 * p.r_max, 0.25 * p.r_max]))
    with pytest.raises(DomainError):
        p.value(np.array([0.5 * p.r_max, 0.0]))


@pytest.mark.parametrize("name, s_bad", [("adimurthi_m1", -5.0), ("adimurthi_m2", -3.0),
                                         ("ft_x_m1", -3.0), ("adimurthi_m2", math.inf),
                                         ("ft_x_m3", math.inf)])
def test_log_weight_array_with_one_bad_abscissa_raises(name, s_bad):
    p = ARRAY_POTENTIALS[name]
    with pytest.raises(DomainError):
        p.log_weight(s_bad)
    with pytest.raises(DomainError):
        p.log_weight(np.array([1.0, 2.0, s_bad, 3.0]))


# ---------------------------------------------------------------------------
# iterated logs and X_k: the paper's definitions, references for the chain
# ---------------------------------------------------------------------------

def iterated_log(i: int, x: float) -> float:
    """i-fold nested natural log; every stage (including the result) must be > 0."""
    if i < 1:
        raise DomainError(f"iteration depth must be >= 1, got {i}")
    value = float(x)
    for _ in range(i):
        if value <= 0.0:
            raise DomainError(f"iterated_log({i}, {x}): intermediate value {value} <= 0")
        value = math.log(value)
    if value <= 0.0:
        raise DomainError(f"iterated_log({i}, {x}) = {value} is not positive")
    return value


def x_iter(k: int, t: float) -> float:
    """X_k(t) with X_1(t) = (1 - log t)^(-1) and X_k = X_1(X_{k-1}).

    Defined for t in (0, 1]; maps into (0, 1] and fixes t = 1.
    """
    if k < 1:
        raise DomainError(f"x_iter order must be >= 1, got {k}")
    if not 0.0 < t <= 1.0:
        raise DomainError(f"x_iter argument must be in (0, 1], got {t}")
    value = float(t)
    for _ in range(k):
        value = 1.0 / (1.0 - math.log(value))
    return value


def test_iterated_log_values():
    assert iterated_log(1, math.e) == pytest.approx(1.0, abs=1e-15)
    assert iterated_log(2, math.exp(math.e)) == pytest.approx(1.0, rel=1e-14)


def test_iterated_log_domain_errors():
    with pytest.raises(DomainError):
        iterated_log(2, math.e)      # log(log(e)) = 0, not positive
    with pytest.raises(DomainError):
        iterated_log(1, 0.5)         # log < 0


def test_x_iter_values():
    assert x_iter(1, 1.0) == 1.0
    assert x_iter(1, math.exp(-1.0)) == pytest.approx(0.5, rel=1e-15)
    # frozen from a 40-digit evaluation of X1(X1(1/e)) = X1(0.5)
    assert x_iter(2, math.exp(-1.0)) == pytest.approx(0.59061610914964124974, rel=1e-14)


def test_x_iter_domain():
    with pytest.raises(DomainError):
        x_iter(1, 0.0)
    with pytest.raises(DomainError):
        x_iter(1, 1.5)


@given(st.integers(1, 5), st.floats(1e-6, 1.0, exclude_max=False))
def test_x_iter_range(k, t):
    assert 0.0 < x_iter(k, t) <= 1.0


@given(st.integers(1, 5),
       st.floats(1e-6, 1.0), st.floats(1e-6, 1.0))
def test_x_iter_strictly_increasing(k, t1, t2):
    lo, hi = sorted((t1, t2))
    if hi - lo > 1e-12:
        assert x_iter(k, lo) < x_iter(k, hi)


@given(st.integers(2, 5), st.floats(1e-6, 1.0))
def test_x_iter_recursion(k, t):
    assert x_iter(k, t) == pytest.approx(x_iter(1, x_iter(k - 1, t)), rel=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("t", [0.05, 0.3, 0.8])
def test_x_iter_derivative_identity(k, t):
    # X_k'(t) = (1/t) X_1 ... X_{k-1} X_k^2, checked by central differences
    h = 1e-6
    fd = (x_iter(k, t + h) - x_iter(k, t - h)) / (2.0 * h)
    prod = 1.0
    for j in range(1, k):
        prod *= x_iter(j, t)
    analytic = prod * x_iter(k, t) ** 2 / t
    assert abs(fd - analytic) <= 10.0 * h


def test_exp_tower():
    assert exp_tower(1) == pytest.approx(math.e, rel=1e-15)
    assert exp_tower(2) == pytest.approx(math.exp(math.e), rel=1e-15)


@pytest.mark.parametrize("m", [4, 5, 40])
def test_tower_past_the_float_range_names_its_height(m):
    # exp^(4)(1) = e^3814279.1... is not a float: exp_tower and the factory
    # raised OverflowError "math range error", naming neither m nor rho
    with pytest.raises(DomainError, match=rf"m = {m}\b"):
        exp_tower(m)
    for rho in (None, 1e300):
        with pytest.raises(DomainError, match=rf"m = {m}\b"):
            RadialPotential.adimurthi_log(m, rho=rho)
    assert RadialPotential.adimurthi_log(3).rho == pytest.approx(exp_tower(3), rel=1e-15)


# The chain of the two log families against the paper's definitions: X_i =
# 1 / log^(i)(x) at x = rho / r, and X_i(x) = x_iter(i, x) at x = r / d.
_CHAIN_FAMILIES = {"adimurthi_log": ("rho", 0.0), "filippas_tertikas": ("d_scale", 1.0)}


def _paper_chain(family, k, x):
    """(sum_j prod_{i<=j} X_i^2, prod_i X_i) over X_1 ... X_k at the paper's x."""
    total, prod = 0.0, 1.0
    for i in range(1, k + 1):
        prod *= 1.0 / iterated_log(i, x) if family == "adimurthi_log" else x_iter(i, x)
        total += prod * prod
    return total, prod


def _former_x_chain(m, x, xp):
    """The X family's chain as it was before both families shared one."""
    total, prod = 0.0, 1.0
    for i in range(m):
        x = 1.0 / (1.0 - xp.log(x)) if i else x
        prod *= x
        total += prod * prod
    return total, prod


def _chain_cases(family, m):
    """The family at, and 5 times, its scale floor, with abscissae s from the
    outer edge to s - s0 = 700, radii down to 1e-280 and tau = ln(s - s0)."""
    key, _ = _CHAIN_FAMILIES[family]
    for r_max, amplitude, above in ((1.0, 1.0, 1.0), (0.3, 20.0, 1.0), (1.0, 0.05, 5.0),
                                    (7.0, 1.0, 5.0)):
        floor = getattr(getattr(RadialPotential, family)(m, r_max=r_max), key)
        p = getattr(RadialPotential, family)(m, amplitude=amplitude, r_max=r_max,
                                            **{key: above * floor})
        s = np.linspace(-math.log(r_max), p.tail.s0 + 700.0, 60)
        yield p, s, np.geomspace(1e-280, r_max, 60), np.log(s - p.tail.s0)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("family", sorted(_CHAIN_FAMILIES))
def test_chain_matches_the_paper_definitions(family, m):
    # log_weight(s) = A sum_j prod X_i^2 at sigma = s - s0 (x = e^sigma for
    # the iterated logs, e^(1 - sigma) for the X family), closed_form(r) =
    # (prod X_i)^(-1/2), and the tail's gamma(tau) = A (1 + the sum one level
    # shallower at scale 1, sigma = kappa + tau), on floats and on arrays
    key, kappa = _CHAIN_FAMILIES[family]
    for p, s, r, tau in _chain_cases(family, m):
        scale, s0, amp = getattr(p, key), p.tail.s0, p.amplitude

        def paper_x(sigma):
            return math.exp(kappa - sigma) if kappa else math.exp(sigma)
        cases = (
            (p.log_weight, s, lambda si: amp * _paper_chain(family, m, paper_x(si - s0))[0]),
            (p.closed_form, r,
             lambda ri: _paper_chain(family, m, ri / scale if kappa else scale / ri)[1] ** -0.5),
            (p.tail.gamma, tau,
             lambda ti: amp * (1.0 + _paper_chain(family, m - 1, paper_x(kappa + ti))[0])))
        for method, points, paper in cases:
            want = np.array([paper(float(x)) for x in points])
            _assert_within_ulps(method(points), want)
            _assert_within_ulps(np.array([method(float(x)) for x in points]), want)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_x_family_is_bit_identical_to_its_former_chain(m):
    # log_weight, the tail's gamma and closed_form as the X family computed them
    # before it shared its chain with the iterated logs, on arrays and floats
    for p, s, r, tau in _chain_cases("filippas_tertikas", m):
        d, amp = p.d_scale, p.amplitude

        def former(xp, s, r, tau):
            return (amp * _former_x_chain(m, 1.0 / (1.0 + math.log(d) + s), xp)[0],
                    amp * (1.0 + _former_x_chain(m - 1, 1.0 / (1.0 + tau), xp)[0]) + 0.0 * tau,
                    _former_x_chain(m, 1.0 / (1.0 - xp.log(r / d)), xp)[1] ** -0.5)
        for got, want in zip((p.log_weight(s), p.tail.gamma(tau), p.closed_form(r)),
                             former(np, s, r, tau)):
            assert got.tobytes() == want.tobytes()
        for si, ri, ti in zip(s.tolist(), r.tolist(), tau.tolist()):
            assert (p.log_weight(si), p.tail.gamma(ti), p.closed_form(ri)) == \
                former(math, si, ri, ti)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("family", sorted(_CHAIN_FAMILIES))
def test_closed_form_where_r_over_the_scale_underflows(family, m):
    # r / scale underflows to 0 below scale * 4.9e-324: a float r raised a
    # bare ValueError (math domain error), an array a DomainError after a
    # divide warning.  There sigma = kappa - ln(r / scale) = -ln r - s0 is
    # finite, and so is (prod X_i)^(-1/2)
    key, kappa = _CHAIN_FAMILIES[family]
    p = getattr(RadialPotential, family)(m, **{key: 1e10})
    r = np.array([5e-324, 1e-320, 1e-300, 0.5])
    want = []
    for ri in r.tolist():
        x, prod = 1.0 / (kappa - math.log(ri) + math.log(1e10)), 1.0
        for _ in range(m):
            prod, x = prod * x, 1.0 / (kappa - math.log(x))
        want.append(prod ** -0.5)
    _assert_within_ulps(p.closed_form(r), want)
    _assert_within_ulps(np.array([p.closed_form(ri) for ri in r.tolist()]), want)
    assert np.all(np.diff(want) < 0.0)    # growing as r -> 0
    for bad in (0.0, math.nan):
        with pytest.raises(DomainError):
            p.closed_form(bad)
        with pytest.raises(DomainError):
            p.closed_form(np.array([0.5, bad]))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("family", sorted(_CHAIN_FAMILIES))
def test_euler_gamma_of_a_non_finite_tau_is_a_domain_error(family, m):
    # tau = ln(s - s0): -inf is s = s0 and inf is s = inf, both outside the
    # domain.  At m = 1 tau = -inf gave A + 0 (-inf) = nan, and a nan tau
    # gave nan at every m, where the other non-finite taus raised DomainError
    p = getattr(RadialPotential, family)(m)
    for tau in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            p.tail.gamma(tau)
        with pytest.raises(DomainError):
            p.tail.gamma(np.array([0.0, tau]))


# ---------------------------------------------------------------------------
# construction guards
# ---------------------------------------------------------------------------

def test_tower_guard():
    with pytest.raises(DomainError):
        RadialPotential.adimurthi_log(2, rho=math.e, r_max=1.0)  # needs e^e
    RadialPotential.adimurthi_log(2, rho=math.exp(math.e), r_max=1.0)


def test_d_scale_guard():
    with pytest.raises(DomainError):
        RadialPotential.filippas_tertikas(1, d_scale=0.5, r_max=1.0)


def test_negative_amplitude_rejected():
    with pytest.raises(DomainError):
        RadialPotential.constant(-1.0)


@pytest.mark.parametrize("build, message", [
    (lambda: replace(RadialPotential.adimurthi_log(2), m=0), "iteration depth must be >= 1"),
    (lambda: replace(RadialPotential.constant(), amplitude=-1.0), "amplitude must be finite"),
    (lambda: replace(RadialPotential.power_law(1.0), r_max=0.0), "r_max must be finite"),
    (lambda: replace(RadialPotential.power_law(1.0), alpha=math.nan), "alpha must be finite"),
    (lambda: replace(RadialPotential.adimurthi_log(2), m=3), "rho = .* must be finite and >="),
    (lambda: replace(RadialPotential.filippas_tertikas(1), r_max=2.0), "d_scale = 1.0 must be"),
    (lambda: RadialPotential(Kind.ADIMURTHI_LOG, rho=math.e, m=2), "rho = 2.718"),
    (lambda: RadialPotential(Kind.CONSTANT, amplitude=math.inf), "amplitude must be finite")],
    ids=["log m=0", "constant A<0", "r_max 0", "alpha nan", "log m=3 on m=2's rho",
         "x r_max past d", "log rho below e^e", "constructor A inf"])
def test_every_construction_runs_the_guards(build, message):
    # the guards ran only in the factories: replace(adimurthi_log(2), m=0)
    # had v = 0 and a band [0.25, 0.2500207], and the constructor took any field
    with pytest.raises(DomainError, match=message):
        build()


def test_sigma_is_read_off_the_model_never_passed():
    # RadialPotential(POWER_LAW, alpha=1, sigma=0.5) once built an r^-1
    # potential answered as r^-0.5, [3.2530417, 3.2530425]
    with pytest.raises(TypeError, match="sigma"):
        RadialPotential(Kind.POWER_LAW, alpha=1.0, sigma=0.5)
    with pytest.raises(ValueError, match="sigma"):
        replace(RadialPotential.power_law(1.0), sigma=0.5)
    r = np.geomspace(1e-6, 1.0, 40)
    table = RadialPotential.custom(r, r ** -1.3)
    cases = [(RadialPotential.power_law(1.0), 1.0),
             (replace(RadialPotential.power_law(1.0), alpha=1.5), 1.5),
             (RadialPotential.constant(2.0), 0.0),
             (replace(RadialPotential.constant(), alpha=1.5), 0.0),
             (RadialPotential(Kind.POWER_LAW, alpha=0.5), 0.5),
             (RadialPotential.adimurthi_log(2), 2.0),
             (RadialPotential(Kind.FILIPPAS_TERTIKAS_X, m=3), 2.0),
             (replace(table, amplitude=0.0), table.sigma)]
    for p, sigma in cases:
        assert p.sigma == sigma and p.inner_cell in (None, p.tail)
        assert p.inner_cell is None or p.inner_cell[3] == p.sigma - 2.0 or p.kind is Kind.CUSTOM
    assert table.sigma == pytest.approx(1.3, rel=1e-12)
    # a log family's outer scale defaults to its floor in the constructor too
    assert RadialPotential(Kind.ADIMURTHI_LOG, m=2).rho == RadialPotential.adimurthi_log(2).rho
    assert RadialPotential(Kind.FILIPPAS_TERTIKAS_X, r_max=3.0).d_scale == 3.0


def test_tables_are_values():
    # the table's logs were ndarray fields: custom(r, v) == custom(r, v)
    # raised ValueError (an array's truth value) and hash(custom(r, v)) a TypeError
    r = np.geomspace(1e-6, 1.0, 40)
    a, b = RadialPotential.custom(r, r ** -1.3), RadialPotential.custom(r.copy(), r ** -1.3)
    other = RadialPotential.custom(r, r ** -1.2)
    assert a == b and hash(a) == hash(b) and a != other
    assert len({a, b, other}) == 2 and replace(a, table_log_r=np.log(r)) == a
    assert type(a.table_log_r) is tuple and all(type(x) is float for x in a.table_log_v)
    assert a.log_cells[0].tolist() == (-np.log(r))[::-1].tolist()


@pytest.mark.parametrize("build, m", [
    (lambda: RadialPotential(Kind.ADIMURTHI_LOG, m=2.0), 2),
    (lambda: RadialPotential(Kind.FILIPPAS_TERTIKAS_X, m=np.int64(3)), 3),
    (lambda: RadialPotential.adimurthi_log(np.float64(1.0)), 1),
    (lambda: replace(RadialPotential.filippas_tertikas(1), m=2.0), 2)],
    ids=["float", "numpy-int", "numpy-float", "replace"])
def test_integral_depth_is_stored_as_an_int(build, m):
    # RadialPotential(ADIMURTHI_LOG, m=2.0) escaped as a bare TypeError from
    # exp_tower; an integral float or a numpy integer is the integer it holds
    p = build()
    assert type(p.m) is int and p.m == m and p.value(0.5) > 0.0


@pytest.mark.parametrize("build", [
    lambda: RadialPotential(Kind.FILIPPAS_TERTIKAS_X, m=1.5),
    lambda: RadialPotential.adimurthi_log(1.5),
    lambda: replace(RadialPotential.adimurthi_log(2), m=math.nan),
    lambda: RadialPotential(Kind.ADIMURTHI_LOG, m="2")],
    ids=["X-1.5", "factory-1.5", "nan", "str"])
def test_non_integral_depth_is_a_domain_error(build):
    # filippas_tertikas m = 1.5 was built and failed in _chain at the first
    # value; adimurthi_log(1.5) silently built m = 1
    with pytest.raises(DomainError, match="iteration depth must be an integer"):
        build()


_NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", _NON_FINITE, ids=str)
@pytest.mark.parametrize("build", [
    lambda x: RadialPotential.constant(x), lambda x: RadialPotential.constant(1.0, x),
    lambda x: RadialPotential.power_law(x), lambda x: RadialPotential.power_law(1.0, x),
    lambda x: RadialPotential.power_law(1.0, r_max=x),
    lambda x: RadialPotential.adimurthi_log(1, rho=x),
    lambda x: RadialPotential.adimurthi_log(1, amplitude=x),
    lambda x: RadialPotential.filippas_tertikas(2, d_scale=x),
    lambda x: RadialPotential.filippas_tertikas(2, r_max=x),
    lambda x: RadialPotential.custom(np.array([0.1, 1.0]), np.array([1.0, 2.0]), r_max=x),
    lambda x: RadialPotential.power_law(1.0).scaled(x)],
    ids=["constant-amplitude", "constant-r_max", "power-alpha", "power-amplitude", "power-r_max",
         "log-rho", "log-amplitude", "x-d_scale", "x-r_max", "custom-r_max", "scaled-beta"])
def test_non_finite_parameters_are_rejected(build, bad):
    # the checks amplitude < 0, r_max <= 0, scale < floor and beta <= 0 let
    # NaN through, infinities passed, and alpha went unchecked: a NaN
    # amplitude or alpha was feasible at every multiplier
    with pytest.raises(DomainError, match="finite"):
        build(bad)


@pytest.mark.parametrize("build", [
    lambda: RadialPotential.constant(1.0).scaled(1e-200),
    lambda: RadialPotential.power_law(1.0, 1e-300).scaled(1e-200),
    lambda: RadialPotential.constant(1.0).scaled(1e200)],
    ids=["constant-to-0", "power-to-0", "constant-to-inf"])
def test_scaled_amplitude_out_of_the_float_range_is_rejected(build):
    # amplitude 1e-400 was stored as 0.0, which best_constant answered as
    # "amplitude 0: no float multiplier is infeasible" where c(V) = z0^2 /
    # (R^2 A); beta^2 = 1e400 raised OverflowError
    with pytest.raises(DomainError, match="rounds to"):
        build()


@pytest.mark.parametrize("build, what", [
    (lambda: RadialPotential.constant(1e-300).scaled(1e-10), "amplitude"),
    (lambda: RadialPotential.power_law(1.0, 1e-300).scaled(1e-20), "amplitude"),
    (lambda: RadialPotential.custom([1e-20, 1.0], [1e-300, 1.0]).scaled(1e-10), "sample")],
    ids=["constant", "power", "table"])
def test_scaled_image_that_is_subnormal_is_rejected(build, what):
    # amplitude 1e-300 scaled by 1e-10 was kept as the subnormal 1e-320,
    # which has lost digits: on R = 1e10 its bracket lay 1.1e-5 above c(V)
    with pytest.raises(DomainError, match=f"{what}.* rounds to 0, a subnormal or inf"):
        build()
    # a normal image one decade up is kept
    assert RadialPotential.constant(1e-300).scaled(1e-3).amplitude == pytest.approx(1e-306)


def test_scaled_amplitude_whose_power_of_beta_leaves_the_float_range():
    # beta^2 = 1e-400 underflows, amplitude beta^2 = 1e-200 does not
    assert RadialPotential.constant(1e200).scaled(1e-200).amplitude == \
        pytest.approx(1e-200, rel=1e-12)
    assert RadialPotential.power_law(4.0, 1e300).scaled(1e200).amplitude == \
        pytest.approx(1e-100, rel=1e-12)
    for beta in (1e-200, 1e200):
        assert RadialPotential.constant(0.0).scaled(beta).amplitude == 0.0


def test_scaled_amplitude_whose_power_of_beta_is_subnormal():
    # beta^2 = 1e-322 is stored as 9.88e-323: the product 9.88e-23 was 1.2%
    # off 1e-22, and kept because it is a normal float; likewise beta^1.5 =
    # 1e-321 for a power law with alpha = 1/2
    assert RadialPotential.constant(1e300).scaled(1e-161).amplitude == \
        pytest.approx(1e-22, rel=1e-12)
    assert RadialPotential.power_law(0.5, 1e300).scaled(1e-214).amplitude == \
        pytest.approx(1e-21, rel=1e-12)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_closed_form_values():
    assert RadialPotential.filippas_tertikas(1, d_scale=1.0).closed_form(1.0) == \
        pytest.approx(1.0, rel=1e-15)
    assert RadialPotential.adimurthi_log(1, rho=math.e).closed_form(1.0) == \
        pytest.approx(1.0, rel=1e-15)
    assert RadialPotential.constant(1.0).closed_form(0.0) == 1.0  # J0(0)


def test_closed_form_multipliers():
    from conftest import Z0_SQ
    assert RadialPotential.adimurthi_log(2).closed_form_multiplier() == 0.25
    assert RadialPotential.constant(1.0).closed_form_multiplier(1.0) == \
        pytest.approx(Z0_SQ, rel=1e-12)


def test_closed_form_unsupported():
    with pytest.raises(UnsupportedPotential):
        RadialPotential.power_law(1.0).closed_form(0.5)
    with pytest.raises(UnsupportedPotential):
        RadialPotential.power_law(1.0).closed_form_multiplier()


# ---------------------------------------------------------------------------
# custom potentials and scaling
# ---------------------------------------------------------------------------

def test_custom_interpolation_and_sigma():
    r = np.logspace(-9, 0, 300)
    p = RadialPotential.custom(r, 3.0 / np.sqrt(r))
    assert p.sigma == pytest.approx(0.5, abs=1e-6)
    assert p(0.25) == pytest.approx(6.0, rel=1e-12)


def test_table_sigma_is_its_inner_cells_exponent():
    # below r[0] the table is v[0] (r / r[0])^(-sigma): sigma is the first
    # segment's slope, not a fit over its smallest decades (1.5 here)
    r = np.geomspace(1e-9, 1.0, 200)
    v = r ** -1.5
    v[0] = v[1] * (r[0] / r[1]) ** -2.5
    p = RadialPotential.custom(r, v)
    assert p.sigma == pytest.approx(2.5, rel=1e-12)
    assert p.sigma == pytest.approx(2.0 + p.log_cells[3][-1], rel=1e-12)
    flat = RadialPotential.custom(r, np.where(r < 1e-3, 2.0, 1.0 / r))
    assert flat.sigma == 0.0 and math.copysign(1.0, flat.sigma) == 1.0
    # sigma is no longer settable
    with pytest.raises(TypeError):
        RadialPotential.custom(r, v, sigma=0.5)


def test_custom_requires_monotone_positive():
    with pytest.raises(DomainError):
        RadialPotential.custom(np.array([0.1, 0.1, 0.3]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(DomainError):
        RadialPotential.custom(np.array([0.1, 0.2]), np.array([1.0, -1.0]))


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_scaled_matches_definition(beta):
    r = np.geomspace(1e-8, 1.0, 60)
    for p in [RadialPotential.constant(3.0), RadialPotential.power_law(1.2),
              RadialPotential.adimurthi_log(1), RadialPotential.filippas_tertikas(2),
              RadialPotential.custom(r, r ** -0.5 + 10.0 * r ** 2)]:
        ps = p.scaled(beta)
        for r in np.logspace(-6, 0, 7) * ps.r_max:
            assert ps(float(r)) == pytest.approx(beta ** 2 * p(float(beta * r)), rel=1e-12)
        assert ps.kind is p.kind and ps.r_max == pytest.approx(p.r_max / beta, rel=1e-15)
        assert ps.sigma == pytest.approx(p.sigma, rel=1e-12)


@pytest.mark.parametrize("beta, image", [(1e200, "sample"), (1e-200, "sample"),
                                         (1e-310, "radii"), (1e305, "radii")])
def test_scaled_table_out_of_the_float_range_names_beta(beta, image):
    # beta^2 = 1e400 raised OverflowError; v beta^2 = 1e-400 underflowed and
    # the table was rejected as "samples must be strictly positive", as were
    # radii r / beta that underflow (1e-20 / 1e305) or overflow (1 / 1e-310)
    with pytest.raises(DomainError, match=f"{image} scaled by {re.escape(repr(beta))}"):
        RadialPotential.custom([1e-20, 1.0], [1.0, 2.0]).scaled(beta)


@pytest.mark.parametrize("beta", [1e-100, 0.37, 3.0, 1e100, 1e140])
def test_scaled_table_in_range_is_unchanged(beta):
    # images that stay in range: the same floats as r / beta and v beta^2
    r, v = np.geomspace(1e-6, 2.0, 40), np.exp(np.linspace(-20.0, 20.0, 40))
    p, ps = RadialPotential.custom(r, v), RadialPotential.custom(r, v).scaled(beta)
    want = RadialPotential.custom(np.exp(p.table_log_r) / beta, np.exp(p.table_log_v) * beta ** 2,
                                  p.r_max / beta)
    assert np.array_equal(ps.table_log_r, want.table_log_r)
    assert np.array_equal(ps.table_log_v, want.table_log_v) and ps.r_max == want.r_max


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_scaled_table_at_its_sample_radii(beta):
    r = np.geomspace(1e-6, 2.0, 40)
    v = np.exp(3.0 * r) / np.sqrt(r)
    ps = RadialPotential.custom(r, v).scaled(beta)
    np.testing.assert_allclose(ps.value(r / beta), beta ** 2 * v, rtol=1e-13)
    assert ps.sigma == pytest.approx(0.5 - 3.0 * (r[1] - r[0]) / math.log(r[1] / r[0]),
                                     rel=1e-9)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha,label", [
    (0.5, Label.X), (1.0, Label.X), (1.5, Label.X), (1.95, Label.X),
    (2.0, Label.Y), (2.5, Label.Y),
])
def test_classify_power_law_dichotomy(alpha, label):
    assert classify(RadialPotential.power_law(alpha)).label is label


def test_classify_constant():
    lab = classify(RadialPotential.constant(1.0))
    assert lab.label is Label.X
    assert abs(lab.limit_estimate) < 1e-6      # ln(r) r^2/2 -> 0


def test_classify_log_family_limit():
    # ln(r) * int_0^r s v = ln(r)/ln(rho/r) -> -1 for the m=1 log potential
    lab = classify(RadialPotential.adimurthi_log(1))
    assert lab.label is Label.X
    assert lab.limit_estimate == pytest.approx(-1.0, abs=0.02)


def test_classify_near_critical_is_honest():
    # the inner cell's slope q = alpha - 2 = -0.01 < 0 decides exactly
    assert classify(RadialPotential.power_law(1.99)).label is Label.X


def test_classify_reads_the_label_off_the_tail_where_the_evidence_overflows():
    # at amplitude 1e308 the tail integral of a falling cell overflows at
    # the probes: the infinite evidence was read as Y, with no limit
    # estimate and an "overflow encountered in exp" RuntimeWarning, though
    # the cell's slope q = -0.01 certifies X with limit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lab = classify(RadialPotential.power_law(1.99, amplitude=1e308))
    assert lab.label is Label.X and lab.limit_estimate == 0.0
    assert lab.evidence[-1] == -math.inf


def test_classify_log_family_bound_is_the_tail_sample():
    # gamma = g (s - s0)^2 falls to A (Fact 1), so L = -s int_s^inf g tends
    # to -A exactly, at every depth; the bound gamma(1e300) of the default
    # horizon's Euler edge was reported (-1.0000020956855225 on
    # adimurthi_log(2), -20.000042894308137 on adimurthi_log(3,
    # amplitude=20)), and at m = 1 1/4 over 1/(4 gamma) once missed A by up
    # to 3 ulps
    for family in ("adimurthi_log", "filippas_tertikas"):
        for m in (1, 2, 3):
            for amplitude in (0.05, 0.3, 7.956335241748048, 20.0):
                lab = classify(getattr(RadialPotential, family)(m, amplitude=amplitude))
                assert lab.label is Label.X and lab.limit_estimate == -amplitude
                assert np.all(np.abs(lab.evidence) < amplitude)


@pytest.mark.parametrize("name", sorted(ARRAY_POTENTIALS))
def test_classify_evaluates_the_potential_at_most_twice(monkeypatch, name):
    # one array log_weight call for the evidence, one for the tail edges of
    # the log families; no scalar quadrature
    calls = []
    log_weight = RadialPotential.log_weight

    def spy(self, s):
        calls.append(np.ndim(s))
        return log_weight(self, s)

    monkeypatch.setattr(RadialPotential, "log_weight", spy)
    classify(ARRAY_POTENTIALS[name])
    assert len(calls) <= 2 and all(ndim == 1 for ndim in calls)


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_classify_scale_stable(beta):
    for p, want in [(RadialPotential.power_law(1.0), Label.X),
                    (RadialPotential.power_law(2.0), Label.Y),
                    (RadialPotential.adimurthi_log(1), Label.X)]:
        assert classify(p.scaled(beta)).label is want


def test_classify_evidence_shape():
    lab = classify(RadialPotential.power_law(0.5))
    assert lab.evidence.shape == lab.probe_radii.shape
    assert np.all(np.diff(lab.probe_radii) < 0.0)
    assert lab.probe_radii[-1] <= 1e-6


# L(r_k) = ln(r_k) int_{s_k}^inf g of the 400-node exp(3r) table on
# geomspace(1e-8, 1, 400), at classify's 13 probes (s_k = -ln r_k as floats),
# integrated cell by cell in 50-digit mpmath on the float cells of log_cells
_EXP3R_EVIDENCE = [
    "-0.0002349167304529588574600059966836366885568",
    "-0.00002896503044966452582089012504929354223968",
    "-0.000003460794392448530813733037617952415573036",
    "-0.0000004032073765580680179456954117318785072765",
    "-0.00000004606091487365843121652364509496239745294",
    "-0.000000005181144192976691803126214474639872234387",
    "-0.0000000005756577883658620423312442298010985020224",
    "-0.00000000006332149060843932417008196162046877894666",
    "-0.000000000006907769096990500085084674040881288926983",
    "-7.483406285962613615097048763354598280746e-13",
    "-8.059049437146778831708590692379316909333e-14",
    "-8.634694640307297113625571510366885673921e-15",
    "-9.210340506892456161655132916542653327093e-16",
]


def test_classify_evidence_on_a_table_is_ulp_accurate():
    # the pieces are summed in linear space; a log-space sum erred by up to
    # 1.0e-14 relative here (eps times ln int g, about -37)
    r = np.geomspace(1e-8, 1.0, 400)
    evidence = classify(RadialPotential.custom(r, np.exp(3.0 * r))).evidence
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        rel = [abs((decimal.Decimal(float(got)) - decimal.Decimal(want)) / decimal.Decimal(want))
               for got, want in zip(evidence, _EXP3R_EVIDENCE)]
    assert max(rel) <= decimal.Decimal("4.4e-16")


def inner_integral(p, r):
    """int_0^r t v(t) dt = int_{ln(1/r)}^inf ``log_weight``, by ``_tail_integrals``."""
    return float(_tail_integrals(p, np.array([math.log(1.0 / r)]))[0])


def test_inner_integral_beyond_the_linear_sum():
    # ln g = ln(1e305 r), 702 at r = 1: past the linear sum's range of ln g,
    # the log-space sum
    r = np.geomspace(1e-3, 1.0, 30)
    p = RadialPotential.custom(r, 1e305 / r)
    assert inner_integral(p, 1.0) == pytest.approx(1e305, rel=1e-12)
    assert inner_integral(p, 0.5) == pytest.approx(5e304, rel=1e-12)
    # ln g within range, but the rising cell's exprel(50 * 15) overflows
    s = np.array([25.0, 20.0, 5.0, 0.0])
    ln_g = np.array([550.0, 650.0, -100.0, -100.0])
    p = RadialPotential.custom(np.exp(-s), np.exp(ln_g + 2.0 * s))
    assert inner_integral(p, 1.0) == pytest.approx((1.0 / 50.0 + 1.0 / 20.0) * math.exp(650.0),
                                                   rel=1e-12)


def test_inner_integral_analytic_cases():
    assert inner_integral(RadialPotential.power_law(1.0), 0.01) == \
        pytest.approx(0.01, rel=1e-9)
    assert inner_integral(RadialPotential.constant(1.0), 0.1) == \
        pytest.approx(0.005, rel=1e-9)
    p = RadialPotential.adimurthi_log(1, rho=math.e)
    assert inner_integral(p, 1e-4) == pytest.approx(1.0 / math.log(math.e / 1e-4), rel=1e-9)


def test_inner_integral_is_exact_across_table_knots():
    # v = r^-1/2 below r = 0.1 (with the inner extrapolation), 0.1 r^-3/2 above
    p = RadialPotential.custom(np.array([1e-3, 0.1, 1.0]), np.array([10 ** 1.5, 10 ** 0.5, 0.1]))
    exact = (2.0 / 3.0) * 0.1 ** 1.5 + 0.2 * (1.0 - 0.1 ** 0.5)
    assert inner_integral(p, 1.0) == pytest.approx(exact, rel=1e-14)
    assert inner_integral(p, 0.01) == pytest.approx((2.0 / 3.0) * 0.01 ** 1.5, rel=1e-14)


# ---------------------------------------------------------------------------
# exact cell tails
# ---------------------------------------------------------------------------

def _linear_cell_tails(cells, s, a, b):
    """int_{s_k}^inf e^(a ln g + b t) dt summed in linear space, as
    ``_tail_integrals`` does for a = 1, b = 0: h(x) w exprel(beta w) per piece
    and h / (-beta) past the last point."""
    knots, anchors, ell, q = cells
    points = np.sort(np.concatenate([s, knots[knots > s[0]]]))
    k = knots.searchsorted(points, "right")
    beta = a * q[k] + b
    h = np.exp(a * (ell[k] + q[k] * (points - anchors[k])) + b * points)
    w = np.diff(points)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        piece = h[:-1] * w * np.where(beta[:-1] * w == 0.0, 1.0,
                                      np.expm1(beta[:-1] * w) / (beta[:-1] * w))
    pieces = np.append(piece, h[-1] / -beta[-1])
    return np.cumsum(pieces[::-1])[::-1][points.searchsorted(s)]


@pytest.mark.parametrize("alpha, amplitude", [(0.0, 1.0), (1.0, 3.0), (1.9, 0.2), (-0.5, 7.0)])
def test_log_cell_tails_of_one_cell_are_closed_form(alpha, amplitude):
    # g = A e^(q s), q = alpha - 2: int_s^inf g = A e^(q s) / |q|, and the
    # dual integrand g^(-p) e^(-(2p + 3) s) has slope -(p q + 2p + 3)
    p = RadialPotential.power_law(alpha, amplitude)
    q = alpha - 2.0
    s = np.array([-1.0, 0.0, 0.5, 4.0, 30.0])
    beta = -(q + 2.0 + 3.0)
    for (a, b), want in [((1.0, 0.0), math.log(amplitude) + q * s - math.log(-q)),
                         ((-1.0, -5.0), -math.log(amplitude) + beta * s - math.log(-beta))]:
        got = log_cell_tails(p.log_cells, s, a, b)
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(np.maximum(np.abs(want), 1.0)))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("p_exp", [1.0, 1.0 / 3.0])
def test_log_cell_tails_match_the_linear_space_sum_on_tables(seed, p_exp):
    # random tables falling to the origin; starts between and on the knots
    rng = np.random.default_rng(seed)
    r = np.sort(rng.uniform(1e-3, 1.0, 30))
    v = r ** -rng.uniform(0.0, 1.9) * rng.uniform(0.5, 2.0, r.size)
    cells = RadialPotential.custom(r, v).log_cells
    knots = cells[0]
    s = np.sort(np.concatenate([rng.uniform(0.0, 7.0, 6), knots[::7]]))
    for a, b in [(1.0, 0.0), (-p_exp, -(2.0 * p_exp + 3.0))]:
        np.testing.assert_allclose(np.exp(log_cell_tails(cells, s, a, b)),
                                   _linear_cell_tails(cells, s, a, b), rtol=1e-14)


def test_log_cell_tails_at_the_knots_and_at_the_ends():
    p = RadialPotential.custom(np.array([1e-3, 0.1, 1.0]),
                               np.array([10 ** 1.5, 10 ** 0.5, 0.1]))
    knots = p.log_cells[0]
    # starting on a knot adds a piece of width 0, and repeated starts agree
    s = np.array([knots[0], knots[1], knots[1], knots[2]])
    got = np.exp(log_cell_tails(p.log_cells, s, 1.0, 0.0))
    np.testing.assert_allclose(got, _linear_cell_tails(p.log_cells, s, 1.0, 0.0), rtol=1e-15)
    assert got[1] == got[2]
    # amplitude 0: g = 0 on a cell of slope q >= 0 contributes nothing, not NaN
    for alpha in (2.0, 3.0, 1.0):
        zero = RadialPotential.power_law(alpha, 0.0).log_cells
        assert np.all(log_cell_tails(zero, np.array([0.0, 5.0]), 1.0, 0.0) == -math.inf)
    # a rising inner cell diverges at every start
    rising = RadialPotential.custom(np.array([1e-3, 0.1, 1.0]), np.array([1e9, 1e3, 1.0]))
    assert np.all(log_cell_tails(rising.log_cells, np.array([0.0, 3.0, 9.0]), 1.0, 0.0)
                  == math.inf)


# ---------------------------------------------------------------------------
# config round trip
# ---------------------------------------------------------------------------

def test_from_config_catalog():
    p = read_potential({"kind": "power_law", "alpha": "1.5", "r_max": "2.0"})
    assert p.kind is Kind.POWER_LAW and p.alpha == 1.5 and p.r_max == 2.0
    with pytest.raises(DomainError):
        read_potential({"kind": "power_law"})


def test_from_config_custom_csv(tmp_path):
    path = tmp_path / "table.csv"
    r = np.logspace(-6, 0, 50)
    path.write_text("r,v\n" + "\n".join(f"{ri},{2.0/ri}" for ri in r))
    p = read_potential({"kind": "custom", "samples": str(path)})
    assert p(0.5) == pytest.approx(4.0, rel=1e-9)
    assert p.sigma == pytest.approx(1.0, abs=1e-6)


def test_samples_csv_header_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("radius,value\n0.1,1.0\n0.2,1.0\n")
    with pytest.raises(DomainError):
        read_potential({"kind": "custom", "samples": str(path)})
