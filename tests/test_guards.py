"""Input guards of the public entry points, one case each, and the FE
quotient on a uniform grid: the paths no other test runs."""
import math

import numpy as np
import pytest

from hardy_optim import (GridMapping, GridSpec, HardyODEProblem, RadialPotential, SmoothFn,
                         TailCertificate, dual_lower_bound, euler_tail_certificate, exp_tower,
                         hardy_quotient, integrate, integrate_principal_tail, log_problem,
                         poincare_check, radius_problem, reduced_rayleigh_min, residual,
                         riccati_check, to_log_domain, unit_ball_volume, weighted_eigen)
from hardy_optim.errors import DomainError

_RADIUS = radius_problem(RadialPotential.power_law(1.0), 0.2, 1.0)
_LOG = log_problem(RadialPotential.adimurthi_log(1), 0.2, 1.0)
_TAIL = TailCertificate("nonoscillatory", 0.1, -1.0, (1e6, math.inf))
_R = np.geomspace(1e-3, 1.0, 50)
_UNIT = SmoothFn(lambda r: 1.0, lambda r: 0.0)
_SINE = SmoothFn(math.sin, math.cos, lambda r: -math.sin(r))

# name -> (call, what its DomainError says)
_GUARDS = {
    "euler_tail_certificate on a radius problem":
        (lambda: euler_tail_certificate(_RADIUS), "live in the log domain"),
    "integrate_principal_tail on a radius problem":
        (lambda: integrate_principal_tail(_RADIUS, _TAIL), "expects a log-domain problem"),
    "integrate_principal_tail on an oscillatory certificate":
        (lambda: integrate_principal_tail(_LOG, TailCertificate("oscillatory", 0.3, -1.0,
                                                                (1e6, math.inf))),
         "needs a non-oscillatory certificate"),
    "HardyODEProblem in the radius domain with an infinite horizon":
        (lambda: HardyODEProblem(RadialPotential.power_law(1.0), 0.2, 1.0, s_max=math.inf),
         "horizon s_max must be finite"),
    "riccati_check on a radius problem":
        (lambda: riccati_check(integrate(_LOG), _RADIUS), "expects a log-domain problem"),
    "riccati_check on a radius-frame outcome":
        (lambda: riccati_check(integrate(_RADIUS), to_log_domain(_RADIUS)),
         "expects a log-domain trajectory"),
    "residual on a log problem":
        (lambda: residual(np.ones(10), _LOG, np.geomspace(1e-3, 1.0, 10)),
         "expects a radius-domain problem"),
    "weighted_eigen at n = 2":
        (lambda: weighted_eigen(RadialPotential.power_law(1.0), 0.1, 2, GridSpec(100)),
         "dimension must be >= 3"),
    "dual_lower_bound at n = 2":
        (lambda: dual_lower_bound(RadialPotential.power_law(1.0), 0.2, 1.0, 2, 1.0),
         "dimension must be >= 3"),
    "unit_ball_volume(0)": (lambda: unit_ball_volume(0), "dimension must be >= 1"),
    "hardy_quotient on short arrays":
        (lambda: hardy_quotient(_R[-4:], 1.0 - _R[-4:], RadialPotential.power_law(1.0), 3, 1.0),
         "length >= 8"),
    "hardy_quotient on mismatched arrays":
        (lambda: hardy_quotient(_R, 1.0 - _R[1:], RadialPotential.power_law(1.0), 3, 1.0),
         "matching 1-d sample arrays"),
    "hardy_quotient on non-increasing radii":
        (lambda: hardy_quotient(_R[::-1], 1.0 - _R, RadialPotential.power_law(1.0), 3, 1.0),
         "strictly increasing"),
    "hardy_quotient at n = 2":
        (lambda: hardy_quotient(_R, 1.0 - _R, RadialPotential.power_law(1.0), 2, 1.0),
         "dimension must be >= 3"),
    "poincare_check with a >= b":
        (lambda: poincare_check(_UNIT, _SINE, _SINE, 1.0, 1.0, GridSpec(100)), "need a < b"),
    "exp_tower(0)": (lambda: exp_tower(0), "tower height must be >= 1"),
    "adimurthi_log(0)": (lambda: RadialPotential.adimurthi_log(0), "iteration depth must be >= 1"),
    "custom on 2-d arrays":
        (lambda: RadialPotential.custom(np.ones((2, 3)), np.ones((2, 3))), "matching 1-d r and v"),
    "custom on one sample":
        (lambda: RadialPotential.custom([0.5], [1.0]), "matching 1-d r and v arrays, length >= 2"),
}


@pytest.mark.parametrize("call, message", _GUARDS.values(), ids=_GUARDS.keys())
def test_guard_raises_a_domain_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()


@pytest.mark.parametrize("n", [1e4, 2000.5, 2000.0])
def test_grid_spec_refuses_a_node_count_that_is_no_integer(n):
    # a float N passed, and reduced_rayleigh_min on it escaped as a bare
    # TypeError from np.linspace
    with pytest.raises(DomainError, match=f"N = {n!r}"):
        GridSpec(n, GridMapping.LOG_SPACED, 1.0, 1e-6)


def test_grid_spec_takes_a_numpy_integer_node_count():
    p = RadialPotential.power_law(1.0)
    numpy_n = reduced_rayleigh_min(p, GridSpec(np.int64(2000), GridMapping.LOG_SPACED, 1.0, 1e-6))
    assert numpy_n.lambda1 == reduced_rayleigh_min(p, GridSpec(2000)).lambda1


def test_reduced_quotient_on_a_uniform_grid_agrees_with_the_log_grid():
    p = RadialPotential.power_law(1.0)
    uniform = reduced_rayleigh_min(p, GridSpec(2000, GridMapping.UNIFORM, 1.0, 1e-6))
    log = reduced_rayleigh_min(p, GridSpec(2000, GridMapping.LOG_SPACED, 1.0, 1e-6))
    assert uniform.lambda1 != log.lambda1
    assert abs(uniform.lambda1 - log.lambda1) <= 1e-5
