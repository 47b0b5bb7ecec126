import math

import pytest

from hardy_optim import RadialPotential
from hardy_optim.potentials import J0_FIRST_ZERO

from conftest import Z0


def test_j0_at_zero():
    assert RadialPotential.constant(1.0).closed_form(0.0) == 1.0


def test_j0_frozen_values():
    # mpmath 40-digit references for J0(2) and J0(0.5), through the constant
    # potential's closed form J0(z0 r / R)
    p = RadialPotential.constant(1.0, r_max=Z0)
    assert p.closed_form(2.0) == pytest.approx(0.22389077914123566805, abs=1e-15)
    assert p.closed_form(0.5) == pytest.approx(0.93846980724081290423, abs=1e-15)


def test_first_zero_value():
    # the package's z0 against the frozen 20-digit literal, to 1 ulp
    assert abs(J0_FIRST_ZERO - Z0) <= math.ulp(Z0)


def test_first_zero_is_a_root():
    assert abs(RadialPotential.constant(1.0).closed_form(1.0)) <= 1e-15
