import numpy as np
import pytest

from oracles import isotropic_stiffness, mass_weight, stretched_stiffness
from tunnelfwi.pml import PmlError, PmlProfile, damping, stretching

PROFILE = PmlProfile(c_pml=25000.0, width=3.0, omega_c_ratio=0.99)


def test_damping_endpoints():
    assert damping(0.0, PROFILE) == 0.0
    assert damping(3.0, PROFILE) == pytest.approx(25000.0, rel=1e-14)


def test_damping_midpoint():
    want = 25000.0 * (1.0 - np.cos(np.pi / 4.0))
    assert damping(1.5, PROFILE) == pytest.approx(want, rel=1e-14)
    assert damping(1.5, PROFILE) == pytest.approx(7322.330470336311, rel=1e-12)


def test_damping_strictly_increasing():
    xs = np.linspace(0.0, 3.0, 200)
    g = damping(xs, PROFILE)
    assert np.all(np.diff(g) > 0)


def test_damping_outside_layer_rejected():
    with pytest.raises(PmlError):
        damping(-0.1, PROFILE)
    with pytest.raises(PmlError):
        damping(3.1, PROFILE)


def test_stretching_inner_edge_is_one():
    assert stretching(0.0, 1000.0, PROFILE) == 1.0 + 0.0j


def test_stretching_reference_value():
    # 1 + 25000 / (990 + 1000i) at the outer edge for omega = 1000
    eps = stretching(3.0, 1000.0, PROFILE)
    assert eps.real == pytest.approx(13.49936871875158, rel=1e-12)
    assert eps.imag == pytest.approx(-12.625624968435938, rel=1e-12)


def test_stretching_needs_positive_omega():
    with pytest.raises(PmlError):
        stretching(1.0, 0.0, PROFILE)
    with pytest.raises(PmlError):
        stretching(1.0, -5.0, PROFILE)
    with pytest.raises(PmlError, match="omega must be > 0, got nan"):
        stretching(1.0, np.nan, PROFILE)


def test_stretch_magnitude_monotone():
    xs = np.linspace(0.0, 3.0, 100)
    eps = stretching(xs, 2000.0, PROFILE)
    assert np.all(np.diff(np.abs(eps)) >= 0)


def test_profile_validation():
    PmlProfile(25000.0, 3.0, omega_c_ratio=0.99)
    PmlProfile(0.0, 3.0)  # disabled layer is allowed
    with pytest.raises(PmlError):
        PmlProfile(-1.0, 3.0)
    with pytest.raises(PmlError):
        PmlProfile(25000.0, 0.0)
    with pytest.raises(PmlError):
        PmlProfile(25000.0, 3.0, omega_c_ratio=1.0)


@pytest.mark.parametrize("c_pml, width", [(np.nan, 3.0), (np.inf, 3.0),
                                           (1e4, np.nan), (1e4, np.inf)])
def test_profile_validation_rejects_nan_and_inf(c_pml, width):
    with pytest.raises(PmlError, match="must be finite"):
        PmlProfile(c_pml, width)


def test_stretched_stiffness_identity():
    C = isotropic_stiffness(4000.0, 2400.0, 2500.0)
    np.testing.assert_array_equal(stretched_stiffness(C, 1.0, 1.0), C)


def test_stretched_stiffness_axis_values():
    C = isotropic_stiffness(4000.0, 2400.0, 2500.0)
    Ct = stretched_stiffness(C, 2.0, 1.0)
    assert Ct[0, 0, 0, 0] == pytest.approx(C[0, 0, 0, 0] / 2.0)
    assert Ct[1, 1, 1, 1] == pytest.approx(2.0 * C[1, 1, 1, 1])


def test_stretched_stiffness_major_symmetry():
    rng = np.random.default_rng(9)
    C = isotropic_stiffness(4000.0, 2400.0, 2500.0)
    for _ in range(5):
        ex = complex(rng.uniform(0.5, 3), rng.uniform(-2, 0))
        ey = complex(rng.uniform(0.5, 3), rng.uniform(-2, 0))
        Ct = stretched_stiffness(C, ex, ey)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert Ct[i, j, k, l] == pytest.approx(Ct[k, l, i, j], rel=1e-14)


def test_stretched_stiffness_vanishing_amplitude():
    C = isotropic_stiffness(4000.0, 2400.0, 2500.0)
    profile = PmlProfile(c_pml=1e-12, width=3.0)
    eps = stretching(2.0, 1000.0, profile)
    Ct = stretched_stiffness(C, eps, 1.0)
    assert np.max(np.abs(Ct - C)) / np.max(np.abs(C)) < 1e-9


def test_mass_weight():
    assert mass_weight(1.0, 1.0) == 1.0
    e = 13.499 - 12.626j
    assert mass_weight(e, 1.0) == e
    assert mass_weight(e, 2.0 - 1.0j) == e * (2.0 - 1.0j)
