import numpy as np
import pytest

from tunnelfwi.analytic import AnalyticError, greens_x_analytic, greens_x_polar, hankel2

# reference values from standard high-precision Bessel tables
BESSEL_REFS = [
    # x, J0, J1, Y0, Y1
    (0.05, 0.9993750976494685, 0.024992188313759704, -1.9793110008172097, -12.789855171174972),
    (0.3, 0.9776262465382961, 0.148318816273104, -0.8072735778045195, -2.2931051383885293),
    (1.0, 0.7651976865579665, 0.44005058574493355, 0.08825696421567697, -0.7812128213002888),
    (2.5, -0.04838377646819804, 0.497094102464274, 0.498070359615232, 0.14591813796678577),
    (5.0, -0.1775967713143383, -0.3275791375914653, -0.30851762524903303, 0.14786314339122691),
    (8.0, 0.1716508071375539, 0.2346363468539146, 0.22352148938756622, -0.15806046173124746),
    (11.5, -0.06765394811166543, -0.22837862066532358, -0.22523211169118781, 0.057942547143000615),
    (12.5, 0.14688405470042093, -0.16548380461475956, -0.17121430684466937, -0.15383825653750133),
    (20.0, 0.16702466434058322, 0.0668331241758502, 0.06264059680938369, -0.1655116143625212),
    (37.7, 0.0916598266402645, -0.09089835168259647, -0.09210569424412658, -0.09288922568650672),
    (120.25, 0.07250976421327612, 0.006336744183329881, 0.006035201327968862, -0.07248529699771902),
    (503.1, 0.03353042387462896, -0.011845408916139466, -0.011878726833081357, -0.03354224595463866),
]


def bessel_jy(order, x):
    """(J_n, Y_n) read back from H2_n = J_n - i Y_n."""
    h = hankel2(order, x)
    return h.real, -h.imag


def test_bessel_reference_values():
    for x, j0, j1, y0, y1 in BESSEL_REFS:
        mj0, my0 = bessel_jy(0, x)
        mj1, my1 = bessel_jy(1, x)
        assert mj0 == pytest.approx(j0, abs=2e-12)
        assert mj1 == pytest.approx(j1, abs=2e-12)
        assert my0 == pytest.approx(y0, abs=2e-12)
        assert my1 == pytest.approx(y1, abs=2e-12)


def test_hankel2_reference_values():
    h0 = hankel2(0, 1.0)
    assert h0.real == pytest.approx(0.76519769, abs=1e-8)
    assert h0.imag == pytest.approx(-0.08825696, abs=1e-8)
    h1 = hankel2(1, 1.0)
    assert h1.real == pytest.approx(0.44005059, abs=1e-8)
    assert h1.imag == pytest.approx(0.78121282, abs=1e-8)


def test_hankel2_argument_and_order_validation():
    with pytest.raises(AnalyticError):
        hankel2(0, 0.0)
    with pytest.raises(AnalyticError):
        hankel2(0, -1.0)
    with pytest.raises(AnalyticError):
        hankel2(2, 1.0)
    # the first bad entry of an array is named
    with pytest.raises(AnalyticError, match=r"argument must be > 0, got -1\.0$"):
        hankel2(0, [2.0, -1.0, 0.0])
    with pytest.raises(AnalyticError, match=r"argument must be > 0, got nan$"):
        hankel2(0, np.nan)
    with pytest.raises(AnalyticError, match=r"argument must be > 0, got nan$"):
        hankel2(1, [2.0, np.nan])


def test_wronskian_identity():
    # J1(x) Y0(x) - J0(x) Y1(x) = 2 / (pi x)
    for x in (0.2, 0.9, 3.3, 7.7, 11.9, 12.1, 44.0, 210.5):
        j0, y0 = bessel_jy(0, x)
        j1, y1 = bessel_jy(1, x)
        w = j1 * y0 - j0 * y1
        assert w == pytest.approx(2.0 / (np.pi * x), rel=1e-10)


def test_greens_theta_zeros():
    for theta in (0.0, np.pi / 2, np.pi, -np.pi / 2):
        g = greens_x_polar(10.0, theta, 3000.0, 4000.0, 2400.0, 2500.0)
        assert abs(g) < 1e-25


def test_greens_reference_values():
    # frozen from an independent high-precision Hankel evaluation
    cases = [
        ((10.0, np.pi / 4, 3141.59), 9.993803922982346e-13 - 1.4410859521000982e-12j),
        ((5.0, 1.1, 2000.0), 2.7941730119594998e-12 + 1.1187521426956332e-12j),
        ((25.0, -0.7, 6283.185307179586), 5.181547420524416e-13 - 5.055283893235507e-13j),
        ((3.3, 2.5, 900.0), 2.0552142974043207e-12 - 1.2023829954565034e-12j),
    ]
    for (r, theta, omega), want in cases:
        got = greens_x_polar(r, theta, omega, 4000.0, 2400.0, 2500.0)
        assert abs(got - want) / abs(want) < 1e-9


def test_greens_antisymmetry_in_theta():
    rng = np.random.default_rng(40)
    for _ in range(20):
        r = rng.uniform(1.0, 40.0)
        theta = rng.uniform(0.05, np.pi / 2 - 0.05)
        omega = rng.uniform(500.0, 6000.0)
        g1 = greens_x_polar(r, theta, omega, 4000.0, 2400.0, 2500.0)
        g2 = greens_x_polar(r, -theta, omega, 4000.0, 2400.0, 2500.0)
        assert g1 == pytest.approx(-g2, rel=1e-12)


def test_greens_far_field_decay():
    # |g| ~ r^(-1/2): doubling r shrinks the RMS envelope by 2^(-1/2).
    # The P and S terms beat against each other, so the envelope is taken
    # as an r-compensated RMS over one beat period.
    omega, vp, vs = 6000.0, 4000.0, 2400.0
    beat = 2 * np.pi / (omega / vs - omega / vp)

    def envelope(rc):
        rs = np.linspace(rc - beat / 2, rc + beat / 2, 400)
        vals = [abs(greens_x_polar(r, np.pi / 4, omega, vp, vs, 2500.0)) ** 2
                * (r / rc) for r in rs]
        return np.sqrt(np.mean(vals))

    r0 = 50.0 * vs / omega  # r omega / vs = 50
    ratio = envelope(2 * r0) / envelope(r0)
    assert ratio == pytest.approx(2 ** -0.5, rel=0.02)


def test_greens_scaling_identity():
    # g depends on r only through r*omega/v with 1/(r omega) prefactors:
    # scaling omega -> c*omega and r -> r/c leaves g unchanged
    for c in (2.0, 0.5, 3.7):
        g1 = greens_x_polar(12.0, 0.7, 1500.0, 4000.0, 2400.0, 2500.0)
        g2 = greens_x_polar(12.0 / c, 0.7, 1500.0 * c, 4000.0, 2400.0, 2500.0)
        assert g1 == pytest.approx(g2, rel=1e-12)


def test_query_polar_conversion():
    r, theta = 5.0, np.arctan2(3.0, -4.0)
    assert greens_x_analytic((1.0, 2.0), (4.0, 6.0), 1000.0, 4000.0, 2400.0,
                             2500.0) == pytest.approx(
        greens_x_polar(r, theta, 1000.0, 4000.0, 2400.0, 2500.0))


def test_closed_form_over_arrays_matches_point_by_point():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.01, 600.0, 50)
    for order in (0, 1):
        each = [hankel2(order, v) for v in x]
        assert np.array_equal(hankel2(order, x), each)
    points = rng.uniform(-20.0, 20.0, (40, 2))
    source = (0.5, -1.5)
    g = greens_x_analytic(source, points, 2500.0, 4000.0, 2400.0, 2500.0)
    assert g.shape == (40,)
    for p, gp in zip(points, g):
        dx, dy = p[0] - source[0], p[1] - source[1]
        one = greens_x_polar(np.hypot(dx, dy), np.arctan2(dx, -dy), 2500.0,
                             4000.0, 2400.0, 2500.0)
        assert abs(gp - one) <= 1e-14 * abs(one)


def test_greens_singularity_rejected():
    with pytest.raises(AnalyticError):
        greens_x_polar(0.0, 0.3, 1000.0, 4000.0, 2400.0, 2500.0)
    with pytest.raises(AnalyticError):
        greens_x_analytic((1.0, 1.0), (1.0, 1.0), 1000.0, 4000.0, 2400.0, 2500.0)
    # one coincident point fails the whole array
    with pytest.raises(AnalyticError, match="coincides with the source"):
        greens_x_analytic((1.0, 1.0), [(2.0, 3.0), (1.0, 1.0)], 1000.0, 4000.0,
                          2400.0, 2500.0)
    # so does a NaN distance
    with pytest.raises(AnalyticError, match="coincides with the source"):
        greens_x_polar(np.nan, 0.3, 1000.0, 4000.0, 2400.0, 2500.0)
    with pytest.raises(AnalyticError, match="coincides with the source"):
        greens_x_analytic((1.0, 1.0), [(2.0, 3.0), (np.nan, 1.0)], 1000.0, 4000.0,
                          2400.0, 2500.0)


@pytest.mark.parametrize("omega", [0.0, -5.0, np.nan])
def test_greens_needs_positive_omega(omega):
    with pytest.raises(AnalyticError, match="omega must be > 0"):
        greens_x_polar(5.0, 0.3, omega, 4000.0, 2400.0, 2500.0)
