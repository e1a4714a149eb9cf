"""Incomplete gamma integrals, including the negative orders used by the
self-decomposable Levy density.

Reference values were computed with 40-digit arbitrary-precision arithmetic
(mpmath.gammainc) and frozen here.
"""

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from gtsou import lower_incomplete_gamma, special, upper_incomplete_gamma

# (s, x, Gamma(s, x)) from mpmath at 40 digits
UPPER_REFERENCE = [
    (0.5, 1.0, 0.27880558528066198),
    (-0.5, 1.0, 0.17814771178156069),
    (-0.9, 0.3, 1.4638324027680124),
    (-0.242579, 0.727607, 0.33863958926810148),
    (0.0, 1.0, 0.21938393439552027),
    (0.9, 2.0, 0.12183956486597919),
    (-0.682290, 0.822222, 0.25096977036987459),
]

LOWER_REFERENCE = [
    (0.5, 1.0, 1.4936482656248541),
    (1.0, 2.0, 0.86466471676338731),
    (0.317710, 0.822222, 2.4858465498230054),
]


@pytest.mark.parametrize("s, x, expected", UPPER_REFERENCE)
def test_upper_gamma_reference_values(s, x, expected):
    assert upper_incomplete_gamma(s, x) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("s, x, expected", LOWER_REFERENCE)
def test_lower_gamma_reference_values(s, x, expected):
    assert lower_incomplete_gamma(s, x) == pytest.approx(expected, rel=1e-13)


def test_upper_gamma_matches_direct_quadrature():
    # independent route: adaptive quadrature of the defining integral
    for s in (-0.9, -0.5, -0.1, 0.3, 0.7):
        for x in (0.2, 1.0, 4.0):
            val, err = quad(lambda y: y ** (s - 1.0) * np.exp(-y), x, np.inf)
            assert upper_incomplete_gamma(s, x) == pytest.approx(val, rel=1e-9)


def test_downward_recurrence():
    # Gamma(s+1, x) = s Gamma(s, x) + x^s e^(-x), the identity that extends
    # the evaluation below s = 0
    for s in (-0.95, -0.6, -0.25, -0.05):
        for x in (0.1, 1.0, 10.0):
            lhs = upper_incomplete_gamma(s + 1.0, x)
            rhs = s * upper_incomplete_gamma(s, x) + x**s * np.exp(-x)
            assert lhs == pytest.approx(rhs, rel=1e-12)


# orders from s -> 0-, where Gamma(s+1, x) - x^s e^(-x) divided by s loses
# about 1/|s| ulps, to s -> -1, and the branch edges s = -1/2 and x = 1/2.
# That division is off by 3.2e-5 at (s, x) = (-1e-6, 700), 1.9e-3 at
# (-1e-9, 200), 2.4e-4 at (-1e-12, 1) and 29x the value, with the wrong sign,
# at (-1e-12, 700)
NEGATIVE_ORDERS = np.concatenate([-np.geomspace(1e-12, 0.99, 13),
                                  [-1e-9, -1e-6, -0.5, -0.4999]])
ARGUMENTS = np.concatenate([np.geomspace(1e-3, 700.0, 31),
                            [0.4999, 0.5, 0.5001, 1.0, 200.0]])


def test_upper_gamma_negative_orders_match_mpmath():
    worst = 0.0
    with mp.workdps(40):
        for s in NEGATIVE_ORDERS:
            got = upper_incomplete_gamma(float(s), ARGUMENTS)
            for x, value in zip(ARGUMENTS, got):
                ref = mp.gammainc(mp.mpf(float(s)), mp.mpf(float(x)))
                worst = max(worst, float(abs((mp.mpf(float(value)) - ref) / ref)))
    assert worst <= 1e-13


def test_upper_gamma_order_zero_is_e1():
    # Gamma(0, x) = E1(x): the series' s -> 0 limit below x = 1/2, the
    # continued fraction at s = 0 above it, and both sides of the switch
    x = np.concatenate([np.geomspace(1e-12, 700.0, 121),
                        [0.4999, np.nextafter(0.5, 0.0), 0.5, 0.5001]])
    got = upper_incomplete_gamma(0.0, x)
    worst = 0.0
    with mp.workdps(40):
        for xi, value in zip(x, got):
            ref = mp.e1(mp.mpf(float(xi)))
            worst = max(worst, float(abs((mp.mpf(float(value)) - ref) / ref)))
    assert worst <= 5e-14
    assert isinstance(upper_incomplete_gamma(0.0, 0.25), float)


def test_zeta_table_matches_mpmath():
    k = np.arange(2, 61)
    with mp.workdps(40):
        ref = np.array([float(mp.zeta(int(j)) / j) for j in k])
    np.testing.assert_allclose(special._LOG_GAMMA1P, ref, rtol=1e-15, atol=0.0)


def test_gamma1pm1_over_matches_mpmath():
    # (Gamma(1+s) - 1)/s on both sides of s = 0, out to |s| = 1/2
    s = np.geomspace(1e-12, 0.5, 40)
    worst = 0.0
    with mp.workdps(40):
        for v in np.concatenate([s, -s]):
            ref = (mp.gamma(1 + mp.mpf(float(v))) - 1) / mp.mpf(float(v))
            got = special._gamma1pm1_over(float(v))
            worst = max(worst, float(abs((got - ref) / ref)))
    assert worst <= 1e-15


def test_digamma_trigamma_match_mpmath():
    # on (0, 1], the arguments 1 - beta of a fit, with both sides of the
    # recurrence's switch at 1/2
    half = [np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0)]
    xs = np.concatenate([np.geomspace(1e-12, 1.0, 60), np.linspace(0.01, 0.99, 99), half])
    worst = 0.0
    with mp.workdps(40):
        for x in xs:
            psi, psi1 = special.digamma_trigamma(float(x))
            ref = mp.digamma(mp.mpf(float(x))), mp.polygamma(1, mp.mpf(float(x)))
            worst = max(worst, *(float(abs((v - r) / r)) for v, r in zip((psi, psi1), ref)))
    assert worst <= 1e-15


def test_lower_plus_upper_is_complete_gamma():
    for s in (0.25, 0.5, 0.9):
        for x in (0.3, 1.0, 5.0):
            total = lower_incomplete_gamma(s, x) + upper_incomplete_gamma(s, x)
            assert total == pytest.approx(gamma_fn(s), rel=1e-12)


def test_upper_gamma_vectorized():
    x = np.array([0.5, 1.0, 2.0, 8.0])
    out = upper_incomplete_gamma(-0.5, x)
    assert out.shape == x.shape
    for xi, oi in zip(x, out):
        assert oi == pytest.approx(upper_incomplete_gamma(-0.5, float(xi)), rel=1e-14)


def test_upper_gamma_small_x_divergence():
    # for s < 0 the integral grows like x^s / |s| as x -> 0+
    s = -0.5
    small = upper_incomplete_gamma(s, 1e-12)
    assert small == pytest.approx(1e-12**s / abs(s), rel=1e-3)


def test_upper_gamma_large_x_asymptotic():
    # Gamma(s, x) ~ x^(s-1) e^(-x) for large x
    s, x = -0.3, 60.0
    ratio = upper_incomplete_gamma(s, x) / (x ** (s - 1.0) * np.exp(-x))
    assert ratio == pytest.approx(1.0, rel=0.03)


def test_upper_gamma_derivative():
    # d/dx Gamma(s, x) = -x^(s-1) e^(-x)
    s, x, h = -0.4, 1.3, 1e-6
    fd = (upper_incomplete_gamma(s, x + h) - upper_incomplete_gamma(s, x - h)) / (2 * h)
    assert fd == pytest.approx(-(x ** (s - 1.0)) * np.exp(-x), rel=1e-8)


def test_domain_errors():
    with pytest.raises(ValueError):
        upper_incomplete_gamma(-0.5, 0.0)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(-0.5, -1.0)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(-1.0, 1.0)  # order at the interval edge
    with pytest.raises(ValueError):
        upper_incomplete_gamma(1.5, 1.0)
    with pytest.raises(ValueError):
        lower_incomplete_gamma(-0.5, 1.0)
    with pytest.raises(ValueError):
        lower_incomplete_gamma(0.5, -1.0)
