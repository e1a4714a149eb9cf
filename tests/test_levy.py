"""Jump (Levy) densities of the GTS law, its background driver, and the
self-decomposable law, plus tail masses and activity diagnostics."""

import numpy as np
import pytest
from scipy.integrate import quad

from gtsou import (
    Activity,
    CRYPTO_PARAMS,
    EQUITY_PARAMS,
    GtsParams,
    bdlp_upper_tail_mass,
    gts_upper_tail_mass,
    levy_density_bdlp,
    levy_density_gts,
    levy_density_sd,
    variation_diagnostics,
)

SYMMETRIC = GtsParams(mu=0.0, beta_plus=0.5, beta_minus=0.5, alpha_plus=1.0,
                      alpha_minus=1.0, lambda_plus=1.0, lambda_minus=1.0)


def test_gts_density_closed_form():
    # alpha x^(-1-beta) e^(-lambda x), checked at hand-computed points
    assert levy_density_gts(1.0, SYMMETRIC) == pytest.approx(np.exp(-1.0), rel=1e-14)
    assert levy_density_gts(-1.0, SYMMETRIC) == pytest.approx(np.exp(-1.0), rel=1e-14)
    assert levy_density_gts(4.0, SYMMETRIC) == pytest.approx(
        4.0 ** (-1.5) * np.exp(-4.0), rel=1e-14)


def test_bdlp_density_value():
    # alpha (beta + lambda x) x^(-1-beta) e^(-lambda x) at x=1, all unit
    # parameters with beta = 1/2: 1.5 e^{-1}
    val = levy_density_bdlp(1.0, SYMMETRIC)
    assert val == pytest.approx(1.5 * np.exp(-1.0), rel=1e-14)
    assert val == pytest.approx(0.5518191617571635, rel=1e-12)


def test_sd_density_value():
    # alpha lam^beta Gamma(-beta, lam x)/x on the plus side (mpmath oracle)
    assert levy_density_sd(1.0, EQUITY_PARAMS) == pytest.approx(
        0.1007015894846136, rel=1e-12)


def test_densities_reject_zero():
    for fn in (levy_density_gts, levy_density_bdlp, levy_density_sd):
        with pytest.raises(ValueError):
            fn(0.0, EQUITY_PARAMS)
        with pytest.raises(ValueError):
            fn(np.array([1.0, 0.0]), EQUITY_PARAMS)


def test_vectorized_matches_scalar():
    x = np.array([-2.0, -0.5, 0.3, 1.0, 7.0])
    for fn in (levy_density_gts, levy_density_bdlp, levy_density_sd):
        vec = fn(x, CRYPTO_PARAMS)
        for xi, vi in zip(x, vec):
            assert vi == pytest.approx(fn(float(xi), CRYPTO_PARAMS), rel=1e-14)


def test_driver_pairs_by_differentiation():
    # a self-decomposable density q and its driver's density u are linked by
    # u(x) = -d/dx [|x| q(x)] per side; that pairs sd -> gts and gts -> bdlp
    h = 1e-6
    for x in (0.3, 1.0, 5.0, -0.7, -2.0):
        s = np.sign(x)
        for q_fn, u_fn in ((levy_density_sd, levy_density_gts),
                           (levy_density_gts, levy_density_bdlp)):
            xq = lambda y: abs(y) * q_fn(y, EQUITY_PARAMS)
            fd = s * (xq(x + h) - xq(x - h)) / (2 * h)
            assert u_fn(x, EQUITY_PARAMS) == pytest.approx(-fd, rel=1e-5)


@pytest.mark.parametrize("u", [0.1, 1.0, 5.0])
def test_gts_tail_mass_matches_quadrature(u):
    val, err = quad(lambda y: levy_density_gts(y, EQUITY_PARAMS), u, np.inf)
    assert gts_upper_tail_mass(u, EQUITY_PARAMS) == pytest.approx(val, abs=1e-8, rel=1e-8)


@pytest.mark.parametrize("u", [0.1, 1.0, 5.0])
def test_bdlp_tail_mass_matches_quadrature(u):
    val, err = quad(lambda y: levy_density_bdlp(y, EQUITY_PARAMS), u, np.inf)
    assert bdlp_upper_tail_mass(u, EQUITY_PARAMS) == pytest.approx(val, abs=1e-8, rel=1e-8)


def test_sd_density_is_tail_mass_over_x():
    # U(x) = M((x, inf)) / x links the two laws directly
    for x in (0.2, 1.3, 6.0):
        assert levy_density_sd(x, CRYPTO_PARAMS) == pytest.approx(
            gts_upper_tail_mass(x, CRYPTO_PARAMS) / x, rel=1e-13)


def test_tail_mass_cutoff_domain():
    for fn in (gts_upper_tail_mass, bdlp_upper_tail_mass):
        with pytest.raises(ValueError):
            fn(0.0, EQUITY_PARAMS)
        with pytest.raises(ValueError):
            fn(-1.0, EQUITY_PARAMS)


def test_variation_diagnostics_integral():
    # int min(1, |y|) M(dy) by quadrature (integrable: y^-beta near 0)
    d = variation_diagnostics(EQUITY_PARAMS)
    assert d.activity is Activity.INFINITE
    total = 0.0
    for sgn in (+1.0, -1.0):
        inner, _ = quad(lambda y: y * levy_density_gts(sgn * y, EQUITY_PARAMS), 0.0, 1.0)
        outer, _ = quad(lambda y: levy_density_gts(sgn * y, EQUITY_PARAMS), 1.0, np.inf)
        total += inner + outer
    assert d.variation_integral == pytest.approx(total, rel=1e-8)


def test_variation_one_sided():
    one_sided = EQUITY_PARAMS.replace(alpha_minus=0.0)
    d = variation_diagnostics(one_sided)
    assert d.activity is Activity.INFINITE
    inner, _ = quad(lambda y: y * levy_density_gts(y, one_sided), 0.0, 1.0)
    outer, _ = quad(lambda y: levy_density_gts(y, one_sided), 1.0, np.inf)
    assert d.variation_integral == pytest.approx(inner + outer, rel=1e-8)


def test_no_jumps_is_finite_activity():
    d = variation_diagnostics(EQUITY_PARAMS.replace(alpha_plus=0.0, alpha_minus=0.0))
    assert d.activity is Activity.FINITE
    assert d.variation_integral == 0.0


def test_small_x_blowup_rates():
    # near zero: GTS ~ alpha x^(-1-beta), driver ~ alpha beta x^(-1-beta)
    x = 1e-8
    p = SYMMETRIC
    assert levy_density_gts(x, p) * x**1.5 == pytest.approx(1.0, rel=1e-6)
    assert levy_density_bdlp(x, p) * x**1.5 == pytest.approx(0.5, rel=1e-6)
