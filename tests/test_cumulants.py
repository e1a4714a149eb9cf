"""Closed-form cumulants versus Taylor coefficients of the exponents, and
the stationary-moment relations between the two marginal modes."""

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from gtsou import (
    CRYPTO_PARAMS,
    EQUITY_PARAMS,
    Cumulants,
    GtsParams,
    Marginal,
    OuConfig,
    bdlp_exponent,
    cumulants,
    increment_cumulants,
    increment_exponent,
    moment_matched_init,
    psi_gts,
    sd_exponent,
    stationary_moments,
)


def taylor_cumulants(exponent, kmax: int = 4, half_width: float = 0.05) -> list:
    """Cumulants from a polynomial fit of the exponent near the origin:
    exponent(xi) = sum_k kappa_k (i xi)^k / k!.

    The fit runs in the normalized variable xi/half_width (well-conditioned
    Vandermonde) at degree 12, leaving truncation error around 1e-11 for
    laws with gamma-function cumulant growth.
    """
    t = np.linspace(-1.0, 1.0, 161)
    coef = np.polynomial.polynomial.polyfit(t, exponent(half_width * t), deg=12)
    fact = 1.0
    out = []
    for k in range(1, kmax + 1):
        fact *= k
        out.append((coef[k] * fact / (1j * half_width) ** k).real)
    return out


@pytest.mark.parametrize("p", [EQUITY_PARAMS, CRYPTO_PARAMS])
def test_cumulants_match_exponent_taylor(p):
    k = cumulants(p, 4)
    fd = taylor_cumulants(lambda xi: psi_gts(xi, p))
    for i in range(4):
        assert k[i + 1] == pytest.approx(fd[i], rel=1e-6, abs=1e-9)


def test_bdlp_time1_cumulants_are_k_times():
    # driver exponent xi psi'(xi) has Taylor cumulants k * kappa_k
    p = EQUITY_PARAMS
    k = cumulants(p, 4)
    fd = taylor_cumulants(lambda xi: bdlp_exponent(xi, p))
    for i in range(4):
        assert fd[i] == pytest.approx((i + 1) * k[i + 1], rel=1e-6)


def test_sd_cumulants_are_kappa_over_k():
    p = EQUITY_PARAMS
    k = cumulants(p, 4)
    # wider window: the panel-integrated exponent is smooth but its small-xi
    # relative accuracy is coarser than the closed forms
    fd = taylor_cumulants(lambda xi: sd_exponent(xi, p), half_width=0.15)
    for i in range(4):
        assert fd[i] == pytest.approx(k[i + 1] / (i + 1), rel=1e-5)


def test_closed_form_values():
    # hand evaluation of the gamma-function formula for a simple vector
    p = GtsParams(mu=0.1, beta_plus=0.5, beta_minus=0.0, alpha_plus=2.0,
                  alpha_minus=1.0, lambda_plus=4.0, lambda_minus=2.0)
    k = cumulants(p, 3)
    k1 = 0.1 + 2.0 * gamma_fn(0.5) / 4.0**0.5 - 1.0 * gamma_fn(1.0) / 2.0
    k2 = 2.0 * gamma_fn(1.5) / 4.0**1.5 + 1.0 * gamma_fn(2.0) / 2.0**2
    k3 = 2.0 * gamma_fn(2.5) / 4.0**2.5 - 1.0 * gamma_fn(3.0) / 2.0**3
    assert k[1] == pytest.approx(k1, rel=1e-14)
    assert k[2] == pytest.approx(k2, rel=1e-14)
    assert k[3] == pytest.approx(k3, rel=1e-14)


def test_cumulants_indexing():
    k = cumulants(EQUITY_PARAMS, 4)
    assert len(k) == 4
    with pytest.raises(IndexError):
        k[0]
    with pytest.raises(IndexError):
        k[5]
    with pytest.raises(ValueError):
        cumulants(EQUITY_PARAMS, 0)
    assert isinstance(Cumulants((1.0,))[1], float)


def test_mu_shifts_only_the_mean():
    base = cumulants(EQUITY_PARAMS, 4)
    shifted = cumulants(EQUITY_PARAMS.replace(mu=EQUITY_PARAMS.mu + 2.0), 4)
    assert shifted[1] == pytest.approx(base[1] + 2.0, rel=1e-14)
    for k in (2, 3, 4):
        assert shifted[k] == base[k]


def test_stationary_moment_relations():
    for p in (EQUITY_PARAMS, CRYPTO_PARAMS):
        k = cumulants(p, 4)
        g = stationary_moments(p, Marginal.GTS)
        s = stationary_moments(p, Marginal.SD)
        assert g.mean == s.mean == pytest.approx(k[1], rel=1e-14)
        assert g.variance == pytest.approx(k[2], rel=1e-14)
        assert s.variance == pytest.approx(k[2] / 2.0, rel=1e-14)
        assert g.std_dev == pytest.approx(np.sqrt(k[2]), rel=1e-14)
        # moment ratios: skew scales by 2^(3/2)/3, kurtosis is mode-free
        assert s.skewness == pytest.approx(g.skewness * 2.0**1.5 / 3.0, rel=1e-13)
        assert s.kurtosis == g.kurtosis == pytest.approx(3.0 + k[4] / k[2] ** 2, rel=1e-14)


def test_stationary_moments_as_dict():
    sm = stationary_moments(CRYPTO_PARAMS, Marginal.SD)
    d = sm.as_dict()
    assert list(d) == ["mean", "variance", "std_dev", "skewness", "kurtosis"]
    assert d == {key: getattr(sm, key) for key in d}


def test_increment_cumulants_factor():
    c = OuConfig(lambda_rate=0.25, dt=1.0, mode=Marginal.GTS)
    a = c.a
    k = cumulants(EQUITY_PARAMS, 4)
    inc = increment_cumulants(EQUITY_PARAMS, c, 4)
    for j in range(1, 5):
        assert inc[j] == pytest.approx(k[j] * (1.0 - a**j), rel=1e-13)

    c_sd = OuConfig(lambda_rate=0.25, dt=1.0, mode=Marginal.SD)
    inc_sd = increment_cumulants(EQUITY_PARAMS, c_sd, 4)
    for j in range(1, 5):
        assert inc_sd[j] == pytest.approx(k[j] / j * (1.0 - a**j), rel=1e-13)


def test_increment_cumulants_match_increment_exponent():
    c = OuConfig(lambda_rate=0.4, dt=0.8, mode=Marginal.GTS)
    inc = increment_cumulants(EQUITY_PARAMS, c, 4)
    fd = taylor_cumulants(lambda xi: increment_exponent(xi, EQUITY_PARAMS, c))
    for i in range(4):
        assert inc[i + 1] == pytest.approx(fd[i], rel=1e-6, abs=1e-9)


def test_moment_matched_init_recovers_sample_cumulants():
    rng = np.random.default_rng(11)
    data = rng.standard_t(df=8, size=40000) * 1.4 + 0.3
    init = moment_matched_init(data)
    assert init.beta_plus == init.beta_minus == 0.5
    assert init.lambda_plus == init.lambda_minus
    k = cumulants(init, 4)
    m = data.mean()
    c2 = np.mean((data - m) ** 2)
    c3 = np.mean((data - m) ** 3)
    assert k[1] == pytest.approx(m, abs=1e-10)
    assert k[2] == pytest.approx(c2, rel=1e-10)
    assert k[3] == pytest.approx(c3, rel=1e-10)


def test_moment_matched_init_light_tailed_fallback():
    # sub-Gaussian kurtosis still yields a valid parameter vector
    rng = np.random.default_rng(3)
    data = rng.uniform(-1.0, 1.0, size=5000)
    init = moment_matched_init(data)
    init.validate()
    assert init.alpha_plus > 0.0 and init.alpha_minus > 0.0


def test_zero_variance_sample_rejected():
    with pytest.raises(ValueError):
        moment_matched_init(np.full(100, 2.5))


@pytest.mark.filterwarnings("error")
def test_moment_matched_init_rejects_empty_data():
    # refused by name before any sample mean is taken
    with pytest.raises(ValueError, match="data must be non-empty"):
        moment_matched_init([])


@pytest.mark.filterwarnings("error")
def test_moment_matched_init_rejects_non_finite_data():
    with pytest.raises(ValueError, match="data must be finite"):
        moment_matched_init([1.0, np.inf, 2.0])
