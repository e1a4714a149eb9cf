"""Reflection X -> -X.

Swapping the plus- and minus-side parameters and negating mu gives the law
of -X.  Every two-sided quantity must therefore map x to -x (densities),
xi to -xi (exponents) and kappa_k to (-1)^k kappa_k (cumulants).  With
asymmetric parameters this pins the minus side pointwise: a side mix-up in
any one formula breaks it.
"""

import numpy as np
import pytest

from gtsou import (
    CRYPTO_PARAMS,
    EQUITY_PARAMS,
    GtsParams,
    bdlp_exponent,
    cumulants,
    levy_density_bdlp,
    levy_density_gts,
    levy_density_sd,
    psi_gts,
    sd_exponent,
)

CASES = {
    "equity": EQUITY_PARAMS,
    "crypto": CRYPTO_PARAMS,
    "no_minus_jumps": EQUITY_PARAMS.replace(alpha_minus=0.0),
}
X = np.concatenate([-np.geomspace(1e-6, 50.0, 40), np.geomspace(1e-6, 50.0, 40)])
XI = np.linspace(-10.0, 10.0, 201)


def reflect(p: GtsParams) -> GtsParams:
    return GtsParams(
        mu=-p.mu,
        beta_plus=p.beta_minus, beta_minus=p.beta_plus,
        alpha_plus=p.alpha_minus, alpha_minus=p.alpha_plus,
        lambda_plus=p.lambda_minus, lambda_minus=p.lambda_plus,
    )


@pytest.mark.parametrize("p", CASES.values(), ids=CASES.keys())
@pytest.mark.parametrize("density", [levy_density_gts, levy_density_bdlp, levy_density_sd])
def test_levy_densities_reflect_exactly(density, p):
    assert np.array_equal(density(-X, reflect(p)), density(X, p))


@pytest.mark.parametrize("p", CASES.values(), ids=CASES.keys())
@pytest.mark.parametrize("exponent", [psi_gts, bdlp_exponent, sd_exponent])
def test_exponents_reflect(exponent, p):
    np.testing.assert_allclose(exponent(XI, reflect(p)), exponent(-XI, p),
                               rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("p", CASES.values(), ids=CASES.keys())
def test_cumulants_reflect(p):
    kq, kp = cumulants(reflect(p), 6), cumulants(p, 6)
    for k in range(1, 7):
        assert kq[k] == pytest.approx((-1) ** k * kp[k], rel=1e-13, abs=0.0)
