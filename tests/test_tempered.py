"""Tempered stable variates: cumulants of both routes, the double-rejection
envelope, and the choice of route."""

import math

import numpy as np
import pytest
from scipy.special import gamma

from gtsou import tempered
from gtsou.tempered import LAMBDA0, tempered_stable

BETAS = (1e-6, 0.01, 0.3, 0.7, 0.99)
N = 50_000


def _z_scores(w, beta, lam):
    """z of the sample mean and variance of theta*TS against their exact
    values kappa_k = lam beta Gamma(k-beta)/Gamma(1-beta); the variance's
    standard error comes from kappa_4."""
    k2 = lam * beta * (1.0 - beta)
    k4 = k2 * (2.0 - beta) * (3.0 - beta)
    zm = (w.mean() - lam * beta) / math.sqrt(k2 / w.size)
    zv = (w.var() - k2) / math.sqrt((k4 + 2.0 * k2 * k2) / w.size)
    return zm, zv


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("lam", (1e-3, 0.1, 1.0, LAMBDA0))
def test_kanter_cumulants(beta, lam):
    w = tempered._kanter(np.random.default_rng(7), N, beta, lam, math.ceil(lam))
    zm, zv = _z_scores(w, beta, lam)
    assert abs(zm) <= 4.0 and abs(zv) <= 4.0, (zm, zv)


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("lam", (1e-3, 1.0, 10.0, 1e3, 1e5))
def test_double_rejection_cumulants(beta, lam):
    w = tempered._double_rejection(np.random.default_rng(8), N, beta, lam)
    zm, zv = _z_scores(w, beta, lam)
    assert abs(zm) <= 4.0 and abs(zv) <= 4.0, (zm, zv)


def test_double_rejection_envelope_bounds_the_u_marginal():
    # rho(u) = pi d(u) / B(u) >= 1: the u-stage accepts with probability
    # 1/rho, so a dip below 1 would bias the draws
    u = np.linspace(1e-9, math.pi - 1e-9, 20001)
    for beta in (1e-6, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        for lam in np.logspace(-3, 7, 41):
            log_rho = tempered._Envelope(beta, lam).stage(u)[3]
            assert log_rho.min() >= 0.0, (beta, lam)


def test_route_by_lambda(monkeypatch):
    # Kanter below LAMBDA0 with at most ceil(LAMBDA0) pieces per draw,
    # double rejection above
    pieces, rejections = [], []
    monkeypatch.setattr(tempered, "_kanter",
                        lambda rng, n, beta, lam, m: pieces.append(m) or np.zeros(n))
    monkeypatch.setattr(tempered, "_double_rejection",
                        lambda rng, n, beta, lam: rejections.append(lam) or np.zeros(n))
    rng = np.random.default_rng(0)
    beta, theta = 0.5, 2.0
    unit = gamma(1.0 - beta) * theta**beta / beta  # Lam per unit of c
    for lam in (1e-3, 0.5, 1.0, 2.5, LAMBDA0, 5.01, 1e3, 1e6):
        tempered_stable(rng, 3, beta, lam / unit, theta)
    assert pieces == [1, 1, 1, 3, math.ceil(LAMBDA0)]
    assert max(pieces) <= math.ceil(LAMBDA0)
    assert rejections == pytest.approx([5.01, 1e3, 1e6])


def test_beta_zero_is_gamma_and_zero_intensity_is_zero():
    rng = np.random.default_rng(3)
    y = tempered_stable(rng, 200_000, 0.0, 0.7, 2.0)
    assert y.mean() == pytest.approx(0.35, abs=4.0 * math.sqrt(0.7 / 4.0 / y.size))
    assert np.array_equal(tempered_stable(rng, 5, 0.4, 0.0, 2.0), np.zeros(5))


def test_same_stream_same_draws():
    for lam in (0.5, 50.0):
        c = lam / (gamma(0.6) / 0.4)  # beta = 0.4, theta = 1
        a = tempered_stable(np.random.default_rng(9), 100, 0.4, c, 1.0)
        b = tempered_stable(np.random.default_rng(9), 100, 0.4, c, 1.0)
        assert np.array_equal(a, b)
        assert (a > 0.0).all()
