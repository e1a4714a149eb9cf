"""Tempered stable variates: cumulants of both routes, the double-rejection
envelope, the choice of route, and rows drawn for several generators at
once."""

import math

import mpmath as mp
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
    w = tempered._kanter([np.random.default_rng(7)], N, beta, lam, math.ceil(lam))[0]
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
                        lambda rngs, n, beta, lam, m: pieces.append(m) or np.zeros((len(rngs), n)))
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


# x in (0, pi): next to 0 (where h^2 underflows), inside, and next to pi
SINC_X = [1e-300, 1e-160, 1e-20, 1e-8, 1e-3, 0.3, 1.0, 2.0, 3.0, np.pi - 1e-6,
          np.nextafter(np.pi, 0.0), np.pi]


def test_log_inv_sinc_matches_mpmath():
    # log(x / sin x) from t = tan(x/2) within 2 ulps of max(1, |value|)
    x = np.array(SINC_X)
    got = tempered._log_inv_sinc(0.5 * x)
    with mp.workdps(40):
        ref = [float(mp.log(mp.mpf(v) / mp.sin(mp.mpf(v)))) for v in x]
    for g, f, v in zip(got, ref, x):
        assert abs(g - f) <= 4.5e-16 * max(1.0, abs(f)), v


@pytest.mark.parametrize("beta", [0.01, 0.243, 0.68, 0.99])
def test_log_zeta2_matches_mpmath_and_keeps_u(beta):
    # log zeta^2 from the three sinc factors; the caller's u is not written
    u = np.array([1e-12, 1e-6, 1e-3, 0.5, 1.5, 2.5, 3.1, np.pi - 1e-6,
                  np.nextafter(np.pi, 0.0)])
    kept = u.copy()
    got = tempered._log_zeta2(u, beta)
    assert np.array_equal(u, kept)
    with mp.workdps(40):
        b = mp.mpf(beta)
        lsinc = lambda x: mp.log(mp.sin(x) / x)
        ref = [float(b * lsinc(b * v) + (1 - b) * lsinc((1 - b) * v) - lsinc(mp.mpf(v)))
               for v in u]
    for g, f, v in zip(got, ref, u):
        assert abs(g - f) <= 4e-15 * max(1.0, abs(f)), v


def _log_zeta2_by_sine(u, beta):
    """log zeta^2 through numpy's sin, the form the tangent kernel replaced"""
    lsinc = lambda x: np.log(np.sin(x) / x)
    return beta * lsinc(beta * u) + (1.0 - beta) * lsinc((1.0 - beta) * u) - lsinc(u)


# the presets' stability indices at Kanter's Lambda of the OU steps, and
# double rejection above LAMBDA0
@pytest.mark.parametrize("beta, lam", [
    (b, lam) for b in (0.242579, 0.267178, 0.461378, 0.68229) for lam in (0.05, 0.5, 1.0, 2.4)
] + [(b, lam) for b in (0.25, 0.5, 0.95) for lam in (6.0, 20.0, 100.0)])
def test_draws_match_the_sine_form(monkeypatch, beta, lam):
    # the same generator gives the same accepted proposals and close draws.
    # Kanter's piece exp((log zeta^2 + ...) / beta) turns the kernels' few-ulp
    # difference in log zeta^2 into about 1/beta ulps: within 1e-14.  Double
    # rejection's t^(-b) scales a difference in t by b/t, large as t -> 0:
    # up to 4.6e-14 at beta = 0.95, Lambda = 6 (3 of 60 seeds), so 1e-13
    def draw():
        rng = np.random.default_rng(2024)
        if lam <= LAMBDA0:
            return tempered._kanter([rng], 5000, beta, lam, math.ceil(lam))[0]
        return tempered._double_rejection(rng, 5000, beta, lam)

    fast = draw()
    monkeypatch.setattr(tempered, "_log_zeta2", _log_zeta2_by_sine)
    ref = draw()
    assert fast.shape == ref.shape
    tol = 1e-14 if lam <= LAMBDA0 else 1e-13
    assert np.all(np.abs(fast - ref) <= tol * np.abs(ref))


def _kanter_one_generator(rng, n, beta, lam, m):
    """Kanter's rounds for one generator, as a loop of whole rounds whose
    accepted pieces are concatenated and summed by reshape and sum(axis=1)"""
    need = n * m
    shift = math.log(lam / m) + beta * math.log(beta) + (1.0 - beta) * math.log(1.0 - beta)
    kept, got = [], 0
    while got < need:
        k = int((need - got) * math.exp(lam / m) * 1.05) + 16
        u = rng.random(k) * math.pi
        x = rng.standard_exponential(k)
        with np.errstate(over="ignore"):
            piece = np.exp((tempered._log_zeta2(u, beta) + shift - np.log(x) * (1.0 - beta)) / beta)
        kept.append(piece[rng.standard_exponential(k) > piece])
        got += kept[-1].size
    return np.concatenate(kept)[:need].reshape(n, m).sum(axis=1)


@pytest.mark.parametrize("beta", [0.242579, 0.68229])
@pytest.mark.parametrize("lam", [0.05, 1.0, 1.7, 2.4, 3.3, LAMBDA0])
@pytest.mark.parametrize("n_gen", [1, 2, 5])
def test_kanter_rows_equal_the_one_generator_loop(beta, lam, n_gen):
    # m = 1 to 5 pieces per draw: the first round run once over the group,
    # later rounds per generator, and the pieces added with strided adds give
    # each row bit for bit
    seeds = np.random.SeedSequence(11).spawn(n_gen)
    m = math.ceil(lam)
    rows = tempered._kanter([np.random.default_rng(s) for s in seeds], 3000, beta, lam, m)
    assert rows.shape == (n_gen, 3000)
    for row, s in zip(rows, seeds):
        assert np.array_equal(row, _kanter_one_generator(np.random.default_rng(s), 3000,
                                                         beta, lam, m))


@pytest.mark.parametrize("beta, c", [(0.0, 0.7), (0.4, 0.05), (0.4, 0.5), (0.4, 1.5),
                                     (0.4, 30.0)])
@pytest.mark.parametrize("n_gen", [1, 3, 6])
def test_rows_equal_each_generator_alone(beta, c, n_gen):
    # gamma, Kanter (Lam = 0.21 and 2.1: one piece, then three) and double
    # rejection (Lam = 6.2 and 124): row i is what generator i gives alone,
    # and the generator ends where it would
    seeds = np.random.SeedSequence(12).spawn(n_gen)
    rngs = [np.random.default_rng(s) for s in seeds]
    rows = tempered.tempered_stable_rows(rngs, 500, beta, c, 1.3)
    for row, rng, s in zip(rows, rngs, seeds):
        alone = np.random.default_rng(s)
        assert np.array_equal(row, tempered_stable(alone, 500, beta, c, 1.3))
        assert rng.random() == alone.random()
