"""Characteristic exponents: closed forms, limits, and the structural
identities tying the GTS law to its driver and to the self-decomposable law.
"""

import functools
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from gtsou import (
    CRYPTO_PARAMS,
    EQUITY_PARAMS,
    GtsParams,
    Marginal,
    OuConfig,
    bdlp_exponent,
    cumulants,
    default_xi_max,
    increment_cumulants,
    increment_exponent,
    marginal_exponent,
    psi_gts,
    psi_one_sided,
    sd_exponent,
    sd_exponent_unit_form,
)
from gtsou import exponents
from gtsou.exponents import psi_gts_derivatives
from gtsou.inversion import default_grid, half_frequencies

XI = np.linspace(-10.0, 10.0, 41)
XI_NONZERO = XI[XI != 0.0]


def test_one_sided_log_limit_value():
    # beta = 0, alpha = 1, lambda = 1 at xi = 1 reduces to -log(1 - i)
    val = psi_one_sided(1.0, beta=0.0, alpha=1.0, lam=1.0)
    assert val == pytest.approx(-np.log(1.0 - 1.0j), abs=1e-12)
    assert val.real == pytest.approx(-0.34657359027997264, abs=1e-12)
    assert val.imag == pytest.approx(0.78539816339744831, abs=1e-12)


def test_one_sided_closed_form():
    # alpha Gamma(-beta) ((lambda - i xi)^beta - lambda^beta), evaluated
    # naively, matches the cancellation-safe implementation away from small beta
    from scipy.special import gamma

    for beta in (0.2, 0.5, 0.9):
        for lam in (0.5, 2.0):
            naive = 1.3 * gamma(-beta) * ((lam - 1j * XI) ** beta - lam**beta)
            got = psi_one_sided(XI, beta=beta, alpha=1.3, lam=lam)
            np.testing.assert_allclose(got, naive, rtol=1e-12)


def test_one_sided_continuity_in_beta():
    # analytic through beta = 0: the limit and nearby values agree
    at_zero = psi_one_sided(XI, beta=0.0, alpha=0.7, lam=1.4)
    for beta in (1e-12, 1e-9, 1e-7, 1e-6, 2e-6):
        near = psi_one_sided(XI, beta=beta, alpha=0.7, lam=1.4)
        np.testing.assert_allclose(near, at_zero, atol=2e-5 * max(beta / 1e-6, 1e-3))


def test_one_sided_not_flat_in_beta_near_switch():
    # the exponent must respond to beta everywhere (a flat spot would blind
    # derivative-based fitting); check a relative FD slope on both sides of 1e-6
    for beta in (3e-7, 1e-6, 3e-6):
        h = 0.1 * beta
        up = psi_one_sided(3.0, beta=beta + h, alpha=1.0, lam=1.0)
        dn = psi_one_sided(3.0, beta=beta - h, alpha=1.0, lam=1.0)
        assert abs(up - dn) > 0.0
        slope = (up - dn) / (2 * h)
        assert 0.1 < abs(slope) < 10.0  # d psi / d beta is O(1) here


def test_one_sided_linear_in_alpha():
    base = psi_one_sided(XI, beta=0.4, alpha=1.0, lam=0.9)
    np.testing.assert_allclose(psi_one_sided(XI, beta=0.4, alpha=2.5, lam=0.9),
                               2.5 * base, rtol=1e-14)


def test_gts_hermitian_and_origin():
    for p in (EQUITY_PARAMS, CRYPTO_PARAMS):
        vals = psi_gts(XI, p)
        flipped = psi_gts(-XI, p)
        np.testing.assert_allclose(flipped, np.conj(vals), rtol=1e-14, atol=1e-16)
        assert psi_gts(0.0, p) == 0.0
        assert np.all(vals.real <= 1e-12)  # |CF| <= 1


def test_gts_drift_shift():
    p0 = EQUITY_PARAMS.replace(mu=0.0)
    shift = psi_gts(XI, EQUITY_PARAMS) - psi_gts(XI, p0)
    np.testing.assert_allclose(shift, 1j * EQUITY_PARAMS.mu * XI, rtol=1e-10, atol=1e-14)


def test_bdlp_is_frequency_times_derivative():
    # log CF of the driver at time 1 equals xi * d/dxi psi(xi)
    h = 1e-6
    for p in (EQUITY_PARAMS, CRYPTO_PARAMS):
        dpsi = (psi_gts(XI_NONZERO + h, p) - psi_gts(XI_NONZERO - h, p)) / (2 * h)
        np.testing.assert_allclose(bdlp_exponent(XI_NONZERO, p), XI_NONZERO * dpsi,
                                   rtol=2e-6, atol=2e-9)


def test_bdlp_hermitian_and_origin():
    vals = bdlp_exponent(XI, EQUITY_PARAMS)
    np.testing.assert_allclose(bdlp_exponent(-XI, EQUITY_PARAMS), np.conj(vals),
                               rtol=1e-14, atol=1e-16)
    assert bdlp_exponent(0.0, EQUITY_PARAMS) == 0.0


def test_sd_exponent_two_routes_agree():
    # Gauss-Legendre panels of psi(u)/u versus the unit-interval form: lone
    # scalars out to the SD frequency cutoffs (~82 equity, ~45 crypto) and
    # C4's 201-point grid on crypto, whose 0.1 spacing exceeds the panel bound
    # near the origin, so both need breakpoints
    for p in (EQUITY_PARAMS, CRYPTO_PARAMS):
        for xi in (-45.0, -20.0, -8.0, -3.0, -0.5, 0.0, 0.5, 3.0, 8.0, 20.0, 82.0):
            a = complex(sd_exponent(xi, p))
            b = sd_exponent_unit_form(xi, p)
            assert a == pytest.approx(b, abs=1e-9)
    grid = np.linspace(-10.0, 10.0, 201)
    unit = np.array([sd_exponent_unit_form(x, CRYPTO_PARAMS) for x in grid])
    np.testing.assert_allclose(sd_exponent(grid, CRYPTO_PARAMS), unit, rtol=0, atol=1e-9)


@pytest.mark.parametrize("beta", [0.0, 1e-9, 5e-7, 9e-7, 1e-6, 2e-6, 9e-6, 1e-5, 2e-5,
                                  1e-3, 0.3])
def test_sd_exponent_unit_form_at_small_beta(beta):
    # around the unit form's switch to its log branch: the beta = 0 limit
    # alone erred O(beta) below it (5.6e-6 at beta = 9e-7, xi = 30), and the
    # naive product cancels just above it
    for base in (EQUITY_PARAMS, CRYPTO_PARAMS):
        p = base.replace(beta_plus=beta, beta_minus=beta)
        for xi in (0.5, 3.0, 30.0, -45.0):
            assert sd_exponent_unit_form(xi, p) == pytest.approx(
                complex(sd_exponent(xi, p)), abs=1e-10)


def test_sd_exponent_far_scalar():
    # a lone scalar far past the cutoff is finite and takes the array route
    for p in (EQUITY_PARAMS, CRYPTO_PARAMS):
        val = sd_exponent(1e5, p)
        assert np.isfinite(val)
        assert val == sd_exponent(np.array([1e5]), p)[0]


def test_sd_default_xi_max_pinned():
    # SD grid selection: the |cf| = 1e-12 cutoffs of both presets
    for p, xi_max in ((EQUITY_PARAMS, 81.9083597204039),
                      (CRYPTO_PARAMS, 45.18254107578155)):
        got = default_xi_max(lambda xi, q=p: sd_exponent(xi, q))
        assert got == pytest.approx(xi_max, rel=1e-12, abs=0)


def test_sd_integrand_identity():
    # gamma(xi) = int_0^xi psi(u)/u du implies xi * gamma'(xi) = psi(xi)
    h = 1e-5
    for xi in (0.5, 2.0, 7.0, -3.0):
        dgamma = (sd_exponent(xi + h, EQUITY_PARAMS)
                  - sd_exponent(xi - h, EQUITY_PARAMS)) / (2 * h)
        assert xi * dgamma == pytest.approx(psi_gts(xi, EQUITY_PARAMS), rel=1e-7)


def test_sd_origin_and_hermitian():
    assert sd_exponent(0.0, EQUITY_PARAMS) == 0.0
    xi = np.array([0.7, 4.0])
    np.testing.assert_allclose(sd_exponent(-xi, EQUITY_PARAMS),
                               np.conj(sd_exponent(xi, EQUITY_PARAMS)), rtol=1e-12)


def test_sd_small_xi_slope_is_mean():
    # gamma(xi) ~ i kappa_1 xi near 0 (the integrand limit)
    k1 = cumulants(EQUITY_PARAMS, 1)[1]
    xi = 1e-4
    val = sd_exponent(xi, EQUITY_PARAMS)
    assert val.imag / xi == pytest.approx(k1, rel=1e-3)


def test_increment_exponent_gts_difference():
    # gts mode is psi(xi) - psi(a xi) to the bit, on arrays and on scalars
    c = OuConfig(lambda_rate=0.3, dt=1.0, mode=Marginal.GTS)
    xi = np.array([-4.0, -1.0, 0.7, 5.0, 300.0])
    for p in (EQUITY_PARAMS, CRYPTO_PARAMS):
        expected = psi_gts(xi, p) - psi_gts(c.a * xi, p)
        assert np.array_equal(increment_exponent(xi, p, c), expected)
        scalar = increment_exponent(0.7, p, c)
        assert type(scalar) is complex and scalar == expected[2]


def test_increment_exponent_sd_difference():
    c = OuConfig(lambda_rate=0.3, dt=1.0, mode=Marginal.SD)
    xi = np.array([-4.0, 0.7, 5.0])
    expected = sd_exponent(xi, EQUITY_PARAMS) - sd_exponent(c.a * xi, EQUITY_PARAMS)
    np.testing.assert_allclose(increment_exponent(xi, EQUITY_PARAMS, c), expected,
                               atol=1e-9)


def test_gauss_legendre_literals_are_leggauss_bit_for_bit():
    # written out so that importing the package does not load numpy.polynomial
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert exponents._GL8_NODES.tobytes() == nodes.tobytes()
    assert exponents._GL8_WEIGHTS.tobytes() == weights.tobytes()


def test_sd_exponent_blocks_match_one_block(monkeypatch):
    # more panels than one block: every value equals the one-block result
    xi = np.linspace(-40.0, 40.0, 2 * exponents._SD_BLOCK + 1000)
    blocked = sd_exponent(xi, CRYPTO_PARAMS)
    monkeypatch.setattr(exponents, "_SD_BLOCK", xi.size)
    assert np.array_equal(blocked, sd_exponent(xi, CRYPTO_PARAMS))
    assert sd_exponent(xi[7], CRYPTO_PARAMS) == sd_exponent(xi[7:8], CRYPTO_PARAMS)[0]
    # each value sums the panels up to its own frequency only
    assert sd_exponent(xi[7], CRYPTO_PARAMS) == blocked[7]


@pytest.mark.parametrize("p", [EQUITY_PARAMS, CRYPTO_PARAMS], ids=["equity", "crypto"])
def test_sd_exponent_long_array_accuracy(p):
    # a 20001-point array out to the |cf| = 1e-12 cutoff against a 20-digit
    # quadrature: within 1e-14 relative, as each value sums a few dozen
    # panels (one running sum over every gap between neighbours erred 1e-13)
    top = default_xi_max(lambda x: sd_exponent(x, p))
    xi = np.linspace(-top, top, 20001)
    got = sd_exponent(xi, p)
    v = [mp.mpf(t) for t in p.as_vector()]
    for i in (0, 2000, 5000, 9990, 10003, 11000, 13000, 16000, 19000, 20000):
        with mp.workdps(20):
            psi = _mp_psi_gts(v)
            ref = complex(mp.quad(lambda s: psi(xi[i] * mp.exp(-s)), [0, 10, 40, 80]))
        assert abs(got[i] - ref) <= 1e-14 * abs(ref), (xi[i], got[i], ref)


def test_sd_step_blocks_match_one_block(monkeypatch):
    # more frequencies than one block: every value, and a lone scalar, equals
    # the one-block result
    c = OuConfig(lambda_rate=1.0, dt=1.0, mode=Marginal.SD)
    xi = np.linspace(-40.0, 40.0, 2 * exponents._SD_BLOCK + 1000)
    blocked = increment_exponent(xi, CRYPTO_PARAMS, c)
    monkeypatch.setattr(exponents, "_SD_BLOCK", xi.size)
    assert np.array_equal(blocked, increment_exponent(xi, CRYPTO_PARAMS, c))
    scalar = increment_exponent(xi[-7], CRYPTO_PARAMS, c)
    assert type(scalar) is complex and scalar == blocked[-7]


@pytest.mark.parametrize("law", ["sd_exponent", "sd_step"])
def test_sd_non_finite_frequencies_give_nan(law):
    # nan and +-inf give nan, as psi_gts does; finite entries are unchanged
    c = OuConfig(lambda_rate=0.5, dt=1.0, mode=Marginal.SD)
    f = {"sd_exponent": lambda x: sd_exponent(x, EQUITY_PARAMS),
         "sd_step": lambda x: increment_exponent(x, EQUITY_PARAMS, c)}[law]
    with np.errstate(invalid="ignore"):
        for v in (np.nan, np.inf, -np.inf):
            got = f(v)
            assert type(got) is complex and np.isnan(got.real) and np.isnan(got.imag)
        mixed = np.array([1.5, np.nan, -2.0, np.inf, 0.0, -np.inf, 30.0])
        got = f(mixed)
    finite = np.isfinite(mixed)
    assert np.all(np.isnan(got[~finite].real) & np.isnan(got[~finite].imag))
    assert np.array_equal(got[finite], f(mixed[finite]))
    assert got[4] == 0.0


def test_increment_exponent_sd_matches_mpmath_at_top_frequency():
    # the crypto SD sampler at lambda = 0.1: its grid's highest frequency is
    # where the 8-node panel sees the fastest-turning integrand
    c = OuConfig(lambda_rate=0.1, dt=1.0, mode=Marginal.SD)
    k = increment_cumulants(CRYPTO_PARAMS, c, 2)
    inc = lambda x: increment_exponent(x, CRYPTO_PARAMS, c)
    g = default_grid(inc, k[1], float(np.sqrt(k[2])), n_points=8192, span=20.0)
    top = half_frequencies(g)[-2:]
    xi = float(top[-1])
    assert top[0] < g.xi_max <= xi and xi > 1e4
    v = [mp.mpf(t) for t in CRYPTO_PARAMS.as_vector()]
    with mp.workdps(40):
        psi = _mp_psi_gts(v)
        ref = complex(mp.quad(lambda s: psi(xi * mp.exp(-s)),
                              [0, mp.mpf(c.lambda_rate * c.dt)]))
    got = inc(np.array([xi]))[0]
    assert abs(got - ref) <= 1e-14 * abs(ref)


# lambda dt = 0.001 for equity only: crypto's increment has no |cf| = 1e-12
# cutoff below 1e7 at that step
@pytest.mark.parametrize("p, lam", [
    pytest.param(p, lam, id=f"{lam}-{name}")
    for lam in (0.001, 0.01, 0.1, 1.0, 5.0)
    for name, p in (("crypto", CRYPTO_PARAMS), ("equity", EQUITY_PARAMS))
    if lam > 0.001 or name == "equity"])
def test_increment_exponent_sd_difference_accuracy(p, lam):
    # phi(xi) - phi(a xi) against a 40-digit quadrature of its integral form,
    # at points of a 20001-point array out to the |cf| = 1e-12 cutoff: within
    # 1e-14 relative at every step, short ones included, since the step is
    # integrated over its own span and nothing cancels
    c = OuConfig(lambda_rate=lam, dt=1.0, mode=Marginal.SD)
    top = default_xi_max(lambda x: increment_exponent(x, p, c))
    xi = np.linspace(-top, top, 20001)
    got = increment_exponent(xi, p, c)
    v = [mp.mpf(t) for t in p.as_vector()]
    for i in (0, 2000, 5000, 9990, 10003, 11000, 13000, 16000, 19000, 20000):
        with mp.workdps(40):
            psi = _mp_psi_gts(v)
            ref = complex(mp.quad(lambda s: psi(xi[i] * mp.exp(-s)), [0, mp.mpf(lam)]))
        assert abs(got[i] - ref) <= 1e-14 * abs(ref), (xi[i], got[i], ref)


@pytest.mark.parametrize("p", [EQUITY_PARAMS, CRYPTO_PARAMS], ids=["equity", "crypto"])
def test_increment_exponent_sd_longest_span_accuracy(p):
    # the difference route at its longest span, lambda dt = 37 (ou._MAX_SPAN),
    # against the same 40-digit integral, split where psi(xi e^-s) turns: near
    # the origin, where the step is smallest, and at the cutoff
    c = OuConfig(lambda_rate=37.0, dt=1.0, mode=Marginal.SD)
    top = default_xi_max(lambda x: increment_exponent(x, p, c))
    xi = np.linspace(-top, top, 20001)[[9990, 10003, 20000]]
    got = increment_exponent(xi, p, c)
    v = [mp.mpf(t) for t in p.as_vector()]
    for x, value in zip(xi, got):
        with mp.workdps(40):
            psi = _mp_psi_gts(v)
            ref = complex(mp.quad(lambda s: psi(x * mp.exp(-s)), [0, 1, 5, 37]))
        assert abs(value - ref) <= 1e-14 * abs(ref), (x, value, ref)


@pytest.mark.parametrize("p", [EQUITY_PARAMS, CRYPTO_PARAMS], ids=["equity", "crypto"])
def test_increment_exponent_sd_long_step_is_the_marginal(p):
    # at lambda dt = 50 the step covers the last 37 of it, and a = e^-50
    # leaves phi(a xi) below rounding: the step is the SD marginal exponent
    c = OuConfig(lambda_rate=50.0, dt=1.0, mode=Marginal.SD)
    xi = np.linspace(-80.0, 80.0, 1601)
    np.testing.assert_allclose(increment_exponent(xi, p, c), sd_exponent(xi, p),
                               rtol=5e-14, atol=0)


def test_increment_exponent_sd_cost_is_bounded(monkeypatch):
    # about 16 psi_gts nodes per frequency whatever the step: panels in s up
    # to lambda dt = 1, the difference of two sd_exponent calls beyond
    points = []
    psi = exponents.psi_gts

    def counted(x, p):
        points.append(np.size(x))
        return psi(x, p)

    monkeypatch.setattr(exponents, "psi_gts", counted)
    xi = np.linspace(0.0, 2000.0, 2001)
    for lam in (0.1, 1.0, 5.0, 37.0, 100.0):
        points.clear()
        increment_exponent(xi, EQUITY_PARAMS, OuConfig(lambda_rate=lam, dt=1.0, mode=Marginal.SD))
        assert sum(points) <= 17 * xi.size, lam


def test_increment_exponent_sd_memory_is_bounded():
    # one panel of one block of frequencies per psi_gts call: 2^16
    # frequencies at lambda dt = 1 (two panels) stay well under what one call
    # on every node would take (about 134 MB)
    c = OuConfig(lambda_rate=1.0, dt=1.0, mode=Marginal.SD)
    xi = np.linspace(-200.0, 200.0, 2**16)
    tracemalloc.start()
    try:
        increment_exponent(xi, EQUITY_PARAMS, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_increment_plus_scaled_marginal_recomposes():
    # X = a X' + Y in law <=> phi(xi) = phi(a xi) + phi_Y(xi): the
    # self-decomposability property the process construction rests on
    c = OuConfig(lambda_rate=0.55, dt=0.5, mode=Marginal.SD)
    phi = marginal_exponent(EQUITY_PARAMS, Marginal.SD)
    for xi in (0.4, 2.2, -6.0):
        total = phi(c.a * xi) + increment_exponent(xi, EQUITY_PARAMS, c)
        assert total == pytest.approx(phi(xi), abs=1e-9)


def test_marginal_exponent_dispatch():
    xi = 1.7
    assert marginal_exponent(EQUITY_PARAMS, Marginal.GTS)(xi) == psi_gts(xi, EQUITY_PARAMS)
    assert marginal_exponent(EQUITY_PARAMS, Marginal.SD)(xi) == sd_exponent(xi, EQUITY_PARAMS)


def test_degenerate_alpha_rejected():
    with pytest.raises(ValueError):
        GtsParams(mu=0.0, beta_plus=0.5, beta_minus=0.5, alpha_plus=-0.1,
                  alpha_minus=0.4, lambda_plus=1.0, lambda_minus=1.0)


# --- parameter derivatives ---------------------------------------------------

@functools.lru_cache(maxsize=4096)
def _mp_gamma(x, prec):
    """mp.gamma(x) at binary precision prec, computed once per pair: mp.diff
    rebuilds the reference at every point it moves, mostly with beta fixed."""
    with mp.workprec(prec):
        return mp.gamma(x)


def _mp_one_sided(beta, alpha, lam):
    """psi_one_sided as a function of xi, at the working precision, in the
    expm1 form (its log limit at beta = 0).  alpha Gamma(1 - beta)
    lambda^beta / beta is computed once, here, so a quadrature over xi pays
    for it once per side."""
    if beta == 0:
        return lambda x: -alpha * mp.log(1 - 1j * x / lam)
    scale = alpha * _mp_gamma(1 - beta, mp.mp.prec) * lam**beta / beta
    return lambda x: -scale * mp.expm1(beta * mp.log(1 - 1j * x / lam))


def _mp_psi_gts(v):
    """psi_gts at the parameter vector v as a function of xi, at the working
    precision."""
    mu, b_plus, b_minus, a_plus, a_minus, l_plus, l_minus = v
    plus, minus = _mp_one_sided(b_plus, a_plus, l_plus), _mp_one_sided(b_minus, a_minus, l_minus)
    return lambda xi: 1j * mu * xi + plus(xi) + minus(-xi)


@pytest.fixture(scope="module")
def c8_xi_max():
    from gtsou import fit_grid, moment_matched_init, sample_marginal
    data = sample_marginal(EQUITY_PARAMS, Marginal.GTS, 5000, np.random.default_rng(4))
    return fit_grid(data, moment_matched_init(data)).xi_max


@pytest.mark.parametrize("beta", [0.0, 1e-12, 1e-6, 1e-3, 0.036, 0.68])
def test_psi_derivatives_match_mpmath(beta, c8_xi_max):
    # every first and second parameter derivative, through beta = 0 and out
    # to the C8 grid's cutoff, on a two-sided and a one-sided law; the second
    # derivatives vanish except for the mu-free pairs of one side
    xi = np.array([-c8_xi_max, -3.0, -1e-3, 1e-3, 0.5, 7.0, c8_xi_max])
    same_side = {(1, 1), (1, 3), (1, 5), (3, 5), (5, 5),
                 (2, 2), (2, 4), (2, 6), (4, 6), (6, 6)}
    for p in (EQUITY_PARAMS.replace(beta_plus=beta, beta_minus=beta),
              EQUITY_PARAMS.replace(beta_plus=beta, alpha_minus=0.0)):
        first, second = psi_gts_derivatives(xi, p)
        assert set(second) == same_side
        assert np.isfinite(first).all()
        assert all(np.isfinite(d).all() for d in second.values())
        v = [mp.mpf(t) for t in p.as_vector()]
        for i, x in enumerate(xi):
            def f(*t, x=mp.mpf(x)):
                # rebuilt at every t: mp.diff moves beta and lambda too
                return _mp_psi_gts(t)(x)
            for j in range(7):
                order = [0] * 7
                order[j] = 1
                with mp.workdps(40):
                    ref = complex(mp.diff(f, v, order))
                assert abs(first[j, i] - ref) <= 1e-8 * abs(ref), (p, x, j)
            for (j, k), d in second.items():
                order = [0] * 7
                order[j] += 1
                order[k] += 1
                with mp.workdps(40):
                    ref = complex(mp.diff(f, v, order))
                assert abs(d[i] - ref) <= 1e-8 * abs(ref), (p, x, j, k)


def test_expm1_moments_series_is_three_horner_loops():
    # the one (3, k) Horner pass is bitwise the three per-series loops, on
    # the C8 grid's beta L below |z| = 1 and on complex points of every sign
    log_ratio = exponents._log_ratio(half_frequencies(default_grid(
        lambda x: psi_gts(x, EQUITY_PARAMS), 0.0, 1.0)), EQUITY_PARAMS.lambda_plus)
    z = np.concatenate([EQUITY_PARAMS.beta_plus * log_ratio,
                        [0.0, -0.0j, 0.99, -0.99, 0.7j, -0.5 - 0.5j, 0.3 - 0.9j]])
    zs = z[np.abs(z) < 1.0]
    assert zs.size > 7
    for m, got in enumerate(exponents._expm1_moments(zs)):
        acc = np.zeros_like(zs)
        for c in exponents._I_SERIES[m, ::-1]:
            acc = acc * zs + c
        assert np.array_equal(got.view(float), acc.view(float))


# --- complex log, exp and expm1 from real kernels ---------------------------

KERNEL_R = [0.0, 1e-300, 1e-20, 1e-8, 0.5, 1.0, 37.0, 1e8, 1e153, 1e160, 1e300, 1.7e308]
# |Im z| < pi, out to the last doubles below pi, with real parts from
# deep underflow to near overflow
KERNEL_Z = [complex(x, y)
            for x in (-700.0, -30.0, -1.0, -1e-8, 0.0, 1e-12, 0.5, 5.0, 700.0)
            for y in (-np.nextafter(np.pi, 0.0), -2.0, -1e-9, 0.0, 1e-15, 1.0,
                      np.pi / 2, 3.0, np.nextafter(np.pi, 0.0))]


def _rel(got, ref):
    return abs(got - ref) / abs(ref) if ref != 0 else abs(got)


def test_log_ratio_matches_mpmath():
    # log(1 - i r) = log1p(r^2)/2 - i arctan(r), and log|r| where r^2 overflows
    r = np.array([s * v for v in KERNEL_R for s in (1.0, -1.0)])
    got = exponents._log_ratio(r, 1.0)
    with mp.workdps(40):
        ref = [complex(mp.log(1 - 1j * mp.mpf(v))) for v in r]
    assert max(_rel(g, f) for g, f in zip(got, ref)) <= 4e-16
    for i in (2, 2 * KERNEL_R.index(1e160)):  # a scalar takes the same route
        assert exponents._log_ratio(r[i], 1.0) == got[i]


@pytest.mark.parametrize("kernel, mp_fn", [(exponents._cexp, mp.exp), (exponents._cexpm1, mp.expm1)],
                         ids=["exp", "expm1"])
def test_complex_exp_kernels_match_mpmath(kernel, mp_fn):
    # e^z and e^z - 1 with sine and cosine from tan(Im z / 2), for |Im z| < pi
    z = np.array(KERNEL_Z)
    got = kernel(z)
    with mp.workdps(40):
        ref = [complex(mp_fn(mp.mpc(v.real, v.imag))) for v in z]
    assert max(_rel(g, f) for g, f in zip(got, ref)) <= 1e-15


KERNEL_XI = [1e-20, 1e-6, 0.3, 2.0, 40.0, 1e4]


@pytest.mark.parametrize("beta", [0.0, 1e-7, 0.24, 0.68, 0.99])
def test_one_sided_and_bdlp_match_mpmath(beta):
    # psi_one_sided and the BDLP side alpha Gamma(1-beta) i y (lam - i y)^(beta-1)
    # within 2e-15 relative: e^((beta-1) L) amplifies the rounding of L by up
    # to |L| = 11 at xi = 1e4, lam = 0.19 (and 1e-14 at xi = 1e160)
    xi = np.array([s * v for v in KERNEL_XI for s in (1.0, -1.0)])
    for alpha, lam in ((0.414, 0.7276), (0.81, 0.19), (1.3, 3.0)):
        psi = psi_one_sided(xi, beta, alpha, lam)
        bdlp = exponents._bdlp_one_sided(xi, beta, alpha, lam)
        with mp.workdps(40):
            b, a, l = mp.mpf(beta), mp.mpf(alpha), mp.mpf(lam)
            side = _mp_one_sided(b, a, l)
            psi_ref = [complex(side(mp.mpf(x))) for x in xi]
            bdlp_ref = [complex(a * mp.gamma(1 - b) * 1j * mp.mpf(x)
                                * (l - 1j * mp.mpf(x)) ** (b - 1)) for x in xi]
        assert max(_rel(g, f) for g, f in zip(psi, psi_ref)) <= 2e-15, (alpha, lam)
        assert max(_rel(g, f) for g, f in zip(bdlp, bdlp_ref)) <= 2e-15, (alpha, lam)


@pytest.mark.parametrize("lam", [0.05, 0.7276, 1.0, 3.3])
def test_one_sided_real_part_at_tiny_frequencies(lam):
    # Re psi ~ -alpha Gamma(1-beta) lam^beta (1-beta) (xi/lam)^2 / 2 < 0 at
    # tiny xi; forming (lam - i xi)/lam in complex arithmetic rounded it to
    # +5.17e-17 at lam = 0.7276 for every xi <= 1e-20
    xi = np.array([1e-30, 1e-20, 1e-12, 1e-8])
    got = psi_one_sided(xi, 0.243, 0.414, lam)
    with mp.workdps(40):
        side = _mp_one_sided(mp.mpf(0.243), mp.mpf(0.414), mp.mpf(lam))
        ref = [complex(side(mp.mpf(x))) for x in xi]
    for g, f in zip(got, ref):
        assert f.real < 0.0
        assert abs(g.real - f.real) <= 1e-14 * abs(f.real), (g, f)
        assert abs(g.imag - f.imag) <= 1e-14 * abs(f.imag), (g, f)


def test_exponents_keep_their_domain():
    # a finite frequency of any size gives a finite exponent; +-inf and nan
    # give nan in both parts, scalar or array
    p = EQUITY_PARAMS
    laws = (lambda x: psi_one_sided(x, 0.24, 0.4, 0.7), lambda x: psi_gts(x, p),
            lambda x: bdlp_exponent(x, p),
            lambda x: psi_gts_derivatives(np.atleast_1d(x), p)[0][1:, 0])
    with np.errstate(invalid="ignore"):
        for f in laws:
            for x in (1e160, -1e160, 1e300, -1.7e308):
                assert np.all(np.isfinite(f(x))), x
            for x in (np.inf, -np.inf, np.nan):
                got = np.asarray(f(x))
                assert np.all(np.isnan(got.real) & np.isnan(got.imag)), x
