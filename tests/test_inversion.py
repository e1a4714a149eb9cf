"""Characteristic-function inversion: closed-form recovery, grid policy,
quantile interpolation, and the density -> CF round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtsou import (
    EQUITY_PARAMS,
    DensityGrid,
    GridSpec,
    NormalizationError,
    cf_on_grid,
    cumulants,
    default_grid,
    default_xi_max,
    invert_cf,
    psi_gts,
    quantile,
)
from gtsou.frft import phase_mod2
from gtsou.inversion import InversionPlan, alias_free_points, half_frequencies


def gaussian_exponent(mu=0.3, sigma=1.7):
    return lambda xi: 1j * mu * xi - 0.5 * (sigma * xi) ** 2


def gaussian_pdf(x, mu=0.3, sigma=1.7):
    return np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))


def direct_raw(g, s):
    """The trapezoid sum (dxi/2pi) sum_{|k| <= K} w_k s_k e^(-i k dxi x) on the
    x nodes, term by term: w = 1/2 at |k| = K, dxi = pi/(n dx), K the first
    index with K dxi >= xi_max, and s_(-k) = conj(s_k)."""
    n = g.n_points
    x = np.linspace(g.x_min, g.x_max, n)
    dx = (g.x_max - g.x_min) / (n - 1)
    dxi = np.pi / (n * dx)
    k = np.arange(int(np.ceil(g.xi_max / dxi)) + 1)
    assert k[-1] * dxi >= g.xi_max > (k[-1] - 1) * dxi
    w = np.where(k == k[-1], 0.5, 1.0) * np.where(k > 0, 2.0, 1.0)
    out = np.empty(n)
    for rows in np.array_split(np.arange(n), max(1, n * k.size // 2**20)):
        phase = np.exp(-1j * np.pi * (phase_mod2(g.x_min / (n * dx), k)
                                      + phase_mod2(1.0 / n, np.outer(rows, k))))
        out[rows] = dxi / (2.0 * np.pi) * np.real(phase @ (w * s))
    return out


def direct_pdf(exponent, g):
    """``direct_raw`` of the characteristic function, clipped and renormalized
    like ``InversionPlan.pdf``."""
    pdf = direct_raw(g, np.exp(exponent(half_frequencies(g))))
    pdf = np.where(pdf < 0.0, 0.0, pdf)
    mass = float(np.trapezoid(pdf, np.linspace(g.x_min, g.x_max, g.n_points)))
    return pdf / mass, mass


def test_gaussian_recovery():
    g = default_grid(gaussian_exponent(), mean=0.3, std=1.7)
    d = invert_cf(gaussian_exponent(), g)
    sup = np.max(np.abs(d.pdf - gaussian_pdf(d.x)))
    assert sup < 1e-10
    assert d.raw_mass == pytest.approx(1.0, abs=1e-8)


def test_gaussian_quantiles():
    from scipy.stats import norm

    g = default_grid(gaussian_exponent(), mean=0.3, std=1.7)
    d = invert_cf(gaussian_exponent(), g)
    for u in (0.01, 0.25, 0.5, 0.9, 0.999):
        assert quantile(d, u) == pytest.approx(norm.ppf(u, loc=0.3, scale=1.7),
                                               abs=5e-6)


def test_symmetric_density_median_zero():
    sym = lambda xi: -0.5 * np.asarray(xi, dtype=complex) ** 2
    d = invert_cf(sym, default_grid(sym, mean=0.0, std=1.0))
    assert quantile(d, 0.5) == pytest.approx(0.0, abs=1e-9)


def test_quantile_domain_and_monotonicity():
    g = default_grid(gaussian_exponent(), mean=0.3, std=1.7)
    d = invert_cf(gaussian_exponent(), g)
    with pytest.raises(ValueError):
        quantile(d, 0.0)
    with pytest.raises(ValueError):
        quantile(d, 1.0)
    u = np.linspace(1e-3, 1.0 - 1e-3, 199)
    q = quantile(d, u)
    assert np.all(np.diff(q) > 0.0)


def test_quantile_cdf_round_trip():
    # cdf(quantile(u)) returns u to within one grid cell of cdf mass
    g = default_grid(gaussian_exponent(), mean=0.3, std=1.7)
    d = invert_cf(gaussian_exponent(), g)
    cell = np.max(np.diff(d.cdf))
    for u in (1e-3, 0.05, 0.5, 0.95, 1.0 - 1e-3):
        assert d.cdf_at(quantile(d, u)) == pytest.approx(u, abs=2 * cell + 1e-9)


def test_quantile_table_built_on_first_quantile(monkeypatch):
    # invert_cf builds no interpolant; the first quantile builds the inverse-cdf
    # PCHIP once, and it equals the one invert_cf used to build eagerly
    import scipy.interpolate

    pchip = scipy.interpolate.PchipInterpolator
    built = []

    class CountingPchip(pchip):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(scipy.interpolate, "PchipInterpolator", CountingPchip)
    exponent = lambda xi: psi_gts(xi, EQUITY_PARAMS)
    k = cumulants(EQUITY_PARAMS, 2)
    d = invert_cf(exponent, default_grid(exponent, k[1], np.sqrt(k[2])))
    assert built == []

    keep = np.concatenate(([True], np.diff(d.cdf) > 1e-15))
    table = pchip(d.cdf[keep], d.x[keep], extrapolate=False)
    u = np.random.default_rng(4).uniform(1e-9, 1.0 - 1e-9, 2001)
    expected = table(np.clip(u, table.x[0], table.x[-1]))
    assert np.array_equal(quantile(d, u), expected)
    assert np.array_equal(quantile(d, u[:7]), expected[:7])
    assert built == [1]


def test_gts_moments_match_cumulants():
    p = EQUITY_PARAMS
    k = cumulants(p, 4)
    exponent = lambda xi: psi_gts(xi, p)
    # span 18 sd: the x^4 integrand still carries ~1e-3 relative mass beyond
    # 15 sd for kurtosis near 9
    d = invert_cf(exponent, default_grid(exponent, k[1], np.sqrt(k[2]), span=18.0))
    m = d.moments()
    assert m["mean"] == pytest.approx(k[1], abs=5e-4)
    assert m["variance"] == pytest.approx(k[2], rel=5e-4)
    skew = k[3] / k[2] ** 1.5
    kurt = 3.0 + k[4] / k[2] ** 2
    assert m["skewness"] == pytest.approx(skew, rel=1e-3)
    assert m["kurtosis"] == pytest.approx(kurt, rel=1e-3)


def test_mass_check_raises_on_narrow_window():
    # +-1.2 sigma captures ~77% of a Gaussian: must be flagged, not returned
    g = GridSpec(n_points=4096, x_min=-1.2 * 1.7 + 0.3, x_max=1.2 * 1.7 + 0.3,
                 xi_max=30.0)
    with pytest.raises(NormalizationError):
        invert_cf(gaussian_exponent(), g)


def test_mass_check_raises_on_non_finite_mass():
    # a NaN mass fails every comparison, so it must be caught by name rather
    # than reaching the quantile PCHIP as an empty cdf
    g = GridSpec(n_points=1024, x_min=-5.0, x_max=5.0, xi_max=50.0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NormalizationError, match="not finite"):
            invert_cf(lambda xi: np.full(np.shape(xi), np.nan, dtype=complex), g)


def test_pdf_interpolation_outside_grid_is_zero():
    g = default_grid(gaussian_exponent(), mean=0.3, std=1.7)
    d = invert_cf(gaussian_exponent(), g)
    assert d.pdf_at(g.x_min - 5.0) == 0.0
    assert d.pdf_at(g.x_max + 5.0) == 0.0
    assert d.cdf_at(g.x_min - 5.0) == 0.0
    assert d.cdf_at(g.x_max + 5.0) == 1.0


def test_cf_round_trip():
    # density back to CF matches the input exponent on [-xi_max/2, xi_max/2]
    p = EQUITY_PARAMS
    k = cumulants(p, 2)
    exponent = lambda xi: psi_gts(xi, p)
    g = default_grid(exponent, k[1], np.sqrt(k[2]))
    d = invert_cf(exponent, g)
    xi = np.linspace(-g.xi_max / 2, g.xi_max / 2, 101)
    got = cf_on_grid(d, xi)
    np.testing.assert_allclose(got, np.exp(psi_gts(xi, p)), atol=1e-6)


def test_default_xi_max_hits_target_modulus():
    exponent = gaussian_exponent()
    xm = default_xi_max(exponent)
    assert np.exp(np.real(exponent(xm))) == pytest.approx(1e-12, rel=1e-3)
    assert np.exp(np.real(exponent(0.9 * xm))) > 1e-12


def test_default_xi_max_slow_decay_rejected():
    # a characteristic function that never reaches the cutoff must raise
    slow = lambda xi: -1e-30 * np.asarray(xi, dtype=complex) ** 2
    with pytest.raises(NormalizationError):
        default_xi_max(slow)


def test_default_grid_alias_floor():
    # slowly decaying CF (cutoff ~2.8e3) over a wide window: the point count
    # must grow until the x grid's Nyquist frequency pi/dx = pi (n-1)/width
    # covers 1.5x the cutoff
    slow = lambda xi: -0.01 * np.abs(np.asarray(xi, dtype=complex))
    g = default_grid(slow, mean=0.0, std=10.0, n_points=4096)
    assert g.n_points > 4096
    assert np.pi * (g.n_points - 1) / g.xi_max >= 1.5 * (g.x_max - g.x_min)
    # fast-decaying CF keeps the requested count
    g2 = default_grid(gaussian_exponent(), mean=0.3, std=1.7, n_points=4096)
    assert g2.n_points == 4096


def test_plan_reuse_matches_fresh_calls():
    # one plan applied to two exponents equals two one-shot inversions
    # exactly, and the term-by-term trapezoid sum to rounding
    p = EQUITY_PARAMS
    k = cumulants(p, 2)
    equity = lambda xi: psi_gts(xi, p)
    g = default_grid(equity, k[1], np.sqrt(k[2]), n_points=4096)
    plan = InversionPlan(g)
    for exponent in (equity, gaussian_exponent(mu=0.01, sigma=0.9)):
        pdf, mass = plan.pdf(np.exp(exponent(plan.xi_half)))
        d = invert_cf(exponent, g)
        assert np.array_equal(d.pdf, pdf)
        assert d.raw_mass == mass
        ref_pdf, ref_mass = direct_pdf(exponent, g)
        np.testing.assert_allclose(pdf, ref_pdf, rtol=0.0, atol=1e-12)
        assert mass == pytest.approx(ref_mass, abs=1e-12)


def test_plan_arrays_are_read_only():
    plan = InversionPlan(GridSpec(n_points=256))
    assert np.array_equal(plan.xi_half, half_frequencies(plan.grid))
    for arr in (plan.x, plan.xi_half, plan.bins, plan.sign, plan.to_x, plan.to_xi):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("n", [256, 4096])
def test_adjoint_is_the_transpose_of_raw(n):
    # c . raw(s) == Re(adjoint(c) . s) for real c and any half spectrum s, on
    # a grid whose x-range is not centred, so the shift phase is not trivial
    plan = InversionPlan(GridSpec(n_points=n, x_min=-3.0, x_max=7.5, xi_max=40.0))
    rng = np.random.default_rng(n)
    for _ in range(3):
        c = rng.standard_normal(n)
        s = rng.standard_normal(plan.xi_half.size) + 1j * rng.standard_normal(plan.xi_half.size)
        lhs = c @ plan.raw(s)
        assert np.real(plan.adjoint(c) @ s) == pytest.approx(lhs, rel=1e-12)


@st.composite
def grids_and_spectra(draw):
    """A grid whose top frequency index K runs from 0.05 N to 2.5 N (N = 2n),
    so that the fold mod N is absent, single or repeated, and a random half
    spectrum and real weight vector on it."""
    n = draw(st.sampled_from([256, 512]))
    x_min = draw(st.floats(-30.0, 10.0))
    width = draw(st.floats(0.5, 40.0))
    wraps = draw(st.floats(0.05, 2.5))  # K / N
    g = GridSpec(n, x_min, x_min + width, wraps * 2 * n * np.pi / width)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = half_frequencies(g).size
    return g, rng.standard_normal(size) + 1j * rng.standard_normal(size), \
        rng.standard_normal(n)


_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@_PROPERTY
@given(grids_and_spectra())
def test_raw_matches_direct_trapezoid_sum(case):
    g, s, _ = case
    ref = direct_raw(g, s)
    np.testing.assert_allclose(InversionPlan(g).raw(s), ref, rtol=0.0,
                               atol=1e-12 * np.abs(ref).max())


@_PROPERTY
@given(grids_and_spectra())
def test_adjoint_transposes_raw_with_folding(case):
    g, s, c = case
    plan = InversionPlan(g)
    raw, a = plan.raw(s), plan.adjoint(c)
    scale = max(np.abs(c) @ np.abs(raw), np.abs(a) @ np.abs(s))
    assert abs(c @ raw - np.real(a @ s)) <= 1e-13 * scale


def test_alias_free_points_floor_and_cap():
    assert alias_free_points(256, 10.0, 1.0) == 256
    n = alias_free_points(256, 200.0, 50.0)
    assert n == 8192  # smallest power-of-two multiple with pi (n-1)/200 >= 75
    assert np.pi * (n - 1) / 200.0 >= 75.0 > np.pi * (n // 2 - 1) / 200.0
    with pytest.raises(NormalizationError):
        alias_free_points(256, 1e7, 100.0)


def test_grid_inputs_checked_before_sizing():
    # GridSpec's rules reject a bad floor or cutoff before the doubling runs,
    # and the error names the cause rather than the 2^22 cap
    for n in (-4, 100, 128):
        with pytest.raises(ValueError, match="n_points"):
            alias_free_points(n, 10.0, 1.0)
    for xi_max in (0.0, -1.0):
        with pytest.raises(ValueError, match="xi_max must be > 0"):
            alias_free_points(256, xi_max, 1.0)
    for xi_max, width in ((np.inf, 1.0), (np.nan, 1.0), (10.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            alias_free_points(256, xi_max, width)
    with pytest.raises(ValueError, match="xi_max must be > 0"):
        default_grid(gaussian_exponent(), 0.0, 1.0, n_points=256, xi_max=-1.0)
    for bad in ((-np.inf, 1.0, 10.0), (0.0, np.inf, 10.0), (0.0, 1.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(256, *bad)


def test_grid_arrays_are_read_only():
    g = default_grid(gaussian_exponent(), mean=0.3, std=1.7, n_points=4096)
    d = invert_cf(gaussian_exponent(), g)
    with pytest.raises(ValueError):
        d.pdf[0] = 1.0
    with pytest.raises(ValueError):
        d.x[0] = 1.0
