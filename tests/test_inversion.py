"""Characteristic-function inversion: closed-form recovery, grid policy,
quantile interpolation, and the density -> CF round trip."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtsou import (
    CRYPTO_PARAMS,
    EQUITY_PARAMS,
    DensityGrid,
    GridSpec,
    NormalizationError,
    bdlp_exponent,
    cf_on_grid,
    cumulants,
    default_grid,
    default_xi_max,
    invert_cf,
    psi_gts,
    quantile,
)
from gtsou import inversion
from gtsou.frft import phase_mod2
from gtsou.inversion import InversionPlan, half_frequencies


def gaussian_exponent(mu=0.3, sigma=1.7):
    return lambda xi: 1j * mu * xi - 0.5 * (sigma * xi) ** 2


def gaussian_pdf(x, mu=0.3, sigma=1.7):
    return np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))


def direct_raw(g, s, nodes=None):
    """The trapezoid sum (dxi/2pi) sum_{|k| <= K} w_k s_k e^(-i k dxi x) on the
    x nodes (or on the node indices ``nodes``), term by term: w = 1/2 at
    |k| = K, dxi = pi/(n dx), K the first index with K dxi >= xi_max, and
    s_(-k) = conj(s_k)."""
    n = g.n_points
    nodes = np.arange(n) if nodes is None else np.asarray(nodes)
    dx = (g.x_max - g.x_min) / (n - 1)
    dxi = np.pi / (n * dx)
    k = np.arange(int(np.ceil(g.xi_max / dxi)) + 1)
    assert k[-1] * dxi >= g.xi_max > (k[-1] - 1) * dxi
    w = np.where(k == k[-1], 0.5, 1.0) * np.where(k > 0, 2.0, 1.0)
    out = np.empty(nodes.size)
    for part in np.array_split(np.arange(nodes.size), max(1, nodes.size * k.size // 2**20)):
        phase = np.exp(-1j * np.pi * (phase_mod2(g.x_min / (n * dx), k)
                                      + phase_mod2(1.0 / n, np.outer(nodes[part], k))))
        out[part] = dxi / (2.0 * np.pi) * np.real(phase @ (w * s))
    return out


def direct_pdf(exponent, g):
    """``direct_raw`` of the characteristic function, clipped and renormalized
    like ``invert_cf``, and the mass it was divided by."""
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
    with pytest.raises(ValueError):
        quantile(d, np.nan)
    with pytest.raises(ValueError):
        quantile(d, [0.5, np.nan])
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
    # PCHIP once, and it equals scipy's PCHIP through the same knots
    from scipy.interpolate import PchipInterpolator

    built = []

    class CountingPchip(inversion._Pchip):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(inversion, "_Pchip", CountingPchip)
    exponent = lambda xi: psi_gts(xi, EQUITY_PARAMS)
    k = cumulants(EQUITY_PARAMS, 2)
    d = invert_cf(exponent, default_grid(exponent, k[1], np.sqrt(k[2])))
    assert built == []

    keep = np.concatenate(([True], np.diff(d.cdf) > 1e-15))
    table = PchipInterpolator(d.cdf[keep], d.x[keep], extrapolate=False)
    u = np.random.default_rng(4).uniform(1e-9, 1.0 - 1e-9, 2001)
    expected = table(np.clip(u, table.x[0], table.x[-1]))
    assert np.array_equal(quantile(d, u), expected)
    assert np.array_equal(quantile(d, u[:7]), expected[:7])
    assert built == [1]


def _same_bits(a, b):
    """Equal as bit patterns: -0.0 differs from 0.0, and nan equals nan."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.fixture(scope="module")
def marginal_grids():
    """sample_marginal's density grids: both presets, both laws."""
    from gtsou import Marginal, marginal_exponent, stationary_moments

    grids = []
    for p in (EQUITY_PARAMS, CRYPTO_PARAMS):
        for law in (Marginal.GTS, Marginal.SD):
            exponent = marginal_exponent(p, law)
            sm = stationary_moments(p, law)
            grids.append(invert_cf(exponent, default_grid(exponent, sm.mean, sm.std_dev,
                                                          n_points=8192, span=20.0)))
    return grids


def test_quantile_is_scipy_pchip_bit_for_bit(marginal_grids):
    # the numpy PCHIP repeats scipy's arithmetic step for step: C8's seed 4
    # among the draws, every knot and both clamp ends
    from scipy.interpolate import PchipInterpolator

    from gtsou.ou import _open_uniform

    for d in marginal_grids:
        keep = np.concatenate(([True], np.diff(d.cdf) > 1e-15))
        ref = PchipInterpolator(d.cdf[keep], d.x[keep], extrapolate=False)
        knots = ref.x
        assert _same_bits(d.quantile_table.x, knots)
        assert _same_bits(d.quantile_table(knots), ref(knots))
        for seed in (0, 1, 4):
            u = _open_uniform(np.random.default_rng(seed), 10000)
            assert _same_bits(quantile(d, u), ref(np.clip(u, knots[0], knots[-1])))
        assert _same_bits(quantile(d, knots[1:-1]), ref(knots[1:-1]))
        for end in (5e-324, np.nextafter(1.0, 0.0)):  # the clamp ends, as scalars
            assert _same_bits(quantile(d, end), ref(np.clip(end, knots[0], knots[-1])))


def test_pdf_at_is_scipy_pchip_bit_for_bit(marginal_grids):
    # at the grid points, between them, outside the grid (0) and at nan (0)
    from scipy.interpolate import PchipInterpolator

    for d in marginal_grids:
        ref = PchipInterpolator(d.x, d.pdf, extrapolate=False)
        dx = d.x[1] - d.x[0]
        v = np.concatenate([d.x, 0.5 * (d.x[1:] + d.x[:-1]), d.x[:-1] + 0.3 * dx,
                            [d.x[0] - dx, d.x[-1] + dx, -np.inf, np.inf, np.nan]])
        expected = np.nan_to_num(ref(v), nan=0.0, posinf=0.0, neginf=0.0)
        assert _same_bits(d.pdf_at(v), expected)
        assert np.all(d.pdf_at(v[-5:]) == 0.0)
        assert _same_bits(d.pdf_at(v[7]), expected[7])


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
    with pytest.raises(NormalizationError, match="no usable frequency cutoff below 1e"):
        default_xi_max(slow)


def _step_by_step_xi_max(exponent):
    """default_xi_max's cutoff by one scalar probe per step: doubling from 1,
    then at most 60 bisection steps, stopping once the midpoint rounds."""
    tail = np.log(1e-12)
    lo, hi = 0.0, 1.0
    while np.real(exponent(hi)) > tail:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if np.real(exponent(mid)) > tail:
            lo = mid
        else:
            hi = mid
    return hi


def _laws():
    from gtsou import Marginal, OuConfig, increment_exponent, sd_exponent
    for name, p in (("equity", EQUITY_PARAMS), ("crypto", CRYPTO_PARAMS)):
        yield f"gts-{name}", lambda x, p=p: psi_gts(x, p)
        yield f"sd-{name}", lambda x, p=p: sd_exponent(x, p)
        yield f"bdlp-{name}", lambda x, p=p: bdlp_exponent(x, p)
        for mode in Marginal:
            for lam in (0.1, 1.0):
                c = OuConfig(lambda_rate=lam, dt=1.0, mode=mode)
                yield (f"increment-{mode.value}-{lam}-{name}",
                       lambda x, p=p, c=c: increment_exponent(x, p, c))
    # cutoffs below 1, where the 60-step cap ends the bisection
    for sigma in (1.7, 40.0, 1e4):
        yield f"gaussian-{sigma}", gaussian_exponent(sigma=sigma)


@pytest.mark.parametrize("exponent", [f for _, f in _laws()], ids=[n for n, _ in _laws()])
def test_default_xi_max_matches_step_by_step_bisection(exponent):
    calls = []

    def counted(xi):
        calls.append(np.size(xi))
        return exponent(xi)

    assert default_xi_max(counted) == _step_by_step_xi_max(exponent)
    assert len(calls) <= 11 and calls[0] == 24


def test_default_grid_keeps_the_point_count():
    # a slowly decaying CF (cutoff ~2.8e3) over a wide window has K ~ 2.6e5
    # frequency nodes, far past 2n: the grid still has exactly the points asked
    slow = lambda xi: -0.01 * np.abs(np.asarray(xi, dtype=complex))
    for n in (256, 4096):
        g = default_grid(slow, mean=0.0, std=10.0, n_points=n)
        assert g.n_points == n and half_frequencies(g).size > 2 * 2 * n
        assert default_grid(gaussian_exponent(), mean=0.3, std=1.7, n_points=n).n_points == n


def test_folded_table_matches_direct_trapezoid_sum():
    # the crypto BDLP table at the default 16384 points has K = 52444 > 2n
    # frequency nodes, so most of them fold; at 64 nodes across the window its
    # pdf equals the term-by-term trapezoid sum, clipped and renormalized
    p = CRYPTO_PARAMS
    k = cumulants(p, 2)
    bdlp = lambda xi: bdlp_exponent(xi, p)
    g = default_grid(bdlp, k[1], np.sqrt(2.0 * k[2]))
    assert g.n_points == 16384 and half_frequencies(g).size - 1 > 2 * g.n_points
    d = invert_cf(bdlp, g)
    nodes = np.linspace(0, g.n_points - 1, 64).round().astype(int)
    ref = np.maximum(direct_raw(g, np.exp(bdlp(half_frequencies(g))), nodes), 0.0)
    np.testing.assert_allclose(d.pdf[nodes], ref / d.raw_mass, rtol=0.0, atol=1e-12)
    assert d.pdf[nodes].max() > 0.01  # the nodes reach the bulk, not only the tails


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
        assert np.array_equal(d.pdf, pdf / mass)
        assert d.raw_mass == mass
        ref_pdf, ref_mass = direct_pdf(exponent, g)
        np.testing.assert_allclose(pdf / mass, ref_pdf, rtol=0.0, atol=1e-12)
        assert mass == pytest.approx(ref_mass, abs=1e-12)
    # invert_cf folds the crypto BDLP law's K = 52444 nodes in 13 blocks of
    # 4096, and still equals the plan's one fold of every node bit for bit
    p = CRYPTO_PARAMS
    k = cumulants(p, 2)
    bdlp = lambda xi: bdlp_exponent(xi, p)
    plan = InversionPlan(default_grid(bdlp, k[1], np.sqrt(2.0 * k[2])))
    assert plan.grid.n_points == 16384 and plan.xi_half.size - 1 == 52444
    pdf, mass = plan.pdf(np.exp(bdlp(plan.xi_half)))
    d = invert_cf(bdlp, plan.grid)
    assert np.array_equal(d.pdf, pdf / mass)
    assert d.raw_mass == mass


@pytest.mark.parametrize("preset, law, variance, n, calls", [
    # the BDLP's variance is twice the GTS law's
    (CRYPTO_PARAMS, bdlp_exponent, 2.0, 16384, 13),  # K = 52444: 12 blocks of 4096 and 3293
    (EQUITY_PARAMS, psi_gts, 1.0, 1024, 2),  # K = 1334: blocks of n = 1024 nodes
    (EQUITY_PARAMS, psi_gts, 1.0, 16384, 1),  # K = 1333: one block
])
def test_invert_cf_calls_the_exponent_on_blocks_of_nodes(preset, law, variance, n, calls):
    # each call gets at most min(n, 4096) frequencies, and the calls cover the
    # nodes 0..K once, in order
    k = cumulants(preset, 2)
    g = default_grid(lambda xi: law(xi, preset), k[1], np.sqrt(variance * k[2]), n_points=n)
    seen = []

    def recording(xi):
        seen.append(np.array(xi))
        return law(xi, preset)

    invert_cf(recording, g)
    assert len(seen) == calls
    assert max(xi.size for xi in seen) <= min(n, 4096)
    assert np.array_equal(np.concatenate(seen), half_frequencies(g))


def test_invert_cf_memory_does_not_grow_with_the_cutoff():
    # equity with beta+- = 0.15 has K = 818297 frequency nodes on its default
    # grid; holding them all at once took about 98 MB
    p = EQUITY_PARAMS.replace(beta_plus=0.15, beta_minus=0.15)
    k = cumulants(p, 2)
    exponent = lambda xi: psi_gts(xi, p)
    g = default_grid(exponent, k[1], np.sqrt(k[2]))
    assert half_frequencies(g).size - 1 == 818297
    tracemalloc.start()
    try:
        invert_cf(exponent, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


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


@_PROPERTY
@given(grids_and_spectra(), st.floats(0.1, 3.0))
def test_blocked_fold_equals_the_plan_bit_for_bit(case, freq):
    # blocks of n nodes, one per half-period of the fold, land on ascending
    # and on descending runs of bins, and the last is mostly partial
    g = case[0]
    exponent = lambda xi: np.cos(freq * xi) + 1j * np.sin(3.0 * freq * xi)
    plan = InversionPlan(g)
    assert np.array_equal(inversion._raw_in_blocks(exponent, g),
                          plan.raw(np.exp(exponent(plan.xi_half))))


@st.composite
def grids_and_stacks(draw):
    """A grid whose top frequency index K runs from 0.05 n to 2.5 n, so that
    the fold is absent, mirrors nodes past n or wraps them past 2n, and a
    stack of r random half spectra on it."""
    n = draw(st.sampled_from([256, 512]))
    x_min = draw(st.floats(-30.0, 10.0))
    width = draw(st.floats(0.5, 40.0))
    ratio = draw(st.floats(0.05, 2.5))  # K / n
    g = GridSpec(n, x_min, x_min + width, ratio * n * np.pi / width)
    r = draw(st.sampled_from([1, 3, 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (r, half_frequencies(g).size)
    return g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@_PROPERTY
@given(grids_and_stacks())
def test_raw_of_a_stack_equals_its_rows_bit_for_bit(case):
    g, stack = case
    plan = InversionPlan(g)
    rows = plan.raw(stack)
    assert rows.shape == (stack.shape[0], g.n_points)
    assert np.array_equal(rows, np.array([plan.raw(s) for s in stack]))
    assert plan.raw(stack[0]).shape == (g.n_points,)


def test_grid_spec_refuses_too_many_frequency_nodes():
    # K = ceil(xi_max / dxi) is checked at construction, before any array
    # exists: 2^21 nodes are accepted, one more is refused with K named
    with pytest.raises(NormalizationError, match=r"K = \d+ frequency nodes"):
        GridSpec(256, 0.0, 100.0, 1e7)
    dxi = np.pi * 255 / (256 * 100.0)
    assert half_frequencies(GridSpec(256, 0.0, 100.0, (2**21 - 0.5) * dxi)).size == 2**21 + 1
    with pytest.raises(NormalizationError, match=f"K = {2**21 + 1} "):
        GridSpec(256, 0.0, 100.0, (2**21 + 0.5) * dxi)


def test_grid_inputs_checked_before_sizing():
    # GridSpec's rules reject a bad count or cutoff before the node count is
    # worked out, and the error names the cause rather than the node limit
    for n in (-4, 100, 128):
        with pytest.raises(ValueError, match="n_points"):
            GridSpec(n, 0.0, 1.0, 10.0)
    for xi_max in (0.0, -1.0):
        with pytest.raises(ValueError, match="xi_max must be > 0"):
            GridSpec(256, 0.0, 1.0, xi_max)
    for xi_max, width in ((np.inf, 1.0), (np.nan, 1.0), (10.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(256, 0.0, width, xi_max)
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
