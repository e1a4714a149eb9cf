"""MLE machinery: eigenvalue extraction, likelihood evaluation, the analytic
score and Hessian, and the trust-region Newton fit."""

import numpy as np
import pytest

from gtsou import (
    CRYPTO_PARAMS,
    EQUITY_PARAMS,
    GtsParams,
    Marginal,
    fit,
    fit_grid,
    log_likelihood,
    max_eigenvalue,
    moment_matched_init,
    sample_marginal,
    score_and_hessian,
    trace_rows,
)
from gtsou import estimation
from gtsou.estimation import TRACE_COLUMNS
from gtsou.inversion import GridSpec, InversionPlan, NormalizationError


# --- max_eigenvalue ---------------------------------------------------------

def test_max_eigenvalue_diagonal():
    assert max_eigenvalue(np.diag([-1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0])) == -1.0
    assert max_eigenvalue(np.eye(4)) == 1.0


def test_max_eigenvalue_2x2_closed_form():
    # eigenvalues of [[a, b], [b, c]]: (a+c)/2 +- sqrt(((a-c)/2)^2 + b^2)
    m = np.array([[2.0, 1.5], [1.5, -1.0]])
    expected = 0.5 + np.sqrt(1.5**2 + 1.5**2)
    assert max_eigenvalue(m) == pytest.approx(expected, rel=1e-12)


def test_max_eigenvalue_random_symmetric():
    rng = np.random.default_rng(12)
    for n in (3, 7, 12):
        a = rng.standard_normal((n, n))
        sym = 0.5 * (a + a.T)
        assert max_eigenvalue(sym) == pytest.approx(
            float(np.linalg.eigvalsh(sym)[-1]), rel=1e-10, abs=1e-10)


def test_max_eigenvalue_tiny_offdiagonal():
    # a denormal off-diagonal entry must raise no overflow, invalid or
    # divide-by-zero error in the eigensolver (underflow is benign)
    m = np.diag([3.0, 1.0])
    m[0, 1] = m[1, 0] = 5e-320
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert max_eigenvalue(m) == pytest.approx(3.0, rel=1e-12)


def test_max_eigenvalue_rejects_bad_input():
    with pytest.raises(ValueError):
        max_eigenvalue(np.ones((2, 3)))
    with pytest.raises(ValueError):
        max_eigenvalue(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # antisymmetric


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_max_eigenvalue_names_a_non_finite_matrix(entry):
    m = np.diag([-1.0, -2.0])
    m[0, 1] = m[1, 0] = entry
    with pytest.raises(ValueError, match="not finite"):
        max_eigenvalue(m)


# --- likelihood -------------------------------------------------------------

@pytest.fixture(scope="module")
def equity_sample():
    data = sample_marginal(EQUITY_PARAMS, Marginal.GTS, 2000, np.random.default_rng(14))
    g = fit_grid(data, EQUITY_PARAMS, n_points=8192)
    return data, g


@pytest.fixture(scope="module")
def crypto_sample():
    data = sample_marginal(CRYPTO_PARAMS, Marginal.GTS, 2000, np.random.default_rng(16))
    g = fit_grid(data, CRYPTO_PARAMS, n_points=8192)
    return data, g


@pytest.mark.parametrize("sample, p", [("equity_sample", EQUITY_PARAMS),
                                       ("crypto_sample", CRYPTO_PARAMS)])
def test_score_and_hessian_match_central_differences(sample, p, request):
    # the analytic score and Hessian differentiate the very objective the
    # fit evaluates: central differences of log_likelihood converge
    # to them (O(h^2); the beta steps need h ~ 1e-5 relative for 1e-5)
    data, g = request.getfixturevalue(sample)
    plan = InversionPlan(g)
    grad, hess = score_and_hessian(data, p, plan)
    v0 = p.as_vector()
    e = np.eye(v0.size)

    def ll(v):
        return log_likelihood(data, GtsParams.from_vector(v), plan)

    h = 1e-5 * np.maximum(np.abs(v0), 1e-2)
    fd_grad = np.array([(ll(v0 + h[j] * e[j]) - ll(v0 - h[j] * e[j])) / (2.0 * h[j])
                        for j in range(v0.size)])
    np.testing.assert_allclose(grad, fd_grad, rtol=1e-5)

    h = 1e-3 * np.maximum(np.abs(v0), 1e-2)
    fd_hess = np.empty_like(hess)
    for j in range(v0.size):
        for k in range(j, v0.size):
            dj, dk = h[j] * e[j], h[k] * e[k]
            fd_hess[j, k] = fd_hess[k, j] = (
                ll(v0 + dj + dk) - ll(v0 + dj - dk) - ll(v0 - dj + dk)
                + ll(v0 - dj - dk)) / (4.0 * h[j] * h[k])
    assert np.linalg.norm(hess - fd_hess) <= 1e-3 * np.linalg.norm(fd_hess)
    assert np.array_equal(hess, hess.T)


# --- the per-call stencil route, kept as the reference ---------------------

def per_call_stencil(plan, data):
    """Indices and weights, each (len(data), 4), of the cubic Lagrange
    stencil, rebuilt on every evaluation: the route the fit's one
    ``_Stencil`` replaced."""
    t = (data - plan.grid.x_min) / plan.dx
    start = np.clip(np.floor(t).astype(int) - 1, 0, plan.x.size - 4)
    t = t - (start + 1)
    w = np.stack([-t * (t - 1.0) * (t - 2.0) / 6.0,
                  (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
                  -(t + 1.0) * t * (t - 2.0) / 2.0,
                  (t + 1.0) * t * (t - 1.0) / 6.0], axis=1)
    return start[:, None] + np.arange(4), w


def per_call_density(data, p, g):
    """(plan, cf, pdf, (idx, w), f at the data), each row reduced by
    ``np.sum(row[idx] * w, axis=1)``."""
    from gtsou.exponents import psi_gts

    plan = estimation._plan_for(data, g)
    cf = np.exp(psi_gts(plan.xi_half, p))
    pdf = plan.pdf(cf)[0]
    idx, w = per_call_stencil(plan, data)
    return plan, cf, pdf, (idx, w), np.sum(pdf[idx] * w, axis=1)


def per_call_score_and_hessian(density, p):
    """The score and Hessian from a ``per_call_density`` result, with the
    floored observations always gathered out."""
    from gtsou.estimation import PDF_FLOOR
    from gtsou.exponents import psi_gts_derivatives

    plan, cf, pdf, (idx, w), f = density
    live = f > PDF_FLOOR
    idx, w, f = idx[live], w[live], f[live]
    keep = pdf > 0.0
    first, second = psi_gts_derivatives(plan.xi_half, p)
    du = np.array([np.sum(np.where(keep, plan.raw(d * cf), 0.0)[idx] * w, axis=1)
                   for d in first]) / f
    c = np.bincount(idx.ravel(), (w / f[:, None]).ravel(), minlength=plan.x.size)
    a = plan.adjoint(np.where(keep, c, 0.0)) * cf
    d2 = np.real((first * a) @ first.T)
    for (j, k), s in second.items():
        d2[j, k] += np.real(a @ s)
    hess = d2 - du @ du.T
    return du.sum(axis=1), np.triu(hess) + np.triu(hess, 1).T


def streamed_score_and_hessian(data, p, g):
    """Reference score and Hessian that inverts every one of the 7 + 28
    differentiated spectra through ``InversionPlan.raw``, one at a time."""
    from gtsou.estimation import PDF_FLOOR
    from gtsou.exponents import psi_gts_derivatives

    plan, cf, pdf, (idx, w), f = per_call_density(data, p, g)
    live = f > PDF_FLOOR
    idx, w, f = idx[live], w[live], f[live]
    keep = pdf > 0.0
    first, second = psi_gts_derivatives(plan.xi_half, p)

    def row(spectrum):
        dq = np.where(keep, plan.raw(spectrum), 0.0)
        return np.sum(dq[idx] * w, axis=1) / f

    n_par = first.shape[0]
    du = np.array([row(first[j] * cf) for j in range(n_par)])
    grad = du.sum(axis=1)
    hess = np.empty((n_par, n_par))
    for j in range(n_par):
        for k in range(j, n_par):
            spectrum = first[j] * first[k]
            if (j, k) in second:
                spectrum += second[j, k]
            hess[j, k] = hess[k, j] = row(spectrum * cf).sum() - du[j] @ du[k]
    return grad, hess, live


@pytest.mark.parametrize("sample, p, outlier", [
    ("equity_sample", EQUITY_PARAMS, None),
    ("crypto_sample", CRYPTO_PARAMS, None),
    # far enough out that the grid density at all four stencil nodes is
    # clipped ringing: the observation sits on the 1e-300 floor and drops out
    # of both functionals
    ("equity_sample", EQUITY_PARAMS, 53.0),
])
def test_adjoint_hessian_matches_streamed_rows(sample, p, outlier, request):
    data, g = request.getfixturevalue(sample)
    if outlier is not None:
        data = np.append(data, [outlier])
    plan = InversionPlan(g)
    grad, hess = score_and_hessian(data, p, plan)
    ref_grad, ref_hess, live = streamed_score_and_hessian(data, p, plan)
    assert live.all() == (outlier is None)
    assert np.array_equal(grad, ref_grad)
    assert np.linalg.norm(hess - ref_hess) <= 1e-12 * np.linalg.norm(ref_hess)
    assert np.array_equal(hess, hess.T)


def _count_transforms(monkeypatch) -> list:
    """The names of the np.fft calls made from here on, with the number of
    rows each transforms."""
    calls = []
    for name in ("irfft", "rfft"):
        original = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda a, *args, f=original, name=name, **kw:
                            calls.append((name, np.shape(a)[0] if np.ndim(a) > 1 else 1))
                            or f(a, *args, **kw))
    return calls


def test_score_and_hessian_runs_three_transforms(equity_sample, monkeypatch):
    # the density (irfft), one irfft over the stack of 7 first-derivative
    # rows, and one adjoint (rfft) for the whole Hessian
    data, g = equity_sample
    plan = InversionPlan(g)
    calls = _count_transforms(monkeypatch)
    score_and_hessian(data, EQUITY_PARAMS, plan)
    assert calls == [("irfft", 1), ("irfft", 7), ("rfft", 1)]


def test_c8_fit_transform_calls(c8_sample, monkeypatch):
    # C8's whole fit: one irfft per evaluated point (fit_grid's 3 probes
    # included), and one 7-row irfft and one rfft per accepted state; with
    # the rows inverted one at a time the same fit made 157 irfft calls
    data, init = c8_sample
    calls = _count_transforms(monkeypatch)
    points = []
    real = estimation._density_at_data
    monkeypatch.setattr(estimation, "_density_at_data",
                        lambda stencil, p: points.append(p) or real(stencil, p))
    trace = fit(data, init, grad_tol=1e-3)
    assert calls.count(("irfft", 1)) == len(points) == 24
    assert calls.count(("irfft", 7)) == calls.count(("rfft", 1)) == len(trace.states) == 19
    assert len(calls) == 24 + 2 * 19


def test_log_likelihood_plan_reuse_is_bit_identical():
    # C8's sample and start: one plan reused over the start and 14 points one
    # relative offset away along each coordinate gives exactly the GridSpec
    # path's values
    data = sample_marginal(EQUITY_PARAMS, Marginal.GTS, 5000, np.random.default_rng(4))
    init = moment_matched_init(data)
    g = fit_grid(data, init)
    plan = InversionPlan(g)
    v0 = init.as_vector()
    h = 1e-4 * np.maximum(np.abs(v0), 1e-2)
    points = [v0]
    for j in range(v0.size):
        for sign in (+1.0, -1.0):
            v = v0.copy()
            v[j] += sign * h[j]
            points.append(v)
    assert len(points) == 15
    for v in points:
        p = GtsParams.from_vector(v)
        assert log_likelihood(data, p, plan) == log_likelihood(data, p, g)


def test_log_likelihood_plan_expands_range_for_outliers(equity_sample):
    data, g = equity_sample
    widened = np.append(data, [g.x_max + 10.0])
    assert log_likelihood(widened, EQUITY_PARAMS, InversionPlan(g)) == \
        log_likelihood(widened, EQUITY_PARAMS, g)


def test_fit_grid_pins_a_given_count(equity_sample):
    # a given count is kept, even 256 points, whose Nyquist frequency
    # pi (n-1)/width (~24) is far below the cutoff (~287)
    data, _ = equity_sample
    for n in (256, 8192):
        assert fit_grid(data, EQUITY_PARAMS, n_points=n).n_points == n


def test_fit_grid_checks_the_floor_first(equity_sample):
    # a given count obeys GridSpec's rule
    data, _ = equity_sample
    for n in (-4, 128):
        with pytest.raises(ValueError, match="n_points"):
            fit_grid(data, EQUITY_PARAMS, n_points=n)


@pytest.fixture(scope="module")
def c8_sample():
    data = sample_marginal(EQUITY_PARAMS, Marginal.GTS, 5000, np.random.default_rng(4))
    return data, moment_matched_init(data)


def test_fit_grid_budget_on_c8(c8_sample):
    # the first candidate, the first count whose Nyquist frequency reaches
    # 1.5x the cutoff, is 4096; the stencil's error estimate there is 2.5e-5,
    # above the budget, and 1.6e-6 at 8192, within it
    data, init = c8_sample
    g = fit_grid(data, init)
    assert g.n_points == 8192
    assert fit_grid(data, init, n_points=256).n_points == 256
    # only the count is budgeted: range and cutoff are those of a given count
    assert g == fit_grid(data, init, n_points=8192)
    f = {n: estimation._density_at_data(
             estimation._stencil(data, GridSpec(n, g.x_min, g.x_max, g.xi_max)), init)[-1]
         for n in (4096, 8192, 16384)}
    assert estimation._stencil_ll_error(f[4096], f[8192]) > estimation._STENCIL_LL_TOL
    assert estimation._stencil_ll_error(f[8192], f[16384]) <= estimation._STENCIL_LL_TOL


def test_fit_builds_one_stencil(c8_sample, monkeypatch):
    # C8's recipe on a given grid: the fit builds its interpolation stencil
    # once (the per-call route built one per evaluation, 22 here), and the
    # public likelihood, score and Hessian at the start equal the fit's
    # first state exactly
    data, init = c8_sample
    g = fit_grid(data, init)
    built = []
    original = estimation._stencil
    monkeypatch.setattr(estimation, "_stencil",
                        lambda d, grid: built.append(grid) or original(d, grid))
    trace = fit(data, init, grad_tol=1e-3, g=g)
    assert built == [g]
    assert trace.reason == "GradientTol" and len(trace.states) > 1
    monkeypatch.undo()
    start = trace.states[0]
    grad, hess = score_and_hessian(data, init, g)
    assert log_likelihood(data, init, g) == start.log_likelihood
    assert np.array_equal(grad, start.gradient)
    assert np.array_equal(hess, start.hessian)


@pytest.mark.parametrize("grad_tol", [1e-3, 1e-4])
def test_fit_matches_the_per_call_stencil_route(c8_sample, monkeypatch, grad_tol):
    # the same trust-region loop on the per-call route (a fresh (m, 4)
    # stencil per evaluation and np.sum over its axis of 4) visits the same
    # states, bit for bit
    data, init = c8_sample
    trace = fit(data, init, grad_tol=grad_tol)
    monkeypatch.setattr(estimation, "_density_at_data",
                        lambda stencil, p: per_call_density(data, p, stencil.plan))
    monkeypatch.setattr(estimation, "_score_and_hessian", per_call_score_and_hessian)
    reference = fit(data, init, grad_tol=grad_tol)
    assert (trace.reason, trace.grid) == (reference.reason, reference.grid)
    assert len(trace.states) == len(reference.states) > 10
    for got, ref in zip(trace.states, reference.states):
        assert got.params == ref.params
        assert got.log_likelihood == ref.log_likelihood
        assert got.gradient.tobytes() == ref.gradient.tobytes()
        assert got.hessian.tobytes() == ref.hessian.tobytes()


def test_fit_on_the_budgeted_grid_matches_16384_points(c8_sample):
    # the budget's gate: C8's fit on its 8192-point grid reaches the optimum
    # of a 16384-point grid
    data, init = c8_sample
    budgeted = fit(data, init, grad_tol=1e-3)
    fine = fit(data, init, grad_tol=1e-3, g=fit_grid(data, init, n_points=16384))
    assert budgeted.grid.n_points == 8192 and fine.grid.n_points == 16384
    assert budgeted.reason == fine.reason == "GradientTol"
    assert budgeted.final.log_likelihood == pytest.approx(fine.final.log_likelihood,
                                                          rel=0.0, abs=1e-6)
    np.testing.assert_allclose(budgeted.final.params.as_vector(),
                               fine.final.params.as_vector(), rtol=1e-5)


@pytest.mark.parametrize("p", [EQUITY_PARAMS, CRYPTO_PARAMS], ids=["equity", "crypto"])
def test_fit_grid_likelihood_matches_a_reference_grid(p):
    # C8's recipe: on its fit grid the likelihood is within 1e-6 of one on 8x
    # the points over a 4x-wider window at twice the cutoff, at the start and
    # at the truth (at most 5.7e-7).  Renormalizing the density by the
    # window's mass raised it by 3.4e-4 to 1.6e-3 here
    data = sample_marginal(p, Marginal.GTS, 5000, np.random.default_rng(4))
    init = moment_matched_init(data)
    g = fit_grid(data, init)
    mid, half = 0.5 * (g.x_min + g.x_max), 2.0 * (g.x_max - g.x_min)
    ref = GridSpec(8 * g.n_points, mid - half, mid + half, 2.0 * g.xi_max)
    for q in (init, p):
        assert log_likelihood(data, q, g) == pytest.approx(
            log_likelihood(data, q, ref), rel=0.0, abs=1e-6)


def test_fit_grid_refuses_past_the_cap(c8_sample, monkeypatch):
    # a budget no grid meets: the doubling stops at the cap, builds no grid
    # beyond it, and names the cause
    data, init = c8_sample
    monkeypatch.setattr(estimation, "_STENCIL_LL_TOL", 0.0)
    monkeypatch.setattr(estimation, "_FIT_GRID_CAP", 2**14)
    original = estimation._density_at_data
    built = []

    def spy(stencil, p):
        built.append(stencil.plan.grid.n_points)
        return original(stencil, p)

    monkeypatch.setattr(estimation, "_density_at_data", spy)
    with pytest.raises(NormalizationError, match="stencil's log-likelihood error"):
        fit_grid(data, init)
    assert built == [4096, 8192, 16384]
    with pytest.raises(NormalizationError, match="16384"):
        fit(data, init)


def test_fit_reuses_the_stencil_fit_grid_chose(c8_sample, monkeypatch):
    # with no grid given, the fit takes the plan, stencil and start density
    # that fit_grid built on the grid it chose, and builds no stencil itself
    data, init = c8_sample
    real, built = estimation._stencil, []
    monkeypatch.setattr(estimation, "_stencil",
                        lambda data, g: built.append(g.n_points) or real(data, g))
    fit_grid(data, init)
    probes, built[:] = list(built), []
    trace = fit(data, init, grad_tol=1e-3, max_iter=0)
    assert built == probes == [4096, 8192, 16384]
    assert trace.grid.n_points == 8192


def test_log_likelihood_permutation_invariant(equity_sample):
    data, g = equity_sample
    shuffled = np.random.default_rng(15).permutation(data)
    assert log_likelihood(shuffled, EQUITY_PARAMS, g) == pytest.approx(
        log_likelihood(data, EQUITY_PARAMS, g), rel=1e-14)


def test_log_likelihood_matches_entropy(equity_sample):
    # mean log f under the true law estimates -H = int f log f; the sample
    # average must sit within 3 standard errors of the quadrature value
    from gtsou import default_grid, invert_cf, psi_gts, cumulants

    data, g = equity_sample
    p = EQUITY_PARAMS
    k = cumulants(p, 2)
    d = invert_cf(lambda xi: psi_gts(xi, p),
                  default_grid(lambda xi: psi_gts(xi, p), k[1], np.sqrt(k[2])))
    mask = d.pdf > 0.0
    neg_h = np.trapezoid(d.pdf[mask] * np.log(d.pdf[mask]), d.x[mask])

    logf = np.log(np.maximum(d.pdf_at(data), 1e-300))
    se = logf.std(ddof=1) / np.sqrt(len(data))
    ll = log_likelihood(data, p, g)
    assert ll / len(data) == pytest.approx(neg_h, abs=3.0 * se + 1e-4)


def test_log_likelihood_expands_range_for_outliers(equity_sample):
    data, g = equity_sample
    widened = np.append(data, [g.x_max + 10.0])
    val = log_likelihood(widened, EQUITY_PARAMS, g)
    assert np.isfinite(val)


def test_log_likelihood_raises_on_non_finite_mass():
    # alpha_plus = 1e308 overflows the exponent to NaN; the likelihood must
    # name the cause rather than return nan
    p = GtsParams(0.0, 0.5, 0.5, 1e308, 0.0, 1e300, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NormalizationError, match="not finite"):
            log_likelihood(np.linspace(-1.0, 1.0, 50), p, GridSpec(1024, -5.0, 5.0, 50.0))


def test_log_likelihood_raises_on_mass_short_of_one():
    # the likelihood does not divide by the density's mass, but still refuses
    # a window that leaves out this much of it (the mass is 0.777142)
    with pytest.raises(NormalizationError, match="deviates from 1 by more than 1e-3"):
        log_likelihood(np.linspace(-0.5, 0.5, 50), EQUITY_PARAMS,
                       GridSpec(1024, -1.0, 1.0, 50.0))


def test_log_likelihood_input_validation(equity_sample):
    data, g = equity_sample
    with pytest.raises(ValueError):
        log_likelihood(np.array([]), EQUITY_PARAMS, g)
    with pytest.raises(ValueError):
        log_likelihood(np.array([0.1, np.nan]), EQUITY_PARAMS, g)
    degenerate = EQUITY_PARAMS.replace(alpha_plus=0.0, alpha_minus=0.0)
    with pytest.raises(ValueError):
        log_likelihood(data, degenerate, g)


# --- trust-region step -------------------------------------------------------

def _model_max(g, h, radius):
    """max of g.p + p.h.p/2 over |p| <= radius, by strong duality: the minimum
    over s >= max(0, top eigenvalue) of the convex g.(sI - h)^-1 g/2 +
    s radius^2/2, found by bisection on its slope (radius^2 - |p(s)|^2)/2."""
    lam, q = np.linalg.eigh(h)
    gq2 = (q.T @ g) ** 2
    if lam[-1] < 0.0 and np.sum(gq2 / lam**2) <= radius**2:
        return 0.5 * np.sum(gq2 / -lam)
    lo = max(0.0, lam[-1])
    hi = lo + np.sqrt(gq2.sum()) / radius
    while lo < (s := 0.5 * (lo + hi)) < hi:
        lo, hi = (s, hi) if np.sum(gq2 / (s - lam) ** 2) > radius**2 else (lo, s)
    return 0.5 * np.sum(gq2 / (hi - lam)) + 0.5 * hi * radius**2


def _random_problem(rng, kind):
    """(g, h, radius) of a 7x7 step: eigenvalues over five decades, and in
    the hard case g orthogonal to the top eigenvector, with a radius that
    no step p(s), s > top eigenvalue, reaches."""
    q = np.linalg.qr(rng.standard_normal((7, 7)))[0]
    lam = np.sort(rng.standard_normal(7) * 10.0 ** rng.uniform(-2.0, 3.0, 7))
    if kind == "negative definite":
        lam = np.sort(-np.abs(lam))
    c = rng.standard_normal(7) * 10.0 ** rng.uniform(-3.0, 2.0, 7)
    radius = 10.0 ** rng.uniform(-3.0, 2.0)
    if kind == "hard":
        lam[-1] = abs(lam[-1]) + 0.1 * np.ptp(lam)
        c[-1] = 0.0
        radius = np.linalg.norm(c[:-1] / (lam[-1] - lam[:-1])) * rng.uniform(1.2, 10.0)
    return q @ c, (q * lam) @ q.T, radius


@pytest.mark.parametrize("kind", ["negative definite", "indefinite", "hard"])
def test_trust_step_nearly_maximises_the_model(kind):
    rng = np.random.default_rng(["negative definite", "indefinite", "hard"].index(kind))
    worst = np.inf
    for _ in range(300):
        g, h, radius = _random_problem(rng, kind)
        p, _ = estimation._trust_step(g, h, radius)
        assert np.linalg.norm(p) <= 1.1 * radius
        worst = min(worst, (g @ p + 0.5 * p @ h @ p) / _model_max(g, h, radius))
    assert worst >= 0.8


def test_trust_step_takes_a_fitting_newton_step():
    h = -np.diag([1.0, 2.0, 4.0])
    g = np.array([1.0, -1.0, 2.0])
    p, on_boundary = estimation._trust_step(g, h, 10.0)
    assert not on_boundary
    np.testing.assert_allclose(p, np.linalg.solve(-h, g), rtol=1e-15)


# --- fit loop ----------------------------------------------------------------

@pytest.fixture(scope="module")
def compact_fit():
    data = sample_marginal(EQUITY_PARAMS, Marginal.GTS, 600, np.random.default_rng(23))
    init = moment_matched_init(data)
    g = fit_grid(data, init, n_points=4096)
    trace = fit(data, init, grad_tol=1e-2, max_iter=120, g=g)
    return data, g, trace


def test_fit_converges(compact_fit):
    data, g, trace = compact_fit
    assert trace.converged
    assert trace.reason == "GradientTol"
    final = trace.final
    assert final.gradient_norm <= 1e-2
    assert final.max_eigenvalue <= 0.0
    final.params.validate()


def test_fit_likelihood_is_monotone(compact_fit):
    _, _, trace = compact_fit
    ll = [s.log_likelihood for s in trace.states]
    assert all(b >= a for a, b in zip(ll, ll[1:]))


def test_fit_trace_rows_layout(compact_fit):
    _, _, trace = compact_fit
    rows = trace_rows(trace)
    assert len(rows) == len(trace.states)
    assert all(len(r) == len(TRACE_COLUMNS) for r in rows)
    assert [r[0] for r in rows] == list(range(len(rows)))
    # column order: iteration, the seven parameters, then the diagnostics
    assert TRACE_COLUMNS[0] == "Iterations"
    assert TRACE_COLUMNS[-2:] == ("||dLog(ML)/dV||", "Max Eigen Value")
    assert TRACE_COLUMNS[-3] == "Log(ML)"


def test_fit_scores_only_rising_points(compact_fit, monkeypatch):
    # a proposal whose likelihood does not rise fails the ratio test, so the
    # fit never asks for its score: on this sample every scored point is
    # recorded, and the rejected proposals cost one likelihood each
    data, g, _ = compact_fit
    calls = {"score": 0, "likelihood": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(estimation, "_score_and_hessian",
                        counted("score", estimation._score_and_hessian))
    monkeypatch.setattr(estimation, "_log_likelihood",
                        counted("likelihood", estimation._log_likelihood))
    trace = fit(data, moment_matched_init(data), grad_tol=1e-2, max_iter=120, g=g)
    assert calls["score"] == len(trace.states)
    assert calls["likelihood"] > len(trace.states)
    assert _monotone(trace)


def test_fit_restart_at_optimum_stops_immediately(compact_fit):
    data, g, trace = compact_fit
    again = fit(data, trace.final.params, grad_tol=1e-2, max_iter=5, g=g)
    assert again.converged
    assert len(again.states) - 1 <= 2
    assert again.final.log_likelihood >= trace.final.log_likelihood - 1e-9


def test_fit_inverts_each_point_once(compact_fit, monkeypatch):
    # the likelihood and the score/Hessian of a point share one inversion
    data, g, trace = compact_fit
    seen = []
    real = estimation._density_at_data
    monkeypatch.setattr(estimation, "_density_at_data",
                        lambda stencil, p: seen.append(p) or real(stencil, p))
    again = fit(data, moment_matched_init(data), grad_tol=1e-2, max_iter=120, g=g)
    assert [s.params for s in again.states] == [s.params for s in trace.states]
    assert all(a != b for a, b in zip(seen, seen[1:]))
    assert len(seen) >= len(trace.states)


def test_fit_iteration_budget(compact_fit):
    data, g, _ = compact_fit
    init = moment_matched_init(data)
    capped = fit(data, init, grad_tol=1e-12, max_iter=1, g=g)
    assert not capped.converged
    assert capped.reason == "MaxIter"
    assert len(capped.states) == 2


@pytest.mark.parametrize("kwargs, cause", [
    ({"grad_tol": float("nan")}, "grad_tol"),
    ({"grad_tol": float("inf")}, "grad_tol"),
    ({"grad_tol": -1e-3}, "grad_tol"),
    ({"max_iter": -3}, "max_iter"),
    ({"max_iter": 2.5}, "max_iter"),
])
def test_fit_rejects_unusable_tolerances(compact_fit, monkeypatch, kwargs, cause):
    # refused before any grid is planned
    data, _, _ = compact_fit
    monkeypatch.setattr(estimation, "fit_grid", None)
    monkeypatch.setattr(estimation, "_fit_grid", None)
    with pytest.raises(ValueError, match=cause):
        fit(data, moment_matched_init(data), **kwargs)


def test_fit_trace_reports_its_grid(compact_fit):
    data, g, trace = compact_fit
    assert trace.grid == g
    # data beyond the given grid: the trace reports the expanded range
    narrow = g.with_range(float(np.median(data)), g.x_max)
    capped = fit(data, moment_matched_init(data), max_iter=0, g=narrow)
    assert capped.grid.n_points == g.n_points
    assert capped.grid.x_min < data.min() and capped.grid.x_max == g.x_max


STOP_REASONS = {"GradientTol", "MaxIter", "NoProgress", "SingularHessian"}


def _monotone(trace) -> bool:
    ll = [s.log_likelihood for s in trace.states]
    return all(b >= a for a, b in zip(ll, ll[1:]))


def test_fit_leaves_the_beta_boundary(compact_fit):
    # t = 0 maps to beta_minus = 0 and the square map gives l positive
    # curvature along t there, so the fit steps inward (beta_minus reaches
    # about 0.23) before it climbs the beta_minus -> 0 ridge to -773.735031,
    # above the interior optimum -773.863847
    data, g, trace = compact_fit
    start = moment_matched_init(data).replace(beta_minus=0.0)
    fitted = fit(data, start, grad_tol=1e-2, max_iter=120, g=g)
    assert any(s.params.beta_minus > 0.1 for s in fitted.states)
    assert _monotone(fitted)
    assert fitted.final.log_likelihood >= -773.735031 - 1e-6


def test_fit_leaves_the_alpha_boundary(compact_fit):
    # from alpha_minus = 0 (log-likelihood -134355) the fit reaches the
    # interior optimum -773.863847.  The damped-Newton fit ended MaxIter at
    # -938.508304 after 120 iterations, and a logit/log map cannot start here
    data, g, _ = compact_fit
    start = moment_matched_init(data).replace(alpha_minus=0.0)
    fitted = fit(data, start, grad_tol=1e-2, max_iter=120, g=g)
    assert fitted.reason in STOP_REASONS
    assert fitted.final.params.alpha_minus > 0.1
    assert fitted.final.log_likelihood >= -773.8638 - 1e-4
    assert _monotone(fitted)


def test_fit_on_the_beta_ridge_stops_with_a_reason():
    # C8's recipe on a sample whose maximum lies on the boundary
    # beta_minus -> 0.  On this grid the damped-Newton fit ended
    # LineSearchFail after 164 iterations at log-likelihood -6860.865442
    data = sample_marginal(EQUITY_PARAMS, Marginal.GTS, 5000, np.random.default_rng(1))
    init = moment_matched_init(data)
    trace = fit(data, init, grad_tol=1e-3, g=fit_grid(data, init, n_points=4096))
    assert trace.converged is False
    assert trace.reason in STOP_REASONS - {"GradientTol"}
    assert _monotone(trace)
    assert trace.final.params.beta_minus < 1e-3


def test_fit_converges_on_equity_seed_6():
    # C8's recipe at rng seed 6: the optimum is interior, and the fit reaches
    # the gradient tolerance there (scipy's trust-exact stopped NoProgress at
    # |g| 2.0e-4 with this log-likelihood)
    data = sample_marginal(EQUITY_PARAMS, Marginal.GTS, 5000, np.random.default_rng(6))
    trace = fit(data, moment_matched_init(data), grad_tol=1e-4)
    assert trace.reason == "GradientTol"
    assert trace.final.log_likelihood == pytest.approx(-6823.832668644635, rel=0.0, abs=1e-8)
    assert _monotone(trace)


def test_fit_rejects_infeasible_proposals(compact_fit, monkeypatch):
    # a density that fails above a beta_plus cut: those proposals are
    # rejected, never recorded, and the fit still converges below the cut
    data, g, _ = compact_fit
    init = moment_matched_init(data)
    cut = init.beta_plus + 0.01
    original = estimation._density_at_data
    refused = []

    def cut_density(stencil, p):
        if p.beta_plus > cut:
            refused.append(p.beta_plus)
            raise NormalizationError(f"beta_plus={p.beta_plus:g} above the cut")
        return original(stencil, p)

    monkeypatch.setattr(estimation, "_density_at_data", cut_density)
    trace = fit(data, init, grad_tol=1e-2, max_iter=120, g=g)
    assert refused
    assert trace.infeasible == {"NormalizationError": len(refused)}
    assert trace.converged
    assert _monotone(trace)
    assert all(s.params.beta_plus <= cut for s in trace.states)


def test_fit_counts_one_infeasible_proposal(compact_fit, monkeypatch):
    # the first proposal after the start raises once; the fit records it
    # under the exception's name and goes on to the same optimum
    data, g, trace = compact_fit
    original = estimation._density_at_data
    calls = []

    def fail_first_proposal(stencil, p):
        calls.append(p)
        if len(calls) == 2:
            raise FloatingPointError("overflow in the first proposal")
        return original(stencil, p)

    monkeypatch.setattr(estimation, "_density_at_data", fail_first_proposal)
    again = fit(data, moment_matched_init(data), grad_tol=1e-2, max_iter=120, g=g)
    assert again.infeasible == {"FloatingPointError": 1}
    assert trace.infeasible == {}
    assert again.converged
    assert again.final.log_likelihood == pytest.approx(trace.final.log_likelihood, abs=1e-6)
