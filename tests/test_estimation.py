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


def streamed_score_and_hessian(data, p, g):
    """Reference score and Hessian that inverts every one of the 7 + 28
    differentiated spectra through ``InversionPlan.raw``, one at a time."""
    from gtsou.estimation import PDF_FLOOR, _density_at_data
    from gtsou.exponents import psi_gts_derivatives

    plan, cf, pdf, mass, (idx, w), f = _density_at_data(data, p, g)
    live = f > PDF_FLOOR
    idx, w, f = idx[live], w[live], f[live]
    keep = pdf > 0.0
    first, second = psi_gts_derivatives(plan.xi_half, p)

    def row(spectrum):
        dq = np.where(keep, plan.raw(spectrum), 0.0) / mass
        return float(np.trapezoid(dq, plan.x)), np.sum(dq[idx] * w, axis=1) / f

    n_obs, n_par = f.size, first.shape[0]
    dm = np.empty(n_par)
    du = np.empty((n_par, n_obs))
    for j in range(n_par):
        dm[j], du[j] = row(first[j] * cf)
    grad = du.sum(axis=1) - n_obs * dm
    hess = np.empty((n_par, n_par))
    for j in range(n_par):
        for k in range(j, n_par):
            spectrum = first[j] * first[k]
            if (j, k) in second:
                spectrum += second[j, k]
            d2m, d2u = row(spectrum * cf)
            hess[j, k] = hess[k, j] = (d2u.sum() - du[j] @ du[k]
                                       - n_obs * (d2m - dm[j] * dm[k]))
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


def test_score_and_hessian_runs_nine_transforms(equity_sample, monkeypatch):
    # the density and the 7 first-derivative rows (irfft), and one adjoint
    # (rfft) for the whole Hessian
    data, g = equity_sample
    plan = InversionPlan(g)
    calls = []
    for name in ("irfft", "rfft"):
        original = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *args, f=original, name=name, **kw:
                            calls.append(name) or f(*args, **kw))
    score_and_hessian(data, EQUITY_PARAMS, plan)
    assert calls.count("irfft") == 8 and calls.count("rfft") == 1


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
    f = {n: estimation._density_at_data(data, init, GridSpec(n, g.x_min, g.x_max,
                                                              g.xi_max))[-1]
         for n in (4096, 8192, 16384)}
    assert estimation._stencil_ll_error(f[4096], f[8192]) > estimation._STENCIL_LL_TOL
    assert estimation._stencil_ll_error(f[8192], f[16384]) <= estimation._STENCIL_LL_TOL


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


def test_fit_grid_refuses_past_the_cap(c8_sample, monkeypatch):
    # a budget no grid meets: the doubling stops at the cap, builds no grid
    # beyond it, and names the cause
    data, init = c8_sample
    monkeypatch.setattr(estimation, "_STENCIL_LL_TOL", 0.0)
    monkeypatch.setattr(estimation, "_FIT_GRID_CAP", 2**14)
    original = estimation._density_at_data
    built = []

    def spy(data, p, g):
        built.append(g.n_points)
        return original(data, p, g)

    monkeypatch.setattr(estimation, "_density_at_data", spy)
    with pytest.raises(NormalizationError, match="stencil's log-likelihood error"):
        fit_grid(data, init)
    assert built == [4096, 8192, 16384]
    with pytest.raises(NormalizationError, match="16384"):
        fit(data, init)


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


def test_log_likelihood_input_validation(equity_sample):
    data, g = equity_sample
    with pytest.raises(ValueError):
        log_likelihood(np.array([]), EQUITY_PARAMS, g)
    with pytest.raises(ValueError):
        log_likelihood(np.array([0.1, np.nan]), EQUITY_PARAMS, g)
    degenerate = EQUITY_PARAMS.replace(alpha_plus=0.0, alpha_minus=0.0)
    with pytest.raises(ValueError):
        log_likelihood(data, degenerate, g)


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
                        lambda d, p, grid: seen.append(p) or real(d, p, grid))
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
    # t = 0 maps to beta_minus = 0 and the square map gives the fit negative
    # curvature along t there, so it steps inward to the interior optimum
    # (the damped-Newton fit reached -773.863824 from this start as well)
    data, g, trace = compact_fit
    start = moment_matched_init(data).replace(beta_minus=0.0)
    fitted = fit(data, start, grad_tol=1e-2, max_iter=120, g=g)
    assert fitted.reason == "GradientTol"
    assert fitted.final.log_likelihood == pytest.approx(-773.8638, abs=1e-4)
    assert _monotone(fitted)


def test_fit_leaves_the_alpha_boundary(compact_fit):
    # from alpha_minus = 0 (log-likelihood -134355) the fit passes the
    # interior optimum and climbs the beta_minus -> 0 ridge to -773.734988,
    # where it ends NoProgress.  The damped-Newton fit ended MaxIter at
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


def test_fit_rejects_infeasible_proposals(compact_fit, monkeypatch):
    # a density that fails above a beta_plus cut: those proposals are
    # rejected, never recorded, and the fit still converges below the cut
    data, g, _ = compact_fit
    init = moment_matched_init(data)
    cut = init.beta_plus + 0.01
    original = estimation._density_at_data
    refused = []

    def cut_density(data, p, g):
        if p.beta_plus > cut:
            refused.append(p.beta_plus)
            raise NormalizationError(f"beta_plus={p.beta_plus:g} above the cut")
        return original(data, p, g)

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

    def fail_first_proposal(data, p, g):
        calls.append(p)
        if len(calls) == 2:
            raise FloatingPointError("overflow in the first proposal")
        return original(data, p, g)

    monkeypatch.setattr(estimation, "_density_at_data", fail_first_proposal)
    again = fit(data, moment_matched_init(data), grad_tol=1e-2, max_iter=120, g=g)
    assert again.infeasible == {"FloatingPointError": 1}
    assert trace.infeasible == {}
    assert again.converged
    assert again.final.log_likelihood == pytest.approx(trace.final.log_likelihood, abs=1e-6)
