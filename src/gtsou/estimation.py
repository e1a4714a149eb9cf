"""Maximum-likelihood fitting of the seven GTS parameters by trust-region
Newton (scipy's ``trust-exact``) over an FFT-evaluated likelihood, with the
score and Hessian inverted from differentiated characteristic functions."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _gamma

from .cumulants import cumulants
from .exponents import psi_gts, psi_gts_derivatives
from .inversion import GridSpec, InversionPlan, NormalizationError, default_xi_max
from .params import PARAM_NAMES, GtsParams

PDF_FLOOR = 1e-300  # keeps log f finite when a tail point underflows the grid

TRACE_COLUMNS = (
    "Iterations",
    *PARAM_NAMES,
    "Log(ML)",
    "||dLog(ML)/dV||",
    "Max Eigen Value",
)


@dataclass(frozen=True)
class FitState:
    params: GtsParams
    log_likelihood: float
    gradient: np.ndarray
    hessian: np.ndarray
    gradient_norm: float
    max_eigenvalue: float
    iteration: int

    def trace_row(self) -> list:
        return [
            self.iteration,
            *self.params.as_vector().tolist(),
            self.log_likelihood,
            self.gradient_norm,
            self.max_eigenvalue,
        ]


@dataclass(frozen=True)
class FitTrace:
    states: tuple
    converged: bool
    reason: str  # GradientTol | MaxIter | NoProgress | SingularHessian
    # proposals turned into +inf, by the name of the exception that refused them
    infeasible: dict = field(default_factory=dict)
    grid: GridSpec | None = None  # the planned grid, after any range expansion

    @property
    def final(self) -> FitState:
        return self.states[-1]


def _check_data(data) -> np.ndarray:
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise ValueError("data must be non-empty")
    if not np.isfinite(data).all():
        raise ValueError("data must be finite")
    return data


def _plan_for(data: np.ndarray, g: GridSpec | InversionPlan) -> InversionPlan:
    """The inversion plan of ``g``; a new one with the x-range expanded by
    10% padding when the data exceed it."""
    grid = g.grid if isinstance(g, InversionPlan) else g
    lo, hi = float(data.min()), float(data.max())
    if lo < grid.x_min or hi > grid.x_max:
        pad = 0.1 * (grid.x_max - grid.x_min)
        return InversionPlan(grid.with_range(min(lo - pad, grid.x_min),
                                             max(hi + pad, grid.x_max)))
    return g if isinstance(g, InversionPlan) else InversionPlan(grid)


def _stencil(plan: InversionPlan, data: np.ndarray) -> tuple:
    """Indices and weights, each (len(data), 4), of the cubic Lagrange
    interpolant through the four grid nodes around each observation (the
    stencil slides inward at the grid ends).  The interpolant is linear in
    the grid values, so interpolating the derivative rows gives the exact
    derivative of the interpolated likelihood (a monotone PCHIP is not, and
    with its analytic gradient the Newton fit stalled short of C8's
    tolerance).
    ``_plan_for`` keeps every observation inside the grid."""
    t = (data - plan.grid.x_min) / plan.dx
    start = np.clip(np.floor(t).astype(int) - 1, 0, plan.x.size - 4)
    t = t - (start + 1)
    w = np.stack([-t * (t - 1.0) * (t - 2.0) / 6.0,
                  (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
                  -(t + 1.0) * t * (t - 2.0) / 2.0,
                  (t + 1.0) * t * (t - 1.0) / 6.0], axis=1)
    return start[:, None] + np.arange(4), w


def _density_at_data(data, p: GtsParams, g: GridSpec | InversionPlan) -> tuple:
    """(plan, cf on the half grid, pdf, raw mass, stencil, f at the data)."""
    data = _check_data(data)
    if p.alpha_plus + p.alpha_minus <= 0.0:
        raise ValueError("degenerate parameters: both jump intensities are zero")
    plan = _plan_for(data, g)
    cf = np.exp(psi_gts(plan.xi_half, p))
    pdf, mass = plan.pdf(cf)
    idx, w = _stencil(plan, data)
    return plan, cf, pdf, mass, (idx, w), np.sum(pdf[idx] * w, axis=1)


def log_likelihood(data, p: GtsParams, g: GridSpec | InversionPlan) -> float:
    """l(data; p) = sum_j log f(data_j) with f from one CF inversion on g.

    ``g`` is a GridSpec, or an InversionPlan built from one: ``fit`` plans
    its grid once and passes the plan to every evaluation, which then costs
    one exponent evaluation and one real FFT.  The pdf is interpolated at each
    observation by the four-point cubic Lagrange stencil and floored at
    1e-300 before the log.  If the data exceed the grid's x-range the range
    is expanded for this evaluation.
    """
    return _log_likelihood(_density_at_data(data, p, g))


def _log_likelihood(density: tuple) -> float:
    """sum log f at the data, from one ``_density_at_data`` result."""
    return float(np.sum(np.log(np.maximum(density[-1], PDF_FLOOR))))


def score_and_hessian(data, p: GtsParams, g: GridSpec | InversionPlan) -> tuple:
    """Exact gradient and Hessian of ``log_likelihood`` in the seven
    parameters, from differentiated characteristic functions.

    d/dtheta_j e^psi = psi_j e^psi and d2/dtheta_j dtheta_k e^psi =
    (psi_jk + psi_j psi_k) e^psi (``psi_gts_derivatives``).  With q the
    clipped density (its mask is fixed by the undifferentiated row), m its
    mass and f_i = S_i q / m,

        d log f_i = S_i dq / (m f_i) - dm / m,

    and the second derivative follows by the quotient rule.  Each of the 7
    first-derivative spectra is inverted (``InversionPlan.raw``) for its
    stencil values at the data and its mass.  The 28 second-derivative
    spectra enter only through sum_i S_i d2q / (m f_i) - n d2m / m (n
    observations), one fixed linear functional of the unclipped row, so one
    ``InversionPlan.adjoint`` turns it into one half spectrum and every
    Hessian entry into one dot product: 9 real FFTs per call in all (the
    density and the 7 first-derivative rows, and the adjoint).  Observations
    whose density sits on the 1e-300 floor contribute nothing.
    """
    return _score_and_hessian(_density_at_data(data, p, g), p)


def _score_and_hessian(density: tuple, p: GtsParams) -> tuple:
    """``score_and_hessian`` from the ``_density_at_data`` result at p."""
    plan, cf, pdf, mass, (idx, w), f = density
    live = f > PDF_FLOOR
    idx, w, f = idx[live], w[live], f[live]
    keep = pdf > 0.0
    first, second = psi_gts_derivatives(plan.xi_half, p)

    n_obs, n_par = f.size, first.shape[0]
    dm = np.empty(n_par)
    du = np.empty((n_par, n_obs))
    for j in range(n_par):
        dq = np.where(keep, plan.raw(first[j] * cf), 0.0) / mass
        dm[j], du[j] = np.trapezoid(dq, plan.x), np.sum(dq[idx] * w, axis=1) / f
    grad = du.sum(axis=1) - n_obs * dm

    # sum_i S_i d2q / f_i - n_obs d2m for each pair j <= k, with d2q the clipped
    # second-derivative rows over m: both terms are linear in their weights on
    # d2q, so one adjoint of the summed weights c gives them together
    h = 0.5 * np.diff(plan.x)
    trapezoid = np.append(h, 0.0) + np.insert(h, 0, 0.0)
    c = np.bincount(idx.ravel(), (w / f[:, None]).ravel(),
                    minlength=plan.x.size) - n_obs * trapezoid
    a = plan.adjoint(np.where(keep, c, 0.0) / mass) * cf
    d2 = np.real((first * a) @ first.T)
    for (j, k), s in second.items():  # j <= k
        d2[j, k] += np.real(a @ s)
    hess = d2 - du @ du.T + n_obs * np.outer(dm, dm)
    return grad, np.triu(hess) + np.triu(hess, 1).T


def max_eigenvalue(h) -> float:
    """Largest eigenvalue of a symmetric matrix (LAPACK, ``eigvalsh``)."""
    a = np.array(h, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("max_eigenvalue expects a square matrix")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-8 * max(1.0, np.abs(a).max())):
        raise ValueError("max_eigenvalue expects a symmetric matrix")
    return float(np.linalg.eigvalsh(0.5 * (a + a.T))[-1])


def moment_matched_init(data) -> GtsParams:
    """Starting point from sample cumulants.

    Both stability indexes are pinned at 0.5 and the tempering rates tied
    (lambda+ = lambda-), which makes kappa_2..kappa_4 solvable in closed form
    for (alpha+, alpha-, lambda); mu then matches kappa_1.  Negative
    side-intensity solutions are floored at 5% of the total intensity.
    ValueError unless the data are finite and non-empty.
    """
    data = _check_data(data)
    m = float(data.mean())
    c = data - m
    k2 = float(np.mean(c**2))
    k3 = float(np.mean(c**3))
    k4 = float(np.mean(c**4) - 3.0 * k2**2)
    if k2 <= 0.0:
        raise ValueError("degenerate sample: zero variance")
    if k4 <= 0.0:
        k4 = 0.5 * k2**2  # light-tailed sample; pick a mild heavy-tail prior
    beta = 0.5
    lam = float(np.sqrt((2.5 * 1.5) * k2 / k4))
    a_sum = k2 * lam ** (2.0 - beta) / _gamma(2.0 - beta)
    a_diff = k3 * lam ** (3.0 - beta) / _gamma(3.0 - beta)
    floor = 0.05 * a_sum
    a_plus = max(0.5 * (a_sum + a_diff), floor)
    a_minus = max(0.5 * (a_sum - a_diff), floor)
    mu = m - (a_plus - a_minus) * _gamma(1.0 - beta) / lam ** (1.0 - beta)
    return GtsParams(mu, beta, beta, a_plus, a_minus, lam, lam)


# fit_grid's budget on the stencil's log-likelihood error, and its largest grid
_STENCIL_LL_TOL = 1e-5
_FIT_GRID_CAP = 2**22


def fit_grid(data, init: GtsParams, n_points: int | None = None) -> GridSpec:
    """One frozen grid reused by every likelihood evaluation of a fit: the
    x-range covers both the initial law's mean +- 15 sd and the data with
    margin; the frequency cutoff gets a 1.5x safety factor so the grid stays
    valid as the parameters move.

    A given ``n_points`` is used as is.  Otherwise the count starts at the
    first power of two from 256 whose Nyquist frequency pi/dx reaches 1.5x
    the cutoff (on C8's sample no coarser grid meets the budget) and
    doubles until ``_stencil_ll_error`` against twice the points, a
    Richardson estimate of the log-likelihood error the cubic stencil adds,
    is at most ``_STENCIL_LL_TOL`` = 1e-5, measured at ``init`` only;
    NormalizationError if that needs more than 2^22 points."""
    data = _check_data(data)
    k = cumulants(init, 2)
    sd = float(np.sqrt(k[2]))
    lo = min(k[1] - 15.0 * sd, float(data.min()) - 2.0 * sd)
    hi = max(k[1] + 15.0 * sd, float(data.max()) + 2.0 * sd)
    xi_max = 1.5 * default_xi_max(lambda xi: psi_gts(xi, init))

    def grid(n: int) -> GridSpec:
        return GridSpec(n_points=n, x_min=lo, x_max=hi, xi_max=xi_max)

    if n_points is not None:
        return grid(n_points)
    n = 256
    while np.pi * (n - 1) / xi_max < 1.5 * (hi - lo):
        n *= 2
    f_n = _density_at_data(data, init, grid(n))[-1]
    while 2 * n <= _FIT_GRID_CAP:
        f_2n = _density_at_data(data, init, grid(2 * n))[-1]
        if _stencil_ll_error(f_n, f_2n) <= _STENCIL_LL_TOL:
            return grid(n)
        n, f_n = 2 * n, f_2n
    raise NormalizationError(
        f"the stencil's log-likelihood error at {n} points is above "
        f"{_STENCIL_LL_TOL:g}, and a finer check would need more than {_FIT_GRID_CAP} points")


def _stencil_ll_error(f_n: np.ndarray, f_2n: np.ndarray) -> float:
    """sum |f_n - f_2n| / f_2n over the data not on the 1e-300 floor, from the
    stencil densities on a grid and on twice its points.  The stencil errs by
    O(dx^4), so f_n - f_2n is 15/16 of f_n's error and the sum about
    sum |log f_n - log f|, which bounds the log-likelihood error."""
    live = (f_n > PDF_FLOOR) & (f_2n > PDF_FLOOR)
    return float(np.sum(np.abs(f_n[live] - f_2n[live]) / f_2n[live]))


def _coordinates(p: GtsParams) -> np.ndarray:
    """Inverse of ``_from_coordinates``, taking t, u >= 0."""
    v = p.as_vector()
    return np.concatenate([v[:1], np.sqrt(v[1:3] / (1.0 - v[1:3])), np.sqrt(v[3:5]),
                           np.log(v[5:])])


def _from_coordinates(z: np.ndarray) -> tuple:
    """The parameter vector at z = (mu, t+, t-, u+, u-, w+, w-), where
    beta = t^2 / (1 + t^2), alpha = u^2 and lambda = e^w, with its first and
    second derivatives, elementwise in z."""
    t, u = z[1:3], z[3:5]
    s = 1.0 + t * t
    lam = np.exp(z[5:])
    v = np.concatenate([z[:1], t * t / s, u * u, lam])
    d = np.concatenate([[1.0], 2.0 * t / s**2, 2.0 * u, lam])
    d2 = np.concatenate([[0.0], (2.0 - 6.0 * t * t) / s**3, [2.0, 2.0], lam])
    return v, d, d2


def fit(data, init: GtsParams, grad_tol: float = 1e-4, max_iter: int = 200,
        g: GridSpec | None = None) -> FitTrace:
    """Trust-region Newton ascent of the log-likelihood.

    scipy's ``trust-exact`` (Moré–Sorensen) minimises -l; its exact
    subproblem solve handles the indefinite Hessians met far from the
    optimum.  It runs in ``_coordinates``, which are unconstrained yet reach
    beta = 0 and alpha = 0; there the square map gives -l negative curvature
    whenever l rises inward, so the fit can leave the boundary.  Gradient and
    Hessian follow from ``score_and_hessian`` by the chain rule, g_z = D g
    and H_z = D H D + diag(D2 g).  An infeasible proposal gets +inf and fails
    the ratio test, and ``FitTrace.infeasible`` counts it by exception type;
    a proposal whose likelihood does not rise fails the ratio test too,
    so its score and Hessian are never computed.  The score and Hessian then
    come once per recorded state, plus once per rising proposal that the
    ratio test still rejects, and reuse the density inverted for the
    likelihood: one inversion per evaluated point.

    Each accepted point becomes a FitState in the natural parameters.  Stop
    reasons: GradientTol (gradient_norm <= grad_tol and max_eigenvalue <= 0),
    MaxIter (``max_iter`` accepted steps), NoProgress (the model predicts no
    decrease) and SingularHessian (the subproblem's linear algebra failed).
    The grid (``fit_grid`` unless ``g`` is given, expanded to cover the data)
    is planned once, every evaluation reuses its InversionPlan, and
    ``FitTrace.grid`` reports it; ``fit_grid`` budgets the stencil's
    log-likelihood error at ``init`` only.  ValueError before any planning
    unless ``grad_tol`` is finite and >= 0 and ``max_iter`` an integer >= 0.
    """
    from scipy.optimize import minimize

    if not (np.isfinite(grad_tol) and grad_tol >= 0.0):
        raise ValueError(f"grad_tol must be finite and >= 0, got {grad_tol!r}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    data = _check_data(data)
    plan = _plan_for(data, fit_grid(data, init) if g is None else g)
    states: list[FitState] = []
    infeasible: Counter = Counter()
    last: dict = {}  # the point evaluated last: scipy asks for f, g, H apart

    def evaluate(z: np.ndarray, p: GtsParams | None = None) -> dict:
        """-l, its z-gradient and z-Hessian, and the natural values, from one
        likelihood and one score/Hessian call.  scipy builds the model of
        every proposal before its ratio test, so a proposal that cannot pass
        it gets zeros in place of the score and Hessian: +inf when
        infeasible, and -l without the score call when l does not rise above
        the last accepted point's.  ``p`` is z's exact params."""
        if np.array_equal(last.get("z"), z):
            return last
        last.clear()
        last["z"] = z.copy()
        v, d, d2 = _from_coordinates(z)
        zeros = np.zeros(z.size), np.zeros((z.size, z.size))
        try:
            p = GtsParams.from_vector(v) if p is None else p
            density = _density_at_data(data, p, plan)
            l = _log_likelihood(density)
            if states and not l > states[-1].log_likelihood:
                last["model"] = (-l, *zeros)
                return last
            grad, hess = _score_and_hessian(density, p)
        except (NormalizationError, ValueError, ArithmeticError) as exc:
            if not states:  # the start's errors propagate
                raise
            infeasible[type(exc).__name__] += 1
            last["model"] = (np.inf, *zeros)
            return last
        last["natural"] = p, l, grad, hess
        last["model"] = (-l, -d * grad,
                         -(d[:, None] * hess * d[None, :] + np.diag(d2 * grad)))
        return last

    def accept(z: np.ndarray) -> str | None:
        """Record the point z as a FitState; the stop reason, if any."""
        p, l, grad, hess = evaluate(z)["natural"]
        gn = float(np.linalg.norm(grad))
        me = max_eigenvalue(hess)
        states.append(FitState(p, l, grad, hess, gn, me, len(states)))
        if gn <= grad_tol and me <= 0.0:
            return "GradientTol"
        if len(states) > max_iter:
            return "MaxIter"
        return None

    z_cur = _coordinates(init)
    evaluate(z_cur, init)
    reason = accept(z_cur)

    def callback(z: np.ndarray) -> None:
        nonlocal z_cur, reason
        if not np.array_equal(z, z_cur):  # else scipy rejected the step
            z_cur, reason = z, accept(z)
            if reason is not None:
                raise StopIteration

    if reason is None:
        res = minimize(lambda z: evaluate(z)["model"][0], z_cur, method="trust-exact",
                       jac=lambda z: evaluate(z)["model"][1],
                       hess=lambda z: evaluate(z)["model"][2],
                       callback=callback, options={"gtol": 0.0})  # callback stops
        if reason is None:
            reason = {1: "MaxIter", 3: "SingularHessian"}.get(res.status, "NoProgress")
    return FitTrace(tuple(states), reason == "GradientTol", reason, dict(infeasible),
                    plan.grid)


def trace_rows(trace: FitTrace) -> list[list]:
    """Iteration table in the eleven-column layout used by the CLI."""
    return [s.trace_row() for s in trace.states]
