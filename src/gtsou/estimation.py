"""Maximum-likelihood fitting of the seven GTS parameters by damped
Newton-Raphson over an FRFT-evaluated likelihood, with the score and Hessian
inverted from differentiated characteristic functions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.special import gamma as _gamma

from .cumulants import cumulants
from .exponents import psi_gts, psi_gts_derivatives
from .inversion import (GridSpec, InversionPlan, NormalizationError, alias_free_points,
                        default_xi_max)
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
    reason: str  # GradientTol | MaxIter | LineSearchFail | SingularHessian

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
    its analytic gradient stalls the line search short of C8's tolerance).
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
    one exponent evaluation and two FFTs.  The pdf is interpolated at each
    observation by the four-point cubic Lagrange stencil and floored at
    1e-300 before the log.  If the data exceed the grid's x-range the range
    is expanded for this evaluation.
    """
    f = _density_at_data(data, p, g)[-1]
    return float(np.sum(np.log(np.maximum(f, PDF_FLOOR))))


def score_and_hessian(data, p: GtsParams, g: GridSpec | InversionPlan) -> tuple:
    """Exact gradient and Hessian of ``log_likelihood`` in the seven
    parameters, from differentiated characteristic functions.

    d/dtheta_j e^psi = psi_j e^psi and d2/dtheta_j dtheta_k e^psi =
    (psi_jk + psi_j psi_k) e^psi (``psi_gts_derivatives``).  Each of these
    1 + 7 + 28 spectra goes through the same unclipped inversion
    (``InversionPlan.raw``) one at a time, and only the row's trapezoid mass
    and its stencil values at the data are kept.  With q the clipped density
    (its mask is fixed by the undifferentiated row), m its mass and
    f_i = S_i q / m,

        d log f_i = S_i dq / (m f_i) - dm / m,

    and the second derivative follows by the quotient rule.  Observations
    whose density sits on the 1e-300 floor contribute nothing.
    """
    plan, cf, pdf, mass, (idx, w), f = _density_at_data(data, p, g)
    live = f > PDF_FLOOR
    idx, w, f = idx[live], w[live], f[live]
    keep = pdf > 0.0
    first, second = psi_gts_derivatives(plan.xi_half, p)

    def row(spectrum) -> tuple:
        """(dm / m, S_i dq / (m f_i)) of one differentiated spectrum."""
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
    return grad, hess


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
    """
    data = np.asarray(data, dtype=float)
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


def fit_grid(data, init: GtsParams, n_points: int = 16384) -> GridSpec:
    """One frozen grid reused by every likelihood evaluation of a fit: the
    x-range covers both the initial law's mean +- 15 sd and the data with
    margin; the frequency cutoff gets a 1.5x safety factor so the grid stays
    valid as the parameters move.  ``n_points`` is a floor: like
    ``default_grid``, the count is doubled until the alias period covers 1.5x
    the x-window."""
    data = np.asarray(data, dtype=float)
    k = cumulants(init, 2)
    sd = float(np.sqrt(k[2]))
    lo = min(k[1] - 15.0 * sd, float(data.min()) - 2.0 * sd)
    hi = max(k[1] + 15.0 * sd, float(data.max()) + 2.0 * sd)
    xi_max = 1.5 * default_xi_max(lambda xi: psi_gts(xi, init))
    n = alias_free_points(n_points, xi_max, hi - lo)
    return GridSpec(n_points=n, x_min=lo, x_max=hi, xi_max=xi_max)


def _try_likelihood(data, v: np.ndarray, g: InversionPlan):
    """Candidate evaluation for the line search; None marks an infeasible point."""
    try:
        cand = GtsParams.from_vector(v)
    except ValueError:
        return None, None
    try:
        return cand, log_likelihood(data, cand, g)
    except (NormalizationError, ValueError, ArithmeticError):
        return None, None


def fit(data, init: GtsParams, grad_tol: float = 1e-4, max_iter: int = 200,
        g: GridSpec | None = None, max_halvings: int = 20) -> FitTrace:
    """Damped Newton ascent of the log-likelihood.

    Each iteration records a FitState (params, l, gradient, Hessian, gradient
    norm, max eigenvalue).  Convergence requires gradient_norm <= grad_tol
    AND max_eigenvalue <= 0.

    While the Hessian is negative definite the step is pure damped Newton:
    full step if it raises l, otherwise halved up to ``max_halvings`` times.
    Away from the optimum the Hessian is routinely indefinite or singular
    and the raw Newton direction need not be an ascent direction; those
    iterations solve the eigenvalue-shifted system (H - tau*I) delta = grad
    with tau just above the largest eigenvalue — the shifted matrix is
    negative definite, making delta a guaranteed ascent direction that
    interpolates between Newton (small tau) and scaled gradient ascent
    (large tau).  tau grows tenfold until a step is accepted; a plain
    gradient-ascent step is the last resort before the fit is declared stuck.

    The grid (``fit_grid`` unless ``g`` is given, expanded to cover the data)
    is planned once per fit: every likelihood, score and Hessian evaluation
    reuses one InversionPlan.
    """
    data = _check_data(data)
    plan = _plan_for(data, fit_grid(data, init) if g is None else g)

    states: list[FitState] = []
    p = init
    l_cur = log_likelihood(data, p, plan)

    def line_search(v0: np.ndarray, direction: np.ndarray):
        t = 1.0
        for _ in range(max_halvings + 1):
            cand, l_new = _try_likelihood(data, v0 + t * direction, plan)
            if cand is not None and l_new > l_cur:
                return cand, l_new
            t *= 0.5
        return None, None

    def solve_step(mat: np.ndarray, rhs: np.ndarray):
        """LU solve; None when a pivot is numerically zero (rel < 1e-12)."""
        try:
            lu, piv = lu_factor(mat)
        except ValueError:  # LinAlgError, or non-finite entries
            return None
        diag = np.abs(np.diag(lu))
        if diag.min() < 1e-12 * max(diag.max(), 1.0):
            return None
        return lu_solve((lu, piv), rhs)

    for it in range(max_iter + 1):
        grad, hess = score_and_hessian(data, p, plan)
        gn = float(np.linalg.norm(grad))
        me = max_eigenvalue(hess)
        states.append(FitState(p, l_cur, grad, hess, gn, me, it))

        if gn <= grad_tol and me <= 0.0:
            return FitTrace(tuple(states), True, "GradientTol")
        if it == max_iter:
            return FitTrace(tuple(states), False, "MaxIter")

        v0 = p.as_vector()
        step = solve_step(hess, -grad)
        singular = step is None

        cand = l_new = None
        if me < 0.0 and step is not None:
            cand, l_new = line_search(v0, step)

        if cand is None:
            # shifted-Newton rescue for indefinite/singular Hessians
            tau = me + max(1.0, 1e-3 * float(np.abs(np.diag(hess)).max()))
            eye = np.eye(hess.shape[0])
            for _ in range(9):
                step = solve_step(hess - tau * eye, -grad)
                if step is not None:
                    cand, l_new = line_search(v0, step)
                    if cand is not None:
                        break
                tau *= 10.0

        if cand is None:
            cand, l_new = line_search(v0, grad / max(gn, 1.0))
        if cand is None:
            reason = "SingularHessian" if singular else "LineSearchFail"
            return FitTrace(tuple(states), False, reason)
        p, l_cur = cand, l_new

    raise AssertionError("unreachable")


def trace_rows(trace: FitTrace) -> list[list]:
    """Iteration table in the eleven-column layout used by the CLI."""
    return [s.trace_row() for s in trace.states]
