"""Maximum-likelihood fitting of the seven GTS parameters by trust-region
Newton (a Moré–Sorensen step in numpy) over an FFT-evaluated likelihood, with
the score and Hessian inverted from differentiated characteristic functions."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import gamma

import numpy as np

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
    if data.ndim != 1:
        raise ValueError(f"data must be a 1-d array of observations, got shape {data.shape}")
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


class _Stencil:
    """The cubic Lagrange interpolation operator S from a grid row to the
    data, as contiguous (4, m) columns: ``idx[k]`` is the k-th grid node
    around each observation and ``w[k]`` its weight."""

    def __init__(self, plan: InversionPlan, idx: np.ndarray, w: np.ndarray):
        self.plan, self.idx, self.w = plan, idx, w
        self._by_obs = self._rows = None

    def by_observation(self) -> tuple:
        """(nodes, weights), the same entries in observation order, built on
        the first call (``fit_grid``'s probes never make one): S^T's bincount
        sums each node's terms in this order, which fixes the Hessian's bits."""
        if self._by_obs is None:
            self._by_obs = self.idx.T.ravel(), self.w.T.copy()
        return self._by_obs

    def derivative_rows(self) -> tuple:
        """(spectrum, out): the buffers the score inverts its first-derivative
        rows through, (7, n + 1) complex and (7, 2n) real, made on the first
        call and reused by every later score on this stencil's plan."""
        if self._rows is None:
            n = self.plan.grid.n_points
            self._rows = (np.empty((len(PARAM_NAMES), n + 1), dtype=complex),
                          np.empty((len(PARAM_NAMES), 2 * n)))
        return self._rows

    def apply(self, row: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """S row: the interpolant of a grid row at each observation, as four
        gathered multiply-adds summed left to right, into ``out`` if given."""
        i, w = self.idx, self.w
        out = np.multiply(row[i[0]], w[0], out=out)
        out += row[i[1]] * w[1]
        out += row[i[2]] * w[2]
        out += row[i[3]] * w[3]
        return out

    def transpose_over(self, f: np.ndarray) -> np.ndarray:
        """S^T (1/f): each weight divided by its observation's f and summed
        onto the grid node it reads, observation by observation."""
        idx, w = self.by_observation()
        return np.bincount(idx, (w / f[:, None]).ravel(), minlength=self.plan.x.size)


def _stencil(data, g: GridSpec | InversionPlan) -> _Stencil:
    """The ``_Stencil`` of the data on g's plan (``_plan_for``, so every
    observation lies inside the grid): the cubic Lagrange interpolant through
    the four grid nodes around each observation (the stencil slides inward
    at the grid ends).  The interpolant is linear in the grid values, so
    interpolating the derivative rows gives the exact derivative of the
    interpolated likelihood (a monotone PCHIP is not, and with its analytic
    gradient the Newton fit stalled short of C8's tolerance)."""
    data = _check_data(data)
    plan = _plan_for(data, g)
    t = (data - plan.grid.x_min) / plan.dx
    start = np.clip(np.floor(t).astype(int) - 1, 0, plan.x.size - 4)
    t = t - (start + 1)
    w = np.stack([-t * (t - 1.0) * (t - 2.0) / 6.0,
                  (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
                  -(t + 1.0) * t * (t - 2.0) / 2.0,
                  (t + 1.0) * t * (t - 1.0) / 6.0])
    return _Stencil(plan, start + np.arange(4)[:, None], w)


def _density_at_data(s: _Stencil, p: GtsParams) -> tuple:
    """(stencil, cf on the half grid, pdf, f at the data), with pdf
    ``InversionPlan.pdf``'s clipped density: mass-checked, not renormalized."""
    if p.alpha_plus + p.alpha_minus <= 0.0:
        raise ValueError("degenerate parameters: both jump intensities are zero")
    cf = np.exp(psi_gts(s.plan.xi_half, p))
    pdf = s.plan.pdf(cf)[0]
    return s, cf, pdf, s.apply(pdf)


def log_likelihood(data, p: GtsParams, g: GridSpec | InversionPlan) -> float:
    """l(data; p) = sum_j log f(data_j) with f from one CF inversion on g.

    ``g`` is a GridSpec, or an InversionPlan built from one: ``fit`` plans
    its grid and builds its interpolation stencil once, so each of its
    evaluations costs one exponent evaluation and one real FFT.  The clipped,
    unnormalized pdf (its mass checked) is interpolated at each observation
    by the four-point cubic Lagrange stencil and floored at 1e-300 before the
    log.  If the data exceed the grid's x-range the range is expanded for
    this evaluation.
    """
    return _log_likelihood(_density_at_data(_stencil(data, g), p))


def _log_likelihood(density: tuple) -> float:
    """sum log f at the data, from one ``_density_at_data`` result."""
    return float(np.sum(np.log(np.maximum(density[-1], PDF_FLOOR))))


def score_and_hessian(data, p: GtsParams, g: GridSpec | InversionPlan) -> tuple:
    """Exact gradient and Hessian of ``log_likelihood`` in the seven
    parameters, from differentiated characteristic functions.

    d/dtheta_j e^psi = psi_j e^psi and d2/dtheta_j dtheta_k e^psi =
    (psi_jk + psi_j psi_k) e^psi (``psi_gts_derivatives``).  With q the
    clipped, unnormalized density (its mask is fixed by the undifferentiated
    row) and f = S q,

        d log f_i = (S dq)_i / f_i,

    and the second derivative follows by the quotient rule.  The 7
    first-derivative spectra are inverted as one stack (``InversionPlan.raw``)
    for their stencil values at the data.  The 28 second-derivative spectra
    enter only through sum_i (S d2q)_i / f_i = (S^T (1/f)) . d2q, one fixed
    linear functional of the unclipped row, so one ``InversionPlan.adjoint``
    turns it into one half spectrum and every Hessian entry into one dot
    product.  A call makes 3 real FFT calls in all: the density's irfft, one
    irfft over the stack of 7 first-derivative rows, and the adjoint's rfft.
    Observations whose density sits on the 1e-300 floor contribute nothing.
    """
    return _score_and_hessian(_density_at_data(_stencil(data, g), p), p)


def _score_and_hessian(density: tuple, p: GtsParams) -> tuple:
    """``score_and_hessian`` from the ``_density_at_data`` result at p."""
    s, cf, pdf, f = density
    plan = s.plan
    buffers = s.derivative_rows()
    live = f > PDF_FLOOR
    if not live.all():
        s, f = _Stencil(plan, s.idx[:, live], s.w[:, live]), f[live]
    keep = pdf > 0.0
    first, second = psi_gts_derivatives(plan.xi_half, p)

    rows = plan._raw_into(first * cf, *buffers)
    np.copyto(rows, 0.0, where=~keep)
    # row by row: a gather over the stack is slower, and comes out in
    # Fortran order, which changes the bits of du's row sums
    du = np.empty((len(rows), f.size))
    for row, out in zip(rows, du):
        s.apply(row, out)
    du /= f
    grad = du.sum(axis=1)

    # sum_i (S d2q)_i / f_i for each pair j <= k is linear in the weights
    # S^T (1/f) on the clipped second-derivative row d2q, so one adjoint of
    # them gives them all
    a = plan.adjoint(np.where(keep, s.transpose_over(f), 0.0)) * cf
    d2 = np.real((first * a) @ first.T)
    for (j, k), s2 in second.items():  # j <= k
        d2[j, k] += np.real(a @ s2)
    hess = d2 - du @ du.T
    return grad, np.triu(hess) + np.triu(hess, 1).T


def max_eigenvalue(h) -> float:
    """Largest eigenvalue of a symmetric matrix (LAPACK, ``eigvalsh``)."""
    a = np.array(h, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("max_eigenvalue expects a square matrix")
    if not np.isfinite(a).all():
        raise ValueError("max_eigenvalue: the matrix is not finite (nan or inf entry)")
    if not np.abs(a - a.T).max() <= 1e-8 * max(1.0, np.abs(a).max()):
        raise ValueError("max_eigenvalue expects a symmetric matrix")
    return float(np.linalg.eigvalsh(0.5 * (a + a.T))[-1])


def moment_matched_init(data) -> GtsParams:
    """Starting point from sample cumulants.

    Both stability indexes are pinned at 0.5 and the tempering rates tied
    (lambda+ = lambda-), which makes kappa_2..kappa_4 solvable in closed form
    for (alpha+, alpha-, lambda); mu then matches kappa_1.  Negative
    side-intensity solutions are floored at 5% of the total intensity.
    ValueError unless the data are a finite, non-empty 1-d array.
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
    a_sum = k2 * lam ** (2.0 - beta) / gamma(2.0 - beta)
    a_diff = k3 * lam ** (3.0 - beta) / gamma(3.0 - beta)
    floor = 0.05 * a_sum
    a_plus = max(0.5 * (a_sum + a_diff), floor)
    a_minus = max(0.5 * (a_sum - a_diff), floor)
    mu = m - (a_plus - a_minus) * gamma(1.0 - beta) / lam ** (1.0 - beta)
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
    return _fit_grid(data, init, n_points)[0]


def _fit_grid(data, init: GtsParams, n_points: int | None = None) -> tuple:
    """(grid, stencil, start): ``fit_grid``'s grid and, when it chose the
    point count, the ``_Stencil`` (with its plan) and ``_density_at_data`` of
    init that it built on that grid, for a fit to reuse; None and None for a
    given ``n_points``."""
    data = _check_data(data)
    k = cumulants(init, 2)
    sd = float(np.sqrt(k[2]))
    lo = min(k[1] - 15.0 * sd, float(data.min()) - 2.0 * sd)
    hi = max(k[1] + 15.0 * sd, float(data.max()) + 2.0 * sd)
    xi_max = 1.5 * default_xi_max(lambda xi: psi_gts(xi, init))

    def grid(n: int) -> GridSpec:
        return GridSpec(n_points=n, x_min=lo, x_max=hi, xi_max=xi_max)

    def start_on(n: int) -> tuple:
        s = _stencil(data, grid(n))
        return s, _density_at_data(s, init)

    if n_points is not None:
        return grid(n_points), None, None
    n = 256
    while np.pi * (n - 1) / xi_max < 1.5 * (hi - lo):
        n *= 2
    s, start = start_on(n)
    while 2 * n <= _FIT_GRID_CAP:
        finer = start_on(2 * n)
        if _stencil_ll_error(start[-1], finer[1][-1]) <= _STENCIL_LL_TOL:
            return grid(n), s, start
        n, (s, start) = 2 * n, finer
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


def _trust_step(g: np.ndarray, h: np.ndarray, radius: float) -> tuple:
    """(p, on_boundary): a step with |p| <= 1.1 radius that nearly maximises
    g.p + p.h.p/2 (Moré & Sorensen, SIAM J. Sci. Stat. Comput. 1983).  It is
    the Newton step if h is negative definite and that fits; else p(s) =
    (sI - h)^-1 g, s > max(0, top eigenvalue), bisected until ||p| - radius|
    <= radius/10; or, in the hard case, carried to the boundary along the top
    eigenvector.  np.linalg.LinAlgError if ``eigh`` fails."""
    lam, q = np.linalg.eigh(h)
    gq = q.T @ g
    if lam[-1] < 0.0 and np.linalg.norm(gq / lam) <= radius:
        return q @ (-gq / lam), False
    lo = max(0.0, lam[-1])
    hi = lo + np.linalg.norm(g) / radius  # |p(hi)| <= radius
    while lo < (s := 0.5 * (lo + hi)) < hi:
        c = gq / (s - lam)
        size = np.linalg.norm(c)
        if abs(size - radius) <= 0.1 * radius:
            return q @ c, True
        lo, hi = (s, hi) if size > radius else (lo, s)
    c = np.divide(gq, lo - lam, out=np.zeros_like(gq), where=lam < lam[-1])
    c[-1] = np.copysign(np.sqrt(max(radius**2 - c @ c, 0.0)), gq[-1])
    return q @ c, True


def fit(data, init: GtsParams, grad_tol: float = 1e-4, max_iter: int = 200,
        g: GridSpec | None = None) -> FitTrace:
    """Trust-region Newton ascent of the log-likelihood.

    It runs in ``_coordinates``, unconstrained yet reaching beta = 0 and
    alpha = 0, where the square map gives l positive curvature whenever l
    rises inward, so the fit can leave the boundary.  ``_trust_step``
    proposes each step from g_z = D g and H_z = D H D + diag(D2 g).  A
    proposal costs one inversion, and its score and Hessian only once it is
    accepted; one whose likelihood or score raises is rejected and counted in
    ``FitTrace.infeasible`` by exception type.  Each accepted point becomes a
    FitState in the natural parameters.

    Stop reasons: GradientTol (gradient_norm <= grad_tol and max_eigenvalue
    <= 0), MaxIter (``max_iter`` accepted steps), NoProgress (no predicted
    rise, or a step that no longer moves z) and SingularHessian (``eigh``
    failed).  The grid, ``fit_grid``'s unless ``g`` is given and expanded to
    cover the data, is planned and its interpolation stencil built once (a
    chosen grid's plan, stencil and start density are ``fit_grid``'s own),
    and it is reported as ``FitTrace.grid``.
    ValueError before any planning unless ``grad_tol`` is finite and >= 0 and
    ``max_iter`` an integer >= 0.
    """
    if not (np.isfinite(grad_tol) and grad_tol >= 0.0):
        raise ValueError(f"grad_tol must be finite and >= 0, got {grad_tol!r}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    if g is None:
        _, s, density = _fit_grid(data, init)
    else:
        s = _stencil(data, g)
        density = _density_at_data(s, init)  # the start's errors propagate
    # before the loop's temporaries: made inside the first score, the
    # observation-order copies sat above them and raised the fit's peak RSS
    # 0.1 MB; the score's row buffers are made with them
    s.by_observation()
    s.derivative_rows()
    states: list[FitState] = []
    infeasible: Counter = Counter()
    z, p, radius, accepted = _coordinates(init), init, 1.0, True
    l, (grad, hess) = _log_likelihood(density), _score_and_hessian(density, p)
    while True:
        if accepted:
            gn, me = float(np.linalg.norm(grad)), max_eigenvalue(hess)
            states.append(FitState(p, l, grad, hess, gn, me, len(states)))
            reason = ("GradientTol" if gn <= grad_tol and me <= 0.0
                      else "MaxIter" if len(states) > max_iter else None)
            if reason is not None:
                break
            _, d, d2 = _from_coordinates(z)
            g_z, h_z = d * grad, d[:, None] * hess * d + np.diag(d2 * grad)
        try:
            step, on_boundary = _trust_step(g_z, h_z, radius)
        except np.linalg.LinAlgError:
            reason = "SingularHessian"
            break
        predicted = g_z @ step + 0.5 * step @ h_z @ step
        if not predicted > 0.0 or np.array_equal(z + step, z):
            reason = "NoProgress"
            break
        try:
            p_new = GtsParams.from_vector(_from_coordinates(z + step)[0])
            density = _density_at_data(s, p_new)
            l_new = _log_likelihood(density)
            rho = (l_new - l) / predicted
            if accepted := rho > 0.15:
                grad, hess = _score_and_hessian(density, p_new)
        except (NormalizationError, ValueError, ArithmeticError) as exc:
            infeasible[type(exc).__name__] += 1
            rho, accepted = -np.inf, False
        if not rho >= 0.25:  # a quarter of an interior step, not proposed again
            radius = 0.25 * (radius if on_boundary else float(np.linalg.norm(step)))
        elif rho > 0.75 and on_boundary:
            radius = min(2.0 * radius, 1000.0)
        if accepted:
            z, p, l = z + step, p_new, l_new
    return FitTrace(tuple(states), reason == "GradientTol", reason, dict(infeasible),
                    s.plan.grid)


def trace_rows(trace: FitTrace) -> list[list]:
    """Iteration table in the eleven-column layout used by the CLI."""
    return [s.trace_row() for s in trace.states]
