"""Maximum-likelihood fitting of the seven GTS parameters by trust-region
Newton (a Moré–Sorensen step in numpy) over an FFT-evaluated likelihood,
spread to the data by a non-uniform FFT, with the score and Hessian inverted
from differentiated characteristic functions."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import gamma

import numpy as np

from .cumulants import cumulants
from .exponents import _GL8_NODES, _GL8_WEIGHTS, psi_gts, psi_gts_derivatives
from .inversion import (GridSpec, InversionPlan, NormalizationError, _check_mass,
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
    reason: str  # GradientTol | MaxIter | NoProgress | SingularHessian
    # proposals turned into +inf, by the name of the exception that refused them
    infeasible: dict = field(default_factory=dict)
    grid: GridSpec | None = None  # the planned grid, after any expansion or refinement

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


# the spreading kernel's width in grid nodes, and the least oversampling
# sigma = pi / (dx xi_max) of a fit's grid: at sigma = 1.5 the kernel errs by
# about e^(-pi w sqrt(1 - 1/sigma)), 3e-10 of the density's scale
_WIDTH = 12
_OVERSAMPLING = 1.5


def _refined(grid: GridSpec) -> GridSpec:
    """``grid`` with its point count doubled until the oversampling
    pi / (dx xi_max) reaches 1.5; ``grid`` itself if it does already."""
    n = grid.n_points
    while np.pi * (n - 1) / grid.xi_max < _OVERSAMPLING * (grid.x_max - grid.x_min):
        n *= 2
    return grid if n == grid.n_points else GridSpec(n, grid.x_min, grid.x_max, grid.xi_max)


def _plan_for(data: np.ndarray, g: GridSpec | InversionPlan) -> InversionPlan:
    """The inversion plan of ``g``; a new one with the x-range expanded by
    10% padding when the data exceed it, and with the points doubled while
    the oversampling is below 1.5 (``_refined``)."""
    grid = g.grid if isinstance(g, InversionPlan) else g
    lo, hi = float(data.min()), float(data.max())
    if lo < grid.x_min or hi > grid.x_max:
        pad = 0.1 * (grid.x_max - grid.x_min)
        grid = grid.with_range(min(lo - pad, grid.x_min), max(hi + pad, grid.x_max))
    grid = _refined(grid)
    return g if isinstance(g, InversionPlan) and g.grid == grid else InversionPlan(grid)


class _Stencil:
    """The spreading operator S from the whole 2n-node period of the plan's
    irfft to the data, as C-contiguous (w, m) arrays: observation i reads
    the w nodes ``idx[:, i]``, taken mod 2n, with the weights ``w[:, i]``.
    ``deconv`` scales a spectrum on ``xi_half`` so that S of its inversion is
    the trapezoid sum at the data, and Re(window . cf) is the sum's
    integral over [x_min, x_max].  ``rows`` are the buffers, (7, n + 1) complex
    and (7, 2n) real, that every score on this stencil inverts its
    first-derivative rows through, and ``terms`` a (w, m) one that each
    kernel sum gathers into: made once, so no call faults in fresh pages."""

    def __init__(self, plan: InversionPlan, idx: np.ndarray, w: np.ndarray,
                 deconv: np.ndarray, window: np.ndarray):
        self.plan, self.idx, self.w, self.deconv, self.window = plan, idx, w, deconv, window
        n = plan.grid.n_points
        self.rows = (np.empty((len(PARAM_NAMES), n + 1), dtype=complex),
                     np.empty((len(PARAM_NAMES), 2 * n)))
        self.terms = np.empty(w.shape)

    def apply(self, row: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """S row for a whole-period row, into ``out`` if given: the nodes
        gathered into ``terms``, each observation's w values dotted with its
        weights.  ``take`` in clip mode fills ``terms`` without a buffered
        copy; every index is in range."""
        np.take(row, self.idx, out=self.terms, mode="clip")
        return np.einsum("ki,ki->i", self.terms, self.w, out=out)

    def transpose_over(self, f: np.ndarray) -> np.ndarray:
        """S^T (1/f) on the 2n nodes: each weight divided by its observation's
        f and summed onto the node it reads, kernel node by kernel node."""
        np.divide(self.w, f, out=self.terms)
        return np.bincount(self.idx.ravel(), self.terms.ravel(),
                           minlength=2 * self.plan.grid.n_points)


def _stencil(data, g: GridSpec | InversionPlan) -> _Stencil:
    """The ``_Stencil`` of the data on g's plan (``_plan_for``, so every
    observation lies inside the grid and the oversampling sigma is at least
    1.5): a type-2 non-uniform FFT (Dutt & Rokhlin, SIAM J. Sci. Comput.
    1993).  Observation x reads the w = 12 nodes y_j with |x - y_j| <= h =
    w dx / 2, weighted by the exponential-of-semicircle kernel
    phi(z) = e^(beta (sqrt(1 - z^2) - 1)), z = (x - y_j) / h, beta =
    0.97 pi (1 - 1/(2 sigma)) w (Barnett, Magland & af Klinteberg, SIAM J.
    Sci. Comput. 2019).  The spectrum is first scaled by dx / phi_hat(xi_k),
    phi_hat(xi) = int phi((x - y)/h) e^(i xi x) dx = 2h int_0^1 phi(z)
    cos(xi h z) dz by 4 panels of 8-point Gauss-Legendre.  S is linear in
    the grid values, so S of the derivative rows gives the exact derivative
    of the computed likelihood."""
    data = _check_data(data)
    plan = _plan_for(data, g)
    grid, dx, h = plan.grid, plan.dx, _WIDTH // 2
    beta = 0.97 * np.pi * (1.0 - 0.5 * dx * grid.xi_max / np.pi) * _WIDTH
    t = (data - grid.x_min) / dx
    first = np.ceil(t - h)  # the first node each observation reads, from -h on
    z = (t - first - np.arange(_WIDTH)[:, None]) / h
    w = np.exp(beta * (np.sqrt(1.0 - z * z) - 1.0))
    # one quadrature node at a time, so no (K, 32) temporary is made
    u = ((np.arange(4)[:, None] + 0.5 + 0.5 * _GL8_NODES) / 4.0).ravel()
    phi = np.exp(beta * (np.sqrt(1.0 - u * u) - 1.0)) * np.tile(_GL8_WEIGHTS, 4) / 8.0
    phi_hat = np.zeros(plan.xi_half.size)
    for node, weight in zip(h * dx * u, phi):
        phi_hat += weight * np.cos(node * plan.xi_half)
    # the sum's integral over the window is that of its terms, to_xi (the
    # adjoint's weights) times int_0^L e^(-i xi_k u) du, L = (n - 1) dx,
    # whose phase xi_k L = pi k (n - 1) / n is reduced in integers
    n, k = grid.n_points, np.arange(plan.xi_half.size)
    edge = 1.0 - np.exp(-1j * np.pi * (k * (n - 1) % (2 * n)) / n)
    window = plan.to_xi * np.where(k > 0, edge / (1j * np.where(k > 0, plan.xi_half, 1.0)),
                                   grid.x_max - grid.x_min)
    idx = (first.astype(np.intp) + np.arange(_WIDTH)[:, None]) % (2 * n)
    # dx / phi_hat: phi_hat above still lacks its factor 2 h dx = w dx
    return _Stencil(plan, idx, w, 1.0 / (_WIDTH * phi_hat), window)


def _density_at_data(s: _Stencil, p: GtsParams) -> tuple:
    """(stencil, spectrum, f at the data): the spectrum is cf on the half
    grid scaled by ``deconv``, and f the unclipped trapezoid sum at each
    observation.  NormalizationError (``_check_mass``) unless the sum's
    integral over the window lies within 1e-3 of 1; it is not divided out."""
    if p.alpha_plus + p.alpha_minus <= 0.0:
        raise ValueError("degenerate parameters: both jump intensities are zero")
    plan = s.plan
    cf = np.exp(psi_gts(plan.xi_half, p))
    _check_mass(float(np.real(s.window @ cf)), plan.grid)
    spectrum = cf * s.deconv
    row = plan._raw_into(spectrum, np.empty(plan.grid.n_points + 1, dtype=complex))
    return s, spectrum, s.apply(row)


def log_likelihood(data, p: GtsParams, g: GridSpec | InversionPlan) -> float:
    """l(data; p) = sum_j log f(data_j) with f from one CF inversion on g.

    f is the trapezoid sum of ``InversionPlan`` evaluated at each
    observation, not interpolated from the grid: the spectrum is scaled by
    the spreading kernel's deconvolution, inverted over the whole 2n-node
    period by one real FFT, and spread to the data by the 12-node kernel
    (``_stencil``), to about 3e-10 of the density's scale.  The sum is not
    clipped; it is floored at 1e-300 before the log, and its integral over
    the window must lie within 1e-3 of 1 but is not divided out.  ``g`` is a
    GridSpec, or an InversionPlan built from one: ``fit`` plans its grid and
    builds its stencil once, so each of its evaluations costs one exponent
    evaluation and one real FFT.  If the data exceed the grid's x-range the
    range is expanded, and if its oversampling pi / (dx xi_max) is below 1.5
    the points are doubled until it is not, for this evaluation.
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
    whole-period inversion of the deconvolved spectrum and f = S q (S the
    spreading kernel, linear in q, so l's derivatives are exact),

        d log f_i = (S dq)_i / f_i,

    and the second derivative follows by the quotient rule.  The 7
    first-derivative spectra are inverted as one stack
    (``InversionPlan._raw_into``) for their kernel sums at the data.  The 28
    second-derivative spectra enter only through sum_i (S d2q)_i / f_i =
    (S^T (1/f)) . d2q, one fixed linear functional of the row, so one
    ``InversionPlan.adjoint`` of the 2n-node vector S^T (1/f) turns it into
    one half spectrum and every Hessian entry into one dot product.  A call
    makes 3 real FFT calls in all: the density's irfft, one irfft over the
    stack of 7 first-derivative rows, and the adjoint's rfft.  Observations
    whose density sits on the 1e-300 floor contribute nothing.
    """
    return _score_and_hessian(_density_at_data(_stencil(data, g), p), p)


def _score_and_hessian(density: tuple, p: GtsParams) -> tuple:
    """``score_and_hessian`` from the ``_density_at_data`` result at p."""
    s, spectrum, f = density
    plan = s.plan
    first, second = psi_gts_derivatives(plan.xi_half, p)
    rows = plan._raw_into(first * spectrum, *s.rows)
    live = f > PDF_FLOOR
    if not live.all():
        # compress keeps the columns C-contiguous, as [:, live] would not
        idx, w = (np.compress(live, a, axis=1) for a in (s.idx, s.w))
        s, f = _Stencil(plan, idx, w, s.deconv, s.window), f[live]
    # row by row: a gather over the stack is slower, and comes out in
    # Fortran order, which changes the bits of du's row sums
    du = np.empty((len(rows), f.size))
    for row, out in zip(rows, du):
        s.apply(row, out)
    du /= f
    grad = du.sum(axis=1)

    # sum_i (S d2q)_i / f_i for each pair j <= k is linear in the weights
    # S^T (1/f) on the second-derivative row d2q, so one adjoint of them
    # gives them all
    a = plan.adjoint(s.transpose_over(f)) * spectrum
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


def fit_grid(data, init: GtsParams, n_points: int | None = None) -> GridSpec:
    """One frozen grid reused by every likelihood evaluation of a fit: the
    x-range covers both the initial law's mean +- 15 sd and the data with
    margin; the frequency cutoff gets a 1.5x safety factor so the grid stays
    valid as the parameters move.

    A given ``n_points`` is kept as given; the fit's plan doubles a count
    whose oversampling pi / (dx xi_max) is below 1.5.  Otherwise the count
    is the first power of two from 256 whose Nyquist frequency pi/dx reaches
    1.5x the cutoff, where the likelihood's spreading kernel errs by about
    3e-10 of the density's scale (C8: 4096 points)."""
    data = _check_data(data)
    k = cumulants(init, 2)
    sd = float(np.sqrt(k[2]))
    lo = min(k[1] - 15.0 * sd, float(data.min()) - 2.0 * sd)
    hi = max(k[1] + 15.0 * sd, float(data.max()) + 2.0 * sd)
    xi_max = 1.5 * default_xi_max(lambda xi: psi_gts(xi, init))
    grid = GridSpec(n_points=256 if n_points is None else n_points, x_min=lo, x_max=hi,
                    xi_max=xi_max)
    return grid if n_points is not None else _refined(grid)


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
    failed).  The grid, ``fit_grid``'s unless ``g`` is given, is planned,
    expanded to cover the data and refined to an oversampling of at least
    1.5, and its spreading stencil built once; the planned grid is reported
    as ``FitTrace.grid``.
    ValueError before any planning unless ``grad_tol`` is finite and >= 0 and
    ``max_iter`` an integer >= 0.
    """
    if not (np.isfinite(grad_tol) and grad_tol >= 0.0):
        raise ValueError(f"grad_tol must be finite and >= 0, got {grad_tol!r}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    s = _stencil(data, fit_grid(data, init) if g is None else g)
    density = _density_at_data(s, init)  # the start's errors propagate
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
