"""Characteristic exponents: the GTS law, its background driving process,
and the self-decomposable law that a GTS driver generates."""

from __future__ import annotations

from math import factorial

import numpy as np
from scipy.special import digamma as _digamma
from scipy.special import gamma as _gamma
from scipy.special import polygamma as _polygamma

from .params import PARAM_NAMES, GtsParams

# sd_exponent_unit_form's switch to its log branch: below this stability index
# its integrand Gamma(-beta)*((lam-i*xi*u)^beta-lam^beta)/u cancels
# catastrophically, so it integrates the beta = 0 limit
# -alpha*log(1-i*xi*u/lam)/u instead.
BETA_LOG_BRANCH = 1e-6

_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)
# Panels per block of sd_exponent: blocks bound the (panels, nodes)
# temporaries of psi_gts on long arrays, and give bitwise the same sums.
_SD_BLOCK = 2**14
# Absolute error target of sd_exponent_unit_form's adaptive quadrature
_UNIT_FORM_TOL = 1e-10


def _as_array(xi):
    a = np.asarray(xi, dtype=float)
    return a, a.ndim == 0


def _cexpm1(z: np.ndarray) -> np.ndarray:
    """exp(z) - 1 for complex z, accurate near z = 0 (numpy's expm1 is
    real-only).  Re uses expm1(x)cos(y) - 2sin^2(y/2); both terms are O(|z|)."""
    x, y = np.real(z), np.imag(z)
    return np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2 \
        + 1j * (np.exp(x) * np.sin(y))


def _two_sided(x, p: GtsParams, one_sided):
    """mu*i*x + one_sided(x, plus parameters) + one_sided(-x, minus parameters),
    summed in that order."""
    return sum((one_sided(sign * x, beta, alpha, lam)
                for sign, beta, alpha, lam in p.sides()), 1j * p.mu * x)


def psi_one_sided(xi, beta: float, alpha: float, lam: float):
    """One-sided exponent alpha * Gamma(-beta) * ((lam - i xi)^beta - lam^beta).

    Principal branch throughout; lam > 0 keeps lam - i*xi off the cut.
    Evaluated in the cancellation-free form

        -alpha * Gamma(1-beta) * lam^beta * expm1(beta*log(1 - i*xi/lam)) / beta

    which is analytic in beta through 0 and reaches the bilateral-gamma
    subfamily limit alpha * log(lam / (lam - i xi)) continuously (the naive
    product loses ~all precision below beta ~ 1e-8 and is exactly
    beta-independent if truncated, which would blind derivative-based
    estimation).  Accepts scalar or array xi.
    """
    if lam <= 0.0:
        raise ValueError("lam must be > 0")
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    x, scalar = _as_array(xi)
    z = lam - 1j * x
    log_ratio = np.log(z / lam)  # = log(1 - i*xi/lam), |Im| < pi/2
    if beta == 0.0:
        out = -alpha * log_ratio
    else:
        out = (-alpha * _gamma(1.0 - beta) * lam**beta / beta) \
            * _cexpm1(beta * log_ratio)
    return complex(out) if scalar else out


# Taylor coefficients 1/(k! (k+m+1)) of I_m(z) = int_0^1 t^m e^(zt) dt, m = 0..2
_I_SERIES = np.array([[1.0 / (factorial(k) * (k + m + 1)) for k in range(20)]
                      for m in range(3)])


def _expm1_moments(z: np.ndarray) -> tuple:
    """I_m(z) = int_0^1 t^m e^(zt) dt for m = 0, 1, 2: I_0 = expm1(z)/z and
    I_m = d^m I_0 / dz^m.  Below |z| = 1 a 20-term Taylor series (truncation
    < 1e-19); above it the upward recurrence I_m = (e^z - m I_(m-1)) / z,
    which loses at most a few ulps there."""
    out = np.empty((3,) + z.shape, dtype=complex)
    small = np.abs(z) < 1.0
    zs = z[small]
    for m in range(3):
        acc = np.zeros_like(zs)
        for c in _I_SERIES[m, ::-1]:
            acc = acc * zs + c
        out[m][small] = acc
    zl = z[~small]
    ez = np.exp(zl)
    prev = _cexpm1(zl) / zl
    out[0][~small] = prev
    for m in (1, 2):
        prev = (ez - m * prev) / zl
        out[m][~small] = prev
    return out[0], out[1], out[2]


def psi_one_sided_derivatives(xi, beta: float, alpha: float, lam: float) -> tuple:
    """Parameter derivatives of ``psi_one_sided`` on an array of frequencies.

    Writing psi = -alpha * A(beta) * L * I_0(beta L) with A = Gamma(1-beta)
    lam^beta, L = log(1 - i xi/lam) and I_m from ``_expm1_moments`` (so
    d^m/dbeta^m [L I_0(beta L)] = L^(m+1) I_m(beta L)), every beta-derivative
    stays analytic through beta = 0, where the Gamma(-beta) form is infinite.
    The lambda-derivatives follow from d/dlam (lam - i xi)^beta:

        dpsi/dlam   = -alpha Gamma(1-beta) lam^(beta-1) expm1((beta-1) L)
        d2psi/dlam2 =  alpha Gamma(2-beta) lam^(beta-2) expm1((beta-2) L)

    Returns ``(first, second)``: ``first`` the three arrays d/dbeta,
    d/dalpha, d/dlam; ``second`` maps local index pairs (0 = beta,
    1 = alpha, 2 = lam) to the nonzero second derivatives (d2/dalpha2 is 0).
    """
    x = np.asarray(xi, dtype=float)
    log_ratio = np.log((lam - 1j * x) / lam)
    i0, i1, i2 = _expm1_moments(beta * log_ratio)
    b0 = log_ratio * i0
    b1 = log_ratio**2 * i1
    b2 = log_ratio**3 * i2
    a = _gamma(1.0 - beta) * lam**beta
    a1 = np.log(lam) - _digamma(1.0 - beta)  # d log A / dbeta
    a2 = _polygamma(1, 1.0 - beta)  # d2 log A / dbeta2
    d_alpha_beta = -a * (a1 * b0 + b1)
    em1 = _cexpm1((beta - 1.0) * log_ratio)
    d_alpha_lam = -_gamma(1.0 - beta) * lam ** (beta - 1.0) * em1
    first = (alpha * d_alpha_beta, -a * b0, alpha * d_alpha_lam)
    second = {
        (0, 0): -alpha * a * ((a1 * a1 + a2) * b0 + 2.0 * a1 * b1 + b2),
        (0, 1): d_alpha_beta,
        (0, 2): alpha * d_alpha_lam * a1
        - alpha * _gamma(1.0 - beta) * lam ** (beta - 1.0)
        * log_ratio * np.exp((beta - 1.0) * log_ratio),
        (1, 2): d_alpha_lam,
        (2, 2): alpha * _gamma(2.0 - beta) * lam ** (beta - 2.0)
        * _cexpm1((beta - 2.0) * log_ratio),
    }
    return first, second


def psi_gts_derivatives(xi, p: GtsParams) -> tuple:
    """First and second derivatives of ``psi_gts`` in the seven parameters
    (PARAM_NAMES order) on an array of frequencies.

    Returns ``(first, second)``: ``first`` has shape (7,) + xi.shape;
    ``second`` maps each pair (j, k), j <= k, whose second derivative is not
    identically zero to its array.  Those are the mu-free pairs of one side:
    mu enters linearly (dpsi/dmu = i xi) and the two sides share no parameter.
    """
    x = np.asarray(xi, dtype=float)
    first = np.empty((len(PARAM_NAMES),) + x.shape, dtype=complex)
    first[0] = 1j * x
    second = {}
    for side, (sign, beta, alpha, lam) in enumerate(p.sides()):
        index = (1 + side, 3 + side, 5 + side)  # beta, alpha, lambda
        d1, d2 = psi_one_sided_derivatives(sign * x, beta, alpha, lam)
        for j, d in zip(index, d1):
            first[j] = d
        for (j, k), d in d2.items():
            second[index[j], index[k]] = d
    return first, second


def psi_gts(xi, p: GtsParams):
    """Exponent of the GTS law: mu*xi*i + Psi+(xi) + Psi-(-xi)."""
    x, scalar = _as_array(xi)
    out = _two_sided(x, p, psi_one_sided)
    return complex(out) if scalar else out


def _bdlp_one_sided(y, beta, alpha, lam):
    iy = 1j * np.asarray(y)  # numpy's complex power for scalar y too
    return alpha * _gamma(1.0 - beta) * iy / (lam - iy) ** (1.0 - beta)


def bdlp_exponent(xi, p: GtsParams):
    """Exponent of the background driving process of a GTS marginal.

    log phi(y) = mu*i*y + a+ G(1-b+) i*y / (l+ - i*y)^(1-b+)
                        + a- G(1-b-) (-i*y) / (l- + i*y)^(1-b-),
    which equals xi * d(psi_gts)/dxi.
    """
    y, scalar = _as_array(xi)
    out = _two_sided(y, p, _bdlp_one_sided)
    return complex(out) if scalar else out


# ---------------------------------------------------------------------------
# Self-decomposable exponent: gamma(xi) = integral_0^xi psi_gts(u)/u du.
# The integrand's u -> 0 singularity is removable with limit i*kappa_1.


def sd_exponent(xi, p: GtsParams):
    """Exponent of the self-decomposable law driven by a GTS process.

    Cumulative 8-node Gauss-Legendre panels between consecutive |xi|, for
    scalars and arrays alike; negative frequencies use Hermitian symmetry.
    The integrand psi(u)/u is analytic off the branch points +-i*lambda+-.
    A panel [lo, hi] no wider than (lo + min(lambda+-))/2 keeps them outside
    its Bernstein ellipse of parameter 7, so the 8-node rule errs by about
    7^-16 ~ 3e-14 relative.  Wider gaps (a lone scalar, a coarse array) are
    split at the graded breakpoints min(lambda+-) * (1.5^k - 1), which keep
    every sub-panel under that bound; narrower gaps are never split.
    """
    x, scalar = _as_array(xi)
    out = np.zeros(x.shape, dtype=complex)
    mag = np.abs(x)
    nonzero = mag > 0.0
    pos = np.unique(mag[nonzero])
    edges = np.concatenate(([0.0], pos))
    lam = min(p.lambda_plus, p.lambda_minus)
    wide = np.diff(edges) > 0.5 * (edges[:-1] + lam)
    if wide.any():
        k = np.arange(1, int(np.log1p(pos[-1] / lam) / np.log(1.5)) + 2)
        breaks = lam * (1.5**k - 1.0)
        breaks = breaks[breaks < pos[-1]]
        split = wide[np.searchsorted(edges, breaks, side="right") - 1]
        edges = np.union1d(edges, breaks[split])
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    panel = np.empty(half.size, dtype=complex)
    for start in range(0, half.size, _SD_BLOCK):
        b = slice(start, start + _SD_BLOCK)
        # (panels, 8) nodes; integrand psi(u)/u never evaluated at u = 0
        u = mid[b, None] + half[b, None] * _GL8_NODES[None, :]
        vals = psi_gts(u.ravel(), p).reshape(u.shape) / u
        panel[b] = (vals * _GL8_WEIGHTS[None, :]).sum(axis=1) * half[b]
    gamma_edges = np.cumsum(panel)  # gamma at edges[1:]
    filled = gamma_edges[np.searchsorted(edges, mag[nonzero]) - 1]
    out[nonzero] = np.where(x[nonzero] < 0.0, np.conj(filled), filled)
    return complex(out) if scalar else out


def sd_exponent_unit_form(xi, p: GtsParams):
    """Same exponent through the one-sided unit-interval integrals

        gamma+(xi) = alpha * Gamma(-beta) * int_0^1 ((lam - i*xi*u)^beta - lam^beta)/u du

    (log-branch below beta < 1e-6), combined as mu*xi*i + gamma+(xi) + gamma-(-xi).
    Kept as an independent evaluation route; scalar xi only.
    """
    from scipy.integrate import quad

    xi = float(xi)

    def one_sided(x, beta, alpha, lam):
        if x == 0.0 or alpha == 0.0:
            return 0.0 + 0.0j
        if beta < BETA_LOG_BRANCH:

            def f(u):
                if u == 0.0:
                    return 1j * x / lam * alpha  # limit of -alpha*log(1 - i*x*u/lam)/u
                return -alpha * np.log((lam - 1j * x * u) / lam) / u

        else:
            c = alpha * _gamma(-beta)

            def f(u):
                if u == 0.0:
                    return c * beta * lam ** (beta - 1.0) * (-1j * x)
                return c * ((lam - 1j * x * u) ** beta - lam**beta) / u

        val, err = quad(f, 0.0, 1.0, complex_func=True, epsabs=_UNIT_FORM_TOL / 10,
                        epsrel=0.0, limit=400)
        worst = max(abs(np.real(err)), abs(np.imag(err)))
        if worst > _UNIT_FORM_TOL:
            raise ArithmeticError(
                f"unit-form quadrature stalled at error {worst:g} for xi={x:g}"
            )
        return complex(val)

    return _two_sided(xi, p, one_sided)
