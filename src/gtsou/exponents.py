"""Characteristic exponents: the GTS law, its background driving process,
and the self-decomposable law that a GTS driver generates."""

from __future__ import annotations

from math import ceil, factorial, gamma

import numpy as np

from .params import PARAM_NAMES, GtsParams
from .special import digamma_trigamma

# sd_exponent_unit_form's switch to its log branch: below this stability index
# its integrand alpha*Gamma(-beta)*((lam-i*xi*u)^beta-lam^beta)/u cancels (an
# error of about 5e-10 at beta = 1e-6, xi = 30), so it integrates three terms of
# that product's series in beta, -alpha*Gamma(1-beta)*lam^beta*L*(1 + (beta*L/2)
# *(1 + beta*L/3))/u with L = log(1-i*xi*u/lam), whose next term is
# O(beta^3 L^4).  The beta = 0 limit alone would err O(beta).
BETA_LOG_BRANCH = 1e-5

# np.polynomial.legendre.leggauss(8), bit for bit, without loading numpy.polynomial
_GL8_NODES = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                       -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                       0.7966664774136267, 0.9602898564975362])
_GL8_WEIGHTS = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                         0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                         0.22238103445337443, 0.10122853629037706])
# Panels (sd_exponent) or frequencies (sd_step_exponent) per block: blocks
# bound psi_gts's temporaries on long arrays, and give bitwise the same sums.
_SD_BLOCK = 2**14
# Absolute error target of sd_exponent_unit_form's adaptive quadrature
_UNIT_FORM_TOL = 1e-10


def _as_array(xi):
    a = np.asarray(xi, dtype=float)
    return a, a.ndim == 0


# The kernels below build complex log, exp and expm1 from numpy's real tan,
# arctan, log1p, exp and expm1, which run as SIMD loops where numpy's sin, cos
# and complex log/exp/power run element by element, 10-50 times slower.  The
# exponentials need |Im z| < pi; every caller passes z = beta L, (beta - 1) L
# or (beta - 2) L with L = _log_ratio(...), |Im L| < pi/2 and beta in [0, 1).
# They work in place where they can, so that sd_exponent's blocks of 131072
# nodes hold fewer temporaries than numpy's complex functions needed.

def _complex(re, im) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _log_ratio(x, lam: float) -> np.ndarray:
    """log(1 - i x/lam) for real x and lam > 0 on the principal branch:
    log1p(r^2)/2 - i arctan(r) with r = x/lam, so |Im| < pi/2.  Where r^2
    overflows (|r| > 1.3e154) the real part is log|x| - log(lam), as
    log|r| + log1p(r^-2)/2 rounds there; a non-finite x gives nan + nan i."""
    with np.errstate(over="ignore"):
        r = x / lam
        re = np.log1p(np.square(r))
    re *= 0.5
    out = _complex(re, np.arctan(r))
    np.negative(out.imag, out=out.imag)
    far = ~np.isfinite(out.real)
    if far.any():
        x = np.asarray(x)
        out.real[far] = np.log(np.abs(x[far])) - np.log(lam)
        out[far & ~np.isfinite(x)] = complex(np.nan, np.nan)
    return out


def _half_angle(y) -> tuple:
    """(1 - cos y, sin y) = (2t^2, 2t) / (1 + t^2) with t = tan(y/2).
    Requires |y| < pi, where t is finite."""
    t = np.tan(0.5 * y)
    s = t + t
    s /= 1.0 + t * t
    t *= s
    return t, s


def _cexp(z: np.ndarray) -> np.ndarray:
    """exp(z) for complex z with |Im z| < pi (``_half_angle``)."""
    w, s = _half_angle(z.imag)
    ex = np.exp(z.real)
    s *= ex
    w *= ex
    ex -= w
    return _complex(ex, s)


def _cexpm1(z: np.ndarray) -> np.ndarray:
    """exp(z) - 1 for complex z with |Im z| < pi (``_half_angle``), accurate
    near z = 0 (numpy's expm1 is real-only).  Re is expm1(x) cos(y) -
    (1 - cos y); both terms are O(|z|)."""
    w, s = _half_angle(z.imag)
    s *= np.exp(z.real)
    re = np.subtract(1.0, w)
    re *= np.expm1(z.real)
    re -= w
    return _complex(re, s)


def _cexp_and_expm1(z: np.ndarray) -> tuple:
    """(``_cexp(z)``, ``_cexpm1(z)``) bit for bit, from one ``_half_angle`` and
    one real exp: the two share their imaginary part sin(y) e^x."""
    w, s = _half_angle(z.imag)
    ex = np.exp(z.real)
    s *= ex
    re = np.subtract(1.0, w)
    re *= np.expm1(z.real)
    re -= w
    em1 = _complex(re, s)
    w *= ex
    ex -= w
    return _complex(ex, s), em1


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
    log_ratio = _log_ratio(x, lam)
    if beta == 0.0:
        out = -alpha * log_ratio
    else:
        out = (-alpha * gamma(1.0 - beta) * lam**beta / beta) \
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
    acc = np.zeros((3,) + zs.shape, dtype=complex)
    for c in _I_SERIES[:, ::-1].T:  # one Horner step for all three series
        acc *= zs
        acc += c[:, None]
    out[:, small] = acc
    zl = z[~small]
    ez, prev = _cexp_and_expm1(zl)
    prev /= zl
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
    log_ratio = _log_ratio(x, lam)
    i0, i1, i2 = _expm1_moments(beta * log_ratio)
    b0 = log_ratio * i0
    b1 = log_ratio**2 * i1
    b2 = log_ratio**2 * log_ratio * i2  # numpy's ** 3 is its slow complex power
    a = gamma(1.0 - beta) * lam**beta
    digamma, a2 = digamma_trigamma(1.0 - beta)  # a2 = d2 log A / dbeta2
    a1 = np.log(lam) - digamma  # d log A / dbeta
    d_alpha_beta = -a * (a1 * b0 + b1)
    e1, em1 = _cexp_and_expm1((beta - 1.0) * log_ratio)
    d_alpha_lam = -gamma(1.0 - beta) * lam ** (beta - 1.0) * em1
    first = (alpha * d_alpha_beta, -a * b0, alpha * d_alpha_lam)
    second = {
        (0, 0): -alpha * a * ((a1 * a1 + a2) * b0 + 2.0 * a1 * b1 + b2),
        (0, 1): d_alpha_beta,
        (0, 2): alpha * d_alpha_lam * a1
        - alpha * gamma(1.0 - beta) * lam ** (beta - 1.0)
        * log_ratio * e1,
        (1, 2): d_alpha_lam,
        (2, 2): alpha * gamma(2.0 - beta) * lam ** (beta - 2.0)
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
    """alpha Gamma(1-beta) i y / (lam - i y)^(1-beta), with the power written
    lam^(1-beta) e^((1-beta) L), L = log(1 - i y/lam)."""
    y = np.asarray(y, dtype=float)
    return (alpha * gamma(1.0 - beta) * lam ** (beta - 1.0)) \
        * _cexp((beta - 1.0) * _log_ratio(y, lam)) * (1j * y)


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

    8-node Gauss-Legendre panels summed from the graded breakpoints
    b_k = min(lambda+-) * (1.5^k - 1): gamma(b_k) by np.cumsum, plus one panel
    from the breakpoint below each |xi|, so a value does not depend on the
    array around it.  No panel [lo, hi] is wider than (lo + min(lambda+-))/2,
    which keeps the branch points +-i*lambda+- of psi(u)/u outside its
    Bernstein ellipse of parameter 7: the rule errs by about 7^-16 ~ 3e-14
    relative.  Negative frequencies use Hermitian symmetry; non-finite ones
    give nan, as in ``psi_gts``.
    """
    x, scalar = _as_array(xi)
    out = np.where(np.isfinite(x), 0j, complex(np.nan, np.nan))
    mag = np.abs(x)
    nonzero = (mag > 0.0) & (mag < np.inf)
    pos, where = np.unique(mag[nonzero], return_inverse=True)
    lam = min(p.lambda_plus, p.lambda_minus)
    top = pos.max(initial=0.0)
    breaks = lam * (1.5 ** np.arange(int(np.log1p(top / lam) / np.log(1.5)) + 2) - 1.0)
    breaks = breaks[:max(1, np.searchsorted(breaks, top))]  # 0 and those below top
    below = np.searchsorted(breaks, pos, side="right") - 1
    lo = np.concatenate((breaks[:-1], breaks[below]))
    hi = np.concatenate((breaks[1:], pos))
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    panel = np.empty(half.size, dtype=complex)
    for start in range(0, half.size, _SD_BLOCK):
        b = slice(start, start + _SD_BLOCK)
        # (panels, 8) nodes; integrand psi(u)/u never evaluated at u = 0
        u = mid[b, None] + half[b, None] * _GL8_NODES[None, :]
        vals = psi_gts(u.ravel(), p).reshape(u.shape) / u
        panel[b] = (vals * _GL8_WEIGHTS[None, :]).sum(axis=1) * half[b]
    at_breaks = np.concatenate(([0j], np.cumsum(panel[:breaks.size - 1])))
    filled = (at_breaks[below] + panel[breaks.size - 1:])[where]
    out[nonzero] = np.where(x[nonzero] < 0.0, np.conj(filled), filled)
    return complex(out) if scalar else out


def sd_step_exponent(xi, p: GtsParams, span: float):
    """int_0^T psi_gts(xi e^-s) ds, T = ``span``: sd_exponent(xi) -
    sd_exponent(e^-T xi), a difference that cancels as 1/T below T = 1.
    There 8-node Gauss-Legendre panels of width <= 1/2 in s integrate the
    step over its own span (the integrand is analytic for |Im s| < pi/2
    whatever xi: error ~ 12.6^-16), one panel per psi_gts call, with
    Hermitian symmetry.  Longer steps take the difference: 16 psi_gts nodes
    per frequency, where panels would take 16 T."""
    x, scalar = _as_array(xi)
    if span > 1.0:
        return sd_exponent(x, p) - sd_exponent(np.exp(-span) * x, p)
    mag, where = np.unique(np.abs(x.ravel()), return_inverse=True)
    n = max(1, ceil(2.0 * span))
    nodes = span / n * (np.arange(n)[:, None] + 0.5 + 0.5 * _GL8_NODES)
    out = np.zeros(mag.size, dtype=complex)
    for start in range(0, mag.size, _SD_BLOCK):
        b = slice(start, start + _SD_BLOCK)
        for scale in np.exp(-nodes):
            out[b] += (psi_gts(np.multiply.outer(mag[b], scale), p) * _GL8_WEIGHTS).sum(axis=1)
    out = (0.5 * span / n * out)[where].reshape(x.shape)
    out = np.where(x < 0.0, np.conj(out), out)
    return complex(out) if scalar else out


def sd_exponent_unit_form(xi, p: GtsParams):
    """Same exponent through the one-sided unit-interval integrals

        gamma+(xi) = alpha * Gamma(-beta) * int_0^1 ((lam - i*xi*u)^beta - lam^beta)/u du

    (log-branch series below beta < 1e-5), combined as mu*xi*i + gamma+(xi) + gamma-(-xi).
    Kept as an independent evaluation route; scalar xi only.
    """
    from scipy.integrate import quad

    xi = float(xi)

    def one_sided(x, beta, alpha, lam):
        if x == 0.0 or alpha == 0.0:
            return 0.0 + 0.0j
        if beta < BETA_LOG_BRANCH:
            c = -alpha * gamma(1.0 - beta) * lam**beta

            def f(u):
                if u == 0.0:
                    return c * (-1j * x / lam)  # limit of c*L/u
                log1 = np.log((lam - 1j * x * u) / lam)
                return c * log1 * (1.0 + 0.5 * beta * log1 * (1.0 + beta * log1 / 3.0)) / u

        else:
            # reached only for beta >= BETA_LOG_BRANCH = 1e-5, clear of the
            # pole at 0 where math.gamma raises
            c = alpha * gamma(-beta)

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
