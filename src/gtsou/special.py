"""Incomplete gamma integrals extended to the negative orders the jump
densities need, and the digamma and trigamma values a fit needs."""

from __future__ import annotations

from math import factorial

import numpy as np


def _zeta_over_k() -> np.ndarray:
    """zeta(k)/k for k = 2..60 by Euler-Maclaurin: the sum over n < 10, the
    tail integral and half end term at N = 10, and the Bernoulli corrections
    B_2..B_14, smallest terms first (within 2.3e-16 of 40-digit mpmath)."""
    k = np.arange(2, 61, dtype=float)
    head = sum(float(n) ** -k for n in range(9, 0, -1))
    end = 10.0
    bernoulli = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
    rise = k.copy()  # k (k+1) ... (k+2j-2)
    corr = np.zeros_like(k)
    for j, b in enumerate(bernoulli, start=1):
        corr += b / factorial(2 * j) * rise * end ** (1.0 - k - 2 * j)
        rise *= (k + 2 * j - 1) * (k + 2 * j)
    return (head + (end ** (1.0 - k) / (k - 1.0) + 0.5 * end**-k + corr)) / k


# zeta(k)/k, k = 2..60: log Gamma(1+s) = -euler_gamma s + sum_k zeta(k)/k (-s)^k
_LOG_GAMMA1P = _zeta_over_k()


def _gamma1pm1_over(s: float) -> float:
    """(Gamma(1+s) - 1)/s for 0 < |s| <= 1/2, from the Taylor series of
    log Gamma(1+s) (truncation < 1e-20), whose terms are all positive for
    s < 0 and alternate for s > 0."""
    t = -s
    acc = 0.0
    for c in _LOG_GAMMA1P[::-1]:
        acc = acc * t + c
    return float(np.expm1(t * (np.euler_gamma + t * acc)) / s)


def digamma_trigamma(x: float) -> tuple:
    """psi(x) and psi'(x) for 0 < x <= 1: the derivatives of the series of
    log Gamma(1+s) at s = x - 1, or below 1/2 at s = x with one recurrence
    step psi(x) = psi(1+x) - 1/x (so |s| <= 1/2)."""
    step = 1.0 / x if x < 0.5 else 0.0
    t = -x if step else 1.0 - x
    d1 = d2 = 0.0
    for k, c in zip(range(60, 1, -1), _LOG_GAMMA1P[::-1]):
        d1, d2 = d1 * t + k * c, d2 * t + k * (k - 1) * c
    return float(-np.euler_gamma - t * d1 - step), float(d2 + step * step)


def _gamma_series(s: float, x: np.ndarray) -> np.ndarray:
    """Gamma(s, x) for |s| <= 1/2 and 0 < x < 1/2 as

        (Gamma(1+s) - 1)/s - expm1(s log x)/s - x^s sum_(n>=1) (-x)^n / (n! (n+s)),

    each term analytic through s = 0, where it takes its limit
    E1(x) = -euler_gamma - log x - sum_(n>=1) (-x)^n / (n! n)."""
    total = np.zeros_like(x)
    term = np.ones_like(x)
    for n in range(1, 18):  # (1/2)^17/17! < 3e-20
        term = term * (-x / n)
        total += term / (n + s)
    if s == 0.0:
        return -np.euler_gamma - np.log(x) - total
    return _gamma1pm1_over(s) - np.expm1(s * np.log(x)) / s - x**s * total


def _gamma_fraction(s: float, x: np.ndarray) -> np.ndarray:
    """Gamma(s, x) = e^(-x) x^s / (x + 1 - s - 1 (1 - s) / (x + 3 - s - ...)),
    the Legendre continued fraction for s <= 0 and x >= 1/2, evaluated by the
    modified Lentz method.  Each entry's value is recorded at the first step
    within rounding of 1: about 170 steps at x = 1/2, 5 at x = 700.  Entries
    that are done keep iterating, unread, until the live arrays are
    compacted every 16 steps."""
    h = np.empty_like(x)
    live = np.arange(x.size)
    pending = np.ones(x.size, dtype=bool)  # of the live entries, not yet recorded
    b = x + 1.0 - s
    d = 1.0 / b
    c = np.full_like(x, np.inf)  # the first step sets c = b
    acc = d.copy()
    for i in range(1, 400):
        if not live.size:
            break
        an = -i * (i - s)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        step = d * c
        acc = acc * step
        done = np.abs(step - 1.0) <= 1e-16
        done &= pending
        if done.any():
            h[live[done]] = acc[done]
            pending &= ~done
            if not pending.any():
                break
        if i % 16 == 0:
            live, b, c, d, acc, pending = (a[pending] for a in (live, b, c, d, acc, pending))
    h[live[pending]] = acc[pending]  # none: x >= 1/2 converges within about 170 steps
    return np.exp(-x) * x**s * h


def upper_incomplete_gamma(s: float, x):
    """Gamma(s, x) = integral_x^inf y^(s-1) e^(-y) dy for order s in (-1, 1).

    s > 0 is scipy's regularized ``gammaincc`` times Gamma(s); scipy is
    imported for that branch only.  For s <= 0 each region has its own form
    in numpy, none of which loses more than a few ulps to cancellation,
    however close s is to 0:

    * x >= 1/2: the Legendre continued fraction (``_gamma_fraction``);
    * x < 1/2 and s > -1/2: a series whose terms stay finite as s -> 0
      (``_gamma_series``), at s = 0 its limit, the exponential integral E1;
    * x < 1/2 and s <= -1/2: one step of the downward recurrence
      Gamma(s, x) = (Gamma(s+1, x) - x^s e^(-x)) / s, with Gamma(s+1, x)
      from the same series at 0 < s+1 <= 1/2, which loses at most a few
      ulps there.

    x may be a scalar or array; the integral diverges at x = 0 for s <= 0,
    so only x > 0 is admitted.
    """
    x = np.asarray(x, dtype=float)
    if x.size and np.any(x <= 0.0):
        raise ValueError("upper_incomplete_gamma requires x > 0")
    if not -1.0 < s < 1.0:
        raise ValueError(f"order s={s:g} outside the supported interval (-1, 1)")
    if s > 0.0:
        from scipy import special as sc

        out = sc.gammaincc(s, x) * sc.gamma(s)
    else:
        out = np.empty_like(x)
        large = x >= 0.5
        out[large] = _gamma_fraction(s, x[large])
        xs = x[~large]
        if s > -0.5:
            out[~large] = _gamma_series(s, xs)
        else:
            out[~large] = (_gamma_series(s + 1.0, xs) - xs**s * np.exp(-xs)) / s
    return out if out.ndim else float(out)


def lower_incomplete_gamma(s: float, x):
    """gamma(s, x) = integral_0^x y^(s-1) e^(-y) dy, s > 0: scipy's
    regularized ``gammainc`` times Gamma(s)."""
    if s <= 0.0:
        raise ValueError("lower_incomplete_gamma requires s > 0")
    x = np.asarray(x, dtype=float)
    if x.size and np.any(x < 0.0):
        raise ValueError("lower_incomplete_gamma requires x >= 0")
    from scipy import special as sc

    out = sc.gammainc(s, x) * sc.gamma(s)
    return out if out.ndim else float(out)
