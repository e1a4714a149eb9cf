"""Levy jump densities of the three laws plus activity/variation diagnostics."""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .params import GtsParams
from .special import lower_incomplete_gamma, upper_incomplete_gamma


class Activity(enum.Enum):
    FINITE = "finite"
    INFINITE = "infinite"


class VariationDiagnostics(NamedTuple):
    activity: Activity
    variation_integral: float


def _mirrored(x, p: GtsParams, kernel):
    """A two-sided density from its one-sided ``kernel(y, beta, alpha, lam)``,
    y > 0: at each x the kernel of the side x lies on, evaluated at |x|."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x == 0.0):
        raise ValueError("Levy densities are undefined at x = 0")
    out = np.full_like(x, np.nan)  # a NaN x lies on neither side
    for sign, beta, alpha, lam in p.sides():
        on = sign * x > 0.0
        out[on] = kernel(sign * x[on], beta, alpha, lam)
    return float(out[0]) if scalar else out


def _gts_kernel(y, beta, alpha, lam):
    return alpha * np.exp(-lam * y) * y ** (-1.0 - beta)


def _bdlp_kernel(y, beta, alpha, lam):
    return alpha * (beta + lam * y) * y ** (-1.0 - beta) * np.exp(-lam * y)


def _gts_tail_kernel(y, beta, alpha, lam):
    return alpha * lam**beta * upper_incomplete_gamma(-beta, lam * y)


def _sd_kernel(y, beta, alpha, lam):
    return _gts_tail_kernel(y, beta, alpha, lam) / y


def levy_density_gts(x, p: GtsParams):
    """alpha+ e^(-lambda+ x) x^(-1-beta+) on x>0, mirrored with the minus-side
    parameters on x<0."""
    return _mirrored(x, p, _gts_kernel)


def levy_density_bdlp(x, p: GtsParams):
    """Driver of the GTS marginal: alpha (beta + lambda|x|) |x|^(-1-beta) e^(-lambda|x|)
    per side."""
    return _mirrored(x, p, _bdlp_kernel)


def levy_density_sd(x, p: GtsParams):
    """Self-decomposable law driven by GTS: U(x) = alpha lambda^beta Gamma(-beta, lambda x)/x
    per side — equivalently the GTS tail mass beyond |x| divided by |x|."""
    return _mirrored(x, p, _sd_kernel)


def gts_upper_tail_mass(u: float, p: GtsParams) -> float:
    """Closed-form integral of levy_density_gts over (u, inf), u > 0."""
    if u <= 0.0:
        raise ValueError("tail cutoff must be > 0")
    _, beta, alpha, lam = p.sides()[0]
    return _gts_tail_kernel(u, beta, alpha, lam)


def bdlp_upper_tail_mass(u: float, p: GtsParams) -> float:
    """Closed-form integral of levy_density_bdlp over (u, inf):
    alpha u^(-beta) e^(-lambda u)."""
    if u <= 0.0:
        raise ValueError("tail cutoff must be > 0")
    return p.alpha_plus * u ** (-p.beta_plus) * np.exp(-p.lambda_plus * u)


def variation_diagnostics(p: GtsParams) -> VariationDiagnostics:
    """Activity class and the variation integral int min(1,|y|) M(dy).

    With beta+- in [0, 1) a side with alpha > 0 has infinite mass near 0
    (infinite activity) while the variation integral stays finite:

        sum_sides alpha l^beta [ Gamma(-beta, l) + gamma(1-beta, l)/l ].

    With alpha+ = alpha- = 0 the measure is zero: finite activity, integral 0.
    """
    total = 0.0
    for _, beta, alpha, lam in p.sides():
        if alpha == 0.0:
            continue
        total += alpha * lam**beta * (
            upper_incomplete_gamma(-beta, lam)
            + lower_incomplete_gamma(1.0 - beta, lam) / lam
        )
    activity = Activity.INFINITE if total > 0.0 else Activity.FINITE
    return VariationDiagnostics(activity, float(total))
