"""Characteristic-function inversion onto a uniform grid, with quantile
lookup for inverse-transform sampling."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .frft import FrftPlan


class NormalizationError(ArithmeticError):
    """Recovered density mass is too far from 1 — the frequency cutoff or
    x-range of the grid is too small for this law."""


@dataclass(frozen=True)
class GridSpec:
    """Inversion grid: n_points uniform x nodes on [x_min, x_max], and a
    symmetric frequency grid on [-xi_max, xi_max]."""

    n_points: int = 16384
    x_min: float = -20.0
    x_max: float = 20.0
    xi_max: float = 100.0

    def __post_init__(self):
        n = self.n_points
        if n < 256 or n & (n - 1):
            raise ValueError("n_points must be a power of two, at least 256")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be < x_max")
        if not self.xi_max > 0.0:
            raise ValueError("xi_max must be > 0")

    def with_range(self, x_min: float, x_max: float) -> "GridSpec":
        return GridSpec(self.n_points, float(x_min), float(x_max), self.xi_max)


def _gregory_correction() -> np.ndarray:
    """Seven end-correction weights added to the composite trapezoid rule.

    Solved from the moment conditions sum_j d_j j^m = B_{m+1}/(m+1) (odd m,
    Bernoulli numbers; zero for even m), which cancel the Euler-Maclaurin
    boundary error terms through h^6, giving an O(h^8) rule for smooth
    integrands.
    """
    j = np.arange(7, dtype=float)
    a = np.vstack([j**m for m in range(7)])
    b = np.array([0.0, 1.0 / 12.0, 0.0, -1.0 / 120.0, 0.0, 1.0 / 252.0, 0.0])
    return np.linalg.solve(a, b)


_GREGORY = _gregory_correction()


def end_corrected_weights(n: int) -> np.ndarray:
    """Trapezoid weights with 7-point end corrections (interior weight 1)."""
    if n < 14:
        raise ValueError("need at least 14 nodes for non-overlapping end corrections")
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    w[:7] += _GREGORY
    w[-7:] += _GREGORY[::-1]
    return w


@dataclass(frozen=True)
class DensityGrid:
    """PDF/CDF on a uniform grid plus the monotone inverse CDF.

    ``pdf`` is clipped nonnegative and renormalized to unit trapezoid mass;
    ``cdf`` is the renormalized cumulative trapezoid.  ``quantile_table`` is
    the monotone (PCHIP) inverse of the cdf restricted to its strictly
    increasing section; ``pdf_at`` builds a pdf PCHIP on each call.
    """

    x: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    quantile_table: PchipInterpolator = field(repr=False)
    raw_mass: float = 1.0

    def __post_init__(self):
        self.x.setflags(write=False)
        self.pdf.setflags(write=False)
        self.cdf.setflags(write=False)

    # -- lookups ----------------------------------------------------------

    def pdf_at(self, x):
        """PDF interpolated at arbitrary points; zero outside the grid."""
        interp = PchipInterpolator(self.x, self.pdf, extrapolate=False)
        out = interp(np.asarray(x, dtype=float))
        return np.nan_to_num(out, nan=0.0, posinf=0.0, neginf=0.0)

    def cdf_at(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.x, self.cdf, left=0.0, right=1.0)

    def moments(self) -> dict:
        """Trapezoid mean/variance/skewness/kurtosis of the grid density."""
        x, f = self.x, self.pdf
        mean = np.trapezoid(x * f, x)
        c = x - mean
        m2 = np.trapezoid(c**2 * f, x)
        m3 = np.trapezoid(c**3 * f, x)
        m4 = np.trapezoid(c**4 * f, x)
        return {
            "mean": float(mean),
            "variance": float(m2),
            "skewness": float(m3 / m2**1.5),
            "kurtosis": float(m4 / m2**2),
        }


def quantile(d: DensityGrid, u):
    """Monotone-cubic inverse CDF; u strictly inside (0, 1).

    Values of u outside the grid's covered cdf range clamp to the grid
    endpoints (the grid spans the essential support by construction).
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise ValueError("quantile requires 0 < u < 1")
    lo, hi = d.quantile_table.x[0], d.quantile_table.x[-1]
    out = d.quantile_table(np.clip(u_arr, lo, hi))
    return float(out) if u_arr.ndim == 0 else out


def half_frequencies(g: GridSpec) -> np.ndarray:
    """The nonnegative half of the grid's frequency nodes, where the
    characteristic function is evaluated; xi[k] = -xi[n-1-k] mirrors it, and
    n is even, so the origin is not a node."""
    return np.linspace(-g.xi_max, g.xi_max, g.n_points)[g.n_points // 2:]


class InversionPlan:
    """Every array of the inversion that depends only on the grid.

    Built once per GridSpec: the x nodes, the half frequency grid, the
    end-corrected weights, the x_min shift phase, the xi_max post-phase and
    the FRFT plan.  ``raw``, ``pdf`` and ``adjoint`` then cost one FRFT (two
    FFTs) each, so a fit that evaluates many laws on one grid pays for the
    grid once.
    """

    def __init__(self, g: GridSpec):
        n = g.n_points
        xi = np.linspace(-g.xi_max, g.xi_max, n)
        x = np.linspace(g.x_min, g.x_max, n)
        dxi = xi[1] - xi[0]
        dx = x[1] - x[0]
        self.grid = g
        self.x = x
        self.dx = dx
        self.xi_half = xi[n // 2:]
        self.weights = end_corrected_weights(n)
        self.shift = np.exp(-1j * g.x_min * np.arange(n) * dxi)
        self.post = np.exp(1j * g.xi_max * x)
        self.scale = dxi / (2.0 * np.pi)
        self.frft = FrftPlan(n, dx * dxi / (2.0 * np.pi))
        for arr in (self.x, self.xi_half, self.weights, self.shift, self.post):
            arr.setflags(write=False)

    def raw(self, cf_half) -> np.ndarray:
        """The unclipped trapezoid inversion on ``x`` of a spectrum given on
        ``xi_half`` and mirrored Hermitian (mirror plus one FRFT).  Linear over
        the reals, so a spectrum d/dtheta e^psi gives the theta-derivative of
        the unclipped density."""
        n = self.grid.n_points
        half = n // 2
        cf = np.empty(n, dtype=complex)
        cf[half:] = cf_half
        cf[:half] = np.conj(cf[half:][::-1])

        seq = self.weights * cf * self.shift
        return self.scale * np.real(self.post * self.frft(seq))

    def adjoint(self, c) -> np.ndarray:
        """The transpose of ``raw`` for a real weight vector ``c`` on ``x``: the
        half spectrum a with ``c @ raw(s) == Re(a @ s)`` for every spectrum s
        on ``xi_half``.  One FRFT, because its kernel e^(-2 pi i a j k) is
        symmetric in j and k; the mirrored half folds back conjugated."""
        half = self.grid.n_points // 2
        b = self.scale * self.weights * self.shift * self.frft(c * self.post)
        return b[half:] + np.conj(b[:half][::-1])

    def pdf(self, cf_half) -> tuple:
        """(pdf on ``x``, raw mass) from the characteristic function on
        ``xi_half``: ``raw`` clipped nonnegative and renormalized to unit
        trapezoid mass.  Raises NormalizationError when the raw mass deviates
        from 1 by more than 1e-3 or is not finite."""
        g = self.grid
        pdf = self.raw(cf_half)
        pdf = np.where(pdf < 0.0, 0.0, pdf)  # FRFT ringing is tiny by contract
        mass = float(np.trapezoid(pdf, self.x))
        if not abs(mass - 1.0) <= 1e-3:
            cause = (f"density mass {mass:.6f} deviates from 1 by more than 1e-3"
                     if np.isfinite(mass) else f"density mass is not finite ({mass})")
            raise NormalizationError(
                f"{cause} (xi_max={g.xi_max:g}, x-range [{g.x_min:g}, {g.x_max:g}])")
        return pdf / mass, mass


def invert_cf(exponent, g: GridSpec) -> DensityGrid:
    """Recover the density f(x) = (1/2pi) integral cf(xi) e^(-i x xi) dxi.

    ``exponent`` maps an array of frequencies to the log characteristic
    function; it must satisfy exponent(0)=0 and Hermitian symmetry (only the
    nonnegative half is evaluated, the rest is mirrored).  The oscillatory
    integral is evaluated as an end-corrected trapezoid sum collapsed onto
    the x grid by one fractional FFT, through a one-shot InversionPlan.

    Raises NormalizationError if the recovered mass deviates from 1 by more
    than 1e-3 or is not finite; tiny negative ringing lobes are clipped to
    zero and the grid renormalized.
    """
    # the exponent runs before the plan exists and the quantile PCHIP is built
    # after it is gone, so the plan's arrays never add to either peak
    cf_half = np.exp(exponent(half_frequencies(g)))
    plan = InversionPlan(g)
    pdf, mass = plan.pdf(cf_half)
    x, dx = plan.x, plan.dx
    del cf_half, plan

    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * dx)))
    cdf = np.minimum(cdf / cdf[-1], 1.0)

    keep = np.concatenate(([True], np.diff(cdf) > 1e-15))
    inv = PchipInterpolator(cdf[keep], x[keep], extrapolate=False)
    return DensityGrid(x, pdf, cdf, inv, raw_mass=mass)


def cf_on_grid(d: DensityGrid, xi) -> np.ndarray:
    """Re-transform the grid density back to characteristic-function values
    (end-corrected trapezoid in x).  Used to audit inversion round trips."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    w = end_corrected_weights(d.x.size)
    dx = d.x[1] - d.x[0]
    phase = np.exp(1j * np.outer(xi, d.x))
    return phase @ (w * d.pdf) * dx


# default_xi_max's target log-modulus and the largest cutoff it accepts
_TAIL_LOG = np.log(1e-12)
_XI_CAP = 1e7


def default_xi_max(exponent) -> float:
    """Smallest frequency where |cf| = exp(Re exponent) falls below 1e-12.

    Probes the exponent one scalar frequency at a time: doubling from 1 to
    bracket the cutoff, then 60 bisection steps.  Raises NormalizationError
    if the doubling passes 1e7 before |cf| falls below 1e-12.
    """
    lo, hi = 0.0, 1.0
    while np.real(exponent(hi)) > _TAIL_LOG:
        lo, hi = hi, 2.0 * hi
        if hi > _XI_CAP:
            raise NormalizationError(
                "characteristic function decays too slowly: no usable "
                f"frequency cutoff below {_XI_CAP:g}"
            )
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.real(exponent(mid)) > _TAIL_LOG:
            lo = mid
        else:
            hi = mid
    return hi


def default_grid(exponent, mean: float, std: float, n_points: int = 16384,
                 span: float = 15.0, xi_max: float | None = None) -> GridSpec:
    """Grid spanning mean +- span standard deviations, frequency cutoff at
    |cf| < 1e-12 unless ``xi_max`` is given.

    ``n_points`` is a floor, not a pin: the trapezoid inversion periodizes
    the density with period 2*pi/dxi (Poisson summation), so for slowly
    decaying characteristic functions the point count is doubled until that
    period exceeds 1.5x the x-window — otherwise alias copies fold into the
    window and the mass check fails.
    """
    x_min = mean - span * std
    x_max = mean + span * std
    if xi_max is None:
        xi_max = default_xi_max(exponent)
    n = alias_free_points(n_points, xi_max, x_max - x_min)
    return GridSpec(n_points=n, x_min=x_min, x_max=x_max, xi_max=xi_max)


def alias_free_points(n_points: int, xi_max: float, width: float) -> int:
    """``n_points`` doubled until the Poisson-summation period
    pi*(n-1)/xi_max of the trapezoid inversion covers 1.5x the x-window
    ``width``; NormalizationError beyond 2^22 points."""
    n = n_points
    while np.pi * (n - 1) / xi_max < 1.5 * width:
        if n >= 2**22:
            raise NormalizationError(
                "alias-free inversion would need more than 2^22 grid points; "
                "narrow the x-range or lower the frequency cutoff"
            )
        n *= 2
    return n
