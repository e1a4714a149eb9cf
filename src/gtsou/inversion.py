"""Characteristic-function inversion onto a uniform grid, with quantile
lookup for inverse-transform sampling."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frft import phase_mod2


class NormalizationError(ArithmeticError):
    """Recovered density mass is too far from 1 — the frequency cutoff or
    x-range of the grid is too small for this law."""


@dataclass(frozen=True)
class GridSpec:
    """Inversion grid: n_points uniform x nodes on [x_min, x_max], and the
    frequency cutoff xi_max of the characteristic function."""

    n_points: int = 16384
    x_min: float = -20.0
    x_max: float = 20.0
    xi_max: float = 100.0

    def __post_init__(self):
        n = self.n_points
        if n < 256 or n & (n - 1):
            raise ValueError("n_points must be a power of two, at least 256")
        if not np.isfinite([self.x_min, self.x_max, self.xi_max]).all():
            raise ValueError("x_min, x_max and xi_max must be finite")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be < x_max")
        if not self.xi_max > 0.0:
            raise ValueError("xi_max must be > 0")

    def with_range(self, x_min: float, x_max: float) -> "GridSpec":
        return GridSpec(self.n_points, float(x_min), float(x_max), self.xi_max)


@dataclass(frozen=True)
class DensityGrid:
    """PDF/CDF on a uniform grid plus the monotone inverse CDF.

    ``pdf`` is clipped nonnegative and renormalized to unit trapezoid mass;
    ``cdf`` is the renormalized cumulative trapezoid.  ``quantile_table`` is
    the monotone (PCHIP) inverse of the cdf restricted to its strictly
    increasing section, built on first access; ``pdf_at`` builds a pdf PCHIP
    on each call.
    """

    x: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    raw_mass: float = 1.0

    def __post_init__(self):
        self.x.setflags(write=False)
        self.pdf.setflags(write=False)
        self.cdf.setflags(write=False)

    # -- lookups ----------------------------------------------------------

    @cached_property
    def quantile_table(self):
        from scipy.interpolate import PchipInterpolator

        keep = np.concatenate(([True], np.diff(self.cdf) > 1e-15))
        return PchipInterpolator(self.cdf[keep], self.x[keep], extrapolate=False)

    def pdf_at(self, x):
        """PDF interpolated at arbitrary points; zero outside the grid."""
        from scipy.interpolate import PchipInterpolator

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


def _spacings(g: GridSpec) -> tuple:
    """(dx, dxi, K) of the grid: the x spacing, the frequency spacing
    2 pi / (N dx) of a length-N = 2n DFT, whose period is twice the x-window,
    and the top frequency index K = ceil(xi_max / dxi)."""
    dx = (g.x_max - g.x_min) / (g.n_points - 1)
    dxi = np.pi / (g.n_points * dx)
    return dx, dxi, int(np.ceil(g.xi_max / dxi))


def half_frequencies(g: GridSpec) -> np.ndarray:
    """The nonnegative frequency nodes xi_k = k dxi, k = 0..K, where the
    characteristic function is evaluated; the top node is the first at or
    beyond xi_max, and Hermitian symmetry supplies the negative half."""
    _, dxi, top = _spacings(g)
    return np.arange(top + 1) * dxi


class InversionPlan:
    """Every array of the inversion that depends only on the grid.

    The density on the n x nodes is the trapezoid sum over the frequencies
    k dxi, |k| <= K, (1/2pi) sum_k w_k cf(xi_k) e^(-i xi_k x) dxi, with
    w = 1/2 at |k| = K (Carr & Madan 1999).  Since dxi dx = 2 pi / N, the sum
    is one real inverse FFT of length N = 2n after the x_min shift phase
    e^(-i k dxi x_min).  Node k adds to bin k mod N of the stored half
    spectrum, or conjugated to bin N - (k mod N) where k mod N > N/2; the fold
    is exact, since the DFT sees only k mod N.  Built once per GridSpec, so
    ``raw``, ``pdf`` and ``adjoint`` cost one real FFT each.
    """

    def __init__(self, g: GridSpec):
        n = g.n_points
        dx, dxi, top = _spacings(g)
        k = np.arange(top + 1)
        m = k % (2 * n)
        self.grid = g
        self.x = np.linspace(g.x_min, g.x_max, n)
        self.dx = dx
        self.xi_half = k * dxi
        # the half-spectrum bin of each node under the forward DFT
        # e^(-2 pi i k j / N), and the sign of its imaginary part there: -1
        # where node k lands conjugated on bin N - (k mod N)
        self.bins = np.where(m > n, 2 * n - m, m)
        self.sign = np.where(m > n, -1.0, 1.0)
        # trapezoid weight times the x_min shift phase; raw scales the spectrum
        # by to_x before the fold, adjoint scales its read-back by to_xi
        w = np.where(k == top, 0.5, 1.0) \
            * np.exp(-1j * np.pi * phase_mod2(g.x_min / (n * dx), k))
        # irfft counts bins 0 and n once and every other bin twice, so a node
        # k > 0 folded onto 0 or n carries its mirror -k there itself
        self.to_x = np.where((k > 0) & (self.bins % n == 0), 2.0, 1.0) * w / dx
        self.to_xi = np.where(k > 0, 2.0, 1.0) * w / (2 * n * dx)
        for arr in (self.x, self.xi_half, self.bins, self.sign, self.to_x, self.to_xi):
            arr.setflags(write=False)

    def raw(self, cf_half) -> np.ndarray:
        """The unclipped trapezoid inversion on ``x`` of a Hermitian spectrum
        given on ``xi_half``: the fold and one irfft.  Linear over the reals,
        so a spectrum d/dtheta e^psi gives the theta-derivative of the
        unclipped density."""
        n = self.grid.n_points
        t = self.to_x * cf_half
        spectrum = np.empty(n + 1, dtype=complex)
        spectrum.real = np.bincount(self.bins, t.real, n + 1)
        # irfft sums e^(+2 pi i k j / N), so it takes the conjugate spectrum
        spectrum.imag = np.bincount(self.bins, -self.sign * t.imag, n + 1)
        return np.fft.irfft(spectrum, 2 * n)[:n]

    def adjoint(self, c) -> np.ndarray:
        """The transpose of ``raw`` for a real weight vector ``c`` on ``x``: the
        half spectrum a with ``c @ raw(s) == Re(a @ s)`` for every spectrum s
        on ``xi_half``.  One rfft of the zero-padded ``c``, read back at each
        node's bin."""
        r = np.fft.rfft(c, 2 * self.grid.n_points)
        return self.to_xi * (r.real[self.bins] + 1j * self.sign * r.imag[self.bins])

    def pdf(self, cf_half) -> tuple:
        """(pdf on ``x``, raw mass) from the characteristic function on
        ``xi_half``: ``raw`` clipped nonnegative and renormalized to unit
        trapezoid mass.  Raises NormalizationError when the raw mass deviates
        from 1 by more than 1e-3 or is not finite."""
        g = self.grid
        pdf = self.raw(cf_half)
        pdf = np.where(pdf < 0.0, 0.0, pdf)  # trapezoid ringing is tiny by contract
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
    integral is evaluated as a trapezoid sum collapsed onto the x grid by
    one real inverse FFT, through a one-shot InversionPlan.

    Raises NormalizationError if the recovered mass deviates from 1 by more
    than 1e-3 or is not finite; tiny negative ringing lobes are clipped to
    zero and the grid renormalized.
    """
    # the exponent runs before the plan exists, so the plan's arrays never add
    # to its peak
    cf_half = np.exp(exponent(half_frequencies(g)))
    plan = InversionPlan(g)
    pdf, mass = plan.pdf(cf_half)
    x, dx = plan.x, plan.dx
    del cf_half, plan

    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * dx)))
    cdf = np.minimum(cdf / cdf[-1], 1.0)
    return DensityGrid(x, pdf, cdf, raw_mass=mass)


def cf_on_grid(d: DensityGrid, xi) -> np.ndarray:
    """Re-transform the grid density back to characteristic-function values
    (trapezoid in x).  Used to audit inversion round trips."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return np.trapezoid(np.exp(1j * np.outer(xi, d.x)) * d.pdf, d.x, axis=1)


# default_xi_max's target log-modulus and the largest cutoff it accepts
_TAIL_LOG = np.log(1e-12)
_XI_CAP = 1e7


def default_xi_max(exponent) -> float:
    """Smallest frequency where |cf| = exp(Re exponent) falls below 1e-12.

    Probes the exponent one scalar frequency at a time: doubling from 1 to
    bracket the cutoff, then bisection until the midpoint rounds to an end
    of the bracket (at most 60 steps), after which no step could move the
    result.  That is 59-63 probes for the presets' GTS, SD and BDLP laws,
    and 61-71 for their increments at lambda dt = 0.1 and 1.
    Raises NormalizationError if the doubling passes 1e7 before |cf| falls
    below 1e-12.
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
        if not lo < mid < hi:
            break
        if np.real(exponent(mid)) > _TAIL_LOG:
            lo = mid
        else:
            hi = mid
    return hi


def default_grid(exponent, mean: float, std: float, n_points: int = 16384,
                 span: float = 15.0, xi_max: float | None = None) -> GridSpec:
    """Grid spanning mean +- span standard deviations, frequency cutoff at
    |cf| < 1e-12 unless ``xi_max`` is given.

    ``n_points`` is a floor, not a pin: for slowly decaying characteristic
    functions ``alias_free_points`` doubles it until the x grid's Nyquist
    frequency covers 1.5x the cutoff.  ValueError unless ``span`` is finite
    and > 0.
    """
    if not (np.isfinite(span) and span > 0.0):
        raise ValueError(f"span must be finite and > 0, got {span!r}")
    x_min = mean - span * std
    x_max = mean + span * std
    if xi_max is None:
        xi_max = default_xi_max(exponent)
    n = alias_free_points(n_points, xi_max, x_max - x_min)
    return GridSpec(n_points=n, x_min=x_min, x_max=x_max, xi_max=xi_max)


def alias_free_points(n_points: int, xi_max: float, width: float) -> int:
    """``n_points`` doubled until the Nyquist frequency pi/dx of the x grid,
    dx = width/(n-1), reaches 1.5 xi_max.  The top frequency index
    K = ceil(xi_max/dxi) is then at most about 2n/3, so no frequency node of
    ``InversionPlan`` folds; the alias period 2 pi/dxi is twice the window at
    every n.  ``GridSpec`` checks the arguments before the loop runs;
    NormalizationError beyond 2^22 points."""
    n = GridSpec(n_points, 0.0, width, xi_max).n_points
    while np.pi * (n - 1) / xi_max < 1.5 * width:
        if n >= 2**22:
            raise NormalizationError(
                "a Nyquist frequency of 1.5x the cutoff would need more than "
                "2^22 grid points; narrow the x-range or lower the frequency cutoff"
            )
        n *= 2
    return n
