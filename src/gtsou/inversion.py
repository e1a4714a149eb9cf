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
    frequency cutoff xi_max of the characteristic function.  Construction
    raises NormalizationError if the top frequency index K = ceil(xi_max / dxi),
    about xi_max (x_max - x_min) / pi at any n_points, exceeds 2^21."""

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
        top = _spacings(self)[2]
        if top > 2**21:
            raise NormalizationError(
                f"the grid needs K = {top} frequency nodes (xi_max={self.xi_max:g}, x-range "
                f"[{self.x_min:g}, {self.x_max:g}]), more than 2^21; narrow the x-range or "
                "lower the frequency cutoff")

    def with_range(self, x_min: float, x_max: float) -> "GridSpec":
        return GridSpec(self.n_points, float(x_min), float(x_max), self.xi_max)


def _edge_slope(h0, h1, m0, m1):
    """The one-sided three-point derivative at an end knot, set to 0 where
    its sign differs from the end slope m0 and limited to 3 m0 where the
    slopes change sign, so the end interval stays monotone."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class _Pchip:
    """The monotone piecewise-cubic Hermite interpolant through (x, y), x
    strictly increasing with at least 3 knots (Fritsch & Carlson, SIAM J.
    Numer. Anal. 1980), with nan outside [x[0], x[-1]].

    The arithmetic is scipy's ``PchipInterpolator(x, y, extrapolate=False)``
    step for step, so the values are bitwise equal: the knot derivative is
    0 where the neighbouring slopes differ in sign or either is 0, else
    their weighted harmonic mean; the end knots take ``_edge_slope``; each
    interval's cubic is summed in powers of the offset from its left knot.
    """

    def __init__(self, x, y):
        self.x = x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.empty_like(y)
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d[0] = _edge_slope(h[0], h[1], m[0], m[1])
        d[-1] = _edge_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self._c = (t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])

    def __call__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        x = self.x
        inside = (v >= x[0]) & (v <= x[-1])
        # the last knot belongs to the last interval
        i = np.clip(np.searchsorted(x, v, "right") - 1, 0, x.size - 2)
        s = np.where(inside, v - x[i], 0.0)  # no power of s overflows outside
        c0, c1, c2, c3 = (c[i] for c in self._c)
        return np.where(inside, 0.0 + c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s), np.nan)


@dataclass(frozen=True)
class DensityGrid:
    """PDF/CDF on a uniform grid plus the monotone inverse CDF.

    ``pdf`` is clipped nonnegative and renormalized to unit trapezoid mass,
    unlike the likelihood's density; ``cdf`` is the renormalized cumulative
    trapezoid.  ``quantile_table`` is the monotone (PCHIP) inverse of the
    cdf restricted to its strictly increasing section, built on first
    access; ``pdf_at`` builds a pdf PCHIP on each call.
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
    def quantile_table(self) -> "_Pchip":
        keep = np.concatenate(([True], np.diff(self.cdf) > 1e-15))
        return _Pchip(self.cdf[keep], self.x[keep])

    def pdf_at(self, x):
        """PDF interpolated at arbitrary points; zero outside the grid."""
        out = _Pchip(self.x, self.pdf)(x)
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
    if not np.all((u_arr > 0.0) & (u_arr < 1.0)):
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


# Frequency nodes per block of invert_cf: a power of two, so a block of
# min(n, _BLOCK) nodes starting at a multiple of its size lies inside one
# half-period [qn, (q+1)n) of the fold, whose nodes land on distinct,
# consecutive bins.
_BLOCK = 4096


def _fold_data(g: GridSpec, k: np.ndarray) -> tuple:
    """(bins, sign, w, to_x) of the frequency nodes k: the half-spectrum bin
    of each node under the forward DFT e^(-2 pi i k j / N) and the sign of
    its imaginary part there, -1 where node k lands conjugated on bin
    N - (k mod N); the trapezoid weight times the x_min shift phase; and the
    factor that scales a spectrum value before the fold.  Each entry depends
    on its own node only."""
    n = g.n_points
    dx, _, top = _spacings(g)
    m = k % (2 * n)
    bins = np.where(m > n, 2 * n - m, m)
    sign = np.where(m > n, -1.0, 1.0)
    w = np.where(k == top, 0.5, 1.0) \
        * np.exp(-1j * np.pi * phase_mod2(g.x_min / (n * dx), k))
    # irfft counts bins 0 and n once and every other bin twice, so a node
    # k > 0 folded onto 0 or n carries its mirror -k there itself
    to_x = np.where((k > 0) & (bins % n == 0), 2.0, 1.0) * w / dx
    return bins, sign, w, to_x


def _fold(spectrum, bins, sign, t) -> None:
    """Add the node terms t (spectrum values times to_x) onto their bins of
    the half spectrum; irfft sums e^(+2 pi i k j / N), so the spectrum is
    stored conjugated.  Each bin's sum starts at +0.0 and takes its terms in
    node order."""
    size = spectrum.size
    spectrum.real += np.bincount(bins, t.real, size)
    spectrum.imag += np.bincount(bins, -sign * t.imag, size)


def _clipped(pdf, x, g: GridSpec) -> tuple:
    """(``pdf`` clipped nonnegative, its trapezoid mass on ``x``).  Raises
    NormalizationError when the mass deviates from 1 by more than 1e-3 or is
    not finite."""
    pdf = np.where(pdf < 0.0, 0.0, pdf)  # trapezoid ringing is tiny by contract
    mass = float(np.trapezoid(pdf, x))
    if not abs(mass - 1.0) <= 1e-3:
        cause = (f"density mass {mass:.6f} deviates from 1 by more than 1e-3"
                 if np.isfinite(mass) else f"density mass is not finite ({mass})")
        raise NormalizationError(
            f"{cause} ({g.n_points} points, xi_max={g.xi_max:g}, "
            f"x-range [{g.x_min:g}, {g.x_max:g}])")
    return pdf, mass


class InversionPlan:
    """Every array of the inversion that depends only on the grid.

    The density on the n x nodes is the trapezoid sum over the frequencies
    k dxi, |k| <= K, (1/2pi) sum_k w_k cf(xi_k) e^(-i xi_k x) dxi, with
    w = 1/2 at |k| = K (Carr & Madan 1999).  Since dxi dx = 2 pi / N, the sum
    is one real inverse FFT of length N = 2n after the x_min shift phase
    e^(-i k dxi x_min).  Node k adds to bin k mod N of the stored half
    spectrum, or conjugated to bin N - (k mod N) where k mod N > N/2; the fold
    is exact for any K, since the DFT sees only k mod N.  Built once per
    GridSpec, so ``raw``, ``pdf`` and ``adjoint`` cost one real FFT each; it
    keeps K-length arrays, which ``invert_cf`` does not hold.
    """

    def __init__(self, g: GridSpec):
        n = g.n_points
        dx, dxi, top = _spacings(g)
        k = np.arange(top + 1)
        self.grid = g
        self.x = np.linspace(g.x_min, g.x_max, n)
        self.dx = dx
        self.xi_half = k * dxi
        # raw scales the spectrum by to_x before the fold, adjoint scales its
        # read-back by to_xi
        self.bins, self.sign, w, self.to_x = _fold_data(g, k)
        self.to_xi = np.where(k > 0, 2.0, 1.0) * w / (2 * n * dx)
        for arr in (self.x, self.xi_half, self.bins, self.sign, self.to_x, self.to_xi):
            arr.setflags(write=False)

    def raw(self, cf_half) -> np.ndarray:
        """The unclipped trapezoid inversion on ``x`` of a Hermitian spectrum
        given on ``xi_half``: the fold and one irfft.  Linear over the reals,
        so a spectrum d/dtheta e^psi gives the theta-derivative of the
        unclipped density."""
        n = self.grid.n_points
        spectrum = np.zeros(n + 1, dtype=complex)
        _fold(spectrum, self.bins, self.sign, self.to_x * cf_half)
        return np.fft.irfft(spectrum, 2 * n)[:n]

    def adjoint(self, c) -> np.ndarray:
        """The transpose of ``raw`` for a real weight vector ``c`` on ``x``: the
        half spectrum a with ``c @ raw(s) == Re(a @ s)`` for every spectrum s
        on ``xi_half``.  One rfft of the zero-padded ``c``, read back at each
        node's bin."""
        r = np.fft.rfft(c, 2 * self.grid.n_points)
        return self.to_xi * (r.real[self.bins] + 1j * self.sign * r.imag[self.bins])

    def pdf(self, cf_half) -> tuple:
        """(``raw`` clipped nonnegative on ``x``, its trapezoid mass, short of
        1 by the tail mass outside the window) from the characteristic
        function on ``xi_half``.  Raises NormalizationError when the mass
        deviates from 1 by more than 1e-3 or is not finite."""
        return _clipped(self.raw(cf_half), self.x, self.grid)


def _raw_in_blocks(exponent, g: GridSpec) -> np.ndarray:
    """``InversionPlan(g).raw`` of exp(exponent), bit for bit, holding one
    block of nodes at a time.  A block meets each bin at most once, so adding
    its bincount to the running spectrum adds each bin's terms in node order,
    as one bincount over all nodes does."""
    n = g.n_points
    _, dxi, top = _spacings(g)
    block = min(n, _BLOCK)
    for start in range(0, top + 1, block):
        k = np.arange(start, min(start + block, top + 1))
        cf = np.exp(exponent(k * dxi))
        if not start:  # made after the first call, so that call's peak is its own
            spectrum = np.zeros(n + 1, dtype=complex)
        bins, sign, _, to_x = _fold_data(g, k)
        # a fold onto the block's window of bins costs nothing that grows with n
        lo = bins.min()
        _fold(spectrum[lo:lo + k.size], bins - lo, sign, to_x * cf)
    return np.fft.irfft(spectrum, 2 * n)[:n]


def invert_cf(exponent, g: GridSpec) -> DensityGrid:
    """Recover the density f(x) = (1/2pi) integral cf(xi) e^(-i x xi) dxi.

    ``exponent`` maps an array of frequencies to the log characteristic
    function; it must satisfy exponent(0)=0 and Hermitian symmetry (only the
    nonnegative half is evaluated, the rest is mirrored), and be elementwise:
    its value at a frequency must not depend on the array around it.  The
    oscillatory integral is evaluated as a trapezoid sum collapsed onto the x
    grid by one real inverse FFT.  The exponent is called on consecutive
    blocks of at most min(n_points, 4096) nodes, which are folded onto the
    spectrum one at a time, so memory does not grow with K.

    Raises NormalizationError if the recovered mass deviates from 1 by more
    than 1e-3 or is not finite; tiny negative ringing lobes are clipped to
    zero and the table renormalized, as the likelihood's density is not.
    """
    # x is made after the exponent calls, and the raw density is not kept past
    # its clip, so neither adds to a peak
    pdf, mass = _clipped(_raw_in_blocks(exponent, g),
                         x := np.linspace(g.x_min, g.x_max, g.n_points), g)
    pdf = pdf / mass
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * _spacings(g)[0])))
    cdf = np.minimum(cdf / cdf[-1], 1.0)
    return DensityGrid(x, pdf, cdf, raw_mass=mass)


def cf_on_grid(d: DensityGrid, xi) -> np.ndarray:
    """Re-transform the grid density back to characteristic-function values
    (trapezoid in x).  Used to audit inversion round trips."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return np.trapezoid(np.exp(1j * np.outer(xi, d.x)) * d.pdf, d.x, axis=1)


# default_xi_max's target log-modulus, the largest cutoff it accepts, its
# bisection steps and the steps each call of the exponent probes ahead
_TAIL_LOG = np.log(1e-12)
_XI_CAP = 1e7
_BISECT_STEPS = 60
_STEPS_PER_CALL = 6


def default_xi_max(exponent) -> float:
    """Smallest frequency where |cf| = exp(Re exponent) falls below 1e-12.

    Brackets the cutoff by doubling from 1, then bisects until the midpoint
    rounds to an end of the bracket (at most 60 steps), after which no step
    could move the result.  The exponent is called on arrays: once at the 24
    powers of two up to 1e7, and then once per 6 bisection steps, at the 63
    midpoints those steps could probe, computed as each step would compute
    them.  So the cutoff is bitwise that of step-by-step scalar probes
    whenever the exponent's value at a point does not depend on the array
    around it.  That is 10 calls for the presets' GTS, SD and BDLP laws and
    for their increments at lambda dt = 0.1 and 1.
    Raises NormalizationError, quoting |cf| at 1e7, if the doubling passes
    1e7 before |cf| falls below 1e-12.
    """
    doubling = 2.0 ** np.arange(int(np.log2(_XI_CAP)) + 1)
    above = np.real(exponent(doubling)) > _TAIL_LOG
    if above.all():
        raise NormalizationError(
            "characteristic function decays too slowly: no usable "
            f"frequency cutoff below {_XI_CAP:g} (|cf| = "
            f"{np.exp(np.real(exponent(_XI_CAP))):.3g} there)"
        )
    k = int(np.argmin(above))
    lo, hi = (float(doubling[k - 1]) if k else 0.0), float(doubling[k])
    for _ in range(_BISECT_STEPS // _STEPS_PER_CALL):
        # the bracket ends after each step, in order: bracket j's midpoint
        # splits it into brackets 2j and 2j + 1 of the next step
        ends, mids = [lo, hi], []
        for _ in range(_STEPS_PER_CALL):
            mids.append([0.5 * (a + b) for a, b in zip(ends, ends[1:])])
            ends = [v for pair in zip(ends, mids[-1]) for v in pair] + [hi]
        above = np.real(exponent(np.array(sum(mids, [])))) > _TAIL_LOG
        j = 0
        for step, mid in enumerate(mids):
            if not lo < mid[j] < hi:
                return hi
            if above[2**step - 1 + j]:
                lo, j = mid[j], 2 * j + 1
            else:
                hi, j = mid[j], 2 * j
    return hi


def default_grid(exponent, mean: float, std: float, n_points: int = 16384,
                 span: float = 15.0, xi_max: float | None = None) -> GridSpec:
    """Grid of exactly ``n_points`` x nodes spanning mean +- span standard
    deviations, frequency cutoff at |cf| < 1e-12 unless ``xi_max`` is given.

    ``InversionPlan`` gives the trapezoid sum exactly at every node for any
    point count, so ``n_points`` sets only the x spacing.  ValueError unless
    ``span`` is finite and > 0.
    """
    if not (np.isfinite(span) and span > 0.0):
        raise ValueError(f"span must be finite and > 0, got {span!r}")
    if xi_max is None:
        xi_max = default_xi_max(exponent)
    return GridSpec(n_points=n_points, x_min=mean - span * std,
                    x_max=mean + span * std, xi_max=xi_max)
