"""Exact simulation of the two stationary OU-type processes tied to the GTS
family: one whose marginal law is GTS itself (dressed by its background
driver), and one driven by a GTS process (self-decomposable marginal).

The autoregression X_i = a X_{i-1} + y_i with a = e^{-lambda dt} is exact in
law once y is drawn from the increment distribution, whose log-CF is
phi(xi) - phi(a xi) for the marginal exponent phi.  The increments are drawn
exactly from the random-integral representation (Qu, Dassios & Zhao, "Exact
simulation of Ornstein-Uhlenbeck tempered stable processes", J. Appl. Probab.
2021): per side of the jump measure, a tempered stable variate plus a
compound Poisson sum, with no grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np
from scipy.special import exprel
from scipy.special import gamma as _gamma

from .cumulants import Cumulants, Marginal, StationaryMoments, cumulants, stationary_moments
from .exponents import psi_gts, sd_exponent
from .inversion import default_grid, invert_cf, quantile
from .params import GtsParams
from .tempered import tempered_stable

# Longest lambda dt drawn in one piece.  The random integral over T splits at
# h into one over h plus e^-h times an independent one over T - h, so a long
# step is a damped sum of short ones.  One piece would cost e^(beta T): the
# CP rate and the TS parameter Lam both grow so (at T = 20, beta = 0.68,
# about 1e6 CP jumps per increment); sub-steps of at most 1 cost O(T).
_MAX_SUBSTEP = 1.0
# Longest lambda dt whose jumps are drawn.  Jumps older than this are damped
# by e^-37 < 2^-53 and vanish against the rest, so a longer step draws only
# its last 37 and costs at most 37 sub-steps.
_MAX_SPAN = 37.0
# Most steps a stationary start runs through, so lambda dt >= 37 / 2^20; at
# the cap one path's start takes about 60 MB of working arrays.
_MAX_START_STEPS = 2**20


@dataclass(frozen=True)
class OuConfig:
    """Mean-reversion rate, step size, marginal mode and run controls."""

    lambda_rate: float
    dt: float
    mode: Marginal = Marginal.SD
    x0: float | None = None  # None: draw the start from the stationary law
    n_steps: int = 5000
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.lambda_rate) and self.lambda_rate > 0.0):
            raise ValueError("lambda_rate must be positive and finite")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be positive and finite")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.x0 is not None and not np.isfinite(self.x0):
            raise ValueError(f"x0={self.x0} must be finite")

    @property
    def a(self) -> float:
        """One-step autoregression coefficient e^{-lambda dt}."""
        return float(np.exp(-self.lambda_rate * self.dt))

    @property
    def stationary_start(self) -> bool:
        return self.x0 is None


@dataclass(frozen=True)
class SamplePath:
    """Simulated path; x has length n_steps+1 with x[0] the initial value."""

    x: np.ndarray
    config: OuConfig
    stationary_start: bool

    def __post_init__(self):
        self.x.setflags(write=False)


def marginal_exponent(p: GtsParams, mode: Marginal):
    """Log-CF of the stationary marginal as a callable of the frequency."""
    if mode is Marginal.GTS:
        return lambda xi: psi_gts(xi, p)
    return lambda xi: sd_exponent(xi, p)


def increment_exponent(xi, p: GtsParams, c: OuConfig):
    """Log E[e^{i xi Y}] = phi(xi) - phi(a xi) for one step of size dt, with
    phi = ``marginal_exponent``.

    For SD the difference cancels at short steps (it is about lambda dt times
    psi_gts(xi)), so the few 1e-14 by which sd_exponent's running sum errs
    grow to at most 1e-13 / min(lambda dt, 1) relative on a 20001-point array:
    measured 6.8e-14 at lambda dt = 1, 2.2e-13 at 0.1 and 9.2e-13 at 0.01,
    against the inversion's own truncation floor of 1e-12.
    """
    phi = marginal_exponent(p, c.mode)
    return phi(xi) - phi(c.a * np.asarray(xi, dtype=float))


def increment_cumulants(p: GtsParams, c: OuConfig, kmax: int = 4) -> Cumulants:
    """kappa_k of one increment: kappa_k(marginal) * (1 - a^k)."""
    base = cumulants(p, kmax)
    damp = [1.0 - c.a**k for k in range(1, kmax + 1)]
    if c.mode is Marginal.GTS:
        vals = [base[k] * damp[k - 1] for k in range(1, kmax + 1)]
    else:
        vals = [base[k] / k * damp[k - 1] for k in range(1, kmax + 1)]
    return Cumulants(tuple(vals))


def _open_uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniforms on the open interval (0, 1): rng.random() can return 0."""
    u = rng.random(size)
    return np.maximum(u, np.finfo(float).tiny)


def sample_marginal(p: GtsParams, mode: Marginal, n: int,
                    rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the stationary marginal (GTS or SD) by
    inverse-transform sampling on its density, inverted on a grid of 8192
    points spanning 20 standard deviations either side of its mean."""
    if n < 1:
        raise ValueError("n must be >= 1")
    exponent = marginal_exponent(p, mode)
    sm = stationary_moments(p, mode)
    g = default_grid(exponent, sm.mean, sm.std_dev, n_points=8192, span=20.0)
    return np.asarray(quantile(invert_cf(exponent, g), _open_uniform(rng, n)))


def _exprel2(x: float) -> float:
    """(e^x - 1 - x) / x^2, which is 1/2 at x = 0."""
    if abs(x) < 1e-3:
        return 0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0 + x / 120.0))
    return (exprel(x) - 1.0) / x


def _side_jumps(rng: np.random.Generator, n: int, beta: float, alpha: float,
                lam: float, total: float, mode: Marginal) -> np.ndarray:
    """n draws of one side's jump part of the increment, TS + CP, where
    T = ``total`` = lambda dt and a = e^-T.

    Splitting the increment's Levy density at e^(-lam x / a) leaves a TS law
    with Levy density c x^(-1-beta) e^(-(lam/a) x), and a finite compound
    Poisson (CP) remainder whose jumps are Gamma(1-beta, rate lam e^V) for a
    random V in [0, T].  With k = alpha Gamma(1-beta) lam^beta:

    * gts mode: c = alpha (1 - a^beta), CP rate k expm1(beta T)/beta, and V
      has density ~ e^(beta V);
    * sd mode: c = alpha (1 - a^beta)/beta, CP rate
      k (expm1(beta T)/beta - T)/beta, and V has density ~ expm1(beta V).

    Each is written with expm1/exprel so that it holds at beta = 0, where gts
    mode has no TS part and its increment an atom."""
    if mode is Marginal.GTS:
        c = -alpha * np.expm1(-beta * total)
        rate = total * exprel(beta * total)
    else:
        c = alpha * total * exprel(-beta * total)
        rate = total * total * _exprel2(beta * total)
    ts = tempered_stable(rng, n, beta, c, lam * np.exp(total))
    counts = rng.poisson(alpha * _gamma(1.0 - beta) * lam**beta * rate, n)
    v = _mixing_times(rng, int(counts.sum()), beta, total, mode)
    jumps = rng.standard_gamma(1.0 - beta, v.size) / (lam * np.exp(v))
    return ts + np.bincount(np.repeat(np.arange(n), counts), jumps, minlength=n)


def _mixing_times(rng: np.random.Generator, n: int, beta: float, total: float,
                  mode: Marginal) -> np.ndarray:
    """n draws of V on [0, T] with density ~ e^(beta V) (gts), by inversion,
    or ~ expm1(beta V) (sd), by rejection from the gts law with acceptance
    (1 - e^(-beta V)) / (1 - e^(-beta T)) (V / T at beta = 0), at least 1/2
    on average."""
    def tilted(k):
        u = rng.random(k)
        return u * total if beta == 0.0 else np.log1p(u * np.expm1(beta * total)) / beta

    if mode is Marginal.GTS:
        return tilted(n)
    kept, got = [], 0
    top = total * exprel(-beta * total)
    while got < n:
        v = tilted(2 * (n - got) + 16)
        v = v[rng.random(v.size) * top < v * exprel(-beta * v)]
        kept.append(v)
        got += v.size
    return np.concatenate(kept)[:n] if kept else np.zeros(0)


@dataclass(frozen=True)
class IncrementSampler:
    """Immutable handle for exact increment draws.

    An increment is mu (1 - a) plus, for each side (sign, beta, alpha, lambda)
    of ``GtsParams.sides()``, sign times that side's TS + CP jump part
    (``_side_jumps``).  The jump part covers T = min(lambda dt, ``_MAX_SPAN``);
    when T exceeds ``_MAX_SUBSTEP`` it is the sum of n sub-step parts over
    h = T / n, the k-th damped by e^(-kh).  ``draw`` reads its randomness from
    ``rng`` alone, so the same stream gives the same draws."""

    params: GtsParams
    config: OuConfig

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        c = self.config
        total = c.lambda_rate * c.dt
        span = min(total, _MAX_SPAN)
        n_sub = max(1, ceil(span / _MAX_SUBSTEP))
        h = span / n_sub
        jumps = np.zeros(size)
        for _ in range(n_sub):
            jumps *= np.exp(-h)
            for sign, beta, alpha, lam in self.params.sides():
                if alpha > 0.0:
                    jumps += sign * _side_jumps(rng, size, beta, alpha, lam, h, c.mode)
        return -self.params.mu * np.expm1(-total) + jumps


def build_increment_sampler(p: GtsParams, c: OuConfig) -> IncrementSampler:
    """The exact increment sampler of (p, c); it inverts no characteristic
    function."""
    return IncrementSampler(p, c)


def _start_steps(c: OuConfig) -> int:
    """Steps m = ceil(37 / lambda dt) that a stationary start runs from mu,
    whose weight a^m <= e^-37 < 2^-53 then vanishes; at least 1, since
    lambda dt = inf gives 37 / inf = 0."""
    total = c.lambda_rate * c.dt
    if not total * _MAX_START_STEPS >= _MAX_SPAN:
        raise ValueError(
            f"a stationary start at lambda dt = {total:g} needs more than "
            f"{_MAX_START_STEPS} steps (lambda dt < 37 / 2^20); give a fixed "
            "start x0 (--x0)")
    return max(1, ceil(_MAX_SPAN / total))


def simulate_path(p: GtsParams, c: OuConfig,
                  sampler: IncrementSampler | None = None,
                  rng: np.random.Generator | None = None) -> SamplePath:
    """Run X_i = a X_{i-1} + y_i for n_steps exact draws.

    A stationary start runs the chain from mu through ``_start_steps(c)``
    more exact draws and keeps the last n_steps + 1 values.  The recursion
    is evaluated as a linear filter, so the whole path costs O(n) after the
    draws.  With rng omitted, the stream is seeded from the config; passing
    an explicit generator supports ensemble spawning.
    """
    if sampler is None:
        sampler = build_increment_sampler(p, c)
    if sampler.config != c or sampler.params != p:
        raise ValueError("sampler was built for a different (params, config)")
    from scipy.signal import lfilter  # here, not at import: scipy.signal takes ~0.9 s to load

    if rng is None:
        rng = np.random.default_rng(c.seed)

    m = _start_steps(c) if c.stationary_start else 0
    x0 = p.mu if c.stationary_start else float(c.x0)
    n = m + c.n_steps
    y = sampler.draw(rng, n)

    a = c.a
    w = lfilter([1.0], [1.0, -a], y)  # w[i] = sum_{j<=i} a^(i-j) y[j]
    x = np.empty(n + 1)
    x[0] = x0
    x[1:] = a ** np.arange(1, n + 1) * x0 + w
    return SamplePath(x[m:].copy(), c, c.stationary_start)


def simulate_ensemble(p: GtsParams, c: OuConfig, n_paths: int,
                      sampler: IncrementSampler | None = None) -> list:
    """n_paths independent paths with per-path child streams spawned from the
    config seed, so the ensemble is reproducible and order-independent."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if sampler is None:
        sampler = build_increment_sampler(p, c)
    streams = np.random.SeedSequence(c.seed).spawn(n_paths)
    return [simulate_path(p, c, sampler, rng=np.random.default_rng(s)) for s in streams]


def empirical_moments(values) -> dict:
    """Plain sample mean/variance/skewness/kurtosis (kurtosis not excess)."""
    v = np.asarray(values, dtype=float)
    mean = float(v.mean())
    cen = v - mean
    m2 = float(np.mean(cen**2))
    if m2 == 0.0:
        return {"mean": mean, "variance": 0.0, "std_dev": 0.0,
                "skewness": float("nan"), "kurtosis": float("nan")}
    m3 = float(np.mean(cen**3))
    m4 = float(np.mean(cen**4))
    return {
        "mean": mean,
        "variance": m2,
        "std_dev": float(np.sqrt(m2)),
        "skewness": m3 / m2**1.5,
        "kurtosis": m4 / m2**2,
    }


@dataclass(frozen=True)
class MomentReport:
    """Empirical vs exact stationary indicators, with signed relative errors
    in percent.  The standard deviation is reported alongside the variance;
    summary rows quote the standard deviation."""

    empirical: dict
    theoretical: StationaryMoments
    relative_error_pct: dict
    degenerate: bool
    n_observations: int

    INDICATORS = ("mean", "std_dev", "skewness", "kurtosis")

    def table_rows(self) -> list:
        """(indicator, exact, empirical, error %) for the four headline rows."""
        exact = self.theoretical.as_dict()
        return [
            (name, exact[name], self.empirical[name], self.relative_error_pct[name])
            for name in self.INDICATORS
        ]

    def to_dict(self) -> dict:
        return {
            "n_observations": self.n_observations,
            "degenerate": self.degenerate,
            "empirical": dict(self.empirical),
            "theoretical": {**self.theoretical.as_dict(),
                            "mode": self.theoretical.mode.value},
            "relative_error_pct": dict(self.relative_error_pct),
        }


def burn_in_length(c: OuConfig) -> int:
    """Steps to discard before moments when the start is not stationary."""
    if c.stationary_start:
        return 0
    return int(max(100.0, np.ceil(10.0 / (c.lambda_rate * c.dt))))


def ensemble_moments(paths, p: GtsParams, c: OuConfig | None = None) -> MomentReport:
    """Sample moments of the pooled post-burn-in observations of one or more
    paths against the exact stationary values (pooling is valid: every
    retained observation follows the stationary law).  A zero-variance
    sample is flagged degenerate: its shape indicators and their errors are
    NaN."""
    if not paths:
        raise ValueError("no paths given")
    if c is None:
        c = paths[0].config
    pooled = []
    for path in paths:
        burn = 0 if path.stationary_start else burn_in_length(c)
        pooled.append(path.x[burn:])
    values = np.concatenate(pooled)
    if values.size < 100:
        raise ValueError(
            f"only {values.size} observations remain after burn-in; need at least 100"
        )
    return _report_from_values(values, p, c)


def path_moments(path: SamplePath, p: GtsParams, c: OuConfig | None = None) -> MomentReport:
    """``ensemble_moments`` of a single path."""
    return ensemble_moments([path], p, c)


def _report_from_values(values: np.ndarray, p: GtsParams, c: OuConfig) -> MomentReport:
    emp = empirical_moments(values)
    theo = stationary_moments(p, c.mode)
    exact = theo.as_dict()
    errors = {
        k: 100.0 * (emp[k] - exact[k]) / abs(exact[k]) if np.isfinite(emp[k]) else float("nan")
        for k in exact
    }
    return MomentReport(
        empirical=emp,
        theoretical=theo,
        relative_error_pct=errors,
        degenerate=not np.isfinite(emp["skewness"]),
        n_observations=int(values.size),
    )
