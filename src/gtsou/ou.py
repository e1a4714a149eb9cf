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

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import ceil, gamma

import numpy as np

from .cumulants import Cumulants, Marginal, StationaryMoments, cumulants, stationary_moments
from .exponents import psi_gts, sd_exponent, sd_step_exponent
from .inversion import default_grid, invert_cf, quantile
from .params import GtsParams
from .tempered import kanter_proposals, tempered_stable_rows

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
# Most first-round Kanter proposals one ``draw_group`` call holds, summed over
# its generators.  A path's draw is about 140 numpy calls, on ~5.6k elements
# at lambda dt = 0.1, so grouping a few paths per call saves per-call overhead
# and the GIL hand-offs between calls; the budget keeps a group's buffers no
# larger than the largest single path's (equity SD at lambda dt = 1 proposes
# about 35k).  Groups of 4-5 paths at lambda dt = 0.1, 1-2 at 1.
_GROUP_PROPOSALS = 2**15


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
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 1:
            raise ValueError(f"n_steps must be an integer >= 1, got {self.n_steps!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
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

    def __post_init__(self):
        self.x.setflags(write=False)


def marginal_exponent(p: GtsParams, mode: Marginal):
    """Log-CF of the stationary marginal as a callable of the frequency."""
    if mode is Marginal.GTS:
        return lambda xi: psi_gts(xi, p)
    return lambda xi: sd_exponent(xi, p)


def increment_exponent(xi, p: GtsParams, c: OuConfig):
    """Log E[e^{i xi Y}] = phi(xi) - phi(a xi) for one step of size dt, with
    phi = ``marginal_exponent``; in SD mode ``sd_step_exponent`` over
    min(lambda dt, ``_MAX_SPAN``), as in the sampler (e^-37 < 2^-53)."""
    if c.mode is Marginal.GTS:
        return psi_gts(xi, p) - psi_gts(c.a * np.asarray(xi, dtype=float), p)
    return sd_step_exponent(xi, p, min(c.lambda_rate * c.dt, _MAX_SPAN))


def increment_cumulants(p: GtsParams, c: OuConfig, kmax: int = 4) -> Cumulants:
    """kappa_k of one increment: kappa_k(marginal) * (1 - a^k), SD's = GTS's / k."""
    base, sd = cumulants(p, kmax), c.mode is Marginal.SD
    return Cumulants(tuple(base[k] / (k if sd else 1) * (1.0 - c.a**k)
                           for k in range(1, kmax + 1)))


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


def exprel(x):
    """(e^x - 1) / x, which is 1 at x = 0, for a scalar or an array."""
    x = np.asarray(x, dtype=float)
    zero = x == 0.0
    out = np.where(zero, 1.0, np.expm1(x) / np.where(zero, 1.0, x))
    return out if out.ndim else float(out)


def _exprel2(x: float) -> float:
    """(e^x - 1 - x) / x^2, which is 1/2 at x = 0."""
    if abs(x) < 1e-3:
        return 0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0 + x / 120.0))
    return (exprel(x) - 1.0) / x


def _side_law(beta: float, alpha: float, lam: float, total: float,
              mode: Marginal) -> tuple:
    """(c, theta, mean count) of one side's jump part of the increment,
    TS + CP, where T = ``total`` = lambda dt and a = e^-T.

    Splitting the increment's Levy density at e^(-lam x / a) leaves a TS law
    with Levy density c x^(-1-beta) e^(-theta x), theta = lam/a, and a finite
    compound Poisson (CP) remainder whose jumps are Gamma(1-beta, rate
    lam e^V) for a random V in [0, T].  With k = alpha Gamma(1-beta) lam^beta:

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
    return c, lam * np.exp(total), alpha * gamma(1.0 - beta) * lam**beta * rate


def _side_jumps(rngs, n: int, beta: float, alpha: float, lam: float,
                total: float, mode: Marginal) -> np.ndarray:
    """One row of n draws of one side's jump part of the increment
    (``_side_law``) per generator in ``rngs``: the TS rows of
    ``tempered_stable_rows``, then each generator's CP sums."""
    c, theta, mean = _side_law(beta, alpha, lam, total, mode)
    out = tempered_stable_rows(rngs, n, beta, c, theta)
    for rng, row in zip(rngs, out):
        counts = rng.poisson(mean, n)
        v = _mixing_times(rng, int(counts.sum()), beta, total, mode)
        jumps = rng.standard_gamma(1.0 - beta, v.size) / (lam * np.exp(v))
        row += np.bincount(np.repeat(np.arange(n), counts), jumps, minlength=n)
    return out


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
        return self.draw_group([rng], size)[0]

    def draw_group(self, rngs, size: int) -> np.ndarray:
        """One row of ``size`` increments per generator in ``rngs``, row i bit
        for bit ``draw(rngs[i], size)``: each side's TS rows come from
        ``tempered_stable_rows``, whose Kanter round runs once for the group.
        The generators must be distinct."""
        c = self.config
        n_sub, h = _substeps(c)
        jumps = np.zeros((len(rngs), size))
        for _ in range(n_sub):
            jumps *= np.exp(-h)
            for sign, beta, alpha, lam in self.params.sides():
                if alpha > 0.0:
                    jumps += sign * _side_jumps(rngs, size, beta, alpha, lam, h, c.mode)
        return -self.params.mu * np.expm1(-c.lambda_rate * c.dt) + jumps


def _substeps(c: OuConfig) -> tuple:
    """(n, h): an increment's n sub-steps, each of lambda dt = h."""
    span = min(c.lambda_rate * c.dt, _MAX_SPAN)
    n_sub = max(1, ceil(span / _MAX_SUBSTEP))
    return n_sub, span / n_sub


def _group_size(p: GtsParams, c: OuConfig, size: int) -> int:
    """Generators per ``draw_group`` call of ``size`` increments: the most
    whose first Kanter rounds hold ``_GROUP_PROPOSALS`` proposals together,
    and at least one.  A generator's count is the most any side proposes,
    at least ``size``."""
    h = _substeps(c)[1]
    laws = [(beta, *_side_law(beta, alpha, lam, h, c.mode)[:2])
            for _, beta, alpha, lam in p.sides() if alpha > 0.0]
    most = max([1, size] + [kanter_proposals(size, *law) for law in laws])
    return max(1, _GROUP_PROPOSALS // most)


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


def _usable_cpus() -> int:
    """Cores this process may run on: its affinity set where the platform has
    one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate_paths(p: GtsParams, c: OuConfig, rngs,
                   sampler: IncrementSampler | None = None) -> list:
    """One path per generator in ``rngs``: X_i = a X_{i-1} + y_i from x0.

    Row 0 of one (steps + 1, paths) array holds x0 (mu for a stationary
    start), each column's rows below it that generator's exact draws y, and
    the recursion runs in place down the rows.  A stationary start runs
    ``_start_steps(c)`` more steps and keeps the last n_steps + 1 values.

    The draws run on w = min(len(rngs), usable cores) threads: share k draws
    generators k, k + w, ..., share 0 on the calling thread and shares 1 to
    w - 1 on a pool, which starts no thread when w = 1; numpy releases the GIL
    in its random fills and float loops.  A share is drawn in near-equal
    groups of at most ``_group_size`` generators, one ``draw_group`` call
    each.  A path reads its own generator alone, so the paths do not depend
    on the core count or the grouping.  A generator listed twice (or two
    sharing one bit generator) draws its paths in list order, each from where
    the previous one stopped, so such a list has w = 1 and groups of one.
    """
    if len(rngs) == 0:
        raise ValueError("rngs is an empty list: give one generator per path")
    if sampler is None:
        sampler = build_increment_sampler(p, c)
    if sampler.config != c or sampler.params != p:
        raise ValueError("sampler was built for a different (params, config)")

    m = _start_steps(c) if c.stationary_start else 0
    n = m + c.n_steps
    x = np.empty((n + 1, len(rngs)))
    x[0] = p.mu if c.stationary_start else c.x0

    def draw_share(k: int) -> None:
        share = range(k, len(rngs), workers)
        groups = -(-len(share) // group)
        for g in range(groups):
            cols = share[g * len(share) // groups:(g + 1) * len(share) // groups]
            x[1:, cols.start:cols.stop:cols.step] = sampler.draw_group(
                [rngs[j] for j in cols], n).T

    streams = {id(getattr(rng, "bit_generator", rng)) for rng in rngs}
    distinct = len(streams) == len(rngs)
    workers = min(len(rngs), _usable_cpus()) if distinct else 1
    group = _group_size(p, c, n) if distinct else 1
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        shares = pool.map(draw_share, range(1, workers))
        draw_share(0)
        list(shares)  # re-raises a worker's exception

    # a as an array (numpy would convert a Python float again on every row)
    # and the ufuncs bound once: the loop runs n times on rows of a few paths
    a, damped = np.full(len(rngs), c.a), np.empty(len(rngs))
    add, multiply = np.add, np.multiply
    prev = x[0]
    for row in x[1:]:
        add(row, multiply(prev, a, out=damped), out=row)
        prev = row
    return [SamplePath(column[m:].copy(), c) for column in x.T]


def simulate_path(p: GtsParams, c: OuConfig,
                  sampler: IncrementSampler | None = None,
                  rng: np.random.Generator | None = None) -> SamplePath:
    """``simulate_paths`` of one generator; with rng omitted, the stream is
    seeded from the config."""
    if rng is None:
        rng = np.random.default_rng(c.seed)
    return simulate_paths(p, c, [rng], sampler)[0]


def simulate_ensemble(p: GtsParams, c: OuConfig, n_paths: int,
                      sampler: IncrementSampler | None = None) -> list:
    """n_paths independent paths with per-path child streams spawned from the
    config seed, so the ensemble is reproducible and order-independent."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    streams = np.random.SeedSequence(c.seed).spawn(n_paths)
    return simulate_paths(p, c, [np.random.default_rng(s) for s in streams], sampler)


def empirical_moments(values) -> dict:
    """Plain sample mean/variance/skewness/kurtosis (kurtosis not excess)."""
    v = np.asarray(values, dtype=float)
    mean = float(v.mean())
    cen = v - mean
    c2 = cen * cen  # products, not numpy's far slower pow
    m2 = float(np.mean(c2))
    if m2 == 0.0:
        return {"mean": mean, "variance": 0.0, "std_dev": 0.0,
                "skewness": float("nan"), "kurtosis": float("nan")}
    m3 = float(np.mean(c2 * cen))
    m4 = float(np.mean(c2 * c2))
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


def ensemble_moments(paths, p: GtsParams) -> MomentReport:
    """Sample moments of the pooled observations of one or more paths, each
    cut at ``burn_in_length`` of its own config, against the exact stationary
    values of their shared marginal mode (pooling is valid: every retained
    observation follows that stationary law).  A zero-variance sample is
    flagged degenerate: its shape indicators and their errors are NaN."""
    if not paths:
        raise ValueError("no paths given")
    if len({path.config.mode for path in paths}) > 1:
        raise ValueError("paths mix the gts and sd marginal modes; pool one mode at a time")
    values = np.concatenate([path.x[burn_in_length(path.config):] for path in paths])
    if values.size < 100:
        raise ValueError(
            f"only {values.size} observations remain after burn-in; need at least 100"
        )
    emp = empirical_moments(values)
    theo = stationary_moments(p, paths[0].config.mode)
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


def path_moments(path: SamplePath, p: GtsParams) -> MomentReport:
    """``ensemble_moments`` of a single path."""
    return ensemble_moments([path], p)
