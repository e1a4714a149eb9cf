"""The benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one client in one process: an operation
starts only after the previous one returned, because every caller of this
library waits for its result.  A *pass* runs every operation of the workload
once; ``run.py`` repeats passes.  Inputs depend only on the seed.

The benchmark calls the library through module attributes
(``estimation.fit``, ``ou.build_increment_sampler``, ``cli.main``) so that the
traced run sees the wrapped functions.  The checks use references imported
here directly, which the tracer never replaces, so checking adds no spans.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import re
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from gtsou import cli, estimation, ou
from gtsou.cumulants import Marginal, stationary_moments
from gtsou.exponents import psi_gts
from gtsou.validation import EQUITY_PARAMS, PRESETS

# Seed of the C8 validation sample: its likelihood maximum is interior.
C8_SAMPLE_SEED = 4


@dataclass
class OpResult:
    """One operation: wall time of the program calls, and why it failed."""

    label: str
    wall_s: float = 0.0
    error: str | None = None  # "ExceptionType: message" if the program raised
    check: str | None = None  # which output check failed
    parts: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None or self.check is not None


def run_op(label: str, op) -> OpResult:
    """Run ``op(rec)``.  An exception marks the operation failed and is
    recorded with its type and message."""
    rec = OpResult(label)
    t0 = perf_counter()
    try:
        op(rec)
    except Exception as exc:  # the benchmark must keep running and report it
        rec.wall_s = perf_counter() - t0
        rec.error = f"{type(exc).__name__}: {exc}"
    return rec


def run_pass(workload) -> tuple:
    """Every operation of the workload once: (records, summed wall time)."""
    records = [run_op(label, op) for label, op in workload.ops()]
    return records, sum(r.wall_s for r in records)


def _sha256(payload) -> str:
    h = hashlib.sha256()
    if isinstance(payload, np.ndarray):
        h.update(np.ascontiguousarray(payload, dtype="<f8").tobytes())
    else:
        h.update(json.dumps(payload, sort_keys=True).encode())
    return h.hexdigest()


# --- fit ----------------------------------------------------------------------

class FitWorkload:
    """One C8 maximum-likelihood fit: 5000 GTS-marginal draws of the equity
    preset, moment-matched start, grad_tol 1e-3, at most 100 iterations.

    The sample is always C8's (drawn with validation seed 4, in that order),
    whatever the workload seed.  The finite-difference Newton path is
    sensitive to rounding: a permutation of the same sample took 49
    iterations instead of 39, and other samples took 40 s to over 80 s, or
    landed on the ``beta_minus -> 0`` ridge and raised StepCollision.  No
    bound on the spread between seeds could hold if the seed changed the data.
    """

    name = "fit"

    def __init__(self, seed: int, smoke: bool, out_dir: str):
        n = 500 if smoke else 5000
        self.data = ou.sample_marginal(EQUITY_PARAMS, Marginal.GTS, n,
                                       np.random.default_rng(C8_SAMPLE_SEED))
        self.max_iter = 2 if smoke else 100
        self.grid = None
        if smoke:
            init = estimation.moment_matched_init(self.data)
            self.grid = estimation.fit_grid(self.data, init, n_points=1024)
        self.inputs_sha256 = _sha256(self.data)

    def ops(self):
        return [("fit/equity-c8", self._fit)]

    def _fit(self, rec: OpResult) -> None:
        t0 = perf_counter()
        init = estimation.moment_matched_init(self.data)
        trace = estimation.fit(self.data, init, grad_tol=1e-3,
                               max_iter=self.max_iter, g=self.grid)
        rec.wall_s = perf_counter() - t0
        rec.check = check_fit(trace)

    @staticmethod
    def pass_metrics(records) -> dict:
        return {"fit_s": sum(r.wall_s for r in records)}


def check_fit(trace) -> str | None:
    """C8's five clauses; None when all hold."""
    final = trace.final
    xi = np.linspace(-5.0, 5.0, 201)
    sup = float(np.max(np.abs(psi_gts(xi, final.params) - psi_gts(xi, EQUITY_PARAMS))))
    logml = [s.log_likelihood for s in trace.states]
    problems = []
    if not trace.converged:
        problems.append(f"not converged ({trace.reason})")
    if not final.gradient_norm <= 1e-3:
        problems.append(f"gradient norm {final.gradient_norm:.3e} > 1e-3")
    if not final.max_eigenvalue < 0.0:
        problems.append(f"max eigenvalue {final.max_eigenvalue:.3e} >= 0")
    if not sup < 0.05:
        problems.append(f"sup|Psi_fit - Psi_true| = {sup:.4f} >= 0.05")
    if not all(b >= a - 1e-9 for a, b in zip(logml, logml[1:])):
        problems.append("log-likelihood decreased along the trace")
    return "; ".join(problems) or None


# --- simulate -----------------------------------------------------------------

class SimulateSweep:
    """The simulate part of ``simulate_density``: ``build_increment_sampler``
    then ``simulate_ensemble`` (stationary start, dt = 1) for
    {equity, crypto} x {gts, sd} x lambda in {0.1, 1}.

    Crypto gts at lambda = 0.1 needs more than 2^22 grid points and raises
    NormalizationError; it stays in the sweep as a counted failed operation.
    The seed seeds each ensemble.
    """

    name = "simulate"
    Z_BAND = 5.0  # standard errors allowed between pooled and exact variance

    def __init__(self, seed: int, smoke: bool, out_dir: str):
        if smoke:
            configs = [("equity", Marginal.GTS, 1.0), ("equity", Marginal.SD, 1.0)]
            self.n_paths, self.n_steps = 4, 200
        else:
            configs = [(preset, mode, lam) for preset in ("equity", "crypto")
                       for mode in (Marginal.GTS, Marginal.SD) for lam in (0.1, 1.0)]
            self.n_paths, self.n_steps = 32, 5000
        path_seeds = np.random.SeedSequence(seed).generate_state(len(configs))
        self.configs = [(preset, mode, lam, int(s))
                        for (preset, mode, lam), s in zip(configs, path_seeds)]
        self.inputs_sha256 = _sha256({
            "configs": [[preset, m.value, lam, s] for preset, m, lam, s in self.configs],
            "n_paths": self.n_paths, "n_steps": self.n_steps, "dt": 1.0})

    def ops(self):
        return [(f"simulate/{preset}-{m.value}-lambda{lam:g}",
                 lambda rec, preset=preset, m=m, lam=lam, s=s:
                 self._simulate(rec, preset, m, lam, s))
                for preset, m, lam, s in self.configs]

    def _simulate(self, rec: OpResult, preset, mode, lam, seed) -> None:
        p = PRESETS[preset]
        c = ou.OuConfig(lambda_rate=lam, dt=1.0, mode=mode, n_steps=self.n_steps,
                        seed=seed)
        rec.parts = {"build_s": 0.0, "draw_s": 0.0, "steps": 0}
        t0 = perf_counter()
        try:
            sampler = ou.build_increment_sampler(p, c)
        finally:
            rec.parts["build_s"] = perf_counter() - t0
        t1 = perf_counter()
        paths = ou.simulate_ensemble(p, c, self.n_paths, sampler)
        t2 = perf_counter()
        rec.wall_s = t2 - t0
        rec.parts.update(draw_s=t2 - t1, steps=self.n_paths * self.n_steps)
        rec.check = self.check_paths(paths, p, mode)

    def check_paths(self, paths, p, mode) -> str | None:
        """Pooled variance against the exact stationary variance, within
        Z_BAND standard errors.  The standard error comes from the spread of
        the per-path variances, which are independent across paths whatever
        the autocorrelation inside a path."""
        exact = stationary_moments(p, mode).variance
        pooled = np.concatenate([path.x for path in paths])
        per_path = np.array([np.var(path.x) for path in paths])
        se = float(np.std(per_path, ddof=1) / np.sqrt(per_path.size))
        got = float(np.var(pooled))
        if not np.isfinite(got) or abs(got - exact) > self.Z_BAND * se:
            return (f"pooled variance {got:.5g} vs exact {exact:.5g}: off by more "
                    f"than {self.Z_BAND:g} standard errors ({se:.3g})")
        return None

    @staticmethod
    def pass_metrics(records) -> dict:
        draw_s = sum(r.parts.get("draw_s", 0.0) for r in records)
        steps = sum(r.parts.get("steps", 0) for r in records)
        return {
            "sampler_build_s": sum(r.parts.get("build_s", 0.0) for r in records),
            "path_steps_per_s": steps / draw_s if draw_s > 0.0 else 0.0,
        }


# --- density ------------------------------------------------------------------

class DensityCalls:
    """The density part of ``simulate_density``: in-process ``gtsou density``
    for every law and both presets, writing into a directory that is emptied
    after every call.

    The laws and presets are fixed; the seed is passed as ``--seed``.
    """

    name = "density"

    def __init__(self, seed: int, smoke: bool, out_dir: str):
        laws = ("gts", "bdlp", "sd", "increment")
        calls = [(preset, law) for preset in (("equity",) if smoke else ("equity", "crypto"))
                 for law in laws]
        self.out_dir = out_dir
        extra = ["--grid-n", "1024"] if smoke else []
        self.argvs = [["density", "--params", preset, "--law", law,
                       "--seed", str(seed), *extra] for preset, law in calls]
        self.inputs_sha256 = _sha256(self.argvs)

    def ops(self):
        return [(f"density/{argv[2]}-{argv[4]}", lambda rec, argv=argv: self._density(rec, argv))
                for argv in self.argvs]

    def _density(self, rec: OpResult, argv) -> None:
        out = os.path.join(self.out_dir, f"density_{argv[2]}_{argv[4]}.csv")
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            t0 = perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main([*argv, "--out", out])
            rec.wall_s = perf_counter() - t0
            rec.check = check_density_table(rc, stdout.getvalue(), stderr.getvalue(), out)
        finally:
            for path in (out, os.path.splitext(out)[0] + "_exponent.csv"):
                if os.path.exists(path):
                    os.remove(path)

    @staticmethod
    def pass_metrics(records) -> dict:
        return {"density_table_s": sum(r.wall_s for r in records)}


def check_density_table(rc: int, stdout: str, stderr: str, path: str) -> str | None:
    """Exit code 0, one row per grid point, CDF nondecreasing and ending at 1."""
    if rc != 0:
        return f"exit code {rc}: {stderr.strip()}"
    m = re.search(r"(\d+) points", stdout)
    if m is None:
        return "the CLI did not report the point count"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    cdf = np.array([float(r[2]) for r in rows[1:]])
    n_points = int(m.group(1))
    if cdf.size != n_points:
        return f"{cdf.size} rows for {n_points} grid points"
    if np.any(np.diff(cdf) < 0.0):
        return "CDF column decreases"
    if abs(cdf[-1] - 1.0) > 1e-12:
        return f"CDF ends at {cdf[-1]!r}, not 1"
    return None


# --- simulate_density -----------------------------------------------------------

class SimulateDensityWorkload:
    """The simulate sweep and the density calls in one pass, in an order the
    seed shuffles.

    Alone, each pass is 10 to 13 s, and on a shared machine whose speed
    drifts over tens of seconds one such pass per run spread its runs too
    widely.  Together one pass is about 23 s, and a full set of runs still
    stays within an hour.  The layers are the same:
    ``sampler_build_s``, ``path_steps_per_s`` and ``density_table_s`` stay
    separate per-layer metrics.
    """

    name = "simulate_density"

    def __init__(self, seed: int, smoke: bool, out_dir: str):
        self.parts = (SimulateSweep(seed, smoke, out_dir),
                      DensityCalls(seed, smoke, out_dir))
        self._ops = [op for part in self.parts for op in part.ops()]
        order = np.random.default_rng(seed).permutation(len(self._ops))
        self._ops = [self._ops[i] for i in order]
        self.inputs_sha256 = _sha256({
            "parts": [part.inputs_sha256 for part in self.parts],
            "order": [label for label, _ in self._ops]})

    def ops(self):
        return list(self._ops)

    def pass_metrics(self, records) -> dict:
        values = {}
        for part in self.parts:
            prefix = part.name + "/"
            values.update(part.pass_metrics([r for r in records
                                             if r.label.startswith(prefix)]))
        return values


# Each takes (seed, smoke, out_dir); out_dir is a temporary directory that only
# the density operations write to.
WORKLOADS = {"fit": FitWorkload, "simulate_density": SimulateDensityWorkload}
