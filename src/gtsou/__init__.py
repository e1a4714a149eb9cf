"""Generalized tempered stable (GTS) distribution toolkit.

Closed-form cumulants and characteristic exponents for the GTS law, the
background driving Levy process of its OU representation, and the
self-decomposable stationary law driven by a GTS process; FFT-based density
inversion; Newton maximum likelihood with the analytic score and Hessian;
exact simulation of the two stationary OU-type processes; and a validation
suite pinning the numerics to closed-form moments.
"""

from .cumulants import (Cumulants, Marginal, StationaryMoments, cumulants,
                        stationary_moments)
from .estimation import (FitState, FitTrace, fit, fit_grid, log_likelihood,
                         max_eigenvalue, moment_matched_init, score_and_hessian,
                         trace_rows)
from .exponents import (bdlp_exponent, psi_gts, psi_one_sided, sd_exponent,
                        sd_exponent_unit_form)
from .frft import frft
from .inversion import (DensityGrid, GridSpec, NormalizationError, cf_on_grid,
                        default_grid, default_xi_max, invert_cf, quantile)
from .io import ReturnSeries, SeriesKind, emit_series, ingest
from .levy import (Activity, VariationDiagnostics, bdlp_upper_tail_mass,
                   gts_upper_tail_mass, levy_density_bdlp, levy_density_gts,
                   levy_density_sd, variation_diagnostics)
from .ou import (IncrementSampler, MomentReport, OuConfig, SamplePath,
                 build_increment_sampler, burn_in_length, empirical_moments,
                 ensemble_moments, increment_cumulants, increment_exponent,
                 marginal_exponent, path_moments, sample_marginal,
                 simulate_ensemble, simulate_path)
from .params import PARAM_NAMES, GtsParams
from .special import lower_incomplete_gamma, upper_incomplete_gamma
from .validation import (ALL_CHECK_IDS, CRYPTO_PARAMS, EQUITY_PARAMS, PRESETS,
                         REFERENCE, CheckResult, run_all)

__version__ = "0.1.0"

__all__ = [
    "Activity", "ALL_CHECK_IDS", "CheckResult", "CRYPTO_PARAMS", "Cumulants",
    "DensityGrid", "EQUITY_PARAMS", "FitState", "FitTrace", "GridSpec",
    "GtsParams", "IncrementSampler", "Marginal", "MomentReport",
    "NormalizationError", "OuConfig", "PARAM_NAMES", "PRESETS", "REFERENCE",
    "ReturnSeries", "SamplePath", "SeriesKind", "StationaryMoments",
    "VariationDiagnostics", "bdlp_exponent",
    "bdlp_upper_tail_mass", "build_increment_sampler", "burn_in_length",
    "cf_on_grid", "cumulants", "default_grid", "default_xi_max",
    "emit_series", "empirical_moments", "ensemble_moments", "fit", "fit_grid",
    "frft", "gts_upper_tail_mass", "increment_cumulants",
    "increment_exponent", "ingest", "invert_cf", "levy_density_bdlp",
    "levy_density_gts", "levy_density_sd", "log_likelihood",
    "lower_incomplete_gamma", "marginal_exponent", "max_eigenvalue",
    "moment_matched_init", "path_moments", "psi_gts", "psi_one_sided",
    "quantile", "run_all", "sample_marginal", "score_and_hessian",
    "sd_exponent", "sd_exponent_unit_form", "simulate_ensemble",
    "simulate_path", "stationary_moments", "trace_rows",
    "upper_incomplete_gamma", "variation_diagnostics",
]
