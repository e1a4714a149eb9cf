"""Generalized tempered stable (GTS) distribution toolkit.

Closed-form cumulants and characteristic exponents for the GTS law, the
background driving Levy process of its OU representation, and the
self-decomposable stationary law driven by a GTS process; FFT-based density
inversion; Newton maximum likelihood with the analytic score and Hessian;
exact simulation of the two stationary OU-type processes; and a validation
suite pinning the numerics to closed-form moments.
"""

import importlib
import sys
import types

# Public name -> the submodule that defines it.  ``import gtsou`` loads none
# of them; each resolves on first access (PEP 562), so a command pays only for
# the submodules that it uses.  scipy is imported by three functions alone:
# sd_exponent_unit_form, and the incomplete gammas at orders s > 0.
_SOURCES = {
    "cumulants": ("Cumulants", "Marginal", "StationaryMoments", "cumulants",
                  "stationary_moments"),
    "estimation": ("FitState", "FitTrace", "fit", "fit_grid", "log_likelihood",
                   "max_eigenvalue", "moment_matched_init", "score_and_hessian",
                   "trace_rows"),
    "exponents": ("bdlp_exponent", "psi_gts", "psi_one_sided", "sd_exponent",
                  "sd_exponent_unit_form"),
    "frft": ("frft",),
    "inversion": ("DensityGrid", "GridSpec", "NormalizationError", "cf_on_grid",
                  "default_grid", "default_xi_max", "invert_cf", "quantile"),
    "io": ("ReturnSeries", "SeriesKind", "emit_series", "ingest"),
    "levy": ("Activity", "VariationDiagnostics", "bdlp_upper_tail_mass",
             "gts_upper_tail_mass", "levy_density_bdlp", "levy_density_gts",
             "levy_density_sd", "variation_diagnostics"),
    "ou": ("IncrementSampler", "MomentReport", "OuConfig", "SamplePath",
           "build_increment_sampler", "burn_in_length", "empirical_moments",
           "ensemble_moments", "increment_cumulants", "increment_exponent",
           "marginal_exponent", "path_moments", "sample_marginal",
           "simulate_ensemble", "simulate_path", "simulate_paths"),
    "params": ("CRYPTO_PARAMS", "EQUITY_PARAMS", "PARAM_NAMES", "PRESETS",
               "GtsParams"),
    "special": ("lower_incomplete_gamma", "upper_incomplete_gamma"),
    "validation": ("ALL_CHECK_IDS", "REFERENCE", "CheckResult", "run_all"),
}
_SOURCE_OF = {name: module for module, names in _SOURCES.items() for name in names}


def __getattr__(name):
    module = _SOURCE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCE_OF))


class _Package(types.ModuleType):
    """Importing ``gtsou.cumulants`` or ``gtsou.frft`` binds the submodule on
    the package; keep the function of the same name bound there instead."""

    def __setattr__(self, name, value):
        if isinstance(value, types.ModuleType) and _SOURCE_OF.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__version__ = "0.1.0"

__all__ = sorted(_SOURCE_OF, key=lambda name: (name[0].islower(), name.lower()))
