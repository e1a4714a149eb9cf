"""Tests for the validation harness itself.

These exercise the reporting machinery -- ID selection, clause formatting,
mutation sensitivity, crash capture -- using the cheap check groups; the C7
mutation tests each simulate the check's 50 SD paths.
The full battery at its stated tolerances runs in test_acceptance.py.
"""

from dataclasses import replace

import numpy as np
import pytest

from gtsou import (
    ALL_CHECK_IDS,
    CheckResult,
    Marginal,
    cumulants,
    levy_density_sd,
    run_all,
    simulate_path,
    stationary_moments,
)
from gtsou import validation


def test_all_check_ids_complete_and_ordered():
    assert ALL_CHECK_IDS == (
        "C1", "C2a", "C2b", "C3", "C4", "C5", "C6", "C7a", "C7b", "C8", "C9",
    )


def test_run_single_group():
    results = run_all(["C1"])
    assert [r.check_id for r in results] == ["C1"]
    assert results[0].passed
    assert "kappa1" in results[0].detail


def test_subcheck_selects_whole_group_case_insensitive():
    results = run_all(["c2b"])
    assert [r.check_id for r in results] == ["C2a", "C2b"]


def test_unknown_id_rejected():
    with pytest.raises(ValueError, match="unknown check ids"):
        run_all(["C1", "C99"])


def test_cheap_groups_pass():
    results = run_all(["C1", "C3", "C4", "C9"])
    assert {r.check_id for r in results} == {"C1", "C3", "C4", "C9"}
    for r in results:
        assert r.passed, f"{r.check_id}: {r.detail}"
        assert r.seconds >= 0.0


def test_result_fields():
    (r,) = run_all(["C1"])
    assert isinstance(r, CheckResult)
    clauses = r.detail.split("; ")
    assert len(clauses) == 2  # one clause per preset
    assert all(c.endswith("[ok]") for c in clauses)


def test_mean_check_detects_corrupted_cumulants():
    class Shifted:
        def __init__(self, p, kmax):
            self.base = cumulants(p, kmax)

        def __getitem__(self, k):
            return self.base[k] + 5e-4

    (r,) = validation.check_mean_cumulant(cumulants_fn=Shifted)
    assert not r.passed
    assert "[FAIL]" in r.detail


def test_shape_check_detects_corrupted_moments():
    def inflated(p, mode):
        sm = stationary_moments(p, mode)
        return replace(sm, skewness=sm.skewness + 0.01)

    r2a, _ = validation.check_shape_indicators(moments_fn=inflated)
    assert r2a.check_id == "C2a"
    assert not r2a.passed


def test_std_check_detects_corrupted_std():
    def widened(p, mode):
        sm = stationary_moments(p, mode)
        return replace(sm, variance=sm.variance * 1.02**2)

    (r,) = validation.check_std_dev_columns(moments_fn=widened)
    assert not r.passed


def test_asymptotics_check_detects_wrong_scale_factor():
    def unscaled(x, p):
        side = "plus" if x > 0 else "minus"
        lam, beta = getattr(p, f"lambda_{side}"), getattr(p, f"beta_{side}")
        return levy_density_sd(x, p) / lam**beta

    (r,) = validation.check_sd_density_asymptotics(density_fn=unscaled)
    assert not r.passed
    assert all(c.endswith("[FAIL]") for c in r.detail.split("; "))


def _transformed_paths(transform):
    def path_fn(*args, **kwargs):
        path = simulate_path(*args, **kwargs)
        return replace(path, x=transform(path.x))

    return path_fn


def _failed_clauses(r):
    return [c for c in r.detail.split("; ") if c.endswith("[FAIL]")]


def test_simulation_check_detects_scaled_paths():
    r7a, _ = validation.check_simulation_convergence(
        path_fn=_transformed_paths(lambda x: 1.03 * x))
    assert r7a.check_id == "C7a"
    assert not r7a.passed
    assert any(c.startswith("std_dev") for c in _failed_clauses(r7a))


def test_simulation_check_detects_shifted_paths():
    # C7b's standard error is 2.28e-3, so a shift of +-0.02 moves z by 8.8:
    # the shifted average fails |z| <= 4 wherever the unshifted one lies
    # inside it, whatever the draws
    for shift in (0.02, -0.02):
        _, r7b = validation.check_simulation_convergence(
            path_fn=_transformed_paths(lambda x: x + shift))
        assert r7b.check_id == "C7b"
        assert not r7b.passed
        assert _failed_clauses(r7b)[0].startswith("mean")


def test_crashed_check_reports_instead_of_aborting(monkeypatch):
    def boom():
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(validation, "_GROUPS", (("C1", ("C1",), boom, ()),))
    (r,) = run_all(["C1"])
    assert not r.passed
    assert r.check_id == "C1"
    assert "RuntimeError: synthetic failure" in r.detail


def test_group_imports_precede_its_timer(monkeypatch):
    # a group's first-use scipy imports are not charged to its seconds
    events = []
    group_id, check_ids, _, modules = validation._GROUPS[7]
    assert group_id == "C8"
    monkeypatch.setattr(validation, "_GROUPS", ((group_id, check_ids, lambda: [], modules),))
    monkeypatch.setattr(validation.importlib, "import_module", events.append)
    clock = validation.time.perf_counter
    monkeypatch.setattr(validation.time, "perf_counter",
                        lambda: events.append("timer") or clock())
    run_all(["C8"])
    assert events == ["scipy.interpolate", "scipy.optimize", "timer", "timer"]


def test_run_all_is_the_only_clock():
    # a check called directly carries no time; run_all gives every result of
    # a group that group's time
    assert all(r.seconds == 0.0 for r in validation.check_shape_indicators())
    c2a, c2b = run_all(["C2"])
    assert c2a.seconds == c2b.seconds > 0.0


def test_reference_table_is_self_consistent():
    # The tabulated stationary variance columns must be squares of the
    # std-dev columns for the same law up to table rounding.
    for ref in validation.REFERENCE.values():
        assert ref["std_gts"] > ref["std_sd"] > 0.0
    eq = validation.REFERENCE["equity"]
    cr = validation.REFERENCE["crypto"]
    assert np.isclose(eq["std_gts"] / eq["std_sd"], np.sqrt(2.0), rtol=5e-3)
    assert np.isclose(cr["std_gts"] / cr["std_sd"], np.sqrt(2.0), rtol=5e-3)


def test_gts_marginal_matches_reference_means_directly():
    for name, p in validation.PRESETS.items():
        sm = stationary_moments(p, Marginal.GTS)
        assert sm.mean == pytest.approx(validation.REFERENCE[name]["mean"], abs=2e-4)
