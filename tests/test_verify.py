"""Contract of the check table behind ``resodyn verify``."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2, kstest

from resodyn import sample_couplings, verify

FAST = [
    "two_level_sum_rules",
    "closed_form_vs_eigensolver",
    "mixing_definition",
    "nonorthogonality_cross_check",
    "two_level_velocities_vs_finite_difference",
    "width_shift_route_consistency",
    "weak_coupling_vs_finite_difference",
    "trace_identity",
    "kernel_spot_values",
    "kernel_normalization",
    "velocity_pdf_normalization",
    "rigid_variance_quadrature",
    "goe_tail_exponent",
    "rigid_kernel_fourier_transform",
]
FULL = FAST + [
    "coupling_width_distribution",
    "goe_central_spacing",
    "rigid_variance_monte_carlo",
    "direct_route_chi_square",
    "route_equivalence",
    "thread_determinism",
]
RIGID = ["rigid_variance_monte_carlo", "direct_route_chi_square"]


@pytest.fixture
def draws(monkeypatch):
    """Stub every measure to return its tolerance; returns the rigid draws' seeds."""
    table = {
        name: replace(check, measure=lambda source, size, tol=check.tol: (tol, "stub"))
        for name, check in verify.CHECKS.items()
    }
    monkeypatch.setattr(verify, "CHECKS", table)
    seeds = []
    monkeypatch.setattr(verify, "rigid_samples", lambda seed: seeds.append(seed) or {})
    return seeds


def _raise(*args):
    raise RuntimeError("boom")


@pytest.mark.parametrize("level, names", [("fast", FAST), ("full", FULL)])
def test_levels_keep_names_and_order(draws, level, names):
    results = verify.run_checks(level, seed=11)
    assert [r.name for r in results] == names
    assert all(r.passed for r in results)
    for r in results:
        assert r.value == r.tolerance == verify.CHECKS[r.name].tol
        assert r.seconds >= 0.0


def test_coupling_width_ks_cdf_is_scipy_stats_chi2():
    (_, p_value), _ = verify._coupling_widths(5, 20000)
    a = sample_couplings(20000, 2, 0.7, np.random.default_rng(5))
    reference = kstest((a**2).sum(axis=1) / 0.7, chi2(df=2).cdf).pvalue
    assert p_value == reference


def test_rigid_samples_drawn_once_per_call(draws):
    verify.run_checks("full", seed=11)
    verify.run_checks("full", seed=12)
    assert draws == [11, 12]


def test_statistical_checks_are_monte_carlo(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    for name in workloads.STATISTICAL_CHECKS:
        assert verify.CHECKS[name].monte_carlo, name


def test_raising_check_is_reported_under_its_name(draws, monkeypatch):
    broken = replace(verify.CHECKS["mixing_definition"], measure=_raise)
    monkeypatch.setitem(verify.CHECKS, "mixing_definition", broken)
    results = verify.run_checks("fast")
    assert [r.name for r in results] == [
        "mixing_definition.raised" if name == "mixing_definition" else name
        for name in FAST
    ]
    failed = [r for r in results if not r.passed]
    assert [(r.name, r.detail) for r in failed] == [
        ("mixing_definition.raised", "raised RuntimeError('boom')")
    ]
    assert failed[0].value is None and failed[0].tolerance == 1e-12


def test_failed_rigid_draw_fails_every_check_on_it(draws, monkeypatch):
    monkeypatch.setattr(verify, "rigid_samples", _raise)
    results = verify.run_checks("full")
    assert [r.name for r in results if not r.passed] == [f"{name}.raised" for name in RIGID]
    assert len(results) == len(FULL)
