"""Contract of the check table behind ``resodyn verify``."""

import importlib.util
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import chdtr
from scipy.stats import chi2, kstest

from resodyn import sample_couplings, sample_velocities_direct, statistics, verify

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


def test_coupling_widths_match_the_out_of_place_form():
    (z, p_value), _ = verify._coupling_widths(8, 3000)
    a = sample_couplings(3000, 2, 0.7, np.random.default_rng(8))
    reference_z = abs(a.var() - 0.7) / (0.7 * np.sqrt(2.0 / a.size))
    reference_p = kstest((a**2).sum(axis=1) / 0.7, partial(chdtr, 2)).pvalue
    assert (z, p_value) == (reference_z, reference_p)


def test_usable_cores(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert verify._usable_cores() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert verify._usable_cores() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verify._usable_cores() == 1


@pytest.mark.parametrize("cores", [1, 2])
def test_direct_draws_use_every_core(monkeypatch, cores):
    calls = []

    def shared(config, channels, **kwargs):
        calls.append((channels, config.realizations, kwargs))
        return {}

    def single(config, **kwargs):
        calls.append((config.n_channels, config.realizations, kwargs))
        return SimpleNamespace(values=np.linspace(-1.0, 1.0, 50))

    monkeypatch.setattr(verify, "_usable_cores", lambda: cores)
    monkeypatch.setattr(verify, "_sample_direct", shared)
    monkeypatch.setattr(verify, "sample_velocities_direct", single)
    monkeypatch.setattr(verify, "sample_velocities_representation",
                        lambda config: SimpleNamespace(values=np.linspace(-1.0, 1.0, 40)))
    verify.rigid_samples(11)
    verify._route_equivalence(11, (300, 7000))
    workers = {"workers": cores}
    assert calls == [((1, 2, 5, 10), 2000, workers), (2, 300, workers)]


def test_route_equivalence_at_the_largest_seed(monkeypatch):
    # the representation set takes the next seed, which wraps to 0
    seeds, draw = [], verify.sample_velocities_representation
    monkeypatch.setattr(verify, "sample_velocities_representation",
                        lambda config: seeds.append(config.seed) or draw(config))
    p_value, _ = verify._route_equivalence(2**64 - 1, (4, 100))
    assert seeds == [0] and 0.0 <= p_value <= 1.0


def _pf_config(n, window, m=3, realizations=1, seed=0):
    return statistics.EnsembleConfig(
        n_levels=n, n_channels=m, realizations=realizations, central_window=window,
        seed=seed, model="picket-fence", route="direct",
    )


def test_rigid_second_moment_is_the_finite_n_value():
    # at M=3 the exact E[y^2] is the finite-N factor on M/3 itself
    assert verify._rigid_second_moment(_pf_config(250, 25)) == pytest.approx(0.991156, abs=5e-7)
    assert verify._rigid_second_moment(_pf_config(12, 4)) == pytest.approx(0.826370, abs=5e-7)
    assert verify._rigid_second_moment(_pf_config(250, 25, m=10)) == pytest.approx(
        10 / 3 * 0.991156, abs=2e-6)
    factors = [verify._rigid_second_moment(_pf_config(n, 25)) for n in (250, 1000, 4000)]
    assert factors == sorted(factors) and 1.0 - factors[-1] < 6e-4


def test_rigid_variance_judged_at_finite_n():
    # at N=12 the exact second moment sits 17% below M/3, 10 to 23 standard
    # errors at this size; the check must centre on the exact value
    sets = statistics._sample_direct(_pf_config(12, 4, realizations=20_000, seed=31),
                                     (1, 2, 5), workers=1)
    result = verify.CHECKS["rigid_variance_monte_carlo"].run(sets)
    assert result.passed, result.detail
    assert "E[y^2]=0.27546" in result.detail


def test_rigid_checks_carry_the_draw_runtime(draws, monkeypatch):
    runtime = {"workers": 2, "reason": None, "blas": "OpenBLAS 0", "blas_threads": 1}
    sets = {m: SimpleNamespace(runtime=runtime) for m in verify.RIGID_CHANNELS}
    monkeypatch.setattr(verify, "rigid_samples", lambda seed: sets)
    results = verify.run_checks("full", seed=11)
    assert {r.name: r.runtime for r in results if r.runtime} == dict.fromkeys(RIGID, runtime)
    assert all(r.runtime is None for r in verify.run_checks("fast"))


@pytest.fixture
def blas_control():
    control = statistics._openblas()
    if control is None:
        pytest.skip("numpy's BLAS thread count cannot be controlled here")
    original = control.get()
    control.set(3)  # neither ambient count of the check, so a missed restore shows
    yield control
    control.set(original)


def test_thread_determinism_varies_the_ambient_blas_count(blas_control, monkeypatch):
    seen = []

    def spy(config, *, workers):
        seen.append((config.model, workers, blas_control.get()))
        return sample_velocities_direct(config, workers=workers)

    monkeypatch.setattr(verify, "sample_velocities_direct", spy)
    identical, detail = verify._thread_determinism(7, (4, 3))
    assert (identical, detail) == (True, "serial and 3-thread runs bit-identical")
    assert seen == [
        ("picket-fence", 1, 3), ("picket-fence", 3, 3), ("goe", 1, 1), ("goe", 1, 2),
    ]
    assert blas_control.get() == 3


def test_thread_determinism_restores_the_blas_count(blas_control, monkeypatch):
    def failing(config, *, workers):
        if config.model == "goe":
            raise RuntimeError("draw failed")
        return SimpleNamespace(values=np.zeros(3))

    monkeypatch.setattr(verify, "sample_velocities_direct", failing)
    with pytest.raises(RuntimeError, match="draw failed"):
        verify._thread_determinism(7, (4, 3))
    assert blas_control.get() == 3


def test_thread_determinism_without_blas_control(monkeypatch):
    kinds = []

    def spy(config, *, workers):
        kinds.append(config.model)
        return sample_velocities_direct(config, workers=workers)

    monkeypatch.setattr(verify, "_openblas", lambda: None)
    monkeypatch.setattr(verify, "sample_velocities_direct", spy)
    assert verify._thread_determinism(7, (4, 3)) == (
        True, "serial and 3-thread runs bit-identical")
    assert kinds == ["picket-fence", "picket-fence"]


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
