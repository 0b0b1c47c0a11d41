"""Acceptance suite: every release criterion at its pinned tolerance.

Criteria 01-08 run entries of the check table in :mod:`resodyn.verify`, the
code behind ``resodyn verify``, at the sizes, seeds, tolerances and time
bounds pinned in :data:`CRITERIA`.  Each test prints one
`criterion NN (name): PASS/FAIL` line (visible with ``pytest -s``) and then
asserts, so a red run still reports every criterion it reached.  The
rigid-spectrum sample sets are drawn once per session and shared between
the variance and goodness-of-fit criteria.
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from resodyn import (
    TwoLevelParams,
    find_alpha_star,
    mixing_state,
    sweep,
    width_velocity,
)
from resodyn.cli import main as cli_main
from resodyn.verify import CHECKS, rigid_samples as draw_rigid_samples

RIGID_SEED = 7

# number: (name, time bound in s, seed, ((check, size, tolerance), ...)).
# An integer seed starts one generator that the checks draw from in turn;
# None marks deterministic checks or the shared rigid samples (RIGID_SEED).
CRITERIA = {
    1: ("sum rules", 10, 2001, (("two_level_sum_rules", (10_000, 801), 1e-12),)),
    2: ("closed form vs eigensolver", 10, 2001,
        (("closed_form_vs_eigensolver", 10_000, 1e-10),)),
    3: ("perturbation consistency", 30, 2003, (
        ("two_level_velocities_vs_finite_difference", 2000, 1e-4),
        ("width_shift_route_consistency", 20, 1e-10),
    )),
    4: ("weak-coupling velocity formula", 60, 2004,
        (("weak_coupling_vs_finite_difference", 100, 1e-3),)),
    5: ("equidistant-spectrum variance", 120, None, (
        ("rigid_variance_quadrature", None, 1e-6),
        ("rigid_variance_monte_carlo", None, 3.0),
    )),
    6: ("direct-matrix distribution reproduction", 900, None,
        (("direct_route_chi_square", None, 0.01),)),
    7: ("chaotic-spectrum tail", 10, None, (
        ("goe_tail_exponent", None, 0.05),
        ("kernel_spot_values", None, (2.0 / 3.0, math.pi / 4.0)),
    )),
    8: ("normalizations", 30, None, (
        ("kernel_normalization", None, 1e-10),
        ("velocity_pdf_normalization", None, 1e-6),
    )),
}


def report(number: int, name: str, passed: bool, detail: str):
    tag = "PASS" if passed else "FAIL"
    print(f"criterion {number:02d} ({name}): {tag} - {detail}")
    assert passed, f"criterion {number:02d} ({name}): {detail}"


def check_criterion(number: int, source=None, *extra):
    """Run a criterion's checks and report; `extra` adds (passed, detail) pairs."""
    name, bound_s, seed, pinned = CRITERIA[number]
    start = time.perf_counter()
    if seed is not None:
        source = np.random.default_rng(seed)
    results = [CHECKS[check].run(source, size, tol) for check, size, tol in pinned]
    elapsed = time.perf_counter() - start
    outcomes = [(r.passed, f"{r.name}: {r.detail}") for r in results] + list(extra)
    report(
        number, name, all(ok for ok, _ in outcomes) and elapsed < bound_s,
        "; ".join(detail for _, detail in outcomes) + f"; {elapsed:.1f}s (< {bound_s}s)",
    )


@pytest.fixture(scope="module")
def reference():
    return TwoLevelParams(
        delta=1.0, gamma1=0.5, gamma2=0.5, theta=np.pi / 10, d=1.0, v=0.75
    )


@pytest.fixture(scope="session")
def rigid_samples():
    return draw_rigid_samples(RIGID_SEED)


def test_criterion_01_sum_rules():
    check_criterion(1)


def test_criterion_02_closed_form_vs_eigensolver():
    check_criterion(2)


def test_criterion_03_perturbation_consistency():
    check_criterion(3)


def test_criterion_04_weak_coupling_formula():
    check_criterion(4)


def test_criterion_05_rigid_variance(rigid_samples):
    fewest = min(samples.n_samples for samples in rigid_samples.values())
    check_criterion(5, rigid_samples, (fewest >= 50_000, f"{fewest} samples per M (>= 5e4)"))


def test_criterion_06_direct_route_distribution(rigid_samples):
    check_criterion(6, rigid_samples)


def test_criterion_07_goe_tail():
    check_criterion(7)


def test_criterion_08_normalizations():
    check_criterion(8)


def test_criterion_09_nonorthogonality_link(reference):
    start = time.time()
    p = reference
    grid = np.linspace(-2.0, 2.0, 2001)
    resolution = grid[1] - grid[0]
    table = sweep(p, grid)

    # every orthogonality point is a width-velocity zero at the same strength
    from scipy.optimize import brentq

    def re_f(alpha):
        return mixing_state(p, alpha=float(alpha)).f.real

    def gdot(alpha):
        f = mixing_state(p, alpha=float(alpha)).f
        return width_velocity(f, p.d, p.v)[0]

    re_vals = table.f.real
    sign_flip = np.flatnonzero(np.sign(re_vals[:-1]) * np.sign(re_vals[1:]) < 0)
    exact_zero = np.flatnonzero(re_vals == 0.0)
    assert sign_flip.size + exact_zero.size >= 1
    worst_gap = 0.0
    for j in sign_flip:
        root_f = brentq(re_f, grid[j], grid[j + 1], xtol=1e-12)
        root_g = brentq(gdot, grid[j], grid[j + 1], xtol=1e-12)
        worst_gap = max(worst_gap, abs(root_f - root_g))
    for j in exact_zero:
        worst_gap = max(worst_gap, abs(gdot(grid[j])))

    # the velocity maximum tracks the nonorthogonality maximum
    alpha_star = find_alpha_star(p, (-2.0, 2.0))
    i = int(np.nanargmax(np.abs(re_vals)))
    gap_max = abs(alpha_star - grid[i])

    # with d = 0 the product d * Im f vanishes identically and the two
    # maxima coincide to root-finding accuracy
    sym = TwoLevelParams(delta=1.0, gamma1=0.5, gamma2=0.5, theta=np.pi / 10,
                         d=0.0, v=0.75)
    star_sym = find_alpha_star(sym, (-2.0, 2.0))
    from scipy.optimize import minimize_scalar

    ref_sym = minimize_scalar(
        lambda a: -abs(mixing_state(sym, alpha=float(a)).f.real),
        bounds=(-0.5, 0.5), method="bounded", options={"xatol": 1e-10},
    ).x
    gap_sym = abs(star_sym - ref_sym)
    elapsed = time.time() - start
    report(
        9, "nonorthogonality link",
        worst_gap <= 1e-8 and gap_max <= resolution and gap_sym <= 1e-6
        and elapsed < 10,
        f"zero positions agree to {worst_gap:.2e} (tol 1e-8); velocity/mixing "
        f"maxima within {gap_max:.4f} (scan resolution {resolution:.4f}); "
        f"symmetric case within {gap_sym:.2e} (tol 1e-6); {elapsed:.1f}s (< 10s)",
    )


def test_criterion_10_determinism(tmp_path):
    runner = CliRunner()
    blobs = []
    for tag, threads in (("a", "1"), ("b", "2")):
        for attempt in ("x", "y"):
            path = tmp_path / f"samples_{tag}{attempt}.csv"
            result = runner.invoke(
                cli_main,
                ["ensemble", "--model", "picket-fence", "--n", "250", "--m", "1",
                 "--realizations", "2000", "--window", "25", "--seed", "7",
                 "--threads", threads,
                 "-o", str(tmp_path / f"hist_{tag}{attempt}.csv"),
                 "--samples-out", str(path)],
            )
            assert result.exit_code == 0, result.output
            blobs.append(path.read_bytes())
    identical = all(blob == blobs[0] for blob in blobs)
    report(
        10, "determinism",
        identical,
        "repeated runs and 1- vs 2-thread runs produced byte-identical "
        "sample files" if identical else "sample files differ",
    )
