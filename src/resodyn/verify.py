"""One table of named invariant checks, behind ``verify`` and the acceptance suite.

Each entry of :data:`CHECKS` measures one invariant of the package from a
random source and a size, and judges the value against its tolerance.
:func:`run_checks` runs the table at the sizes and seeds given in it: the
fast level re-derives the deterministic identities (sum rules, closed form
vs. eigensolver, shift-formula consistency, quadrature normalizations and
moments); the full level adds the seeded Monte-Carlo checks.  The
acceptance suite runs the same entries at its own pinned sizes and seeds.
Each check is independent: a failure is recorded and the remaining checks
still run.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Callable

import numpy as np

from .perturbation import (
    InteriorPerturbation,
    finite_difference_velocities,
    first_order_shift,
    weak_coupling_width_velocity,
    width_shift_from_U,
)
from .spectral import EffectiveHamiltonian, bell_steinberger, diagonalize
from .statistics import (
    _MAX_SEED,
    EnsembleConfig,
    _blas_thread_control,
    _reference_levels,
    _sample_direct,
    _usable_cores,
    compare_histogram,
    phi_goe,
    phi_pf,
    picket_fence_spectrum,
    sample_couplings,
    sample_goe,
    sample_velocities_direct,
    sample_velocities_representation,
    singular_points,
    velocity_cdf,
    velocity_pdf,
)
from .twolevel import (
    TwoLevelParams,
    closed_form_resonances,
    energy_velocity,
    exceptional_point_distance,
    mixing_state,
    sweep,
    two_level_U,
    two_level_system,
    width_velocity,
)

__all__ = [
    "Check",
    "CheckResult",
    "CHECKS",
    "run_checks",
    "rigid_samples",
    "random_two_level_params",
    "random_open_system",
]

RIGID_CHANNELS = (1, 2, 5, 10)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check: the measured value, the tolerance it was
    judged against, and the seconds it took (``value`` is None when the
    check raised).  ``runtime`` is set on checks of the shared rigid sample
    sets: the sets' own ``runtime`` (workers, reason, BLAS vendor and BLAS
    threads)."""

    name: str
    passed: bool
    detail: str
    value: object = None
    tolerance: object = None
    seconds: float = 0.0
    runtime: dict | None = None


@dataclass(frozen=True)
class Check:
    """One named invariant.

    ``measure(source, size)`` returns the measured value and the detail
    line.  The source is a seed or a ``np.random.Generator`` (either works
    where the check draws through ``np.random.default_rng``), the shared
    rigid-spectrum sample sets for ``rigid`` checks, and is ignored by
    deterministic checks.  The check passes when ``passes(value, tol)``.
    """

    name: str
    measure: Callable
    tol: object
    size: object = None
    seed: int | None = None  # fixed seed; None takes the run's seed
    monte_carlo: bool = False  # run at the full level only
    rigid: bool = False  # measures the sample sets of :func:`rigid_samples`
    passes: Callable = operator.le

    def run(self, source, size=None, tol=None) -> CheckResult:
        """Measure at ``size`` and judge against ``tol`` (defaults: the table's)."""
        tol = self.tol if tol is None else tol
        value, detail = self.measure(source, self.size if size is None else size)
        return CheckResult(self.name, bool(self.passes(value, tol)), detail, value, tol)


def random_two_level_params(
    rng: np.random.Generator, *, min_ep_distance: float = 1e-3
) -> TwoLevelParams:
    """Draw model parameters away from exceptional points."""
    while True:
        p = TwoLevelParams(
            delta=rng.uniform(0.2, 3.0),
            gamma1=rng.uniform(0.0, 2.0),
            gamma2=rng.uniform(0.0, 2.0),
            theta=rng.uniform(0.0, math.pi),
            d=rng.uniform(-2.0, 2.0),
            v=rng.uniform(-2.0, 2.0),
            alpha=rng.uniform(-2.0, 2.0),
        )
        if exceptional_point_distance(p) >= min_ep_distance:
            return p


def random_open_system(rng: np.random.Generator, n: int, m: int = 3,
                       gamma_bar: float = 0.05):
    """A moderately open random system with a well-separated spectrum."""
    while True:
        h = sample_goe(n, rng)
        a = sample_couplings(n, m, gamma_bar, rng)
        heff = EffectiveHamiltonian(h, a)
        values = np.linalg.eigvals(heff.matrix)
        sep = np.abs(values[:, None] - values[None, :])
        np.fill_diagonal(sep, np.inf)
        if sep.min() > 1e-2:
            return heff


def rigid_samples(seed: int) -> dict:
    """Direct-route picket-fence sample sets at paper scale, one per M.

    The four sets are drawn in one pass on all usable cores: each
    realization draws one block of normals, and set M takes its first
    N*M as the amplitudes and the next N^2 as the perturbation, the
    layout a single-M call draws (see :func:`sample_velocities_direct`).
    So the sets are correlated across M, and the samples do not depend on
    the core count.
    """
    config = EnsembleConfig(
        n_levels=250, n_channels=1, realizations=2000, central_window=25,
        seed=seed, model="picket-fence", route="direct",
    )
    return _sample_direct(config, RIGID_CHANNELS, workers=_usable_cores())


def _draw_runtime(samples_by_m: dict) -> dict | None:
    """The ``runtime`` of the rigid sample sets (all of them alike)."""
    first = next(iter(samples_by_m.values()), None)
    return None if first is None else dict(first.runtime)


def _params(source, count: int, min_ep_distance: float = 1e-3):
    rng = np.random.default_rng(source)
    for _ in range(count):
        yield random_two_level_params(rng, min_ep_distance=min_ep_distance)


def _sorted_pair(pair):
    a, b = pair
    key = lambda z: (round(z.real, 14), round(z.imag, 14))
    return (a, b) if key(a) <= key(b) else (b, a)


# ---------------------------------------------------------------------------
# deterministic identities (fixed seeds)
# ---------------------------------------------------------------------------


def _sum_rules(source, size):
    count, points = size
    grid = np.linspace(-2.0, 2.0, points)
    worst = 0.0
    for p in _params(source, count):
        table = sweep(p, grid)
        scale = p.gamma1 + p.gamma2 + abs(p.delta)
        err = max(
            np.abs(table.e1 + table.e2).max(),
            np.abs(table.gamma1 + table.gamma2 - (p.gamma1 + p.gamma2)).max(),
        )
        worst = max(worst, err / scale)
    return worst, f"worst scaled defect {worst:.2e} (tol 1e-12)"


def _closed_form_vs_eigensolver(source, count):
    worst = 0.0
    for p in _params(source, count):
        exact = _sorted_pair(closed_form_resonances(p))
        numeric = _sorted_pair(tuple(diagonalize(two_level_system(p)).values))
        worst = max(worst, max(abs(exact[0] - numeric[0]), abs(exact[1] - numeric[1])))
    return worst, f"worst eigenvalue deviation {worst:.2e} (tol 1e-10)"


def _mixing_definition(source, count):
    worst = 0.0
    for p in _params(source, count):
        ms = mixing_state(p)
        defect = abs(ms.f * (ms.epsilon + ms.branch_root) - ms.nu)
        worst = max(worst, defect / max(abs(ms.nu), abs(ms.epsilon)))
    return worst, f"worst relative defect {worst:.2e} (tol 1e-12)"


def _match_branch_to_system(p: TwoLevelParams):
    """Permutation and sign map from branch labels onto diagonalize() output."""
    sys = diagonalize(two_level_system(p))
    ms = mixing_state(p)
    norm = np.sqrt(1.0 - ms.f**2)
    branch_vecs = np.array([[1.0, 1j * ms.f], [-1j * ms.f, 1.0]]) / norm
    exact = closed_form_resonances(p)
    perm = [int(np.argmin(np.abs(sys.values - e))) for e in exact]
    signs = [
        float(np.sign((sys.right_vectors[:, perm[j]] @ branch_vecs[:, j]).real))
        for j in range(2)
    ]
    return sys, ms, perm, signs


def _u_cross(source, count):
    worst = 0.0
    for p in _params(source, count, min_ep_distance=0.1):
        sys, ms, perm, signs = _match_branch_to_system(p)
        u_numeric = bell_steinberger(sys).u
        u_exact = two_level_U(ms.f).u
        for j in range(2):
            for k in range(2):
                diff = abs(
                    u_exact[j, k]
                    - signs[j] * signs[k] * u_numeric[perm[j], perm[k]]
                )
                worst = max(worst, diff)
    return worst, f"worst U-entry deviation {worst:.2e} (tol 1e-8)"


def _two_level_velocities(source, count):
    step = 1e-6
    worst = 0.0
    for p in _params(source, count, min_ep_distance=0.1):
        f = mixing_state(p).f
        gdot, _ = width_velocity(f, p.d, p.v)
        edot, _ = energy_velocity(f, p.d, p.v)
        base = closed_form_resonances(p)
        shifted = []
        for da in (step, -step):
            pair = closed_form_resonances(p, p.alpha + da)
            if abs(pair[0] - base[0]) + abs(pair[1] - base[1]) > abs(
                pair[1] - base[0]
            ) + abs(pair[0] - base[1]):
                pair = (pair[1], pair[0])
            shifted.append(pair[0])
        deriv = (shifted[0] - shifted[1]) / (2.0 * step)
        scale = max(abs(gdot), abs(edot), 1e-6)
        worst = max(
            worst,
            max(abs(gdot + 2.0 * deriv.imag), abs(edot - deriv.real)) / scale,
        )
    return worst, f"worst relative deviation {worst:.2e} (tol 1e-4)"


def _width_shift_routes(source, count):
    # relative to the direct shift, with a floor at 1e-3 of the shift scale
    rng = np.random.default_rng(source)
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(5, 26))
        heff = random_open_system(rng, n)
        sys = diagonalize(heff)
        u = bell_steinberger(sys)
        x = rng.standard_normal((n, n))
        pert = InteriorPerturbation(v_matrix=0.5 * (x + x.T), strength=0.37)
        scale = abs(pert.strength) * np.linalg.norm(pert.v_matrix, 2)
        for level in range(n):
            direct = first_order_shift(sys, pert, level).delta_width
            via_u = width_shift_from_U(u, sys, pert, level)
            worst = max(
                worst, abs(via_u - direct) / max(abs(direct), 1e-3 * scale)
            )
    return worst, f"worst relative deviation {worst:.2e} (tol 1e-10)"


def _weak_coupling(source, trials):
    # gamma_bar / spacing = 1e-3; deviation relative to the instance's scale
    rng = np.random.default_rng(source)
    n = 25
    worst = 0.0
    for _ in range(trials):
        while True:
            h = sample_goe(n, rng)
            levels, basis = np.linalg.eigh(h)
            if np.diff(levels).min() > 0.2:
                break
        a = sample_couplings(n, 2, 1e-3, rng)
        x = rng.standard_normal((n, n))
        v = 0.5 * (x + x.T)
        heff = EffectiveHamiltonian(h, a)
        pert = InteriorPerturbation(v_matrix=v, strength=0.0)
        _, fd = finite_difference_velocities(heff, pert)
        formula = np.array(
            [weak_coupling_width_velocity(levels, basis, a, v, k) for k in range(n)]
        )
        worst = max(worst, np.abs(formula - fd).max() / np.abs(formula).max())
    return worst, f"worst scale-relative deviation {worst:.2e} (tol 1e-3)"


def _trace_identity(source, count):
    rng = np.random.default_rng(source)
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(3, 30))
        heff = random_open_system(rng, n)
        total = diagonalize(heff).values.sum()
        expected = np.trace(heff.hermitian_part) - 0.5j * np.trace(heff.decay_gram)
        worst = max(worst, abs(total - expected) / abs(expected))
    return worst, f"worst relative deviation {worst:.2e} (tol 1e-10)"


def _kernel_values(source, size):
    goe, pf = phi_goe(0.0), phi_pf(0.0)
    return (goe, pf), f"phi_goe(0)={goe!r} (2/3), phi_pf(0)={pf!r} (pi/4)"


def _kernel_normalization(source, size):
    from scipy import integrate  # keeps it off the CLI import

    worst = 0.0
    for kernel in (phi_goe, phi_pf):
        val, _ = integrate.quad(kernel, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12)
        worst = max(worst, abs(val - 1.0))
    return worst, f"worst |integral - 1| = {worst:.2e} (tol 1e-10)"


def _half_line_quad(fn) -> float:
    from scipy import integrate  # keeps it off the CLI import

    val, _ = integrate.quad(fn, 0.0, np.inf, epsabs=1e-10, epsrel=1e-9, limit=300)
    return 2.0 * val  # even integrand


def _pdf_normalization(source, size):
    worst = 0.0
    for model in ("pf", "goe"):
        for m in (2, 5, 10):
            total = _half_line_quad(lambda y: velocity_pdf(y, m, model))
            worst = max(worst, abs(total - 1.0))
    return worst, (
        f"worst |integral - 1| = {worst:.2e} over M in (2,5,10), both models (tol 1e-6)"
    )


def _rigid_variance_quadrature(source, size):
    worst = 0.0
    for m in RIGID_CHANNELS:
        moment = _half_line_quad(lambda y: y * y * velocity_pdf(y, m, "pf"))
        worst = max(worst, abs(moment - m / 3.0))
    return worst, f"worst |second moment - M/3| = {worst:.2e} (tol 1e-6)"


def _goe_tail(source, size):
    ys = np.geomspace(50.0, 500.0, 9)
    worst = 0.0
    for m in (1, 2, 5, 10):
        slope = np.polyfit(np.log(ys), np.log(velocity_pdf(ys, m, "goe")), 1)[0]
        worst = max(worst, abs(slope + 3.0))
    return worst, f"worst |slope + 3| = {worst:.3f} over y in [50, 500] (tol 0.05)"


def _kernel_fourier(source, size):
    from scipy import integrate  # keeps it off the CLI import

    def rigidity_product(w: float) -> float:
        return w / math.sinh(w) if w != 0.0 else 1.0

    worst = 0.0
    for y in np.linspace(-5.0, 5.0, 11):
        val, _ = integrate.quad(
            rigidity_product, 0.0, 60.0,
            weight="cos", wvar=float(y), epsabs=1e-13, epsrel=1e-12, limit=400,
        )
        worst = max(worst, abs(val / math.pi - phi_pf(y)))
    return worst, (
        f"worst deviation {worst:.2e} from the product-formula transform (tol 1e-8)"
    )


# ---------------------------------------------------------------------------
# Monte-Carlo checks (the run's seed)
# ---------------------------------------------------------------------------


def _coupling_widths(source, entries):
    from scipy.special import chdtr  # keeps scipy off the CLI import
    from scipy.stats import kstest  # full level only; keeps it off the CLI import

    rng = np.random.default_rng(source)
    m = 2
    a = sample_couplings(entries, m, 0.7, rng)
    se = 0.7 * math.sqrt(2.0 / a.size)
    z = abs(a.var() - 0.7) / se
    # (a**2).sum(axis=1) / 0.7, in place
    a **= 2
    widths = a.sum(axis=1)
    widths /= 0.7
    del a
    p_value = kstest(widths, partial(chdtr, m)).pvalue
    return (z, p_value), (
        f"entry variance z={z:.2f} (<3), chi-square KS p={p_value:.3f} (>=0.01)"
    )


def _z_below_p_above(value, tol):
    (z, p_value), (z_max, p_min) = value, tol
    return z <= z_max and p_value >= p_min


# the 21 levels around index (250 - 1) // 2: gaps picked by an energy
# window are biased short, since the ones straddling its edges are the
# size-biased long ones
_CENTRAL_LEVELS = slice(114, 135)


def _goe_spacing(source, matrices):
    rng = np.random.default_rng(source)
    gaps = [
        np.diff(np.linalg.eigvalsh(sample_goe(250, rng))[_CENTRAL_LEVELS])
        for _ in range(matrices)
    ]
    mean_gap = float(np.mean(gaps))
    return abs(mean_gap - 1.0), f"mean central spacing {mean_gap:.4f} (target 1 +- 2%)"


def _rigid_second_moment(config: EnsembleConfig) -> float:
    """Exact E[y^2] of the picket-fence direct route at finite N.

    With the unit-spaced gaps d_k = E_n - E_k, a reference level's velocity
    is y = N / (2 pi gamma_bar) * 2 sum_k B_nk W_nk / d_k / sqrt(Tr W^2).
    Cross terms vanish by sign symmetry, B is independent of W, and
    E[B_nk^2] = M gamma_bar^2.  Tr W^2 is 2 chi^2 with K = N (N+1) / 2
    degrees of freedom, so E[W_nk^2 / Tr W^2] = 1 / (N (N+1)) exactly.
    Hence

        E[y^2] = (M/3) * N/(N+1) * (3/pi^2) * sum_{k != n} d_k^-2,

    averaged over the window's reference levels (those the sampler uses).
    It tends to M/3 as N and the window grow.
    """
    n, window = config.n_levels, config.central_window
    levels = picket_fence_spectrum(n)
    ref = _reference_levels(levels, window)
    d = levels[ref, None] - levels[None, :]
    d[np.arange(window), ref] = np.inf
    lattice = float(np.mean(np.sum(d**-2.0, axis=1)))
    return config.n_channels / 3.0 * n / (n + 1.0) * 3.0 / math.pi**2 * lattice


def _rigid_variance(samples_by_m, size):
    zs, detail = [], []
    for m, samples in samples_by_m.items():
        target = _rigid_second_moment(samples.config)
        moment, se = samples.second_moment()
        zs.append((moment - target) / se)
        detail.append(f"M={m}: z={zs[-1]:+.2f} (E[y^2]={target:.5f})")
    return float(np.max(np.abs(zs))), (
        "; ".join(detail) + " against the exact finite-N value (|z| <= 3)"
    )


def _rigid_chi_square(samples_by_m, size):
    p_values, detail = [], []
    for m, samples in samples_by_m.items():
        report = compare_histogram(
            samples,
            partial(velocity_pdf, m=m, model="pf"),
            cdf=partial(velocity_cdf, m=m, model="pf"),
            singular=partial(singular_points, m=m),
        )
        p_values.append(report.p_value)
        detail.append(f"M={m}: p={report.p_value:.3f}")
    return float(np.min(p_values)), "; ".join(detail) + " (p >= 0.01)"


def _route_equivalence(seed, size):
    from scipy.stats import ks_2samp  # full level only; keeps it off the CLI import

    direct_realizations, rep_realizations = size
    cfg_direct = EnsembleConfig(
        n_levels=250, n_channels=2, realizations=direct_realizations,
        central_window=25, seed=seed, model="picket-fence", route="direct",
    )
    cfg_rep = EnsembleConfig(
        n_levels=250, n_channels=2, realizations=rep_realizations,
        central_window=25, seed=(seed + 1) % _MAX_SEED, model="picket-fence",
        route="representation",
    )
    direct = sample_velocities_direct(cfg_direct, workers=_usable_cores())
    rep = sample_velocities_representation(cfg_rep)
    result = ks_2samp(direct.values, rep.values)
    return result.pvalue, (
        f"two-sample KS p={result.pvalue:.3f} (>= 0.01), D={result.statistic:.4f}"
    )


def _thread_determinism(seed, size):
    # the picket-fence route calls no eigh; the GOE one shows whether the
    # bytes depend on the ambient BLAS thread count.  Its runs stay serial:
    # pool threads' malloc arenas would each keep an eigh workspace of
    # about 3 MB for the rest of the process
    pf_realizations, goe_realizations = size
    cfg = EnsembleConfig(
        n_levels=250, n_channels=1, realizations=pf_realizations, central_window=25,
        seed=seed, model="picket-fence", route="direct",
    )
    identical = np.array_equal(sample_velocities_direct(cfg, workers=1).values,
                               sample_velocities_direct(cfg, workers=3).values)
    blas = _blas_thread_control()
    if blas is not None:
        cfg = replace(cfg, realizations=goe_realizations, model="goe")
        previous = blas.get()
        try:
            blas.set(1)
            one_thread = sample_velocities_direct(cfg, workers=1)
            blas.set(2)
            two_threads = sample_velocities_direct(cfg, workers=1)
        finally:
            blas.set(previous)
        identical = identical and np.array_equal(one_thread.values, two_threads.values)
    return identical, (
        "serial and 3-thread runs bit-identical" if identical else "runs differ"
    )


CHECKS: dict[str, Check] = {check.name: check for check in (
    Check("two_level_sum_rules", _sum_rules, 1e-12, (2000, 201), seed=1002),
    Check("closed_form_vs_eigensolver", _closed_form_vs_eigensolver, 1e-10, 2000,
          seed=1003),
    Check("mixing_definition", _mixing_definition, 1e-12, 2000, seed=1004),
    Check("nonorthogonality_cross_check", _u_cross, 1e-8, 300, seed=1005),
    Check("two_level_velocities_vs_finite_difference", _two_level_velocities, 1e-4,
          300, seed=1006),
    Check("width_shift_route_consistency", _width_shift_routes, 1e-10, 20, seed=1007),
    Check("weak_coupling_vs_finite_difference", _weak_coupling, 1e-3, 10, seed=1008),
    Check("trace_identity", _trace_identity, 1e-10, 20, seed=1009),
    Check("kernel_spot_values", _kernel_values, (2.0 / 3.0, math.pi / 4.0),
          passes=operator.eq),
    Check("kernel_normalization", _kernel_normalization, 1e-10),
    Check("velocity_pdf_normalization", _pdf_normalization, 1e-6),
    Check("rigid_variance_quadrature", _rigid_variance_quadrature, 1e-6),
    Check("goe_tail_exponent", _goe_tail, 0.05),
    Check("rigid_kernel_fourier_transform", _kernel_fourier, 1e-8),
    Check("coupling_width_distribution", _coupling_widths, (3.0, 0.01), 200000,
          monte_carlo=True, passes=_z_below_p_above),
    Check("goe_central_spacing", _goe_spacing, 0.02, 100, monte_carlo=True),
    Check("rigid_variance_monte_carlo", _rigid_variance, 3.0, monte_carlo=True,
          rigid=True),
    Check("direct_route_chi_square", _rigid_chi_square, 0.01, monte_carlo=True,
          rigid=True, passes=operator.ge),
    Check("route_equivalence", _route_equivalence, 0.01, (300, 7000),
          monte_carlo=True, passes=operator.ge),
    Check("thread_determinism", _thread_determinism, True, (100, 10),
          monte_carlo=True, passes=operator.eq),
)}


def run_checks(level: str = "fast", seed: int = 7) -> list[CheckResult]:
    """Run the table; never aborts on an individual failure.

    A check that raises, or whose shared samples could not be drawn, is
    reported as failed under ``<name>.raised``.  Each result's ``seconds``
    is the wall time of its check; the first ``rigid`` check's includes
    drawing the shared sample sets.  The ``rigid`` checks' results carry
    the sets' ``runtime``.  An unknown level, or a seed outside
    [0, 2**64), raises ``ValueError`` before any check runs.
    """
    if level not in ("fast", "full"):
        raise ValueError(f"unknown verification level {level!r}")
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    shared = cache(lambda: rigid_samples(seed))  # drawn once, for this call only
    results = []
    for check in CHECKS.values():
        if check.monte_carlo and level != "full":
            continue
        start = time.perf_counter()
        try:
            if check.rigid:
                source = shared()
                result = replace(check.run(source), runtime=_draw_runtime(source))
            else:
                source = seed if check.seed is None else check.seed
                result = check.run(source)
        except Exception as exc:  # noqa: BLE001 - report, keep sweeping
            result = CheckResult(f"{check.name}.raised", False, f"raised {exc!r}",
                                 tolerance=check.tol)
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results
