"""What the traced run wraps, and the per-layer metrics it derives.

The package binds its functions with from-imports, so each public function
is wrapped under every name a resodyn module looks it up by (``cli``,
``verify``, ``statistics``, ...).  NumPy's eigensolvers and SciPy's ``quad``
are wrapped at their module attribute, which is how resodyn calls them.
"""

from __future__ import annotations

from statistics import median

import numpy as np
import scipy.integrate

from resodyn import cli, perturbation, spectral, statistics, twolevel, verify

PACKAGE = (cli, verify, statistics, twolevel, spectral, perturbation)


def _realizations(args, kwargs) -> int:
    return (args[0] if args else kwargs["config"]).realizations


def _points(args, kwargs) -> int:
    return int(np.size(args[0] if args else kwargs["y"]))


def _grid(args, kwargs) -> int:
    return int(np.size(args[1] if len(args) > 1 else kwargs["alpha_grid"]))


# (span name, home module, attribute, work units per call)
PACKAGE_TARGETS = (
    ("statistics.sample_velocities_direct", statistics, "sample_velocities_direct", _realizations),
    ("statistics.sample_velocities_representation", statistics,
     "sample_velocities_representation", _realizations),
    ("statistics.sample_goe", statistics, "sample_goe", None),
    ("statistics.sample_couplings", statistics, "sample_couplings", None),
    ("statistics.substream", statistics, "substream", None),
    ("statistics.velocity_pdf", statistics, "velocity_pdf", _points),
    ("statistics.velocity_cdf", statistics, "velocity_cdf", _points),
    ("statistics.compare_histogram", statistics, "compare_histogram", None),
    ("twolevel.sweep", twolevel, "sweep", _grid),
    ("twolevel.find_alpha_star", twolevel, "find_alpha_star", None),
    ("twolevel.find_alpha_circ", twolevel, "find_alpha_circ", None),
    ("twolevel.closed_form_resonances", twolevel, "closed_form_resonances", None),
    ("twolevel.mixing_state", twolevel, "mixing_state", None),
    ("spectral.diagonalize", spectral, "diagonalize", None),
    ("spectral.bell_steinberger", spectral, "bell_steinberger", None),
    ("perturbation.first_order_shift", perturbation, "first_order_shift", None),
    ("perturbation.finite_difference_velocities", perturbation,
     "finite_difference_velocities", None),
    ("perturbation.weak_coupling_width_velocity", perturbation,
     "weak_coupling_width_velocity", None),
    ("verify.run_checks", verify, "run_checks", None),
)
MODULE_TARGETS = (
    ("linalg.eigh", np.linalg, "eigh"),
    ("linalg.eigvalsh", np.linalg, "eigvalsh"),
    ("linalg.eig", np.linalg, "eig"),
    ("quad", scipy.integrate, "quad"),
)


def install(tracer) -> None:
    for name, module, attr, units in PACKAGE_TARGETS:
        tracer.install(name, getattr(module, attr), PACKAGE, units)
    for name, module, attr in MODULE_TARGETS:
        tracer.install(name, getattr(module, attr), (module,))


# per-layer metric -> (span name, summary field); fields are calls, s, self_s, units
SPAN_METRICS = {
    "cli.ensemble.s": ("cli.ensemble", "s"),
    "cli.ensemble.self_s": ("cli.ensemble", "self_s"),
    "cli.dist.s": ("cli.dist", "s"),
    "cli.dist.self_s": ("cli.dist", "self_s"),
    "cli.two-level.s": ("cli.two-level", "s"),
    "cli.verify.s": ("cli.verify", "s"),
    "statistics.substream.calls": ("statistics.substream", "calls"),
    "statistics.sample_goe.calls": ("statistics.sample_goe", "calls"),
    "statistics.sample_goe.s": ("statistics.sample_goe", "s"),
    "statistics.sample_couplings.calls": ("statistics.sample_couplings", "calls"),
    "statistics.sample_couplings.s": ("statistics.sample_couplings", "s"),
    "linalg.eigh.calls": ("linalg.eigh", "calls"),
    "linalg.eigh.s": ("linalg.eigh", "s"),
    "linalg.eigvalsh.calls": ("linalg.eigvalsh", "calls"),
    "linalg.eigvalsh.s": ("linalg.eigvalsh", "s"),
    "linalg.eig.calls": ("linalg.eig", "calls"),
    "linalg.eig.s": ("linalg.eig", "s"),
    "quad.calls": ("quad", "calls"),
    "quad.s": ("quad", "s"),
    "statistics.compare_histogram.calls": ("statistics.compare_histogram", "calls"),
    "statistics.compare_histogram.s": ("statistics.compare_histogram", "s"),
    "statistics.compare_histogram.self_s": ("statistics.compare_histogram", "self_s"),
    "twolevel.sweep.calls": ("twolevel.sweep", "calls"),
    "twolevel.sweep.points": ("twolevel.sweep", "units"),
    "twolevel.sweep.s": ("twolevel.sweep", "s"),
    "twolevel.find_alpha_star.s": ("twolevel.find_alpha_star", "s"),
    "twolevel.find_alpha_circ.s": ("twolevel.find_alpha_circ", "s"),
    "twolevel.closed_form_resonances.calls": ("twolevel.closed_form_resonances", "calls"),
    "twolevel.mixing_state.calls": ("twolevel.mixing_state", "calls"),
    "spectral.diagonalize.calls": ("spectral.diagonalize", "calls"),
    "spectral.diagonalize.s": ("spectral.diagonalize", "s"),
    "spectral.bell_steinberger.calls": ("spectral.bell_steinberger", "calls"),
    "spectral.bell_steinberger.s": ("spectral.bell_steinberger", "s"),
    "perturbation.first_order_shift.calls": ("perturbation.first_order_shift", "calls"),
    "perturbation.finite_difference_velocities.calls":
        ("perturbation.finite_difference_velocities", "calls"),
    "perturbation.finite_difference_velocities.s":
        ("perturbation.finite_difference_velocities", "s"),
    "perturbation.weak_coupling_width_velocity.calls":
        ("perturbation.weak_coupling_width_velocity", "calls"),
    "perturbation.weak_coupling_width_velocity.s":
        ("perturbation.weak_coupling_width_velocity", "s"),
    "verify.run_checks.s": ("verify.run_checks", "s"),
    "verify.run_checks.self_s": ("verify.run_checks", "self_s"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict, traced, untraced: list) -> dict[str, float]:
    """Per-layer values from the traced body's spans and counters.

    The thread speed-up and the base of the tracing overhead come from the
    untraced bodies of the same run.  A layer the workload does not use
    reads 0.
    """
    def field(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    out = {metric: field(*source) for metric, source in SPAN_METRICS.items()}
    for route in ("direct", "representation"):
        name = f"statistics.sample_velocities_{route}"
        out[f"{name}.calls"] = field(name, "calls")
        out[f"{name}.realizations"] = field(name, "units")
        out[f"{name}.s"] = field(name, "s")
        out[f"{name}.ms_per_realization"] = 1e3 * _ratio(field(name, "s"), field(name, "units"))
        out[f"{name}.self_s"] = field(name, "self_s")
    for kind in ("pdf", "cdf"):
        name = f"statistics.velocity_{kind}"
        out[f"{name}.calls"] = field(name, "calls")
        out[f"{name}.points"] = field(name, "units")
        out[f"{name}.s"] = field(name, "s")
        out[f"{name}.us_per_point"] = 1e6 * _ratio(field(name, "s"), field(name, "units"))
    out["cli.bytes_written"] = traced.bytes_written
    out["verify.checks_failed"] = traced.checks_failed
    out["cli.ensemble.thread_speedup"] = median([b.thread_speedup for b in untraced])
    out["trace.overhead_frac"] = traced.wall_s / median([b.wall_s for b in untraced]) - 1
    return out
