"""Command-line front end and all file I/O.

Subcommands: ``two-level sweep``, ``two-level critical-points``,
``ensemble``, ``dist``, ``verify``.  Data goes out as CSV, reports as JSON;
every output file starts with a provenance header (tool version, canonical
config JSON, seed) so any run can be reproduced post hoc.  Exit codes:
0 success, 1 usage error, 2 numerical failure, 3 verification failure.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import tempfile

import click
import numpy as np

from . import __version__
from .errors import ExceptionalPointError, MatchingError, SmallDenominatorError
from .statistics import (
    MAX_CHANNELS,
    EnsembleConfig,
    _MODELS,
    _usable_cores,
    large_m_limit_pf,
    phi_goe,
    phi_pf,
    sample_velocities_direct,
    sample_velocities_representation,
    singular_points,
    velocity_pdf,
)
from .twolevel import (
    SWEEP_COLUMNS,
    TwoLevelParams,
    find_alpha_circ,
    find_alpha_star,
    mixing_state,
    sweep,
    two_level_U,
)
from .verify import run_checks

# the contract reserves exit code 2 for numerical failures; route bad usage to 1
click.UsageError.exit_code = 1

_NUMERIC_ERRORS = (
    ExceptionalPointError,
    SmallDenominatorError,
    MatchingError,
    np.linalg.LinAlgError,
)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".resodyn-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _provenance(config: dict, seed) -> list[str]:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return [
        f"# resodyn {__version__}",
        f"# config: {blob}",
        f"# seed: {seed if seed is not None else 'null'}",
    ]


def _emit_table(output, config, seed, columns, rows, extra_comments=()):
    lines = _provenance(config, seed)
    lines.extend(extra_comments)
    lines.append(",".join(columns))
    for row in np.atleast_2d(rows):
        lines.append(",".join(_fmt(float(x)) for x in row))
    text = "\n".join(lines) + "\n"
    if output is None:
        click.echo(text, nl=False)
    else:
        _atomic_write(output, text)


def _emit_json(output, payload: dict):
    text = json.dumps(_plain(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if output is None:
        click.echo(text, nl=False)
    else:
        _atomic_write(output, text)


def _complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _plain(x):
    """Strict JSON data: tuples as lists, numpy scalars as Python, and
    non-finite floats as null, since RFC 8259 has no NaN or Infinity."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    if isinstance(x, np.generic):
        x = x.item()
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _masked_pdf(points: np.ndarray, m: int, model: str):
    """velocity_pdf on a grid, NaN at the singular points; returns (pdf, mask)."""
    singular = singular_points(points, m)
    pdf = np.full(points.shape, np.nan)
    pdf[~singular] = velocity_pdf(points[~singular], m, model)
    return pdf, singular


def _numeric_guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _NUMERIC_ERRORS as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _load_config_file(ctx: click.Context, config_path: str | None):
    """Fill parameters from a JSON config file; explicit flags win."""
    if config_path is None:
        return
    try:
        with open(config_path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config file: {exc}")
    if not isinstance(data, dict):
        raise click.UsageError("config file must hold a JSON object")
    params = {p.name: p for p in ctx.command.params if p.name != "config"}
    unknown = set(data) - set(params)
    if unknown:
        raise click.UsageError(
            f"unknown config keys: {', '.join(sorted(unknown))} "
            f"(allowed: {', '.join(sorted(params))})"
        )
    for key, value in data.items():
        if ctx.get_parameter_source(key) != click.core.ParameterSource.COMMANDLINE:
            # the flag's own conversion and choice check
            try:
                ctx.params[key] = params[key].type_cast_value(ctx, value)
            except click.BadParameter as exc:
                raise click.ClickException(f"config file: {exc.format_message()}")


def _require(ctx: click.Context, *names: str):
    """Enforce presence after config merging (flags are lazily required)."""
    missing = [n for n in names if ctx.params.get(n) is None]
    if missing:
        opts = {q.name: q.opts[0] for q in ctx.command.params}
        flags = ", ".join(opts[n] for n in missing)
        raise click.UsageError(f"missing required option(s): {flags}")


def _check_channel_count(m: int) -> None:
    """Refuse, before any work, a channel count the analytic curves refuse;
    a usage error (exit 1) reported on one line."""
    if m > MAX_CHANNELS:
        raise click.ClickException(f"m must be at most {MAX_CHANNELS}, got {m}")


def _fresh_seed() -> int:
    return int.from_bytes(os.urandom(8), "little")


def _build_two_level(delta, d, v, gamma1, gamma2, theta, alpha=0.0) -> TwoLevelParams:
    try:
        return TwoLevelParams(
            delta=delta, gamma1=gamma1, gamma2=gamma2, theta=theta, d=d, v=v, alpha=alpha
        )
    except ValueError as exc:
        raise click.ClickException(str(exc))


# flags are validated after --config merging, so none are parse-time required
_TWO_LEVEL_OPTIONS = [
    click.option("--delta", type=float, default=None, help="Level separation."),
    click.option("--d", type=float, default=None, help="Diagonal perturbation element."),
    click.option("--v", type=float, default=None, help="Off-diagonal perturbation element."),
    click.option("--gamma1", type=float, default=None, help="First partial width sum."),
    click.option("--gamma2", type=float, default=None, help="Second partial width sum."),
    click.option("--theta", type=float, default=None, help="Angle between decay vectors (radians)."),
]
_TWO_LEVEL_NAMES = ("delta", "d", "v", "gamma1", "gamma2", "theta")


def _add_options(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn

    return wrap


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


@click.group()
@click.version_option(version=__version__, prog_name="resodyn")
def main():
    """Resonance dynamics of open quantum systems."""


@main.group("two-level")
def two_level():
    """Exact two-resonance model."""


@two_level.command("sweep")
@_add_options(_TWO_LEVEL_OPTIONS)
@click.option("--alpha-min", type=float, default=None)
@click.option("--alpha-max", type=float, default=None)
@click.option("--steps", type=int, default=None)
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON file with the same keys as the flags.")
@click.pass_context
@_numeric_guard
def cmd_two_level_sweep(ctx, delta, d, v, gamma1, gamma2, theta,
                        alpha_min, alpha_max, steps, output, fmt, config):
    """Trajectory table of resonances and velocities over a strength grid."""
    _load_config_file(ctx, config)
    _require(ctx, *_TWO_LEVEL_NAMES, "alpha_min", "alpha_max", "steps")
    p = ctx.params
    params = _build_two_level(p["delta"], p["d"], p["v"], p["gamma1"], p["gamma2"], p["theta"])
    if p["steps"] < 1:
        raise click.ClickException("steps must be >= 1")
    if p["steps"] > 1 and not p["alpha_max"] > p["alpha_min"]:
        raise click.ClickException("alpha-max must exceed alpha-min for steps > 1")
    grid = np.linspace(p["alpha_min"], p["alpha_max"], p["steps"])
    table = sweep(params, grid)
    cfg = {
        "command": "two-level sweep",
        "delta": p["delta"], "d": p["d"], "v": p["v"],
        "gamma1": p["gamma1"], "gamma2": p["gamma2"], "theta": p["theta"],
        "alpha_min": p["alpha_min"], "alpha_max": p["alpha_max"], "steps": p["steps"],
    }
    if p["fmt"] == "json":
        rows = [dict(zip(SWEEP_COLUMNS, map(float, row))) for row in table.as_array()]
        _emit_json(p["output"], {"version": __version__, "config": cfg, "rows": rows})
    else:
        _emit_table(p["output"], cfg, None, SWEEP_COLUMNS, table.as_array())


@two_level.command("critical-points")
@_add_options(_TWO_LEVEL_OPTIONS)
@click.option("--bracket-min", type=float, default=None)
@click.option("--bracket-max", type=float, default=None)
@click.option("--scan-points", type=int, default=2001, show_default=True)
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None)
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None)
@click.pass_context
@_numeric_guard
def cmd_critical_points(ctx, delta, d, v, gamma1, gamma2, theta,
                        bracket_min, bracket_max, scan_points, output, config):
    """Locate the velocity maximum (alpha_star) and the orthogonality point (alpha_circ)."""
    _load_config_file(ctx, config)
    _require(ctx, *_TWO_LEVEL_NAMES, "bracket_min", "bracket_max")
    p = ctx.params
    params = _build_two_level(p["delta"], p["d"], p["v"], p["gamma1"], p["gamma2"], p["theta"])
    if p["scan_points"] < 3:
        raise click.ClickException(f"scan-points must be >= 3, got {p['scan_points']}")
    bracket = (p["bracket_min"], p["bracket_max"])
    try:
        alpha_circ = find_alpha_circ(params, bracket, scan_points=p["scan_points"])
        alpha_star = find_alpha_star(params, bracket, scan_points=p["scan_points"])
    except ValueError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(2)
    f_star = mixing_state(params, alpha=alpha_star).f
    u_star = two_level_U(f_star).u
    cfg = {
        "command": "two-level critical-points",
        "delta": p["delta"], "d": p["d"], "v": p["v"],
        "gamma1": p["gamma1"], "gamma2": p["gamma2"], "theta": p["theta"],
        "bracket_min": p["bracket_min"], "bracket_max": p["bracket_max"],
        "scan_points": p["scan_points"],
    }
    _emit_json(
        p["output"],
        {
            "version": __version__,
            "config": cfg,
            "alpha_star": alpha_star,
            "alpha_circ": alpha_circ,
            "f_at_star": _complex_json(f_star),
            "U_at_star": {
                "U11": _complex_json(u_star[0, 0]),
                "U12": _complex_json(u_star[0, 1]),
                "U21": _complex_json(u_star[1, 0]),
                "U22": _complex_json(u_star[1, 1]),
            },
        },
    )


@main.command("ensemble")
@click.option("--model", type=click.Choice(list(_MODELS)), default=None)
@click.option("--n", "n_levels", type=int, default=None, help="Matrix dimension N.")
@click.option("--m", "n_channels", type=int, default=None, help="Open channel count M.")
@click.option("--realizations", type=int, default=None)
@click.option("--window", type=int, default=None, help="Levels kept around E=0.")
@click.option("--route", type=click.Choice(["representation", "direct", "direct-matrix"]),
              default="direct", show_default=True)
@click.option("--seed", type=int, default=None, help="Omit for a fresh random seed (echoed).")
@click.option("--threads", type=int, default=None,
              help="Worker threads; default every usable core (for the direct "
                   "route, as many as fit under --max-memory-mb). Realizations "
                   "too small for threads to pay, and picket-fence "
                   "representation runs, are serial. Output is bit-identical "
                   "for any value.")
@click.option("--bins", type=int, default=61, show_default=True)
@click.option("--range-max", type=float, default=None,
              help="Histogram half-range; defaults to 3*sqrt(M) (rigid) or 10 (GOE).")
@click.option("--max-memory-mb", type=int, default=2048, show_default=True,
              help="Refuse a run whose projected memory exceeds this; the "
                   "direct route's projection counts every worker.")
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None,
              help="Histogram + analytic curve CSV (stdout if omitted).")
@click.option("--samples-out", type=click.Path(dir_okay=False), default=None,
              help="Optional raw sample CSV.")
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None)
@click.pass_context
@_numeric_guard
def cmd_ensemble(ctx, model, n_levels, n_channels, realizations, window, route, seed,
                 threads, bins, range_max, max_memory_mb, output, samples_out, config):
    """Monte-Carlo sampling of rescaled width velocities."""
    _load_config_file(ctx, config)
    _require(ctx, "model", "n_levels", "n_channels", "realizations", "window")
    p = ctx.params
    used_seed = p["seed"] if p["seed"] is not None else _fresh_seed()
    try:
        cfg = EnsembleConfig(
            n_levels=p["n_levels"],
            n_channels=p["n_channels"],
            realizations=p["realizations"],
            central_window=p["window"],
            seed=used_seed,
            model=p["model"],
            route=p["route"],
        )
    except ValueError as exc:
        raise click.ClickException(str(exc))
    _check_channel_count(cfg.n_channels)
    if p["bins"] < 1:
        raise click.ClickException(f"bins must be >= 1, got {p['bins']}")
    if p["range_max"] is not None and not 0.0 < p["range_max"] < math.inf:
        raise click.ClickException(f"range-max must be positive and finite, got {p['range_max']}")
    if p["threads"] is not None and p["threads"] < 1:
        raise click.ClickException(f"threads must be >= 1, got {p['threads']}")

    # a GOE direct-route realization holds up to about seven n x n matrices
    # at once (measured 5.3-6.8 per worker at n=1200; a picket-fence one about
    # two), each worker runs one, and it keeps window samples; the
    # representation route holds no n x n matrix and keeps one sample
    direct = cfg.route == "direct"
    per_worker = 8 * 7 * cfg.n_levels**2 if direct else 0
    shared = 8 * (cfg.realizations * (cfg.central_window if direct else 1)
                  + cfg.n_levels * cfg.n_channels)
    cap = p["max_memory_mb"] * 2**20
    workers = p["threads"]
    if workers is None:  # every usable core whose worker fits under the cap
        workers = _usable_cores()
        if per_worker:
            workers = max(1, min(workers, (cap - shared) // per_worker))
    projected = workers * per_worker + shared
    if projected > cap:
        # rounded up, so it never reads as the cap it exceeds
        raise click.ClickException(
            f"projected memory {math.ceil(projected / 2**20)} MiB exceeds the "
            f"--max-memory-mb cap of {p['max_memory_mb']}"
        )

    if direct:
        samples = sample_velocities_direct(cfg, workers=workers)
    else:
        samples = sample_velocities_representation(cfg, workers=workers)
    runtime = dict(samples.runtime)
    if runtime["workers"] >= workers:
        runtime["reason"] = None  # only a shortfall needs a reason

    half = p["range_max"]
    if half is None:
        half = 3.0 * math.sqrt(cfg.n_channels) if cfg.is_rigid else 10.0
    counts, edges = np.histogram(samples.values, bins=p["bins"], range=(-half, half))
    density = counts / max(samples.n_samples, 1) / np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    pdf_vals, _ = _masked_pdf(centers, cfg.n_channels, cfg.model)

    moment, moment_se = samples.second_moment()
    comments = [
        f"# n_samples: {samples.n_samples}",
        f"# mean: {_fmt(float(samples.values.mean()) if samples.n_samples else 0.0)}",
        f"# second_moment: {_fmt(moment)}",
        f"# second_moment_se: {_fmt(moment_se)}",
        f"# skipped_levels: {samples.skipped_levels}",
        f"# truncation_deficit: {_fmt(samples.truncation_deficit)}",
        f"# runtime: {json.dumps(runtime, sort_keys=True, separators=(',', ':'))}",
    ]
    table = np.column_stack([edges[:-1], edges[1:], centers, counts, density, pdf_vals])
    _emit_table(
        p["output"], cfg.as_dict(), used_seed,
        ("bin_left", "bin_right", "bin_center", "count", "density", "pdf"),
        table, extra_comments=comments,
    )
    if p["samples_out"] is not None:
        _emit_table(p["samples_out"], cfg.as_dict(), used_seed, ("y",),
                    samples.values.reshape(-1, 1))


@main.command("dist")
@click.option("--model", type=click.Choice(list(_MODELS)), default=None)
@click.option("--m", "n_channels", type=int, default=None)
@click.option("--y", type=float, default=None, help="Single evaluation point.")
@click.option("--y-min", type=float, default=-10.0, show_default=True)
@click.option("--y-max", type=float, default=10.0, show_default=True)
@click.option("--steps", type=int, default=201, show_default=True)
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None)
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None)
@click.pass_context
@_numeric_guard
def cmd_dist(ctx, model, n_channels, y, y_min, y_max, steps, output, config):
    """Tabulate the analytic kernels and velocity distributions on a grid.

    Columns: y, phi_goe, phi_pf, pdf (selected model), large_m_pf, singular.
    A singular point (|y| < 1e-10 with M = 1) is marked, not silently filled.
    """
    _load_config_file(ctx, config)
    _require(ctx, "model", "n_channels")
    p = ctx.params
    m = p["n_channels"]
    if m < 1:
        raise click.ClickException("m must be >= 1")
    _check_channel_count(m)
    if p["steps"] < 1:
        raise click.ClickException("steps must be >= 1")
    if p["y"] is not None:
        grid = np.array([p["y"]])
    else:
        if p["steps"] > 1 and not p["y_max"] > p["y_min"]:
            raise click.ClickException("y-max must exceed y-min for steps > 1")
        grid = np.linspace(p["y_min"], p["y_max"], p["steps"])
    # the header names the picket fence "pf", whichever name was given
    kind = "goe" if p["model"] == "goe" else "pf"

    pdf, singular = _masked_pdf(grid, m, kind)
    rows = np.column_stack(
        [grid, phi_goe(grid), phi_pf(grid), pdf, large_m_limit_pf(grid, m), singular]
    )
    cfg = {
        "command": "dist", "model": kind, "m": m,
        "y": p["y"], "y_min": p["y_min"], "y_max": p["y_max"], "steps": p["steps"],
    }
    _emit_table(p["output"], cfg, None,
                ("y", "phi_goe", "phi_pf", "pdf", "large_m_pf", "singular"), rows)


@main.command("verify")
@click.argument("level", type=click.Choice(["fast", "full"]), default="fast")
@click.option("--seed", type=int, default=None, help="Seed for the Monte-Carlo checks.")
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None,
              help="Machine-readable JSON report.")
def cmd_verify(level, seed, output):
    """Run the numerical invariant suite (fast: deterministic; full: + Monte Carlo).

    The full level draws its picket-fence sample sets on all usable cores;
    its output does not depend on the core count.
    """
    used_seed = seed if seed is not None else 7
    try:
        results = run_checks(level=level, seed=used_seed)
    except ValueError as exc:  # an out-of-range seed, before any check runs
        raise click.ClickException(str(exc))
    use_color = sys.stdout.isatty() and not os.environ.get("NO_COLOR")
    for check in results:
        tag = "PASS" if check.passed else "FAIL"
        if use_color:
            tag = click.style(tag, fg="green" if check.passed else "red")
        click.echo(f"{tag}  {check.name}: {check.detail}")
    n_failed = sum(not check.passed for check in results)
    click.echo(f"{len(results) - n_failed}/{len(results)} checks passed")
    if output is not None:
        _emit_json(
            output,
            {
                "version": __version__,
                "level": level,
                "seed": used_seed,
                "passed": n_failed == 0,
                "runtime": next((c.runtime for c in results if c.runtime), None),
                "checks": [
                    {"name": c.name, "passed": bool(c.passed), "detail": c.detail,
                     "value": c.value, "tolerance": c.tolerance,
                     "seconds": c.seconds}
                    for c in results
                ],
            },
        )
    if n_failed:
        sys.exit(3)


if __name__ == "__main__":
    main()
