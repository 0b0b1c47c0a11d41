"""The benchmark workloads and their correctness oracles.

Each workload is a closed loop: one caller runs one ``resodyn`` command after
another, in-process through the click entry point, with real flags and
output files in a scratch directory.  The only concurrency is
``--threads $(nproc)`` inside one ``ensemble`` command.

Every command, reference comparison, goodness-of-fit test and ``verify``
check is one operation.  An operation that fails an exact oracle (exit
code, byte identity, a reference within tolerance, a well-formed output, a
deterministic ``verify`` check) makes the run incorrect.  A goodness-of-fit
outcome below p = 0.01, and the Monte-Carlo ``verify`` checks, are counted
as failed operations without making the run incorrect: at that level a
correct sampler still fails about one test in a hundred.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from resodyn import cli, statistics

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

FIT_P_MIN = 0.01

# velocity_pdf declares epsrel = 1e-10 for its quadrature; a reimplementation
# may differ from the recorded curves by a small multiple of that
PDF_EPSREL = 1e-10
PDF_RTOL = 10 * PDF_EPSREL
# sweep and the kernels are closed forms; allow reassociated arithmetic only
CLOSED_FORM_RTOL = 1e-12
# find_alpha_star refines to xtol = 1e-10; everything at alpha_star inherits it
CRITICAL_ATOL = 100 * 1e-10

# the `verify full` checks whose outcome is a statistical test on random draws
STATISTICAL_CHECKS = frozenset(
    {
        "coupling_width_distribution",
        "goe_central_spacing",
        "rigid_variance_monte_carlo",
        "direct_route_chi_square",
        "route_equivalence",
    }
)

# two-level parameters of the README examples
TWO_LEVEL_ARGS = [
    "--delta", "1", "--d", "1", "--v", "0.75", "--gamma1", "0.5", "--gamma2", "0.5",
    "--theta", "0.3141592653589793",
]
DIST_MODELS = ("goe", "pf")
DIST_CHANNELS = (1, 2, 5, 10)
DIST_STEPS, SWEEP_STEPS = 2001, 801
SMOKE_DIST_STEPS, SMOKE_SWEEP_STEPS = 41, 81


class OracleError(Exception):
    """An output that is missing, malformed or off its reference."""


@dataclass
class Op:
    name: str
    ok: bool
    statistical: bool = False
    detail: str = ""


@dataclass
class Runner:
    """Runs CLI commands for one workload body and collects what it observed.

    `work` counts the workload's unit of throughput and `work_s` the seconds
    spent in the commands that did it.
    """

    workdir: Path
    tracer: object = None
    ops: list = field(default_factory=list)
    work: float = 0.0
    work_s: float = 0.0
    bytes_written: int = 0
    checks_failed: int = 0
    thread_speedup: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def op(self, name: str, ok: bool, detail: str = "", statistical: bool = False) -> bool:
        self.ops.append(Op(name, bool(ok), statistical, detail))
        return ok

    def cli(self, span: str, args: list[str], outputs: tuple[str, ...] = ()):
        """Run one command; returns (exit code, seconds, detail)."""
        for out in outputs:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        code = 0
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                if self.tracer is None:
                    cli.main.main(args=args, prog_name="resodyn")
                else:
                    self.tracer.wrap(span, cli.main.main)(args=args, prog_name="resodyn")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        seconds = time.perf_counter() - start
        self.bytes_written += sum(os.path.getsize(p) for p in outputs if os.path.exists(p))
        detail = f"exit {code} after {seconds:.3f} s"
        if code != 0 and stderr.getvalue().strip():
            detail += ": " + stderr.getvalue().strip().splitlines()[-1]
        return code, seconds, detail


# ---------------------------------------------------------------------------
# output parsing
# ---------------------------------------------------------------------------


def read_table(text: str) -> tuple[dict, list[str], np.ndarray]:
    """Split a resodyn CSV into (header comments, column names, rows)."""
    comments, body = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            comments[key.strip()] = value.strip()
        elif line:
            body.append(line)
    if not body:
        raise OracleError("no column header")
    columns = body[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in body[1:]], dtype=float)
    if rows.size and rows.shape[1] != len(columns):
        raise OracleError(f"{rows.shape[1]} values per row for {len(columns)} columns")
    return comments, columns, rows.reshape(-1, len(columns))


def _read(path: str) -> str:
    if path.endswith(".gz"):
        with gzip.open(path, "rt") as handle:
            return handle.read()
    with open(path) as handle:
        return handle.read()


def compare_columns(out: np.ndarray, ref: np.ndarray, rtol: float, atol: float, what: str):
    """Raise unless `out` matches `ref` to rtol*|ref| + atol, NaNs included."""
    if out.shape != ref.shape:
        raise OracleError(f"{what}: shape {out.shape} against reference {ref.shape}")
    nan_out, nan_ref = np.isnan(out), np.isnan(ref)
    if (nan_out != nan_ref).any():
        i = int(np.flatnonzero(nan_out != nan_ref)[0])
        raise OracleError(f"{what}: NaN pattern differs first at row {i}")
    ok = ~nan_ref
    err = np.abs(out[ok] - ref[ok])
    limit = rtol * np.abs(ref[ok]) + atol
    if (err > limit).any():
        i = int(np.argmax(err / limit))
        raise OracleError(
            f"{what}: |{float(out[ok][i])!r} - {float(ref[ok][i])!r}| = {err[i]:.3e} "
            f"exceeds {limit[i]:.3e}"
        )


def compare_to_reference(out_path: str, ref_name: str, column_rtol: dict) -> str:
    """Compare a CSV output to the recorded reference (subsampled if coarser)."""
    _, columns, rows = read_table(_read(out_path))
    _, ref_columns, ref_rows = read_table(_read(str(REFERENCE_DIR / ref_name)))
    if columns != ref_columns:
        raise OracleError(f"columns {columns} against reference {ref_columns}")
    if len(rows) < 2 or (len(ref_rows) - 1) % (len(rows) - 1):
        raise OracleError(f"{len(rows)} rows do not subsample {len(ref_rows)} reference rows")
    ref_rows = ref_rows[:: (len(ref_rows) - 1) // (len(rows) - 1)]
    # entries below a thousandth of their column's largest are held to an
    # absolute tolerance, so a value crossing zero does not demand 1e-12 of itself
    for j, name in enumerate(columns):
        rtol = column_rtol.get(name, CLOSED_FORM_RTOL)
        scale = np.nanmax(np.abs(ref_rows[:, j])) if np.isfinite(ref_rows[:, j]).any() else 0.0
        compare_columns(rows[:, j], ref_rows[:, j], rtol, 1e-3 * rtol * scale, name)
    return f"{len(rows)} rows within tolerance"


def _json_leaves(obj, prefix=""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _json_leaves(obj[key], f"{prefix}{key}.")
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield prefix.rstrip("."), float(obj)


def compare_critical_points(out_path: str) -> str:
    with open(out_path) as handle:
        out = json.load(handle)
    ref = json.loads(_read(str(REFERENCE_DIR / "critical-points.json.gz")))
    if out.get("config") != ref["config"]:
        raise OracleError(f"config {out.get('config')} differs from the reference")
    got = dict(_json_leaves({k: v for k, v in out.items() if k != "config"}))
    want = dict(_json_leaves({k: v for k, v in ref.items() if k != "config"}))
    if got.keys() != want.keys():
        raise OracleError(f"fields {sorted(got)} against reference {sorted(want)}")
    for key, value in want.items():
        if not abs(got[key] - value) <= CRITICAL_ATOL * max(1.0, abs(value)):
            raise OracleError(f"{key}: {got[key]!r} against reference {value!r}")
    return f"alpha_star={got['alpha_star']:.12g}, alpha_circ={got['alpha_circ']:.12g}"


# ---------------------------------------------------------------------------
# ensemble-goe
# ---------------------------------------------------------------------------


def _read_ensemble(hist_path: str, samples_path: str, bins: int) -> np.ndarray:
    comments, columns, rows = read_table(_read(hist_path))
    if columns != ["bin_left", "bin_right", "bin_center", "count", "density", "pdf"]:
        raise OracleError(f"histogram columns {columns}")
    if len(rows) != bins or not np.isfinite(rows[:, 5]).all():
        raise OracleError(f"{len(rows)} histogram rows, expected {bins} with finite pdf")
    _, sample_columns, samples = read_table(_read(samples_path))
    if sample_columns != ["y"] or not np.isfinite(samples).all():
        raise OracleError("samples file is not one finite column y")
    if int(comments.get("n_samples", -1)) != len(samples):
        raise OracleError(f"n_samples {comments.get('n_samples')} but {len(samples)} samples")
    return samples[:, 0]


def _fit(run: Runner, label: str, values: np.ndarray, m: int):
    try:
        report = statistics.compare_histogram(
            values,
            lambda y: statistics.velocity_pdf(y, m, "goe"),
            cdf=lambda y: statistics.velocity_cdf(y, m, "goe"),
        )
    except ValueError as exc:
        run.op(f"fit {label}", False, f"compare_histogram raised {exc!r}")
        return
    run.op(
        f"fit {label}", report.p_value >= FIT_P_MIN,
        f"chi-square p={report.p_value:.3g} over {report.n_samples} samples (>= {FIT_P_MIN})",
        statistical=True,
    )


def ensemble_goe(run: Runner, seed: int, smoke: bool) -> None:
    """GOE, window 25, M=2: direct route serial and threaded, representation route.

    Sizes: N=250; 300 direct realizations per command (7500 samples, about
    4 s serial on two cores); the paper's 2000 representation realizations.
    """
    n, direct_r, rep_r = (40, 40, 1000) if smoke else (250, 300, 2000)
    m, bins = 2, 61
    base = ["ensemble", "--model", "goe", "--n", str(n), "--m", str(m),
            "--window", "25", "--seed", str(seed), "--bins", str(bins)]
    threads = len(os.sched_getaffinity(0))
    commands = [
        ("direct threads=1", direct_r, ["--route", "direct", "--threads", "1"]),
        (f"direct threads={threads}", direct_r, ["--route", "direct", "--threads", str(threads)]),
        ("representation", rep_r, ["--route", "representation"]),
    ]
    seconds, samples = [], {}
    for i, (label, realizations, flags) in enumerate(commands):
        hist, out = run.path(f"hist-{i}.csv"), run.path(f"samples-{i}.csv")
        args = base + ["--realizations", str(realizations), *flags, "-o", hist, "--samples-out", out]
        code, secs, detail = run.cli("cli.ensemble", args, (hist, out))
        seconds.append(secs)
        run.work += realizations
        run.work_s += secs
        try:
            if code == 0:
                samples[i] = _read_ensemble(hist, out, bins)
        except (OracleError, OSError, ValueError) as exc:
            detail += f"; {exc}"
        run.op(f"ensemble {label}", i in samples, detail)
    run.thread_speedup = seconds[0] / seconds[1]
    if 0 in samples and 1 in samples:
        with open(run.path("samples-0.csv"), "rb") as a, open(run.path("samples-1.csv"), "rb") as b:
            same = a.read() == b.read()
        run.op(f"samples threads=1 == threads={threads}", same,
               "byte-identical" if same else "samples files differ")
    if 0 in samples:
        _fit(run, "direct vs goe pdf", samples[0], m)
    if 2 in samples:
        _fit(run, "representation vs goe pdf", samples[2], m)


# ---------------------------------------------------------------------------
# verify-full
# ---------------------------------------------------------------------------


def verify_full(run: Runner, seed: int, smoke: bool) -> None:
    """``resodyn verify full --seed S -o report.json``, the release gate."""
    level = "fast" if smoke else "full"
    report_path = run.path("report.json")
    code, secs, detail = run.cli(
        "cli.verify", ["verify", level, "--seed", str(seed), "-o", report_path], (report_path,)
    )
    run.work_s += secs
    try:
        with open(report_path) as handle:
            report = json.load(handle)
        checks = report["checks"]
        failed = [c["name"] for c in checks if not c["passed"]]
        if report["level"] != level or report["seed"] != seed or not checks:
            raise OracleError(f"report is for level {report['level']}, seed {report['seed']}")
        if report["passed"] != (not failed) or code != (3 if failed else 0):
            raise OracleError(f"exit {code} and report passed={report['passed']} disagree")
    except (OSError, ValueError, KeyError, TypeError, OracleError) as exc:
        run.op(f"verify {level}", False, f"{detail}; {exc}")
        return
    run.work += len(checks)
    run.checks_failed += len(failed)
    run.op(f"verify {level}", code == 0, detail,
           statistical=bool(failed) and STATISTICAL_CHECKS.issuperset(failed))
    for check in checks:
        run.op(f"check {check['name']}", check["passed"], check["detail"],
               statistical=check["name"] in STATISTICAL_CHECKS)


# ---------------------------------------------------------------------------
# dist-curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    span: str
    label: str
    args: list
    out: str
    reference: str
    points: int = 0


def dist_commands(outdir, smoke: bool = False):
    """Every dist-curves command, with its output file and reference name."""
    steps = SMOKE_DIST_STEPS if smoke else DIST_STEPS
    sweep_steps = SMOKE_SWEEP_STEPS if smoke else SWEEP_STEPS
    for model in DIST_MODELS:
        for m in DIST_CHANNELS:
            name = f"dist-{model}-m{m}.csv"
            out = os.path.join(outdir, name)
            yield Command("cli.dist", f"dist --model {model} --m {m}",
                          ["dist", "--model", model, "--m", str(m), "--y-min", "-10",
                           "--y-max", "10", "--steps", str(steps), "-o", out],
                          out, name, points=steps)
    out = os.path.join(outdir, "sweep.csv")
    yield Command("cli.two-level", "two-level sweep",
                  ["two-level", "sweep", *TWO_LEVEL_ARGS, "--alpha-min", "-2",
                   "--alpha-max", "2", "--steps", str(sweep_steps), "-o", out],
                  out, "sweep.csv")
    out = os.path.join(outdir, "critical-points.json")
    yield Command("cli.two-level", "two-level critical-points",
                  ["two-level", "critical-points", *TWO_LEVEL_ARGS,
                   "--bracket-min", "-2", "--bracket-max", "2", "-o", out],
                  out, "critical-points.json")


def dist_curves(run: Runner, seed: int, smoke: bool) -> None:
    """dist on 2001-point grids for both models at M in {1,2,5,10}, a 801-step
    two-level sweep and the critical points; deterministic, so `seed` is unused."""
    del seed
    for cmd in dist_commands(run.workdir, smoke):
        code, secs, detail = run.cli(cmd.span, cmd.args, (cmd.out,))
        if cmd.points:
            run.work += cmd.points
            run.work_s += secs
        if not run.op(cmd.label, code == 0, detail):
            continue
        try:
            if cmd.reference.endswith(".json"):
                note = compare_critical_points(cmd.out)
            else:
                rtol = {"pdf": PDF_RTOL} if cmd.points else {}
                note = compare_to_reference(cmd.out, cmd.reference + ".gz", rtol)
            ok = True
        except (OracleError, OSError, ValueError) as exc:
            note, ok = str(exc), False
        run.op(f"reference {cmd.reference}", ok, note)


WORKLOADS = {
    "ensemble-goe": ensemble_goe,
    "verify-full": verify_full,
    "dist-curves": dist_curves,
}
