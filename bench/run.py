#!/usr/bin/env python3
"""resodyn benchmark: one workload in one process, result as the last line.

    python3 bench/run.py --workload ensemble-goe --seed 7 --seconds 25 --trace 0

Run from the repository root.  The workloads, metrics, units, directions
and bounds are declared in ``BENCHMARK.json``; ``bench/README.md`` says why
each workload was chosen and what each metric should move.

Set-up is the import of ``resodyn.cli``, timed in fresh interpreters and
once in this process, which then calls the CLI commands in-process.  The
workload body repeats while another repetition fits in ``--seconds`` (at
least once); times are medians over the repetitions.  ``--trace 1`` adds one
body with every layer entry point wrapped in a span, and reports the
per-layer metrics instead of the end-to-end ones.  BLAS threads are left as
the environment sets them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"

SETUP_CHILDREN = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import resodyn.cli; "
    "print(time.perf_counter() - t)"
)
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_import_seconds() -> float:
    """Seconds to import resodyn.cli in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def run_context() -> dict:
    """Machine, library and source identity recorded with every result."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest, lines = hashlib.sha256(), 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


def run_body(workloads, name: str, seed: int, smoke: bool, tracer=None):
    """One workload body in a fresh scratch directory; returns its Runner."""
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        runner = workloads.Runner(workdir, tracer)
        cpu0, start = os.times(), time.perf_counter()
        workloads.WORKLOADS[name](runner, seed, smoke)
        runner.wall_s = time.perf_counter() - start
        cpu1 = os.times()
        runner.cpu_s = (cpu1.user + cpu1.system) - (cpu0.user + cpu0.system)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return runner


def end_to_end(bodies: list, setup: list[float]) -> dict[str, float]:
    ops = [op for body in bodies for op in body.ops]
    return {
        "setup_s": median(setup),
        "wall_s": median(body.wall_s for body in bodies),
        "cpu_s": median(body.cpu_s for body in bodies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": sum(op.ok for op in ops) / len(ops),
        "work_per_s": sum(b.work for b in bodies) / sum(b.work_s for b in bodies),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="resodyn benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    def fail(message: str) -> int:
        print(f"bench: {message}", file=sys.stderr)
        return 2

    if not (SRC / "resodyn" / "cli.py").is_file():
        return fail(f"no resodyn sources at {SRC}; run from a repository checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    if not 0 <= args.seed < 2**64:
        return fail("seed must be an unsigned 64-bit integer")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    setup = [child_import_seconds() for _ in range(1 if args.smoke else SETUP_CHILDREN)]
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import resodyn.cli

    setup.append(time.perf_counter() - start)
    if Path(resodyn.cli.__file__).resolve().parent != SRC / "resodyn":
        return fail(f"imported resodyn from {resodyn.cli.__file__}, not from {SRC}")

    import layers
    import spans
    import workloads

    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    bodies = []
    started = time.perf_counter()
    while True:
        bodies.append(run_body(workloads, args.workload, args.seed, args.smoke))
        if time.perf_counter() - started + bodies[-1].wall_s > args.seconds:
            break
    trace_path = None
    if args.trace:
        tracer = spans.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        layers.install(tracer)
        try:
            traced = run_body(workloads, args.workload, args.seed, args.smoke, tracer)
        finally:
            tracer.uninstall()
        trace_path = RESULTS / f"trace-{tag}.json"
        tracer.dump(trace_path)
        summary = spans.summarize(spans.load(trace_path))
        values = layers.layer_metrics(summary, traced, bodies)
        bodies.append(traced)
    else:
        values = end_to_end(bodies, setup)
    if set(values) != {m["name"] for m in declared}:
        return fail(f"metrics {sorted(set(values) ^ {m['name'] for m in declared})} "
                    "are not both measured and declared in BENCHMARK.json")

    ops = [op for body in bodies for op in body.ops]
    failed = [op for op in ops if not op.ok]
    correct = all(op.statistical for op in failed)
    context = run_context()
    for op in failed:
        kind = "statistical" if op.statistical else "exact"
        print(f"FAILED ({kind}) {op.name}: {op.detail}")
    print("context " + json.dumps(context, sort_keys=True))
    print(f"{args.workload}: {len(bodies)} bodies, {len(ops)} operations, "
          f"{len(failed)} failed, correct={correct}")
    metrics = {}
    for m in declared:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']} ({m['better']} is better)")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "context": context,
        "correct": correct, "attempted": len(ops), "failed": len(failed),
        "ops": [vars(op) for op in ops],
        "bodies": [{"wall_s": b.wall_s, "cpu_s": b.cpu_s, "traced": b.tracer is not None}
                   for b in bodies],
        "metrics": {m["name"]: {**metrics[m["name"]], "better": m["better"]} for m in declared},
        "trace_file": trace_path and trace_path.relative_to(ROOT).as_posix(),
    }
    result_path = RESULTS / f"{tag}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
