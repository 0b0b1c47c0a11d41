"""Tests of the benchmark itself, on tiny variants of each workload.

    python -m pytest -q bench/test_smoke.py

They check the result line against BENCHMARK.json (every declared metric,
with its unit and direction), that the trace file parses, that self time is
computed across threads, that a drifting curve fails its reference, and that
the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_declares_every_metric(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
        assert any(
            line.startswith(f"{m['name']} = ") and line.endswith(f"({m['better']} is better)")
            for line in lines
        ), m["name"]
    if trace:
        tag = f"{workload}-seed{SEED}-smoke"
        record = json.loads((HERE / "results" / f"{tag}-trace1.json").read_text())
        traced = spans.load(ROOT / record["trace_file"])
        names = {span["name"] for span in traced}
        assert names & {"cli.ensemble", "cli.verify", "cli.dist"}
        assert all(span["parent"] is not None for span in traced if span["name"] == "quad")


def test_bare_directory_refuses_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    done = run_bench("dist-curves", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_self_time_subtracts_the_union_of_threaded_children():
    tracer = spans.Tracer("unit")

    def child():
        time.sleep(0.05)

    def parent():
        workers = [threading.Thread(target=tracer.wrap("child", child)) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
        assert not any(worker.is_alive() for worker in workers)
        time.sleep(0.05)

    tracer.wrap("parent", parent)()
    recorded = [dict(zip(spans.FIELDS, span)) for span in tracer.spans]
    top = next(span for span in recorded if span["name"] == "parent")
    assert all(span["parent"] == top["id"] for span in recorded if span["name"] == "child")
    summary = spans.summarize(recorded)
    assert summary["child"]["calls"] == 2
    assert summary["child"]["s"] > summary["parent"]["s"] - summary["parent"]["self_s"]
    assert 0.04 < summary["parent"]["self_s"] < summary["parent"]["s"] - 0.04


def test_reference_comparison_rejects_a_drifting_pdf(tmp_path):
    ref = workloads._read(str(workloads.REFERENCE_DIR / "dist-goe-m2.csv.gz"))
    _, columns, rows = workloads.read_table(ref)
    out = tmp_path / "dist.csv"
    out.write_text(ref)
    workloads.compare_to_reference(str(out), "dist-goe-m2.csv.gz", {"pdf": workloads.PDF_RTOL})
    rows[1000, columns.index("pdf")] *= 1 + 100 * workloads.PDF_EPSREL
    lines = [line for line in ref.splitlines() if line.startswith("#")] + [",".join(columns)]
    lines += [",".join(repr(float(x)) for x in row) for row in rows]
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.OracleError, match="pdf"):
        workloads.compare_to_reference(str(out), "dist-goe-m2.csv.gz",
                                       {"pdf": workloads.PDF_RTOL})
