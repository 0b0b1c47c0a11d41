"""The committed benchmark records, ``BENCH_<PR>.json`` at the repository root.

Each file holds the result line of every ``bench/run.py`` run behind a
performance claim, parent and change, in run order, with the run context
that ``bench/run.py`` prints, and the claim those runs support.  A record
of a change that claims no gain, only no regression, has a null claim.
"""

import json
from pathlib import Path
from statistics import median

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
CLAIMED = [p for p in RECORDS if json.loads(p.read_text())["claim"] is not None]
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
CONTEXT_KEYS = {"nproc", "blas", "thread_env", "git_commit", "src_lines"}


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_each_run_carries_its_context_and_the_end_to_end_metrics(path):
    record = json.loads(path.read_text())
    assert record["runs"], "a record without runs supports no claim"
    for run in record["runs"]:
        assert run["side"] in ("parent", "change")
        assert isinstance(run["seed"], int)
        assert CONTEXT_KEYS <= set(run["context"]), run["context"]
        metrics = run["result"]["metrics"]
        assert set(END_TO_END) <= set(metrics)
        assert all(isinstance(metrics[name]["value"], (int, float)) for name in END_TO_END)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_every_pair_holds_a_parent_and_a_change_run(path):
    sides = {}
    for run in json.loads(path.read_text())["runs"]:
        sides.setdefault((run["workload"], run["pair"]), []).append(run["side"])
    assert all(sorted(pair) == ["change", "parent"] for pair in sides.values()), sides


@pytest.mark.parametrize("path", CLAIMED, ids=[p.name for p in CLAIMED])
def test_claimed_pair_wins_follow_from_the_runs(path):
    record = json.loads(path.read_text())
    claim = record["claim"]
    sign = 1.0 if claim["better"] == "lower" else -1.0
    pairs = {}
    for run in record["runs"]:
        if run["workload"] == claim["workload"]:
            value = run["result"]["metrics"][claim["metric"]]["value"]
            pairs.setdefault(run["pair"], {})[run["side"]] = value
    assert len(pairs) == claim["pairs"]
    assert all(set(pair) == {"parent", "change"} for pair in pairs.values())
    wins = sum(sign * (p["parent"] - p["change"]) > 0 for p in pairs.values())
    assert wins == claim["wins"]
    for side in ("parent", "change"):
        assert median(p[side] for p in pairs.values()) == claim[f"{side}_median"]
