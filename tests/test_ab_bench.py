"""tools/ab_bench.py --smoke on two copies of one tree: the output has every
run, a summary entry for each end-to-end metric with finite ratios, and the
environment line."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_pair_summarizes_every_metric(tmp_path):
    out = tmp_path / "ab.json"
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_bench.py"), str(ROOT),
                           str(ROOT), "--smoke", "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(out.read_text())
    assert result["checks_passed"] is True
    assert result["environment"]["nproc"] >= 1
    assert set(result["environment"]["threads"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                     "MKL_NUM_THREADS"}
    assert result["environment"]["bench_parent"]["nproc"] >= 1
    runs = result["runs"]
    assert [(r["pair"], r["side"]) for r in runs] == [(0, "parent"), (0, "change")]
    assert all(r["returncode"] == 0 and r["correct"] and r["failed"] == 0 for r in runs)
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    for name in names:
        entry = result["summary"][f"compare-readme|seed0|{name}"]
        assert entry["pairs"] == 1 and 0 <= entry["change_wins"] <= 1
        assert math.isfinite(entry["ratio_median"]) and entry["ratio_median"] > 0.0
        for side in ("parent", "change"):
            stats = entry[side]
            assert 0.0 < stats["q1"] <= stats["median"] <= stats["q3"]
