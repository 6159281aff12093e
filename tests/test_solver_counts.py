"""tools/solver_counts.py --smoke on this tree: two runs of a workload print
the same JSON, with every counter, no SuperLU fallback and no more
factorizations than solves. The exact counts are not pinned: BLAS kernels on
another CPU can move the PCG iteration counts."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
KEYS = {"solves", "factorizations", "pcg_iterations", "fallbacks", "newton_calls"}


def solver_counts(workload: str) -> str:
    # a subprocess: the tool pins its own CPU affinity
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "solver_counts.py"), str(ROOT),
                           workload, "0", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout


@pytest.mark.parametrize("workload", ["gendata-readme", "compare-readme"])
def test_counts_repeat(workload):
    first, second = solver_counts(workload), solver_counts(workload)
    assert first == second
    counts = json.loads(first)
    assert set(counts) == KEYS
    assert counts["fallbacks"] == 0
    assert 0 < counts["factorizations"] <= counts["solves"]
    assert counts["newton_calls"] > 0
