"""The benchmark's smoke run: every workload on tiny beams, traced and
untraced. It fails when an output check fails or when a function the tracer
times has been renamed or removed, which would otherwise drop a per-layer
metric without notice."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.rstrip().splitlines()[-1].endswith("PASS")
