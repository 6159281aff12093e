"""Count the Newton linear-solve work of one benchmark workload.

Usage (from the repository root)::

    python tools/solver_counts.py TREE WORKLOAD SEED

TREE is a checkout with ``bench/run.py`` and ``src/``; the workload runs
once, in this process, from that tree's benchmark with ``--seconds 0``. Every
``dynamics.TangentSolver`` it creates is recorded, and the output is one JSON
object with the sums of their counters: ``solves``, ``factorizations``,
``pcg_iterations`` and ``fallbacks``, plus ``newton_calls``, the calls of
``dynamics.newton_solve`` from the Newmark ground truth and registration. A
Newmark step calls it once, and once more when it retries from the previous
displacement, so calls beyond the step count are retries. The counts depend
only on the inputs and the code, not on the host's speed, so they repeat
exactly and compare two trees without A/B pairs. Standard output of the benchmark goes to
standard error; the JSON is the only line on standard output.

The tool pins its own process to one CPU before it runs the workload.
``dataset.generate_poses`` registers loading paths in one worker process per
CPU of the affinity mask, and the solvers created in those workers would be
missing from the sums; with one CPU every path runs in this process.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import os
import sys

COUNTERS = ("solves", "factorizations", "pcg_iterations", "fallbacks")


def count(tree: str, workload: str, seed: int) -> dict:
    spec = importlib.util.spec_from_file_location(
        "bench_run", os.path.join(os.path.abspath(tree), "bench", "run.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)    # puts the tree's src/ first on sys.path
    solver_class = bench.dynamics.TangentSolver
    solvers = []
    init = solver_class.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        solvers.append(self)

    solver_class.__init__ = recording_init
    newton_solve = bench.dynamics.newton_solve
    newton_calls = []

    def counting_newton_solve(*args, **kwargs):
        newton_calls.append(1)
        return newton_solve(*args, **kwargs)

    # registration binds the name at import, so both modules are patched
    callers = (bench.dynamics, bench.registration)
    for module in callers:
        module.newton_solve = counting_newton_solve
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        os.makedirs(bench.OUT_DIR, exist_ok=True)
        with contextlib.redirect_stdout(sys.stderr):
            bench.run_workload(workload, seed, 0.0, traced=False)
    finally:
        solver_class.__init__ = init
        for module in callers:
            module.newton_solve = newton_solve
    counts = {name: sum(getattr(s, name) for s in solvers) for name in COUNTERS}
    return {**counts, "newton_calls": len(newton_calls)}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    tree, workload, seed = args
    print(json.dumps(count(tree, workload, int(seed))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
