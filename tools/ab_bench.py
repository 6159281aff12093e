"""Run the benchmark in A/B pairs from two source trees and summarize them.

Usage (from the repository root)::

    python tools/ab_bench.py PARENT_TREE CHANGE_TREE --pairs 10 \\
        --workloads gendata-readme,compare-readme --seeds 0,1 --out ab.json
    python tools/ab_bench.py TREE TREE --smoke --out ab.json

Each tree is a checkout with ``bench/run.py`` and ``src/``. For every
workload and seed, pair k runs ``bench/run.py --workload W --seed S
--seconds T --trace 0`` once from each tree, each in its own directory and
process: the parent first when k is even and the change first when k is
odd, so that the host's slow drift between fast and slow modes falls on both
sides alike. The BLAS thread variables are pinned to 1 unless they are set.

The output JSON holds

* ``environment``: nproc, the Python, numpy and scipy versions and the
  thread variables of this process, and the ``environment`` line each
  tree's benchmark printed on its first run;
* ``runs``: every run with its workload, seed, pair, side, exit code,
  output-check verdict, operations attempted and failed, and metrics;
* ``summary``: for each workload, seed and end-to-end metric, the median and
  quartiles of each side, the median of the per-pair ratios change/parent,
  how many pairs the change won (strictly better in the direction
  ``BENCHMARK.json`` gives; ties count for neither side) and the pairs run;
* ``checks_passed``: whether every run exited 0 with its output checks
  passed;
* ``counters`` with ``--counters``: the ``tools/solver_counts.py`` sums of
  one run of each workload and seed from each tree;
* one entry per ``--attach KEY=FILE``: that JSON file under KEY (for
  example the ``tools/time_layers.py`` output).

``--smoke`` runs one pair of ``compare-readme`` at seed 0 with ``--seconds
0``: a check of the plumbing, not a measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy
import scipy

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
SIDES = ("parent", "change")


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    return env


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: child_env()[v] for v in THREAD_VARS}}


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from ``tree``: its exit code, verdict and metrics."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0"], cwd=tree, env=child_env(),
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    run = {"returncode": proc.returncode, "wall_s": time.perf_counter() - t0,
           "correct": False, "attempted": None, "failed": None, "metrics": {}}
    if lines and lines[0].startswith("environment "):
        run["environment"] = json.loads(lines[0][len("environment "):])
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode == 0 and isinstance(result, dict):
        run.update(correct=bool(result["correct"]), attempted=result["attempted"],
                   failed=result["failed"],
                   metrics={k: v["value"] for k, v in result["metrics"].items()})
    else:
        run["tail"] = (proc.stdout + proc.stderr)[-2000:]
    return run


def quartiles(values: list) -> dict:
    if len(values) < 2:
        med = values[0] if values else float("nan")
        return {"median": med, "q1": med, "q3": med}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs: list, better: dict) -> dict:
    """Per workload, seed and metric: each side's median and quartiles, the
    median per-pair ratio and the pairs the change won."""
    summary = {}
    keys = sorted({(r["workload"], r["seed"]) for r in runs})
    for workload, seed in keys:
        pairs = {}
        for r in runs:
            if (r["workload"], r["seed"]) == (workload, seed):
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        names = sorted({m for r in runs for m in r["metrics"]})
        for name in names:
            both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                    for p in pairs.values()
                    if all(name in p.get(side, {}).get("metrics", {}) for side in SIDES)]
            sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
            summary[f"{workload}|seed{seed}|{name}"] = {
                "parent": quartiles([a for a, _ in both]),
                "change": quartiles([b for _, b in both]),
                "ratio_median": statistics.median([b / a for a, b in both]) if both
                else float("nan"),
                "change_wins": sum(sign * (b - a) < 0 for a, b in both),
                "pairs": len(both),
                "better": better.get(name, "lower"),
            }
    return summary


def solver_counts(tree: str, workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "solver_counts.py"), tree,
                           workload, str(seed)], env=child_env(), capture_output=True,
                          text=True)
    if proc.returncode != 0:
        return {"error": (proc.stdout + proc.stderr)[-2000:]}
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="runtime-large,gendata-readme,compare-readme")
    ap.add_argument("--seeds", default="0")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--counters", action="store_true")
    ap.add_argument("--attach", action="append", default=[], metavar="KEY=FILE")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.smoke:
        args.pairs, args.workloads, args.seeds, args.seconds = 1, "compare-readme", "0", 0.0
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "bench", "run.py")):
            ap.error(f"{tree} has no bench/run.py")
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    out = {"environment": environment(), "seconds": args.seconds, "runs": []}
    for workload in workloads:
        for seed in seeds:
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    run = run_bench(trees[side], workload, seed, args.seconds)
                    bench_env = run.pop("environment", None)
                    out["environment"].setdefault(f"bench_{side}", bench_env)
                    out["runs"].append({"workload": workload, "seed": seed, "pair": pair,
                                        "side": side, **run})
                    print(f"{workload} seed {seed} pair {pair} {side}: rc {run['returncode']} "
                          f"{json.dumps(run['metrics'])}", file=sys.stderr, flush=True)
    out["summary"] = summarize(out["runs"], better)
    out["checks_passed"] = all(r["returncode"] == 0 and r["correct"] for r in out["runs"])
    if args.counters:
        out["counters"] = {f"{w}|seed{s}": {side: solver_counts(trees[side], w, s)
                                            for side in SIDES}
                           for w in workloads for s in seeds}
    for item in args.attach:
        key, _, path = item.partition("=")
        with open(path) as fh:
            out[key] = json.load(fh)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0 if out["checks_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
