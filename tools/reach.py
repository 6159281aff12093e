"""List the package functions that no command reaches.

Usage (from the repository root)::

    python tools/reach.py

In one process, pinned to one CPU of its affinity mask so that
``gen-data`` keeps its loading paths in process, the script runs under a
``sys.setprofile`` hook:

* the README's mesh-generation snippet (``beam``, ``partition_by_axis``,
  ``write_mesh_files``) on ``beam(4, 2, 2)``;
* every ``deepwarp`` command through ``cli.main``: ``info``, ``features``
  (directional and circular fields), ``gen-data``, ``train``, ``simulate``
  with each of the five methods (plus backward Euler with both Rayleigh
  coefficients, and the linear, corotational and StVK materials),
  ``compare`` and ``partition-graph`` with ``--partition2``;
* ``bench/run.py --smoke``, through ``runpy``.

It then prints every function defined under ``src/`` (methods and nested
functions included) whose code never ran, as ``module:qualname lines``,
and a summary line. A function counts as reached when its code object was
entered at least once; the source is matched by file and first line
(decorators included). Command output goes to a temporary directory and is
discarded. The exit code is 0 unless a command fails.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "deepwarp"


def defined_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (``module:qualname``, line count) of every
    function and method of the package; the first line is the first
    decorator's, as in the function's code object."""
    found = {}

    def visit(node: ast.AST, path: str, module: str, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(path, first)] = (f"{module}:{owner}{child.name}",
                                        child.end_lineno - first + 1)
                visit(child, path, module, f"{owner}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, module, f"{owner}{child.name}.")

    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        visit(ast.parse(path.read_text()), str(path), module, "")
    return found


def _run(argv: list[str]) -> None:
    from deepwarp import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"deepwarp {' '.join(argv)} exited {code}")


def drive(work: Path) -> None:
    """The README snippet, every command and the bench smoke run, in ``work``."""
    from deepwarp.mesh import write_mesh_files
    from deepwarp.meshgen import beam, partition_by_axis

    nodes, elements, anchors, part_file = (str(work / f"beam.{k}")
                                           for k in ("node", "ele", "anchor", "part"))
    mesh = beam(4, 2, 2, lengths=(2.0, 0.8, 0.8))
    with open(nodes, "w") as n, open(elements, "w") as e, open(anchors, "w") as a:
        write_mesh_files(mesh, n, e, a)
    part = partition_by_axis(mesh, 0, [1.0])
    with open(part_file, "w") as f:
        f.writelines(f"{label}\n" for label in part.labels)

    mesh_flags = ["--nodes", nodes, "--elements", elements, "--anchors", anchors]
    net = str(work / "beam.dwnn")
    _run(["info"] + mesh_flags)
    _run(["features"] + mesh_flags + ["--out", str(work / "features.csv")])
    _run(["features"] + mesh_flags + ["--field", "circular",
                                      "--out", str(work / "circular.csv")])
    _run(["gen-data", "--config", str(ROOT / "configs" / "reference.cfg")] + mesh_flags
         + ["--n-alpha", "1", "--n-beta", "2", "--ramp-poses", "2",
            "--include-circular", "yes", "--out", str(work / "beam.dwtp")])
    _run(["train", "--dataset", str(work / "beam.dwtp"), "--epochs", "2",
          "--out", net])
    scenario = mesh_flags + ["--net", net, "--steps", "3", "--dt", "0.02", "--quiet"]
    simulate = ["simulate"] + scenario + ["--out", str(work / "traj.csv")]
    for method in ("linear", "mw", "rsw", "deepwarp", "groundtruth"):
        _run(simulate + ["--method", method])
    _run(simulate + ["--method", "deepwarp", "--scheme", "backward_euler",
                     "--damping-alpha", "0.1", "--damping-beta", "0.01"])
    for material in ("linear", "corotational", "stvk"):
        _run(simulate + ["--method", "groundtruth", "--material", material])
    _run(["compare"] + scenario + ["--methods", "linear,mw,rsw,deepwarp",
                                   "--out", str(work / "errors.csv")])
    _run(["partition-graph"] + mesh_flags + ["--partition", part_file, "--nodes2", nodes,
                                             "--elements2", elements,
                                             "--partition2", part_file])

    argv = sys.argv
    sys.argv = [str(ROOT / "bench" / "run.py"), "--smoke"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(sys.argv[0], run_name="__main__")
    except SystemExit as exc:
        if exc.code:
            raise SystemExit(f"bench/run.py --smoke exited {exc.code}") from None
    finally:
        sys.argv = argv


def reached_code(work: Path) -> set[tuple[str, int]]:
    """(file, first line) of every code object entered while ``drive`` runs."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        drive(work)
    finally:
        sys.setprofile(None)
    return {(code.co_filename, code.co_firstlineno) for code in codes}


def main() -> int:
    # one BLAS thread, as in bench/run.py; set before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    os.sched_setaffinity(os.getpid(), {min(os.sched_getaffinity(os.getpid()))})
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        reached = reached_code(Path(tmp))
    functions = defined_functions()
    unreached = sorted(v for k, v in functions.items() if k not in reached)
    for name, lines in unreached:
        print(f"{name} {lines}")
    print(f"reached {len(functions) - len(unreached)} of {len(functions)} functions; "
          f"unreached {len(unreached)} functions, {sum(n for _, n in unreached)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
