"""Time the material assembly and the factorization layers on the benchmark
beams.

Usage (from the repository root)::

    PYTHONPATH=src python tools/time_layers.py > layers.json

Each mesh is the benchmark's beam, normalised to the unit sphere: the README
beam ``beam(16, 5, 5)`` (612 nodes, 2400 tets) and ``beam(32, 9, 9)`` (3300
nodes, 15552 tets), both with lengths (2.0, 0.8, 0.8). The timed calls are

* ``setup``: ``MeshPrecomp(mesh)`` plus its first linear ``assemble_stiffness``
  at rest, the set-up every solver pays once per mesh;
* ``assemble_stiffness`` and ``assemble_force``: neo-Hookean, E = 1e4,
  nu = 0.45 (the benchmark's material), at the deformed state below;
* ``total_elastic_energy`` at the same state;
* ``factorize`` and ``backsolve``: ``BandedCholesky(A, 3)`` and its
  ``solve(b)`` for a fixed random b, where A is the CSR Newmark matrix
  M + dt/2 C + dt^2/4 K that ``build_linear_system`` prefactorizes (the
  material's linear part, dt = 1/60, no damping, as ``build_warp_context``
  builds it in the benchmark's runtime workload). ``band_rows`` and
  ``band_mb`` give the size of its band factor;
* ``refactorize``: ``factor.refactor(A)`` on the same A, the numeric half
  alone (pack and ``pbtrf``) that a Newton loop pays while its tangents keep
  their pattern;
* ``rsw_fit``: ``warper._rsw_normal_fit`` with its cache cleared, the
  rotation-strain baseline's normal matrix formed and factored as one
  node-level copy (one DOF per node); ``rsw_band_rows`` and ``rsw_band_mb``
  give the size of its band, and ``rsw_backsolve`` times its ``solve`` of a
  fixed random right-hand side of 3 n_free entries, one column per
  component: the solve of one ``rsw_warp`` step.

The deformed state is fixed: with s = (x - x_min) / (x_max - x_min) along
the beam axis, every node turns by 0.6 s radians about the axis and moves by
0.15 s^2 along +y. It strains every element without inverting any (the
neo-Hookean calls would raise ``InvertedElementError``).

Every call is run ``warmup`` times untimed, then ``calls`` times; the
output is one JSON object with the median and quartiles in milliseconds per
call, ``nproc``, the Python, numpy and scipy versions and the BLAS thread
variables. The variables are pinned to 1 unless they are set, as in the
benchmark.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from deepwarp import warper  # noqa: E402
from deepwarp.dynamics import (NEWMARK_BETA, NEWMARK_GAMMA, BandedCholesky,  # noqa: E402
                               build_linear_system)
from deepwarp.material import (MaterialModel, MaterialParams, MeshPrecomp,  # noqa: E402
                               assemble_force, assemble_stiffness, total_elastic_energy)
from deepwarp.mesh import normalize_to_unit_sphere  # noqa: E402
from deepwarp.meshgen import beam  # noqa: E402
from deepwarp.registration import gradient_operator  # noqa: E402

PARAMS = MaterialParams(MaterialModel.NEO_HOOKEAN, 1e4, 0.45)
MESHES = {"readme_beam": (16, 5, 5), "large_beam": (32, 9, 9)}
LENGTHS = (2.0, 0.8, 0.8)
DT = 1 / 60


def deformed_state(mesh) -> np.ndarray:
    """Twist of 0.6 s rad about the beam axis plus a 0.15 s^2 bend along +y."""
    x = mesh.nodes
    s = (x[:, 0] - x[:, 0].min()) / np.ptp(x[:, 0])
    c = x.mean(axis=0)
    angle = 0.6 * s
    y, z = x[:, 1] - c[1], x[:, 2] - c[2]
    u = np.zeros_like(x)
    u[:, 1] = np.cos(angle) * y - np.sin(angle) * z - y + 0.15 * s * s
    u[:, 2] = np.sin(angle) * y + np.cos(angle) * z - z
    return u.ravel()


def _stats(fn, calls: int, warmup: int) -> dict:
    for _ in range(warmup):
        fn()
    times = np.empty(calls)
    for k in range(calls):
        t0 = time.perf_counter()
        fn()
        times[k] = time.perf_counter() - t0
    q1, med, q3 = np.percentile(times * 1e3, [25, 50, 75])
    return {"median_ms": float(med), "q1_ms": float(q1), "q3_ms": float(q3), "calls": calls}


def time_mesh(mesh, calls: int = 30, warmup: int = 3) -> dict:
    """Per-call timings of the assembly layer on one mesh."""
    n = 3 * mesh.n_nodes
    linear = PARAMS.as_linear()
    u = deformed_state(mesh)
    pre = MeshPrecomp(mesh)
    system = build_linear_system(mesh, linear, DT)
    A = (system.M + NEWMARK_GAMMA * DT * system.C + NEWMARK_BETA * DT * DT * system.K).tocsr()
    factor = BandedCholesky(A, 3)
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    grad_op = gradient_operator(mesh)

    def rsw_fit():
        warper._rsw_fit = None
        return warper._rsw_normal_fit(grad_op, mesh)

    rsw = rsw_fit().factor
    # the 3 n_free right-hand side of one step, in the factor's columns
    rhs = np.random.default_rng(1).standard_normal(mesh.free_dofs().index.size)
    rhs = rhs.reshape(rsw.band.shape[1], -1)
    return {
        "nodes": mesh.n_nodes, "tets": len(mesh.tets),
        "setup": _stats(lambda: assemble_stiffness(mesh, linear, np.zeros(n), MeshPrecomp(mesh)),
                        calls, warmup),
        "assemble_stiffness": _stats(lambda: assemble_stiffness(mesh, PARAMS, u, pre),
                                     calls, warmup),
        "assemble_force": _stats(lambda: assemble_force(mesh, PARAMS, u, pre), calls, warmup),
        "total_elastic_energy": _stats(lambda: total_elastic_energy(mesh, PARAMS, u, pre),
                                       calls, warmup),
        "band_rows": factor.band.shape[0], "band_mb": factor.band.nbytes / 1e6,
        "factorize": _stats(lambda: BandedCholesky(A, 3), calls, warmup),
        "refactorize": _stats(lambda: factor.refactor(A), calls, warmup),
        "backsolve": _stats(lambda: factor.solve(b), calls, warmup),
        "rsw_band_rows": rsw.band.shape[0], "rsw_band_mb": rsw.band.nbytes / 1e6,
        "rsw_fit": _stats(rsw_fit, calls, warmup),
        "rsw_backsolve": _stats(lambda: rsw.solve(rhs), calls, warmup),
    }


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def run(meshes: dict, calls: int = 30, warmup: int = 3) -> dict:
    """Time every mesh of ``meshes`` (name -> beam cell counts)."""
    out = {"environment": environment(), "material": PARAMS.model.value,
           "youngs": PARAMS.youngs, "poisson": PARAMS.poisson}
    for name, cells in meshes.items():
        mesh = normalize_to_unit_sphere(beam(*cells, lengths=LENGTHS))
        out[name] = time_mesh(mesh, calls, warmup)
    return out


def main() -> None:
    json.dump(run(MESHES), sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
