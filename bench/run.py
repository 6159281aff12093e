"""deepwarp benchmark: three closed-loop workloads driven from outside the
library, with output checks, end-to-end metrics and a traced per-layer run.

    python3 bench/run.py --workload runtime-large --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --smoke

Each workload runs in this one process with one caller: the next step or
pose starts when the previous one returns. The seed picks the load direction
and nothing else. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the workload untraced and then traced, and prints the per-layer metrics
and the tracing overhead. The last line of standard output is one JSON
object; the run exits non-zero when an output check fails. ``--smoke`` runs
every workload on a tiny beam, traced and untraced, and checks that every
metric prints and that the tracer found every target. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time

# One BLAS thread: the machines this runs on are small and shared, and a
# threaded BLAS makes the small dense kernels here jitter. Set before numpy
# loads; a value already in the environment wins.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

from tracer import TARGETS, NullTracer, Tracer  # noqa: E402

try:
    import deepwarp  # noqa: E402
    from deepwarp.dataset import (RampConfig, build_dataset, read_dataset_file,  # noqa: E402
                                  sample_directions, split, write_dataset_file)
    from deepwarp.dynamics import (ConvergenceError, IntegrationScheme,  # noqa: E402
                                   SimState, build_nonlinear_system,
                                   factorization_event_count, step_linear_implicit)
    from deepwarp.features import ForceField, force_vector  # noqa: E402
    from deepwarp.material import (InvertedElementError, MaterialModel,  # noqa: E402
                                   MaterialParams, MeshPrecomp, assemble_force,
                                   assemble_stiffness)
    from deepwarp.mesh import (load_mesh_files, normalize_to_unit_sphere,  # noqa: E402
                               write_mesh_files)
    from deepwarp.meshgen import beam  # noqa: E402
    from deepwarp.net import (AdamConfig, MlpSpec, load_network_file,  # noqa: E402
                              train)
    from deepwarp.registration import (build_rotation_blockdiag,  # noqa: E402
                                       gradient_operator)
    from deepwarp.warper import build_warp_context  # noqa: E402
    # Workload calls to traced functions go through these module objects, so
    # that the tracer's wrappers see them; the output checks call the names
    # imported above, which the tracer leaves alone.
    from deepwarp import dynamics, registration, warper  # noqa: E402
except ImportError as exc:
    sys.exit(f"cannot import the deepwarp package from {ROOT}/src: {exc}")
if not os.path.abspath(deepwarp.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"deepwarp was imported from {deepwarp.__file__}, not from {ROOT}/src")

REFERENCE_NET = os.path.join(HERE, "fixtures", "reference.dwnn")
REFERENCE_VALUES = os.path.join(HERE, "reference_values.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 0

# Material of every workload, and the reference ramp and training settings
# (the values of configs/reference.cfg, fixed here so that the benchmark's
# inputs do not move when that file does).
PARAMS = MaterialParams(MaterialModel.NEO_HOOKEAN, 1e4, 0.45)
DENSITY = 1000.0
DT = 1.0 / 60.0
RAMP = RampConfig(start=0.05, factor=1.3, poses_per_magnitude=10, cap=2.0)
SPEC = MlpSpec((7, 16, 16, 3))
ADAM = AdamConfig(lr=0.001, batch=1024, epochs=10, seed=0)
VAL_FRACTION, TEST_FRACTION = 0.01, 0.125

# Load recipe of runtime-large and compare-readme: an off-grid direction in
# the trained semi-hemisphere, jittered by the seed, scaled so that the
# static linear solution has max |u| = 0.7.
NOMINAL_ALPHA, NOMINAL_BETA = math.radians(75.0), math.radians(45.0)
JITTER = math.radians(5.0)
STATIC_MAX_U = 0.7

# gendata-readme picks +y or +z from sample_directions(4, 4). The beam's
# cross-section is square, so both bend it the same way and take the same
# ramp (88 poses). The grid directions between them take 110 poses and the
# axial ones more, which would turn the seed-to-seed spread into a spread of
# work.
GENDATA_GRID = (4, 4)
GENDATA_CHOICES = (12, 15)

# Relative tolerance of the default-seed reference check: far above
# round-off (a reordered factorization moves these values by ~1e-10) and far
# below any change of the numerics.
REFERENCE_RTOL = 1e-4
# The trained network's validation error goes through 10 epochs of Adam.
REFERENCE_RTOL_TRAINED = 1e-3

# Set-ups are timed several times, spread over the run (see README.md): a
# shared host switches between a fast and a slow speed every few seconds.
RUNTIME_ROUNDS, COMPARE_SETUPS, GENDATA_SETUPS = 3, 5, 2
RUNTIME_JOB_STEPS, COMPARE_STEPS, GENDATA_SIM_STEPS = 300, 120, 300
# gendata-readme simulates for this many times ``seconds``: its steps are
# contiguous, and a median over 10 s can land on either speed.
GENDATA_SIM_SPAN = 2
COMPARE_BLOCK = 10

END_TO_END = [("setup_s", "s"), ("job_s", "s"), ("deepwarp_step_p50_ms", "ms")]


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def off_grid_direction(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = NOMINAL_ALPHA + rng.uniform(-JITTER, JITTER)
    b = NOMINAL_BETA + rng.uniform(-JITTER, JITTER)
    return np.array([math.sin(b) * math.cos(a), math.cos(b), math.sin(b) * math.sin(a)])


def gendata_direction(seed: int) -> np.ndarray:
    dirs = sample_directions(*GENDATA_GRID)
    return dirs[GENDATA_CHOICES[seed % len(GENDATA_CHOICES)]]


def scaled_field(mesh, direction) -> ForceField:
    """Directional field whose static linear solution has max |u| = 0.7."""
    unit = ForceField.directional(direction, 1.0)
    K = assemble_stiffness(mesh, PARAMS.as_linear(), np.zeros(3 * mesh.n_nodes))
    u = spla.spsolve(K.tocsc(), force_vector(mesh, unit, DENSITY))
    peak = float(np.linalg.norm(u.reshape(-1, 3), axis=1).max())
    return unit.with_magnitude(STATIC_MAX_U / peak)


def readme_beam(smoke: bool):
    return beam(4, 2, 2, lengths=(2.0, 0.8, 0.8)) if smoke \
        else beam(16, 5, 5, lengths=(2.0, 0.8, 0.8))


def large_beam(smoke: bool):
    return beam(6, 2, 2, lengths=(2.0, 0.8, 0.8)) if smoke \
        else beam(32, 9, 9, lengths=(2.0, 0.8, 0.8))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def setup_median(samples) -> float:
    """Median of the means of five interleaved subsets of the set-ups.

    The set-ups are spread over the run, and a shared host alternates
    between two speeds, so a plain median lands on whichever speed held for
    more than half the run and jumps between runs. Each interleaved subset
    spans the whole run, so its mean moves smoothly with the share of time
    spent at each speed; the median over the subsets still drops an outlier.
    With five samples or fewer this is the plain median.
    """
    return statistics.median(statistics.fmean(samples[i::5])
                             for i in range(min(5, len(samples))))


def timing(samples, unit_scale=1.0) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(x * unit_scale for x in samples)
    n = len(xs)
    out = {"n": n, "p50": statistics.median(xs)}
    for p in (99.9, 99.0, 95.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            out["tail_name"] = f"p{p:g}"
            out["tail"] = float(np.percentile(xs, p))
            break
    return out


def peak_rel_err(traj, gt) -> float:
    """max_k |u_k - u_gt,k| / max_k |u_gt,k| over one trajectory."""
    diff = max(float(np.linalg.norm(a - b)) for a, b in zip(traj, gt))
    return diff / max(float(np.linalg.norm(b)) for b in gt)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
# Each workload takes (inputs, seconds, tracer, smoke) and returns a result
# dict: end-to-end timings, attempted/failed counts, a detail table and the
# values compared against the committed reference.

def _loaded_beam(mesh, seed: int) -> dict:
    """A beam under the off-grid load, with the reference network."""
    mesh = normalize_to_unit_sphere(mesh)
    field = scaled_field(mesh, off_grid_direction(seed))
    return {"mesh": mesh, "field": field, "net": load_network_file(REFERENCE_NET),
            "f_ext": force_vector(mesh, field, DENSITY)}


def prepare_runtime(seed: int, smoke: bool) -> dict:
    return _loaded_beam(large_beam(smoke), seed)


def run_runtime(inp: dict, seconds: float, tracer, smoke: bool) -> dict:
    """Rounds of one set-up followed by a trajectory from rest.

    Spreading the steps over several rounds, each with its own factor in
    memory, averages out the drift of a shared machine better than one long
    trajectory.
    """
    mesh, field, net, f_ext = inp["mesh"], inp["field"], inp["net"], inp["f_ext"]
    rounds = 1 if smoke else RUNTIME_ROUNDS
    job_steps = 20 if smoke else RUNTIME_JOB_STEPS
    setups, steps, job_s, finals = [], [], 0.0, []
    for _ in range(rounds):
        before = factorization_event_count()
        with tracer.root("bench.setup"):
            t0 = time.perf_counter()
            ctx = build_warp_context(mesh, PARAMS, net, field, DT, density=DENSITY)
            setups.append(time.perf_counter() - t0)
        check(factorization_event_count() == before + 1,
              "build_warp_context factorized exactly once")
        ctx.warn_on_extrapolation = False
        state = ctx.reset()
        n = 0
        t_start = time.perf_counter()
        while n < job_steps or (not smoke and time.perf_counter() - t_start < seconds / rounds):
            try:
                with tracer.root("bench.step"):
                    t0 = time.perf_counter()
                    state, u = warper.deepwarp_step(ctx, state, f_ext)
                    steps.append(time.perf_counter() - t0)
            except Exception as exc:  # any exception is a failed step
                raise CheckFailed(f"step {n} raised {type(exc).__name__}: {exc} "
                                  f"({len(steps) + 1} attempted, 1 failed)") from exc
            n += 1
            if n == job_steps:
                job_s += time.perf_counter() - t_start
                finals.append((u.copy(), state.u.copy()))
            check(bool(np.all(np.isfinite(u))), "deepwarp outputs are finite")
        check(factorization_event_count() == before + 1,
              "stepping performed no factorization")
    u, u_lin = finals[0]
    check(all(np.array_equal(u, f[0]) for f in finals),
          "every round reproduces the same trajectory")
    extrap = ctx.extrapolation_events / (n * mesh.n_nodes)
    return {
        "setup_s": (setup_median(setups), len(setups)),
        "job_s": (job_s, 1),
        "deepwarp_step": timing(steps, 1e3),
        "attempted": len(steps), "failed": 0,
        "extrapolated_fraction": extrap,
        "detail": [
            ("mesh", f"{mesh.n_nodes} nodes, {mesh.n_tets} tets"),
            ("load", f"direction {np.round(field.direction, 4).tolist()}, "
                     f"magnitude {field.magnitude:.6g}"),
            ("job", f"{rounds} rounds of {job_steps} steps from rest, "
                    f"{len(steps)} steps in all"),
            ("extrapolated nodes", f"{extrap:.4f} of node-steps"),
        ],
        "reference": {"u_norm": float(np.linalg.norm(u)),
                      "u_lin_norm": float(np.linalg.norm(u_lin)),
                      "u_max_node": float(np.linalg.norm(u.reshape(-1, 3), axis=1).max())},
    }


def prepare_compare(seed: int, smoke: bool) -> dict:
    return _loaded_beam(readme_beam(smoke), seed)


def run_compare(inp: dict, seconds: float, tracer, smoke: bool) -> dict:
    """Ground truth and every method, in turns of ten steps each.

    Interleaving spreads every method's samples over the whole run, so the
    drift of a shared machine moves them together; within a turn, the steps
    after the first find their data in cache, as in a real-time loop. The
    run's length is set by the 120 ground-truth steps, which take longer
    than ``seconds``.
    """
    mesh, field, net, f_ext = inp["mesh"], inp["field"], inp["net"], inp["f_ext"]
    setups = []

    def setup():
        with tracer.root("bench.setup"):
            t0 = time.perf_counter()
            built = (build_nonlinear_system(mesh, PARAMS, density=DENSITY),
                     dynamics.build_linear_system(mesh, PARAMS.as_linear(), DT,
                                                  IntegrationScheme.NEWMARK, density=DENSITY),
                     build_warp_context(mesh, PARAMS, net, field, DT, density=DENSITY),
                     registration.gradient_operator(mesh))
            setups.append(time.perf_counter() - t0)
        return built

    nsys, lin, ctx, grad_op = setup()
    ctx.warn_on_extrapolation = False
    n = 12 if smoke else COMPARE_STEPS
    rest = SimState.rest(mesh.n_nodes)
    states = {"groundtruth": rest, "linear": rest, "mw": rest, "rsw": rest,
              "deepwarp": ctx.reset()}

    def groundtruth():
        states["groundtruth"] = dynamics.step_newmark_nonlinear(
            nsys, states["groundtruth"], f_ext, DT)
        return states["groundtruth"].u.copy()

    def linear_method(name, warp):
        def step():
            states[name] = step_linear_implicit(lin, states[name], f_ext)
            u = states[name].u
            return u.copy() if warp is None else warp(mesh, u, grad_op)
        return step

    def deepwarp():
        states["deepwarp"], u = warper.deepwarp_step(ctx, states["deepwarp"], f_ext)
        return u

    methods = {"groundtruth": groundtruth, "linear": linear_method("linear", None),
               "mw": linear_method("mw", warper.mw_warp),
               "rsw": linear_method("rsw", warper.rsw_warp), "deepwarp": deepwarp}
    traj = {m: [] for m in methods}
    times = {m: [] for m in methods}
    failed = 0
    block = min(COMPARE_BLOCK, n)
    n_blocks = n // block
    # the other set-ups, after evenly spaced turns, outside the job's clock
    count = 1 if smoke else COMPARE_SETUPS - 1
    resetup_after = {(k + 1) * n_blocks // count - 1 for k in range(count)}
    job_s = 0.0
    for b in range(n_blocks):
        t_job = time.perf_counter()
        for name, step in methods.items():
            for _ in range(block):
                try:
                    with tracer.root("bench.step"):
                        t0 = time.perf_counter()
                        traj[name].append(step())
                        times[name].append(time.perf_counter() - t0)
                except (ConvergenceError, InvertedElementError) as exc:
                    # the ground truth is driven here so that an inverted
                    # element counts as a failed step instead of aborting
                    print(f"{name} step {len(traj[name])} raised "
                          f"{type(exc).__name__}: {exc}")
                    failed += 1
                    break
            if failed:
                break
        job_s += time.perf_counter() - t_job
        if failed:
            break
        if b in resetup_after:
            setup()
    check(failed == 0, f"every ground-truth step converged "
                       f"({sum(map(len, times.values())) + failed} attempted, {failed} failed)")
    for name, us in traj.items():
        check(all(np.all(np.isfinite(u)) for u in us), f"{name} outputs are finite")
    gt = traj["groundtruth"]
    errs = {m: peak_rel_err(traj[m], gt) for m in methods if m != "groundtruth"}
    t = {m: timing(ts, 1e3) for m, ts in times.items()}
    extrap = ctx.extrapolation_events / (n * mesh.n_nodes)
    detail = [("mesh", f"{mesh.n_nodes} nodes, {mesh.n_tets} tets"),
              ("load", f"direction {np.round(field.direction, 4).tolist()}, "
                       f"magnitude {field.magnitude:.6g}"),
              ("job", f"{n} steps of the ground truth and of each method, "
                      f"in turns of {block}")]
    for m in ("groundtruth", "mw", "rsw", "linear"):
        detail += [(f"{m}_step_{k}_ms", v) for k, v in _fmt_timing(t[m])]
    detail += [("deepwarp |u| at step 0", f"{np.linalg.norm(traj['deepwarp'][0]):.6g}"),
               ("groundtruth |u| at step 0", f"{np.linalg.norm(gt[0]):.6g}")]
    detail += [(f"{m}_peak_rel_err", f"{errs[m]:.6g}")
               for m in ("deepwarp", "mw", "rsw", "linear")]
    detail += [("groundtruth/deepwarp step p50 ratio (not gated)",
                f"{t['groundtruth']['p50'] / t['deepwarp']['p50']:.1f}"),
               ("extrapolated nodes", f"{extrap:.4f} of node-steps")]
    return {
        "setup_s": (setup_median(setups), len(setups)),
        "job_s": (job_s, 1),
        "deepwarp_step": t["deepwarp"],
        "attempted": sum(len(ts) for ts in times.values()) + failed,
        "failed": failed,
        "extrapolated_fraction": extrap,
        "detail": detail,
        "reference": {"groundtruth_final_norm": float(np.linalg.norm(gt[-1])),
                      "deepwarp_final_norm": float(np.linalg.norm(traj["deepwarp"][-1])),
                      "deepwarp_step0_norm": float(np.linalg.norm(traj["deepwarp"][0])),
                      "groundtruth_step0_norm": float(np.linalg.norm(gt[0])),
                      **{f"{m}_peak_rel_err": e for m, e in errs.items()}},
    }


def _fmt_timing(t: dict):
    yield "p50", f"{t['p50']:.6g} (n={t['n']})"
    if "tail" in t:
        yield t["tail_name"], f"{t['tail']:.6g} (n={t['n']})"


def prepare_gendata(seed: int, smoke: bool) -> dict:
    workdir = tempfile.mkdtemp(prefix="gendata-", dir=OUT_DIR)
    stem = os.path.join(workdir, "beam")
    with open(stem + ".node", "w") as n, open(stem + ".ele", "w") as e, \
            open(stem + ".anchor", "w") as a:
        write_mesh_files(readme_beam(smoke), n, e, a)
    direction = gendata_direction(seed)
    mesh = normalize_to_unit_sphere(load_mesh_files(stem + ".node", stem + ".ele",
                                                    stem + ".anchor"))
    return {"workdir": workdir, "stem": stem, "direction": direction,
            "sim_field": scaled_field(mesh, direction)}


def run_gendata(inp: dict, seconds: float, tracer, smoke: bool) -> dict:
    stem = inp["stem"]
    setups = []

    def setup():
        for _ in range(1 if smoke else GENDATA_SETUPS):
            with tracer.root("bench.setup"):
                t0 = time.perf_counter()
                mesh = normalize_to_unit_sphere(load_mesh_files(
                    stem + ".node", stem + ".ele", stem + ".anchor"))
                setups.append(time.perf_counter() - t0)
        return mesh

    mesh = setup()
    fields = [ForceField.directional(inp["direction"], 1.0)]
    out = stem + ".dwtp"

    t_job = time.perf_counter()
    with tracer.root("bench.gendata"):
        records, report = build_dataset(mesh, PARAMS, fields, RAMP, DENSITY)
        write_dataset_file(out, records)
    gendata_s = time.perf_counter() - t_job
    with tracer.root("bench.train"):
        tr, va, _ = split(records, VAL_FRACTION, TEST_FRACTION, ADAM.seed)
        t0 = time.perf_counter()
        result = train(SPEC, tr.features, tr.targets, va.features, va.targets, ADAM)
        train_s = time.perf_counter() - t0
    job_s = time.perf_counter() - t_job

    # the README's last step: simulate with the network just trained, in
    # trajectories from rest, with set-ups timed between them
    with tracer.root("bench.sim_setup"):
        ctx = build_warp_context(mesh, PARAMS, result.best_network, inp["sim_field"], DT,
                                 density=DENSITY)
    ctx.warn_on_extrapolation = False
    f_ext = force_vector(mesh, inp["sim_field"], DENSITY)
    n_sim, sim_times = 20 if smoke else GENDATA_SIM_STEPS, []
    t_sim = time.perf_counter()
    while len(sim_times) < n_sim or (
            not smoke and time.perf_counter() - t_sim < GENDATA_SIM_SPAN * seconds):
        state = ctx.reset()
        for _ in range(n_sim):
            with tracer.root("bench.step"):
                t0 = time.perf_counter()
                state, u = warper.deepwarp_step(ctx, state, f_ext)
                sim_times.append(time.perf_counter() - t0)
            check(bool(np.all(np.isfinite(u))), "deepwarp outputs are finite")
        setup()

    # output checks, outside every timer
    records.validate(mesh.anchors)
    back = read_dataset_file(out)
    check(np.array_equal(back.features, records.features)
          and np.array_equal(back.targets, records.targets), "DWTP file round-trips")
    _check_residuals(mesh, report)
    hist = result.history
    check(hist[ADAM.epochs][1] <= hist[0][1] / 5.0,
          "validation MSE dropped at least 5x in 10 epochs")

    detail = [("mesh", f"{mesh.n_nodes} nodes, {mesh.n_tets} tets"),
              ("direction", f"{np.round(inp['direction'], 4).tolist()}"),
              ("gendata_s", f"{gendata_s:.6g} (build_dataset + write, n=1)"),
              ("train_epoch_s", f"{train_s / ADAM.epochs:.6g} "
                                f"(mean of {ADAM.epochs} epochs in one train call)"),
              ("poses", f"{report.attempted} attempted, {report.emitted} emitted, "
                        f"{report.dropped_nonconverged} dropped non-converged, "
                        f"{report.dropped_capped} dropped capped"),
              ("records", f"{len(records)}"),
              ("validation MSE", f"{hist[0][1]:.6g} -> {hist[-1][1]:.6g}"),
              ("extrapolated nodes",
               f"{ctx.extrapolation_events / (len(sim_times) * mesh.n_nodes):.4f} "
               "of node-steps")]
    return {
        "setup_s": (setup_median(setups), len(setups)),
        "job_s": (job_s, 1),
        "deepwarp_step": timing(sim_times, 1e3),
        # a pose fails when generating it raises, which aborts the run; the
        # poses dropped non-converged are the ramp's stopping rule
        "attempted": report.attempted, "failed": 0,
        "dropped_nonconverged": report.dropped_nonconverged,
        "extrapolated_fraction": ctx.extrapolation_events / (len(sim_times) * mesh.n_nodes),
        "detail": detail,
        "reference": {"poses_attempted": report.attempted, "poses_emitted": report.emitted,
                      "dropped_nonconverged": report.dropped_nonconverged,
                      "records": len(records),
                      "targets_norm": float(np.linalg.norm(records.targets)),
                      "val_mse_final": hist[-1][1]},
    }


def _check_residuals(mesh, report) -> None:
    """Recompute every emitted pose's registration residual."""
    pre = MeshPrecomp(mesh)
    grad_op = gradient_operator(mesh)
    K = assemble_stiffness(mesh, PARAMS.as_linear(), np.zeros(3 * mesh.n_nodes), pre)
    dofs = (mesh.anchor_array()[:, None] * 3 + np.arange(3)).ravel()
    for pose in report.poses:
        if pose.magnitude == 0.0:
            check(not np.any(pose.u), "rest poses are at rest")
            continue
        target = build_rotation_blockdiag(mesh, pose.u_lin, grad_op).apply(K @ pose.u_lin)
        target[dofs] = 0.0
        r = -assemble_force(mesh, PARAMS, pose.u, pre) - target
        r[dofs] = 0.0
        tol = max(1e-6 * float(np.linalg.norm(target)), 1e-10)
        check(float(np.linalg.norm(r)) <= 1.01 * tol,
              "every emitted pose is registered within tolerance")


WORKLOADS = {
    "runtime-large": (prepare_runtime, run_runtime),
    "gendata-readme": (prepare_gendata, run_gendata),
    "compare-readme": (prepare_compare, run_compare),
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer, res: dict) -> dict:
    """Per-layer metrics from the traced run's spans and counters."""
    s = tracer.summary()
    c = tracer.counters

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    out = {}
    for name in ("dynamics.factorize", "dynamics.backsolve",
                 "material.assemble_stiffness", "material.assemble_force",
                 "registration.register_nonlinear", "dynamics.quasistatic_run",
                 "dynamics.newmark_step", "registration.rotation_vectors_from_displacement",
                 "features.align_batch", "net.forward_batch", "warper.correct",
                 "net.backward", "net.adam_step"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    for name in ("material.piola_stress_differential_batch", "material.piola_stress_batch",
                 "registration.rotations_from_vectors", "warper.deepwarp_step",
                 "warper.mw_warp", "warper.rsw_warp", "dynamics.build_linear_system",
                 "dataset.generate_poses", "dataset.extract_records"):
        out[f"{name}.self_s"] = get(name, "self_s")
    for name in ("mesh.node_adjacency", "registration.gradient_operator",
                 "features.geodesic_all"):
        out[f"{name}.s"] = get(name, "s")
    out["dynamics.factorize.lu_nnz"] = int(np.median(tracer.lu_nnz)) if tracer.lu_nnz else 0
    calls = get("registration.register_nonlinear", "calls")
    out["registration.newton_iters"] = c.get("registration.newton_iters", 0)
    out["registration.converged_ratio"] = \
        c.get("registration.converged", 0) / calls if calls else 0.0
    out["dynamics.quasistatic_run.steps_run"] = c.get("dynamics.quasistatic_run.steps_run", 0)
    iters = tracer.count_under("dynamics.newmark_step", "material.assemble_stiffness")
    forces = tracer.count_under("dynamics.newmark_step", "material.assemble_force")
    out["dynamics.newmark_newton_iters"] = iters
    out["dynamics.newmark_backtracks"] = forces - iters - get("dynamics.newmark_step", "calls")
    out["warper.extrapolated_fraction"] = res["extrapolated_fraction"]
    for key in ("poses_attempted", "poses_emitted", "dropped_nonconverged", "write_bytes"):
        out[f"dataset.{key}"] = c.get(f"dataset.{key}", 0)
    out["dataset.write_s"] = get("dataset.write", "s")
    return out


PER_LAYER = [  # (name, unit)
    *[(f"{n}.{k}", "count" if k == "calls" else "s")
      for n in ("dynamics.factorize", "dynamics.backsolve", "material.assemble_stiffness",
                "material.assemble_force", "registration.register_nonlinear",
                "dynamics.quasistatic_run", "dynamics.newmark_step",
                "registration.rotation_vectors_from_displacement", "features.align_batch",
                "net.forward_batch", "warper.correct", "net.backward", "net.adam_step")
      for k in ("calls", "self_s")],
    *[(f"{n}.self_s", "s")
      for n in ("material.piola_stress_differential_batch", "material.piola_stress_batch",
                "registration.rotations_from_vectors", "warper.deepwarp_step",
                "warper.mw_warp", "warper.rsw_warp", "dynamics.build_linear_system",
                "dataset.generate_poses", "dataset.extract_records")],
    ("mesh.node_adjacency.s", "s"), ("registration.gradient_operator.s", "s"),
    ("features.geodesic_all.s", "s"), ("dynamics.factorize.lu_nnz", "count"),
    ("registration.newton_iters", "count"), ("registration.converged_ratio", "ratio"),
    ("dynamics.quasistatic_run.steps_run", "count"),
    ("dynamics.newmark_newton_iters", "count"), ("dynamics.newmark_backtracks", "count"),
    ("warper.extrapolated_fraction", "ratio"), ("dataset.poses_attempted", "count"),
    ("dataset.poses_emitted", "count"), ("dataset.dropped_nonconverged", "count"),
    ("dataset.write_bytes", "B"), ("dataset.write_s", "s"),
    ("trace.overhead_s", "s"),
]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the build-info layout differs across numpy releases
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def end_to_end(res: dict) -> dict:
    return {"setup_s": res["setup_s"][0], "job_s": res["job_s"][0],
            "deepwarp_step_p50_ms": res["deepwarp_step"]["p50"]}


def print_result(workload: str, res: dict) -> None:
    print(f"== {workload}")
    for name, unit in END_TO_END:
        n = res["deepwarp_step"]["n"] if name.startswith("deepwarp") else res[name][1]
        print(f"metric {name} = {end_to_end(res)[name]:.6g} {unit} (n={n})")
    dw = res["deepwarp_step"]
    if "tail" in dw:
        print(f"detail deepwarp_step_{dw['tail_name']}_ms = {dw['tail']:.6g} ms "
              f"(n={dw['n']}, not gated)")
    for key, value in res["detail"]:
        print(f"detail {key}: {value}")
    dropped = (f", {res['dropped_nonconverged']} dropped non-converged"
               if "dropped_nonconverged" in res else "")
    print(f"operations: {res['attempted']} attempted, {res['failed']} failed{dropped}")


def check_reference(workload: str, values: dict) -> None:
    with open(REFERENCE_VALUES) as f:
        ref = json.load(f)[workload]
    for key, expected in ref.items():
        got = values[key]
        if isinstance(expected, int):
            check(got == expected, f"{key} = {got}, reference {expected}")
            continue
        rtol = REFERENCE_RTOL_TRAINED if key == "val_mse_final" else REFERENCE_RTOL
        check(math.isclose(got, expected, rel_tol=rtol),
              f"{key} = {got!r}, reference {expected!r} (rtol {rtol})")
        print(f"reference {key}: {got:.10g} (committed {expected:.10g})")


def _run_once(prepare, run, seed, seconds, tracer, smoke) -> dict:
    inp = prepare(seed, smoke)
    try:
        return run(inp, seconds, tracer, smoke)
    finally:
        if "workdir" in inp:
            shutil.rmtree(inp["workdir"], ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 smoke: bool = False) -> tuple[dict, dict]:
    """Run one workload; return (result JSON, per-layer metrics or {})."""
    prepare, run = WORKLOADS[workload]
    res = _run_once(prepare, run, seed, seconds, NullTracer(), smoke)
    print_result(workload, res)
    if seed == DEFAULT_SEED and not smoke:
        check_reference(workload, res["reference"])
    layers = {}
    if traced:
        tracer = Tracer().install()
        try:
            res_t = _run_once(prepare, run, seed, seconds, tracer, smoke)
        finally:
            tracer.uninstall()
        layers = layer_metrics(tracer, res_t)
        layers["trace.overhead_s"] = res_t["job_s"][0] - res["job_s"][0]
        for name, unit in END_TO_END:
            print(f"overhead {name}: traced {end_to_end(res_t)[name]:.6g} - untraced "
                  f"{end_to_end(res)[name]:.6g} = "
                  f"{end_to_end(res_t)[name] - end_to_end(res)[name]:+.6g} {unit}")
        for name in tracer.missing:
            print(f"layer {name}: MISSING (target not found)")
        for name, unit in PER_LAYER:
            print(f"layer {name} = {layers[name]:.6g} {unit}")
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl"))
        res["missing"] = tracer.missing
    return res, layers


def smoke() -> int:
    """Every workload on a tiny beam, untraced and traced."""
    bad = []
    for workload in WORKLOADS:
        res, layers = run_workload(workload, DEFAULT_SEED, 0.0, traced=True, smoke=True)
        for name, _ in END_TO_END:
            if not end_to_end(res)[name] > 0.0:
                bad.append(f"{workload}: {name} missing or zero")
        bad += [f"{workload}: {name} missing" for name, _ in PER_LAYER if name not in layers]
        bad += [f"{workload}: tracer target {name} missing" for name in res["missing"]]
    expected = {name for name, *_ in TARGETS}
    for line in bad:
        print(f"SMOKE FAIL {line}")
    print(f"smoke: {len(WORKLOADS)} workloads, {len(END_TO_END)} end-to-end and "
          f"{len(PER_LAYER)} per-layer metrics, {len(expected) + 2} tracer targets: "
          f"{'FAIL' if bad else 'PASS'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment()
    print("environment " + json.dumps(env))
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        res, layers = run_workload(args.workload, args.seed, args.seconds,
                                   traced=bool(args.trace))
        correct = True
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}")
        return 1
    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end(res)[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
