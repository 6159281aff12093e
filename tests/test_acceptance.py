"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The end-to-end criteria
share one session-scoped pipeline (dataset generation, 10-epoch training and
held-out pose evaluation), which takes several minutes of CPU time; they are
marked ``slow``, so ``pytest -m "not slow"`` leaves them out.
"""

import itertools
import time

import numpy as np
import pytest

from deepwarp.dataset import RampConfig, build_dataset, sample_directions, split
from deepwarp.dynamics import (QuasistaticDriver, RayleighDamping, SimState,
                               build_nonlinear_system, factorization_event_count,
                               reset_factorization_event_count,
                               step_newmark_nonlinear)
from deepwarp.features import (ForceField, align_kinematics, digression, force_vector,
                               geodesic_all, static_features, GeodesicField)
from deepwarp.material import (MaterialModel, MaterialParams, element_precomp,
                               element_tangent_stiffness, energy_density, piola_stress)
from deepwarp.mesh import DomainPartition, TetMesh, normalize_to_unit_sphere
from deepwarp.meshgen import beam, partition_by_axis
from deepwarp.net import (AdamConfig, AdamState, MlpSpec, MlpWeights, adam_step,
                          backward, init_weights, train)
from deepwarp.registration import (gradient_operator, register_sequence,
                                   rotation_from_vector,
                                   rotation_vectors_from_displacement)
from deepwarp.substructure import DomainGraph, graphs_isomorphic, \
    simulate_substructured
from deepwarp.warper import (build_warp_context, deepwarp_step, dominant_frequency,
                             mw_warp, rsw_warp, run_deepwarp)
from reference_paths import (element_gradients, fd_element_stiffness, fd_stress, graph_of,
                             material_state)

DENSITY = 1000.0


def _verdict(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


def _random_rotation(rng, min_angle=0.0):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return rotation_from_vector(axis * rng.uniform(max(min_angle, 1e-3), np.pi))


@pytest.fixture(scope="session")
def pipeline():
    """Scaled end-to-end experiment: beam data generation, reference-protocol
    training, and held-out pose evaluation against the geometric baselines."""
    mesh = normalize_to_unit_sphere(beam(10, 4, 4, lengths=(2.0, 0.8, 0.8)))
    params = MaterialParams(MaterialModel.NEO_HOOKEAN, 1e4, 0.48)

    dirs = sample_directions(4, 4)
    unique = []
    for d in dirs:
        if not any(np.allclose(d, u) for u in unique):
            unique.append(d)
    fields = [ForceField.directional(d, 1.0) for d in unique]
    ramp = RampConfig(start=0.05, factor=1.25, poses_per_magnitude=30, cap=1.4)

    t0 = time.time()
    records, report = build_dataset(mesh, params, fields, ramp, DENSITY)
    gen_seconds = time.time() - t0
    print(f"\n[pipeline] {len(records)} records from {report.emitted} poses "
          f"in {gen_seconds:.0f}s", flush=True)

    tr, va, te = split(records, 0.01, 1.0 / 8.0, seed=0)
    config = AdamConfig(lr=0.001, batch=1024, epochs=10, seed=0)
    t0 = time.time()
    result = train(MlpSpec((7, 16, 16, 3)), tr.features, tr.targets,
                   va.features, va.targets, config)
    train_seconds = time.time() - t0
    print(f"[pipeline] trained 10 epochs in {train_seconds:.0f}s: "
          f"val {result.history[0][1]:.3e} -> {result.history[-1][1]:.3e}",
          flush=True)

    # held-out bending poses: off-grid directions, magnitudes tuned to the
    # requested linear-displacement band
    net = result.best_network
    grad_op = gradient_operator(mesh)
    driver = QuasistaticDriver(mesh, params.as_linear(), density=DENSITY)
    free = np.ones(mesh.n_nodes, dtype=bool)
    free[mesh.anchor_array()] = False
    geo = geodesic_all(mesh)

    def warp_pose(field, u_lin):
        sf = static_features(mesh, field, geo)
        w = rotation_vectors_from_displacement(grad_op, u_lin)
        from deepwarp.features import align_batch, assemble_features_batch
        mu, mw, th, Q = align_batch(u_lin.reshape(-1, 3), w)
        X = assemble_features_batch(mu, mw, th, sf, params.poisson)
        zeros = np.zeros(mesh.n_nodes)
        X0 = assemble_features_batch(zeros, zeros, zeros, sf, params.poisson)
        delta = np.einsum("npq,np->nq", Q, net.predict(X) - net.predict(X0))
        out = u_lin.reshape(-1, 3) + np.where(free[:, None], delta, 0.0)
        return out.ravel()

    held_out = [(0.3, 0.35, 0.4), (0.55, 0.55, 0.55), (0.9, 0.5, 0.7),
                (1.2, 0.25, 0.85), (0.5, 0.7, 1.0)]
    poses = []
    for alpha, beta, target_max in held_out:
        d = np.array([np.sin(beta) * np.cos(alpha), np.cos(beta),
                      np.sin(beta) * np.sin(alpha)])
        field = ForceField.directional(d, 1.0)
        probe = driver.run(force_vector(mesh, field, DENSITY), n_steps=3)
        mx = np.linalg.norm(probe.target.reshape(-1, 3), axis=1).max()
        field = field.with_magnitude(target_max / mx)
        seq = driver.run(force_vector(mesh, field, DENSITY), n_steps=25)
        results = register_sequence(driver, params, seq.displacements, grad_op)
        assert all(res.converged for res in results), results[-1].residual
        u_lin, u_gt = seq.displacements[-1], results[-1].u
        gn = np.linalg.norm(u_gt)
        poses.append({
            "max_lin": float(np.linalg.norm(u_lin.reshape(-1, 3), axis=1).max()),
            "linear": float(np.linalg.norm(u_lin - u_gt) / gn),
            "mw": float(np.linalg.norm(mw_warp(mesh, u_lin, grad_op) - u_gt) / gn),
            "rsw": float(np.linalg.norm(rsw_warp(mesh, u_lin, grad_op) - u_gt) / gn),
            "deepwarp": float(np.linalg.norm(warp_pose(field, u_lin) - u_gt) / gn),
        })
        print(f"[pipeline] pose max|u_lin|={poses[-1]['max_lin']:.2f}: "
              f"lin {poses[-1]['linear']:.4f} mw {poses[-1]['mw']:.4f} "
              f"rsw {poses[-1]['rsw']:.4f} deepwarp {poses[-1]['deepwarp']:.4f}",
              flush=True)

    return {"mesh": mesh, "params": params, "net": net, "history": result.history,
            "config": config, "gen_seconds": gen_seconds,
            "train_seconds": train_seconds, "poses": poses,
            "n_tets": mesh.n_tets}


# ---------------------------------------------------------------------------

def test_criterion_01_constitutive_correctness(small_beam):
    rng = np.random.default_rng(100)
    rest = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    pre = element_precomp(rest)
    # away from rest: every element of the rotated, strained (min det F = 0.5)
    # and nearly inverted (0.05) states of the kernel tests
    away = {name: material_state(small_beam, name) for name in ("deformed", "near_inverted")}
    worst = dict.fromkeys(("near rest", *away), 0.0)

    def record(key, got, want):
        worst[key] = max(worst[key], np.linalg.norm(got - want) / np.linalg.norm(want))

    for model in MaterialModel:
        params = MaterialParams(model, 100.0, 0.35)
        states = 0
        while states < 100:
            F = np.eye(3) + 0.25 * rng.standard_normal((3, 3))
            if np.linalg.det(F) <= 0.1:
                continue
            states += 1
            record("near rest", piola_stress(params, F), fd_stress(params, F))
            x = rest + 0.15 * rng.standard_normal((4, 3))
            if np.linalg.det((x[1:] - x[0]).T @ pre.inv_rest_edges) <= 0.1:
                continue
            record("near rest", element_tangent_stiffness(params, pre, x),
                   fd_element_stiffness(params, pre, x))
        for name, u in away.items():
            x = small_beam.nodes + u.reshape(-1, 3)
            for tet, F_e, pre_e in zip(small_beam.tets, *element_gradients(small_beam, u)):
                record(name, piola_stress(params, F_e), fd_stress(params, F_e))
                record(name, element_tangent_stiffness(params, pre_e, x[tet]),
                       fd_element_stiffness(params, pre_e, x[tet]))
    _verdict(1, "constitutive-correctness", max(worst.values()) < 1e-4,
             "worst finite-difference relative error "
             + ", ".join(f"{key} {err:.2e}" for key, err in worst.items()) + " < 1e-4")


def test_criterion_02_rotation_behavior():
    rng = np.random.default_rng(101)
    worst_nl, min_linear = 0.0, np.inf
    for _ in range(100):
        R = _random_rotation(rng, min_angle=0.3)
        for model in MaterialModel:
            psi = energy_density(MaterialParams(model, 100.0, 0.35), R)
            if model is MaterialModel.LINEAR:
                min_linear = min(min_linear, psi)
            else:
                worst_nl = max(worst_nl, abs(psi))
    _verdict(2, "rotation-behavior", worst_nl < 1e-10 and min_linear > 0.0,
             f"nonlinear |energy| <= {worst_nl:.1e}, linear energy >= {min_linear:.2e}")


@pytest.mark.slow
def test_criterion_03_alignment_invariance(pipeline):
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        u, w = rng.standard_normal((2, 3))
        R = _random_rotation(rng)
        a1 = align_kinematics(u, w)
        a2 = align_kinematics(R @ u, R @ w)
        worst = max(worst, abs(a1.u_mag - a2.u_mag), abs(a1.w_mag - a2.w_mag),
                    abs(a1.angle - a2.angle))
    triple_ok = worst < 1e-9

    # end-to-end equivariance with the trained network: rotate mesh and field,
    # compare once the state has left the noise-level-w neighborhood of rest
    mesh, params, net = pipeline["mesh"], pipeline["params"], pipeline["net"]
    field = ForceField.directional([0.25, 0.9, 0.3], 3.0)
    ctx = build_warp_context(mesh, params, net, field, dt=1 / 60, density=DENSITY)
    traj = run_deepwarp(ctx, 8, force_vector(mesh, field))
    R = rotation_from_vector(np.array([0.4, -0.2, 0.7]))
    rot_mesh = TetMesh(nodes=mesh.nodes @ R.T, tets=mesh.tets, anchors=mesh.anchors)
    rot_field = ForceField.directional(R @ field.direction, field.magnitude)
    rot_ctx = build_warp_context(rot_mesh, params, net, rot_field, dt=1 / 60,
                                 density=DENSITY)
    rot_traj = run_deepwarp(rot_ctx, 8, force_vector(rot_mesh, rot_field))
    worst_equi = 0.0
    for u, ur in zip(traj[3:], rot_traj[3:]):
        expected = (u.reshape(-1, 3) @ R.T).ravel()
        worst_equi = max(worst_equi,
                         np.abs(ur - expected).max() / max(np.abs(expected).max(), 1.0))
    _verdict(3, "alignment-invariance", triple_ok and worst_equi < 1e-5,
             f"triple drift {worst:.1e} < 1e-9, warp equivariance "
             f"{worst_equi:.1e} < 1e-5")


def test_criterion_04_registration_small_strain_limit():
    mesh = beam(6, 3, 3, lengths=(2.0, 1.0, 1.0))     # 324 tets (<= 1k)
    ok = True
    details = []
    for model in (MaterialModel.STVK, MaterialModel.NEO_HOOKEAN):
        params = MaterialParams(model, 1e4, 0.4)
        base = force_vector(mesh, ForceField.directional([0, -1, 0], 0.12), DENSITY)
        gaps = []
        for scale in (1.0, 0.5, 0.25, 0.125):
            driver = QuasistaticDriver(mesh, params.as_linear(), density=DENSITY)
            seq = driver.run(scale * base, n_steps=10)
            results = register_sequence(driver, params, seq.displacements,
                                        gradient_operator(mesh))
            assert all(res.converged for res in results), results[-1].residual
            u_lin, u = seq.displacements[-1], results[-1].u
            gaps.append(float(np.linalg.norm(u - u_lin) / np.linalg.norm(u_lin)))
        monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
        ok = ok and monotone and gaps[-1] < 1e-2
        details.append(f"{model.value}: gaps {['%.4f' % g for g in gaps]}")
    _verdict(4, "registration-small-strain", ok, "; ".join(details))


def test_criterion_05_feature_oracles():
    # exact Dijkstra vs exhaustive path enumeration on random small graphs
    rng = np.random.default_rng(103)
    exact = True
    for _ in range(100):
        n = int(rng.integers(3, 11))
        nodes = rng.random((n, 3))
        edges = set()
        order = rng.permutation(n)
        for i in range(1, n):
            j = order[rng.integers(0, i)]
            edges.add((min(int(order[i]), int(j)), max(int(order[i]), int(j))))
        for _ in range(n):
            a, b = rng.integers(0, n, 2)
            if a != b:
                edges.add((min(int(a), int(b)), max(int(a), int(b))))
        adjacency = [[] for _ in range(n)]
        for a, b in edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        adjacency = [np.array(sorted(a), dtype=np.int64) for a in adjacency]
        anchors = {int(a) for a in rng.choice(n, size=int(rng.integers(1, 3)),
                                              replace=False)}
        mesh = TetMesh(nodes=nodes, tets=np.zeros((0, 4), dtype=int),
                       anchors=frozenset(anchors))
        geo = geodesic_all(mesh, graph_of(adjacency))

        best = {i: (0.0 if i in anchors else np.inf) for i in range(n)}

        def visit(i, dist, seen):
            for j in adjacency[i]:
                j = int(j)
                if j in seen:
                    continue
                d = dist + float(np.linalg.norm(nodes[j] - nodes[i]))
                if d < best[j]:
                    best[j] = d
                visit(j, d, seen | {j})

        for a in anchors:
            visit(a, 0.0, {a})
        dmax = max(best.values())
        for i in range(n):
            expect = best[i] / dmax if dmax > 0 else 0.0
            if geo.g[i] != expect:
                exact = False

    # digression endpoint cases, bitwise-exact values
    nodes = np.array([[0.0, 0, 0], [0, 2, 0], [0, -3, 0], [1, 0, 0]])
    mesh = TetMesh(nodes=nodes, tets=np.zeros((0, 4), dtype=int),
                   anchors=frozenset({0}))
    geo = GeodesicField(g=np.zeros(4), nearest_anchor=np.zeros(4, dtype=int),
                        distance=np.zeros(4))
    up = ForceField.directional([0, 1, 0], 1.0)
    circ = ForceField.circular([0, 0, 0], [1, 0, 0], 1.0)
    endpoints = (digression(mesh, up, 1, geo) == 0.0
                 and digression(mesh, up, 2, geo) == np.pi
                 and digression(mesh, up, 3, geo) == np.pi / 2
                 and digression(mesh, circ, 1, geo) == -1.0)
    _verdict(5, "feature-oracles", exact and endpoints,
             f"geodesics exact on 100 graphs: {exact}; endpoint cases exact: "
             f"{endpoints}")


def test_criterion_06_network_training_integrity():
    rng = np.random.default_rng(104)
    spec = MlpSpec((7, 16, 16, 3))

    # backprop vs finite differences
    w = init_weights(spec, 3)
    X = rng.standard_normal((32, 7))
    Y = rng.standard_normal((32, 3))
    grads, _ = backward(w, X, Y, spec.activation)
    h = 1e-6
    params = w.weights + w.biases
    grad_arrays = grads.weights + grads.biases
    worst_fd = 0.0
    for _ in range(64):
        pi = rng.integers(0, len(params))
        arr = params[pi]
        j = tuple(rng.integers(0, s) for s in arr.shape)
        orig = arr[j]
        arr[j] = orig + h
        _, lp = backward(w, X, Y, spec.activation)
        arr[j] = orig - h
        _, lm = backward(w, X, Y, spec.activation)
        arr[j] = orig
        fd = (lp - lm) / (2 * h)
        worst_fd = max(worst_fd, abs(fd - grad_arrays[pi][j]) / max(abs(fd), 1e-10))

    # Adam drives theta^2 below 1e-6 within 10k steps
    theta = MlpWeights(weights=[np.array([[3.0]])], biases=[np.array([0.0])])
    state = AdamState.zeros_like(theta)
    cfg = AdamConfig(lr=0.01)
    steps_used = 10000
    for step in range(1, 10001):
        g = MlpWeights(weights=[2.0 * theta.weights[0]], biases=[np.zeros(1)])
        adam_step(theta, g, state, cfg)
        if abs(theta.weights[0][0, 0]) < 1e-6:
            steps_used = step
            break
    quad_ok = abs(theta.weights[0][0, 0]) < 1e-6

    # first-step delta for a unit gradient
    w2 = init_weights(spec, 0)
    before = w2.weights[0][0, 0]
    ones = MlpWeights([np.ones_like(a) for a in w2.weights],
                      [np.ones_like(b) for b in w2.biases])
    adam_step(w2, ones, AdamState.zeros_like(w2), AdamConfig())
    delta = w2.weights[0][0, 0] - before
    delta_ok = abs(delta + 0.001) < 1e-6

    # bit determinism across two same-seed runs
    Xt = rng.standard_normal((2000, 7))
    Yt = Xt @ (0.2 * rng.standard_normal((3, 7))).T
    cfg2 = AdamConfig(epochs=2, seed=7)
    r1 = train(spec, Xt[:1800], Yt[:1800], Xt[1800:], Yt[1800:], cfg2)
    r2 = train(spec, Xt[:1800], Yt[:1800], Xt[1800:], Yt[1800:], cfg2)
    deterministic = r1.history == r2.history and all(
        np.array_equal(a, b) for a, b in
        zip(r1.network.weights.weights, r2.network.weights.weights))

    ok = worst_fd < 1e-5 and quad_ok and delta_ok and deterministic
    _verdict(6, "network-training-integrity", ok,
             f"fd {worst_fd:.1e} < 1e-5; theta^2 converged in {steps_used} steps; "
             f"first-step delta {delta:.6f}; deterministic {deterministic}")


@pytest.mark.slow
def test_criterion_07_end_to_end_deepwarp(pipeline):
    history = pipeline["history"]
    poses = pipeline["poses"]
    cfg = pipeline["config"]
    protocol_ok = (cfg.lr, cfg.batch, cfg.epochs) == (0.001, 1024, 10) \
        and 500 <= pipeline["n_tets"] <= 3000
    time_ok = pipeline["train_seconds"] < 900.0
    val_ok = history[10][1] <= history[0][1] / 5.0
    band_ok = all(0.3 <= p["max_lin"] <= 1.0 for p in poses)
    wins = all(p["deepwarp"] < p["mw"] and p["deepwarp"] < p["rsw"] for p in poses)
    ok = protocol_ok and time_ok and val_ok and band_ok and wins
    _verdict(7, "end-to-end-deepwarp", ok,
             f"train {pipeline['train_seconds']:.0f}s < 900s; "
             f"val ratio {history[0][1] / history[10][1]:.0f}x >= 5x; "
             f"beats MW and RSW on all {len(poses)} held-out poses: {wins}")


@pytest.mark.slow
def test_criterion_08_trajectory_frequency(pipeline):
    params, net = pipeline["params"], pipeline["net"]
    # a coarser beam than the training model exercises tessellation transfer
    mesh = normalize_to_unit_sphere(beam(6, 3, 3, lengths=(2.0, 0.8, 0.8)))
    density = 40.0
    field = ForceField.directional([0.25, 0.9, 0.35], 1.0)
    driver = QuasistaticDriver(mesh, params.as_linear(), density=density)
    mx = np.linalg.norm(driver.run(force_vector(mesh, field, density),
                                   n_steps=3).target.reshape(-1, 3), axis=1).max()
    field = field.with_magnitude(0.35 / mx)
    f = force_vector(mesh, field, density)
    tip = int(np.argmax(mesh.nodes[:, 0]))

    detail = []
    ok = True
    for dt in (1 / 50, 1 / 150):
        steps = int(round(8.0 / dt))
        system = build_nonlinear_system(mesh, params, RayleighDamping(), density)
        state = SimState.rest(mesh.n_nodes)
        gt = []
        for _ in range(steps):
            state = step_newmark_nonlinear(system, state, f, dt)
            gt.append(state.u.copy())
        gt = np.array(gt)
        ctx = build_warp_context(mesh, params, net, field, dt, density=density)
        dw = np.array(run_deepwarp(ctx, steps, f))
        sig = gt[:, 3 * tip:3 * tip + 3]
        comp = int(np.argmax(sig.var(axis=0)))
        f_gt = dominant_frequency(sig[:, comp], dt)
        f_dw = dominant_frequency(dw[:, 3 * tip + comp], dt)
        rel = abs(f_dw - f_gt) / f_gt
        ok = ok and rel < 0.15
        detail.append(f"dt=1/{round(1 / dt)}: gt {f_gt:.3f} Hz vs deepwarp "
                      f"{f_dw:.3f} Hz ({100 * rel:.1f}%)")
    _verdict(8, "trajectory-frequency", ok, "; ".join(detail) + " < 15%")


@pytest.mark.slow
def test_criterion_09_runtime_contract(pipeline):
    params, net = pipeline["params"], pipeline["net"]
    mesh = normalize_to_unit_sphere(beam(6, 3, 3, lengths=(2.0, 0.8, 0.8)))
    field = ForceField.directional([0.2, 0.9, 0.2], 2.0)
    reset_factorization_event_count()
    ctx = build_warp_context(mesh, params, net, field, dt=1 / 60, density=DENSITY)
    # this criterion counts factorizations and times the correction, not the
    # trained range (its random displacements leave it by design), so neither
    # context warns about extrapolation, as in the benchmark
    ctx.warn_on_extrapolation = False
    f = force_vector(mesh, field, DENSITY)
    state = ctx.reset()
    for _ in range(500):
        state, _ = deepwarp_step(ctx, state, f)
    events = factorization_event_count()

    # warp-correction wall time scales sub-quadratically with node count
    mesh2 = normalize_to_unit_sphere(beam(6, 3, 7, lengths=(2.0, 0.8, 0.8)))
    ctx2 = build_warp_context(mesh2, params, net, field, dt=1 / 60, density=DENSITY)
    ctx2.warn_on_extrapolation = False
    rng = np.random.default_rng(0)
    u1 = 0.05 * rng.standard_normal(3 * mesh.n_nodes)
    u2 = 0.05 * rng.standard_normal(3 * mesh2.n_nodes)

    def correction_time(c, u):
        """Fastest of 20 corrections after one warm-up: a competing process
        only adds time, so the minimum is the least disturbed reading."""
        c.correct(u)
        times = []
        for _ in range(20):
            t0 = time.perf_counter()
            c.correct(u)
            times.append(time.perf_counter() - t0)
        return min(times)

    t1 = correction_time(ctx, u1)
    t2 = correction_time(ctx2, u2)
    ratio = t2 / t1
    node_ratio = mesh2.n_nodes / mesh.n_nodes
    scaling_ok = ratio < 2.5
    _verdict(9, "runtime-contract", events == 1 and scaling_ok,
             f"{events} factorization event over a 500-step run; "
             f"correction time x{ratio:.2f} for x{node_ratio:.2f} nodes < 2.5")


@pytest.mark.slow
def test_criterion_10_substructuring(pipeline):
    params, net = pipeline["params"], pipeline["net"]
    mesh = normalize_to_unit_sphere(beam(6, 2, 2, lengths=(2.0, 0.8, 0.8)))
    field = ForceField.directional([0.1, 0.9, 0.2], 1.5)

    # single-domain partition reproduces the monolithic trajectory
    part1 = DomainPartition(np.zeros(mesh.n_tets, dtype=int))
    traj = simulate_substructured(mesh, part1, 0, params, net, field,
                                  steps=5, dt=1 / 60, density=DENSITY)
    ctx = build_warp_context(mesh, params, net, field, dt=1 / 60, density=DENSITY)
    mono = run_deepwarp(ctx, 5, force_vector(mesh, field))
    single_err = max(np.abs(a - b).max() for a, b in zip(traj.displacements, mono))

    # frozen parent: child equals a standalone run anchored at the interface
    free_mesh = normalize_to_unit_sphere(beam(6, 2, 2, lengths=(2.0, 0.8, 0.8),
                                              anchor="none"))
    part2 = partition_by_axis(free_mesh, 0, [0.0])
    left_nodes = np.unique(free_mesh.tets[part2.labels == 0])
    frozen = free_mesh.with_anchors(left_nodes)
    traj2 = simulate_substructured(frozen, part2, 0, params, net, field,
                                   steps=5, dt=1 / 60, density=DENSITY)
    right_nodes = np.unique(free_mesh.tets[part2.labels == 1])
    shared = np.intersect1d(left_nodes, right_nodes)
    local_of = -np.ones(free_mesh.n_nodes, dtype=int)
    local_of[right_nodes] = np.arange(len(right_nodes))
    sub = TetMesh(nodes=free_mesh.nodes[right_nodes],
                  tets=local_of[free_mesh.tets[part2.labels == 1]],
                  anchors=frozenset(int(local_of[s]) for s in shared))
    ctx_sub = build_warp_context(sub, params, net, field, dt=1 / 60, density=DENSITY)
    standalone = run_deepwarp(ctx_sub, 5, force_vector(sub, field))
    frozen_err = 0.0
    keep = ~np.isin(right_nodes, shared)
    for a, b in zip(traj2.displacements, standalone):
        frozen_err = max(frozen_err, np.abs(
            a.reshape(-1, 3)[right_nodes][keep] - b.reshape(-1, 3)[keep]).max())

    # T/Y/arrow domain graphs group together; the 5-arm cross does not;
    # verdicts agree with brute-force permutation checking up to 7 vertices
    t_graph = DomainGraph(3, frozenset({(0, 1), (0, 2)}))
    y_graph = DomainGraph(3, frozenset({(2, 0), (2, 1)}))
    arrow = DomainGraph(3, frozenset({(1, 0), (1, 2)}))
    cross = DomainGraph(5, frozenset({(0, 1), (0, 2), (0, 3), (0, 4)}))
    grouping = (graphs_isomorphic(t_graph, y_graph)[0]
                and graphs_isomorphic(t_graph, arrow)[0]
                and not graphs_isomorphic(t_graph, cross)[0])

    def brute(g1, g2):
        if g1.n_vertices != g2.n_vertices:
            return False
        for perm in itertools.permutations(range(g1.n_vertices)):
            mapped = {(min(perm[a], perm[b]), max(perm[a], perm[b]))
                      for a, b in g1.edges}
            if mapped == g2.edges:
                return True
        return False

    rng = np.random.default_rng(105)
    oracle_ok = True
    for _ in range(40):
        n = int(rng.integers(2, 8))

        def rand_graph():
            edges = {(a, b) for a in range(n) for b in range(a + 1, n)
                     if rng.random() < 0.4}
            return DomainGraph(n, frozenset(edges))

        g1, g2 = rand_graph(), rand_graph()
        if graphs_isomorphic(g1, g2)[0] != brute(g1, g2):
            oracle_ok = False

    ok = single_err < 1e-12 and frozen_err < 1e-8 and grouping and oracle_ok
    _verdict(10, "substructuring", ok,
             f"single-domain err {single_err:.1e} < 1e-12; frozen-parent err "
             f"{frozen_err:.1e} < 1e-8; T/Y/arrow grouping {grouping}; "
             f"exhaustive oracle agreement {oracle_ok}")
