import numpy as np
import pytest

from deepwarp.dynamics import QuasistaticDriver, TangentSolver
from deepwarp.features import ForceField, force_vector
from deepwarp.material import MaterialModel, MaterialParams, MeshPrecomp, assemble_force, \
    assemble_stiffness, skew
from deepwarp.mesh import node_adjacency
from deepwarp.meshgen import beam
from deepwarp.registration import (BlockRotations, RankDeficientNeighborhoodError,
                                   build_rotation_blockdiag, gradient_operator,
                                   register_nonlinear, register_sequence,
                                   rotation_from_vector, rotation_operator, rotation_vector,
                                   rotation_vectors_from_displacement,
                                   rotations_from_vectors)
from scipy.linalg import expm

import reference_paths
from conftest import delaunay_beam, t_shape
from reference_paths import _neighbor_weights, local_displacement_gradient
from test_mesh import shuffled_nodes


class TestLocalGradient:
    def test_zero_displacement(self, bending_beam):
        G = local_displacement_gradient(bending_beam,
                                        np.zeros(3 * bending_beam.n_nodes), 10)
        assert np.abs(G).max() == 0.0

    def test_affine_field_recovered_exactly(self, bending_beam):
        rng = np.random.default_rng(0)
        A = 0.1 * rng.standard_normal((3, 3))
        u = (bending_beam.nodes @ A.T).ravel()
        adj = reference_paths.adjacency_lists(bending_beam)
        for i in (0, 7, bending_beam.n_nodes // 2):
            G = local_displacement_gradient(bending_beam, u, i, adj)
            assert np.abs(G - A).max() < 1e-10

    def test_small_rigid_rotation(self, bending_beam):
        w = np.array([0.0, 0.0, 1e-3])
        R = rotation_from_vector(w)
        u = (bending_beam.nodes @ R.T - bending_beam.nodes).ravel()
        G = local_displacement_gradient(bending_beam, u, 5)
        assert np.abs(G - (R - np.eye(3))).max() < 1e-9

    def test_gradient_operator_matches_scalar(self, bending_beam):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(3 * bending_beam.n_nodes)
        op = gradient_operator(bending_beam)
        G_all = (op @ u).reshape(-1, 3, 3)
        adj = reference_paths.adjacency_lists(bending_beam)
        for i in (0, 3, 20, bending_beam.n_nodes - 1):
            G = local_displacement_gradient(bending_beam, u, i, adj)
            assert np.abs(G_all[i] - G).max() < 1e-12


class TestGradientOperatorMatchesLoop:
    """The batched moment-matrix build against the per-node loop."""

    @pytest.mark.parametrize("make", [
        lambda: beam(6, 3, 3, lengths=(2.0, 1.0, 1.0)),
        lambda: t_shape(arm=2, thickness=1)[0],
        lambda: shuffled_nodes(beam(5, 3, 2), seed=3),
        lambda: delaunay_beam(0),
    ], ids=["beam", "t_shape", "shuffled", "delaunay"])
    def test_same_operator(self, make):
        mesh = make()
        op = gradient_operator(mesh, node_adjacency(mesh))
        ref = reference_paths.gradient_operator(mesh, reference_paths.adjacency_lists(mesh))
        assert op.shape == ref.shape and op.nnz == ref.nnz
        assert abs(op - ref).max() < 1e-12 * abs(ref).max()

    def test_rank_deficiency_names_first_node(self, bending_beam):
        adj = reference_paths.adjacency_lists(bending_beam)
        few = list(adj)
        few[5] = adj[5][:2]
        coplanar = list(adj)
        # four other nodes of the z = min face: coplanar neighbors
        x = bending_beam.nodes
        on_face = np.flatnonzero(np.isclose(x[:, 2], x[:, 2].min()))
        i = int(on_face[0])
        coplanar[i] = on_face[on_face != i][:4]
        coplanar[9] = adj[9][:1]
        for bad, node in ((few, 5), (coplanar, min(i, 9))):
            with pytest.raises(RankDeficientNeighborhoodError) as got:
                gradient_operator(bending_beam, reference_paths.graph_of(bad))
            with pytest.raises(RankDeficientNeighborhoodError) as want:
                reference_paths.gradient_operator(bending_beam, bad)
            assert str(got.value) == str(want.value)
            assert str(got.value).startswith(f"node {node}:")


class TestRotationOperator:
    def test_skew_part_of_gradients(self, bending_beam):
        op = gradient_operator(bending_beam)
        rot = rotation_operator(op)
        n = bending_beam.n_nodes
        assert rot.shape == (3 * n, 3 * n)
        assert rot.nnz <= 2 * op.nnz // 3
        rng = np.random.default_rng(6)
        for u in rng.standard_normal((5, 3 * n)):
            want = reference_paths.rotation_vectors(op, u)
            assert np.abs(rotation_vectors_from_displacement(rot, u) - want).max() \
                < 1e-12 * np.abs(want).max()
            assert np.abs(rotation_vectors_from_displacement(op, u) - want).max() \
                < 1e-12 * np.abs(want).max()


class TestRotationVector:
    def test_symmetric_gradient_zero(self):
        S = np.array([[1.0, 0.2, 0.1], [0.2, 2.0, 0.3], [0.1, 0.3, 0.5]])
        assert np.abs(rotation_vector(S)).max() == 0.0

    def test_skew_round_trip(self):
        w = np.array([0.0, 0.0, 0.7])
        assert np.allclose(rotation_vector(skew(w)), w)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            G = rng.standard_normal((3, 3))
            w = rotation_vector(G)
            sym = 0.5 * (G + G.T)
            assert np.abs(skew(w) + sym - G).max() < 1e-12


class TestRodrigues:
    def test_zero_is_identity(self):
        assert np.allclose(rotation_from_vector(np.zeros(3)), np.eye(3))

    def test_quarter_turn_about_z(self):
        R = rotation_from_vector(np.array([0.0, 0.0, np.pi / 2]))
        assert np.abs(R @ np.array([1.0, 0, 0]) - np.array([0, 1.0, 0])).max() < 1e-12

    def test_inverse_property(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = rng.standard_normal(3)
            assert np.abs(rotation_from_vector(w) @ rotation_from_vector(-w)
                          - np.eye(3)).max() < 1e-12

    def test_series_fallback_smooth(self):
        # values just below and above the series threshold agree
        w = np.array([3e-7, -4e-7, 5e-7])
        R_small = rotation_from_vector(w)
        R_scaled = rotation_from_vector(w * 10)
        assert np.abs(R_small - np.eye(3)).max() < 1e-6
        assert np.abs(R_scaled @ R_scaled.T - np.eye(3)).max() < 1e-14

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(4)
        W = rng.standard_normal((16, 3))
        # angles across the series branch and up to pi and beyond
        axes = rng.standard_normal((6, 3))
        thetas = np.array([0.0, 1e-8, 1e-3, 1.0, np.pi, 3.0])
        W = np.vstack([W, axes / np.linalg.norm(axes, axis=1)[:, None] * thetas[:, None]])
        batch = rotations_from_vectors(W)
        for i in range(len(W)):
            assert np.abs(batch[i] - rotation_from_vector(W[i])).max() < 1e-14
            assert np.abs(batch[i] - expm(skew(W[i]))).max() < 1e-12


class TestBlockRotations:
    def test_zero_displacement_identity(self, bending_beam):
        R = build_rotation_blockdiag(bending_beam, np.zeros(3 * bending_beam.n_nodes),
                                     gradient_operator(bending_beam))
        assert np.abs(R.blocks - np.eye(3)).max() < 1e-14

    def test_uniform_small_rotation(self, bending_beam):
        w = np.array([0.0, 0.0, 5e-3])
        Rtrue = rotation_from_vector(w)
        u = (bending_beam.nodes @ Rtrue.T - bending_beam.nodes).ravel()
        R = build_rotation_blockdiag(bending_beam, u, gradient_operator(bending_beam))
        free = np.ones(bending_beam.n_nodes, bool)
        free[bending_beam.anchor_array()] = False
        assert np.abs(R.blocks[free] - Rtrue).max() < 1e-5

    def test_anchored_nodes_identity(self, bending_beam):
        rng = np.random.default_rng(5)
        u = 0.01 * rng.standard_normal(3 * bending_beam.n_nodes)
        R = build_rotation_blockdiag(bending_beam, u, gradient_operator(bending_beam))
        assert np.abs(R.blocks[bending_beam.anchor_array()] - np.eye(3)).max() == 0.0

    def test_norm_preservation(self, bending_beam):
        rng = np.random.default_rng(6)
        u = 0.05 * rng.standard_normal(3 * bending_beam.n_nodes)
        R = build_rotation_blockdiag(bending_beam, u, gradient_operator(bending_beam))
        v = rng.standard_normal(3 * bending_beam.n_nodes)
        out = R.apply(v).reshape(-1, 3)
        assert np.abs(np.linalg.norm(out, axis=1)
                      - np.linalg.norm(v.reshape(-1, 3), axis=1)).max() < 1e-10

    def test_emitted_rotations_orthogonal(self, bending_beam):
        rng = np.random.default_rng(7)
        u = 0.2 * rng.standard_normal(3 * bending_beam.n_nodes)
        R = build_rotation_blockdiag(bending_beam, u, gradient_operator(bending_beam))
        RtR = np.einsum("nij,nik->njk", R.blocks, R.blocks)
        assert np.abs(RtR - np.eye(3)).max() < 1e-8
        assert np.allclose(np.linalg.det(R.blocks), 1.0, atol=1e-8)


class TestRegister:
    def test_zero_target(self, bending_beam, neo_hookean):
        zero = np.zeros(3 * bending_beam.n_nodes)
        res = register_nonlinear(QuasistaticDriver(bending_beam, neo_hookean), neo_hookean,
                                 zero, zero, gradient_operator(bending_beam), TangentSolver())
        assert res.converged
        assert np.abs(res.u).max() < 1e-10

    def test_converged_residual_under_tolerance(self, bending_beam, neo_hookean):
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0], 0.3))
        driver = QuasistaticDriver(bending_beam, neo_hookean.as_linear())
        seq = driver.run(f, n_steps=6)
        grad_op = gradient_operator(bending_beam)
        res = register_nonlinear(driver, neo_hookean, seq.displacements[-1],
                                 np.zeros(3 * bending_beam.n_nodes), grad_op, TangentSolver())
        assert res.converged
        # independent audit: recompute the residual from scratch
        rot = build_rotation_blockdiag(bending_beam, seq.displacements[-1], grad_op)
        K = assemble_stiffness(bending_beam, neo_hookean.as_linear(),
                               np.zeros(3 * bending_beam.n_nodes))
        target = rot.apply(K @ seq.displacements[-1])
        dofs = (bending_beam.anchor_array()[:, None] * 3 + np.arange(3)).ravel()
        target[dofs] = 0.0
        r = -assemble_force(bending_beam, neo_hookean, res.u, MeshPrecomp(bending_beam)) - target
        r[dofs] = 0.0
        assert np.linalg.norm(r) <= 1e-6 * np.linalg.norm(target) + 1e-12

    def test_small_strain_gap_decreases(self, bending_beam):
        params = MaterialParams(MaterialModel.STVK, 1e4, 0.4)
        f1 = force_vector(bending_beam, ForceField.directional([0, -1, 0], 0.4))
        gaps = []
        for scale in (1.0, 0.5, 0.25, 0.125):
            driver = QuasistaticDriver(bending_beam, params.as_linear())
            seq = driver.run(scale * f1, n_steps=10)
            results = register_sequence(driver, params, seq.displacements,
                                        gradient_operator(bending_beam))
            assert all(res.converged for res in results)
            u_lin, u = seq.displacements[-1], results[-1].u
            gaps.append(np.linalg.norm(u - u_lin) / np.linalg.norm(u_lin))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_linear_self_consistency(self, bending_beam, monkeypatch):
        # linear material with identity rotations returns u_lin itself
        from deepwarp import registration
        params = MaterialParams(MaterialModel.LINEAR, 1e4, 0.3)
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0], 0.5))
        driver = QuasistaticDriver(bending_beam, params)
        seq = driver.run(f, n_steps=4)
        u_lin = seq.displacements[-1]
        identity = BlockRotations(np.broadcast_to(
            np.eye(3), (bending_beam.n_nodes, 3, 3)).copy())
        monkeypatch.setattr(registration, "build_rotation_blockdiag",
                            lambda mesh, u, grad_op: identity)
        res = register_nonlinear(driver, params, u_lin, np.zeros_like(u_lin),
                                 gradient_operator(bending_beam), TangentSolver())
        assert res.converged
        assert np.linalg.norm(res.u - u_lin) < 1e-6 * np.linalg.norm(u_lin)

    def test_sequence_warm_start_monotone(self, bending_beam, neo_hookean):
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0], 0.35))
        driver = QuasistaticDriver(bending_beam, neo_hookean.as_linear())
        seq = driver.run(f, n_steps=8)
        grad_op = gradient_operator(bending_beam)
        results = register_sequence(driver, neo_hookean, seq.displacements, grad_op)
        assert len(results) == len(seq.displacements)
        assert all(res.converged for res in results)
        norms = [np.linalg.norm(res.u) for res in results]
        assert all(b >= a - 1e-8 for a, b in zip(norms, norms[1:]))
        # post-hoc audit: every stored pair satisfies the residual bound when
        # the rotated-force target and the internal force are recomputed
        K = assemble_stiffness(bending_beam, neo_hookean.as_linear(),
                               np.zeros(3 * bending_beam.n_nodes))
        dofs = (bending_beam.anchor_array()[:, None] * 3 + np.arange(3)).ravel()
        pre = MeshPrecomp(bending_beam)
        for u_lin, res in zip(seq.displacements, results):
            rot = build_rotation_blockdiag(bending_beam, u_lin, grad_op)
            target = rot.apply(K @ u_lin)
            target[dofs] = 0.0
            r = -assemble_force(bending_beam, neo_hookean, res.u, pre) - target
            r[dofs] = 0.0
            assert np.linalg.norm(r) <= 1e-6 * np.linalg.norm(target) + 1e-10

    def test_sequence_ends_at_first_nonconverged_pose(self, bending_beam, neo_hookean,
                                                      monkeypatch):
        from deepwarp import registration
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0], 0.35))
        driver = QuasistaticDriver(bending_beam, neo_hookean.as_linear())
        seq = driver.run(f, n_steps=6)
        original = registration.register_nonlinear
        starts = []

        def third_fails(*args, **kwargs):
            starts.append(args[3])
            res = original(*args, **kwargs)
            res.converged = len(starts) != 3
            return res

        monkeypatch.setattr(registration, "register_nonlinear", third_fails)
        results = register_sequence(driver, neo_hookean, seq.displacements,
                                    gradient_operator(bending_beam))
        assert len(seq.displacements) > 3
        assert [res.converged for res in results] == [True, True, False]
        # each pose starts from the previous pose's result, the first from rest
        assert not starts[0].any()
        assert all(start is res.u for start, res in zip(starts[1:], results))

    def test_sequence_matches_factorize_every_solve(self, bending_beam, neo_hookean,
                                                    factorize_every_solve, monkeypatch):
        from deepwarp import registration
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0], 0.4))
        driver = QuasistaticDriver(bending_beam, neo_hookean.as_linear())
        seq = driver.run(f, n_steps=6)
        original = registration.register_nonlinear

        def run(solver_class):
            iterations, solvers = [], []

            def recording(*args, **kwargs):
                solvers.append(kwargs["solver"])
                res = original(*args, **kwargs)
                iterations.append(res.iterations)
                return res

            monkeypatch.setattr(registration, "TangentSolver", solver_class)
            monkeypatch.setattr(registration, "register_nonlinear", recording)
            results = register_sequence(driver, neo_hookean, seq.displacements,
                                        gradient_operator(bending_beam))
            monkeypatch.undo()
            assert all(res.converged for res in results)
            # the results are the Newton results of register_nonlinear
            assert [res.iterations for res in results] == iterations
            assert all(s is solvers[0] for s in solvers)   # one solver per chain
            return results, iterations, solvers[0]

        ref, ref_iters, ref_solver = run(factorize_every_solve)
        results, iters, solver = run(registration.TangentSolver)
        assert iters == ref_iters
        assert ref_solver.factorizations == sum(ref_iters)
        assert solver.factorizations < ref_solver.factorizations
        assert solver.solves == ref_solver.solves
        for a, b in zip(results, ref):
            assert np.linalg.norm(a.u - b.u) <= 1e-8 * np.linalg.norm(b.u)

    def test_sequence_matches_unit_diagonal(self, bending_beam, neo_hookean, monkeypatch):
        # the free-DOF Newton loop against the unit-diagonal elimination
        from deepwarp import registration
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0.2], 0.4))
        driver = QuasistaticDriver(bending_beam, neo_hookean.as_linear())
        seq = driver.run(f, n_steps=6)
        iterations = []
        original = registration.register_nonlinear

        def recording(*args, **kwargs):
            res = original(*args, **kwargs)
            iterations.append(res.iterations)
            return res

        monkeypatch.setattr(registration, "register_nonlinear", recording)
        results = register_sequence(driver, neo_hookean, seq.displacements,
                                    gradient_operator(bending_beam))
        ref = reference_paths.unit_diagonal_register_sequence(
            bending_beam, neo_hookean, seq.displacements, gradient_operator(bending_beam))
        assert all(res.converged for res in results)
        assert iterations == [it for _, it in ref] == [res.iterations for res in results]
        assert sum(iterations) > len(iterations)
        for res, (u, _) in zip(results, ref):
            assert np.linalg.norm(res.u - u) <= 1e-8 * np.linalg.norm(u)

    def test_rank_deficient_neighborhood_error(self):
        # all nodes coplanar around node 0 is impossible in a valid tet mesh,
        # so exercise the guard through the helper directly
        rest = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0]])
        with pytest.raises(RankDeficientNeighborhoodError):
            _neighbor_weights(rest, np.array([1, 2, 3]), 0)
