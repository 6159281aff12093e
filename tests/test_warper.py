from dataclasses import replace

import numpy as np
import pytest

from deepwarp.dynamics import (IntegrationScheme, RayleighDamping, SimState,
                               build_linear_system, build_nonlinear_system,
                               factorization_event_count, reset_factorization_event_count,
                               step_linear_implicit, step_newmark_nonlinear)
from deepwarp.features import ForceField, force_vector
from deepwarp.material import MaterialModel, MaterialParams
from deepwarp.mesh import TetMesh
from deepwarp.meshgen import beam
from deepwarp.net import FeatureScaler
from deepwarp.registration import gradient_operator, rotation_from_vector, \
    rotation_vectors_from_displacement
from deepwarp.warper import (METHODS, build_warp_context, compare_methods, deepwarp_step,
                             dominant_frequency, mw_average_rotations, mw_warp,
                             rsw_warp, run_deepwarp, simulate_methods)

import reference_paths


def simpson_average_rotation(w, n_intervals=2000):
    """Composite Simpson quadrature of int_0^1 exp(s [w]x) ds."""
    s = np.linspace(0.0, 1.0, n_intervals + 1)
    wt = np.ones_like(s)
    wt[1:-1:2] = 4.0
    wt[2:-1:2] = 2.0
    wt *= (1.0 / n_intervals) / 3.0
    return np.einsum("k,kpq->pq", wt, reference_paths.rotations_from_vectors(s[:, None] * w))


class TestModalWarp:
    def test_zero_rotation_identity(self):
        W = mw_average_rotations(np.zeros((1, 3)))[0]
        assert np.abs(W - np.eye(3)).max() < 1e-14

    def test_quadrature_matches_fine_reference(self):
        # 10^6-interval reference of the averaged-rotation integral
        w = np.array([0.0, 0.0, np.pi])
        W = mw_average_rotations(w[None])[0]
        t = np.linalg.norm(w)
        s = np.linspace(0.0, 1.0, 1_000_001)
        wt = np.ones_like(s)
        wt[1:-1:2] = 4.0
        wt[2:-1:2] = 2.0
        wt *= (1.0 / 1_000_000) / 3.0
        K = np.array([[0.0, -1, 0], [1, 0, 0], [0, 0, 0.0]])
        ref = np.eye(3) + float(wt @ np.sin(s * t)) * K \
            + float(wt @ (1 - np.cos(s * t))) * (K @ K)
        assert np.abs(W - ref).max() < 1e-10

    @pytest.mark.parametrize("t", [0.0, 1e-8, 5e-4, 1e-3, 2e-3, 0.5, 3.0])
    def test_closed_form_matches_quadrature(self, t):
        # both sides of the series threshold (1e-3) and large angles
        axis = np.array([0.48, -0.6, 0.64])
        w = t * axis
        assert np.abs(mw_average_rotations(w[None])[0] - simpson_average_rotation(w)).max() < 1e-12

    def test_warp_matches_per_node_average_rotation(self, bending_beam):
        grad_op = gradient_operator(bending_beam)
        u = (0.1 * np.random.default_rng(2).standard_normal(
            (bending_beam.n_nodes, 3))).ravel()
        u.reshape(-1, 3)[bending_beam.anchor_array()] = 0.0
        w = rotation_vectors_from_displacement(grad_op, u)
        want = np.array([mw_average_rotations(wi[None])[0] @ ui
                         for wi, ui in zip(w, u.reshape(-1, 3))])
        want[bending_beam.anchor_array()] = 0.0
        assert np.abs(mw_warp(bending_beam, u, grad_op) - want.ravel()).max() < 1e-14

    def test_contraction(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.standard_normal(3) * rng.uniform(0, 4)
            u = rng.standard_normal(3)
            assert np.linalg.norm(mw_average_rotations(w[None])[0] @ u) \
                <= np.linalg.norm(u) + 1e-12

    def test_warp_small_rotation_near_identity(self, bending_beam):
        grad_op = gradient_operator(bending_beam)
        # rotation-free stretch field: w = 0 everywhere, so mw leaves u alone
        u = (bending_beam.nodes * np.array([1e-3, 0.0, 0.0])).ravel()
        out = mw_warp(bending_beam, u, grad_op)
        free = np.ones(bending_beam.n_nodes, bool)
        free[bending_beam.anchor_array()] = False
        diff = (out - u).reshape(-1, 3)[free]
        assert np.abs(diff).max() < 1e-12


class TestRotationStrainWarp:
    def test_zero_displacement(self, bending_beam):
        out = rsw_warp(bending_beam, np.zeros(3 * bending_beam.n_nodes),
                       gradient_operator(bending_beam))
        assert np.abs(out).max() < 1e-12

    def test_rotation_free_fixpoint(self, bending_beam):
        # symmetric gradient field (pure stretch): target gradients equal the
        # input gradients, so the fit reproduces u up to solver tolerance
        grad_op = gradient_operator(bending_beam)
        A = np.diag([2e-3, -1e-3, 5e-4])
        u_full = bending_beam.nodes @ A.T
        u_full -= u_full[bending_beam.anchor_array()].mean(axis=0)
        u_full[bending_beam.anchor_array()] = 0.0
        # not exactly affine once anchors are pinned; use the true w=0 check
        u = u_full.ravel()
        w = rotation_vectors_from_displacement(grad_op, u)
        out = rsw_warp(bending_beam, u, grad_op)
        # where rotations vanish the reconstruction is the least-squares
        # reproduction of u itself
        if np.abs(w).max() < 1e-12:
            assert np.linalg.norm(out - u) < 1e-8 * max(np.linalg.norm(u), 1e-12)

    def test_affine_symmetric_exact(self):
        # anchor-free interior check via a fully symmetric affine field on a
        # beam anchored at a face orthogonal to the stretch
        mesh = beam(4, 2, 2, lengths=(2.0, 1.0, 1.0), anchor="x_min")
        grad_op = gradient_operator(mesh)
        u = (mesh.nodes @ np.diag([1e-3, 0.0, 0.0])).ravel()  # zero at x=0 face
        out = rsw_warp(mesh, u, grad_op)
        assert np.linalg.norm(out - u) < 1e-8 * np.linalg.norm(u)

    def test_small_rotation_limit(self, bending_beam):
        grad_op = gradient_operator(bending_beam)
        R = rotation_from_vector(np.array([0.0, 0.0, 1e-3]))
        u_rot = (bending_beam.nodes @ R.T - bending_beam.nodes)
        u_rot[bending_beam.anchor_array()] = 0.0
        u = 0.5 * u_rot.ravel()
        out = rsw_warp(bending_beam, u, grad_op)
        assert np.linalg.norm(out - u) <= 1e-2 * np.linalg.norm(u)

    def test_cached_fit_matches_fresh_fit(self, bending_beam, monkeypatch):
        from deepwarp import warper
        fits = []
        factorize = warper.BandedCholesky
        monkeypatch.setattr(warper, "BandedCholesky",
                            lambda A, node_dofs: fits.append(A.shape) or factorize(A, node_dofs))
        monkeypatch.setattr(warper, "_rsw_fit", None)
        grad_op = gradient_operator(bending_beam)
        rng = np.random.default_rng(4)
        us = 0.05 * rng.standard_normal((3, 3 * bending_beam.n_nodes))
        cached = [rsw_warp(bending_beam, u, grad_op) for u in us]
        assert len(fits) == 1
        for u, out in zip(us, cached):
            monkeypatch.setattr(warper, "_rsw_fit", None)
            fresh = rsw_warp(bending_beam, u, grad_op)
            assert np.linalg.norm(out - fresh) <= 1e-12 * np.linalg.norm(fresh)
        assert len(fits) == 4

    def test_cached_fit_refits_on_new_operator_or_anchors(self, bending_beam, monkeypatch):
        from deepwarp import warper
        fits = []
        factorize = warper.BandedCholesky
        monkeypatch.setattr(warper, "BandedCholesky",
                            lambda A, node_dofs: fits.append(A.shape) or factorize(A, node_dofs))
        monkeypatch.setattr(warper, "_rsw_fit", None)
        grad_op = gradient_operator(bending_beam)
        u = 0.05 * np.random.default_rng(5).standard_normal(3 * bending_beam.n_nodes)
        rsw_warp(bending_beam, u, grad_op)
        rsw_warp(bending_beam, u, grad_op)
        assert len(fits) == 1
        # one more anchored node: the same operator, a smaller free set
        extra = bending_beam.with_anchors(bending_beam.anchors | {bending_beam.n_nodes - 1})
        out = rsw_warp(extra, u, grad_op)
        assert len(fits) == 2 and fits[-1][0] == fits[0][0] - 1
        assert np.abs(out.reshape(-1, 3)[extra.anchor_array()]).max() == 0.0
        rsw_warp(extra, u, gradient_operator(extra))   # an equal operator, not the same
        assert len(fits) == 3
        monkeypatch.setattr(warper, "_rsw_fit", None)
        assert np.linalg.norm(out - rsw_warp(extra, u, grad_op)) \
            <= 1e-12 * np.linalg.norm(out)

    def test_failed_fit_is_a_value_error(self, bending_beam, monkeypatch):
        # the normal matrix has no indefinite fallback: a Cholesky breakdown
        # is the documented validation error
        from deepwarp import warper

        def breaks_down(A, node_dofs):
            raise np.linalg.LinAlgError("leading minor not positive definite")

        monkeypatch.setattr(warper, "BandedCholesky", breaks_down)
        monkeypatch.setattr(warper, "_rsw_fit", None)
        with pytest.raises(ValueError, match="insufficient anchors"):
            rsw_warp(bending_beam, np.zeros(3 * bending_beam.n_nodes),
                     gradient_operator(bending_beam))

    def test_reads_w_through_the_axial_map(self, bending_beam, monkeypatch):
        # the axial map's 0.5 factors are exact: w is bit-identical to the
        # explicit 0.5 (G_rq - G_qr) of the skew part
        from deepwarp import warper
        seen = []
        rodrigues = warper.rotations_from_vectors
        monkeypatch.setattr(warper, "rotations_from_vectors",
                            lambda w: seen.append(w) or rodrigues(w))
        grad_op = gradient_operator(bending_beam)
        u = 0.05 * np.random.default_rng(6).standard_normal(3 * bending_beam.n_nodes)
        rsw_warp(bending_beam, u, grad_op)
        assert np.array_equal(seen[0], reference_paths.rotation_vectors(grad_op, u))

    @pytest.mark.parametrize("shuffle", [False, True], ids=["anchored", "shuffled"])
    def test_matches_full_normal_equations(self, bending_beam, shuffle, monkeypatch):
        from deepwarp import warper
        mesh = bending_beam
        if shuffle:
            perm = np.random.default_rng(7).permutation(mesh.n_nodes)
            new_index = np.argsort(perm)
            mesh = TetMesh(nodes=mesh.nodes[perm], tets=new_index[mesh.tets],
                           anchors=frozenset(int(new_index[a]) for a in mesh.anchors))
        monkeypatch.setattr(warper, "_rsw_fit", None)
        grad_op = gradient_operator(mesh)
        u = 0.05 * np.random.default_rng(8).standard_normal(3 * mesh.n_nodes)
        ref = reference_paths.rsw_warp(mesh, u, grad_op)
        assert np.linalg.norm(rsw_warp(mesh, u, grad_op) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_requires_anchors(self):
        mesh = beam(2, 1, 1, anchor="none")
        with pytest.raises(ValueError, match="anchor"):
            rsw_warp(mesh, np.zeros(3 * mesh.n_nodes), gradient_operator(mesh))


class TestDeepwarpStep:
    def test_rest_fixpoint_exact(self, normalized_beam, neo_hookean, quick_net):
        field = ForceField.directional([0, -1, 0], 0.0)
        ctx = build_warp_context(normalized_beam, neo_hookean, quick_net, field,
                                 dt=1 / 60)
        state = ctx.reset()
        state, u = deepwarp_step(ctx, state, np.zeros(3 * normalized_beam.n_nodes))
        assert np.abs(u).max() == 0.0
        assert np.abs(state.u).max() == 0.0

    def test_no_factorization_during_steps(self, normalized_beam, neo_hookean,
                                            quick_net):
        # and exactly one back-substitution per step
        field = ForceField.directional([0, -1, 0], 0.3)
        ctx = build_warp_context(normalized_beam, neo_hookean, quick_net, field,
                                 dt=1 / 60)
        f = force_vector(normalized_beam, field)
        solve = ctx.system.prefact.solve
        calls = []

        def counted(b):
            calls.append(1)
            return solve(b)

        ctx.system.prefact.solve = counted
        state = ctx.reset()
        reset_factorization_event_count()
        for k in range(100):
            state, u = deepwarp_step(ctx, state, f)
            assert len(calls) == k + 1
        assert factorization_event_count() == 0

    def test_one_back_substitution_and_no_matrix_product(self, normalized_beam, neo_hookean,
                                                         quick_net, watch_linear_step):
        field = ForceField.directional([0.3, -1, 0.1], 0.4)
        ctx = build_warp_context(normalized_beam, neo_hookean, quick_net, field,
                                 dt=1 / 60)
        f = force_vector(normalized_beam, field)
        _, calls = watch_linear_step(ctx.system)
        state = ctx.reset()
        for k in range(10):
            state, u = deepwarp_step(ctx, state, f)
            assert len(calls) == k + 1
        assert np.abs(u).max() > 0.0

    def test_anchored_nodes_zero(self, normalized_beam, neo_hookean, quick_net):
        field = ForceField.directional([0.3, -1, 0.1], 0.4)
        ctx = build_warp_context(normalized_beam, neo_hookean, quick_net, field,
                                 dt=1 / 60)
        f = force_vector(normalized_beam, field)
        state = ctx.reset()
        dofs = (normalized_beam.anchor_array()[:, None] * 3 + np.arange(3)).ravel()
        for _ in range(10):
            state, u = deepwarp_step(ctx, state, f)
            assert np.abs(u[dofs]).max() == 0.0

    def test_trajectory_matches_reference_step(self, normalized_beam, neo_hookean,
                                               quick_net):
        # the closed-form kernels against the two-stage canonicalization and
        # the K @ K Rodrigues map, over 300 steps of a load that sends some
        # features out of the trained range. ``same_w`` reads w through the
        # context's rotation operator, ``old_w`` through the skew part of the
        # gradient operator. In the first steps from rest some nodes hold w
        # at round-off level (about 1e-12), where any reordering of the sum
        # turns their canonical azimuth, so ``old_w`` matches the corrected
        # output only from step 10; the linear state matches throughout.
        field = ForceField.directional([0.3, -1, 0.1], 1.5)
        ctx = build_warp_context(normalized_beam, neo_hookean, quick_net, field,
                                 dt=1 / 60)
        ctx.warn_on_extrapolation = False
        grad_op = gradient_operator(normalized_beam)
        same_w = reference_paths.ReferenceStepper(
            ctx, lambda u: rotation_vectors_from_displacement(ctx.rot_op, u))
        old_w = reference_paths.ReferenceStepper(
            ctx, lambda u: reference_paths.rotation_vectors(grad_op, u))
        f = force_vector(normalized_beam, field)
        state = ctx.reset()
        ref_states = {same_w: state, old_w: state}
        for k in range(300):
            state, u = deepwarp_step(ctx, state, f)
            for ref in (same_w, old_w):
                ref_states[ref], ref_u = ref.step(ref_states[ref], f)
                ref_lin = ref_states[ref].u
                assert np.linalg.norm(state.u - ref_lin) <= 1e-10 * np.linalg.norm(ref_lin)
                if ref is same_w or k >= 10:
                    assert np.linalg.norm(u - ref_u) <= 1e-10 * np.linalg.norm(ref_u)
        assert ctx.extrapolation_events == same_w.extrapolation_events \
            == old_w.extrapolation_events > 0

    # a training set whose Poisson ratios span 0.39 to 0.41 (std 0.01), with
    # a context at 0.3: every node's Poisson column lies 10 deviations out;
    # a narrow geodesic spread puts only the nodes near the anchor and the
    # tip out. Both are static columns, flagged once per field; a narrow
    # |u| spread sends the moving nodes out too, many of them flagged twice.
    @pytest.mark.parametrize("column, spread, poisson", [(6, 0.01, 0.3), (3, 0.05, 0.4)],
                             ids=["poisson", "geodesic"])
    def test_static_extrapolation_counted_like_reference_step(
            self, normalized_beam, quick_net, column, spread, poisson):
        std = quick_net.scaler.std.copy()
        std[0], std[column] = 0.02, spread
        net = replace(quick_net, scaler=FeatureScaler(mean=quick_net.scaler.mean, std=std))
        params = MaterialParams(MaterialModel.NEO_HOOKEAN, 1e4, poisson)
        field = ForceField.directional([0.3, -1, 0.1], 1.5)
        ctx = build_warp_context(normalized_beam, params, net, field, dt=1 / 60)
        ctx.warn_on_extrapolation = False
        assert 0 < np.count_nonzero(ctx.static_far) <= normalized_beam.n_nodes
        ref = reference_paths.ReferenceStepper(
            ctx, lambda u: rotation_vectors_from_displacement(ctx.rot_op, u))
        f = force_vector(normalized_beam, field)
        state = ref_state = ctx.reset()
        for _ in range(40):
            state, _ = deepwarp_step(ctx, state, f)
            ref_state, _ = ref.step(ref_state, f)
            assert ctx.extrapolation_events == ref.extrapolation_events
        assert ctx.extrapolation_events >= 40 * np.count_nonzero(ctx.static_far)

    def test_matches_unit_diagonal_solve(self, normalized_beam, neo_hookean, quick_net,
                                         monkeypatch):
        # the same context stepped with the unit-diagonal linear solve it
        # replaced, in the same displacement form: the corrected output
        # agrees from the first step on. (Against the acceleration form it
        # reads up to 7.5e-8 relative: round-off of two forms amplified near
        # degenerate canonical frames; the linear states agree in
        # TestFreeDofsMatchUnitDiagonal.)
        from deepwarp import warper
        field = ForceField.directional([0.3, -1, 0.1], 1.5)
        ctx = build_warp_context(normalized_beam, neo_hookean, quick_net, field,
                                 dt=1 / 60)
        ref_ctx = build_warp_context(normalized_beam, neo_hookean, quick_net, field,
                                     dt=1 / 60)
        ctx.warn_on_extrapolation = ref_ctx.warn_on_extrapolation = False
        ref_system = reference_paths.unit_diagonal_displacement_system(
            normalized_beam, neo_hookean, 1 / 60)
        free_step = warper.step_linear_implicit

        def step(system, state, f):
            if system is ref_ctx.system:
                return reference_paths.unit_diagonal_displacement_step(ref_system, state, f)
            return free_step(system, state, f)

        monkeypatch.setattr(warper, "step_linear_implicit", step)
        f = force_vector(normalized_beam, field)
        state, ref_state = ctx.reset(), ref_ctx.reset()
        for _ in range(300):
            state, u = deepwarp_step(ctx, state, f)
            ref_state, ref_u = deepwarp_step(ref_ctx, ref_state, f)
            assert np.linalg.norm(u - ref_u) <= 1e-10 * np.linalg.norm(ref_u)

    def test_out_of_range_features_warn_not_fail(self, normalized_beam,
                                                 neo_hookean, quick_net):
        import warnings
        from deepwarp.warper import ExtrapolationWarning
        field = ForceField.directional([0, -1, 0], 0.3)
        ctx = build_warp_context(normalized_beam, neo_hookean, quick_net, field,
                                 dt=1 / 60)
        huge = 50.0 * np.ones(3 * normalized_beam.n_nodes)
        huge[(normalized_beam.anchor_array()[:, None] * 3 + np.arange(3)).ravel()] = 0
        with pytest.warns(ExtrapolationWarning):
            u, _ = ctx.correct(huge)
        assert np.all(np.isfinite(u))
        assert ctx.extrapolation_events > 0

    def test_extrapolation_warns_once_per_context(self, normalized_beam, neo_hookean,
                                                  quick_net):
        import warnings
        from deepwarp.warper import ExtrapolationWarning
        field = ForceField.directional([0, -1, 0], 0.3)
        ctx = build_warp_context(normalized_beam, neo_hookean, quick_net, field,
                                 dt=1 / 60)
        huge = 50.0 * np.ones(3 * normalized_beam.n_nodes)
        huge[(normalized_beam.anchor_array()[:, None] * 3 + np.arange(3)).ravel()] = 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ctx.correct(huge)
            per_call = ctx.extrapolation_events
            for _ in range(9):
                ctx.correct(huge)
        assert per_call > 0
        assert sum(issubclass(w.category, ExtrapolationWarning) for w in caught) == 1
        assert ctx.extrapolation_events == 10 * per_call

    def test_equivariance_under_global_rotation(self, normalized_beam, neo_hookean,
                                                 quick_net):
        # rotate the mesh and the field; the warped trajectory rotates with
        # them. The first couple of steps hold per-node rotation vectors at
        # float-noise level, where the canonical azimuth is inherently
        # unstable (and a trained net outputs ~0 there), so the check starts
        # once the state has left that degenerate neighborhood.
        field = ForceField.directional([0.2, -1, 0.1], 0.35)
        ctx = build_warp_context(normalized_beam, neo_hookean, quick_net, field,
                                 dt=1 / 60)
        traj = run_deepwarp(ctx, 8, force_vector(normalized_beam, field))

        R = rotation_from_vector(np.array([0.3, 0.5, -0.4]))
        rot_mesh = TetMesh(nodes=normalized_beam.nodes @ R.T,
                           tets=normalized_beam.tets, anchors=normalized_beam.anchors)
        rot_field = ForceField.directional(R @ field.direction, field.magnitude)
        rot_ctx = build_warp_context(rot_mesh, neo_hookean, quick_net, rot_field,
                                     dt=1 / 60)
        rot_traj = run_deepwarp(rot_ctx, 8, force_vector(rot_mesh, rot_field))
        for u, ur in zip(traj[3:], rot_traj[3:]):
            expected = (u.reshape(-1, 3) @ R.T).ravel()
            scale = max(np.abs(expected).max(), 1e-12)
            assert np.abs(ur - expected).max() < 1e-5 * max(1.0, scale)


class TestCompareMethods:
    def test_linear_material_ground_truth_degenerates(self, bending_beam):
        params = MaterialParams(MaterialModel.LINEAR, 1e4, 0.3)
        field = ForceField.directional([0, -1, 0], 0.3)
        report = compare_methods(bending_beam, params, field, net=None,
                                 steps=10, dt=1 / 50, methods=("linear", "mw"))
        assert report.completed
        lin_errors = [r[2] for r in report.rows if r[0] == "linear"]
        assert max(lin_errors) < 1e-7      # the linear path is the ground truth

    def test_row_accounting(self, bending_beam, neo_hookean):
        field = ForceField.directional([0, -1, 0], 0.2)
        report = compare_methods(bending_beam, neo_hookean, field, net=None,
                                 steps=8, dt=1 / 50, methods=("linear", "mw", "rsw"))
        assert len(report.rows) == 8 * 3
        assert {s.method for s in report.summaries} == \
            {"linear", "mw", "rsw", "groundtruth"}

    def test_inverting_ground_truth_gives_partial_report(self, small_beam, neo_hookean):
        # this load drives Newton trial states of the neo-Hookean ground truth
        # through inverted elements; the line search rejects them until it
        # gives up at step 4
        field = ForceField.directional([0, -1, 0], 1e3)
        report = compare_methods(small_beam, neo_hookean, field, net=None,
                                 steps=6, dt=0.2, methods=("linear",))
        assert not report.completed
        assert "diverged after 3 steps" in report.note
        assert len(report.rows) == 3
        assert len(report.trajectories["groundtruth"]) == 3

    def test_one_factorization_with_deepwarp(self, neo_hookean, quick_net):
        # the baselines step on deepwarp's linear system instead of their own
        mesh = beam(4, 2, 2)
        field = ForceField.directional([0, -1, 0], 0.2)
        reset_factorization_event_count()
        for calls in (1, 2):
            report = compare_methods(mesh, neo_hookean, field, net=quick_net, steps=3,
                                     dt=1 / 50)
            assert report.completed
            assert factorization_event_count() == calls

    def test_one_gradient_operator_with_deepwarp(self, normalized_beam, neo_hookean,
                                                 quick_net, build_counts):
        field = ForceField.directional([0, -1, 0], 0.2)
        report = compare_methods(normalized_beam, neo_hookean, field, net=quick_net,
                                 steps=2, dt=1 / 50,
                                 methods=("linear", "mw", "rsw", "deepwarp"))
        assert report.completed
        # one rest model and one warp context: the ground truth, the load and
        # the baselines read them instead of building their own
        assert dict(build_counts) == {"MeshPrecomp": 1, "lumped_mass": 1,
                                      "node_adjacency": 1, "gradient_operator": 1,
                                      "linear assemble_stiffness": 1}

    def test_warp_context_builds_each_operator_once(self, normalized_beam, neo_hookean,
                                                    quick_net, build_counts):
        build_warp_context(normalized_beam, neo_hookean, quick_net,
                           ForceField.directional([0, -1, 0], 0.2), dt=1 / 50)
        assert dict(build_counts) == {"MeshPrecomp": 1, "lumped_mass": 1,
                                      "node_adjacency": 1, "gradient_operator": 1,
                                      "linear assemble_stiffness": 1}

    def test_deepwarp_requires_net(self, bending_beam, neo_hookean):
        field = ForceField.directional([0, -1, 0], 0.2)
        with pytest.raises(ValueError, match="network"):
            compare_methods(bending_beam, neo_hookean, field, net=None,
                            steps=2, dt=1 / 50, methods=("deepwarp",))

    def test_linear_material_frequency_matches_within_bin(self, normalized_beam,
                                                          quick_net):
        # degenerate-material oracle: with linear elasticity the ground truth
        # is the linear path, and the learned correction must not move the
        # dominant trajectory frequency by more than one raw FFT bin
        params = MaterialParams(MaterialModel.LINEAR, 1e4, 0.4)
        field = ForceField.directional([0.1, 0.95, 0.2], 1.0)
        steps, dt = 240, 1 / 30
        report = compare_methods(normalized_beam, params, field, net=quick_net,
                                 steps=steps, dt=dt, density=40.0,
                                 methods=("linear", "deepwarp"))
        assert report.completed
        freqs = {s.method: s.dominant_frequency for s in report.summaries}
        bin_width = 1.0 / (steps * dt)
        assert abs(freqs["deepwarp"] - freqs["groundtruth"]) <= bin_width + 1e-12


class TestSimulateMethods:
    FIELD = ForceField.directional([0.2, -1.0, 0.1], 0.3)
    STEPS, DT, DENSITY = 5, 1 / 50, 1000.0

    def simulate(self, mesh, params, net, methods):
        return simulate_methods(mesh, params, self.FIELD, net, methods, self.STEPS, self.DT,
                                IntegrationScheme.NEWMARK, RayleighDamping(), self.DENSITY)

    def direct_loop(self, method, mesh, params, net):
        f_ext = force_vector(mesh, self.FIELD, self.DENSITY)
        if method == "deepwarp":
            ctx = build_warp_context(mesh, params, net, self.FIELD, self.DT)
            return np.array(run_deepwarp(ctx, self.STEPS, f_ext))
        state, out = SimState.rest(mesh.n_nodes), []
        if method == "groundtruth":
            system = build_nonlinear_system(mesh, params, RayleighDamping(), self.DENSITY)
            for _ in range(self.STEPS):
                state = step_newmark_nonlinear(system, state, f_ext, self.DT)
                out.append(state.u)
            return np.array(out)
        system = build_linear_system(mesh, params.as_linear(), self.DT,
                                     IntegrationScheme.NEWMARK, RayleighDamping(),
                                     self.DENSITY)
        grad_op = gradient_operator(mesh)
        for _ in range(self.STEPS):
            state = step_linear_implicit(system, state, f_ext)
            u = state.u
            if method == "mw":
                u = mw_warp(mesh, u, grad_op)
            elif method == "rsw":
                u = rsw_warp(mesh, u, grad_op)
            out.append(u)
        return np.array(out)

    @pytest.mark.parametrize("method", METHODS)
    def test_each_method_matches_its_direct_loop(self, method, normalized_beam,
                                                 neo_hookean, quick_net):
        traj, note = self.simulate(normalized_beam, neo_hookean, quick_net, (method,))
        assert note is None and list(traj) == [method]
        want = self.direct_loop(method, normalized_beam, neo_hookean, quick_net)
        assert want.shape == (self.STEPS, 3 * normalized_beam.n_nodes)
        assert np.array_equal(traj[method], want)

    def test_ground_truth_alone_builds_one_rest_model(self, normalized_beam, neo_hookean,
                                                      build_counts):
        # the load reads the rest model's masses
        self.simulate(normalized_beam, neo_hookean, None, ("groundtruth",))
        assert dict(build_counts) == {"MeshPrecomp": 1, "lumped_mass": 1}

    def test_linear_system_methods_share_one_factorization(self, normalized_beam,
                                                           neo_hookean, quick_net):
        reset_factorization_event_count()
        together, note = self.simulate(normalized_beam, neo_hookean, quick_net,
                                       ("deepwarp", "rsw", "linear", "mw"))
        assert factorization_event_count() == 1
        assert note is None and list(together) == ["linear", "mw", "rsw", "deepwarp"]
        for method, traj in together.items():
            alone, _ = self.simulate(normalized_beam, neo_hookean, quick_net, (method,))
            assert np.array_equal(traj, alone[method])


class TestDominantFrequency:
    def test_pure_tone(self):
        dt = 1 / 100
        t = np.arange(0, 6, dt)
        sig = np.sin(2 * np.pi * 3.2 * t)
        assert dominant_frequency(sig, dt) == pytest.approx(3.2, rel=0.02)

    def test_flat_signal(self):
        assert dominant_frequency(np.ones(100), 0.01) == 0.0
