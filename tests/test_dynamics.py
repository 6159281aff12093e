import numpy as np
import pytest
import scipy.sparse as sp

from deepwarp import dynamics
from deepwarp.dynamics import (ConvergenceError, IntegrationScheme,
                               NotPositiveDefiniteError,
                               RayleighDamping, SimState, TangentSolver, apply_anchors,
                               build_linear_system, build_nonlinear_system,
                               factorization_event_count, factorize_spd, internal_force,
                               prefactorize, quasistatic_linear_sequence,
                               reset_factorization_event_count,
                               step_linear_implicit, step_newmark_nonlinear)
from deepwarp.material import (MaterialModel, MaterialParams, assemble_stiffness,
                               total_elastic_energy, MeshPrecomp)
from deepwarp.mesh import lumped_mass
from deepwarp.features import ForceField, force_vector
from deepwarp.meshgen import beam


LINEAR = MaterialParams(MaterialModel.LINEAR, 1e4, 0.3)


class TestApplyAnchors:
    def test_no_anchors_unchanged(self):
        A = sp.random(12, 12, density=0.4, random_state=0).tocsr()
        out = apply_anchors(A, np.array([], dtype=int))
        assert (abs(A - out)).max() == 0 if sp.issparse(out) else np.allclose(A, out)

    def test_all_anchored_identity(self):
        A = sp.random(9, 9, density=0.5, random_state=1).tocsr()
        out = apply_anchors(A, np.array([0, 1, 2]))
        assert abs(out - sp.eye(9)).max() < 1e-15

    def test_two_node_spring_hand_elimination(self):
        # per-component two-node spring, node 0 anchored: u1 = f/k
        k = 7.0
        K = np.kron(np.array([[k, -k], [-k, k]]), np.eye(3))
        Kc = apply_anchors(sp.csr_matrix(K), np.array([0]))
        f = np.array([0.0, 0, 0, 2.0, -1.0, 0.5])
        pf = prefactorize(Kc.tocsr())
        u = pf.solve(f)
        assert np.allclose(u[:3], 0.0)
        assert np.allclose(u[3:], f[3:] / k)


class TestPrefactorize:
    def test_anchorless_static_stiffness_rejected(self):
        mesh = beam(2, 1, 1, anchor="none")
        K = assemble_stiffness(mesh, LINEAR, np.zeros(3 * mesh.n_nodes),
                               anchored=False)
        with pytest.raises(NotPositiveDefiniteError):
            prefactorize(K)

    def test_anchorless_system_build_rejected(self):
        mesh = beam(2, 1, 1, anchor="none")
        with pytest.raises(NotPositiveDefiniteError, match="anchor"):
            build_linear_system(mesh, LINEAR, 1 / 60)

    def test_beam_factorizes_once(self, small_beam):
        reset_factorization_event_count()
        build_linear_system(small_beam, LINEAR, 1 / 60)
        assert factorization_event_count() == 1

    def test_solve_matches_dense(self, unit_tet):
        system = build_linear_system(unit_tet, LINEAR, 1 / 60,
                                     IntegrationScheme.BACKWARD_EULER,
                                     RayleighDamping(0.1, 0.001))
        dt = system.dt
        A = (system.M + dt * system.C + dt * dt * system.K).toarray()
        rng = np.random.default_rng(0)
        b = rng.standard_normal(12)
        x = system.prefact.solve(b)
        x_dense = np.linalg.solve(A, b)
        assert np.linalg.norm(x - x_dense) < 1e-9 * np.linalg.norm(x_dense)

    def test_indefinite_matrix_rejected(self):
        A = sp.diags([1.0, -1.0, 1.0, 1.0]).tocsr()
        with pytest.raises(NotPositiveDefiniteError):
            prefactorize(A)

    def test_asymmetric_matrix_rejected(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
        with pytest.raises(NotPositiveDefiniteError, match="symmetric"):
            prefactorize(A)


class TestLinearStepping:
    def test_rest_stays_at_rest(self, bending_beam):
        system = build_linear_system(bending_beam, LINEAR, 1 / 60)
        state = SimState.rest(bending_beam.n_nodes)
        out = step_linear_implicit(system, state, np.zeros(system.n_dof))
        assert np.abs(out.u).max() == 0.0
        assert out.t == pytest.approx(1 / 60)

    def test_damped_convergence_to_static(self, bending_beam):
        # near-critical mass damping for the softest mode (omega ~ 0.78)
        damping = RayleighDamping(alpha=1.6, beta=0.0)
        system = build_linear_system(bending_beam, LINEAR, 1 / 20,
                                     IntegrationScheme.BACKWARD_EULER, damping)
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0], 0.5))
        state = SimState.rest(bending_beam.n_nodes)
        for _ in range(2000):
            state = step_linear_implicit(system, state, f)
        f0 = f.copy()
        f0[system.anchor_dofs] = 0.0
        static = prefactorize(system.K).solve(f0)
        assert np.linalg.norm(state.u - static) < 1e-6 * np.linalg.norm(static)

    def test_one_factorization_per_run(self, bending_beam):
        reset_factorization_event_count()
        system = build_linear_system(bending_beam, LINEAR, 1 / 60)
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0], 1.0))
        state = SimState.rest(bending_beam.n_nodes)
        for _ in range(100):
            state = step_linear_implicit(system, state, f)
        assert factorization_event_count() == 1
        assert system.prefact.factorization_count == 1

    def test_anchored_dofs_exactly_zero(self, bending_beam):
        system = build_linear_system(bending_beam, LINEAR, 1 / 60)
        f = force_vector(bending_beam, ForceField.directional([1, 1, 0], 2.0))
        state = SimState.rest(bending_beam.n_nodes)
        for _ in range(10):
            state = step_linear_implicit(system, state, f)
            assert np.abs(state.u[system.anchor_dofs]).max() == 0.0
            assert np.abs(state.v[system.anchor_dofs]).max() == 0.0

    def test_dimension_mismatch(self, bending_beam):
        system = build_linear_system(bending_beam, LINEAR, 1 / 60)
        with pytest.raises(ValueError, match="entries"):
            step_linear_implicit(system, SimState.rest(bending_beam.n_nodes),
                                 np.zeros(7))


class TestQuasistatic:
    def test_zero_force_all_zero(self, bending_beam):
        seq = quasistatic_linear_sequence(
            bending_beam, LINEAR, np.zeros(3 * bending_beam.n_nodes), n_steps=5)
        assert all(np.abs(u).max() == 0 for u in seq.displacements)

    def test_final_matches_static_solve(self, bending_beam):
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0], 0.4))
        seq = quasistatic_linear_sequence(bending_beam, LINEAR, f, n_steps=10)
        err = np.linalg.norm(seq.displacements[-1] - seq.target)
        assert err < 1e-6 * np.linalg.norm(seq.target)

    def test_monotone_loading(self, bending_beam):
        f = force_vector(bending_beam, ForceField.directional([0.3, -1, 0.2], 0.4))
        seq = quasistatic_linear_sequence(bending_beam, LINEAR, f, n_steps=12)
        assert seq.monotone
        norms = [np.linalg.norm(u) for u in seq.displacements]
        assert all(b >= a - 1e-10 for a, b in zip(norms, norms[1:]))

    def test_internal_force_pairing(self, bending_beam):
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0], 0.4))
        seq = quasistatic_linear_sequence(bending_beam, LINEAR, f, n_steps=6)
        K = assemble_stiffness(bending_beam, LINEAR,
                               np.zeros(3 * bending_beam.n_nodes))
        for u, fi in zip(seq.displacements, seq.internal_forces):
            assert np.allclose(fi, K @ u, atol=1e-12)
        # internal force lags the applied load until equilibrium
        f0 = f.copy()
        f0[(bending_beam.anchor_array()[:, None] * 3 + np.arange(3)).ravel()] = 0.0
        mid = len(seq.displacements) // 2
        assert np.linalg.norm(seq.internal_forces[mid] - f0) > \
            10 * np.linalg.norm(seq.internal_forces[-1] - f0)

    def test_nonconvergence_reports_residual(self, bending_beam):
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0], 0.4))
        with pytest.raises(ConvergenceError) as err:
            quasistatic_linear_sequence(bending_beam, LINEAR, f, n_steps=5,
                                        max_steps=3)
        assert err.value.residual is not None


class TestNewmarkNonlinear:
    def test_zero_force_stays_at_rest(self, bending_beam, neo_hookean):
        system = build_nonlinear_system(bending_beam, neo_hookean)
        state = SimState.rest(bending_beam.n_nodes)
        for _ in range(5):
            state = step_newmark_nonlinear(system, state,
                                           np.zeros(3 * bending_beam.n_nodes), 1 / 60)
        assert np.abs(state.u).max() < 1e-12

    def test_linear_material_matches_linear_stepper(self, bending_beam):
        damping = RayleighDamping(0.2, 0.001)
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0.2], 0.5))
        lin = build_linear_system(bending_beam, LINEAR, 1 / 60,
                                  IntegrationScheme.NEWMARK, damping)
        non = build_nonlinear_system(bending_beam, LINEAR, damping)
        s_lin = SimState.rest(bending_beam.n_nodes)
        s_non = SimState.rest(bending_beam.n_nodes)
        for _ in range(20):
            s_lin = step_linear_implicit(lin, s_lin, f)
            s_non = step_newmark_nonlinear(non, s_non, f, 1 / 60)
        scale = np.abs(s_lin.u).max()
        assert np.abs(s_lin.u - s_non.u).max() < 1e-8 * max(scale, 1.0)

    def test_energy_conservation_single_tet(self, unit_tet):
        # undamped small oscillation: drift below 1% over 100 steps
        params = MaterialParams(MaterialModel.STVK, 100.0, 0.3)
        system = build_nonlinear_system(unit_tet, params, RayleighDamping(),
                                        density=1.0)
        state = SimState.rest(4)
        rng = np.random.default_rng(0)
        v0 = 0.02 * rng.standard_normal(12)
        v0[system.anchor_dofs] = 0.0
        state.v = v0
        masses = np.repeat(lumped_mass(unit_tet, 1.0), 3)
        pre = MeshPrecomp(unit_tet)

        def total_energy(s):
            kinetic = 0.5 * float(s.v @ (masses * s.v))
            return kinetic + total_elastic_energy(unit_tet, params, s.u, pre)

        e0 = total_energy(state)
        dt = 0.002
        for _ in range(100):
            state = step_newmark_nonlinear(system, state, np.zeros(12), dt)
        assert abs(total_energy(state) - e0) < 0.01 * e0

    def test_internal_force_sign_convention(self, bending_beam, neo_hookean):
        # f_int is the energy gradient: equilibrium reads f_int(u) = f_ext
        system = build_nonlinear_system(bending_beam, neo_hookean)
        rng = np.random.default_rng(1)
        u = 0.005 * rng.standard_normal(3 * bending_beam.n_nodes)
        u[system.anchor_dofs] = 0.0
        f = internal_force(system, u)
        K = assemble_stiffness(bending_beam, neo_hookean.as_linear(),
                               np.zeros_like(u))
        assert np.linalg.norm(f - K @ u) < 0.05 * np.linalg.norm(K @ u)


class TestTangentSolver:
    """The lagged-factor CG solve against a direct solve of the same tangent."""

    @pytest.fixture(scope="class")
    def tangents(self, bending_beam, neo_hookean):
        # the rest tangent and the tangent of a visibly bent beam (largest
        # displacement about a tenth of the beam length; CG takes 16 steps)
        K0 = assemble_stiffness(bending_beam, neo_hookean, np.zeros(3 * bending_beam.n_nodes),
                                anchored=True)
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0.3], 0.1))
        f[(bending_beam.anchor_array()[:, None] * 3 + np.arange(3)).ravel()] = 0.0
        u = factorize_spd(K0).solve(f)
        J = assemble_stiffness(bending_beam, neo_hookean, u, anchored=True)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(len(f))
        b[(bending_beam.anchor_array()[:, None] * 3 + np.arange(3)).ravel()] = 0.0
        return K0, J, b

    def test_first_solve_factorizes(self, tangents):
        K0, _, b = tangents
        solver = TangentSolver()
        x = solver.solve(K0, b)
        assert (solver.factorizations, solver.pcg_iterations, solver.fallbacks) == (1, 0, 0)
        assert np.array_equal(x, factorize_spd(K0).solve(b))

    def test_lagged_factor_matches_direct_solve(self, tangents):
        K0, J, b = tangents
        solver = TangentSolver()
        solver.solve(K0, b)
        x = solver.solve(J, b)
        assert solver.factorizations == 1 and solver.fallbacks == 0
        assert solver.pcg_iterations > 1
        assert np.linalg.norm(J @ x - b) <= dynamics.PCG_RTOL * np.linalg.norm(b)
        direct = factorize_spd(J).solve(b)
        assert np.allclose(x, direct, rtol=1e-9, atol=1e-9 * np.abs(direct).max())

    def test_indefinite_tangent_falls_back(self, tangents):
        K0, _, b = tangents
        solver = TangentSolver()
        solver.solve(K0, b)
        x = solver.solve(-K0, b)
        assert (solver.factorizations, solver.fallbacks) == (2, 1)
        assert np.array_equal(x, factorize_spd(-K0).solve(b))

    def test_iteration_cap_falls_back(self, tangents, monkeypatch):
        K0, J, b = tangents
        monkeypatch.setattr(dynamics, "PCG_MAX_ITER", 1)
        solver = TangentSolver()
        solver.solve(K0, b)
        x = solver.solve(J, b)
        assert (solver.factorizations, solver.pcg_iterations, solver.fallbacks) == (2, 1, 1)
        assert np.array_equal(x, factorize_spd(J).solve(b))
        # the fallback keeps the new factor: the same tangent now solves by CG
        solver.solve(J, 2.0 * b)
        assert solver.factorizations == 2

    def test_zero_rhs(self, tangents):
        K0, J, b = tangents
        solver = TangentSolver()
        solver.solve(K0, b)
        assert np.array_equal(solver.solve(J, np.zeros_like(b)), np.zeros_like(b))
        assert solver.factorizations == 1

    def test_newmark_matches_factorize_every_solve(self, bending_beam, neo_hookean,
                                                   factorize_every_solve):
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0.2], 0.8))

        def run(solver):
            system = build_nonlinear_system(bending_beam, neo_hookean)
            if solver is not None:
                system.solver = solver
            state = SimState.rest(bending_beam.n_nodes)
            traj, newton = [], []
            for _ in range(30):
                before = system.solver.solves
                state = step_newmark_nonlinear(system, state, f, 1 / 60)
                traj.append(state.u)
                newton.append(system.solver.solves - before)
            return np.array(traj), newton, system.solver

        ref, ref_newton, ref_solver = run(factorize_every_solve())
        out, newton, solver = run(None)
        assert isinstance(solver, TangentSolver)
        assert newton == ref_newton
        assert ref_solver.factorizations == sum(ref_newton) > 30
        assert solver.factorizations <= 3
        assert np.abs(out - ref).max() <= 1e-9 * np.abs(ref).max()
