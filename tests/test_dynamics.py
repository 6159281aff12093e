import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_solve_banded

from deepwarp import dynamics, material, warper
from deepwarp.dynamics import (BandedCholesky, ConvergenceError, IntegrationScheme,
                               NotPositiveDefiniteError, QuasistaticDriver,
                               RayleighDamping, SimState, TangentSolver,
                               build_linear_system, build_nonlinear_system,
                               factorization_event_count,
                               prefactorize, newton_solve, reset_factorization_event_count,
                               step_linear_implicit, step_newmark_nonlinear)
from deepwarp.material import (InvertedElementError, MaterialModel, MaterialParams,
                               MeshPrecomp, assemble_stiffness, total_elastic_energy)
from deepwarp.mesh import TetMesh, lumped_mass, normalize_to_unit_sphere
from deepwarp.features import ForceField, force_vector
from deepwarp.meshgen import beam
from deepwarp.registration import gradient_operator

import reference_paths

LINEAR = MaterialParams(MaterialModel.LINEAR, 1e4, 0.3)


class TestFreeDofs:
    def test_no_anchors_identity(self):
        free = beam(2, 1, 1, anchor="none").free_dofs()
        v = np.random.default_rng(0).standard_normal(free.n_dof)
        assert np.array_equal(free.index, np.arange(free.n_dof))
        assert np.array_equal(free.gather(v), v)
        assert np.array_equal(free.scatter(v), v)

    def test_all_anchored_empty(self, unit_tet):
        free = unit_tet.with_anchors(range(4)).free_dofs()
        assert free.index.size == 0 and free.n_dof == 12
        assert free.gather(np.ones(12)).size == 0
        assert np.array_equal(free.scatter(np.zeros(0)), np.zeros(12))

    def test_unit_tet_hand_elimination(self, unit_tet):
        # nodes 0-2 anchored: node 3 alone is free, u_free = K_ff^-1 f_free
        mesh = unit_tet.with_anchors({0, 1, 2})
        pre = MeshPrecomp(mesh)
        assert np.array_equal(pre.free.index, [9, 10, 11])
        K = assemble_stiffness(mesh, LINEAR, np.zeros(12), pre)
        K_ff = pre.free_stiffness(LINEAR, np.zeros(3))
        assert np.array_equal(K_ff.toarray(), K.toarray()[9:, 9:])
        f = np.arange(1.0, 13.0)
        u = pre.free.scatter(prefactorize(K_ff).solve(pre.free.gather(f)))
        assert np.array_equal(u[:9], np.zeros(9))
        assert np.allclose(u[9:], np.linalg.solve(K.toarray()[9:, 9:], f[9:]),
                           rtol=1e-12, atol=0.0)


class TestPrefactorize:
    def test_anchorless_static_stiffness_rejected(self):
        mesh = beam(2, 1, 1, anchor="none")
        K = assemble_stiffness(mesh, LINEAR, np.zeros(3 * mesh.n_nodes))
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
        # each scheme's matrix M + g dt C + b dt^2 K
        for scheme, g, b in ((IntegrationScheme.BACKWARD_EULER, 1.0, 1.0),
                             (IntegrationScheme.NEWMARK, 0.5, 0.25)):
            system = build_linear_system(unit_tet, LINEAR, 1 / 60, scheme,
                                         RayleighDamping(0.1, 0.001))
            dt = system.dt
            A = (system.M + g * dt * system.C + b * dt * dt * system.K).toarray()
            rng = np.random.default_rng(0)
            rhs = rng.standard_normal(system.K.shape[0])
            x = system.prefact.solve(rhs)
            x_dense = np.linalg.solve(A, rhs)
            assert np.linalg.norm(x - x_dense) < 1e-9 * np.linalg.norm(x_dense)

    def test_returns_the_checked_factor(self, small_beam):
        pre = MeshPrecomp(small_beam)
        K_ff = pre.free_stiffness(LINEAR, np.zeros(len(pre.free.index)))
        reset_factorization_event_count()
        factor = prefactorize(K_ff)
        assert isinstance(factor, BandedCholesky)
        assert factorization_event_count() == 1
        b = np.random.default_rng(2).standard_normal(K_ff.shape[0])
        assert np.array_equal(factor.solve(b), BandedCholesky(K_ff, 3).solve(b))

    def test_indefinite_matrix_rejected(self):
        A = sp.diags([1.0, -1.0, 1.0, 1.0]).tocsr()
        with pytest.raises(NotPositiveDefiniteError):
            prefactorize(A)

    def test_indefinite_matrix_with_positive_diagonal_rejected(self):
        # eigenvalue -1 on (e0 - e1); random solve probes can miss it
        A = sp.eye(100, format="lil")
        A[0, 1] = A[1, 0] = 2.0
        with pytest.raises(NotPositiveDefiniteError, match="positive definite"):
            prefactorize(A.tocsr())

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

    def test_rayleigh_coefficients_validated(self):
        for alpha, beta in ((-0.1, 0.0), (0.0, -1e-3), (np.nan, 0.0), (0.0, np.inf)):
            with pytest.raises(ValueError, match="finite and non-negative"):
                RayleighDamping(alpha, beta)

    def test_damped_convergence_to_static(self, bending_beam):
        # near-critical mass damping for the softest mode (omega ~ 0.78)
        damping = RayleighDamping(alpha=1.6, beta=0.0)
        system = build_linear_system(bending_beam, LINEAR, 1 / 20,
                                     IntegrationScheme.BACKWARD_EULER, damping)
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0], 0.5))
        state = SimState.rest(bending_beam.n_nodes)
        for _ in range(2000):
            state = step_linear_implicit(system, state, f)
        static = system.free.scatter(prefactorize(system.K).solve(system.free.gather(f)))
        assert np.linalg.norm(state.u - static) < 1e-6 * np.linalg.norm(static)

    def test_one_factorization_per_run(self, bending_beam):
        reset_factorization_event_count()
        system = build_linear_system(bending_beam, LINEAR, 1 / 60)
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0], 1.0))
        state = SimState.rest(bending_beam.n_nodes)
        for _ in range(100):
            state = step_linear_implicit(system, state, f)
        assert factorization_event_count() == 1

    def test_anchored_dofs_exactly_zero(self, bending_beam):
        system = build_linear_system(bending_beam, LINEAR, 1 / 60)
        f = force_vector(bending_beam, ForceField.directional([1, 1, 0], 2.0))
        state = SimState.rest(bending_beam.n_nodes)
        for _ in range(10):
            state = step_linear_implicit(system, state, f)
            anchored = bending_beam.anchor_array()
            assert np.abs(state.u.reshape(-1, 3)[anchored]).max() == 0.0
            assert np.abs(state.v.reshape(-1, 3)[anchored]).max() == 0.0

    def test_dimension_mismatch(self, bending_beam):
        system = build_linear_system(bending_beam, LINEAR, 1 / 60)
        with pytest.raises(ValueError, match="entries"):
            step_linear_implicit(system, SimState.rest(bending_beam.n_nodes),
                                 np.zeros(7))


class TestQuasistatic:
    def test_zero_force_all_zero(self, bending_beam):
        seq = QuasistaticDriver(bending_beam, LINEAR).run(
            np.zeros(3 * bending_beam.n_nodes), n_steps=5)
        assert all(np.abs(u).max() == 0 for u in seq.displacements)

    def test_final_matches_static_solve(self, bending_beam):
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0], 0.4))
        seq = QuasistaticDriver(bending_beam, LINEAR).run(f, n_steps=10)
        err = np.linalg.norm(seq.displacements[-1] - seq.target)
        assert err < 1e-6 * np.linalg.norm(seq.target)

    def test_monotone_loading(self, bending_beam):
        f = force_vector(bending_beam, ForceField.directional([0.3, -1, 0.2], 0.4))
        seq = QuasistaticDriver(bending_beam, LINEAR).run(f, n_steps=12)
        assert len(seq.displacements) > 2
        norms = [np.linalg.norm(u) for u in seq.displacements]
        assert all(b >= a - 1e-10 for a, b in zip(norms, norms[1:]))

    def test_internal_force_pairing(self, bending_beam):
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0], 0.4))
        seq = QuasistaticDriver(bending_beam, LINEAR).run(f, n_steps=6)
        pre = MeshPrecomp(bending_beam)
        K = pre.free_stiffness(LINEAR, np.zeros(len(pre.free.index)))
        forces = [K @ pre.free.gather(u) for u in seq.displacements]
        # internal force lags the applied load until equilibrium
        f0 = pre.free.gather(f)
        mid = len(seq.displacements) // 2
        assert np.linalg.norm(forces[mid] - f0) > 10 * np.linalg.norm(forces[-1] - f0)

    def test_two_factorizations_per_driver(self, bending_beam, monkeypatch):
        built = []

        class CountedCholesky(BandedCholesky):
            def __init__(self, A, node_dofs):
                built.append(A.shape)
                super().__init__(A, node_dofs)

        monkeypatch.setattr(dynamics, "BandedCholesky", CountedCholesky)
        reset_factorization_event_count()
        QuasistaticDriver(bending_beam, LINEAR)
        # K_ff and the backward-Euler matrix; the mode-frequency estimate
        # reuses the K_ff factor
        assert len(built) == 2
        assert factorization_event_count() == 2

    def test_nonconvergence_reports_residual(self, bending_beam, monkeypatch):
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0], 0.4))
        monkeypatch.setattr(dynamics, "QUASISTATIC_MAX_STEPS", 3)
        with pytest.raises(ConvergenceError) as err:
            QuasistaticDriver(bending_beam, LINEAR).run(f, n_steps=5)
        assert err.value.residual is not None


class TestNewmarkNonlinear:
    def test_builds_one_rest_model(self, bending_beam, neo_hookean, build_counts):
        # its rest K0 is a neo-Hookean assembly, which build_counts skips
        build_nonlinear_system(bending_beam, neo_hookean)
        assert dict(build_counts) == {"MeshPrecomp": 1, "lumped_mass": 1}

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
        v0[:3] = 0.0    # node 0 is anchored
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
        pre = system.pre
        u = pre.free.gather(0.005 * rng.standard_normal(3 * bending_beam.n_nodes))
        f = -pre.free_force(neo_hookean, u)
        Ku = pre.free_stiffness(neo_hookean.as_linear(), np.zeros_like(u)) @ u
        assert np.linalg.norm(f - Ku) < 0.05 * np.linalg.norm(Ku)


class TestNewtonSolve:
    """The Newton loop shared by registration and the Newmark ground truth."""

    @staticmethod
    def static_problem(mesh, params, magnitude):
        """Closures of f_int(u) = f on the free DOFs; ``inverted`` collects
        the states at which the residual raised InvertedElementError."""
        pre = MeshPrecomp(mesh)
        free = pre.free
        f = free.gather(force_vector(mesh, ForceField.directional([0, -1, 0], magnitude)))
        inverted = []

        def residual(u):
            try:
                return -pre.free_force(params, u) - f
            except InvertedElementError:
                inverted.append(u)
                raise

        def tangent(u):
            return pre.free_stiffness(params, u)

        u0 = np.zeros(len(free.index))
        return residual, tangent, u0, 1e-6 * np.linalg.norm(f), inverted

    def test_inverted_trials_rejected_and_solve_converges(self, small_beam, neo_hookean):
        residual, tangent, u0, tol, inverted = self.static_problem(small_beam, neo_hookean,
                                                                   20.0)
        res = newton_solve(residual, tangent, u0, tol, 50, TangentSolver())
        assert inverted
        assert res.converged and res.residual <= tol
        assert np.linalg.norm(residual(res.u)) == res.residual

    def test_stalled_search_returns_best_iterate(self, small_beam, neo_hookean):
        # at this load the full first Newton step passes both Wolfe tests
        residual, tangent, u0, tol, _ = self.static_problem(small_beam, neo_hookean, 0.05)
        states = []

        def feasible_until_first_step(u):
            # every state after the start and the first trial is "inverted"
            states.append(u)
            if len(states) > 2:
                raise InvertedElementError("inverted element")
            return residual(u)

        res = newton_solve(feasible_until_first_step, tangent, u0, tol, 50, TangentSolver())
        assert not res.converged and res.iterations == 2
        # the start, the accepted step and one full search of rejected trials
        assert len(states) == 2 + dynamics.LINE_SEARCH_TRIALS
        assert res.u is states[1]
        r1 = float(np.linalg.norm(residual(states[1])))
        assert tol < r1 < np.linalg.norm(residual(u0))
        assert res.residual == r1

    def test_newmark_one_tangent_per_newton_iteration(self, off_axis_readme_beam,
                                                      monkeypatch):
        # dt = 1/30: at 1/60 the predictor start takes one iteration per step
        mesh, params, f = off_axis_readme_beam
        assemblies = []
        original = material.assemble_stiffness

        def counting(*args, **kwargs):
            assemblies.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(material, "assemble_stiffness", counting)
        system = build_nonlinear_system(mesh, params)
        state = SimState.rest(mesh.n_nodes)
        newton = []
        for _ in range(30):
            solves, built = system.solver.solves, len(assemblies)
            state = step_newmark_nonlinear(system, state, f, 1 / 30)
            newton.append(system.solver.solves - solves)
            assert len(assemblies) - built == newton[-1]
        assert sum(newton) > 30


@pytest.fixture(scope="module")
def off_axis_readme_beam():
    """(mesh, params, f): the README beam under an off-axis load with a static
    max |u| of 0.7, as the benchmark loads it."""
    mesh = beam(16, 5, 5, lengths=(2.0, 0.8, 0.8))
    params = MaterialParams(MaterialModel.NEO_HOOKEAN, 1e4, 0.45)
    direction = np.array([0.18, 0.71, 0.68])
    pre = MeshPrecomp(mesh)
    K = pre.free_stiffness(params.as_linear(), np.zeros(len(pre.free.index)))
    unit = force_vector(mesh, ForceField.directional(direction, 1.0))
    peak = np.linalg.norm(pre.free.scatter(BandedCholesky(K, 3).solve(
        pre.free.gather(unit))).reshape(-1, 3), axis=1).max()
    return mesh, params, 0.7 / peak * unit


@pytest.fixture
def newton_calls(monkeypatch):
    """The start of every ``newton_solve`` call of the Newmark step."""
    calls = []
    original = dynamics.newton_solve

    def counting(residual, tangent, u0, tol, max_iter, solver):
        calls.append(u0)
        return original(residual, tangent, u0, tol, max_iter, solver)

    monkeypatch.setattr(dynamics, "newton_solve", counting)
    return calls


class TestNewmarkPredictorStart:
    """Newton starts each Newmark step at the constant-acceleration predictor
    and retries from the previous displacement; the oracle is the step that
    starts from the previous displacement."""

    def test_one_newton_solve_per_step(self, off_axis_readme_beam, newton_calls):
        mesh, params, f = off_axis_readme_beam
        system = build_nonlinear_system(mesh, params)
        state = SimState.rest(mesh.n_nodes)
        newton = []
        for _ in range(30):
            solves = system.solver.solves
            state = step_newmark_nonlinear(system, state, f, 1 / 60)
            newton.append(system.solver.solves - solves)
        assert newton == [1] * 30
        assert len(newton_calls) == 30    # no retry from the previous displacement

    def test_matches_previous_state_start_over_120_steps(self, off_axis_readme_beam):
        mesh, params, f = off_axis_readme_beam
        system = build_nonlinear_system(mesh, params)
        ref_system = build_nonlinear_system(mesh, params)
        state = ref_state = SimState.rest(mesh.n_nodes)
        diffs, peaks = [], []
        for _ in range(120):
            state = step_newmark_nonlinear(system, state, f, 1 / 60)
            ref_state = reference_paths.previous_state_newmark_step(ref_system, ref_state, f,
                                                                    1 / 60)
            diffs.append(np.abs(state.u - ref_state.u).max())
            peaks.append(np.abs(ref_state.u).max())
        assert max(diffs) <= 1e-8 * max(peaks)
        assert system.solver.solves == 120 < ref_system.solver.solves

    def test_inverted_predictor_retries_from_previous_state(self, bending_beam, neo_hookean,
                                                            newton_calls):
        # at rest, with an acceleration that moves the free tip corner along -x
        # by 1.4 cell lengths at the predictor u_pred + dt^2/4 a (inverted) and
        # by 0.7 at u_pred
        dt = 1 / 60
        x = bending_beam.nodes
        tip = int(np.argmax(x @ np.array([1.0, 1e-3, 1e-6])))
        state = SimState.rest(bending_beam.n_nodes)
        state.a[3 * tip] = -1.4 * (2.0 / 6) / (0.5 * dt * dt)
        predictor = state.u + dt * state.v + 0.5 * dt * dt * state.a
        assert reference_paths.min_det(bending_beam, predictor) < 0.0
        f = np.zeros(3 * bending_beam.n_nodes)
        system = build_nonlinear_system(bending_beam, neo_hookean)
        out = step_newmark_nonlinear(system, state, f, dt)
        assert len(newton_calls) == 2 and not newton_calls[1].any()    # the retry from rest
        ref = reference_paths.previous_state_newmark_step(
            build_nonlinear_system(bending_beam, neo_hookean), state, f, dt)
        assert np.abs(out.u - ref.u).max() <= 1e-9 * np.abs(ref.u).max()
        assert reference_paths.min_det(bending_beam, out.u) > 0.0

    def test_unconverged_predictor_start_retries(self, off_axis_readme_beam, monkeypatch):
        # the first Newton loop of each step gets max_iter 0, so it reports
        # non-converged; the retry is the previous-displacement step
        mesh, params, f = off_axis_readme_beam
        calls = []
        original = dynamics.newton_solve

        def first_fails(residual, tangent, u0, tol, max_iter, solver):
            calls.append(u0)
            return original(residual, tangent, u0, tol, max_iter if len(calls) > 1 else 0,
                            solver)

        monkeypatch.setattr(dynamics, "newton_solve", first_fails)
        system = build_nonlinear_system(mesh, params)
        ref_system = build_nonlinear_system(mesh, params)
        state = ref_state = SimState.rest(mesh.n_nodes)
        for _ in range(3):
            calls.clear()
            previous = system.pre.free.gather(state.u)
            state = step_newmark_nonlinear(system, state, f, 1 / 60)
            ref_state = reference_paths.previous_state_newmark_step(ref_system, ref_state, f,
                                                                    1 / 60)
            assert len(calls) == 2 and np.array_equal(calls[1], previous)
            assert np.abs(state.u - ref_state.u).max() <= 1e-9 * np.abs(ref_state.u).max()


@pytest.fixture
def analyses(monkeypatch):
    """The shapes of the matrices whose band analysis ``BandedCholesky`` runs."""
    shapes = []

    class CountedAnalysis(dynamics._BandAnalysis):
        def __init__(self, A, node_dofs):
            shapes.append(A.shape)
            super().__init__(A, node_dofs)

    monkeypatch.setattr(dynamics, "_BandAnalysis", CountedAnalysis)
    return shapes


def bent_tangents(mesh, params):
    """The free-DOF rest tangent K0, the tangent J of a visibly bent beam
    and a random right-hand side."""
    pre = MeshPrecomp(mesh)
    K0 = pre.free_stiffness(params, np.zeros(len(pre.free.index)))
    f = pre.free.gather(force_vector(mesh, ForceField.directional([0, -1, 0.3], 0.1)))
    J = pre.free_stiffness(params, BandedCholesky(K0, 3).solve(f))
    return K0, J, np.random.default_rng(3).standard_normal(len(f))


class TestTangentSolver:
    """The lagged-factor CG solve against a direct solve of the same tangent."""

    @pytest.fixture(scope="class")
    def tangents(self, bending_beam, neo_hookean):
        # the rest tangent and the tangent of a visibly bent beam (largest
        # displacement about a tenth of the beam length; CG takes 16 steps)
        return bent_tangents(bending_beam, neo_hookean)

    def test_first_solve_factorizes(self, tangents):
        K0, _, b = tangents
        solver = TangentSolver()
        x = solver.solve(K0, b)
        assert (solver.factorizations, solver.pcg_iterations, solver.fallbacks) == (1, 0, 0)
        assert np.array_equal(x, BandedCholesky(K0, 3).solve(b))

    def test_lagged_factor_matches_direct_solve(self, tangents):
        K0, J, b = tangents
        solver = TangentSolver()
        solver.solve(K0, b)
        x = solver.solve(J, b)
        assert solver.factorizations == 1 and solver.fallbacks == 0
        assert solver.pcg_iterations > 1
        assert np.linalg.norm(J @ x - b) <= dynamics.PCG_RTOL * np.linalg.norm(b)
        direct = BandedCholesky(J, 3).solve(b)
        assert np.allclose(x, direct, rtol=1e-9, atol=1e-9 * np.abs(direct).max())

    def test_indefinite_tangent_falls_back(self, tangents):
        K0, _, b = tangents
        solver = TangentSolver()
        solver.solve(K0, b)
        x = solver.solve(-K0, b)
        assert (solver.factorizations, solver.fallbacks) == (2, 1)
        assert np.array_equal(x, dynamics._superlu_factor(-K0).solve(b))

    def test_iteration_cap_falls_back(self, tangents, monkeypatch):
        K0, J, b = tangents
        monkeypatch.setattr(dynamics, "PCG_MAX_ITER", 1)
        solver = TangentSolver()
        solver.solve(K0, b)
        x = solver.solve(J, b)
        assert (solver.factorizations, solver.pcg_iterations, solver.fallbacks) == (2, 1, 1)
        assert np.array_equal(x, BandedCholesky(J, 3).solve(b))
        # the fallback keeps the new factor: the same tangent now solves by CG
        solver.solve(J, 2.0 * b)
        assert solver.factorizations == 2

    @pytest.mark.parametrize("above", [True, False], ids=["above", "at"])
    def test_refresh_after_a_long_solve(self, tangents, monkeypatch, above):
        K0, J, b = tangents
        solver = TangentSolver()
        solver.solve(K0, b)
        solver.solve(J, b)
        iterations = solver.pcg_iterations
        assert 1 < iterations <= dynamics.PCG_MAX_ITER
        # the rule reads the threshold at the end of each solve
        solver = TangentSolver()
        monkeypatch.setattr(dynamics, "PCG_REFRESH_ITER", iterations - 1 if above else iterations)
        solver.solve(K0, b)
        solver.solve(J, b)
        x = solver.solve(J, 2.0 * b)
        if above:
            # the next solve factorizes its own tangent without CG
            assert (solver.factorizations, solver.pcg_iterations) == (2, iterations)
            assert np.array_equal(x, BandedCholesky(J, 3).solve(2.0 * b))
        else:
            assert solver.factorizations == 1 and solver.pcg_iterations > iterations
        assert solver.fallbacks == 0

    def test_indefinite_tangent_keeps_the_banded_analysis(self, tangents, analyses):
        K0, J, b = tangents
        solver = TangentSolver()
        solver.solve(K0, b)
        assert np.array_equal(solver.solve(-K0, b), dynamics._superlu_factor(-K0).solve(b))
        # SPD -> indefinite -> SPD: banded, SuperLU, then a refactor of the
        # kept band on its first analysis
        x = solver.solve(J, b)
        assert (solver.factorizations, solver.fallbacks, len(analyses)) == (3, 2, 1)
        assert np.array_equal(x, BandedCholesky(J, 3).solve(b))

    def test_zero_rhs(self, tangents):
        K0, J, b = tangents
        solver = TangentSolver()
        solver.solve(K0, b)
        assert np.array_equal(solver.solve(J, np.zeros_like(b)), np.zeros_like(b))
        assert solver.factorizations == 1

    def test_newmark_matches_factorize_every_solve(self, bending_beam, neo_hookean,
                                                   factorize_every_solve):
        # the load is switched off and on every 5 steps: under a constant load
        # the predictor start takes one iteration per step, while each
        # unloaded step takes two to reach the absolute tolerance NEWTON_ATOL
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0.2], 0.8))

        def run(solver):
            system = build_nonlinear_system(bending_beam, neo_hookean)
            if solver is not None:
                system.solver = solver
            state = SimState.rest(bending_beam.n_nodes)
            traj, newton = [], []
            for k in range(30):
                before = system.solver.solves
                state = step_newmark_nonlinear(system, state, f * (k // 5 % 2 == 0), 1 / 60)
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


def shuffled_readme_beam(seed: int):
    """The README beam with its node numbering randomly permuted."""
    mesh = beam(16, 5, 5, lengths=(2.0, 0.8, 0.8))
    perm = np.random.default_rng(seed).permutation(mesh.n_nodes)
    new_index = np.argsort(perm)
    return TetMesh(nodes=mesh.nodes[perm], tets=new_index[mesh.tets],
                   anchors=frozenset(int(new_index[a]) for a in mesh.anchors))


class TestBandedCholesky:
    """The banded Cholesky against a default SuperLU solve."""

    @staticmethod
    def assert_matches_splu(A, factor, seed):
        b = np.random.default_rng(seed).standard_normal(A.shape[0])
        ref = spla.splu(A.tocsc()).solve(b)
        assert np.linalg.norm(factor.solve(b) - ref) <= 1e-10 * np.linalg.norm(ref)

    @staticmethod
    def newmark_matrix(mesh):
        dt = 1 / 60
        system = build_linear_system(mesh, LINEAR, dt, IntegrationScheme.NEWMARK,
                                     RayleighDamping(0.5, 0.01))
        return system, (system.M + 0.5 * dt * system.C + 0.25 * dt * dt * system.K).tocsr()

    @staticmethod
    def node_order(factor):
        """The node order behind ``perm``, asserting that ``perm`` lists each
        node's three DOFs together and in order."""
        order = factor.perm[::3] // 3
        assert np.array_equal(factor.perm.reshape(-1, 3), 3 * order[:, None] + [0, 1, 2])
        return order

    # the runtime benchmark's 3300-node beam: a band of 409 rows when RCM
    # ran on the DOF pattern, 306 on the node graph
    @pytest.mark.parametrize("make_mesh, max_band", [
        pytest.param(lambda: shuffled_readme_beam(seed=5), None, id="shuffled_readme"),
        pytest.param(lambda: normalize_to_unit_sphere(beam(32, 9, 9, lengths=(2.0, 0.8, 0.8))),
                     306, id="large_beam")])
    def test_newmark_matrix(self, make_mesh, max_band):
        system, A = self.newmark_matrix(make_mesh())
        factor = BandedCholesky(A, 3)
        self.assert_matches_splu(A, factor, seed=1)
        self.assert_matches_splu(A, system.prefact, seed=2)
        self.node_order(factor)
        # RCM recovers a band from any numbering
        lu = dynamics._superlu_factor(A)
        assert factor.band.size <= lu.L.nnz + lu.U.nnz
        if max_band is not None:
            assert factor.band.shape[0] <= max_band

    def test_order_ignores_zeros_inside_blocks(self):
        _, A = self.newmark_matrix(shuffled_readme_beam(seed=5))
        coo = A.tocoo()
        node_r, node_c, dof_r, dof_c = coo.row // 3, coo.col // 3, coo.row % 3, coo.col % 3
        # two of the nine entries of every off-diagonal block, symmetrically
        hit = (node_r != node_c) & (((dof_r == 0) & (dof_c == 1)) | ((dof_r == 1) & (dof_c == 0)))
        holed = sp.csr_matrix((np.where(hit, 0.0, coo.data), (coo.row, coo.col)), shape=A.shape)
        factor, holed_factor = BandedCholesky(A, 3), BandedCholesky(holed, 3)
        assert np.array_equal(self.node_order(holed_factor), self.node_order(factor))
        self.assert_matches_splu(holed, holed_factor, seed=4)

    def test_rsw_normal_matrix_is_one_node_level_copy(self, monkeypatch):
        """The RSW fit factors the node-level copy A1 of E^T E = A1 kron I_3,
        one DOF per node: the README beam's 576 free nodes wide."""
        monkeypatch.setattr(warper, "_rsw_fit", None)
        mesh = beam(16, 5, 5, lengths=(2.0, 0.8, 0.8))
        grad_op = gradient_operator(mesh)
        factor = warper._rsw_normal_fit(grad_op, mesh).factor
        assert factor.node_dofs == 1 and factor.band.shape[1] == 576
        # 104 rows with RCM on the DOF pattern of E^T E, 87 on node triples of A1
        assert factor.band.shape[0] <= 76
        E = grad_op[:, mesh.free_dofs().index]
        self.assert_matches_splu((E.T @ E)[0::3, 0::3].tocsr(), factor, seed=5)

    def test_solves_several_right_hand_sides(self):
        _, A = self.newmark_matrix(shuffled_readme_beam(seed=5))
        factor = BandedCholesky(A, 3)
        B = np.random.default_rng(8).standard_normal((A.shape[0], 3))
        X = factor.solve(B)
        assert X.shape == B.shape
        for k in range(3):
            assert np.array_equal(X[:, k], factor.solve(B[:, k]))

    @pytest.mark.parametrize("shape", [(), (3,)], ids=["one_rhs", "three_rhs"])
    def test_solve_is_cho_solve_banded_bitwise(self, shape):
        """The direct pbtrs call returns what scipy's checked wrapper does."""
        _, A = self.newmark_matrix(shuffled_readme_beam(seed=5))
        factor = BandedCholesky(A, 3)
        b = np.random.default_rng(9).standard_normal((A.shape[0], *shape))
        want = np.empty_like(b)
        want[factor.perm] = cho_solve_banded((factor.band, True), b[factor.perm])
        assert np.array_equal(factor.solve(b), want)

    def test_refactor_reuses_the_analysis_bitwise(self, bending_beam, neo_hookean, analyses):
        K0, J, b = bent_tangents(bending_beam, neo_hookean)
        analyses.clear()
        factor = BandedCholesky(K0, 3)
        perm, band, x = factor.perm.copy(), factor.band.copy(), factor.solve(b)
        factor.refactor(K0)
        assert np.array_equal(factor.perm, perm) and np.array_equal(factor.band, band)
        assert np.array_equal(factor.solve(b), x)
        factor.refactor(J)
        assert len(analyses) == 1
        fresh = BandedCholesky(J, 3)
        assert np.array_equal(factor.perm, fresh.perm)
        assert np.array_equal(factor.band, fresh.band)
        assert np.array_equal(factor.solve(b), fresh.solve(b))

    def test_refactor_of_another_pattern_runs_a_full_analysis(self):
        _, A = self.newmark_matrix(beam(16, 5, 5, lengths=(2.0, 0.8, 0.8)))
        _, B = self.newmark_matrix(shuffled_readme_beam(seed=5))
        assert A.shape == B.shape
        factor = BandedCholesky(A, 3)
        factor.refactor(B)
        fresh = BandedCholesky(B, 3)
        assert not np.array_equal(fresh.perm, BandedCholesky(A, 3).perm)
        assert np.array_equal(factor.perm, fresh.perm)
        assert np.array_equal(factor.band, fresh.band)
        self.assert_matches_splu(B, factor, seed=6)

    def test_refactor_when_an_entry_outside_the_band_fills(self):
        _, A = self.newmark_matrix(beam(16, 5, 5, lengths=(2.0, 0.8, 0.8)))
        perm = BandedCholesky(A, 3).perm
        # the first and last DOFs of the elimination order: as far apart as
        # the ordering puts any two
        i, j = perm[0], perm[-1]
        coo = A.tocoo()

        def with_pair(value):
            return sp.csr_matrix((np.r_[coo.data, value, value],
                                  (np.r_[coo.row, i, j], np.r_[coo.col, j, i])), shape=A.shape)

        holding_zeros = with_pair(0.0)
        assert holding_zeros.nnz == A.nnz + 2     # explicit zeros stay in the pattern
        factor = BandedCholesky(holding_zeros, 3)
        assert np.array_equal(factor.band, BandedCholesky(A, 3).band)
        filled = with_pair(0.1 * A.diagonal().min())
        assert np.array_equal(filled.indices, holding_zeros.indices)
        factor.refactor(filled)
        assert factor.band.shape[0] > BandedCholesky(A, 3).band.shape[0]
        self.assert_matches_splu(filled, factor, seed=7)

    def test_bent_neo_hookean_tangent(self, bending_beam, neo_hookean):
        K0, J, _ = bent_tangents(bending_beam, neo_hookean)
        self.assert_matches_splu(J, BandedCholesky(J, 3), seed=3)
        # the Cholesky of an indefinite matrix breaks down
        with pytest.raises(np.linalg.LinAlgError):
            BandedCholesky(-K0, 3)


class TestFreeDofsMatchUnitDiagonal:
    """The free-DOF solvers against the unit-diagonal elimination they replaced."""

    @pytest.mark.parametrize("scheme", list(IntegrationScheme))
    def test_linear_300_steps(self, bending_beam, scheme):
        damping = RayleighDamping(0.2, 0.001)
        f = force_vector(bending_beam, ForceField.directional([0.3, -1, 0.2], 0.5))
        system = build_linear_system(bending_beam, LINEAR, 1 / 60, scheme, damping)
        ref = reference_paths.unit_diagonal_linear_system(bending_beam, LINEAR, 1 / 60,
                                                          scheme, damping)
        state = ref_state = SimState.rest(bending_beam.n_nodes)
        for _ in range(300):
            state = step_linear_implicit(system, state, f)
            ref_state = reference_paths.unit_diagonal_linear_step(ref, ref_state, f)
            for got, want in ((state.u, ref_state.u), (state.v, ref_state.v)):
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_nonlinear_newmark_30_steps(self, bending_beam, neo_hookean):
        damping = RayleighDamping(0.5, 0.01)
        f = force_vector(bending_beam, ForceField.directional([0, -1, 0.2], 4.0))
        system = build_nonlinear_system(bending_beam, neo_hookean, damping)
        ref = reference_paths.unit_diagonal_nonlinear_system(bending_beam, neo_hookean,
                                                             damping)
        state = ref_state = SimState.rest(bending_beam.n_nodes)
        for _ in range(30):
            before, ref_before = system.solver.solves, ref.solver.solves
            state = step_newmark_nonlinear(system, state, f, 1 / 60)
            ref_state = reference_paths.unit_diagonal_newmark_step(ref, ref_state, f, 1 / 60)
            assert system.solver.solves - before == ref.solver.solves - ref_before > 0
            assert np.abs(state.u - ref_state.u).max() <= 1e-9 * np.abs(ref_state.u).max()
        # the beam is visibly bent: the tip moved by a tenth of the beam length
        assert np.abs(state.u).max() > 0.2
