import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import reference_paths
from reference_paths import (element_gradients, fd_element_stiffness, fd_stress,
                             material_state, min_det)
from conftest import delaunay_beam
from test_dynamics import bent_tangents
from test_node_graph import strained_state

from deepwarp import material
from deepwarp.dynamics import (BandedCholesky, RayleighDamping, build_nonlinear_system,
                               prefactorize)
from deepwarp.material import (InvertedElementError, MaterialModel, MaterialParams,
                               MeshPrecomp, assemble_force, assemble_stiffness,
                               deformation_gradient, det_and_inverse_transpose,
                               element_internal_force, element_precomp,
                               element_tangent_stiffness, energy_density,
                               piola_stress, piola_stress_differential_batch,
                               polar_decompose, total_elastic_energy)
from deepwarp.mesh import TetMesh
from deepwarp.meshgen import beam
from deepwarp.registration import rotation_from_vector

STATES = ["rest", "deformed", "near_inverted"]


def random_rotation(rng, min_angle=0.0):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(max(min_angle, 1e-3), np.pi)
    return rotation_from_vector(axis * angle)


def tensor_stiffness(params, mesh, u):
    """Reference global K from the full (m,3,3,3,3) dP/dF tensor, contracted
    with the corner gradients and scattered element by element."""
    F, pres = element_gradients(mesh, u)
    units = np.eye(9).reshape(9, 3, 3)
    dP = piola_stress_differential_batch(params, F, np.broadcast_to(units, (len(F), 9, 3, 3)))
    A = dP.reshape(len(F), 3, 3, 3, 3).transpose(0, 3, 4, 1, 2)     # A[n,p,q,r,s]
    K = np.zeros((3 * mesh.n_nodes, 3 * mesh.n_nodes))
    for n, (pre, tet) in enumerate(zip(pres, mesh.tets)):
        g = pre.corner_grads
        Ke = pre.volume * np.einsum("pqrs,aq,bs->apbr", A[n], g, g).reshape(12, 12)
        dofs = (tet[:, None] * 3 + np.arange(3)).ravel()
        K[np.ix_(dofs, dofs)] += Ke
    return K


def fd_global_stiffness(params, mesh, u, h=1e-6):
    """Reference global K from central differences of the assembled force."""
    K = np.zeros((len(u), len(u)))
    pre = MeshPrecomp(mesh)
    for j in range(len(u)):
        up, um = u.copy(), u.copy()
        up[j] += h
        um[j] -= h
        K[:, j] = -(assemble_force(mesh, params, up, pre)
                    - assemble_force(mesh, params, um, pre)) / (2 * h)
    return K





def shuffled_numbering(mesh, seed):
    """The mesh with its nodes renumbered at random (anchors follow) and the
    first three corners of every other tet turned cyclically, an even
    permutation, so that local and global corner order disagree."""
    perm = np.random.default_rng(seed).permutation(mesh.n_nodes)
    new_index = np.argsort(perm)
    tets = new_index[mesh.tets]
    tets[::2, :3] = tets[::2][:, [1, 2, 0]]
    return TetMesh(nodes=mesh.nodes[perm], tets=tets,
                   anchors=frozenset(int(new_index[a]) for a in mesh.anchors))


@pytest.fixture(scope="module")
def shuffled_beam(small_beam):
    return shuffled_numbering(small_beam, 31)


@pytest.fixture(scope="module")
def shuffled_bending_beam(bending_beam):
    return shuffled_numbering(bending_beam, 32)


@pytest.fixture(scope="module")
def mesh_state(request):
    """(mesh, material_state(mesh, state)) by fixture name, each state
    computed once per module."""
    cache = {}

    def get(mesh_name, state):
        if (mesh_name, state) not in cache:
            mesh = request.getfixturevalue(mesh_name)
            cache[mesh_name, state] = mesh, material_state(mesh, state)
        return cache[mesh_name, state]
    return get


class TestParams:
    def test_poisson_upper_bound(self):
        with pytest.raises(ValueError):
            MaterialParams(MaterialModel.LINEAR, 1.0, 0.5)

    def test_negative_modulus(self):
        for youngs in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                MaterialParams(MaterialModel.LINEAR, youngs, 0.3)

    def test_lame_coefficients(self):
        mu, lam = MaterialParams(MaterialModel.LINEAR, 1.0, 0.25).lame()
        assert mu == pytest.approx(0.4)
        assert lam == pytest.approx(0.4)


class TestDeformationGradient:
    def test_rest_is_identity(self, unit_tet):
        pre = element_precomp(unit_tet.nodes)
        F = deformation_gradient(pre, unit_tet.nodes)
        assert np.allclose(F, np.eye(3), atol=1e-14)

    def test_rigid_rotation(self, unit_tet):
        pre = element_precomp(unit_tet.nodes)
        R = random_rotation(np.random.default_rng(0))
        F = deformation_gradient(pre, unit_tet.nodes @ R.T)
        assert np.abs(F - R).max() < 1e-12

    def test_uniaxial_stretch(self, unit_tet):
        pre = element_precomp(unit_tet.nodes)
        x = unit_tet.nodes * np.array([2.0, 1.0, 1.0])
        F = deformation_gradient(pre, x)
        assert np.allclose(F, np.diag([2.0, 1.0, 1.0]), atol=1e-14)

    def test_precomp_inverse_consistency(self, unit_tet):
        pre = element_precomp(unit_tet.nodes)
        dm = (unit_tet.nodes[1:] - unit_tet.nodes[0]).T
        assert np.abs(pre.inv_rest_edges @ dm - np.eye(3)).max() < 1e-10


class TestEnergyDensity:
    def test_rest_energy_zero(self, all_materials):
        for params in all_materials:
            assert energy_density(params, np.eye(3)) == pytest.approx(0.0, abs=1e-14)

    def test_rotation_energy(self, all_materials):
        rng = np.random.default_rng(7)
        for params in all_materials:
            for _ in range(20):
                R = random_rotation(rng, min_angle=0.3)
                psi = energy_density(params, R)
                if params.model is MaterialModel.LINEAR:
                    assert psi > 1e-6
                else:
                    assert abs(psi) < 1e-10

    def test_stvk_hand_value(self):
        # k=1, nu=0, F=diag(2,1,1): strain (FF^T-I)/2 = diag(3/2,0,0),
        # energy = mu * (3/2)^2 with mu = 1/2
        params = MaterialParams(MaterialModel.STVK, 1.0, 0.0)
        psi = energy_density(params, np.diag([2.0, 1.0, 1.0]))
        assert psi == pytest.approx(9.0 / 8.0, rel=1e-12)

    def test_stvk_quartic_in_displacement_gradient(self):
        # energy along F = I + s G is a degree-4 polynomial in s
        rng = np.random.default_rng(5)
        params = MaterialParams(MaterialModel.STVK, 10.0, 0.3)
        G = rng.standard_normal((3, 3))
        s_fit = np.linspace(0.1, 0.5, 5)
        vals = [energy_density(params, np.eye(3) + s * G) for s in s_fit]
        coeffs = np.polyfit(s_fit, vals, 4)
        s_probe = 0.61
        predicted = np.polyval(coeffs, s_probe)
        actual = energy_density(params, np.eye(3) + s_probe * G)
        assert predicted == pytest.approx(actual, abs=1e-9 * max(1.0, abs(actual)))

    def test_neo_hookean_inverted_rejected(self):
        params = MaterialParams(MaterialModel.NEO_HOOKEAN, 1.0, 0.3)
        with pytest.raises(InvertedElementError):
            energy_density(params, np.diag([-1.0, 1.0, 1.0]))


class TestPiolaStress:
    def test_rest_stress_zero(self, all_materials):
        for params in all_materials:
            assert np.abs(piola_stress(params, np.eye(3))).max() < 1e-12

    def test_linear_hand_value(self):
        # nu=0, k=1: P = (G + G^T)/2 evaluated at G = diag(s,0,0)
        params = MaterialParams(MaterialModel.LINEAR, 1.0, 0.0)
        s = 0.37
        P = piola_stress(params, np.eye(3) + np.diag([s, 0.0, 0.0]))
        assert np.allclose(P, np.diag([s, 0.0, 0.0]), atol=1e-14)

    def test_linear_stress_is_linear_map(self):
        rng = np.random.default_rng(11)
        params = MaterialParams(MaterialModel.LINEAR, 3.0, 0.3)
        for _ in range(10):
            G1, G2 = rng.standard_normal((2, 3, 3))
            a, b = rng.standard_normal(2)
            lhs = piola_stress(params, np.eye(3) + a * G1 + b * G2)
            rhs = a * piola_stress(params, np.eye(3) + G1) \
                + b * piola_stress(params, np.eye(3) + G2)
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_stress_matches_fd_energy(self, all_materials):
        rng = np.random.default_rng(2)
        for params in all_materials:
            for _ in range(10):
                F = np.eye(3) + 0.25 * rng.standard_normal((3, 3))
                if np.linalg.det(F) < 0.1:
                    continue
                P = piola_stress(params, F)
                Pfd = fd_stress(params, F)
                assert np.linalg.norm(P - Pfd) < 1e-4 * np.linalg.norm(Pfd)

    def test_rotation_invariance_of_energy(self, all_materials):
        rng = np.random.default_rng(13)
        for params in all_materials:
            if params.model is MaterialModel.LINEAR:
                continue
            for _ in range(100):
                F = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
                if np.linalg.det(F) <= 0.05:
                    continue
                R = random_rotation(rng)
                assert energy_density(params, R @ F) == pytest.approx(
                    energy_density(params, F), abs=1e-10 * max(1.0, abs(energy_density(params, F))))


class TestElementForce:
    def test_rest_forces_zero(self, unit_tet, all_materials):
        pre = element_precomp(unit_tet.nodes)
        for params in all_materials:
            f = element_internal_force(params, pre, unit_tet.nodes)
            assert np.abs(f).max() < 1e-12

    def test_forces_sum_to_zero(self, unit_tet, all_materials):
        rng = np.random.default_rng(3)
        pre = element_precomp(unit_tet.nodes)
        for params in all_materials:
            x = unit_tet.nodes + 0.2 * rng.standard_normal((4, 3))
            if np.linalg.det(deformation_gradient(pre, x)) <= 0.05:
                continue
            f = element_internal_force(params, pre, x)
            assert np.abs(f.sum(axis=0)).max() < 1e-10

    def test_force_is_negative_energy_gradient(self, unit_tet, all_materials):
        rng = np.random.default_rng(4)
        pre = element_precomp(unit_tet.nodes)
        h = 1e-6
        for params in all_materials:
            x = unit_tet.nodes + 0.15 * rng.standard_normal((4, 3))
            if np.linalg.det(deformation_gradient(pre, x)) <= 0.1:
                continue
            f = element_internal_force(params, pre, x)
            fd = np.zeros((4, 3))
            for c in range(4):
                for k in range(3):
                    xp, xm = x.copy(), x.copy()
                    xp[c, k] += h
                    xm[c, k] -= h
                    e_p = pre.volume * energy_density(
                        params, deformation_gradient(pre, xp))
                    e_m = pre.volume * energy_density(
                        params, deformation_gradient(pre, xm))
                    fd[c, k] = -(e_p - e_m) / (2 * h)
            assert np.linalg.norm(f - fd) < 1e-4 * max(np.linalg.norm(fd), 1e-12)


class TestElementStiffness:
    def test_linear_stiffness_constant(self, unit_tet):
        rng = np.random.default_rng(5)
        params = MaterialParams(MaterialModel.LINEAR, 2.0, 0.3)
        pre = element_precomp(unit_tet.nodes)
        K0 = element_tangent_stiffness(params, pre, unit_tet.nodes)
        K1 = element_tangent_stiffness(
            params, pre, unit_tet.nodes + 0.3 * rng.standard_normal((4, 3)))
        assert np.abs(K0 - K1).max() < 1e-10 * np.abs(K0).max()

    def test_stiffness_matches_fd_force(self, unit_tet, all_materials):
        rng = np.random.default_rng(6)
        pre = element_precomp(unit_tet.nodes)
        for params in all_materials:
            x = unit_tet.nodes + 0.15 * rng.standard_normal((4, 3))
            if np.linalg.det(deformation_gradient(pre, x)) <= 0.1:
                continue
            K = element_tangent_stiffness(params, pre, x)
            Kfd = fd_element_stiffness(params, pre, x)
            assert np.linalg.norm(K - Kfd) < 1e-4 * np.linalg.norm(Kfd)

    def test_stiffness_symmetric(self, unit_tet, all_materials):
        rng = np.random.default_rng(8)
        pre = element_precomp(unit_tet.nodes)
        for params in all_materials:
            x = unit_tet.nodes + 0.2 * rng.standard_normal((4, 3))
            if np.linalg.det(deformation_gradient(pre, x)) <= 0.1:
                continue
            K = element_tangent_stiffness(params, pre, x)
            assert np.abs(K - K.T).max() < 1e-8 * np.abs(K).max()


class TestDirectTangent:
    """The closed-form element tangents against two reference paths."""

    @pytest.mark.parametrize("state", STATES)
    @pytest.mark.parametrize("model", list(MaterialModel))
    def test_matches_tensor_contraction_and_fd(self, small_beam, model, state):
        self.check(small_beam, model, state)

    @pytest.mark.parametrize("state", STATES)
    @pytest.mark.parametrize("model", list(MaterialModel))
    def test_shuffled_node_numbering(self, shuffled_beam, model, state):
        """Element corners out of global order take the mirrored slots."""
        self.check(shuffled_beam, model, state)

    @staticmethod
    def check(mesh, model, state):
        params = MaterialParams(model, 100.0, 0.35)
        u = material_state(mesh, state)
        if state != "rest":
            target = 0.5 if state == "deformed" else 0.05
            assert min_det(mesh, u) == pytest.approx(target, rel=1e-6)
        # without anchors the assembled stiffness is the full energy Hessian
        K = assemble_stiffness(mesh.with_anchors(()), params, u).toarray()
        Kt = tensor_stiffness(params, mesh, u)
        Kfd = fd_global_stiffness(params, mesh, u)
        scale = np.abs(Kt).max()
        assert np.abs(K - Kt).max() < 1e-12 * scale
        assert np.abs(K - Kfd).max() < 1e-8 * scale


class TestAssemblyKernels:
    """The gradient-operator force and the upper-triangle stiffness against
    per-element loops, energy differences and the 144-entry assembly."""

    @pytest.mark.parametrize("state", STATES)
    @pytest.mark.parametrize("model", list(MaterialModel))
    @pytest.mark.parametrize("mesh_name", ["small_beam", "shuffled_beam"])
    def test_force_matches_element_loop_and_energy_gradient(self, mesh_state, mesh_name,
                                                            model, state):
        mesh, u = mesh_state(mesh_name, state)
        params = MaterialParams(model, 100.0, 0.35)
        pre = MeshPrecomp(mesh)
        f = assemble_force(mesh, params, u, pre)
        x = mesh.nodes + u.reshape(-1, 3)
        loop = np.zeros((mesh.n_nodes, 3))
        for tet in mesh.tets:
            np.add.at(loop, tet, element_internal_force(params, element_precomp(mesh.nodes[tet]),
                                                        x[tet]))
        # forces vanish at rest: measure them against E times a face area
        scale = max(np.abs(loop).max(),
                    params.youngs * np.cbrt(pre.volumes.max()) ** 2)
        assert np.abs(f - loop.ravel()).max() <= 1e-12 * scale
        h = 1e-6
        grad = np.array([total_elastic_energy(mesh, params, u + h * e, pre)
                         - total_elastic_energy(mesh, params, u - h * e, pre)
                         for e in np.eye(len(u))]) / (2 * h)
        assert np.abs(f + grad).max() <= 1e-8 * scale

    @pytest.mark.parametrize("model", list(MaterialModel))
    @pytest.mark.parametrize("make_mesh", [lambda: beam(16, 5, 5, lengths=(2.0, 0.8, 0.8)),
                                           lambda: delaunay_beam(0)],
                             ids=["readme_beam", "delaunay_beam"])
    def test_stiffness_kernel_bitwise_equals_fancy_index_path(self, make_mesh, model):
        # the row-by-row writes into the output against the whole-array
        # products of fancy-indexed copies they replaced
        mesh = make_mesh()
        params = MaterialParams(model, 1e4, 0.45)
        pre = MeshPrecomp(mesh)
        F = pre._gradients(0.1 * strained_state(mesh))
        assert np.linalg.det(F.transpose(2, 0, 1)).min() > 0.5
        args = (params, F, pre.corner_grads, pre.volumes, pre._gram)
        assert np.array_equal(material._stiffness_upper(*args),
                              reference_paths.fancy_index_stiffness_upper(*args))

    @pytest.mark.parametrize("state", STATES)
    @pytest.mark.parametrize("model", list(MaterialModel))
    @pytest.mark.parametrize("mesh_name", ["bending_beam", "shuffled_bending_beam"])
    def test_stiffness_matches_144_entry_path(self, mesh_state, mesh_name, model, state):
        mesh, u = mesh_state(mesh_name, state)
        params = MaterialParams(model, 100.0, 0.35)
        K = assemble_stiffness(mesh, params, u)
        ref = reference_paths.assemble_stiffness_144(mesh, params, u)
        assert (K - K.T).nnz == 0
        assert abs(K - ref).max() <= 1e-12 * abs(ref).max()
        # the pattern holds exactly the DOF pairs that share an element
        dof = (mesh.tets[:, :, None] * 3 + np.arange(3)).reshape(-1, 12)
        pairs = sp.coo_matrix((np.ones(dof.size * 12), (np.repeat(dof, 12, axis=1).ravel(),
                                                        np.tile(dof, (1, 12)).ravel())),
                              shape=K.shape).tocsr()
        pairs.sum_duplicates()
        assert np.array_equal(K.indptr, pairs.indptr)
        assert np.array_equal(K.indices, pairs.indices)


class TestClosedForm3x3:
    def test_matches_numpy(self):
        rng = np.random.default_rng(17)
        F = np.eye(3) + 0.3 * rng.standard_normal((500, 3, 3))
        F = F[np.linalg.cond(F) < 20.0]
        J, B = det_and_inverse_transpose(F)
        Bref = np.swapaxes(np.linalg.inv(F), 1, 2)
        np.testing.assert_allclose(J, np.linalg.det(F), rtol=1e-12)
        err = np.abs(B - Bref).max(axis=(1, 2))
        assert np.all(err <= 1e-12 * np.abs(Bref).max(axis=(1, 2)))

    def test_identity_and_batch_shape(self):
        J, B = det_and_inverse_transpose(np.broadcast_to(np.eye(3), (2, 5, 3, 3)))
        assert J.shape == (2, 5) and B.shape == (2, 5, 3, 3)
        assert np.all(J == 1.0) and np.all(B == np.eye(3))


class TestBandedTangentFactor:
    def test_matches_default_splu(self, bending_beam, neo_hookean):
        nsys = build_nonlinear_system(bending_beam, neo_hookean, RayleighDamping(0.5, 0.01))
        _, tangent, _ = bent_tangents(bending_beam, neo_hookean)
        dt = 1.0 / 60.0
        newmark = nsys.M / (0.25 * dt * dt) + nsys.C * (0.5 / (0.25 * dt)) + tangent
        rng = np.random.default_rng(23)
        for A in (tangent, newmark):
            b = rng.standard_normal(A.shape[0])
            x = BandedCholesky(A, 3).solve(b)
            ref = spla.splu(A.tocsc()).solve(b)
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


class TestAssembly:
    def test_zero_displacement_zero_force(self, bending_beam, all_materials):
        u = np.zeros(3 * bending_beam.n_nodes)
        pre = MeshPrecomp(bending_beam)
        for params in all_materials:
            f = assemble_force(bending_beam, params, u, pre)
            assert np.abs(f).max() < 1e-10

    def test_anchored_linear_stiffness_spd(self, bending_beam):
        params = MaterialParams(MaterialModel.LINEAR, 1e4, 0.3)
        pre = MeshPrecomp(bending_beam)
        K = assemble_stiffness(bending_beam, params,
                               np.zeros(3 * bending_beam.n_nodes), pre)
        prefactorize(K)     # raises if not positive definite
        prefactorize(pre.free_stiffness(params, np.zeros(len(pre.free.index))))

    def test_two_tet_force_matches_hand_assembly(self, all_materials):
        nodes = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                          [1.0, 1.0, 1.0]])
        tets = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
        mesh = TetMesh(nodes=nodes, tets=tets)
        rng = np.random.default_rng(9)
        u = 0.05 * rng.standard_normal(3 * mesh.n_nodes)
        for params in all_materials:
            f = assemble_force(mesh, params, u, MeshPrecomp(mesh))
            expected = np.zeros_like(f)
            x = nodes + u.reshape(-1, 3)
            for tet in tets:
                pre = element_precomp(nodes[tet])
                fe = element_internal_force(params, pre, x[tet])
                for c, n_idx in enumerate(tet):
                    expected[3 * n_idx:3 * n_idx + 3] += fe[c]
            assert np.abs(f - expected).max() < 1e-10

    def test_inverted_element_error_names_element(self, bending_beam):
        params = MaterialParams(MaterialModel.NEO_HOOKEAN, 1.0, 0.3)
        u = np.zeros(3 * bending_beam.n_nodes)
        # collapse one tet far past inversion
        tet = bending_beam.tets[7]
        centroid = bending_beam.nodes[tet].mean(axis=0)
        for n_idx in tet:
            u[3 * n_idx:3 * n_idx + 3] = 1.9 * (centroid - bending_beam.nodes[n_idx])
        with pytest.raises(InvertedElementError, match="element"):
            assemble_force(bending_beam, params, u, MeshPrecomp(bending_beam))

    @pytest.mark.parametrize("det", [0.0, -1.0])
    def test_force_and_tangent_reject_inverted(self, unit_tet, det):
        params = MaterialParams(MaterialModel.NEO_HOOKEAN, 1.0, 0.3)
        pre = element_precomp(unit_tet.nodes)
        x = unit_tet.nodes.copy()
        x[3, 2] = det                  # moves the apex: det F = det
        for element_fn in (element_internal_force, element_tangent_stiffness):
            with pytest.raises(InvertedElementError):
                element_fn(params, pre, x)
        u = (x - unit_tet.nodes).ravel()
        for assemble in (assemble_force, assemble_stiffness):
            with pytest.raises(InvertedElementError):
                assemble(unit_tet, params, u, MeshPrecomp(unit_tet))

    def test_total_energy_matches_element_sum(self, bending_beam, neo_hookean):
        rng = np.random.default_rng(10)
        u = 0.01 * rng.standard_normal(3 * bending_beam.n_nodes)
        total = total_elastic_energy(bending_beam, neo_hookean, u, MeshPrecomp(bending_beam))
        x = bending_beam.nodes + u.reshape(-1, 3)
        expected = 0.0
        for tet in bending_beam.tets:
            pre = element_precomp(bending_beam.nodes[tet])
            expected += pre.volume * energy_density(
                neo_hookean, deformation_gradient(pre, x[tet]))
        assert total == pytest.approx(expected, rel=1e-10)


class TestPolarDecomposition:
    def test_rotation_passthrough(self):
        R = random_rotation(np.random.default_rng(1))
        Rp, S = polar_decompose(R)
        assert np.abs(Rp - R).max() < 1e-9
        assert np.abs(S - np.eye(3)).max() < 1e-9

    def test_stretch_recovery(self):
        rng = np.random.default_rng(2)
        R = random_rotation(rng)
        S = np.diag([2.0, 1.3, 0.7])
        Rp, Sp = polar_decompose(R @ S)
        assert np.abs(Rp - R).max() < 1e-9
        assert np.abs(Sp - S).max() < 1e-9

    def test_orthogonality_always(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            A = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
            if np.linalg.det(A) <= 0:
                continue
            R, _ = polar_decompose(A)
            assert np.abs(R @ R.T - np.eye(3)).max() < 1e-9

    def test_negative_det_fallback_proper_rotation(self):
        F = np.diag([-1.5, 1.0, 1.0])
        R, S = polar_decompose(F)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)
        assert np.abs(R @ R.T - np.eye(3)).max() < 1e-9
        assert np.abs(R @ S - F).max() < 1e-9
