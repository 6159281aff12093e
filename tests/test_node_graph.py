"""The CSR node graph gives the same numbers as the per-node lists it
replaced: the adjacency, the gradient operator, the geodesic feature, the
lumped masses and the stiffness pattern, each bitwise equal, dtypes
included, to the earlier construction kept in ``reference_paths``. So do
the stiffness pattern and K_ff's pattern built from 3x3 node blocks by
scipy, against the earlier slot arithmetic, and the K_ff that all four
material models assemble on them through ``MeshPrecomp.free_stiffness``.
``MeshPrecomp.free_force`` is the free part of ``assemble_force``, bitwise.
The meshes include two unstructured Delaunay tessellations of the README
beam (``conftest.delaunay_beam``)."""

import numpy as np
import pytest

from deepwarp.features import geodesic_all
from deepwarp.material import MaterialModel, MaterialParams, MeshPrecomp, assemble_force
from deepwarp.mesh import TetMesh, lumped_mass, node_adjacency
from deepwarp.meshgen import beam
from deepwarp.registration import gradient_operator

import reference_paths
from conftest import delaunay_beam, t_shape
from test_dynamics import shuffled_readme_beam

MESHES = {
    "readme": lambda: beam(16, 5, 5, lengths=(2.0, 0.8, 0.8)),
    "shuffled_0": lambda: shuffled_readme_beam(0),
    "shuffled_3": lambda: shuffled_readme_beam(3),
    "delaunay_0": lambda: delaunay_beam(0),
    "delaunay_1": lambda: delaunay_beam(1),
    "t_shape": lambda: t_shape()[0],
    "beam_3_1_1": lambda: beam(3, 1, 1),
}


# the stiffness patterns also on an anchored T shape and the 3300-node beam
PATTERN_MESHES = {
    **MESHES,
    "t_shape": lambda: t_shape()[0].with_anchors([0, 1, 2]),
    "large": lambda: beam(32, 9, 9, lengths=(2.0, 0.8, 0.8)),
}


@pytest.fixture(params=list(MESHES), scope="module")
def mesh(request):
    return MESHES[request.param]()


@pytest.fixture(params=list(PATTERN_MESHES), scope="module")
def pattern_mesh(request):
    return PATTERN_MESHES[request.param]()


def assert_same(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_adjacency(mesh):
    adj, lists = node_adjacency(mesh), reference_paths.adjacency_lists(mesh)
    # the lists were int64 arrays; the CSR keeps scipy's index dtype
    assert np.array_equal(np.diff(adj.indptr), [len(nbr) for nbr in lists])
    assert np.array_equal(adj.indices, np.concatenate(lists))


def test_gradient_operator(mesh):
    got = gradient_operator(mesh, node_adjacency(mesh))
    want = reference_paths.add_at_gradient_operator(mesh, reference_paths.adjacency_lists(mesh))
    for name in ("indptr", "indices", "data"):
        assert_same(getattr(got, name), getattr(want, name))


def test_geodesic(mesh):
    if not mesh.anchors:     # the T shape: anchor its stem's top
        mesh = mesh.with_anchors(np.flatnonzero(mesh.nodes[:, 1] == mesh.nodes[:, 1].max()))
    got = geodesic_all(mesh, node_adjacency(mesh))
    want = reference_paths.list_geodesic_all(mesh, reference_paths.adjacency_lists(mesh))
    for name in ("g", "nearest_anchor", "distance"):
        assert_same(getattr(got, name), getattr(want, name))


def test_lumped_mass(mesh):
    assert_same(lumped_mass(mesh, 37.5), reference_paths.add_at_lumped_mass(mesh, 37.5))


def test_stiffness_pattern(mesh):
    got = MeshPrecomp(mesh)._csr_pattern
    want = reference_paths.unique_csr_pattern(mesh.tets, mesh.n_nodes)
    assert len(got) == len(want) == 5
    for g, w in zip(got, want):
        assert_same(g, w)


def slot_arithmetic_precomp(mesh):
    """A ``MeshPrecomp`` that holds the slot-arithmetic patterns of
    ``reference_paths`` in place of its own."""
    pre = MeshPrecomp(mesh)
    pre.__dict__["_csr_pattern"] = reference_paths.slot_arithmetic_csr_pattern(pre)
    pre.__dict__["_free_pattern"] = reference_paths.slot_arithmetic_free_pattern(pre)
    return pre


def test_block_stiffness_pattern(pattern_mesh):
    got = MeshPrecomp(pattern_mesh)._csr_pattern
    want = slot_arithmetic_precomp(pattern_mesh)._csr_pattern
    assert len(got) == len(want) == 5
    for g, w in zip(got, want):
        assert_same(g, w)


def test_free_pattern(pattern_mesh):
    assert pattern_mesh.anchors
    got = MeshPrecomp(pattern_mesh)._free_pattern
    want = slot_arithmetic_precomp(pattern_mesh)._free_pattern
    assert len(got) == len(want) == 5
    for g, w in zip(got, want):
        assert_same(g, w)


def strained_state(mesh):
    """A smooth rotation, shear and bend of the mesh, no element inverted."""
    s = (mesh.nodes - mesh.nodes.min(axis=0)) / np.ptp(mesh.nodes, axis=0)
    size = np.ptp(mesh.nodes, axis=0).max()
    affine = mesh.nodes @ np.array([[0.0, -0.3, 0.1], [0.25, 0.05, 0.0], [-0.1, 0.1, -0.05]]).T
    bend = np.stack([s[:, 1] * s[:, 2], s[:, 0] ** 2, s[:, 0] * s[:, 1]], axis=1)
    return (affine + 0.1 * size * bend).ravel()


def free_strained_state(pre, mesh):
    """A tenth of ``strained_state`` on the free DOFs; with the anchors at
    rest, min det F stays above 0.6 on every pattern mesh."""
    return 0.1 * pre.free.gather(strained_state(mesh))


@pytest.mark.parametrize("model", list(MaterialModel))
def test_free_stiffness(pattern_mesh, model):
    params = MaterialParams(model, 1e4, 0.45)
    pre, ref = MeshPrecomp(pattern_mesh), slot_arithmetic_precomp(pattern_mesh)
    u = free_strained_state(pre, pattern_mesh)
    assert np.linalg.det(pre._gradients(pre.free.scatter(u)).transpose(2, 0, 1)).min() > 0.5
    got, want = pre.free_stiffness(params, u), ref.free_stiffness(params, u)
    assert got.shape == want.shape == (len(pre.free.index),) * 2
    for name in ("indptr", "indices", "data"):
        assert_same(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("model", list(MaterialModel))
def test_free_force(pattern_mesh, model):
    params = MaterialParams(model, 1e4, 0.45)
    pre = MeshPrecomp(pattern_mesh)
    u = free_strained_state(pre, pattern_mesh)
    assert_same(pre.free_force(params, u),
                pre.free.gather(assemble_force(pattern_mesh, params, pre.free.scatter(u), pre)))


def test_mesh_without_tets_has_no_precomputation():
    with pytest.raises(ValueError, match="no tetrahedra"):
        MeshPrecomp(TetMesh(nodes=np.eye(3), tets=np.zeros((0, 4), dtype=int)))
