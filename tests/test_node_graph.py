"""The CSR node graph gives the same numbers as the per-node lists it
replaced: the adjacency, the gradient operator, the geodesic feature, the
lumped masses and the stiffness pattern, each bitwise equal, dtypes
included, to the earlier construction kept in ``reference_paths``."""

import numpy as np
import pytest

from deepwarp.features import geodesic_all
from deepwarp.material import MeshPrecomp
from deepwarp.mesh import TetMesh, lumped_mass, node_adjacency
from deepwarp.meshgen import beam, t_shape
from deepwarp.registration import gradient_operator

import reference_paths
from test_dynamics import shuffled_readme_beam

MESHES = {
    "readme": lambda: beam(16, 5, 5, lengths=(2.0, 0.8, 0.8)),
    "shuffled_0": lambda: shuffled_readme_beam(0),
    "shuffled_3": lambda: shuffled_readme_beam(3),
    "t_shape": lambda: t_shape()[0],
    "beam_3_1_1": lambda: beam(3, 1, 1),
}


@pytest.fixture(params=list(MESHES), scope="module")
def mesh(request):
    return MESHES[request.param]()


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


def test_mesh_without_tets_has_no_precomputation():
    with pytest.raises(ValueError, match="no tetrahedra"):
        MeshPrecomp(TetMesh(nodes=np.eye(3), tets=np.zeros((0, 4), dtype=int)))
