import collections
import sys

import numpy as np
import pytest
from scipy.spatial import Delaunay

from deepwarp import material, mesh, registration
from deepwarp.material import MaterialModel, MaterialParams
from deepwarp.mesh import TetMesh, orient_positive
from deepwarp.meshgen import beam
from deepwarp.mesh import normalize_to_unit_sphere


UNIT_TET_NODES = np.array([[0.0, 0.0, 0.0],
                           [1.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0],
                           [0.0, 0.0, 1.0]])


def delaunay_beam(seed: int) -> TetMesh:
    """An unstructured tessellation of the README beam, anchored at x = x_min.

    Every coordinate of the ``beam(16, 5, 5)`` grid points that does not lie
    on a face of the box moves by a uniform +-0.3 of the cell width, so face
    nodes slide within their faces; ``scipy.spatial.Delaunay`` then
    tessellates the points. Seeds 0 and 1 give 612 nodes and 2,661 and 2,674
    tets, the smallest 1.7% and 1.0% of the mean volume.
    """
    grid = beam(16, 5, 5, lengths=(2.0, 0.8, 0.8)).nodes
    lo, hi = grid.min(axis=0), grid.max(axis=0)
    inside = (grid > lo) & (grid < hi)
    cell = np.array([2.0 / 16, 0.8 / 5, 0.8 / 5])
    nodes = grid + inside * np.random.default_rng(seed).uniform(-0.3, 0.3, grid.shape) * cell
    tets = orient_positive(nodes, Delaunay(nodes).simplices)
    return TetMesh(nodes=nodes, tets=tets).with_anchors(np.flatnonzero(nodes[:, 0] == lo[0]))


@pytest.fixture
def unit_tet() -> TetMesh:
    return TetMesh(nodes=UNIT_TET_NODES, tets=np.array([[0, 1, 2, 3]]),
                   anchors=frozenset({0}))


@pytest.fixture(scope="session")
def small_beam() -> TetMesh:
    """2x1x1 box split into 12 tets, anchored at the x=0 face."""
    return beam(2, 1, 1, lengths=(2.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def bending_beam() -> TetMesh:
    """Medium beam for solver tests (324 tets)."""
    return beam(6, 3, 3, lengths=(2.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def normalized_beam() -> TetMesh:
    return normalize_to_unit_sphere(beam(6, 3, 3, lengths=(2.0, 1.0, 1.0)))


@pytest.fixture(scope="session")
def neo_hookean() -> MaterialParams:
    return MaterialParams(MaterialModel.NEO_HOOKEAN, 1e4, 0.4)


@pytest.fixture(scope="session")
def all_materials() -> list[MaterialParams]:
    return [MaterialParams(model, 100.0, 0.35) for model in MaterialModel]


@pytest.fixture(scope="session")
def quick_net(normalized_beam, neo_hookean):
    """A small trained network for property tests that need a realistic net.

    Trained quickly on a coarse ramp; accuracy is irrelevant to the
    equivariance/fixpoint properties it supports.
    """
    from deepwarp.dataset import RampConfig, build_dataset, sample_directions, split
    from deepwarp.features import ForceField
    from deepwarp.net import AdamConfig, MlpSpec, train

    dirs = sample_directions(2, 2)
    uniq = []
    for d in dirs:
        if not any(np.allclose(d, u) for u in uniq):
            uniq.append(d)
    fields = [ForceField.directional(d, 1.0) for d in uniq]
    ramp = RampConfig(start=0.2, factor=2.0, poses_per_magnitude=4, cap=1.2)
    records, _ = build_dataset(normalized_beam, neo_hookean, fields, ramp)
    tr, va, _ = split(records, 0.05, 0.1, seed=0)
    res = train(MlpSpec((7, 16, 16, 3)), tr.features, tr.targets,
                va.features, va.targets, AdamConfig(epochs=3, seed=0))
    return res.best_network


@pytest.fixture(scope="session")
def factorize_every_solve():
    """Reference path for the lagged-factor Newton solves: a fresh direct
    factorization for every solve."""
    from deepwarp.dynamics import TangentSolver

    class FactorizeEverySolve(TangentSolver):
        def solve(self, J, b):
            self.solves += 1
            self.factorizations += 1
            self._banded = None       # a fresh analysis and factor every time
            return self._factorize(J).solve(b)

    return FactorizeEverySolve


@pytest.fixture
def build_counts(monkeypatch):
    """Counts the mesh-operator builds of the code under test.

    ``node_adjacency``, ``lumped_mass`` and ``gradient_operator`` are wrapped
    in every ``deepwarp`` namespace that imported them, ``MeshPrecomp`` at its
    constructor, and ``assemble_stiffness`` in ``deepwarp.material``, where
    every assembly calls it. Only its linear-model calls, the set-up
    assemblies, are counted, so that the Newton loops' tangents are not.
    """
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in (mesh.node_adjacency, mesh.lumped_mass, registration.gradient_operator):
        wrapped = counted(fn.__name__, fn)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "deepwarp":
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, wrapped)
    monkeypatch.setattr(material.MeshPrecomp, "__init__",
                        counted("MeshPrecomp", material.MeshPrecomp.__init__))
    assemble = material.assemble_stiffness

    def assemble_counted(mesh, params, *args, **kwargs):
        if params.model is MaterialModel.LINEAR:
            counts["linear assemble_stiffness"] += 1
        return assemble(mesh, params, *args, **kwargs)
    monkeypatch.setattr(material, "assemble_stiffness", assemble_counted)
    return counts
