import collections
import sys

import numpy as np
import pytest

from deepwarp import dynamics, material, mesh, registration
from deepwarp.material import MaterialModel, MaterialParams
from deepwarp.mesh import TetMesh
from deepwarp.meshgen import beam
from deepwarp.mesh import normalize_to_unit_sphere


UNIT_TET_NODES = np.array([[0.0, 0.0, 0.0],
                           [1.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0],
                           [0.0, 0.0, 1.0]])


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
    from deepwarp.dynamics import TangentSolver, factorize_spd

    class FactorizeEverySolve(TangentSolver):
        def solve(self, J, b):
            self.solves += 1
            self.factorizations += 1
            return factorize_spd(J).solve(b)

    return FactorizeEverySolve


@pytest.fixture
def build_counts(monkeypatch):
    """Counts the mesh-operator builds of the code under test.

    ``node_adjacency``, ``lumped_mass`` and ``gradient_operator`` are wrapped
    in every ``deepwarp`` namespace that imported them, ``MeshPrecomp`` at its
    constructor, and ``assemble_stiffness`` in ``deepwarp.dynamics`` only, so
    that the registration Newton loop's own assemblies are not counted.
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
    monkeypatch.setattr(dynamics, "assemble_stiffness",
                        counted("dynamics.assemble_stiffness", dynamics.assemble_stiffness))
    return counts
