"""tools/time_layers.py on a tiny beam: every timed call runs and reports
its median and quartiles, the band factors report their sizes and the
Newmark trajectory reports its Newton solves per step."""

import importlib.util
from pathlib import Path

import numpy as np

from deepwarp.material import MaterialModel, MaterialParams, MeshPrecomp, total_elastic_energy
from deepwarp.meshgen import beam

ROOT = Path(__file__).resolve().parents[1]


def load_tool(monkeypatch):
    # the tool pins the BLAS thread variables at import; keep the test's own
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("time_layers", ROOT / "tools" / "time_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_times_every_layer_on_a_tiny_beam(monkeypatch):
    tool = load_tool(monkeypatch)
    out = tool.run({"tiny": (3, 1, 1)}, calls=3, warmup=1)
    assert out["environment"]["nproc"] >= 1
    assert set(out["environment"]["threads"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                  "MKL_NUM_THREADS"}
    tiny = out["tiny"]
    assert tiny["nodes"] == 16 and tiny["tets"] == 18
    # 12 free nodes: a band of at most 36 rows of 36 float64 entries
    assert 0 < tiny["band_rows"] <= 36
    assert tiny["band_mb"] == tiny["band_rows"] * 36 * 8 / 1e6
    # the RSW normal matrix, one DOF per node: 12 columns
    assert 0 < tiny["rsw_band_rows"] <= 12
    assert tiny["rsw_band_mb"] == tiny["rsw_band_rows"] * 12 * 8 / 1e6
    for layer in ("load_mesh", "setup", "node_adjacency", "gradient_operator", "geodesic_all",
                  "csr_pattern", "free_pattern", "assemble_stiffness", "assemble_force", "total_elastic_energy",
                  "factorize", "refactorize", "backsolve", "rsw_fit", "rsw_backsolve"):
        stats = tiny[layer]
        assert stats["calls"] == 3
        assert 0.0 < stats["q1_ms"] <= stats["median_ms"] <= stats["q3_ms"]
    # the Newmark step: one call per step of the fixed 30-step trajectory
    stats = tiny["newmark_step"]
    assert stats["calls"] == tool.NEWMARK_STEPS == 30
    assert 0.0 < stats["q1_ms"] <= stats["median_ms"] <= stats["q3_ms"]
    assert tiny["newmark_solves_per_step"] >= 1.0


def test_deformed_state_strains_without_inverting(monkeypatch):
    tool = load_tool(monkeypatch)
    mesh = beam(3, 1, 1)
    u = tool.deformed_state(mesh)
    assert np.abs(u).max() > 0.1
    params = MaterialParams(MaterialModel.NEO_HOOKEAN, 1e4, 0.45)
    assert np.isfinite(total_elastic_energy(mesh, params, u, MeshPrecomp(mesh)))
