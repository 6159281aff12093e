"""tools/reach.py: src/ holds what a command reaches. The functions that no
command and no benchmark smoke run enters are pinned by name; a change that
leaves a new function unreached adds it here and says in CHANGES.md why it
stays."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# error paths, which no command run that succeeds enters
ERROR_PATHS = {
    "deepwarp.cli:build_parser.Parser.error",
    "deepwarp.dynamics:ConvergenceError.__init__",
    "deepwarp.dynamics:ConvergenceError.__reduce__",
    "deepwarp.mesh:_unreadable",
    "deepwarp.net:TrainingDivergedError.__init__",
}

# the loading-path worker pool of dataset.generate_poses, which runs only on
# more than one CPU
WORKER_POOL = {
    "deepwarp.dataset:_init_worker",
    "deepwarp.dataset:_one_blas_thread",
    "deepwarp.dataset:_pool_result",
    "deepwarp.dataset:_run_in_worker",
}

# thin scalar wrappers of the batched kernels and the elastic energies, which
# tests use as reference and finite-difference paths
REFERENCE_PATHS = {
    "deepwarp.features:align_kinematics",
    "deepwarp.features:assemble_feature",
    "deepwarp.features:digression",
    "deepwarp.features:unalign",
    "deepwarp.material:_hooke_energy",
    "deepwarp.material:_neo_hookean_invariants",
    "deepwarp.material:deformation_gradient",
    "deepwarp.material:element_internal_force",
    "deepwarp.material:element_precomp",
    "deepwarp.material:element_tangent_stiffness",
    "deepwarp.material:energy_density",
    "deepwarp.material:energy_density_batch",
    "deepwarp.material:piola_stress",
    "deepwarp.material:total_elastic_energy",
    "deepwarp.registration:rotation_from_vector",
    "deepwarp.registration:rotation_vector",
}

# substructured simulation, which no command runs yet (ROADMAP item 2), and
# the factorization counter's reset, which a per-run stats object replaces
# (item 4)
SCHEDULED = {
    "deepwarp.material:polar_decompose",
    "deepwarp.mesh:DomainPartition.domain_tets",
    "deepwarp.registration:rotation_log",
    "deepwarp.substructure:_bfs_tree",
    "deepwarp.substructure:_field_in_frame",
    "deepwarp.substructure:interface_kinematics",
    "deepwarp.substructure:interface_transform",
    "deepwarp.substructure:simulate_substructured",
    "deepwarp.dynamics:reset_factorization_event_count",
}


def test_unreached_functions_pinned():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "reach.py")],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    *rows, summary = run.stdout.splitlines()
    unreached = {row.split()[0] for row in rows}
    pinned = ERROR_PATHS | WORKER_POOL | REFERENCE_PATHS | SCHEDULED
    assert unreached == pinned, (f"newly unreached: {sorted(unreached - pinned)}; "
                                 f"now reached: {sorted(pinned - unreached)}")
    assert summary.startswith("reached ")
    assert summary.endswith(f"unreached {len(pinned)} functions, "
                            f"{sum(int(row.split()[1]) for row in rows)} lines")
