"""Learned warping of pre-factorized linear elasticity into nonlinear
deformation, with training-data generation, geometric-warp baselines and
domain-decomposed simulation of complex shapes."""

__version__ = "0.1.0"

from .mesh import (DomainPartition, TetMesh, load_mesh, load_mesh_files,
                   load_partition, lumped_mass, node_adjacency,
                   normalize_to_unit_sphere, select_pseudo_anchor, tet_volumes)
from .material import (InvertedElementError, MaterialModel, MaterialParams,
                       element_internal_force, element_precomp,
                       element_tangent_stiffness, energy_density, piola_stress,
                       polar_decompose)
from .dynamics import (ConvergenceError, IntegrationScheme, NotPositiveDefiniteError,
                       RayleighDamping, SimState, build_linear_system, build_nonlinear_system,
                       factorization_event_count, prefactorize,
                       reset_factorization_event_count, step_linear_implicit,
                       step_newmark_nonlinear)
from .registration import (build_rotation_blockdiag, register_nonlinear, register_sequence,
                           rotation_from_vector, rotation_vector)
from .features import (FEATURE_ORDER, FieldKind, ForceField, align_kinematics,
                       assemble_feature, digression, geodesic_all, potential_all,
                       static_features, unalign)
from .net import (Activation, AdamConfig, MlpNetwork, MlpSpec, adam_step, backward,
                  forward, init_weights, load_network_file, train)
from .dataset import (RampConfig, RecordSet, build_dataset, extract_records,
                      generate_poses, read_dataset_file, sample_directions, split,
                      write_dataset_file)
from .warper import (METHODS, build_warp_context, compare_methods, deepwarp_step,
                     mw_warp, rsw_warp, simulate_methods)
from .substructure import (DomainGraph, build_domain_graph, graphs_isomorphic,
                           interface_kinematics, interface_transform,
                           simulate_substructured)
