"""Domain decomposition: domain graphs (from the tet face pairs of
``mesh.tet_pairs_sharing``), isomorphism queries, interface kinematics, and
hierarchical per-domain warped simulation.

The domain tree is a ``csgraph`` breadth-first order from the root, with
neighbours visited in increasing id; that order decides which domain owns a
node shared by several domains. Each child domain is simulated in a
non-inertial frame rigidly attached to its interface patch with the parent:
the frame pose is the rotation factor (``material.polar_decompose``) of the
patch's best-fit affine map plus the patch centroid, and only the last three
poses are kept, which is all the finite differences read. The frame's
angular velocity/acceleration and linear acceleration produce the standard
fictitious forces -m (a + dw/dt x r + w x (w x r) + 2 w x v), applied on top
of the external field with r the rest offset from the interface centroid and
v the node velocity in the frame.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from .dynamics import IntegrationScheme, RayleighDamping, SimState
from .features import ForceField, force_vector
from .material import MaterialParams, polar_decompose
from .mesh import DomainPartition, MeshError, TetMesh, tet_pairs_sharing
from .registration import rotation_log
from .warper import WarpContext, build_warp_context, deepwarp_step


@dataclass(frozen=True)
class DomainGraph:
    """Simple undirected graph over domain ids."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for a, b in self.edges:
            if a == b:
                raise ValueError("domain graph must not contain self-loops")
            if not (0 <= a < self.n_vertices and 0 <= b < self.n_vertices):
                raise ValueError("domain graph edge endpoint out of range")
        norm = frozenset((min(a, b), max(a, b)) for a, b in self.edges)
        object.__setattr__(self, "edges", norm)

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n_vertices)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


def build_domain_graph(mesh: TetMesh, partition: DomainPartition) -> DomainGraph:
    """Vertices are domains; an edge joins two domains sharing an interior face."""
    partition.validate(mesh)
    labels = partition.labels[tet_pairs_sharing(mesh, 3)]
    edges = labels[labels[:, 0] != labels[:, 1]].tolist()
    return DomainGraph(n_vertices=partition.n_domains,
                       edges=frozenset(map(tuple, edges)))


def graphs_isomorphic(g1: DomainGraph, g2: DomainGraph):
    """Exact isomorphism decision by degree-pruned backtracking.

    Returns (True, mapping) with mapping[v1] = v2 on success, else (False, None).
    """
    if g1.n_vertices > 64 or g2.n_vertices > 64:
        raise ValueError("domain graphs above 64 vertices are out of intended scale")
    if g1.n_vertices != g2.n_vertices or len(g1.edges) != len(g2.edges):
        return False, None
    adj1, adj2 = g1.adjacency(), g2.adjacency()
    deg1, deg2 = [len(s) for s in adj1], [len(s) for s in adj2]
    if sorted(deg1) != sorted(deg2):
        return False, None
    # assign high-degree vertices first to prune early
    order = sorted(range(g1.n_vertices), key=lambda v: -deg1[v])
    mapping: dict[int, int] = {}

    def extend(pos: int) -> bool:
        if pos == len(order):
            return True
        v = order[pos]
        for w in range(g2.n_vertices):
            # w fits v when it keeps adjacency with every vertex mapped so far
            if (w in mapping.values() or deg1[v] != deg2[w]
                    or any((u in adj1[v]) != (x in adj2[w]) for u, x in mapping.items())):
                continue
            mapping[v] = w
            if extend(pos + 1):
                return True
            del mapping[v]
        return False

    if extend(0):
        return True, dict(mapping)
    return False, None


@dataclass(frozen=True)
class InterfaceKinematics:
    """Rigid-motion readout of an interface patch (world-frame quantities)."""

    R: np.ndarray
    omega: np.ndarray
    omega_dot: np.ndarray
    accel: np.ndarray


def interface_transform(rest_positions: np.ndarray,
                        deformed_positions: np.ndarray):
    """Best-fit affine map of a patch on centroid-centered coordinates.

    Returns (A, translation) with deformed ~ A (rest - rest_centroid) +
    deformed_centroid. Planar patches (the common case for flat interfaces)
    are completed along the normal by mapping the rest-plane normal to the
    deformed-plane normal, which reproduces rigid motions exactly and always
    gives det(A) > 0; a non-planar patch whose map reverses orientation
    (det(A) <= 0) has no frame rotation and raises MeshError.
    """
    P = np.asarray(rest_positions, dtype=np.float64)
    Q = np.asarray(deformed_positions, dtype=np.float64)
    if P.shape != Q.shape or P.ndim != 2 or P.shape[1] != 3 or len(P) < 3:
        raise ValueError("patch needs matching (k >= 3, 3) position arrays")
    pc = P - P.mean(axis=0)
    qc = Q - Q.mean(axis=0)
    M = pc.T @ pc
    B = qc.T @ pc
    lam, vec = np.linalg.eigh(M)
    tol = 1e-10 * max(lam[-1], 1e-300)
    rank = int(np.count_nonzero(lam > tol))
    if rank <= 1:
        raise MeshError("interface patch is rank-deficient (collinear nodes)")
    if rank == 3:
        A = B @ np.linalg.inv(M)
    else:
        inv = np.zeros(3)
        inv[lam > tol] = 1.0 / lam[lam > tol]
        Mpinv = (vec * inv) @ vec.T
        A_plane = B @ Mpinv
        e1, e2 = vec[:, 2], vec[:, 1]        # in-plane principal directions
        n_rest = np.cross(e1, e2)
        n_rest /= np.linalg.norm(n_rest)
        d1, d2 = A_plane @ e1, A_plane @ e2
        n_def = np.cross(d1, d2)
        norm = np.linalg.norm(n_def)
        if norm < 1e-12:
            raise MeshError("interface patch deformation is degenerate")
        A = A_plane + np.outer(n_def / norm, n_rest)
    det = np.linalg.det(A)
    if det <= 0.0:
        raise MeshError(f"interface patch map reverses orientation (det {det:.3e})")
    translation = Q.mean(axis=0) - A @ P.mean(axis=0)
    return A, translation


def interface_kinematics(R_history: Sequence[np.ndarray], t_history: Sequence[np.ndarray],
                         dt: float) -> InterfaceKinematics:
    """Kinematics at the newest frame from rotation/translation histories.

    The angular velocity is the log of the last rotation increment over dt;
    angular and linear accelerations come from second differences. With
    fewer than three frames the missing derivatives are zero.
    """
    k = len(R_history)
    if k == 0 or len(t_history) != k:
        raise ValueError("histories must be non-empty and equally long")
    R = R_history[-1]
    zero = np.zeros(3)
    if k == 1:
        return InterfaceKinematics(R=R, omega=zero, omega_dot=zero.copy(),
                                   accel=zero.copy())
    w_now = rotation_log(R_history[-1] @ R_history[-2].T) / dt
    if k == 2:
        return InterfaceKinematics(R=R, omega=w_now, omega_dot=zero,
                                   accel=zero.copy())
    w_prev = rotation_log(R_history[-2] @ R_history[-3].T) / dt
    omega_dot = (w_now - w_prev) / dt
    accel = (t_history[-1] - 2.0 * t_history[-2] + t_history[-3]) / (dt * dt)
    return InterfaceKinematics(R=R, omega=w_now, omega_dot=omega_dot, accel=accel)


# ---------------------------------------------------------------------------
# hierarchical simulation
# ---------------------------------------------------------------------------

@dataclass
class _DomainSim:
    parent: int | None
    global_nodes: np.ndarray            # local -> global node index
    local_of: np.ndarray                # global -> local node index (-1 elsewhere)
    ctx: WarpContext                    # on the subdomain's mesh and masses
    state: SimState
    world_positions: np.ndarray
    patch_parent_local: np.ndarray | None = None
    patch_child_local: np.ndarray | None = None
    rest_centroid: np.ndarray | None = None
    rest_offsets: np.ndarray | None = None       # (n_local, 3) from centroid
    # the last three frame poses: all that interface_kinematics reads
    R_history: deque = field(default_factory=lambda: deque(maxlen=3))
    c_history: deque = field(default_factory=lambda: deque(maxlen=3))


def _bfs_tree(graph: DomainGraph, root: int):
    """Parent map and visiting order of a BFS from root, neighbours in
    increasing id; raises unless the graph is a tree."""
    n = graph.n_vertices
    edges = np.array(sorted(graph.edges), dtype=np.int64).reshape(-1, 2)
    # both directions stored: csgraph's undirected mode on one triangle would
    # visit larger neighbours first and change the order
    arcs = np.concatenate([edges, edges[:, ::-1]])
    adj = sp.csr_matrix((np.ones(len(arcs)), (arcs[:, 0], arcs[:, 1])), shape=(n, n))
    order, pred = breadth_first_order(adj, root, directed=True,
                                      return_predecessors=True)
    if len(order) != n:
        missing = sorted(set(range(n)) - set(order.tolist()))
        raise MeshError(f"domains {missing} unreachable from root {root}")
    if len(edges) != n - 1:
        raise MeshError(f"domain graph has a cycle ({len(edges)} edges over {n} "
                        "connected domains); substructuring requires a tree")
    parent = {int(v): int(pred[v]) for v in order[1:]}
    parent[root] = None
    return parent, order.tolist()


def _field_in_frame(field_descr: ForceField, R: np.ndarray, c_now: np.ndarray,
                    c_rest: np.ndarray) -> ForceField:
    """Pull a world-space field back into a frame x_w = R (x_l - c_rest) + c_now."""
    if field_descr.direction is not None:
        return ForceField.directional(R.T @ field_descr.direction,
                                      field_descr.magnitude)
    point = R.T @ (field_descr.axis_point - c_now) + c_rest
    return ForceField.circular(point, R.T @ field_descr.axis_dir,
                               field_descr.magnitude)


@dataclass
class SubstructuredTrajectory:
    displacements: list[np.ndarray]     # world-frame (3n,) per step
    times: np.ndarray
    owners: np.ndarray                  # owning domain per node


def simulate_substructured(mesh: TetMesh, partition: DomainPartition, root: int,
                           params: MaterialParams, nets, field_descr: ForceField,
                           steps: int, dt: float,
                           scheme: IntegrationScheme = IntegrationScheme.NEWMARK,
                           damping: RayleighDamping = RayleighDamping(),
                           density: float = 1000.0) -> SubstructuredTrajectory:
    """Hierarchical warped simulation over a tree of domains.

    ``nets`` is either one shared MlpNetwork or a dict domain->MlpNetwork.
    The root uses the mesh's global anchors; every child is anchored at its
    interface patch with the parent and stepped inside the parent-attached
    frame with fictitious forces. World placement composes each child's
    interface rigid transform; nodes shared between domains are reported by
    the shallowest domain owning them.
    """
    graph = build_domain_graph(mesh, partition)
    if not 0 <= root < graph.n_vertices:
        raise ValueError(f"root domain {root} out of range")
    parent_of, order = _bfs_tree(graph, root)

    sims: dict[int, _DomainSim] = {}
    owners = np.full(mesh.n_nodes, -1, dtype=np.int64)
    for d in order:
        p = parent_of[d]
        tets = mesh.tets[partition.domain_tets(d)]
        global_nodes = np.unique(tets)
        local_of = np.full(mesh.n_nodes, -1, dtype=np.int64)
        local_of[global_nodes] = np.arange(len(global_nodes))
        # a child shares at least one face, so >= 3 nodes, with its parent
        patch = None if p is None else np.intersect1d(global_nodes, sims[p].global_nodes)
        anchors = local_of[sorted(mesh.anchors) if p is None else patch]
        sub = TetMesh(nodes=mesh.nodes[global_nodes], tets=local_of[tets],
                      anchors=anchors[anchors >= 0])
        ctx = build_warp_context(sub, params, nets[d] if isinstance(nets, dict) else nets,
                                 field_descr, dt, scheme, damping, density)
        sim = _DomainSim(parent=p, global_nodes=global_nodes, local_of=local_of, ctx=ctx,
                         state=SimState.rest(sub.n_nodes), world_positions=sub.nodes.copy())
        if p is not None:
            sim.patch_parent_local = sims[p].local_of[patch]
            sim.patch_child_local = local_of[patch]
            sim.rest_centroid = mesh.nodes[patch].mean(axis=0)
            sim.rest_offsets = sub.nodes - sim.rest_centroid
            sim.R_history.append(np.eye(3))
            sim.c_history.append(sim.rest_centroid.copy())
        sims[d] = sim
        mask = owners[global_nodes] < 0
        owners[global_nodes[mask]] = d

    trajectory: list[np.ndarray] = []
    for step in range(steps):
        for d in order:
            sim = sims[d]
            sub, masses = sim.ctx.mesh, sim.ctx.system.masses
            if sim.parent is None:
                f_ext = force_vector(sub, field_descr, masses=masses)
                sim.state, u = deepwarp_step(sim.ctx, sim.state, f_ext)
                sim.world_positions = sub.nodes + u.reshape(-1, 3)
                continue
            parent_sim = sims[sim.parent]
            rest_patch = sub.nodes[sim.patch_child_local]
            deformed_patch = parent_sim.world_positions[sim.patch_parent_local]
            A, _ = interface_transform(rest_patch, deformed_patch)
            R = polar_decompose(A)[0]
            c_now = deformed_patch.mean(axis=0)
            sim.R_history.append(R)
            sim.c_history.append(c_now)
            kin = interface_kinematics(sim.R_history, sim.c_history, dt)
            omega_l = R.T @ kin.omega
            omega_dot_l = R.T @ kin.omega_dot
            accel_l = R.T @ kin.accel

            local_field = _field_in_frame(field_descr, R, c_now, sim.rest_centroid)
            sim.ctx.update_field(local_field)
            f_ext = force_vector(sub, local_field, masses=masses)
            r = sim.rest_offsets
            v = sim.state.v.reshape(-1, 3)
            fict = -(accel_l[None, :] + np.cross(omega_dot_l, r)
                     + np.cross(omega_l, np.cross(omega_l, r))
                     + 2.0 * np.cross(omega_l, v))
            f_ext = f_ext + (masses[:, None] * fict).ravel()
            sim.state, u = deepwarp_step(sim.ctx, sim.state, f_ext)
            local_pos = sub.nodes + u.reshape(-1, 3)
            sim.world_positions = (local_pos - sim.rest_centroid) @ R.T + c_now

        u_world = np.zeros((mesh.n_nodes, 3))
        for d in order:
            sim = sims[d]
            mine = owners[sim.global_nodes] == d
            u_world[sim.global_nodes[mine]] = \
                sim.world_positions[mine] - mesh.nodes[sim.global_nodes[mine]]
        trajectory.append(u_world.ravel())
    return SubstructuredTrajectory(displacements=trajectory,
                                   times=dt * np.arange(1, steps + 1),
                                   owners=owners)
