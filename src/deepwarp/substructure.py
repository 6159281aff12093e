"""Domain decomposition: domain graphs (from the tet face pairs of
``mesh.tet_pairs_sharing``), isomorphism queries, interface kinematics, and
hierarchical per-domain warped simulation.

Each child domain is simulated in a non-inertial frame rigidly attached to
its interface patch with the parent: the frame pose is the polar rotation of
the patch's best-fit affine map plus the patch centroid. The frame's angular
velocity/acceleration and linear acceleration produce the standard
fictitious forces -m (a + dw/dt x r + w x (w x r) + 2 w x v), applied on top
of the external field with r the rest offset from the interface centroid and
v the node velocity in the frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import IntegrationScheme, RayleighDamping, SimState
from .features import ForceField, force_vector
from .material import MaterialParams, polar_decompose
from .mesh import DomainPartition, MeshError, TetMesh, lumped_mass, tet_pairs_sharing
from .net import MlpNetwork
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

    def degrees(self) -> list[int]:
        return [len(s) for s in self.adjacency()]


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
    deg1, deg2 = g1.degrees(), g2.degrees()
    if sorted(deg1) != sorted(deg2):
        return False, None
    adj1, adj2 = g1.adjacency(), g2.adjacency()
    # assign high-degree vertices first to prune early
    order = sorted(range(g1.n_vertices), key=lambda v: -deg1[v])
    mapping: dict[int, int] = {}
    used = [False] * g2.n_vertices

    def extend(pos: int) -> bool:
        if pos == len(order):
            return True
        v = order[pos]
        for w in range(g2.n_vertices):
            if used[w] or deg1[v] != deg2[w]:
                continue
            ok = True
            for nb in adj1[v]:
                if nb in mapping and mapping[nb] not in adj2[w]:
                    ok = False
                    break
            if ok:
                for nb2 in adj2[w]:
                    inv = [k for k, val in mapping.items() if val == nb2]
                    if inv and inv[0] not in adj1[v]:
                        ok = False
                        break
            if not ok:
                continue
            mapping[v] = w
            used[w] = True
            if extend(pos + 1):
                return True
            del mapping[v]
            used[w] = False
        return False

    if extend(0):
        return True, dict(mapping)
    return False, None


@dataclass(frozen=True)
class InterfacePatch:
    """Nodes shared by a parent/child domain pair."""

    parent: int
    child: int
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.int64)
        if len(nodes) < 3:
            raise MeshError(
                f"interface {self.parent}->{self.child} has {len(nodes)} nodes; need >= 3")
        object.__setattr__(self, "nodes", nodes)


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
    deformed-plane normal, which reproduces rigid motions exactly.
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
    translation = Q.mean(axis=0) - A @ P.mean(axis=0)
    return A, translation


def polar_rotation(A: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor of A; requires det(A) > 0."""
    A = np.asarray(A, dtype=np.float64)
    if np.linalg.det(A) <= 0.0:
        raise ValueError(f"polar rotation requires det(A) > 0, got {np.linalg.det(A):.3e}")
    R, _ = polar_decompose(A)
    return R


def interface_kinematics(R_history: list[np.ndarray],
                         t_history: list[np.ndarray], dt: float) -> InterfaceKinematics:
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
    domain: int
    parent: int | None
    submesh: TetMesh
    global_nodes: np.ndarray            # local -> global node index
    local_of: np.ndarray                # global -> local node index (-1 elsewhere)
    ctx: WarpContext
    state: SimState
    masses: np.ndarray                  # (n_local,)
    patch_parent_local: np.ndarray | None = None
    patch_child_local: np.ndarray | None = None
    rest_centroid: np.ndarray | None = None
    rest_offsets: np.ndarray | None = None       # (n_local, 3) from centroid
    R_history: list = field(default_factory=list)
    c_history: list = field(default_factory=list)
    world_positions: np.ndarray | None = None


def _bfs_tree(graph: DomainGraph, root: int):
    """Parent map of a BFS tree; raises on cycles or disconnection."""
    adj = graph.adjacency()
    parent: dict[int, int | None] = {root: None}
    order = [root]
    queue = [root]
    while queue:
        v = queue.pop(0)
        for w in sorted(adj[v]):
            if w not in parent:
                parent[w] = v
                order.append(w)
                queue.append(w)
            elif parent[v] != w:
                raise MeshError(
                    f"domain graph has a cycle through domains {v} and {w}; "
                    "substructuring requires a tree")
    if len(order) != graph.n_vertices:
        missing = sorted(set(range(graph.n_vertices)) - set(order))
        raise MeshError(f"domains {missing} unreachable from root {root}")
    return parent, order


def _extract_submesh(mesh: TetMesh, tet_idx: np.ndarray, anchors_global):
    tets = mesh.tets[tet_idx]
    global_nodes = np.unique(tets)
    local_of = -np.ones(mesh.n_nodes, dtype=np.int64)
    local_of[global_nodes] = np.arange(len(global_nodes))
    local_tets = local_of[tets]
    local_anchors = [int(local_of[a]) for a in anchors_global if local_of[a] >= 0]
    sub = TetMesh(nodes=mesh.nodes[global_nodes], tets=local_tets,
                  anchors=frozenset(local_anchors))
    return sub, global_nodes, local_of


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

    def net_for(dom: int) -> MlpNetwork:
        if isinstance(nets, dict):
            return nets[dom]
        return nets

    node_sets = {d: np.unique(mesh.tets[partition.domain_tets(d)]) for d in order}
    sims: dict[int, _DomainSim] = {}
    owners = np.full(mesh.n_nodes, -1, dtype=np.int64)
    for d in order:
        p = parent_of[d]
        if p is None:
            anchors_global = sorted(mesh.anchors)
            patch_global = None
        else:
            shared = np.intersect1d(node_sets[d], node_sets[p])
            patch = InterfacePatch(parent=p, child=d, nodes=shared)
            patch_global = patch.nodes
            anchors_global = patch_global.tolist()
        sub, global_nodes, local_of = _extract_submesh(
            mesh, partition.domain_tets(d), anchors_global)
        ctx = build_warp_context(sub, params, net_for(d), field_descr, dt,
                                 scheme, damping, density)
        sim = _DomainSim(domain=d, parent=p, submesh=sub, global_nodes=global_nodes,
                         local_of=local_of, ctx=ctx, state=SimState.rest(sub.n_nodes),
                         masses=lumped_mass(sub, density))
        if p is not None:
            sim.patch_parent_local = sims[p].local_of[patch_global]
            sim.patch_child_local = local_of[patch_global]
            rest_patch = mesh.nodes[patch_global]
            sim.rest_centroid = rest_patch.mean(axis=0)
            sim.rest_offsets = sub.nodes - sim.rest_centroid
            sim.R_history = [np.eye(3)]
            sim.c_history = [sim.rest_centroid.copy()]
        sim.world_positions = sub.nodes.copy()
        sims[d] = sim
        mask = owners[global_nodes] < 0
        owners[global_nodes[mask]] = d

    trajectory: list[np.ndarray] = []
    for step in range(steps):
        for d in order:
            sim = sims[d]
            if sim.parent is None:
                f_ext = force_vector(sim.submesh, field_descr, masses=sim.masses)
                sim.state, u = deepwarp_step(sim.ctx, sim.state, f_ext)
                sim.world_positions = sim.submesh.nodes + u.reshape(-1, 3)
                continue
            parent_sim = sims[sim.parent]
            rest_patch = sim.submesh.nodes[sim.patch_child_local]
            deformed_patch = parent_sim.world_positions[sim.patch_parent_local]
            A, _ = interface_transform(rest_patch, deformed_patch)
            R = polar_rotation(A)
            c_now = deformed_patch.mean(axis=0)
            sim.R_history.append(R)
            sim.c_history.append(c_now)
            kin = interface_kinematics(sim.R_history, sim.c_history, dt)
            omega_l = R.T @ kin.omega
            omega_dot_l = R.T @ kin.omega_dot
            accel_l = R.T @ kin.accel

            local_field = _field_in_frame(field_descr, R, c_now, sim.rest_centroid)
            sim.ctx.update_field(local_field)
            f_ext = force_vector(sim.submesh, local_field, masses=sim.masses)
            r = sim.rest_offsets
            v = sim.state.v.reshape(-1, 3)
            fict = -(accel_l[None, :]
                     + np.cross(np.broadcast_to(omega_dot_l, r.shape), r)
                     + np.cross(np.broadcast_to(omega_l, r.shape),
                                np.cross(np.broadcast_to(omega_l, r.shape), r))
                     + 2.0 * np.cross(np.broadcast_to(omega_l, v.shape), v))
            f_ext = f_ext + (sim.masses[:, None] * fict).ravel()
            sim.state, u = deepwarp_step(sim.ctx, sim.state, f_ext)
            local_pos = sim.submesh.nodes + u.reshape(-1, 3)
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
