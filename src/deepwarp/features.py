"""Discriminative features and kinematic canonicalization.

Three rest-shape context features sort the per-node training pairs:

* geodesic  g in [0,1]: shortest-path distance to the nearest anchor through
  the mesh, scaled by the maximum distance.
* potential p in [0,1]: position along the force direction (directional
  fields) or radial distance from the circular axis, remapped to [0,1].
* digression d in [0,pi]: angle between the node's offset from its nearest
  anchor and the force direction; exactly -1 under circular fields.

The kinematic pair (u_lin_i, w_i) is compressed to three rotation-invariant
scalars by a canonicalizing rotation Q that sends u_lin to +y and the
y-orthogonal part of w onto -x. ``align_batch`` writes the rows of every Q
directly (y = u/|u|, x = -w_perp/|w_perp|, z = x cross y) and falls back to
a Rodrigues rotation onto +y only where w_perp vanishes. The full 7-feature
order is frozen in ``FEATURE_ORDER`` and serialized with trained networks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .material import skew
from .mesh import TetMesh, lumped_mass, node_adjacency

FEATURE_ORDER = ("u_mag", "w_mag", "uw_angle", "geodesic", "potential",
                 "digression", "poisson")
N_FEATURES = len(FEATURE_ORDER)

_EPS = 1e-12


class FeatureError(Exception):
    """Feature computation failed (e.g. unreachable node)."""


class FieldKind(Enum):
    DIRECTIONAL = "directional"
    CIRCULAR = "circular"


@dataclass(frozen=True)
class ForceField:
    """External force field descriptor.

    Forces are applied per node proportionally to lumped mass (gravity-like),
    so refining the mesh does not change the net load; ``magnitude`` is an
    acceleration scale.
    """

    kind: FieldKind
    magnitude: float
    direction: np.ndarray | None = None       # directional fields
    axis_point: np.ndarray | None = None      # circular fields
    axis_dir: np.ndarray | None = None

    def __post_init__(self):
        if self.magnitude < 0.0:
            raise ValueError("field magnitude must be non-negative")
        if self.kind is FieldKind.DIRECTIONAL:
            if self.direction is None:
                raise ValueError("directional field needs a direction")
            d = _unit(self.direction)
            object.__setattr__(self, "direction", d)
        else:
            if self.axis_point is None or self.axis_dir is None:
                raise ValueError("circular field needs axis_point and axis_dir")
            object.__setattr__(self, "axis_point",
                               np.asarray(self.axis_point, dtype=np.float64))
            object.__setattr__(self, "axis_dir", _unit(self.axis_dir))

    @classmethod
    def directional(cls, direction, magnitude: float) -> "ForceField":
        return cls(kind=FieldKind.DIRECTIONAL, magnitude=magnitude, direction=direction)

    @classmethod
    def circular(cls, axis_point, axis_dir, magnitude: float) -> "ForceField":
        return cls(kind=FieldKind.CIRCULAR, magnitude=magnitude,
                   axis_point=axis_point, axis_dir=axis_dir)

    def with_magnitude(self, magnitude: float) -> "ForceField":
        if self.kind is FieldKind.DIRECTIONAL:
            return ForceField.directional(self.direction, magnitude)
        return ForceField.circular(self.axis_point, self.axis_dir, magnitude)


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    n = np.linalg.norm(v)
    if n < _EPS:
        raise ValueError("direction vector must be non-zero")
    u = v / n
    u.setflags(write=False)
    return u


def force_vector(mesh: TetMesh, field: ForceField, density: float = 1000.0,
                 masses: np.ndarray | None = None) -> np.ndarray:
    """Per-node force vector (3n,) for the field; zero at anchored nodes."""
    masses = masses if masses is not None else lumped_mass(mesh, density)
    if field.kind is FieldKind.DIRECTIONAL:
        f = masses[:, None] * field.magnitude * field.direction
    else:
        rel = mesh.nodes - field.axis_point
        radial = rel - (rel @ field.axis_dir)[:, None] * field.axis_dir
        tangent = np.cross(np.broadcast_to(field.axis_dir, rel.shape), radial)
        norms = np.linalg.norm(tangent, axis=1)
        safe = np.where(norms > _EPS, norms, 1.0)
        tangent = np.where(norms[:, None] > _EPS, tangent / safe[:, None], 0.0)
        f = masses[:, None] * field.magnitude * tangent
    if mesh.anchors:
        f[mesh.anchor_array()] = 0.0
    return f.ravel()


def node_force_directions(mesh: TetMesh, field: ForceField) -> np.ndarray:
    """Unit force direction per node (zero rows where the field vanishes)."""
    if field.kind is FieldKind.DIRECTIONAL:
        return np.broadcast_to(field.direction, (mesh.n_nodes, 3)).copy()
    unit = ForceField.circular(field.axis_point, field.axis_dir, 1.0)
    f = force_vector(mesh, unit, masses=np.ones(mesh.n_nodes)).reshape(-1, 3)
    return f


@dataclass(frozen=True)
class GeodesicField:
    """Normalized anchor geodesics plus each node's nearest anchor."""

    g: np.ndarray
    nearest_anchor: np.ndarray
    distance: np.ndarray


def geodesic_all(mesh: TetMesh,
                 adjacency: list[np.ndarray] | None = None) -> GeodesicField:
    """Multi-source Dijkstra from all anchors with Euclidean edge weights.

    A node equally near several anchors takes the anchor of its first
    shortest-path predecessor in (distance, index) order, as a heap-ordered
    multi-source search that visits anchors in ascending order would.
    """
    if not mesh.anchors:
        raise FeatureError("geodesic feature requires at least one anchor")
    adjacency = adjacency if adjacency is not None else node_adjacency(mesh)
    n = mesh.n_nodes
    owner = np.repeat(np.arange(n), [len(nbr) for nbr in adjacency])
    nbr = np.concatenate(adjacency).astype(np.int64)
    d = mesh.nodes[nbr] - mesh.nodes[owner]
    # each edge length rounded as np.linalg.norm(d_k) rounds it (norm(axis=1)
    # can differ in the last bit), so that ties between equal paths are exact
    length = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())
    graph = sp.csr_matrix((length, (owner, nbr)), shape=(n, n))
    dist = dijkstra(graph, directed=False, indices=mesh.anchor_array(), min_only=True)
    if not np.all(np.isfinite(dist)):
        bad = int(np.argmax(~np.isfinite(dist)))
        raise FeatureError(f"node {bad} is unreachable from every anchor")
    by_rank = np.lexsort((np.arange(n), dist))
    rank = np.empty(n, dtype=np.int64)
    rank[by_rank] = np.arange(n)
    tight = (dist[owner] + length == dist[nbr]) & (rank[owner] < rank[nbr])
    first = np.full(n, n)
    np.minimum.at(first, nbr[tight], rank[owner[tight]])
    source = np.where(first < n, by_rank[np.minimum(first, n - 1)], np.arange(n))
    while True:                  # follow the predecessors to their anchors
        up = source[source]
        if np.array_equal(up, source):
            break
        source = up
    dmax = dist.max()
    g = dist / dmax if dmax > 0.0 else np.zeros(n)
    return GeodesicField(g=g, nearest_anchor=source, distance=dist)


def potential_all(mesh: TetMesh, field: ForceField) -> np.ndarray:
    """Rest-position potential remapped to [0, 1]."""
    if field.kind is FieldKind.DIRECTIONAL:
        proj = mesh.nodes @ field.direction
        span = proj.max() - proj.min()
        if span <= 0.0:
            warnings.warn("degenerate extent along the force direction; potential set to 0")
            return np.zeros(mesh.n_nodes)
        return (proj - proj.min()) / span
    rel = mesh.nodes - field.axis_point
    radial = rel - (rel @ field.axis_dir)[:, None] * field.axis_dir
    r = np.linalg.norm(radial, axis=1)
    rmax = r.max()
    if rmax <= 0.0:
        warnings.warn("all nodes lie on the circular axis; potential set to 0")
        return np.zeros(mesh.n_nodes)
    return r / rmax


def digression(mesh: TetMesh, field: ForceField, i: int,
               geo: GeodesicField) -> float:
    """Angle between (x_i - nearest anchor) and the force direction.

    Anchors themselves get 0 by convention; circular fields get -1.
    """
    if field.kind is FieldKind.CIRCULAR:
        return -1.0
    vec = mesh.nodes[i] - mesh.nodes[geo.nearest_anchor[i]]
    norm = np.linalg.norm(vec)
    if norm < _EPS:
        return 0.0
    c = float(vec @ field.direction) / norm
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def digression_all(mesh: TetMesh, field: ForceField, geo: GeodesicField) -> np.ndarray:
    if field.kind is FieldKind.CIRCULAR:
        return np.full(mesh.n_nodes, -1.0)
    vec = mesh.nodes - mesh.nodes[geo.nearest_anchor]
    norms = np.linalg.norm(vec, axis=1)
    safe = np.where(norms > _EPS, norms, 1.0)
    c = np.clip((vec @ field.direction) / safe, -1.0, 1.0)
    d = np.arccos(c)
    d[norms < _EPS] = 0.0
    return d


@dataclass(frozen=True)
class StaticFeatureSet:
    """Per-node rest-shape features for one (mesh, field) pair."""

    g: np.ndarray
    p: np.ndarray
    d: np.ndarray


def static_features(mesh: TetMesh, field: ForceField,
                    adjacency: list[np.ndarray] | None = None,
                    geo: GeodesicField | None = None) -> StaticFeatureSet:
    geo = geo if geo is not None else geodesic_all(mesh, adjacency)
    return StaticFeatureSet(g=geo.g, p=potential_all(mesh, field),
                            d=digression_all(mesh, field, geo))


@dataclass(frozen=True)
class AlignedKinematics:
    """Canonical-frame readout of one (u_lin, w) pair."""

    u_mag: float
    w_mag: float
    angle: float
    Q: np.ndarray


_FLIP_X = np.diag([1.0, -1.0, -1.0])   # pi rotation about x


def _rotation_to_y_batch(U: np.ndarray) -> np.ndarray:
    """Batched rotation sending each (non-zero) vector to the +y axis.

    Vectors near -y are pre-flipped by a pi rotation about x so the Rodrigues
    construction stays well conditioned for every input.
    """
    n = len(U)
    norms = np.linalg.norm(U, axis=1)
    out = np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
    act = norms > _EPS
    if not np.any(act):
        return out
    a = U[act] / norms[act, None]
    y = np.array([0.0, 1.0, 0.0])
    flip = a @ y < -0.999
    if np.any(flip):
        a = a.copy()
        a[flip] = a[flip] * np.array([1.0, -1.0, -1.0])
    v = np.cross(a, y)
    s2 = np.einsum("ni,ni->n", v, v)
    c = a @ y
    Vx = skew(v)
    coef = np.where(s2 > 0.0, (1.0 - c) / np.where(s2 > 0.0, s2, 1.0), 0.0)
    R = np.eye(3) + Vx + coef[:, None, None] * (Vx @ Vx)
    if np.any(flip):
        R[flip] = R[flip] @ _FLIP_X
    out[act] = R
    return out


def align_batch(U: np.ndarray, W: np.ndarray):
    """Canonicalize per-node kinematic pairs.

    Returns (u_mag, w_mag, angle, Q) with Q @ u = (0, |u|, 0) and Q @ w in
    the xy-plane with non-positive x. The rows of Q are y = u/|u| (+y where
    |u| <= _EPS), x = -w_perp/|w_perp| for the part w_perp of w orthogonal to
    y, and z = x cross y; where |w_perp| <= _EPS, Q is the rotation of
    ``_rotation_to_y_batch``. The map is total and deterministic. Q is a
    view of a component-major (3, 3, n) array.
    """
    U = np.asarray(U, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    ux, uy, uz = U.T
    wx, wy, wz = W.T
    u_mag = np.sqrt(ux * ux + uy * uy + uz * uz)
    w_mag = np.sqrt(wx * wx + wy * wy + wz * wz)
    still = u_mag <= _EPS
    with np.errstate(divide="ignore"):
        r = 1.0 / u_mag
    r[still] = 0.0
    Q = np.empty((3, 3, len(U)))
    x, y, z = Q
    np.multiply(U.T, r, out=y)
    y[1, still] = 1.0
    w_par = wx * y[0] + wy * y[1] + wz * y[2]
    p = W.T - w_par * y
    # a second projection keeps x orthogonal to y to round-off even when w
    # is nearly parallel to u
    p -= (p[0] * y[0] + p[1] * y[1] + p[2] * y[2]) * y
    h = np.sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2])
    angle = np.arctan2(h, w_par)
    angle[still | (w_mag < _EPS)] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(p, -1.0 / h, out=x)
    z[0] = x[1] * y[2] - x[2] * y[1]
    z[1] = x[2] * y[0] - x[0] * y[2]
    z[2] = x[0] * y[1] - x[1] * y[0]
    Q = Q.transpose(2, 0, 1)
    degenerate = h <= _EPS
    if np.any(degenerate):
        Q[degenerate] = _rotation_to_y_batch(U[degenerate])
    return u_mag, w_mag, angle, Q


def align_kinematics(u_lin: np.ndarray, w: np.ndarray) -> AlignedKinematics:
    u_mag, w_mag, angle, Q = align_batch(np.asarray(u_lin)[None], np.asarray(w)[None])
    return AlignedKinematics(u_mag=float(u_mag[0]), w_mag=float(w_mag[0]),
                             angle=float(angle[0]), Q=Q[0])


def unalign(delta_canonical: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Map a canonical-frame vector back to the simulation frame (Q^T v)."""
    return Q.T @ np.asarray(delta_canonical, dtype=np.float64)


def assemble_feature(static: tuple[float, float, float],
                     aligned: AlignedKinematics, poisson: float) -> np.ndarray:
    """Fixed-order 7-feature vector [|u|, |w|, angle, g, p, d, nu]."""
    g, p, d = static
    return np.array([aligned.u_mag, aligned.w_mag, aligned.angle, g, p, d, poisson])


def assemble_features_batch(u_mag, w_mag, angle, static: StaticFeatureSet,
                            poisson: float) -> np.ndarray:
    n = len(u_mag)
    return np.column_stack([u_mag, w_mag, angle, static.g, static.p, static.d,
                            np.full(n, poisson)])
