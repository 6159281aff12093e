"""Tetrahedral mesh representation, I/O, normalization and mass lumping.

File formats (plain text, ``#`` starts a comment, blank lines ignored):

* node file:      one node per line, ``index x y z`` with 0-based contiguous indices
* element file:   one tetrahedron per line, ``index n0 n1 n2 n3``
* anchor file:    one node index per line (Dirichlet-fixed nodes)
* partition file: one non-negative domain label per tetrahedron line
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import IO, Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph


class MeshError(Exception):
    """Base class for mesh construction and validation failures."""


class MeshFormatError(MeshError):
    """Malformed mesh input (parse error, bad index, degenerate element)."""


def _iter_data_lines(stream: Iterable[str]):
    """Yield (line_number, tokens) for non-empty, non-comment lines."""
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield lineno, line.split()


@dataclass(frozen=True)
class TetMesh:
    """Immutable rest-shape tetrahedral mesh.

    Attributes:
        nodes: rest positions, shape (n_nodes, 3), float64.
        tets: corner indices, shape (n_tets, 4), positive signed volume each.
        anchors: Dirichlet-fixed node indices.
        scale_factor: cumulative uniform scale applied by normalization calls.
    """

    nodes: np.ndarray
    tets: np.ndarray
    anchors: frozenset[int] = field(default_factory=frozenset)
    scale_factor: float = 1.0

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=np.float64))
        tets = np.ascontiguousarray(np.asarray(self.tets, dtype=np.int64))
        if nodes.ndim != 2 or nodes.shape[1] != 3:
            raise MeshError(f"nodes must have shape (n, 3), got {nodes.shape}")
        if tets.ndim != 2 or tets.shape[1] != 4:
            raise MeshError(f"tets must have shape (m, 4), got {tets.shape}")
        if not np.all(np.isfinite(nodes)):
            raise MeshError("node coordinates must be finite")
        if tets.size and (tets.min() < 0 or tets.max() >= len(nodes)):
            raise MeshError("tet corner index out of range")
        anchors = frozenset(int(a) for a in self.anchors)
        if anchors and (min(anchors) < 0 or max(anchors) >= len(nodes)):
            raise MeshError("anchor index out of range")
        nodes.setflags(write=False)
        tets.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "tets", tets)
        object.__setattr__(self, "anchors", anchors)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_tets(self) -> int:
        return len(self.tets)

    def anchor_array(self) -> np.ndarray:
        """Sorted anchor indices as an int array."""
        return np.array(sorted(self.anchors), dtype=np.int64)

    def free_dofs(self) -> "FreeDofs":
        """The DOFs of the unanchored nodes in a flat (3n,) vector."""
        free = np.ones((self.n_nodes, 3), dtype=bool)
        free[self.anchor_array()] = False
        return FreeDofs(index=np.flatnonzero(free), n_dof=free.size)

    def with_anchors(self, anchors) -> "TetMesh":
        return replace(self, anchors=frozenset(int(a) for a in anchors))


@dataclass(frozen=True)
class FreeDofs:
    """Sorted free-DOF indices of a flat (3n,) vector.

    Solvers work on the free DOFs only: ``gather`` restricts a (3n,) vector
    to them, ``scatter`` writes a free-DOF vector into zeros, so anchored
    DOFs come back exactly zero.
    """

    index: np.ndarray
    n_dof: int

    def gather(self, v: np.ndarray) -> np.ndarray:
        return v[self.index]

    def scatter(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_dof)
        out[self.index] = x
        return out


def signed_volumes(nodes: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Signed volume of each tet, det of the edge matrix over 6."""
    p = nodes[tets]
    e = p[:, 1:] - p[:, :1]
    return np.linalg.det(e) / 6.0


def tet_volumes(mesh: TetMesh) -> np.ndarray:
    return signed_volumes(mesh.nodes, mesh.tets)


def load_mesh(node_text: Iterable[str], ele_text: Iterable[str],
              anchor_text: Iterable[str] | None = None) -> TetMesh:
    """Parse node/element/anchor streams into a validated TetMesh.

    Tets with negative signed volume are repaired by swapping corners 2 and 3;
    degenerate (zero-volume) tets are rejected.
    """
    nodes = []
    for lineno, tok in _iter_data_lines(node_text):
        if len(tok) != 4:
            raise MeshFormatError(f"node file line {lineno}: expected 'index x y z'")
        try:
            idx = int(tok[0])
            xyz = [float(v) for v in tok[1:]]
        except ValueError as exc:
            raise MeshFormatError(f"node file line {lineno}: {exc}") from None
        if idx != len(nodes):
            raise MeshFormatError(
                f"node file line {lineno}: index {idx} not contiguous (expected {len(nodes)})")
        if not all(np.isfinite(xyz)):
            raise MeshFormatError(f"node file line {lineno}: non-finite coordinate")
        nodes.append(xyz)
    if not nodes:
        raise MeshFormatError("node file contains no nodes")
    nodes = np.array(nodes, dtype=np.float64)

    tets = []
    for lineno, tok in _iter_data_lines(ele_text):
        if len(tok) != 5:
            raise MeshFormatError(f"element file line {lineno}: expected 'index n0 n1 n2 n3'")
        try:
            idx = int(tok[0])
            corners = [int(v) for v in tok[1:]]
        except ValueError as exc:
            raise MeshFormatError(f"element file line {lineno}: {exc}") from None
        if idx != len(tets):
            raise MeshFormatError(
                f"element file line {lineno}: index {idx} not contiguous (expected {len(tets)})")
        for c in corners:
            if c < 0 or c >= len(nodes):
                raise MeshFormatError(f"element file line {lineno}: node index {c} out of range")
        if len(set(corners)) != 4:
            raise MeshFormatError(f"element file line {lineno}: repeated corner index")
        tets.append(corners)
    if not tets:
        raise MeshFormatError("element file contains no tetrahedra")
    tets = np.array(tets, dtype=np.int64)
    tets = orient_positive(nodes, tets)

    anchors: set[int] = set()
    if anchor_text is not None:
        for lineno, tok in _iter_data_lines(anchor_text):
            if len(tok) != 1:
                raise MeshFormatError(f"anchor file line {lineno}: expected a single node index")
            try:
                a = int(tok[0])
            except ValueError as exc:
                raise MeshFormatError(f"anchor file line {lineno}: {exc}") from None
            if a < 0 or a >= len(nodes):
                raise MeshFormatError(f"anchor file line {lineno}: node index {a} out of range")
            anchors.add(a)

    return TetMesh(nodes=nodes, tets=tets, anchors=frozenset(anchors))


def orient_positive(nodes: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Repair tet orientation: swap corners 2,3 when volume is negative.

    Zero volume (below a relative degeneracy threshold) is a hard error.
    """
    tets = np.array(tets, dtype=np.int64, copy=True)
    vols = signed_volumes(nodes, tets)
    edges = nodes[tets] - nodes[tets[:, :1]]
    edge_scale = np.abs(edges).max(axis=(1, 2))
    degenerate = np.abs(vols) <= 1e-12 * np.maximum(edge_scale, 1e-300) ** 3
    if np.any(degenerate):
        raise MeshFormatError(f"zero-volume tetrahedron at index {int(np.argmax(degenerate))}")
    flip = vols < 0
    if np.any(flip):
        tets[flip, 2], tets[flip, 3] = tets[flip, 3].copy(), tets[flip, 2].copy()
    return tets


def load_mesh_files(node_path, ele_path, anchor_path=None) -> TetMesh:
    with open(node_path) as node_f, open(ele_path) as ele_f:
        if anchor_path is None:
            return load_mesh(node_f, ele_f, None)
        with open(anchor_path) as anchor_f:
            return load_mesh(node_f, ele_f, anchor_f)


def normalize_to_unit_sphere(mesh: TetMesh) -> TetMesh:
    """Translate the node centroid to the origin and scale the max radius to 1.

    Idempotent; the applied scale is multiplied into ``scale_factor``.
    """
    centroid = mesh.nodes.mean(axis=0)
    centered = mesh.nodes - centroid
    radius = float(np.linalg.norm(centered, axis=1).max())
    if radius <= 0.0:
        raise MeshError("cannot normalize: all nodes coincide")
    return replace(mesh, nodes=centered / radius,
                   scale_factor=mesh.scale_factor / radius)


def node_adjacency(mesh: TetMesh) -> list[np.ndarray]:
    """Per-node neighbor lists: j is adjacent to i iff they share a tet.

    One sparse product of the node-tet incidence matrix with its transpose
    gives the shared-tet pattern; each list is sorted, int64, without i.
    """
    n, m = mesh.n_nodes, mesh.n_tets
    incidence = sp.csr_matrix((np.ones(4 * m, dtype=np.int32),
                               (mesh.tets.ravel(), np.repeat(np.arange(m), 4))),
                              shape=(n, m))
    shared = (incidence @ incidence.T).tocsr()
    shared.sort_indices()
    rows = np.repeat(np.arange(n), np.diff(shared.indptr))
    off_diagonal = shared.indices != rows
    neighbors = shared.indices[off_diagonal].astype(np.int64)
    ends = np.cumsum(np.bincount(rows[off_diagonal], minlength=n))
    return np.split(neighbors, ends[:-1])


def lumped_mass(mesh: TetMesh, density: float) -> np.ndarray:
    """Per-node lumped mass: a quarter of each incident tet's mass."""
    if density <= 0.0:
        raise ValueError(f"density must be positive, got {density}")
    vols = tet_volumes(mesh)
    masses = np.zeros(mesh.n_nodes)
    np.add.at(masses, mesh.tets.ravel(), np.repeat(density * vols / 4.0, 4))
    return masses


def mass_center(mesh: TetMesh, density: float = 1.0) -> np.ndarray:
    m = lumped_mass(mesh, density)
    return (m[:, None] * mesh.nodes).sum(axis=0) / m.sum()


def select_pseudo_anchor(mesh: TetMesh) -> int:
    """Tet whose centroid is closest to the mass center; ties pick the lowest index.

    Used to fabricate a boundary condition for free-floating bodies: constrain
    all four corners of the returned tet.
    """
    center = mass_center(mesh)
    centroids = mesh.nodes[mesh.tets].mean(axis=1)
    dist = np.linalg.norm(centroids - center, axis=1)
    return int(np.argmin(dist))


def connected_components(n_nodes: int, adjacency: list[np.ndarray]) -> int:
    """Number of connected components of the node adjacency graph."""
    counts = np.fromiter((len(a) for a in adjacency), dtype=np.int64)
    indices = np.concatenate([np.zeros(0, dtype=np.int64), *adjacency])
    graph = sp.csr_matrix((np.ones(len(indices)), indices,
                           np.concatenate([[0], np.cumsum(counts)])),
                          shape=(n_nodes, n_nodes))
    return int(csgraph.connected_components(graph, directed=False)[0])


@dataclass(frozen=True)
class DomainPartition:
    """Per-tet domain labels for substructured simulation."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if labels.ndim != 1:
            raise MeshError("partition labels must be a 1-D array")
        if labels.size and labels.min() < 0:
            raise MeshError("partition labels must be non-negative")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @property
    def n_domains(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def domain_tets(self, domain: int) -> np.ndarray:
        return np.nonzero(self.labels == domain)[0]

    def validate(self, mesh: TetMesh) -> None:
        """Check coverage and that every domain's tet set is edge-connected."""
        if len(self.labels) != mesh.n_tets:
            raise MeshError(
                f"partition labels {len(self.labels)} tets, mesh has {mesh.n_tets}")
        present = np.unique(self.labels)
        expected = np.arange(self.n_domains)
        if len(present) != len(expected) or np.any(present != expected):
            missing = sorted(set(expected.tolist()) - set(present.tolist()))
            raise MeshError(f"partition has empty domain id(s): {missing}")
        # Union tets sharing an edge within the same domain; each domain must
        # collapse to a single component.
        parent = list(range(mesh.n_tets))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        edge_map: dict[tuple[int, int], int] = {}
        for t, tet in enumerate(mesh.tets):
            lab = self.labels[t]
            for a in range(4):
                for b in range(a + 1, 4):
                    key = (int(min(tet[a], tet[b])), int(max(tet[a], tet[b])))
                    other = edge_map.get(key)
                    if other is not None and self.labels[other] == lab:
                        ra, rb = find(t), find(other)
                        if ra != rb:
                            parent[ra] = rb
                    # keep one representative per (edge, label)
                    if other is None or self.labels[other] != lab:
                        edge_map[key] = t
        roots_per_domain: dict[int, set[int]] = {}
        for t in range(mesh.n_tets):
            roots_per_domain.setdefault(int(self.labels[t]), set()).add(find(t))
        for dom, roots in roots_per_domain.items():
            if len(roots) > 1:
                raise MeshError(f"domain {dom} is not edge-connected")


def load_partition(stream: Iterable[str], mesh: TetMesh) -> DomainPartition:
    labels = []
    for lineno, tok in _iter_data_lines(stream):
        if len(tok) != 1:
            raise MeshFormatError(f"partition file line {lineno}: expected a single label")
        try:
            labels.append(int(tok[0]))
        except ValueError as exc:
            raise MeshFormatError(f"partition file line {lineno}: {exc}") from None
    part = DomainPartition(np.array(labels, dtype=np.int64))
    part.validate(mesh)
    return part


def write_mesh_files(mesh: TetMesh, node_f: IO[str], ele_f: IO[str],
                     anchor_f: IO[str] | None = None) -> None:
    """Inverse of load_mesh, for shipping generated meshes to the CLI."""
    for i, p in enumerate(mesh.nodes):
        node_f.write(f"{i} {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
    for i, t in enumerate(mesh.tets):
        ele_f.write(f"{i} {t[0]} {t[1]} {t[2]} {t[3]}\n")
    if anchor_f is not None:
        for a in sorted(mesh.anchors):
            anchor_f.write(f"{a}\n")
