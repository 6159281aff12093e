"""Tetrahedral mesh representation, I/O, normalization, mass lumping and
tet connectivity (the CSR node graph, tets sharing an edge or a face).

File formats (plain text, ``#`` starts a comment, blank lines ignored):

* node file:      one node per line, ``index x y z`` with 0-based contiguous indices
* element file:   one tetrahedron per line, ``index n0 n1 n2 n3``
* anchor file:    one node index per line (Dirichlet-fixed nodes)
* partition file: one non-negative domain label per tetrahedron line

Fields are separated by whitespace; a comment may hold any text. Indices,
corners, anchors and labels are 64-bit integers (optional sign, ASCII
digits); a coordinate is an ASCII decimal number such as ``-2.5``, ``.5`` or
``3e-2`` (``nan`` and ``inf`` are rejected as non-finite). Spellings only
Python's ``int`` or ``float`` accept (``1_000``, non-ASCII digits, integers
past 64 bits) and integers written as floats (``2.0``, ``1e1``) are rejected:
every malformed file raises ``MeshFormatError`` naming the file and, where
there is one, the first bad line.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field, replace
from itertools import combinations
from pathlib import Path
from typing import IO, Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph


class MeshError(Exception):
    """Base class for mesh construction and validation failures."""


class MeshFormatError(MeshError):
    """Malformed mesh input (parse error, bad index, degenerate element)."""


@dataclass(frozen=True)
class TetMesh:
    """Immutable rest-shape tetrahedral mesh.

    Attributes:
        nodes: rest positions, shape (n_nodes, 3), float64.
        tets: corner indices, shape (n_tets, 4), positive signed volume each.
        anchors: Dirichlet-fixed node indices.
    """

    nodes: np.ndarray
    tets: np.ndarray
    anchors: frozenset[int] = field(default_factory=frozenset)

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


def _data_text(line: str) -> str:
    """A line without its ``#`` comment and surrounding whitespace."""
    return line.split("#", 1)[0].strip()


# One structured row per text format: np.loadtxt reads each field's columns
# with the field's dtype and rejects a line with another number of columns.
_NODE_ROW = np.dtype([("index", np.int64), ("xyz", np.float64, (3,))])
_ELEMENT_ROW = np.dtype([("index", np.int64), ("corners", np.int64, (4,))])
_VALUE_ROW = np.dtype([("value", np.int64, (1,))])


def _parse(lines: list[str], dtype: np.dtype) -> np.ndarray:
    # np.loadtxt's integer parser (numpy 2.4) can read out of bounds on some
    # non-ASCII characters and crash at random, so such text never reaches it
    if not all(map(str.isascii, lines)):
        raise ValueError("non-ASCII characters outside a comment")
    with warnings.catch_warnings():
        # older numpy releases read '5.7' or '1e1' as an integer and only warn
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(lines, dtype=dtype, comments="#", ndmin=1)


def _read_table(stream: Iterable[str], what: str, usage: str, row: np.dtype,
                checks) -> np.ndarray:
    """The rows of one text table, parsed in one pass and checked as arrays.

    ``checks(rows)`` lists (bad, message) pairs: a mask of the rows that fail
    the check and the message of failing row k. A rejected table raises a
    MeshFormatError that names ``what`` and the first data line that cannot
    be read or fails a check, the earlier check first. Only a table that
    cannot be read is read again, line by line. A table without data lines
    has no rows.
    """
    lines = list(stream)
    if not all(map(str.isascii, lines)):
        # the data of each line, its fields split at any Unicode whitespace
        lines = [" ".join(_data_text(line).split()) for line in lines]
    if not any(map(_data_text, lines)):
        return np.empty(0, row)  # np.loadtxt warns on a table without data
    try:
        rows = _parse(lines, row)
    except ValueError as exc:
        for i, line in enumerate(lines):
            why = _unreadable(line, row, usage)
            if why:
                _read_table(lines[:i], what, usage, row, checks)  # a check fails earlier
                raise MeshFormatError(f"{what} line {i + 1}: {why}") from None
        raise MeshFormatError(f"{what}: {exc}") from None
    results = checks(rows)
    failed = [(int(np.argmax(bad)), i) for i, (bad, _) in enumerate(results) if bad.any()]
    if failed:
        k, i = min(failed)
        lineno = [n for n, line in enumerate(lines, start=1) if _data_text(line)][k]
        raise MeshFormatError(f"{what} line {lineno}: {results[i][1](k)}")
    return rows


def _unreadable(line: str, row: np.dtype, usage: str) -> str | None:
    """Why ``_parse`` cannot read ``line`` as ``row``; None if it can or the
    line holds no data."""
    tokens = _data_text(line).split()
    if not tokens:
        return None
    if len(tokens) != row.itemsize // 8:  # every column is 8 bytes wide
        return usage
    try:
        _parse([line], row)
    except ValueError as exc:
        return str(exc).split(" at row")[0]


def _contiguous(index: np.ndarray):
    bad = index != np.arange(len(index))
    return bad, lambda k: f"index {index[k]} not contiguous (expected {k})"


def _in_range(indices: np.ndarray, n_nodes: int):
    outside = (indices < 0) | (indices >= n_nodes)
    return outside.any(axis=1), lambda k: f"node index {indices[k][outside[k]][0]} out of range"


def load_mesh(node_text: Iterable[str], ele_text: Iterable[str],
              anchor_text: Iterable[str] | None = None) -> TetMesh:
    """Parse node/element/anchor streams into a validated TetMesh.

    Each stream is an iterable of lines in the grammar of the module
    docstring. Tets with negative signed volume are repaired by swapping
    corners 2 and 3; degenerate (zero-volume) tets are rejected.
    """
    nodes = _read_table(node_text, "node file", "expected 'index x y z'", _NODE_ROW,
                        lambda rows: [_contiguous(rows["index"]),
                                      (~np.isfinite(rows["xyz"]).all(axis=1),
                                       lambda k: "non-finite coordinate")])["xyz"]
    if not len(nodes):
        raise MeshFormatError("node file contains no nodes")
    tets = _read_table(ele_text, "element file", "expected 'index n0 n1 n2 n3'", _ELEMENT_ROW,
                       lambda rows: [_contiguous(rows["index"]),
                                     _in_range(rows["corners"], len(nodes)),
                                     ((np.diff(np.sort(rows["corners"]), axis=1) == 0).any(axis=1),
                                      lambda k: "repeated corner index")])["corners"]
    if not len(tets):
        raise MeshFormatError("element file contains no tetrahedra")
    tets = orient_positive(nodes, tets)

    anchors = np.empty(0, dtype=np.int64)
    if anchor_text is not None:
        anchors = _read_table(anchor_text, "anchor file", "expected a single node index",
                              _VALUE_ROW, lambda rows: [_in_range(rows["value"], len(nodes))])
        anchors = anchors["value"].ravel()
    return TetMesh(nodes=nodes, tets=tets, anchors=frozenset(anchors.tolist()))


def orient_positive(nodes: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Repair tet orientation: swap corners 2,3 when volume is negative.

    Zero volume (below a relative degeneracy threshold) is a hard error. The
    sign and the threshold both come from one gather of each tet's edges.
    """
    tets = np.array(tets, dtype=np.int64, copy=True)
    p = nodes[tets]
    edges = p[:, 1:] - p[:, :1]
    vols = np.einsum("ij,ij->i", edges[:, 0], np.cross(edges[:, 1], edges[:, 2])) / 6.0
    edge_scale = np.abs(edges).max(axis=(1, 2))
    degenerate = np.abs(vols) <= 1e-12 * np.maximum(edge_scale, 1e-300) ** 3
    if np.any(degenerate):
        raise MeshFormatError(f"zero-volume tetrahedron at index {int(np.argmax(degenerate))}")
    flip = vols < 0
    if np.any(flip):
        tets[flip, 2], tets[flip, 3] = tets[flip, 3].copy(), tets[flip, 2].copy()
    return tets


def text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; other bytes are a MeshFormatError."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.readlines()
    except UnicodeDecodeError as exc:
        # text mode decodes in chunks: the whole file, bad bytes escaped, gives the line
        text = Path(path).read_bytes().decode("utf-8", "surrogateescape")
        line = text[:re.search("[\udc80-\udcff]", text).start()].count("\n") + 1
        raise MeshFormatError(f"{path} line {line}: not UTF-8 text ({exc.reason})") from None


def load_mesh_files(node_path, ele_path, anchor_path=None) -> TetMesh:
    return load_mesh(text_lines(node_path), text_lines(ele_path),
                     None if anchor_path is None else text_lines(anchor_path))


def normalize_to_unit_sphere(mesh: TetMesh) -> TetMesh:
    """Translate the node centroid to the origin and scale the max radius to 1.

    Idempotent.
    """
    centroid = mesh.nodes.mean(axis=0)
    centered = mesh.nodes - centroid
    radius = float(np.linalg.norm(centered, axis=1).max())
    if radius <= 0.0:
        raise MeshError("cannot normalize: all nodes coincide")
    return replace(mesh, nodes=centered / radius)


def tet_node_graph(tets: np.ndarray, n_nodes: int) -> sp.csr_matrix:
    """The node graph with its diagonal, (n_nodes x n_nodes) CSR with sorted
    indices: entry (i, j) counts the tets holding nodes i and j, from one
    product T^T T of the tet-node incidence matrix T."""
    tet_nodes = sp.csr_matrix((np.ones(tets.size, dtype=np.int32), tets.ravel(),
                               np.arange(0, tets.size + 1, 4)), shape=(len(tets), n_nodes))
    return (tet_nodes.T @ tet_nodes).tocsr().sorted_indices()


def node_adjacency(mesh: TetMesh) -> sp.csr_matrix:
    """``tet_node_graph`` without its diagonal: node i's neighbours, the
    nodes sharing a tet with it, are ``indices[indptr[i]:indptr[i + 1]]``."""
    graph = tet_node_graph(mesh.tets, mesh.n_nodes)
    graph.setdiag(0)
    graph.eliminate_zeros()
    return graph


def lumped_mass(mesh: TetMesh, density: float) -> np.ndarray:
    """Per-node lumped mass: a quarter of each incident tet's mass."""
    if not (np.isfinite(density) and density > 0.0):
        raise ValueError(f"density must be finite and positive, got {density}")
    vols = tet_volumes(mesh)
    return np.bincount(mesh.tets.ravel(), weights=np.repeat(density * vols / 4.0, 4),
                       minlength=mesh.n_nodes)


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


def tet_pairs_sharing(mesh: TetMesh, n_corners: int,
                      labels: np.ndarray | None = None) -> np.ndarray:
    """(p, 2) pairs of tets that share an edge (``n_corners`` 2) or a face (3).

    Each simplex is keyed by its sorted corner indices; one lexsort brings
    equal keys together and neighbours in that order with equal keys are
    paired, so the tets sharing a simplex form a chain. With ``labels``, the
    tet's label leads the key and only tets of one label are paired.
    """
    local = np.array(list(combinations(range(4), n_corners)))
    keys = np.sort(mesh.tets[:, local], axis=2).reshape(-1, n_corners)
    owner = np.repeat(np.arange(mesh.n_tets), len(local))
    if labels is not None:
        keys = np.column_stack([labels[owner], keys])
    order = np.lexsort(keys.T[::-1])
    keys, owner = keys[order], owner[order]
    equal = np.all(keys[1:] == keys[:-1], axis=1)
    return np.column_stack([owner[:-1][equal], owner[1:][equal]])


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
        # tets of one domain that share an edge are joined; components never
        # span two domains, so each domain must own exactly one
        pairs = tet_pairs_sharing(mesh, 2, self.labels)
        graph = sp.csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                              shape=(mesh.n_tets, mesh.n_tets))
        n_comp, component = csgraph.connected_components(graph, directed=False)
        domain_of = np.empty(n_comp, dtype=np.int64)
        domain_of[component] = self.labels
        split = np.flatnonzero(np.bincount(domain_of, minlength=self.n_domains) > 1)
        if len(split):
            raise MeshError(f"domain {int(split[0])} is not edge-connected")


def load_partition(stream: Iterable[str], mesh: TetMesh) -> DomainPartition:
    labels = _read_table(stream, "partition file", "expected a single label", _VALUE_ROW,
                         lambda rows: [])["value"]
    if not len(labels):
        raise MeshFormatError("partition file contains no labels")
    part = DomainPartition(labels.ravel())
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
