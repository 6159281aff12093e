"""Structured tetrahedral mesh generation for tests, demos and CLI setup.

Boxes and box complexes are built on a regular grid with six tets per cell
(Kuhn decomposition), which is conforming across cells.
The grid is built by array operations: the used grid points are an OR of
shifted cell masks, their ids a cumulative sum in C order, and the tets one
fancy index of the Kuhn paths' corner offsets.
"""

from __future__ import annotations

import numpy as np

from .mesh import DomainPartition, TetMesh, orient_positive

# Corner order per axis-permutation path through the unit cell, and the
# (6, 4, 3) grid offsets of each path's four corners from the cell's origin.
_KUHN_PATHS = [
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
]
_KUHN_CORNERS = np.concatenate([np.zeros((6, 1, 3), dtype=np.int64),
                                np.eye(3, dtype=np.int64)[_KUHN_PATHS].cumsum(axis=1)], axis=1)


def box_complex(cell_mask: np.ndarray, spacing=(1.0, 1.0, 1.0),
                origin=(0.0, 0.0, 0.0)) -> TetMesh:
    """Mesh the cells where ``cell_mask`` is True with 6 tets per cell:
    grid points and cells in C order, each cell's tets in path order."""
    mask = np.asarray(cell_mask, dtype=bool)
    nx, ny, nz = mask.shape
    used = np.zeros((nx + 1, ny + 1, nz + 1), dtype=bool)
    for i, j, k in np.ndindex(2, 2, 2):
        used[i:i + nx, j:j + ny, k:k + nz] |= mask
    node_id = np.cumsum(used).reshape(used.shape) - 1
    nodes = np.argwhere(used) * np.asarray(spacing, dtype=np.float64) + origin
    corners = np.argwhere(mask)[:, None, None] + _KUHN_CORNERS   # (cells, 6, 4, 3)
    tets = node_id[corners[..., 0], corners[..., 1], corners[..., 2]].reshape(-1, 4)
    return TetMesh(nodes=nodes, tets=orient_positive(nodes, tets))


def beam(nx: int = 8, ny: int = 3, nz: int = 3, lengths=(2.0, 1.0, 1.0),
         anchor: str = "x_min") -> TetMesh:
    """Rectangular beam of nx*ny*nz cells (6 tets each).

    ``anchor`` fixes one face: one of x_min/x_max/y_min/y_max/z_min/z_max,
    or "none".
    """
    mask = np.ones((nx, ny, nz), dtype=bool)
    spacing = (lengths[0] / nx, lengths[1] / ny, lengths[2] / nz)
    mesh = box_complex(mask, spacing)
    if anchor == "none":
        return mesh
    axis = {"x": 0, "y": 1, "z": 2}[anchor[0]]
    coords = mesh.nodes[:, axis]
    value = coords.min() if anchor.endswith("min") else coords.max()
    tol = 1e-9 * max(lengths)
    anchors = np.nonzero(np.abs(coords - value) <= tol)[0]
    return mesh.with_anchors(anchors)


def partition_by_axis(mesh: TetMesh, axis: int, cuts: list[float]) -> DomainPartition:
    """Label tets by which axis interval their centroid falls into."""
    centroids = mesh.nodes[mesh.tets].mean(axis=1)[:, axis]
    labels = np.searchsorted(np.asarray(cuts, dtype=np.float64), centroids)
    part = DomainPartition(labels)
    part.validate(mesh)
    return part

