"""Linear-to-nonlinear pose correspondence.

Per-node kinematics: a least-squares displacement gradient G over a node's
row of the CSR node graph, its rotation vector w = axial((G - G^T)/2), and
the local rotation R = exp([w]x). ``gradient_operator`` stacks every G in
one sparse operator, built from all per-node moment matrices as one batch;
``rotation_operator`` keeps only its skew rows, so a runtime reads every w
with one smaller sparse product, and ``rotations_from_vectors`` writes each
R entry by entry from Rodrigues' formula; ``rotation_log`` inverts it.

Registration finds the nonlinear displacement whose internal force matches
the per-node-rotated linear internal force, chaining warm starts along a
quasi-static loading path, through ``dynamics.newton_solve``, the Newton
loop of the Newmark ground truth too. The linear model is the one of the
``QuasistaticDriver`` that produced the path: its rest stiffness K_ff gives
the linear force, and its ``MeshPrecomp`` the nonlinear force and tangent on
the free DOFs (``free_force``, ``free_stiffness``). A whole path shares one
``TangentSolver``, so the factor of one pose's tangent preconditions the next
poses' solves instead of each iteration refactorizing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dynamics import (NEWTON_ATOL, NEWTON_RTOL, REGISTRATION_MAX_NEWTON, NewtonResult,
                       QuasistaticDriver, TangentSolver, newton_solve)
from .material import MaterialParams, skew_quadratic
from .mesh import MeshError, TetMesh, node_adjacency

# axial((G - G^T)/2) from vec(G) (row-major)
_AXIAL = 0.5 * np.array([[0, 0, 0, 0, 0, -1, 0, 1, 0],
                         [0, 0, 1, 0, 0, 0, -1, 0, 0],
                         [0, -1, 0, 1, 0, 0, 0, 0, 0]])


class RankDeficientNeighborhoodError(MeshError):
    """A node's neighbors are coplanar; the gradient fit is singular."""


def rotation_vector(G: np.ndarray) -> np.ndarray:
    """Axial vector of the skew part (G - G^T)/2."""
    return _AXIAL @ np.asarray(G, dtype=np.float64).reshape(9)


def rotation_log(R: np.ndarray) -> np.ndarray:
    """Inverse of ``rotation_from_vector`` for a rotation angle below pi: the
    rotation vector of R, which is ``rotation_vector(R)`` scaled by
    theta / sin(theta)."""
    theta = float(np.arccos(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)))
    axial = rotation_vector(R)
    if theta < 1e-8:
        return axial           # sin(theta)/theta ~ 1
    return axial * (theta / np.sin(theta))


def rotation_from_vector(w: np.ndarray) -> np.ndarray:
    """Rodrigues map exp([w]x); series fallback below |w| = 1e-6."""
    return rotations_from_vectors(np.asarray(w, dtype=np.float64)[None])[0]


def rotations_from_vectors(W: np.ndarray) -> np.ndarray:
    """Batched Rodrigues map, (n, 3) -> (n, 3, 3).

    R = I + sin(t)/t [w]x + (1 - cos t)/t^2 [w]x^2 with t = |w|; the second
    coefficient is evaluated as 2 sin^2(t/2)/t^2, which does not cancel.
    """
    W = np.asarray(W, dtype=np.float64)
    x, y, z = W.T
    t2 = x * x + y * y + z * z
    theta = np.sqrt(t2)
    small = theta < 1e-6
    t = np.where(small, 1.0, theta)
    half = np.sin(0.5 * t)
    c1 = np.sin(t) / t
    c2 = 2.0 * half * half / (t * t)
    if np.any(small):
        c1[small] = 1.0 - t2[small] / 6.0
        c2[small] = 0.5 - t2[small] / 24.0
    return skew_quadratic(W, c1, c2)


def gradient_operator(mesh: TetMesh,
                      adjacency: sp.csr_matrix | None = None) -> sp.csr_matrix:
    """Sparse (9n x 3n) operator stacking vec(G_i) row-major for every node.

    Node i's weights are w_j = M_i^-1 (x_j - x_i) over its neighbors j, the
    row i of the CSR node graph ``adjacency``, with the moment matrix
    M_i = sum_j (x_j - x_i)(x_j - x_i)^T; all moment matrices are summed,
    checked and inverted as one batch. The same linear map serves feature
    extraction, the runtime warp and the rotation-strain reconstruction.
    """
    adjacency = adjacency if adjacency is not None else node_adjacency(mesh)
    n = mesh.n_nodes
    counts = np.diff(adjacency.indptr)
    owner = np.repeat(np.arange(n), counts)
    nbr = adjacency.indices.astype(np.int64)
    d = mesh.nodes[nbr] - mesh.nodes[owner]                 # (e, 3)
    M = np.stack([np.bincount(owner, d[:, a] * d[:, b], n) for a in range(3) for b in range(3)],
                 axis=1).reshape(n, 3, 3)
    eig = np.linalg.eigvalsh(M)
    few = counts < 3
    bad = np.flatnonzero(few | (eig[:, 0] <= 1e-10 * np.maximum(eig[:, -1], 1e-300)))
    if len(bad):
        i = int(bad[0])
        raise RankDeficientNeighborhoodError(
            f"node {i}: fewer than 3 neighbors" if few[i] else
            f"node {i}: neighborhood is rank-deficient (coplanar neighbors)")
    w = np.einsum("er,erq->eq", d, np.linalg.inv(M)[owner])   # rows are w_j
    wsum = np.stack([np.bincount(owner, wq, n) for wq in w.T], axis=1)
    # entry (row 9i + 3p + q, column 3j + p) is w_j[q]; column 3i + p holds
    # -sum_j w_j[q]
    pq = np.arange(9)
    p, q = pq // 3, pq % 3
    nodes = np.arange(n)[:, None]
    rows = np.concatenate([(9 * owner[:, None] + pq).ravel(), (9 * nodes + pq).ravel()])
    cols = np.concatenate([(3 * nbr[:, None] + p).ravel(), (3 * nodes + p).ravel()])
    vals = np.concatenate([w[:, q].ravel(), -wsum[:, q].ravel()])
    return sp.csr_matrix((vals, (rows, cols)), shape=(9 * n, 3 * n))


def rotation_operator(grad_op: sp.csr_matrix) -> sp.csr_matrix:
    """Sparse (3n x 3n) operator from a displacement to the stacked per-node
    rotation vectors: the skew rows of ``grad_op``, with two thirds of its
    entries."""
    n = grad_op.shape[0] // 9
    return (sp.kron(sp.identity(n, format="csr"), sp.csr_matrix(_AXIAL), format="csr")
            @ grad_op).tocsr()


def rotation_vectors_from_displacement(grad_op: sp.csr_matrix,
                                       u: np.ndarray) -> np.ndarray:
    """Per-node rotation vectors (n, 3) of a displacement.

    ``grad_op`` is either a ``gradient_operator`` (9n x 3n), whose gradients
    give w = axial((G - G^T)/2), or the square ``rotation_operator`` built
    from one, which gives w directly.
    """
    if grad_op.shape[0] == grad_op.shape[1]:
        return (grad_op @ u).reshape(-1, 3)
    return (grad_op @ u).reshape(-1, 9) @ _AXIAL.T


class BlockRotations:
    """Block-diagonal per-node rotation operator."""

    def __init__(self, blocks: np.ndarray):
        self.blocks = blocks

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return np.einsum("npq,nq->np", self.blocks, vec.reshape(-1, 3)).ravel()



def build_rotation_blockdiag(mesh: TetMesh, u_lin: np.ndarray,
                             grad_op: sp.csr_matrix) -> BlockRotations:
    """Per-node rotations exp([w_i]x) estimated from the linear displacement;
    anchored nodes get the identity."""
    w = rotation_vectors_from_displacement(grad_op, u_lin)
    R = rotations_from_vectors(w)
    R[mesh.anchor_array()] = np.eye(3)
    return BlockRotations(R)


def register_nonlinear(driver: QuasistaticDriver, params: MaterialParams,
                       u_lin: np.ndarray, u_init: np.ndarray, grad_op: sp.csr_matrix,
                       solver: TangentSolver) -> NewtonResult:
    """Solve f_int(u) = R K u_lin for the nonlinear displacement u.

    K is the rest stiffness K_ff of ``driver``'s linear model and R the
    per-node rotations of u_lin. ``newton_solve`` iterates on the free DOFs
    of ``driver.pre`` (anchored DOFs stay at zero) from ``u_init`` to
    NEWTON_RTOL |R K u_lin|, at most REGISTRATION_MAX_NEWTON steps.
    ``solver`` carries a lagged factor between calls; a fresh one factorizes
    at the first iteration. The result's u holds all 3n DOFs; a
    non-converged result holds the best iterate.
    """
    pre, free = driver.pre, driver.pre.free
    rotations = build_rotation_blockdiag(driver.mesh, u_lin, grad_op)
    target = free.gather(rotations.apply(free.scatter(driver.system.K @ free.gather(u_lin))))
    tol = max(NEWTON_RTOL * np.linalg.norm(target), NEWTON_ATOL)

    def residual(u):
        return -pre.free_force(params, u) - target

    def tangent(u):
        return pre.free_stiffness(params, u)

    res = newton_solve(residual, tangent, free.gather(u_init), tol,
                       REGISTRATION_MAX_NEWTON, solver)
    res.u = free.scatter(res.u)
    return res


@dataclass
class RegisteredPair:
    u_lin: np.ndarray
    u: np.ndarray
    residual: float


@dataclass
class SequenceRegistration:
    pairs: list[RegisteredPair]
    completed: bool
    diagnostic: str | None = None


def register_sequence(driver: QuasistaticDriver, params: MaterialParams,
                      u_lin_sequence, grad_op: sp.csr_matrix) -> SequenceRegistration:
    """Register a loading path of ``driver``, warm-starting each pose from the
    previous one and the first from rest.

    One ``TangentSolver`` serves the whole path. Aborts on the first
    non-converged pose, returning the prior pairs plus a diagnostic instead
    of emitting unconverged data.
    """
    pairs: list[RegisteredPair] = []
    u_prev = np.zeros(3 * driver.mesh.n_nodes)
    solver = TangentSolver()
    for k, u_lin in enumerate(u_lin_sequence):
        res = register_nonlinear(driver, params, u_lin, u_prev, grad_op, solver=solver)
        if not res.converged:
            return SequenceRegistration(
                pairs=pairs, completed=False,
                diagnostic=f"pose {k} failed to converge (residual {res.residual:.3e})")
        pairs.append(RegisteredPair(u_lin=np.array(u_lin, copy=True), u=res.u,
                                    residual=res.residual))
        u_prev = res.u
    return SequenceRegistration(pairs=pairs, completed=True)
