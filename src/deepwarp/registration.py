"""Linear-to-nonlinear pose correspondence.

Per-node kinematics: a least-squares displacement gradient G over the
adjacent nodes, its rotation vector w = axial((G - G^T)/2), and the local
rotation R = exp([w]x). ``gradient_operator`` stacks every G in one sparse
operator, built from all per-node moment matrices as one batch;
``rotation_operator`` keeps only its skew rows, so a runtime reads every w
with one smaller sparse product, and ``rotations_from_vectors`` writes each
R entry by entry from Rodrigues' formula.

Registration finds the nonlinear displacement whose internal force matches
the per-node-rotated linear internal force, chaining warm starts along a
quasi-static loading path. The Newton steps of a whole path share one
``TangentSolver``, so the factor of one pose's tangent preconditions the
next poses' solves instead of each iteration refactorizing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dynamics import ConvergenceError, TangentSolver
from .material import (InvertedElementError, MaterialParams, MeshPrecomp,
                       assemble_force, assemble_stiffness, skew_quadratic)
from .mesh import TetMesh, node_adjacency

WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9

# axial((G - G^T)/2) from vec(G) (row-major)
_AXIAL = 0.5 * np.array([[0, 0, 0, 0, 0, -1, 0, 1, 0],
                         [0, 0, 1, 0, 0, 0, -1, 0, 0],
                         [0, -1, 0, 1, 0, 0, 0, 0, 0]])


class RankDeficientNeighborhoodError(Exception):
    """A node's neighbors are coplanar; the gradient fit is singular."""


@dataclass(frozen=True)
class LocalKinematics:
    """Least-squares displacement gradient with its rotation readouts."""

    G: np.ndarray
    w: np.ndarray
    R: np.ndarray


def _neighbor_weights(rest: np.ndarray, neighbors: np.ndarray, i: int) -> np.ndarray:
    """Per-neighbor weight vectors w_j with G = sum_j (u_j - u_i) outer w_j."""
    d = rest[neighbors] - rest[i]                 # (m, 3)
    M = d.T @ d
    eig = np.linalg.eigvalsh(M)
    if eig[0] <= 1e-10 * max(eig[-1], 1e-300):
        raise RankDeficientNeighborhoodError(
            f"node {i}: neighborhood is rank-deficient (coplanar neighbors)")
    return d @ np.linalg.inv(M)                   # (m, 3) rows are w_j


def local_displacement_gradient(mesh: TetMesh, u: np.ndarray, i: int,
                                adjacency: list[np.ndarray] | None = None) -> np.ndarray:
    """G minimizing sum_j |G (x_j - x_i) - (u_j - u_i)|^2 over adjacent nodes."""
    adjacency = adjacency if adjacency is not None else node_adjacency(mesh)
    nbr = adjacency[i]
    if len(nbr) < 3:
        raise RankDeficientNeighborhoodError(f"node {i}: fewer than 3 neighbors")
    w = _neighbor_weights(mesh.nodes, nbr, i)
    x = u.reshape(-1, 3)
    e = x[nbr] - x[i]
    return e.T @ w


def rotation_vector(G: np.ndarray) -> np.ndarray:
    """Axial vector of the skew part (G - G^T)/2."""
    return _AXIAL @ np.asarray(G, dtype=np.float64).reshape(9)


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
                      adjacency: list[np.ndarray] | None = None) -> sp.csr_matrix:
    """Sparse (9n x 3n) operator stacking vec(G_i) row-major for every node.

    Node i's weights are w_j = M_i^-1 (x_j - x_i) over its neighbors j, with
    the moment matrix M_i = sum_j (x_j - x_i)(x_j - x_i)^T; all moment
    matrices are summed, checked and inverted as one batch. The same linear
    map serves feature extraction, the runtime warp and the rotation-strain
    reconstruction.
    """
    adjacency = adjacency if adjacency is not None else node_adjacency(mesh)
    n = mesh.n_nodes
    counts = np.array([len(nbr) for nbr in adjacency], dtype=np.int64)
    owner = np.repeat(np.arange(n), counts)
    nbr = np.concatenate(adjacency).astype(np.int64)
    d = mesh.nodes[nbr] - mesh.nodes[owner]                 # (e, 3)
    M = np.zeros((n, 3, 3))
    np.add.at(M, owner, d[:, :, None] * d[:, None, :])
    eig = np.linalg.eigvalsh(M)
    few = counts < 3
    bad = np.flatnonzero(few | (eig[:, 0] <= 1e-10 * np.maximum(eig[:, -1], 1e-300)))
    if len(bad):
        i = int(bad[0])
        raise RankDeficientNeighborhoodError(
            f"node {i}: fewer than 3 neighbors" if few[i] else
            f"node {i}: neighborhood is rank-deficient (coplanar neighbors)")
    w = np.einsum("er,erq->eq", d, np.linalg.inv(M)[owner])   # rows are w_j
    wsum = np.zeros((n, 3))
    np.add.at(wsum, owner, w)
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


def displacement_gradients(grad_op: sp.csr_matrix, u: np.ndarray) -> np.ndarray:
    """All per-node gradients as an (n, 3, 3) stack."""
    return (grad_op @ u).reshape(-1, 3, 3)


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

    def apply_transpose(self, vec: np.ndarray) -> np.ndarray:
        return np.einsum("nqp,nq->np", self.blocks, vec.reshape(-1, 3)).ravel()


def build_rotation_blockdiag(mesh: TetMesh, u_lin: np.ndarray,
                             grad_op: sp.csr_matrix | None = None) -> BlockRotations:
    """Per-node rotations exp([w_i]x) estimated from the linear displacement;
    anchored nodes get the identity."""
    grad_op = grad_op if grad_op is not None else gradient_operator(mesh)
    w = rotation_vectors_from_displacement(grad_op, u_lin)
    R = rotations_from_vectors(w)
    if mesh.anchors:
        R[mesh.anchor_array()] = np.eye(3)
    return BlockRotations(R)


@dataclass
class RegistrationResult:
    u: np.ndarray
    residual: float
    converged: bool
    iterations: int
    tangent: object = None     # free-DOF tangent K_ff at u, reusable for a warm-started chain


def _wolfe_search(phi, dphi, phi0: float, dphi0: float,
                  max_iter: int = 40) -> tuple[float, object]:
    """Weak Wolfe line search by expansion/bisection.

    ``phi(s)`` returns (value, payload); ``dphi(payload)`` the slope there.
    Returns the accepted step and its payload, or raises ConvergenceError.
    """
    lo, hi = 0.0, np.inf
    s = 1.0
    for _ in range(max_iter):
        val, payload = phi(s)
        if val > phi0 + WOLFE_C1 * s * dphi0:
            hi = s
            s = 0.5 * (lo + hi)
        else:
            slope = dphi(payload)
            if slope < WOLFE_C2 * dphi0:
                lo = s
                s = 2.0 * s if np.isinf(hi) else 0.5 * (lo + hi)
            else:
                return s, payload
        if s < 1e-12:
            break
    raise ConvergenceError("Wolfe line search failed (step below 1e-12)")


def register_nonlinear(mesh: TetMesh, params: MaterialParams, u_lin: np.ndarray,
                       u_init: np.ndarray | None = None,
                       rotations: BlockRotations | None = None,
                       grad_op: sp.csr_matrix | None = None,
                       pre: MeshPrecomp | None = None,
                       K_linear: sp.csr_matrix | None = None,
                       J_init: sp.csr_matrix | None = None,
                       rel_tol: float = 1e-6, max_iter: int = 50,
                       solver: TangentSolver | None = None) -> RegistrationResult:
    """Solve f_int(u) = R K u_lin for the nonlinear displacement u.

    Newton iterations on the free DOFs of ``pre.free`` (anchored DOFs stay
    at zero) with a Wolfe line search on the squared residual. ``K_linear``
    is the (3n x 3n) rest stiffness of the linear model; ``J_init`` may
    supply the free-DOF tangent K_ff at ``u_init`` (exact when chaining warm
    starts). ``solver`` carries a lagged factor between calls; without one,
    the first iteration factorizes. On iteration exhaustion the best iterate
    is returned flagged non-converged.
    """
    pre = pre or MeshPrecomp(mesh)
    free = pre.free
    solver = solver if solver is not None else TangentSolver()
    if K_linear is None:
        K_linear = assemble_stiffness(mesh, params.as_linear(),
                                      np.zeros(3 * mesh.n_nodes), pre)
    if rotations is None:
        rotations = build_rotation_blockdiag(mesh, u_lin, grad_op)
    target = free.gather(rotations.apply(K_linear @ u_lin))
    tol = max(rel_tol * np.linalg.norm(target), 1e-10)

    def residual(u):
        return -free.gather(assemble_force(mesh, params, free.scatter(u), pre)) - target

    def tangent(u):
        return pre.free_block(assemble_stiffness(mesh, params, free.scatter(u), pre))

    u = np.zeros(len(target)) if u_init is None else free.gather(u_init)
    r = residual(u)
    J = J_init if J_init is not None else tangent(u)
    best_u, best_r = u.copy(), float(np.linalg.norm(r))
    for it in range(max_iter):
        rnorm = float(np.linalg.norm(r))
        if rnorm < best_r:
            best_u, best_r = u.copy(), rnorm
        if rnorm <= tol:
            return RegistrationResult(u=free.scatter(u), residual=rnorm, converged=True,
                                      iterations=it, tangent=J)
        delta = solver.solve(J, -r)
        phi0 = 0.5 * rnorm * rnorm
        dphi0 = float(r @ (J @ delta))    # equals -|r|^2 up to solver error
        if not np.isfinite(dphi0) or dphi0 >= 0.0:
            return RegistrationResult(u=free.scatter(best_u), residual=best_r,
                                      converged=False, iterations=it + 1)

        def phi(s):
            u_try = u + s * delta
            try:
                r_try = residual(u_try)
            except InvertedElementError:
                # treat inverted trial states as infeasible: reject the step
                return np.inf, None
            return 0.5 * float(r_try @ r_try), [u_try, r_try, None]

        def dphi(payload):
            # the tangent is only assembled once Armijo has accepted the trial
            if payload[2] is None:
                payload[2] = tangent(payload[0])
            return float(payload[1] @ (payload[2] @ delta))

        try:
            _, (u, r, J) = _wolfe_search(phi, dphi, phi0, dphi0)
        except ConvergenceError:
            rn = float(np.linalg.norm(r))
            return RegistrationResult(u=free.scatter(best_u), residual=min(best_r, rn),
                                      converged=False, iterations=it + 1)
    return RegistrationResult(u=free.scatter(best_u), residual=best_r, converged=False,
                              iterations=max_iter)


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


def register_sequence(mesh: TetMesh, params: MaterialParams,
                      u_lin_sequence, grad_op: sp.csr_matrix | None = None,
                      pre: MeshPrecomp | None = None,
                      rel_tol: float = 1e-6) -> SequenceRegistration:
    """Register a loading path, warm-starting each pose from the previous one.

    One ``TangentSolver`` serves the whole path. Aborts on the first
    non-converged pose, returning the prior pairs plus a diagnostic instead
    of emitting unconverged data.
    """
    pre = pre or MeshPrecomp(mesh)
    grad_op = grad_op if grad_op is not None else gradient_operator(mesh)
    K_linear = assemble_stiffness(mesh, params.as_linear(),
                                  np.zeros(3 * mesh.n_nodes), pre)
    pairs: list[RegisteredPair] = []
    u_prev = None
    J_prev = None
    solver = TangentSolver()
    for k, u_lin in enumerate(u_lin_sequence):
        res = register_nonlinear(mesh, params, u_lin, u_init=u_prev,
                                 grad_op=grad_op, pre=pre, K_linear=K_linear,
                                 J_init=J_prev, rel_tol=rel_tol, solver=solver)
        if not res.converged:
            return SequenceRegistration(
                pairs=pairs, completed=False,
                diagnostic=f"pose {k} failed to converge (residual {res.residual:.3e})")
        pairs.append(RegisteredPair(u_lin=np.array(u_lin, copy=True), u=res.u,
                                    residual=res.residual))
        u_prev = res.u
        J_prev = res.tangent
    return SequenceRegistration(pairs=pairs, completed=True)
