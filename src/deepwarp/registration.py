"""Linear-to-nonlinear pose correspondence.

Per-node kinematics: a least-squares displacement gradient G over the
adjacent nodes, its rotation vector w = axial((G - G^T)/2), and the local
rotation R = exp([w]x). Registration finds the nonlinear displacement whose
internal force matches the per-node-rotated linear internal force, chaining
warm starts along a quasi-static loading path. The Newton steps of a whole
path share one ``TangentSolver``, so the factor of one pose's tangent
preconditions the next poses' solves instead of each iteration
refactorizing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dynamics import ConvergenceError, TangentSolver
from .material import (InvertedElementError, MaterialParams, MeshPrecomp,
                       assemble_force, assemble_stiffness)
from .mesh import TetMesh, node_adjacency

WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9


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
    return 0.5 * np.array([G[2, 1] - G[1, 2], G[0, 2] - G[2, 0], G[1, 0] - G[0, 1]])


def skew_matrix(w: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -w[2], w[1]],
                     [w[2], 0.0, -w[0]],
                     [-w[1], w[0], 0.0]])


def rotation_from_vector(w: np.ndarray) -> np.ndarray:
    """Rodrigues map exp([w]x); series fallback below |w| = 1e-6."""
    return rotations_from_vectors(np.asarray(w, dtype=np.float64)[None])[0]


def rotations_from_vectors(W: np.ndarray) -> np.ndarray:
    """Batched Rodrigues map, (n, 3) -> (n, 3, 3)."""
    W = np.asarray(W, dtype=np.float64)
    theta = np.linalg.norm(W, axis=1)
    small = theta < 1e-6
    t2 = theta * theta
    with np.errstate(invalid="ignore", divide="ignore"):
        c1 = np.where(small, 1.0 - t2 / 6.0, np.sin(theta) / np.where(small, 1.0, theta))
        c2 = np.where(small, 0.5 - t2 / 24.0,
                      (1.0 - np.cos(theta)) / np.where(small, 1.0, t2))
    K = np.zeros((len(W), 3, 3))
    K[:, 0, 1] = -W[:, 2]
    K[:, 0, 2] = W[:, 1]
    K[:, 1, 0] = W[:, 2]
    K[:, 1, 2] = -W[:, 0]
    K[:, 2, 0] = -W[:, 1]
    K[:, 2, 1] = W[:, 0]
    return np.eye(3) + c1[:, None, None] * K + c2[:, None, None] * (K @ K)


def gradient_operator(mesh: TetMesh,
                      adjacency: list[np.ndarray] | None = None) -> sp.csr_matrix:
    """Sparse (9n x 3n) operator stacking vec(G_i) row-major for every node.

    The same linear map serves feature extraction, the runtime warp and the
    rotation-strain reconstruction.
    """
    adjacency = adjacency if adjacency is not None else node_adjacency(mesh)
    rows, cols, vals = [], [], []
    for i, nbr in enumerate(adjacency):
        if len(nbr) < 3:
            raise RankDeficientNeighborhoodError(f"node {i}: fewer than 3 neighbors")
        w = _neighbor_weights(mesh.nodes, nbr, i)        # (m, 3)
        wsum = w.sum(axis=0)
        for p in range(3):
            for q in range(3):
                row = 9 * i + 3 * p + q
                for jn, j in enumerate(nbr):
                    rows.append(row)
                    cols.append(3 * int(j) + p)
                    vals.append(w[jn, q])
                rows.append(row)
                cols.append(3 * i + p)
                vals.append(-wsum[q])
    n = mesh.n_nodes
    return sp.coo_matrix((vals, (rows, cols)), shape=(9 * n, 3 * n)).tocsr()


def displacement_gradients(grad_op: sp.csr_matrix, u: np.ndarray) -> np.ndarray:
    """All per-node gradients as an (n, 3, 3) stack."""
    return (grad_op @ u).reshape(-1, 3, 3)


def rotation_vectors_from_displacement(grad_op: sp.csr_matrix,
                                       u: np.ndarray) -> np.ndarray:
    G = displacement_gradients(grad_op, u)
    return 0.5 * np.stack([G[:, 2, 1] - G[:, 1, 2],
                           G[:, 0, 2] - G[:, 2, 0],
                           G[:, 1, 0] - G[:, 0, 1]], axis=1)


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
    tangent: object = None     # stiffness at u, reusable for a warm-started chain


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

    Newton iterations on the residual with a Wolfe line search on the squared
    residual; anchored DOFs are pinned at zero. ``J_init`` may supply the
    tangent stiffness at ``u_init`` (exact when chaining warm starts).
    ``solver`` carries a lagged factor between calls; without one, the first
    iteration factorizes. On iteration exhaustion the best iterate is
    returned flagged non-converged.
    """
    pre = pre or MeshPrecomp(mesh)
    solver = solver if solver is not None else TangentSolver()
    dofs = (mesh.anchor_array()[:, None] * 3 + np.arange(3)).ravel()
    if K_linear is None:
        K_linear = assemble_stiffness(mesh, params.as_linear(),
                                      np.zeros(3 * mesh.n_nodes), pre, anchored=True)
    if rotations is None:
        rotations = build_rotation_blockdiag(mesh, u_lin, grad_op)
    target = rotations.apply(K_linear @ u_lin)
    target[dofs] = 0.0
    tol = max(rel_tol * np.linalg.norm(target), 1e-10)

    def residual(u):
        r = -assemble_force(mesh, params, u, pre, anchored=True) - target
        r[dofs] = 0.0
        return r

    u = np.zeros_like(u_lin) if u_init is None else np.array(u_init, copy=True)
    u[dofs] = 0.0
    r = residual(u)
    J = J_init if J_init is not None else \
        assemble_stiffness(mesh, params, u, pre, anchored=True)
    best_u, best_r = u.copy(), float(np.linalg.norm(r))
    for it in range(max_iter):
        rnorm = float(np.linalg.norm(r))
        if rnorm < best_r:
            best_u, best_r = u.copy(), rnorm
        if rnorm <= tol:
            return RegistrationResult(u=u, residual=rnorm, converged=True,
                                      iterations=it, tangent=J)
        delta = solver.solve(J, -r)
        delta[dofs] = 0.0
        phi0 = 0.5 * rnorm * rnorm
        dphi0 = float(r @ (J @ delta))    # equals -|r|^2 up to solver error
        if not np.isfinite(dphi0) or dphi0 >= 0.0:
            return RegistrationResult(u=best_u, residual=best_r,
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
                payload[2] = assemble_stiffness(mesh, params, payload[0], pre,
                                                anchored=True)
            return float(payload[1] @ (payload[2] @ delta))

        try:
            _, (u, r, J) = _wolfe_search(phi, dphi, phi0, dphi0)
        except ConvergenceError:
            rn = float(np.linalg.norm(r))
            return RegistrationResult(u=best_u, residual=min(best_r, rn),
                                      converged=False, iterations=it + 1)
    return RegistrationResult(u=best_u, residual=best_r, converged=False,
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
                                  np.zeros(3 * mesh.n_nodes), pre, anchored=True)
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
