"""Reference paths for the closed-form runtime kernels.

These are the earlier constructions, copied here so that tests
can compare the fast kernels against them: the two-stage canonicalization
(a Rodrigues rotation onto +y, then an azimuthal turn about y), the Rodrigues
map through a ``K @ K`` stack product, the per-node gradient-operator loop,
and a whole ``deepwarp_step`` built from them.
"""

import numpy as np
import scipy.sparse as sp

from deepwarp.dynamics import step_linear_implicit
from deepwarp.features import _EPS, assemble_features_batch
from deepwarp.net import forward_batch
from deepwarp.registration import RankDeficientNeighborhoodError, _neighbor_weights

_FLIP_X = np.diag([1.0, -1.0, -1.0])


def skew_stack(V):
    K = np.zeros((len(V), 3, 3))
    K[:, 0, 1] = -V[:, 2]
    K[:, 0, 2] = V[:, 1]
    K[:, 1, 0] = V[:, 2]
    K[:, 1, 2] = -V[:, 0]
    K[:, 2, 0] = -V[:, 1]
    K[:, 2, 1] = V[:, 0]
    return K


def rotation_to_y(U):
    """Rodrigues rotation sending each vector to +y, pre-flipping near -y."""
    n = len(U)
    norms = np.linalg.norm(U, axis=1)
    out = np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
    act = norms > _EPS
    if not np.any(act):
        return out
    a = U[act] / norms[act, None]
    y = np.array([0.0, 1.0, 0.0])
    flip = a @ y < -0.999
    a = a.copy()
    a[flip] = a[flip] * np.array([1.0, -1.0, -1.0])
    v = np.cross(a, y)
    s2 = np.einsum("ni,ni->n", v, v)
    c = a @ y
    Vx = skew_stack(v)
    coef = np.where(s2 > 0.0, (1.0 - c) / np.where(s2 > 0.0, s2, 1.0), 0.0)
    R = np.eye(3) + Vx + coef[:, None, None] * (Vx @ Vx)
    R[flip] = R[flip] @ _FLIP_X
    out[act] = R
    return out


def align_batch(U, W):
    """Two-stage canonicalization: Q = Q2 @ Q1."""
    u_mag = np.linalg.norm(U, axis=1)
    w_mag = np.linalg.norm(W, axis=1)
    cross = np.linalg.norm(np.cross(U, W), axis=1)
    dot = np.einsum("ni,ni->n", U, W)
    angle = np.arctan2(cross, dot)
    angle[(u_mag < _EPS) | (w_mag < _EPS)] = 0.0
    Q1 = rotation_to_y(U)
    w1 = np.einsum("npq,nq->np", Q1, W)
    h = np.hypot(w1[:, 0], w1[:, 2])
    psi = np.where(h > _EPS, np.arctan2(w1[:, 2], w1[:, 0]) + np.pi, 0.0)
    cp, sp_ = np.cos(psi), np.sin(psi)
    Q2 = np.zeros((len(U), 3, 3))
    Q2[:, 0, 0] = cp
    Q2[:, 0, 2] = sp_
    Q2[:, 1, 1] = 1.0
    Q2[:, 2, 0] = -sp_
    Q2[:, 2, 2] = cp
    Q2[h <= _EPS] = np.eye(3)
    return u_mag, w_mag, angle, Q2 @ Q1


def rotations_from_vectors(W):
    """Rodrigues map I + sin t/t K + (1 - cos t)/t^2 K @ K."""
    theta = np.linalg.norm(W, axis=1)
    small = theta < 1e-6
    t2 = theta * theta
    with np.errstate(invalid="ignore", divide="ignore"):
        c1 = np.where(small, 1.0 - t2 / 6.0, np.sin(theta) / np.where(small, 1.0, theta))
        c2 = np.where(small, 0.5 - t2 / 24.0,
                      (1.0 - np.cos(theta)) / np.where(small, 1.0, t2))
    K = skew_stack(W)
    return np.eye(3) + c1[:, None, None] * K + c2[:, None, None] * (K @ K)


def gradient_operator(mesh, adjacency):
    """Per-node loop: one 3x3 moment matrix, check and inverse per node."""
    rows, cols, vals = [], [], []
    for i, nbr in enumerate(adjacency):
        if len(nbr) < 3:
            raise RankDeficientNeighborhoodError(f"node {i}: fewer than 3 neighbors")
        w = _neighbor_weights(mesh.nodes, nbr, i)
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


def rotation_vectors(grad_op, u):
    G = (grad_op @ u).reshape(-1, 3, 3)
    return 0.5 * np.stack([G[:, 2, 1] - G[:, 1, 2],
                           G[:, 0, 2] - G[:, 2, 0],
                           G[:, 1, 0] - G[:, 0, 1]], axis=1)


class ReferenceStepper:
    """The earlier ``deepwarp_step`` on the statics of a ``WarpContext``,
    with its own rotation cache and extrapolation count. ``rotation_vectors_of``
    maps a displacement to the (n, 3) rotation vectors."""

    def __init__(self, ctx, rotation_vectors_of):
        self.ctx = ctx
        self.rotation_vectors_of = rotation_vectors_of
        self.rotations = np.broadcast_to(np.eye(3), (ctx.mesh.n_nodes, 3, 3)).copy()
        self.extrapolation_events = 0

    def step(self, state, f_ext):
        ctx, free = self.ctx, self.ctx.free_mask
        f = np.einsum("nqp,nq->np", self.rotations, f_ext.reshape(-1, 3)).ravel()
        new_state = step_linear_implicit(ctx.system, state, f)
        w = self.rotation_vectors_of(new_state.u)
        U = new_state.u.reshape(-1, 3)
        u_mag, w_mag, angle, Q = align_batch(U, w)
        Z = ctx.net.scaler.transform(
            assemble_features_batch(u_mag, w_mag, angle, ctx.static, ctx.poisson))
        self.extrapolation_events += int(np.count_nonzero(
            np.abs(Z).max(axis=1) > ctx.extrapolation_zmax))
        Y = forward_batch(ctx.net.weights, Z, ctx.net.spec.activation) - ctx.rest_offset
        delta = np.einsum("npq,np->nq", Q, Y)
        u = U + np.where(free[:, None], delta, 0.0)
        u[~free] = 0.0
        R = rotations_from_vectors(w)
        R[~free] = np.eye(3)
        self.rotations = R
        return new_state, u.ravel()
