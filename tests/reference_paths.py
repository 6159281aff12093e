"""Reference paths for the fast kernels and the free-DOF solvers.

These are the earlier constructions, copied here so that tests
can compare the fast kernels against them: the two-stage canonicalization
(a Rodrigues rotation onto +y, then an azimuthal turn about y), the Rodrigues
map through a ``K @ K`` stack product, the per-node gradient-operator loop,
a whole ``deepwarp_step`` built from them, the heapq multi-source Dijkstra,
the unit-diagonal elimination of the anchors in the linear, Newmark and
registration solvers with registration's weak Wolfe search (the linear
steps in the acceleration and velocity forms they had, and in the
displacement form that replaced both), and the
stiffness assembly from whole 12x12 element blocks, and the element
stiffness kernel built from fancy-indexed copies of its corner rows. The per-node gradient
fit ``local_displacement_gradient`` is here too; the package uses only the
batched ``gradient_operator``. So is the rotation-strain warp solved by
SuperLU on all 3 n_free DOFs of its normal equations, which the package
factors as one node-level copy. So is the Newmark step whose Newton loop
starts at the previous displacement, without the predictor start and its
retry. So are the queue-loop BFS of the domain tree and the isomorphism
search with its two neighbour loops, which ``csgraph`` and one
adjacency-consistency test replaced in ``substructure``. So are the
per-line text loaders of ``mesh`` (Python ``int`` and ``float`` on each
token), which one ``np.loadtxt`` pass and array checks replaced, with the
orientation repair through ``np.linalg.det``, and the MLP forward pass on
rows (``A @ W.T``), which ``net`` computes feature-major. So are the
mesh operators on per-node neighbour lists (the adjacency, the batched
gradient operator, the geodesic feature, lumped mass and the stiffness
pattern's own pair search), which one CSR node graph replaced, and the
stiffness pattern and its free block by hand-derived slot arithmetic, which
scipy conversions of slot-number matrices replaced. The
constitutive oracles live here as well: central differences of the energy
and of the element force, and the material states they are checked at
(rest, strained, nearly inverted), built one element at a time, for the
kernel tests and acceptance criterion 1.
"""

import heapq
from types import SimpleNamespace
from typing import Iterable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import dijkstra

from deepwarp.dynamics import (NEWMARK_BETA, NEWMARK_GAMMA, NEWMARK_MAX_NEWTON, NEWTON_ATOL,
                               NEWTON_RTOL, ConvergenceError, IntegrationScheme,
                               RayleighDamping, SimState, TangentSolver,
                               newton_solve, prefactorize, step_linear_implicit)
from deepwarp.features import _EPS, FeatureError, GeodesicField, assemble_features_batch
from deepwarp.material import (_CORNER_PAIRS, _ENTRY_P, _ENTRY_PAIR, _ENTRY_R, _UPPER_COL,
                               _UPPER_ROW, _UPPER3_P, _UPPER3_R, InvertedElementError,
                               MaterialModel, MeshPrecomp, _check_uninverted,
                               _det_and_inverse_transpose_cm, _gram, _green_strain, _hooke,
                               _times,
                               assemble_force, assemble_stiffness, deformation_gradient,
                               det_and_inverse_transpose, element_internal_force,
                               element_precomp, energy_density,
                               piola_stress_differential_batch)
from deepwarp.mesh import (DomainPartition, MeshError, MeshFormatError, TetMesh, lumped_mass,
                           signed_volumes, tet_node_graph, tet_volumes)
from deepwarp.net import Activation, forward_batch
from deepwarp.registration import (RankDeficientNeighborhoodError, build_rotation_blockdiag,
                                   rotation_from_vector)
from deepwarp.warper import EXTRAPOLATION_ZMAX

_FLIP_X = np.diag([1.0, -1.0, -1.0])


def fd_stress(params, F, h=1e-6):
    P = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            Fp, Fm = F.copy(), F.copy()
            Fp[i, j] += h
            Fm[i, j] -= h
            P[i, j] = (energy_density(params, Fp) - energy_density(params, Fm)) / (2 * h)
    return P


def fd_element_stiffness(params, pre, x, h=1e-6):
    K = np.zeros((12, 12))
    for c in range(4):
        for k in range(3):
            xp, xm = x.copy(), x.copy()
            xp[c, k] += h
            xm[c, k] -= h
            df = (element_internal_force(params, pre, xp)
                  - element_internal_force(params, pre, xm)) / (2 * h)
            K[:, 3 * c + k] = -df.ravel()
    return K


def element_gradients(mesh, u):
    """Per-element F and rest precomputation, one element at a time."""
    x = mesh.nodes + u.reshape(-1, 3)
    pres = [element_precomp(mesh.nodes[tet]) for tet in mesh.tets]
    F = np.array([deformation_gradient(pre, x[tet]) for pre, tet in zip(pres, mesh.tets)])
    return F, pres


def min_det(mesh, u):
    return np.linalg.det(element_gradients(mesh, u)[0]).min()


def material_state(mesh, name):
    """Rest, a rotated and strained state (min det F = 0.5), or a rotated,
    nearly inverted one (min det F = 0.05)."""
    if name == "rest":
        return np.zeros(3 * mesh.n_nodes)
    R = rotation_from_vector(np.array([0.0, 0.2, 0.7]))
    base = (mesh.nodes @ R.T - mesh.nodes).ravel()
    direction = np.random.default_rng(21).standard_normal(3 * mesh.n_nodes)
    target = 0.5 if name == "deformed" else 0.05
    lo, hi = 0.0, 1.0
    while min_det(mesh, base + hi * direction) > target:
        hi *= 2.0
    for _ in range(50):        # bisect for min det F = target
        mid = 0.5 * (lo + hi)
        if min_det(mesh, base + mid * direction) > target:
            lo = mid
        else:
            hi = mid
    return base + lo * direction


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


def _neighbor_weights(rest, neighbors, i):
    """Per-neighbor weight vectors w_j with G = sum_j (u_j - u_i) outer w_j."""
    d = rest[neighbors] - rest[i]                 # (m, 3)
    M = d.T @ d
    eig = np.linalg.eigvalsh(M)
    if eig[0] <= 1e-10 * max(eig[-1], 1e-300):
        raise RankDeficientNeighborhoodError(
            f"node {i}: neighborhood is rank-deficient (coplanar neighbors)")
    return d @ np.linalg.inv(M)                   # (m, 3) rows are w_j


def local_displacement_gradient(mesh, u, i, adjacency=None):
    """G minimizing sum_j |G (x_j - x_i) - (u_j - u_i)|^2 over adjacent nodes."""
    adjacency = adjacency if adjacency is not None else adjacency_lists(mesh)
    nbr = adjacency[i]
    if len(nbr) < 3:
        raise RankDeficientNeighborhoodError(f"node {i}: fewer than 3 neighbors")
    w = _neighbor_weights(mesh.nodes, nbr, i)
    x = u.reshape(-1, 3)
    e = x[nbr] - x[i]
    return e.T @ w


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


def rsw_warp(mesh, u_lin, grad_op):
    """Rotation-strain warping solved on the full 3 n_free normal equations
    E^T E by SuperLU, each call from scratch."""
    free = mesh.free_dofs()
    E = grad_op[:, free.index]
    G = (grad_op @ u_lin).reshape(-1, 3, 3)
    S = 0.5 * (G + np.swapaxes(G, 1, 2))
    Ghat = rotations_from_vectors(rotation_vectors(grad_op, u_lin)) @ (S + np.eye(3)) - np.eye(3)
    return free.scatter(spla.spsolve((E.T @ E).tocsc(), E.T @ Ghat.reshape(-1)))


class ReferenceStepper:
    """The earlier ``deepwarp_step`` on the statics of a ``WarpContext``,
    with its own rotation cache and extrapolation count. ``rotation_vectors_of``
    maps a displacement to the (n, 3) rotation vectors."""

    def __init__(self, ctx, rotation_vectors_of):
        self.ctx = ctx
        self.rotation_vectors_of = rotation_vectors_of
        self.rotations = np.broadcast_to(np.eye(3), (ctx.mesh.n_nodes, 3, 3)).copy()
        self.extrapolation_events = 0
        self.free = np.ones(ctx.mesh.n_nodes, dtype=bool)
        self.free[ctx.mesh.anchor_array()] = False

    def step(self, state, f_ext):
        ctx, free = self.ctx, self.free
        f = np.einsum("nqp,nq->np", self.rotations, f_ext.reshape(-1, 3)).ravel()
        new_state = step_linear_implicit(ctx.system, state, f)
        w = self.rotation_vectors_of(new_state.u)
        U = new_state.u.reshape(-1, 3)
        u_mag, w_mag, angle, Q = align_batch(U, w)
        Z = ctx.net.scaler.transform(
            assemble_features_batch(u_mag, w_mag, angle, ctx.static, ctx.poisson))
        self.extrapolation_events += int(np.count_nonzero(
            np.abs(Z).max(axis=1) > EXTRAPOLATION_ZMAX))
        Y = forward_batch(ctx.net.weights, Z, ctx.net.spec.activation) - ctx.rest_offset
        delta = np.einsum("npq,np->nq", Q, Y)
        u = U + np.where(free[:, None], delta, 0.0)
        u[~free] = 0.0
        R = rotations_from_vectors(w)
        R[~free] = np.eye(3)
        self.rotations = R
        return new_state, u.ravel()


def geodesic_all(mesh, adjacency):
    """Multi-source Dijkstra from all anchors as a heapq loop: anchors enter
    in ascending order, and a node keeps the first source that reaches it
    at its final distance."""
    if not mesh.anchors:
        raise FeatureError("geodesic feature requires at least one anchor")
    n = mesh.n_nodes
    dist = np.full(n, np.inf)
    source = np.full(n, -1, dtype=np.int64)
    heap = []
    for a in sorted(mesh.anchors):
        dist[a] = 0.0
        source[a] = a
        heapq.heappush(heap, (0.0, a, a))
    done = np.zeros(n, dtype=bool)
    pos = mesh.nodes
    while heap:
        d, i, src = heapq.heappop(heap)
        if done[i]:
            continue
        done[i] = True
        for j in adjacency[i]:
            if done[j]:
                continue
            nd = d + float(np.linalg.norm(pos[j] - pos[i]))
            if nd < dist[j]:
                dist[j] = nd
                source[j] = src
                heapq.heappush(heap, (nd, int(j), src))
    if not np.all(np.isfinite(dist)):
        bad = int(np.argmax(~np.isfinite(dist)))
        raise FeatureError(f"node {bad} is unreachable from every anchor")
    dmax = dist.max()
    g = dist / dmax if dmax > 0.0 else np.zeros(n)
    return GeodesicField(g=g, nearest_anchor=source, distance=dist)


# ---------------------------------------------------------------------------
# unit-diagonal elimination of the anchors
#
# The earlier solver convention: every matrix stays 3n x 3n with the anchored
# rows and columns replaced by those of the identity, and every vector is
# zeroed at the anchored DOFs before and after each solve. The solvers now
# work on the free DOFs only; these copies are what they are compared with.
# ---------------------------------------------------------------------------

def anchor_dofs(mesh):
    return (mesh.anchor_array()[:, None] * 3 + np.arange(3)).ravel()


def apply_anchors(matrix, dofs):
    """Zero the rows and columns of ``dofs`` and set a unit diagonal there."""
    keep = np.ones(matrix.shape[0])
    keep[dofs] = 0.0
    D = sp.diags(keep)
    unit = sp.coo_matrix((np.ones(len(dofs)), (dofs, dofs)), shape=matrix.shape)
    return (D @ matrix @ D + unit).tocsc()


def anchored_force(mesh, params, u, pre):
    f = assemble_force(mesh, params, u, pre)
    f[anchor_dofs(mesh)] = 0.0
    return f


def unit_diagonal_linear_system(mesh, params, dt, scheme=IntegrationScheme.NEWMARK,
                        damping=RayleighDamping(), density=1000.0):
    """3n x 3n K, M and C with unit diagonals on anchored DOFs (they stack up
    in the system matrix, which only rescales the decoupled anchor rows),
    factored in the acceleration form (Newmark) or velocity form (backward
    Euler): M + g dt C + b dt^2 K."""
    params = params.as_linear()
    K = assemble_stiffness(mesh, params, np.zeros(3 * mesh.n_nodes))
    M = sp.diags(np.repeat(lumped_mass(mesh, density), 3)).tocsr()
    C = (damping.alpha * M + damping.beta * K).tocsr()
    dofs = anchor_dofs(mesh)
    M, C = apply_anchors(M, dofs), apply_anchors(C, dofs)
    g, b = (1.0, 1.0) if scheme is IntegrationScheme.BACKWARD_EULER \
        else (NEWMARK_GAMMA, NEWMARK_BETA)
    return SimpleNamespace(K=K, M=M, C=C, dt=dt, scheme=scheme, dofs=dofs, g=g, b=b,
                           prefact=prefactorize(M + g * dt * C + b * dt * dt * K))


def unit_diagonal_displacement_system(mesh, params, dt, scheme=IntegrationScheme.NEWMARK,
                                      damping=RayleighDamping(), density=1000.0):
    """The matrices of ``unit_diagonal_linear_system`` with the factor of the
    effective stiffness K + c0 M + c1 C, c0 = 1/(b dt^2) and c1 = g/(b dt),
    which ``unit_diagonal_displacement_step`` solves for the new
    displacement."""
    system = unit_diagonal_linear_system(mesh, params, dt, scheme, damping, density)
    system.c0 = 1.0 / (system.b * dt * dt)
    system.c1 = system.g / (system.b * dt)
    system.prefact = prefactorize(system.K + system.c0 * system.M + system.c1 * system.C)
    return system


def unit_diagonal_linear_step(system, state, f_ext):
    f = np.array(f_ext, dtype=np.float64, copy=True)
    f[system.dofs] = 0.0
    dt = system.dt
    u, v, a = state.u, state.v, state.a
    if system.scheme is IntegrationScheme.BACKWARD_EULER:
        rhs = system.M @ v + dt * (f - system.K @ u)
        rhs[system.dofs] = 0.0
        v_new = system.prefact.solve(rhs)
        u_new = u + dt * v_new
        a_new = (v_new - v) / dt
    else:
        g, b = NEWMARK_GAMMA, NEWMARK_BETA
        u_pred = u + dt * v + dt * dt * (0.5 - b) * a
        v_pred = v + dt * (1.0 - g) * a
        rhs = f - system.C @ v_pred - system.K @ u_pred
        rhs[system.dofs] = 0.0
        a_new = system.prefact.solve(rhs)
        u_new = u_pred + b * dt * dt * a_new
        v_new = v_pred + g * dt * a_new
    for vec in (u_new, v_new, a_new):
        vec[system.dofs] = 0.0
    return SimState(u=u_new, v=v_new, a=a_new, t=state.t + dt)


def unit_diagonal_displacement_step(system, state, f_ext):
    """One displacement-form step on the 3n DOFs with whole M and C products:
    (K + c0 M + c1 C) u_new = f + (c0 M + c1 C) u_pred - C v_pred."""
    f = np.array(f_ext, dtype=np.float64, copy=True)
    f[system.dofs] = 0.0
    dt = system.dt
    u, v, a = state.u, state.v, state.a
    if system.scheme is IntegrationScheme.BACKWARD_EULER:
        u_pred, v_pred = u + dt * v, v
    else:
        u_pred = u + dt * v + dt * dt * (0.5 - system.b) * a
        v_pred = v + dt * (1.0 - system.g) * a
    rhs = f + (system.c0 * system.M + system.c1 * system.C) @ u_pred - system.C @ v_pred
    rhs[system.dofs] = 0.0
    u_new = system.prefact.solve(rhs)
    u_new[system.dofs] = 0.0
    a_new = system.c0 * (u_new - u_pred)
    v_new = v_pred + system.g * dt * a_new
    for vec in (a_new, v_new):
        vec[system.dofs] = 0.0
    return SimState(u=u_new, v=v_new, a=a_new, t=state.t + dt)


def unit_diagonal_nonlinear_system(mesh, params, damping=RayleighDamping(), density=1000.0):
    pre = MeshPrecomp(mesh)
    K0 = assemble_stiffness(mesh, params, np.zeros(3 * mesh.n_nodes), pre)
    M = sp.diags(np.repeat(lumped_mass(mesh, density), 3)).tocsr()
    C = (damping.alpha * M + damping.beta * K0).tocsr()
    dofs = anchor_dofs(mesh)
    return SimpleNamespace(mesh=mesh, params=params, pre=pre, dofs=dofs,
                           M=apply_anchors(M, dofs), C=apply_anchors(C, dofs),
                           solver=TangentSolver())


def unit_diagonal_newmark_step(system, state, f_ext, dt):
    """Newmark step with Armijo backtracking on 0.5|r|^2, the search that
    ``dynamics`` used before its Newton loop was shared with registration.
    Newton starts at the constant-acceleration predictor, as
    ``step_newmark_nonlinear`` does."""
    g, b = NEWMARK_GAMMA, NEWMARK_BETA
    dofs = system.dofs
    f = np.array(f_ext, dtype=np.float64, copy=True)
    f[dofs] = 0.0
    u0, v0, a0 = state.u, state.v, state.a
    u_pred = u0 + dt * v0 + dt * dt * (0.5 - b) * a0
    v_pred = v0 + dt * (1.0 - g) * a0

    def kinematics(u):
        a = (u - u_pred) / (b * dt * dt)
        return v_pred + g * dt * a, a

    def residual(u):
        v, a = kinematics(u)
        r = (system.M @ a + system.C @ v
             - anchored_force(system.mesh, system.params, u, system.pre) - f)
        r[dofs] = 0.0
        return r

    tol = max(1e-6 * np.linalg.norm(f), 1e-10)
    u = u_pred + b * dt * dt * a0
    u[dofs] = 0.0
    r = residual(u)
    for _ in range(30):
        rnorm = np.linalg.norm(r)
        if rnorm <= tol:
            v, a = kinematics(u)
            for vec in (u, v, a):
                vec[dofs] = 0.0
            return SimState(u=u, v=v, a=a, t=state.t + dt)
        K = assemble_stiffness(system.mesh, system.params, u, system.pre)
        J = system.M / (b * dt * dt) + system.C * (g / (b * dt)) + K
        delta = system.solver.solve(J, -r)
        delta[dofs] = 0.0
        s, phi0 = 1.0, 0.5 * rnorm * rnorm
        while True:
            if s < 1e-12:
                raise ConvergenceError("Newmark inner Newton line search failed")
            u_try = u + s * delta
            try:
                r_try = residual(u_try)
            except InvertedElementError:
                s *= 0.5
                continue
            if 0.5 * float(r_try @ r_try) <= phi0 * (1.0 - 2e-4 * s):
                u, r = u_try, r_try
                break
            s *= 0.5
    raise ConvergenceError("Newmark inner Newton did not converge")


def previous_state_newmark_step(system, state, f_ext, dt):
    """``step_newmark_nonlinear`` as it was before its Newton loop started at
    the constant-acceleration predictor: one ``newton_solve`` from the
    previous displacement, no retry."""
    g, b = NEWMARK_GAMMA, NEWMARK_BETA
    pre, free = system.pre, system.pre.free
    f, u0, v0, a0 = (free.gather(x) for x in (f_ext, state.u, state.v, state.a))
    u_pred = u0 + dt * v0 + dt * dt * (0.5 - b) * a0
    v_pred = v0 + dt * (1.0 - g) * a0
    inertia = system.M / (b * dt * dt) + system.C * (g / (b * dt))

    def kinematics(u):
        a = (u - u_pred) / (b * dt * dt)
        return v_pred + g * dt * a, a

    def residual(u):
        v, a = kinematics(u)
        return system.M @ a + system.C @ v - pre.free_force(system.params, u) - f

    def tangent(u):
        return inertia + pre.free_stiffness(system.params, u)

    tol = max(NEWTON_RTOL * np.linalg.norm(f), NEWTON_ATOL)
    res = newton_solve(residual, tangent, u0, tol, NEWMARK_MAX_NEWTON, system.solver)
    if not res.converged:
        raise ConvergenceError("Newmark inner Newton did not converge", residual=res.residual)
    v, a = kinematics(res.u)
    return SimState(u=free.scatter(res.u), v=free.scatter(v), a=free.scatter(a),
                    t=state.t + dt)


def _wolfe_search(phi, dphi, phi0, dphi0, max_iter=40):
    """Weak Wolfe line search by expansion/bisection (c1 = 1e-4, c2 = 0.9).

    ``phi(s)`` returns (value, payload); ``dphi(payload)`` the slope there.
    Returns the accepted step and its payload, or raises ConvergenceError.
    """
    lo, hi = 0.0, np.inf
    s = 1.0
    for _ in range(max_iter):
        val, payload = phi(s)
        if val > phi0 + 1e-4 * s * dphi0:
            hi = s
            s = 0.5 * (lo + hi)
        else:
            slope = dphi(payload)
            if slope < 0.9 * dphi0:
                lo = s
                s = 2.0 * s if np.isinf(hi) else 0.5 * (lo + hi)
            else:
                return s, payload
        if s < 1e-12:
            break
    raise ConvergenceError("Wolfe line search failed (step below 1e-12)")


def unit_diagonal_register(mesh, params, u_lin, u_init, grad_op, pre, K_linear, J_init,
                           solver):
    """Newton registration with the weak Wolfe search, carrying the tangent
    at the converged pose into the next one."""
    dofs = anchor_dofs(mesh)
    target = build_rotation_blockdiag(mesh, u_lin, grad_op).apply(K_linear @ u_lin)
    target[dofs] = 0.0
    tol = max(1e-6 * np.linalg.norm(target), 1e-10)

    def residual(u):
        r = -anchored_force(mesh, params, u, pre) - target
        r[dofs] = 0.0
        return r

    u = np.zeros_like(u_lin) if u_init is None else np.array(u_init, copy=True)
    u[dofs] = 0.0
    r = residual(u)
    J = J_init if J_init is not None else assemble_stiffness(mesh, params, u, pre)
    for it in range(50):
        rnorm = float(np.linalg.norm(r))
        if rnorm <= tol:
            return u, it, J
        delta = solver.solve(J, -r)
        delta[dofs] = 0.0
        dphi0 = float(r @ (J @ delta))

        def phi(s):
            u_try = u + s * delta
            try:
                r_try = residual(u_try)
            except InvertedElementError:
                return np.inf, None
            return 0.5 * float(r_try @ r_try), [u_try, r_try, None]

        def dphi(payload):
            if payload[2] is None:
                payload[2] = assemble_stiffness(mesh, params, payload[0], pre)
            return float(payload[1] @ (payload[2] @ delta))

        _, (u, r, J) = _wolfe_search(phi, dphi, 0.5 * rnorm * rnorm, dphi0)
    raise ConvergenceError("registration did not converge")


def unit_diagonal_register_sequence(mesh, params, u_lin_sequence, grad_op):
    """Warm-started registration of a loading path: (u, iterations) per pose."""
    pre = MeshPrecomp(mesh)
    K_linear = assemble_stiffness(mesh, params.as_linear(), np.zeros(3 * mesh.n_nodes), pre)
    solver, u, J, out = TangentSolver(), None, None, []
    for u_lin in u_lin_sequence:
        u, iterations, J = unit_diagonal_register(mesh, params, u_lin, u, grad_op, pre,
                                                  K_linear, J, solver)
        out.append((u, iterations))
    return out


# ---------------------------------------------------------------------------
# 144-entry stiffness assembly
#
# The earlier global stiffness: every element writes its whole 12x12 block,
# built from per-element (m, 3, 3) gradients, and a sorted COO pattern maps
# each of the 144 m entries to its CSR slot. The assembly now writes the 78
# upper-triangle entries of each block and mirrors them.
# ---------------------------------------------------------------------------

def element_stiffness_blocks(params, F, corner_grads, volumes):
    """Batched 12x12 element stiffnesses, DOF order (corner, component), from
    (m, 3, 3) gradients and (m, 4, 3) corner gradients."""
    m = len(F)
    mu, lam = params.lame()
    model = params.model
    g = corner_grads
    if model is MaterialModel.COROTATIONAL:
        basis = np.zeros((m, 12, 3, 3))
        for a in range(4):
            for r in range(3):
                basis[:, 3 * a + r, r, :] = g[:, a, :]
        dP = piola_stress_differential_batch(params, F, basis)
        K = np.einsum("nkpq,ncq->ncpk", dP, g) * volumes[:, None, None, None]
        return K.reshape(m, 12, 12)
    gg = g @ np.swapaxes(g, 1, 2)
    T = None
    if model is MaterialModel.LINEAR:
        h, s, c = g, mu * gg, mu
    elif model is MaterialModel.STVK:
        h = g @ np.swapaxes(F, 1, 2)
        s, c = mu * (h @ np.swapaxes(h, 1, 2)), mu
        E = 0.5 * (F @ np.swapaxes(F, 1, 2) - np.eye(3))
        T = 2.0 * mu * E + lam * np.trace(E, axis1=1, axis2=2)[:, None, None] * np.eye(3)
    else:
        J, B = det_and_inverse_transpose(F)
        if np.any(J <= 0.0):
            raise InvertedElementError("inverted element")
        h = g @ np.swapaxes(B, 1, 2)
        s, c = mu * gg, mu - lam * np.log(J)
    hT = np.ascontiguousarray(h.transpose(1, 2, 0))
    O = hT[:, :, None, None] * hT
    K = O * (lam * volumes)
    K += O.transpose(2, 1, 0, 3, 4) * (c * volumes)
    diag = (s * volumes[:, None, None]).transpose(1, 2, 0)
    for p in range(3):
        K[:, p, :, p] += diag
    if T is not None:
        ggv = (gg * volumes[:, None, None]).transpose(1, 2, 0)
        K += ggv[:, None, :, None] * T.transpose(1, 2, 0)[None, :, None]
    return np.ascontiguousarray(K.reshape(144, m).T).reshape(m, 12, 12)


def assemble_stiffness_144(mesh, params, u):
    """Global stiffness from whole element blocks scattered through a COO
    matrix, with identity rows and columns at anchored DOFs."""
    m = len(mesh.tets)
    rest = mesh.nodes[mesh.tets]
    dm_inv = np.linalg.inv(np.swapaxes(rest[:, 1:] - rest[:, :1], 1, 2))
    volumes = np.linalg.det(np.swapaxes(rest[:, 1:] - rest[:, :1], 1, 2)) / 6.0
    g = np.empty((m, 4, 3))
    g[:, 1:] = dm_inv
    g[:, 0] = -dm_inv.sum(axis=1)
    corners = (mesh.nodes + u.reshape(-1, 3))[mesh.tets]
    F = np.swapaxes(corners[:, 1:] - corners[:, :1], 1, 2) @ dm_inv
    vals = element_stiffness_blocks(params, F, g, volumes).reshape(-1)
    dof = (mesh.tets[:, :, None] * 3 + np.arange(3)).reshape(m, 12)
    rows = np.repeat(dof, 12, axis=1).ravel()
    cols = np.tile(dof, (1, 12)).ravel()
    n = 3 * mesh.n_nodes
    K = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    K.sum_duplicates()
    return apply_anchors(K, anchor_dofs(mesh)).tocsr()


# ---------------------------------------------------------------------------
# domain-tree BFS and graph isomorphism
#
# The earlier substructure graph code: a queue loop over sorted neighbour
# sets, and an isomorphism search that checks each candidate from both sides,
# finding preimages by a scan of the mapping.
# ---------------------------------------------------------------------------

def bfs_tree(graph, root):
    """Parent map of a BFS tree; raises on cycles or disconnection."""
    adj = graph.adjacency()
    parent = {root: None}
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


def graphs_isomorphic(g1, g2):
    """Exact isomorphism decision by degree-pruned backtracking; returns
    (True, mapping) with mapping[v1] = v2 on success, else (False, None)."""
    if g1.n_vertices > 64 or g2.n_vertices > 64:
        raise ValueError("domain graphs above 64 vertices are out of intended scale")
    if g1.n_vertices != g2.n_vertices or len(g1.edges) != len(g2.edges):
        return False, None
    adj1, adj2 = g1.adjacency(), g2.adjacency()
    deg1, deg2 = [len(s) for s in adj1], [len(s) for s in adj2]
    if sorted(deg1) != sorted(deg2):
        return False, None
    order = sorted(range(g1.n_vertices), key=lambda v: -deg1[v])
    mapping = {}
    used = [False] * g2.n_vertices

    def extend(pos):
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


# ---------------------------------------------------------------------------
# per-line mesh text loaders
#
# The earlier readers of the node, element, anchor and partition files: one
# Python pass per line, ``int`` and ``float`` on each token, and the
# orientation repair through ``np.linalg.det``. The package parses each file
# in one ``np.loadtxt`` pass and checks the rows as arrays.
# ---------------------------------------------------------------------------

def _iter_data_lines(stream: Iterable[str]):
    """Yield (line_number, tokens) for non-empty, non-comment lines."""
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield lineno, line.split()


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


# ---------------------------------------------------------------------------
# the node graph as per-node lists
#
# The earlier mesh operators: ``node_adjacency`` split the incidence
# product into one neighbour array per node, the gradient operator and the
# geodesic feature joined those lists again and summed per node with
# ``np.add.at``, as lumped mass did, and the stiffness pattern found its
# node pairs by its own ``np.unique``/``argsort`` search. The package reads
# one CSR node graph (``mesh.tet_node_graph``) and sums with ``np.bincount``.
# ---------------------------------------------------------------------------

def adjacency_lists(mesh: TetMesh) -> list[np.ndarray]:
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


def graph_of(adjacency: list) -> sp.csr_matrix:
    """The CSR node graph (unit data) of per-node neighbor lists."""
    indptr = np.concatenate([[0], np.cumsum([len(nbr) for nbr in adjacency])])
    indices = np.concatenate([np.asarray(nbr, dtype=np.int64) for nbr in adjacency])
    n = len(adjacency)
    return sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))


def add_at_gradient_operator(mesh: TetMesh,
                             adjacency: list[np.ndarray] | None = None) -> sp.csr_matrix:
    """Sparse (9n x 3n) operator stacking vec(G_i) row-major for every node.

    Node i's weights are w_j = M_i^-1 (x_j - x_i) over its neighbors j, with
    the moment matrix M_i = sum_j (x_j - x_i)(x_j - x_i)^T; all moment
    matrices are summed, checked and inverted as one batch. The same linear
    map serves feature extraction, the runtime warp and the rotation-strain
    reconstruction.
    """
    adjacency = adjacency if adjacency is not None else adjacency_lists(mesh)
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


def list_geodesic_all(mesh: TetMesh,
                      adjacency: list[np.ndarray] | None = None) -> GeodesicField:
    """Multi-source Dijkstra from all anchors with Euclidean edge weights.

    A node equally near several anchors takes the anchor of its first
    shortest-path predecessor in (distance, index) order, as a heap-ordered
    multi-source search that visits anchors in ascending order would.
    """
    if not mesh.anchors:
        raise FeatureError("geodesic feature requires at least one anchor")
    adjacency = adjacency if adjacency is not None else adjacency_lists(mesh)
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


def add_at_lumped_mass(mesh: TetMesh, density: float) -> np.ndarray:
    """Per-node lumped mass: a quarter of each incident tet's mass."""
    if not (np.isfinite(density) and density > 0.0):
        raise ValueError(f"density must be finite and positive, got {density}")
    vols = tet_volumes(mesh)
    masses = np.zeros(mesh.n_nodes)
    np.add.at(masses, mesh.tets.ravel(), np.repeat(density * vols / 4.0, 4))
    return masses


def unique_csr_pattern(tets: np.ndarray, n_nodes: int):
    """The stiffness pattern from the node pairs of each tet.

    Node i's neighbours j (itself included), sorted, give the columns
    3j..3j+2 of its rows 3i..3i+2: the entry (3i+p, 3j+r) sits at slot
    9 start_i + 3 p deg_i + 3 q + r, with j the q-th of the deg_i
    neighbours. Returns indptr, indices, the row of every slot, the
    slot of each upper-triangle element entry ((78, m) flattened, always
    an upper slot: row <= column) and the gather that fills every slot
    from its upper twin.
    """
    n = n_nodes
    na = tets[:, _CORNER_PAIRS[:, 0]].astype(np.int64)   # (m, 10)
    nb = tets[:, _CORNER_PAIRS[:, 1]].astype(np.int64)
    keys, pair = np.unique(np.minimum(na, nb) * n + np.maximum(na, nb),
                           return_inverse=True)
    lo, hi = np.divmod(keys, n)
    off = np.flatnonzero(lo != hi)
    # the node entries: the upper pairs, then the lower twins of the
    # off-diagonal ones, each with its upper twin; then sorted by row
    rows = np.concatenate([lo, hi[off]])
    order = np.argsort(rows * n + np.concatenate([hi, lo[off]]))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    twin = rank[np.concatenate([np.arange(len(lo)), off])][order]
    lower = order >= len(lo)
    rows, cols = rows[order], np.concatenate([hi, lo[off]])[order]
    deg = np.bincount(rows, minlength=n)
    start = np.concatenate([[0], np.cumsum(deg)])
    base = 9 * start[rows] + 3 * (np.arange(len(rows)) - start[rows])
    stride = 3 * deg[rows]

    p, r = np.arange(3)[:, None, None], np.arange(3)[None, :, None]
    slot = base + p * stride + r                       # (3, 3, entries)
    indptr = np.append(9 * start[:-1, None] + 3 * deg[:, None] * np.arange(3), 9 * start[-1])
    indices = np.empty(9 * len(rows), dtype=np.int64)
    indices[slot] = 3 * cols + r
    row = np.empty_like(indices)
    row[slot] = 3 * rows + p
    # a lower entry's twin slot swaps p and r, and so does that of a
    # below-diagonal entry of a diagonal node block
    swap = lower | ((rows == cols) & (p > r))
    mirror = np.empty_like(indices)
    mirror[slot] = base[twin] + np.where(swap, r * stride[twin] + p, p * stride[twin] + r)

    # per element node pair: its upper entry's slot base and the steps of
    # the entry's row and column components
    t = rank[pair.reshape(na.shape).T]                 # (10, m)
    swap = (na > nb).T
    step_p = np.where(swap, 1, stride[t])[_ENTRY_PAIR]
    step_r = np.where(swap, stride[t], 1)[_ENTRY_PAIR]
    upper = base[t][_ENTRY_PAIR] + _ENTRY_P[:, None] * step_p + _ENTRY_R[:, None] * step_r
    index = np.int32 if len(indices) < 2**31 else np.int64
    return indptr.astype(index), indices.astype(index), row, upper.ravel(), mirror


# the stiffness pattern by slot arithmetic
#
# The earlier ``MeshPrecomp._csr_pattern`` and ``_free_pattern``: slot
# numbers derived by hand (``9 start_i + 3 p deg_i + 3 q + r``, the ``swap``
# rule and the row and column steps of each element entry), and K_ff's
# pattern from free-DOF ranks, counts and a cumulative sum. The package
# numbers the 3x3 node blocks and lets scipy convert and slice them.
# ---------------------------------------------------------------------------

def slot_arithmetic_csr_pattern(pre: MeshPrecomp):
    """The stiffness pattern from the node graph with its diagonal.

    Node i's neighbours j (itself included), the row i of
    ``tet_node_graph``, give the columns 3j..3j+2 of its rows 3i..3i+2:
    the entry (3i+p, 3j+r) sits at slot 9 start_i + 3 p deg_i + 3 q + r,
    with j the q-th of the deg_i neighbours. Returns indptr, indices, the
    row of every slot, the slot of each upper-triangle element entry
    ((78, m) flattened, always an upper slot: row <= column) and the
    gather that fills every slot from its upper twin.
    """
    graph = tet_node_graph(pre._tets, pre._n_nodes)
    start = graph.indptr.astype(np.int64)
    deg = np.diff(start)
    rows = np.repeat(np.arange(pre._n_nodes), deg)
    cols = graph.indices.astype(np.int64)
    # a node pair's upper entry (min, max): one lookup in the graph of positions
    position = sp.csr_array((np.arange(graph.nnz), graph.indices, graph.indptr), graph.shape)
    twin = position[np.minimum(rows, cols), np.maximum(rows, cols)]
    base = 9 * start[rows] + 3 * (np.arange(len(rows)) - start[rows])
    stride = 3 * deg[rows]

    p, r = np.arange(3)[:, None, None], np.arange(3)[None, :, None]
    slot = base + p * stride + r                       # (3, 3, entries)
    indptr = np.append(9 * start[:-1, None] + 3 * deg[:, None] * np.arange(3), 9 * start[-1])
    indices = np.empty(9 * len(rows), dtype=np.int64)
    indices[slot] = 3 * cols + r
    row = np.empty_like(indices)
    row[slot] = 3 * rows + p
    # a lower entry's twin slot swaps p and r, and so does that of a
    # below-diagonal entry of a diagonal node block
    swap = (rows > cols) | ((rows == cols) & (p > r))
    mirror = np.empty_like(indices)
    mirror[slot] = base[twin] + np.where(swap, r * stride[twin] + p, p * stride[twin] + r)

    # per element node pair: its upper entry's slot base and the steps of
    # the entry's row and column components
    na, nb = pre._tets.T[_CORNER_PAIRS.T]                     # (10, m) each
    t = position[np.minimum(na, nb).ravel(), np.maximum(na, nb).ravel()].reshape(na.shape)
    swap = na > nb
    step_p = np.where(swap, 1, stride[t])[_ENTRY_PAIR]
    step_r = np.where(swap, stride[t], 1)[_ENTRY_PAIR]
    upper = base[t][_ENTRY_PAIR] + _ENTRY_P[:, None] * step_p + _ENTRY_R[:, None] * step_r
    index = np.int32 if len(indices) < 2**31 else np.int64
    return indptr.astype(index), indices.astype(index), row, upper.ravel(), mirror


def slot_arithmetic_free_pattern(pre: MeshPrecomp):
    """The slots of the free-free entries in the CSR order of K_ff, with
    its index arrays, and the other slots with their values in the
    eliminated matrix (1 on the diagonal, 0 elsewhere), from the stiffness
    pattern ``pre`` holds."""
    _, indices, row, _, _ = pre._csr_pattern
    pos = np.full(pre._n_dof, -1, dtype=np.int64)
    pos[pre.free.index] = np.arange(len(pre.free.index))
    free_entry = (pos[row] >= 0) & (pos[indices] >= 0)
    keep, fixed = np.flatnonzero(free_entry), np.flatnonzero(~free_entry)
    counts = np.bincount(pos[row[keep]], minlength=len(pre.free.index))
    return (keep, pos[indices[keep]], np.concatenate([[0], np.cumsum(counts)]),
            fixed, (row[fixed] == indices[fixed]).astype(np.float64))


# ---------------------------------------------------------------------------
# row-major MLP forward pass
# ---------------------------------------------------------------------------

def row_major_forward_batch(weights, X, activation):
    """Network outputs for a batch of rows, one ``a @ W.T + b`` per layer."""
    a = np.asarray(X, dtype=np.float64)
    last = len(weights.weights) - 1
    for i, (W, b) in enumerate(zip(weights.weights, weights.biases)):
        z = a @ W.T + b
        if i < last:
            z = np.tanh(z) if activation is Activation.TANH else np.maximum(z, 0.0)
        a = z
    return a


# ---------------------------------------------------------------------------
# the element stiffness kernel from fancy-indexed copies
# ---------------------------------------------------------------------------

def fancy_index_stiffness_upper(params, F, g, volumes, gram):
    """``material._stiffness_upper`` as whole-array products of fancy-indexed
    copies of the corner rows (``lh[a]``, ``h[b]``, ...) and a (6, 3, 3, m)
    product temporary, which the kernel now writes row by row into its
    output."""
    m = F.shape[-1]
    mu, lam = params.lame()
    model = params.model
    if model is MaterialModel.COROTATIONAL:
        basis = np.zeros((m, 12, 3, 3))
        for a in range(4):
            for r in range(3):
                basis[:, 3 * a + r, r, :] = g[a].T
        dP = piola_stress_differential_batch(params, F.transpose(2, 0, 1), basis)
        K = np.einsum("nkpq,aqn->apkn", dP, g).reshape(12, 12, m)
        return K[_UPPER_ROW, _UPPER_COL] * volumes
    T = None
    if model is MaterialModel.LINEAR:
        h, c = g, mu
    elif model is MaterialModel.STVK:
        h, c = _times(F, g), mu
        T = _hooke(_green_strain(F.transpose(2, 0, 1)), mu, lam).transpose(1, 2, 0)
    else:
        J, B = _det_and_inverse_transpose_cm(F)
        _check_uninverted(J)
        h, c = _times(B, g), mu - lam * np.log(J)
    a, b = _CORNER_PAIRS[:6].T
    sv = mu * (_gram(h, volumes) if model is MaterialModel.STVK else gram)
    lh, ch = (lam * volumes) * h, (c * volumes) * h
    K = np.empty((78, m))
    off = K[:54].reshape(6, 3, 3, m)
    np.multiply(lh[a, :, None], h[b, None], out=off)
    off += ch[b, :, None] * h[a, None]
    diag = K[54:].reshape(4, 6, m)
    np.multiply((lh + ch)[:, _UPPER3_P], h[:, _UPPER3_R], out=diag)
    for p in range(3):
        off[:, p, p] += sv[:6]
    diag[:, _UPPER3_P == _UPPER3_R] += sv[6:, None]
    if T is not None:
        off += gram[:6, None, None] * T
        diag += gram[6:, None] * T[_UPPER3_P, _UPPER3_R]
    return K
