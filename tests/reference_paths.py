"""Reference paths for the fast kernels and the free-DOF solvers.

These are the earlier constructions, copied here so that tests
can compare the fast kernels against them: the two-stage canonicalization
(a Rodrigues rotation onto +y, then an azimuthal turn about y), the Rodrigues
map through a ``K @ K`` stack product, the per-node gradient-operator loop,
a whole ``deepwarp_step`` built from them, the heapq multi-source Dijkstra,
the unit-diagonal elimination of the anchors in the linear, Newmark and
registration solvers with registration's weak Wolfe search, and the
stiffness assembly from whole 12x12 element blocks. The per-node gradient
fit ``local_displacement_gradient`` is here too; the package uses only the
batched ``gradient_operator``. So is the rotation-strain warp solved by
SuperLU on all 3 n_free DOFs of its normal equations, which the package
factors as one node-level copy. So are the queue-loop BFS of the domain tree
and the isomorphism search with its two neighbour loops, which ``csgraph``
and one adjacency-consistency test replaced in ``substructure``. The
constitutive oracles live here as well: central differences of the energy
and of the element force, and the material states they are checked at
(rest, strained, nearly inverted), built one element at a time, for the
kernel tests and acceptance criterion 1.
"""

import heapq
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from deepwarp.dynamics import (NEWMARK_BETA, NEWMARK_GAMMA, ConvergenceError,
                               IntegrationScheme, RayleighDamping, SimState, TangentSolver,
                               prefactorize, step_linear_implicit)
from deepwarp.features import _EPS, FeatureError, GeodesicField, assemble_features_batch
from deepwarp.material import (InvertedElementError, MaterialModel, MeshPrecomp,
                               assemble_force, assemble_stiffness, deformation_gradient,
                               det_and_inverse_transpose, element_internal_force,
                               element_precomp, energy_density,
                               piola_stress_differential_batch)
from deepwarp.mesh import MeshError, lumped_mass, node_adjacency
from deepwarp.net import forward_batch
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
    adjacency = adjacency if adjacency is not None else node_adjacency(mesh)
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
    in the system matrix, which only rescales the decoupled anchor rows)."""
    params = params.as_linear()
    K = assemble_stiffness(mesh, params, np.zeros(3 * mesh.n_nodes))
    M = sp.diags(np.repeat(lumped_mass(mesh, density), 3)).tocsr()
    C = (damping.alpha * M + damping.beta * K).tocsr()
    dofs = anchor_dofs(mesh)
    M, C = apply_anchors(M, dofs), apply_anchors(C, dofs)
    g, b = (1.0, 1.0) if scheme is IntegrationScheme.BACKWARD_EULER \
        else (NEWMARK_GAMMA, NEWMARK_BETA)
    return SimpleNamespace(K=K, M=M, C=C, dt=dt, scheme=scheme, dofs=dofs,
                           prefact=prefactorize(M + g * dt * C + b * dt * dt * K))


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
    ``dynamics`` used before its Newton loop was shared with registration."""
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
    u = u0.copy()
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
