"""Runtime warping: learned per-node correction of a pre-factorized linear
solve, plus the modal-warping (MW) and rotation-strain-warping (RSW)
geometric baselines and a method-comparison harness.

Each step: (1) external forces are un-rotated per node by the cached local
rotation of the previous step, (2) one back-substitution advances the linear
state, (3) every node's (u_lin, w) pair is canonicalized, fed through the
network, and the output (minus the rest-state calibration offset) is rotated
back and added to the linear displacement. No factorization happens during
stepping. Around the back-substitution everything is O(n): w comes from one
sparse product with the precomputed rotation operator, the canonical frames
and the next step's rotations are written entry by entry in closed form.
Modal warping uses the closed-form averaged rotation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .dynamics import (ConvergenceError, IntegrationScheme, LinearSystem,
                       RayleighDamping, SimState, build_linear_system,
                       build_nonlinear_system, factorize_spd, step_linear_implicit,
                       step_newmark_nonlinear)
from .features import (ForceField, StaticFeatureSet, align_batch,
                       assemble_features_batch, force_vector, geodesic_all,
                       static_features)
from .material import InvertedElementError, MaterialParams, skew_quadratic
from .mesh import FreeDofs, TetMesh, node_adjacency
from .net import MlpNetwork, forward_batch
from .registration import (_AXIAL, gradient_operator, rotation_operator,
                           rotation_vectors_from_displacement, rotations_from_vectors)


class ExtrapolationWarning(UserWarning):
    """A runtime feature fell outside the trained range."""


@dataclass
class WarpContext:
    """Per-simulation runtime bundle for learned warping."""

    mesh: TetMesh
    system: LinearSystem
    net: MlpNetwork
    static: StaticFeatureSet
    field_descr: ForceField
    rot_op: sp.csr_matrix              # (3n, 3n) displacement -> rotation vectors
    poisson: float
    rest_offset: np.ndarray            # (n, 3) network output at rest features
    rotation_cache: np.ndarray         # (n, 3, 3)
    free_mask: np.ndarray              # (n,) bool, False at anchors
    geo: object = None
    extrapolation_zmax: float = 6.0
    extrapolation_events: int = 0
    warn_on_extrapolation: bool = True

    @property
    def dt(self) -> float:
        return self.system.dt

    def reset(self) -> SimState:
        self.rotation_cache = np.broadcast_to(
            np.eye(3), (self.mesh.n_nodes, 3, 3)).copy()
        return SimState.rest(self.mesh.n_nodes)

    def update_field(self, field_descr: ForceField) -> None:
        """Re-derive direction-dependent features (and the rest calibration)
        for a new field orientation; the geodesic part is direction-free."""
        self.field_descr = field_descr
        self.static = static_features(self.mesh, field_descr, geo=self.geo)
        self.rest_offset = _rest_outputs(self.net, self.static, self.poisson)

    def correct(self, u_lin: np.ndarray):
        """O(n) learned correction of a linear displacement.

        Nodes whose features fall outside the trained range are counted in
        ``extrapolation_events``; the first such step of a context raises one
        ``ExtrapolationWarning``. Returns (u_corrected flat (3n,), w (n,3)).
        """
        w = rotation_vectors_from_displacement(self.rot_op, u_lin)
        U = u_lin.reshape(-1, 3)
        u_mag, w_mag, angle, Q = align_batch(U, w)
        Z = self.net.scaler.transform(
            assemble_features_batch(u_mag, w_mag, angle, self.static, self.poisson))
        far = np.abs(Z) > self.extrapolation_zmax
        if far.any():
            over = int(np.count_nonzero(far.any(axis=1)))
            # warn once per context; extrapolation_events keeps the full count
            if self.warn_on_extrapolation and self.extrapolation_events == 0:
                warnings.warn(
                    f"{over} node feature(s) outside the trained range; "
                    "extrapolating (warned once per context, counted in "
                    "extrapolation_events)", ExtrapolationWarning)
            self.extrapolation_events += over
        Y = forward_batch(self.net.weights, Z, self.net.spec.activation)
        y0, y1, y2 = (Y - self.rest_offset).T
        Qt = Q.transpose(1, 2, 0)              # Qt[p, q] = Q[:, p, q]
        u = U + (Qt[0] * y0 + Qt[1] * y1 + Qt[2] * y2).T     # U + Q^T y per node
        u[~self.free_mask] = 0.0
        return u.ravel(), w


def _rest_outputs(net: MlpNetwork, static: StaticFeatureSet, poisson: float) -> np.ndarray:
    n = len(static.g)
    zeros = np.zeros(n)
    X = assemble_features_batch(zeros, zeros, zeros, static, poisson)
    return forward_batch(net.weights, net.scaler.transform(X), net.spec.activation)


def build_warp_context(mesh: TetMesh, params: MaterialParams, net: MlpNetwork,
                       field_descr: ForceField, dt: float,
                       scheme: IntegrationScheme = IntegrationScheme.NEWMARK,
                       damping: RayleighDamping = RayleighDamping(),
                       density: float = 1000.0) -> WarpContext:
    """Assemble the linear system once and precompute all per-node statics,
    including the rotation operator that reads w from a displacement."""
    adjacency = node_adjacency(mesh)
    system = build_linear_system(mesh, params.as_linear(), dt, scheme, damping, density)
    grad_op = gradient_operator(mesh, adjacency)
    geo = geodesic_all(mesh, adjacency)
    static = static_features(mesh, field_descr, adjacency, geo)
    rest_offset = _rest_outputs(net, static, params.poisson)
    free = np.ones(mesh.n_nodes, dtype=bool)
    if mesh.anchors:
        free[mesh.anchor_array()] = False
    ctx = WarpContext(mesh=mesh, system=system, net=net, static=static,
                      field_descr=field_descr, rot_op=rotation_operator(grad_op),
                      poisson=params.poisson, rest_offset=rest_offset,
                      rotation_cache=np.broadcast_to(np.eye(3),
                                                     (mesh.n_nodes, 3, 3)).copy(),
                      free_mask=free, geo=geo)
    return ctx


def deepwarp_step(ctx: WarpContext, state: SimState, f_ext: np.ndarray,
                  dt: float | None = None):
    """One warped step: un-rotate forces, one linear solve, learned fix.

    Returns (next linear SimState, corrected nonlinear displacement (3n,)).
    """
    if dt is not None and abs(dt - ctx.dt) > 1e-15:
        raise ValueError(f"step dt {dt} does not match the prefactorized dt {ctx.dt}")
    Rt = ctx.rotation_cache.transpose(1, 2, 0)          # Rt[q, p] = R[:, q, p]
    fx, fy, fz = f_ext.reshape(-1, 3).T
    f = (Rt[0] * fx + Rt[1] * fy + Rt[2] * fz).T.ravel()   # R^T f per node
    new_state = step_linear_implicit(ctx.system, state, f)
    u, w = ctx.correct(new_state.u)
    w[~ctx.free_mask] = 0.0                    # anchors keep the identity
    ctx.rotation_cache = rotations_from_vectors(w)
    return new_state, u


def run_deepwarp(ctx: WarpContext, steps: int, f_ext: np.ndarray | None = None):
    """Drive a fresh simulation for ``steps`` steps under a constant load."""
    if f_ext is None:
        f_ext = force_vector(ctx.mesh, ctx.field_descr)
    state = ctx.reset()
    out = []
    for _ in range(steps):
        state, u = deepwarp_step(ctx, state, f_ext)
        out.append(u)
    return out


# ---------------------------------------------------------------------------
# geometric warping baselines
# ---------------------------------------------------------------------------

def mw_average_rotations(W: np.ndarray) -> np.ndarray:
    """Averaged rotations int_0^1 exp(s [w]x) ds, batched (n, 3) -> (n, 3, 3).

    With t = |w| the integral is I + c1 [w/t]x + c2 [w/t]x^2 for
    c1 = (1 - cos t)/t = 2 sin^2(t/2)/t and c2 = 1 - sin(t)/t (Choi & Ko,
    TVCG 2005); a short series replaces both below t = 1e-3, where c2
    cancels.
    """
    W = np.asarray(W, dtype=np.float64)
    x, y, z = W.T
    t2 = x * x + y * y + z * z
    t = np.sqrt(t2)
    small = t < 1e-3
    t = np.where(small, 1.0, t)
    half = np.sin(0.5 * t)
    a1 = 2.0 * half * half / (t * t)            # c1 / t
    a2 = (1.0 - np.sin(t) / t) / (t * t)        # c2 / t^2
    if np.any(small):
        s2 = t2[small]
        a1[small] = 0.5 - s2 / 24.0 + s2 * s2 / 720.0
        a2[small] = 1.0 / 6.0 - s2 / 120.0 + s2 * s2 / 5040.0
    return skew_quadratic(W, a1, a2)


def mw_average_rotation(w: np.ndarray) -> np.ndarray:
    """Averaged rotation int_0^1 exp(s [w]x) ds of one rotation vector."""
    return mw_average_rotations(np.asarray(w, dtype=np.float64)[None])[0]


def mw_warp(mesh: TetMesh, u_lin: np.ndarray,
            grad_op: sp.csr_matrix | None = None) -> np.ndarray:
    """Modal warping: per node, apply the averaged-rotation transform to u_lin."""
    grad_op = grad_op if grad_op is not None else gradient_operator(mesh)
    w = rotation_vectors_from_displacement(grad_op, u_lin)
    out = np.einsum("npq,nq->np", mw_average_rotations(w), u_lin.reshape(-1, 3))
    if mesh.anchors:
        out[mesh.anchor_array()] = 0.0
    return out.ravel()


@dataclass
class _RswFit:
    """Factorized normal matrix E^T E of the anchored least-squares fit."""

    grad_op: sp.csr_matrix
    anchors: frozenset
    free: FreeDofs
    Et: sp.csr_matrix
    factor: object


_rsw_fit: _RswFit | None = None


def _rsw_normal_fit(grad_op: sp.csr_matrix, mesh: TetMesh) -> _RswFit:
    """The cached fit when ``grad_op`` is the same object and the anchor set
    is unchanged; otherwise a fresh factorization, which replaces the cache."""
    global _rsw_fit
    fit = _rsw_fit
    if fit is not None and fit.grad_op is grad_op and fit.anchors == mesh.anchors:
        return fit
    free = mesh.free_dofs()
    E = grad_op[:, free.index]
    try:
        factor = factorize_spd(E.T @ E)
    except RuntimeError as exc:
        raise ValueError(f"rotation-strain fit is singular (insufficient anchors): {exc}")
    _rsw_fit = _RswFit(grad_op=grad_op, anchors=mesh.anchors, free=free, Et=E.T.tocsr(),
                       factor=factor)
    return _rsw_fit


def rsw_warp(mesh: TetMesh, u_lin: np.ndarray,
             grad_op: sp.csr_matrix | None = None) -> np.ndarray:
    """Rotation-strain warping via an anchored global least-squares fit.

    Per node the target gradient is exp([w]x)(S + I) - I; the displacement
    reconstructing those gradients is the minimizer of
    sum_i |G_i(u) - Ghat_i|^2 with anchored nodes pinned at zero. The normal
    matrix depends only on the operator and the anchors, so its factor is
    cached and reused while the same ``grad_op`` object and anchor set are
    passed (an operator must not be modified in place between calls).
    """
    if not mesh.anchors:
        raise ValueError("rotation-strain warp requires anchors")
    grad_op = grad_op if grad_op is not None else gradient_operator(mesh)
    fit = _rsw_normal_fit(grad_op, mesh)
    vecG = grad_op @ u_lin
    G = vecG.reshape(-1, 3, 3)
    S = 0.5 * (G + np.swapaxes(G, 1, 2))
    R = rotations_from_vectors(vecG.reshape(-1, 9) @ _AXIAL.T)
    Ghat = R @ (S + np.eye(3)) - np.eye(3)
    return fit.free.scatter(fit.factor.solve(fit.Et @ Ghat.reshape(-1)))


# ---------------------------------------------------------------------------
# method comparison
# ---------------------------------------------------------------------------

@dataclass
class MethodSummary:
    method: str
    mean_rel_l2: float
    max_rel_l2: float
    dominant_frequency: float


@dataclass
class ComparisonReport:
    rows: list[tuple[str, int, float]] = field(default_factory=list)
    summaries: list[MethodSummary] = field(default_factory=list)
    trajectories: dict[str, np.ndarray] = field(default_factory=dict)
    tracked_node: int = 0
    completed: bool = True
    note: str | None = None


def dominant_frequency(signal: np.ndarray, dt: float, pad_factor: int = 8) -> float:
    """Peak non-DC frequency of a scalar signal via the real FFT.

    Zero-padding interpolates the spectrum so the peak is located more finely
    than the raw 1/T bin width.
    """
    x = np.asarray(signal, dtype=np.float64)
    x = x - x.mean()
    n = max(int(pad_factor) * len(x), len(x))
    spec = np.abs(np.fft.rfft(x, n=n))
    if len(spec) < 2 or spec.max() <= 1e-14 * max(np.abs(x).max(), 1e-300) * len(x):
        return 0.0
    k = 1 + int(np.argmax(spec[1:]))
    return float(np.fft.rfftfreq(n, dt)[k])


def compare_methods(mesh: TetMesh, params: MaterialParams, field_descr: ForceField,
                    net: MlpNetwork | None, steps: int, dt: float,
                    damping: RayleighDamping = RayleighDamping(),
                    density: float = 1000.0, tracked_node: int | None = None,
                    methods: tuple[str, ...] = ("linear", "mw", "rsw", "deepwarp"),
                    scheme: IntegrationScheme = IntegrationScheme.NEWMARK
                    ) -> ComparisonReport:
    """Run ground truth plus the requested methods on one force script.

    Emits per-step relative L2 errors against the nonlinear reference and the
    tracked node's trajectory per method. A ground truth that diverges or
    inverts an element yields a partial report flagged ``completed=False``.
    """
    if "deepwarp" in methods and net is None:
        raise ValueError("deepwarp method requires a trained network")
    report = ComparisonReport()
    f_ext = force_vector(mesh, field_descr, density)
    adjacency = node_adjacency(mesh)
    grad_op = gradient_operator(mesh, adjacency)

    nsys = build_nonlinear_system(mesh, params, damping, density)
    state = SimState.rest(mesh.n_nodes)
    gt = []
    try:
        for _ in range(steps):
            state = step_newmark_nonlinear(nsys, state, f_ext, dt)
            gt.append(state.u.copy())
    except (ConvergenceError, InvertedElementError) as exc:
        report.completed = False
        report.note = f"ground truth diverged after {len(gt)} steps: {exc}"
    n_ok = len(gt)
    if n_ok == 0:
        return report
    gt_arr = np.array(gt)
    report.trajectories["groundtruth"] = gt_arr

    # the baselines step on deepwarp's linear system, so it is factorized once
    ctx = build_warp_context(mesh, params, net, field_descr, dt, scheme, damping,
                             density) if "deepwarp" in methods else None
    lin_system = ctx.system if ctx is not None else build_linear_system(
        mesh, params.as_linear(), dt, scheme, damping, density)
    lin_state = SimState.rest(mesh.n_nodes)
    lin = []
    for _ in range(n_ok):
        lin_state = step_linear_implicit(lin_system, lin_state, f_ext)
        lin.append(lin_state.u.copy())

    outputs: dict[str, list[np.ndarray]] = {}
    if "linear" in methods:
        outputs["linear"] = lin
    if "mw" in methods:
        outputs["mw"] = [mw_warp(mesh, u, grad_op) for u in lin]
    if "rsw" in methods:
        outputs["rsw"] = [rsw_warp(mesh, u, grad_op) for u in lin]
    if ctx is not None:
        outputs["deepwarp"] = run_deepwarp(ctx, n_ok, f_ext)

    if tracked_node is None:
        amp = np.linalg.norm(gt_arr.reshape(n_ok, -1, 3), axis=2).max(axis=0)
        tracked_node = int(np.argmax(amp))
    report.tracked_node = tracked_node

    for name, traj in outputs.items():
        arr = np.array(traj)
        report.trajectories[name] = arr
        errs = []
        for k in range(n_ok):
            denom = max(float(np.linalg.norm(gt_arr[k])), 1e-30)
            rel = float(np.linalg.norm(arr[k] - gt_arr[k])) / denom
            report.rows.append((name, k, rel))
            errs.append(rel)
        comp = _dominant_component(arr, tracked_node)
        report.summaries.append(MethodSummary(
            method=name, mean_rel_l2=float(np.mean(errs)),
            max_rel_l2=float(np.max(errs)),
            dominant_frequency=dominant_frequency(comp, dt)))
    gt_comp = _dominant_component(gt_arr, tracked_node)
    report.summaries.append(MethodSummary(
        method="groundtruth", mean_rel_l2=0.0, max_rel_l2=0.0,
        dominant_frequency=dominant_frequency(gt_comp, dt)))
    return report


def _dominant_component(traj: np.ndarray, node: int) -> np.ndarray:
    """Trajectory component of a node with the largest variance."""
    sig = traj[:, 3 * node:3 * node + 3]
    return sig[:, int(np.argmax(sig.var(axis=0)))]
