"""Runtime warping: learned per-node correction of a pre-factorized linear
solve, plus the modal-warping (MW) and rotation-strain-warping (RSW)
geometric baselines, one driver that steps any of the five ``METHODS`` on
one load, and the method comparison built on it.

Each step: (1) external forces are un-rotated per node by the cached local
rotation of the previous step, (2) one back-substitution advances the linear
state, (3) every node's (u_lin, w) pair is canonicalized, fed through the
network, and the output (minus the rest-state calibration offset) is rotated
back and added to the linear displacement. No factorization happens during
stepping. Around the back-substitution everything is O(n): w comes from one
sparse product with the precomputed rotation operator, the canonical frames
and the next step's rotations are written entry by entry in closed form, and
only the three kinematic feature columns are standardized (the rest come from
``WarpContext.update_field``). Modal warping uses the closed-form averaged
rotation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .dynamics import (BandedCholesky, ConvergenceError, IntegrationScheme, LinearSystem,
                       NonlinearSystem, RayleighDamping, RestModel, SimState,
                       step_linear_implicit, step_newmark_nonlinear)
from .features import (ForceField, GeodesicField, StaticFeatureSet, align_batch,
                       assemble_features_batch, force_vector, geodesic_all,
                       static_features)
from .material import InvertedElementError, MaterialParams, skew_quadratic
from .mesh import FreeDofs, TetMesh, node_adjacency
from .net import MlpNetwork, forward_batch
from .registration import (_AXIAL, gradient_operator, rotation_operator,
                           rotation_vectors_from_displacement, rotations_from_vectors)


# a standardized feature beyond this many deviations counts as extrapolated
EXTRAPOLATION_ZMAX = 6.0
METHODS = ("linear", "mw", "rsw", "deepwarp", "groundtruth")


class ExtrapolationWarning(UserWarning):
    """A runtime feature fell outside the trained range."""


@dataclass
class WarpContext:
    """Per-simulation runtime bundle for learned warping; ``update_field``
    derives its field-dependent state and ``reset`` its rotation cache."""

    mesh: TetMesh
    system: LinearSystem
    net: MlpNetwork
    grad_op: sp.csr_matrix             # (9n, 3n) displacement -> node gradients
    rot_op: sp.csr_matrix              # (3n, 3n) displacement -> rotation vectors
    poisson: float
    geo: GeodesicField                 # direction-free; ``update_field`` reuses it
    static: StaticFeatureSet = field(init=False)
    rest_inputs: np.ndarray = field(init=False)     # (n, 7) standardized rest features
    rest_offset: np.ndarray = field(init=False)     # (n, 3) network output at rest_inputs
    static_far: np.ndarray = field(init=False)      # (n,) static columns out of range
    rotation_cache: np.ndarray = field(init=False)  # (n, 3, 3)
    extrapolation_events: int = 0
    warn_on_extrapolation: bool = True

    def reset(self) -> SimState:
        self.rotation_cache = np.broadcast_to(
            np.eye(3), (self.mesh.n_nodes, 3, 3)).copy()
        return SimState.rest(self.mesh.n_nodes)

    def update_field(self, field_descr: ForceField) -> None:
        """Derive the static features of a field orientation, the standardized
        features at rest, the rows whose static columns fall outside the
        trained range, and the network output at rest, the rest calibration;
        the geodesic part is direction-free."""
        self.static = static_features(self.mesh, field_descr, self.geo)
        zeros = np.zeros(self.mesh.n_nodes)
        self.rest_inputs = self.net.scaler.transform(
            assemble_features_batch(zeros, zeros, zeros, self.static, self.poisson))
        self.static_far = (np.abs(self.rest_inputs[:, 3:]) > EXTRAPOLATION_ZMAX).any(axis=1)
        self.rest_offset = forward_batch(self.net.weights, self.rest_inputs,
                                         self.net.spec.activation)

    def correct(self, u_lin: np.ndarray):
        """O(n) learned correction of a linear displacement.

        Nodes whose features fall outside the trained range (a kinematic
        column, or a static one flagged by ``update_field``) are counted in
        ``extrapolation_events``; the first such step of a context raises one
        ``ExtrapolationWarning``. Returns (u_corrected flat (3n,), w (n,3)).
        """
        w = rotation_vectors_from_displacement(self.rot_op, u_lin)
        U = u_lin.reshape(-1, 3)
        u_mag, w_mag, angle, Q = align_batch(U, w)
        scaler, Z, far = self.net.scaler, self.rest_inputs.copy(), self.static_far.copy()
        for j, x in enumerate((u_mag, w_mag, angle)):     # the kinematic columns
            z = (x - scaler.mean[j]) / scaler.std[j]
            Z[:, j] = z
            far |= np.abs(z) > EXTRAPOLATION_ZMAX
        if far.any():
            over = int(np.count_nonzero(far))
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
        u[self.system.free.anchored] = 0.0
        return u.ravel(), w


def build_warp_context(mesh: TetMesh, params: MaterialParams, net: MlpNetwork,
                       field_descr: ForceField, dt: float,
                       scheme: IntegrationScheme = IntegrationScheme.NEWMARK,
                       damping: RayleighDamping = RayleighDamping(),
                       density: float = 1000.0) -> WarpContext:
    """``_warp_context`` on a fresh rest model."""
    return _warp_context(RestModel(mesh, density), params, net, field_descr, dt, scheme,
                         damping)


def _warp_context(rest: RestModel, params: MaterialParams, net: MlpNetwork,
                  field_descr: ForceField, dt: float, scheme: IntegrationScheme,
                  damping: RayleighDamping) -> WarpContext:
    """Assemble the linear system on the rest model once and precompute all
    per-node statics, including the gradient operator and the rotation
    operator built from it, which reads w from a displacement."""
    mesh = rest.mesh
    adjacency = node_adjacency(mesh)
    system = LinearSystem(rest, rest.stiffness(params.as_linear()), dt, scheme, damping)
    grad_op = gradient_operator(mesh, adjacency)
    ctx = WarpContext(mesh=mesh, system=system, net=net, grad_op=grad_op,
                      rot_op=rotation_operator(grad_op), poisson=params.poisson,
                      geo=geodesic_all(mesh, adjacency))
    ctx.update_field(field_descr)
    ctx.reset()
    return ctx


def deepwarp_step(ctx: WarpContext, state: SimState, f_ext: np.ndarray):
    """One warped step: un-rotate forces, one linear solve, learned fix.

    Returns (next linear SimState, corrected nonlinear displacement (3n,)).
    """
    Rt = ctx.rotation_cache.transpose(1, 2, 0)          # Rt[q, p] = R[:, q, p]
    fx, fy, fz = f_ext.reshape(-1, 3).T
    f = (Rt[0] * fx + Rt[1] * fy + Rt[2] * fz).T.ravel()   # R^T f per node
    new_state = step_linear_implicit(ctx.system, state, f)
    u, w = ctx.correct(new_state.u)
    w[ctx.system.free.anchored] = 0.0          # anchors keep the identity
    ctx.rotation_cache = rotations_from_vectors(w)
    return new_state, u


def run_deepwarp(ctx: WarpContext, steps: int, f_ext: np.ndarray):
    """Drive a fresh simulation for ``steps`` steps under a constant load."""
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


def mw_warp(mesh: TetMesh, u_lin: np.ndarray, grad_op: sp.csr_matrix) -> np.ndarray:
    """Modal warping: per node, apply the averaged-rotation transform to u_lin."""
    w = rotation_vectors_from_displacement(grad_op, u_lin)
    out = np.einsum("npq,nq->np", mw_average_rotations(w), u_lin.reshape(-1, 3))
    out[mesh.anchor_array()] = 0.0
    return out.ravel()


@dataclass
class _RswFit:
    """Factorized node-level copy A1 of the fit's normal matrix E^T E = A1 kron I_3."""

    grad_op: sp.csr_matrix
    anchors: frozenset
    free: FreeDofs
    Et: sp.csr_matrix
    factor: BandedCholesky


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
    Ex = E[:, 0::3]    # column 3j + p reaches only rows 9i + 3p + q: A1 = Ex^T Ex
    try:
        factor = BandedCholesky(Ex.T @ Ex, 1)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"rotation-strain fit is singular (insufficient anchors): {exc}")
    _rsw_fit = _RswFit(grad_op=grad_op, anchors=mesh.anchors, free=free, Et=E.T.tocsr(),
                       factor=factor)
    return _rsw_fit


def rsw_warp(mesh: TetMesh, u_lin: np.ndarray, grad_op: sp.csr_matrix) -> np.ndarray:
    """Rotation-strain warping via an anchored global least-squares fit.

    Per node the target gradient is exp([w]x)(S + I) - I; the displacement
    reconstructing those gradients is the minimizer of
    sum_i |G_i(u) - Ghat_i|^2 with anchored nodes pinned at zero. One
    node-level factor of the normal matrix solves the x, y and z columns. It
    depends only on the operator and the anchors, so it is cached and reused
    while the same ``grad_op`` object and anchor set are passed (an operator
    must not be modified in place between calls).
    """
    if not mesh.anchors:
        raise ValueError("rotation-strain warp requires anchors")
    fit = _rsw_normal_fit(grad_op, mesh)
    vecG = grad_op @ u_lin
    G = vecG.reshape(-1, 3, 3)
    S = 0.5 * (G + np.swapaxes(G, 1, 2))
    R = rotations_from_vectors(vecG.reshape(-1, 9) @ _AXIAL.T)
    Ghat = R @ (S + np.eye(3)) - np.eye(3)
    rhs = (fit.Et @ Ghat.reshape(-1)).reshape(-1, 3)    # one column per component
    return fit.free.scatter(fit.factor.solve(rhs).ravel())


# ---------------------------------------------------------------------------
# stepping and comparing the methods
# ---------------------------------------------------------------------------

def simulate_methods(mesh: TetMesh, params: MaterialParams, field_descr: ForceField,
                     net: MlpNetwork | None, methods: tuple[str, ...], steps: int,
                     dt: float, scheme: IntegrationScheme, damping: RayleighDamping,
                     density: float) -> tuple[dict[str, np.ndarray], str | None]:
    """Step each requested method from rest under one constant load.

    Returns the (k, 3n) displacement trajectories keyed in ``METHODS`` order,
    and a note that is None unless the ground truth, which runs first,
    diverged or inverted an element after k < ``steps`` steps; the other
    methods then run those k steps only. The load and every system read one
    rest model; linear, MW, RSW and deepwarp step on one factorization, and
    MW and RSW read one gradient operator: deepwarp's own when it is
    requested. A non-finite displacement raises ConvergenceError naming the
    method and the step.
    """
    if "deepwarp" in methods and net is None:
        raise ValueError("deepwarp method requires a trained network")
    rest = RestModel(mesh, density)
    f_ext = force_vector(mesh, field_descr, masses=rest.masses)
    out: dict[str, list[np.ndarray]] = {m: [] for m in METHODS if m in methods}
    note = None
    if "groundtruth" in out:
        nsys = NonlinearSystem(rest, params, damping)
        state = SimState.rest(mesh.n_nodes)
        try:
            for _ in range(steps):
                state = step_newmark_nonlinear(nsys, state, f_ext, dt)
                out["groundtruth"].append(state.u)
        except (ConvergenceError, InvertedElementError) as exc:
            steps = len(out["groundtruth"])
            note = f"ground truth diverged after {steps} steps: {exc}"

    ctx = None
    if "deepwarp" in out:
        ctx = _warp_context(rest, params, net, field_descr, dt, scheme, damping)
        out["deepwarp"] = run_deepwarp(ctx, steps, f_ext)
    baselines = [m for m in ("linear", "mw", "rsw") if m in out]
    if baselines:
        system = ctx.system if ctx is not None else LinearSystem(
            rest, rest.stiffness(params.as_linear()), dt, scheme, damping)
        grad_op = ctx.grad_op if ctx is not None else (
            gradient_operator(mesh) if baselines != ["linear"] else None)
        warps = {"linear": lambda u: u,
                 "mw": lambda u: mw_warp(mesh, u, grad_op),
                 "rsw": lambda u: rsw_warp(mesh, u, grad_op)}
        state = SimState.rest(mesh.n_nodes)
        for _ in range(steps):
            state = step_linear_implicit(system, state, f_ext)
            for m in baselines:
                out[m].append(warps[m](state.u))
    trajectories = {m: np.array(traj).reshape(len(traj), 3 * mesh.n_nodes)
                    for m, traj in out.items()}
    for m, traj in trajectories.items():
        bad = ~np.isfinite(traj).all(axis=1)
        if bad.any():
            raise ConvergenceError(f"{m} displacement is not finite at step "
                                   f"{int(np.argmax(bad)) + 1}")
    return trajectories, note


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
    note: str | None = None

    @property
    def completed(self) -> bool:
        return self.note is None


# zero-padding factor of the spectrum that dominant_frequency searches
SPECTRUM_PAD = 8


def dominant_frequency(signal: np.ndarray, dt: float) -> float:
    """Peak non-DC frequency of a scalar signal via the real FFT.

    Zero-padding interpolates the spectrum so the peak is located more finely
    than the raw 1/T bin width.
    """
    x = np.asarray(signal, dtype=np.float64)
    x = x - x.mean()
    n = SPECTRUM_PAD * len(x)
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
    """Errors of the requested methods against the ground truth, all stepped
    by ``simulate_methods`` on one load.

    Emits per-step relative L2 errors against the nonlinear reference and the
    tracked node's dominant frequency per method. A ground truth that diverges
    or inverts an element yields a partial report, not ``completed``, with a ``note``.
    """
    traj, note = simulate_methods(mesh, params, field_descr, net,
                                  ("groundtruth",) + tuple(methods), steps, dt,
                                  scheme, damping, density)
    report = ComparisonReport(note=note)
    gt = traj["groundtruth"]
    n_ok = len(gt)
    if n_ok == 0:
        return report
    report.trajectories = traj
    if tracked_node is None:
        amp = np.linalg.norm(gt.reshape(n_ok, -1, 3), axis=2).max(axis=0)
        tracked_node = int(np.argmax(amp))
    report.tracked_node = tracked_node
    # one norm per step: norm(axis=1) may differ from it in the last bit
    denom = [max(float(np.linalg.norm(g)), 1e-30) for g in gt]
    for name, arr in traj.items():
        errs = [float(np.linalg.norm(a - g)) / d for a, g, d in zip(arr, gt, denom)]
        if name != "groundtruth":
            report.rows += [(name, k, rel) for k, rel in enumerate(errs)]
        freq = dominant_frequency(_dominant_component(arr, tracked_node), dt)
        report.summaries.append(MethodSummary(method=name, mean_rel_l2=float(np.mean(errs)),
                                              max_rel_l2=float(np.max(errs)),
                                              dominant_frequency=freq))
    return report


def _dominant_component(traj: np.ndarray, node: int) -> np.ndarray:
    """Trajectory component of a node with the largest variance."""
    sig = traj[:, 3 * node:3 * node + 3]
    return sig[:, int(np.argmax(sig.var(axis=0)))]
