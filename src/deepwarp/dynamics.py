"""Time integration: pre-factorized implicit linear stepping, overdamped
quasi-static linear sequences for training-pose generation, and the nonlinear
Newmark reference integrator.

Dirichlet anchors are eliminated at the solver boundary. Every system holds
and factorizes its matrices restricted to the free DOFs (K_ff, M_ff, C_ff;
``MeshPrecomp.free_stiffness`` and ``free_force`` assemble K_ff and the force
at a free-DOF displacement). Loads and states are gathered to the free DOFs
before a solve and the results are scattered into zeros, so public (3n,)
states hold exact zeros at anchors. The systems of one scenario share one
``RestModel`` (its ``MeshPrecomp``, lumped masses and M_ff); each assembles
its own rest K_ff from it once.

Every sparse factorization in the package is a ``BandedCholesky``: a banded
Cholesky factor on a node-level reverse Cuthill-McKee ordering (LAPACK
``pbtrf`` and ``pbtrs``), which stores one triangle and back-substitutes
faster than a sparse LU on these symmetric stiffness-like matrices. Its
analysis of a CSR pattern (ordering, band width, the map into the band) is
kept, so ``refactor`` of a matrix with the same pattern only packs the values
and runs ``pbtrf``.
``prefactorize`` factors every constant system matrix (K_ff, and the
effective stiffness K_ff + c0 M_ff + c1 C_ff of a ``LinearSystem``, whose
implicit steps solve for the new displacement): it checks the matrix,
returns the Cholesky, which proves it positive definite, and counts it
through a module-level event counter so tests (and the runtime contract) can
assert that a whole simulation run performs exactly one factorization. A
Newton tangent whose Cholesky breaks down, an indefinite one, goes to a
symmetric-mode SuperLU LU.

Registration and the Newmark ground truth share one Newton loop,
``newton_solve``, and pass it only their residual and tangent. The Newmark
step starts it at the constant-acceleration predictor and, when that start
inverts an element or does not converge, once more at the previous
displacement. Its steps go through a ``TangentSolver``: it keeps the most
recent factor and solves each new tangent by conjugate gradients
preconditioned with that lagged factor.
It refactorizes, through ``refactor`` of its kept banded Cholesky, when CG
stalls or meets non-positive curvature, and at the solve after one that took
more than PCG_REFRESH_ITER CG iterations. CG runs to a 1e-10 relative
residual, so Newton iterates match the direct solves to that tolerance and
iteration counts are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cholesky_banded, get_lapack_funcs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .material import InvertedElementError, MaterialParams, MeshPrecomp
from .mesh import TetMesh, lumped_mass


class NotPositiveDefiniteError(Exception):
    """System matrix failed the positive-definiteness checks (e.g. no anchors)."""


class ConvergenceError(Exception):
    """An iterative solve failed to reach its tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual

    def __reduce__(self):
        # pickled whole, so that one raised in a pose-generation worker
        # reaches the caller with its residual
        return type(self), (self.args[0], self.residual)


class IntegrationScheme(Enum):
    BACKWARD_EULER = "backward_euler"
    NEWMARK = "newmark"


# Newmark average-acceleration parameters (unconditionally stable).
NEWMARK_GAMMA = 0.5
NEWMARK_BETA = 0.25

# random solves that check each new factorization's residual
RESIDUAL_PROBES = 3
# inverse power iterations of the slowest-mode estimate
POWER_ITERATIONS = 60
# quasi-static loading stops within this relative distance of K^-1 f and
# fails once the inertial force exceeds this fraction of the load or after
# this many steps
QUASISTATIC_REL_TOL = 1e-6
QUASISTATIC_ACCEL_BOUND = 0.05
QUASISTATIC_MAX_STEPS = 2000

_factorization_events = 0


def factorization_event_count() -> int:
    """Total prefactorizations performed since the last reset."""
    return _factorization_events


def reset_factorization_event_count() -> None:
    global _factorization_events
    _factorization_events = 0


@dataclass(frozen=True)
class RayleighDamping:
    """C = alpha * M + beta * K."""

    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if not all(np.isfinite(c) and c >= 0.0 for c in (self.alpha, self.beta)):
            raise ValueError(f"Rayleigh coefficients must be finite and non-negative, "
                             f"got alpha={self.alpha}, beta={self.beta}")


@dataclass
class SimState:
    """Displacement/velocity/acceleration of one simulation, flat (3n,) layout."""

    u: np.ndarray
    v: np.ndarray
    a: np.ndarray
    t: float = 0.0

    @classmethod
    def rest(cls, n_nodes: int) -> "SimState":
        z = np.zeros(3 * n_nodes)
        return cls(u=z.copy(), v=z.copy(), a=z.copy(), t=0.0)


class _BandAnalysis:
    """The symbolic half of a ``BandedCholesky``, fixed by one canonical CSR
    pattern (sorted, unique column indices; explicit zeros kept).

    ``perm`` and the band row count come from the nonzero entries only.
    ``take`` lists the lower entries of the pattern that fall inside the band
    and ``scatter`` their flat positions in the Fortran-order band;
    ``outside`` lists the lower entries beyond it, which must hold zeros.
    """

    def __init__(self, A: sp.csr_matrix, node_dofs: int):
        n, d = A.shape[0], node_dofs
        nonzero = A.data != 0.0
        # node graph: DOF i belongs to node i // d, so node k owns CSR rows
        # dk to dk + d - 1; one entry per nonzero d x d block, whichever of
        # its entries are zero
        nodes = sp.csr_matrix((nonzero.astype(np.float64), A.indices // d,
                               A.indptr[np.r_[0:n:d, n]]), shape=(-(-n // d),) * 2)
        nodes.sum_duplicates()
        nodes.eliminate_zeros()
        order = reverse_cuthill_mckee(nodes, symmetric_mode=True) if n \
            else np.zeros(0, dtype=np.int64)
        perm = (d * order.astype(np.int64)[:, None] + np.arange(d)).ravel()
        perm = perm[perm < n]
        rank = np.empty(n, dtype=np.int64)
        rank[perm] = np.arange(n)
        row = rank[np.repeat(np.arange(n), np.diff(A.indptr))]
        col = rank[A.indices]
        offset = row - col
        lower = offset >= 0
        rows = int(offset[lower & nonzero].max(initial=0)) + 1
        inside = lower & (offset < rows)
        self.indptr, self.indices = A.indptr, A.indices
        self.perm, self.shape = perm, (rows, n)
        self.take = np.flatnonzero(inside)
        self.scatter = (offset + rows * col)[inside]
        self.outside = np.flatnonzero(lower & ~inside)

    def fits(self, A: sp.csr_matrix) -> bool:
        """A has this pattern and holds zeros wherever the band does not reach."""
        return (np.array_equal(A.indptr, self.indptr)
                and np.array_equal(A.indices, self.indices)
                and not A.data[self.outside].any())

    def pack(self, data: np.ndarray) -> np.ndarray:
        """The lower band of the permuted matrix with CSR values ``data``."""
        band = np.zeros(self.shape[0] * self.shape[1])
        band[self.scatter] = data[self.take]
        return band.reshape(self.shape, order="F")


_PBTRS = get_lapack_funcs("pbtrs", dtype=np.float64)


class BandedCholesky:
    """Cholesky factor of a sparse SPD matrix, stored as a band.

    Node-level reverse Cuthill-McKee orders A to a narrow profile: DOFs dk
    to dk + d - 1 form node k, for d = ``node_dofs`` (3 for the free DOFs of
    unanchored nodes, 1 for one unknown per node), RCM orders the graph of
    the nonzero d x d blocks, and each node's DOFs follow it in place. So
    the order does not depend on which entries of a block round to exact
    zero. The lower band of the permuted matrix is factorized by LAPACK
    ``pbtrf`` and solved by ``pbtrs``, for one or several right-hand sides.
    Only one triangle is stored, and back-substitution walks contiguous band
    columns. ``perm`` lists the DOFs in elimination order. Raises
    ``np.linalg.LinAlgError`` when A is not positive definite.

    The work splits as George & Liu's (*Computer Solution of Large Sparse
    Positive Definite Systems*, 1981): an analysis of the CSR pattern (the
    ordering, the band width and the map of each entry into the band), then
    a numeric factorization that packs the values and runs ``pbtrf``.
    ``refactor`` repeats only the numeric half for a matrix of the same
    pattern.
    """

    def __init__(self, A, node_dofs: int):
        self.node_dofs = node_dofs
        self._analysis = None
        self.refactor(A)

    def refactor(self, A) -> None:
        """Replace the factor by A's. A matrix with this factor's CSR pattern
        and zeros wherever the band does not reach keeps the analysis; any
        other gets a full one. Raises ``np.linalg.LinAlgError`` when A is not
        positive definite, and the factor is then unchanged."""
        A = sp.csr_matrix(A, dtype=np.float64)
        analysis = self._analysis
        if analysis is None or not analysis.fits(A):
            if not A.has_canonical_format:
                A = A.copy()
                A.sum_duplicates()
            analysis = _BandAnalysis(A, self.node_dofs)
        band = cholesky_banded(analysis.pack(A.data), overwrite_ab=True, lower=True,
                               check_finite=False)
        self._analysis, self.perm, self.band = analysis, analysis.perm, band

    def solve(self, b: np.ndarray) -> np.ndarray:
        # LAPACK directly: b[perm] always has the band's column count, the one
        # argument cho_solve_banded's checks could reject
        b = np.asarray(b, dtype=np.float64)
        x = np.empty_like(b)
        x[self.perm] = _PBTRS(self.band, b[self.perm], lower=1, overwrite_b=1)[0]
        return x


def _superlu_factor(A) -> spla.SuperLU:
    """Sparse LU of a symmetric matrix that is not positive definite.

    SuperLU runs in symmetric mode on the MMD ordering of A^T + A. The small
    nonzero pivot threshold keeps diagonal pivots where it can but still lets
    SuperLU pivot off the diagonal on an indefinite neo-Hookean tangent far
    from rest. Raises RuntimeError on an exactly singular A.
    """
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,
                     options=dict(SymmetricMode=True))


# Lagged-factor CG: relative residual target and iteration cap before the
# solver gives up and refactorizes; a solve that takes more than
# PCG_REFRESH_ITER iterations makes the next solve factorize its own tangent.
# On the README beam, thresholds 4 to 8 cut registration time alike; 4 cut the
# Newmark ground truth's the most (CHANGES.md has the sweep).
PCG_RTOL = 1e-10
PCG_MAX_ITER = 20
PCG_REFRESH_ITER = 4


class TangentSolver:
    """Solves J x = b for a sequence of slowly changing symmetric tangents.

    The most recent factor preconditions CG on each new J. The solve stops at
    a true residual |J x - b| <= PCG_RTOL |b|. It gives up after PCG_MAX_ITER
    iterations or at the first non-positive curvature (r.z <= 0 or p.Jp <= 0:
    a tangent or its pivoted factor may be indefinite); then, as on the first
    call, J itself is factorized, kept, and solved directly. A solve that
    took more than PCG_REFRESH_ITER iterations also makes the next solve
    factorize its J instead of iterating, so the preconditioner follows the
    tangents. Every factorization refactors one kept ``BandedCholesky``,
    which reuses its analysis while the tangents keep their pattern; a J
    whose Cholesky breaks down (an indefinite one) goes to SuperLU, and the
    banded analysis stays for the next positive definite J. Counts solves,
    factorizations, CG iterations and fallbacks; the iteration counts alone
    decide when to factorize, so the solves are deterministic.
    """

    def __init__(self):
        self._factor = None
        self._banded = None
        self._refresh = False
        self.solves = 0
        self.factorizations = 0
        self.pcg_iterations = 0
        self.fallbacks = 0

    def solve(self, J, b: np.ndarray) -> np.ndarray:
        self.solves += 1
        if self._factor is not None and not self._refresh:
            before = self.pcg_iterations
            x = self._pcg(J, b)
            if x is not None:
                self._refresh = self.pcg_iterations - before > PCG_REFRESH_ITER
                return x
            self.fallbacks += 1
        self._factor = self._factorize(J)
        self._refresh = False
        self.factorizations += 1
        return self._factor.solve(b)

    def _factorize(self, J) -> BandedCholesky | spla.SuperLU:
        try:
            if self._banded is None:
                self._banded = BandedCholesky(J, 3)
            else:
                self._banded.refactor(J)
        except np.linalg.LinAlgError:
            return _superlu_factor(J)
        return self._banded

    def _pcg(self, J, b: np.ndarray) -> np.ndarray | None:
        tol = PCG_RTOL * np.linalg.norm(b)
        x = np.zeros_like(b)
        r = b.copy()
        if np.linalg.norm(r) <= tol:
            return x
        z = self._factor.solve(r)
        rz = float(r @ z)
        p = z
        for _ in range(PCG_MAX_ITER):
            if not rz > 0.0:
                return None
            Jp = J @ p
            pJp = float(p @ Jp)
            if not pJp > 0.0:
                return None
            alpha = rz / pJp
            x += alpha * p
            r -= alpha * Jp
            self.pcg_iterations += 1
            if np.linalg.norm(r) <= tol:
                # the recurred residual drifts from the true one; confirm
                r = b - J @ x
                if np.linalg.norm(r) <= tol:
                    return x
            z = self._factor.solve(r)
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new
        return None


# Newton stops at |r| <= max(NEWTON_RTOL |load|, NEWTON_ATOL), within a cap
# per loop; the weak Wolfe constants (Nocedal & Wright, Numerical
# Optimization, sec. 3.1), trial cap and step floor of its line search
NEWTON_RTOL = 1e-6
NEWTON_ATOL = 1e-10
NEWMARK_MAX_NEWTON = 30
REGISTRATION_MAX_NEWTON = 50
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
LINE_SEARCH_TRIALS = 40
MIN_STEP = 1e-12


@dataclass
class NewtonResult:
    u: np.ndarray
    residual: float
    converged: bool
    iterations: int


def newton_solve(residual, tangent, u0: np.ndarray, tol: float, max_iter: int,
                 solver: TangentSolver) -> NewtonResult:
    """Solve residual(u) = 0 to |r| <= ``tol`` by Newton steps, each with a
    weak Wolfe line search on phi = |r|^2 / 2.

    ``residual(u)`` may raise ``InvertedElementError``; ``tangent(u)``
    returns the symmetric Jacobian that ``solver`` solves. A tangent is
    assembled at ``u0`` only when it is not converged, then at the trials the
    curvature test reads; the accepted one serves the next step. After
    ``max_iter`` steps, a failed search or a direction that is not a descent
    direction, the best iterate is returned flagged non-converged. A
    tolerance that is not finite (an overflowed load norm) raises
    ConvergenceError.
    """
    if not np.isfinite(tol):
        raise ConvergenceError(f"Newton tolerance is not finite ({tol})")
    u, r, J = u0, residual(u0), None
    best_u, best_r = u, float(np.linalg.norm(r))
    for it in range(max_iter):
        rnorm = float(np.linalg.norm(r))
        if rnorm < best_r:
            best_u, best_r = u, rnorm
        if rnorm <= tol:
            return NewtonResult(u=u, residual=rnorm, converged=True, iterations=it)
        if J is None:
            J = tangent(u)
        delta = solver.solve(J, -r)
        dphi0 = float(r @ (J @ delta))    # equals -|r|^2 up to solver error
        trial = None
        if np.isfinite(dphi0) and dphi0 < 0.0:
            trial = _line_search(residual, tangent, u, delta, 0.5 * rnorm * rnorm, dphi0,
                                 tol)
        if trial is None:
            return NewtonResult(u=best_u, residual=best_r, converged=False,
                                iterations=it + 1)
        u, r, J = trial
    return NewtonResult(u=best_u, residual=best_r, converged=False, iterations=max_iter)


def _line_search(residual, tangent, u, delta, phi0: float, dphi0: float, tol: float):
    """Weak Wolfe step along ``delta`` by expansion and bisection.

    Returns (u, r, J) at the accepted trial, or None once LINE_SEARCH_TRIALS
    trials ran or the step fell below MIN_STEP. An inverted trial state fails
    the sufficient-decrease test like any other. A trial that passes it
    within ``tol`` is accepted without the curvature test, and J is None.
    """
    lo, hi, s = 0.0, np.inf, 1.0
    for _ in range(LINE_SEARCH_TRIALS):
        u_try = u + s * delta
        try:
            r_try = residual(u_try)
            decrease = 0.5 * float(r_try @ r_try) <= phi0 + WOLFE_C1 * s * dphi0
        except InvertedElementError:
            decrease = False
        if not decrease:
            hi = s
        elif float(np.linalg.norm(r_try)) <= tol:
            return u_try, r_try, None
        else:
            J_try = tangent(u_try)
            if float(r_try @ (J_try @ delta)) >= WOLFE_C2 * dphi0:
                return u_try, r_try, J_try
            lo = s
        s = 2.0 * s if np.isinf(hi) else 0.5 * (lo + hi)
        if s < MIN_STEP:
            break
    return None


def prefactorize(A) -> BandedCholesky:
    """Factorize a constant SPD system matrix, checked; the factor's ``solve``
    only back-substitutes.

    A must be symmetric with a positive diagonal, and its banded Cholesky
    factorization must succeed, which holds exactly when it is positive
    definite; a few random solves then check the residual. Raises
    ``NotPositiveDefiniteError`` otherwise. Increments the factorization
    event counter by exactly one.
    """
    global _factorization_events
    A = sp.csr_matrix(A, dtype=np.float64)    # the CSR that BandedCholesky factors
    n = A.shape[0]    # 0 when every DOF is anchored: an empty system is valid
    if n and abs(A - A.T).max() > 1e-8 * max(abs(A).max(), 1e-300):
        raise NotPositiveDefiniteError("system matrix is not symmetric")
    if n and A.diagonal().min() <= 0.0:
        raise NotPositiveDefiniteError("system matrix has a non-positive diagonal entry")
    try:
        factor = BandedCholesky(A, 3)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"Cholesky factorization failed (matrix is not positive definite): {exc}"
        ) from None
    _factorization_events += 1
    # probe: solve must reproduce A x = b, and x^T A x must stay positive
    rng = np.random.default_rng(0)
    for _ in range(RESIDUAL_PROBES if n else 0):
        b = rng.standard_normal(n)
        x = factor.solve(b)
        if not np.all(np.isfinite(x)):
            raise NotPositiveDefiniteError("factorization produced non-finite solve")
        if np.linalg.norm(A @ x - b) > 1e-8 * np.linalg.norm(b):
            raise NotPositiveDefiniteError("factorized solve failed the residual check")
        if float(x @ b) <= 0.0:   # x^T A x with A x = b
            raise NotPositiveDefiniteError("system matrix is not positive definite")
    return factor


class RestModel:
    """What every system of one scenario shares, built once: the anchored
    mesh, its ``MeshPrecomp``, its (n,) lumped node masses and M_ff, their
    diagonal on the free DOFs ``pre.free``."""

    def __init__(self, mesh: TetMesh, density: float):
        if not mesh.anchors:
            raise NotPositiveDefiniteError(
                "mesh has no anchors; the stiffness has a floating null space")
        self.mesh, self.pre = mesh, MeshPrecomp(mesh)
        self.masses = lumped_mass(mesh, density)
        self.M = sp.diags(self.pre.free.gather(np.repeat(self.masses, 3))).tocsr()

    def stiffness(self, params: MaterialParams) -> sp.csr_matrix:
        """The rest K_ff of ``params``."""
        return self.pre.free_stiffness(params, np.zeros(len(self.pre.free.index)))


class LinearSystem:
    """Constant-coefficient implicit system for the linear material on the
    free DOFs of a rest model, stepped in displacement form: ``K``, ``M`` and
    ``C`` are K_ff, M_ff and the Rayleigh C_ff = alpha M_ff + beta K_ff,
    ``masses`` the (n,) lumped node masses of M, and ``prefact`` the factor
    of the effective stiffness K + c0 M + c1 C.

    A step predicts u_pred = u + dt v + ``predict_u`` a and v_pred = v +
    ``predict_v`` a, solves for the new displacement, and reads the new
    acceleration c0 (u_new - u_pred) and velocity v_pred + g dt a_new off
    it. Newmark has g = NEWMARK_GAMMA, c0 = 1/(NEWMARK_BETA dt^2),
    predict_u = dt^2 (1/2 - NEWMARK_BETA) and predict_v = dt (1 - g);
    backward Euler has g = 1, c0 = 1/dt^2 and no acceleration terms in its
    predictors. Either way c1 = g dt c0.
    """

    def __init__(self, rest: RestModel, K: sp.csr_matrix, dt: float,
                 scheme: IntegrationScheme, damping: RayleighDamping):
        self.K, self.M, self.dt, self.damping = K, rest.M, dt, damping
        self.free, self.masses = rest.pre.free, rest.masses
        self.C = (damping.alpha * self.M + damping.beta * K).tocsr()
        if scheme is IntegrationScheme.BACKWARD_EULER:
            g, b, self.predict_u, self.predict_v = 1.0, 1.0, 0.0, 0.0
        else:
            g, b = NEWMARK_GAMMA, NEWMARK_BETA
            self.predict_u, self.predict_v = dt * dt * (0.5 - b), dt * (1.0 - g)
        self.c0 = 1.0 / (b * dt * dt)
        self.g_dt, self.c1 = g * dt, g * dt * self.c0
        # the right-hand side's diagonal part, on every DOF:
        # m (c0 + alpha c1) u_pred - m alpha v_pred
        dof_masses = np.repeat(self.masses, 3)
        self.mass_u = (self.c0 + damping.alpha * self.c1) * dof_masses
        self.mass_v = damping.alpha * dof_masses
        self.prefact = prefactorize(self.effective_stiffness())

    def effective_stiffness(self) -> sp.csr_matrix:
        """K + c0 M + c1 C, the matrix ``prefact`` factors."""
        return (self.K + self.c0 * self.M + self.c1 * self.C).tocsr()

    @property
    def n_dof(self) -> int:
        return self.free.n_dof


def build_linear_system(mesh: TetMesh, params: MaterialParams, dt: float,
                        scheme: IntegrationScheme = IntegrationScheme.NEWMARK,
                        damping: RayleighDamping = RayleighDamping(),
                        density: float = 1000.0) -> LinearSystem:
    """Assemble and prefactorize the linear-elasticity system on the free DOFs."""
    rest = RestModel(mesh, density)
    return LinearSystem(rest, rest.stiffness(params.as_linear()), dt, scheme, damping)


def step_linear_implicit(system: LinearSystem, state: SimState,
                         f_ext: np.ndarray) -> SimState:
    """One implicit step in displacement form (Newmark's effective-stiffness
    form; Hughes, *The Finite Element Method*, 1987, ch. 9): a single
    back-substitution, no factorization.

    With C = alpha M + beta K, (K + c0 M + c1 C) u_new = f + M ((c0 + alpha
    c1) u_pred - alpha v_pred) + beta K (c1 u_pred - v_pred). The predictors
    and the diagonal part of the right-hand side are formed on the (3n,)
    state, whose anchored entries are exact zeros; the right-hand side is
    gathered to the free DOFs once and u_new scattered back once, and a and
    v follow from it entry by entry, so anchored DOFs stay exactly zero.
    Only stiffness-proportional damping (beta > 0) costs a product with K.
    """
    if len(f_ext) != system.n_dof:
        raise ValueError(f"force vector has {len(f_ext)} entries, expected {system.n_dof}")
    free, dt = system.free, system.dt
    u_pred = state.u + dt * state.v + system.predict_u * state.a
    v_pred = state.v + system.predict_v * state.a
    rhs = free.gather(f_ext + system.mass_u * u_pred - system.mass_v * v_pred)
    if system.damping.beta:
        rhs += system.damping.beta * (system.K @ free.gather(system.c1 * u_pred - v_pred))
    u = free.scatter(system.prefact.solve(rhs))
    a = system.c0 * (u - u_pred)
    return SimState(u=u, v=v_pred + system.g_dt * a, a=a, t=state.t + dt)


def smallest_mode_frequency(K, M, factor) -> float:
    """Estimate sqrt(lambda_min) of K x = lambda M x by inverse power iteration;
    ``factor.solve`` applies K^-1."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(K.shape[0])
    x /= np.linalg.norm(x)
    lam = 1.0
    for _ in range(POWER_ITERATIONS):
        y = factor.solve(M @ x)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            break
        x = y / ny
        lam = float(x @ (K @ x)) / float(x @ (M @ x))
    return float(np.sqrt(max(lam, 0.0)))


@dataclass
class QuasistaticSequence:
    """Damped quasi-static linear loading path; ``displacements[k]`` is the
    k-th emitted linear displacement."""

    displacements: list[np.ndarray]
    target: np.ndarray
    steps_run: int


class QuasistaticDriver:
    """Reusable overdamped-loading context for one (mesh, density).

    Builds its rest model, assembles K_ff once and factorizes K_ff and the
    backward-Euler matrix built from it and M_ff once each (the K_ff factor
    also serves the slowest-mode estimate); ``system.masses`` are the lumped
    masses that loads on the driver read. ``run`` then produces a
    quasi-static sequence per force vector, which is what the training ramp
    exercises many times. The damping is mass-proportional, alpha = 10 omega
    for the slowest mode's frequency omega: a damping ratio of 5 on that mode.
    """

    def __init__(self, mesh: TetMesh, params: MaterialParams, density: float = 1000.0):
        rest = RestModel(mesh, density)
        self.mesh, self.pre = mesh, rest.pre
        K = rest.stiffness(params.as_linear())
        self.static = prefactorize(K)
        omega = smallest_mode_frequency(K, rest.M, self.static)
        if omega <= 0.0:
            raise NotPositiveDefiniteError("anchored system has a zero-frequency mode")
        damping = RayleighDamping(alpha=10.0 * omega, beta=0.0)
        # alpha*dt = 30 keeps per-step acceleration near 1/30 of the load while
        # the slow-mode relaxation still converges in a few dozen steps
        self.dt = 30.0 / max(damping.alpha, 1e-30)
        self.system = LinearSystem(rest, K, self.dt, IntegrationScheme.BACKWARD_EULER,
                                   damping)

    def run(self, f_ext: np.ndarray, n_steps: int) -> QuasistaticSequence:
        """Overdamped loading from rest toward K^-1 f_ext, subsampled to at
        most ``n_steps`` snapshots (always keeping the final, converged one)."""
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        free = self.pre.free
        f = free.gather(f_ext)
        target = free.scatter(self.static.solve(f))
        target_norm = np.linalg.norm(target)
        if target_norm == 0.0:
            return QuasistaticSequence(displacements=[np.zeros_like(target)],
                                       target=target, steps_run=1)
        state = SimState.rest(self.mesh.n_nodes)
        path: list[np.ndarray] = []
        f_norm = np.linalg.norm(f)
        dof_masses = np.repeat(self.system.masses, 3)
        converged = False
        for _ in range(QUASISTATIC_MAX_STEPS):
            state = step_linear_implicit(self.system, state, f_ext)
            accel = dof_masses * state.a
            if np.linalg.norm(accel) > QUASISTATIC_ACCEL_BOUND * f_norm:
                raise ConvergenceError(
                    "quasi-static assumption violated: acceleration exceeds bound",
                    residual=float(np.linalg.norm(accel) / f_norm))
            path.append(state.u.copy())
            if np.linalg.norm(state.u - target) <= QUASISTATIC_REL_TOL * target_norm:
                converged = True
                break
        if not converged:
            res = float(np.linalg.norm(path[-1] - target) / target_norm)
            raise ConvergenceError("quasi-static sequence did not reach equilibrium in "
                                   f"{QUASISTATIC_MAX_STEPS} steps", residual=res)
        keep = np.unique(np.round(np.linspace(0, len(path) - 1,
                                              min(n_steps, len(path)))).astype(int))
        return QuasistaticSequence(displacements=[path[i] for i in keep], target=target,
                                   steps_run=len(path))


class NonlinearSystem:
    """Context of the nonlinear reference integrator on a rest model: ``M``
    and ``C`` are M_ff and C_ff on the free DOFs ``pre.free``, and Rayleigh
    damping uses the rest K_ff of ``params``."""

    def __init__(self, rest: RestModel, params: MaterialParams, damping: RayleighDamping):
        self.params, self.pre, self.M = params, rest.pre, rest.M
        self.C = (damping.alpha * rest.M + damping.beta * rest.stiffness(params)).tocsr()
        # one lagged factor across all steps: the mass term dominates the
        # Newmark matrix, so the last factor preconditions the next tangents
        self.solver = TangentSolver()


def build_nonlinear_system(mesh: TetMesh, params: MaterialParams,
                           damping: RayleighDamping = RayleighDamping(),
                           density: float = 1000.0) -> NonlinearSystem:
    """Ground-truth Newmark context on a fresh rest model."""
    return NonlinearSystem(RestModel(mesh, density), params, damping)


def step_newmark_nonlinear(system: NonlinearSystem, state: SimState,
                           f_ext: np.ndarray, dt: float) -> SimState:
    """One Newmark (gamma=1/2, beta=1/4) step; ``newton_solve`` converges the
    dynamic residual on the free DOFs to NEWTON_RTOL * |f_ext| (NEWTON_ATOL
    when the load vanishes) through ``system.solver``, whose factor carries
    over from the previous iterations and steps.

    Newton starts at the constant-acceleration predictor u + dt v + dt^2/2 a
    (Hughes, *The Finite Element Method*, 1987, ch. 9), one iteration per step
    on a smooth trajectory. When that start inverts an element or Newton from
    it does not converge, Newton runs once more from the previous displacement
    u, and that attempt's result or error is the step's. Raises
    ConvergenceError when Newton does not converge.
    """
    g, b = NEWMARK_GAMMA, NEWMARK_BETA
    pre, free = system.pre, system.pre.free
    f, u0, v0, a0 = (free.gather(x) for x in (f_ext, state.u, state.v, state.a))
    u_pred = u0 + dt * v0 + dt * dt * (0.5 - b) * a0
    v_pred = v0 + dt * (1.0 - g) * a0
    inertia = system.M / (b * dt * dt) + system.C * (g / (b * dt))

    def kinematics(u):
        a = (u - u_pred) / (b * dt * dt)
        v = v_pred + g * dt * a
        return v, a

    def residual(u):
        v, a = kinematics(u)
        return system.M @ a + system.C @ v - pre.free_force(system.params, u) - f

    def tangent(u):
        return inertia + pre.free_stiffness(system.params, u)

    tol = max(NEWTON_RTOL * np.linalg.norm(f), NEWTON_ATOL)
    try:
        res = newton_solve(residual, tangent, u_pred + b * dt * dt * a0, tol,
                           NEWMARK_MAX_NEWTON, system.solver)
    except InvertedElementError:
        res = None
    if res is None or not res.converged:
        res = newton_solve(residual, tangent, u0, tol, NEWMARK_MAX_NEWTON, system.solver)
    if not res.converged:
        raise ConvergenceError(
            f"Newmark inner Newton did not converge in {res.iterations} iterations",
            residual=res.residual)
    v, a = kinematics(res.u)
    return SimState(u=free.scatter(res.u), v=free.scatter(v), a=free.scatter(a),
                    t=state.t + dt)


def write_trajectory_csv(stream, times, tracked_nodes, displacements) -> None:
    """Trajectory output: one `t,node,ux,uy,uz` row per tracked node per step."""
    stream.write("t,node,ux,uy,uz\n")
    for t, u in zip(times, displacements):
        x = u.reshape(-1, 3)
        for node in tracked_nodes:
            p = x[node]
            stream.write(f"{t:.10g},{node},{p[0]:.10g},{p[1]:.10g},{p[2]:.10g}\n")
