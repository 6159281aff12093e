"""Constitutive models: energy density, stress, element force and stiffness.

Four isotropic models share one pair of Lame-style coefficients derived from
Young's modulus ``k`` and Poisson's ratio ``nu`` (mu = k/2(1+nu),
lam = k*nu/(1+nu)(1-2nu)), so all strain-stress curves agree to first order
at the rest state:

* linear       -- quadratic energy in the Cauchy strain sym(G), G = F - I
* corotational -- linear energy form evaluated on the stretch S of F = R S
* stvk         -- quadratic energy in the Green strain (F F^T - I)/2
* neo_hookean  -- mu/2 (I1 - 3) - mu log J + lam/2 log^2 J, J = det F > 0

Sign conventions, used consistently across the package:

* ``element_internal_force`` returns the restoring elastic force, i.e. the
  negative gradient of the element energy w.r.t. corner positions.
* ``element_tangent_stiffness`` returns K = -d(force)/d(u), the energy
  Hessian, so the assembled linear-model K is positive definite once
  anchored and the equation of motion reads M a + C v + K u = f_ext.

All element-level calls are pure functions; batched internals back both the
single-element API and the global assembly. The 3x3 determinant and inverse
transpose come from cofactors (``det_and_inverse_transpose``), not from
``np.linalg``. The 12x12 element tangents of the linear, StVK and neo-Hookean
models are built directly from their closed-form dP(F; dF) contracted with
the corner gradients (Sifakis & Barbic, *FEM Simulation of 3D Deformable
Solids*, SIGGRAPH 2012 course); only the corotational model differentiates
through the polar rotation along twelve basis directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .mesh import TetMesh


class InvertedElementError(Exception):
    """det(F) <= 0 where the model requires an uninverted element."""


class MaterialModel(Enum):
    LINEAR = "linear"
    COROTATIONAL = "corotational"
    STVK = "stvk"
    NEO_HOOKEAN = "neohookean"


@dataclass(frozen=True)
class MaterialParams:
    """Constitutive model selector plus Young's modulus and Poisson's ratio."""

    model: MaterialModel
    youngs: float
    poisson: float

    def __post_init__(self):
        if self.youngs <= 0.0:
            raise ValueError(f"Young's modulus must be positive, got {self.youngs}")
        # nu = 0.5 makes the volumetric coefficient blow up; 0 is legal (cork)
        if not 0.0 <= self.poisson < 0.5:
            raise ValueError(f"Poisson's ratio must lie in [0, 0.5), got {self.poisson}")

    def lame(self) -> tuple[float, float]:
        """(mu, lam) coefficients."""
        mu = self.youngs / (2.0 * (1.0 + self.poisson))
        lam = self.youngs * self.poisson / ((1.0 + self.poisson) * (1.0 - 2.0 * self.poisson))
        return mu, lam

    def as_linear(self) -> "MaterialParams":
        return MaterialParams(MaterialModel.LINEAR, self.youngs, self.poisson)


@dataclass(frozen=True)
class ElementPrecomp:
    """Per-element rest-shape precomputation for linear tets.

    ``inv_rest_edges`` is the inverse of the 3x3 rest edge matrix
    [r1-r0, r2-r0, r3-r0] (columns); ``corner_grads`` holds the constant
    shape-function gradient row for each of the four corners.
    """

    inv_rest_edges: np.ndarray   # (3, 3)
    volume: float
    corner_grads: np.ndarray     # (4, 3)


def element_precomp(rest_positions: np.ndarray) -> ElementPrecomp:
    rest = np.asarray(rest_positions, dtype=np.float64)
    dm = (rest[1:] - rest[0]).T
    vol = np.linalg.det(dm) / 6.0
    if vol <= 0.0:
        raise ValueError(f"element has non-positive rest volume {vol}")
    dm_inv = np.linalg.inv(dm)
    grads = np.empty((4, 3))
    grads[1:] = dm_inv
    grads[0] = -dm_inv.sum(axis=0)
    return ElementPrecomp(inv_rest_edges=dm_inv, volume=vol, corner_grads=grads)


class MeshPrecomp:
    """Batched rest-shape precomputation for every tet of a mesh.

    Also caches the scatter indices and anchor masks used by the global
    assembly, which dominate the cost of repeated stiffness builds.
    """

    def __init__(self, mesh: TetMesh):
        rest = mesh.nodes[mesh.tets]                       # (m, 4, 3)
        dm = np.swapaxes(rest[:, 1:] - rest[:, :1], 1, 2)  # (m, 3, 3) edge columns
        self.volumes = np.linalg.det(dm) / 6.0
        if np.any(self.volumes <= 0.0):
            bad = int(np.argmax(self.volumes <= 0.0))
            raise ValueError(f"element {bad} has non-positive rest volume")
        self.inv_rest_edges = np.linalg.inv(dm)            # (m, 3, 3)
        grads = np.empty((len(dm), 4, 3))
        grads[:, 1:] = self.inv_rest_edges
        grads[:, 0] = -self.inv_rest_edges.sum(axis=1)
        self.corner_grads = grads
        m = len(dm)
        dof = (mesh.tets[:, :, None] * 3 + np.arange(3)).reshape(m, 12)
        self._rows = np.repeat(dof, 12, axis=1).ravel()
        self._cols = np.tile(dof, (1, 12)).ravel()
        self._force_dofs = dof.ravel()
        self._n_dof = 3 * mesh.n_nodes
        anchor_dofs = (mesh.anchor_array()[:, None] * 3 + np.arange(3)).ravel()
        self._anchor_dofs = anchor_dofs
        anchored = np.zeros(self._n_dof, dtype=bool)
        anchored[anchor_dofs] = True
        self._interior_entry = ~(anchored[self._rows] | anchored[self._cols])
        self._csr_cache: dict = {}

    def _csr_pattern(self, anchored: bool):
        """Fixed sparsity pattern plus the entry->slot scatter map."""
        hit = self._csr_cache.get(anchored)
        if hit is not None:
            return hit
        n = self._n_dof
        if anchored and len(self._anchor_dofs):
            rows = np.concatenate([self._rows, self._anchor_dofs])
            cols = np.concatenate([self._cols, self._anchor_dofs])
        else:
            rows, cols = self._rows, self._cols
        proto = sp.coo_matrix((np.ones(len(rows)), (rows, cols)),
                              shape=(n, n)).tocsr()
        proto.sort_indices()
        keys_csr = (np.repeat(np.arange(n), np.diff(proto.indptr)).astype(np.int64) * n
                    + proto.indices)
        slots = np.searchsorted(keys_csr, rows.astype(np.int64) * n + cols)
        hit = (proto.indptr, proto.indices, slots, len(keys_csr))
        self._csr_cache[anchored] = hit
        return hit


def deformation_gradient(precomp: ElementPrecomp, deformed_positions: np.ndarray) -> np.ndarray:
    """F = (deformed edge matrix) @ (inverse rest edge matrix)."""
    x = np.asarray(deformed_positions, dtype=np.float64)
    ds = (x[1:] - x[0]).T
    return ds @ precomp.inv_rest_edges


def displacement_gradient(precomp: ElementPrecomp, deformed_positions: np.ndarray) -> np.ndarray:
    """G = F - I."""
    return deformation_gradient(precomp, deformed_positions) - np.eye(3)


# ---------------------------------------------------------------------------
# closed-form 3x3 determinant, inverse and cross-product matrix
# ---------------------------------------------------------------------------

def det_and_inverse_transpose(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det F and F^-T = cof(F) / det F for a stack of 3x3 matrices (..., 3, 3).

    Entries where det F = 0 come back non-finite without a warning; callers
    that need an invertible F check the determinant first.
    """
    (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(F, (-2, -1), (0, 1))
    cof = np.array([[e * i - f * h, f * g - d * i, d * h - e * g],
                    [h * c - i * b, i * a - g * c, g * b - h * a],
                    [b * f - c * e, c * d - a * f, a * e - b * d]])
    J = a * cof[0, 0] + b * cof[0, 1] + c * cof[0, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        return J, np.ascontiguousarray(np.moveaxis(cof / J, (0, 1), (-2, -1)))


def skew(w: np.ndarray) -> np.ndarray:
    """Cross-product matrices [w]x with [w]x v = w x v, batched over the
    leading axes: (..., 3) -> (..., 3, 3)."""
    w = np.asarray(w, dtype=np.float64)
    K = np.zeros(w.shape[:-1] + (3, 3))
    K[..., 0, 1] = -w[..., 2]
    K[..., 0, 2] = w[..., 1]
    K[..., 1, 0] = w[..., 2]
    K[..., 1, 2] = -w[..., 0]
    K[..., 2, 0] = -w[..., 1]
    K[..., 2, 1] = w[..., 0]
    return K


def skew_quadratic(w: np.ndarray, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """I + c1 [w]x + c2 [w]x^2 per row, (n, 3) with (n,) coefficients ->
    (n, 3, 3), written entry by entry through [w]x^2 = w w^T - |w|^2 I.

    The result is a view of a component-major (3, 3, n) array, so each entry
    is one contiguous column.
    """
    x, y, z = np.asarray(w, dtype=np.float64).T
    xx, yy, zz = x * x, y * y, z * z
    a, b, c = c1 * x, c1 * y, c1 * z
    xy, xz, yz = c2 * x * y, c2 * x * z, c2 * y * z
    out = np.empty((3, 3, len(x)))
    out[0, 0] = 1.0 - c2 * (yy + zz)
    out[1, 1] = 1.0 - c2 * (xx + zz)
    out[2, 2] = 1.0 - c2 * (xx + yy)
    out[0, 1] = xy - c
    out[1, 0] = xy + c
    out[0, 2] = xz + b
    out[2, 0] = xz - b
    out[1, 2] = yz - a
    out[2, 1] = yz + a
    return out.transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# polar decomposition
# ---------------------------------------------------------------------------

def polar_decompose(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation/stretch factors of a single 3x3 matrix (F = R S)."""
    R, S = polar_decompose_batch(np.asarray(F, dtype=np.float64)[None])
    return R[0], S[0]


def polar_decompose_batch(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched polar decomposition.

    Newton iteration R <- (R + R^-T)/2 to 1e-10 for det(F) > 0; an SVD-based
    construction (proper rotation, sign pushed into S) handles det(F) <= 0.
    """
    F = np.asarray(F, dtype=np.float64)
    dets, _ = det_and_inverse_transpose(F)
    R = np.empty_like(F)
    good = dets > 1e-12
    if np.any(good):
        Rg = F[good].copy()
        for _ in range(60):
            Rg_next = 0.5 * (Rg + det_and_inverse_transpose(Rg)[1])
            delta = np.abs(Rg_next - Rg).max()
            Rg = Rg_next
            if delta < 1e-10:
                break
        R[good] = Rg
    if np.any(~good):
        U, _, Vt = np.linalg.svd(F[~good])
        Rb = U @ Vt
        neg = np.linalg.det(Rb) < 0.0
        if np.any(neg):
            U2 = U[neg].copy()
            U2[:, :, 2] *= -1.0
            Rb[neg] = U2 @ Vt[neg]
        R[~good] = Rb
    S = np.swapaxes(R, 1, 2) @ F
    S = 0.5 * (S + np.swapaxes(S, 1, 2))
    return R, S


# ---------------------------------------------------------------------------
# batched constitutive kernels
# ---------------------------------------------------------------------------

_EYE = np.eye(3)


def _neo_hookean_invariants(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(det F, F^-T) of a batch; raises InvertedElementError where det F <= 0."""
    J, B = det_and_inverse_transpose(F)
    if np.any(J <= 0.0):
        bad = int(np.argmax(J <= 0.0))
        raise InvertedElementError(
            f"neo-hookean element {bad} inverted (det F = {J.flat[bad]:.3e})")
    return J, B


def _stvk_stress_factor(F: np.ndarray, mu: float, lam: float) -> np.ndarray:
    """T = 2 mu E + lam tr(E) I with E = (F F^T - I)/2, so that P = T F."""
    E = 0.5 * (F @ np.swapaxes(F, 1, 2) - _EYE)
    tr = np.trace(E, axis1=1, axis2=2)
    return 2.0 * mu * E + lam * tr[:, None, None] * _EYE


def energy_density_batch(params: MaterialParams, F: np.ndarray) -> np.ndarray:
    F = np.asarray(F, dtype=np.float64)
    mu, lam = params.lame()
    model = params.model
    if model is MaterialModel.LINEAR:
        G = F - _EYE
        eps = 0.5 * (G + np.swapaxes(G, 1, 2))
        tr = np.trace(eps, axis1=1, axis2=2)
        return mu * np.einsum("nij,nij->n", eps, eps) + 0.5 * lam * tr * tr
    if model is MaterialModel.STVK:
        E = 0.5 * (F @ np.swapaxes(F, 1, 2) - _EYE)
        tr = np.trace(E, axis1=1, axis2=2)
        return mu * np.einsum("nij,nij->n", E, E) + 0.5 * lam * tr * tr
    if model is MaterialModel.NEO_HOOKEAN:
        J, _ = _neo_hookean_invariants(F)
        i1 = np.einsum("nij,nij->n", F, F)
        logj = np.log(J)
        return 0.5 * mu * (i1 - 3.0) - mu * logj + 0.5 * lam * logj * logj
    if model is MaterialModel.COROTATIONAL:
        _, S = polar_decompose_batch(F)
        D = S - _EYE
        tr = np.trace(D, axis1=1, axis2=2)
        return mu * np.einsum("nij,nij->n", D, D) + 0.5 * lam * tr * tr
    raise ValueError(f"unknown material model {model}")


def piola_stress_batch(params: MaterialParams, F: np.ndarray) -> np.ndarray:
    F = np.asarray(F, dtype=np.float64)
    mu, lam = params.lame()
    model = params.model
    if model is MaterialModel.LINEAR:
        G = F - _EYE
        tr = np.trace(G, axis1=1, axis2=2)
        return mu * (G + np.swapaxes(G, 1, 2)) + lam * tr[:, None, None] * _EYE
    if model is MaterialModel.STVK:
        return _stvk_stress_factor(F, mu, lam) @ F
    if model is MaterialModel.NEO_HOOKEAN:
        J, B = _neo_hookean_invariants(F)
        logj = np.log(J)[:, None, None]
        return mu * (F - B) + lam * logj * B
    if model is MaterialModel.COROTATIONAL:
        R, S = polar_decompose_batch(F)
        D = S - _EYE
        tr = np.trace(D, axis1=1, axis2=2)
        T = 2.0 * mu * D + lam * tr[:, None, None] * _EYE
        return R @ T
    raise ValueError(f"unknown material model {model}")


def piola_stress_differential_batch(params: MaterialParams, F: np.ndarray,
                                    dF: np.ndarray) -> np.ndarray:
    """dP(F; dF) for batched F (m,3,3) against batched directions (m,k,3,3).

    The linear, StVK and neo-Hookean models use their closed forms. The
    corotational model differentiates through the polar rotation exactly, so
    element stiffnesses match finite-differenced forces for all models.
    """
    F = np.asarray(F, dtype=np.float64)
    dF = np.asarray(dF, dtype=np.float64)
    mu, lam = params.lame()
    model = params.model
    dFt = np.swapaxes(dF, 2, 3)
    if model is MaterialModel.LINEAR:
        tr = np.trace(dF, axis1=2, axis2=3)
        return mu * (dF + dFt) + lam * tr[..., None, None] * _EYE
    if model is MaterialModel.STVK:
        Fk = F[:, None]
        FdFt = Fk @ dFt
        trdE = np.einsum("npq,nkpq->nk", F, dF)
        dT = mu * (FdFt + np.swapaxes(FdFt, 2, 3)) + lam * trdE[..., None, None] * _EYE
        return dT @ Fk + _stvk_stress_factor(F, mu, lam)[:, None] @ dF
    if model is MaterialModel.NEO_HOOKEAN:
        J, B = _neo_hookean_invariants(F)
        Bk = B[:, None]
        BdF = np.einsum("npq,nkpq->nk", B, dF)
        return (mu * dF + (mu - lam * np.log(J))[:, None, None, None] * (Bk @ dFt @ Bk)
                + lam * BdF[..., None, None] * Bk)
    if model is not MaterialModel.COROTATIONAL:
        raise ValueError(f"unknown material model {model}")
    R, S = polar_decompose_batch(F)
    D = S - _EYE
    trD = np.trace(D, axis1=1, axis2=2)
    T = 2.0 * mu * D + lam * trD[:, None, None] * _EYE
    # rotation differential: (tr(S) I - S) w = axial(R^T dF - dF^T R)
    L = np.trace(S, axis1=1, axis2=2)[:, None, None] * _EYE - S
    RtdF = np.einsum("nqp,nkqs->nkps", R, dF)           # R^T dF per direction
    asym = RtdF - np.swapaxes(RtdF, 2, 3)
    rhs = np.stack([asym[..., 2, 1], asym[..., 0, 2], asym[..., 1, 0]], axis=-1)
    try:
        Linv = np.linalg.inv(L)
    except np.linalg.LinAlgError:
        Linv = np.linalg.pinv(L)
    W = skew(np.einsum("nab,nkb->nka", Linv, rhs))
    dS = RtdF - np.einsum("nkab,nbc->nkac", W, S)
    trdS = np.trace(dS, axis1=2, axis2=3)
    dT = 2.0 * mu * dS + lam * trdS[..., None, None] * _EYE
    dR = np.einsum("nab,nkbc->nkac", R, W)
    return np.einsum("nkab,nbc->nkac", dR, T) + np.einsum("nab,nkbc->nkac", R, dT)


# ---------------------------------------------------------------------------
# single-element API
# ---------------------------------------------------------------------------

def energy_density(params: MaterialParams, F: np.ndarray) -> float:
    """Strain energy per unit rest volume at deformation gradient F."""
    return float(energy_density_batch(params, np.asarray(F, dtype=np.float64)[None])[0])


def piola_stress(params: MaterialParams, F: np.ndarray) -> np.ndarray:
    """First Piola-Kirchhoff stress P = dPsi/dF."""
    return piola_stress_batch(params, np.asarray(F, dtype=np.float64)[None])[0]


def element_internal_force(params: MaterialParams, precomp: ElementPrecomp,
                           deformed_positions: np.ndarray) -> np.ndarray:
    """Restoring elastic forces on the four corners, shape (4, 3); they sum to zero."""
    F = deformation_gradient(precomp, deformed_positions)
    P = piola_stress_batch(params, F[None])[0]
    return -precomp.volume * precomp.corner_grads @ P.T


def element_tangent_stiffness(params: MaterialParams, precomp: ElementPrecomp,
                              deformed_positions: np.ndarray) -> np.ndarray:
    """12x12 element stiffness K = -d(force)/d(u) (energy Hessian), symmetric."""
    F = deformation_gradient(precomp, deformed_positions)
    return _element_stiffness_batch(params, F[None], precomp.corner_grads[None],
                                    np.array([precomp.volume]))[0]


def _element_stiffness_batch(params: MaterialParams, F: np.ndarray,
                             corner_grads: np.ndarray, volumes: np.ndarray) -> np.ndarray:
    """Batched 12x12 stiffness blocks, DOF order (corner, component).

    Moving corner b along e_r changes F by e_r g_b^T, so
    K[(a,p),(b,r)] = V dP(F; e_r g_b^T)_pq g_a,q. With h_a = H g_a the linear,
    StVK and neo-Hookean blocks all read

        V [s_ab d_pr + c h_b,p h_a,r + lam h_a,p h_b,r + T_pr (g_a . g_b)]

    with (H, s_ab, c, T) = (I, mu g_a.g_b, mu, 0) for linear,
    (F, mu h_a.h_b, mu, 2 mu E + lam tr(E) I) for StVK and
    (F^-T, mu g_a.g_b, mu - lam log J, 0) for neo-Hookean. The corotational
    model contracts its differential along the twelve basis directions.
    """
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
        T = _stvk_stress_factor(F, mu, lam)
    elif model is MaterialModel.NEO_HOOKEAN:
        J, B = _neo_hookean_invariants(F)
        h = g @ np.swapaxes(B, 1, 2)
        s, c = mu * gg, mu - lam * np.log(J)
    else:
        raise ValueError(f"unknown material model {model}")
    # Blocks are built as K[a,p,b,r,n], element axis last: every elementwise
    # pass then runs over long contiguous rows instead of 3-wide ones.
    hT = np.ascontiguousarray(h.transpose(1, 2, 0))
    O = hT[:, :, None, None] * hT                           # h_a,p h_b,r
    K = O * (lam * volumes)
    K += O.transpose(2, 1, 0, 3, 4) * (c * volumes)         # h_b,p h_a,r
    diag = (s * volumes[:, None, None]).transpose(1, 2, 0)
    for p in range(3):
        K[:, p, :, p] += diag
    if T is not None:
        ggv = (gg * volumes[:, None, None]).transpose(1, 2, 0)
        K += ggv[:, None, :, None] * T.transpose(1, 2, 0)[None, :, None]
    return np.ascontiguousarray(K.reshape(144, m).T).reshape(m, 12, 12)


def total_elastic_energy(mesh: TetMesh, params: MaterialParams, u: np.ndarray,
                         pre: MeshPrecomp | None = None) -> float:
    pre = pre or MeshPrecomp(mesh)
    F = _batched_gradients(mesh, pre, u)
    return float(np.dot(pre.volumes, energy_density_batch(params, F)))


def _batched_gradients(mesh: TetMesh, pre: MeshPrecomp, u: np.ndarray) -> np.ndarray:
    x = mesh.nodes + u.reshape(-1, 3)
    corners = x[mesh.tets]
    ds = np.swapaxes(corners[:, 1:] - corners[:, :1], 1, 2)
    return ds @ pre.inv_rest_edges


# ---------------------------------------------------------------------------
# global assembly
# ---------------------------------------------------------------------------

def assemble_force(mesh: TetMesh, params: MaterialParams, u: np.ndarray,
                   pre: MeshPrecomp | None = None, anchored: bool = True) -> np.ndarray:
    """Global restoring force vector (3n,), scatter-added from elements.

    With ``anchored`` the entries of Dirichlet-fixed DOFs are zeroed.
    """
    pre = pre or MeshPrecomp(mesh)
    F = _batched_gradients(mesh, pre, u)
    P = piola_stress_batch(params, F)
    forces = -pre.volumes[:, None, None] * (pre.corner_grads @ np.swapaxes(P, 1, 2))
    out = np.bincount(pre._force_dofs, weights=forces.ravel(), minlength=pre._n_dof)
    if anchored:
        out[pre._anchor_dofs] = 0.0
    return out


def assemble_stiffness(mesh: TetMesh, params: MaterialParams, u: np.ndarray,
                       pre: MeshPrecomp | None = None, anchored: bool = True) -> sp.csr_matrix:
    """Global sparse stiffness K = -d(force)/d(u); anchored rows/cols are
    eliminated to the identity when ``anchored``."""
    pre = pre or MeshPrecomp(mesh)
    F = _batched_gradients(mesh, pre, u)
    vals = _element_stiffness_batch(params, F, pre.corner_grads, pre.volumes).reshape(-1)
    use_anchor = anchored and len(pre._anchor_dofs) > 0
    if use_anchor:
        vals = np.concatenate([np.where(pre._interior_entry, vals, 0.0),
                               np.ones(len(pre._anchor_dofs))])
    indptr, indices, slots, nnz = pre._csr_pattern(use_anchor)
    data = np.bincount(slots, weights=vals, minlength=nnz)
    return sp.csr_matrix((data, indices, indptr),
                         shape=(pre._n_dof, pre._n_dof))
