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
  Hessian. ``assemble_force`` returns all 3n entries of the global force.
  ``assemble_stiffness`` returns the Hessian with the anchored rows and
  columns replaced by the identity; its free block K_ff
  (``MeshPrecomp.free_block``) is what every solver factorizes. For the
  linear model K_ff is positive definite and the equation of motion on the
  free DOFs reads M_ff a + C_ff v + K_ff u = f_ext.

All element-level calls are pure functions; batched internals back both the
single-element API and the global assembly. The 3x3 determinant and inverse
transpose come from cofactors (``det_and_inverse_transpose``), not from
``np.linalg``.

The global assembly runs on two sparse structures that ``MeshPrecomp``
builds once per mesh (Sifakis & Barbic, *FEM Simulation of 3D Deformable
Solids*, SIGGRAPH 2012 course):

* the element-gradient operator D, with vec(F - I) = D u for all elements
  at once: F is one sparse product, the force f = -D^T vec(V P) another, and
  ``total_elastic_energy`` sums V Psi(F) over the same F;
* the stiffness pattern, the CSR node graph in 3x3 node blocks whose
  numbered slots one scipy BSR-to-CSR conversion places (K_ff's pattern is
  one scipy slice of them). One batched kernel writes the 78 upper-triangle
  entries of every 12x12 element block; they are summed into the upper
  slots (row <= column) of the pattern and mirrored by one gather, so K is
  exactly symmetric. The linear, StVK and neo-Hookean entries come from
  their closed-form dP(F; dF) contracted with the corner gradients; only the
  corotational model differentiates through the polar rotation along twelve
  basis directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import TetMesh, tet_node_graph


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
        if not (np.isfinite(self.youngs) and self.youngs > 0.0):
            raise ValueError(f"Young's modulus must be finite and positive, "
                             f"got {self.youngs}")
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
    det, inv_t = det_and_inverse_transpose((rest[1:] - rest[0]).T)
    vol = float(det) / 6.0
    if vol <= 0.0:
        raise ValueError(f"element has non-positive rest volume {vol}")
    grads = np.empty((4, 3))
    grads[1:] = inv_t.T
    grads[0] = -inv_t.sum(axis=1)
    return ElementPrecomp(inv_rest_edges=inv_t.T, volume=vol, corner_grads=grads)


# The 78 upper-triangle entries (I <= J) of a 12x12 element block in DOF
# order (corner, component): the nine entries of each corner pair a < b,
# then the six upper ones of each diagonal block a = b. Entry k couples
# component _ENTRY_P[k] of corner _CORNER_PAIRS[_ENTRY_PAIR[k], 0] with
# component _ENTRY_R[k] of corner _CORNER_PAIRS[_ENTRY_PAIR[k], 1].
_CORNER_PAIRS = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                          (0, 0), (1, 1), (2, 2), (3, 3)])
_UPPER3_P, _UPPER3_R = np.triu_indices(3)
_ENTRY_PAIR = np.concatenate([np.repeat(np.arange(6), 9), np.repeat(np.arange(6, 10), 6)])
_ENTRY_P = np.concatenate([np.tile(np.repeat(np.arange(3), 3), 6), np.tile(_UPPER3_P, 4)])
_ENTRY_R = np.concatenate([np.tile(np.tile(np.arange(3), 3), 6), np.tile(_UPPER3_R, 4)])
_UPPER_ROW = 3 * _CORNER_PAIRS[_ENTRY_PAIR, 0] + _ENTRY_P
_UPPER_COL = 3 * _CORNER_PAIRS[_ENTRY_PAIR, 1] + _ENTRY_R


class MeshPrecomp:
    """Rest-shape precomputation for every tet of a mesh, and the two sparse
    structures of the global assembly.

    ``volumes`` holds the rest volumes and ``corner_grads`` the constant
    shape-function gradients g_a, (4, 3, m) with the element axis last.
    ``grad`` is the element-gradient operator D (9m x 3n, four entries per
    row): vec(F - I) = D u, stored component-major as (3, 3, m), and the
    force is f = -D^T vec(V P). The stiffness pattern is the CSR node graph
    ``mesh.tet_node_graph`` in 3x3 blocks, converted to CSR by scipy, each
    element entry found in the block of its node pair (``_csr_pattern``).
    ``free`` holds the mesh's free DOFs, and ``free_block`` restricts an
    assembled stiffness to them through the free rows and columns of the
    pattern's slot numbers (``_free_pattern``).
    """

    def __init__(self, mesh: TetMesh):
        self._tets = mesh.tets
        self._n_nodes = mesh.n_nodes
        m, n = len(mesh.tets), mesh.n_nodes
        if not m:
            raise ValueError("mesh has no tetrahedra")
        rest = mesh.nodes[mesh.tets]                       # (m, 4, 3)
        det, inv_t = det_and_inverse_transpose(
            np.swapaxes(rest[:, 1:] - rest[:, :1], 1, 2))  # edge columns
        self.volumes = det / 6.0
        if np.any(self.volumes <= 0.0):
            bad = int(np.argmax(self.volumes <= 0.0))
            raise ValueError(f"element {bad} has non-positive rest volume")
        g = np.empty((4, 3, m))
        g[1:] = inv_t.transpose(2, 1, 0)                   # rows of the inverse
        g[0] = -g[1:].sum(axis=0)
        self.corner_grads = g
        self._gram = _gram(g, self.volumes)
        # row (3i + j) m + e of D holds g_a,j at column 3 tet[e, a] + i
        cols = 3 * mesh.tets[None, None] + np.arange(3)[:, None, None, None]
        vals = np.broadcast_to(g.transpose(1, 2, 0)[None], (3, 3, m, 4))
        self.grad = sp.csr_matrix(
            (vals.ravel(), np.broadcast_to(cols, (3, 3, m, 4)).ravel(),
             np.arange(0, 36 * m + 1, 4)), shape=(9 * m, 3 * n))
        self._grad_t = self.grad.T.tocsr()
        self._n_dof = 3 * n
        self.free = mesh.free_dofs()

    def _gradients(self, u: np.ndarray) -> np.ndarray:
        """Deformation gradients at displacement u, component-major (3, 3, m)."""
        F = (self.grad @ u).reshape(3, 3, -1)
        for i in range(3):
            F[i, i] += 1.0
        return F

    @cached_property
    def _csr_pattern(self):
        """The stiffness pattern: ``tet_node_graph`` (its diagonal kept) in
        3x3 node blocks.

        Block k of the graph, numbered in CSR order, holds its entry (p, r)
        at block slot 9k + 3p + r; one BSR-to-CSR conversion of those slot
        numbers gives the 3n x 3n CSR and the CSR position of every block
        slot. Returns indptr, indices, the row of every CSR slot, the slot of
        each upper-triangle element entry ((78, m) flattened, always an upper
        slot: row <= column) and the gather that fills every slot from its
        upper twin.
        """
        graph = tet_node_graph(self._tets, self._n_nodes)
        n, nnz = 3 * self._n_nodes, 9 * graph.nnz
        position = sp.csr_array((np.arange(graph.nnz), graph.indices, graph.indptr), graph.shape)
        slots = sp.bsr_matrix((np.arange(nnz).reshape(-1, 3, 3), graph.indices, graph.indptr),
                              shape=(n, n)).tocsr()
        at = np.empty(nnz, dtype=np.int64)     # block slot -> CSR slot (scipy keeps slot 0)
        at[slots.data] = np.arange(nnz)
        # the transpose of entry (p, r) of block (i, j) is entry (r, p) of
        # block (j, i); of a slot and its transpose, the upper one comes
        # first in row order
        rows = np.repeat(np.arange(self._n_nodes), np.diff(graph.indptr))
        transpose = (9 * position[graph.indices, rows][:, None, None]
                     + 3 * np.arange(3) + np.arange(3)[:, None])   # [k, p, r]: 9k' + 3r + p
        mirror = np.minimum(np.arange(nnz), at[transpose.ravel()[slots.data]])
        # element entry (p, r) of corner pair (a, b) is entry (p, r) of block
        # (tet[a], tet[b]); the mirror gives its upper twin
        na, nb = self._tets.T[_CORNER_PAIRS.T]                     # (10, m) each
        block = position[na.ravel(), nb.ravel()].reshape(na.shape)
        upper = mirror[at[9 * block[_ENTRY_PAIR] + (3 * _ENTRY_P + _ENTRY_R)[:, None]]]
        index = np.int32 if nnz < 2**31 else np.int64
        return (slots.indptr.astype(index), slots.indices.astype(index),
                np.repeat(np.arange(n), np.diff(slots.indptr)), upper.ravel(), mirror)

    @cached_property
    def _free_pattern(self):
        """The slots of the free-free entries in the CSR order of K_ff, with
        its index arrays, and the other slots with their values in the
        eliminated matrix (1 on the diagonal, 0 elsewhere)."""
        indptr, indices, row, _, _ = self._csr_pattern
        free = self.free.index
        # the slot numbers' CSR (slot 0 is an explicit zero, which scipy keeps)
        slots = sp.csr_matrix((np.arange(len(indices)), indices, indptr),
                              shape=(self._n_dof, self._n_dof))[free][:, free]
        kept = np.zeros(len(indices), dtype=bool)
        kept[slots.data] = True
        fixed = np.flatnonzero(~kept)
        return (slots.data, slots.indices.astype(np.int64), slots.indptr.astype(np.int64),
                fixed, (row[fixed] == indices[fixed]).astype(np.float64))

    def free_block(self, K: sp.csr_matrix) -> sp.csr_matrix:
        """K_ff: the free rows and columns of a stiffness that
        ``assemble_stiffness`` built with this precomputation, by one gather
        of its data."""
        keep, indices, indptr, _, _ = self._free_pattern
        nf = len(self.free.index)
        return sp.csr_matrix((K.data[keep], indices, indptr), shape=(nf, nf))


def deformation_gradient(precomp: ElementPrecomp, deformed_positions: np.ndarray) -> np.ndarray:
    """F = (deformed edge matrix) @ (inverse rest edge matrix)."""
    x = np.asarray(deformed_positions, dtype=np.float64)
    ds = (x[1:] - x[0]).T
    return ds @ precomp.inv_rest_edges


# ---------------------------------------------------------------------------
# closed-form 3x3 determinant, inverse and cross-product matrix
# ---------------------------------------------------------------------------

def det_and_inverse_transpose(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det F and F^-T = cof(F) / det F for a stack of 3x3 matrices (..., 3, 3).

    Entries where det F = 0 come back non-finite without a warning; callers
    that need an invertible F check the determinant first.
    """
    J, B = _det_and_inverse_transpose_cm(np.moveaxis(F, (-2, -1), (0, 1)))
    return J, np.ascontiguousarray(np.moveaxis(B, (0, 1), (-2, -1)))


def _det_and_inverse_transpose_cm(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``det_and_inverse_transpose`` of a component-major (3, 3, ...) stack,
    returning F^-T in the same layout."""
    (a, b, c), (d, e, f), (g, h, i) = F
    cof = np.array([[e * i - f * h, f * g - d * i, d * h - e * g],
                    [h * c - i * b, i * a - g * c, g * b - h * a],
                    [b * f - c * e, c * d - a * f, a * e - b * d]])
    J = a * cof[0, 0] + b * cof[0, 1] + c * cof[0, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        return J, cof / J


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
    _check_uninverted(J)
    return J, B


def _check_uninverted(J: np.ndarray) -> None:
    if np.any(J <= 0.0):
        bad = int(np.argmax(J <= 0.0))
        raise InvertedElementError(
            f"neo-hookean element {bad} inverted (det F = {J.flat[bad]:.3e})")


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
        # componentwise on (3, 3, m), where the assembly's F is contiguous
        Fc = np.moveaxis(F, (1, 2), (0, 1))
        J, B = _det_and_inverse_transpose_cm(Fc)
        _check_uninverted(J)
        return np.moveaxis(mu * Fc + (lam * np.log(J) - mu) * B, (0, 1), (1, 2))
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
    g, volume = precomp.corner_grads[:, :, None], np.array([precomp.volume])
    upper = _stiffness_upper(params, F[:, :, None], g, volume, _gram(g, volume))[:, 0]
    K = np.empty((12, 12))
    K[_UPPER_ROW, _UPPER_COL] = upper
    K[_UPPER_COL, _UPPER_ROW] = upper
    return K


def _times(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """h_a = H g_a for every corner, (3, 3, m) with (4, 3, m) -> (4, 3, m)."""
    return H[:, 0] * g[:, None, 0] + H[:, 1] * g[:, None, 1] + H[:, 2] * g[:, None, 2]


def _gram(g: np.ndarray, volumes: np.ndarray) -> np.ndarray:
    """V g_a . g_b for the corner pairs of ``_CORNER_PAIRS``, (10, m)."""
    return volumes * (g[_CORNER_PAIRS[:, 0]] * g[_CORNER_PAIRS[:, 1]]).sum(axis=1)


def _stiffness_upper(params: MaterialParams, F: np.ndarray, g: np.ndarray,
                     volumes: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """The 78 upper-triangle entries (``_UPPER_ROW``, ``_UPPER_COL``) of every
    12x12 element stiffness, (78, m) with the element axis last, from
    component-major gradients F (3, 3, m), corner gradients g (4, 3, m) and
    their rest-state ``_gram``.

    Moving corner b along e_r changes F by e_r g_b^T, so
    K[(a,p),(b,r)] = V dP(F; e_r g_b^T)_pq g_a,q. With h_a = H g_a the linear,
    StVK and neo-Hookean blocks all read

        V [s_ab d_pr + c h_b,p h_a,r + lam h_a,p h_b,r + T_pr (g_a . g_b)]

    with (H, s_ab, c, T) = (I, mu g_a.g_b, mu, 0) for linear,
    (F, mu h_a.h_b, mu, 2 mu E + lam tr(E) I) for StVK and
    (F^-T, mu g_a.g_b, mu - lam log J, 0) for neo-Hookean. The corotational
    model contracts its differential along the twelve basis directions.
    """
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
        T = _stvk_stress_factor(F.transpose(2, 0, 1), mu, lam).transpose(1, 2, 0)
    elif model is MaterialModel.NEO_HOOKEAN:
        J, B = _det_and_inverse_transpose_cm(F)
        _check_uninverted(J)
        h, c = _times(B, g), mu - lam * np.log(J)
    else:
        raise ValueError(f"unknown material model {model}")
    a, b = _CORNER_PAIRS[:6].T
    sv = mu * (_gram(h, volumes) if model is MaterialModel.STVK else gram)
    lh, ch = (lam * volumes) * h, (c * volumes) * h
    K = np.empty((78, m))
    off = K[:54].reshape(6, 3, 3, m)                      # corner pairs a < b
    np.multiply(lh[a, :, None], h[b, None], out=off)
    off += ch[b, :, None] * h[a, None]
    diag = K[54:].reshape(4, 6, m)                        # diagonal blocks, p <= r
    np.multiply((lh + ch)[:, _UPPER3_P], h[:, _UPPER3_R], out=diag)
    for p in range(3):
        off[:, p, p] += sv[:6]
    diag[:, _UPPER3_P == _UPPER3_R] += sv[6:, None]
    if T is not None:
        off += gram[:6, None, None] * T
        diag += gram[6:, None] * T[_UPPER3_P, _UPPER3_R]
    return K


def total_elastic_energy(mesh: TetMesh, params: MaterialParams, u: np.ndarray,
                         pre: MeshPrecomp) -> float:
    F = pre._gradients(u).transpose(2, 0, 1)
    return float(np.dot(pre.volumes, energy_density_batch(params, F)))


# ---------------------------------------------------------------------------
# global assembly
# ---------------------------------------------------------------------------

def assemble_force(mesh: TetMesh, params: MaterialParams, u: np.ndarray,
                   pre: MeshPrecomp) -> np.ndarray:
    """Global restoring force vector (3n,): f = -D^T vec(V P)."""
    P = piola_stress_batch(params, pre._gradients(u).transpose(2, 0, 1))
    return pre._grad_t @ (P.transpose(1, 2, 0) * -pre.volumes).ravel()


def assemble_stiffness(mesh: TetMesh, params: MaterialParams, u: np.ndarray,
                       pre: MeshPrecomp | None = None) -> sp.csr_matrix:
    """Global sparse stiffness of the anchored problem, (3n, 3n).

    The free rows and columns hold K = -d(force)/d(u) (``free_block``
    gathers them as K_ff); the rows and columns of anchored DOFs are those
    of the identity, so the matrix is nonsingular once the mesh is anchored
    and a solve with it leaves anchored DOFs at their right-hand side. On a
    mesh without anchors it is the full energy Hessian. The element entries
    are summed into the upper slots only and mirrored, so K is exactly
    symmetric.
    """
    pre = pre or MeshPrecomp(mesh)
    vals = _stiffness_upper(params, pre._gradients(u), pre.corner_grads, pre.volumes,
                            pre._gram)
    indptr, indices, _, upper, mirror = pre._csr_pattern
    data = np.bincount(upper, weights=vals.ravel(), minlength=len(indices))[mirror]
    _, _, _, fixed, identity = pre._free_pattern
    data[fixed] = identity
    return sp.csr_matrix((data, indices, indptr), shape=(pre._n_dof, pre._n_dof))
