"""Sparse Gaussian Markov random field algebra for ICAR blocks.

The ICAR precision ``Q = diag(w_{i+}) - W`` of a graph (islands on a unit
diagonal, their proper prior), the sum-to-zero constraint columns C of
its multi-area components, and :class:`ConstrainedFactor`, which factors
a symmetric matrix H on the constraint set ``null(C')`` and gives the
constrained solve, log determinant and fixed-effect covariance.

H is ordered ``(fixed, latent)``: a few dense fixed-effect rows and a
sparse latent block ``H_ll``. Only the latent block is factored, by
``scipy.sparse.linalg.splu`` in symmetric mode (a fill-reducing LDL' with
``perm_r == perm_c`` and ``U = diag(U) L'``); the fixed effects and the
constraints go into one dense Schur complement (Rue & Held 2005, §2.3.3).

``H_ll`` is singular when the likelihood does not pin a component's
constant: the ICAR prior leaves it free, and a component whose areas are
all suppressed, or (for a field entering through a covariate) whose
observed areas share one covariate value, adds no curvature along it.
Its null space lies in the span of C, so one anchor per constraint column
(the column's first row) makes ``G = H_ll + U U'`` positive definite,
``U`` holding ``sqrt(H_ll[a, a])`` at each anchor a. The anchor columns
join the Schur complement with a unit block that takes ``U U'`` back out
exactly: the symmetric system

    [[G,  B,  U],
     [B', D,  0],      B = [H_lf, C],  D = [[H_ff, 0], [0, 0]]
     [U', 0,  I]]

has the bordered ``[[H, C], [C', 0]]`` as its Schur complement over the
unit block. So ``det [[H, C], [C', 0]] = det G * det S`` with
``S = [[D, 0], [0, I]] - [B, U]' G^-1 [B, U]``. H is positive definite on
``null(C')`` exactly when S has m negative and K + m positive eigenvalues
(K fixed effects, m constraint columns; so det S has sign ``(-1)^m``),
and the inverse's fixed-effect block is S^-1's.

G is block diagonal over the connected components of its pattern (for a
curvature, the graph's components), and each column of C and U lies in
one block. So S's (C, U) part is block diagonal too, S is eliminated
block by block and then over the K fixed effects, and columns of C and U
in different blocks share one solve with G: each factor makes K + r
solves, r the most columns in one block, however many components the
graph has.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import splu

from .graph import SpatialGraph

__all__ = ["icar_precision", "sum_to_zero_columns", "ConstrainedFactor"]


def icar_precision(graph: SpatialGraph) -> sparse.csr_matrix:
    """Sparse ``Q = diag(w_{i+}) - W``, islands on a unit diagonal (their
    proper prior)."""
    return (sparse.diags(graph.wplus_eff) - graph.weight_matrix).tocsr()


def sum_to_zero_columns(graph: SpatialGraph, n_rows: int, starts) -> sparse.csc_matrix:
    """Sum-to-zero constraint columns for ICAR blocks of a latent vector.

    One indicator column per multi-area component for each block of
    ``n_areas`` rows starting at a row in ``starts``. Islands get no
    column: the island policy gives them a proper independent prior
    rather than a constraint.
    """
    labels = graph.component_labels
    multi = graph.component_sizes > 1
    areas = np.flatnonzero(multi[labels])
    k = int(multi.sum())
    cols = (np.cumsum(multi) - 1)[labels[areas]]
    rows = np.add.outer(np.asarray(starts, dtype=np.int64), areas).ravel()
    cols = np.add.outer(k * np.arange(len(starts)), cols).ravel()
    return sparse.csc_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n_rows, k * len(starts))
    )


class ConstrainedFactor:
    """Factor of a symmetric H on the constraint set ``null(C')``.

    H is given by blocks over ``(fixed, latent)`` coordinates: the sparse
    ``latent`` block, the dense ``cross`` block (latent rows, fixed
    columns) and the dense ``fixed`` block; without ``cross`` there are no
    fixed coordinates. ``C`` has one column per constraint on the latent
    coordinates, with disjoint indicator supports
    (:func:`sum_to_zero_columns`). The latent block must be positive
    semi-definite with its null space in the span of C, as for a
    curvature ``A' diag(w) A + P`` with ``w >= 0`` and ICAR prior blocks;
    ``RuntimeError`` reports an H that is not positive definite on
    ``null(C')``.

    ``logdet`` is ``log det(T' H T)`` for an orthonormal basis T of
    ``null(C')``.
    """

    def __init__(self, latent, C, cross=None, fixed=None):
        latent = sparse.csc_matrix(latent)
        C = sparse.csc_matrix(C)
        n, m = C.shape
        cross = np.zeros((n, 0)) if cross is None else np.asarray(cross, dtype=float)
        k = cross.shape[1]
        anchors = C.indices[C.indptr[:-1]]
        rho = latent.diagonal()[anchors]
        G = latent + sparse.csc_matrix((rho, (anchors, anchors)), shape=(n, n))
        # the border B = [C, U] and the diagonal of its block D = [[0, 0], [0, I]]
        B = sparse.hstack(
            [C, sparse.csc_matrix((np.sqrt(rho), (anchors, np.arange(m))), shape=(n, m))],
            format="csc",
        )
        d = np.repeat([0.0, 1.0], m)

        # the blocks of G that hold border columns ("groups"), and each
        # column's slot, its rank among its group's columns: the columns of
        # one slot share a solve
        n_blocks, block = csgraph.connected_components(G, directed=False)
        groups, group = np.unique(block[np.concatenate([anchors, anchors])], return_inverse=True)
        order = np.argsort(group, kind="stable")
        slot = np.empty(2 * m, dtype=np.int64)
        slot[order] = np.arange(2 * m) - np.searchsorted(group[order], group[order])
        r = int(slot.max()) + 1 if m else 0
        self._group_of = np.full(n_blocks + 1, len(groups))
        self._group_of[groups] = np.arange(len(groups))
        self._group_of = self._group_of[block]
        self._where = (group, slot)

        logdet_g = 0.0
        self._lu = None
        if n:
            try:
                self._lu = splu(
                    G, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                )
            except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
                raise RuntimeError(f"latent block is not positive definite ({exc})") from None
            diag = self._lu.U.diagonal()
            if not (np.all(diag > 0) and np.array_equal(self._lu.perm_r, self._lu.perm_c)):
                raise RuntimeError("latent block is not positive definite")
            logdet_g = float(np.sum(np.log(diag)))
        self._cross, self._B = cross, B
        self._inv_cross = self._solve(cross)
        slots = sparse.csc_matrix((np.ones(2 * m), (np.arange(2 * m), slot)), shape=(2 * m, r))
        self._inv_slots = self._solve((B @ slots).toarray())

        # S = [[S_ff, F'], [F, E]]: E block diagonal (one r x r block per
        # group, unused slots padded with the identity), then Z = S_ff - F' E^-1 F
        E = np.tile(np.eye(r), (len(groups), 1, 1))
        E[group, slot] = -(B.T @ self._inv_slots)
        E[group, slot, slot] += d
        F = np.zeros((len(groups), r, k))
        F[group, slot] = -(B.T @ self._inv_cross)
        self._E, self._F = E, F
        self._inv_E_F = np.linalg.solve(E, F)
        Z = fixed - cross.T @ self._inv_cross if k else np.zeros((0, 0))
        self._Z = Z - np.einsum("grk,grl->kl", F, self._inv_E_F)
        # H is positive definite on null(C') exactly when S has m negative
        # eigenvalues and no zero one (E's padding adds unit eigenvalues)
        eig = np.concatenate([np.linalg.eigvalsh(E).ravel(), np.linalg.eigvalsh(self._Z)])
        if np.sum(eig < 0) != m or not np.all(eig != 0):
            raise RuntimeError("prior or curvature matrix is not positive definite")
        self.logdet = (
            logdet_g + float(np.sum(np.log(np.abs(eig)))) - float(np.sum(np.log(np.diff(C.indptr))))
        )

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._lu is None:
            return rhs
        if rhs.ndim == 1:
            return self._lu.solve(rhs)
        # one column at a time: SuperLU's multi-column solve is about twice
        # as slow per column
        out = np.empty_like(rhs)
        for j in range(rhs.shape[1]):
            out[:, j] = self._lu.solve(np.ascontiguousarray(rhs[:, j]))
        return out

    def solve(self, g: np.ndarray) -> np.ndarray:
        """The x over ``(fixed, latent)`` with ``C' x_latent = 0`` and
        ``H x - g`` in the span of C."""
        # S y = [g_f - cross' h, -B' h] with h = G^-1 g_l, by E's blocks and
        # then Z; x_l = h - G^-1 [cross, B] y
        k = self._cross.shape[1]
        h = self._solve(g[k:])
        a = np.zeros(self._E.shape[:2])
        a[self._where] = -(self._B.T @ h)
        inv_E_a = np.linalg.solve(self._E, a[..., None])[..., 0]
        y_f = np.linalg.solve(
            self._Z, g[:k] - self._cross.T @ h - np.einsum("grk,gr->k", self._F, inv_E_a)
        )
        y = inv_E_a - self._inv_E_F @ y_f
        y = np.vstack([y, np.zeros((1, y.shape[1]))])[self._group_of]
        x = h - self._inv_cross @ y_f - np.sum(self._inv_slots * y, axis=1)
        return np.concatenate([y_f, x])

    def fixed_covariance(self) -> np.ndarray:
        """The fixed-effect block of the constrained inverse
        ``T (T' H T)^-1 T'``."""
        return np.linalg.inv(self._Z)
