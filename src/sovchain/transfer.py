"""Global operators: monodromy blocks, transfer matrix, fused hierarchy.

The fused transfer matrices are produced by the three-term recursion

    T^(l+1)(lam) = T(lam + l eta) T^(l)(lam) - detq(lam + l eta) T^(l-1)(lam)

with T^(0) = Id, which is the closed solution of the fusion hierarchy. The
symmetrized-projector construction (trace of the projected product of
shifted monodromies over the (a+1)-dimensional symmetric auxiliary space) is
kept as an independent route and used as the test oracle for the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec
from .local_ops import lax, r_matrix, symmetric_basis
from .numerics import CDTYPE, commutator_residual, frob, lagrange_cardinal

__all__ = [
    "MonodromyBlocks",
    "monodromy_matrix",
    "monodromy_blocks",
    "transfer",
    "TransferEvaluator",
    "fused_transfer_projector",
    "global_fused_twist_product",
    "tridiagonal_operator_det",
    "rtt_residual",
    "quantum_det_residual",
    "symmetry_residual",
    "central_zero_residual",
    "polynomiality_residual",
    "reference_covector",
]


@dataclass(frozen=True)
class MonodromyBlocks:
    """The four dim(H) x dim(H) operator blocks of the twisted monodromy."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    @property
    def transfer(self) -> np.ndarray:
        return self.a + self.d


def monodromy_matrix(chain: ChainSpec, lam: complex, twist_matrix=None) -> np.ndarray:
    """Full 2D x 2D monodromy K_0 L_0N(lam - xi_N) ... L_01(lam - xi_1).

    The auxiliary C^2 is the slowest Kronecker factor. ``twist_matrix``
    overrides the chain twist (used for identity-twist and conjugated runs).
    The running product is kept with its column index split into the legs
    (aux, site 1, ..., site N); each Lax operator is contracted onto its
    (aux, site n) legs, O(D^2 d_n) work, with no embedded (2D)^2 factor.
    """
    k = chain.twist.matrix if twist_matrix is None else np.asarray(twist_matrix, dtype=CDTYPE)
    d = chain.dim
    mat = np.einsum("ab,ij->aibj", k, np.eye(d, dtype=CDTYPE)).reshape((2 * d, 2) + chain.dims)
    for n in range(chain.n_sites - 1, -1, -1):
        site = chain.sites[n]
        l_local = lax(lam - site.xi, site.two_s, chain.eta).reshape((2, site.dim) * 2)
        mat = _apply_legs(mat, l_local, (1, n + 2))
    return np.ascontiguousarray(mat.reshape(2 * d, 2 * d))


def _apply_legs(tensor: np.ndarray, op: np.ndarray, legs) -> np.ndarray:
    """Contract two legs of ``tensor`` with the first two axes of ``op``.

    The last two axes of ``op`` take the place of the contracted legs, so
    the result keeps the axis order of ``tensor``. With ``op`` an operator
    reshaped to (row legs, column legs) this multiplies ``tensor`` by it
    from the right; pass the transposed operator to multiply from the left.
    """
    out = np.tensordot(tensor, op, axes=(list(legs), [0, 1]))
    return np.moveaxis(out, (-2, -1), legs)


def monodromy_blocks(chain: ChainSpec, lam: complex, twist_matrix=None) -> MonodromyBlocks:
    m = monodromy_matrix(chain, lam, twist_matrix)
    d = chain.dim
    return MonodromyBlocks(a=m[:d, :d], b=m[:d, d:], c=m[d:, :d], d=m[d:, d:])


def transfer(chain: ChainSpec, lam: complex) -> np.ndarray:
    """Transfer matrix: auxiliary-space trace of the monodromy."""
    return monodromy_blocks(chain, lam).transfer


class TransferEvaluator:
    """Memoizing evaluator for the transfer matrix and its fused tower.

    Cache keys are the exact complex bit patterns of the requested points;
    no fuzzy matching. Returned arrays are owned by the cache and must be
    treated as read-only. Instances are safe for concurrent reads once
    warmed; interleaved first-time insertions need external locking.
    """

    def __init__(self, chain: ChainSpec):
        self.chain = chain
        self._plain = {}
        self._fused = {}

    def transfer(self, lam: complex) -> np.ndarray:
        key = complex(lam)
        if key not in self._plain:
            self._plain[key] = transfer(self.chain, key)
        return self._plain[key]

    def fused(self, level: int, lam: complex) -> np.ndarray:
        """T^(level)(lam) by the fusion recursion; level 0 is the identity."""
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        key = (level, complex(lam))
        if key in self._fused:
            return self._fused[key]
        if level == 0:
            out = np.eye(self.chain.dim, dtype=CDTYPE)
        elif level == 1:
            out = self.transfer(lam)
        else:
            lcur = level - 1
            shift = lam + lcur * self.chain.eta
            out = (self.transfer(shift) @ self.fused(lcur, lam)
                   - self.chain.det_q(shift) * self.fused(lcur - 1, lam))
        self._fused[key] = out
        return out


def fused_transfer_projector(chain: ChainSpec, level: int, lam: complex) -> np.ndarray:
    """Fused transfer matrix via the symmetrized auxiliary-space product.

    Independent of the recursion: the product of ``level`` shifted
    monodromies on (C^2)^{x level} (x) H, monodromy i acting on auxiliary
    leg i and H, is traced against the orthonormal symmetric-subspace basis
    U. The product is applied, rightmost factor first, to U (x) Id_H held as
    a tensor with legs (aux_1, ..., aux_level, H, column); each monodromy is
    contracted onto its (aux_i, H) legs, so no (2^level D)^2 matrix is built.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    d = chain.dim
    u = symmetric_basis(level)
    cols = np.einsum("ak,ij->aikj", u, np.eye(d, dtype=CDTYPE))
    cols = cols.reshape((2,) * level + (d, (level + 1) * d))
    for i in range(level - 1, -1, -1):
        shift = lam + (level - 1 - i) * chain.eta
        m_i = monodromy_matrix(chain, shift).reshape(2, d, 2, d)
        cols = _apply_legs(cols, m_i.transpose(2, 3, 0, 1), (i, level))
    tensor = cols.reshape(2 ** level, d, level + 1, d)
    return np.einsum("ak,aikj->ij", u.conj(), tensor)


def global_fused_twist_product(chain: ChainSpec, k_matrix=None) -> np.ndarray:
    """Tensor product over sites of the fused twist, acting on H."""
    from .chain import fused_twist
    from .local_ops import kron_chain

    mat = chain.twist.matrix if k_matrix is None else k_matrix
    return kron_chain([fused_twist(mat, site.two_s) for site in chain.sites])


def tridiagonal_operator_det(diag, sup, sub) -> np.ndarray:
    """Determinant of a tridiagonal matrix with commuting operator entries.

    Expanded by trailing principal minors (last row), which is a different
    traversal from the fusion recursion's leading expansion. ``diag`` is a
    list of m operators; ``sup``/``sub`` are the m-1 scalar off-diagonals.
    """
    m = len(diag)
    dim = diag[0].shape[0]
    prev2 = np.eye(dim, dtype=CDTYPE)
    prev1 = diag[0]
    for j in range(1, m):
        cur = diag[j] @ prev1 - sup[j - 1] * sub[j - 1] * prev2
        prev2, prev1 = prev1, cur
    return prev1


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def rtt_residual(chain: ChainSpec, lam: complex, mu: complex) -> float:
    """Exchange-relation residual for the monodromy on C^2 x C^2 x H.

    Both sides of R12 M1 M2 = M2 M1 R12 are formed as tensors with legs
    (a, b, H, a', b', H') by contracting the shared H leg of the two
    monodromies and the auxiliary legs of R, with no embedded (4D)^2 factor.
    """
    d = chain.dim
    r12 = r_matrix(lam - mu, chain.eta).reshape(2, 2, 2, 2)
    m1 = monodromy_matrix(chain, lam).reshape(2, d, 2, d)
    m2 = monodromy_matrix(chain, mu).reshape(2, d, 2, d)
    m1m2 = np.tensordot(m1, m2, axes=(3, 1)).transpose(0, 3, 1, 2, 4, 5)
    m2m1 = np.tensordot(m2, m1, axes=(3, 1)).transpose(3, 0, 1, 4, 2, 5)
    lhs = np.tensordot(r12, m1m2, axes=([2, 3], [0, 1]))
    rhs = np.moveaxis(np.tensordot(m2m1, r12, axes=([3, 4], [0, 1])), (4, 5), (3, 4))
    return frob(lhs - rhs) / max(1.0, frob(lhs))


def quantum_det_residual(chain: ChainSpec, lam: complex) -> float:
    """Residual of A(lam) D(lam-eta) - B(lam) C(lam-eta) = detq(lam) Id."""
    blocks_lam = monodromy_blocks(chain, lam)
    blocks_shift = monodromy_blocks(chain, lam - chain.eta)
    op = blocks_lam.a @ blocks_shift.d - blocks_lam.b @ blocks_shift.c
    target = chain.det_q(lam) * np.eye(chain.dim, dtype=CDTYPE)
    return frob(op - target) / max(1.0, frob(target), frob(op))


def symmetry_residual(chain: ChainSpec, lam: complex, k_matrix=None) -> float:
    """Residual of [M^(I)(lam), K_0 (x) prod_n K^(2s_n)] = 0."""
    k = chain.twist.matrix if k_matrix is None else np.asarray(k_matrix, dtype=CDTYPE)
    m_id = monodromy_matrix(chain, lam, twist_matrix=np.eye(2, dtype=CDTYPE))
    big_k = np.kron(k, global_fused_twist_product(chain, k))
    return commutator_residual(m_id, big_k)


def central_zero_residual(chain: ChainSpec, evaluator: TransferEvaluator,
                          level: int, n: int, lam_ref: complex) -> float:
    """Norm of T^(level) at the bottom node of site n, relative to a generic point.

    The fused transfer matrix at level > 2s_n carries the central divisor
    vanishing at xi_n - eta/2 - s_n eta.
    """
    site = chain.sites[n]
    bottom = chain.node(n, site.two_s)
    val = evaluator.fused(level, bottom)
    ref = evaluator.fused(level, lam_ref)
    return frob(val) / max(1.0, frob(ref))


def polynomiality_residual(chain: ChainSpec, rng) -> float:
    """Degree-N certificate: interpolate T from N+1 samples, test a held-out point."""
    from .numerics import random_complex

    n = chain.n_sites
    pts = random_complex(rng, size=n + 2, box=2.5)
    nodes, probe = pts[:-1], pts[-1]
    samples = [transfer(chain, z) for z in nodes]
    recon = np.zeros((chain.dim, chain.dim), dtype=CDTYPE)
    for j in range(n + 1):
        recon += lagrange_cardinal(nodes, j, probe) * samples[j]
    direct = transfer(chain, probe)
    return frob(recon - direct) / max(1.0, frob(direct))


def reference_covector(chain: ChainSpec) -> np.ndarray:
    """Tensor product of local highest-weight covectors (1, 0, ..., 0)."""
    vec = np.zeros(chain.dim, dtype=CDTYPE)
    vec[0] = 1.0
    return vec
