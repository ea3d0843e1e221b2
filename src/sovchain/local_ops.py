"""Local building blocks: spin matrices, R-matrix, Lax operators, symmetric basis.

Conventions. A spin-s site carries the (2s+1)-dimensional irreducible sl(2)
representation with Sz = diag(s, s-1, ..., -s) and raising entries
sqrt(j*(2s+1-j)). Two-space operators are laid out as (first space) x
(second space) in Kronecker order, so the fundamental Lax operator at
two_s=1 literally equals the 4x4 rational 6-vertex R-matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .numerics import CDTYPE

__all__ = [
    "SpinOperators",
    "spin_matrices",
    "r_matrix",
    "permutation_4x4",
    "lax",
    "symmetric_basis",
    "fuse_2x2",
    "kron_embed",
    "kron_chain",
]


@dataclass(frozen=True)
class SpinOperators:
    """Dense spin-s matrices; dimension two_s + 1."""

    two_s: int
    sz: np.ndarray
    sp: np.ndarray
    sm: np.ndarray

    @property
    def dim(self) -> int:
        return self.two_s + 1


def spin_matrices(two_s: int) -> SpinOperators:
    """Spin matrices for the (two_s+1)-dimensional representation.

    Raising entries are sqrt(j*(two_s+1-j)) for j = 1..two_s, placed on the
    superdiagonal; sm is the transpose of sp.
    """
    if two_s < 1:
        raise ValueError(f"two_s must be a positive integer, got {two_s}")
    s = two_s / 2.0
    sz = np.diag(np.arange(s, -s - 0.5, -1.0)).astype(CDTYPE)
    x = np.sqrt(np.arange(1, two_s + 1) * (two_s + 1 - np.arange(1, two_s + 1)))
    sp = np.diag(x.astype(CDTYPE), 1)
    return SpinOperators(two_s=two_s, sz=sz, sp=sp, sm=sp.T.copy())


def r_matrix(lam: complex, eta: complex) -> np.ndarray:
    """Rational 6-vertex R-matrix on C^2 x C^2: lam*Id + eta*Permutation, entry by entry: the
    tests' reference for the R that the checks read from the spin-1/2 Lax parts."""
    r = np.zeros((4, 4), dtype=CDTYPE)
    r[0, 0] = r[3, 3] = lam + eta
    r[1, 1] = r[2, 2] = lam
    r[1, 2] = r[2, 1] = eta
    return r


def permutation_4x4() -> np.ndarray:
    """Swap operator on C^2 x C^2."""
    p = np.zeros((4, 4), dtype=CDTYPE)
    p[0, 0] = p[3, 3] = p[1, 2] = p[2, 1] = 1.0
    return p


def lax(lam: complex, two_s: int, eta: complex) -> np.ndarray:
    """Lax operator on (auxiliary C^2) x (spin-s site), size 2(two_s+1).

    Block form [[lam + eta(1/2 + Sz), eta Sm], [eta Sp, lam + eta(1/2 - Sz)]],
    i.e. lam Id + eta P with the lam-independent P cached per ``two_s``.
    """
    eye, p = _lax_parts(two_s)
    return lam * eye + eta * p


@functools.lru_cache(maxsize=None)
def _lax_parts(two_s: int):
    """(Id, P) of the Lax operator, P = [[1/2 + Sz, Sm], [Sp, 1/2 - Sz]]; read-only."""
    ops = spin_matrices(two_s)
    eye = np.eye(ops.dim, dtype=CDTYPE)
    p = np.block([[0.5 * eye + ops.sz, ops.sm], [ops.sp, 0.5 * eye - ops.sz]])
    big_eye = np.eye(2 * ops.dim, dtype=CDTYPE)
    for arr in (big_eye, p):
        arr.flags.writeable = False
    return big_eye, p


@functools.lru_cache(maxsize=None)
def symmetric_basis(m: int) -> np.ndarray:
    """Orthonormal basis of the symmetric subspace of (C^2)^m, shape (2^m, m+1).

    Column k is the normalized sum of basis states with exactly k ones,
    ordered k = 0..m (cached, read-only). This matches the spin-(m/2)
    convention: the symmetric realization of sum(sigma_z)/2 is diagonal with
    entries m/2 - k, so fused 2x2 operators expressed in these columns act
    with the spin matrices of :func:`spin_matrices`.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    popcount = np.array([bin(idx).count("1") for idx in range(2 ** m)])
    basis = (popcount[:, None] == np.arange(m + 1)).astype(CDTYPE)
    basis /= np.sqrt(basis.real.sum(axis=0))
    basis.flags.writeable = False
    return basis


def fuse_2x2(k: np.ndarray, m: int) -> np.ndarray:
    """Restriction of k^{x m} to the symmetric subspace, as an (m+1) matrix."""
    if m == 1:
        return np.asarray(k, dtype=CDTYPE).copy()
    u = symmetric_basis(m)
    return u.conj().T @ kron_chain([k] * m) @ u


def kron_embed(op: np.ndarray, legs, dims) -> np.ndarray:
    """Embed ``op`` acting on the listed legs into the full tensor product.

    ``dims`` are the local dimensions of all legs; ``op`` must act on the
    product of the leg dimensions in the order given by ``legs``. Identity is
    inserted on the remaining legs.
    """
    dims = list(dims)
    legs = list(legs)
    if len(set(legs)) != len(legs):
        raise ValueError(f"legs must be distinct, got {legs}")
    op = np.asarray(op, dtype=CDTYPE)
    leg_dims = [dims[leg] for leg in legs]
    sub = int(np.prod(leg_dims))
    if op.shape != (sub, sub):
        raise ValueError(f"operator shape {op.shape} does not match legs {legs} of dims {dims}")
    rest = [k for k in range(len(dims)) if k not in legs]
    rest_dims = [dims[k] for k in rest]
    big = np.kron(op, np.eye(int(np.prod(rest_dims)), dtype=CDTYPE))
    # big acts on legs ordered (legs..., rest...); permute the axes back
    order = legs + rest
    tensor = big.reshape([dims[k] for k in order] * 2)
    n = len(dims)
    inv = [order.index(k) for k in range(n)]
    tensor = tensor.transpose(inv + [n + j for j in inv])
    full = int(np.prod(dims))
    return np.ascontiguousarray(tensor.reshape(full, full))


def kron_chain(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices (left factor slowest)."""
    out = np.ones((1, 1), dtype=CDTYPE)
    for m in mats:
        out = np.kron(out, np.asarray(m, dtype=CDTYPE))
    return out
