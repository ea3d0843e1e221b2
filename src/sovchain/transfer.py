"""Global operators: monodromy, transfer matrix, fused hierarchy.

Every dense product of Lax operators is grown by one kernel, ``_lax_legs``,
one GEMM per site, in leg order (A, j_N, k_N, ..., j_1, k_1, R); it can take
the aux trace at the last site. ``_lax_chain`` turns leg order into matrix
order by one final transpose, for the monodromy, the transfer matrix and the
projector route. The RTT and symmetry residuals grow each side's sites 1..N-1
once, then the last site one output-aux row at a time (``_lax_slabs``), so no
(4D)^2 or (2D)^2 side is ever whole. Each identity residual grows all its
points, and the projector route its one point, through buffers made once per call.

``TransferEvaluator`` interpolates T, a degree-N polynomial with leading
coefficient tr K Id, from N kernel-built samples; one run has one evaluator.
The oracle and the rows that certify that premise call ``transfer``.

The fused transfer matrices are produced by the three-term recursion

    T^(l+1)(lam) = T(lam + l eta) T^(l)(lam) - detq(lam + l eta) T^(l-1)(lam)

with T^(0) = Id, which is the closed solution of the fusion hierarchy: the
leading minors of a tridiagonal matrix with commuting operator entries, the
one recurrence of ``tridiagonal_operator_minors``. Each call builds one
tower T^(0..top)(lam) whole and keeps nothing. The symmetrized-projector
construction (trace of the projected product of shifted monodromies over
the (a+1)-dimensional symmetric auxiliary space) is kept as an independent
route and used as the test oracle for the recursion.
"""

from __future__ import annotations

import functools

import numpy as np

from .chain import ChainSpec, fused_twist
from .local_ops import kron_chain, lax, permutation_4x4, r_matrix, symmetric_basis
from .numerics import CDTYPE, _Barycentric, frob, lagrange_cardinal

__all__ = [
    "monodromy_matrix",
    "transfer",
    "TransferEvaluator",
    "fused_transfer_projector",
    "tridiagonal_operator_minors",
    "rtt_residual",
    "quantum_det_residual",
    "symmetry_residual",
    "central_zero_residual",
    "polynomiality_residual",
]


def monodromy_matrix(chain: ChainSpec, lam: complex, start=None, close=None) -> np.ndarray:
    """Monodromy K_0 L_0N(lam - xi_N) ... L_01(lam - xi_1), the auxiliary C^2 slowest.

    The full 2D x 2D matrix, built by ``_lax_chain`` from I_2 one site at a
    time. With a 2 x R ``start`` and an R x 2 ``close`` it is the D x D
    operator tr_0(close M start), grown without the 2D x 2D matrix: block
    (i, j) of W^-1 M W from start W e_j and close e_i^T W^-1.
    """
    start = np.eye(2, dtype=CDTYPE) if start is None else start
    return _lax_chain(_site_laxes(chain, lam), start, twist=chain.twist.matrix, close=close)


def _site_laxes(chain: ChainSpec, lam: complex) -> list:
    """L_0n(lam - xi_n) for n = 1..N, each with legs (aux, site, aux, site)."""
    return [lax(lam - site.xi, site.two_s, chain.eta).reshape(2, site.dim, 2, site.dim)
            for site in chain.sites]


def _lax_legs(site_ops, start, twist=None, close=None, bufs=None) -> np.ndarray:
    """twist . op_N ... op_1 . start in leg order (A, j_N, k_N, ..., j_1, k_1, R).

    ``site_ops[n]`` has legs (A, d, A, d), ``start`` is A x R, ``twist`` A x A.
    The product so far stays an A x (rest) matrix, so each site costs one
    GEMM, (A d^2, A) @ (A, rest), and no transposed copy. With an R x A
    ``close`` the aux trace tr(close . product) is taken at the last site and
    the legs are (j_N, k_N, ..., j_1, k_1); that step first copies the
    product with R slowest. Each write is a fresh array, or, with ``bufs`` a
    pair of flat buffers that each hold the largest write (A R D^2 entries
    open), alternates between them: the result is a view of ``bufs[0]``.
    """
    ops = list(site_ops)
    for left in (twist, close):
        if left is not None:
            op = ops[-1]
            ops[-1] = np.dot(left, op.reshape(left.shape[1], -1)).reshape(-1, *op.shape[1:])
    legs = [start.shape[0], *(d for op in reversed(ops) for d in op.shape[1::2]), start.shape[1]]
    last, prod = ops.pop() if close is not None else None, start
    writes = len(ops) + (0 if last is None else 2)

    def dest(k, rows, cols):    # write k of ``writes``; the last one lands in bufs[0]
        buf = np.empty(rows * cols, dtype=CDTYPE) if bufs is None else bufs[(writes - 1 - k) % 2]
        return buf[:rows * cols].reshape(rows, cols)

    for k, op in enumerate(ops):
        lhs = op.transpose(0, 1, 3, 2).reshape(-1, op.shape[2])
        rhs = prod.reshape(op.shape[2], -1)
        prod = np.matmul(lhs, rhs, out=dest(k, lhs.shape[0], rhs.shape[1]))
    if last is None:
        return prod.reshape(legs)
    # tr(close . product) = sum over (R, A) of last[r, j, a, k] prod[a, rest, r]
    r_dim, a_dim = last.shape[0], last.shape[2]
    prod = prod.reshape(a_dim, -1, r_dim).transpose(2, 0, 1)
    rhs = dest(len(ops), r_dim * a_dim, prod.shape[2])
    np.copyto(rhs.reshape(prod.shape), prod)
    lhs = last.transpose(1, 3, 0, 2).reshape(-1, r_dim * a_dim)
    return np.dot(lhs, rhs, out=dest(len(ops) + 1, lhs.shape[0], rhs.shape[1])).reshape(legs[1:-1])


def _lax_chain(site_ops, start, twist=None, close=None, bufs=None) -> np.ndarray:
    """``_lax_legs`` as an (A D) x (R D) matrix, or D x D with ``close``, site 1 slowest
    (a view of ``bufs`` when the transpose is trivial, N = 1)."""
    legs = _lax_legs(site_ops, start, twist, close, bufs)
    n, off = len(site_ops), int(close is None)
    sites = list(range(off + 2 * n - 2, off - 1, -2))    # leg j_n of site n = 1..N; k_n follows
    rows, cols = [0] * off + sites, [2 * n + 1] * off + [j + 1 for j in sites]
    out = legs.transpose(rows + cols)
    return out.reshape(int(np.prod(out.shape[:len(rows)])), -1)


def _aux_product(factors) -> np.ndarray:
    """X_0 ... X_{m-1}, X_i (legs (2, d, 2, d)) on aux leg i of (C^2)^{x m} x V, leg 0 slowest."""
    op = factors[0]
    for x in factors[1:]:
        a, d = op.shape[:2]
        op = np.dot(op.reshape(-1, d), x.transpose(1, 0, 2, 3).reshape(d, -1))
        op = op.reshape(a, d, a, 2, 2, d).transpose(0, 3, 1, 2, 4, 5).reshape(2 * a, d, 2 * a, d)
    return op


def transfer(chain: ChainSpec, lam: complex) -> np.ndarray:
    """Transfer matrix: the monodromy chain closed by the aux trace, no 2D x 2D build."""
    eye = np.eye(2, dtype=CDTYPE)
    return _lax_chain(_site_laxes(chain, lam), eye, twist=chain.twist.matrix, close=eye)


class TransferEvaluator:
    """T(lam) from N kernel-built samples, and the fused tower by the recursion.

    T(lam) = ell(lam) [tr K Id + sum_a w_a T(z_a) / (lam - z_a)], ell(lam) = prod_a (lam - z_a),
    at z_a = c + r e^{2 pi i (a + 1/2) / N} around the grid-node centroid c, r = max(3,
    max |xi_n^(h) - c|): unlike the top nodes, these stay apart when two xi_n nearly collide.
    ``samples`` is the read-only (N, D, D) stack of T(z_a), the evaluator's only state;
    ``transfer`` and ``fused`` return fresh arrays.
    """

    def __init__(self, chain: ChainSpec):
        grid = np.concatenate([nodes for nodes, _, _ in chain.grid])
        radius = max(3.0, float(np.max(np.abs(grid - grid.mean()))))
        angles = 2 * np.pi * (np.arange(chain.n_sites) + 0.5) / chain.n_sites
        self.chain = chain
        self._interp = _Barycentric(grid.mean() + radius * np.exp(1j * angles))
        self.samples = np.stack([transfer(chain, complex(z)) for z in self._interp.nodes])
        self.samples.flags.writeable = False

    def transfer(self, lam: complex) -> np.ndarray:
        lam = complex(lam)
        flat = self.samples.reshape(len(self.samples), -1)
        out = np.dot(self._interp.cardinals(lam)[None], flat).reshape(self.samples.shape[1:])
        out.flat[::self.chain.dim + 1] += self.chain.twist.trace * np.prod(lam - self._interp.nodes)
        return out

    def fused(self, top: int, lam: complex) -> np.ndarray:
        """T^(0..top)(lam) as one (top + 1, D, D) stack by the fusion recursion, T^(0) = Id.

        These are the leading minors of the tridiagonal matrix with diagonal
        T(lam + k eta), k = 0..top - 1, each built when the recurrence reads
        it, and off-diagonal products detq(lam + k eta), k = 1..top - 1.
        """
        if top < 0:
            raise ValueError(f"top must be >= 0, got {top}")
        shifts = [lam + k * self.chain.eta for k in range(top)]
        return tridiagonal_operator_minors(
            map(self.transfer, shifts), [self.chain.det_q(z) for z in shifts[1:]],
            np.empty((top + 1, self.chain.dim, self.chain.dim), dtype=CDTYPE))


def tridiagonal_operator_minors(diag, offprod, out) -> np.ndarray:
    """Leading principal minors F_0..F_m of an m x m tridiagonal matrix, written into ``out``.

    The diagonal entries are commuting D x D operators, read one at a time
    from the iterable ``diag``; ``offprod[j]`` is the scalar product of the
    off-diagonal pair coupling rows j and j + 1. ``out`` is the (m + 1, D, D)
    stack: F_0 = Id, F_1 = diag[0], F_(j+1) = diag[j] F_j - offprod[j-1] F_(j-1).
    """
    diag = iter(diag)
    out[0] = np.eye(out.shape[1])
    if len(out) > 1:
        out[1] = next(diag)
    for j, op in enumerate(diag, start=1):
        np.matmul(op, out[j], out=out[j + 1])
        out[j + 1] -= offprod[j - 1] * out[j - 1]
    return out


def fused_transfer_projector(chain: ChainSpec, level: int, lam: complex) -> np.ndarray:
    """Fused transfer matrix via the symmetrized auxiliary-space product.

    Independent of the recursion: M_0(lam + (level-1) eta) ... M_{level-1}(lam),
    M_i on aux leg i of (C^2)^{x level} and on H, traced against the orthonormal
    symmetric-subspace basis U. It equals K^{x level} G_N ... G_1 with site
    operators G_n = L_0n(lam + (level-1) eta) ... L_{level-1,n}(lam), grown
    from U and closed by U^dagger through one buffer pair.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    u = symmetric_basis(level)
    kk = _twist_power(chain.twist.matrix.tobytes(), level)
    # the largest write: the product of sites 1..N-1 (A R (D / d_N)^2 entries) or D^2
    size = max(2 ** level * (level + 1) * (chain.dim // chain.dims[-1]) ** 2, chain.dim ** 2)
    laxes = [_site_laxes(chain, complex(lam) + (level - 1 - i) * chain.eta) for i in range(level)]
    ops = [_aux_product(per_leg) for per_leg in zip(*laxes)]
    return _lax_chain(ops, u, twist=kk, close=u.conj().T, bufs=np.empty((2, size), dtype=CDTYPE))


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def _lax_slabs(site_ops, start, twist, bufs):
    """Row a = 0..A-1 of twist . op_N ... op_1 . start in leg order, one (d_N^2, rest) slab each.

    Sites 1..N-1 are grown once (``_lax_legs``) into ``bufs[0]``; slab a is then row block a
    of the last site's GEMM, (d_N^2, A) @ (A, rest), written into ``bufs[1]`` for every row.
    Each flat buffer holds at least max(A R (D / d_N)^2, R D^2) entries.
    """
    *head, op = site_ops
    prefix = _lax_legs(head, start, bufs=bufs).reshape(len(op), -1)
    rows = np.dot(twist, op.reshape(len(op), -1)).reshape(op.shape).transpose(0, 1, 3, 2)
    out = bufs[1][:op.shape[1] * op.shape[3] * prefix.shape[1]].reshape(-1, prefix.shape[1])
    for row in rows.reshape(len(op), len(out), -1):
        yield np.matmul(row, prefix, out=out)


def _slab_residual(lhs, rhs, bufs) -> float:
    """||Y - X||_F / max(1, ||X||_F), X and Y the ``_lax_slabs`` products of ``lhs`` and ``rhs``
    (each (site_ops, start, twist)) in buffer pairs ``bufs``, summed slab by slab."""
    diff = ref = 0.0
    for x, y in zip(_lax_slabs(*lhs, bufs[0]), _lax_slabs(*rhs, bufs[1]), strict=True):
        ref += np.vdot(x, x).real
        np.subtract(y, x, out=y)
        diff += np.vdot(y, y).real
    return float(np.sqrt(diff)) / max(1.0, float(np.sqrt(ref)))


def rtt_residual(chain: ChainSpec, lams, mus) -> np.ndarray:
    """Exchange-relation residual of R12 M1(lam) M2(mu) = M2(mu) M1(lam) R12, one per pair.

    Grown on the aux space C^2 x C^2: M1(lam) M2(mu) = (K x K) prod_n
    L_1n(lam) L_2n(mu), and M2(mu) M1(lam) = P12 M1(mu) M2(lam) P12. The two
    sides are compared one output-aux row at a time (``_slab_residual``).
    """
    kk, p12 = _twist_power(chain.twist.matrix.tobytes(), 2), permutation_4x4()
    eye, bufs, out = np.eye(4, dtype=CDTYPE), np.empty((2, 2, 4 * chain.dim ** 2), CDTYPE), []
    for lam, mu in zip(lams, mus, strict=True):
        r12 = r_matrix(lam - mu, chain.eta)
        pairs = list(zip(_site_laxes(chain, lam), _site_laxes(chain, mu)))
        out.append(_slab_residual(([_aux_product(p) for p in pairs], eye, r12 @ kk),
                                  ([_aux_product(p[::-1]) for p in pairs], p12 @ r12, p12 @ kk),
                                  bufs))
    return np.array(out)


def quantum_det_residual(chain: ChainSpec, lams) -> np.ndarray:
    """Residual of A(lam) D(lam-eta) - B(lam) C(lam-eta) = detq(lam) Id, one per point.

    The left side is entry ((0,1), (0,1)) minus entry ((0,1), (1,0)) of
    M1(lam) M2(lam - eta) on C^2 x C^2, grown by ``_lax_legs`` as in
    ``rtt_residual`` from the column e_(0,1) - e_(1,0) and closed by the row
    e_(0,1). In leg order the identity is the Kronecker product of the
    flattened per-site identities, site N slowest. Every point's two sides
    are grown into the same three buffers, each of the largest write.
    """
    start = np.array([[0.0], [1.0], [-1.0], [0.0]], dtype=CDTYPE)
    close = np.array([[0.0, 1.0, 0.0, 0.0]], dtype=CDTYPE)
    kk = _twist_power(chain.twist.matrix.tobytes(), 2)
    eye = functools.reduce(np.multiply.outer, [np.eye(d).ravel() for d in reversed(chain.dims)])
    # the largest write: the product of sites 1..N-1 (4 (D / d_N)^2 entries) or D^2
    size = max(4 * (chain.dim // chain.dims[-1]) ** 2, chain.dim ** 2)
    bufs, out = np.empty((3, size), dtype=CDTYPE), []
    for lam in lams:
        pairs = zip(_site_laxes(chain, lam), _site_laxes(chain, lam - chain.eta))
        op = _lax_legs([_aux_product(p) for p in pairs], start, twist=kk, close=close,
                       bufs=bufs[:2])
        target = np.multiply(chain.det_q(lam), eye.reshape(op.shape),
                             out=bufs[2, :op.size].reshape(op.shape))
        scale = max(1.0, frob(target), frob(op))
        out.append(frob(np.subtract(op, target, out=target)) / scale)
    return np.array(out)


def symmetry_residual(chain: ChainSpec, lams) -> np.ndarray:
    """Residual of [M^(I)(lam), K] = 0, K = K_0 (x) prod_n K^(2s_n), relative to ||K M^(I)||.

    One residual per point of ``lams``, the sides K M^(I) = K_0 prod_n (K_n L_0n)
    and M^(I) K = prod_n (L_0n K_n) K_0 compared one output-aux row at a time
    (``_slab_residual``).
    """
    k = chain.twist.matrix
    site_twists = [fused_twist(k, site.two_s) for site in chain.sites]
    eye, bufs, out = np.eye(2, dtype=CDTYPE), np.empty((2, 2, 2 * chain.dim ** 2), CDTYPE), []
    for lam in lams:
        pairs = list(zip(site_twists, _site_laxes(chain, lam)))
        out.append(_slab_residual(
            ([np.einsum("ij,ajbk->aibk", t, op) for t, op in pairs], eye, k),
            ([np.einsum("ajbk,kl->ajbl", op, t) for t, op in pairs], k, eye), bufs))
    return np.array(out)


@functools.lru_cache(maxsize=64)
def _twist_power(key: bytes, m: int) -> np.ndarray:
    """K^{x m} of the 2 x 2 twist with bytes ``key``; read-only."""
    out = kron_chain([np.frombuffer(key, dtype=CDTYPE).reshape(2, 2)] * m)
    out.flags.writeable = False
    return out


def central_zero_residual(chain: ChainSpec, evaluator: TransferEvaluator,
                          lam_ref: complex) -> np.ndarray:
    """Per site n, the norm of T^(2s_n + 1) at its bottom node relative to lam_ref.

    The fused transfer matrix at level > 2s_n carries the central divisor
    vanishing at xi_n - eta/2 - s_n eta. One reference tower up to the
    largest level serves every site.
    """
    ref = evaluator.fused(max(chain.dims), lam_ref)
    return np.array([frob(evaluator.fused(site.dim, chain.node(n, site.two_s))[-1])
                     / max(1.0, frob(ref[site.dim])) for n, site in enumerate(chain.sites)])


def polynomiality_residual(chain: ChainSpec, rng) -> float:
    """Degree-N certificate: interpolate T from N+1 samples, test a held-out point."""
    from .numerics import random_complex

    pts = random_complex(rng, size=chain.n_sites + 2, box=2.5)
    nodes, probe = pts[:-1], pts[-1]
    recon = sum(lagrange_cardinal(nodes, j, probe) * transfer(chain, z)
                for j, z in enumerate(nodes))
    direct = transfer(chain, probe)
    return frob(recon - direct) / max(1.0, frob(direct))

