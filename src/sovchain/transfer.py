"""Global operators: monodromy, transfer matrix, fused hierarchy.

Every dense operator is grown by one kernel, ``_lax_chain``: one GEMM per site,
the aux trace at the last site and one transpose to matrix order, each write a
fresh array. It builds the transfer matrix, the aux-frame blocks of the
monodromy (the only form of it: no 2D x 2D matrix is built) and the projector route.

The identity residuals (RTT, quantum determinant, twist symmetry, and the
Sklyanin frame actions of ``sov_bases``) build no operator.
``_lax_apply`` applies op_N ... op_1 to k = 8 complex Gaussian probes V, one
batched GEMM per site for every point of a chunk, and ``_probe_residual``
reports ||(Y - X) V|| / sqrt(k) over max(1, ||X V|| / sqrt(k)): with
E ||X V||^2 = k ||X||_F^2 it estimates the dense ||Y - X||_F / max(1, ||X||_F).
Each row draws its probes from ``chain.rng`` with a salt of its own (``numerics``
lists them, the README the spreads measured).

``TransferEvaluator`` interpolates T, a degree-N polynomial with leading
coefficient tr K Id, from N kernel-built samples in one stack; one run has one evaluator.
The oracle calls ``transfer``. ``polynomiality_residual`` certifies both halves of that
premise on the evaluator's own samples, with the kernel at two more points only.

The fused transfer matrices come from the three-term recursion

    T^(l+1)(lam) = T(lam + l eta) T^(l)(lam) - detq(lam + l eta) T^(l-1)(lam)

with T^(0) = Id, the closed solution of the fusion hierarchy: the leading
minors of a tridiagonal matrix with commuting operator entries, the one
recurrence of ``tridiagonal_operator_minors``. ``fused`` is the one tower
route: the shifts and the per-point detq products of P points, then T at one
shift for all points of a chunk and one batched product per step. Without a
start block it gives the dense towers the bases read; the tower rows pass the
salt-606 probes and build no D x D tower. The symmetrized-projector route is kept
independent, the oracle of the recursion: the kernel chains each site's fused Lax
operator, its product of shifted Lax operators on (C^2)^{x a} restricted to the
(a+1)-dimensional symmetric aux space, closed by the fused twist.
"""
from __future__ import annotations

import functools

import numpy as np

from .chain import ChainSpec, fused_twist
from .local_ops import _lax_parts, kron_chain, lax, symmetric_basis
from .numerics import CDTYPE, _Barycentric, frob, random_complex

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


def monodromy_matrix(chain: ChainSpec, lam: complex, start, close) -> np.ndarray:
    """tr_0(close M start) for the monodromy M = K_0 L_0N(lam - xi_N) ... L_01(lam - xi_1).

    ``start`` is 2 x R and ``close`` R x 2, so the result is D x D: block (i, j) of W^-1 M W
    from start W e_j and close e_i^T W^-1, block (i, j) of M itself with W the identity.
    """
    return _lax_chain(_site_laxes(chain, lam), start, chain.twist.matrix, close)


def _site_laxes(chain: ChainSpec, lam) -> list:
    """L_0n(lam - xi_n) for n = 1..N, each with legs (aux, site, aux, site) after the
    axes of ``lam``: one point gives (2, d, 2, d), an array of P points (P, 2, d, 2, d)."""
    lam = np.asarray(lam)[..., None, None]
    return [lax(lam - site.xi, site.two_s, chain.eta).reshape(lam.shape[:-2] + (2, site.dim) * 2)
            for site in chain.sites]


def _lax_chain(site_ops, start, twist, close) -> np.ndarray:
    """tr(close . twist . op_N ... op_1 . start) as a D x D matrix, site 1 slowest.

    ``site_ops[n]`` has legs (A, d, A, d), ``start`` is A x R, ``twist`` A x A, ``close``
    R x A. The product stays an A x (rest) matrix in leg order (A, j_N, k_N, ..., j_1,
    k_1, R): one GEMM per site, (A d^2, A) @ (A, rest), and the trace at the last site
    after one copy with R slowest; one transpose ends in matrix order. Each write is a
    fresh array.
    """
    ops = list(site_ops)
    for left in (twist, close):
        op = ops[-1]
        ops[-1] = np.dot(left, op.reshape(left.shape[1], -1)).reshape(-1, *op.shape[1:])
    last, prod = ops.pop(), start
    for op in ops:
        prod = np.matmul(op.transpose(0, 1, 3, 2).reshape(-1, op.shape[2]),
                         prod.reshape(op.shape[2], -1))
    # tr(close . product) = sum over (R, A) of last[r, j, a, k] prod[a, rest, r]
    r_dim, a_dim = last.shape[0], last.shape[2]
    rhs = prod.reshape(a_dim, -1, r_dim).transpose(2, 0, 1).reshape(r_dim * a_dim, -1)
    lhs = last.transpose(1, 3, 0, 2).reshape(-1, r_dim * a_dim)
    del prod, last      # two products at most are alive at a time
    legs = np.dot(lhs, rhs)
    del lhs, rhs        # only the traced product meets its transposed copy
    n = len(site_ops)    # legs (j_N, k_N, ..., j_1, k_1) to (j_1, ..., j_N, k_1, ..., k_N)
    out = legs.reshape([d for op in reversed(site_ops) for d in op.shape[1::2]])
    out = out.transpose([*range(2 * n - 2, -1, -2), *range(2 * n - 1, 0, -2)])
    return out.reshape(int(np.prod(out.shape[:n])), -1)


def _aux_product(factors) -> np.ndarray:
    """X_0 ... X_{m-1}, X_i (legs (2, d, 2, d)) on aux leg i of (C^2)^{x m} x V, leg 0 slowest.

    Leading point axes, the same on every factor, are kept: one product per point.
    """
    op = factors[0]
    for x in factors[1:]:
        *lead, a, d = op.shape[:-2]
        op = np.matmul(op.reshape(*lead, -1, d), x.swapaxes(-4, -3).reshape(*lead, d, -1))
        op = np.moveaxis(op.reshape(*lead, a, d, a, 2, 2, d), -3, -5)
        op = op.reshape(*lead, 2 * a, d, 2 * a, d)
    return op


def transfer(chain: ChainSpec, lam: complex) -> np.ndarray:
    """Transfer matrix: the monodromy chain closed by the aux trace, no 2D x 2D build."""
    eye = np.eye(2, dtype=CDTYPE)
    return _lax_chain(_site_laxes(chain, lam), eye, twist=chain.twist.matrix, close=eye)


class TransferEvaluator:
    """T(lam) from N kernel-built samples, and the fused tower by the recursion.

    T(lam) = tr K ell(lam) Id + sum_a c_a(lam) T(z_a), with ell and the cardinals c_a from
    one ``_Barycentric`` over z_a = c + r e^{2 pi i (a + 1/2) / N} around the grid-node
    centroid c, r = max(3, max |xi_n^(h) - c|): unlike the top nodes, these stay apart when
    two xi_n nearly collide.
    ``samples`` is the read-only (N, D, D) stack of T(z_a), the evaluator's only state;
    ``transfer`` and ``fused`` return fresh arrays.
    """

    def __init__(self, chain: ChainSpec):
        grid = np.concatenate([nodes for nodes, _, _ in chain.grid])
        radius = max(3.0, float(np.max(np.abs(grid - grid.mean()))))
        angles = 2 * np.pi * (np.arange(chain.n_sites) + 0.5) / chain.n_sites
        self.chain = chain
        self._interp = _Barycentric(grid.mean() + radius * np.exp(1j * angles))
        self.samples = np.empty((chain.n_sites,) + (chain.dim,) * 2, dtype=CDTYPE)
        for sample, z in zip(self.samples, self._interp.nodes):   # one build alive at a time
            sample[...] = transfer(chain, complex(z))
        self.samples.flags.writeable = False

    def transfer(self, lam: complex) -> np.ndarray:
        return self._at(np.array([complex(lam)]))[0]

    def _at(self, lams) -> np.ndarray:
        """T at the points ``lams`` (P,) as one (P, D, D) stack, each T bitwise its own call's:
        one GEMV per point, as one point takes (a GEMM over the points rounds otherwise)."""
        flat = self.samples.reshape(len(self.samples), -1)
        out = np.empty((len(lams), flat.shape[1]), dtype=CDTYPE)
        ell, cards = self._interp.ell_cardinals(lams[:, None])
        for card, row in zip(cards, out):
            np.dot(card, flat, out=row)
        out[:, ::self.chain.dim + 1] += np.array([self.chain.twist.trace * z for z in ell])[:, None]
        return out.reshape(len(lams), *self.samples.shape[1:])

    def fused(self, top: int, lams, start=None) -> np.ndarray:
        """T^(0..top) at the points ``lams`` by the fusion recursion, T^(0) = Id: the towers
        (top + 1, *lams.shape, D, D), or with a start block S ((D, r), or (P, D, r) per
        point) the towers times S, (top + 1, *lams.shape, D, r). They are the leading minors
        of the tridiagonal matrix with diagonal T(lam + k eta), k < top, and off-diagonal
        products detq(lam + k eta), 0 < k < top, each at its own point (``det_q`` of an
        array rounds otherwise); T^(1) = T, with no product by Id."""
        if top < 0:
            raise ValueError(f"top must be >= 0, got {top}")
        lams = np.asarray(lams, dtype=CDTYPE)
        points = lams.reshape(-1) + self.chain.eta * np.arange(top)[:, None]
        offprod = np.array([[self.chain.det_q(complex(z)) for z in row] for row in points[1:]],
                           dtype=CDTYPE).reshape(-1, lams.size)
        if start is not None:
            start = np.broadcast_to(start, (lams.size,) + np.shape(start)[-2:])
        out = self._tower_images(points, offprod, start)
        return out.reshape((top + 1,) + lams.shape + out.shape[-2:])

    def _tower_images(self, points, offprod, start) -> np.ndarray:
        """(m + 1, P, D, r): the minors F_0..F_m of point p's tridiagonal matrix (diagonal
        T(points[i, p]), off-diagonal products offprod[i, p]) on start[p] (Id when None), by
        chunks of points (``_chunks``) whose one (c, D, D) stack of T at one shift is the
        only one alive."""
        shape = (points.shape[1],) + (self.chain.dim,) * 2 if start is None else start.shape
        out = np.empty((len(points) + 1,) + shape, dtype=CDTYPE)
        for s in _chunks(shape[0], shape[-2] ** 2):
            tridiagonal_operator_minors((self._at(z) for z in points[:, s]), offprod[:, s],
                                        out[:, s], None if start is None else start[s])
        return out


def tridiagonal_operator_minors(diag, offprod, out, start=None) -> np.ndarray:
    """Leading principal minors F_0..F_m of an m x m tridiagonal matrix times the start
    block S = ``start`` (Id when None), written into ``out``.

    The diagonal entries are commuting D x D operators, read one at a time from
    the iterable ``diag``; ``offprod[j]`` is the scalar product (or one per point of
    a stack) of the off-diagonal pair coupling rows j and j + 1. ``out`` is the
    (m + 1, ..., D, r) stack: F_0 = Id, F_1 = diag[0], F_(j+1) = diag[j] F_j -
    offprod[j-1] F_(j-1).
    """
    diag = iter(diag)
    out[0] = np.eye(out.shape[-1]) if start is None else start
    if len(out) > 1:
        out[1] = next(diag) if start is None else np.matmul(next(diag), start)
    for j, op in enumerate(diag, start=1):
        np.matmul(op, out[j], out=out[j + 1])
        out[j + 1] -= np.asarray(offprod[j - 1])[..., None, None] * out[j - 1]
    return out


def fused_transfer_projector(chain: ChainSpec, level: int, lam: complex) -> np.ndarray:
    """Fused transfer matrix via the symmetrized auxiliary-space product.

    Independent of the recursion: site n's operator G_n = L_0n(lam + (level-1) eta) ...
    L_{level-1,n}(lam), on aux leg i of (C^2)^{x level} and on site n, maps the symmetric
    subspace into itself, so the projected product is the chain of the fused Lax operators
    U^dagger G_n U (U = ``symmetric_basis(level)``, level + 1 aux states in place of
    2^level), closed by the fused twist and the aux trace, as ``transfer`` closes the chain.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    u = symmetric_basis(level)
    laxes = [_site_laxes(chain, complex(lam) + (level - 1 - i) * chain.eta) for i in range(level)]
    ops = []
    for per_leg in zip(*laxes):   # U^dagger G_n U: legs (level + 1, d, level + 1, d)
        g = _aux_product(per_leg)
        half = (u.conj().T @ g.reshape(len(u), -1)).reshape(level + 1, -1, len(u), g.shape[-1])
        ops.append(np.matmul(half.swapaxes(2, 3), u).swapaxes(2, 3))
    eye = np.eye(level + 1, dtype=CDTYPE)
    return _lax_chain(ops, eye, twist=fused_twist(chain.twist, level), close=eye)


# ---------------------------------------------------------------------------
# identity checks on probes
# ---------------------------------------------------------------------------

_PROBES = 8              # k, the probe columns of every probe residual
_BATCH_BYTES = 2 ** 18   # the most one batch's kernel state takes, unless one point needs more


def _lax_apply(site_ops, x) -> np.ndarray:
    """op_N ... op_1 x for every point: ``x`` has shape (P..., R, D, k), site 1 slowest in D.

    ``site_ops[n]`` holds one operator per point, legs (P..., A_n, d_n, A_(n-1), d_n)
    with A_0 = R; ``x`` broadcasts against the point axes. Site n is one batched
    GEMM, (P..., A_n d_n, A_(n-1) d_n) @ (P..., A_(n-1) d_n, rest), on the state with
    site n's leg next to the aux leg; the leg it leaves is moved to the back, before
    the probe axis (so each copy moves blocks of k), and after site N one such move
    of d_N restores (P..., A_N, D, k). At most two states are alive at a time.
    """
    k, lead = x.shape[-1], x.shape[:-3]
    for n, op in enumerate(site_ops):
        a, d, r = op.shape[-4:-1]
        if n:   # the leg site n - 1 left goes to the back
            x = np.ascontiguousarray(np.moveaxis(x.reshape(*lead, r, prev, -1, k), -3, -2))
        x = np.matmul(op.reshape(*op.shape[:-4], a * d, r * d), x.reshape(*lead, r * d, -1))
        lead, prev = x.shape[:-2], d
    return np.moveaxis(x.reshape(*lead, a, d, -1, k), -3, -2).reshape(*lead, a, -1, k)


def _closed(site_ops, start, close) -> list:
    """``site_ops`` with ``start`` (P..., A, R) folded into the first operator and
    ``close`` (P..., C, A) into the last: ``_lax_apply`` then takes (R, D, k) probes
    to the (P..., C, D, k) images of close . op_N ... op_1 . start."""
    ops = list(site_ops)
    ops[0] = np.einsum("...ajck,...cr->...ajrk", ops[0], start)
    ops[-1] = np.einsum("...ac,...cjbk->...ajbk", close, ops[-1])
    return ops


def _probes(chain: ChainSpec, salt: int, rows: int) -> np.ndarray:
    """(rows, D, k) complex Gaussian probes from ``chain.rng(salt)``, E |v|^2 = 1."""
    rng = chain.rng(salt)
    shape = (rows, chain.dim, _PROBES)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _chunks(n_points: int, entries: int) -> list:
    """Slices of consecutive points, as many per slice as fit ``_BATCH_BYTES`` (one at least);
    ``entries`` is one point's share of the kernel state."""
    step = max(1, _BATCH_BYTES // (16 * entries))
    return [slice(i, i + step) for i in range(0, n_points, step)]


def _probe_residual(x, y, *refs) -> np.ndarray:
    """||(Y - X) V|| / max(1, ||X V||, ||ref V||, ...) along the last axis, each norm over sqrt(k).

    With E ||X V||^2 = k ||X||_F^2 for the Gaussian probes V (Hutchinson 1990;
    Freivalds 1977) this estimates ||Y - X||_F / max(1, ||X||_F, ...), the
    residual convention of the dense identities, from the images XV, YV, ref V.
    """
    norm = _probe_norm
    return norm(y - x) / functools.reduce(np.maximum, map(norm, refs), np.maximum(1.0, norm(x)))


def _probe_norm(z, axes=1) -> np.ndarray:
    """||z|| / sqrt(k) over the last ``axes`` axes (2: (D, k) images), no |z|^2 temporary."""
    f = np.ascontiguousarray(z.reshape(*z.shape[:z.ndim - axes], -1)).view(np.float64)
    return np.sqrt(np.einsum("...i,...i", f, f) / _PROBES)


def _two_sided(ops, starts, twists, probes) -> np.ndarray:
    """Per point, ``_probe_residual`` of side 0 against side 1 on ``probes`` (A, D, k),
    side i being twists[i] op[i]_N ... op[i]_1 starts[i].

    ``ops[n]`` is (2, P, A, d_n, A, d_n), ``starts`` and ``twists`` (2, P, A, A); the
    points go through ``_lax_apply`` in chunks, both sides of a chunk in one batch.
    """
    ops = _closed(ops, starts, twists)

    def residual(s):   # one chunk's images, freed before the next chunk's
        x = _lax_apply([op[:, s] for op in ops], probes)
        return _probe_residual(*x.reshape(2, x.shape[1], -1))

    return np.array([r for s in _chunks(ops[0].shape[1], 2 * probes.size) for r in residual(s)])


def rtt_residual(chain: ChainSpec, lams, mus) -> np.ndarray:
    """Exchange-relation residual of R12 M1(lam) M2(mu) = M2(mu) M1(lam) R12, one per pair.

    Both sides act on probes of C^2 x C^2 x H: M1(lam) M2(mu) = (K x K) prod_n
    L_1n(lam) L_2n(mu), and M2(mu) M1(lam) = P12 M1(mu) M2(lam) P12. R12 = (lam - mu) Id +
    eta P12 is the spin-1/2 Lax operator, read from its parts as the YBE row reads them.
    """
    lams, mus = np.atleast_1d(lams), np.atleast_1d(mus)
    if lams.shape != mus.shape:
        raise ValueError(f"one mu per lam: got {lams.shape} and {mus.shape}")
    kk, (eye, p12) = _twist_power(chain.twist.matrix.tobytes(), 2), _lax_parts(1)
    r12 = (lams - mus)[:, None, None] * eye + chain.eta * p12
    ops = [np.stack([_aux_product(p), _aux_product(p[::-1])])
           for p in zip(_site_laxes(chain, lams), _site_laxes(chain, mus))]
    starts = np.stack([np.broadcast_to(np.eye(4), r12.shape), p12 @ r12])
    twists = np.stack([r12 @ kk, np.broadcast_to(p12 @ kk, r12.shape)])
    return _two_sided(ops, starts, twists, _probes(chain, 601, 4))


def quantum_det_residual(chain: ChainSpec, lams) -> np.ndarray:
    """Residual of A(lam) D(lam-eta) - B(lam) C(lam-eta) = detq(lam) Id, one per point.

    The left side is entry ((0,1), (0,1)) minus entry ((0,1), (1,0)) of
    M1(lam) M2(lam - eta) on C^2 x C^2: the kernel grows it on the probes from
    aux state e_(0,1) - e_(1,0), and row e_(0,1) of K x K closes it. The scale
    is max(1, ||detq Id||, ||left side||), on the probes.
    """
    lams = np.atleast_1d(lams)
    start = np.array([[0.0], [1.0], [-1.0], [0.0]], dtype=CDTYPE)
    close = _twist_power(chain.twist.matrix.tobytes(), 2)[1:2]
    probes = _probes(chain, 602, 1)
    ops = _closed([_aux_product(p) for p in zip(_site_laxes(chain, lams),
                                                _site_laxes(chain, lams - chain.eta))],
                  start, close)
    target = chain.det_q(lams)[:, None] * probes.reshape(1, -1)

    def residual(s):   # one chunk's images, freed before the next chunk's
        x = _lax_apply([op[s] for op in ops], probes)
        x = x.reshape(len(x), -1)
        return _probe_residual(target[s], x, x)

    return np.array([r for s in _chunks(len(lams), 4 * probes.size) for r in residual(s)])


def symmetry_residual(chain: ChainSpec, lams) -> np.ndarray:
    """Residual of [M^(I)(lam), K] = 0, K = K_0 (x) prod_n K^(2s_n), relative to ||K M^(I)||.

    One residual per point of ``lams``: the sides K M^(I) = K_0 prod_n (K_n L_0n)
    and M^(I) K = prod_n (L_0n K_n) K_0 act on probes of C^2 x H.
    """
    lams = np.atleast_1d(lams)
    k, eye = chain.twist.matrix, np.eye(2, dtype=CDTYPE)
    ops = [np.stack([np.einsum("ij,pajbk->paibk", t, op), np.einsum("pajbk,kl->pajbl", op, t)])
           for t, op in zip([fused_twist(k, site.two_s) for site in chain.sites],
                            _site_laxes(chain, lams))]
    starts, twists = (np.broadcast_to(np.stack(m)[:, None], (2, len(lams), 2, 2))
                      for m in ((eye, k), (k, eye)))
    return _two_sided(ops, starts, twists, _probes(chain, 603, 2))


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
    vanishing at xi_n - eta/2 - s_n eta. One tower on the probes up to the
    largest level, at every bottom node and at lam_ref, serves every site.
    """
    lams = [chain.node(n, site.two_s) for n, site in enumerate(chain.sites)] + [lam_ref]
    norms = _probe_norm(evaluator.fused(max(chain.dims), lams, _probes(chain, 606, 1)[0]), 2)
    return np.array([norms[site.dim, n] / max(1.0, norms[site.dim, -1])
                     for n, site in enumerate(chain.sites)])


def _commuting_residuals(evaluator: TransferEvaluator, lam, mu, top: int) -> np.ndarray:
    """||[T^(l)(lam), T^(m)(mu)]|| / max(1, ||T^(l)(lam)|| ||T^(m)(mu)||), l and m = 1..top,
    on the probes V: (top, top). Both towers on V give A_l = T^(l)(lam) V and B_m =
    T^(m)(mu) V, whose norms estimate the scale's; then the lam tower on [B_1..B_top] and
    the mu tower on [A_1..A_top], in one call, give both orders of the products."""
    probes = _probes(evaluator.chain, 606, 1)[0]
    a, b = np.moveaxis(evaluator.fused(top, [lam, mu], probes)[1:], 1, 0)
    start = np.stack([np.concatenate(list(x), axis=-1) for x in (b, a)])
    both = evaluator.fused(top, [lam, mu], start)[1:].reshape(
        top, 2, -1, top, _PROBES)                  # (l, point, D, m, k) and (m, point, D, l, k)
    diff = both[:, 0] - both[:, 1].transpose(2, 1, 0, 3)
    scale = _probe_norm(a, 2)[:, None] * _probe_norm(b, 2)[None]
    return _probe_norm(diff.transpose(0, 2, 1, 3), 2) / np.maximum(1.0, scale)


def _tridiagonal_residuals(evaluator: TransferEvaluator, lams) -> np.ndarray:
    """Per point, the level-l tridiagonal matrix read bottom-up, diagonal T(lam + (l - 1 - i)
    eta), i < l, and off-diagonal products k1 a * k2 d from its entries (not det_q), each at
    its own point, against the tower T^(l)(lam), l = 2, 3, on the probes: (P, 2)."""
    chain, lams = evaluator.chain, np.asarray(lams, dtype=CDTYPE)
    tower, out = evaluator.fused(3, lams, _probes(chain, 606, 1)[0]), []
    for l in (2, 3):
        z = lams + chain.eta * (l - 1 - np.arange(l))[:, None]
        offprod = np.array([[chain.twist.k1 * chain.a(complex(x)) * (chain.twist.k2 * chain.d(
            complex(y))) for x, y in zip(*rows)] for rows in zip(z[:-1], z[1:])], dtype=CDTYPE)
        det = evaluator._tower_images(z, offprod, tower[0])[-1]
        out.append(_probe_residual(*(x.reshape(len(lams), -1) for x in (tower[l], det))))
    return np.stack(out, axis=1)


def polynomiality_residual(evaluator: TransferEvaluator, rng) -> tuple:
    """Degree-N certificates of T from the evaluator's samples and the kernel at p1 and p2,
    within sqrt 2 of the grid centroid (1.5 at least from every sample node). E(p) = T(p) -
    evaluator.transfer(p) is ell(p) times the top divided difference over the samples and p,
    less tr K Id; the interpolant through the samples and p1 misses T(p2) by E(p2) -
    E(p1) ell(p2) / ell(p1)."""
    chain, errors, ells = evaluator.chain, [], []
    centroid = np.concatenate([nodes for nodes, _, _ in chain.grid]).mean()
    for p in centroid + random_complex(rng, size=2, box=1.0):
        t = transfer(chain, complex(p))
        scale = max(1.0, frob(t))     # ||T(p2)|| once the loop ends
        t -= evaluator.transfer(p)
        errors.append(t)
        ells.append(evaluator._interp.ell_cardinals(p)[0])
    held_out = frob(errors[1] - errors[0] * (ells[1] / ells[0])) / scale
    lead = frob(errors[0]) / abs(ells[0])
    return held_out, lead / max(1.0, abs(chain.twist.trace) * np.sqrt(chain.dim))
