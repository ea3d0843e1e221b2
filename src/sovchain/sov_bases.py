"""The three covector separation-of-variables bases and their verifiers.

Three constructions of a covector basis indexed by h = (h_1..h_N),
h_n in 0..2s_n. Each is a site product: row h is a source covector times
one operator per site and grid level, O_1(h_1) ... O_N(h_N), and all rows
are built together by ``_site_product_rows``:

* ``sklyanin_basis``: repeated action of the twisted A-operator at grid
  points on a tensor-product source covector, in the aux frame W^-1 M W of
  the twist's conjugator W (the plain monodromy and the reference covector
  unless the twist's b entry vanishes). The rows are eigencovectors of that
  frame's B-family.
* ``sov_basis_1``: powers of the site-local fundamental fused transfer
  matrices acting on a generic covector.
* ``sov_basis_2``: the full fused tower evaluated at the bottom grid nodes;
  with the generating covector set to the top Sklyanin row the two bases
  coincide row by row.

Out-of-range shifted multi-indices denote the zero covector throughout.
Every action identity is checked on the h-cube, the rows arranged as a
(d_1, ..., d_N, R) array: one node grid holds xi_n^(h_n) for every row, and
one zero-padded neighbour shift along axis n (``_neighbour_slices``) gives
the rows h +- e_n. The Sklyanin frame's B-eigen and A/D shift reports are one
stencil (``_frame_actions``): B's diagonal term, and for A and D the shift on top.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chain import ChainSpec, _tower_denominators, fused_twist, index_of
from .local_ops import kron_chain
from .numerics import CDTYPE, _Barycentric, random_complex
from .transfer import (_PROBES, TransferEvaluator, _chunks, _closed, _lax_apply, _probe_residual,
                       _probes, _site_laxes, monodromy_matrix)

__all__ = [
    "CovectorBasis",
    "sklyanin_norm",
    "sklyanin_basis",
    "sov_basis_1",
    "sov_basis_2",
    "tensor_generating_covector",
    "gram_rank",
    "b_eigen_report",
    "shift_action_report",
    "separate_action_report",
]


@dataclass
class CovectorBasis:
    """Ordered family of dim(H) covectors; row order is lexicographic in h.

    ``rows`` must not be changed after construction: ``rank`` is computed
    on first use and kept.
    """

    rows: np.ndarray
    kind: str
    chain: ChainSpec
    source: np.ndarray

    def row(self, h) -> np.ndarray:
        return self.rows[index_of(self.chain, h)]

    @cached_property
    def rank(self) -> tuple:
        """Numerical rank and a bracket (lo, hi) of the smallest singular value of the rows.

        Rows are norm-equilibrated (after an exact power-of-two scaling, so no norm
        overflows), so the rank decision is not distorted by the widely different row
        magnitudes of the raw products. The unit rows B have sigma_max <= sqrt(D) and
        1 / ||B^-1||_F <= sigma_min <= sqrt(D) / ||B^-1||_F: a lower end above 2 gram
        sqrt(D) (2 for the inverse's roundoff) certifies full rank. Otherwise the SVD
        decides, and lo = hi = sigma_min. A zero or non-finite row gives rank 0.
        """
        rows = self.rows * np.exp2(-np.frexp(np.max(np.abs(self.rows), axis=1))[1])[:, None]
        norms = np.linalg.norm(rows, axis=1)
        if not np.all(np.isfinite(norms) & (norms > 0.0)):
            return 0, (0.0, 0.0)
        rows /= norms[:, None]     # the one scaled copy
        root_d, cut = np.sqrt(len(rows)), self.chain.tolerances.gram
        with contextlib.suppress(np.linalg.LinAlgError):
            lo = 1.0 / np.linalg.norm(np.linalg.inv(rows))
            if lo > 2.0 * cut * root_d:     # False for NaN
                return len(rows), (float(lo), float(min(1.0, root_d * lo)))
        svals = np.linalg.svd(rows, compute_uv=False)
        return int(np.sum(svals > cut * svals[0])), (float(svals[-1]),) * 2


def sklyanin_norm(chain: ChainSpec) -> complex:
    """Overall normalization prod_{b<a} (xi_a^(0) - xi_b^(0))^(1/2).

    Principal square-root branch; this is a single global scalar on the
    basis, so the branch choice washes out of every identification test.
    """
    out = 1.0 + 0.0j
    for a in range(chain.n_sites):
        for b in range(a):
            out *= complex(chain.node(a, 0) - chain.node(b, 0)) ** 0.5
    return out


def _site_product_rows(source, per_site):
    """Rows source @ per_site[0][h_0] @ ... @ per_site[N-1][h_{N-1}], h lexicographic.

    One site at a time: each (site, level) operator multiplies every row
    built so far in a single matrix product. A (S, D) ``source`` gives a list
    of S row sets, one product per source and operator; ``per_site`` may be
    an iterator, so each site's operators are built when read and dropped
    once every source has passed them.
    """
    source = np.asarray(source, dtype=CDTYPE)
    rows = [s[None, :] for s in np.atleast_2d(source)]
    for ops in per_site:
        for i in range(len(rows)):   # one source's levels written into one (m, d_n, D) array
            out = np.empty((len(rows[i]), len(ops), rows[i].shape[1]), dtype=CDTYPE)
            for k, op in enumerate(ops):
                np.matmul(rows[i], op, out=out[:, k])
            rows[i] = out.reshape(-1, out.shape[-1])
    return rows if source.ndim > 1 else rows[0]


def sklyanin_basis(chain: ChainSpec) -> CovectorBasis:
    """Covector eigenbasis of the twisted B-family, in the aux frame W^-1 M W of ``twist.w``.

    Row h is the frame source hit by A(xi_n^(k)) / (k1 a(xi_n^(k))) for
    k = 0..h_n-1 at every site, divided by the global normalization, with A
    the frame's A block. The frame source is the tensor product of row 0 of
    each site's fused W^-1: the reference covector when W is the identity. A is grown
    from start W e_0 and closed by e_0^T W^-1: the plain monodromy's A when b != 0.
    """
    twist = chain.twist
    if not twist.invertible:
        raise ValueError("Sklyanin construction requires an invertible twist")
    w_inv = np.linalg.inv(twist.w)

    def per_site():   # one site's A-products alive at a time
        for n, site in enumerate(chain.sites):
            ops = [np.eye(chain.dim, dtype=CDTYPE)]
            for k in range(site.two_s):
                node = chain.node(n, k)
                block = monodromy_matrix(chain, node, start=twist.w[:, :1], close=w_inv[:1])
                ops.append((ops[-1] @ block if k else block) / (twist.k1 * chain.a(node)))
            yield ops

    norm = sklyanin_norm(chain)
    if abs(norm) < 1e-150:
        # coinciding top nodes; keep rows finite so the rank check can report
        norm = 1.0
    source = kron_chain([fused_twist(w_inv, site.two_s)[0] for site in chain.sites]).ravel()
    return CovectorBasis(rows=_site_product_rows(source / norm, per_site()), kind="sklyanin",
                         chain=chain, source=source)


def sov_basis_1(chain: ChainSpec, evaluator: TransferEvaluator, source=None) -> CovectorBasis:
    """Basis from powers of the fundamental fused charges.

    Row h applies (T^(2s_n) at the next-to-bottom node of site n)^(h_n) to the
    generating covector. Default source: seeded complex-Gaussian covector.
    """
    return _tower_bases("sov1", chain, evaluator, [source])[0]


def sov_basis_2(chain: ChainSpec, evaluator: TransferEvaluator, source=None) -> CovectorBasis:
    """Basis from the fused tower at the bottom grid nodes.

    Row h multiplies the generating covector by, per site,
    k2^(h_n - 2s_n) T^(2s_n - h_n)(bottom node) over the partial product of
    d at the nodes above h_n. Row h = (2s_1..2s_N) is the source itself.
    """
    return _tower_bases("sov2", chain, evaluator, [source])[0]


def _tower_bases(kind: str, chain: ChainSpec, evaluator: TransferEvaluator, sources) -> list:
    """The ``kind`` basis ("sov1" or "sov2") from each source: a covector, or None for the
    default. Each site's operators are built once for all sources and freed before the
    next site's."""
    if not chain.twist.invertible:
        raise ValueError("this construction requires an invertible twist")

    def per_site():   # one site's operators alive at a time
        for n, site in enumerate(chain.sites):
            if kind == "sov1":
                charge = evaluator.fused(site.two_s, chain.node(n, site.two_s - 1))[-1]
                yield [np.linalg.matrix_power(charge, h) for h in range(site.dim)]
            else:
                tower = evaluator.fused(site.two_s, chain.node(n, site.two_s))
                for hn, denom in enumerate(_tower_denominators(chain, n)):
                    tower[site.two_s - hn] /= denom
                yield tower[::-1]

    salt = {"sov1": 1, "sov2": 2}[kind]
    sources = [_gaussian_covector(chain, salt) if s is None else np.asarray(s) for s in sources]
    return [CovectorBasis(rows=rows, kind=kind, chain=chain, source=source)
            for rows, source in zip(_site_product_rows(np.array(sources), per_site()), sources)]


def tensor_generating_covector(chain: ChainSpec) -> np.ndarray:
    """Tensor product of one seeded local covector per site.

    Whether each local orbit under powers of the fused twist spans its site
    is not checked here: ``basis.sov1.tensor_source_rank_deficit`` reports
    the rank of the basis the covector generates.
    """
    rng = chain.rng(3)
    return kron_chain([random_complex(rng, size=site.dim, box=1.0)
                       for site in chain.sites]).ravel()


def gram_rank(basis: CovectorBasis):
    """(rank, bracket of the smallest singular value) of the rows: ``basis.rank``, kept."""
    return basis.rank


def _gaussian_covector(chain: ChainSpec, salt: int) -> np.ndarray:
    rng = chain.rng(salt)
    return (rng.standard_normal(chain.dim) + 1j * rng.standard_normal(chain.dim)).astype(CDTYPE)


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

def _rows_on_probes(basis: CovectorBasis, lams, blocks, probes) -> np.ndarray:
    """rows @ block(i, j) V for each (i, j) of ``blocks``, blocks of the aux frame W^-1 M(lam) W,
    on ``probes`` V (D, k): (len(blocks), P, D, k). Every block of every point is one batch of
    ``_lax_apply`` from W e_j, closed by e_i^T W^-1 K; the rows multiply all images in one GEMM.
    """
    chain, w = basis.chain, basis.chain.twist.w
    rows, cols = (list(z) for z in zip(*blocks))
    start = w.T[cols, None, :, None]
    close = np.linalg.solve(w, chain.twist.matrix)[rows, None, None]
    ops = _closed([np.broadcast_to(op, (len(blocks),) + op.shape)
                   for op in _site_laxes(chain, lams)], start, close)
    x = _lax_apply(ops, probes[None])[..., 0, :, :]
    return np.moveaxis(np.tensordot(basis.rows, x, axes=(1, -2)), 0, -2)


def _frame_actions(basis: CovectorBasis, lams, blocks, salt: int) -> np.ndarray:
    """Per aux-frame block (i, j) of ``blocks``, the worst residual of its action on the rows.

    Block (i, j) of W^-1 M(lam) W takes row(h) to K_bar_ij prod_n (lam - xi_n^(h_n)) row(h),
    plus for i = j the interpolation sum over the neighbours (A raises h_n with k1 a, D lowers
    it with k2 d; at a grid value only the one shifted row is left). Both sides act on the
    salt's k probes (``_probe_residual``), the cardinals of a chunk one (P, D, N) array.
    """
    chain, lams = basis.chain, np.atleast_1d(lams)
    points, up_at, down_at = _node_grid(chain)
    rows_interp = _Barycentric(points)   # one node set per row
    probes = _probes(chain, salt, 1)[0]
    rows_v = basis.rows @ probes
    cube = rows_v.reshape(chain.dims + (_PROBES,))
    kbar, every = chain.twist.conjugated(), (slice(None),)

    def worst(s):   # one chunk's maxima; its images are freed before the next chunk's
        acted = _rows_on_probes(basis, lams[s], blocks, probes)
        lam = lams[s, None, None]
        diag, cards = rows_interp.ell_cardinals(lam)
        for (i, j), lhs in zip(blocks, acted):
            rhs = ((kbar[i, j] * diag)[..., None] * rows_v).reshape((-1,) + cube.shape)
            if i == j:   # A (i = 0) raises, D lowers
                coeff = (cards * (up_at, down_at)[i]).reshape(rhs.shape[:-1] + (chain.n_sites,))
                for n in range(chain.n_sites):
                    dst, src = _neighbour_slices(n, 1 - 2 * i)
                    rhs[every + dst] += coeff[every + dst][..., n, None] * cube[src]
            rhs = rhs.reshape(lhs.shape)
            yield np.max(_probe_residual(lhs, rhs, rhs))

    chunks = [list(worst(s)) for s in _chunks(len(lams), 2 * len(blocks) * chain.dim * _PROBES)]
    return np.max(np.reshape(chunks, (-1, len(blocks))), axis=0, initial=0.0)


def b_eigen_report(basis: CovectorBasis, lams) -> float:
    """Max relative residual of row(h) B(lam) = b prod_n (lam - xi_n^(h_n)) row(h), over every
    row and every lam, with B and b those of the aux frame (``_frame_actions``, salt 604)."""
    return float(_frame_actions(basis, lams, [(0, 1)], 604)[0])


def shift_action_report(basis: CovectorBasis, lams=None) -> dict:
    """Residuals of the A/D raising/lowering actions on the Sklyanin rows (``_frame_actions``,
    salt 605). Default lams: every grid value."""
    if lams is None:
        lams = [complex(z) for nodes, _, _ in basis.chain.grid for z in nodes]
    worst_a, worst_d = _frame_actions(basis, lams, [(0, 0), (1, 1)], 605)
    return {"a_action": float(worst_a), "d_action": float(worst_d)}


def separate_action_report(basis: CovectorBasis, evaluator: TransferEvaluator) -> float:
    """Residual of the transfer-matrix separate action on the tower basis.

    Checks row(h) T(xi_n^(h_n)) = k1 a row(h+e_n) + k2 d row(h-e_n) for every
    h and n on the salt-609 probes (``_separate_action_residual`` with R = D).
    """
    chain = basis.chain
    return _separate_action_residual(chain, basis.rows.reshape(chain.dims + (chain.dim,)),
                                     evaluator._at, _probes(chain, 609, 1)[0])


def _separate_action_residual(chain: ChainSpec, cube, ops_at, probes) -> float:
    """Worst residual of cube[h] T(xi_n^(h_n)) = k1 a cube[h+e_n] + k2 d cube[h-e_n] on the
    (R, k) block ``probes``: each side times V, each norm over sqrt(k).

    ``cube`` holds R-vectors per multi-index h, shape dims + (..., R); each
    is a residual row. ``ops_at(nodes)`` gives T at the nodes as a stack
    (len(nodes), ..., R, R) that broadcasts against the slabs h_n = k.
    Each site is one batched matmul of the (d_n, dim / d_n, ..., R) slabs
    with T V at its nodes. Out-of-range neighbours are the zero padding
    of the shift; their coefficients a (top node) and d (bottom node) vanish.
    """
    cube_v, residuals = cube @ probes, []
    for n, (nodes, a, d) in enumerate(chain.grid):
        slabs, slabs_v = (np.moveaxis(x, n, 0).reshape((len(nodes), -1) + x.shape[chain.n_sites:])
                          for x in (cube, cube_v))
        rhs = np.zeros_like(slabs_v)
        for coeff, step in ((chain.twist.k1 * a, 1), (chain.twist.k2 * d, -1)):
            dst, src = _neighbour_slices(0, step)
            rhs[dst] += coeff[dst].reshape((-1,) + (1,) * (slabs.ndim - 1)) * slabs_v[src]
        residuals.append(_worst_row_residual((slabs @ (ops_at(nodes) @ probes)).reshape(
            -1, probes.shape[-1]), rhs.reshape(-1, probes.shape[-1])))
    return float(np.max(residuals))


def _node_grid(chain: ChainSpec):
    """xi_n^(h_n) and k1 a, k2 d there: (D, N) arrays, row h in basis order, column n."""
    hs = np.indices(chain.dims).reshape(chain.n_sites, -1)
    points, a, d = np.stack([chain.grid[n][:, h] for n, h in enumerate(hs)], axis=2)
    return points, chain.twist.k1 * a, chain.twist.k2 * d


def _neighbour_slices(axis: int, step: int):
    """Index pair (dst, src) with x[src] = x at h + step e_axis for every h in dst (step = +-1).

    The h outside dst have no neighbour in the array: their shifted entry is
    the zero padding.
    """
    head = (slice(None),) * axis
    lo, hi = head + (slice(None, -1),), head + (slice(1, None),)
    return (lo, hi) if step > 0 else (hi, lo)


def _worst_row_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Max over rows of ||lhs_i - rhs_i|| / max(1, ||lhs_i||, ||rhs_i||), each norm over
    sqrt(columns): on k probe columns it estimates the rows' own residual. The rows go by
    ``_chunks``, so no temporary outgrows a chunk (at k = 1 they are D^2 wavefunction entries)."""
    def worst(s):
        part_l, part_r = (x[s] / np.sqrt(x.shape[1]) for x in (lhs, rhs))
        scale = np.maximum(1.0, np.maximum(np.linalg.norm(part_l, axis=1),
                                           np.linalg.norm(part_r, axis=1)))
        return np.max(np.linalg.norm(part_l - part_r, axis=1) / scale)

    return float(np.max([worst(s) for s in _chunks(len(lhs), lhs.shape[1])]))
