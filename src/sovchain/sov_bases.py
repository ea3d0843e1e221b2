"""The three covector separation-of-variables bases and their verifiers.

Three constructions of a covector basis indexed by h = (h_1..h_N),
h_n in 0..2s_n. Each is a site product: row h is a source covector times
one operator per site and grid level, O_1(h_1) ... O_N(h_N), and all rows
are built together by ``_site_product_rows``:

* ``sklyanin_basis``: repeated action of the twisted A-operator at grid
  points on the tensor-product reference covector. The rows are
  eigencovectors of the twisted B-family (of its W-conjugate when the
  twist's b entry vanishes).
* ``sov_basis_1``: powers of the site-local fundamental fused transfer
  matrices acting on a generic covector.
* ``sov_basis_2``: the full fused tower evaluated at the bottom grid nodes;
  with the generating covector set to the top Sklyanin row the two bases
  coincide row by row.

Out-of-range shifted multi-indices denote the zero covector throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, _tower_denominators, index_of, multi_indices
from .errors import DegenerateBasis
from .local_ops import kron_chain
from .numerics import CDTYPE, frob
from .transfer import (TransferEvaluator, global_fused_twist_product,
                       monodromy_blocks, reference_covector)

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
    """Ordered family of dim(H) covectors; row order is lexicographic in h."""

    rows: np.ndarray
    kind: str
    chain: ChainSpec
    source: np.ndarray

    def row(self, h) -> np.ndarray:
        return self.rows[index_of(self.chain, h)]

    def row_or_zero(self, h) -> np.ndarray:
        """Row for h, or the zero covector when h is out of range."""
        for hn, d in zip(h, self.chain.dims):
            if not 0 <= hn < d:
                return np.zeros(self.chain.dim, dtype=CDTYPE)
        return self.row(h)


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


def _site_product_rows(source, per_site) -> np.ndarray:
    """Rows source @ per_site[0][h_0] @ ... @ per_site[N-1][h_{N-1}], h lexicographic.

    One site at a time: each (site, level) operator multiplies every row
    built so far in a single matrix product.
    """
    rows = np.asarray(source, dtype=CDTYPE)[None, :]
    for ops in per_site:
        rows = np.stack([rows @ op for op in ops], axis=1).reshape(-1, rows.shape[1])
    return rows


def sklyanin_basis(chain: ChainSpec, validate=True) -> CovectorBasis:
    """Covector eigenbasis of the twisted B-family.

    Row h is the reference covector hit by A^(K)(xi_n^(k)) / (k1 a(xi_n^(k)))
    for k = 0..h_n-1 at every site, divided by the global normalization.
    When the twist has b = 0 the W-conjugated twist drives the products and
    the rows are multiplied by the inverse of the fused conjugator.
    """
    twist = chain.twist
    if not twist.invertible:
        raise ValueError("Sklyanin construction requires an invertible twist")
    conj = twist.needs_conjugation
    k_build = twist.conjugated() if conj else twist.matrix

    per_site = []
    for n, site in enumerate(chain.sites):
        ops = [np.eye(chain.dim, dtype=CDTYPE)]
        for k in range(site.two_s):
            node = chain.node(n, k)
            blocks = monodromy_blocks(chain, node, twist_matrix=k_build)
            ops.append(ops[-1] @ blocks.a / (twist.k1 * chain.a(node)))
        per_site.append(ops)

    norm = sklyanin_norm(chain)
    if abs(norm) < 1e-150:
        # coinciding top nodes; keep rows finite so the rank check can report
        norm = 1.0
    rows = _site_product_rows(reference_covector(chain) / norm, per_site)
    if conj:
        w_glob = global_fused_twist_product(chain, twist.w)
        rows = rows @ np.linalg.inv(w_glob)
    basis = CovectorBasis(rows=rows, kind="sklyanin", chain=chain,
                          source=reference_covector(chain))
    if validate:
        _require_full_rank(basis)
    return basis


def sov_basis_1(chain: ChainSpec, source=None, evaluator=None, validate=True) -> CovectorBasis:
    """Basis from powers of the fundamental fused charges.

    Row h applies (T^(2s_n) at the next-to-bottom node of site n)^(h_n) to the
    generating covector. Default source: seeded complex-Gaussian covector.
    """
    twist = chain.twist
    if not twist.invertible:
        raise ValueError("this construction requires an invertible twist")
    evaluator = evaluator or TransferEvaluator(chain)
    charges = [evaluator.fused(site.two_s, chain.node(n, site.two_s - 1))
               for n, site in enumerate(chain.sites)]
    if source is None:
        source = _gaussian_covector(chain, salt=1)
    rows = _site_product_rows(source, [[np.linalg.matrix_power(c, h) for h in range(site.dim)]
                                       for c, site in zip(charges, chain.sites)])
    basis = CovectorBasis(rows=rows, kind="sov1", chain=chain, source=np.asarray(source))
    if validate:
        _require_full_rank(basis)
    return basis


def sov_basis_2(chain: ChainSpec, source=None, evaluator=None, validate=True) -> CovectorBasis:
    """Basis from the fused tower at the bottom grid nodes.

    Row h multiplies the generating covector by, per site,
    k2^(h_n - 2s_n) T^(2s_n - h_n)(bottom node) over the partial product of
    d at the nodes above h_n. Row h = (2s_1..2s_N) is the source itself.
    """
    twist = chain.twist
    if not twist.invertible:
        raise ValueError("this construction requires an invertible twist")
    evaluator = evaluator or TransferEvaluator(chain)
    if source is None:
        source = _gaussian_covector(chain, salt=2)
    per_site = []
    for n, site in enumerate(chain.sites):
        bottom = chain.node(n, site.two_s)
        denoms = _tower_denominators(chain, n)
        per_site.append([evaluator.fused(site.two_s - hn, bottom) / denoms[hn]
                         for hn in range(site.dim)])
    rows = _site_product_rows(source, per_site)
    basis = CovectorBasis(rows=rows, kind="sov2", chain=chain, source=np.asarray(source))
    if validate:
        _require_full_rank(basis)
    return basis


def tensor_generating_covector(chain: ChainSpec, salt=3, max_tries=16) -> np.ndarray:
    """Tensor-product generating covector with per-site orbit validation.

    Each local covector is re-drawn until its orbit under powers of the
    site's fused twist spans the local space.
    """
    from .chain import fused_twist
    from .numerics import random_complex

    rng = chain.rng(salt)
    locals_ = []
    for site in chain.sites:
        k_loc = fused_twist(chain.twist, site.two_s)
        for _ in range(max_tries):
            cand = random_complex(rng, size=site.dim, box=1.0)
            orbit = np.zeros((site.dim, site.dim), dtype=CDTYPE)
            vec = cand.copy()
            for h in range(site.dim):
                orbit[h] = vec
                vec = vec @ k_loc
            sv = np.linalg.svd(orbit, compute_uv=False)
            if sv[-1] > 1e-8 * sv[0]:
                locals_.append(cand)
                break
        else:
            raise DegenerateBasis("no spanning local covector found; twist "
                                  "orbit is degenerate")
    return kron_chain(locals_).ravel()


def gram_rank(basis: CovectorBasis, precision="double"):
    """Numerical rank and smallest singular value of the row family.

    Rows are norm-equilibrated before the SVD so the rank decision is not
    distorted by the widely different row magnitudes of the raw products.
    ``precision='extended'`` reruns the decision with 30-digit arithmetic.
    """
    rows = basis.rows
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0.0):
        return 0, 0.0
    eq = rows / norms[:, None]
    tol = basis.chain.tolerances.gram
    if precision == "extended":
        import mpmath

        with mpmath.workdps(30):
            m = mpmath.matrix([[mpmath.mpc(z) for z in row] for row in eq])
            sv = mpmath.svd_c(m, compute_uv=False)
            svals = sorted((float(s) for s in sv), reverse=True)
    elif precision == "double":
        svals = np.linalg.svd(eq, compute_uv=False)
    else:
        raise ValueError(f"unknown precision {precision!r}")
    rank = int(np.sum(np.asarray(svals) > tol * svals[0]))
    return rank, float(svals[-1])


def _require_full_rank(basis: CovectorBasis):
    rank, smallest = gram_rank(basis)
    if rank < basis.chain.dim:
        raise DegenerateBasis(
            f"{basis.kind} covector family has rank {rank} < {basis.chain.dim} "
            f"(smallest singular value {smallest:.3e}); re-seed the chain or source")


def _gaussian_covector(chain: ChainSpec, salt: int) -> np.ndarray:
    rng = chain.rng(salt)
    return (rng.standard_normal(chain.dim) + 1j * rng.standard_normal(chain.dim)).astype(CDTYPE)


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

def _acting_blocks(chain: ChainSpec, lam: complex):
    """Blocks whose actions the Sklyanin rows diagonalize/shift.

    For b != 0 these are the plain twisted blocks. For b = 0 they are the
    conjugated family W_glob . block(K_bar) . W_glob^-1, with the eigenvalue
    prefactors read off the conjugated twist.
    """
    twist = chain.twist
    if not twist.needs_conjugation:
        blocks = monodromy_blocks(chain, lam)
        return blocks, twist.a, twist.b, twist.d
    kbar = twist.conjugated()
    blocks = monodromy_blocks(chain, lam, twist_matrix=kbar)
    w_glob = global_fused_twist_product(chain, twist.w)
    w_inv = np.linalg.inv(w_glob)
    conj = lambda mat: w_glob @ mat @ w_inv
    from .transfer import MonodromyBlocks

    blocks = MonodromyBlocks(a=conj(blocks.a), b=conj(blocks.b),
                             c=conj(blocks.c), d=conj(blocks.d))
    return blocks, complex(kbar[0, 0]), complex(kbar[0, 1]), complex(kbar[1, 1])


def b_eigen_report(basis: CovectorBasis, lams) -> float:
    """Max relative residual of the B-eigenvalue relation over rows and lams."""
    chain = basis.chain
    worst = 0.0
    for lam in lams:
        blocks, _, b_entry, _ = _acting_blocks(chain, lam)
        acted = basis.rows @ blocks.b
        for h in multi_indices(chain):
            i = index_of(chain, h)
            eig = b_entry
            for n, hn in enumerate(h):
                eig *= lam - chain.node(n, hn)
            resid = acted[i] - eig * basis.rows[i]
            scale = max(1.0, abs(eig) * frob(basis.rows[i]), frob(acted[i]))
            worst = max(worst, frob(resid) / scale)
    return worst


def shift_action_report(basis: CovectorBasis, lams=None) -> dict:
    """Residuals of the A/D raising/lowering actions on the Sklyanin rows.

    At a spectral parameter equal to a grid value of site a the action
    collapses to the single shifted row; at general lam it is the
    interpolation sum plus the diagonal term carrying the twist's own
    diagonal entry times prod_n (lam - xi_n^(h_n)). Default lams: every grid
    value.

    Vectorized over the rows: the interpolation points xi_n^(h_n) of every
    row and their barycentric weights are formed once for all lam, the
    cardinals of all rows at one lam form one (D, N) array (the unit vector
    e_n on an exact node hit, as in ``_Barycentric``), and the rows h +- e_n
    are zero-padded slices of the rows arranged as a (d_1, ..., d_N, D) array.
    """
    chain = basis.chain
    twist = chain.twist
    if lams is None:
        lams = [node for _, _, node in chain.all_nodes()]
    n_sites = chain.n_sites
    hs = np.array(multi_indices(chain))
    points = np.empty(hs.shape, dtype=CDTYPE)   # row h, column n: xi_n^(h_n)
    a_at = np.empty(hs.shape, dtype=CDTYPE)
    d_at = np.empty(hs.shape, dtype=CDTYPE)
    for n in range(n_sites):
        nodes = chain.nodes(n)
        points[:, n] = nodes[hs[:, n]]
        a_at[:, n] = np.array([chain.a(z) for z in nodes], dtype=CDTYPE)[hs[:, n]]
        d_at[:, n] = np.array([chain.d(z) for z in nodes], dtype=CDTYPE)[hs[:, n]]
    pair_diff = points[:, :, None] - points[:, None, :]
    pair_diff[:, np.arange(n_sites), np.arange(n_sites)] = 1.0
    weights = 1.0 / np.prod(pair_diff, axis=2)

    shape = chain.dims + (chain.dim,)
    cube = basis.rows.reshape(shape)
    worst_a = 0.0
    worst_d = 0.0
    for lam in lams:
        blocks, a_entry, _, d_entry = _acting_blocks(chain, lam)
        gap = lam - points
        diag = np.prod(gap, axis=1)
        cards = _row_cardinals(gap, weights)
        rhs_a = ((a_entry * diag)[:, None] * basis.rows).reshape(shape)
        rhs_d = ((d_entry * diag)[:, None] * basis.rows).reshape(shape)
        up = (cards * twist.k1 * a_at).reshape(chain.dims + (n_sites,))
        down = (cards * twist.k2 * d_at).reshape(chain.dims + (n_sites,))
        for n in range(n_sites):
            lo = (slice(None),) * n + (slice(None, -1),)
            hi = (slice(None),) * n + (slice(1, None),)
            rhs_a[lo] += up[lo][..., n, None] * cube[hi]
            rhs_d[hi] += down[hi][..., n, None] * cube[lo]
        worst_a = max(worst_a, _worst_row_residual(basis.rows @ blocks.a,
                                                   rhs_a.reshape(chain.dim, -1)))
        worst_d = max(worst_d, _worst_row_residual(basis.rows @ blocks.d,
                                                   rhs_d.reshape(chain.dim, -1)))
    return {"a_action": worst_a, "d_action": worst_d}


def _row_cardinals(gap: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Cardinals of every row's node set at one point, from gap = lam - nodes.

    Row i is prod(gap_i) * weights_i / gap_i, or e_j where gap_i[j] == 0.
    """
    hit = gap == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        cards = np.prod(gap, axis=1)[:, None] * weights / gap
    on_node = np.flatnonzero(hit.any(axis=1))
    cards[on_node] = 0.0
    cards[on_node, hit[on_node].argmax(axis=1)] = 1.0
    return cards


def _worst_row_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Max over rows of ||lhs_i - rhs_i|| / max(1, ||lhs_i||, ||rhs_i||)."""
    scale = np.maximum(1.0, np.maximum(np.linalg.norm(lhs, axis=1),
                                       np.linalg.norm(rhs, axis=1)))
    return float(np.max(np.linalg.norm(lhs - rhs, axis=1) / scale))


def separate_action_report(basis: CovectorBasis, evaluator=None) -> float:
    """Residual of the transfer-matrix separate action on the tower basis.

    Checks row(h) T(xi_n^(h_n)) = k1 a row(h+e_n) + k2 d row(h-e_n) for every
    h and n; boundary terms vanish through a (top node) and d (bottom node).
    """
    chain = basis.chain
    twist = chain.twist
    evaluator = evaluator or TransferEvaluator(chain)
    worst = 0.0
    for h in multi_indices(chain):
        row = basis.row(h)
        for n in range(chain.n_sites):
            node = chain.node(n, h[n])
            lhs = row @ evaluator.transfer(node)
            up = list(h)
            up[n] += 1
            down = list(h)
            down[n] -= 1
            rhs = (twist.k1 * chain.a(node) * basis.row_or_zero(up)
                   + twist.k2 * chain.d(node) * basis.row_or_zero(down))
            scale = max(1.0, frob(lhs), frob(rhs))
            worst = max(worst, frob(lhs - rhs) / scale)
    return worst
