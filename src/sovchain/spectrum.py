"""Complete spectrum: brute-force oracle, discrete system, SoV eigenvectors.

Spectrum candidates are degree-N polynomials with leading coefficient tr(K),
parametrized by their values x_a at the top grid nodes xi_a^(0). A candidate
is on-shell iff, for every site n, the (2s_n+1)-dimensional tridiagonal
scalar matrix with diagonal t(xi_n^(0))..t(xi_n^(2s_n)), superdiagonal
-k1 a(node) and subdiagonal -k2 d(node) is singular. Every determinant, the
fused eigenvalues included, comes from one three-term recurrence for the
leading minors of a tridiagonal matrix (``_tridiagonal_minors``); the
x-derivatives of a site determinant are its diagonal cofactors, each a
leading minor times a trailing one. A spectrum is one ``TransferPolynomial``:
a (D, N) stack of node-value vectors, one row per eigenvalue, and every
scalar routine is one array computation over it. The oracle returns the
whole spectrum as one stack, and Newton refines such a stack into another.
``grid_ratios`` computes the ratios behind the wavefunction and the
Q-closure system once per stack; the wavefunction's separate-action row
checks them against the recursion they solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chain import ChainSpec, _tower_denominators, fused_twist
from .errors import NearDegenerateSpectrum, ResidualTooLarge
from .local_ops import kron_chain
from .numerics import CDTYPE, _Barycentric, frob, greedy_match, random_complex
from .sov_bases import _node_grid, _separate_action_residual
from .transfer import TransferEvaluator, transfer

__all__ = [
    "TransferPolynomial",
    "OracleSpectrum",
    "brute_force_spectrum",
    "discrete_residuals",
    "jacobian_smallest_sv",
    "magnon_sectors",
    "solve_discrete_system",
    "closed_form_solutions",
    "match_to_oracle",
    "wavefunction_action_report",
    "eigenvector_from_sov",
]


@dataclass
class TransferPolynomial:
    """Degree-N polynomials with leading coefficient tr(K), each stored by its
    values x_a at the top grid nodes z_a: row d of x, of shape (D, N).

    Evaluated as t(lam) = tr K ell(lam) + sum_a c_a(lam) x_a, with ell(lam) =
    prod_a (lam - z_a) and the cardinals c_a from one ``_Barycentric`` over the
    z_a; t(z_a) returns x_a exactly, row by row.
    """

    chain: ChainSpec
    x: np.ndarray
    _interp: _Barycentric = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=CDTYPE)
        if self.x.ndim != 2 or self.x.shape[1] != self.chain.n_sites:
            raise ValueError(f"expected a (D, {self.chain.n_sites}) stack of node values, "
                             f"got shape {self.x.shape}")
        self._interp = _Barycentric([self.chain.node(a, 0) for a in range(self.chain.n_sites)])

    def __call__(self, lam):
        """t at a point (D,); at points (P,), read as (1, P) so that one row rounds as in a
        taller stack, (D, P); or row d at lam[d] for lam of shape (D, P)."""
        lam = np.asarray(lam, dtype=CDTYPE)
        ell, cards = self._interp.ell_cardinals((lam[None] if lam.ndim == 1 else lam)[..., None])
        x = self.x[:, None] if lam.ndim else self.x
        return self.chain.twist.trace * ell + np.sum(cards * x, axis=-1)

    def __len__(self) -> int:
        return len(self.x)

    @cached_property
    def grid_ratios(self) -> list:
        """Ratios Q(xi_n^(h)) / Q(xi_n^(2s_n)), one (D, 2s_n + 1) array over h per site n.

        Closed form: the (2s_n - h)-th fused value at the bottom node over
        k2^(2s_n-h) times the partial product of d above level h. Computed
        on first access and kept; raises ValueError (not kept) when k2 = 0 on the
        scale of ``Twist.invertible``.
        """
        chain = self.chain
        return [np.moveaxis(_fused_tower(self, chain.node(n, site.two_s), site.two_s)[::-1], 0, -1)
                / _tower_denominators(chain, n) for n, site in enumerate(chain.sites)]

    @cached_property
    def discrete_residual(self):
        """Largest |discrete_residuals(self)| entry per row; computed on first access and kept."""
        return np.max(np.abs(discrete_residuals(self)), axis=-1)

    @cached_property
    def system(self) -> _DiscreteSystem:
        """The chain's discrete system, kept; Newton's solutions from this stack share it."""
        return _DiscreteSystem(self.chain)


@dataclass
class OracleSpectrum:
    """The brute-force oracle's spectrum, row i of ``t`` the eigenvalue of
    column i of ``vectors`` (right eigenvectors), row i of ``left`` (the
    inverse of ``vectors``) and entry i of ``value_at_lam0``; ``off_sector``
    is the largest off-sector part of a G^-1 T G, relative to ||T||."""

    t: TransferPolynomial
    vectors: np.ndarray
    left: np.ndarray
    value_at_lam0: np.ndarray
    off_sector: float = 0.0


def brute_force_spectrum(chain: ChainSpec) -> OracleSpectrum:
    """Independent oracle: dense diagonalization of T at one generic point, sector by sector.

    Each T is built by the kernel (``transfer``) and taken into the twist's
    eigenframe G (``_eigenframe``), where it conserves the magnon number M.
    Each sector block is diagonalized alone: V = G V_d, left = V_d^-1 G^-1, and
    the node values are diag(V_d^-1 (G^-1 T(node) G) V_d) per block. Raises
    NearDegenerateSpectrum when the eigenvalue gap at the probe point falls
    under tolerance (re-seed the chain then), and ResidualTooLarge when an
    off-sector part exceeds 1e-10 relative to ||T||, the gate of the same
    invariance in ``algebra.twist_symmetry``: it is roundoff (about 1e-15) in
    a correct frame, and a 1e-9 error in one entry of W makes it about 4e-10.
    """
    lam0 = complex(random_complex(chain.rng(10), box=2.0)) + 0.25j
    g, g_inv = _eigenframe(chain)
    sectors = magnon_sectors(chain)
    perm, sizes = np.concatenate(sectors), [len(m) for m in sectors]
    blocks = [slice(hi - n, hi) for hi, n in zip(np.cumsum(sizes), sizes)]
    outside = np.repeat(np.arange(len(sizes)), sizes)
    outside, off_sector = outside[:, None] != outside, []

    def in_frame(lam):   # G^-1 T(lam) G, the basis in sector order
        t = transfer(chain, lam)
        framed = _kron_apply(g_inv, _kron_apply([f.T for f in g], t.T).T)[np.ix_(perm, perm)]
        off_sector.append(frob(framed[outside]) / max(1.0, frob(t)))
        if off_sector[-1] > 1e-10:
            raise ResidualTooLarge(f"off-sector part {off_sector[-1]:.3e} of T({lam}) in the "
                                   "twist eigenframe")
        return framed

    t0 = in_frame(lam0)
    vals, vecs = zip(*(np.linalg.eig(t0[b, b]) for b in blocks))
    vals = np.concatenate(vals)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    scale = 1.0 + float(np.max(np.abs(vals)))
    gaps = np.abs(vals[:, None] - vals[None, :]) + np.eye(len(vals)) * scale
    if gaps.min() < chain.tolerances.zero * scale:
        raise NearDegenerateSpectrum(
            f"min eigenvalue gap {gaps.min():.3e} at probe point {lam0}")
    invs = [np.linalg.inv(v) for v in vecs]
    xs = np.empty((chain.dim, chain.n_sites), dtype=CDTYPE)
    for a in range(chain.n_sites):
        t = in_frame(chain.node(a, 0))
        for b, v, inv in zip(blocks, vecs, invs):
            xs[b, a] = np.sum((inv @ t[b, b]) * v.T, axis=1)
    vd, left_d = np.zeros((2, chain.dim, chain.dim), dtype=CDTYPE)
    for b, v, inv in zip(blocks, vecs, invs):
        vd[perm[b], b], left_d[b, perm[b]] = v, inv
    left = _kron_apply([f.T for f in g_inv], left_d[order].T).T
    return OracleSpectrum(TransferPolynomial(chain, xs[order]), _kron_apply(g, vd[:, order]),
                          np.ascontiguousarray(left), vals, max(off_sector))


def magnon_sectors(chain: ChainSpec) -> list:
    """Basis indices of each magnon sector, M = sum_n h_n lowered spins for M = 0..n_s."""
    sector = np.indices(chain.dims).reshape(chain.n_sites, -1).sum(axis=0)
    return [np.flatnonzero(sector == m) for m in range(chain.n_s + 1)]


def _eigenframe(chain: ChainSpec):
    """Two Kronecker factors each of G = (x)_n fused_twist(W, 2s_n) and G^-1, K = W diag(k) W^-1.

    By the GL(2) invariance of L, G^-1 T G is T of the twist diag(k1, k2).
    Factors of about sqrt(D) keep the GEMMs few and small; a diagonal twist
    has none. NearDegenerateSpectrum for a Jordan twist (k1 = k2).
    """
    twist = chain.twist
    if twist.matrix[0, 1] == 0 and twist.matrix[1, 0] == 0:
        return [], []
    if abs(twist.k1 - twist.k2) <= chain.tolerances.zero * max(abs(twist.k1), abs(twist.k2)):
        raise NearDegenerateSpectrum(f"twist eigenvalues {twist.k1} and {twist.k2} coincide: "
                                     "a Jordan twist has no eigenframe")
    cut = int(np.searchsorted(np.cumprod(chain.dims), np.sqrt(chain.dim))) + 1
    w = np.linalg.eig(twist.matrix)[1]
    sites = [[fused_twist(m, site.two_s) for site in chain.sites] for m in (w, np.linalg.inv(w))]
    return [[kron_chain(f[:cut]), kron_chain(f[cut:])] for f in sites]


def _kron_apply(factors, x) -> np.ndarray:
    """(F_1 (x) ... (x) F_m) @ x for a (D, k) array x, one factor at a time."""
    out, pre = x, 1
    for f in factors:
        out = np.matmul(f, out.reshape(pre, len(f), -1))
        pre *= len(f)
    return out.reshape(x.shape)


# ---------------------------------------------------------------------------
# the discrete characterization
# ---------------------------------------------------------------------------

def _tridiagonal_minors(diag, offprod) -> np.ndarray:
    """Leading principal minors f_0..f_m (f_0 = 1) of an m x m tridiagonal matrix.

    ``offprod[j]`` is sup[j] * sub[j], the product of the off-diagonal pair
    coupling rows j and j + 1: f_j = diag[j-1] f_{j-1} - offprod[j-2] f_{j-2}.
    Axes of ``diag`` after the first are batch axes; entries are read as
    (0-d) arrays, so one row computes exactly as it does inside a batch.
    """
    diag, offprod = np.asarray(diag), np.asarray(offprod)
    f = [np.ones(diag.shape[1:]), *diag[:1]]
    for j in range(1, len(diag)):
        f.append(diag[j, ...] * f[j] - offprod[j - 1, ...] * f[j - 1])
    return np.array(f)


def _fused_tower(t: TransferPolynomial, lam: complex, top: int) -> np.ndarray:
    """t^(0..top)(lam), rows of t along the trailing axis: the recurrence on
    t(lam + k eta) and det_q(lam + (k+1) eta)."""
    shifts = lam + t.chain.eta * np.arange(top)
    return _tridiagonal_minors(np.moveaxis(t(shifts), -1, 0), t.chain.det_q(shifts[1:]))


def discrete_residuals(t: TransferPolynomial) -> np.ndarray:
    """Per-site determinants of the discrete system, scale-normalized; (D, N) for t's rows."""
    res, scales = t.system.residual(t.x)
    return res / scales


class _DiscreteSystem:
    """Residual and Jacobian of the discrete system in the unknowns x_a.

    Per site: its matrix diagonal t(xi^(j)) as base + coeff . x (tr K ell
    and the top-node cardinals at its nodes, from one ``_Barycentric``), and the
    off-diagonal products sup[j] * sub[j] = k1 a(xi^(j)) k2 d(xi^(j+1)).
    ``discrete_residuals`` reads the residual of this system.
    """

    def __init__(self, chain: ChainSpec):
        self.chain, self.sites, twist = chain, [], chain.twist
        interp = _Barycentric([g[0, 0] for g in chain.grid])   # the top nodes
        for nodes, a, d in chain.grid:
            ell, coeff = interp.ell_cardinals(nodes[:, None])
            self.sites.append((twist.trace * ell, coeff, twist.k1 * a[:-1] * twist.k2 * d[1:]))

    def _diags(self, x):
        """Per site, its matrix diagonal at the unknowns x (..., N), batch axes trailing.

        Products with the cardinals are summed by broadcasting, not a GEMM,
        whose rounding depends on the batch size: a batched row equals its
        single-row call bit for bit, here and in ``jacobian``.
        """
        for base, coeff, offprod in self.sites:
            diag = base + np.sum(x[..., None, :] * coeff, axis=-1)
            yield np.moveaxis(diag, -1, 0), coeff, offprod

    def residual(self, x):
        """(raw determinants, per-site magnitude scales), each (..., N) for x of shape (..., N)."""
        # the magnitude scale bounds the determinant: the same recurrence on absolute values
        out = [(_tridiagonal_minors(diag, offprod)[-1],
                np.maximum(1.0, _tridiagonal_minors(np.abs(diag), -np.abs(offprod))[-1]))
               for diag, _, offprod in self._diags(x)]
        return tuple(np.stack(part, axis=-1) for part in zip(*out))

    def jacobian(self, x):
        """d res / dx, (..., N, N); row n is sum_k f_k g_{m-1-k} coeff[k].

        f_k g_{m-1-k} (leading times trailing minor) is the diagonal cofactor
        of site n's matrix at entry k, and coeff[k] = d diag[k] / dx.
        """
        rows = []
        for diag, coeff, offprod in self._diags(x):
            cofactors = (_tridiagonal_minors(diag, offprod)[:-1]
                         * _tridiagonal_minors(diag[::-1], offprod[::-1])[-2::-1])
            rows.append(np.sum(np.moveaxis(cofactors, 0, -1)[..., None] * coeff, axis=-2))
        return np.stack(rows, axis=-2)


def jacobian_smallest_sv(solutions: TransferPolynomial) -> float:
    """Min over the rows t of ``solutions`` of the normalized Jacobian's smallest sv at t.

    Each value is over max(1, largest). The Jacobian is that of the
    scale-normalized residual res / scales that Newton tests (row n divided
    by site n's magnitude scale, held fixed), so rescaling one site's
    equation leaves the value unchanged. One discrete system (``system``)
    serves all t: their Jacobians form one (D, N, N) array with one batched SVD.
    """
    system = solutions.system
    _, scales = system.residual(solutions.x)
    sv = np.linalg.svd(system.jacobian(solutions.x) / scales[..., None], compute_uv=False)
    return float(np.min(sv[..., -1] / np.maximum(1.0, sv[..., 0])))


def closed_form_solutions(chain: ChainSpec) -> TransferPolynomial:
    """Spectrum for a twist with one vanishing eigenvalue, one row per multi-index h.

    With k2 = 0 (resp. k1 = 0) every solution is k prod_n (lam - xi_n^(h_n))
    over a multi-index h, k being the nonzero eigenvalue.
    """
    twist = chain.twist
    k = twist.k1 if abs(twist.k2) <= abs(twist.k1) else twist.k2
    top = np.array([chain.node(a, 0) for a in range(chain.n_sites)])
    points = _node_grid(chain)[0]   # row h: xi_n^(h_n)
    return TransferPolynomial(chain, k * np.prod(top[None, :, None] - points[:, None, :], axis=2))


def solve_discrete_system(seeds: TransferPolynomial):
    """All solutions of the discrete system near ``seeds``, refined by damped Newton.

    The seeds are a stack, in practice the brute-force oracle's (the honest
    check is that Newton converges from them and the refined set is
    complete); the solutions share the seeds' chain and ``system``. All
    seeds are tested in one residual pass; each seed above 1e-13 gets at
    most 50 steps to bring the scale-normalized residual under 1e-13;
    converged duplicates are collapsed (``_dedup``). Returns (solutions,
    diagnostics), the solutions one stack with rows in (Re x_0, Im x_0)
    order; completeness is the caller's check: the stack holds the distinct
    converged solutions, however many there are.
    """
    system, xs = seeds.system, seeds.x.copy()
    res, scales = system.residual(xs)
    converged = np.max(np.abs(res) / scales, axis=-1) < 1e-13
    total_iters = 0
    for idx in np.flatnonzero(~converged):
        x = xs[idx]
        for _ in range(50):
            res, scales = system.residual(x)
            if float(np.max(np.abs(res) / scales)) < 1e-13:
                converged[idx] = True
                break
            try:
                step = np.linalg.solve(system.jacobian(x), res)
            except np.linalg.LinAlgError:
                break
            factor = 1.0
            norm0 = np.linalg.norm(res / scales)
            for _ in range(8):
                x_try = x - factor * step
                res_try, scales_try = system.residual(x_try)
                if np.linalg.norm(res_try / scales_try) <= norm0:
                    break
                factor *= 0.5
            x = x - factor * step
            total_iters += 1
        xs[idx] = x
    solutions = xs[converged]
    failures = [f"seed {idx} did not converge" for idx in np.flatnonzero(~converged)]
    distinct = _dedup(solutions)
    diag = {
        "branch": "newton",
        "newton_iterations": total_iters,
        "failures": failures,
        "duplicates_collapsed": len(solutions) - len(distinct),
    }
    order = np.lexsort((distinct[:, 0].imag, distinct[:, 0].real))
    solutions = TransferPolynomial(seeds.chain, distinct[order])
    solutions.system = system
    return solutions, diag


def _dedup(xs):
    """Rows of ``xs`` in order, less each x within 1e-6 max|xs| of an x kept before it.

    The stack's largest |x| sets the scale, so a chain scaled down keeps its distinct
    solutions. Each x is compared with all kept ones in one array operation.
    """
    xs = np.asarray(xs, dtype=CDTYPE)
    keep = np.zeros(len(xs), dtype=bool)
    tol = 1e-6 * float(np.max(np.abs(xs), initial=0.0))
    for i, x in enumerate(xs):
        keep[i] = np.all(np.max(np.abs(xs[keep] - x), axis=1) > tol)
    return xs[keep]


def match_to_oracle(solutions: TransferPolynomial, oracle: OracleSpectrum):
    """Greedy match (``greedy_match``) of the discrete solutions to the oracle's rows.

    Returns (indices, distances, is_bijection): indices[i] is the solution
    row matched to oracle row i; distances are max-norm gaps scaled by 1+max|x|.
    """
    want = oracle.t.x
    indices, gaps, bijection = greedy_match(solutions.x, want)
    return indices, gaps / (1.0 + np.max(np.abs(want), axis=1)), bijection


# ---------------------------------------------------------------------------
# wavefunctions, eigenvectors
# ---------------------------------------------------------------------------

def _site_product(factors) -> np.ndarray:
    """prod_n factors[n][..., h_n], axis n indexed by h_n; leading (row) axes go last."""
    factors = [np.moveaxis(f, -1, 0) for f in factors]
    out = factors[0]
    for f in factors[1:]:
        out = np.expand_dims(out, out.ndim - f.ndim + 1) * f
    return out


def _sov2_array(t: TransferPolynomial) -> np.ndarray:
    """Second-basis wavefunction indexed by h (site order), rows of t along the trailing axis."""
    return _site_product(t.grid_ratios)


def wavefunction_action_report(t: TransferPolynomial) -> float:
    """Pointwise eigen-relation residual of the factorized wavefunction, worst over t's rows.

    Checks k1 a(node) psi(h+e_n) + k2 d(node) psi(h-e_n) = t(node) psi(h)
    for every h, n and row, with out-of-range entries treated as zero: the
    separate-action stencil of ``sov_bases`` on psi as a (d_1, ..., d_N, D, 1, 1)
    h-cube: each (h, row) entry is its own residual row, t a 1 x 1 operator and V = [[1]].
    """
    return _separate_action_residual(
        t.chain, _sov2_array(t).reshape(t.chain.dims + (-1, 1, 1)),
        lambda nodes: np.moveaxis(t(nodes), -1, 0).reshape(len(nodes), 1, -1, 1, 1),
        np.ones((1, 1)))


def eigenvector_from_sov(ts: TransferPolynomial, basis, evaluator: TransferEvaluator):
    """Solve rows(basis) . V = Psi for the eigenvectors V, one column per row of ``ts``.

    Column j of Psi is the second-basis wavefunction of row j; one solve
    serves every column. Verifies T(mu) V = V diag(t(mu)) at 3 seeded points
    mu and returns (V, residuals), residuals[j] the worst relative residual
    of column j.
    """
    chain = basis.chain
    vectors = np.linalg.solve(basis.rows, _sov2_array(ts).reshape(chain.dim, -1))
    norms = np.linalg.norm(vectors, axis=0)
    rng = chain.rng(17)
    mus = [complex(random_complex(rng, box=2.0)) for _ in range(3)]
    residuals = np.zeros(vectors.shape[1])
    for mu in mus:   # one T(mu) alive at a time, bitwise the stack's (``_at``)
        lhs, vals = evaluator._at(np.array([mu]))[0] @ vectors, ts(mu)
        scale = np.maximum(1.0, np.maximum(np.linalg.norm(lhs, axis=0), np.abs(vals) * norms))
        lhs -= vectors * vals
        residuals = np.maximum(residuals, np.linalg.norm(lhs, axis=0) / scale)
    return vectors, residuals
