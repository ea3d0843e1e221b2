"""Quantum spectral curve: Q-polynomials, their uniqueness, the Q-operator.

For an on-shell transfer eigenvalue t the finite-difference equation

    alpha(lam) Q(lam - 2 eta) - beta(lam) t(lam - eta) Q(lam - eta)
        + detq(lam) Q(lam) = 0,     beta = k1 a,  alpha(lam) = beta(lam) beta(lam - eta)

has a unique polynomial solution of degree at most 2*sum(s_n) with no root
on a bottom grid node. Its values on the grid are fixed ratios built from
the fused eigenvalues; the one remaining degree of freedom per site (the
bottom-node values) is pinned by interpolating through the grid plus one
auxiliary point zeta and enforcing the left-out top-node conditions, an
N x N closure system (``_Closure``) that the Q-polynomial keeps. The
eigenvalues come as one (D, N) stack and are solved at once into one
``QPolynomial`` stacked the same way (one (D, N, N) closure stack per zeta,
one fit with D right-hand sides); the T-Q, Wronskian and factorization
checks are array operations over it, with Q evaluated in one Horner pass.
The one Q-operator has these polynomials as eigenvalues in the oracle's
eigenbasis; the Cramer route (``_determinant_eigenvalues``) reads the same
D eigenvalues by Cramer's rule on the closure stack, with no solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import ChainSpec
from .errors import SingularCZeta
from .numerics import CDTYPE, _Barycentric, poly_coeffs_from_samples, poly_eval, random_complex
from .sov_bases import CovectorBasis
from .spectrum import OracleSpectrum, TransferPolynomial, _site_product, _sov2_array
from .transfer import _probe_norm, _probes

__all__ = [
    "QPolynomial",
    "default_zeta",
    "solve_q_polynomial",
    "tq_residual",
    "wronskian_values",
    "QOperator",
    "build_q_operator",
    "q_operator_commutation_residual",
    "q_operator_tq_residual",
    "q_operator_invertibility",
    "sov_from_q",
    "sov_q_factorization",
]


class _Closure:
    """The N x N closure systems C q_bottom = rhs of a grid-ratio stack at one zeta.

    Its Lagrange nodes are xi_a^(h), h = 1..2s_a, site by site, then zeta, with
    cardinals from one barycentric evaluator ``bary`` (zeta's last; ``top_cards``
    (N, M + 1) at the top nodes xi_a^(0)). ``q_flat`` (D, M) holds the grid ratios
    in node order; ``matrix``, ``rhs`` and ``det`` hold one system per eigenvalue.
    """

    def __init__(self, chain: ChainSpec, zeta: complex, ratios):
        n = chain.n_sites
        self.zeta = complex(zeta)
        self.nodes = np.array([chain.node(a, h) for a, site in enumerate(chain.sites)
                               for h in range(1, site.two_s + 1)] + [self.zeta], dtype=CDTYPE)
        self.bary = _Barycentric(self.nodes)
        self.top_cards = self.bary.ell_cardinals(np.array([[g[0, 0]] for g in chain.grid]))[1]
        self._starts = np.cumsum([0] + [site.two_s for site in chain.sites[:-1]])
        self.q_flat = np.concatenate([r[..., 1:] for r in ratios], axis=-1)
        c, g = self.site_sums(self.top_cards, self.q_flat[..., None, :])
        c[..., range(n), range(n)] -= np.stack([r[..., 0] for r in ratios], axis=-1)
        self.matrix, self.rhs = c, np.broadcast_to(-g, c.shape[:-1]).copy()
        self.det = np.linalg.det(c)

    def site_sums(self, card, q_flat):
        """(F, g) at the points of the cardinals ``card`` (..., M + 1): F_b weights site b's
        grid ratios ``q_flat`` (..., M) by them, and g is the zeta cardinal."""
        return np.add.reduceat(card[..., :-1] * q_flat, self._starts, axis=-1), card[..., -1]


@dataclass
class QPolynomial:
    """Monic Q-polynomials, one per row of a spectrum stack.

    ``coeffs`` (D, n_s + 1) ascend, each row monic at its ``degree`` and
    exactly 0 above it, so one Horner pass evaluates every row; ``closure``
    holds the closure systems solved for them (normalized to Q(zeta) = 1);
    ``roots`` lists each row's roots, ``root_gap`` each row's least distance
    from a root to a bottom grid node (inf for a constant Q, NaN for a row
    whose interpolated coefficients are not all finite).
    """

    chain: ChainSpec
    coeffs: np.ndarray
    degree: np.ndarray
    leftout_residual: np.ndarray
    closure: _Closure = field(repr=False)
    roots: list = field(repr=False)
    root_gap: np.ndarray

    def __call__(self, lam):
        return poly_eval(self.coeffs, lam)

    @property
    def zeta(self) -> complex:
        return self.closure.zeta


def default_zeta(chain: ChainSpec, salt=20) -> complex:
    """Seeded auxiliary point more than |eta| from every grid node (32 draws at most)."""
    rng = chain.rng(salt)
    nodes = np.concatenate([g[0] for g in chain.grid])
    floor = abs(chain.eta)
    for _ in range(32):
        cand = complex(random_complex(rng, box=6.0))
        if np.all(np.abs(cand - nodes) > floor):
            return cand
    raise SingularCZeta("could not place the auxiliary interpolation point")


def solve_q_polynomial(t: TransferPolynomial, zeta=None):
    """Unique monic Q-polynomial paired with each eigenvalue of the stack t, stacked like t.

    Sets Q(zeta) = 1, solves the closure system for the bottom-node values,
    interpolates through the full node set, verifies the N left-out top-node
    conditions, and makes each row monic at its degree, the highest
    coefficient of at least 1e-9 times its largest (those above are set to 0);
    a stack shares the interpolation data.
    The closure system is solved as it stands: a near-singular closure shows
    in the T-Q, uniqueness and factorization checks of the Q it gives. A root
    on a bottom grid node is not refused either: ``root_gap`` reports each
    row's distance.
    """
    chain = t.chain
    if zeta is None:
        zeta = default_zeta(chain)
    ratios = t.grid_ratios
    system = _Closure(chain, zeta, ratios)
    q_bottom = np.linalg.solve(system.matrix, system.rhs[..., None])[..., 0]

    node_values = [r * q_bottom[:, a, None] for a, r in enumerate(ratios)]
    samples = np.concatenate([v[:, 1:] for v in node_values] + [np.ones_like(q_bottom[:, :1])], 1)
    # the N conditions at the top nodes were not used in the interpolation
    tops = np.stack([v[:, 0] for v in node_values], axis=1)
    leftout = np.max(np.abs(samples @ system.top_cards.T - tops) / np.maximum(1.0, np.abs(tops)),
                     axis=1)

    coeffs = poly_coeffs_from_samples(system.nodes, samples)
    finite = np.all(np.isfinite(coeffs), axis=1)
    size, power = np.abs(coeffs), np.arange(coeffs.shape[1])
    degree = np.max(power * (size >= 1e-9 * size.max(axis=1, keepdims=True)), axis=1)
    lead = np.take_along_axis(coeffs, degree[:, None], axis=1)
    coeffs = np.where(power <= degree[:, None], coeffs / lead, 0.0)
    roots = _roots_by_degree(coeffs, degree)
    bottoms = np.array([g[0, -1] for g in chain.grid])
    gap = np.array([np.abs(r[:, None] - bottoms).min(initial=np.inf) for r in roots])
    gap[~finite] = np.nan
    return QPolynomial(chain, coeffs, degree, leftout, system, roots, gap)


def _roots_by_degree(coeffs, degree) -> list:
    """Each row's roots as ``np.roots(c[degree::-1])`` gives them: zero roots (from exactly-zero
    low coefficients) last, the rest by one stacked companion-matrix ``eigvals`` per size."""
    low = np.argmax(coeffs != 0, axis=1)    # the number of zero roots
    roots = [None] * len(coeffs)
    for m in sorted(set((degree - low).tolist())):
        rows = np.flatnonzero(degree - low == m)
        p = np.take_along_axis(coeffs[rows], low[rows, None] + np.arange(m + 1), axis=1)[:, ::-1]
        companion = np.eye(m, k=-1, dtype=p.dtype) + np.zeros((len(rows), 1, 1), p.dtype)
        companion[:, :1] = (-p[:, 1:] / p[:, :1])[:, None]
        for row, r in zip(rows, np.linalg.eigvals(companion)):
            roots[row] = np.concatenate([r, np.zeros(low[row], r.dtype)])
    return roots


def _worst_cancellation(terms):
    """Max over the last axis of |sum of the terms| / max(1, sum of their moduli)."""
    terms = np.array(terms)
    return np.max(np.abs(terms.sum(axis=0)) / np.maximum(1.0, np.abs(terms).sum(axis=0)),
                  axis=-1)


def tq_residual(t: TransferPolynomial, q, lams):
    """Max relative residual of the finite-difference equation at ``lams``, per row of t.

    ``q`` evaluates each row's Q-polynomial elementwise (a ``QPolynomial``
    stacked like t); row d of ``lams`` holds the points of row d of t.
    """
    chain, eta, k1 = t.chain, t.chain.eta, t.chain.twist.k1
    lams = np.asarray(lams, dtype=CDTYPE)
    beta = k1 * chain.a(lams)
    return _worst_cancellation([beta * k1 * chain.a(lams - eta) * q(lams - 2 * eta),
                                -beta * t(lams - eta) * q(lams - eta),
                                chain.det_q(lams) * q(lams)])


def wronskian_values(p, q, chain: ChainSpec, lams):
    """Max of |Q(lam) P(lam-eta) - P(lam) Q(lam-eta)| / scale over the last axis of ``lams``.

    ``p`` and ``q`` evaluate elementwise, so stacked polynomials (``QPolynomial``)
    at points (D, P) pair row d with row d.
    """
    lams = np.asarray(lams, dtype=CDTYPE)
    return _worst_cancellation([q(lams) * p(lams - chain.eta), -p(lams) * q(lams - chain.eta)])


# ---------------------------------------------------------------------------
# Q-operator
# ---------------------------------------------------------------------------

@dataclass
class QOperator:
    """Commuting operator family with eigenvalues Q_t(lam) / Q_t(zeta).

    Normalized so the family is the identity at zeta; the normalization
    cancels in commutation and spectral-curve identities and in the inverse
    products used for basis generation.
    """

    chain: ChainSpec
    zeta: complex
    vectors: np.ndarray
    left: np.ndarray
    eigenvalues: object   # lam -> the D eigenvalues at lam, (P, D) at points (P,)

    def __call__(self, lam: complex) -> np.ndarray:
        return (self.vectors * self.eigenvalues(lam)) @ self.left

    def _on(self, q, x) -> np.ndarray:
        """V (q o V^-1 x): eigenvalues ``q`` (..., D) on blocks ``x`` (..., D, k), no Q built."""
        return self.vectors @ (q[..., None] * (self.left @ x))


def build_q_operator(oracle: OracleSpectrum, q: QPolynomial) -> QOperator:
    """Assemble the Q-operator from the simultaneous transfer eigenbasis.

    Row i of the stacked ``q`` is the Q-polynomial of the oracle's row i; the
    operator's eigenvalues at lam are the interpolated Q-polynomials there,
    all D in one array operation.
    """
    chain = oracle.t.chain
    _require_q_twist(chain)
    if q.coeffs.shape[:-1] != (len(oracle.t),):
        raise ValueError("build_q_operator needs one Q-polynomial row per oracle row")
    norm = q(q.zeta)
    return QOperator(chain=chain, zeta=q.zeta, vectors=oracle.vectors, left=oracle.left,
                     eigenvalues=lambda lam: q(lam).T / norm)


def _require_q_twist(chain: ChainSpec):
    """The Q-operator needs an invertible twist with distinct eigenvalues."""
    twist = chain.twist
    if not twist.invertible or abs(twist.k1 - twist.k2) < 1e-12 * (1 + abs(twist.k1)):
        raise ValueError("Q-operator requires invertible twist with distinct eigenvalues")


def _determinant_eigenvalues(system: _Closure, lams) -> np.ndarray:
    """The Cramer route to the D Q-operator eigenvalues at lam: g + sum_i f_i det C_i / det C
    per closure system C, C_i with column i replaced by the right-hand side (g the zeta
    cardinal, f the site sums); no solve and no division by g, so exact at a grid node too.
    The N stacks det C_i do not depend on lam: one pass serves every point of ``lams``, (D,)
    at one point and (P, D) at points (P,)."""
    cards = system.bary.ell_cardinals(np.asarray(lams)[..., None])[1]
    f, g = system.site_sums(cards[..., None, :], system.q_flat)
    rhs, col = system.rhs[..., None], np.arange(f.shape[-1])
    dets = [np.linalg.det(np.where(col == i, rhs, system.matrix)) for i in col]   # one C_i alive
    return g + np.sum(f * np.stack(dets, axis=-1), axis=-1) / system.det


def q_operator_commutation_residual(qop: QOperator, evaluator, lams, mus) -> float:
    """Worst [Q(lam), T(mu)] residual over the point pairs on the salt-608 probes (NaN kept)."""
    probes, q = _probes(qop.chain, 608, 1)[0], qop.eigenvalues(np.asarray(lams, dtype=CDTYPE))
    ts = evaluator._at(np.asarray(mus, dtype=CDTYPE))
    t_v, q_v = ts @ probes, qop._on(q, probes)
    diff = qop._on(q[:, None], t_v) - ts @ q_v[:, None]          # (lam, mu, D, k)
    scale = np.outer(_probe_norm(q_v, 2), _probe_norm(t_v, 2))
    return float(np.max(_probe_norm(diff, 2) / np.maximum(1.0, scale), initial=0.0))


def q_operator_tq_residual(qop: QOperator, evaluator, lams) -> float:
    """Operator-level spectral-curve residual on the salt-608 probes, worst over the points
    (NaN kept); the middle term's scale is |beta| ||T V|| ||Q V||, probing |beta| ||T|| ||Q||."""
    chain, lams = qop.chain, np.asarray(lams, dtype=CDTYPE)
    eta, beta = chain.eta, chain.twist.k1 * chain.a(lams)
    coeffs = np.array([beta * chain.twist.k1 * chain.a(lams - eta), -beta, chain.det_q(lams)])
    q = qop.eigenvalues((lams - eta * np.arange(3)[::-1, None]).ravel())   # 2 eta, eta, 0
    probes, ts = _probes(chain, 608, 1)[0], evaluator._at(lams - eta)
    q_v = qop._on(q.reshape(3, len(lams), -1), probes)           # (term, lam, D, k)
    scales = np.abs(coeffs) * _probe_norm(q_v, 2)
    scales[1] *= _probe_norm(ts @ probes, 2)
    q_v[1] = ts @ q_v[1]
    residuals = (_probe_norm(np.sum(coeffs[..., None, None] * q_v, axis=0), 2)
                 / np.maximum(1.0, np.max(scales, axis=0)))
    return float(np.max(residuals, initial=0.0))


_COND_CUT = 1e8   # the gate of qop.bottom_node_condition


def q_operator_invertibility(qop: QOperator) -> dict:
    """A bracket (lo, hi) of cond Q at the bottom grid node of every site, keyed (n, 2s_n).

    Q = V diag(q) V^-1 acts in the eigenbasis, on k columns per site (``chain.rng(607)``):
    lo = ||Q X|| ||Q^-1 Y|| after two block power steps on Q^H Q and Q^-H Q^-1, and hi =
    ||Q||_F ||Q^-1||_F, quadratic forms in q and 1 / q with (V^H V) o (V^-1 V^-H)^T. Only a
    bracket that holds ``_COND_CUT`` assembles Q for its SVD, lo = hi. Eigenvalues that
    are not all finite and nonzero give (inf, inf).
    """
    chain, v, left = qop.chain, qop.vectors, qop.left
    nodes = [chain.node(n, site.two_s) for n, site in enumerate(chain.sites)]
    q, probes = qop.eigenvalues(np.array(nodes)), _probes(chain, 607, len(nodes))
    ok = np.all(np.isfinite(q) & (q != 0), axis=1)
    q = np.where(ok[:, None], q, 1.0)
    gram = (v.conj().T @ v) * (left @ left.conj().T).T

    def norms(w):   # of V diag(w) V^-1 per row of w (N, D): ||.||_2 from below, ||.||_F
        def op(x):   # on the orthonormalized columns
            return qop._on(w, np.linalg.qr(x)[0])
        x = probes
        for _ in range(2):
            x = left.conj().T @ (w.conj()[..., None] * (v.conj().T @ op(x)))
        return np.array([np.linalg.norm(op(x), ord=2, axis=(1, 2)),
                         np.sqrt(np.einsum("ni,ij,nj->n", w.conj(), gram, w).real)])

    lo, hi = np.where(ok, norms(q) * norms(1.0 / q), np.inf)
    for n in np.flatnonzero((lo <= _COND_CUT) & (_COND_CUT < hi)):
        sv = np.linalg.svd(qop(nodes[n]), compute_uv=False)
        lo[n] = hi[n] = sv[0] / sv[-1]
    return {(n, site.two_s): (float(lo[n]), float(hi[n])) for n, site in enumerate(chain.sites)}


def sov_from_q(qop: QOperator, sklyanin: CovectorBasis) -> CovectorBasis:
    """Covector basis generated by Q-operator products on a left covector.

    Row h applies prod_a Q(xi_a^(h_a)) to the source: the top row of the
    Sklyanin basis ``sklyanin`` hit by the inverse Q at every bottom node, for
    which the family reproduces that basis row by row. Neither basis's rank is
    checked here: ``basis.sklyanin.rank_deficit`` and ``basis.q.rank_deficit``
    report them.

    Products are taken in Q's eigenbasis: row h is (c * prod_a q(xi_a^(h_a)))
    @ left with c = source @ vectors and q the eigenvalues of Q, so no dense Q
    or inverse of Q is formed.
    """
    chain = qop.chain
    per_site = [qop.eigenvalues(nodes) for nodes, _, _ in chain.grid]
    top = tuple(site.two_s for site in chain.sites)
    coords = sklyanin.row(top) @ qop.vectors / np.prod([q[-1] for q in per_site], axis=0)
    weights = _site_product([q.T for q in per_site]).reshape(-1, chain.dim)
    return CovectorBasis(rows=(weights * coords) @ qop.left, kind="q_generated",
                         chain=chain, source=coords @ qop.left)


def sov_q_factorization(t: TransferPolynomial, q):
    """Spread of wavefunction(h) around c * prod_n Q(xi_n^(h_n)), per row of t.

    Fits the single global constant in least squares and reports the max
    deviation relative to the largest wavefunction coordinate. Q (as in
    ``tq_residual``) is evaluated once at each grid node, sum_n (2s_n + 1)
    values, and the products over all h are their outer product, like the
    wavefunction itself.
    """
    chain = t.chain
    target = _sov2_array(t).reshape(chain.dim, -1)
    prod_q = _site_product([q(nodes) for nodes, _, _ in chain.grid]).reshape(chain.dim, -1)
    denom = np.sum(np.abs(prod_q) ** 2, axis=0)
    c = np.sum(prod_q.conj() * target, axis=0) / np.where(denom > 0, denom, 1.0)
    largest = np.max(np.abs(target), axis=0)
    spread = np.max(np.abs(target - c * prod_q), axis=0) / np.maximum(1.0, largest)
    return np.where(denom > 0, spread, largest)
