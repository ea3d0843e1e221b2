"""Quantum spectral curve: Q-polynomials, their uniqueness, the Q-operator.

For an on-shell transfer eigenvalue t the finite-difference equation

    alpha(lam) Q(lam - 2 eta) - beta(lam) t(lam - eta) Q(lam - eta)
        + detq(lam) Q(lam) = 0,     beta = k1 a,  alpha(lam) = beta(lam) beta(lam - eta)

has a unique polynomial solution of degree at most 2*sum(s_n) with no root
on a bottom grid node. Its values on the grid are fixed ratios built from
the fused eigenvalues; the one remaining degree of freedom per site (the
bottom-node values) is pinned by interpolating through the grid plus one
auxiliary point zeta and enforcing the left-out top-node conditions, an
N x N closure system that each Q-polynomial keeps for the determinant
Q-operator route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import ChainSpec
from .errors import NonInvertibleQ, RootOnForbiddenNode, SingularCZeta
from .numerics import (CDTYPE, _Barycentric, frob, poly_coeffs_from_samples, poly_eval,
                       random_complex, trim_trailing)
from .sov_bases import CovectorBasis, _require_full_rank, sklyanin_basis
from .spectrum import TransferPolynomial, _site_product, _sov2_array

__all__ = [
    "q_values",
    "QPolynomial",
    "CZetaSystem",
    "default_zeta",
    "solve_q_polynomial",
    "tq_residual",
    "tq_residual_shifted",
    "degenerate_q_closed_form",
    "wronskian_values",
    "QOperator",
    "build_q_operator",
    "q_operator_commutation_residual",
    "q_operator_tq_residual",
    "q_operator_invertibility",
    "sov_from_q",
    "sov_q_factorization",
]


def q_values(t: TransferPolynomial) -> dict:
    """``t.checked_grid_ratios`` keyed by (n, h)."""
    return {(n, h): complex(val) for n, ratios in enumerate(t.checked_grid_ratios)
            for h, val in enumerate(ratios)}


class _Interpolation:
    """Lagrange grid: nodes xi_a^(h), h = 1..2s_a, plus the auxiliary zeta.

    All cardinals come from one barycentric evaluator over this node set;
    the zeta cardinal is the last one.
    """

    def __init__(self, chain: ChainSpec, zeta: complex):
        self.chain = chain
        self.zeta = complex(zeta)
        self.pairs = [(a, h) for a, site in enumerate(chain.sites)
                      for h in range(1, site.two_s + 1)]
        self.nodes = np.array([chain.node(a, h) for a, h in self.pairs] + [self.zeta],
                              dtype=CDTYPE)
        self.bary = _Barycentric(self.nodes)
        self._pair_sites = np.array([a for a, _ in self.pairs], dtype=int)

    def site_sums(self, lam, q_flat):
        """(F, g): F_b(lam), the cardinal-weighted grid ratios of each site b,
        and g(lam), the zeta cardinal; ``q_flat`` is in ``pairs`` order."""
        card = self.bary.cardinals(lam)
        f = np.zeros(self.chain.n_sites, dtype=CDTYPE)
        np.add.at(f, self._pair_sites, card[:-1] * q_flat)
        return f, card[-1]


@dataclass
class CZetaSystem:
    """The N x N closure system C q_bottom = rhs at one zeta; ``det`` is det C and
    ``q_flat`` the grid ratios at h = 1..2s_a in ``interp.pairs`` order."""

    matrix: np.ndarray
    rhs: np.ndarray
    det: complex
    q_flat: np.ndarray = field(repr=False)
    interp: _Interpolation = field(repr=False)

    @property
    def zeta(self) -> complex:
        return self.interp.zeta


@dataclass
class QPolynomial:
    """Monic Q-polynomial for one spectrum point.

    ``coeffs`` are monic ascending coefficients after trailing-coefficient
    truncation; ``closure`` is the closure system solved for them, whose
    solution is normalized to Q(zeta) = 1.
    """

    chain: ChainSpec
    coeffs: np.ndarray
    leftout_residual: float
    closure: CZetaSystem = field(repr=False)

    def __call__(self, lam: complex) -> complex:
        return complex(poly_eval(self.coeffs, lam))

    @property
    def zeta(self) -> complex:
        return self.closure.zeta

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def roots(self) -> np.ndarray:
        if self.degree == 0:
            return np.zeros(0, dtype=CDTYPE)
        return np.roots(self.coeffs[::-1])


def _closure_system(interp: _Interpolation, ratios) -> CZetaSystem:
    chain = interp.chain
    n = chain.n_sites
    q_flat = np.concatenate([r[1:] for r in ratios])
    c = np.zeros((n, n), dtype=CDTYPE)
    rhs = np.zeros(n, dtype=CDTYPE)
    for a in range(n):
        c[a], g = interp.site_sums(chain.node(a, 0), q_flat)
        rhs[a] = -g
        c[a, a] -= ratios[a][0]
    return CZetaSystem(matrix=c, rhs=rhs, det=complex(np.linalg.det(c)), q_flat=q_flat,
                       interp=interp)


def _require_regular_closure(system: CZetaSystem, det_floor=1e-10) -> float:
    """Determinant ratio of the closure matrix C; SingularCZeta below ``det_floor``.

    The ratio is |det C_eq| / prod_a ||row_a of C_eq||, with C_eq
    the column-equilibrated C (each column scaled to unit norm). The ratio is
    at most 1 (Hadamard) and does not change when a column of C is rescaled,
    so unknowns of very different magnitude do not read as a singularity.
    """
    norms = np.linalg.norm(system.matrix, axis=0)
    eq = system.matrix / np.where(norms > 0, norms, 1.0)
    row_product = float(np.prod(np.linalg.norm(eq, axis=1)))
    ratio = abs(np.linalg.det(eq)) / row_product if row_product > 0 else 0.0
    if not ratio >= det_floor:
        raise SingularCZeta(f"closure system determinant ratio {ratio:.3e} "
                            f"below floor {det_floor:.1e} at zeta={system.zeta}")
    return ratio


def default_zeta(chain: ChainSpec, salt=20) -> complex:
    """Seeded auxiliary point more than |eta| from every grid node (32 draws at most)."""
    rng = chain.rng(salt)
    nodes = [node for _, _, node in chain.all_nodes()]
    floor = abs(chain.eta)
    for _ in range(32):
        cand = complex(random_complex(rng, box=6.0))
        if all(abs(cand - z) > floor for z in nodes):
            return cand
    raise SingularCZeta("could not place the auxiliary interpolation point")


def solve_q_polynomial(t: TransferPolynomial, zeta=None, det_floor=1e-10,
                       root_floor=1e-6) -> QPolynomial:
    """Unique monic Q-polynomial paired with the eigenvalue t.

    Sets Q(zeta) = 1, solves the closure system for the bottom-node values,
    interpolates through the full node set, verifies the N left-out top-node
    conditions, and strips the result to monic coefficients (trailing
    coefficients below 1e-9 dropped). Raises
    SingularCZeta for an unlucky auxiliary point, judged on the
    column-equilibrated closure matrix against ``det_floor`` (see
    ``_require_regular_closure``), and RootOnForbiddenNode if a root lies
    within ``root_floor`` of a bottom grid node.
    """
    chain = t.chain
    if zeta is None:
        zeta = default_zeta(chain)
    ratios = t.checked_grid_ratios
    interp = _Interpolation(chain, zeta)
    system = _closure_system(interp, ratios)
    _require_regular_closure(system, det_floor)
    q_bottom = np.linalg.solve(system.matrix, system.rhs)

    node_values = [r * q_bottom[a] for a, r in enumerate(ratios)]
    sample_values = np.concatenate([v[1:] for v in node_values] + [[1.0]])

    # the N conditions at the top nodes were not used in the interpolation
    worst = 0.0
    for a, values in enumerate(node_values):
        direct = interp.bary(sample_values, chain.node(a, 0))
        worst = max(worst, abs(direct - values[0]) / max(1.0, abs(values[0])))

    coeffs = poly_coeffs_from_samples(interp.nodes, sample_values)
    coeffs = trim_trailing(coeffs, 1e-9)
    coeffs = coeffs / coeffs[-1]
    qpoly = QPolynomial(chain=chain, coeffs=coeffs, leftout_residual=float(worst),
                        closure=system)
    forbidden = [chain.node(b, chain.sites[b].two_s) for b in range(chain.n_sites)]
    for root in qpoly.roots():
        if any(abs(root - z) < root_floor for z in forbidden):
            raise RootOnForbiddenNode(f"Q root {root} collides with a bottom node")
    return qpoly


def tq_residual(t: TransferPolynomial, q, rng=None) -> float:
    """Max relative residual of the finite-difference equation on 3N random points."""
    chain = t.chain
    eta = chain.eta
    k1 = chain.twist.k1
    rng = rng or chain.rng(21)
    worst = 0.0
    for _ in range(3 * chain.n_sites):
        lam = complex(random_complex(rng, box=3.0))
        beta = k1 * chain.a(lam)
        alpha = beta * k1 * chain.a(lam - eta)
        terms = np.array([
            alpha * q(lam - 2 * eta),
            -beta * t(lam - eta) * q(lam - eta),
            chain.det_q(lam) * q(lam),
        ])
        worst = max(worst, abs(terms.sum()) / max(1.0, np.abs(terms).sum()))
    return worst


def tq_residual_shifted(t: TransferPolynomial, q, rng=None) -> float:
    """Residual of the first-order-normalized form of the spectral curve.

    Checks k1 a(lam) Q(lam-eta) - t(lam) Q(lam) + k2 d(lam) Q(lam+eta) = 0
    on 3N random points; it stays nontrivial in the k1 = 0 degeneration
    where every term of the second-order form carries a k1 factor.
    """
    chain = t.chain
    eta = chain.eta
    rng = rng or chain.rng(22)
    worst = 0.0
    for _ in range(3 * chain.n_sites):
        lam = complex(random_complex(rng, box=3.0))
        terms = np.array([
            chain.twist.k1 * chain.a(lam) * q(lam - eta),
            -t(lam) * q(lam),
            chain.twist.k2 * chain.d(lam) * q(lam + eta),
        ])
        worst = max(worst, abs(terms.sum()) / max(1.0, np.abs(terms).sum()))
    return worst


def degenerate_q_closed_form(chain: ChainSpec, h) -> np.ndarray:
    """Monic Q coefficients for the k1 = 0 degeneration, label h.

    The eigenvalue k2 prod_n (lam - xi_n^(h_n)) pairs with the polynomial
    whose roots are the top h_n grid nodes of each site, i.e.
    prod_n prod_{k=0}^{h_n - 1} (lam - xi_n^(k)).
    """
    coeffs = np.array([1.0], dtype=CDTYPE)
    for n, hn in enumerate(h):
        for k in range(hn):
            root = chain.node(n, k)
            coeffs = np.convolve(coeffs, np.array([-root, 1.0], dtype=CDTYPE))
    return coeffs


def wronskian_values(p, q, chain: ChainSpec, lams) -> float:
    """Max of |Q(lam) P(lam-eta) - P(lam) Q(lam-eta)| over the sample points."""
    worst = 0.0
    for lam in lams:
        w = q(lam) * p(lam - chain.eta) - p(lam) * q(lam - chain.eta)
        scale = max(1.0, abs(q(lam) * p(lam - chain.eta)) + abs(p(lam) * q(lam - chain.eta)))
        worst = max(worst, abs(w) / scale)
    return worst


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
    method: str
    vectors: np.ndarray
    left: np.ndarray
    _eigen_fns: list

    def eigenvalues(self, lam: complex) -> np.ndarray:
        return np.array([fn(lam) for fn in self._eigen_fns], dtype=CDTYPE)

    def __call__(self, lam: complex) -> np.ndarray:
        return (self.vectors * self.eigenvalues(lam)) @ self.left


def build_q_operator(records, qpolys, method="eigenbasis") -> QOperator:
    """Assemble the Q-operator from the simultaneous transfer eigenbasis.

    ``qpolys[i]`` is the Q-polynomial of ``records[i]``, all solved at one
    zeta. ``method='eigenbasis'`` evaluates the interpolated Q-polynomial.
    ``method='determinant'`` evaluates, per joint eigenvalue, the ratio
    det[C + Delta(lam)] / det[C] times the node-ratio prefactor, on the
    closure system C the solve built, where Delta is the rank-one update
    whose column space is the scaled closure right-hand side; every entry is
    a polynomial in the commuting transfer values, so operator entries
    reduce to these scalars in the eigenbasis.
    """
    if method not in ("eigenbasis", "determinant"):
        raise ValueError(f"unknown method {method!r}")
    chain = records[0].t.chain
    _require_q_twist(chain)
    zeta = qpolys[0].zeta
    if len(qpolys) != len(records) or any(qpoly.zeta != zeta for qpoly in qpolys):
        raise ValueError("build_q_operator needs one Q-polynomial per record, all at one zeta")
    if method == "eigenbasis":
        eigen_fns = [lambda lam, qp=qpoly, nz=qpoly(zeta): qp(lam) / nz for qpoly in qpolys]
    else:
        eigen_fns = [_determinant_eigen_fn(qpoly.closure) for qpoly in qpolys]
    vectors = np.column_stack([rec.vector for rec in records])
    left = np.vstack([rec.left for rec in records])
    return QOperator(chain=chain, zeta=zeta, method=method,
                     vectors=vectors, left=left, _eigen_fns=eigen_fns)


def _require_q_twist(chain: ChainSpec):
    """The Q-operator needs an invertible twist with distinct eigenvalues."""
    twist = chain.twist
    if not twist.invertible or abs(twist.k1 - twist.k2) < 1e-12 * (1 + abs(twist.k1)):
        raise ValueError("Q-operator requires invertible twist with distinct eigenvalues")


def _determinant_eigen_fn(system: CZetaSystem):
    def evaluate(lam: complex) -> complex:
        f, g = system.interp.site_sums(lam, system.q_flat)
        if abs(g) > 1e-8:
            delta = np.outer(system.rhs / g, f)
            return complex(np.linalg.det(system.matrix + delta) / system.det * g)
        # lam sits on (or hugs) a grid node: use the rank-one expansion of the
        # same determinant, which stays finite there
        adj_r = np.linalg.solve(system.matrix, system.rhs)
        return complex(g + f @ adj_r)

    return evaluate


def q_operator_commutation_residual(qop: QOperator, evaluator, lams, mus) -> float:
    worst = 0.0
    for lam in lams:
        q = qop(lam)
        for mu in mus:
            tm = evaluator.transfer(mu)
            worst = max(worst, frob(q @ tm - tm @ q) / max(1.0, frob(q) * frob(tm)))
    return worst


def q_operator_tq_residual(qop: QOperator, evaluator, lams) -> float:
    """Operator-level spectral-curve residual at the sample points."""
    chain = qop.chain
    eta = chain.eta
    k1 = chain.twist.k1
    worst = 0.0
    for lam in lams:
        beta = k1 * chain.a(lam)
        alpha = beta * k1 * chain.a(lam - eta)
        op = (alpha * qop(lam - 2 * eta)
              - beta * evaluator.transfer(lam - eta) @ qop(lam - eta)
              + chain.det_q(lam) * qop(lam))
        scale = max(1.0, abs(alpha) * frob(qop(lam - 2 * eta)),
                    abs(beta) * frob(evaluator.transfer(lam - eta)) * frob(qop(lam - eta)),
                    abs(chain.det_q(lam)) * frob(qop(lam)))
        worst = max(worst, frob(op) / scale)
    return worst


def q_operator_invertibility(qop: QOperator, cond_limit=1e8) -> dict:
    """Condition numbers of Q at each bottom grid node; raises when singular."""
    chain = qop.chain
    out = {}
    for n, site in enumerate(chain.sites):
        node = chain.node(n, site.two_s)
        cond = float(np.linalg.cond(qop(node)))
        out[(n, site.two_s)] = cond
        if not np.isfinite(cond) or cond > cond_limit:
            raise NonInvertibleQ(f"Q at bottom node of site {n} has cond {cond:.3e}")
    return out


def sov_from_q(qop: QOperator, source=None, sklyanin=None) -> CovectorBasis:
    """Covector basis generated by Q-operator products on a left covector.

    Row h applies prod_a Q(xi_a^(h_a)) to the source. The default source is
    the top Sklyanin row hit by the inverse Q at every bottom node, for which
    the family reproduces the Sklyanin basis row by row. That Sklyanin basis
    is ``sklyanin`` when given (an already built one), else built here; it
    must have full rank either way (DegenerateBasis). The family's own rank
    is not checked.

    Products are taken in Q's eigenbasis: row h is (c * prod_a q(xi_a^(h_a)))
    @ left with c = source @ vectors and q the eigenvalues of Q, so no dense Q
    or inverse of Q is formed.
    """
    chain = qop.chain
    per_site = [np.array([qop.eigenvalues(z) for z in chain.nodes(n)])
                for n in range(chain.n_sites)]
    if source is None:
        skl = sklyanin if sklyanin is not None else sklyanin_basis(chain)
        _require_full_rank(skl)
        top = tuple(site.two_s for site in chain.sites)
        coords = skl.row(top) @ qop.vectors / np.prod([q[-1] for q in per_site], axis=0)
        source = coords @ qop.left
    else:
        source = np.asarray(source, dtype=CDTYPE)
        coords = source @ qop.vectors
    weights = np.ones((1, chain.dim), dtype=CDTYPE)
    for q in per_site:
        weights = (weights[:, None, :] * q).reshape(-1, chain.dim)
    return CovectorBasis(rows=(weights * coords) @ qop.left, kind="q_generated",
                         chain=chain, source=source)


def sov_q_factorization(t: TransferPolynomial, qpoly) -> float:
    """Spread of wavefunction(h) around c * prod_n Q(xi_n^(h_n)).

    Fits the single global constant in least squares and reports the max
    deviation relative to the largest wavefunction coordinate. Q is evaluated
    once at each grid node, sum_n (2s_n + 1) values, and the products over
    all h are their outer product, like the wavefunction itself.
    """
    chain = t.chain
    target = _sov2_array(t).ravel()
    prod_q = _site_product([np.array([qpoly(z) for z in chain.nodes(n)], dtype=CDTYPE)
                            for n in range(chain.n_sites)]).ravel()
    denom = np.vdot(prod_q, prod_q)
    if abs(denom) == 0.0:
        return float(np.max(np.abs(target)))
    c = np.vdot(prod_q, target) / denom
    return float(np.max(np.abs(target - c * prod_q)) / max(1.0, np.max(np.abs(target))))
