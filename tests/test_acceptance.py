"""Acceptance suite: every end-to-end criterion at its stated tolerance.

Reference configuration: N=2 sites with two_s=(1,2) (dim 6), eta=1, fixed
generic inhomogeneities, a full (b != 0) invertible simple twist, plus the
b=0 diagonal-twist variant and an N=3 two_s=(1,1,2) chain (dim 12). Each
test prints one PASS line (run with ``pytest -s`` to see them all).
"""

import numpy as np
import pytest

from sovchain.baxter import (_determinant_eigenvalues, build_q_operator, default_zeta,
                             q_operator_commutation_residual, q_operator_invertibility,
                             q_operator_tq_residual, solve_q_polynomial, sov_from_q,
                             sov_q_factorization, tq_residual)
from sovchain.chain import fused_twist
from sovchain.local_ops import kron_embed, lax, r_matrix
from sovchain.numerics import commutator_residual, frob, random_complex
from sovchain.sov_bases import (b_eigen_report, gram_rank, shift_action_report,
                                sklyanin_basis, sov_basis_2)
from sovchain.spectrum import (brute_force_spectrum, closed_form_solutions, discrete_residuals,
                               eigenvector_from_sov, match_to_oracle, solve_discrete_system)
from sovchain.transfer import (TransferEvaluator, central_zero_residual,
                               fused_transfer_projector, quantum_det_residual,
                               rtt_residual)
from conftest import rows
from test_baxter import _points


def _report(criterion, detail):
    print(f"PASS {criterion}: {detail}")


@pytest.fixture(scope="module")
def oracle12(chain12):
    return brute_force_spectrum(chain12)


@pytest.fixture(scope="module")
def oracle112(chain112):
    return brute_force_spectrum(chain112)


@pytest.fixture(scope="module")
def basis2_12(chain12, ev12):
    return sov_basis_2(chain12, evaluator=ev12)


def test_criterion_1_algebra_suite(chain12):
    rng = np.random.default_rng(1001)
    worst = 0.0
    dims3 = [2, 2, 2]
    for _ in range(20):
        lam, mu = random_complex(rng, size=2, box=3.0)
        r12 = kron_embed(r_matrix(lam - mu, chain12.eta), [0, 1], dims3)
        r13 = kron_embed(r_matrix(lam, chain12.eta), [0, 2], dims3)
        r23 = kron_embed(r_matrix(mu, chain12.eta), [1, 2], dims3)
        lhs = r12 @ r13 @ r23
        worst = max(worst, frob(lhs - r23 @ r13 @ r12) / max(1.0, frob(lhs)))
    for two_s in (1, 2, 3):
        dims = [2, 2, two_s + 1]
        for _ in range(20):
            lam, mu = random_complex(rng, size=2, box=3.0)
            r12 = kron_embed(r_matrix(lam - mu, chain12.eta), [0, 1], dims)
            l1 = kron_embed(lax(lam, two_s, chain12.eta), [0, 2], dims)
            l2 = kron_embed(lax(mu, two_s, chain12.eta), [1, 2], dims)
            lhs = r12 @ l1 @ l2
            worst = max(worst, frob(lhs - l2 @ l1 @ r12) / max(1.0, frob(lhs)))
    lams, mus = np.array([random_complex(rng, size=2, box=3.0) for _ in range(20)]).T
    worst = max(worst, np.max(rtt_residual(chain12, lams, mus)))
    assert worst < 1e-11
    _report("criterion 1 (algebra suite)", f"max YBE/RLL/RTT residual {worst:.2e} < 1e-11")


def test_criterion_2_commuting_family(chain12, ev12, chain112, ev112):
    rng = np.random.default_rng(1002)
    worst = 0.0
    for ev in (ev12, ev112):
        for _ in range(3):
            lam, mu = random_complex(rng, size=2, box=2.5)
            at_lam, at_mu = ev.fused(3, lam), ev.fused(3, mu)
            for l in (1, 2, 3):
                for m in (1, 2, 3):
                    worst = max(worst, commutator_residual(at_lam[l], at_mu[m]))
    assert worst < 1e-10
    _report("criterion 2 (commuting family)", f"max [T^l, T^m] residual {worst:.2e} < 1e-10")


def test_criterion_3_fusion_routes_and_central_zeros(chain12, ev12, chain112, ev112):
    rng = np.random.default_rng(1003)
    worst_route = 0.0
    for chain, ev in ((chain12, ev12), (chain112, ev112)):
        lams = [complex(random_complex(rng, box=2.5)) for _ in range(3)]
        towers = [ev.fused(3, lam) for lam in lams]
        for level in (1, 2, 3):
            for tower, lam in zip(towers, lams):
                proj = fused_transfer_projector(chain, level, lam)
                worst_route = max(worst_route, frob(tower[level] - proj) / max(1.0, frob(proj)))
    worst_zero = 0.0
    for chain, ev in ((chain12, ev12), (chain112, ev112)):
        lam_ref = complex(random_complex(rng, box=2.0))
        worst_zero = max(worst_zero, np.max(central_zero_residual(chain, ev, lam_ref)))
    assert worst_route < 1e-9
    assert worst_zero < 1e-9
    _report("criterion 3 (fusion)",
            f"route equivalence {worst_route:.2e} < 1e-9, central zeros {worst_zero:.2e} < 1e-9")


def test_criterion_4_quantum_determinant(chain12, chain112):
    rng = np.random.default_rng(1004)
    worst = 0.0
    for chain in (chain12, chain112):
        for _ in range(5):
            lam = complex(random_complex(rng, box=3.0))
            worst = max(worst, quantum_det_residual(chain, [lam])[0])
    assert worst < 1e-10
    _report("criterion 4 (quantum determinant)",
            f"operator identity residual {worst:.2e} < 1e-10, scalar det K a(lam) d(lam-eta)")


def test_criterion_5_sklyanin_basis(chain12, chain12_diag):
    rng = np.random.default_rng(1005)
    worst_eigen = 0.0
    worst_shift = 0.0
    for chain in (chain12, chain12_diag):
        basis = sklyanin_basis(chain)
        rank, _ = gram_rank(basis)
        assert rank == chain.dim
        lams = [complex(z) for z in random_complex(rng, size=3, box=2.5)]
        worst_eigen = max(worst_eigen, b_eigen_report(basis, lams))
        report = shift_action_report(basis)
        worst_shift = max(worst_shift, report["a_action"], report["d_action"])
    assert worst_eigen < 1e-9
    assert worst_shift < 1e-8
    worst_twist = 0.0
    for level in range(1, 4):
        fused = fused_twist(chain12.twist, level)
        got = np.sort_complex(np.linalg.eigvals(fused))
        want = np.sort_complex(np.array(
            [chain12.twist.k1 ** (level + 1 - h) * chain12.twist.k2 ** (h - 1)
             for h in range(1, level + 2)]))
        worst_twist = max(worst_twist, float(np.max(np.abs(got - want)))
                          / max(1.0, float(np.max(np.abs(want)))))
    assert worst_twist < 1e-10
    _report("criterion 5 (Sklyanin basis)",
            f"rank full, B-eigen {worst_eigen:.2e} < 1e-9, shifts {worst_shift:.2e} < 1e-8, "
            f"fused twist spectrum {worst_twist:.2e} < 1e-10")


def test_criterion_6_basis_identifications(chain12, chain12_diag):
    worst = 0.0
    for chain in (chain12, chain12_diag):
        ev = TransferEvaluator(chain)
        skl = sklyanin_basis(chain)
        top = tuple(site.two_s for site in chain.sites)
        b2 = sov_basis_2(chain, source=skl.row(top), evaluator=ev)
        worst = max(worst, _row_diff(b2, skl))
        oracle = brute_force_spectrum(chain)
        qop = build_q_operator(oracle, solve_q_polynomial(oracle.t))
        qb = sov_from_q(qop, skl)
        worst = max(worst, _row_diff(qb, skl))
    assert worst < 1e-7
    _report("criterion 6 (basis identifications)",
            f"tower and Q-generated bases match Sklyanin rows to {worst:.2e} < 1e-7")


def _row_diff(got, want):
    num = np.vdot(want.rows.ravel(), got.rows.ravel())
    den = np.vdot(want.rows.ravel(), want.rows.ravel())
    scale = num / den
    return max(frob(got.rows[i] - scale * want.rows[i]) / max(1e-300, frob(want.rows[i]))
               for i in range(got.rows.shape[0]))


def test_criterion_7_spectrum_completeness(chain12, oracle12, chain112, oracle112,
                                            chain12_k2zero):
    worst_dist = 0.0
    worst_res = 0.0
    for chain, oracle in ((chain12, oracle12), (chain112, oracle112)):
        solutions, _ = solve_discrete_system(oracle.t)
        assert len(solutions) == chain.dim
        _, dists, bijection = match_to_oracle(solutions, oracle)
        assert bijection
        worst_dist = max(worst_dist, max(dists))
        worst_res = max(worst_res, float(np.max(np.abs(discrete_residuals(oracle.t)))))
    assert worst_dist < 1e-8
    assert worst_res < 1e-8
    solutions = closed_form_solutions(chain12_k2zero)
    assert len(solutions) == chain12_k2zero.dim
    lam0 = 0.83 + 0.4j
    got = np.sort_complex(np.linalg.eigvals(TransferEvaluator(chain12_k2zero).transfer(lam0)))
    want = np.sort_complex(solutions(lam0))
    closed_err = float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))
    assert closed_err < 1e-10
    _report("criterion 7 (completeness)",
            f"{chain12.dim}+{chain112.dim} distinct solutions, bijection dist {worst_dist:.2e} "
            f"< 1e-8, residuals {worst_res:.2e} < 1e-8, k2=0 closed form {closed_err:.2e} < 1e-10")


def test_criterion_8_eigenvectors(chain12, ev12, oracle12, basis2_12, chain112, ev112,
                                   oracle112):
    worst_res = 0.0
    worst_overlap = 0.0
    basis112 = sov_basis_2(chain112, evaluator=ev112)
    for chain, ev, oracle, basis in ((chain12, ev12, oracle12, basis2_12),
                                     (chain112, ev112, oracle112, basis112)):
        vectors, residuals = eigenvector_from_sov(oracle.t, basis, evaluator=ev)
        worst_res = max(worst_res, float(np.max(residuals)))
        for want, v in zip(oracle.vectors.T, vectors.T):
            cosine = abs(np.vdot(want, v)) / (np.linalg.norm(want) * np.linalg.norm(v))
            worst_overlap = max(worst_overlap, 1.0 - cosine)
    assert worst_res < 1e-7
    assert worst_overlap < 1e-8
    _report("criterion 8 (eigenvectors)",
            f"all {chain12.dim + chain112.dim} eigenvalues: residual {worst_res:.2e} < 1e-7, "
            f"1-|cos| {worst_overlap:.2e} < 1e-8")


def test_criterion_9_tq_suite(chain1, chain12, oracle12, chain112, oracle112):
    worst_tq = 0.0
    worst_unique = 0.0
    min_root_gap = np.inf
    for chain, oracle in ((chain12, oracle12), (chain112, oracle112)):
        zeta_a = default_zeta(chain, salt=20)
        zeta_b = default_zeta(chain, salt=24)
        lams = _points(chain, 21)
        qa = solve_q_polynomial(oracle.t, zeta=zeta_a)
        qb = solve_q_polynomial(oracle.t, zeta=zeta_b)
        assert np.max(qa.degree) <= chain.n_s
        worst_tq = max(worst_tq, float(np.max(tq_residual(oracle.t, qa, lams))))
        worst_unique = max(worst_unique, float(np.max(np.abs(qa.coeffs - qb.coeffs))))
        for roots in qa.roots:
            for root in roots:
                for b, site in enumerate(chain.sites):
                    min_root_gap = min(min_root_gap, abs(root - chain.node(b, site.two_s)))
    assert worst_tq < 1e-8
    assert worst_unique < 1e-8
    assert min_root_gap > 1e-6
    # hand-derived single-site case, exact to 1e-10
    by_x = {round(t.x[0, 0].real): t for t in rows(brute_force_spectrum(chain1).t)}
    q_const = solve_q_polynomial(by_x[2], zeta=1.0)
    q_linear = solve_q_polynomial(by_x[1], zeta=1.0)
    assert q_const.degree[0] == 0 and abs(q_const.coeffs[0, 0] - 1.0) < 1e-10
    assert q_linear.degree[0] == 1
    assert np.max(np.abs(q_linear.coeffs[0] - np.array([2.0, 1.0]))) < 1e-10
    _report("criterion 9 (TQ suite)",
            f"TQ {worst_tq:.2e} < 1e-8, uniqueness spread {worst_unique:.2e} < 1e-8, "
            f"root gap {min_root_gap:.2e} > 1e-6, hand case Q=1 and Q=lam+2 exact")


def test_criterion_10_q_operator(chain12, ev12, oracle12):
    rng = np.random.default_rng(1010)
    qpoly = solve_q_polynomial(oracle12.t)
    qop = build_q_operator(oracle12, qpoly)
    lams = [complex(z) for z in random_complex(rng, size=3, box=2.5)]
    mus = [complex(z) for z in random_complex(rng, size=3, box=2.5)]
    commute = q_operator_commutation_residual(qop, ev12, lams, mus)
    tq_op = q_operator_tq_residual(qop, ev12, lams)
    conds = q_operator_invertibility(qop)
    # the eigenvalues against their Cramer reading of the closure, as qop.method_agreement
    agree = 0.0
    for lam in [complex(z) for z in random_complex(rng, size=5, box=2.5)]:
        e_solve = qop.eigenvalues(lam)
        e_cramer = _determinant_eigenvalues(qpoly.closure, lam)
        agree = max(agree, np.max(np.abs(e_solve - e_cramer)) / max(1.0, np.max(np.abs(e_solve))))
    assert commute < 1e-9
    assert tq_op < 1e-8
    assert max(conds.values()) < 1e8
    assert agree < 1e-7
    _report("criterion 10 (Q-operator)",
            f"[Q,T] {commute:.2e} < 1e-9, operator TQ {tq_op:.2e} < 1e-8, "
            f"max cond {max(conds.values()):.1e} < 1e8, method agreement {agree:.2e} < 1e-7")


def test_criterion_11_sov_q_factorization(chain12, oracle12, chain112, oracle112):
    worst = 0.0
    for chain, oracle in ((chain12, oracle12), (chain112, oracle112)):
        qpoly = solve_q_polynomial(oracle.t, zeta=default_zeta(chain))
        worst = max(worst, float(np.max(sov_q_factorization(oracle.t, qpoly))))
    assert worst < 1e-7
    _report("criterion 11 (SoV-Q factorization)",
            f"wavefunction = const * prod Q(node), spread {worst:.2e} < 1e-7 over all eigenvalues")
