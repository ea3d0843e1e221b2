import dataclasses

import numpy as np
import pytest

from conftest import commutator_residual, rows, sample_defect
from regen_golden import CHAINS as GOLDEN_CHAINS
from sovchain import baxter, cli
from sovchain.baxter import (_Closure, _determinant_eigenvalues, _roots_by_degree,
                             _worst_cancellation, build_q_operator, default_zeta,
                             q_operator_commutation_residual, q_operator_invertibility,
                             q_operator_tq_residual, solve_q_polynomial, sov_from_q,
                             sov_q_factorization, tq_residual, wronskian_values)
from sovchain.numerics import frob, poly_eval, random_complex
from sovchain.sov_bases import sklyanin_basis
from sovchain.spectrum import OracleSpectrum, TransferPolynomial, _sov2_array, brute_force_spectrum
from sovchain.transfer import TransferEvaluator, transfer


def _q_operator(chain):
    """Eigenbasis Q-operator from the oracle and its Q-polynomials at the default zeta."""
    oracle = brute_force_spectrum(chain)
    return build_q_operator(oracle, solve_q_polynomial(oracle.t))


def _eigenvalues_by_x(chain):
    return {round(t.x[0, 0].real): t for t in rows(brute_force_spectrum(chain).t)}


def _coefficients(qpoly):
    """The ascending coefficients of a one-row Q-polynomial stack up to its degree."""
    return qpoly.coeffs[0, :qpoly.degree[0] + 1]


def _points(chain, salt):
    """3N points of [-3, 3]^2 drawn from ``chain.rng(salt)`` as (re, im) pairs in turn."""
    u = chain.rng(salt).uniform(-3.0, 3.0, size=6 * chain.n_sites)
    return u[0::2] + 1j * u[1::2]


def _tq_residual_shifted(t, q, lams):
    """Residual of the first-order form k1 a(lam) Q(lam-eta) - t(lam) Q(lam)
    + k2 d(lam) Q(lam+eta) = 0, as ``tq_residual``; it stays nontrivial at
    k1 = 0, where every term of the second-order form carries a k1 factor."""
    chain, eta = t.chain, t.chain.eta
    return _worst_cancellation([chain.twist.k1 * chain.a(lams) * q(lams - eta), -t(lams) * q(lams),
                                chain.twist.k2 * chain.d(lams) * q(lams + eta)])


def test_q_values_hand_case(chain1):
    t = _eigenvalues_by_x(chain1)[1]  # t = 3 lam + 1
    vals = t.grid_ratios[0][0]
    assert vals[1] == 1.0
    assert abs(vals[0] - 2.0) < 1e-12  # t(-1) / (k2 d(-1)) = 2


def test_q_values_first_step_formula(chain12):
    t = rows(brute_force_spectrum(chain12).t)[1]
    for n, site in enumerate(chain12.sites):
        bottom = chain12.node(n, site.two_s)
        want = t(bottom)[0] / (chain12.twist.k2 * chain12.d(bottom))
        got = t.grid_ratios[n][0, site.two_s - 1]
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_a_wrong_grid_ratio_fails_the_wavefunction_and_tq_rows(chain12):
    # one interior ratio off by 1e-6 breaks the recursion the ratios solve and the
    # T-Q equation of the Q closed on them; the rows report it, nothing raises.
    # (A uniform scale of every ratio would leave Q unchanged.)
    ctx = cli._RunContext(chain12)
    stack = ctx.oracle().t
    ratios = [r.copy() for r in stack.grid_ratios]
    ratios[1][..., 1] *= 1 + 1e-6
    stack.grid_ratios = ratios
    got = {c["name"]: c for c in cli.suite_spectrum(chain12, ctx) + cli.suite_baxter(chain12, ctx)}
    wavefunction = got["spectrum.wavefunction_separate_action"]
    assert not wavefunction["passed"] and wavefunction["value"] == pytest.approx(1e-6, rel=1e-3)
    tq = got["baxter.tq_equation"]
    assert not tq["passed"] and 1e-6 < tq["value"] < 1e-4


def test_hand_case_q_polynomials(chain1):
    ts = _eigenvalues_by_x(chain1)
    q0 = solve_q_polynomial(ts[2], zeta=1.0)  # t = 3 lam + 2
    assert q0.degree.tolist() == [0] and q0.coeffs.shape == (1, chain1.n_s + 1)
    assert np.allclose(q0.coeffs[0], [1.0, 0.0], atol=1e-10) and q0.coeffs[0, 1] == 0.0
    assert q0.roots[0].shape == (0,) and q0.root_gap.tolist() == [np.inf]
    q1 = solve_q_polynomial(ts[1], zeta=1.0)  # t = 3 lam + 1
    assert q1.degree.tolist() == [1]
    assert np.max(np.abs(q1.coeffs[0] - np.array([2.0, 1.0]))) < 1e-10
    # root at k1 / (k2 - k1) = -2, at distance 1 from the bottom node -1
    root = q1.roots[0][0]
    assert abs(root - (-2.0)) < 1e-10
    assert q1.root_gap[0] == abs(root - chain1.node(0, 1))


def test_q_degree_bound_and_nontriviality(chain12, chain112):
    for chain in (chain12, chain112):
        zeta = default_zeta(chain)
        qpoly = solve_q_polynomial(brute_force_spectrum(chain).t, zeta=zeta)
        assert np.max(qpoly.leftout_residual) < 1e-9
        assert max(qpoly.degree) <= chain.n_s
        assert max(qpoly.degree) >= 1


def test_tq_equation_on_shell(chain12, chain112):
    for chain in (chain12, chain112):
        for t in rows(brute_force_spectrum(chain).t):
            qpoly = solve_q_polynomial(t)
            assert tq_residual(t, qpoly, _points(chain, 21)) < 1e-8
            assert _tq_residual_shifted(t, qpoly, _points(chain, 22)) < 1e-8


def test_tq_equation_detects_off_shell(chain12):
    t = rows(brute_force_spectrum(chain12).t)[0]
    qpoly = solve_q_polynomial(t)
    lams = _points(chain12, 21)
    on_shell = tq_residual(t, qpoly, lams)[0]
    x = t.x.copy()
    x[0, 1] += 0.1
    off = TransferPolynomial(chain12, x)
    off_shell = tq_residual(off, qpoly, lams)[0]
    assert off_shell > 1e-3
    assert off_shell > 1e6 * max(on_shell, 1e-16)


def test_no_root_on_bottom_nodes(chain12):
    qpoly = solve_q_polynomial(brute_force_spectrum(chain12).t)
    bottoms = np.array([chain12.node(b, site.two_s) for b, site in enumerate(chain12.sites)])
    assert np.all(qpoly.root_gap > 1e-6)
    for roots, gap in zip(qpoly.roots, qpoly.root_gap):
        assert gap == np.min(np.abs(roots[:, None] - bottoms), initial=np.inf)


def test_roots_by_degree_equal_np_roots_bitwise(chain112):
    q = solve_q_polynomial(brute_force_spectrum(chain112).t)
    # degree 0, exactly-zero low coefficients (roots at 0), and zeros in between
    extra = np.array([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 2 - 1j, 1, 0],
                      [0, 0, 0, 0, 1], [3, 0, 0, 1, 0], [0.5j, 2, -1, 0.25, 1]], dtype=complex)
    coeffs = np.concatenate([q.coeffs, extra])   # n_s = 4: five coefficients per row
    degree = np.concatenate([q.degree, [0, 1, 3, 4, 3, 4]])
    got = _roots_by_degree(coeffs, degree)
    for c, d, roots in zip(coeffs, degree, got):
        want = np.roots(c[d::-1])
        assert len(roots) == d and np.array_equal(roots, want)
    assert all(np.array_equal(a, b) for a, b in zip(q.roots, got))


def test_wronskian_hand_values(chain12):
    eta = chain12.eta
    one = lambda lam: 1.0
    ident = lambda lam: lam
    # for the pair {1, lam} the combination is the constant +-eta
    for lam in (0.3, -1.2 + 0.4j):
        w = ident(lam) * one(lam - eta) - one(lam) * ident(lam - eta)
        assert abs(w - eta) < 1e-15
        w_swapped = one(lam) * ident(lam - eta) - ident(lam) * one(lam - eta)
        assert abs(w_swapped + eta) < 1e-15
    assert wronskian_values(one, ident, chain12, [0.3, -1.2 + 0.4j]) > 0.1
    q = lambda lam: lam ** 2 - 0.5
    assert wronskian_values(q, q, chain12, [0.7, 1.3 - 0.2j]) < 1e-15


def test_uniqueness_two_zetas(chain12):
    zeta_a = default_zeta(chain12, salt=20)
    zeta_b = default_zeta(chain12, salt=24)
    assert abs(zeta_a - zeta_b) > 1e-3
    rng = np.random.default_rng(77)
    lams = [complex(z) for z in random_complex(rng, size=5, box=3.0)]
    for t in rows(brute_force_spectrum(chain12).t):
        qa = solve_q_polynomial(t, zeta=zeta_a)
        qb = solve_q_polynomial(t, zeta=zeta_b)
        assert np.max(np.abs(qa.coeffs - qb.coeffs)) < 1e-8
        assert wronskian_values(qa, qb, chain12, lams) < 1e-9


def test_degenerate_twist_q_closed_form(chain12):
    # k1 = 0 twist: eigenvalues pair with polynomials rooted at the top nodes
    import warnings

    from sovchain.chain import make_chain, normalize_twist
    from sovchain.errors import SingularTwistWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SingularTwistWarning)
        twist = normalize_twist(np.diag([-2.0, 0.0]).astype(complex))
    chain = make_chain(chain12.eta, [(s.two_s, s.xi) for s in chain12.sites],
                       twist, seed=chain12.seed)
    assert twist.k1 == 0
    for h in np.ndindex(chain.dims):
        x = np.array([twist.k2 * np.prod([chain.node(a, 0) - chain.node(n, hn)
                                          for n, hn in enumerate(h)])
                      for a in range(chain.n_sites)])
        t = TransferPolynomial(chain, x[None])
        # the eigenvalue k2 prod_n (lam - xi_n^(h_n)) pairs with the monic
        # polynomial rooted at the top h_n grid nodes of each site
        coeffs = np.array([1.0], dtype=complex)
        for n, hn in enumerate(h):
            for k in range(hn):
                coeffs = np.convolve(coeffs, [-chain.node(n, k), 1.0])
        q_fn = lambda lam, c=coeffs[None]: poly_eval(c, lam)
        assert _tq_residual_shifted(t, q_fn, _points(chain, 22)) < 1e-12
        got = _coefficients(solve_q_polynomial(t))
        assert len(got) == len(coeffs)
        assert np.max(np.abs(got - coeffs)) < 1e-8 * max(1.0, np.max(np.abs(coeffs)))


def test_closure_rank_one_update(chain12):
    # the lam-dependent correction to the closure matrix has rank one
    t = rows(brute_force_spectrum(chain12).t)[0]
    system = _Closure(chain12, default_zeta(chain12), t.grid_ratios)
    rng = np.random.default_rng(4)
    for lam in random_complex(rng, size=3, box=2.0):
        f, g = system.site_sums(system.bary.ell_cardinals(lam)[1], system.q_flat[0])
        delta = np.outer(system.rhs[0] / g, f)
        sv = np.linalg.svd(delta, compute_uv=False)
        assert sv[0] > 1e-12 and (len(sv) == 1 or sv[1] < 1e-12 * sv[0])


def test_cramer_dets_match_solution(chain12):
    t = rows(brute_force_spectrum(chain12).t)[3]
    system = _Closure(chain12, default_zeta(chain12), t.grid_ratios)
    matrix, rhs = system.matrix[0], system.rhs[0]
    assert system.det[0] == np.linalg.det(matrix)
    by_solve = np.linalg.solve(matrix, rhs)
    column_dets = []
    for j in range(chain12.n_sites):
        cj = matrix.copy()
        cj[:, j] = rhs
        column_dets.append(np.linalg.det(cj))
    by_cramer = np.array(column_dets) / np.linalg.det(matrix)
    assert np.max(np.abs(by_solve - by_cramer)) < 1e-10 * max(1.0, np.max(np.abs(by_solve)))


def test_q_operator_identities(chain12, ev12):
    qop = _q_operator(chain12)
    rng = np.random.default_rng(91)
    lams = [complex(z) for z in random_complex(rng, size=3, box=2.5)]
    mus = [complex(z) for z in random_complex(rng, size=3, box=2.5)]
    assert q_operator_commutation_residual(qop, ev12, lams, mus) < 1e-9
    assert q_operator_tq_residual(qop, ev12, lams) < 1e-8
    conds = q_operator_invertibility(qop)
    assert max(hi for _, hi in conds.values()) < 1e8
    # normalized to the identity at the auxiliary point
    assert frob(qop(qop.zeta) - np.eye(chain12.dim)) < 1e-10


def _commutation_per_pair(qop, evaluator, lams, mus):
    """Oracle: [Q(lam), T(mu)] with T(mu) evaluated afresh for every pair."""
    return float(np.max([commutator_residual(qop(lam), evaluator.transfer(mu))
                         for lam in lams for mu in mus], initial=0.0))


def _tq_per_term(qop, evaluator, lams):
    """Oracle: the operator T-Q residual with every operator evaluated where it is used."""
    chain, eta, k1 = qop.chain, qop.chain.eta, qop.chain.twist.k1
    residuals = []
    for lam in lams:
        beta = k1 * chain.a(lam)
        alpha = beta * k1 * chain.a(lam - eta)
        op = (alpha * qop(lam - 2 * eta)
              - beta * evaluator.transfer(lam - eta) @ qop(lam - eta)
              + chain.det_q(lam) * qop(lam))
        scale = max(1.0, abs(alpha) * frob(qop(lam - 2 * eta)),
                    abs(beta) * frob(evaluator.transfer(lam - eta)) * frob(qop(lam - eta)),
                    abs(chain.det_q(lam)) * frob(qop(lam)))
        residuals.append(frob(op) / scale)
    return float(np.max(residuals, initial=0.0))


# the probe Q rows over their dense oracles above, measured over 20 probe salts in place of
# 608 on the 9 golden chains: 0.64 to 2.93 at roundoff (at salt 608 itself 0.78 to
# 1.73) and 0.48 to 1.98 under the three 1e-6 defects of the tests below
Q_PROBE_SPREAD = (0.45, 3.0)


def _in_spread(got, want):
    return Q_PROBE_SPREAD[0] * want <= got <= Q_PROBE_SPREAD[1] * want


def _qop_points(chain):
    """The suite's T-Q points lams and commutation points mus (``cli.suite_qop``)."""
    rng = chain.rng(500)
    return [[complex(z) for z in random_complex(rng, size=3, box=2.5)] for _ in range(2)]


@pytest.mark.parametrize("name", list(GOLDEN_CHAINS))
def test_q_operator_probe_rows_read_their_dense_oracles_on_the_goldens(name):
    chain = GOLDEN_CHAINS[name]()
    ctx = cli._RunContext(chain)
    qop, ev = ctx.q_operator(), ctx.evaluator()
    lams, mus = _qop_points(chain)
    assert _in_spread(q_operator_commutation_residual(qop, ev, lams, mus),
                      _commutation_per_pair(qop, ev, lams, mus))
    assert _in_spread(q_operator_tq_residual(qop, ev, lams), _tq_per_term(qop, ev, lams))


def _q_row_defect(ctx, qop):
    """The Q-operator with coefficient 0 of eigenvalue row 1 scaled by 1 + 1e-6: still
    diagonal in the eigenbasis of T, off the T-Q equation."""
    q = ctx.q_polynomials(qop.zeta)
    coeffs = q.coeffs.copy()
    coeffs[1, 0] *= 1 + 1e-6
    return build_q_operator(ctx.oracle(), dataclasses.replace(q, coeffs=coeffs))


@pytest.mark.parametrize("config", ["n2_mixed", "n2_spin22", "n3_mixed"])
def test_a_1e_6_defect_fails_the_probe_q_rows_in_spread(config):
    chain = cli.chain_from_config(cli.load_config(config))
    ctx = cli._RunContext(chain)
    qop, ev = ctx.q_operator(), ctx.evaluator()
    lams, mus = _qop_points(chain)
    # one evaluator sample: T leaves the commuting family and the T-Q equation
    bad_ev = sample_defect(TransferEvaluator(chain))
    got, want = (q_operator_commutation_residual(qop, bad_ev, lams, mus),
                 _commutation_per_pair(qop, bad_ev, lams, mus))
    assert got > 1e-9 and _in_spread(got, want)
    got, want = q_operator_tq_residual(qop, bad_ev, lams), _tq_per_term(qop, bad_ev, lams)
    assert got > 1e-8 and _in_spread(got, want)
    # one Q eigenvalue row: the T-Q row fails, the commutation row stays at roundoff
    bad_q = _q_row_defect(ctx, qop)
    got, want = q_operator_tq_residual(bad_q, ev, lams), _tq_per_term(bad_q, ev, lams)
    assert got > 1e-8 and _in_spread(got, want)
    assert q_operator_commutation_residual(bad_q, ev, lams, mus) < 1e-14


def test_q_operator_method_agreement(chain12, ev12, chain112):
    # the operator's D eigenvalues against their Cramer reading of the solve's closure stack
    for chain in (chain12, chain112):
        oracle = brute_force_spectrum(chain)
        qpoly = solve_q_polynomial(oracle.t)
        qop = build_q_operator(oracle, qpoly)
        assert qop.zeta == qpoly.closure.zeta == default_zeta(chain)
        rng = np.random.default_rng(93)
        worst = 0.0
        for lam in random_complex(rng, size=5, box=2.5):
            e_solve = qop.eigenvalues(complex(lam))
            e_cramer = _determinant_eigenvalues(qpoly.closure, complex(lam))
            assert e_solve.shape == e_cramer.shape == (chain.dim,)
            worst = max(worst, np.max(np.abs(e_solve - e_cramer))
                        / max(1.0, np.max(np.abs(e_solve))))
        assert worst < 1e-7


@pytest.mark.parametrize("config", ["n1_spin_half", "n2_mixed", "n2_mixed_diagonal",
                                    "n2_spin22", "n3_mixed"])
def test_cramer_route_makes_no_solve(config, monkeypatch):
    # g + sum_i f_i det C_i / det C, with no solve: at the suite's points, at a closure node
    # (where the zeta cardinal g is 0) and 1e-12 from it, against the solved eigenvalues
    chain = cli.chain_from_config(cli.load_config(config))
    ctx = cli._RunContext(chain)
    qop = ctx.q_operator()
    closure, seen = ctx.q_polynomials(qop.zeta).closure, []

    def no_solve(*args, **kwargs):
        raise AssertionError("the Cramer route called np.linalg.solve")

    def cramer(system, lam):
        seen.append(lam)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "solve", no_solve)
            return _determinant_eigenvalues(system, lam)

    monkeypatch.setattr(cli, "_determinant_eigenvalues", cramer)
    rows = {c["name"]: c for c in cli.suite_qop(chain, ctx)}
    assert len(seen) == 5 and rows["qop.method_agreement"]["value"] < 1e-12
    node = complex(closure.nodes[0])
    assert node == chain.node(0, 1)
    for lam in (node, node + 1e-12):
        want = qop.eigenvalues(lam)
        assert np.max(np.abs(cramer(closure, lam) - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_q_operator_rejects_equal_eigenvalues(chain12):
    from sovchain.chain import make_chain

    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    chain = make_chain(chain12.eta, [(s.two_s, s.xi) for s in chain12.sites],
                       jordan, seed=chain12.seed)
    # the guard reads only the oracle's chain, so a hand-made one-row oracle trips it
    # (the oracle itself refuses this chain: its spectrum is degenerate)
    oracle = OracleSpectrum(t=TransferPolynomial(chain, np.zeros((1, chain.n_sites))),
                            vectors=np.eye(chain.dim)[:, :1], left=np.eye(chain.dim)[:1],
                            value_at_lam0=np.zeros(1))
    with pytest.raises(ValueError, match="distinct eigenvalues"):
        build_q_operator(oracle, None)


def test_q_operator_rejects_mismatched_q_polynomials(chain12):
    oracle = brute_force_spectrum(chain12)
    short = TransferPolynomial(chain12, oracle.t.x[:-1])
    single = TransferPolynomial(chain12, oracle.t.x[:1])
    for qpoly in (solve_q_polynomial(short), solve_q_polynomial(single)):
        with pytest.raises(ValueError, match="one Q-polynomial row per oracle row"):
            build_q_operator(oracle, qpoly)


def test_sov_from_q_reproduces_sklyanin(chain12, chain12_diag):
    for chain in (chain12, chain12_diag):
        qop = _q_operator(chain)
        skl = sklyanin_basis(chain)
        basis = sov_from_q(qop, skl)
        worst = max(
            frob(basis.rows[i] - skl.rows[i]) / max(1e-300, frob(skl.rows[i]))
            for i in range(chain.dim))
        assert worst < 1e-7
        # top row: the inverse Q factors cancel exactly against the products
        top = tuple(site.two_s for site in chain.sites)
        assert frob(basis.row(top) - skl.row(top)) / frob(skl.row(top)) < 1e-10


def _sov_from_q_dense(chain, qop):
    """Reference route: rows as products of dense Q operators on the source.

    The source is the top Sklyanin row times the dense inverse of Q at every
    bottom node; each row extends a cached prefix by one operator.
    """
    q_at = {(n, h): qop(chain.node(n, h))
            for n, site in enumerate(chain.sites) for h in range(site.dim)}
    top = tuple(site.two_s for site in chain.sites)
    source = sklyanin_basis(chain).row(top)
    for n, site in enumerate(chain.sites):
        source = source @ np.linalg.inv(q_at[(n, site.two_s)])
    partial = {(): np.asarray(source, dtype=complex)}
    rows = []
    for h in np.ndindex(chain.dims):
        for n in range(chain.n_sites):
            if h[:n + 1] not in partial:
                partial[h[:n + 1]] = partial[h[:n]] @ q_at[(n, h[n])]
        rows.append(partial[h])
    return np.array(rows)


def test_sov_from_q_matches_dense_operator_products(chain12, chain12_diag):
    from sovchain.cli import chain_from_config, load_config

    n3_mixed = chain_from_config(load_config("n3_mixed"))
    for chain in (chain12, chain12_diag, n3_mixed):
        qop = _q_operator(chain)
        got = sov_from_q(qop, sklyanin_basis(chain)).rows
        want = _sov_from_q_dense(chain, qop)
        scale = np.linalg.norm(want, axis=1)
        assert np.max(np.linalg.norm(got - want, axis=1) / scale) < 1e-10


def test_sov_q_factorization(chain12, chain112):
    for chain in (chain12, chain112):
        zeta = default_zeta(chain)
        for t in rows(brute_force_spectrum(chain).t):
            qpoly = solve_q_polynomial(t, zeta=zeta)
            assert sov_q_factorization(t, qpoly) < 1e-7


def test_leading_coefficient_constraint(chain12):
    # oracle eigenvalue leading coefficient satisfies k1^2 - k1 t_lead + det K = 0
    chain = chain12
    pts = np.array([0.4 + 0.1j, -0.9 - 0.7j, 1.8 + 0.9j])
    oracle = brute_force_spectrum(chain)
    for left, vector in list(zip(oracle.left, oracle.vectors.T))[:3]:
        lead = 0.0
        for j, z in enumerate(pts):
            denom = np.prod([z - w for k, w in enumerate(pts) if k != j])
            lead += (left @ transfer(chain, z) @ vector) / denom
        k1 = chain.twist.k1
        assert abs(lead - chain.twist.trace) < 1e-9
        assert abs(k1 ** 2 - k1 * lead + chain.twist.det) < 1e-8


def test_root_on_forbidden_node_fails_the_root_gap_row(chain12, monkeypatch):
    # the solve returns each row's least root-to-bottom-node distance and refuses
    # none; the baxter.forbidden_root_gap row alone judges it, at 1e-6
    zeta = default_zeta(chain12)
    q = solve_q_polynomial(brute_force_spectrum(chain12).t, zeta=zeta)
    bottoms = np.array([g[0, -1] for g in chain12.grid])
    want = [np.min(np.abs(r[:, None] - bottoms), initial=np.inf) for r in q.roots]
    assert np.array_equal(q.root_gap, want) and np.isfinite(np.min(want))

    def row(report):
        return next(c for c in report["checks"] if c["name"] == "baxter.forbidden_root_gap")

    assert row(cli.run("baxter", chain12))["passed"]
    solve = cli.solve_q_polynomial

    def on_node(*args, **kwargs):   # the first row's nearest root moved onto its bottom node
        gap = np.where(np.arange(chain12.dim) == 0, 0.0, want)
        return dataclasses.replace(solve(*args, **kwargs), root_gap=gap)

    monkeypatch.setattr(cli, "solve_q_polynomial", on_node)
    failed = row(cli.run("baxter", chain12))
    assert not failed["passed"]
    assert failed["value"] == 1e-6 and failed["info"]["min_distance"] == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_q_fails_the_root_gap_row(chain12, monkeypatch):
    # xi_0 - xi_1 = -eta: the closure is singular and every Q coefficient NaN; the degree
    # trim reads each row as a constant, but its root gap is NaN, not a constant's inf
    from conftest import TWIST_FULL
    from sovchain.chain import ChainSpec, Site, normalize_twist

    chain = ChainSpec(eta=1.0, sites=(Site(1, 0.0), Site(1, 1.0)),
                      twist=normalize_twist(TWIST_FULL))
    q = solve_q_polynomial(brute_force_spectrum(chain).t)
    assert np.all(q.degree == 0) and not np.isfinite(q.coeffs).all()
    assert np.isnan(q.root_gap).all()
    row = next(c for c in cli.run("baxter", chain)["checks"]
               if c["name"] == "baxter.forbidden_root_gap")
    assert np.isnan(row["value"]) and not row["passed"]
    # a constant Q (no root, gap inf) still passes
    solve = cli.solve_q_polynomial
    monkeypatch.setattr(cli, "solve_q_polynomial", lambda *args, **kwargs: dataclasses.replace(
        solve(*args, **kwargs), root_gap=np.full(chain12.dim, np.inf)))
    row = next(c for c in cli.run("baxter", chain12)["checks"]
               if c["name"] == "baxter.forbidden_root_gap")
    assert row == {"name": "baxter.forbidden_root_gap", "value": 0.0, "tolerance": 0.0,
                   "passed": True, "info": {"min_distance": None}}


def test_non_finite_q_fails_the_degree_budget_row():
    # the same NaN Q reads as degree 0 in every row, inside the budget: the row is NaN and
    # fails, where it passed at 0.0
    from conftest import TWIST_FULL
    from sovchain.chain import ChainSpec, Site, normalize_twist

    chain = ChainSpec(eta=1.0, sites=(Site(1, 0.0), Site(1, 1.0)),
                      twist=normalize_twist(TWIST_FULL))
    with np.errstate(all="ignore"):
        row = next(c for c in cli.run("baxter", chain)["checks"]
                   if c["name"] == "baxter.degree_budget_excess")
    assert np.isnan(row["value"]) and not row["passed"]
    assert row["info"]["degree_histogram"] == [4, 0, 0]


def test_q_operator_invertibility_reports_every_site(chain12):
    # every site's cond bracket is returned, none refused; it holds the SVD's cond, and a Q
    # singular at the bottom nodes fails the qop.bottom_node_condition row (gate 1e8) and
    # no suite errors
    qop = _q_operator(chain12)
    conds = q_operator_invertibility(qop)
    assert list(conds) == [(n, site.two_s) for n, site in enumerate(chain12.sites)]
    for (n, two_s), (lo, hi) in conds.items():
        cond = np.linalg.cond(qop(chain12.node(n, two_s)))
        assert 1.0 <= lo <= cond * (1 + 1e-12) and cond <= hi < 1e8
    kill = np.arange(chain12.dim) == 0
    singular = dataclasses.replace(qop, eigenvalues=lambda lam: np.where(
        kill, 0.0, qop.eigenvalues(lam)))
    assert list(q_operator_invertibility(singular).values()) == [(np.inf, np.inf)] * 2
    ctx = cli._RunContext(chain12)
    ctx._values["qop"] = singular
    checks = {c["name"]: c for c in cli.suite_qop(chain12, ctx)}
    assert not checks["qop.bottom_node_condition"]["passed"]
    assert not any(name.endswith(".error") for name in checks)


@pytest.mark.parametrize("factor, passed", [(1.0, True), (1e3, False)])
def test_one_large_q_eigenvalue_fails_the_condition_row(factor, passed):
    # (2,2,2,2) seed 7: cond Q is 2.6e5 at site 0's bottom node; its largest eigenvalue
    # times 1e3 lifts that past the gate 1e8, and the row fails by its bracket
    from conftest import TWIST_FULL
    from sovchain.chain import random_chain

    chain = random_chain((2,) * 4, 1.0, TWIST_FULL, 7)
    ctx = cli._RunContext(chain)
    qop, node = ctx.q_operator(), chain.node(0, 2)
    top = np.argmax(np.abs(qop.eigenvalues(node)))

    def eigenvalues(lam):   # at one point (D,), at points (P,) one row (D,) per point
        out = qop.eigenvalues(lam)
        out[..., top] *= np.where(np.asarray(lam) == node, factor, 1.0)
        return out

    ctx._values["qop"] = dataclasses.replace(qop, eigenvalues=eigenvalues)
    row = next(c for c in cli.suite_qop(chain, ctx) if c["name"] == "qop.bottom_node_condition")
    assert row["passed"] is passed
    lo, hi = row["info"]["brackets"][0]
    assert lo <= np.linalg.cond(ctx.q_operator()(node)) * (1 + 1e-9) <= hi * (1 + 2e-9)


def test_q_operator_takes_q_polynomials_from_solver(chain12, monkeypatch):
    # the caller's solver (here at a non-default zeta) supplies every Q-polynomial;
    # the assembly solves none itself
    import sovchain.baxter as baxter

    oracle = brute_force_spectrum(chain12)
    zeta = default_zeta(chain12, salt=24)
    qpoly = solve_q_polynomial(oracle.t, zeta=zeta)
    monkeypatch.setattr(baxter, "solve_q_polynomial", None)
    qop = build_q_operator(oracle, qpoly)
    assert qop.zeta == zeta
    assert frob(qop(zeta) - np.eye(chain12.dim)) < 1e-10
    # both readings of the Q-operator eigenvalues are 1 at zeta, and the Cramer one reads
    # the closure of the caller's polynomials
    for values in (qop.eigenvalues(zeta), _determinant_eigenvalues(qpoly.closure, zeta)):
        assert np.max(np.abs(values - 1)) < 1e-10
    lam = 0.3 - 0.8j
    want = qpoly(lam) / qpoly(zeta)
    assert np.array_equal(qop.eigenvalues(lam), want)
    assert np.max(np.abs(_determinant_eigenvalues(qpoly.closure, lam) - want)) < 1e-10


def test_sov_from_q_reads_only_the_sklyanin_top_row(chain12):
    # a rank-deficient Sklyanin basis is not refused: its rank row is the verdict, and the
    # Q-generated basis, built from the top row alone, keeps its own full rank
    qop = _q_operator(chain12)
    skl = sklyanin_basis(chain12)
    rows = skl.rows.copy()
    rows[1] = rows[0]
    deficient = dataclasses.replace(skl, rows=rows)
    assert deficient.rank[0] < chain12.dim
    got = sov_from_q(qop, sklyanin=deficient)
    assert np.array_equal(got.rows, sov_from_q(qop, skl).rows)
    assert got.rank[0] == chain12.dim


def _sov_q_factorization_loop(t, qpoly):
    """Entry-by-entry reference for a one-row stack: one Q evaluation per (h, n)."""
    chain = t.chain
    psi = _sov2_array(t)[..., 0]
    hs = list(np.ndindex(chain.dims))
    prod_q = np.array([np.prod([qpoly(chain.node(n, hn))[0] for n, hn in enumerate(h)])
                       for h in hs])
    target = np.array([psi[h] for h in hs])
    c = np.vdot(prod_q, target) / np.vdot(prod_q, prod_q)
    return float(np.max(np.abs(target - c * prod_q)) / max(1.0, np.max(np.abs(target))))


def test_sov_q_factorization_matches_loop(chain112):
    zeta = default_zeta(chain112)
    rng = np.random.default_rng(4)
    for t in rows(brute_force_spectrum(chain112).t):
        qpoly = solve_q_polynomial(t, zeta=zeta)
        assert abs(sov_q_factorization(t, qpoly)[0] - _sov_q_factorization_loop(t, qpoly)) < 1e-13
        if qpoly.degree[0] == 0:   # a constant Q factorizes whatever its value
            continue
        noise = 1 + 1e-3 * rng.standard_normal(qpoly.degree[0] + 1)
        off = dataclasses.replace(qpoly, coeffs=(_coefficients(qpoly) * noise)[None])
        want = _sov_q_factorization_loop(t, off)
        assert want > 1e-6
        assert sov_q_factorization(t, off)[0] == pytest.approx(want, rel=1e-10)
