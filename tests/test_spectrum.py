import dataclasses

import numpy as np
import pytest

from conftest import SUITE_ROWS, TWIST_FULL, rows
from sovchain import cli
from sovchain.chain import ChainSpec, Tolerances, make_chain, random_chain
from sovchain.cli import chain_from_config, load_config, run
from sovchain.errors import NearDegenerateSpectrum, ResidualTooLarge
from sovchain.numerics import frob, greedy_match, lagrange_cardinal, random_complex
from sovchain.spectrum import (TransferPolynomial, _dedup, _DiscreteSystem, _fused_tower,
                               _site_product, _sov2_array, _tridiagonal_minors,
                               brute_force_spectrum, closed_form_solutions, discrete_residuals,
                               eigenvector_from_sov, jacobian_smallest_sv, match_to_oracle,
                               solve_discrete_system, wavefunction_action_report)
from sovchain.sov_bases import sov_basis_1, sov_basis_2
from sovchain.transfer import TransferEvaluator, transfer


def test_hand_case_oracle(chain1):
    oracle = brute_force_spectrum(chain1)
    assert len(oracle.t) == 2 and oracle.vectors.shape == oracle.left.shape == (2, 2)
    # eigenvalues 3 lam + 2 and 3 lam + 1; node values t(0) are 2 and 1
    xs = sorted(oracle.t.x[:, 0].real)
    assert np.allclose(xs, [1.0, 2.0], atol=1e-12)
    for t in rows(oracle.t):
        lam = 0.77 - 0.31j
        want = 3 * lam + t.x[0]
        assert abs(t(lam) - want) < 1e-12


def test_oracle_stacks_are_c_contiguous(chain12):
    # the layout the report rows were computed on: a row or column sum over a
    # Fortran-ordered stack rounds differently
    oracle = brute_force_spectrum(chain12)
    assert oracle.t.x.flags["C_CONTIGUOUS"] and oracle.vectors.flags["C_CONTIGUOUS"]
    assert oracle.left.flags["C_CONTIGUOUS"]
    assert oracle.value_at_lam0.shape == (chain12.dim,)
    assert np.allclose(oracle.left @ oracle.vectors, np.eye(chain12.dim), atol=1e-10)


def test_transfer_polynomial_takes_only_a_stack(chain12):
    stack = brute_force_spectrum(chain12).t
    assert len(stack) == chain12.dim
    assert len(TransferPolynomial(chain12, stack.x[:1])) == 1
    # one node-value vector, a stack of stacks, or the wrong node count: refused
    for x in (stack.x[0], stack.x[None], stack.x[:, :1]):
        with pytest.raises(ValueError, match=r"\(D, 2\) stack of node values"):
            TransferPolynomial(chain12, x)


@pytest.mark.parametrize("name", ["n1_spin_half", "n2_mixed", "n2_mixed_diagonal", "n2_spin22",
                                  "n3_mixed"])
def test_oracle_node_values_equal_the_per_record_products_bitwise(name):
    # the oracle reads the kernel-built T at each node, never an evaluator's interpolant;
    # it reads them per sector block in the twist's eigenframe, so they equal the
    # per-row products left . T(node) . right to 1e-13 relative, not bit for bit
    chain = chain_from_config(load_config(name))
    oracle = brute_force_spectrum(chain)
    for i, x in enumerate(oracle.t.x):
        vector = np.ascontiguousarray(oracle.vectors[:, i])
        want = np.array([oracle.left[i] @ transfer(chain, chain.node(a, 0)) @ vector
                         for a in range(chain.n_sites)])
        assert np.max(np.abs(x - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def _dense_oracle(chain):
    """Reference: one dense eig of the kernel-built T at the oracle's probe point, the node
    values read per eigenpair as left . T(node) . right."""
    lam0 = complex(random_complex(chain.rng(10), box=2.0)) + 0.25j
    vals, vecs = np.linalg.eig(transfer(chain, lam0))
    left = np.linalg.inv(vecs)
    nodes = [transfer(chain, chain.node(a, 0)) for a in range(chain.n_sites)]
    return vals, np.array([[left[i] @ t @ vecs[:, i] for t in nodes] for i in range(len(vals))])


REFERENCE_CHAINS = ["n1_spin_half", "n2_mixed", "n2_mixed_diagonal", "n2_spin22", "n3_mixed",
                    (1,) * 6, (3, 3), (2, 2, 2, 2)]


def _reference_chain(spec):
    if isinstance(spec, str):
        return chain_from_config(load_config(spec))
    return random_chain(spec, 1.0, TWIST_FULL, seed=7)


@pytest.mark.parametrize("spec", REFERENCE_CHAINS, ids=str)
def test_sector_oracle_matches_the_dense_eig(spec):
    chain = _reference_chain(spec)
    oracle = brute_force_spectrum(chain)
    vals, xs = _dense_oracle(chain)
    _, gaps, _ = greedy_match(oracle.value_at_lam0, vals)
    assert np.max(gaps) <= 1e-12 * np.max(np.abs(vals))
    _, gaps, _ = greedy_match(oracle.t.x, xs)
    assert np.max(gaps) <= 1e-12 * np.max(np.abs(xs))
    assert np.allclose(oracle.vectors @ oracle.left, np.eye(chain.dim), atol=1e-12)
    assert oracle.off_sector < 1e-14


def _skewed_frame(monkeypatch, chain, i, j):
    """Scale entry (i, j) of the twist eigenframe W the oracle reads by 1 + 1e-9."""
    eig = np.linalg.eig

    def skewed(a):
        vals, vecs = eig(a)
        if a is chain.twist.matrix:
            vecs = vecs.copy()
            vecs[i, j] *= 1 + 1e-9
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eig", skewed)


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("spec", ["n2_mixed", (1,) * 6], ids=str)
def test_frame_mutation_trips_the_off_sector_guard(monkeypatch, spec, entry):
    chain = _reference_chain(spec)
    _skewed_frame(monkeypatch, chain, *entry)
    with pytest.raises(ResidualTooLarge, match="off-sector"):
        brute_force_spectrum(chain)
    errors = [c for c in run("spectrum", chain)["checks"] if not c["passed"]]
    assert [c["name"] for c in errors] == ["suite_spectrum.error"]


def test_jordan_twist_raises_near_degenerate_before_any_eig(monkeypatch):
    chain = make_chain(1.0, [(1, 0.3 - 1.2j), (2, 2.9 + 0.8j)], [[1.0, 1.0], [0.0, 1.0]])
    monkeypatch.setattr(np.linalg, "eig", lambda a: pytest.fail("eig called"))
    with pytest.raises(NearDegenerateSpectrum, match="Jordan"):
        brute_force_spectrum(chain)


def test_oracle_x_tuples_distinct(chain12):
    xs = brute_force_spectrum(chain12).t.x
    assert len(xs) == chain12.dim
    for i in range(len(xs)):
        for j in range(i):
            assert np.max(np.abs(xs[i] - xs[j])) > 1e-6


def _discrete_matrix(t, n):
    """Reference route: site n's dense tridiagonal matrix, entry by entry.

    Diagonal t(xi_n^(k)), superdiagonal -k1 a(xi_n^(k)), subdiagonal
    -k2 d(xi_n^(k)); it is singular exactly when t is on-shell at site n.
    """
    chain = t.chain
    m = chain.sites[n].two_s + 1
    out = np.zeros((m, m), dtype=complex)
    for k in range(m):
        node = chain.node(n, k)
        out[k, k] = t(node)[0]
        if k + 1 < m:
            out[k, k + 1] = -chain.twist.k1 * chain.a(node)
        if k > 0:
            out[k, k - 1] = -chain.twist.k2 * chain.d(node)
    return out


def test_hand_case_discrete_determinant(chain1):
    # det = t(0) t(-1) + k1 k2 vanishes exactly on both eigenvalues
    for x in (1.0, 2.0):
        t = TransferPolynomial(chain1, np.array([[x]]))
        mat = _discrete_matrix(t, 0)
        assert mat.shape == (2, 2)
        assert abs(mat[0, 1] - (-2.0)) < 1e-14  # -k1 a(0) = -2
        assert abs(mat[1, 0] - 1.0) < 1e-14     # -k2 d(-1) = 1
        assert abs(np.linalg.det(mat)) < 1e-12
        assert np.max(np.abs(discrete_residuals(t))) < 1e-12


def test_oracle_satisfies_discrete_system(chain12, chain112):
    for chain in (chain12, chain112):
        assert np.max(np.abs(discrete_residuals(brute_force_spectrum(chain).t))) < 1e-8


def test_perturbed_candidate_fails(chain12):
    x = brute_force_spectrum(chain12).t.x[:1].copy()
    x[0, 0] += 1e-3
    residuals = np.abs(discrete_residuals(TransferPolynomial(chain12, x)))
    assert residuals.max() > 1e-6


def test_newton_refines_perturbed_seeds(chain12):
    oracle = brute_force_spectrum(chain12)
    rng = np.random.default_rng(55)
    seeds = [x + 0.01 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
             for x in oracle.t.x]
    solutions, diag = solve_discrete_system(TransferPolynomial(chain12, seeds))
    assert len(solutions) == chain12.dim
    assert diag["newton_iterations"] > 0
    _, dists, bijection = match_to_oracle(solutions, oracle)
    assert bijection
    assert max(dists) < 1e-8


def test_hand_case_solve(chain1):
    solutions, _ = solve_discrete_system(brute_force_spectrum(chain1).t)
    assert len(solutions) == 2
    xs = sorted(solutions.x[:, 0].real)
    assert np.allclose(xs, [1.0, 2.0], atol=1e-10)


def test_completeness_default_seeds(chain12, chain112):
    for chain in (chain12, chain112):
        oracle = brute_force_spectrum(chain)
        solutions, _ = solve_discrete_system(oracle.t)
        assert len(solutions) == chain.dim and solutions.chain is chain
        _, dists, bijection = match_to_oracle(solutions, oracle)
        assert bijection and max(dists) < 1e-8


def test_duplicate_seeds_give_a_short_stack(chain12, monkeypatch):
    # D copies of one seed collapse to one solution; the solver returns it and
    # refuses nothing: the spectrum suite still reaches every row, and the
    # count and bijection rows are the ones that fail
    oracle = brute_force_spectrum(chain12)
    copies = TransferPolynomial(chain12, oracle.t.x[[0] * chain12.dim])
    solutions, diag = solve_discrete_system(copies)
    assert len(solutions) == 1 and diag["duplicates_collapsed"] == chain12.dim - 1
    assert np.max(np.abs(solutions.x[0] - oracle.t.x[0])) < 1e-8 * (1 + np.max(np.abs(oracle.t.x)))

    solve = cli.solve_discrete_system
    monkeypatch.setattr(cli, "solve_discrete_system", lambda seeds: solve(
        TransferPolynomial(seeds.chain, seeds.x[[0] * len(seeds)])))
    checks = {c["name"]: c for c in run("spectrum", chain12)["checks"]}
    assert list(checks) == ["model.genericity", *SUITE_ROWS["spectrum"]]
    assert checks["spectrum.count_mismatch"]["value"] == chain12.dim - 1
    failed = [name for name, c in checks.items() if not c["passed"]]
    assert failed == ["spectrum.count_mismatch", "spectrum.oracle_bijection",
                      "spectrum.oracle_match_distance"]


def test_jacobian_regular_at_solutions(chain12):
    solutions, _ = solve_discrete_system(brute_force_spectrum(chain12).t)
    assert jacobian_smallest_sv(solutions) > 1e-8
    assert jacobian_smallest_sv(solutions) == min(jacobian_smallest_sv(sol)
                                                  for sol in rows(solutions))


@pytest.mark.parametrize("spins", [None, (1,) * 6], ids=["chain12", "1^6"])
def test_batched_discrete_system_rows_equal_single_rows(chain12, spins):
    chain = chain12 if spins is None else random_chain(spins, 1.0, TWIST_FULL, seed=7)
    system = _DiscreteSystem(chain)
    xs = brute_force_spectrum(chain).t.x
    res, scales = system.residual(xs)
    jac = system.jacobian(xs)
    for i, x in enumerate(xs):
        one_res, one_scales = system.residual(x)
        assert np.array_equal(res[i], one_res) and np.array_equal(scales[i], one_scales)
        assert np.array_equal(jac[i], system.jacobian(x))


@pytest.mark.parametrize("m", range(1, 7))
def test_tridiagonal_minors_match_dense_determinants(m):
    rng = np.random.default_rng(100 + m)
    diag, sup, sub = (random_complex(rng, size=k, box=2.0) for k in (m, m - 1, m - 1))
    mat = np.diag(diag) + np.diag(sup, 1) + np.diag(sub, -1)
    f = _tridiagonal_minors(diag, sup * sub)
    want = [1.0] + [np.linalg.det(mat[:k, :k]) for k in range(1, m + 1)]
    assert len(f) == m + 1
    for got, ref in zip(f, want):
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("spins", [(1, 2, 3), (2, 2, 2, 2), (3, 1)])
def test_jacobian_matches_central_differences(spins):
    chain = random_chain(spins, 1.0, TWIST_FULL, seed=7)
    system = _DiscreteSystem(chain)
    for x in brute_force_spectrum(chain).t.x[:: max(1, chain.dim // 4)]:
        jac = system.jacobian(x)
        fd = np.zeros_like(jac)
        for j in range(chain.n_sites):
            step = np.zeros(chain.n_sites, dtype=complex)
            step[j] = 1e-5 * (1.0 + abs(x[j]))
            diff = system.residual(x + step)[0] - system.residual(x - step)[0]
            fd[:, j] = diff / (2 * step[j])
        assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(jac))


def test_degenerate_twist_closed_form(chain12_k2zero):
    solutions = closed_form_solutions(chain12_k2zero)
    assert len(solutions) == chain12_k2zero.dim
    lam0 = 0.83 + 0.4j
    ev = TransferEvaluator(chain12_k2zero)
    got = np.sort_complex(np.linalg.eigvals(ev.transfer(lam0)))
    want = np.sort_complex(solutions(lam0))
    assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))
    for _ in range(2):   # no grid ratios at k2 = 0, on every access
        with pytest.raises(ValueError, match="k2"):
            solutions.grid_ratios


def _bottom_tower(t, n):
    """Fused values t^(0..2s_n+1) at site n's bottom node, by the scalar recursion."""
    site = t.chain.sites[n]
    return _fused_tower(t, t.chain.node(n, site.two_s), site.two_s + 1)


def test_fused_values_low_levels(chain12):
    t = rows(brute_force_spectrum(chain12).t)[0]
    for n, site in enumerate(chain12.sites):
        fused = _bottom_tower(t, n)
        assert fused[0] == 1.0
        assert abs(fused[1] - t(chain12.node(n, site.two_s))) < 1e-12


def test_fused_values_equal_trailing_minors(chain12):
    # recursion values against dense determinants of the trailing blocks
    for t in rows(brute_force_spectrum(chain12).t):
        for n, site in enumerate(chain12.sites):
            fused = _bottom_tower(t, n)
            mat = _discrete_matrix(t, n)
            for level in range(site.two_s + 2):
                minor = np.linalg.det(mat[site.dim - level:, site.dim - level:]) if level else 1.0
                assert abs(fused[level] - minor) / max(1.0, abs(minor)) < 1e-10


def test_minor_identity_single_site_spin1():
    # N = 1, two_s = 2: the 2x2 leading minor equals the level-2 fused value
    from sovchain.chain import make_chain

    chain = make_chain(1.0, [(2, 0.2 - 0.4j)], TWIST_FULL, seed=9)
    for t in rows(brute_force_spectrum(chain).t):
        got = _fused_tower(t, chain.node(0, 1), 2)[2]
        want = np.linalg.det(_discrete_matrix(t, 0)[:-1, :-1])
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_on_shell_top_fused_value_vanishes(chain12):
    for t in rows(brute_force_spectrum(chain12).t):
        for n, site in enumerate(chain12.sites):
            fused = _bottom_tower(t, n)
            assert abs(fused[-1]) / max(1.0, np.max(np.abs(fused[:-1]))) < 1e-10


def test_wavefunction_normalization_and_hand_value(chain1):
    by_x = {round(t.x[0, 0].real): t for t in rows(brute_force_spectrum(chain1).t)}
    psi = _sov2_array(by_x[1])[..., 0]  # t = 3 lam + 1
    assert psi[(1,)] == 1.0
    assert abs(psi[(0,)] - 2.0) < 1e-12


def test_wavefunction_sov2_separate_action(chain12, chain112):
    for chain in (chain12, chain112):
        for t in rows(brute_force_spectrum(chain).t):
            assert wavefunction_action_report(t) < 1e-8


def test_grid_ratios_match_eigenvector_coordinates(chain12, chain112):
    # psi(h) = prod_n ratios[n][h_n] against <h|v> / <top|v>, with the rows of
    # the second basis (operator fusion) and v the dense-eig oracle vector
    for chain in (chain12, chain112):
        ev = TransferEvaluator(chain)
        basis = sov_basis_2(chain, evaluator=ev)
        top = tuple(site.two_s for site in chain.sites)
        oracle = brute_force_spectrum(chain)
        for t, vector in zip(rows(oracle.t), oracle.vectors.T):
            want = basis.rows @ vector / (basis.row(top) @ vector)
            got = _site_product(t.grid_ratios).ravel()
            assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_eigenvector_reconstruction(chain12, ev12):
    basis = sov_basis_2(chain12, evaluator=ev12)
    oracle = brute_force_spectrum(chain12)
    vectors, residuals = eigenvector_from_sov(oracle.t, basis, evaluator=ev12)
    assert vectors.shape == (chain12.dim, chain12.dim) and residuals.shape == (chain12.dim,)
    assert np.max(residuals) < 1e-7
    top = tuple(site.two_s for site in chain12.sites)
    for want, v in zip(oracle.vectors.T, vectors.T):
        cosine = abs(np.vdot(want, v)) / (np.linalg.norm(want) * np.linalg.norm(v))
        assert cosine > 1 - 1e-8
        # normalization from the top row: <S|v> = 1
        assert abs(basis.row(top) @ v - 1.0) < 1e-9


def _eigenvector_per_record(t, basis, evaluator):
    """Reference route: one solve and one residual per eigenvalue t.

    Residual: the worst of ||T(mu) v - t(mu) v|| / max(1, ||T(mu) v||, |t(mu)| ||v||)
    over the same 3 seeded points mu as ``eigenvector_from_sov``.
    """
    v = np.linalg.solve(basis.rows, _sov2_array(t).ravel())
    rng = t.chain.rng(17)
    worst = 0.0
    for _ in range(3):
        mu = complex(random_complex(rng, box=2.0))
        lhs = evaluator.transfer(mu) @ v
        worst = max(worst, frob(lhs - t(mu) * v) / max(1.0, frob(lhs), abs(t(mu)) * frob(v)))
    return v, worst


def test_eigenvectors_match_per_record_solves(chain12, chain112, chain123):
    for chain in (chain12, chain112, chain123):
        ev = TransferEvaluator(chain)
        basis = sov_basis_2(chain, evaluator=ev)
        stack = brute_force_spectrum(chain).t
        vectors, residuals = eigenvector_from_sov(stack, basis, evaluator=ev)
        for j, t in enumerate(rows(stack)):
            v, residual = _eigenvector_per_record(t, basis, ev)
            assert np.max(np.abs(vectors[:, j] - v)) <= 1e-13 * np.max(np.abs(v))
            assert abs(residuals[j] - residual) <= 1e-13


def _wavefunction_sov1(t):
    """First-basis wavefunction, indexed by h: prod_n of site n's next-to-bottom
    fused value t^(2s_n)(xi_n^(2s_n - 1)) raised to h_n."""
    chain = t.chain
    return _site_product([_fused_tower(t, chain.node(n, site.two_s - 1), site.two_s)[-1]
                          ** np.arange(site.dim) for n, site in enumerate(chain.sites)])


def test_eigenvector_via_first_basis(chain12, ev12):
    # the first-basis wavefunction characterizes the same eigenvectors
    basis = sov_basis_1(chain12, evaluator=ev12)
    for t in rows(brute_force_spectrum(chain12).t)[:3]:
        v = np.linalg.solve(basis.rows, _wavefunction_sov1(t).ravel())
        mu = 0.61 - 0.29j
        lhs = ev12.transfer(mu) @ v
        assert frob(lhs - t(mu) * v) / max(1.0, frob(lhs)) < 1e-7


def test_closed_form_solutions_leading(chain12_k2zero):
    # leading coefficient is tr K for every closed-form solution
    for t in rows(closed_form_solutions(chain12_k2zero))[:4]:
        lam = 1e7 + 1e6j
        lead = t(lam) / np.prod([lam - chain12_k2zero.node(a, 0)
                                 for a in range(chain12_k2zero.n_sites)])
        assert abs(lead - chain12_k2zero.twist.trace) < 1e-6


def _lagrange_terms(lead, nodes, values, lam):
    """Terms of lead prod_a (lam - z_a) + sum_a values[a] l_a(lam), cardinal by cardinal."""
    return [lead * np.prod([lam - z for z in nodes])] + [
        lagrange_cardinal(nodes, a, lam) * v for a, v in enumerate(values)]


def test_transfer_polynomial_matches_lagrange_sum(chain112):
    # every reader of the one interpolant against the independent Lagrange sum: the stack,
    # the discrete system's diagonal at each site's nodes and T from the evaluator's samples
    rng = np.random.default_rng(23)
    t = TransferPolynomial(chain112, random_complex(rng, size=(1, chain112.n_sites)))
    trace, nodes0 = chain112.twist.trace, [chain112.node(a, 0) for a in range(chain112.n_sites)]
    lams = random_complex(rng, size=20, box=4.0)
    for lam in lams:
        terms = _lagrange_terms(trace, nodes0, t.x[0], lam)
        assert abs(t(lam)[0] - sum(terms)) <= 1e-14 * sum(abs(z) for z in terms)
    for a in range(chain112.n_sites):
        assert t(chain112.node(a, 0))[0] == t.x[0, a]
    for (nodes, _, _), (diag, _, _) in zip(chain112.grid, _DiscreteSystem(chain112)._diags(t.x)):
        for z, got in zip(nodes, diag[:, 0]):
            terms = _lagrange_terms(trace, nodes0, t.x[0], z)
            assert abs(got - sum(terms)) <= 1e-14 * sum(abs(w) for w in terms)
        assert diag[0, 0] == t.x[0, list(nodes0).index(nodes[0])]
    ev = TransferEvaluator(chain112)
    eye = np.eye(chain112.dim)
    for lam, got in zip(lams, ev._at(lams)):
        terms = _lagrange_terms(trace * eye, ev._interp.nodes, ev.samples, lam)
        assert frob(got - sum(terms)) <= 1e-14 * sum(frob(w) for w in terms)


def _action_report_loop(t):
    """Reference route: the eigen-relation checked entry by entry over h and n."""
    chain = t.chain
    twist = chain.twist
    psi = _sov2_array(t)

    def get(h):
        inside = all(0 <= hn < d for hn, d in zip(h, chain.dims))
        return psi[tuple(h)] if inside else 0.0

    worst = 0.0
    for h in np.ndindex(chain.dims):
        for n in range(chain.n_sites):
            node = chain.node(n, h[n])
            up = list(h)
            up[n] += 1
            down = list(h)
            down[n] -= 1
            lhs = twist.k1 * chain.a(node) * get(up) + twist.k2 * chain.d(node) * get(down)
            rhs = t(node) * psi[h]
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return worst


def test_action_report_matches_entrywise_loop():
    chain = chain_from_config(load_config("n3_mixed"))
    for t in rows(brute_force_spectrum(chain).t):
        assert wavefunction_action_report(t) < 1e-10
        assert _action_report_loop(t) < 1e-10
        off = TransferPolynomial(chain, t.x * (1 + 1e-3))
        want = _action_report_loop(off)
        assert want > 1e-6
        assert abs(wavefunction_action_report(off) - want) <= 1e-12 * want


def test_near_degenerate_spectrum_raises(chain12, monkeypatch):
    monkeypatch.setattr(ChainSpec, "tolerances", Tolerances(zero=10.0))
    with pytest.raises(NearDegenerateSpectrum):
        brute_force_spectrum(chain12)


def test_eigenvector_residual_reports_a_perturbed_basis(chain12, ev12):
    # the residuals come back per column, over the 1e-7 gate of the
    # spectrum.eigenvector_residual row when one basis row is off by 1e-4
    basis = sov_basis_2(chain12, evaluator=ev12)
    ts = brute_force_spectrum(chain12).t
    _, residuals = eigenvector_from_sov(ts, basis, evaluator=ev12)
    assert residuals.shape == (chain12.dim,) and np.max(residuals) < 1e-10
    rows = basis.rows.copy()
    rows[1] *= 1 + 1e-4
    _, residuals = eigenvector_from_sov(ts, dataclasses.replace(basis, rows=rows), evaluator=ev12)
    assert residuals.shape == (chain12.dim,) and np.max(residuals) > 1e-7


def _dedup_loop(xs, tol_rel=1e-6):
    """Reference route: each x against every kept y, one pair at a time."""
    tol = tol_rel * max((float(np.max(np.abs(x))) for x in xs), default=0.0)
    kept = []
    for x in xs:
        if all(np.max(np.abs(x - y)) > tol for y in kept):
            kept.append(x)
    return kept


def test_dedup_matches_pairwise_loop():
    rng = np.random.default_rng(31)
    base = random_complex(rng, size=(40, 4), box=3.0)
    # near-duplicates planted just inside and just outside the 1e-6 relative gap
    scale = np.max(np.abs(base))
    inside = base[:10] + 0.4e-6 * scale
    outside = base[10:20] + 3e-6 * scale
    xs = list(rng.permutation(np.vstack([base, inside, outside, base[:5]])))
    got, want = _dedup(xs), _dedup_loop(xs)
    assert len(got) == 50
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert len(_dedup([])) == 0
    assert len(_dedup(np.zeros((3, 4)))) == 1   # exact duplicates collapse at any scale


def test_small_scale_chain_keeps_every_solution():
    # xi and eta scaled by 1e-2 shrink every x: a gap relative to 1 + max|x| merged
    # all 64 solutions into one; relative to the stack's largest |x| it keeps them
    chain = random_chain([1] * 6, 1.0, TWIST_FULL, seed=7)
    small = make_chain(1e-2 * chain.eta, [(s.two_s, 1e-2 * s.xi) for s in chain.sites],
                       TWIST_FULL, seed=7)
    for ch in (chain, small):
        oracle = brute_force_spectrum(ch)
        solutions, diag = solve_discrete_system(oracle.t)
        assert len(solutions) == ch.dim and diag["duplicates_collapsed"] == 0
        assert match_to_oracle(solutions, oracle)[2]


def test_jacobian_regularity_ignores_site_scale(chain112, monkeypatch):
    solutions, _ = solve_discrete_system(brute_force_spectrum(chain112).t)
    before = [jacobian_smallest_sv(sol) for sol in rows(solutions)]
    residual, jacobian = _DiscreteSystem.residual, _DiscreteSystem.jacobian
    # one site's determinant on a scale 1e7 larger, as for a wide-spread chain
    row_scale = np.array([1e7, 1.0, 1.0])
    monkeypatch.setattr(_DiscreteSystem, "residual",
                        lambda self, x: tuple(v * row_scale for v in residual(self, x)))
    monkeypatch.setattr(_DiscreteSystem, "jacobian",
                        lambda self, x: jacobian(self, x) * row_scale[:, None])
    after = [jacobian_smallest_sv(sol) for sol in rows(solutions)]
    assert after == pytest.approx(before, rel=1e-10)


def test_jacobian_regularity_fires_on_singular_jacobian(chain112, monkeypatch):
    solutions, _ = solve_discrete_system(brute_force_spectrum(chain112).t)
    jacobian = _DiscreteSystem.jacobian

    def dependent_rows(self, x):
        jac = jacobian(self, x)
        jac[..., 1, :] = 2.5 * jac[..., 0, :]
        return jac

    monkeypatch.setattr(_DiscreteSystem, "jacobian", dependent_rows)
    assert jacobian_smallest_sv(solutions) < 1e-8


def test_jacobian_regularity_builds_one_system(chain112, monkeypatch):
    # one system per run: the oracle's discrete residual, Newton and the Jacobian row share it
    built = []
    init = _DiscreteSystem.__init__

    def counting_init(self, chain):
        built.append(chain)
        init(self, chain)

    monkeypatch.setattr(_DiscreteSystem, "__init__", counting_init)
    report = run("all", chain112)
    assert len(built) == 1
    assert {c["name"] for c in report["checks"]} >= {"spectrum.oracle_discrete_residual",
                                                    "spectrum.jacobian_regularity"}
    solutions, _ = solve_discrete_system(brute_force_spectrum(chain112).t)
    assert len(built) == 2
    jacobian_smallest_sv(solutions)
    assert len(built) == 2


def test_match_to_oracle_flags_a_shared_nearest_solution(chain12):
    oracle = brute_force_spectrum(chain12)
    count = len(oracle.t)
    indices, dists, bijection = match_to_oracle(oracle.t, oracle)
    assert bijection and indices == list(range(count)) and max(dists) == 0.0
    # every oracle row is nearest to the first copy; the exclusion pairs the others
    shared = TransferPolynomial(chain12, np.repeat(oracle.t.x[:1], count, axis=0))
    indices, _, bijection = match_to_oracle(shared, oracle)
    assert not bijection and indices == list(range(count))
