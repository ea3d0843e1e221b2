"""The scalar layer on a stack of eigenvalues equals its calls on one-row stacks."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import TWIST_FULL, rows
from sovchain import cli
from sovchain.baxter import (_determinant_eigenvalues, build_q_operator, default_zeta,
                             solve_q_polynomial, sov_q_factorization, tq_residual,
                             wronskian_values)
from sovchain.chain import random_chain
from sovchain.numerics import random_complex
from sovchain.spectrum import brute_force_spectrum, discrete_residuals, wavefunction_action_report

CHAINS = {
    "1^6": lambda: random_chain((1,) * 6, 1.0, TWIST_FULL, seed=7),
    "(2,2,2)": lambda: random_chain((2, 2, 2), 1.0, TWIST_FULL, seed=7),
    "b=0 n2_mixed_diagonal": lambda: cli.chain_from_config(cli.load_config("n2_mixed_diagonal")),
    "N=1 n1_spin_half": lambda: cli.chain_from_config(cli.load_config("n1_spin_half")),
}


@pytest.fixture(scope="module", params=sorted(CHAINS))
def spectrum(request):
    chain = CHAINS[request.param]()
    oracle = brute_force_spectrum(chain)
    return chain, oracle, oracle.t


def close(got, want, rtol=1e-12):
    """Equal up to roundoff, relative to the largest reference entry."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.max(np.abs(got - want), initial=0.0) <= rtol * max(
        1.0, np.max(np.abs(want), initial=0.0))


def test_stacked_ratios_residuals_and_wavefunction_match_rows(spectrum):
    chain, _, stack = spectrum
    ts = rows(stack)
    for n in range(chain.n_sites):
        assert close(stack.grid_ratios[n], np.concatenate([t.grid_ratios[n] for t in ts]))
    assert close(discrete_residuals(stack), np.concatenate([discrete_residuals(t) for t in ts]))
    assert close(stack.discrete_residual, np.concatenate([t.discrete_residual for t in ts]))
    assert close(wavefunction_action_report(stack), max(wavefunction_action_report(t) for t in ts))


def test_stacked_q_solve_and_baxter_identities_match_rows(spectrum):
    chain, _, stack = spectrum
    zeta_a, zeta_b = default_zeta(chain, salt=20), default_zeta(chain, salt=24)
    q, q_b = solve_q_polynomial(stack, zeta=zeta_a), solve_q_polynomial(stack, zeta=zeta_b)
    assert q.coeffs.shape == (len(stack), chain.n_s + 1) and q.zeta == zeta_a
    singles = [solve_q_polynomial(t, zeta=zeta_a) for t in rows(stack)]
    for d, want in enumerate(singles):
        assert np.array_equal(q.coeffs[d:d + 1], want.coeffs)
        assert np.array_equal(q.degree[d:d + 1], want.degree)
        # the left-out check is one matrix product over the stack, whose rounding
        # depends on the row count: equal at roundoff
        assert abs(q.leftout_residual[d] - want.leftout_residual[0]) <= 1e-12
        for key in ("matrix", "rhs", "det", "q_flat"):
            assert np.array_equal(getattr(q.closure, key)[d:d + 1], getattr(want.closure, key))
        assert np.array_equal(q.roots[d], want.roots[0])
        assert np.array_equal(q.root_gap[d:d + 1], want.root_gap)
        degree = want.degree[0]
        assert np.all(q.coeffs[d, degree + 1:] == 0)
        assert abs(want.coeffs[0, degree] - 1) < 1e-15
    lams = random_complex(np.random.default_rng(5), size=(len(stack), 6), box=3.0)
    assert close(tq_residual(stack, q, lams), np.concatenate(
        [tq_residual(t, qp, pts[None]) for t, qp, pts in zip(rows(stack), singles, lams)]))
    singles_b = [solve_q_polynomial(t, zeta=zeta_b) for t in rows(stack)]
    assert close(wronskian_values(q, q_b, chain, lams), np.concatenate(
        [wronskian_values(p1, p2, chain, pts[None])
         for p1, p2, pts in zip(singles, singles_b, lams)]))
    assert close(sov_q_factorization(stack, q), np.concatenate(
        [sov_q_factorization(t, qp) for t, qp in zip(rows(stack), singles)]))


def _determinant_row(system, lam):
    """One eigenvalue's Cramer-route value, evaluated on its own one-row closure system."""
    matrix, rhs, det = system.matrix[0], system.rhs[0], system.det[0]
    f, g = system.site_sums(system.bary.cardinals(lam), system.q_flat[0])
    if abs(g) > 1e-8:
        return np.linalg.det(matrix + np.outer(rhs / g, f)) / det * g
    return g + f @ np.linalg.solve(matrix, rhs)


def test_both_q_operator_methods_match_rows(spectrum):
    chain, oracle, stack = spectrum
    if abs(chain.twist.k1 - chain.twist.k2) < 1e-12:
        pytest.skip("the Q-operator needs distinct twist eigenvalues")
    # the solved eigenvalues of the Q-operator and their Cramer reading of the closure stack
    zeta = default_zeta(chain)
    qpoly = solve_q_polynomial(stack, zeta=zeta)
    qop = build_q_operator(oracle, qpoly)
    singles = [solve_q_polynomial(t, zeta=zeta) for t in rows(stack)]
    # a generic point, and a grid node, where the Cramer route takes its rank-one form
    for lam in (0.3 - 0.8j, chain.node(0, 1)):
        assert close(qop.eigenvalues(lam),
                     np.concatenate([qp(lam) / qp(zeta) for qp in singles]))
        assert close(_determinant_eigenvalues(qpoly.closure, lam),
                     [_determinant_row(qp.closure, lam) for qp in singles], rtol=1e-10)


def test_stacked_baxter_draw_gives_each_record_its_sequential_points():
    chain = random_chain((1, 2), 1.0, TWIST_FULL, seed=7)
    n, count = chain.n_sites, chain.dim
    rng = chain.rng(400)
    sequential = [([complex(random_complex(rng, box=3.0)) for _ in range(3 * n)],
                   random_complex(rng, size=4, box=3.0)) for _ in range(count)]
    draws = chain.rng(400).uniform(-3.0, 3.0, size=(count, 6 * n + 8))
    for row, (tq_points, wronskian_points) in zip(draws, sequential):
        assert np.array_equal(row[0:6 * n:2] + 1j * row[1:6 * n:2], tq_points)
        assert np.array_equal(row[6 * n:6 * n + 4] + 1j * row[6 * n + 4:], wronskian_points)

    # and suite_baxter reads them so: its rows equal per-eigenvalue calls at those points
    ts = rows(brute_force_spectrum(chain).t)
    qa = [solve_q_polynomial(t, zeta=default_zeta(chain, salt=20)) for t in ts]
    qb = [solve_q_polynomial(t, zeta=default_zeta(chain, salt=24)) for t in ts]
    worst_tq = max(tq_residual(t, qp, [pts])[0] for t, qp, (pts, _) in zip(ts, qa, sequential))
    worst_w = max(wronskian_values(p1, p2, chain, [pts])[0]
                  for p1, p2, (_, pts) in zip(qa, qb, sequential))
    checks = {c["name"]: c["value"] for c in cli.run("baxter", chain)["checks"]}
    assert checks["baxter.tq_equation"] == pytest.approx(worst_tq, rel=1e-9, abs=1e-16)
    assert checks["baxter.uniqueness_wronskian"] == pytest.approx(worst_w, rel=1e-9, abs=1e-16)


def _first_two_bad(values):
    """A floor between the second and third smallest values: exactly two rows fall under it."""
    order = np.argsort(values)
    return order[:2], 0.5 * (values[order[1]] + values[order[2]])


def test_batched_solve_reports_each_record_root_gap():
    # the stack's root_gap is each record's own: the distance of its nearest
    # root to a bottom node, as the record's one-row solve gives it
    chain = random_chain((1,) * 4, 1.0, TWIST_FULL, seed=7)
    stack = brute_force_spectrum(chain).t
    zeta = default_zeta(chain)
    qpoly = solve_q_polynomial(stack, zeta=zeta)
    bottoms = np.array([chain.node(n, site.two_s) for n, site in enumerate(chain.sites)])
    gaps = np.array([np.min(np.abs(roots[:, None] - bottoms), initial=np.inf)
                     for roots in qpoly.roots])
    assert np.array_equal(qpoly.root_gap, gaps)
    bad, floor = _first_two_bad(gaps)
    assert np.flatnonzero(qpoly.root_gap < floor).tolist() == sorted(bad)
    first = qpoly.roots[min(bad)]
    culprit = first[np.argmin(np.min(np.abs(first[:, None] - bottoms), axis=1))]
    assert qpoly.root_gap[min(bad)] == np.min(np.abs(culprit - bottoms))
    alone = solve_q_polynomial(rows(stack)[min(bad)], zeta=zeta)
    assert alone.root_gap[0] == pytest.approx(qpoly.root_gap[min(bad)], rel=1e-8)


def test_run_all_leaves_every_module_namespace_unchanged():
    # in a fresh interpreter, so that no earlier test has already touched a namespace
    script = """
import sys
from sovchain import cli
chain = cli.chain_from_config(cli.load_config("n2_mixed"))
snapshot = lambda: {name: dict(vars(module)) for name, module in sys.modules.items()
                    if name == "sovchain" or name.startswith("sovchain.")}
before = snapshot()
cli.run("all", chain)
after = snapshot()
assert before.keys() == after.keys(), sorted(set(before) ^ set(after))
for name in before:
    changed = {k for k in before[name].keys() | after[name].keys()
               if before[name].get(k, None) is not after[name].get(k, None)}
    assert not changed, (name, sorted(changed))
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
