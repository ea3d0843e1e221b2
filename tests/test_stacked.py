"""The scalar layer on a stack of eigenvalues equals its one-row calls."""

import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from conftest import TWIST_FULL
from sovchain import cli
from sovchain.baxter import (_require_regular_closure, build_q_operator, default_zeta,
                             q_coefficients, solve_q_polynomial, sov_q_factorization,
                             tq_residual, wronskian_values)
from sovchain.chain import random_chain
from sovchain.errors import RootOnForbiddenNode, SingularCZeta
from sovchain.numerics import poly_eval, random_complex
from sovchain.spectrum import (TransferPolynomial, brute_force_spectrum, discrete_residuals,
                               wavefunction_action_report)

CHAINS = {
    "1^6": lambda: random_chain((1,) * 6, 1.0, TWIST_FULL, seed=7),
    "(2,2,2)": lambda: random_chain((2, 2, 2), 1.0, TWIST_FULL, seed=7),
    "b=0 n2_mixed_diagonal": lambda: cli.chain_from_config(cli.load_config("n2_mixed_diagonal")),
    "N=1 n1_spin_half": lambda: cli.chain_from_config(cli.load_config("n1_spin_half")),
}


@pytest.fixture(scope="module", params=sorted(CHAINS))
def spectrum(request):
    chain = CHAINS[request.param]()
    records = brute_force_spectrum(chain)
    return chain, records, TransferPolynomial(chain, [rec.t.x for rec in records])


def close(got, want, rtol=1e-12):
    """Equal up to roundoff, relative to the largest reference entry."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.max(np.abs(got - want), initial=0.0) <= rtol * max(
        1.0, np.max(np.abs(want), initial=0.0))


def test_stacked_ratios_residuals_and_wavefunction_match_rows(spectrum):
    chain, records, stack = spectrum
    ts = [rec.t for rec in records]
    for n in range(chain.n_sites):
        assert close(stack.checked_grid_ratios[n], [t.checked_grid_ratios[n] for t in ts])
    assert close(discrete_residuals(stack), [discrete_residuals(t) for t in ts])
    assert close(stack.discrete_residual, [t.discrete_residual for t in ts])
    assert close(wavefunction_action_report(stack), max(wavefunction_action_report(t) for t in ts))


def test_stacked_q_solve_and_baxter_identities_match_rows(spectrum):
    chain, records, stack = spectrum
    zeta_a, zeta_b = default_zeta(chain, salt=20), default_zeta(chain, salt=24)
    qa, qb = solve_q_polynomial(stack, zeta=zeta_a), solve_q_polynomial(stack, zeta=zeta_b)
    for rec, got in zip(records, qa):
        want = solve_q_polynomial(rec.t, zeta=zeta_a)
        assert got.degree == want.degree and close(got.coeffs, want.coeffs)
        # the left-out check is one matrix product over the stack: equal at roundoff
        assert abs(got.leftout_residual - want.leftout_residual) <= 1e-12
        assert close(got.closure.matrix, want.closure.matrix) and got.zeta == zeta_a
        assert close(got.roots(), np.roots(want.coeffs[::-1]))
    q, q_b = (partial(poly_eval, q_coefficients(qs)) for qs in (qa, qb))
    lams = random_complex(np.random.default_rng(5), size=(len(records), 6), box=3.0)
    assert close(tq_residual(stack, q, lams),
                 [tq_residual(rec.t, qp, pts) for rec, qp, pts in zip(records, qa, lams)])
    assert close(wronskian_values(q, q_b, chain, lams),
                 [wronskian_values(p1, p2, chain, pts) for p1, p2, pts in zip(qa, qb, lams)])
    assert close(sov_q_factorization(stack, q),
                 [sov_q_factorization(rec.t, qp) for rec, qp in zip(records, qa)])


def _determinant_row(system, lam):
    """One record's determinant-route eigenvalue, evaluated on its own closure system."""
    f, g = system.interp.site_sums(lam, system.q_flat)
    if abs(g) > 1e-8:
        return np.linalg.det(system.matrix + np.outer(system.rhs / g, f)) / system.det * g
    return g + f @ np.linalg.solve(system.matrix, system.rhs)


def test_both_q_operator_methods_match_rows(spectrum):
    chain, records, stack = spectrum
    if abs(chain.twist.k1 - chain.twist.k2) < 1e-12:
        pytest.skip("the Q-operator needs distinct twist eigenvalues")
    zeta = default_zeta(chain)
    qpolys = solve_q_polynomial(stack, zeta=zeta)
    eigenbasis = build_q_operator(records, qpolys)
    determinant = build_q_operator(records, qpolys, method="determinant")
    # a generic point, and a grid node, where the determinant route takes its rank-one form
    for lam in (0.3 - 0.8j, chain.node(0, 1)):
        assert close(eigenbasis.eigenvalues(lam), [qp(lam) / qp(zeta) for qp in qpolys])
        assert close(determinant.eigenvalues(lam),
                     [_determinant_row(qp.closure, lam) for qp in qpolys], rtol=1e-10)


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

    # and suite_baxter reads them so: its rows equal per-record calls at those points
    records = brute_force_spectrum(chain)
    qa = [solve_q_polynomial(rec.t, zeta=default_zeta(chain, salt=20)) for rec in records]
    qb = [solve_q_polynomial(rec.t, zeta=default_zeta(chain, salt=24)) for rec in records]
    worst_tq = max(tq_residual(rec.t, qp, pts)
                   for rec, qp, (pts, _) in zip(records, qa, sequential))
    worst_w = max(wronskian_values(p1, p2, chain, pts)
                  for p1, p2, (_, pts) in zip(qa, qb, sequential))
    rows = {c["name"]: c["value"] for c in cli.run("baxter", chain)["checks"]}
    assert rows["baxter.tq_equation"] == pytest.approx(worst_tq, rel=1e-9, abs=1e-16)
    assert rows["baxter.uniqueness_wronskian"] == pytest.approx(worst_w, rel=1e-9, abs=1e-16)


def _first_two_bad(values):
    """A floor between the second and third smallest values: exactly two rows fall under it."""
    order = np.argsort(values)
    return order[:2], 0.5 * (values[order[1]] + values[order[2]])


def test_batched_solve_raises_singular_closure_for_the_first_bad_record():
    chain = random_chain((1,) * 4, 1.0, TWIST_FULL, seed=7)
    stack = TransferPolynomial(chain, [rec.t.x for rec in brute_force_spectrum(chain)])
    zeta = default_zeta(chain)
    ratios = np.array([_require_regular_closure(qp.closure, det_floor=0.0)
                       for qp in solve_q_polynomial(stack, zeta=zeta)])
    bad, floor = _first_two_bad(ratios)
    with pytest.raises(SingularCZeta) as err:
        solve_q_polynomial(stack, zeta=zeta, det_floor=floor)
    assert f"ratio {ratios[min(bad)]:.3e} below" in str(err.value)
    assert f"zeta={zeta}" in str(err.value)


def test_batched_solve_raises_root_on_node_for_the_first_bad_record():
    chain = random_chain((1,) * 4, 1.0, TWIST_FULL, seed=7)
    stack = TransferPolynomial(chain, [rec.t.x for rec in brute_force_spectrum(chain)])
    zeta = default_zeta(chain)
    qpolys = solve_q_polynomial(stack, zeta=zeta)
    bottoms = np.array([chain.node(n, site.two_s) for n, site in enumerate(chain.sites)])
    gaps = np.array([np.min(np.abs(qp.roots()[:, None] - bottoms), initial=np.inf)
                     for qp in qpolys])
    bad, floor = _first_two_bad(gaps)
    with pytest.raises(RootOnForbiddenNode) as err:
        solve_q_polynomial(stack, zeta=zeta, root_floor=floor)
    first = qpolys[min(bad)]
    culprit = first.roots()[np.argmin(np.min(np.abs(first.roots()[:, None] - bottoms), axis=1))]
    assert str(err.value) == f"Q root {culprit} collides with a bottom node"


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
