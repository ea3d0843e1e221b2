import dataclasses
import importlib

import numpy as np
import pytest

from conftest import TWIST_FULL, XI_N3, commutator_residual, dense_blocks
from sovchain import make_chain
from sovchain.chain import ChainSpec, fused_twist, random_chain
from sovchain.cli import chain_from_config, load_config
from sovchain.local_ops import (_lax_parts, kron_chain, kron_embed, lax, permutation_4x4,
                                r_matrix, symmetric_basis)
from sovchain.numerics import frob, random_complex
from sovchain.transfer import (TransferEvaluator, _probes, central_zero_residual,
                               fused_transfer_projector, polynomiality_residual,
                               quantum_det_residual, rtt_residual, symmetry_residual, transfer,
                               tridiagonal_operator_minors)

# the package re-exports the function ``transfer``, which shadows the module attribute
transfer_module = importlib.import_module("sovchain.transfer")
spectrum_module = importlib.import_module("sovchain.spectrum")

# the probe residual over its dense oracle on the defects of the tests below, over 20
# probe salts: 0.91 to 1.11 for a defect in every Lax operator, R-matrix or site twist,
# 0.76 to 1.23 for one entry of one site's operator on one side
PROBE_SPREAD = (0.75, 1.25)


def _within_spread(got, want):
    return PROBE_SPREAD[0] * want <= got <= PROBE_SPREAD[1] * want


def _dense_monodromy(chain, lam, twist_matrix=None):
    """Reference route: product of (2D)^2 embedded twist and Lax operators."""
    k = chain.twist.matrix if twist_matrix is None else np.asarray(twist_matrix, dtype=complex)
    dims = [2] + list(chain.dims)
    mat = kron_embed(k, [0], dims)
    for n in range(chain.n_sites - 1, -1, -1):
        site = chain.sites[n]
        mat = mat @ kron_embed(lax(lam - site.xi, site.two_s, chain.eta), [0, n + 1], dims)
    return mat


def _dense_fused_projector(chain, level, lam):
    """Reference route: embedded monodromies multiplied as (2^level D)^2 matrices."""
    d = chain.dim
    dims = [2] * level + [d]
    prod = np.eye(2 ** level * d, dtype=complex)
    for i in range(level):
        m_i = _dense_monodromy(chain, lam + (level - 1 - i) * chain.eta)
        prod = prod @ kron_embed(m_i, [i, level], dims)
    u = symmetric_basis(level)
    tensor = prod.reshape(2 ** level, d, 2 ** level, d)
    return np.einsum("ak,aibj,bk->ij", u.conj(), tensor, u)


def _dense_rtt_residual(chain, lam, mu, r12):
    """Reference route: R12 M1 M2 - M2 M1 R12 with (4D)^2 embedded dense monodromies."""
    dims = [2, 2, chain.dim]
    m1 = kron_embed(_dense_monodromy(chain, lam), [0, 2], dims)
    m2 = kron_embed(_dense_monodromy(chain, mu), [1, 2], dims)
    big_r = kron_embed(r12, [0, 1], dims)
    lhs = big_r @ m1 @ m2
    return frob(lhs - m2 @ m1 @ big_r) / max(1.0, frob(lhs))


def _dense_twist_commutator(chain, lam, k, site_twists):
    """Reference route: [M^(I), K] with the dense (2D)^2 K = k (x) site_twists[0] (x) ..."""
    m_id = _dense_monodromy(chain, lam, twist_matrix=np.eye(2))
    big_k = np.kron(k, kron_chain(site_twists))
    left = big_k @ m_id
    return frob(left - m_id @ big_k) / max(1.0, frob(left))


def _closed_blocks(ops, twist):
    """[[M_00, M_01], [M_10, M_11]] of twist . op_N ... op_1, block (i, j) grown by the
    Lax-chain kernel from start e_j and closed by e_i^T."""
    eye = np.eye(2, dtype=complex)
    return [[transfer_module._lax_chain(ops, eye[:, j:j + 1], twist, eye[i:i + 1])
             for j in range(2)] for i in range(2)]


def _identity_twist_blocks(chain, lam):
    """A, B, C, D of the monodromy with K = I, grown by the Lax-chain kernel."""
    (a, b), (c, d) = _closed_blocks(transfer_module._site_laxes(chain, lam), np.eye(2))
    return a, b, c, d


def test_monodromy_matches_dense_product(chain123):
    rng = np.random.default_rng(31)
    for lam in random_complex(rng, size=3, box=3.0):
        want = _dense_monodromy(chain123, lam)
        a, b, c, d = dense_blocks(chain123, lam)
        assert frob(np.block([[a, b], [c, d]]) - want) <= 1e-13 * frob(want)
        for twist in (np.eye(2), chain123.twist.conjugated()):
            got = np.block(_closed_blocks(transfer_module._site_laxes(chain123, lam), twist))
            want = _dense_monodromy(chain123, lam, twist_matrix=twist)
            assert frob(got - want) <= 1e-13 * frob(want)


def test_transfer_matches_dense_trace(chain123):
    rng = np.random.default_rng(33)
    d = chain123.dim
    for lam in random_complex(rng, size=3, box=3.0):
        dense = _dense_monodromy(chain123, lam)
        want = dense[:d, :d] + dense[d:, d:]
        got = transfer(chain123, lam)
        assert frob(got - want) <= 1e-13 * frob(want)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_fused_projector_matches_dense_product(chain123, level):
    rng = np.random.default_rng(40 + level)
    for lam in random_complex(rng, size=2, box=2.5):
        want = _dense_fused_projector(chain123, level, lam)
        got = fused_transfer_projector(chain123, level, lam)
        assert frob(got - want) <= 1e-12 * max(1.0, frob(want))


def test_aux_product_matches_embedded_factors():
    # X_0 X_1 X_2 with X_i on aux leg i (leg 0 slowest) and on a shared spin-1 site
    rng = np.random.default_rng(36)
    factors = [lax(z, 2, 1.0) for z in random_complex(rng, size=3)]
    dims = [2, 2, 2, 3]
    want = np.eye(24, dtype=complex)
    for i, f in enumerate(factors):
        want = want @ kron_embed(f, [i, 3], dims)
    got = transfer_module._aux_product([f.reshape(2, 3, 2, 3) for f in factors])
    assert frob(got.reshape(24, 24) - want) <= 1e-14 * frob(want)


def test_projector_route_uses_no_recursion(chain12, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the projector route reached the fusion recursion")

    monkeypatch.setattr(TransferEvaluator, "fused", forbidden)
    monkeypatch.setattr(ChainSpec, "det_q", forbidden)
    monkeypatch.setattr(transfer_module, "tridiagonal_operator_minors", forbidden)
    monkeypatch.setattr(spectrum_module, "_tridiagonal_minors", forbidden)
    assert frob(fused_transfer_projector(chain12, 3, 0.3 - 0.2j)) > 0


def test_single_site_monodromy_is_r_matrix(chain1):
    lam = 0.83 - 0.21j
    a, b, c, d = _identity_twist_blocks(chain1, lam)
    r = r_matrix(lam, 1.0)
    assert np.allclose(a, r[:2, :2])
    assert np.allclose(b, r[:2, 2:])
    assert np.allclose(c, r[2:, :2])
    assert np.allclose(d, r[2:, 2:])


def test_single_site_transfer_hand_formula(chain1):
    # T(lam) = diag(k1 (lam+1) + k2 lam, k1 lam + k2 (lam+1)) for K = diag(2, 1)
    for lam in (0.0, 0.7, -1.4 + 0.6j):
        t = transfer(chain1, lam)
        assert np.allclose(t, np.diag([2 * (lam + 1) + lam, 2 * lam + (lam + 1)]))


def test_reference_covector_actions(chain12):
    lam = 0.37 + 0.21j
    a, b, c, d = _identity_twist_blocks(chain12, lam)
    v0 = np.eye(chain12.dim)[0]   # product of the local highest-weight covectors
    assert frob(v0 @ a - chain12.a(lam) * v0) < 1e-12
    assert frob(v0 @ d - chain12.d(lam) * v0) < 1e-12
    assert frob(v0 @ b) < 1e-13
    assert frob(v0 @ c) > 1e-3  # C does not annihilate the reference


def test_rtt_exchange(chain12, chain112):
    rng = np.random.default_rng(2)
    for chain in (chain12, chain112):
        lams, mus = np.array([random_complex(rng, size=2, box=3.0) for _ in range(5)]).T
        assert np.max(rtt_residual(chain, lams, mus)) < 1e-11


def test_rtt_points_must_pair_up(chain12):
    with pytest.raises(ValueError):
        rtt_residual(chain12, [0.3 + 0.1j, -0.2j], [1.1 - 0.4j])


def test_rtt_matches_dense_product(chain123, monkeypatch):
    rng = np.random.default_rng(35)
    lam, mu = random_complex(rng, size=2, box=3.0)
    r12 = r_matrix(lam - mu, chain123.eta)
    assert rtt_residual(chain123, [lam], [mu])[0] < 1e-13
    assert _dense_rtt_residual(chain123, lam, mu, r12) < 1e-13
    # an R-matrix at a wrong spectral difference breaks the exchange relation; both routes
    # must see it. The probe route reads R12 = z Id + eta P12 from the spin-1/2 Lax parts
    wrong = r_matrix((lam - mu) * (1 + 1e-6), chain123.eta)
    eye, p12 = _lax_parts(1)
    monkeypatch.setattr(transfer_module, "_lax_parts", lambda two_s: (eye * (1 + 1e-6), p12))
    got = rtt_residual(chain123, [lam], [mu])[0]
    want = _dense_rtt_residual(chain123, lam, mu, wrong)
    assert got > 1e-8
    assert _within_spread(got, want)


def test_transfer_family_commutes(chain12, ev12):
    rng = np.random.default_rng(8)
    for _ in range(5):
        lam, mu = random_complex(rng, size=2, box=3.0)
        assert commutator_residual(ev12.transfer(lam), ev12.transfer(mu)) < 1e-11


def test_fused_low_levels(chain12, ev12):
    lam = 0.45 - 0.83j
    tower = ev12.fused(1, lam)
    assert tower.shape == (2, chain12.dim, chain12.dim)
    assert np.array_equal(tower[0], np.eye(chain12.dim))
    assert np.array_equal(tower[1], ev12.transfer(lam))
    assert np.array_equal(ev12.fused(0, lam), np.eye(chain12.dim)[None])
    with pytest.raises(ValueError):
        ev12.fused(-1, lam)


def _memoized_fused(ev, level, lam, memo):
    """Oracle: T^(level)(lam) by the recursion one level per call, every level memoized by
    (level, lam) and read back from the memo, level 0 the one memoized identity."""
    key = (level, complex(lam))
    if key not in memo:
        if level == 0:
            memo[key] = np.eye(ev.chain.dim, dtype=complex)
        elif level == 1:
            memo[key] = ev.transfer(lam)
        else:
            shift = lam + (level - 1) * ev.chain.eta
            memo[key] = (ev.transfer(shift) @ _memoized_fused(ev, level - 1, lam, memo)
                         - ev.chain.det_q(shift) * _memoized_fused(ev, level - 2, lam, memo))
    return memo[key]


@pytest.mark.parametrize("name", ["n1_spin_half", "n2_mixed", "n2_mixed_diagonal", "n2_spin22",
                                  "n3_mixed", "1,2,1"])
def test_fused_tower_is_the_memoized_recursion_bitwise(name):
    # at generic points and at every grid node, up to one level past the largest 2s_n + 1
    chain = (random_chain([1, 2, 1], 1.0, TWIST_FULL, seed=7) if name == "1,2,1"
             else chain_from_config(load_config(name)))
    ev, top = TransferEvaluator(chain), max(chain.dims) + 1
    pts = np.concatenate([random_complex(np.random.default_rng(72), size=4, box=3.0)]
                         + [nodes for nodes, _, _ in chain.grid])
    for lam in map(complex, pts):
        memo = {}
        tower, listed = ev.fused(top, lam), ev.fused(top, [lam])
        assert tower.shape == (top + 1, chain.dim, chain.dim)
        assert listed.shape == (top + 1, 1, chain.dim, chain.dim)
        for level in range(top + 1):
            assert np.array_equal(tower[level], _memoized_fused(ev, level, lam, memo))
            assert np.array_equal(listed[level, 0], tower[level])


@pytest.mark.parametrize("name", ["n2_mixed", "n3_mixed", "2,2,2,2", "1^6", "1,2,1,2,1"])
def test_fused_on_several_points_is_each_point_alone_bitwise(name):
    # T at P points is P one-point reads (a GEMM over the points would round its rows
    # otherwise), so the towers of a point set, dense or on probes, are each point's own
    spins = {"2,2,2,2": [2] * 4, "1^6": [1] * 6, "1,2,1,2,1": [1, 2, 1, 2, 1]}.get(name)
    chain = (random_chain(spins, 1.0, TWIST_FULL, seed=7) if spins
             else chain_from_config(load_config(name)))
    ev, top = TransferEvaluator(chain), max(chain.dims)
    probes = _probes(chain, 606, 1)[0]
    for pts in (random_complex(np.random.default_rng(73), size=5, box=3.0),
                np.concatenate([nodes for nodes, _, _ in chain.grid])):
        at, dense, on_probes = ev._at(pts), ev.fused(top, pts), ev.fused(top, pts, probes)
        for p, lam in enumerate(pts):
            assert np.array_equal(at[p], ev.transfer(lam))
            assert np.array_equal(dense[:, p], ev.fused(top, lam))
            assert np.array_equal(on_probes[:, p], ev.fused(top, [lam], probes)[:, 0])


@pytest.mark.parametrize("name", ["n2_mixed", "n3_mixed", "n2_spin22", "1^6", "2,2,2,2"])
def test_tridiagonal_residuals_of_a_batch_are_each_point_alone_bitwise(name):
    # the off-diagonal products k1 a * k2 d are taken per point (chain.a and chain.d round
    # otherwise on an array), so a batch's rows are its points' one-point rows
    spins = {"2,2,2,2": [2] * 4, "1^6": [1] * 6}.get(name)
    chain = (random_chain(spins, 1.0, TWIST_FULL, seed=7) if spins
             else chain_from_config(load_config(name)))
    ev = TransferEvaluator(chain)
    for seed in range(4):
        lams = random_complex(np.random.default_rng(seed), size=5, box=2.5)
        alone = [transfer_module._tridiagonal_residuals(ev, [lam])[0] for lam in lams]
        assert np.array_equal(transfer_module._tridiagonal_residuals(ev, lams), alone)


def test_fused_hand_zero(chain1):
    # T(0) T(-1) - detq(0) vanishes identically at the second-level center
    ev = TransferEvaluator(chain1)
    assert frob(ev.fused(2, -1.0)[2]) < 1e-12


@pytest.mark.parametrize("level", [1, 2, 3])
def test_fusion_route_equivalence(chain12, ev12, level):
    rng = np.random.default_rng(level)
    worst = 0.0
    for _ in range(5):
        lam = complex(random_complex(rng, box=2.5))
        rec = ev12.fused(level, lam)[level]
        proj = fused_transfer_projector(chain12, level, lam)
        worst = max(worst, frob(rec - proj) / max(1.0, frob(proj)))
    assert worst < 1e-9


def test_fusion_route_equivalence_n3(chain112, ev112):
    lam = 0.62 + 0.38j
    tower = ev112.fused(2, lam)
    for level in (1, 2):
        proj = fused_transfer_projector(chain112, level, lam)
        assert frob(tower[level] - proj) / max(1.0, frob(proj)) < 1e-9


def test_fused_family_commutes(chain12, ev12):
    rng = np.random.default_rng(5)
    lam, mu = random_complex(rng, size=2, box=2.5)
    at_lam, at_mu = ev12.fused(3, lam), ev12.fused(3, mu)
    for l in (1, 2, 3):
        for m in (1, 2, 3):
            assert commutator_residual(at_lam[l], at_mu[m]) < 1e-10


def test_central_zeros(chain12, ev12, chain112, ev112):
    # one residual per site, and the levels above 2s_n + 1 of the bottom tower vanish too
    lam_ref = 0.91 + 0.17j
    for chain, ev in ((chain12, ev12), (chain112, ev112)):
        got = central_zero_residual(chain, ev, lam_ref)
        assert got.shape == (chain.n_sites,) and np.all(got < 1e-9)
        ref = ev.fused(max(chain.dims) + 1, lam_ref)
        for n, site in enumerate(chain.sites):
            tower = ev.fused(site.two_s + 2, chain.node(n, site.two_s))
            for level in (site.two_s + 1, site.two_s + 2):
                assert frob(tower[level]) / max(1.0, frob(ref[level])) < 1e-9


@pytest.mark.parametrize("batch_bytes", [2 ** 18, 1])
def test_probe_tower_is_the_dense_tower_on_the_probes(chain123, monkeypatch, batch_bytes):
    # levels 0-3 at three points in one call, in one chunk or one point per chunk: the
    # tower on the salt-606 probes is the dense tower of the same call times the probes
    monkeypatch.setattr(transfer_module, "_BATCH_BYTES", batch_bytes)
    lams = [0.4 - 0.3j, -1.1 + 0.8j, 2.2 + 1.7j]
    for chain in (chain123, chain_from_config(load_config("n2_spin22"))):
        ev, probes = TransferEvaluator(chain), transfer_module._probes(chain, 606, 1)[0]
        got, dense = ev.fused(3, lams, probes), ev.fused(3, lams)
        assert got.shape == (4, 3, chain.dim, 8) and dense.shape == (4, 3, chain.dim, chain.dim)
        for level in range(4):
            for p in range(len(lams)):
                want = dense[level, p] @ probes
                assert frob(got[level, p] - want) <= 1e-13 * frob(want)


def test_probe_tower_rows_read_a_noncommuting_sample_as_the_dense_rows():
    # one sample's entry moved by 1e-8 max|T|: each probe commutator and bottom-up
    # determinant residual stays within a factor 2 of its dense value
    chain = chain_from_config(load_config("n3_mixed"))
    ev = TransferEvaluator(chain)
    samples = ev.samples.copy()
    samples[0, 0, 1] += 1e-8 * np.max(np.abs(samples[0]))
    ev.samples = samples
    lam, mu = 0.4 - 0.3j, -1.1 + 0.8j
    at_lam, at_mu = ev.fused(3, lam), ev.fused(3, mu)
    dense = [[commutator_residual(at_lam[l], at_mu[m]) for m in (1, 2, 3)] for l in (1, 2, 3)]
    ratios = [transfer_module._commuting_residuals(ev, lam, mu, 3) / dense]
    for level in (2, 3):
        shifts = lam + chain.eta * (level - 1 - np.arange(level))
        det = tridiagonal_operator_minors(
            map(ev.transfer, shifts), chain.twist.k1 * chain.a(shifts[:-1])
            * (chain.twist.k2 * chain.d(shifts[1:])),
            np.empty((level + 1, chain.dim, chain.dim), complex))[-1]
        want = frob(det - at_lam[level]) / max(1.0, frob(at_lam[level]))
        ratios.append(transfer_module._tridiagonal_residuals(ev, [lam])[0, level - 2] / want)
    ratios = np.concatenate([np.ravel(r) for r in ratios])
    assert np.all((0.5 < ratios) & (ratios < 2.0)), ratios


def test_tridiagonal_determinant_matches_fusion(chain12, ev12):
    lam = -0.73 + 0.29j
    chain = chain12
    for level in (2, 3):
        diag = [ev12.transfer(lam + (level - 1 - i) * chain.eta) for i in range(level)]
        sup = [-chain.twist.k1 * chain.a(lam + (level - 1 - i) * chain.eta)
               for i in range(level - 1)]
        sub = [-chain.twist.k2 * chain.d(lam + (level - 2 - i) * chain.eta)
               for i in range(level - 1)]
        det = tridiagonal_operator_minors(diag, [p * q for p, q in zip(sup, sub)],
                                          np.empty((level + 1, chain.dim, chain.dim), complex))[-1]
        target = ev12.fused(level, lam)[level]
        assert frob(det - target) / max(1.0, frob(target)) < 1e-9


@pytest.mark.parametrize("m", range(0, 5))
def test_operator_minors_are_the_scalar_minors_on_diagonal_entries(m):
    # diagonal (so commuting) D x D entries: entry i of every minor is the scalar
    # minor of the matrices' i-th diagonal values, up to the GEMM's rounding
    rng = np.random.default_rng(70 + m)
    values = random_complex(rng, size=(m, 4), box=2.0)
    offprod = random_complex(rng, size=max(m - 1, 0), box=2.0)
    out = np.full((m + 1, 4, 4), np.nan, dtype=complex)
    got = tridiagonal_operator_minors((np.diag(v) for v in values), offprod, out)
    assert got is out
    want = spectrum_module._tridiagonal_minors(values, offprod)
    for level in range(m + 1):
        assert frob(got[level] - np.diag(want[level])) <= 1e-14 * max(1.0, frob(want[level]))


def _dense_quantum_det_residual(chain, lam):
    """Reference route: A(lam) D(lam-eta) - B(lam) C(lam-eta) from two full monodromies."""
    a, b, _, _ = dense_blocks(chain, lam)
    _, _, c, d = dense_blocks(chain, lam - chain.eta)
    op = a @ d - b @ c
    target = chain.det_q(lam) * np.eye(chain.dim, dtype=complex)
    return frob(op - target) / max(1.0, frob(target), frob(op))


def test_quantum_det_operator_identity(chain12, chain112):
    rng = np.random.default_rng(9)
    for chain in (chain12, chain112):
        for _ in range(4):
            lam = complex(random_complex(rng, box=3.0))
            assert quantum_det_residual(chain, [lam])[0] < 1e-10


def test_quantum_det_matches_two_monodromy_route(chain123):
    rng = np.random.default_rng(10)
    for lam in random_complex(rng, size=3, box=3.0):
        assert quantum_det_residual(chain123, [lam])[0] < 1e-13
        assert _dense_quantum_det_residual(chain123, lam) < 1e-13


def test_quantum_det_detects_a_wrong_lax_entry(chain123, monkeypatch):
    # one entry of every Lax operator scaled by 1 + 1e-6 breaks the identity; both
    # routes read the patched Lax and must agree on the residual within the probe spread
    def wrong_lax(lam, two_s, eta):
        out = lax(lam, two_s, eta).copy()
        out[..., two_s + 1, 1] *= 1 + 1e-6   # eta S+ entry of the lower-left aux block
        return out

    monkeypatch.setattr(transfer_module, "lax", wrong_lax)
    lam = 0.7 - 0.4j
    got = quantum_det_residual(chain123, [lam])[0]
    want = _dense_quantum_det_residual(chain123, lam)
    assert got > 1e-8
    assert _within_spread(got, want)


def test_quantum_det_identity_twist_scalar(chain12):
    # with K = I the scalar is a(lam) d(lam - eta)
    lam = 1.21 - 0.44j
    a, b, _, _ = _identity_twist_blocks(chain12, lam)
    _, _, c, d = _identity_twist_blocks(chain12, lam - chain12.eta)
    op = a @ d - b @ c
    target = chain12.a(lam) * chain12.d(lam - chain12.eta) * np.eye(chain12.dim)
    assert frob(op - target) / max(1.0, frob(target)) < 1e-11


def test_quantum_det_balance_at_bottom_node(chain12):
    # where the scalar vanishes the two block products must agree
    n, site = 1, chain12.sites[1]
    lam = chain12.node(n, site.two_s)
    a, b, _, _ = dense_blocks(chain12, lam)
    _, _, c, d = dense_blocks(chain12, lam - chain12.eta)
    lhs = a @ d
    rhs = b @ c
    assert frob(lhs - rhs) / max(1.0, frob(lhs)) < 1e-11


def test_symmetry_commutation(chain12):
    def with_twist(k):   # the chain's sites with twist matrix k (the residual reads only it)
        twist = dataclasses.replace(chain12.twist, matrix=np.asarray(k, dtype=complex))
        return dataclasses.replace(chain12, twist=twist)

    assert symmetry_residual(with_twist(np.eye(2)), [0.52 + 0.11j])[0] < 1e-14
    rng = np.random.default_rng(12)
    for _ in range(3):
        k = random_complex(rng, size=(2, 2))
        lam = complex(random_complex(rng, box=3.0))
        assert symmetry_residual(with_twist(k), [lam])[0] < 1e-10


def test_symmetry_matches_dense_commutator(chain123):
    rng = np.random.default_rng(14)
    k = chain123.twist.matrix
    site_twists = [fused_twist(k, site.two_s) for site in chain123.sites]
    lams = random_complex(rng, size=2, box=3.0)
    assert np.max(symmetry_residual(chain123, lams)) < 1e-13
    for lam in lams:
        assert _dense_twist_commutator(chain123, lam, k, site_twists) < 1e-13


def test_symmetry_detects_a_wrong_site_twist(chain123, monkeypatch):
    # perturb the fused twist of the spin-3/2 site only; the commutator must see it
    bump = 1e-6 * random_complex(np.random.default_rng(15), size=(4, 4))

    def wrong_fused_twist(k, level):
        return fused_twist(k, level) + (bump if level == 3 else 0.0)

    monkeypatch.setattr(transfer_module, "fused_twist", wrong_fused_twist)
    k = chain123.twist.matrix
    site_twists = [wrong_fused_twist(k, site.two_s) for site in chain123.sites]
    lam = 0.7 - 0.4j
    got = symmetry_residual(chain123, [lam])[0]
    want = _dense_twist_commutator(chain123, lam, k, site_twists)
    assert got > 1e-8
    assert _within_spread(got, want)


def test_single_site_symmetry_reduces_to_local(chain1):
    assert symmetry_residual(chain1, [0.4 - 1.2j])[0] < 1e-12


def test_transfer_is_degree_n_polynomial(chain12, chain112):
    # the held-out residual and the leading-coefficient residual, under their row gates
    rng = np.random.default_rng(21)
    for chain in (chain12, chain112):
        held_out, lead = polynomiality_residual(TransferEvaluator(chain), rng)
        assert held_out < 1e-10 and lead < 1e-9


@pytest.mark.parametrize("name", ["n2_mixed", "n3_mixed"])
def test_premise_rows_see_one_perturbed_sample(name, monkeypatch):
    # one value moved by 1e-8 of itself: the kernel at the held-out point p2 fails the
    # held-out row only; the kernel at the interpolation point p1, or one of the evaluator's
    # samples, fails both rows
    chain = chain_from_config(load_config(name))
    ev = TransferEvaluator(chain)
    centroid = np.concatenate([nodes for nodes, _, _ in chain.grid]).mean()
    pts = centroid + random_complex(np.random.default_rng(23), size=2, box=1.0)
    gates = np.array([1e-10, 1e-9])   # transfer_polynomiality, transfer_leading_coefficient
    clean = polynomiality_residual(ev, np.random.default_rng(23))
    assert list(clean < gates) == [True, True]
    for index, fails in ((1, [True, False]), (0, [True, True])):
        def perturbed(chain, lam, at=pts[index]):
            out = transfer(chain, lam)
            return out * (1 + 1e-8) if lam == at else out

        with monkeypatch.context() as patch:
            patch.setattr(transfer_module, "transfer", perturbed)
            rows = polynomiality_residual(ev, np.random.default_rng(23))
        assert list(rows > gates) == fails
    clean_samples = ev.samples
    for a in range(chain.n_sites):
        samples = clean_samples.copy()
        samples[a] *= 1 + 1e-8
        ev.samples = samples
        assert list(polynomiality_residual(ev, np.random.default_rng(23)) > gates) == [True] * 2


@pytest.mark.parametrize("spins", [(1,) * 6, (2,) * 4, (1, 2, 1, 2, 1)],
                         ids=["1^6", "2^4", "1,2,1,2,1"])
def test_premise_rows_pass_under_exact_symmetries(spins):
    # xi and eta scaled, or xi translated, keep T a degree-N polynomial with leading
    # coefficient tr K Id, so both rows pass every transform of a chain on which they pass
    # (points in a fixed box of half-side 2.5 read 84 against the 1e-9 gate at 1^6 with
    # xi + 1e3 (1 + i))
    base = random_chain(spins, 1.0, TWIST_FULL, seed=7)
    for scale, shift in ((1, 0), (1e-3, 0), (10, 0), (100, 0), (1, 20), (1, 100),
                         (1, 1e3 * (1 + 1j))):
        chain = make_chain(base.eta * scale, [(s.two_s, s.xi * scale + shift) for s in base.sites],
                           base.twist.matrix, seed=base.seed)
        held_out, lead = polynomiality_residual(TransferEvaluator(chain), chain.rng(200))
        assert held_out < 1e-10 and lead < 1e-9, (scale, shift, held_out, lead)


def test_transfer_leading_coefficient(chain12):
    # top divided difference over N+1 kernel-built points equals tr(K) times the identity
    chain = chain12
    pts = np.array([0.3, -1.1 + 0.4j, 2.2 - 0.9j])
    lead = np.zeros((chain.dim, chain.dim), dtype=complex)
    for j, z in enumerate(pts):
        denom = np.prod([z - w for k, w in enumerate(pts) if k != j])
        lead += transfer(chain, z) / denom
    target = chain.twist.trace * np.eye(chain.dim)
    assert frob(lead - target) / max(1.0, frob(target)) < 1e-9


def _close_pair_chain():
    """1^6 with xi_2 moved to 1e-6 from xi_1: the top nodes nearly collide."""
    base = random_chain([1] * 6, 1.0, TWIST_FULL, seed=7)
    xis = [site.xi for site in base.sites]
    xis[1] = xis[0] + 1e-6
    return make_chain(1.0, [(1, xi) for xi in xis], TWIST_FULL, seed=7)


EVALUATOR_CHAINS = ("n1_spin_half", "n2_mixed", "n2_mixed_diagonal", "n2_spin22", "n3_mixed",
                    "1^7", "3,3,3", "6,6", "8,8", "close_pair")


def _evaluator_chain(name):
    if name == "close_pair":
        return _close_pair_chain()
    if name[0].isdigit():
        spins = [1] * 7 if name == "1^7" else [int(s) for s in name.split(",")]
        return random_chain(spins, 1.0, TWIST_FULL, seed=7)
    return chain_from_config(load_config(name))


@pytest.mark.parametrize("name", EVALUATOR_CHAINS)
def test_evaluator_matches_the_kernel(name):
    # at 20 points of box 3 and their fused shifts lam + eta, lam + 2 eta, and at every
    # grid node, the interpolant is the kernel-built transfer to 1e-12 relative
    chain = _evaluator_chain(name)
    ev = TransferEvaluator(chain)
    pts = random_complex(np.random.default_rng(71), size=20, box=3.0)
    pts = np.concatenate([pts + k * chain.eta for k in range(3)]
                         + [nodes for nodes, _, _ in chain.grid])
    for lam in map(complex, pts):
        want = transfer(chain, lam)
        assert frob(ev.transfer(lam) - want) <= 1e-12 * max(1.0, frob(want))


@pytest.mark.parametrize("name", EVALUATOR_CHAINS[:5])
def test_evaluator_samples_are_the_kernel_bitwise(name):
    chain = _evaluator_chain(name)
    ev = TransferEvaluator(chain)
    nodes = ev._interp.nodes
    assert ev.samples.shape == (chain.n_sites, chain.dim, chain.dim)
    for z, sample in zip(nodes, ev.samples):
        assert np.array_equal(sample, transfer(chain, complex(z)))
        assert np.array_equal(ev.transfer(z), sample)


# ---------------------------------------------------------------------------
# leg-order kernel against the matrix-order oracle
# ---------------------------------------------------------------------------

def _oracle_lax_chain(site_ops, start, twist=None, close=None):
    """Matrix-order kernel: one tensordot and one transposed reshape after every site.

    Returns twist . op_N ... op_1 . start as the (A D) x (R D) matrix on (aux) x H,
    site 1 slowest, or with an R x A ``close`` the D x D trace tr(close . product).
    """
    ops = list(site_ops)
    for left in (twist, close):
        if left is not None:
            ops[-1] = np.tensordot(left, ops[-1], axes=(1, 0))
    a_dim, r_dim = start.shape
    prod = start.reshape(a_dim, 1, r_dim, 1)
    for n, op in enumerate(ops):
        dk = prod.shape[1] * op.shape[1]
        if close is not None and n == len(ops) - 1:
            out = np.tensordot(op, prod, axes=([0, 2], [2, 0]))
            return out.transpose(2, 0, 3, 1).reshape(dk, dk)
        out = np.tensordot(op, prod, axes=(2, 0))
        prod = out.transpose(0, 3, 1, 4, 5, 2).reshape(a_dim, dk, r_dim, dk)
    return prod.reshape(a_dim * dk, r_dim * dk)


def _oracle_rtt(chain, lam, mu, kernel):
    laxes, aux = transfer_module._site_laxes, transfer_module._aux_product
    kk = kron_chain([chain.twist.matrix] * 2)
    r12, p12 = r_matrix(lam - mu, chain.eta), permutation_4x4()
    pairs = list(zip(laxes(chain, lam), laxes(chain, mu)))
    lhs = kernel([aux(p) for p in pairs], np.eye(4, dtype=complex), twist=r12 @ kk)
    rhs = kernel([aux(p[::-1]) for p in pairs], p12 @ r12, twist=p12 @ kk)
    return frob(lhs - rhs) / max(1.0, frob(lhs))


def _oracle_quantum_det(chain, lam, kernel):
    laxes, aux = transfer_module._site_laxes, transfer_module._aux_product
    pairs = zip(laxes(chain, lam), laxes(chain, lam - chain.eta))
    start = np.array([[0.0], [1.0], [-1.0], [0.0]], dtype=complex)
    close = np.array([[0.0, 1.0, 0.0, 0.0]], dtype=complex)
    op = kernel([aux(p) for p in pairs], start, twist=kron_chain([chain.twist.matrix] * 2),
                close=close)
    target = chain.det_q(lam) * np.eye(chain.dim, dtype=complex)
    return frob(op - target) / max(1.0, frob(target), frob(op))


def _oracle_symmetry(chain, lam, kernel):
    k = chain.twist.matrix
    pairs = [(fused_twist(k, site.two_s), op)
             for site, op in zip(chain.sites, transfer_module._site_laxes(chain, lam))]
    left = kernel([np.einsum("ij,ajbk->aibk", t, op) for t, op in pairs],
                  np.eye(2, dtype=complex), twist=k)
    right = kernel([np.einsum("ajbk,kl->ajbl", op, t) for t, op in pairs], k)
    return frob(left - right) / max(1.0, frob(left))


def _residuals(fns, reset):
    out = []
    for fn in fns:
        reset()
        out.append(fn())
    return tuple(out)


def _oracle_residuals(chain, lam, mu, kernel=_oracle_lax_chain, reset=lambda: None):
    """RTT, quantum-determinant and symmetry residuals with both sides in matrix order."""
    return _residuals((lambda: _oracle_rtt(chain, lam, mu, kernel),
                       lambda: _oracle_quantum_det(chain, lam, kernel),
                       lambda: _oracle_symmetry(chain, lam, kernel)), reset)


def _leg_residuals(chain, lam, mu, reset=lambda: None):
    """The library's residuals, both sides on probes; ``reset`` runs before each."""
    return _residuals((lambda: rtt_residual(chain, [lam], [mu])[0],
                       lambda: quantum_det_residual(chain, [lam])[0],
                       lambda: symmetry_residual(chain, [lam])[0]), reset)


def _chain121():
    sites = [(1, XI_N3[0]), (2, XI_N3[1]), (1, XI_N3[2])]
    return make_chain(1.0, sites, TWIST_FULL, seed=19)


LEG_ORDER_CHAINS = ("n1_spin_half", "n2_mixed", "n2_mixed_diagonal", "n2_spin22", "n3_mixed",
                    "one_site_spin1", "spins_121")


def _leg_order_chain(name):
    if name == "one_site_spin1":
        return make_chain(1.0, [(2, 0.37 - 0.52j)], TWIST_FULL, seed=5)
    if name == "spins_121":
        return _chain121()
    return chain_from_config(load_config(name))


@pytest.mark.parametrize("name", LEG_ORDER_CHAINS)
def test_leg_order_residuals_match_matrix_order_oracle(name):
    chain = _leg_order_chain(name)
    rng = np.random.default_rng(61)
    for lam, mu in random_complex(rng, size=(3, 2), box=3.0):
        # on a correct chain both routes read roundoff: within 1e-15 of each other
        got, want = _leg_residuals(chain, lam, mu), _oracle_residuals(chain, lam, mu)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-15


@pytest.mark.parametrize("close", [False, True])
def test_lax_chain_matches_matrix_order_oracle(chain123, close):
    # closed by I_2, the transfer; else the open product, its blocks closed one by one
    lam = 0.61 - 1.7j
    ops = transfer_module._site_laxes(chain123, lam)
    eye, twist = np.eye(2, dtype=complex), chain123.twist.matrix
    if close:
        got = transfer_module._lax_chain(ops, eye, twist, eye)
    else:
        got = np.block(_closed_blocks(ops, twist))
    want = _oracle_lax_chain(ops, eye, twist=twist, close=eye if close else None)
    assert frob(got - want) <= 1e-14 * frob(want)


def _perturb_first_call(kernel, calls):
    """``kernel`` with entry (1, 1, 1, 1) of the middle site's operator moved by 1e-9
    on its first call only, i.e. on one side of the identity. In a batch of
    operators (leading axes) only the first one moves: side 0 of point 0."""
    def perturbed(site_ops, *args, **kwargs):
        ops = list(site_ops)
        if not calls:
            mid = len(ops) // 2
            ops[mid] = ops[mid].copy()
            ops[mid][(0,) * (ops[mid].ndim - 4) + (1, 1, 1, 1)] += 1e-9
        calls.append(1)
        return kernel(ops, *args, **kwargs)
    return perturbed


def test_leg_order_residuals_see_a_one_sided_perturbation(monkeypatch):
    # a 1e-9 change of one middle-site entry on one side lifts each residual over
    # its gate, and the probe value is the matrix-order value of the same defect
    chain = _chain121()
    lam, mu = 2.1 + 1.5j, -0.2 - 2.4j
    clean = _leg_residuals(chain, lam, mu)
    assert max(clean) < 1e-14
    kernel_calls, oracle_calls = [], []
    monkeypatch.setattr(transfer_module, "_lax_apply",
                        _perturb_first_call(transfer_module._lax_apply, kernel_calls))
    oracle = _perturb_first_call(_oracle_lax_chain, oracle_calls)
    got = _leg_residuals(chain, lam, mu, reset=kernel_calls.clear)
    want = _oracle_residuals(chain, lam, mu, kernel=oracle, reset=oracle_calls.clear)
    gates = (1e-11, 1e-10, 1e-10)   # algebra.rtt, algebra.quantum_det, algebra.twist_symmetry
    assert all(g > gate for g, gate in zip(got, gates))
    assert all(_within_spread(g, w) for g, w in zip(got, want))


def test_evaluator_cache_is_read_only(chain12):
    # the samples are the evaluator's only state; what it returns is the caller's to change
    ev = TransferEvaluator(chain12)
    lam = 0.5 + 0.25j
    want = transfer(chain12, lam)
    with pytest.raises(ValueError):
        ev.samples += 1.0
    ev.transfer(lam)[0, 0] = 0.0
    ev.fused(2, lam)[:] = 0.0
    assert frob(ev.transfer(lam) - want) <= 1e-12 * frob(want)
    assert vars(ev).keys() == {"chain", "_interp", "samples"}


@pytest.mark.parametrize("m", [1, 2, 3])
def test_twist_power_is_cached_and_read_only(chain12, m):
    key = chain12.twist.matrix.tobytes()
    got = transfer_module._twist_power(key, m)
    assert got is transfer_module._twist_power(key, m)
    assert np.array_equal(got, kron_chain([chain12.twist.matrix] * m))
    with pytest.raises(ValueError):
        got[0, 0] = 0.0


# ---------------------------------------------------------------------------
# buffered products against the per-sample kernel
# ---------------------------------------------------------------------------

def _fresh_lax_legs(site_ops, start, twist, close):
    """The traced leg-order kernel, legs (j_N, k_N, ..., j_1, k_1), with a fresh array for
    every site's GEMM and a tensordot close."""
    ops = list(site_ops)
    for left in (twist, close):
        ops[-1] = np.tensordot(left, ops[-1], axes=(1, 0))
    last, prod = ops.pop(), start
    for op in ops:
        prod = op.transpose(0, 1, 3, 2).reshape(-1, op.shape[2]) @ prod.reshape(op.shape[2], -1)
    prod = prod.reshape(last.shape[2], -1, start.shape[1])
    legs = [d for op in reversed(site_ops) for d in op.shape[1::2]]
    return np.tensordot(last, prod, axes=([0, 2], [2, 0])).reshape(legs)


def _rtt_sides(chain, lam, mu):
    """The two (site_ops, start, twist) sides of the RTT relation at (lam, mu)."""
    aux = transfer_module._aux_product
    kk = kron_chain([chain.twist.matrix] * 2)
    r12, p12 = r_matrix(lam - mu, chain.eta), permutation_4x4()
    pairs = list(zip(transfer_module._site_laxes(chain, lam),
                     transfer_module._site_laxes(chain, mu)))
    return (([aux(p) for p in pairs], np.eye(4, dtype=complex), r12 @ kk),
            ([aux(p[::-1]) for p in pairs], p12 @ r12, p12 @ kk))


def _symmetry_sides(chain, lam):
    """The two (site_ops, start, twist) sides of the twist symmetry at lam."""
    k, eye = chain.twist.matrix, np.eye(2, dtype=complex)
    pairs = [(fused_twist(k, site.two_s), op)
             for site, op in zip(chain.sites, transfer_module._site_laxes(chain, lam))]
    return (([np.einsum("ij,ajbk->aibk", t, op) for t, op in pairs], eye, k),
            ([np.einsum("ajbk,kl->ajbl", op, t) for t, op in pairs], k, eye))


def _per_point_projector(chain, level, lam):
    """One point's projector-route fused transfer matrix, grown in fresh arrays over the whole
    2^level-dimensional aux space: U^dagger K^{x level} G_N ... G_1 U, traced."""
    laxes = [transfer_module._site_laxes(chain, lam + (level - 1 - i) * chain.eta)
             for i in range(level)]
    ops = [transfer_module._aux_product(per_leg) for per_leg in zip(*laxes)]
    u = symmetric_basis(level)
    legs = _fresh_lax_legs(ops, u, twist=kron_chain([chain.twist.matrix] * level),
                           close=u.conj().T)
    n = chain.n_sites
    sites = list(range(2 * n - 2, -1, -2))
    return legs.transpose(sites + [j + 1 for j in sites]).reshape(chain.dim, chain.dim)


BUFFER_CHAINS = ("n1_spin_half", "n2_mixed", "n2_mixed_diagonal", "n2_spin22", "n3_mixed",
                 "spins_121")


@pytest.mark.parametrize("name", BUFFER_CHAINS)
def test_buffered_products_equal_the_per_sample_kernel_bitwise(name):
    # the route chains the fused Lax operators U^dagger G_n U, the reference the 2^l-aux
    # product: bitwise the same at level 1 (U = I_2), within roundoff above (7.5e-16 measured)
    chain = _leg_order_chain(name)
    lams = [complex(z) for z in random_complex(np.random.default_rng(62), size=4, box=3.0)]
    for level in (1, 2, 3):
        for lam in lams:
            got = fused_transfer_projector(chain, level, lam)
            want = _per_point_projector(chain, level, lam)
            assert got.shape == (chain.dim, chain.dim)
            assert (np.array_equal(got, want) if level == 1
                    else frob(got - want) <= 1e-14 * frob(want))


def _quantum_det_side(chain, lam):
    """The (site_ops, start, twist) of M1(lam) M2(lam - eta) from e_(0,1) - e_(1,0)."""
    pairs = zip(transfer_module._site_laxes(chain, lam),
                transfer_module._site_laxes(chain, lam - chain.eta))
    start = np.array([[0.0], [1.0], [-1.0], [0.0]], dtype=complex)
    return ([transfer_module._aux_product(p) for p in pairs], start,
            kron_chain([chain.twist.matrix] * 2))


@pytest.mark.parametrize("name", BUFFER_CHAINS + ("one_site_spin1",))
def test_lax_apply_is_the_whole_product_on_probes(name):
    # every side of the three identities, applied to probes by the batched kernel
    # (two points in one batch), is the matrix-order product times the probes
    chain = _leg_order_chain(name)
    lam, mu = 0.7 - 1.3j, -1.6 + 0.4j
    sides = _rtt_sides(chain, lam, mu) + _symmetry_sides(chain, lam) + (
        _quantum_det_side(chain, lam),)
    for ops, start, twist in sides:
        a, r = start.shape
        probes = random_complex(np.random.default_rng(65), size=(2, r, chain.dim, 8))
        want = [_oracle_lax_chain(ops, start, twist=twist) @ v.reshape(-1, 8) for v in probes]
        batch = [np.stack([op, 2 * op]) for op in ops]   # point 1: every site doubled
        x = (start @ probes.reshape(2, r, -1)).reshape(2, a, chain.dim, 8)
        got = twist @ transfer_module._lax_apply(batch, x).reshape(2, a, -1)
        for p in range(2):
            ref = 2 ** (chain.n_sites * p) * want[p]
            assert frob(got[p].reshape(ref.shape) - ref) <= 1e-14 * frob(ref)


@pytest.mark.parametrize("spins", [[1] * 6, [2, 2, 2, 2], [1] * 8, [1] * 10],
                         ids=["1^6", "2^4", "1^8", "1^10"])
def test_identity_residuals_peak_within_20_dense_arrays(spins):
    # the sides act on probes and are never built: the traced peak of each residual
    # over four points stays below one D x D complex array (dense sides took 48). Up
    # to D = 81 one point's RTT probes alone fill half such an array, so there the
    # bound is the batch's: two kernel states and the images, 4 _BATCH_BYTES at most
    import tracemalloc

    chain = random_chain(spins, 1.0, TWIST_FULL, seed=7)
    lams, mus = (list(map(complex, z)) for z in random_complex(np.random.default_rng(64),
                                                                size=(2, 4), box=3.0))
    for residual in (lambda: rtt_residual(chain, lams, mus),
                     lambda: quantum_det_residual(chain, lams),
                     lambda: symmetry_residual(chain, lams)):
        tracemalloc.start()
        try:
            residual()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < max(chain.dim ** 2 * 16, 4 * transfer_module._BATCH_BYTES)


def test_evaluator_holds_each_sample_once():
    # the N samples are written into one preallocated stack, one kernel build alive at a
    # time: on 1^8 the traced peak of a build is N + 2.0 D x D (a transfer's own kernel
    # peak is 2.0); a list of N samples stacked at the end would peak at 2N
    import tracemalloc

    chain = random_chain([1] * 8, 1.0, TWIST_FULL, seed=7)
    TransferEvaluator(chain)    # the cached Lax parts and twist
    tracemalloc.start()
    try:
        TransferEvaluator(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (chain.n_sites + 2.5) * chain.dim ** 2 * 16


@pytest.mark.parametrize("name", BUFFER_CHAINS + ("one_site_spin1",))
def test_level_one_projector_is_the_transfer_bitwise(name):
    # symmetric_basis(1) is I_2 and K^{x 1} is K, so the level-1 projector route makes the
    # transfer's own kernel call: comparing the two at level 1 checks nothing
    chain = _leg_order_chain(name)
    lams = [complex(z) for z in random_complex(np.random.default_rng(63), size=5, box=2.5)]
    assert all(np.array_equal(fused_transfer_projector(chain, 1, lam), transfer(chain, lam))
               for lam in lams)


@pytest.mark.parametrize("level, bound", [(2, 5.0), (3, 8.5)])
def test_projector_peak_holds_no_buffer_pair(level, bound):
    # each kernel write is a fresh array, freed once the next one is made, and the fused Lax
    # operators carry level + 1 aux states: on 1^8 the traced peak of one projector call
    # stays within `bound` D x D arrays (4.52 and 8.03 measured; 6.02 and 16.05 over the
    # 2^level aux space); holding a pair of buffers sized for the largest write would add one
    import tracemalloc

    chain = random_chain([1] * 8, 1.0, TWIST_FULL, seed=7)
    fused_transfer_projector(chain, level, 0.3 - 0.4j)     # the cached twist power and basis
    tracemalloc.start()
    try:
        fused_transfer_projector(chain, level, 0.3 - 0.4j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * chain.dim ** 2 * 16
