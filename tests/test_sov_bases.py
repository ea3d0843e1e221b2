import numpy as np
import pytest

from sovchain import cli
from sovchain.chain import (ChainSpec, Site, fused_twist, make_chain, normalize_twist,
                           random_chain)
from sovchain.cli import chain_from_config, load_config
from sovchain.local_ops import kron_chain
from sovchain.numerics import frob, random_complex
from sovchain.sov_bases import (CovectorBasis, _site_product_rows, _tower_bases, b_eigen_report,
                                gram_rank, separate_action_report, shift_action_report,
                                sklyanin_basis, sklyanin_norm,
                                sov_basis_1, sov_basis_2, tensor_generating_covector)
from sovchain.transfer import TransferEvaluator, _lax_chain, _site_laxes, monodromy_matrix
from conftest import (TWIST_DIAG, TWIST_FULL, XI_N2, commutator_residual, dense_blocks,
                      sample_defect)
from regen_golden import CHAINS as GOLDEN_CHAINS

# b = 0 twists: diagonal, lower triangular and lower triangular with equal eigenvalues,
# whose frame W is the involution chain._MIX, and lower triangular with c = d - a, where
# _MIX K _MIX has a zero off-diagonal and W is the second involution chain._MIX2
B_ZERO_TWISTS = {
    "diag": TWIST_DIAG,
    "lower": np.array([[1.3 + 0.2j, 0.0], [0.7 - 0.4j, -0.5 + 0.9j]]),
    "jordan": np.array([[1.0, 0.0], [1.0, 1.0]]),
    "mixing": np.array([[1.3 + 0.2j, 0.0], [-1.8 + 0.7j, -0.5 + 0.9j]]),
}


def _frame_block(chain, lam, i, j):
    """Block (i, j) of the aux frame W^-1 M(lam) W, grown directly from start W e_j and closed
    by e_i^T W^-1, as ``sklyanin_basis`` and the action reports grow it."""
    w = chain.twist.w
    return monodromy_matrix(chain, lam, start=w[:, j:j + 1], close=np.linalg.inv(w)[i:i + 1])


def _row_or_zero(basis, h):
    """Row for h, or the zero covector when h is out of range."""
    if all(0 <= hn < d for hn, d in zip(h, basis.chain.dims)):
        return basis.row(h)
    return np.zeros(basis.chain.dim, dtype=complex)


def test_sklyanin_zero_row_is_reference(chain12):
    # the reference covector: the product of the local highest-weight covectors
    basis = sklyanin_basis(chain12)
    want = np.eye(chain12.dim)[0] / sklyanin_norm(chain12)
    assert frob(basis.row((0, 0)) - want) < 1e-13


def test_sklyanin_full_rank(chain12, chain12_diag, chain112):
    for chain in (chain12, chain12_diag, chain112):
        rank, (smallest, _) = gram_rank(sklyanin_basis(chain))
        assert rank == chain.dim
        assert smallest > 1e-6


def test_sklyanin_b_eigen_relation(chain12, chain12_diag):
    rng = np.random.default_rng(31)
    lams = [complex(z) for z in random_complex(rng, size=3, box=2.5)]
    for chain in (chain12, chain12_diag):
        basis = sklyanin_basis(chain)
        assert b_eigen_report(basis, lams) < 1e-9


def test_b_eigenvalues_pairwise_distinct(chain12):
    # root multisets of the B-eigenvalues are the grid points selected by h
    seen = set()
    for h in np.ndindex(chain12.dims):
        roots = tuple(np.round([chain12.node(n, hn) for n, hn in enumerate(h)], 9))
        assert roots not in seen
        seen.add(roots)


def test_shift_actions_on_grid_and_off_grid(chain12, chain12_diag):
    rng = np.random.default_rng(33)
    off_grid = [complex(z) for z in random_complex(rng, size=2, box=2.5)]
    for chain in (chain12, chain12_diag):
        basis = sklyanin_basis(chain)
        report = shift_action_report(basis)  # defaults to the full grid
        assert report["a_action"] < 1e-8
        assert report["d_action"] < 1e-8
        report = shift_action_report(basis, lams=off_grid)
        assert report["a_action"] < 1e-8
        assert report["d_action"] < 1e-8


def test_a_action_at_grid_point_isolates_single_term(chain12):
    basis = sklyanin_basis(chain12)
    chain = chain12
    # in-range case: at lam = xi_1^(0) only the site-1 raising term survives
    lhs = basis.row((0, 0)) @ dense_blocks(chain, chain.node(1, 0))[0]
    want = chain.twist.k1 * chain.a(chain.node(1, 0)) * basis.row((0, 1))
    assert frob(lhs - want) / max(1.0, frob(want)) < 1e-10
    # at the bottom node of site 0 the raising coefficient a(.) vanishes and
    # the shifted index is out of range: the action annihilates the row
    lhs = basis.row((1, 1)) @ dense_blocks(chain, chain.node(0, 1))[0]
    with pytest.raises(IndexError):
        basis.row((2, 1))
    assert frob(lhs) < 1e-8 * max(1.0, frob(basis.row((1, 1))))


def test_d_action_lowering_killed_at_zero(chain1):
    # single site, h = 0: the lowering coefficient d(xi^(0)) vanishes, so the
    # D-action keeps the row proportional to itself at every lam
    basis = sklyanin_basis(chain1)
    assert abs(chain1.d(chain1.node(0, 0))) < 1e-14
    for lam in (0.9, -0.4 + 1.7j):
        acted = basis.row((0,)) @ _frame_block(chain1, lam, 1, 1)
        want = chain1.twist.conjugated()[1, 1] * (lam - chain1.node(0, 0)) * basis.row((0,))
        assert frob(acted - want) < 1e-12 * max(1.0, frob(want))


def test_sov_basis_1(chain12, ev12):
    basis = sov_basis_1(chain12, evaluator=ev12)
    assert gram_rank(basis)[0] == chain12.dim
    zero = tuple(0 for _ in chain12.sites)
    assert frob(basis.row(zero) - basis.source) < 1e-13


def test_sov_basis_1_tensor_source(chain12, ev12):
    source = tensor_generating_covector(chain12)
    basis = sov_basis_1(chain12, source=source, evaluator=ev12)
    assert gram_rank(basis)[0] == chain12.dim


@pytest.mark.parametrize("kind", ["sov1", "sov2"])
def test_shared_operator_bases_equal_single_source_calls_bitwise(chain112, ev112, kind):
    single = {"sov1": sov_basis_1, "sov2": sov_basis_2}[kind]
    sources = [None, tensor_generating_covector(chain112)]
    for basis, source in zip(_tower_bases(kind, chain112, ev112, sources), sources):
        want = single(chain112, ev112, source=source)
        assert basis.kind == want.kind == kind
        assert np.array_equal(basis.rows, want.rows) and np.array_equal(basis.source, want.source)


def test_rank_survives_a_row_beyond_the_norm_overflow(chain12):
    # entries past ~1e154 overflow the row norm; the power-of-two prescale is exact
    basis = sklyanin_basis(chain12)
    rows = basis.rows.copy()
    rows[0] *= 2.0 ** 600
    big = CovectorBasis(rows=rows, kind=basis.kind, chain=chain12, source=basis.source)
    assert gram_rank(big) == gram_rank(basis)
    assert gram_rank(big)[0] == chain12.dim


@pytest.mark.parametrize("ratio", [1e-10 * (1 - 0.5), 1e-10 * (1 + 0.5)])
def test_rank_at_the_gram_cut_is_the_svd_verdict(chain112, ratio):
    # rows F diag(s) W^H with F the unitary DFT have equal norms, so the equilibrated rows
    # keep sigma_min / sigma_max = ratio, a factor 1.5 from the gram cut 1e-10: the inverse
    # bracket cannot decide, and the rank is the SVD's (D - 1 below the cut, D above)
    dim = chain112.dim
    fourier = np.fft.fft(np.eye(dim)) / np.sqrt(dim)
    unitary = np.linalg.qr(random_complex(np.random.default_rng(8), size=(dim, dim)))[0]
    rows = (fourier * np.geomspace(1.0, ratio, dim)) @ unitary.conj().T * 3.0
    basis = CovectorBasis(rows=rows, kind="synthetic", chain=chain112, source=rows[0])
    unit = rows / np.linalg.norm(rows, axis=1)[:, None]
    svals = np.linalg.svd(unit, compute_uv=False)
    rank, (lo, hi) = gram_rank(basis)
    assert rank == int(np.sum(svals > 1e-10 * svals[0])) == dim - (ratio < 1e-10)
    assert lo == hi == svals[-1]


def test_sov_basis_charges_commute_with_transfer(chain12, ev12):
    # operators used in both tower constructions are conserved charges
    mu = 0.83 - 0.56j
    t_mu = ev12.transfer(mu)
    for n, site in enumerate(chain12.sites):
        charge1 = ev12.fused(site.two_s, chain12.node(n, site.two_s - 1))[-1]
        charge2 = ev12.fused(site.two_s, chain12.node(n, site.two_s))[-1]
        assert commutator_residual(charge1, t_mu) < 1e-10
        assert commutator_residual(charge2, t_mu) < 1e-10


def test_site_product_rows_match_per_row_products():
    import itertools

    rng = np.random.default_rng(31)
    dim = 5
    per_site = [[random_complex(rng, size=(dim, dim)) for _ in range(levels)]
                for levels in (2, 3, 2)]
    source = random_complex(rng, size=dim)
    rows = _site_product_rows(source, per_site)
    hs = list(itertools.product(*(range(len(ops)) for ops in per_site)))
    assert rows.shape == (len(hs), dim)
    for row, h in zip(rows, hs):
        want = source
        for ops, hn in zip(per_site, h):
            want = want @ ops[hn]
        assert frob(row - want) <= 1e-13 * frob(want)


def _sklyanin_rows_all_sites_held(chain):
    """Reference route: every site's A-products built first, then the rows."""
    twist, per_site = chain.twist, []
    for n, site in enumerate(chain.sites):
        ops = [np.eye(chain.dim, dtype=complex)]
        for k in range(site.two_s):
            node = chain.node(n, k)
            ops.append(ops[-1] @ _frame_block(chain, node, 0, 0)
                       / (twist.k1 * chain.a(node)))
        per_site.append(ops)
    norm = sklyanin_norm(chain)
    source = kron_chain([fused_twist(np.linalg.inv(twist.w), site.two_s)[0]
                         for site in chain.sites]).ravel()
    return _site_product_rows(source / norm, per_site)


@pytest.mark.parametrize("spins", [(1,) * 8, (2, 2, 2), (1, 2, 1)])
def test_sklyanin_streams_one_site_of_a_products(spins):
    # the A-products reach the row builder one site at a time: the rows equal
    # the all-sites-held route bit for bit, and at 1^8 the traced peak of one
    # build stays within 8 D x D complex arrays (about 18.5 with every site held)
    import tracemalloc

    chain = random_chain(spins, 1.0, TWIST_FULL, seed=7)
    tracemalloc.start()
    try:
        rows = sklyanin_basis(chain).rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(rows, _sklyanin_rows_all_sites_held(chain))
    if chain.dim >= 256:
        assert peak <= 8 * chain.dim ** 2 * 16


def test_sov_basis_2_top_row_is_source(chain12, ev12):
    basis = sov_basis_2(chain12, evaluator=ev12)
    top = tuple(site.two_s for site in chain12.sites)
    assert frob(basis.row(top) - basis.source) < 1e-13
    assert gram_rank(basis)[0] == chain12.dim


def test_sov_basis_2_matches_sklyanin(chain12, chain12_diag):
    for chain in (chain12, chain12_diag):
        ev = TransferEvaluator(chain)
        skl = sklyanin_basis(chain)
        top = tuple(site.two_s for site in chain.sites)
        b2 = sov_basis_2(chain, source=skl.row(top), evaluator=ev)
        worst = max(
            frob(b2.rows[i] - skl.rows[i]) / max(1e-300, frob(skl.rows[i]))
            for i in range(chain.dim))
        assert worst < 1e-7


def test_separate_action(chain12, chain112):
    for chain in (chain12, chain112):
        ev = TransferEvaluator(chain)
        basis = sov_basis_2(chain, evaluator=ev)
        assert separate_action_report(basis, ev) < 1e-8


def test_separate_action_boundary_coefficients(chain12):
    # raising term dies at the top of the ladder, lowering term at the bottom
    for n, site in enumerate(chain12.sites):
        assert abs(chain12.a(chain12.node(n, site.two_s))) < 1e-12
        assert abs(chain12.d(chain12.node(n, 0))) < 1e-12


def test_random_sources_almost_always_full_rank(chain12, ev12):
    # "almost any" source: at least 19 of 20 seeded draws give a basis
    hits = 0
    for trial in range(20):
        rng = np.random.default_rng((1234, trial))
        source = rng.standard_normal(chain12.dim) + 1j * rng.standard_normal(chain12.dim)
        b1 = sov_basis_1(chain12, source=source, evaluator=ev12)
        b2 = sov_basis_2(chain12, source=source, evaluator=ev12)
        if gram_rank(b1)[0] == chain12.dim and gram_rank(b2)[0] == chain12.dim:
            hits += 1
    assert hits >= 19


def test_sklyanin_with_jordan_b_zero_twist():
    # equal eigenvalues but not proportional to the identity: the conjugated
    # construction still yields a full B-eigenbasis
    chain = make_chain(1.0, [(1, XI_N2[0]), (2, XI_N2[1])],
                       np.array([[1.0, 0.0], [1.0, 1.0]]), seed=7)
    basis = sklyanin_basis(chain)
    assert gram_rank(basis)[0] == chain.dim
    assert b_eigen_report(basis, [0.4 + 0.2j, -1.1 + 0.8j]) < 1e-9
    skl_top = basis.row(tuple(site.two_s for site in chain.sites))
    ev = TransferEvaluator(chain)
    b2 = sov_basis_2(chain, source=skl_top, evaluator=ev)
    worst = max(frob(b2.rows[i] - basis.rows[i]) / max(1e-300, frob(basis.rows[i]))
                for i in range(chain.dim))
    assert worst < 1e-7


def test_degenerate_inhomogeneities_lose_rank():
    # duplicated xi collapses the covector family; the builder must flag it
    # (built as a ChainSpec: make_chain refuses a non-generic chain)
    chain = ChainSpec(eta=1.0, sites=(Site(1, XI_N2[0]), Site(1, XI_N2[0])),
                      twist=normalize_twist(TWIST_FULL), seed=7)
    basis = sklyanin_basis(chain)
    rank, _ = gram_rank(basis)
    assert rank < chain.dim


def test_tensor_covector_with_no_spanning_orbit_fails_its_rank_row():
    # K = diag(1, -1) fuses at spin 1 to diag(1, -1, 1): no orbit of powers spans C^3,
    # so the tensor-source basis loses rank; its row reports it and the suite runs on
    chain = make_chain(1.0, [(2, XI_N2[0])], np.diag([1.0, -1.0]).astype(complex), seed=7)
    report = cli.run("basis", chain, basis_kind="sov1")
    rows = {c["name"]: c for c in report["checks"]}
    assert "suite_basis.error" not in rows
    assert rows["basis.sov1.tensor_source_rank_deficit"]["value"] == 1.0


# the probe reports over their row loops on the noisy rows below, over 20 probe salts:
# 0.67 to 1.48 (each row's residual is estimated on its own k probe images)
ROW_PROBE_SPREAD = (0.6, 1.6)


def _shift_action_loop(basis, lams):
    """Row-by-row reference of shift_action_report, one cardinal set per (h, lam)."""
    from sovchain.numerics import _Barycentric

    chain = basis.chain
    twist = chain.twist
    worst_a = worst_d = 0.0
    kbar = twist.conjugated()
    for lam in lams:
        a_entry, d_entry = kbar[0, 0], kbar[1, 1]
        acted_a = basis.rows @ _frame_block(chain, lam, 0, 0)
        acted_d = basis.rows @ _frame_block(chain, lam, 1, 1)
        for i, h in enumerate(np.ndindex(chain.dims)):
            hnodes = [chain.node(n, hn) for n, hn in enumerate(h)]
            diag = np.prod([lam - z for z in hnodes])
            rhs_a = a_entry * diag * basis.rows[i]
            rhs_d = d_entry * diag * basis.rows[i]
            for n, card in enumerate(_Barycentric(hnodes).ell_cardinals(lam)[1]):
                up = list(h)
                up[n] += 1
                down = list(h)
                down[n] -= 1
                rhs_a = rhs_a + card * twist.k1 * chain.a(hnodes[n]) * _row_or_zero(basis, up)
                rhs_d = rhs_d + card * twist.k2 * chain.d(hnodes[n]) * _row_or_zero(basis, down)
            worst_a = max(worst_a, frob(acted_a[i] - rhs_a)
                          / max(1.0, frob(acted_a[i]), frob(rhs_a)))
            worst_d = max(worst_d, frob(acted_d[i] - rhs_d)
                          / max(1.0, frob(acted_d[i]), frob(rhs_d)))
    return {"a_action": worst_a, "d_action": worst_d}


def test_shift_action_report_matches_row_loop(chain123):
    chain = chain123
    rng = np.random.default_rng(12)
    lams = ([chain.node(n, k) for n, site in enumerate(chain.sites) for k in range(site.dim)]
            + [complex(z) for z in random_complex(rng, size=2, box=2.5)])
    basis = sklyanin_basis(chain)
    got = shift_action_report(basis, lams)
    want = _shift_action_loop(basis, lams)
    for key in ("a_action", "d_action"):
        assert got[key] < 1e-12 and want[key] < 1e-12
    # rows off the Sklyanin family: O(1e-6) residuals that both routes must agree on,
    # within the probe spread
    noisy = CovectorBasis(rows=basis.rows * (1 + 1e-6 * rng.standard_normal(basis.rows.shape)),
                          kind="noisy", chain=chain, source=basis.source)
    got = shift_action_report(noisy, lams)
    want = _shift_action_loop(noisy, lams)
    for key in ("a_action", "d_action"):
        assert want[key] > 1e-9
        assert ROW_PROBE_SPREAD[0] * want[key] <= got[key] <= ROW_PROBE_SPREAD[1] * want[key]


def _b_eigen_loop(basis, lams):
    """Row-by-row reference of b_eigen_report."""
    chain = basis.chain
    worst, kbar = 0.0, chain.twist.conjugated()
    for lam in lams:
        acted = basis.rows @ _frame_block(chain, lam, 0, 1)
        for i, h in enumerate(np.ndindex(chain.dims)):
            eig = kbar[0, 1]
            for n, hn in enumerate(h):
                eig *= lam - chain.node(n, hn)
            resid = acted[i] - eig * basis.rows[i]
            scale = max(1.0, abs(eig) * frob(basis.rows[i]), frob(acted[i]))
            worst = max(worst, frob(resid) / scale)
    return worst


def _separate_action_loop(basis, evaluator):
    """Row-by-row reference of separate_action_report."""
    chain = basis.chain
    twist = chain.twist
    worst = 0.0
    for h in np.ndindex(chain.dims):
        row = basis.row(h)
        for n in range(chain.n_sites):
            node = chain.node(n, h[n])
            lhs = row @ evaluator.transfer(node)
            up = list(h)
            up[n] += 1
            down = list(h)
            down[n] -= 1
            rhs = (twist.k1 * chain.a(node) * _row_or_zero(basis, up)
                   + twist.k2 * chain.d(node) * _row_or_zero(basis, down))
            worst = max(worst, frob(lhs - rhs) / max(1.0, frob(lhs), frob(rhs)))
    return worst


def _noisy(basis, rng):
    """The basis with every entry perturbed by 1e-6 relative: rows off every action identity."""
    rows = basis.rows * (1 + 1e-6 * rng.standard_normal(basis.rows.shape))
    return CovectorBasis(rows=rows, kind="noisy", chain=basis.chain, source=basis.source)


def test_b_eigen_report_matches_row_loop(chain123):
    rng = np.random.default_rng(13)
    lams = [complex(z) for z in random_complex(rng, size=3, box=2.5)]
    basis = sklyanin_basis(chain123)
    assert b_eigen_report(basis, lams) < 1e-12 and _b_eigen_loop(basis, lams) < 1e-12
    noisy = _noisy(basis, rng)
    want = _b_eigen_loop(noisy, lams)
    assert want > 1e-9
    got = b_eigen_report(noisy, lams)
    assert ROW_PROBE_SPREAD[0] * want <= got <= ROW_PROBE_SPREAD[1] * want


# separate_action_report over _separate_action_loop, measured over 20 probe salts in place
# of 609: 0.59 to 2.28 at roundoff on the 9 golden chains (at 609 itself 0.71 to 1.77),
# 0.49 to 1.91 under one evaluator sample or one basis row moved by 1e-6 (0.63 to 1.81 on
# n2_mixed, n2_spin22 and n3_mixed) and 0.81 to 1.67 on the noisy rows of chain123
SEPARATE_PROBE_SPREAD = (0.45, 2.5)


def _in_separate_spread(got, want):
    return SEPARATE_PROBE_SPREAD[0] * want <= got <= SEPARATE_PROBE_SPREAD[1] * want


def test_separate_action_report_matches_row_loop(chain123):
    rng = np.random.default_rng(14)
    ev = TransferEvaluator(chain123)
    basis = sov_basis_2(chain123, evaluator=ev)
    assert separate_action_report(basis, ev) < 1e-10
    assert _separate_action_loop(basis, ev) < 1e-10
    noisy = _noisy(basis, rng)
    want = _separate_action_loop(noisy, ev)
    assert want > 1e-9
    assert _in_separate_spread(separate_action_report(noisy, ev), want)


@pytest.mark.parametrize("name", list(GOLDEN_CHAINS))
def test_separate_action_report_reads_the_row_loop_on_the_goldens(name):
    chain = GOLDEN_CHAINS[name]()
    ctx = cli._RunContext(chain)
    basis, ev = ctx.sov2(), ctx.evaluator()
    assert _in_separate_spread(separate_action_report(basis, ev), _separate_action_loop(basis, ev))


@pytest.mark.parametrize("config", ["n2_mixed", "n2_spin22", "n3_mixed"])
def test_a_1e_6_defect_fails_the_separate_action_in_spread(config):
    chain = chain_from_config(load_config(config))
    ev = TransferEvaluator(chain)
    basis = sov_basis_2(chain, evaluator=ev)
    # one basis row
    rows = basis.rows.copy()
    rows[1] += 1e-6 * np.max(np.abs(rows[1]))
    kicked = CovectorBasis(rows=rows, kind="kicked", chain=chain, source=basis.source)
    got, want = separate_action_report(kicked, ev), _separate_action_loop(kicked, ev)
    assert got > 1e-8 and _in_separate_spread(got, want)
    # one entry of one evaluator sample, the basis built before it moved
    sample_defect(ev)
    got, want = separate_action_report(basis, ev), _separate_action_loop(basis, ev)
    assert got > 1e-8 and _in_separate_spread(got, want)


FRAME_BLOCKS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _conjugated_twist_blocks(chain, lam):
    """Blocks (0, 0), (0, 1), (1, 0), (1, 1) of the monodromy built with the twist K_bar = W^-1 K W."""
    ops, eye = _site_laxes(chain, lam), np.eye(2, dtype=complex)
    return [_lax_chain(ops, eye[:, j:j + 1], chain.twist.conjugated(), eye[i:i + 1])
            for i, j in FRAME_BLOCKS]


def _w_glob(chain):
    """The dense D x D conjugator: the fused W on every site."""
    return kron_chain([fused_twist(chain.twist.w, site.two_s) for site in chain.sites])


def _dense_frame_blocks(chain, lam):
    """Reference route of the frame blocks: W_glob block(K_bar) W_glob^-1."""
    w_glob = _w_glob(chain)
    w_inv = np.linalg.inv(w_glob)
    return [w_glob @ block @ w_inv for block in _conjugated_twist_blocks(chain, lam)]


def _dense_frame_sklyanin_rows(chain):
    """Reference route of sklyanin_basis: products of the K_bar A blocks, times W_glob^-1."""
    per_site = []
    for n, site in enumerate(chain.sites):
        ops = [np.eye(chain.dim, dtype=complex)]
        for k in range(site.two_s):
            node = chain.node(n, k)
            a_block = _conjugated_twist_blocks(chain, node)[0]
            ops.append(ops[-1] @ a_block / (chain.twist.k1 * chain.a(node)))
        per_site.append(ops)
    rows = _site_product_rows(np.eye(chain.dim)[0] / sklyanin_norm(chain), per_site)
    return rows @ np.linalg.inv(_w_glob(chain))


@pytest.mark.parametrize("name", sorted(B_ZERO_TWISTS))
@pytest.mark.parametrize("spins", [(1, 2, 1), (2, 2, 2, 2), (1, 3)])
def test_frame_matches_dense_conjugation(name, spins):
    chain = random_chain(spins, 1.0, B_ZERO_TWISTS[name], seed=7)
    assert not np.allclose(chain.twist.w, np.eye(2))
    for lam in (0.3 - 0.7j, chain.node(0, 0)):
        for (i, j), ref in zip(FRAME_BLOCKS, _dense_frame_blocks(chain, lam)):
            got = _frame_block(chain, lam, i, j)
            assert frob(got - ref) <= 1e-13 * frob(ref)
    basis = sklyanin_basis(chain)
    want = _dense_frame_sklyanin_rows(chain)
    assert np.max(np.linalg.norm(basis.rows - want, axis=1)
                  / np.linalg.norm(want, axis=1)) < 1e-13
    assert b_eigen_report(basis, [0.4 + 0.2j, -1.1 + 0.8j]) < 1e-12
    report = shift_action_report(basis)
    assert report["a_action"] < 1e-12 and report["d_action"] < 1e-12


def test_frame_is_the_plain_monodromy_for_b_nonzero(chain12):
    lam = 0.3 - 0.7j
    for (i, j), want in zip(FRAME_BLOCKS, dense_blocks(chain12, lam)):
        assert np.array_equal(_frame_block(chain12, lam, i, j), want)
    assert np.array_equal(chain12.twist.conjugated(), chain12.twist.matrix)


def _summed_monodromy_blocks(chain, lam):
    """Frame blocks as sums of the 2D x 2D monodromy's blocks, (W^-1)_ia W_bj M_ab."""
    w, w_inv = chain.twist.w, np.linalg.inv(chain.twist.w)
    a, b, c, d = dense_blocks(chain, lam)
    m = np.block([[a, b], [c, d]]).reshape(2, chain.dim, 2, chain.dim)

    def block(i, j):
        coeff = np.outer(w_inv[i], w[:, j])
        return sum(coeff[a, b] * m[a, :, b] for a, b in zip(*np.nonzero(coeff)))

    return block


@pytest.mark.parametrize("name", ["n1_spin_half", "n2_mixed", "n2_mixed_diagonal", "n2_spin22",
                                  "n3_mixed", "spins_121", "spins_121_mixing"])
def test_direct_frame_blocks_match_summed_monodromy_blocks(name):
    if name.startswith("spins_121"):
        twist = B_ZERO_TWISTS["mixing"] if name.endswith("mixing") else TWIST_FULL
        chain = random_chain((1, 2, 1), 1.0, twist, seed=7)
    else:
        chain = chain_from_config(load_config(name))
    for lam in (0.3 - 0.7j, -1.4 + 2.2j, chain.node(0, 0), chain.node(chain.n_sites - 1, 1)):
        want = _summed_monodromy_blocks(chain, lam)
        for i, j in FRAME_BLOCKS:
            ref = want(i, j)
            assert frob(_frame_block(chain, lam, i, j) - ref) <= 1e-15 * frob(ref)
