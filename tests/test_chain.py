import dataclasses
import warnings

import numpy as np
import pytest

from sovchain.chain import (_MIX, _MIX2, ChainSpec, Site, Tolerances, fused_twist,
                            genericity_check, index_of, make_chain, normalize_twist, random_chain)
from sovchain.errors import (GenericityViolation, SimpleSpectrumViolation,
                             SingularTwistWarning)
from sovchain.local_ops import kron_chain
from conftest import TWIST_DIAG, TWIST_FULL
from regen_golden import CHAINS as GOLDEN_CHAINS
from test_local_ops import _fresh_symmetric_basis
from test_sov_bases import B_ZERO_TWISTS


def test_scalar_functions_hand_case(chain1):
    # xi = 0, eta = 1, s = 1/2: a(lam) = lam + 1, d(lam) = lam
    for lam in (0.0, 0.5, -1.3 + 2.2j):
        assert abs(chain1.a(lam) - (lam + 1)) < 1e-14
        assert abs(chain1.d(lam) - lam) < 1e-14


def test_node_grid_hand_case(chain1):
    assert abs(chain1.node(0, 0) - 0.0) < 1e-14
    assert abs(chain1.node(0, 1) - (-1.0)) < 1e-14


def test_node_grid_structure(chain12):
    for n, site in enumerate(chain12.sites):
        nodes = np.array([chain12.node(n, k) for k in range(site.dim)])
        xim = site.xi - chain12.eta / 2
        assert abs(nodes[0] - (xim + site.spin * chain12.eta)) < 1e-14
        assert abs(nodes[-1] - (xim - site.spin * chain12.eta)) < 1e-14
        steps = np.diff(nodes)
        assert np.allclose(steps, -chain12.eta)


def test_a_d_vanish_at_grid_ends(chain12, chain112):
    for chain in (chain12, chain112):
        for n, site in enumerate(chain.sites):
            assert abs(chain.d(chain.node(n, 0))) < 1e-12
            assert abs(chain.a(chain.node(n, site.two_s))) < 1e-12


def test_a_over_d_tends_to_one(chain12):
    lam = 1e8 + 1e7j
    assert abs(chain12.a(lam) / chain12.d(lam) - 1.0) < 1e-6


def test_quantum_det_scalar_hand_case(chain1):
    # det K = 2, a(lam) d(lam - 1) = (lam + 1)(lam - 1)
    for lam in (0.3, 1.7 - 0.4j):
        assert abs(chain1.det_q(lam) - 2 * (lam + 1) * (lam - 1)) < 1e-12


def test_quantum_det_vanishes_at_bottom_node(chain12):
    for n, site in enumerate(chain12.sites):
        assert abs(chain12.det_q(chain12.node(n, site.two_s))) < 1e-10


def test_quantum_det_scales_with_det_k(chain12):
    twist_id = normalize_twist(np.array([[1.0, 0.2], [0.0, 3.0]]))
    chain_b = make_chain(chain12.eta, [(s.two_s, s.xi) for s in chain12.sites],
                         twist_id, seed=chain12.seed)
    lam = 0.9 - 0.4j
    ratio = chain_b.det_q(lam) / (chain_b.a(lam) * chain_b.d(lam - chain_b.eta))
    assert abs(ratio - 3.0) < 1e-12


def test_normalize_twist_diagonal():
    tw = normalize_twist(np.diag([2.0, 1.0]).astype(complex))
    assert tw.k1 == pytest.approx(2.0)
    assert tw.k2 == pytest.approx(1.0)
    assert not np.allclose(tw.w, np.eye(2))   # b = 0: a proper conjugator
    kbar = tw.conjugated()
    assert abs(kbar[0, 1] - 0.5) < 1e-12
    assert abs(kbar[1, 0] - 0.5) < 1e-12


def test_normalize_twist_antiperiodic():
    tw = normalize_twist(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert tw.k1 == pytest.approx(1.0)
    assert tw.k2 == pytest.approx(-1.0)
    assert np.array_equal(tw.w, np.eye(2))


def test_normalize_twist_lower_triangular_paths():
    # non-diagonalizable b=0 twist: the fixed rotation _MIX serves as conjugator
    tw = normalize_twist(np.array([[1.0, 0.0], [1.0, 1.0]]))
    kbar = tw.conjugated()
    assert min(abs(kbar[0, 1]), abs(kbar[1, 0])) > 0.1
    # c = d - a defeats _MIX; the second fixed involution _MIX2 takes over
    tw = normalize_twist(np.array([[1.0, 0.0], [1.0, 2.0]]))
    kbar = tw.conjugated()
    assert min(abs(kbar[0, 1]), abs(kbar[1, 0])) > 0.1


_A, _D = 1.3 + 0.2j, -0.5 + 0.9j
# (a, c, d) of the b = 0 twist [[a, 0], [c, d]] of each class; _MIX fails only at c = +-(d - a)
B_ZERO_CLASSES = {
    "diagonal": (_A, 0.0, _D),
    "lower": (_A, 0.7 - 0.4j, _D),
    "jordan": (1.0, 1.0, 1.0),
    "c = d - a": (_A, _D - _A, _D),
    "c = a - d": (_A, _A - _D, _D),
    "c = 2(d - a)": (_A, 2 * (_D - _A), _D),
    "c = (a - d)/2": (_A, (_A - _D) / 2, _D),
}


@pytest.mark.parametrize("name", list(B_ZERO_CLASSES))
def test_b_zero_frame_is_a_fixed_involution(name):
    a, c, d = B_ZERO_CLASSES[name]
    tw = normalize_twist(np.array([[a, 0.0], [c, d]]))
    assert np.array_equal(tw.w, _MIX2 if name in ("c = d - a", "c = a - d") else _MIX)
    assert np.max(np.abs(tw.w @ tw.w - np.eye(2))) < 1e-12
    assert abs(np.linalg.cond(tw.w) - 1.0) < 1e-12
    kbar = tw.conjugated()
    # at least max(|d - a|, |c|) / 5 on these classes: _MIX2's bound, met at c = d - a
    assert min(abs(kbar[0, 1]), abs(kbar[1, 0])) >= 0.2 * max(abs(d - a), abs(c)) - 1e-12


def test_b_zero_frame_is_mix_wherever_mix_clears_the_floor():
    chains = [chain() for chain in GOLDEN_CHAINS.values()]
    twists = [c.twist for c in chains if c.twist.matrix[0, 1] == 0]
    assert twists     # the diagonal golden config
    twists += [normalize_twist(k) for name, k in B_ZERO_TWISTS.items() if name != "mixing"]
    twists.append(normalize_twist(TWIST_DIAG))
    for tw in twists:
        assert np.array_equal(tw.w, _MIX)
    for c in chains:
        if c.twist.matrix[0, 1] != 0:
            assert np.array_equal(c.twist.w, np.eye(2))


@pytest.mark.parametrize("c_over_gap", [0.0, 1.0, -1.0])
def test_near_identity_b_zero_twist_gets_a_frame(c_over_gap):
    # d - a = 3e-12 clears the identity cut (1e-12) by a factor of 1.5 on the diagonal
    gap = 3e-12
    tw = normalize_twist(np.array([[1.0, 0.0], [c_over_gap * gap, 1.0 + gap]]))
    kbar = tw.conjugated()
    assert min(abs(kbar[0, 1]), abs(kbar[1, 0])) > 0


def test_normalize_twist_rejects_identity_multiple():
    with pytest.raises(SimpleSpectrumViolation):
        normalize_twist(np.eye(2))
    with pytest.raises(SimpleSpectrumViolation):
        normalize_twist(2.5j * np.eye(2))


def test_normalize_twist_warns_on_singular():
    with pytest.warns(SingularTwistWarning):
        tw = normalize_twist(np.diag([1.0, 0.0]).astype(complex))
    assert not tw.invertible


def test_normalize_twist_warns_exactly_when_not_invertible():
    # eigenvalues 1 and 1e-7 under an entry of 1e8: invertible, so no warning, though
    # det K is under 1e-14 times the largest entry squared
    with warnings.catch_warnings():
        warnings.simplefilter("error", SingularTwistWarning)
        tw = normalize_twist(np.array([[1.0, 1e8], [0.0, 1e-7]]))
    assert tw.invertible
    with pytest.warns(SingularTwistWarning):
        tw = normalize_twist(np.array([[1.0, 1e8], [0.0, 0.0]]))
    assert not tw.invertible


def test_normalize_twist_shape_check():
    with pytest.raises(ValueError):
        normalize_twist(np.eye(3))


def test_fused_twist_level_one_is_k():
    assert np.allclose(fused_twist(TWIST_FULL, 1), TWIST_FULL)


def test_fused_twist_diagonal_spectrum():
    fused = fused_twist(np.diag([2.0, 3.0]).astype(complex), 2)
    vals = np.sort(np.linalg.eigvals(fused).real)
    assert np.allclose(vals, [4.0, 6.0, 9.0])


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_fused_twist_spectrum_general(level):
    tw = normalize_twist(TWIST_FULL)
    fused = fused_twist(tw, level)
    got = np.sort_complex(np.linalg.eigvals(fused))
    want = np.sort_complex(np.array(
        [tw.k1 ** (level + 1 - h) * tw.k2 ** (h - 1) for h in range(1, level + 2)]))
    assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))
    assert len(set(np.round(got, 8))) == level + 1


@pytest.mark.parametrize("level", [1, 2, 3])
def test_fused_twist_is_cached_and_read_only(level):
    got = fused_twist(normalize_twist(TWIST_FULL), level)
    assert got is fused_twist(TWIST_FULL.copy(), level)
    u = _fresh_symmetric_basis(level)
    fresh = u.conj().T @ kron_chain([TWIST_FULL] * level) @ u
    assert np.array_equal(got, fresh)
    with pytest.raises(ValueError):
        got[0, 0] = 0.0


def test_genericity_pass_and_fail():
    ok = make_chain(1.0, [(1, 0.0), (1, 10.0)], TWIST_FULL)
    assert genericity_check(ok) is None
    with pytest.raises(GenericityViolation):
        make_chain(1.0, [(1, 0.0), (1, 1.0)], TWIST_FULL)


def test_genericity_catches_grid_collision():
    # xi_2 - xi_1 = 2 eta makes grid nodes of the two sites collide
    with pytest.raises(GenericityViolation):
        make_chain(1.0, [(1, 0.0), (2, 2.0)], TWIST_FULL)
    # a half-integer shift passes the xi window but not the node grid
    with pytest.raises(GenericityViolation, match="site 0 node 0 vs site 1 node 1"):
        make_chain(1.0, [(1, 0.0), (2, 0.5), (3, 7.3j)], TWIST_FULL)


@pytest.mark.parametrize("eta, xi, match", [
    (0.0, 0.3, "within tolerance of 0"), (1e-9j, 0.3, "within tolerance of 0"),
    (complex("nan"), 0.3, "finite"), (complex("inf"), 0.3, "finite"),
    (1.0, complex("nan"), "finite"), (1.0, complex(0, float("-inf")), "finite"),
])
def test_genericity_rejects_zero_and_non_finite_parameters(eta, xi, match):
    # each one passed: eta = 0 stacks a site's nodes, and NaN compares as no collision
    with pytest.raises(GenericityViolation, match=match):
        make_chain(eta, [(1, xi), (2, 2.7 + 1.1j)], TWIST_FULL)


@pytest.mark.parametrize("entry", [complex("nan"), complex("inf"), complex(0, float("-inf"))])
def test_non_finite_twist_entry_is_a_value_error(entry):
    twist = [[0.9, 0.3], [0.2, entry]]
    with pytest.raises(ValueError, match=r"twist entry \(1, 1\) is not finite"):
        make_chain(1.0, [(1, 0.0), (1, 2.5 + 1j)], twist)
    with pytest.raises(ValueError, match=r"twist entry \(1, 1\) is not finite"):
        random_chain([1, 2], 1.0, twist, seed=3)


def test_negative_seed_is_refused_by_chain_spec_itself():
    # a ChainSpec built directly (as for a deliberately non-generic chain) refuses a
    # negative seed too: chain.rng would fail in every suite; make_chain reaches this check
    chain = make_chain(1.0, [(1, 0.0), (1, 2.5 + 1j)], TWIST_FULL, seed=2)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -2"):
        ChainSpec(eta=chain.eta, sites=chain.sites, twist=chain.twist, seed=-2)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -2"):
        dataclasses.replace(chain, seed=-2)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        make_chain(1.0, chain.sites, chain.twist, seed=-1)
    assert ChainSpec(eta=chain.eta, sites=chain.sites, twist=chain.twist).seed == 0


def test_random_chain_generic():
    chain = random_chain([1, 2], 1.0, TWIST_FULL, seed=0)
    genericity_check(chain)
    # deterministic for a fixed seed
    again = random_chain([1, 2], 1.0, TWIST_FULL, seed=0)
    assert all(a.xi == b.xi for a, b in zip(chain.sites, again.sites))


def test_site_validation():
    with pytest.raises(ValueError):
        Site(0, 0.0)
    with pytest.raises(ValueError):
        make_chain(1.0, [], TWIST_FULL)


def test_multi_index_order(chain12):
    assert chain12.dim == 6
    assert index_of(chain12, (0, 0)) == 0
    assert index_of(chain12, (0, 1)) == 1
    assert index_of(chain12, (1, 2)) == 5
    for i, h in enumerate(np.ndindex(chain12.dims)):
        assert index_of(chain12, h) == i
    with pytest.raises(IndexError):
        index_of(chain12, (0, 3))


def test_tolerances_defaults():
    tol = Tolerances()
    assert tol.zero == 1e-8 and tol.gram == 1e-10
    assert ChainSpec.tolerances == tol


def test_replace_gives_fresh_shape_cache(chain12):
    assert chain12.dims == (2, 3) and chain12.dim == 6
    one_site = dataclasses.replace(chain12, sites=chain12.sites[:1])
    assert one_site.dims == (2,) and one_site.dim == 2
    assert chain12.dims == (2, 3) and chain12.dim == 6


def test_grid_holds_nodes_and_a_d_read_only():
    chain = make_chain(1.0, [(2, 0.3 - 0.2j), (1, 1.7 + 0.4j)], TWIST_FULL, seed=7)
    for n, site_grid in enumerate(chain.grid):
        nodes, a, d = site_grid
        assert np.array_equal(nodes, [chain.node(n, k) for k in range(len(nodes))])
        assert np.array_equal(a, [chain.a(z) for z in nodes])
        assert np.array_equal(d, [chain.d(z) for z in nodes])
        with pytest.raises(ValueError):
            site_grid[1, 0] = 0.0
