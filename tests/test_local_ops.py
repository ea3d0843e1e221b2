import itertools
import math

import numpy as np
import pytest

from sovchain.local_ops import (kron_embed, lax, permutation_4x4, r_matrix, spin_matrices,
                                symmetric_basis)
from sovchain.numerics import frob, random_complex


def _permutation_matrix(perm, m):
    """Matrix of v_1 x ... x v_m -> v_perm(1) x ... x v_perm(m) on (C^2)^m."""
    dim = 2 ** m
    mat = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        bits = [(idx >> (m - 1 - k)) & 1 for k in range(m)]
        # output leg k carries the vector from input leg perm[k]
        out_bits = [bits[perm[k]] for k in range(m)]
        out = 0
        for b in out_bits:
            out = (out << 1) | b
        mat[out, idx] = 1.0
    return mat


def symmetrizer(m):
    """Reference route: symmetric projector on (C^2)^m, the mean of all m! permutations."""
    dim = 2 ** m
    total = np.zeros((dim, dim), dtype=complex)
    for perm in itertools.permutations(range(m)):
        total += _permutation_matrix(perm, m)
    return total / math.factorial(m)


def test_spin_half_is_pauli():
    ops = spin_matrices(1)
    assert np.allclose(ops.sz, np.diag([0.5, -0.5]))
    assert np.allclose(ops.sp, [[0, 1], [0, 0]])
    assert np.allclose(ops.sm, [[0, 0], [1, 0]])


def test_spin_one_entries():
    # x(j) = sqrt(j (3 - j)) for j = 1, 2 gives sqrt(2) twice
    ops = spin_matrices(2)
    assert np.allclose(ops.sz, np.diag([1.0, 0.0, -1.0]))
    assert np.allclose(np.diag(ops.sp, 1), [np.sqrt(2), np.sqrt(2)])
    assert np.allclose(ops.sp, ops.sm.T)


@pytest.mark.parametrize("two_s", [1, 2, 3, 4, 5])
def test_spin_algebra_relations(two_s):
    ops = spin_matrices(two_s)
    s = two_s / 2.0
    eye = np.eye(two_s + 1)
    assert frob(ops.sz @ ops.sp - ops.sp @ ops.sz - ops.sp) < 1e-13
    assert frob(ops.sz @ ops.sm - ops.sm @ ops.sz + ops.sm) < 1e-13
    assert frob(ops.sp @ ops.sm - ops.sm @ ops.sp - 2 * ops.sz) < 1e-13
    # Casimir combination S+ S- + Sz (Sz - 1) = s (s + 1)
    assert frob(ops.sp @ ops.sm + ops.sz @ (ops.sz - eye) - s * (s + 1) * eye) < 1e-13


def test_spin_matrices_rejects_zero():
    with pytest.raises(ValueError):
        spin_matrices(0)


def test_r_matrix_at_zero_is_permutation():
    eta = 0.7 - 0.2j
    assert np.allclose(r_matrix(0.0, eta), eta * permutation_4x4())


def test_r_matrix_entries():
    r = r_matrix(1.0, 1.0)
    assert np.allclose(np.diag(r), [2, 1, 1, 2])
    assert r[1, 2] == r[2, 1] == 1.0


def test_yang_baxter_equation():
    rng = np.random.default_rng(42)
    dims = [2, 2, 2]
    worst = 0.0
    for _ in range(20):
        lam, mu = random_complex(rng, size=2)
        eta = complex(random_complex(rng))
        r12 = kron_embed(r_matrix(lam - mu, eta), [0, 1], dims)
        r13 = kron_embed(r_matrix(lam, eta), [0, 2], dims)
        r23 = kron_embed(r_matrix(mu, eta), [1, 2], dims)
        lhs = r12 @ r13 @ r23
        rhs = r23 @ r13 @ r12
        worst = max(worst, frob(lhs - rhs) / max(1.0, frob(lhs)))
    assert worst < 1e-12


def test_lax_fundamental_equals_r_matrix():
    for lam, eta in [(0.3 + 0.8j, 1.0), (-1.2j, 0.5 + 0.5j)]:
        assert np.allclose(lax(lam, 1, eta), r_matrix(lam, eta))
    # at lam = 0 both reduce to eta times the swap
    assert np.allclose(lax(0.0, 1, 1.0), permutation_4x4())


@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_lax_exchange_relation(two_s):
    rng = np.random.default_rng(7 + two_s)
    eta = 1.0
    dims = [2, 2, two_s + 1]
    worst = 0.0
    for _ in range(20):
        lam, mu = random_complex(rng, size=2)
        r12 = kron_embed(r_matrix(lam - mu, eta), [0, 1], dims)
        l1 = kron_embed(lax(lam, two_s, eta), [0, 2], dims)
        l2 = kron_embed(lax(mu, two_s, eta), [1, 2], dims)
        lhs = r12 @ l1 @ l2
        rhs = l2 @ l1 @ r12
        worst = max(worst, frob(lhs - rhs) / max(1.0, frob(lhs)))
    assert worst < 1e-12


@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_lax_commutes_with_fused_twist_pair(two_s):
    from sovchain.local_ops import fuse_2x2

    rng = np.random.default_rng(11)
    k = random_complex(rng, size=(2, 2))
    big = np.kron(k, fuse_2x2(k, two_s))
    l_op = lax(0.37 - 0.41j, two_s, 0.9 + 0.1j)
    assert frob(l_op @ big - big @ l_op) / max(1.0, frob(big)) < 1e-12


def test_symmetrizer_m1_is_identity():
    assert np.allclose(symmetrizer(1), np.eye(2))


def test_symmetrizer_m2():
    p = symmetrizer(2)
    assert np.allclose(p, (np.eye(4) + permutation_4x4()) / 2)
    assert abs(np.trace(p) - 3) < 1e-13


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_symmetrizer_projector_properties(m):
    p = symmetrizer(m)
    assert frob(p @ p - p) < 1e-12
    assert abs(np.trace(p) - (m + 1)) < 1e-12
    assert np.linalg.matrix_rank(p) == m + 1
    # invariant under any adjacent transposition
    for k in range(m - 1):
        perm = list(range(m))
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
        mat = _permutation_matrix(perm, m)
        assert frob(mat @ p - p) < 1e-12
        assert frob(p @ mat - p) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_symmetric_basis_spans_projector(m):
    u = symmetric_basis(m)
    assert np.allclose(u.conj().T @ u, np.eye(m + 1))
    assert frob(u @ u.conj().T - symmetrizer(m)) < 1e-12


def _fresh_symmetric_basis(m):
    """Loop build of the symmetric basis, the reference for the cached one."""
    basis = np.zeros((2 ** m, m + 1), dtype=complex)
    for idx in range(2 ** m):
        basis[idx, bin(idx).count("1")] = 1.0
    return basis / np.sqrt(np.sum(np.abs(basis) ** 2, axis=0))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_symmetric_basis_is_cached_and_read_only(m):
    u = symmetric_basis(m)
    assert u is symmetric_basis(m)
    assert np.array_equal(u, _fresh_symmetric_basis(m))
    with pytest.raises(ValueError):
        u[0, 0] = 0.0
    with pytest.raises(ValueError):
        symmetric_basis(0)


def test_kron_embed_identity():
    dims = [2, 3, 2]
    out = kron_embed(np.eye(3), [1], dims)
    assert np.allclose(out, np.eye(12))


def test_kron_embed_single_site():
    sz = np.diag([1.0, -1.0])
    out = kron_embed(sz, [0], [2, 2])
    assert np.allclose(out, np.kron(sz, np.eye(2)))


def test_kron_embed_leg_order_permutation():
    # embedding on legs (1, 0) equals the basis-permutation conjugate of (0, 1)
    rng = np.random.default_rng(3)
    op = random_complex(rng, size=(4, 4))
    dims = [2, 2]
    swapped = kron_embed(op, [1, 0], dims)
    direct = kron_embed(op, [0, 1], dims)
    p = permutation_4x4()
    assert frob(swapped - p @ direct @ p) < 1e-13


def test_kron_embed_errors():
    with pytest.raises(ValueError):
        kron_embed(np.eye(2), [0, 0], [2, 2])
    with pytest.raises(ValueError):
        kron_embed(np.eye(3), [0], [2, 2])


def test_lax_matches_block_form():
    # lam Id + eta P with P cached per spin: same entries as the block formula
    rng = np.random.default_rng(8)
    for _ in range(60):
        lam, eta = random_complex(rng, size=2)
        two_s = int(rng.integers(1, 6))
        ops = spin_matrices(two_s)
        eye = np.eye(two_s + 1)
        want = np.block([[lam * eye + eta * (0.5 * eye + ops.sz), eta * ops.sm],
                         [eta * ops.sp, lam * eye + eta * (0.5 * eye - ops.sz)]])
        got = lax(lam, two_s, eta)
        assert np.array_equal(got, want)
        got[0, 0] = 99.0   # the result belongs to the caller, not to the cache
        assert np.array_equal(lax(lam, two_s, eta), want)
