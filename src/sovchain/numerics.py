"""Small numeric helpers shared by the verification routines.

All residuals reported by this library follow one convention:
``||x||_F / max(1, ||reference||_F)``, so identities between large operators
are judged on the scale of the operators involved. Every operator-identity row
estimates it on k = 8 Gaussian probes (``transfer._probe_residual``) from
``chain.rng`` at salt 601 RTT, 602 quantum determinant, 603 twist symmetry, 604
B-eigen, 605 A/D shifts, 606 fusion, 608 Q-operator, 609 separate action. The
one exception, ``cli._basis_difference``, compares bases up to a fitted global
scale, which has no absolute unit: it divides by max(1e-300, ||ref row||).

``_Barycentric`` is the one place the interpolant of T and its eigenvalues is written, tr K
ell(lam) + sum_a c_a(lam) x_a: ``transfer``, ``spectrum`` and ``sov_bases`` read ell and the
cardinals c_a from it, and the Q closure of ``baxter`` the cardinals alone.
"""

from __future__ import annotations

import numpy as np

CDTYPE = np.complex128


def frob(x) -> float:
    """Frobenius norm as one BLAS dot product, with no |x|^2 temporary."""
    x = np.asarray(x)
    return float(np.sqrt(np.vdot(x, x).real))


def random_complex(rng, size=None, box=3.0):
    """Uniform complex samples in a centered square of half-side ``box``."""
    re = rng.uniform(-box, box, size=size)
    im = rng.uniform(-box, box, size=size)
    return re + 1j * im


def greedy_match(got, want):
    """Each want[i] in turn takes its nearest unused entry of ``got`` (max norm over trailing axes).

    Returns (indices, distances, is_bijection): want[i] is matched to
    got[indices[i]] at distances[i]; is_bijection says whether the plain
    nearest match is a bijection (then it is this pairing). A repeated
    wanted value leaves the flag False but its distances small.
    """
    got, want = (np.reshape(v, (len(v), np.prod(np.shape(v)[1:], dtype=int))) for v in (got, want))
    dist = np.zeros((len(want), len(got)))   # dist[i, j]: want[i] to got[j], one column at a time
    for k in range(got.shape[1]):
        np.maximum(dist, np.abs(want[:, k, None] - got[:, k]), out=dist)
    free, indices = np.ones(len(got), dtype=bool), []
    for row in dist:
        indices.append(int(np.argmin(np.where(free, row, np.inf))))
        free[indices[-1]] = False
    nearest = len(got) == len(want) and indices == [int(np.argmin(row)) for row in dist]
    return indices, dist[np.arange(len(want)), indices], nearest


def lagrange_cardinal(nodes, j, lam):
    """j-th Lagrange cardinal polynomial over ``nodes`` evaluated at ``lam``."""
    nodes = np.asarray(nodes)
    num = 1.0 + 0.0j
    den = 1.0 + 0.0j
    for m, node in enumerate(nodes):
        if m == j:
            continue
        num *= lam - node
        den *= nodes[j] - node
    return num / den


class _Barycentric:
    """Lagrange interpolation over fixed nodes x_j in the first barycentric form.

    The degree-n polynomial with leading coefficient ``lead`` through v_j at the n nodes
    is lead ell(lam) + sum_j c_j(lam) v_j, ell(lam) = prod_j (lam - x_j), with the cardinals
    c_j = ell w_j / (lam - x_j) and the weights w_j = 1 / prod_{k != j} (x_j - x_k), computed
    once per node set, so an evaluation costs O(n). Berrut & Trefethen, SIAM Rev. 46 (2004)
    501; Higham, IMA J. Numer. Anal. 24 (2004) 547 (backward stability of this form).
    ``nodes`` may stack several node sets along leading axes.
    """

    def __init__(self, nodes):
        self.nodes = np.asarray(nodes, dtype=CDTYPE)
        diff = self.nodes[..., :, None] - self.nodes[..., None, :]
        diag = np.arange(self.nodes.shape[-1])
        diff[..., diag, diag] = 1.0
        self.weights = 1.0 / np.prod(diff, axis=-1)

    def ell_cardinals(self, lam):
        """(ell, cardinals) per node set from one difference array lam - x, ``lam`` carrying a
        trailing axis against the nodes: at node j, ell is 0 and the cardinals are e_j."""
        diff = lam - self.nodes
        hit = diff == 0
        ell = np.prod(diff, axis=-1)
        out = ell[..., None] * self.weights / np.where(hit, 1.0, diff)
        on_node = hit.any(axis=-1)
        out[on_node] = hit[on_node]
        return ell, out


def poly_coeffs_from_samples(nodes, values):
    """Coefficients (ascending) of the degree len(nodes)-1 interpolant of each row of ``values``.

    Solved as one column-scaled Vandermonde least-squares problem, one
    right-hand side per row; with as many values as nodes the fit is exact
    up to roundoff.
    """
    nodes = np.asarray(nodes, dtype=CDTYPE)
    values = np.asarray(values, dtype=CDTYPE)
    deg = len(nodes) - 1
    v = np.vander(nodes, deg + 1, increasing=True)
    col_scale = np.maximum(np.abs(v).max(axis=0), 1e-300)
    coeffs, *_ = np.linalg.lstsq(v / col_scale, values.T, rcond=None)
    return coeffs.T / col_scale


def poly_eval(coeffs, lam):
    """Horner evaluation, ``coeffs`` ascending along the last axis; a (D, L) stack gives
    (D, P) at points (P,), read as (1, P) so that one row rounds as in a taller stack,
    or row d at lam[d] for lam of shape (D, P)."""
    coeffs, lam = np.asarray(coeffs), np.asarray(lam)
    tail = (1,) if coeffs.ndim > 1 and lam.ndim else ()
    lam = lam[None] if tail and lam.ndim == 1 else lam
    result = 0.0 + 0.0j
    for c in np.moveaxis(coeffs, -1, 0)[::-1]:
        result = result * lam + c.reshape(c.shape + tail)
    return result

