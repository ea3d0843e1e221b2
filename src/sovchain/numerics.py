"""Small numeric helpers shared by the verification routines.

All residuals reported by this library follow one convention:
``||x||_F / max(1, ||reference||_F)``, so identities between large operators
are judged on the scale of the operators involved.
"""

from __future__ import annotations

import numpy as np

CDTYPE = np.complex128


def frob(x) -> float:
    return float(np.linalg.norm(np.asarray(x)))


def commutator_residual(a, b) -> float:
    """||[a, b]|| relative to ||a||*||b||."""
    return frob(a @ b - b @ a) / max(1.0, frob(a) * frob(b))


def random_complex(rng, size=None, box=3.0):
    """Uniform complex samples in a centered square of half-side ``box``."""
    re = rng.uniform(-box, box, size=size)
    im = rng.uniform(-box, box, size=size)
    return re + 1j * im


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
    """Lagrange interpolation over fixed nodes in the first barycentric form.

    The weights w_j = 1 / prod_{k != j} (x_j - x_k) are computed once per node
    set, so an evaluation costs O(n). At a node the exact stored value is
    returned. Berrut & Trefethen, SIAM Rev. 46 (2004) 501; Higham, IMA J.
    Numer. Anal. 24 (2004) 547 (backward stability of this form).
    """

    def __init__(self, nodes):
        self.nodes = np.asarray(nodes, dtype=CDTYPE)
        diff = self.nodes[:, None] - self.nodes[None, :]
        np.fill_diagonal(diff, 1.0)
        self.weights = 1.0 / np.prod(diff, axis=1)

    def cardinals(self, lam) -> np.ndarray:
        """All cardinal polynomials at ``lam``; the unit vector e_j at node j."""
        diff = lam - self.nodes
        hit = np.flatnonzero(diff == 0)
        if hit.size:
            out = np.zeros(len(self.nodes), dtype=CDTYPE)
            out[hit[0]] = 1.0
            return out
        return np.prod(diff) * self.weights / diff

    def __call__(self, values, lam, lead=0.0) -> complex:
        """Degree-n polynomial with leading coefficient ``lead`` through ``values``.

        That is ell(lam) [lead + sum_j w_j values_j / (lam - x_j)], with
        ell(lam) = prod_j (lam - x_j); ``values[j]`` exactly at node j.
        """
        diff = lam - self.nodes
        hit = diff == 0
        if hit.any():
            return complex(values[hit.argmax()])
        return complex(diff.prod() * (lead + (self.weights * values / diff).sum()))


def poly_coeffs_from_samples(nodes, values):
    """Coefficients (ascending) of the degree len(nodes)-1 interpolant.

    Solved as a column-scaled Vandermonde least-squares problem; with
    len(values) == len(nodes) the fit is exact up to roundoff.
    """
    nodes = np.asarray(nodes, dtype=CDTYPE)
    values = np.asarray(values, dtype=CDTYPE)
    deg = len(nodes) - 1
    v = np.vander(nodes, deg + 1, increasing=True)
    col_scale = np.maximum(np.abs(v).max(axis=0), 1e-300)
    coeffs, *_ = np.linalg.lstsq(v / col_scale, values, rcond=None)
    return coeffs / col_scale


def poly_eval(coeffs, lam):
    """Horner evaluation; ``coeffs`` ascending."""
    result = 0.0 + 0.0j
    for c in reversed(coeffs):
        result = result * lam + c
    return result


def trim_trailing(coeffs, rel_tol=1e-9):
    """Drop high-order coefficients below rel_tol * max|coeff|."""
    coeffs = np.asarray(coeffs, dtype=CDTYPE)
    scale = np.max(np.abs(coeffs))
    if scale == 0.0:
        return np.zeros(1, dtype=CDTYPE)
    keep = len(coeffs)
    while keep > 1 and abs(coeffs[keep - 1]) < rel_tol * scale:
        keep -= 1
    return coeffs[:keep].copy()
