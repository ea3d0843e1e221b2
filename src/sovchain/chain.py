"""Chain definition: twist handling, inhomogeneity grid, scalar functions.

The spectral-parameter grid attached to site n consists of the 2s_n + 1
points ``xi_n - eta/2 + (s_n - k) eta`` for k = 0..2s_n; consecutive nodes
differ by -eta. The scalar polynomials

    a(lam) = prod_n (lam - xi_n + eta/2 + s_n eta)
    d(lam) = prod_n (lam - xi_n + eta/2 - s_n eta)

vanish respectively at the bottom node (k = 2s_n) and the top node (k = 0)
of each site, which drives every separation-of-variables formula below.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import GenericityViolation, SimpleSpectrumViolation, SingularTwistWarning
from .local_ops import fuse_2x2
from .numerics import CDTYPE, random_complex

__all__ = [
    "Tolerances",
    "Twist",
    "normalize_twist",
    "fused_twist",
    "Site",
    "ChainSpec",
    "make_chain",
    "random_chain",
    "genericity_check",
    "index_of",
]

_MIX = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=CDTYPE) / np.sqrt(2.0)
_MIX2 = np.array([[2.0, 1.0], [1.0, -2.0]], dtype=CDTYPE) / np.sqrt(5.0)


@dataclass(frozen=True)
class Tolerances:
    """The program's two cuts: ``zero`` for genericity and coincidence tests (model.genericity,
    the oracle's gap test, the Jordan-twist test), ``gram`` for a basis rank (*.rank_deficit)."""

    zero: float = 1e-8
    gram: float = 1e-10


@dataclass
class Twist:
    """2x2 boundary twist with a fixed eigenvalue ordering.

    ``k1``, ``k2`` are sorted by (real, imag) descending. ``w`` is the identity,
    or, when the upper-right entry vanishes, a fixed orthogonal involution such
    that w^-1 K w has nonzero off-diagonal entries: _MIX, or _MIX2 at
    c = +-(d - a), where _MIX K _MIX has a zero off-diagonal.
    """

    matrix: np.ndarray
    k1: complex
    k2: complex
    w: np.ndarray

    @property
    def det(self) -> complex:
        return self.k1 * self.k2

    @property
    def trace(self) -> complex:
        return self.k1 + self.k2

    @property
    def invertible(self) -> bool:
        return abs(self.k1 * self.k2) > 1e-14 * max(1.0, abs(self.k1) + abs(self.k2)) ** 2

    def conjugated(self) -> np.ndarray:
        """w^-1 K w, guaranteed to have nonzero b and c entries."""
        return np.linalg.solve(self.w, self.matrix @ self.w)


def normalize_twist(k_matrix) -> Twist:
    """Validate a twist matrix and fix its eigenvalue ordering and conjugator.

    Raises SimpleSpectrumViolation for K proportional to the identity and
    warns (SingularTwistWarning) when it is not ``Twist.invertible``.
    """
    twist = _twist(k_matrix)
    if not twist.invertible:
        warnings.warn("twist has a vanishing eigenvalue; invertibility-gated "
                      "constructions are unavailable", SingularTwistWarning, stacklevel=2)
    return twist


def _twist(k_matrix) -> Twist:
    """``normalize_twist`` without the warning, for a singular twist built on purpose."""
    k = np.asarray(k_matrix, dtype=CDTYPE)
    if k.shape != (2, 2):
        raise ValueError(f"twist must be 2x2, got shape {k.shape}")
    for i, j in np.argwhere(~np.isfinite(k))[:1]:
        raise ValueError(f"twist entry ({i}, {j}) is not finite: {k[i, j]}")
    scale = max(1.0, float(np.max(np.abs(k))))
    if np.max(np.abs(k - 0.5 * np.trace(k) * np.eye(2))) < 1e-12 * scale:
        raise SimpleSpectrumViolation("twist matrix is proportional to the identity")
    evals = np.linalg.eigvals(k)
    order = sorted(range(2), key=lambda i: (evals[i].real, evals[i].imag), reverse=True)
    k1, k2 = complex(evals[order[0]]), complex(evals[order[1]])
    w = np.eye(2, dtype=CDTYPE)
    if abs(k[0, 1]) <= 1e-14 * scale:
        # b = 0: the off-diagonals of _MIX K _MIX are (a - d + c)/2 and (a - d - c)/2, so
        # _MIX fails only at c = +-(d - a); there _MIX2's are (a - d)/5 and 6(a - d)/5, or
        # 3(a - d)/5 and 2(d - a)/5, nonzero as K is not proportional to the identity
        kbar = _MIX @ k @ _MIX
        w = (_MIX if min(abs(kbar[0, 1]), abs(kbar[1, 0])) > 1e-12 * scale else _MIX2).copy()
    return Twist(matrix=k, k1=k1, k2=k2, w=w)


def fused_twist(twist, level: int) -> np.ndarray:
    """(level+1)-dimensional symmetric-subspace restriction of K^{x level}; cached, read-only."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    mat = twist.matrix if isinstance(twist, Twist) else np.asarray(twist, dtype=CDTYPE)
    return _fused_twist(mat.tobytes(), level)


@functools.lru_cache(maxsize=256)
def _fused_twist(key: bytes, level: int) -> np.ndarray:
    out = fuse_2x2(np.frombuffer(key, dtype=CDTYPE).reshape(2, 2), level)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Site:
    two_s: int
    xi: complex

    def __post_init__(self):
        if self.two_s < 1:
            raise ValueError(f"two_s must be a positive integer, got {self.two_s}")

    @property
    def dim(self) -> int:
        return self.two_s + 1

    @property
    def spin(self) -> float:
        return self.two_s / 2.0


@dataclass(frozen=True)
class ChainSpec:
    """Full model definition; immutable after construction.

    ``dims``, ``dim`` and ``grid`` are cached on first access
    (``dataclasses.replace`` gives a new instance with an empty cache).
    """

    eta: complex
    sites: tuple
    twist: Twist
    seed: int = 0
    tolerances: ClassVar[Tolerances] = Tolerances()

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @functools.cached_property
    def dims(self) -> tuple:
        return tuple(site.dim for site in self.sites)

    @functools.cached_property
    def dim(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

    @property
    def n_s(self) -> int:
        """Total 2*sum(s_n) = degree budget for Q-polynomials."""
        return sum(site.two_s for site in self.sites)

    def node(self, n: int, k: int) -> complex:
        """Grid point xi_n - eta/2 + (s_n - k) eta, k = 0..2s_n."""
        site = self.sites[n]
        return site.xi - self.eta / 2 + (site.spin - k) * self.eta

    @functools.cached_property
    def grid(self) -> tuple:
        """Per site n, a read-only (3, 2s_n + 1) array: its nodes, a and d at each of them."""
        nodes = [np.array([self.node(n, k) for k in range(site.dim)], dtype=CDTYPE)
                 for n, site in enumerate(self.sites)]
        out = tuple(np.array([z, [self.a(x) for x in z], [self.d(x) for x in z]]) for z in nodes)
        for arr in out:
            arr.flags.writeable = False
        return out

    def a(self, lam: complex) -> complex:
        out = 1.0 + 0.0j
        for site in self.sites:
            out *= lam - site.xi + self.eta / 2 + site.spin * self.eta
        return out

    def d(self, lam: complex) -> complex:
        out = 1.0 + 0.0j
        for site in self.sites:
            out *= lam - site.xi + self.eta / 2 - site.spin * self.eta
        return out

    def det_q(self, lam: complex) -> complex:
        """Quantum determinant scalar det(K) a(lam) d(lam - eta)."""
        return self.twist.det * self.a(lam) * self.d(lam - self.eta)

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng((self.seed, salt))


def make_chain(eta, sites, twist, seed=0) -> ChainSpec:
    """Assemble a ChainSpec from raw data and check its genericity.

    ``sites`` is a sequence of (two_s, xi) pairs or Site objects; ``twist``
    may be a raw 2x2 matrix or an already-normalized Twist.
    """
    site_objs = tuple(
        site if isinstance(site, Site) else Site(int(site[0]), complex(site[1]))
        for site in sites
    )
    if not site_objs:
        raise ValueError("a chain needs at least one site")
    if int(seed) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    twist_obj = twist if isinstance(twist, Twist) else normalize_twist(twist)
    chain = ChainSpec(eta=complex(eta), sites=site_objs, twist=twist_obj, seed=int(seed))
    genericity_check(chain)
    return chain


def random_chain(two_s_list, eta, twist, seed=0) -> ChainSpec:
    """Chain with seeded random inhomogeneities in the box |Re|, |Im| < 5,
    re-drawn until generic (64 draws at most)."""
    rng = np.random.default_rng((int(seed), 0x5EED))
    for _ in range(64):
        xis = random_complex(rng, size=len(two_s_list), box=5.0)
        try:
            return make_chain(eta, list(zip(two_s_list, xis)), twist, seed=seed)
        except GenericityViolation:
            continue
    raise GenericityViolation("no generic draw found in 64 tries")


def genericity_check(chain: ChainSpec) -> None:
    """Verify xi_a != xi_b mod eta over the protected shift window.

    The window covers every node coincidence any fused formula can probe:
    |k| up to twice the largest two_s plus one. Also checks that eta and
    every xi are finite, that |eta| exceeds the zero tolerance (a site's
    nodes are eta apart) and that all grid nodes are pairwise distinct
    across sites. Raises GenericityViolation naming the offending quantity.
    """
    tol = chain.tolerances.zero
    if not np.all(np.isfinite([chain.eta] + [site.xi for site in chain.sites])):
        raise GenericityViolation("eta and every xi must be finite")
    if abs(chain.eta) <= tol:
        raise GenericityViolation(f"|eta| = {abs(chain.eta):.3e} is within tolerance of 0")
    window = 2 * max(site.two_s for site in chain.sites) + 1
    for a in range(chain.n_sites):
        for b in range(chain.n_sites):
            if a == b:
                continue
            diff = chain.sites[a].xi - chain.sites[b].xi
            for k in range(-window, window + 1):
                sep = abs(diff - k * chain.eta)
                if sep <= tol:
                    raise GenericityViolation(
                        f"xi_{a} - xi_{b} = {k} * eta within tolerance "
                        f"({sep:.3e} <= {tol:.1e})")
    # one site's nodes are multiples of eta apart, so every close pair spans two sites
    index = [(n, k) for n, site in enumerate(chain.sites) for k in range(site.dim)]
    nodes = np.array([chain.node(n, k) for n, k in index])
    for i, j in np.argwhere(np.triu(np.abs(nodes[:, None] - nodes) <= tol, 1))[:1]:
        raise GenericityViolation("grid nodes collide: site {} node {} vs site {} node {}"
                                  .format(*index[i], *index[j]))


def _tower_denominators(chain: ChainSpec, n: int) -> np.ndarray:
    """k2^(2s_n - h) prod_{k=h+1}^{2s_n} d(xi_n^(k)) for h = 0..2s_n.

    Level 2s_n - h of site n's fused tower at its bottom node, divided by
    entry h, is the grid ratio Q(xi_n^(h)) / Q(xi_n^(2s_n)). k2 counts as zero on the
    scale of ``Twist.invertible``: a k2 that ``eig`` leaves at roundoff would divide the
    ratios. k1 = 0 is allowed; its ratios give the closed-form Q.
    """
    k1, k2 = chain.twist.k1, chain.twist.k2
    if abs(k2) <= 1e-14 * max(1.0, abs(k1) + abs(k2)):
        raise ValueError("the fused-tower denominators require k2 != 0")
    out = [1.0]
    for k in range(chain.sites[n].two_s, 0, -1):
        out.append(out[-1] * k2 * chain.d(chain.node(n, k)))
    return np.array(out[::-1])


def index_of(chain: ChainSpec, h) -> int:
    """Row index of a multi-index in the lexicographic ordering."""
    idx = 0
    for hn, d in zip(h, chain.dims):
        if not 0 <= hn < d:
            raise IndexError(f"component {hn} outside 0..{d - 1}")
        idx = idx * d + hn
    return idx
