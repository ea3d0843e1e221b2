"""Configuration ingestion, experiment orchestration, JSON verification reports.

Commands run the module check suites against a chain configuration and emit
a machine-readable report. Every check row carries (name, value, tolerance,
passed) with the convention passed = value <= tolerance; counts and ranks
are encoded as deficits so the same comparator applies. Reports are
deterministic for a fixed config and seed, up to the timing block.

Exit codes: 0 all checks passed, 1 at least one failure or numerical error,
2 usage or configuration error, or an ``--out`` path that cannot be opened.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.resources
import json
import pathlib
import sys
import time
from functools import partial

import numpy as np

from . import __version__
from .baxter import (_COND_CUT, _determinant_eigenvalues, _require_q_twist, build_q_operator,
                     default_zeta, q_operator_commutation_residual, q_operator_invertibility,
                     q_operator_tq_residual, solve_q_polynomial, sov_from_q,
                     sov_q_factorization, tq_residual, wronskian_values)
from .chain import ChainSpec, _twist, fused_twist, genericity_check, make_chain
from .errors import GenericityViolation, SovChainError
from .local_ops import _lax_parts, kron_embed, spin_matrices
from .numerics import CDTYPE, frob, greedy_match, random_complex
from .sov_bases import (_tower_bases, b_eigen_report, gram_rank, separate_action_report,
                        shift_action_report, sklyanin_basis, sov_basis_2,
                        tensor_generating_covector)
from .spectrum import (OracleSpectrum, brute_force_spectrum, closed_form_solutions,
                       eigenvector_from_sov, jacobian_smallest_sv, magnon_sectors,
                       match_to_oracle, solve_discrete_system, wavefunction_action_report)
from .transfer import (TransferEvaluator, _commuting_residuals, _probe_residual, _probes,
                       _tridiagonal_residuals, central_zero_residual,
                       fused_transfer_projector, polynomiality_residual, quantum_det_residual,
                       rtt_residual, symmetry_residual, transfer)

COMMANDS = ("verify-algebra", "verify-fusion", "basis", "spectrum", "baxter", "qop", "all")
BASIS_KINDS = ("sklyanin", "sov1", "sov2", "q")
SCHEMA_VERSION = 2
_ALGEBRA_SAMPLES = 20   # random draws per algebra check


class ConfigError(Exception):
    """Raised for malformed or invalid configuration input."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _is_number(value) -> bool:
    """A JSON number that is a finite double (NaN, Infinity and 1e400 are not); nor is a bool."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _as_complex(value, where):
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(map(_is_number, value)):
        raise ConfigError(f"field {where!r} must be a [re, im] pair of finite numbers, "
                          f"got {value!r}")
    return complex(value[0], value[1])


def _object(value, where, keys, required=()) -> dict:
    """``value``, checked to be an object whose keys are among ``keys`` and include ``required``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(value) - set(keys)
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {sorted(unknown)}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ConfigError(f"{where} is missing required keys: {missing}")
    return value


def parse_config(text: str) -> dict:
    """Parse and validate a chain configuration document.

    Numbers must be finite (``NaN`` and ``Infinity`` are rejected, as are
    booleans in place of numbers). The cuts are fixed (``ChainSpec.tolerances``),
    so a ``tolerances`` key is unknown like any other.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"parse error at line {err.lineno}, column {err.colno}: {err.msg}")
    data = _object(data, "top-level config",
                   ("eta", "sites", "twist", "seed"),
                   ("eta", "sites", "twist"))
    out = {"eta": _as_complex(data["eta"], "eta")}
    if not isinstance(data["sites"], list) or not data["sites"]:
        raise ConfigError("field 'sites' must be a non-empty list")
    out["sites"] = []
    for i, site in enumerate(data["sites"]):
        two_s = _object(site, f"sites[{i}]", ("two_s", "xi"), ("two_s", "xi"))["two_s"]
        if type(two_s) is not int or two_s < 1:
            raise ConfigError(f"sites[{i}].two_s must be a positive integer, got {two_s!r}")
        out["sites"].append((two_s, _as_complex(site["xi"], f"sites[{i}].xi")))
    twist = _object(data["twist"], "twist", "abcd", "abcd")
    out["twist"] = np.array([[_as_complex(twist[k], f"twist.{k}") for k in row]
                             for row in ("ab", "cd")], dtype=CDTYPE)
    out["seed"] = data.get("seed", 0)
    if type(out["seed"]) is not int:
        raise ConfigError(f"seed must be an integer, got {out['seed']!r}")
    return out


def chain_from_config(cfg: dict, seed=None) -> ChainSpec:
    try:
        return make_chain(cfg["eta"], cfg["sites"], cfg["twist"],
                          seed=cfg["seed"] if seed is None else seed)
    except (SovChainError, ValueError) as err:
        raise ConfigError(f"invalid chain: {err}")


def bundled_config_path(name: str):
    """Path of a packaged example configuration (without .json suffix)."""
    resource = importlib.resources.files("sovchain") / "configs" / f"{name}.json"
    if not resource.is_file():
        available = sorted(p.stem for p in
                           (importlib.resources.files("sovchain") / "configs").iterdir())
        raise ConfigError(f"no bundled config {name!r}; available: {available}")
    return resource


def load_config(path_or_name: str) -> dict:
    path = pathlib.Path(path_or_name)
    path = path if path.is_file() else bundled_config_path(path_or_name)
    try:
        return parse_config(path.read_text("utf-8"))
    except UnicodeDecodeError as err:
        raise ConfigError(f"config {path_or_name!r} is not UTF-8 text: {err}")


# ---------------------------------------------------------------------------
# check plumbing
# ---------------------------------------------------------------------------

def _multiset_distance(got, want) -> float:
    """Largest gap of the exclusive greedy match (``greedy_match``) of two value multisets."""
    return float(np.max(greedy_match(got, want)[1]))


def _check(name, value, tolerance, **info):
    value = float(value)
    entry = {
        "name": name,
        "value": value,
        "tolerance": float(tolerance),
        "passed": bool(np.isfinite(value) and value <= tolerance),   # NaN fails
    }
    if info:
        entry["info"] = info
    return entry


def _cpx(z):
    """[re, im] of a complex number as floats; of an array, one such pair per entry."""
    return np.stack([np.real(z), np.imag(z)], axis=-1).tolist()


def _config_echo(chain: ChainSpec) -> dict:
    return {
        "eta": _cpx(chain.eta),
        "sites": [{"two_s": s.two_s, "xi": _cpx(s.xi)} for s in chain.sites],
        "twist": dict(zip("abcd", map(_cpx, chain.twist.matrix.ravel()))),
        "twist_eigenvalues": [_cpx(chain.twist.k1), _cpx(chain.twist.k2)],
        "seed": chain.seed,
        "tolerances": {"zero": chain.tolerances.zero, "gram": chain.tolerances.gram},
        "dim": chain.dim,
    }


class _RunContext:
    """Results shared by the suites of one ``run`` call, each computed on first use.

    Holds the run's one transfer evaluator (its N samples; each fused tower
    is built whole where it is read), the oracle spectrum, its Q-polynomial
    stack at each zeta, the eigenbasis Q-operator, the Sklyanin basis and the
    default-source second SoV basis: what each suite would otherwise
    recompute. A computation that raises is not stored, so it raises again
    in every suite that needs it and each suite reports its own error row.
    No basis is checked for full rank here: its ``basis.*.rank_deficit`` row
    is the verdict, and the rows built on it report what a deficit costs.
    """

    def __init__(self, chain: ChainSpec):
        self.chain = chain
        self._values = {}

    def _get(self, key, compute):
        if key not in self._values:
            self._values[key] = compute()
        return self._values[key]

    def oracle(self) -> OracleSpectrum:
        return self._get("oracle", lambda: brute_force_spectrum(self.chain))

    def evaluator(self) -> TransferEvaluator:
        return self._get("evaluator", lambda: TransferEvaluator(self.chain))

    def q_polynomials(self, zeta: complex):
        """The oracle's Q-polynomials at zeta, one stack in oracle row order."""
        return self._get(("q", complex(zeta)),
                         lambda: solve_q_polynomial(self.oracle().t, zeta=zeta))

    def q_operator(self):
        """Eigenbasis Q-operator at the default zeta."""
        def build():
            _require_q_twist(self.chain)   # before the oracle, which a Jordan twist also fails
            return build_q_operator(self.oracle(), self.q_polynomials(default_zeta(self.chain)))

        return self._get("qop", build)

    def sklyanin(self):
        return self._get("sklyanin", lambda: sklyanin_basis(self.chain))

    def sov2(self):
        """Second SoV basis from the default (seeded Gaussian) source."""
        return self._get("sov2", lambda: sov_basis_2(self.chain, self.evaluator()))

    def sov2_with(self, source):
        """(``sov2()``, the basis from the covector ``source``), the fused towers built once
        for both."""
        bases = _tower_bases("sov2", self.chain, self.evaluator(), [None, source])
        return self._get("sov2", lambda: bases[0]), bases[1]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _exchange_residual(rng, samples: int, eta: complex, two_s: int) -> float:
    """Worst R12 L13(lam) L23(mu) = L23(mu) L13(lam) R12 residual (the YBE at two_s = 1),
    with R and L as (S, n, n) stacks z Id + eta P over the draws, each P embedded once."""
    pts = [random_complex(rng, size=2, box=3.0) for _ in range(samples)]
    lam, mu = np.array(pts).reshape(-1, 2).T
    dims, p, lax_p = [2, 2, two_s + 1], _lax_parts(1)[1], _lax_parts(two_s)[1]
    eye = np.eye(4 * (two_s + 1), dtype=CDTYPE)
    r12, l13, l23 = (z[:, None, None] * eye + eta * kron_embed(op, legs, dims) for z, op, legs
                     in ((lam - mu, p, [0, 1]), (lam, lax_p, [0, 2]), (mu, lax_p, [1, 2])))
    lhs = r12 @ l13 @ l23
    err, size = (np.linalg.norm(x, axis=(1, 2)) for x in (lhs - l23 @ l13 @ r12, lhs))
    return float(np.max(err / np.maximum(1.0, size)))


def suite_algebra(chain: ChainSpec, samples: int):
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    checks = []
    rng = chain.rng(100)
    worst = _exchange_residual(rng, samples, chain.eta, 1)
    checks.append(_check("algebra.ybe", worst, 1e-11, samples=samples))

    spins = sorted({site.two_s for site in chain.sites} | {1, 2, 3})
    worst = np.max([_exchange_residual(rng, samples, chain.eta, two_s) for two_s in spins])
    checks.append(_check("algebra.rll", worst, 1e-11, spins=spins))

    # here and in suite_fusion, np.max (unlike max) keeps a NaN sample, so the row fails
    draw, reps = partial(random_complex, rng, box=3.0), max(4, samples // 2)
    lams, mus = np.array([draw(size=2) for _ in range(reps)]).T
    checks.append(_check("algebra.rtt", np.max(rtt_residual(chain, lams, mus)), 1e-11))
    worst = np.max(quantum_det_residual(chain, [complex(draw()) for _ in range(reps)]))
    checks.append(_check("algebra.quantum_det", worst, 1e-10))
    worst = np.max(symmetry_residual(chain, [complex(draw()) for _ in range(4)]))
    checks.append(_check("algebra.twist_symmetry", worst, 1e-10))

    residuals = []
    for two_s in spins:
        ops = spin_matrices(two_s)
        s = two_s / 2.0
        eye = np.eye(two_s + 1)
        residuals += [frob(ops.sz @ ops.sp - ops.sp @ ops.sz - ops.sp),
                      frob(ops.sz @ ops.sm - ops.sm @ ops.sz + ops.sm),
                      frob(ops.sp @ ops.sm - ops.sm @ ops.sp - 2 * ops.sz),
                      frob(ops.sp @ ops.sm + ops.sz @ (ops.sz - eye) - s * (s + 1) * eye)]
    checks.append(_check("algebra.spin_relations", np.max(residuals), 1e-13))
    return checks


def suite_fusion(chain: ChainSpec, ctx: _RunContext):
    checks = []
    rng = chain.rng(200)
    evaluator = ctx.evaluator()
    max_level = min(3, max(site.two_s for site in chain.sites) + 1)

    lams, mus = np.array([random_complex(rng, size=2, box=2.5) for _ in range(3)]).T
    worst = np.max(_commuting_residuals(evaluator, lams, mus, max_level))
    checks.append(_check("fusion.commuting_family", worst, 1e-10, max_level=max_level))

    # level 1 is left out: there the route is T's own Lax chain (fusion.transfer_polynomiality)
    lams = np.array([random_complex(rng, box=2.5) for _ in range(5)])
    tower = evaluator.fused(max_level, lams, _probes(chain, 606, 1)[0])
    worst = np.max([_probe_residual(
        fused_transfer_projector(chain, l, lams, tower[0, 0]).reshape(len(lams), -1),
        tower[l].reshape(len(lams), -1)) for l in range(2, max_level + 1)])
    checks.append(_check("fusion.route_equivalence", worst, 1e-9))

    lam_ref = complex(random_complex(rng, box=2.0))
    checks.append(_check("fusion.central_zeros",
                         np.max(central_zero_residual(chain, evaluator, lam_ref)), 1e-9))

    lams = [complex(random_complex(rng, box=2.5)) for _ in range(2)]
    checks.append(_check("fusion.tridiagonal_determinant",
                         np.max(_tridiagonal_residuals(evaluator, lams)), 1e-9))

    residuals = []
    for a in range(1, max(site.two_s for site in chain.sites) + 2):
        fused = fused_twist(chain.twist, a)
        got = np.linalg.eigvals(fused)
        want = np.array([chain.twist.k1 ** (a + 1 - h) * chain.twist.k2 ** (h - 1)
                         for h in range(1, a + 2)], dtype=CDTYPE)
        residuals.append(_multiset_distance(got, want) / max(1.0, float(np.max(np.abs(want)))))
    checks.append(_check("fusion.fused_twist_spectrum", np.max(residuals), 1e-10))

    polynomiality, lead = polynomiality_residual(evaluator, rng)
    checks.append(_check("fusion.transfer_polynomiality", polynomiality, 1e-10))
    checks.append(_check("fusion.transfer_leading_coefficient", lead, 1e-9))
    return checks


def suite_basis(chain: ChainSpec, kind: str, ctx: _RunContext):
    checks = []
    rng = chain.rng(300)
    if kind == "sklyanin":
        basis = ctx.sklyanin()
        checks.append(_rank_row("basis.sklyanin.rank_deficit", basis))
        lams = [complex(z) for z in random_complex(rng, size=3, box=2.5)]
        checks.append(_check("basis.sklyanin.b_eigen", b_eigen_report(basis, lams), 1e-9))
        report = shift_action_report(basis)
        checks.append(_check("basis.sklyanin.a_shift", report["a_action"], 1e-8))
        checks.append(_check("basis.sklyanin.d_shift", report["d_action"], 1e-8))
    elif kind == "sov1":
        # the default and the tensor source share one build of the charges' powers
        basis, tensor = _tower_bases("sov1", chain, ctx.evaluator(),
                                     [None, tensor_generating_covector(chain)])
        checks.append(_rank_row("basis.sov1.rank_deficit", basis))
        checks.append(_rank_row("basis.sov1.tensor_source_rank_deficit", tensor))
    elif kind == "sov2":
        top = tuple(site.two_s for site in chain.sites)
        basis, ident = ctx.sov2_with(ctx.sklyanin().row(top))
        checks.append(_rank_row("basis.sov2.rank_deficit", basis))
        checks.append(_check("basis.sov2.separate_action",
                             separate_action_report(basis, ctx.evaluator()), 1e-8))
        checks.append(_check("basis.sov2.sklyanin_identification",
                             _basis_difference(ident, ctx.sklyanin()), 1e-7))
    elif kind == "q":
        qop = ctx.q_operator()
        skl = ctx.sklyanin()
        basis = sov_from_q(qop, skl)
        checks.append(_rank_row("basis.q.rank_deficit", basis))
        checks.append(_check("basis.q.sklyanin_identification",
                             _basis_difference(basis, skl), 1e-7))
    else:
        raise ConfigError(f"unknown basis kind {kind!r}")
    return checks


def _rank_row(name, basis):
    """Row ``name``: dim minus the basis rank (``gram_rank``), with ``gram_rank``'s bracket."""
    rank, (lo, hi) = gram_rank(basis)
    return _check(name, basis.chain.dim - rank, 0, smallest_sv=lo, bracket=[lo, hi],
                  exact=lo == hi)


def _basis_difference(got, want) -> float:
    """Max relative row difference after a single global scalar fit."""
    num = np.vdot(want.rows.ravel(), got.rows.ravel())
    den = np.vdot(want.rows.ravel(), want.rows.ravel())
    ref = (num / den if abs(den) > 0 else 1.0) * want.rows
    return float(np.max(np.linalg.norm(got.rows - ref, axis=1)
                        / np.maximum(1e-300, np.linalg.norm(ref, axis=1))))


def suite_spectrum(chain: ChainSpec, ctx: _RunContext):
    checks = []
    evaluator = ctx.evaluator()
    oracle = ctx.oracle()
    stack = oracle.t
    checks.append(_check("spectrum.oracle_discrete_residual", np.max(stack.discrete_residual),
                         1e-8, off_sector=oracle.off_sector))
    # a non-invertible twist ends the suite here, at the grid ratios (k2 = 0) or at the
    # second basis, before Newton spends its steps on every oracle seed
    action = wavefunction_action_report(stack)
    basis = ctx.sov2()

    solutions, diag = solve_discrete_system(stack)
    checks.append(_check("spectrum.count_mismatch", abs(len(solutions) - chain.dim), 0,
                         newton_iterations=diag["newton_iterations"]))
    _, dists, bijection = match_to_oracle(solutions, oracle)
    checks.append(_check("spectrum.oracle_bijection", 0.0 if bijection else 1.0, 0))
    checks.append(_check("spectrum.oracle_match_distance", np.max(dists), 1e-8))

    worst_j = jacobian_smallest_sv(solutions)
    checks.append(_check("spectrum.jacobian_regularity", 1e-8 - worst_j, 0,
                         smallest_relative_sv=worst_j))

    checks.append(_check("spectrum.wavefunction_separate_action", action, 1e-8))

    vectors, residuals = eigenvector_from_sov(stack, basis, evaluator)
    cosine = np.abs(np.sum(oracle.vectors.conj() * vectors, axis=0)) / (
        np.linalg.norm(oracle.vectors, axis=0) * np.linalg.norm(vectors, axis=0))
    checks.append(_check("spectrum.eigenvector_residual", np.max(residuals), 1e-7))
    checks.append(_check("spectrum.eigenvector_overlap", np.max(1.0 - cosine), 1e-8))

    checks.append(_check("spectrum.degenerate_twist_closed_form",
                         _closed_form_vs_oracle(chain), 1e-10))
    return checks


def _closed_form_vs_oracle(chain: ChainSpec) -> float:
    """Spectrum of the k2 = 0 degeneration vs its closed form, multiset distance. Only the
    twist changes, so sites that fail ``model.genericity`` still get this row."""
    twist = _twist(np.array([[chain.twist.k1, 0], [0, 0]], dtype=CDTYPE))  # singular by design
    degenerate = dataclasses.replace(chain, twist=twist)
    lam0 = complex(random_complex(degenerate.rng(10), box=2.0)) + 0.25j
    t = transfer(degenerate, lam0)   # a diagonal twist conserves the magnon sectors
    vals = np.concatenate([np.linalg.eigvals(t[np.ix_(m, m)])
                           for m in magnon_sectors(degenerate)])
    want = closed_form_solutions(degenerate)(lam0)
    return _multiset_distance(vals, want) / max(1.0, float(np.max(np.abs(want))))


def suite_baxter(chain: ChainSpec, ctx: _RunContext):
    """Each row is one array reduction over the oracle rows. Row d's sample points are
    row d of one draw from ``chain.rng(400)``: its 3N T-Q points as (re, im) pairs in
    turn, then its 4 Wronskian points (4 real parts, 4 imaginary parts)."""
    checks = []
    stack = ctx.oracle().t
    q = ctx.q_polynomials(default_zeta(chain, salt=20))
    q_b = ctx.q_polynomials(default_zeta(chain, salt=24))
    n = chain.n_sites
    draws = chain.rng(400).uniform(-3.0, 3.0, size=(len(stack), 6 * n + 8))
    max_deg = int(q.degree.max())   # a non-finite row reads as degree 0: NaN fails the row
    excess = max(0, max_deg - chain.n_s) if np.isfinite(q.coeffs).all() else np.nan
    checks.append(_check("baxter.degree_budget_excess", excess, 0,
                         max_degree=max_deg,
                         degree_histogram=np.bincount(q.degree, minlength=chain.n_s + 1).tolist(),
                         magnon_sector_counts=[len(m) for m in magnon_sectors(chain)]))
    checks.append(_check("baxter.nontrivial_degree", 1.0 if max_deg < 1 else 0.0, 0))
    checks.append(_check("baxter.interpolation_leftout",
                         np.max(q.leftout_residual), 1e-9))
    tq = tq_residual(stack, q, draws[:, 0:6 * n:2] + 1j * draws[:, 1:6 * n:2])
    checks.append(_check("baxter.tq_equation", np.max(tq), 1e-8))
    spread = (np.max(np.abs(q.coeffs - q_b.coeffs), axis=1)
              / np.maximum(1.0, np.max(np.abs(q.coeffs), axis=1)))
    checks.append(_check("baxter.uniqueness_coefficient_spread", np.max(spread), 1e-8))
    wronsk = wronskian_values(q, q_b, chain, draws[:, 6 * n:6 * n + 4] + 1j * draws[:, 6 * n + 4:])
    checks.append(_check("baxter.uniqueness_wronskian", np.max(wronsk), 1e-9))
    worst_root = float(np.min(q.root_gap))   # inf (a constant Q) passes, NaN fails
    checks.append(_check("baxter.forbidden_root_gap", np.maximum(0.0, 1e-6 - worst_root), 0,
                         min_distance=None if not np.isfinite(worst_root) else worst_root))
    checks.append(_check("baxter.sov_q_factorization",
                         np.max(sov_q_factorization(stack, q)), 1e-7))
    return checks


def suite_qop(chain: ChainSpec, ctx: _RunContext):
    checks = []
    evaluator = ctx.evaluator()
    rng = chain.rng(500)
    qop = ctx.q_operator()
    closure = ctx.q_polynomials(qop.zeta).closure

    lams = [complex(z) for z in random_complex(rng, size=3, box=2.5)]
    mus = [complex(z) for z in random_complex(rng, size=3, box=2.5)]
    checks.append(_check("qop.commutes_with_transfer",
                         q_operator_commutation_residual(qop, evaluator, lams, mus), 1e-9))
    checks.append(_check("qop.operator_tq_equation",
                         q_operator_tq_residual(qop, evaluator, lams), 1e-8))
    # the worst site's lower end, which has its bracket's verdict (np.max keeps a NaN)
    lo, hi = np.array(list(q_operator_invertibility(qop).values())).T
    checks.append(_check("qop.bottom_node_condition", np.max(lo), _COND_CUT,
                         brackets=np.c_[lo, hi].tolist(), exact=(lo == hi).tolist()))

    # the solved eigenvalues against their Cramer reading of the same closure stack
    lams = random_complex(rng, size=5, box=2.5)
    e_solve, e_cramer = qop.eigenvalues(lams), _determinant_eigenvalues(closure, lams)
    residuals = np.max(np.abs(e_solve - e_cramer), axis=1) / np.maximum(
        1.0, np.max(np.abs(e_solve), axis=1))
    checks.append(_check("qop.method_agreement", np.max(residuals), 1e-7))
    return checks


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

_SUITE_ERRORS = (SovChainError, ValueError, np.linalg.LinAlgError)


def run(command: str, chain: ChainSpec, basis_kind=None) -> dict:
    """Execute a command's check suites and assemble the report.

    The suites of one call share a ``_RunContext``: one transfer evaluator,
    one oracle diagonalization, one stacked Q-polynomial solve per zeta, one
    eigenbasis Q-operator, one Sklyanin basis and one
    default-source second SoV basis, each computed when a suite first needs
    it and dropped when the call returns. A suite that raises becomes its
    ``<suite>.error`` row; the spectrum table is built from the shared
    oracle, so when it fails the report carries ``suite_spectrum.error`` and
    no table.
    """
    start = time.perf_counter()
    try:
        genericity_check(chain)
        checks = [_check("model.genericity", 0.0, 0)]
    except GenericityViolation as err:
        checks = [_check("model.genericity", 1.0, 0, message=str(err))]
    spectrum_table = None
    ctx = _RunContext(chain)

    def guarded(fn, *args):
        try:
            return fn(chain, *args)
        except _SUITE_ERRORS as err:
            return [_check(f"{fn.__name__}.error", np.inf, 0, message=str(err),
                           exception=type(err).__name__)]

    if command in ("verify-algebra", "all"):
        checks += guarded(suite_algebra, _ALGEBRA_SAMPLES)
    if command in ("verify-fusion", "all"):
        checks += guarded(suite_fusion, ctx)
    if command in ("basis", "all"):
        kinds = [basis_kind] if command == "basis" else list(BASIS_KINDS)
        for kind in kinds:
            checks += guarded(suite_basis, kind, ctx)
    if command in ("spectrum", "all"):
        checks += guarded(suite_spectrum, ctx)
        try:
            spectrum_table = _spectrum_table(ctx)
        except _SUITE_ERRORS:
            # the table reads only the oracle, whose failure suite_spectrum
            # (which reads it first) has already reported as its error row
            pass
    if command in ("baxter", "all"):
        checks += guarded(suite_baxter, ctx)
    if command in ("qop", "all"):
        checks += guarded(suite_qop, ctx)

    report = {
        "schema_version": SCHEMA_VERSION,
        "library": {"name": "sovchain", "version": __version__},
        "command": command if command != "basis" else f"basis:{basis_kind}",
        "config": _config_echo(chain),
        "samples": _ALGEBRA_SAMPLES,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "timing": {"seconds": time.perf_counter() - start},
    }
    if spectrum_table is not None:
        report["spectrum"] = spectrum_table
    return report


def _spectrum_table(ctx: _RunContext):
    oracle = ctx.oracle()
    return [{"x": x, "value_at_probe": value, "discrete_residual": residual}
            for x, value, residual in zip(_cpx(oracle.t.x), _cpx(oracle.value_at_lam0),
                                          oracle.t.discrete_residual.tolist())]


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sovchain",
        description="Verification suites for higher-spin 6-vertex separation of variables")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("kind", nargs="?", choices=BASIS_KINDS,
                        help="basis flavor (required for the basis command)")
    parser.add_argument("--config", required=True,
                        help="path to a chain config, or a bundled config name")
    parser.add_argument("--out", help="report output path (default: stdout)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    args = parser.parse_args(argv)

    if args.command == "basis" and args.kind is None:
        parser.error("the basis command needs a kind: sklyanin | sov1 | sov2 | q")
    if args.command != "basis" and args.kind is not None:
        parser.error(f"command {args.command!r} takes no basis kind")

    try:
        cfg = load_config(args.config)
        chain = chain_from_config(cfg, seed=args.seed)
        # opened before the run, so an unwritable path costs no suite
        out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    with out as fh:
        report = run(args.command, chain, basis_kind=args.kind)
        fh.write(render_report(report))
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if failed:
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
