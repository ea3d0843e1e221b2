"""Per-layer tracing of sovchain, patched in from the benchmark's side.

``Tracer.install`` replaces every public function of each sovchain module
(and a few class methods) with a wrapper that records a span: name, start,
end, parent span and run id. Hot scalar functions get a counter instead of
a span. ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("local_ops", "chain", "transfer", "sov_bases", "spectrum", "baxter", "cli", "numerics")

# (module, class or None, attribute): traced although private or a method
EXTRA_SPANS = (
    ("cli", None, "_spectrum_table"),
    ("transfer", "TransferEvaluator", "__init__"),
    ("transfer", "TransferEvaluator", "transfer"),
    ("transfer", "TransferEvaluator", "fused"),
)
# called about a million times per pass at D = 128; a span each would swamp the run
COUNTED_ONLY = (
    ("numerics", None, "lagrange_cardinal"),
    ("spectrum", "TransferPolynomial", "__call__"),
)
SUITES = {"suite_algebra": "algebra", "suite_fusion": "fusion", "suite_spectrum": "spectrum",
          "suite_baxter": "baxter", "suite_qop": "qop", "_spectrum_table": "spectrum_table"}
SUITE_NAMES = ("algebra", "fusion", "basis.sklyanin", "basis.sov1", "basis.sov2", "basis.q",
               "spectrum", "spectrum_table", "baxter", "qop")

GROUPS = {
    "local_ops.kron_embed": ("local_ops.kron_embed",),
    "transfer.monodromy_matrix": ("transfer.monodromy_matrix",),
    "transfer.fused_transfer_projector": ("transfer.fused_transfer_projector",),
    "transfer.identity_residuals": ("transfer.rtt_residual", "transfer.quantum_det_residual",
                                    "transfer.symmetry_residual",
                                    "transfer.central_zero_residual",
                                    "transfer.polynomiality_residual"),
    "sov_bases.basis_build": ("sov_bases.sklyanin_basis", "sov_bases.sov_basis_1",
                              "sov_bases.sov_basis_2"),
    "sov_bases.gram_rank": ("sov_bases.gram_rank",),
    "sov_bases.action_reports": ("sov_bases.b_eigen_report", "sov_bases.shift_action_report",
                                 "sov_bases.separate_action_report"),
    "spectrum.oracle": ("spectrum.brute_force_spectrum",),
    "spectrum.solve_discrete_system": ("spectrum.solve_discrete_system",),
    "spectrum.wavefunction_action_report": ("spectrum.wavefunction_action_report",),
    "spectrum.eigenvector_from_sov": ("spectrum.eigenvector_from_sov",),
    "baxter.solve_q_polynomial": ("baxter.solve_q_polynomial",),
    "baxter.build_q_operator": ("baxter.build_q_operator",),
    "baxter.sov_from_q": ("baxter.sov_from_q",),
    "chain.make_chain": ("chain.make_chain",),
    "chain.genericity_check": ("chain.genericity_check",),
    "cli.parse_config": ("cli.parse_config",),
    "cli.render_report": ("cli.render_report",),
}
GROUP_CALLS = ("local_ops.kron_embed", "transfer.monodromy_matrix",
               "transfer.fused_transfer_projector", "sov_bases.basis_build",
               "sov_bases.gram_rank", "spectrum.oracle", "spectrum.eigenvector_from_sov",
               "baxter.solve_q_polynomial", "baxter.build_q_operator")
EVALUATOR_TRANSFER = "transfer.TransferEvaluator.transfer"


def _twist_key(twist):
    return None if twist is None else np.asarray(twist, dtype=complex).tobytes()


class Tracer:
    """Records spans and counters while installed; single-threaded."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, run id]
        self.counts = Counter()
        self.run_id = 0
        self.monodromy_keys = set()
        self.newton = {"iterations": 0, "seeds": 0, "converged": 0}
        self._stack = []
        self._patched = []     # (owner, attribute, original)

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap the traced callables wherever sovchain binds them."""
        modules = {layer: sys.modules[f"sovchain.{layer}"] for layer in LAYERS}
        try:
            for layer, module in modules.items():
                for attr, obj in sorted(vars(module).items()):
                    if (inspect.isfunction(obj) and not attr.startswith("_")
                            and obj.__module__ == module.__name__
                            and (layer, None, attr) not in COUNTED_ONLY):
                        self._patch_function(obj, self._span(f"{layer}.{attr}", obj))
            for layer, cls, attr in EXTRA_SPANS + COUNTED_ONLY:
                owner = getattr(modules[layer], cls) if cls else None
                obj = getattr(owner or modules[layer], attr)
                name = ".".join(p for p in (layer, cls, attr) if p)
                wrapper = (self._count(name, obj) if (layer, cls, attr) in COUNTED_ONLY
                           else self._span(name, obj))
                if owner is None:
                    self._patch_function(obj, wrapper)
                else:
                    self._patched.append((owner, attr, obj))
                    setattr(owner, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch_function(self, original, wrapper):
        """Rebind ``original`` in every sovchain module that holds it."""
        for modname, module in list(sys.modules.items()):
            if modname != "sovchain" and not modname.startswith("sovchain."):
                continue
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self._hooks().get(name)

        suite = SUITES.get(name[4:]) if name.startswith("cli.") else None
        fixed = f"cli.suite.{suite}" if suite else name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = fixed
            if name == "cli.suite_basis":
                label = f"cli.suite.basis.{args[1] if len(args) > 1 else kwargs['kind']}"
            span = [label, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self):
        return {
            "transfer.monodromy_matrix": self._on_monodromy,
            "spectrum.solve_discrete_system": self._on_discrete_system,
        }

    def _on_monodromy(self, args, kwargs, result):
        chain, lam = args[0], args[1]
        twist = args[2] if len(args) > 2 else kwargs.get("twist_matrix")
        sites = tuple((s.two_s, s.xi) for s in chain.sites)
        self.monodromy_keys.add((self.run_id, chain.eta, sites, _twist_key(chain.twist.matrix),
                                 complex(lam), _twist_key(twist)))

    def _on_discrete_system(self, args, kwargs, result):
        solutions, diag = result
        if diag.get("branch") != "newton":
            return
        self.newton["iterations"] += diag["newton_iterations"]
        seeds = len(solutions) + diag.get("duplicates_collapsed", 0) + len(diag["failures"])
        self.newton["seeds"] += seeds
        self.newton["converged"] += seeds - len(diag["failures"])

    # -- metrics ----------------------------------------------------------

    def layer_metrics(self, wall: float, dims_total: int) -> dict:
        """Per-layer metrics of the spans and counters recorded so far.

        ``wall`` is the traced wall time; module self times plus
        ``unattributed_s`` add up to it. ``dims_total`` is the sum of dim(H)
        over the traced invocations.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        roots = 0.0
        for name, start, end, parent, _ in spans:
            if parent < 0:
                roots += end - start
            else:
                child[parent] += end - start
        m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        by_name = {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            m[f"{name.split('.', 1)[0]}.self_s"] += (end - start) - child[i]
            by_name.setdefault(name, []).append(i)
        m["unattributed_s"] = wall - roots

        for group, members in GROUPS.items():
            idx = [i for n in members for i in by_name.get(n, ())]
            m[f"{group}.s"] = self._outermost_seconds(idx, set(members))
            if group in GROUP_CALLS:
                m[f"{group}.calls"] = len(idx)
        m["local_ops.lax.calls"] = len(by_name.get("local_ops.lax", ()))

        builds = m["transfer.monodromy_matrix.calls"]
        m["transfer.monodromy_matrix.distinct_frac"] = (
            len(self.monodromy_keys) / builds if builds else 0.0)
        m["transfer.evaluators"] = len(by_name.get("transfer.TransferEvaluator.__init__", ()))
        evals = by_name.get(EVALUATOR_TRANSFER, ())
        has_child = {s[3] for s in spans}
        hits = sum(1 for i in evals if i not in has_child)
        m["transfer.evaluator.transfer.calls"] = len(evals)
        m["transfer.evaluator.hit_frac"] = hits / len(evals) if evals else 0.0

        m["spectrum.newton_iterations"] = self.newton["iterations"]
        m["spectrum.newton_converged_frac"] = (
            self.newton["converged"] / self.newton["seeds"] if self.newton["seeds"] else 0.0)
        m["spectrum.tpoly_evals"] = self.counts["spectrum.TransferPolynomial.__call__"]
        m["numerics.lagrange_cardinal.calls"] = self.counts["numerics.lagrange_cardinal"]
        m["baxter.q_solves_per_eigenvalue"] = (
            m["baxter.solve_q_polynomial.calls"] / dims_total if dims_total else 0.0)
        for suite in SUITE_NAMES:
            idx = by_name.get(f"cli.suite.{suite}", ())
            m[f"cli.suite.{suite}.s"] = self._outermost_seconds(idx, {f"cli.suite.{suite}"})
        return m

    def _outermost_seconds(self, idx, names) -> float:
        """Summed duration of the listed spans, skipping those nested in another."""
        spans = self.spans
        total = 0.0
        for i in idx:
            parent = spans[i][3]
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent < 0:
                total += spans[i][2] - spans[i][1]
        return total

    def dump(self, path, t0: float):
        """Write the spans as compact JSON, times relative to ``t0``."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(a - t0, 7), round(b - t0, 7), p, r]
                for n, a, b, p, r in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "run"],
                                    "names": names, "spans": rows,
                                    "counters": dict(self.counts)}))
