import importlib
import inspect
import pkgutil

import pytest

import sovchain

MODULES = ["sovchain"] + [f"sovchain.{info.name}"
                          for info in pkgutil.iter_modules(sovchain.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


REMOVED_PARAMETERS = {
    "sov_bases.sklyanin_basis": {"validate"},
    "sov_bases.sov_basis_1": {"validate"},
    "sov_bases.sov_basis_2": {"validate"},
    "sov_bases.tensor_generating_covector": {"max_tries", "salt"},
    "sov_bases.gram_rank": {"precision"},
    "spectrum.eigenvector_from_sov": {"n_checks", "check_tol"},
    "spectrum.solve_discrete_system": {"chain", "max_iter", "newton_tol", "dedup_tol"},
    "spectrum.discrete_residuals": {"chain"},
    "spectrum.brute_force_spectrum": {"lam0"},
    "spectrum.OracleSpectrum": {"lam0"},
    "baxter.build_q_operator": {"chain", "zeta", "evaluator", "q_solver", "method"},
    "baxter.sov_from_q": {"chain", "validate", "source"},
    "baxter.default_zeta": {"min_dist", "max_tries"},
    "baxter.solve_q_polynomial": {"trim_tol", "root_floor", "det_floor"},
    "baxter.QOperator": {"method"},
    "baxter.q_operator_invertibility": {"cond_limit"},
    "baxter.tq_residual": {"n_samples"},
    "chain.Tolerances": {"residual"},
    "chain.make_chain": {"check", "tolerances"},
    "chain.ChainSpec": {"tolerances"},
    "chain.random_chain": {"box", "max_tries", "tolerances"},
    "transfer.TransferEvaluator": {"samples"},
    "transfer.central_zero_residual": {"level", "n"},
    "transfer.symmetry_residual": {"k_matrix"},
    "transfer._lax_chain": {"bufs"},
    "cli.run": {"precision", "tol_override", "samples"},
    "cli.suite_fusion": {"samples"},
    "cli.suite_basis": {"samples", "precision"},
    "cli.suite_spectrum": {"samples"},
    "cli.suite_baxter": {"samples"},
    "cli.suite_qop": {"samples"},
    "cli._spectrum_table": {"chain"},
}


@pytest.mark.parametrize("qualname", sorted(REMOVED_PARAMETERS))
def test_removed_parameters_stay_gone(qualname):
    module, name = qualname.split(".")
    params = inspect.signature(getattr(importlib.import_module(f"sovchain.{module}"), name))
    assert REMOVED_PARAMETERS[qualname].isdisjoint(params.parameters)


# the one-eigenvalue-at-a-time API; the tests keep the oracles among them
REMOVED_NAMES = [
    "spectrum.discrete_matrix", "spectrum.fused_eigenvalues", "spectrum.trailing_minors",
    "spectrum.leading_minor", "spectrum.wavefunction_sov1", "spectrum.wavefunction_sov2",
    "spectrum.TransferPolynomial.fused_value",
    "baxter.q_values", "baxter.tq_residual_shifted", "baxter.degenerate_q_closed_form",
    "transfer.MonodromyBlocks", "transfer.monodromy_blocks", "transfer.reference_covector",
    "chain.multi_indices",
    # the per-eigenvalue containers, restacked by each consumer
    "spectrum.EigenRecord", "baxter.q_coefficients", "numerics.trim_trailing",
    # second implementations and wrappers that no production code called
    "transfer.tridiagonal_operator_det", "chain.ChainSpec.nodes", "chain.ChainSpec.all_nodes",
    "chain.Twist.a", "chain.Twist.b", "chain.Twist.c", "chain.Twist.d",
    "sov_bases.CovectorBasis.double_rank", "sov_bases._rank", "spectrum._site_data",
    "cli._passes",
    # raises that repeated the gate of a report row; the row is the verdict
    "errors.CountMismatch", "errors.NonInvertibleQ", "errors.RootOnForbiddenNode",
    "sov_bases._require_full_rank",
    # pre-checks that overruled the Q route's rows: the closure floor, the backward
    # recursion over the grid ratios and the orbit validation of the tensor covector
    "baxter._require_regular_closure", "baxter.CLOSURE_DET_FLOOR",
    "spectrum.TransferPolynomial.checked_grid_ratios", "errors.DegenerateBasis",
    # the slab route of the RTT and symmetry residuals, replaced by probes
    "transfer._lax_slabs", "transfer._slab_residual", "transfer._lax_legs",
    # the closure classes and the function that paired them, folded into baxter._Closure
    "baxter.CZetaSystem", "baxter._Interpolation", "baxter._closure_system",
    # the second tower builder, folded into TransferEvaluator.fused
    "transfer._fused_on_probes",
    # the eigenvector fallback of the b = 0 frame, replaced by a second fixed involution
    "chain._b_zero_conjugator",
    # the dense commutator of the Q-operator row, now the tests' oracle (conftest)
    "numerics.commutator_residual",
]


def _resolves(owner, path):
    for attr in path:
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return True


@pytest.mark.parametrize("qualname", REMOVED_NAMES)
def test_removed_names_stay_gone(qualname):
    module, *path = qualname.split(".")
    assert not _resolves(importlib.import_module(f"sovchain.{module}"), path)
    assert not _resolves(sovchain, path)


def test_every_error_class_has_a_trigger():
    # each class in errors.py is raised or warned in the library, or is the base of one that is
    import ast
    import pathlib

    from sovchain import errors

    triggered = set()
    for path in pathlib.Path(sovchain.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                triggered.add(getattr(exc, "id", None))
            elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "warn"):
                triggered.update(arg.id for arg in node.args if isinstance(arg, ast.Name))
    classes = [cls for cls in vars(errors).values()
               if isinstance(cls, type) and cls.__module__ == errors.__name__]
    raised = [cls for cls in classes if cls.__name__ in triggered]
    assert [cls.__name__ for cls in classes
            if not any(issubclass(r, cls) for r in raised)] == []


def test_tq_residual_takes_its_points():
    from sovchain.baxter import tq_residual

    assert inspect.signature(tq_residual).parameters["lams"].default is inspect.Parameter.empty


def test_q_operator_is_built_from_finished_inputs():
    from sovchain.baxter import build_q_operator

    params = inspect.signature(build_q_operator).parameters
    assert list(params) == ["oracle", "q"]
    assert params["oracle"].default is inspect.Parameter.empty


def test_monodromy_is_block_only():
    # no full 2D x 2D form: a block needs its start and its close
    from sovchain.transfer import monodromy_matrix

    params = inspect.signature(monodromy_matrix).parameters
    assert [params[p].default for p in ("start", "close")] == [inspect.Parameter.empty] * 2


# one evaluator per run and one Sklyanin basis per run: no routine builds its own
@pytest.mark.parametrize("qualname, param", [
    ("sov_bases.sov_basis_1", "evaluator"), ("sov_bases.sov_basis_2", "evaluator"),
    ("sov_bases.separate_action_report", "evaluator"),
    ("spectrum.eigenvector_from_sov", "evaluator"), ("baxter.sov_from_q", "sklyanin"),
])
def test_shared_inputs_are_required(qualname, param):
    module, name = qualname.split(".")
    params = inspect.signature(getattr(importlib.import_module(f"sovchain.{module}"), name))
    assert params.parameters[param].default is inspect.Parameter.empty
