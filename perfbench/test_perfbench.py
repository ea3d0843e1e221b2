"""Self-tests of the benchmark harness. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import Job, Tally, UnexpectedRow, expected_rows  # noqa: E402

sovchain = workloads.import_sovchain()
from sovchain import cli  # noqa: E402


class SmokeWorkload(workloads.Workload):
    """One ``sovchain all`` on the hand-checkable single-site config."""

    def pass_jobs(self, seed, index):
        chain = cli.chain_from_config(cli.load_config("n1_spin_half"), seed=seed + index)
        return [Job(command="all", dim=chain.dim, chain=chain)]


def smoke(trace, monkeypatch):
    monkeypatch.setattr(run, "probe_setup", lambda workload, seed: 0.125)
    args = argparse.Namespace(workload="smoke", seed=3, seconds=0.0, trace=trace, record=None)
    return run.bench(args, {"smoke": SmokeWorkload("smoke")})


def declared(kind):
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def sovchain_bindings():
    """Identity of every attribute of every sovchain module and traced class."""
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "sovchain"]
    owners += [sovchain.TransferEvaluator, sovchain.TransferPolynomial]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_smoke_untraced(monkeypatch):
    result = smoke(0, monkeypatch)
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert set(result["metrics"]) == declared("end_to_end")
    assert result["metrics"]["check_pass_frac"]["value"] == 1.0
    assert result["metrics"]["wall_s"]["value"] > 0


def test_command_workload_through_cli_main(monkeypatch):
    monkeypatch.setattr(run, "probe_setup", lambda workload, seed: 0.125)
    wl = workloads.CommandWorkload("cmd-smoke", spins=(1, 2), commands=("verify-fusion",))
    args = argparse.Namespace(workload="cmd-smoke", seed=3, seconds=0.0, trace=1, record=None)
    result = run.bench(args, {"cmd-smoke": wl})
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.parse_config.s"] > 0 and metrics["cli.render_report.s"] > 0
    assert metrics["cli.checks.expected"] == len(expected_rows("verify-fusion"))
    assert not wl.tmp.exists()


def test_chain_config_rebuilds_the_chain(tmp_path):
    import numpy as np

    chain = workloads._random_chain((2, 1, 2), 11)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(workloads.chain_config(chain)))
    rebuilt = cli.chain_from_config(cli.load_config(str(path)))
    assert rebuilt.sites == chain.sites
    assert (rebuilt.eta, rebuilt.seed, rebuilt.tolerances) == (chain.eta, chain.seed,
                                                               chain.tolerances)
    assert np.array_equal(rebuilt.twist.matrix, chain.twist.matrix)


def test_smoke_traced_restores_originals(monkeypatch):
    before = sovchain_bindings()
    result = smoke(1, monkeypatch)
    after = sovchain_bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert result["correct"] and result["attempted"] == 2
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == declared("per_layer")
    assert metrics["cli.checks.expected"] == len(expected_rows("all"))
    assert metrics["transfer.monodromy_matrix.calls"] > 0
    assert metrics["baxter.q_solves_per_eigenvalue"] > 0


def test_self_times_add_up_to_traced_wall():
    chain = cli.chain_from_config(cli.load_config("n2_mixed"))
    tracer = Tracer()
    tracer.install()
    try:
        start = run.time.perf_counter()
        cli.run("verify-fusion", chain)
        wall = run.time.perf_counter() - start
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics(wall, chain.dim)
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["unattributed_s"]
    assert total == pytest.approx(wall, rel=1e-9)
    assert m["transfer.fused_transfer_projector.calls"] > 0


def test_traced_exception_propagates_and_restores(monkeypatch):
    before = sovchain_bindings()
    chain = cli.chain_from_config(cli.load_config("n1_spin_half"))
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(cli.ConfigError):
            cli.suite_basis(chain, "no-such-kind", 1)
    finally:
        tracer.uninstall()
    after = sovchain_bindings()
    assert all(after[k] is v for k, v in before.items())


def test_forced_suite_exception_fails_every_row_of_the_suite(monkeypatch):
    def suite_algebra(chain, samples):
        raise ValueError("forced")

    monkeypatch.setattr(cli, "suite_algebra", suite_algebra)
    chain = cli.chain_from_config(cli.load_config("n1_spin_half"))
    job = Job(command="verify-algebra", dim=chain.dim, chain=chain)
    tally = Tally()
    tally.add_job(job.command, job.report(job.call())["checks"])
    assert tally.expected == 7
    assert tally.failed == 6
    assert tally.errored == 1
    assert tally.jobs_failed == 1


def test_missing_and_unexpected_rows():
    rows = [{"name": n, "value": 0.0, "tolerance": 1e-9, "passed": True}
            for n in expected_rows("verify-fusion")]
    tally = Tally()
    tally.add_job("verify-fusion", rows[:-1])
    assert tally.failed == 1 and tally.jobs_failed == 1
    with pytest.raises(UnexpectedRow):
        Tally().add_job("verify-fusion", rows + [dict(rows[0], name="fusion.new_check")])
    with pytest.raises(UnexpectedRow):
        Tally().add_job("verify-fusion", rows + rows[:1])


def test_expected_rows_match_the_library():
    chain = cli.chain_from_config(cli.load_config("n2_mixed"))
    got = [c["name"] for c in cli.run("all", chain)["checks"]]
    assert tuple(got) == expected_rows("all")
    assert len(expected_rows("all")) == 46
    dense = ("verify-algebra", "verify-fusion", "basis:sklyanin", "basis:sov1", "basis:sov2")
    assert sum(len(expected_rows(c)) for c in dense) == 27


def test_twist_matches_the_test_suite():
    import importlib.util

    import numpy as np

    spec = importlib.util.spec_from_file_location(
        "sovchain_test_conftest", workloads.ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    assert np.array_equal(conftest.TWIST_FULL, np.array(workloads.TWIST_FULL))


def test_setup_probe_prints_seconds():
    out = subprocess.run([sys.executable, str(HERE / "probe.py"), "--workload", "dense-ops",
                          "--seed", "7"], capture_output=True, text=True, check=True, timeout=60)
    assert float(out.stdout.strip()) > 0
