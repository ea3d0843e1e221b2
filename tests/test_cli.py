import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sovchain import cli, make_chain
from sovchain.cli import (ConfigError, chain_from_config, load_config, main,
                          parse_config, run)
from sovchain.errors import SingularCZeta, SingularTwistWarning
from sovchain.local_ops import kron_embed, lax, r_matrix
from sovchain.numerics import frob, random_complex
from sovchain.transfer import TransferEvaluator

MINIMAL = """
{
  "eta": [1.0, 0.0],
  "sites": [{"two_s": 1, "xi": [0.0, 0.0]}],
  "twist": {"a": [2.0, 0.0], "b": [0.0, 0.0], "c": [0.0, 0.0], "d": [1.0, 0.0]},
  "seed": 3
}
"""


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg["eta"] == 1.0
    assert cfg["sites"] == [(1, 0.0)]
    assert cfg["seed"] == 3
    chain = chain_from_config(cfg)
    assert chain.dim == 2


def test_parse_rejects_unknown_keys(tmp_path, capsys):
    # the gates and cuts are program constants and no reader takes a schema version,
    # so a config that sets one of them exits 2 like any unknown key, naming it
    path = tmp_path / "chain.json"
    for key, value in (("extra", 1), ("schema_version", 2), ("tolerances", {"gram": 1e-3}),
                       ("tolerances", {"residual": 1e-6})):
        bad = dict(json.loads(MINIMAL), **{key: value})
        with pytest.raises(ConfigError, match=rf"top-level config has unknown keys: \['{key}'\]"):
            parse_config(json.dumps(bad))
        path.write_text(json.dumps(bad))
        assert main(["verify-algebra", "--config", str(path)]) == 2
        assert f"unknown keys: ['{key}']" in capsys.readouterr().err


def test_parse_rejects_bad_two_s():
    bad = json.loads(MINIMAL)
    bad["sites"][0]["two_s"] = 0
    with pytest.raises(ConfigError, match="two_s"):
        parse_config(json.dumps(bad))


def test_parse_rejects_missing_twist():
    bad = json.loads(MINIMAL)
    del bad["twist"]
    with pytest.raises(ConfigError, match="twist"):
        parse_config(json.dumps(bad))


def test_parse_rejects_bad_complex():
    bad = json.loads(MINIMAL)
    bad["eta"] = "one"
    with pytest.raises(ConfigError, match="eta"):
        parse_config(json.dumps(bad))


# Python's json reads NaN and Infinity, and true is an int to isinstance
@pytest.mark.parametrize("path, value", [
    (("twist", "a"), [float("nan"), 0.0]),
    (("twist", "b"), [0.0, float("inf")]),
    (("eta",), [float("nan"), 0.0]),
    (("eta",), [float("-inf"), 0.0]),
    (("sites", 0, "xi"), [0.0, float("nan")]),
    (("eta",), [True, 0.0]),
    (("sites", 0, "two_s"), True),
    (("seed",), True),
    (("seed",), 3.0),
], ids=["nan-twist", "inf-twist", "nan-eta", "inf-eta", "nan-xi", "bool-eta", "bool-two_s",
        "bool-seed", "float-seed"])
def test_parse_rejects_non_finite_and_boolean_numbers(path, value):
    bad = json.loads(MINIMAL)
    owner = bad
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    with pytest.raises(ConfigError, match=str(path[-1])):
        parse_config(json.dumps(bad))


@pytest.mark.parametrize("key", ["gram", "zero"])
@pytest.mark.parametrize("value", [-1.0, 0, float("nan"), float("inf"), True])
def test_parse_requires_positive_finite_tolerances(key, value):
    # the cuts are program constants: a tolerances key is refused whatever its value
    # (test_parse_rejects_unknown_keys gives a valid one)
    bad = json.loads(MINIMAL)
    bad["tolerances"] = {key: value}
    with pytest.raises(ConfigError, match=r"unknown keys: \['tolerances'\]"):
        parse_config(json.dumps(bad))


def test_zero_eta_is_a_config_error():
    # eta = 0 stacks every node of a site on one point; it passed model.genericity
    bad = json.loads(MINIMAL)
    bad["eta"] = [0.0, 0.0]
    with pytest.raises(ConfigError, match="eta"):
        chain_from_config(parse_config(json.dumps(bad)))


def test_non_finite_config_exits_2(tmp_path, capsys):
    # a NaN twist entry used to reach the twist's eigendecomposition and crash with exit 1,
    # and a file that is not UTF-8 left main as a UnicodeDecodeError traceback
    path = tmp_path / "nan.json"
    path.write_text(MINIMAL.replace('"a": [2.0, 0.0]', '"a": [NaN, 0.0]'))
    assert main(["verify-algebra", "--config", str(path)]) == 2
    assert "twist.a" in capsys.readouterr().err
    path = tmp_path / "utf16.json"
    path.write_bytes(MINIMAL.encode("utf-16"))    # starts with the bytes ff fe
    assert main(["verify-algebra", "--config", str(path)]) == 2
    assert "UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["config", "flag"])
def test_negative_seed_exits_2_before_any_suite(tmp_path, monkeypatch, capsys, where):
    # np.random.default_rng rejects a negative seed, so every suite used to error (exit 1);
    # make_chain refuses it for both the config's seed and --seed
    monkeypatch.setattr(cli, "run", lambda *a, **k: pytest.fail("a suite ran"))
    path = tmp_path / "seed.json"
    path.write_text(MINIMAL.replace('"seed": 3', '"seed": -3'))
    argv = (["all", "--config", str(path)] if where == "config"
            else ["all", "--config", "n2_mixed", "--seed", "-1"])
    assert main(argv) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err


def test_unwritable_out_path_exits_2_before_any_suite(monkeypatch, capsys):
    # the output is opened before the run: no suite runs and no traceback
    monkeypatch.setattr(cli, "run", lambda *a, **k: pytest.fail("a suite ran"))
    code = main(["verify-algebra", "--config", "n1_spin_half",
                 "--out", "/nonexistent/dir/x.json"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_genericity_row_fails_on_a_non_generic_chain():
    # xi_0 - xi_1 = -eta: a ChainSpec built directly skips make_chain's genericity
    # check, and the model.genericity row reports the violation instead of raising it
    from conftest import SUITE_ROWS, TWIST_FULL
    from sovchain.chain import ChainSpec, Site, normalize_twist

    chain = ChainSpec(eta=1.0, sites=(Site(1, 0.0), Site(1, 1.0)),
                      twist=normalize_twist(TWIST_FULL))
    row = run("verify-algebra", chain)["checks"][0]
    assert row["name"] == "model.genericity" and row["value"] == 1.0 and not row["passed"]
    assert "xi_0 - xi_1" in row["info"]["message"]
    # no suite checks genericity again: spectrum gives every row (its k2 = 0 closed form
    # keeps the chain's sites), and on spins (1, 2) with xi_1 - xi_0 = eta or 2 eta all pass
    names = [c["name"] for c in run("spectrum", chain)["checks"]]
    assert names == ["model.genericity", *SUITE_ROWS["spectrum"]]
    for k in (1, 2):
        chain = ChainSpec(eta=1.0, sites=(Site(1, 0.3 - 0.2j), Site(2, 0.3 - 0.2j + k)),
                          twist=normalize_twist(TWIST_FULL))
        checks = run("spectrum", chain)["checks"]
        assert [c["name"] for c in checks] == ["model.genericity", *SUITE_ROWS["spectrum"]]
        assert not checks[0]["passed"] and all(c["passed"] for c in checks[1:])
    assert run("verify-algebra", chain_from_config(load_config("n2_mixed")))["checks"][0] == {
        "name": "model.genericity", "value": 0.0, "tolerance": 0.0, "passed": True}


def test_nan_bases_and_q_fail_their_rows_not_their_suites():
    # xi_0 - xi_1 = -eta: the Sklyanin, second and Q-generated bases and the Q eigenvalues
    # are NaN; the rank rows read rank 0 and the condition row inf, where an SVD of the NaN
    # matrices raised and each suite collapsed into one error row
    from conftest import SUITE_ROWS, TWIST_FULL
    from sovchain.chain import ChainSpec, Site, normalize_twist

    chain = ChainSpec(eta=1.0, sites=(Site(1, 0.0), Site(1, 1.0)),
                      twist=normalize_twist(TWIST_FULL))
    with np.errstate(all="ignore"):
        checks = {c["name"]: c for c in run("all", chain)["checks"]}
    assert not any(name.endswith(".error") for name in checks)
    for suite in ("basis.sklyanin", "basis.sov1", "basis.sov2", "basis.q", "qop"):
        assert all(name in checks for name in SUITE_ROWS[suite]), suite
    for kind in ("sklyanin", "sov2", "q"):
        assert checks[f"basis.{kind}.rank_deficit"]["value"] == chain.dim
    row = checks["qop.bottom_node_condition"]
    assert row["value"] == np.inf and not row["passed"]
    assert row["info"]["brackets"] == [[np.inf, np.inf]] * 2


@pytest.mark.parametrize("spins, seed, command, failing", [
    ((6, 6), 2, "qop", "qop.bottom_node_condition"),
    ((6, 6), 9, "spectrum", "spectrum.eigenvector_residual"),
    ((3, 3, 3, 3), 7, "spectrum", "spectrum.eigenvector_residual"),
    # an ill-conditioned Q closure is solved as it stands; the T-Q rows judge its Q
    ((8, 8), 1, "baxter", "baxter.tq_equation"),
    ((4, 4, 4), 5, "baxter", "baxter.tq_equation"),
    ((6, 6), 1, "baxter", "baxter.tq_equation"),
    ((6, 6), 1, "qop", "qop.operator_tq_equation"),
])
def test_gated_quantities_fail_their_row_not_the_suite(spins, seed, command, failing):
    # the library returns the quantity a row gates and raises nothing at the
    # row's threshold: the suite keeps every row and the named one fails
    from conftest import SUITE_ROWS, TWIST_FULL
    from sovchain.chain import random_chain

    report = run(command, random_chain(spins, 1.0, TWIST_FULL, seed))
    checks = {c["name"]: c for c in report["checks"]}
    assert list(checks) == ["model.genericity", *SUITE_ROWS[command]]
    assert not checks[failing]["passed"] and not report["passed"]


NAN = float("nan")


@pytest.mark.parametrize("conds, passed", [
    ({(0, 1): (5.0, 5.0), (1, 2): (NAN, NAN)}, False),
    ({(0, 1): (NAN, NAN), (1, 2): (5.0, 5.0)}, False),
    ({(0, 1): (5.0, 5.0), (1, 2): (2e8, 2e8)}, False),
    ({(0, 1): (5.0, 5.0), (1, 2): (7.0, 7.0)}, True),
    ({(0, 1): (5.0, 9e7), (1, 2): (7.0, 7.0)}, True),
    ({(0, 1): (5.0, 5.0), (1, 2): (2e8, 1e12)}, False),
])
def test_bottom_node_condition_row_folds_every_site(monkeypatch, conds, passed):
    # the row is the worst site's lower bracket end against 1e8, which a bracket that
    # does not hold the gate decides; a NaN at any site fails it
    monkeypatch.setattr(cli, "q_operator_invertibility", lambda qop: conds)
    report = run("qop", chain_from_config(load_config("n2_mixed")))
    row = next(c for c in report["checks"] if c["name"] == "qop.bottom_node_condition")
    assert row["passed"] is passed


def test_parse_reports_line_of_syntax_error():
    with pytest.raises(ConfigError, match="line"):
        parse_config("{\n  broken\n}")


def test_bundled_configs_load():
    for name in ("n1_spin_half", "n2_mixed", "n2_mixed_diagonal", "n2_spin22", "n3_mixed"):
        cfg = load_config(name)
        chain = chain_from_config(cfg)
        assert chain.dim >= 2
    with pytest.raises(ConfigError, match="no bundled config"):
        load_config("no_such_config")


def test_seed_override():
    cfg = parse_config(MINIMAL)
    assert chain_from_config(cfg, seed=99).seed == 99


def test_run_verify_algebra_passes():
    chain = chain_from_config(load_config("n2_mixed"))
    report = run("verify-algebra", chain)
    assert report["passed"] and report["samples"] == 20
    assert any(c["name"] == "algebra.ybe" for c in report["checks"])


def _per_sample_ybe_rll(chain, samples):
    """YBE and RLL rows by embedding R and L for every draw; returns (ybe, rll, rng after)."""
    rng = chain.rng(100)
    dims3 = [2, 2, 2]
    ybe = 0.0
    for _ in range(samples):
        lam, mu = random_complex(rng, size=2, box=3.0)
        r12 = kron_embed(r_matrix(lam - mu, chain.eta), [0, 1], dims3)
        r13 = kron_embed(r_matrix(lam, chain.eta), [0, 2], dims3)
        r23 = kron_embed(r_matrix(mu, chain.eta), [1, 2], dims3)
        lhs = r12 @ r13 @ r23
        ybe = max(ybe, frob(lhs - r23 @ r13 @ r12) / max(1.0, frob(lhs)))
    rll = 0.0
    for two_s in sorted({site.two_s for site in chain.sites} | {1, 2, 3}):
        dims = [2, 2, two_s + 1]
        for _ in range(samples):
            lam, mu = random_complex(rng, size=2, box=3.0)
            r12 = kron_embed(r_matrix(lam - mu, chain.eta), [0, 1], dims)
            l1 = kron_embed(lax(lam, two_s, chain.eta), [0, 2], dims)
            l2 = kron_embed(lax(mu, two_s, chain.eta), [1, 2], dims)
            lhs = r12 @ l1 @ l2
            rll = max(rll, frob(lhs - l2 @ l1 @ r12) / max(1.0, frob(lhs)))
    return ybe, rll, rng


@pytest.mark.parametrize("name", ["n1_spin_half", "n2_mixed", "n2_mixed_diagonal", "n2_spin22",
                                  "n3_mixed"])
@pytest.mark.parametrize("samples", [0, 1, 20])
def test_stacked_ybe_rll_match_per_sample_loop(name, samples, monkeypatch):
    chain = chain_from_config(load_config(name))
    if samples < 1:
        # no draw to match: the suite refuses, where an empty fold read 0.0 and passed
        with pytest.raises(ValueError, match="samples must be at least 1"):
            cli.suite_algebra(chain, samples)
        return
    ybe, rll, rng = _per_sample_ybe_rll(chain, samples)
    seen = []
    for fn in ("rtt_residual", "quantum_det_residual", "symmetry_residual"):
        def record(chain, *points, fn=fn, real=getattr(cli, fn)):
            # one entry per sample point: each identity takes all its points at once
            seen.extend((fn, p) for p in zip(*(np.atleast_1d(x) for x in points)))
            return real(chain, *points)
        monkeypatch.setattr(cli, fn, record)
    rows = {c["name"]: c["value"] for c in cli.suite_algebra(chain, samples)}
    # both rows are roundoff-sized, so the relative bound is what shows the same draws
    for got, want in ((rows["algebra.ybe"], ybe), (rows["algebra.rll"], rll)):
        assert abs(got - want) <= 1e-15
        assert got == pytest.approx(want, rel=1e-6, abs=0)
    # the stacked blocks leave the generator where the loops did, so the later rows
    # read the same points
    pairs = max(4, samples // 2)
    want = ([("rtt_residual", tuple(random_complex(rng, size=2, box=3.0))) for _ in range(pairs)]
            + [("quantum_det_residual", (complex(random_complex(rng, box=3.0)),))
               for _ in range(pairs)]
            + [("symmetry_residual", (complex(random_complex(rng, box=3.0)),)) for _ in range(4)])
    assert seen == want


@pytest.mark.parametrize("samples", [0, -3])
def test_samples_below_one_are_refused(samples, capsys, monkeypatch):
    # the draw count is a program constant: no option sets it
    with pytest.raises(SystemExit) as exc:
        main(["verify-algebra", "--config", "n2_mixed", "--samples", str(samples)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --samples" in capsys.readouterr().err
    # an empty sample set used to fold to 0.0 and pass algebra.ybe and algebra.rll
    monkeypatch.setattr(cli, "_ALGEBRA_SAMPLES", samples)
    chain = chain_from_config(load_config("n2_mixed"))
    rows = {c["name"]: c for c in run("verify-algebra", chain)["checks"]}
    assert list(rows) == ["model.genericity", "suite_algebra.error"]
    assert not rows["suite_algebra.error"]["passed"]
    assert "samples must be at least 1" in rows["suite_algebra.error"]["info"]["message"]


def _spoil(real, mode):
    """``real`` with one sample read as NaN: ``("call", k)`` spoils the k-th call's whole
    result, ``"sample"`` entry 1 of the one call's per-sample result, ``("item", i)``
    entry 1 of item i of the one call's tuple result."""
    calls = []

    def spoiled(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(1)
        if mode == "sample":
            out = np.array(out)
            out[1] = np.nan
        elif mode[0] == "item":
            out = list(out)
            out[mode[1]] = np.array(out[mode[1]])
            out[mode[1]][1] = np.nan
            out = tuple(out)
        elif len(calls) == mode[1]:
            out = out * np.nan
        return out

    return spoiled


# one case per fold of sample residuals into a row; np.max keeps a NaN sample, a
# max(worst, x) fold from worst = 0.0 drops it and the row passes
NAN_FOLDS = [
    ("verify-algebra", "rtt_residual", "sample", "algebra.rtt"),
    ("verify-algebra", "quantum_det_residual", "sample", "algebra.quantum_det"),
    ("verify-algebra", "symmetry_residual", "sample", "algebra.twist_symmetry"),
    ("verify-algebra", "frob", ("call", 2), "algebra.spin_relations"),
    ("verify-fusion", "_commuting_residuals", "sample", "fusion.commuting_family"),
    ("verify-fusion", "fused_transfer_projector", "sample", "fusion.route_equivalence"),
    ("verify-fusion", "central_zero_residual", "sample", "fusion.central_zeros"),
    ("verify-fusion", "_tridiagonal_residuals", "sample", "fusion.tridiagonal_determinant"),
    ("verify-fusion", "_multiset_distance", ("call", 2), "fusion.fused_twist_spectrum"),
    ("spectrum", "match_to_oracle", ("item", 1), "spectrum.oracle_match_distance"),
    ("qop", "_determinant_eigenvalues", ("call", 1), "qop.method_agreement"),
]


@pytest.mark.parametrize("command, fn, mode, row", NAN_FOLDS,
                         ids=[f"{case[1]}-{case[3]}" for case in NAN_FOLDS])
def test_algebra_row_fails_on_a_nan_sample(monkeypatch, command, fn, mode, row):
    chain = chain_from_config(load_config("n2_mixed"))
    monkeypatch.setattr(cli, fn, _spoil(getattr(cli, fn), mode))
    rows = {c["name"]: c for c in run(command, chain)["checks"]}
    assert not rows[row]["passed"]


def _nan_at(real, bad):
    """``real``, an evaluator's ``_at``, with T at the point ``bad`` read as NaN."""
    def spoiled(lams):
        out = real(lams)
        out[np.asarray(lams) == bad] = np.nan
        return out
    return spoiled


@pytest.mark.parametrize("row", ["qop.commutes_with_transfer", "qop.operator_tq_equation",
                                 "basis.sov2.separate_action", "basis.sklyanin.b_eigen",
                                 "basis.sklyanin.a_shift"])
def test_library_fold_keeps_a_nan_sample(monkeypatch, row):
    # the folds inside the Q-operator and SoV reports: one NaN point spoils the value
    from sovchain import baxter, sov_bases

    chain = chain_from_config(load_config("n2_mixed"))
    ctx, spoiled = cli._RunContext(chain), TransferEvaluator(chain)
    lams = [0.4 + 0.3j, -1.1 + 0.7j, 0.9 - 1.3j]
    if row == "qop.commutes_with_transfer":
        spoiled._at = _nan_at(spoiled._at, lams[1])
        value = baxter.q_operator_commutation_residual(ctx.q_operator(), spoiled, lams[:1], lams)
    elif row == "qop.operator_tq_equation":
        spoiled._at = _nan_at(spoiled._at, lams[1] - chain.eta)
        value = baxter.q_operator_tq_residual(ctx.q_operator(), spoiled, lams)
    elif row == "basis.sov2.separate_action":
        spoiled._at = _nan_at(spoiled._at, chain.node(1, 0))
        value = sov_bases.separate_action_report(ctx.sov2(), spoiled)
    else:
        skl, real = ctx.sklyanin(), sov_bases._site_laxes

        def site_laxes(chain, points):   # the Lax operators of point lams[1] read as NaN
            ops = real(chain, points)
            bad = np.asarray(points) == lams[1]
            for op in ops:
                op[bad] = np.nan
            return ops

        monkeypatch.setattr(sov_bases, "_site_laxes", site_laxes)
        value = (sov_bases.b_eigen_report(skl, lams) if row == "basis.sklyanin.b_eigen"
                 else np.max(list(sov_bases.shift_action_report(skl, lams).values())))
    assert np.isnan(value)


def test_main_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    cfg_path = tmp_path / "chain.json"
    cfg_path.write_text(MINIMAL)

    assert main(["verify-fusion", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] and report["command"] == "verify-fusion"
    assert report["schema_version"] == 2 and "precision" not in report

    # failing check -> 1: with k2 = 0 the spectrum suite reports an error row
    singular = json.loads(MINIMAL)
    singular["twist"]["d"] = [0.0, 0.0]
    singular_path = tmp_path / "k2zero.json"
    singular_path.write_text(json.dumps(singular))
    with pytest.warns(SingularTwistWarning):
        assert main(["spectrum", "--config", str(singular_path), "--out", str(out)]) == 1
    assert not json.loads(out.read_text())["passed"]

    # config errors -> 2
    assert main(["spectrum", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["spectrum", "--config", str(bad)]) == 2

    # usage errors -> 2 (argparse exits)
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", str(cfg_path)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--config", str(cfg_path)])
    assert exc.value.code == 2
    for removed in (["--precision", "double"], ["--tol", "1e-30"], ["--samples", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify-fusion", "--config", str(cfg_path)] + removed)
        assert exc.value.code == 2


def test_basis_command_kinds(tmp_path):
    out = tmp_path / "report.json"
    assert main(["basis", "sov2", "--config", "n2_mixed", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["command"] == "basis:sov2"
    names = {c["name"] for c in report["checks"]}
    assert "basis.sov2.sklyanin_identification" in names


def test_all_command_on_reference_config(tmp_path):
    out = tmp_path / "report.json"
    assert main(["all", "--config", "n2_mixed", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert len(report["checks"]) > 40
    assert all(c["passed"] for c in report["checks"])


def test_all_runs_on_numpy_alone():
    # numpy is the only dependency, also where mpmath is installed
    script = """
import sys
from sovchain import cli
cli.run("all", cli.chain_from_config(cli.load_config("n2_mixed")))
assert "mpmath" not in sys.modules
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr


def test_report_deterministic(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        assert main(["spectrum", "--config", "n2_mixed", "--out", str(out)]) == 0
    rep_a = json.loads(out_a.read_text())
    rep_b = json.loads(out_b.read_text())
    rep_a.pop("timing")
    rep_b.pop("timing")
    assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)


def test_spectrum_report_table(tmp_path):
    out = tmp_path / "report.json"
    assert main(["spectrum", "--config", "n2_mixed", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["spectrum"]) == 6
    for row in report["spectrum"]:
        assert row["discrete_residual"] < 1e-8


def test_qop_failure_becomes_failed_check(tmp_path):
    # equal twist eigenvalues: the Q-operator gate trips and the run fails
    cfg = tmp_path / "jordan.json"
    cfg.write_text(json.dumps({
        "eta": [1.0, 0.0],
        "sites": [{"two_s": 1, "xi": [0.0, 0.0]}],
        "twist": {"a": [1.0, 0.0], "b": [1.0, 0.0], "c": [0.0, 0.0], "d": [1.0, 0.0]},
        "seed": 1,
    }))
    out = tmp_path / "report.json"
    assert main(["qop", "--config", str(cfg), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert not report["passed"]


JORDAN = {
    "eta": [1.0, 0.0],
    "sites": [{"two_s": 1, "xi": [0.0, 0.0]}],
    "twist": {"a": [1.0, 0.0], "b": [1.0, 0.0], "c": [0.0, 0.0], "d": [1.0, 0.0]},
    "seed": 1,
}


@pytest.mark.parametrize("command", ["spectrum", "all"])
def test_spectrum_failure_becomes_error_row(tmp_path, command):
    # equal twist eigenvalues: the oracle spectrum is degenerate, so the
    # spectrum suite and its table fail; the report is still written
    cfg = tmp_path / "jordan.json"
    cfg.write_text(json.dumps(JORDAN))
    out = tmp_path / "report.json"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "suite_spectrum.error" in failed
    assert "spectrum" not in report


def test_all_rows_equal_separate_commands():
    chain = chain_from_config(load_config("n2_mixed"))
    together = run("all", chain)
    rows = [c for c in together["checks"] if c["name"] != "model.genericity"]
    separate = []
    for command, kind in [("verify-algebra", None), ("verify-fusion", None),
                          ("basis", "sklyanin"), ("basis", "sov1"), ("basis", "sov2"),
                          ("basis", "q"), ("spectrum", None), ("baxter", None), ("qop", None)]:
        report = run(command, chain, basis_kind=kind)
        separate += [c for c in report["checks"] if c["name"] != "model.genericity"]
        if command == "spectrum":
            assert report["spectrum"] == together["spectrum"]
    assert json.dumps(rows, sort_keys=True) == json.dumps(separate, sort_keys=True)


def test_all_diagonalizes_once(monkeypatch):
    calls = []
    oracle = cli.brute_force_spectrum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return oracle(*args, **kwargs)

    monkeypatch.setattr(cli, "brute_force_spectrum", counted)
    chain = chain_from_config(load_config("n2_mixed"))
    assert run("all", chain)["passed"]
    assert len(calls) == 1


def test_run_makes_one_evaluator_of_n_kernel_builds(monkeypatch):
    # a run has one evaluator, and it builds T on its chain only for the evaluator's N
    # samples, the 2 points that both fusion premise rows add to them and the oracle's
    # N + 1 (its probe and the top nodes); each module that binds the kernel is counted
    transfer_module = importlib.import_module("sovchain.transfer")
    spectrum_module = importlib.import_module("sovchain.spectrum")
    made, builds, kernel, init = [], [], transfer_module.transfer, TransferEvaluator.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(TransferEvaluator, "__init__", recorded)
    chain = chain_from_config(load_config("n2_mixed"))
    for owner in (transfer_module, spectrum_module, cli):
        monkeypatch.setattr(owner, "transfer",
                            lambda on, lam: builds.append(on is chain) or kernel(on, lam))
    assert run("all", chain)["passed"]
    assert len(made) == 1
    assert builds.count(True) == 2 * chain.n_sites + 3


@pytest.mark.parametrize("spins, extra", [([1] * 7, 14), ([2, 2, 2, 2], 14), ([1, 2, 1, 2, 1], 35),
                                          ([1] * 6, 14), ([1] * 8, 14)],
                         ids=["1^7", "2^4", "1,2,1,2,1", "1^6", "1^8"])
def test_fusion_peak_memory_is_a_few_towers(spins, extra):
    # verify-fusion holds the N samples and, besides them, at most two fused towers or one
    # point's projectors and tower: its traced peak stays within N + extra D x D arrays.
    # At 1,2,1,2,1 the level-3 projector alone peaks at 16.6: the product of sites 1..N-1
    # and its copy with R slowest hold 8 each (spin-1/2 last site; N + 19.0 in all)
    import tracemalloc

    from conftest import TWIST_FULL
    from sovchain.chain import random_chain

    chain = random_chain(spins, 1.0, TWIST_FULL, seed=7)
    tracemalloc.start()
    try:
        report = run("verify-fusion", chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["passed"]
    assert peak <= (chain.n_sites + extra) * chain.dim ** 2 * 16


def test_suite_qop_reads_t_once_per_point_set_and_assembles_no_q(monkeypatch):
    # the commutation row reads T at its 3 mus and the T-Q row at its 3 points lam - eta,
    # one evaluator call each; no row assembles Q (the condition row would, at a site whose
    # cond bracket holds its gate) and none calls the one-point transfer
    from sovchain.baxter import QOperator

    chain = chain_from_config(load_config("n2_mixed"))
    ctx = cli._RunContext(chain)
    ctx.q_operator(), ctx.evaluator()
    calls = {"q": 0, "t": 0, "at": []}
    q_call, t_call, at_call = QOperator.__call__, TransferEvaluator.transfer, TransferEvaluator._at

    def counted_q(self, lam):
        calls["q"] += 1
        return q_call(self, lam)

    def counted_t(self, lam):
        calls["t"] += 1
        return t_call(self, lam)

    def counted_at(self, lams):
        calls["at"].append(len(lams))
        return at_call(self, lams)

    monkeypatch.setattr(QOperator, "__call__", counted_q)
    monkeypatch.setattr(TransferEvaluator, "transfer", counted_t)
    monkeypatch.setattr(TransferEvaluator, "_at", counted_at)
    rows = {c["name"]: c["passed"] for c in cli.suite_qop(chain, ctx)}
    assert all(rows.values())
    assert calls == {"q": 0, "t": 0, "at": [3, 3]}


def test_q_rows_read_the_eigenvalues_once_per_point_set():
    # suite_qop reads Q's eigenvalues in one call per row (3 lams, 3 x 3 T-Q points, the N
    # bottom nodes, 5 Cramer points), and sov_from_q in one call per site's grid nodes
    from sovchain.baxter import sov_from_q

    chain = chain_from_config(load_config("n3_mixed"))
    ctx, shapes = cli._RunContext(chain), []
    qop = ctx.q_operator()

    def eigenvalues(lam):
        shapes.append(np.shape(lam))
        return qop.eigenvalues(lam)

    ctx._values["qop"] = dataclasses.replace(qop, eigenvalues=eigenvalues)
    assert all(c["passed"] for c in cli.suite_qop(chain, ctx))
    assert shapes == [(3,), (9,), (chain.n_sites,), (5,)]
    shapes.clear()
    sov_from_q(ctx.q_operator(), ctx.sklyanin())
    assert shapes == [(site.dim,) for site in chain.sites]


@pytest.mark.parametrize("name", ["n1_spin_half", "n2_spin22", "n3_mixed"])
def test_fusion_rows_make_one_batched_call_each(monkeypatch, name):
    # five fused calls: two for the commuting family's three pairs (six before they were
    # batched), one each for the route, central-zero and tridiagonal rows; and one
    # projector call per level 2..max_level on the route row's 5 points and the probes
    chain = chain_from_config(load_config(name))
    calls = {"fused": 0, "projector": []}
    fused, projector = TransferEvaluator.fused, cli.fused_transfer_projector

    def counted_fused(self, *args):
        calls["fused"] += 1
        return fused(self, *args)

    def counted_projector(chain, level, lams, start):
        calls["projector"].append((level, len(lams), start.shape))
        return projector(chain, level, lams, start)

    monkeypatch.setattr(TransferEvaluator, "fused", counted_fused)
    monkeypatch.setattr(cli, "fused_transfer_projector", counted_projector)
    assert all(c["passed"] for c in cli.suite_fusion(chain, cli._RunContext(chain)))
    levels = range(2, min(3, max(chain.dims)) + 1)
    assert calls == {"fused": 5, "projector": [(l, 5, (chain.dim, 8)) for l in levels]}


@pytest.mark.parametrize("factor, passed", [(1.0, True), (1 + 1e-6, False)])
def test_method_agreement_reads_the_closure_determinant(monkeypatch, factor, passed):
    # the Cramer route's denominator is det C of the solve's closure stack, which the
    # solved eigenvalues never read: scaling it by 1 + 1e-6 fails the row
    from sovchain.baxter import default_zeta

    chain = chain_from_config(load_config("n2_mixed"))
    ctx = cli._RunContext(chain)
    closure = ctx.q_polynomials(default_zeta(chain)).closure
    monkeypatch.setattr(closure, "det", closure.det * factor)
    rows = {c["name"]: c for c in cli.suite_qop(chain, ctx)}
    assert rows["qop.method_agreement"]["passed"] is passed


MUTATION_EPS = 1e-8


def _kicked(basis, rows_at, diagonal=False):
    """``basis`` with MUTATION_EPS of each listed row's largest entry added to that row, or
    to its diagonal entry only."""
    rows = basis.rows.copy()
    for i in rows_at:
        kick = MUTATION_EPS * np.max(np.abs(rows[i]))
        if diagonal:
            rows[i, i] += kick
        else:
            rows[i] += kick
    return dataclasses.replace(basis, rows=rows)


def _scaled_first_sample(ev):
    samples = ev.samples.copy()
    samples[0] *= 1 + MUTATION_EPS
    ev.samples = samples
    return ev


# layer -> (how it is perturbed, the rows of which at least one must fail); a shared
# layer is a _RunContext key and a function of its value
MUTATIONS = {
    "none": (None, ()),
    "lax": ("kernel", ("algebra.rtt", "algebra.quantum_det")),
    "evaluator": (("evaluator", _scaled_first_sample),
                  ("fusion.route_equivalence", "fusion.central_zeros")),
    "oracle_x": (("oracle", lambda o: dataclasses.replace(
        o, t=dataclasses.replace(o.t, x=o.t.x * (1 + MUTATION_EPS)))),
        ("baxter.tq_equation", "baxter.sov_q_factorization")),
    "oracle_vectors": (("oracle", lambda o: dataclasses.replace(o, vectors=o.vectors * (
        1 + MUTATION_EPS * np.random.default_rng(5).standard_normal(o.vectors.shape)))),
        ("qop.commutes_with_transfer",)),
    # only coefficient 0: a uniform scale of Q is a symmetry, caught by no row
    "q_coefficient": (("q", lambda q: dataclasses.replace(q, coeffs=q.coeffs * np.where(
        np.arange(q.coeffs.shape[1]) == 0, 1 + MUTATION_EPS, 1.0))),
        ("baxter.tq_equation", "baxter.sov_q_factorization")),
    "sklyanin": (("sklyanin", lambda b: _kicked(b, range(len(b.rows)), diagonal=True)),
                 ("basis.sklyanin.b_eigen",)),
    "sov2": (("sov2", lambda b: _kicked(b, [1])), ("basis.sov2.separate_action",)),
}
# rows that compare the oracle with itself (Newton starts on its eigenvalues)
SELF_ORACLE_ROWS = ("spectrum.count_mismatch", "spectrum.oracle_bijection",
                    "spectrum.oracle_match_distance")


@pytest.mark.parametrize("name", ["1^6 seed 7", "n3_mixed"])
def test_every_layer_perturbed_by_1e_8_fails_a_row_that_reads_it(monkeypatch, name):
    from conftest import TWIST_FULL
    from sovchain.chain import random_chain

    transfer_module = importlib.import_module("sovchain.transfer")
    chain = (random_chain((1,) * 6, 1.0, TWIST_FULL, seed=7) if name == "1^6 seed 7"
             else chain_from_config(load_config("n3_mixed")))
    real_get, real_lax = cli._RunContext._get, transfer_module.lax

    def lax(lam, two_s, eta):   # entry (0, 1) of every Lax operator, + eps eta
        out = real_lax(lam, two_s, eta)
        out[..., 0, 1] += MUTATION_EPS * eta
        return out

    for layer, (how, catchers) in MUTATIONS.items():
        with monkeypatch.context() as patch:
            if how == "kernel":
                patch.setattr(transfer_module, "lax", lax)
            elif how is not None:
                key, spoil = how

                def get(self, k, compute, key=key, spoil=spoil):
                    hit = k == key or (isinstance(k, tuple) and k[0] == key)
                    return real_get(self, k, (lambda: spoil(compute())) if hit else compute)

                patch.setattr(cli._RunContext, "_get", get)
            rows = {c["name"]: c["passed"] for c in run("all", chain)["checks"]}
        failed = sorted(row for row, ok in rows.items() if not ok)
        if how is None:
            assert failed == []
        else:
            assert set(failed) & set(catchers), (layer, failed)
        if layer.startswith("oracle"):
            assert all(rows[row] for row in SELF_ORACLE_ROWS), layer


def test_route_equivalence_sees_one_corrupted_sample():
    # the recursion reads the interpolant and the projector route the kernel: one sample
    # off by 1e-6 fails the route row; the premise rows compare the same samples with the
    # kernel at two more points, so they fail with it
    chain = chain_from_config(load_config("n2_spin22"))
    for scale, fails in ((1.0, False), (1 + 1e-6, True)):
        ctx = cli._RunContext(chain)
        evaluator = ctx.evaluator()
        samples = evaluator.samples.copy()
        samples[0] *= scale
        evaluator.samples = samples
        rows = {c["name"]: c["passed"] for c in cli.suite_fusion(chain, ctx)}
        assert rows["fusion.route_equivalence"] is not fails
        assert rows["fusion.transfer_polynomiality"] is not fails
        assert rows["fusion.transfer_leading_coefficient"] is not fails


def test_shared_recurrence_sees_one_noncommuting_sample():
    # the tower and the bottom-up tridiagonal determinant share one recurrence; one
    # sample's off-diagonal entry moved by 1e-8 max|T| makes T(lam) stop commuting,
    # and each row that compares orders or routes fails (4.6e-9, 1.4e-8, 2.3e-8)
    chain = chain_from_config(load_config("n2_mixed"))
    rows = ("fusion.tridiagonal_determinant", "fusion.commuting_family",
            "fusion.route_equivalence")
    for spoil, fails in ((0.0, False), (1e-8, True)):
        ctx = cli._RunContext(chain)
        evaluator = ctx.evaluator()
        samples = evaluator.samples.copy()
        samples[0, 0, 1] += spoil * np.max(np.abs(samples[0]))
        evaluator.samples = samples
        passed = {c["name"]: c["passed"] for c in cli.suite_fusion(chain, ctx)}
        assert [passed[name] for name in rows] == [not fails] * len(rows)


def test_all_takes_each_basis_rank_once(monkeypatch):
    # five rank rows (sklyanin, sov1 twice, sov2, q); the full-rank guards on the
    # Sklyanin and second bases read the ranks those rows took
    from conftest import TWIST_FULL
    from sovchain.chain import random_chain
    from sovchain.sov_bases import gram_rank

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].kind)
        return gram_rank(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("sovchain.") and getattr(module, "gram_rank", None) is gram_rank:
            monkeypatch.setattr(module, "gram_rank", counted)
    report = run("all", random_chain((1,) * 6, 1.0, TWIST_FULL, 7))
    assert report["passed"]
    assert sorted(calls) == ["q_generated", "sklyanin", "sov1", "sov1", "sov2"]


@pytest.mark.parametrize("kind", ["sov1", "sov2"])
def test_basis_command_builds_each_site_tower_once(monkeypatch, kind):
    # the two sources of a tower basis share one build of its per-site operators
    towers, fused = [], TransferEvaluator.fused
    monkeypatch.setattr(TransferEvaluator, "fused",
                        lambda self, top, lam: towers.append(lam) or fused(self, top, lam))
    chain = chain_from_config(load_config("n3_mixed"))
    assert run("basis", chain, basis_kind=kind)["passed"]
    assert len(towers) == chain.n_sites


def test_q_basis_reports_a_rank_one_sklyanin_basis_in_its_rows(monkeypatch):
    # the Q-generated basis is built from the Sklyanin top row whatever that basis's rank;
    # the identification row, not a raise, is the verdict on the rank-one basis
    from conftest import SUITE_ROWS

    build = cli.sklyanin_basis

    def rank_one(chain):
        basis = build(chain)
        return dataclasses.replace(basis, rows=np.repeat(basis.rows[:1], chain.dim, axis=0))

    monkeypatch.setattr(cli, "sklyanin_basis", rank_one)
    chain = chain_from_config(load_config("n2_mixed"))
    checks = {c["name"]: c for c in run("basis", chain, basis_kind="q")["checks"]}
    assert list(checks) == ["model.genericity", *SUITE_ROWS["basis.q"]]
    assert not checks["basis.q.sklyanin_identification"]["passed"]


def test_spin4_q_basis_reports_its_rows():
    # (8,8) seed 7: the Sklyanin family has rank 79 of 81; the q suite still emits its rows
    from conftest import SUITE_ROWS, TWIST_FULL
    from sovchain.chain import random_chain

    report = run("basis", random_chain((8, 8), 1.0, TWIST_FULL, 7), basis_kind="q")
    assert [c["name"] for c in report["checks"]] == ["model.genericity", *SUITE_ROWS["basis.q"]]
    assert [c["passed"] for c in report["checks"]] == [True, False, False]


def test_spectrum_rows_survive_a_rank_deficient_sov2_basis(monkeypatch):
    # a second basis of numerical rank D - 1 (not exactly singular) costs only the two
    # eigenvector rows built on it: the other seven are those of the full-rank run
    from conftest import SUITE_ROWS

    chain = chain_from_config(load_config("n2_mixed"))
    want = {c["name"]: c for c in run("spectrum", chain)["checks"]}
    build = cli.sov_basis_2

    def deficient(chain, evaluator):
        basis = build(chain, evaluator)
        rows = basis.rows.copy()
        rows[-1] = rows[0] + 1e-14 * rows[-1]
        return dataclasses.replace(basis, rows=rows)

    monkeypatch.setattr(cli, "sov_basis_2", deficient)
    ctx = cli._RunContext(chain)
    assert ctx.sov2().rank[0] == chain.dim - 1
    checks = {c["name"]: c for c in run("spectrum", chain)["checks"]}
    assert list(checks) == ["model.genericity", *SUITE_ROWS["spectrum"]]
    basis_rows = {"spectrum.eigenvector_residual", "spectrum.eigenvector_overlap"}
    assert [c for name, c in checks.items() if name not in basis_rows] == [
        c for name, c in want.items() if name not in basis_rows]


@pytest.mark.parametrize("seed", [7, 240, 4249])
def test_wide_scale_chains_fail_no_row(seed):
    # closure matrices with column norms 5e3 apart and site determinants of
    # very different scale: well-posed systems the singularity guards must
    # pass; at seed 7 the Q-generated basis must still match the Sklyanin one
    from conftest import TWIST_FULL
    from sovchain.chain import random_chain

    report = run("all", random_chain((1,) * 6, 1.0, TWIST_FULL, seed))
    assert [c["name"] for c in report["checks"] if not c["passed"]] == []


@pytest.mark.parametrize("command", ["spectrum", "baxter", "all"])
def test_vanishing_k2_becomes_error_rows(tmp_path, command):
    # twist diag(2, 0): the grid ratios Q(xi^(h)) / Q(xi^(2s)) divide by k2,
    # so the spectrum and baxter suites report errors and the report is written
    cfg = json.loads(cli.bundled_config_path("n2_mixed").read_text())
    cfg["twist"] = {"a": [2.0, 0.0], "b": [0.0, 0.0], "c": [0.0, 0.0], "d": [0.0, 0.0]}
    path = tmp_path / "k2zero.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    with pytest.warns(SingularTwistWarning):
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    errors = {c["name"]: c["info"] for c in report["checks"] if c["name"].endswith(".error")}
    expected = {"spectrum": ["suite_spectrum.error"], "baxter": ["suite_baxter.error"],
                "all": ["suite_spectrum.error", "suite_baxter.error"]}[command]
    for name in expected:
        assert "k2" in errors[name]["message"] and errors[name]["exception"] == "ValueError"
    if command == "spectrum":
        # twist diag(0, -1): k1 = 0, so the spectrum suite stops at the second SoV basis
        cfg["twist"] = {"a": [0.0, 0.0], "b": [0.0, 0.0], "c": [0.0, 0.0], "d": [-1.0, 0.0]}
        path.write_text(json.dumps(cfg))
        with pytest.warns(SingularTwistWarning):
            assert main([command, "--config", str(path), "--out", str(out)]) == 1
        checks = json.loads(out.read_text())["checks"]
        assert [c["name"] for c in checks] == ["model.genericity", "suite_spectrum.error"]
        assert checks[1]["info"] == {"message": "this construction requires an invertible twist",
                                     "exception": "ValueError"}


def _n3_mixed_with_twist(twist):
    base = chain_from_config(load_config("n3_mixed"))
    with pytest.warns(SingularTwistWarning):
        return make_chain(base.eta, [(s.two_s, s.xi) for s in base.sites], twist, seed=base.seed)


K2_ZERO, SINGULAR_FULL = [[2, 0], [0, 0]], [[1, 2], [0.5, 1]]


@pytest.mark.parametrize("twist, message", [
    (K2_ZERO, "the fused-tower denominators require k2 != 0"),
    ([[0, 0], [0, -1]], "this construction requires an invertible twist"),
    (SINGULAR_FULL, "the fused-tower denominators require k2 != 0"),
], ids=["k2-zero", "k1-zero", "singular-full"])
def test_non_invertible_twist_ends_spectrum_before_newton(monkeypatch, twist, message):
    # the suite's error row comes from the grid ratios or the second basis, which are
    # read before Newton: its steps from every oracle seed would be thrown away
    calls = []
    solve = cli.solve_discrete_system
    monkeypatch.setattr(cli, "solve_discrete_system", lambda seeds: calls.append(1) or solve(seeds))
    checks = run("spectrum", _n3_mixed_with_twist(twist))["checks"]
    assert calls == []
    assert [c["name"] for c in checks] == ["model.genericity", "suite_spectrum.error"]
    assert checks[1]["info"] == {"message": message, "exception": "ValueError"}


def test_roundoff_k2_ends_baxter_as_an_exact_zero_does():
    # eig leaves k2 = 1.2e-32 for the singular [[1, 2], [0.5, 1]]: on the scale of
    # Twist.invertible that is zero, so it ends the suite in the row diag(2, 0) gives,
    # where an exact k2 == 0 test let 8 rows through, built on ratios of up to 2.6e64
    singular = _n3_mixed_with_twist(SINGULAR_FULL)
    assert singular.twist.k2 != 0
    want = run("baxter", _n3_mixed_with_twist(K2_ZERO))["checks"]
    assert run("baxter", singular)["checks"] == want
    assert [c["name"] for c in want] == ["model.genericity", "suite_baxter.error"]
    assert want[1]["info"] == {"message": "the fused-tower denominators require k2 != 0",
                               "exception": "ValueError"}


def test_error_row_names_an_unplaceable_zeta(monkeypatch):
    # every auxiliary point drawn on a grid node: default_zeta's own SingularCZeta raise
    from sovchain import baxter

    chain = chain_from_config(load_config("n2_mixed"))
    monkeypatch.setattr(baxter, "random_complex", lambda rng, box: chain.node(0, 0))
    report = run("baxter", chain)
    rows = {c["name"]: c for c in report["checks"]}
    assert list(rows) == ["model.genericity", "suite_baxter.error"]
    assert rows["suite_baxter.error"]["info"]["exception"] == SingularCZeta.__name__


def test_run_context_keys_and_failures(monkeypatch):
    from sovchain.baxter import default_zeta, solve_q_polynomial
    from sovchain.errors import NearDegenerateSpectrum

    chain = chain_from_config(load_config("n2_mixed"))
    oracle = cli.brute_force_spectrum
    attempts = []

    def flaky(*args, **kwargs):
        attempts.append(1)
        if len(attempts) == 1:
            raise NearDegenerateSpectrum("first attempt fails")
        return oracle(*args, **kwargs)

    monkeypatch.setattr(cli, "brute_force_spectrum", flaky)
    ctx = cli._RunContext(chain)
    with pytest.raises(NearDegenerateSpectrum):
        ctx.oracle()
    oracle = ctx.oracle()            # a failure is not stored
    assert ctx.oracle() is oracle and len(attempts) == 2

    for salt in (20, 24):
        zeta = default_zeta(chain, salt=salt)
        qpoly = ctx.q_polynomials(zeta)
        assert ctx.q_polynomials(zeta) is qpoly and qpoly.coeffs.shape[0] == chain.dim
        assert qpoly.zeta == zeta
        assert np.array_equal(qpoly.coeffs, solve_q_polynomial(oracle.t, zeta=zeta).coeffs)


def test_run_all_builds_grid_ratios_and_closures_once(monkeypatch):
    # the scalar layer runs once on the oracle stack: one fused tower per
    # site and one closure stack per zeta; the wavefunction, eigenvector and
    # Q-factorization checks and the Q solves share the stack's grid ratios, the
    # Cramer route reads the closure systems of the Q solves, and the
    # discrete residuals of the spectrum check and table run once
    from conftest import TWIST_FULL
    from sovchain import baxter, spectrum
    from sovchain.chain import random_chain

    calls = {"tower": 0, "closure": 0, "discrete": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectrum, "_fused_tower", counted("tower", spectrum._fused_tower))
    monkeypatch.setattr(baxter, "_Closure", counted("closure", baxter._Closure))
    monkeypatch.setattr(spectrum, "discrete_residuals",
                        counted("discrete", spectrum.discrete_residuals))
    chain = random_chain((1, 2), 1.0, TWIST_FULL, seed=7)
    report = run("all", chain)
    assert report["passed"]
    assert calls == {"tower": chain.n_sites, "closure": 2, "discrete": 1}


def _exclusive_greedy_distance(got, want):
    """Reference: each wanted value takes its nearest still-unused value, in order."""
    got = list(got)
    worst = 0.0
    for w in want:
        j = int(np.argmin([abs(g - w) for g in got]))
        worst = max(worst, abs(got.pop(j) - w))
    return worst


def test_multiset_distance_is_the_exclusive_greedy_match_on_a_bijection():
    rng = np.random.default_rng(5)
    want = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    got = rng.permutation(want + 1e-9 * rng.standard_normal(12))
    assert cli._multiset_distance(got, want) == _exclusive_greedy_distance(got, want)


def test_multiset_distance_pairs_repeated_values_exclusively():
    # both wanted 1's are nearest to the same value; each must take its own
    assert cli._multiset_distance([1.0, -1.0, 1.0 + 1e-15], [1.0, -1.0, 1.0]) < 2e-15
    # a shared nearest value leaves the second wanted value the far leftover
    assert cli._multiset_distance([0.0, 10.0], [0.1, 0.2]) == pytest.approx(9.8)


def test_fusion_suite_passes_on_the_antiperiodic_twist():
    # k1 = 1, k2 = -1: the fused twist spectrum k1^(a+1-h) k2^(h-1) repeats values
    chain = make_chain(1.0, [(2, 0.3 - 0.2j), (1, 1.7 + 0.4j)],
                       np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), seed=7)
    checks = {c["name"]: c for c in run("verify-fusion", chain)["checks"]}
    assert checks["fusion.fused_twist_spectrum"]["passed"]
    assert checks["fusion.fused_twist_spectrum"]["value"] < 1e-12