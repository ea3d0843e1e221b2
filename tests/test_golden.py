"""``cli.run("all")`` against the committed golden reports (``tests/golden``).

A report is deterministic for one BLAS configuration (kernel and thread
count). Across configurations only roundoff moves. The bounds below cover
the largest moves measured from the default OpenBLAS 0.3.31 run (SkylakeX
kernel, 2 threads) to 1 and 2 threads under the default and the Sandybridge
kernel, and to the Haswell, Zen, Nehalem and Prescott kernels at 2 threads:

* GATE_DRIFT: a passing row's value moved by at most 0.087 of its tolerance,
  at (3,3,3) seed 5 ``qop.method_agreement`` (5.3e-9 against 1e-7); on the
  spin <= 1 chains by at most 1.1e-2, and across thread counts alone by 9e-7.
  So a change that moves a passing value by a tenth of its gate shows; a
  smaller move shows only in a plain diff of regenerated reports.
* A failing row is compared by its flag only: its value moves by up to 2e4
  times its gate, e.g. (4,4) seed 1 ``basis.q.sklyanin_identification``.
* VALUE_DRIFT: the spectrum table's eigenvalues and probe values, the config
  echo and the values of passing zero-tolerance rows moved by at most 5e-11
  of their own size.
* INFO_DRIFT: the ``info`` numbers and the table's discrete residuals moved by
  up to 0.35 of their own size (the smallest singular value of the (4,4)
  seed 1 first basis, 8.4e-6 against 5.5e-6). Below ROUNDOFF a number is
  roundoff (``off_sector`` and discrete residuals near 1e-16), compared
  against ROUNDOFF instead of its own size.

One verdict is not kernel-independent: under the Nehalem kernel (3,3,3) seed 5
``baxter.uniqueness_coefficient_spread`` reads 7.3e-9 and passes; it fails
at 2.4e-8 against 1e-8 under the other five.

Regenerate with ``tests/regen_golden.py`` and list every moved value in
CHANGES.md as a check change.
"""

import importlib.util
import json
import numbers
import sys
from pathlib import Path

import pytest

from conftest import SUITE_ROWS
from regen_golden import CHAINS, GOLDEN_DIR, golden_report

GATE_DRIFT = 0.1
VALUE_DRIFT = 1e-9
INFO_DRIFT = 0.5
ROUNDOFF = 1e-12


def _drifts(got, want, rel, where=""):
    """Where ``got`` differs from ``want``: strings, bools, ints and None exactly, floats by
    more than ``rel`` times max(|want|, ROUNDOFF); dicts and lists entry by entry."""
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [d for key in want for d in _drifts(got[key], want[key], rel, f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _drifts(g, w, rel, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, numbers.Real) and not isinstance(got, bool):
        if abs(got - want) <= rel * max(abs(want), ROUNDOFF):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


def _row_drifts(got, want):
    name = want["name"]
    if (got["name"], got["passed"]) != (name, want["passed"]):
        return [f"{name}: got {got['name']} passed={got['passed']}, want passed={want['passed']}"]
    if not want["passed"]:
        return []
    out = _drifts(got["tolerance"], want["tolerance"], 0.0, f"{name}.tolerance")
    out += _drifts(got.get("info"), want.get("info"), INFO_DRIFT, f"{name}.info")
    if want["tolerance"] > 0:
        if abs(got["value"] - want["value"]) > GATE_DRIFT * want["tolerance"]:
            out.append(f"{name}: value {got['value']!r} != {want['value']!r}")
    else:
        out += _drifts(got["value"], want["value"], VALUE_DRIFT, f"{name}.value")
    return out


def report_drifts(got: dict, want: dict) -> list:
    """Every difference between two ``all`` reports beyond the measured BLAS drift."""
    head = {key: val for key, val in want.items() if key not in ("checks", "spectrum")}
    out = _drifts({key: got.get(key) for key in head}, head, VALUE_DRIFT)
    names = [[row["name"] for row in report["checks"]] for report in (got, want)]
    if names[0] != names[1]:
        return out + [f"rows {names[0]} != {names[1]}"]
    out += [d for g, w in zip(got["checks"], want["checks"]) for d in _row_drifts(g, w)]
    table = [[{k: v for k, v in row.items() if k != "discrete_residual"}
              for row in report.get("spectrum", [])] for report in (got, want)]
    residuals = [[row["discrete_residual"] for row in report.get("spectrum", [])]
                 for report in (got, want)]
    return (out + _drifts(*table, VALUE_DRIFT, "spectrum")
            + _drifts(*residuals, INFO_DRIFT, "spectrum.discrete_residual"))


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_all_report_matches_its_golden(name):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert report_drifts(json.loads(json.dumps(golden_report(name))), want) == []


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_rank_and_condition_brackets_hold_the_svd_values(name):
    # every basis's sigma_min bracket and every site's cond Q bracket holds the SVD's value
    import numpy as np

    from sovchain import cli
    from sovchain.baxter import q_operator_invertibility, sov_from_q
    from sovchain.sov_bases import _tower_bases, gram_rank, tensor_generating_covector

    chain = CHAINS[name]()
    ctx = cli._RunContext(chain)
    qop = ctx.q_operator()
    top = tuple(site.two_s for site in chain.sites)
    bases = [ctx.sklyanin(), *ctx.sov2_with(ctx.sklyanin().row(top)),
             sov_from_q(qop, ctx.sklyanin()),
             *_tower_bases("sov1", chain, ctx.evaluator(),
                           [None, tensor_generating_covector(chain)])]
    for basis in bases:
        rows = basis.rows * np.exp2(-np.frexp(np.max(np.abs(basis.rows), axis=1))[1])[:, None]
        smallest = np.linalg.svd(rows / np.linalg.norm(rows, axis=1)[:, None],
                                 compute_uv=False)[-1]
        lo, hi = gram_rank(basis)[1]
        assert lo <= smallest * (1 + 1e-9) and smallest <= hi * (1 + 1e-9), basis.kind
    for (n, two_s), (lo, hi) in q_operator_invertibility(qop).items():
        cond = np.linalg.cond(qop(chain.node(n, two_s)))
        assert lo <= cond * (1 + 1e-9) and cond <= hi * (1 + 1e-9), (n, lo, cond, hi)


def test_benchmark_rows_are_the_golden_rows(monkeypatch):
    # the benchmark keeps its own copy of the row names; drift from the reports shows here
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    want = [row["name"] for row in json.loads((GOLDEN_DIR / "n2_mixed.json").read_text())["checks"]]
    assert list(workloads.expected_rows("all")) == want
    assert workloads.SUITE_ROWS == SUITE_ROWS
