"""Workload inputs, the row names each command emits, and row accounting.

The benchmark reaches sovchain only through ``cli.run``, ``cli.main`` and
``chain.random_chain``. Everything here is built from the workload seed
alone.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_runs"

# full (non-diagonal, b != 0) twist, the TWIST_FULL of tests/conftest.py
TWIST_FULL = ((1.1 + 0.4j, 0.8 - 0.3j),
              (0.45 + 0.65j, -0.7 + 1.2j))

# Row names each suite emits at the commit that introduced this benchmark.
# A suite that raises is replaced by one "<suite function>.error" row.
SUITE_ROWS = {
    "model": ("model.genericity",),
    "algebra": ("algebra.ybe", "algebra.rll", "algebra.rtt", "algebra.quantum_det",
                "algebra.twist_symmetry", "algebra.spin_relations"),
    "fusion": ("fusion.commuting_family", "fusion.route_equivalence", "fusion.central_zeros",
               "fusion.tridiagonal_determinant", "fusion.fused_twist_spectrum",
               "fusion.transfer_polynomiality", "fusion.transfer_leading_coefficient"),
    "basis.sklyanin": ("basis.sklyanin.rank_deficit", "basis.sklyanin.b_eigen",
                       "basis.sklyanin.a_shift", "basis.sklyanin.d_shift"),
    "basis.sov1": ("basis.sov1.rank_deficit", "basis.sov1.tensor_source_rank_deficit"),
    "basis.sov2": ("basis.sov2.rank_deficit", "basis.sov2.separate_action",
                   "basis.sov2.sklyanin_identification"),
    "basis.q": ("basis.q.rank_deficit", "basis.q.sklyanin_identification"),
    "spectrum": ("spectrum.oracle_discrete_residual", "spectrum.count_mismatch",
                 "spectrum.oracle_bijection", "spectrum.oracle_match_distance",
                 "spectrum.jacobian_regularity", "spectrum.wavefunction_separate_action",
                 "spectrum.eigenvector_residual", "spectrum.eigenvector_overlap",
                 "spectrum.degenerate_twist_closed_form"),
    "baxter": ("baxter.degree_budget_excess", "baxter.nontrivial_degree",
               "baxter.interpolation_leftout", "baxter.tq_equation",
               "baxter.uniqueness_coefficient_spread", "baxter.uniqueness_wronskian",
               "baxter.forbidden_root_gap", "baxter.sov_q_factorization"),
    "qop": ("qop.commutes_with_transfer", "qop.operator_tq_equation",
            "qop.bottom_node_condition", "qop.method_agreement"),
}

COMMAND_SUITES = {
    "verify-algebra": ("model", "algebra"),
    "verify-fusion": ("model", "fusion"),
    "basis:sklyanin": ("model", "basis.sklyanin"),
    "basis:sov1": ("model", "basis.sov1"),
    "basis:sov2": ("model", "basis.sov2"),
    "basis:q": ("model", "basis.q"),
    "all": ("model", "algebra", "fusion", "basis.sklyanin", "basis.sov1", "basis.sov2",
            "basis.q", "spectrum", "baxter", "qop"),
}

ERROR_ROWS = frozenset(f"suite_{s}.error" for s in
                       ("algebra", "fusion", "basis", "spectrum", "baxter", "qop"))


def expected_rows(command: str) -> tuple:
    """Row names, in order, that ``command`` emits when every suite completes."""
    return tuple(name for suite in COMMAND_SUITES[command] for name in SUITE_ROWS[suite])


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


class UnexpectedRow(BenchError):
    """A report holds a row name the benchmark does not know."""


def import_sovchain():
    """Import sovchain from this checkout's ``src``, never from elsewhere."""
    pkg = ROOT / "src" / "sovchain"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no sovchain sources at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import sovchain

    if Path(sovchain.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"imported sovchain from {sovchain.__file__}, not from {pkg}")
    return sovchain


# ---------------------------------------------------------------------------
# jobs and workloads
# ---------------------------------------------------------------------------

@dataclass
class Job:
    """One engine invocation: ``cli.run`` on a chain, or ``cli.main`` on argv."""

    command: str           # key of COMMAND_SUITES
    dim: int
    chain: object = None
    argv: list = None
    out: Path = None

    def call(self):
        from sovchain import cli

        if self.argv is not None:
            return cli.main(self.argv)
        command, _, kind = self.command.partition(":")
        return cli.run(command, self.chain, basis_kind=kind or None)

    def report(self, raw):
        """The JSON report of a finished call (read from ``out`` for cli.main)."""
        if self.argv is None:
            return raw
        if raw == 2:
            raise BenchError(f"sovchain {' '.join(self.argv)} exited with usage error 2")
        return json.loads(self.out.read_text())


@dataclass
class Workload:
    name: str
    known_limits: frozenset = field(default_factory=frozenset)

    def pass_jobs(self, seed: int, index: int):
        """The jobs of pass ``index``; every pass gets inputs no other pass has."""
        raise NotImplementedError

    def cleanup(self):
        pass


def _random_chain(spins, seed):
    from sovchain.chain import random_chain

    return random_chain(spins, 1.0, TWIST_FULL, seed)


class ChainWorkload(Workload):
    """``cli.run`` commands on one random chain per pass (seed + pass index)."""

    def __init__(self, name, spins, commands, known_limits=()):
        super().__init__(name, frozenset(known_limits))
        self.spins = tuple(spins)
        self.commands = tuple(commands)

    def pass_jobs(self, seed, index):
        chain = _random_chain(self.spins, seed + index)
        return [Job(command=c, dim=chain.dim, chain=chain) for c in self.commands]


def chain_config(chain) -> dict:
    """Config document that ``cli.load_config`` turns back into ``chain``.

    The twist is TWIST_FULL, the matrix every benchmark chain is drawn with.
    """
    def pair(z):
        return [z.real, z.imag]

    return {"eta": pair(chain.eta),
            "sites": [{"two_s": site.two_s, "xi": pair(site.xi)} for site in chain.sites],
            "twist": {key: pair(TWIST_FULL[i][j])
                      for key, (i, j) in zip("abcd", ((0, 0), (0, 1), (1, 0), (1, 1)))},
            "seed": chain.seed}


class CommandWorkload(ChainWorkload):
    """Each command through ``cli.main``, one at a time, as a user issues them.

    The pass's chain is written to a config file before the pass; every
    invocation parses it and writes its JSON report.
    """

    def __init__(self, name, spins, commands, known_limits=()):
        super().__init__(name, spins, commands, known_limits)
        self.tmp = OUT_DIR / f"tmp-{name}"

    def pass_jobs(self, seed, index):
        chain = _random_chain(self.spins, seed + index)
        self.tmp.mkdir(parents=True, exist_ok=True)
        config = self.tmp / f"chain-{index}.json"
        config.write_text(json.dumps(chain_config(chain)))
        jobs = []
        for i, command in enumerate(self.commands):
            out = self.tmp / f"report-{index}-{i}.json"
            argv = [*command.split(":"), "--config", str(config), "--out", str(out)]
            jobs.append(Job(command=command, dim=chain.dim, argv=argv, out=out))
        return jobs

    def cleanup(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def make_workloads():
    """The workloads of BENCHMARK.json; its "why" lines say what each one stresses."""
    return {
        "all-spin-half": ChainWorkload(
            "all-spin-half", spins=(1,) * 6, commands=("all",),
            known_limits={"basis.q.sklyanin_identification"}),
        "dense-ops": CommandWorkload(
            "dense-ops", spins=(2, 2, 2, 2),
            commands=("verify-algebra", "verify-fusion", "basis:sklyanin", "basis:sov1",
                      "basis:sov2")),
    }


# ---------------------------------------------------------------------------
# row accounting
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Row and job counts accumulated over reports."""

    jobs: int = 0
    jobs_failed: int = 0
    expected: int = 0
    failed: int = 0
    errored: int = 0
    margin_max: float = 0.0
    failing: dict = field(default_factory=dict)   # row name -> times failed

    @property
    def fail_frac(self) -> float:
        return self.failed / self.expected if self.expected else 0.0

    def add_job(self, command: str, checks):
        """Account one job's check rows; ``checks`` is None when the job raised.

        Missing rows count as failed, so a suite that collapses to its error
        row fails every row it should have emitted. Raises UnexpectedRow on a
        row name the command does not emit.
        """
        want = expected_rows(command)
        self.jobs += 1
        self.expected += len(want)
        got = {}
        for row in checks or ():
            name = row["name"]
            if name in ERROR_ROWS:
                self.errored += 1
                continue
            if name not in want or name in got:
                raise UnexpectedRow(f"{command}: unexpected or repeated row {name!r}")
            got[name] = row
        if checks is None or len(got) < len(want):
            self.jobs_failed += 1
        for name in want:
            row = got.get(name)
            if row is None or not row["passed"]:
                self.failed += 1
                self.failing[name] = self.failing.get(name, 0) + 1
            elif row["tolerance"] > 0:
                self.margin_max = max(self.margin_max, row["value"] / row["tolerance"])

    def unexplained(self, known_limits) -> list:
        """Failing rows that are not a known limit of the workload."""
        return sorted(set(self.failing) - set(known_limits))


def row_records(job: Job, report) -> list:
    """Per-row value, tolerance and margin (value / tolerance) of one report."""
    out = []
    for row in report["checks"]:
        tol = row["tolerance"]
        out.append({
            "command": job.command, "dim": job.dim, "name": row["name"],
            "value": row["value"], "tolerance": tol, "passed": row["passed"],
            "margin": row["value"] / tol if tol > 0 else None,
        })
    return out
