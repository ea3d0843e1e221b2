"""Wall time and peak memory of every sovchain command on the D ladder, one fresh process each.

The ladder is the bundled configs and ``random_chain(spins, 1.0, TWIST_FULL, 7)`` at
D = 24, 81, 128, 243, 256, 512 and 1024. Every command runs as ``python -m sovchain.cli``
in a fresh process, REPEATS times (round by round, so host drift spreads over all rows).
Per chain and command the file records the median and the minimum wall time of the
processes, each process's own peak RSS (``ru_maxrss`` from ``os.wait4``; the
``RUSAGE_CHILDREN`` total is a running maximum over all children), the exit codes and
the names of the failing rows; and, once, the OpenBLAS kernel and thread count. Run from
the repository root:

    python bench/ladder.py OUT.json [--src DIR]

``--src`` is the source tree the children import (default: this checkout's ``src``), so
one script measures two checkouts on one host. A process started after the host has
idled can stall in BLAS for about a second; the median of three runs hides it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ("n1_spin_half", "n2_mixed", "n2_mixed_diagonal", "n2_spin22", "n3_mixed")
SPINS = ((1, 1, 1, 2), (2,) * 4, (1,) * 7, (2,) * 5, (3,) * 4, (1,) * 9, (1,) * 10)
SEED = 7
REPEATS = 3
COMMANDS = (("verify-algebra",), ("verify-fusion",), ("basis", "sklyanin"), ("basis", "sov1"),
            ("basis", "sov2"), ("basis", "q"), ("spectrum",), ("baxter",), ("qop",), ("all",))


def blas_config() -> dict:
    """The OpenBLAS kernel and thread count, as ``tests/ladder.py`` reads them."""
    spec = importlib.util.spec_from_file_location("spin_ladder", ROOT / "tests" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.blas_config()


def ladder_configs(src: Path, workdir: Path) -> dict:
    """Chain name -> (config path or bundled name, D)."""
    out = {}
    for name in BUNDLED:
        sites = json.loads((src / "sovchain" / "configs" / f"{name}.json").read_text())["sites"]
        out[name] = (name, math.prod(site["two_s"] + 1 for site in sites))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "tests")]))
    for spins in SPINS:
        name = f"{'-'.join(map(str, spins))} seed {SEED}"
        path = workdir / f"{'_'.join(map(str, spins))}_s{SEED}.json"
        path.write_text(subprocess.run(
            [sys.executable, str(ROOT / "tests" / "chain_config.py"), " ".join(map(str, spins)),
             str(SEED)], env=env, check=True, capture_output=True, text=True).stdout)
        out[name] = (str(path), math.prod(s + 1 for s in spins))
    return out


def run_once(command, config: str, src: Path, report: Path) -> dict:
    """One fresh process: its wall time, its own peak RSS, exit code and failing rows."""
    report.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "sovchain.cli", *command, "--config", config,
                             "--out", str(report)], env=env, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    failing = None
    if report.exists() and report.stat().st_size:
        failing = [c["name"] for c in json.loads(report.read_text())["checks"] if not c["passed"]]
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit_code": proc.returncode, "failing": failing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="where to write the ladder's JSON")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree the commands import (default: this checkout's src)")
    args = parser.parse_args(argv)
    src = args.src.resolve()

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        chains = ladder_configs(src, workdir)
        runs = {(name, command): [] for name in chains for command in COMMANDS}
        for _ in range(REPEATS):
            for (name, command), done in runs.items():
                done.append(run_once(command, chains[name][0], src, workdir / "report.json"))
                print(f"{name:>22}  {' '.join(command):<16} {done[-1]['wall_s']:7.2f} s "
                      f"{done[-1]['peak_rss_mb']:7.1f} MB", flush=True)

    rows = []
    for (name, command), done in runs.items():
        walls = [r["wall_s"] for r in done]
        failing = sorted({row for r in done for row in r["failing"] or ()})
        rows.append({"chain": name, "dim": chains[name][1], "command": " ".join(command),
                     "wall_s_median": statistics.median(walls), "wall_s_min": min(walls),
                     "peak_rss_mb": [r["peak_rss_mb"] for r in done],
                     "exit_codes": [r["exit_code"] for r in done], "failing_rows": failing})
    result = {"blas": blas_config(), "python": sys.version.split()[0], "repeats": REPEATS,
              "rows": rows}
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(f"{args.out}: {len(rows)} rows; BLAS {result['blas']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
