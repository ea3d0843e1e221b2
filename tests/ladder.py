"""The failing rows of ``cli.run("all")`` on the spin ladder, and the diff of two such runs.

The ladder is 60 chains, ``random_chain(spins, 1.0, TWIST_FULL, seed)`` for
spins (3,3), (3,3,3), (4,4), (4,4,4), (6,6) and (8,8) at seeds 0-9. Run from
the repository root:

    PYTHONPATH=src python tests/ladder.py OUT.json      # write the failing-row sets
    python tests/ladder.py --diff A.json B.json         # the chains whose sets differ

OUT.json holds the sorted names of each chain's failing rows (no values) and
the OpenBLAS kernel name and thread count of the run. Some verdicts on this
ladder change with that kernel and thread count, so compare two files from one
BLAS configuration; ``--diff`` prints both configurations when they differ.
It exits 1 when a chain differs. Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
import warnings
from pathlib import Path

SPINS = ((3, 3), (3, 3, 3), (4, 4), (4, 4, 4), (6, 6), (8, 8))
SEEDS = range(10)


def blas_config() -> dict:
    """The kernel name and thread count of the OpenBLAS that numpy loaded, where it tells."""
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(path))     # the handle numpy already holds
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            corename = getattr(lib, f"{prefix}openblas_get_corename{suffix}", None)
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if corename is not None and threads is not None:
                corename.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                return {"corename": corename().decode(), "threads": threads()}
    return {"corename": "unknown", "threads": None}


def failing_rows() -> dict:
    """Chain name -> the sorted names of the rows its ``all`` report fails."""
    from conftest import TWIST_FULL
    from sovchain.chain import random_chain
    from sovchain.cli import run

    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # NaN rows on the spin-4 chains
        for spins in SPINS:
            for seed in SEEDS:
                report = run("all", random_chain(spins, 1.0, TWIST_FULL, seed))
                out[f"{spins} seed {seed}"] = sorted(c["name"] for c in report["checks"]
                                                     if not c["passed"])
    return out


def diff(a: dict, b: dict) -> list:
    """One line per chain whose failing-row set differs from ``a`` to ``b``."""
    lines = []
    for chain in sorted(a["chains"].keys() | b["chains"].keys()):
        old, new = set(a["chains"].get(chain, ())), set(b["chains"].get(chain, ()))
        if old != new:
            lines.append(f"{chain}: now failing {sorted(new - old)}, now passing {sorted(old - new)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="where to write the failing-row sets")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two written files")
    args = parser.parse_args(argv)
    if args.diff:
        a, b = (json.loads(Path(p).read_text()) for p in args.diff)
        if a["blas"] != b["blas"]:
            print(f"BLAS configurations differ: {a['blas']} vs {b['blas']}")
        lines = diff(a, b)
        print("\n".join(lines) if lines else "no chain differs")
        return 1 if lines else 0
    if not args.out:
        parser.error("give OUT.json, or --diff A.json B.json")
    result = {"blas": blas_config(), "chains": failing_rows()}
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(f"{args.out}: {sum(map(bool, result['chains'].values()))} of "
          f"{len(result['chains'])} chains have a failing row; BLAS {result['blas']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
