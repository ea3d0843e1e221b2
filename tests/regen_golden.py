"""Rewrite the golden reports that ``test_golden.py`` compares ``cli.run("all")`` against.

Each file ``golden/<name>.json`` holds the ``all`` report of one chain without
its ``timing`` block. Run from the repository root:

    PYTHONPATH=src python tests/regen_golden.py [OUT_DIR]

OUT_DIR defaults to ``tests/golden``. A report is deterministic for one BLAS
configuration (kernel and thread count), so regenerate under the default
OpenBLAS settings and list every golden value that moved in CHANGES.md as a
check change. Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from conftest import GOLDEN_DIR, TWIST_FULL
from sovchain.chain import random_chain
from sovchain.cli import chain_from_config, load_config, run

def _random(two_s, seed):
    return lambda: random_chain(two_s, 1.0, TWIST_FULL, seed)


def _bundled(name):
    return lambda: chain_from_config(load_config(name))


# name -> chain builder: the bundled configs, and random chains named
# random_<two_s>x<sites>_s<seed> (two of them fail rows: spin >= 3/2)
CHAINS = {name: _bundled(name) for name in
          ("n1_spin_half", "n2_mixed", "n2_mixed_diagonal", "n2_spin22", "n3_mixed")}
CHAINS.update({
    "random_1x6_s7": _random((1,) * 6, 7),
    "random_2x4_s7": _random((2,) * 4, 7),
    "random_3x3_s5": _random((3,) * 3, 5),
    "random_4x2_s1": _random((4,) * 2, 1),
})


def golden_report(name: str) -> dict:
    """The ``all`` report of chain ``name`` without its timing block."""
    report = run("all", CHAINS[name]())
    del report["timing"]
    return report


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out_dir = Path(argv[0]) if argv else GOLDEN_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in CHAINS:
        text = json.dumps(golden_report(name), sort_keys=True, indent=2) + "\n"
        (out_dir / f"{name}.json").write_text(text)
        print(out_dir / f"{name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
