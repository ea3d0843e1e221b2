"""Print the config of ``random_chain(SPINS, 1.0, TWIST_FULL, SEED)`` as JSON.

SPINS lists the sites' 2s values, separated by spaces. Run from the
repository root:

    PYTHONPATH=src python tests/chain_config.py "6 6" 2 > spin3_pair.json

The config holds eta, the sites, the twist and the seed, as ``sovchain
--config`` reads them. Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import json
import sys

from conftest import TWIST_FULL
from sovchain.chain import random_chain


def chain_config(spins, seed: int) -> dict:
    chain = random_chain(spins, 1.0, TWIST_FULL, seed)
    pair = lambda z: [z.real, z.imag]  # noqa: E731
    return {"eta": pair(chain.eta),
            "sites": [{"two_s": s.two_s, "xi": pair(s.xi)} for s in chain.sites],
            "twist": dict(zip("abcd", map(pair, chain.twist.matrix.ravel()))),
            "seed": chain.seed}


if __name__ == "__main__":
    print(json.dumps(chain_config(tuple(map(int, sys.argv[1].split())), int(sys.argv[2]))))
