import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from sovchain import make_chain, normalize_twist
from sovchain.errors import SingularTwistWarning
from sovchain.numerics import frob
from sovchain.spectrum import TransferPolynomial
from sovchain.transfer import TransferEvaluator, monodromy_matrix

# full (non-diagonal, b != 0) invertible simple twist shared by the reference chains
TWIST_FULL = np.array([[1.1 + 0.4j, 0.8 - 0.3j],
                       [0.45 + 0.65j, -0.7 + 1.2j]])
TWIST_DIAG = np.array([[1.7 + 0.5j, 0.0],
                       [0.0, 0.6 - 0.8j]])

XI_N2 = (0.31 - 1.2j, 2.86 + 0.77j)
XI_N3 = (0.42 - 1.1j, 2.93 + 0.81j, -2.17 + 2.33j)

GOLDEN_DIR = Path(__file__).parent / "golden"


def _suite_rows(report):
    """Row names of an ``all`` report by suite, in report order: the suite of a row is its
    name up to the last dot (``basis.q`` for ``basis.q.rank_deficit``)."""
    rows = {}
    for check in report["checks"]:
        rows.setdefault(check["name"].rsplit(".", 1)[0], []).append(check["name"])
    return {suite: tuple(names) for suite, names in rows.items()}


# the rows of each suite that runs to its end, in report order: every row of the golden
# ``all`` report of n2_mixed passes
SUITE_ROWS = _suite_rows(json.loads((GOLDEN_DIR / "n2_mixed.json").read_text()))


def commutator_residual(a, b) -> float:
    """Dense oracle of the probe commutation rows: ||[a, b]||_F relative to ||a||_F ||b||_F."""
    return frob(a @ b - b @ a) / max(1.0, frob(a) * frob(b))


def sample_defect(ev):
    """``ev`` with one entry of its first sample moved by 1e-6 of that sample's largest."""
    samples = ev.samples.copy()
    samples[0, 0, -1] += 1e-6 * np.max(np.abs(samples[0]))
    ev.samples = samples
    return ev


def dense_blocks(chain, lam):
    """A, B, C, D of the twisted monodromy, one block call each."""
    e = np.eye(2, dtype=complex)
    return tuple(monodromy_matrix(chain, lam, start=e[:, [j]], close=e[[i]])
                 for i in (0, 1) for j in (0, 1))


def rows(t):
    """The rows of a stacked ``TransferPolynomial``, each as its own one-row stack."""
    return [TransferPolynomial(t.chain, t.x[i:i + 1]) for i in range(len(t))]


@pytest.fixture(scope="session")
def chain1():
    """N=1, two_s=1, xi=0, eta=1, K=diag(2,1): every value hand-checkable."""
    return make_chain(1.0, [(1, 0.0)], np.diag([2.0, 1.0]).astype(complex), seed=3)


@pytest.fixture(scope="session")
def chain12():
    """Reference chain: N=2, two_s=(1,2), D=6, full twist."""
    return make_chain(1.0, [(1, XI_N2[0]), (2, XI_N2[1])], TWIST_FULL, seed=7)


@pytest.fixture(scope="session")
def chain12_diag():
    """b = 0 variant of the reference chain (diagonal twist)."""
    return make_chain(1.0, [(1, XI_N2[0]), (2, XI_N2[1])], TWIST_DIAG, seed=11)


@pytest.fixture(scope="session")
def chain112():
    """N=3, two_s=(1,1,2), D=12."""
    sites = [(1, XI_N3[0]), (1, XI_N3[1]), (2, XI_N3[2])]
    return make_chain(1.0, sites, TWIST_FULL, seed=13)


@pytest.fixture(scope="session", params=["full", "diag"])
def chain123(request):
    """N=3, two_s=(1,2,3), D=24, with the full twist and with the b = 0 twist."""
    twist = TWIST_FULL if request.param == "full" else TWIST_DIAG
    sites = [(1, XI_N3[0]), (2, XI_N3[1]), (3, XI_N3[2])]
    return make_chain(1.0, sites, twist, seed=17)


@pytest.fixture(scope="session")
def chain12_k2zero():
    """Degenerate twist diag(2, 0) on the reference sites."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SingularTwistWarning)
        twist = normalize_twist(np.diag([2.0, 0.0]).astype(complex))
    return make_chain(1.0, [(1, XI_N2[0]), (2, XI_N2[1])], twist, seed=7)


@pytest.fixture(scope="session")
def ev12(chain12):
    return TransferEvaluator(chain12)


@pytest.fixture(scope="session")
def ev112(chain112):
    return TransferEvaluator(chain112)
