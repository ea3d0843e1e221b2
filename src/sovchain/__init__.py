"""Numerical separation-of-variables machinery for quasi-periodic
higher-spin chains built on the rational 6-vertex Yang-Baxter algebra."""

__version__ = "0.1.0"

from .chain import (ChainSpec, Site, Tolerances, Twist, fused_twist, genericity_check,
                    index_of, make_chain, normalize_twist, random_chain)
from .local_ops import kron_embed, lax, r_matrix, spin_matrices, symmetric_basis
from .sov_bases import (CovectorBasis, gram_rank, sklyanin_basis, sov_basis_1, sov_basis_2)
from .spectrum import (OracleSpectrum, TransferPolynomial, brute_force_spectrum,
                       discrete_residuals, eigenvector_from_sov, solve_discrete_system)
from .baxter import (QOperator, QPolynomial, build_q_operator, solve_q_polynomial, sov_from_q,
                     tq_residual)
from .transfer import TransferEvaluator, fused_transfer_projector, transfer

__all__ = [
    "__version__",
    "ChainSpec", "Site", "Tolerances", "Twist", "fused_twist", "genericity_check",
    "index_of", "make_chain", "normalize_twist", "random_chain",
    "kron_embed", "lax", "r_matrix", "spin_matrices", "symmetric_basis",
    "CovectorBasis", "gram_rank", "sklyanin_basis", "sov_basis_1", "sov_basis_2",
    "OracleSpectrum", "TransferPolynomial", "brute_force_spectrum", "discrete_residuals",
    "eigenvector_from_sov", "solve_discrete_system",
    "QOperator", "QPolynomial", "build_q_operator", "solve_q_polynomial",
    "sov_from_q", "tq_residual",
    "TransferEvaluator", "fused_transfer_projector", "transfer",
]
