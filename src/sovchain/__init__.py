"""Numerical separation-of-variables machinery for quasi-periodic
higher-spin chains built on the rational 6-vertex Yang-Baxter algebra."""

__version__ = "0.1.0"

from .chain import (ChainSpec, Site, Tolerances, Twist, fused_twist, genericity_check,
                    index_of, make_chain, multi_indices, normalize_twist, random_chain)
from .local_ops import kron_embed, lax, r_matrix, spin_matrices, symmetric_basis
from .sov_bases import (CovectorBasis, gram_rank, sklyanin_basis, sov_basis_1, sov_basis_2)
from .spectrum import (EigenRecord, TransferPolynomial, brute_force_spectrum,
                       discrete_residuals, eigenvector_from_sov, solve_discrete_system,
                       wavefunction_sov1, wavefunction_sov2)
from .baxter import (QOperator, QPolynomial, build_q_operator, q_values,
                     solve_q_polynomial, sov_from_q, tq_residual)
from .transfer import (MonodromyBlocks, TransferEvaluator, fused_transfer_projector,
                       monodromy_blocks, transfer)

__all__ = [
    "__version__",
    "ChainSpec", "Site", "Tolerances", "Twist", "fused_twist", "genericity_check",
    "index_of", "make_chain", "multi_indices", "normalize_twist", "random_chain",
    "kron_embed", "lax", "r_matrix", "spin_matrices", "symmetric_basis",
    "CovectorBasis", "gram_rank", "sklyanin_basis", "sov_basis_1", "sov_basis_2",
    "EigenRecord", "TransferPolynomial", "brute_force_spectrum", "discrete_residuals",
    "eigenvector_from_sov", "solve_discrete_system", "wavefunction_sov1", "wavefunction_sov2",
    "QOperator", "QPolynomial", "build_q_operator", "q_values", "solve_q_polynomial",
    "sov_from_q", "tq_residual",
    "MonodromyBlocks", "TransferEvaluator", "fused_transfer_projector",
    "monodromy_blocks", "transfer",
]
