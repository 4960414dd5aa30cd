"""Iterative qubit coupled cluster ground-state solver.

Classical pipeline: qubit (or second-quantized) Hamiltonians in, gradient
screening of entangler generators, exact Hamiltonian dressing with optional
spectrum-safe compression, and geometric extrapolation of the converged
energy, backed by an exact-diagonalization oracle for verification.
"""

from .compression import CompressionReport, compress
from .dressing import DressingStep, dress, dress_derivative, dress_sequence
from .driver import ExtrapolationFit, IqccConfig, IterationRecord, extrapolate, iqcc_run, optimize_step
from .exact import BudgetError, apply_operator, dense_matrix, expectation, ground_state
from .fermion import (
    IntegralData,
    QubitAssignment,
    build_symmetry_operator,
    choose_sector,
    find_stationary_qubits,
    jordan_wigner,
    parity_map,
    parse_integrals,
    reduce_qubits,
    spin_penalize,
    write_integrals,
)
from .pauli import (
    DimensionError,
    Operator,
    ParseError,
    PauliWord,
    commutator_half,
    commutes,
    conjugate_by_word,
    frobenius_norm,
    multiply,
    read_operator,
    write_operator,
    y_parity,
)
from .product_state import (
    BlochState,
    PurifiedReference,
    energy,
    energy_and_gradient,
    purify,
    qmf_minimize,
    reference_state,
)
from .screening import (
    FlipSector,
    GradientGroup,
    OperatorPool,
    build_dis,
    dis_pool,
    fermionic_sd_pool,
    partition_sectors,
    pool_gradients,
    sample_generators,
    two_qubit_pauli_pool,
)

__version__ = "0.1.0"
