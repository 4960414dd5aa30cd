"""Statevector engine and exact ground-state solvers.

State vectors are plain numpy arrays of length 2**n; bit j of the basis
index is qubit j (|1> is the -1 eigenstate of z).  A Pauli word sends basis
state i to i ^ x_mask with a sign and an i-phase, so h is a sparse matrix
with one entry per row and flip run (terms of one x_mask).  It is real
symmetric (float64) unless a term has an odd number of y letters (complex128).
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .pauli import DimensionError, Operator, PauliWord, parity_signs

DENSE_QUBIT_LIMIT = 10
ITERATIVE_QUBIT_LIMIT = 16

# Above this many stored entries (rows x flip runs, 12 bytes each when real)
# the matvec rebuilds the matrix row block by row block on every call.
_DIAG_CACHE_ENTRIES = 1 << 25

# Stored entries per row block, which bounds the build's temporaries.
_BLOCK_ENTRIES = 1 << 18

# Seed of the fixed start vector of the iterative solve.
_V0_SEED = 7


class BudgetError(RuntimeError):
    """Requested exact solve exceeds the configured qubit budget."""


def _check_dim(vec: np.ndarray, n_qubits: int) -> None:
    if vec.shape != (1 << n_qubits,):
        raise DimensionError(f"state length {vec.shape} does not match {n_qubits} qubits")


def apply_word(vec: np.ndarray, w: PauliWord) -> np.ndarray:
    """Apply one Pauli word to a state vector (norm-preserving)."""
    return apply_operator(Operator(w.n_qubits, [(w, 1.0)]), vec)


class _MatrixRows:
    """Rows of the matrix of h as CSR blocks, built `block` rows at a time.

    Row i holds, per flip run in ascending x order, column i ^ x and value
    <i|h|i ^ x>: the run's c * (-i)**#y * (-1)**popcount(i & z) summed in
    term order by one CSR product of the run-by-term incidence matrix with a
    [terms x block] sign table.  A block is a power of two rows, so the sign is
    the block start's times a table of the offsets' (c * (-i)**#y folded in).
    """

    def __init__(self, h: Operator):
        xs, self.zs = h.x_masks, h.z_masks
        self.run_x, first = np.unique(xs, return_index=True)
        self.dim, self.runs, terms = 1 << h.n_qubits, len(first), len(xs)
        self.block = 1 << min(h.n_qubits, max(0, (_BLOCK_ENTRIES // max(self.runs, 1)).bit_length() - 1))
        phase = np.array([1, -1j, -1, 1j])[np.bitwise_count(xs & self.zs) & 3]
        coef = h.coefficients * (phase if phase.imag.any() else phase.real)
        self.low = coef[:, None] * parity_signs(np.arange(self.block, dtype=np.uint64), self.zs[:, None])
        # the canonical terms of one run are contiguous and in term order
        indptr = np.append(first, terms)
        self.incidence = csr_array((np.ones(terms, self.low.dtype), np.arange(terms), indptr), (self.runs, terms))

    def __call__(self, start: int, stop: int) -> csr_array:
        """Rows start..stop-1 (multiples of the block) as a CSR matrix; its
        int32 indices suffice, since 2**31 entries would take 24 GB."""
        shape = ((stop - start) // self.block, self.block, self.runs)
        data, cols = np.empty(shape, dtype=self.low.dtype), np.empty(shape, dtype=np.int32)
        for k, s in enumerate(range(start, stop, self.block)):
            data[k] = (self.incidence @ (parity_signs(np.uint64(s), self.zs[:, None]) * self.low)).T
            cols[k] = np.arange(s, s + self.block, dtype=np.uint64)[:, None] ^ self.run_x
        indptr = np.arange(stop - start + 1, dtype=np.int32) * self.runs
        return csr_array((data.ravel(), cols.ravel(), indptr), shape=(stop - start, self.dim))


def make_matvec(h: Operator):
    """Closure computing h @ v; reused across Krylov iterations.

    Keeps the CSR matrix of h up to _DIAG_CACHE_ENTRIES entries, else rebuilds
    it block by block per call, with the same bits; real for real h and v.
    """
    rows = _MatrixRows(h)
    if rows.runs * rows.dim <= _DIAG_CACHE_ENTRIES:
        mat = rows(0, rows.dim)
        return lambda v: mat @ v
    return lambda v: np.concatenate([rows(s, s + rows.block) @ v for s in range(0, rows.dim, rows.block)])


def apply_operator(h: Operator, vec: np.ndarray) -> np.ndarray:
    """h applied to a state vector."""
    _check_dim(vec, h.n_qubits)
    return make_matvec(h)(vec)


def expectation(vec: np.ndarray, h: Operator) -> float:
    """Real part of <v|h|v>; the imaginary residue must be numerical noise."""
    _check_dim(vec, h.n_qubits)
    val = complex(np.vdot(vec, apply_operator(h, vec)))
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ArithmeticError(f"non-real expectation {val} of a real operator")
    return val.real


def dense_matrix(h: Operator) -> np.ndarray:
    """Dense 2**n x 2**n matrix of h (exponential; intended for n <= ~12)."""
    return _MatrixRows(h)(0, 1 << h.n_qubits).toarray()


def ground_state(h: Operator, mode: str = "auto") -> tuple[float, np.ndarray]:
    """Lowest eigenvalue and a normalized eigenvector of h.

    mode "dense" diagonalizes the full matrix (n <= 10); "iterative" runs
    ARPACK's implicitly restarted Lanczos (`eigsh`) over `make_matvec`
    (n <= 16) from a fixed start vector and checks the residual
    ||hv - ev|| < 1e-9; "auto" picks whichever budget admits.  Both work in
    float64 for real h.  Raises BudgetError beyond both budgets and
    ArithmeticError when the iterative solve stalls or misses the residual.
    """
    if h.is_empty:
        raise ValueError("cannot solve an empty operator")
    n = h.n_qubits
    if mode == "auto":
        mode = "dense" if n <= DENSE_QUBIT_LIMIT else "iterative"
    if mode == "iterative":
        if n > ITERATIVE_QUBIT_LIMIT:
            raise BudgetError(f"iterative mode limited to {ITERATIVE_QUBIT_LIMIT} qubits, got {n}")
        # ARPACK's complex driver needs 2**n > k + 1, so one qubit is solved dense
        if n > 1:
            return _arpack_lowest(h)
    elif mode != "dense":
        raise ValueError(f"unknown mode {mode!r}")
    if n > DENSE_QUBIT_LIMIT:
        raise BudgetError(f"dense mode limited to {DENSE_QUBIT_LIMIT} qubits, got {n}")
    evals, evecs = np.linalg.eigh(dense_matrix(h))
    return float(evals[0]), evecs[:, 0]


def _arpack_lowest(h: Operator) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of h by eigsh over make_matvec, residual checked."""
    dim = 1 << h.n_qubits
    dtype = np.complex128 if (np.bitwise_count(h.x_masks & h.z_masks) & 1).any() else np.float64
    matvec = make_matvec(h)
    v0 = np.random.default_rng(_V0_SEED).standard_normal(dim).astype(dtype)
    op = LinearOperator((dim, dim), matvec=matvec, dtype=dtype)
    try:
        evals, evecs = eigsh(op, k=1, which="SA", v0=v0)
    except ArpackNoConvergence as exc:
        raise ArithmeticError(f"ARPACK did not converge: {exc}") from exc
    energy, vec = float(evals[0]), evecs[:, 0]
    residual = float(np.linalg.norm(matvec(vec) - energy * vec))
    if not residual < 1e-9:
        raise ArithmeticError(f"ARPACK eigenpair misses residual 1e-9 (got {residual:g})")
    return energy, vec
