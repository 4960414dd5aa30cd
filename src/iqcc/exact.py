"""Matrix-free statevector engine and exact ground-state solvers.

State vectors are plain numpy arrays of length 2**n; bit j of the basis
index is qubit j (|1> is the -1 eigenstate of z).  Pauli words act by index
permutation (x_mask), sign flips (z_mask) and i-phases (y letters), so no
2**n x 2**n matrix is ever materialized except in the explicit dense paths.
An operator whose every term has an even number of y letters is real
symmetric and is handled in float64; any odd-y term makes it complex128.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .pauli import DimensionError, Operator, PauliWord, flip_runs, parity_signs, phase_value

DENSE_QUBIT_LIMIT = 10
ITERATIVE_QUBIT_LIMIT = 16

# Above this many amplitude-array entries the matvec recomputes diagonal
# factors per call instead of caching one vector per flip group.
_DIAG_CACHE_ENTRIES = 1 << 25

# Seed of the fixed start vector of the iterative solve.
_V0_SEED = 7


class BudgetError(RuntimeError):
    """Requested exact solve exceeds the configured qubit budget."""


def _check_dim(vec: np.ndarray, n_qubits: int) -> None:
    if vec.shape != (1 << n_qubits,):
        raise DimensionError(f"state length {vec.shape} does not match {n_qubits} qubits")


def apply_word(vec: np.ndarray, w: PauliWord) -> np.ndarray:
    """Apply one Pauli word to a state vector (norm-preserving)."""
    _check_dim(vec, w.n_qubits)
    return make_matvec(Operator(w.n_qubits, [(w, 1.0)]))(vec)


def _dtype(h: Operator) -> type:
    """float64 when no term of h has an odd number of y letters, else complex128."""
    odd_y = np.bitwise_count(h.x_masks & h.z_masks) & 1
    return np.complex128 if odd_y.any() else np.float64


def _run_diagonal(idx: np.ndarray, x: int, zs: np.ndarray, cs: np.ndarray, dtype: type) -> np.ndarray:
    """Diagonal that, applied before the x permutation, gives one flip run's terms.

    Sums c * i**(#y) * (-1)**popcount(idx & z) over the run's (z, c) pairs.
    """
    d = np.zeros(idx.size, dtype=dtype)
    for z, c in zip(zs, cs):
        z = int(z)
        phase = phase_value((x & z).bit_count())
        d += (c * phase) * parity_signs(idx, z)
    return d


def make_matvec(h: Operator):
    """Closure computing h @ v; reused across Krylov iterations.

    Terms sharing an x_mask share one index permutation; their z-signs and
    y-phases are folded into a cached diagonal vector when memory allows.
    The result is real for a real h and a real v.
    """
    dim = 1 << h.n_qubits
    idx = np.arange(dim, dtype=np.int64)
    zs, cs = h.z_masks, h.coefficients
    dtype = _dtype(h)
    runs = flip_runs(h)
    cache = 0 < len(runs) * dim <= _DIAG_CACHE_ENTRIES
    groups = []
    for x, sl in runs:
        diag = partial(_run_diagonal, idx, x, zs[sl], cs[sl], dtype)
        groups.append((idx ^ x, diag() if cache else diag))

    def matvec(v: np.ndarray) -> np.ndarray:
        out = np.zeros(dim, dtype=np.result_type(dtype, v.dtype))
        for perm, diag in groups:
            out += ((diag if cache else diag()) * v)[perm]
        return out

    return matvec


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
    n = h.n_qubits
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    dtype = _dtype(h)
    mat = np.zeros((dim, dim), dtype=dtype)
    for x, sl in flip_runs(h):
        mat[idx ^ x, idx] = _run_diagonal(idx, x, h.z_masks[sl], h.coefficients[sl], dtype)
    return mat


def ground_state(h: Operator, mode: str = "auto") -> tuple[float, np.ndarray]:
    """Lowest eigenvalue and a normalized eigenvector of h.

    mode "dense" diagonalizes the full matrix (n <= 10); "iterative" runs
    ARPACK's implicitly restarted Lanczos (`eigsh`) on the matrix-free
    operator (n <= 16) from a fixed start vector and checks the residual
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
    dtype = _dtype(h)
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
