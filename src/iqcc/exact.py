"""Statevector engine and exact ground-state solvers.

State vectors are plain numpy arrays of length 2**n; bit j of the basis
index is qubit j (|1> is the -1 eigenstate of z).  A Pauli word sends basis
state i to i ^ x_mask with a sign and an i-phase, so h is a sparse matrix
with one entry per row and flip run (terms of one x_mask).  It is real
symmetric (float64) unless a term has an odd number of y letters (complex128).

The iterative solve stops at the accuracy its caller checks, not at machine
precision: ARPACK stops once its residual estimate is below _ARPACK_TOL * |E|,
and the eigenvalue error is at most that residual squared over the spectral
gap.  A pair that still misses the checked residual (large |E|) is resumed
once from its own vector at machine precision.

The matrix build and the matvec are shared out in chunks of whole row
blocks between the calling thread and helper threads, one fewer than the
CPUs in this process's affinity mask (`taskset` limits them).  Each output
row is the same sum as on one thread, so every bit is unchanged.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from .pauli import DimensionError, Operator, PauliWord, flip_runs, parity_signs

DENSE_QUBIT_LIMIT = 10
ITERATIVE_QUBIT_LIMIT = 16

# Above this many stored entries (rows x flip runs, 12 bytes each when real)
# the matvec rebuilds the matrix row block by row block on every call.
_DIAG_CACHE_ENTRIES = 1 << 25

# Stored entries per row block, which bounds the build's temporaries.
_BLOCK_ENTRIES = 1 << 18

# Seed of the fixed start vector of the iterative solve.
_V0_SEED = 7

# ARPACK's relative stopping tolerance (its default, 0, is machine precision).
_ARPACK_TOL = 1e-12

_T = TypeVar("_T")
_pool: ThreadPoolExecutor | None = None  # helper threads, made on first use
_pool_lock = threading.Lock()


def _drop_pool() -> None:
    """Forget the pool (and its lock) in a forked child, which has none of the
    parent's threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_drop_pool)


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _shared(count: int, fn: Callable[[int], _T]) -> list[_T]:
    """[fn(0), ..., fn(count - 1)], the indices handed out from one shared
    iterator to the calling thread and up to cpus - 1 helper threads.

    The caller does not wait for a helper that has not started by the time
    the indices run out: it cancels it, so a helper whose CPU is busy delays
    the result by at most the one index it took.
    """
    global _pool
    out: list = [None] * count
    todo, lock = iter(range(count)), threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            out[i] = fn(i)

    cpus, futures = _cpus(), []
    if min(cpus, count) > 1:
        with _pool_lock:
            if _pool is None:
                _pool = ThreadPoolExecutor(cpus - 1, thread_name_prefix="iqcc-exact")
            futures = [_pool.submit(work) for _ in range(min(cpus, count) - 1)]
    try:
        work()
    finally:
        for f in futures:
            if not f.cancel():
                f.result()
    return out


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

    Row i holds, per flip run (`pauli.flip_runs`) in ascending x order, column
    i ^ x and value <i|h|i ^ x>: the run's c * (-i)**#y * (-1)**popcount(i & z)
    summed in term order by one CSR product of the run-by-term incidence matrix
    with a [terms x block] sign table.  A block is a power of two rows, so the
    sign is the block start's times a table of the offsets' (c * (-i)**#y folded in).
    """

    def __init__(self, h: Operator):
        xs, self.zs = h.x_masks, h.z_masks
        run_x, bounds = flip_runs(h)
        self.run_x = run_x.astype(np.int32)  # column offsets: int32 CSR indices
        self.dim, self.runs, terms = 1 << h.n_qubits, len(run_x), len(xs)
        self.block = 1 << min(h.n_qubits, max(0, (_BLOCK_ENTRIES // max(self.runs, 1)).bit_length() - 1))
        phase = np.array([1, -1j, -1, 1j])[np.bitwise_count(xs & self.zs) & 3]
        coef = h.coefficients * (phase if phase.imag.any() else phase.real)
        self.low = coef[:, None] * parity_signs(np.arange(self.block, dtype=np.uint64), self.zs[:, None])
        self.incidence = csr_array((np.ones(terms, self.low.dtype), np.arange(terms), bounds), (self.runs, terms))

    def __call__(self, start: int, stop: int) -> csr_array:
        """Rows start..stop-1 (multiples of the block) as a CSR matrix; its
        int32 indices suffice, since 2**31 entries would take 24 GB."""
        shape = ((stop - start) // self.block, self.block, self.runs)
        data, cols = np.empty(shape, dtype=self.low.dtype), np.empty(shape, dtype=np.int32)
        for k, s in enumerate(range(start, stop, self.block)):
            data[k] = (self.incidence @ (parity_signs(np.uint64(s), self.zs[:, None]) * self.low)).T
            np.bitwise_xor(np.arange(s, s + self.block, dtype=np.int32)[:, None], self.run_x, out=cols[k])
        indptr = np.arange(stop - start + 1, dtype=np.int32) * self.runs
        return csr_array((data.ravel(), cols.ravel(), indptr), shape=(stop - start, self.dim))


def make_matvec(h: Operator):
    """Closure computing h @ v; reused across Krylov iterations.

    Up to _DIAG_CACHE_ENTRIES entries the CSR matrix of h is built once and
    kept as one chunk of whole row blocks per CPU; above that every call
    rebuilds it one row block at a time.  Either way `_shared` hands the
    chunks' builds and products out to the calling thread and helper
    threads.  Each output row is the same sum at every thread count, so the
    bits are those of one CSR matrix; real for real h and v.
    """
    rows = _MatrixRows(h)
    if rows.runs * rows.dim > _DIAG_CACHE_ENTRIES:
        blocks = rows.dim // rows.block
        return lambda v: np.concatenate(_shared(blocks, lambda i: rows(i * rows.block, (i + 1) * rows.block) @ v))
    span = -(-rows.dim // (_cpus() * rows.block)) * rows.block
    starts = range(0, rows.dim, span)
    mats = _shared(len(starts), lambda i: rows(starts[i], min(starts[i] + span, rows.dim)))
    return lambda v: np.concatenate(_shared(len(mats), lambda i: mats[i] @ v))


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
    (n <= 16) from a fixed start vector to the relative tolerance
    _ARPACK_TOL and checks the residual ||hv - ev|| < 1e-9 (see
    `_arpack_lowest`); "auto" picks whichever budget admits.  Both work in
    float64 for real h.  Raises BudgetError beyond both budgets and
    ArithmeticError when a solve fails, stalls, misses the residual or
    returns a non-finite eigenvalue (an h whose entries overflow).
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
    if not np.isfinite(evals[0]):
        raise ArithmeticError(f"dense eigensolver returned the non-finite eigenvalue {evals[0]}")
    return float(evals[0]), evecs[:, 0]


def _arpack_lowest(h: Operator) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of h by eigsh over make_matvec, residual checked.

    The first solve stops at the relative tolerance _ARPACK_TOL.  ARPACK
    bounds its residual by tol * |E|, so when |E| is large the pair can miss
    the checked 1e-9; it is then resumed once from its own vector with
    tol=0 (machine precision), and only a second miss raises.
    """
    dim = 1 << h.n_qubits
    dtype = np.complex128 if (np.bitwise_count(h.x_masks & h.z_masks) & 1).any() else np.float64
    matvec = make_matvec(h)
    vec = np.random.default_rng(_V0_SEED).standard_normal(dim).astype(dtype)
    op = LinearOperator((dim, dim), matvec=matvec, dtype=dtype)
    for tol in (_ARPACK_TOL, 0):
        try:
            evals, evecs = eigsh(op, k=1, which="SA", v0=vec, tol=tol)
        except ArpackNoConvergence as exc:
            raise ArithmeticError(f"ARPACK did not converge: {exc}") from exc
        except ArpackError as exc:  # e.g. an overflowing h breaks the Arnoldi factorization
            raise ArithmeticError(f"ARPACK failed: {exc}") from exc
        energy, vec = float(evals[0]), evecs[:, 0]
        residual = float(np.linalg.norm(matvec(vec) - energy * vec))
        if residual < 1e-9:
            return energy, vec
    raise ArithmeticError(f"ARPACK eigenpair misses residual 1e-9 (got {residual:g})")
