"""Statevector engine and exact ground-state solvers.

State vectors are plain numpy arrays of length 2**n; bit j of the basis
index is qubit j (|1> is the -1 eigenstate of z).  A Pauli word sends basis
state i to i ^ x_mask with a sign and an i-phase, so h is a sparse matrix
with one entry per row and flip run (terms of one x_mask).  It is real
symmetric (float64) unless a term has an odd number of y letters (complex128,
Hermitian), so the matvec and the dense matrix both read its diagonal and, of
each pair of entries <i|h|j> and <j|h|i>, only the one with j > i.

The iterative solve stops at the accuracy its caller checks, not at machine
precision: ARPACK stops once its residual estimate is below _ARPACK_TOL * |E|,
and the eigenvalue error is at most that residual squared over the spectral
gap.  A pair that still misses the checked residual (large |E|) is resumed
once from its own vector at machine precision.

The matrix build and the matvec are cut into row chunks, one per
_CHUNK_ENTRIES stored entries (a power of two, at most _CHUNKS), and shared
out between the calling thread and helper threads, one fewer than the CPUs
in this process's affinity mask (`taskset` limits them); a small matrix is
one chunk on the calling thread.  The chunks depend on the operator alone,
not on the CPU count, and their partial sums are added in chunk order, so
every bit is the same on any number of threads.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import _sparsetools, csr_array
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from .pauli import DimensionError, Operator, flip_runs, parity_signs

DENSE_QUBIT_LIMIT = 10
ITERATIVE_QUBIT_LIMIT = 16

# Above this many stored entries, dim * (1 + off-diagonal flip runs / 2) (the
# diagonal and the strict upper triangle, 12 bytes each when real), the matvec
# rebuilds the matrix row block by row block on every call.
_DIAG_CACHE_ENTRIES = 1 << 25

# Entries per row block (rows x flip runs), which bounds the build's temporaries.
_BLOCK_ENTRIES = 1 << 16

# Row chunks of the matvec: one per _CHUNK_ENTRIES stored entries, rounded down
# to a power of two, at most _CHUNKS and one per row, each with a partial vector
# of its own.  Fixed by the operator, so that no sum depends on the CPU count; a
# small matrix is one chunk on the calling thread, since handing chunks to helper
# threads costs more than its product.  A row block stays within dim / _CHUNKS
# rows at any chunk count, which bounds the [terms x block] sign table.
_CHUNK_ENTRIES = 1 << 16
_CHUNKS = 8

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


class _MatrixRows:
    """Rows of the matrix of h, built `block` rows at a time as the diagonal and
    the strict upper triangle (`upper`), which the matvec and `dense_matrix` read.

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
        # a power of two rows, at most dim / _CHUNKS and so within one matvec chunk (see make_matvec)
        self.block = min(self.dim // _CHUNKS or 1, 1 << max(0, (_BLOCK_ENTRIES // max(self.runs, 1)).bit_length() - 1))
        phase = np.array([1, -1j, -1, 1j])[np.bitwise_count(xs & self.zs) & 3]
        coef = h.coefficients * (phase if phase.imag.any() else phase.real)
        self.low = coef[:, None] * parity_signs(np.arange(self.block, dtype=np.uint64), self.zs[:, None])
        self.incidence = csr_array((np.ones(terms, self.low.dtype), np.arange(terms), bounds), (self.runs, terms))
        # the diagonal is run 0 when there is one; column i ^ x > i when x's highest bit is clear in i
        self.diagonal = int(self.runs > 0 and run_x[0] == 0)
        self.top = np.array([1 << (x.bit_length() - 1) for x in run_x[self.diagonal :].tolist()], dtype=np.int32)
        self.stored = self.dim + self.dim // 2 * len(self.top)  # the diagonal and the strict upper triangle
        chunks = min(_CHUNKS, self.dim, 1 << (max(1, self.stored // _CHUNK_ENTRIES).bit_length() - 1))
        self.span = self.dim // chunks  # rows per matvec chunk

    def _values(self, s: int) -> np.ndarray:
        """[block x runs] values of rows s..s+block-1, a transposed view."""
        return (self.incidence @ (parity_signs(np.uint64(s), self.zs[:, None]) * self.low)).T

    def upper(self, start: int, span: int) -> tuple:
        """Rows start..start+span-1 (span a power of two, at least the block,
        dividing start) as (start, diagonal, CSR arrays of the strict upper
        triangle: indptr, cols, data), each written once into arrays sized from
        the exact count; within a row the entries keep ascending x order."""
        # a top bit below the span is clear in half the rows, one above it in all or none
        total = int(np.where(self.top < span, span // 2, span * ((start & self.top) == 0)).sum())
        diag = np.zeros(span)
        indptr = np.zeros(span + 1, dtype=np.int32)
        cols, data = np.empty(total, dtype=np.int32), np.empty(total, dtype=self.low.dtype)
        end = 0
        for k in range(0, span, self.block):
            vals = self._values(start + k)
            if self.diagonal:
                diag[k : k + self.block] = vals[:, 0].real
            i = np.arange(start + k, start + k + self.block, dtype=np.int32)[:, None]
            keep = (i & self.top) == 0
            indptr[k + 1 : k + self.block + 1] = end + np.cumsum(keep.sum(axis=1))
            k_end = int(indptr[k + self.block])
            data[end:k_end] = vals[:, self.diagonal :][keep]
            cols[end:k_end] = (i ^ self.run_x[self.diagonal :])[keep]
            end = k_end
        return start, diag, indptr, cols, data


def make_matvec(h: Operator):
    """Closure computing h @ v; reused across Krylov iterations.

    h is Hermitian, so only its diagonal d and strict upper triangle U are
    stored, and h v = d * v + U v + U^H v: U v gathers along U's rows, U^H v
    scatters through the transposed view of the same arrays (for complex h as
    conj(U^T conj(v)), so that U is never copied).  The rows are cut into
    chunks of whole row blocks, as many as the stored entries call for (see
    _CHUNK_ENTRIES), whatever the CPU count; each chunk gathers into its rows
    of the output and scatters into a partial vector of its own, and the
    partials are added in chunk order, so the bits do not depend on the CPU
    count.  Up to _DIAG_CACHE_ENTRIES stored entries each chunk is built once
    and kept; above that every call rebuilds it one row block at a time, with
    the same sums.  Either way `_shared` hands the chunks out to the calling
    thread and helper threads.  Real for real h and v; a real h applies to a
    complex v's real and imaginary parts apart, with the bits of the complex
    product but no complex copy of the matrix.
    """
    rows = _MatrixRows(h)
    dim, dtype, block, span = rows.dim, rows.low.dtype, rows.block, rows.span
    starts = range(0, dim, span)
    if rows.stored > _DIAG_CACHE_ENTRIES:
        def pieces(c: int):
            return (rows.upper(s, block) for s in range(starts[c], starts[c] + span, block))
    else:
        kept = _shared(len(starts), lambda c: rows.upper(starts[c], span))

        def pieces(c: int):
            return (kept[c],)

    def matvec(v: np.ndarray) -> np.ndarray:
        if dtype.kind != "c" and v.dtype.kind == "c":
            out = np.empty(dim, dtype=np.result_type(dtype, v.dtype))
            out.real, out.imag = product(np.ascontiguousarray(v.real)), product(np.ascontiguousarray(v.imag))
            return out
        return product(v)

    def product(v: np.ndarray) -> np.ndarray:
        out = np.empty(dim, dtype=np.result_type(dtype, v.dtype))
        w = v.conj() if dtype.kind == "c" else v

        def chunk(c: int) -> np.ndarray:
            partial = np.zeros_like(out)
            for start, diag, indptr, cols, data in pieces(c):
                n, stop = len(diag), start + len(diag)
                # scipy's own kernels, which add into their last argument (its public product starts
                # from zeros), so that a chunk rebuilt block by block adds in the order of a kept one
                np.multiply(diag, v[start:stop], out=out[start:stop])
                _sparsetools.csr_matvec(n, dim, indptr, cols, data, v, out[start:stop])
                _sparsetools.csc_matvec(dim, n, indptr, cols, data, w[start:stop], partial)
            return np.conjugate(partial, out=partial) if dtype.kind == "c" else partial

        for partial in _shared(len(starts), chunk):
            out += partial
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
    """Dense 2**n x 2**n matrix of h up to DENSE_QUBIT_LIMIT qubits (BudgetError
    above, before anything is built): the diagonal and each entry the matvec
    stores (`_MatrixRows.upper`) at (i, j), its conjugate at (j, i), unsummed."""
    if h.n_qubits > DENSE_QUBIT_LIMIT:
        raise BudgetError(f"dense mode limited to {DENSE_QUBIT_LIMIT} qubits, got {h.n_qubits}")
    rows, dim = _MatrixRows(h), 1 << h.n_qubits
    _, diag, indptr, cols, data = rows.upper(0, dim)
    mat = np.zeros((dim, dim), dtype=data.dtype)
    flat, i = mat.reshape(-1), np.repeat(np.arange(dim), np.diff(indptr))
    flat[i * dim + cols] = data
    flat[cols * dim + i] = data.conj()
    flat[:: dim + 1] = diag
    return mat


def ground_state(h: Operator, mode: str = "auto") -> tuple[float, np.ndarray]:
    """Lowest eigenvalue and a normalized eigenvector of h.

    mode "dense" solves the full matrix for its lowest pair only (n <= 10);
    "iterative" runs ARPACK's implicitly restarted Lanczos (`eigsh`) over
    `make_matvec` (n <= 16) from a fixed start vector to the relative
    tolerance _ARPACK_TOL and checks the residual ||hv - ev|| < 1e-9 (see
    `_arpack_lowest`); "auto" solves dense below DENSE_QUBIT_LIMIT qubits and
    iterative from there up, falling back to dense at the limit itself when
    the iterative solve fails (a large |E| can miss the residual).  Both work in
    float64 for real h.  Raises BudgetError beyond both budgets and
    ArithmeticError when a solve fails, stalls, misses the residual or
    returns a non-finite eigenvalue (an h whose entries overflow).
    """
    if h.is_empty:
        raise ValueError("cannot solve an empty operator")
    n = h.n_qubits
    auto = mode == "auto"
    if auto:
        mode = "dense" if n < DENSE_QUBIT_LIMIT else "iterative"
    if mode == "iterative":
        if n > ITERATIVE_QUBIT_LIMIT:
            raise BudgetError(f"iterative mode limited to {ITERATIVE_QUBIT_LIMIT} qubits, got {n}")
        # ARPACK's complex driver needs 2**n > k + 1, so one qubit is solved dense
        if n > 1:
            try:
                return _arpack_lowest(h)
            except ArithmeticError:
                # float64 cannot reach the checked residual once |E| is ~1e6; at its limit dense can solve it
                if not (auto and n == DENSE_QUBIT_LIMIT):
                    raise
    elif mode != "dense":
        raise ValueError(f"unknown mode {mode!r}")
    # only the lowest pair; LAPACK finds none at all when an entry is infinite
    evals, evecs = eigh(dense_matrix(h), subset_by_index=[0, 0], check_finite=False)
    if evals.size != 1 or not np.isfinite(evals[0]):
        raise ArithmeticError(f"dense eigensolver found no finite lowest eigenvalue (got {evals}): non-finite h")
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
