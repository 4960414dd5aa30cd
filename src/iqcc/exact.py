"""Matrix-free statevector engine and exact ground-state solvers.

State vectors are plain complex numpy arrays of length 2**n; bit j of the
basis index is qubit j (|1> is the -1 eigenstate of z).  Pauli words act by
index permutation (x_mask), sign flips (z_mask) and i-phases (y letters),
so no 2**n x 2**n matrix is ever materialized except in the explicit dense
paths.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .pauli import DimensionError, Operator, PauliWord, flip_runs, parity_signs, phase_value

DENSE_QUBIT_LIMIT = 10
ITERATIVE_QUBIT_LIMIT = 16

# Above this many amplitude-array entries the matvec recomputes diagonal
# factors per call instead of caching one vector per flip group.
_DIAG_CACHE_ENTRIES = 1 << 25


class BudgetError(RuntimeError):
    """Requested exact solve exceeds the configured qubit budget."""


def _check_dim(vec: np.ndarray, n_qubits: int) -> None:
    if vec.shape != (1 << n_qubits,):
        raise DimensionError(f"state length {vec.shape} does not match {n_qubits} qubits")


def apply_word(vec: np.ndarray, w: PauliWord) -> np.ndarray:
    """Apply one Pauli word to a state vector (norm-preserving)."""
    _check_dim(vec, w.n_qubits)
    idx = np.arange(vec.size, dtype=np.int64)
    phase = phase_value((w.x_mask & w.z_mask).bit_count())
    out = parity_signs(idx, w.z_mask) * vec
    return phase * out[idx ^ w.x_mask]


def _run_diagonal(idx: np.ndarray, x: int, zs: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """Diagonal that, applied before the x permutation, gives one flip run's terms.

    Sums c * i**(#y) * (-1)**popcount(idx & z) over the run's (z, c) pairs.
    """
    d = np.zeros(idx.size, dtype=np.complex128)
    for z, c in zip(zs, cs):
        z = int(z)
        phase = phase_value((x & z).bit_count())
        d += (c * phase) * parity_signs(idx, z)
    return d


def make_matvec(h: Operator):
    """Closure computing h @ v; reused across Krylov iterations.

    Terms sharing an x_mask share one index permutation; their z-signs and
    y-phases are folded into a cached diagonal vector when memory allows.
    """
    dim = 1 << h.n_qubits
    idx = np.arange(dim, dtype=np.int64)
    zs, cs = h.z_masks, h.coefficients
    runs = flip_runs(h)
    cache = 0 < len(runs) * dim <= _DIAG_CACHE_ENTRIES
    groups = []
    for x, sl in runs:
        diag = partial(_run_diagonal, idx, x, zs[sl], cs[sl])
        groups.append((idx ^ x, diag() if cache else diag))

    def matvec(v: np.ndarray) -> np.ndarray:
        out = np.zeros(dim, dtype=np.complex128)
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
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for x, sl in flip_runs(h):
        mat[idx ^ x, idx] = _run_diagonal(idx, x, h.z_masks[sl], h.coefficients[sl])
    return mat


def _lanczos_lowest(
    matvec,
    dim: int,
    v0: np.ndarray,
    krylov: int = 50,
    tol: float = 1e-9,
    max_restarts: int = 60,
) -> tuple[float, np.ndarray]:
    """Lowest eigenpair via restarted Lanczos with full re-orthogonalization."""
    v = v0 / np.linalg.norm(v0)
    m = min(krylov, dim)
    for _ in range(max_restarts):
        basis: list[np.ndarray] = []
        alphas: list[float] = []
        betas: list[float] = []
        w = np.zeros_like(v)
        for _ in range(m):
            basis.append(v)
            w = matvec(v)
            alpha = float(np.real(np.vdot(v, w)))
            alphas.append(alpha)
            w = w - alpha * v - (betas[-1] * basis[-2] if betas else 0.0)
            # full re-orthogonalization keeps the clustered low end clean
            vmat = np.asarray(basis)
            w -= vmat.T @ (vmat.conj() @ w)
            beta = float(np.linalg.norm(w))
            if beta < 1e-13:
                break
            betas.append(beta)
            v = w / beta
        theta, s = eigh_tridiagonal(alphas, betas[: len(alphas) - 1], select="i", select_range=(0, 0))
        energy = float(theta[0])
        vec = np.asarray(basis).T @ s[:, 0]
        vec /= np.linalg.norm(vec)
        residual = float(np.linalg.norm(matvec(vec) - energy * vec))
        v = vec
        if residual < tol:
            return energy, vec
    raise ArithmeticError(f"Lanczos did not reach residual {tol:g} (last {residual:g})")


def ground_state(h: Operator, mode: str = "auto", seed: int = 7) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue and a normalized eigenvector of h.

    mode "dense" diagonalizes the full matrix (n <= 10); "iterative" runs
    restarted Lanczos on the matrix-free operator (n <= 16, residual < 1e-9);
    "auto" picks whichever budget admits.  Raises BudgetError beyond both.
    """
    if h.is_empty:
        raise ValueError("cannot solve an empty operator")
    n = h.n_qubits
    if mode == "auto":
        mode = "dense" if n <= DENSE_QUBIT_LIMIT else "iterative"
    if mode == "dense":
        if n > DENSE_QUBIT_LIMIT:
            raise BudgetError(f"dense mode limited to {DENSE_QUBIT_LIMIT} qubits, got {n}")
        evals, evecs = np.linalg.eigh(dense_matrix(h))
        return float(evals[0]), evecs[:, 0]
    if mode == "iterative":
        if n > ITERATIVE_QUBIT_LIMIT:
            raise BudgetError(f"iterative mode limited to {ITERATIVE_QUBIT_LIMIT} qubits, got {n}")
        dim = 1 << n
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return _lanczos_lowest(make_matvec(h), dim, v0)
    raise ValueError(f"unknown mode {mode!r}")
