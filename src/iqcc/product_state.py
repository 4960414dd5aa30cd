"""Coherent product states: expectations, energies, analytic gradients,
mean-field minimization and reference purification.

A state is a pair of Bloch-angle arrays (theta, phi), one angle pair per
qubit.  Single-qubit expectations are <x> = sin(theta)cos(phi),
<y> = sin(theta)sin(phi), <z> = cos(theta); a word's expectation is the
product over its support.  All gradients here are analytic.

The kernels gather each qubit's factor by its letter code from the state's
`factor_table` (built once per state) through the operator's qubit-major
`[qubits x terms]` code array (built once per word set), so a term's
product is n - 1 whole-vector multiplies in qubit order, with the bits of a
row-wise product.  They work through the terms in blocks, so that their
temporaries stay in cache, and each gradient is one running sum over all
terms in order, with the bits of `np.einsum` over `[terms x qubits]`
operands.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .pauli import DimensionError, Operator, frozen

logger = logging.getLogger(__name__)

GRAD_TOL = 1e-8  # quasi-Newton exit criterion (gradient infinity norm)
_TINY = np.finfo(np.float64).tiny  # smallest normal float64
_BLOCK = 4096  # terms per block of the energy kernels


@dataclass(frozen=True)
class BlochState:
    """Product state parametrized by 2n Bloch angles (radians); it keeps
    read-only copies of the angles it is given."""

    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        th = np.array(self.theta, dtype=np.float64, ndmin=1)
        ph = np.array(self.phi, dtype=np.float64, ndmin=1)
        if th.shape != ph.shape or th.ndim != 1:
            raise ValueError("theta and phi must be 1-d arrays of equal length")
        object.__setattr__(self, "theta", frozen(th)[0])
        object.__setattr__(self, "phi", frozen(ph)[0])

    @property
    def n_qubits(self) -> int:
        return self.theta.size

    @cached_property
    def factor_table(self) -> np.ndarray:
        """Rows f, df/dtheta and df/dphi of the single-qubit expectation f, read-only
        and built on first use; column 4j + c holds qubit j's value for letter code
        c (I, x, z, y)."""
        st, ct = np.sin(self.theta), np.cos(self.theta)
        sp, cp = np.sin(self.phi), np.cos(self.phi)
        one, zero = np.ones_like(st), np.zeros_like(st)
        rows = [[one, st * cp, ct, st * sp], [zero, ct * cp, -st, ct * sp], [zero, -st * sp, zero, st * cp]]
        return frozen(np.array(rows).transpose(0, 2, 1).reshape(3, -1))[0]

    def normalized(self) -> "BlochState":
        """Copy with theta in [0, pi] and phi in [0, 2*pi).

        Uses the sphere identity (theta, phi) ~ (2*pi - theta, phi + pi),
        which changes the state only by a global phase.
        """
        th = np.mod(self.theta, 2.0 * math.pi)
        ph = np.array(self.phi, dtype=np.float64)
        over = th > math.pi
        th = np.where(over, 2.0 * math.pi - th, th)
        ph = np.where(over, ph + math.pi, ph)
        return BlochState(th, np.mod(ph, 2.0 * math.pi))


@dataclass(frozen=True)
class PurifiedReference:
    """Nearest z-basis product state: one +-1 eigenvalue of z per qubit."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (1, -1) for b in self.bits):
            raise ValueError("reference bits must be +1 or -1")

    @property
    def n_qubits(self) -> int:
        return len(self.bits)

    @property
    def minus_mask(self) -> int:
        """Bitmask of qubits whose z eigenvalue is -1."""
        m = 0
        for j, b in enumerate(self.bits):
            if b == -1:
                m |= 1 << j
        return m


def _check_state(s: BlochState, n_qubits: int) -> None:
    if s.n_qubits != n_qubits:
        raise DimensionError(f"state on {s.n_qubits} qubits, operator on {n_qubits}")


def _letter_codes(h: Operator) -> np.ndarray:
    """[qubits x terms] column 4j + x + 2z of term t's letter on qubit j in
    `BlochState.factor_table` (letter code 0 = I, 1 = x, 2 = z, 3 = y),
    C-contiguous and read-only; the energies read it from h's memo, so each
    word set builds it once."""
    n = h.n_qubits

    def bits(masks: np.ndarray) -> np.ndarray:
        octets = masks.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
        return np.unpackbits(octets.T.copy(), axis=0, count=n, bitorder="little")

    return frozen(bits(h.x_masks) + 2 * bits(h.z_masks) + 4 * np.arange(n, dtype=np.intp)[:, None])[0]


def _products(f: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Product over the rows of f, taken in row (qubit) order, into out."""
    out[...] = f[0]
    for row in f[1:]:
        out *= row
    return out


def _partials(f: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """Product over each term's other factors, with exact zeros: a term with
    two or more zero factors gets zero partials, one with a single zero factor
    the product of the rest on that qubit.  Subnormal factors count as zero:
    their product keeps too few bits to divide by."""
    zero = np.abs(f) < _TINY
    denom = np.where(zero, 1.0, f)
    partial = prod / denom
    one_zero = zero.sum(axis=0) == 1
    if one_zero.any():
        rest = _products(denom[:, one_zero], np.empty(np.count_nonzero(one_zero)))
        partial[:, one_zero] = np.where(zero[:, one_zero], rest, 0.0)
    return partial


def _blocks(h: Operator):
    """(terms, their letter codes) for consecutive blocks of at most _BLOCK terms."""
    codes = h._memoized(_letter_codes)
    for start in range(0, len(h), _BLOCK):
        yield slice(start, start + _BLOCK), codes[:, start : start + _BLOCK]


def energy(s: BlochState, h: Operator) -> float:
    """Sum of coefficient * word expectation over all terms."""
    _check_state(s, h.n_qubits)
    if h.is_empty:
        return 0.0
    f_table, prod = s.factor_table[0], np.empty(len(h))
    for terms, codes in _blocks(h):
        _products(f_table[codes], prod[terms])
    return float(h.coefficients @ prod)


def energy_and_gradient(s: BlochState, h: Operator) -> tuple[float, np.ndarray, np.ndarray]:
    """Energy plus analytic d/dtheta and d/dphi arrays.

    Works through the terms in blocks of at most _BLOCK, so that the
    temporaries stay in cache.  One gather of a block's letter codes gives
    its factors f, another both derivative rows.  The product over a term's
    other factors is prod / f when no factor is below the smallest normal
    float (every factor is at most 1 in size, so a product at or above it
    rules such a factor out); otherwise `_partials` treats those factors as
    zero.  Each gradient is the running sum over all terms, in order, of
    coefficient * partial * derivative, as `np.einsum` sums a column of a
    `[terms x 2 qubits]` array: each block's products are copied into the
    rows of one such array below a first row that carries the sums so far.
    """
    _check_state(s, h.n_qubits)
    n = h.n_qubits
    if h.is_empty:
        return 0.0, np.zeros(n), np.zeros(n)
    f_table, d_tables = s.factor_table[0], s.factor_table[1:]
    cs = h.coefficients
    prod = np.empty(len(h))
    # with 2n >= 2 columns einsum's inner loop runs along a row, so each
    # column is summed as one running sum down the rows
    rows = np.zeros((min(len(h), _BLOCK) + 1, 2 * n))
    for terms, codes in _blocks(h):
        f = f_table[codes]
        p = _products(f, prod[terms])
        partial = p / f if np.abs(p).min() >= _TINY else _partials(f, p)
        partial *= cs[terms]
        grads = np.take(d_tables, codes, axis=1)
        grads *= partial
        m = len(p)
        rows[1 : m + 1] = grads.reshape(2 * n, m).T
        rows[0] = np.einsum("tk->k", rows[: m + 1])
    return float(cs @ prod), rows[0, :n].copy(), rows[0, n:].copy()


def _minimize_local(h: Operator, theta0: np.ndarray, phi0: np.ndarray) -> tuple[BlochState, float]:
    n = h.n_qubits

    def fun(x: np.ndarray):
        s = BlochState(x[:n], x[n:])
        e, gt, gp = energy_and_gradient(s, h)
        return e, np.concatenate([gt, gp])

    res = _scipy_minimize(
        fun,
        np.concatenate([theta0, phi0]),
        jac=True,
        method="BFGS",
        options={"gtol": GRAD_TOL, "maxiter": 1000},
    )
    return BlochState(res.x[:n], res.x[n:]).normalized(), float(res.fun)


def qmf_minimize(h: Operator, n_guesses: int = 10, rng_seed: int = 0) -> tuple[BlochState, float]:
    """Best product-state minimum over `n_guesses` random-angle starts."""
    if n_guesses < 1:
        raise ValueError("n_guesses must be >= 1")
    n = h.n_qubits
    rng = np.random.default_rng(rng_seed)
    best_state, best_e = None, math.inf
    for guess in range(n_guesses):
        theta0 = rng.uniform(0.0, math.pi, n)
        phi0 = rng.uniform(0.0, 2.0 * math.pi, n)
        state, e = _minimize_local(h, theta0, phi0)
        logger.debug("mean-field guess=%d energy=%.12f", guess, e)
        if e < best_e:
            best_state, best_e = state, e
    return best_state, best_e


def purify(s: BlochState) -> PurifiedReference:
    """Nearest z-eigenstate per qubit; the tie at theta = pi/2 goes to +1."""
    return PurifiedReference(tuple(1 if th <= math.pi / 2 else -1 for th in s.theta))


def reference_state(ref: PurifiedReference) -> BlochState:
    """Bloch angles of a purified reference (theta 0 or pi, phi 0)."""
    theta = np.array([0.0 if b == 1 else math.pi for b in ref.bits])
    return BlochState(theta, np.zeros(len(ref.bits)))
