"""Coherent product states: expectations, energies, analytic gradients,
mean-field minimization and reference purification.

A state is a pair of Bloch-angle arrays (theta, phi), one angle pair per
qubit.  Single-qubit expectations are <x> = sin(theta)cos(phi),
<y> = sin(theta)sin(phi), <z> = cos(theta); a word's expectation is the
product over its support.  All gradients here are analytic.

The kernels split the qubits into blocks of _K = 4.  A term's letters on one
block form one of 256 patterns, found once per word set (`_block_index`, in
the operator's memo), and each state tabulates, once, every block's product
of Bloch factors on every pattern together with the same product with one
factor replaced by its theta or phi derivative (`BlochState.block_tables`).
The energy is one gather per block, the product over the blocks and a dot
with the coefficients; the gradient weights each pattern by the coefficients
times the product of the other blocks and contracts those weights with the
derivative tables.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bfgs import minimize
from .pauli import MAX_QUBITS, DimensionError, Operator, frozen

logger = logging.getLogger(__name__)

_K = 4  # qubits per block of the pattern tables
_PATTERNS = 4**_K  # letter patterns of one block
_BLOCKS = -(-MAX_QUBITS // _K)  # blocks of the widest operator
# a block's pattern by its x mask + 2**_K * its z mask: slot q's letter code x + 2z is digit q
_PATTERN_OF = np.array(
    [sum(4**q * ((v >> q & 1) + 2 * (v >> _K + q & 1)) for q in range(_K)) for v in range(1 << 2 * _K)], dtype=np.intp
)
_SHIFTS = _K * np.arange(_BLOCKS, dtype=np.uint64)[:, None]  # block b's masks start at bit _K * b
_OFFSETS = _PATTERNS * np.arange(_BLOCKS)[:, None]  # block b's patterns start at column 256b
# Which of a qubit's letter values each slot of each table reads (0 the factors
# f, 1 their d/dtheta, 2 their d/dphi): table 0 takes f throughout, table 1 + q
# slot q's d/dtheta and table 1 + _K + q its d/dphi.
_KIND = np.array([[0] * _K] + [[d if r == q else 0 for r in range(_K)] for d in (1, 2) for q in range(_K)])
# [tables x blocks x slots x letters] flat index into the [qubits x 3 x 4] letter values (I, x, z, y)
_SLOT_INDEX = (
    12 * (_K * np.arange(_BLOCKS)[:, None] + np.arange(_K))[:, :, None] + 4 * _KIND[:, None, :, None] + np.arange(4)
)


@dataclass(frozen=True, eq=False)
class BlochState:
    """Product state parametrized by 2n Bloch angles (radians), compared and
    hashed by identity; it keeps read-only copies of the angles it is given."""

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
    def block_tables(self) -> np.ndarray:
        """[1 + 2 * _K, blocks * 256] values of each block of _K qubits (qubits
        _K * b to _K * b + _K - 1, identity past the last) on each of its letter
        patterns, read-only and built on first use.  Column 256b + p holds
        block b's pattern p (see `_block_index`); row 0 is the product of the
        block's Bloch factors, row 1 + q the same with slot q's factor replaced
        by its d/dtheta, and row 1 + _K + q by its d/dphi.  Each is a batched
        outer product over the slots, in qubit order."""
        n = self.n_qubits
        blocks = -(-n // _K)
        st, ct = np.sin(self.theta), np.cos(self.theta)
        sp, cp = np.sin(self.phi), np.cos(self.phi)
        values = np.zeros((_K * blocks, 3, 4))  # f, d/dtheta, d/dphi by letter; past the last qubit, identity
        values[:, 0, 0] = 1.0
        f, dth, dph = values[:n].transpose(1, 2, 0)
        np.multiply(st, cp, out=f[1])  # <x>
        f[2] = ct  # <z>
        np.multiply(st, sp, out=f[3])  # <y>
        np.multiply(ct, cp, out=dth[1])
        np.negative(st, out=dth[2])
        np.multiply(ct, sp, out=dth[3])
        np.negative(f[3], out=dph[1])
        dph[3] = f[1]
        slots = values.take(_SLOT_INDEX[:, :blocks])
        tables = slots[:, :, 0]
        for q in range(1, _K):  # slot q is digit q of the pattern
            tables = (tables[:, :, None, :] * slots[:, :, q, :, None]).reshape(len(_KIND), blocks, -1)
        return frozen(tables.reshape(len(_KIND), -1))[0]

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


def _block_index(h: Operator) -> np.ndarray:
    """[blocks x terms] column 256b + p of term t's letter pattern p on block b
    in `BlochState.block_tables`, where p = sum of 4**q * (x + 2z) over the
    block's slots q (letter code 0 = I, 1 = x, 2 = z, 3 = y) and slots past the
    last qubit are identity; read-only, and the energies read it from h's memo,
    so each word set builds it once."""
    blocks = -(-h.n_qubits // _K)
    shifts, nibble = _SHIFTS[:blocks], np.uint64((1 << _K) - 1)
    code = ((h.z_masks >> shifts) & nibble) << np.uint64(_K)
    code |= (h.x_masks >> shifts) & nibble
    index = _PATTERN_OF[code.astype(np.intp)]
    index += _OFFSETS[:blocks]
    return frozen(index)[0]


def _block_values(s: BlochState, h: Operator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """h's block index, each term's value on each block ([blocks x terms]) and
    its product over the blocks, taken in block order."""
    index = h._memoized(_block_index)
    values = s.block_tables[0][index]
    prod = values[0]
    for row in values[1:]:
        prod = prod * row
    return index, values, prod


def energy(s: BlochState, h: Operator) -> float:
    """Sum of coefficient * word expectation over all terms."""
    _check_state(s, h.n_qubits)
    return float(h.coefficients @ _block_values(s, h)[2])


def energy_and_gradient(s: BlochState, h: Operator) -> tuple[float, np.ndarray, np.ndarray]:
    """Energy plus analytic d/dtheta and d/dphi arrays.

    A term's derivative along one of block b's qubits is its coefficient times
    the product of the other blocks' values times that qubit's derivative row
    of block b's table.  The products of the other blocks are running products
    from both ends, with no division, so zero and subnormal factors need no
    special case.  Summed per pattern (`np.bincount`), they meet each
    derivative row once.
    """
    _check_state(s, h.n_qubits)
    index, values, prod = _block_values(s, h)
    cs = h.coefficients
    blocks = len(values)
    rest = np.empty_like(values)  # coefficient times the product of the other blocks
    rest[0] = cs
    for b in range(1, blocks):
        np.multiply(rest[b - 1], values[b - 1], out=rest[b])
    after = values[-1]  # product of the blocks after b
    for b in range(blocks - 2, -1, -1):
        rest[b] *= after
        if b:
            after = after * values[b]
    weights = np.bincount(index.ravel(), weights=rest.ravel(), minlength=blocks * _PATTERNS)
    rows = s.block_tables[1:].reshape(2, _K, blocks, _PATTERNS)
    grads = np.einsum("dqbp,bp->dbq", rows, weights.reshape(blocks, _PATTERNS)).reshape(2, -1)[:, : h.n_qubits]
    return float(cs @ prod), grads[0], grads[1]


def _minimize_local(h: Operator, theta0: np.ndarray, phi0: np.ndarray) -> tuple[BlochState, float]:
    n = h.n_qubits

    def fun(x: np.ndarray):
        s = BlochState(x[:n], x[n:])
        e, gt, gp = energy_and_gradient(s, h)
        return e, np.concatenate([gt, gp])

    res = minimize(fun, np.concatenate([theta0, phi0]), maxiter=1000)
    return BlochState(res.x[:n], res.x[n:]).normalized(), float(res.fun)


def qmf_minimize(h: Operator, n_guesses: int = 10, rng_seed: int = 0) -> tuple[BlochState, float]:
    """Best finite product-state minimum over `n_guesses` random-angle starts."""
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
        if math.isfinite(e) and e < best_e:
            best_state, best_e = state, e
    if best_state is None:
        raise ArithmeticError(f"no mean-field start of {n_guesses} reached a finite energy")
    return best_state, best_e


def purify(s: BlochState) -> PurifiedReference:
    """Nearest z-eigenstate per qubit, by the sign of cos(theta); the tie at pi/2 goes to +1."""
    return PurifiedReference(tuple(1 if c >= 0 else -1 for c in np.cos(s.theta)))


def reference_state(ref: PurifiedReference) -> BlochState:
    """Bloch angles of a purified reference (theta 0 or pi, phi 0)."""
    theta = np.array([0.0 if b == 1 else math.pi for b in ref.bits])
    return BlochState(theta, np.zeros(len(ref.bits)))
