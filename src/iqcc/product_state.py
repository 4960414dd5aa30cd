"""Coherent product states: expectations, energies, analytic gradients,
mean-field minimization and reference purification.

A state is a pair of Bloch-angle arrays (theta, phi), one angle pair per
qubit.  Single-qubit expectations are <x> = sin(theta)cos(phi),
<y> = sin(theta)sin(phi), <z> = cos(theta); a word's expectation is the
product over its support.  All gradients here are analytic.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .pauli import DimensionError, Operator

logger = logging.getLogger(__name__)

GRAD_TOL = 1e-8  # quasi-Newton exit criterion (gradient infinity norm)


@dataclass(frozen=True)
class BlochState:
    """Product state parametrized by 2n Bloch angles (radians)."""

    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        th = np.atleast_1d(np.asarray(self.theta, dtype=np.float64))
        ph = np.atleast_1d(np.asarray(self.phi, dtype=np.float64))
        if th.shape != ph.shape or th.ndim != 1:
            raise ValueError("theta and phi must be 1-d arrays of equal length")
        th.setflags(write=False)
        ph.setflags(write=False)
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "phi", ph)

    @property
    def n_qubits(self) -> int:
        return self.theta.size

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
    """[terms x qubits] column 4j + x + 2z of term t's letter on qubit j in the
    rows of `_bloch_tables` (letter code 0 = I, 1 = x, 2 = z, 3 = y)."""
    n = h.n_qubits

    def bits(masks: np.ndarray) -> np.ndarray:
        octets = masks.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
        return np.unpackbits(octets, axis=1, count=n, bitorder="little")

    return bits(h.x_masks) + 2 * bits(h.z_masks) + 4 * np.arange(n, dtype=np.intp)


def _bloch_tables(s: BlochState) -> np.ndarray:
    """Rows f, df/dtheta and df/dphi of the single-qubit expectation f; column
    4j + c holds qubit j's value for letter code c (I, x, z, y)."""
    st, ct = np.sin(s.theta), np.cos(s.theta)
    sp, cp = np.sin(s.phi), np.cos(s.phi)
    one, zero = np.ones_like(st), np.zeros_like(st)
    rows = [[one, st * cp, ct, st * sp], [zero, ct * cp, -st, ct * sp], [zero, -st * sp, zero, st * cp]]
    return np.array(rows).transpose(0, 2, 1).reshape(3, -1)


def energy(s: BlochState, h: Operator) -> float:
    """Sum of coefficient * word expectation over all terms."""
    _check_state(s, h.n_qubits)
    if h.is_empty:
        return 0.0
    return float(h.coefficients @ _bloch_tables(s)[0][_letter_codes(h)].prod(axis=1))


def energy_and_gradient(s: BlochState, h: Operator) -> tuple[float, np.ndarray, np.ndarray]:
    """Energy plus analytic d/dtheta and d/dphi arrays."""
    _check_state(s, h.n_qubits)
    n = h.n_qubits
    if h.is_empty:
        return 0.0, np.zeros(n), np.zeros(n)
    f_table, dth_table, dph_table = _bloch_tables(s)
    codes = _letter_codes(h)
    f = f_table[codes]

    prod = f.prod(axis=1)
    cs = h.coefficients
    e = float(cs @ prod)

    # product over the other factors; a term with two or more zero factors
    # has prod == 0, so dividing already gives it zero partials.  Subnormal
    # factors count as zero: their product keeps too few bits to divide by.
    zero = np.abs(f) < np.finfo(np.float64).tiny
    denom = np.where(zero, 1.0, f)
    partial = prod[:, None] / denom
    one_zero = zero.sum(axis=1) == 1
    if one_zero.any():
        rest = denom[one_zero].prod(axis=1)
        partial[one_zero] = np.where(zero[one_zero], rest[:, None], 0.0)

    g_theta = np.einsum("t,tj,tj->j", cs, partial, dth_table[codes])
    g_phi = np.einsum("t,tj,tj->j", cs, partial, dph_table[codes])
    return e, g_theta, g_phi


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
