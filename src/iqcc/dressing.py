"""Exact similarity transformation of operators by single-word exponentials.

One step maps h to exp(i*tau*P/2) h exp(-i*tau*P/2), evaluated in closed
form on the term list:

    h + sin(tau) * (-(i/2)[h, P]) + (1 - cos(tau))/2 * (P h P - h)

Terms commuting with the generator pass through unchanged; anticommuting
terms are scaled by cos(tau) and spawn at most one new word each, so the
term count at most doubles per step.  No Trotterization is involved:
single-word exponentials are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .pauli import Operator, PauliWord, anticommuting, commutator_terms


def _reduce_angle(tau: float) -> float:
    """Map tau into (-pi, pi]; the transformation is 2*pi-periodic."""
    r = math.remainder(tau, 2.0 * math.pi)
    return math.pi if r == -math.pi else r


@dataclass(frozen=True)
class DressingStep:
    """One generator word with its rotation amplitude (radians)."""

    generator: PauliWord
    tau: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", _reduce_angle(float(self.tau)))


def dress(h: Operator, step: DressingStep) -> Operator:
    """Similarity-transform h by one exponential factor."""
    p = step.generator
    anti = anticommuting(h, p)
    if step.tau == 0.0 or not anti.any():
        return h
    sin_t, cos_t = math.sin(step.tau), math.cos(step.tau)
    xs, zs, cs = h.x_masks, h.z_masks, h.coefficients
    xa, za, ca = xs[anti], zs[anti], cs[anti]
    xn, zn, cn = commutator_terms(xa, za, ca, p)
    return Operator._from_raw(
        h.n_qubits,
        np.concatenate([xs[~anti], xa, xn]),
        np.concatenate([zs[~anti], za, zn]),
        np.concatenate([cs[~anti], ca * cos_t, cn * sin_t]),
    )


def dress_derivative(h: Operator, step: DressingStep) -> Operator:
    """d/dtau of dress(h, step) at the step's own amplitude.

    Equals cos(tau) * (-(i/2)[h, P]) + sin(tau)/2 * (P h P - h).
    """
    p = step.generator
    anti = anticommuting(h, p)
    if not anti.any():
        return Operator.zero(h.n_qubits)
    sin_t, cos_t = math.sin(step.tau), math.cos(step.tau)
    xa, za, ca = h.x_masks[anti], h.z_masks[anti], h.coefficients[anti]
    xn, zn, cn = commutator_terms(xa, za, ca, p)
    return Operator._from_raw(
        h.n_qubits,
        np.concatenate([xa, xn]),
        np.concatenate([za, zn]),
        np.concatenate([-ca * sin_t, cn * cos_t]),
    )


def dress_sequence(h: Operator, steps: Iterable[DressingStep]) -> Operator:
    """Left fold of dress over the steps, in order."""
    out = h
    for step in steps:
        out = dress(out, step)
    return out
