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

from .pauli import Operator, PauliWord, rotate


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
        if not math.isfinite(self.tau):
            raise ValueError(f"amplitude tau must be finite, got {self.tau}")
        object.__setattr__(self, "tau", _reduce_angle(float(self.tau)))


def dress(h: Operator, step: DressingStep) -> Operator:
    """Similarity-transform h by one exponential factor."""
    if step.tau == 0.0:
        return h
    return rotate(h, step.generator, math.cos(step.tau), math.sin(step.tau))


def dress_derivative(h: Operator, step: DressingStep) -> Operator:
    """d/dtau of dress(h, step) at the step's own amplitude.

    Equals cos(tau) * (-(i/2)[h, P]) + sin(tau)/2 * (P h P - h).
    """
    return rotate(h, step.generator, -math.sin(step.tau), math.cos(step.tau), commuting=False)


def dress_sequence(h: Operator, steps: Iterable[DressingStep]) -> Operator:
    """Left fold of dress over the steps, in order.

    A dressed result starts a memo of its own (see `pauli.rotate`).  It is
    the next iteration's operator: sharing the memo of the last dress would
    let h, through the plans made from it, keep every later iteration's
    plans alive as well.
    """
    out = h
    for step in steps:
        out = dress(out, step)
    if out is h:
        return h
    return Operator._from_canonical(out.n_qubits, out.x_masks, out.z_masks, out.coefficients)
