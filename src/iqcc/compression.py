"""Spectrum-safe truncation of operators via the Frobenius-norm Weyl bound.

Coefficients are sorted by magnitude and the smallest are dropped as long
as the Frobenius norm of the dropped tail, 2**(n/2) * sqrt(sum c^2), stays
within epsilon.  Weyl's perturbation bound then guarantees every eigenvalue
moves by at most epsilon.  The identity term is never dropped (it shifts
all eigenvalues equally, and keeping it only shrinks the dropped norm).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import Operator

# customary accuracy: one millihartree, tighter than chemical accuracy
DEFAULT_EPSILON = 1e-3


@dataclass(frozen=True)
class CompressionReport:
    epsilon: float
    terms_before: int
    terms_after: int
    dropped_norm: float  # Frobenius norm of the dropped tail, hartree


def compress(h: Operator, epsilon: float) -> tuple[Operator, CompressionReport]:
    """Truncated copy of h with eigenvalue displacement bounded by epsilon.

    Ties at the cutoff magnitude are all retained so the result does not
    depend on the internal term order.
    """
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    m = len(h)
    if m == 0:
        return h, CompressionReport(epsilon, 0, 0, 0.0)

    xs, zs, cs = h.x_masks, h.z_masks, h.coefficients
    mags = np.abs(cs)
    droppable = ~((xs == 0) & (zs == 0))  # identity exempt
    order = np.lexsort((zs[droppable], xs[droppable], mags[droppable]))
    cand = np.flatnonzero(droppable)[order]  # ascending |c|

    budget = epsilon * epsilon / 2.0**h.n_qubits
    tail = np.cumsum(cs[cand] ** 2)
    k = int(np.searchsorted(tail, budget, side="right"))
    if 0 < k < len(cand):  # retain every term tied with the first kept magnitude
        k = int(np.searchsorted(mags[cand], mags[cand[k]], side="left"))

    if k == 0:
        return h, CompressionReport(epsilon, m, m, 0.0)
    drop_mask = np.zeros(m, dtype=bool)
    drop_mask[cand[:k]] = True
    kept = Operator._from_canonical(h.n_qubits, xs[~drop_mask], zs[~drop_mask], cs[~drop_mask])
    dropped_norm = float(np.sqrt(2.0**h.n_qubits * tail[k - 1]))
    return kept, CompressionReport(epsilon, m, len(kept), dropped_norm)
