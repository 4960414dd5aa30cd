"""Seeded inputs of the benchmark workloads.

The two recipes are copies of those the acceptance suite uses
(`random_integrals` in `tests/conftest.py`, and the capacity operator of
criterion 11 in `tests/test_acceptance.py`), kept here so that an edit to
the tests cannot change the workloads; `bench/test_bench.py` checks that they still
agree.

The workload seed does not draw new base instances.  Solver work on random
instances varies by up to 2x from one instance to the next (the number of
Lanczos restarts, BFGS evaluations and unconverged runs all depend on the
instance), which would swamp any change a benchmark run is meant to show.
Instead the seed draws a sign gauge that leaves the spectrum, and so the
problem's difficulty, unchanged while changing the signs of about half the
input coefficients: conjugation by a random diagonal Pauli word for qubit
operators, and random spatial-orbital signs for integrals (which is the same
thing after mapping).  Seed 0 is the identity, so the default inputs are
exactly the acceptance-suite instances.  Qubit relabellings were tried and
left out: they reorder the random starts and the screening tie-breaks, which
brings back most of the instance-to-instance spread.
"""

from __future__ import annotations

import numpy as np

from iqcc.fermion import IntegralData
from iqcc.pauli import Operator, PauliWord


def random_integrals(rng: np.random.Generator, n_spatial: int, scale: float = 0.5) -> IntegralData:
    """Random symmetric one-electron and 8-fold-symmetric two-electron tensors."""
    h = rng.normal(0, scale, (n_spatial, n_spatial))
    h = (h + h.T) / 2
    g = rng.normal(0, scale / 2, (n_spatial,) * 4)
    for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
        g = (g + g.transpose(perm)) / 2
    return IntegralData(n_spatial, h, g, float(rng.normal(0, scale)))


def capacity_operator(seed: int = 1111, n: int = 14, n_terms: int = 825) -> Operator:
    """Random 4-local even-y operator of acceptance criterion 11."""
    rng = np.random.default_rng(seed)
    words: set[tuple[int, int]] = set()
    while len(words) < n_terms:
        support = rng.choice(n, size=4, replace=False)
        x = z = 0
        for j in support:
            letter = int(rng.integers(3))
            if letter == 0:
                x |= 1 << j
            elif letter == 1:
                z |= 1 << j
            else:
                x |= 1 << j
                z |= 1 << j
        if (x & z).bit_count() % 2 == 0 and (x | z):
            words.add((x, z))
    return Operator(n, [(PauliWord(n, x, z), float(rng.normal(0, 0.3))) for x, z in words])


def z_frame(h: Operator, rng: np.random.Generator) -> Operator:
    """Isospectral copy D h D for a random diagonal word D (z letters only).

    Terms that anticommute with D, those with an x or y letter on an odd
    number of D's qubits, change sign; words and the spectrum stay the same.
    """
    d = np.uint64(rng.integers(1 << h.n_qubits))
    signs = 1.0 - 2.0 * (np.bitwise_count(h.x_masks & d) & 1).astype(np.float64)
    terms = [(PauliWord(h.n_qubits, int(x), int(z)), float(c)) for x, z, c in zip(h.x_masks, h.z_masks, h.coefficients * signs)]
    return Operator(h.n_qubits, terms)


def regauge(data: IntegralData, rng: np.random.Generator) -> IntegralData:
    """Same molecule with random spatial-orbital signs (an exact symmetry)."""
    s = rng.choice([-1.0, 1.0], data.n_spatial)
    return IntegralData(
        data.n_spatial,
        data.h * np.einsum("p,q->pq", s, s),
        data.g * np.einsum("p,q,r,t->pqrt", s, s, s, s),
        data.e_core,
    )
