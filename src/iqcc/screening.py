"""Flip-index partitioning of Hamiltonians, gradient-group screening,
alternative generator pools, and stochastic generator sampling.

Terms sharing a flip-index set (the qubits carrying x or y) form one
sector; only generators whose flip set matches some sector and whose
y-letter count is odd can have a nonzero first-order energy gradient on a
z-collapsed reference.  Each such sector labels a group of 2**(n-1) words
with identical gradient magnitude, summarized by one representative.

One kernel, `_gradients`, scores any array of generator words: it pairs each
word with the flip run of h that has its flip set (`pauli.flip_runs`), so the
screening set forms one (word, term) pair per off-diagonal term of h.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fermion import excitation_words
from .pauli import DimensionError, Operator, PauliWord, flip_runs, frozen, mask_bits, parity_signs, word_products
from .pauli import commutator_half  # noqa: F401  unused here; bench/tracing.py wraps this binding by name
from .product_state import PurifiedReference


@dataclass(frozen=True)
class FlipSector:
    """All Hamiltonian terms sharing one flip-index set."""

    flips: frozenset[int]
    terms: Operator


@dataclass(frozen=True)
class GradientGroup:
    """One screening equivalence class: 2**(n-1) words of equal |gradient|."""

    flips: frozenset[int]
    representative: PauliWord
    gradient_magnitude: float  # hartree per radian


def partition_sectors(h: Operator) -> list[FlipSector]:
    """Split h into sectors of equal flip set; their sum reproduces h exactly.

    Sectors are returned in ascending x_mask order; the sector count is
    bounded by the term count.
    """
    xs, zs, cs = h.x_masks, h.z_masks, h.coefficients
    runs, bounds = flip_runs(h)
    return [
        FlipSector(mask_bits(x), Operator._from_canonical(h.n_qubits, xs[a:b], zs[a:b], cs[a:b]))
        for x, a, b in zip(runs.tolist(), bounds[:-1].tolist(), bounds[1:].tolist())
    ]


def flip_set(w: PauliWord) -> frozenset[int]:
    """Qubits where w acts with x or y (the set bits of x_mask)."""
    return mask_bits(w.x_mask)


def _gradients(h: Operator, ref: PurifiedReference, px: np.ndarray, pz: np.ndarray) -> np.ndarray:
    """|<ref| -(i/2)[h, p] |ref>| for each word p = (px, pz) of two uint64 arrays.

    Only terms with p's flip set give diagonal words w*p, so each word with a
    nonempty flip set meets one flip run of h.  Each anticommuting term c*w
    of that run contributes +-c times the reference's z sign of w*p, summed
    by one dot product in ascending z order of w*p, the order of the
    canonical commutator operator.  The sum is BLAS's dot, not a running sum:
    the two can differ in the last bit from 16 terms on, and the screening
    results are pinned bit for bit to this kernel.
    """
    if h.n_qubits != ref.n_qubits:
        raise DimensionError("reference/operator qubit mismatch")
    runs, bounds = flip_runs(h)
    hits = np.flatnonzero(np.isin(px, runs) & (px != 0))
    at = np.searchsorted(runs, px[hits])
    length = bounds[at + 1] - bounds[at]
    word = np.repeat(hits, length)
    term = np.repeat(bounds[at] - np.cumsum(length) + length, length) + np.arange(len(word))
    _, z, k = word_products(h.x_masks[term], h.z_masks[term], px[word], pz[word])
    anti = np.flatnonzero(k % 2 == 1)  # anticommuting pairs, for which -i * i**k is +-1
    anti = anti[np.lexsort((z[anti], word[anti]))]
    word = word[anti]
    coefficients = h.coefficients[term[anti]] * np.where(k[anti] == 1, 1.0, -1.0)
    signs = parity_signs(z[anti], np.uint64(ref.minus_mask))
    edges = np.searchsorted(word, np.arange(len(px) + 1))
    return np.array([abs(float(np.dot(coefficients[a:b], signs[a:b]))) for a, b in zip(edges[:-1], edges[1:])])


def build_dis(h: Operator, ref: PurifiedReference) -> list[GradientGroup]:
    """One gradient group per nonempty-flip sector of h.

    The representative has y on the smallest flip index and x on the
    others.  Sorted by descending gradient magnitude, ties broken by the
    representative's (x_mask, z_mask) order, which is that of the flip runs.
    Cost is linear in the term count of h.
    """
    xs = flip_runs(h)[0]
    xs = xs[xs != 0]
    zs = xs & -xs
    grad = _gradients(h, ref, xs, zs)
    n = h.n_qubits
    return [
        GradientGroup(mask_bits(int(xs[i])), PauliWord(n, int(xs[i]), int(zs[i])), float(grad[i]))
        for i in np.argsort(-grad, kind="stable")
    ]


def random_group_member(group: GradientGroup, n_qubits: int, rng: np.random.Generator) -> PauliWord:
    """Uniform draw from the group without enumerating it."""
    flips = sorted(group.flips)
    z = 0
    for j in range(n_qubits):
        if j not in group.flips and rng.integers(2):
            z |= 1 << j
    # free y/x choice on all but one flip index, parity-fixed on the last
    count = 0
    for j in flips[:-1]:
        if rng.integers(2):
            z |= 1 << j
            count += 1
    if count % 2 == 0:
        z |= 1 << flips[-1]
    return PauliWord(n_qubits, group.representative.x_mask, z)


# -- operator pools ------------------------------------------------------------


@dataclass(frozen=True)
class OperatorPool:
    """A generator pool: the Hamiltonian-derived screening set (`words` is
    None) or a fixed word set, read-only (x, z) mask arrays per qubit count."""

    kind: str
    words: Callable[[int], tuple[np.ndarray, np.ndarray]] | None = None


@functools.cache
def _two_qubit_words(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All words of weight 1 and 2: each qubit's x, y, z, then each qubit pair's
    nine letter pairs, pairs in triu_indices order."""
    bit = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
    j, k = np.triu_indices(n, 1)

    def masks(letters: np.ndarray) -> np.ndarray:
        pairs = bit[j, None, None] * letters[:, None] | bit[k, None, None] * letters
        return np.concatenate([(bit[:, None] * letters).ravel(), pairs.ravel()])

    x_bits, z_bits = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint64)  # of the letters x, y, z
    return frozen(masks(x_bits), masks(z_bits))


def dis_pool() -> OperatorPool:
    return OperatorPool("dis")


def two_qubit_pauli_pool() -> OperatorPool:
    return OperatorPool("two-qubit-pauli", _two_qubit_words)


def fermionic_sd_pool() -> OperatorPool:
    """Words of the Jordan-Wigner images of all single and double excitations,
    treating the n qubits as n spin-orbitals."""
    return OperatorPool("fermionic-sd", excitation_words)


def pool_gradients(
    h: Operator, ref: PurifiedReference, pool: OperatorPool, top: int
) -> list[tuple[PauliWord, float]]:
    """Top-k members of a fixed pool ranked by |gradient| against the full Hamiltonian.

    Each member is scored against the terms of its own flip set (terms with
    any other flip set cannot contribute on a z-collapsed reference).  The
    screening pool has no fixed members; its ranking is build_dis.
    """
    if top < 1:
        raise ValueError("top must be >= 1")
    if pool.words is None:
        raise ValueError(f"pool {pool.kind!r} is derived from the Hamiltonian, not enumerable")
    px, pz = pool.words(h.n_qubits)
    grad = _gradients(h, ref, px, pz)
    best = np.lexsort((pz, px, -grad))[:top]
    return [(PauliWord(h.n_qubits, int(px[i]), int(pz[i])), float(grad[i])) for i in best]


def sample_generators(
    groups: list[GradientGroup], n_g: int, rng_seed: int
) -> list[PauliWord]:
    """One uniform-random member from each of the top min(n_g, len) groups.

    The effective count can be smaller than n_g when fewer gradient groups
    exist; a fixed seed reproduces the selection exactly.
    """
    if n_g < 1:
        raise ValueError("n_g must be >= 1")
    rng = np.random.default_rng(rng_seed)
    chosen = []
    for group in groups[:n_g]:
        chosen.append(random_group_member(group, group.representative.n_qubits, rng))
    return chosen
