"""Flip-index partitioning of Hamiltonians, gradient-group screening,
alternative generator pools, and stochastic generator sampling.

Terms sharing a flip-index set (the qubits carrying x or y) form one
sector; only generators whose flip set matches some sector and whose
y-letter count is odd can have a nonzero first-order energy gradient on a
z-collapsed reference.  Each such sector labels a group of 2**(n-1) words
with identical gradient magnitude, summarized by one representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .pauli import Operator, PauliWord, commutator_half, flip_runs, mask_bits
from .product_state import PurifiedReference, reference_expectation


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
    return [
        FlipSector(mask_bits(x), Operator._from_canonical(h.n_qubits, xs[sl], zs[sl], cs[sl]))
        for x, sl in flip_runs(h)
    ]


def dis_representative(flips: frozenset[int], n_qubits: int) -> PauliWord:
    """y on the smallest flip index, x on the others, identity elsewhere."""
    if not flips:
        raise ValueError("the empty flip set has no representative (zero gradient)")
    x = 0
    for j in flips:
        x |= 1 << j
    return PauliWord(n_qubits, x, 1 << min(flips))


def sector_gradient(sector: FlipSector, rep: PauliWord, ref: PurifiedReference) -> float:
    """|<ref| -(i/2)[sector, rep] |ref>| for a representative of the sector."""
    if flip_set(rep) != sector.flips:
        raise ValueError("representative flip set does not match the sector")
    return abs(reference_expectation(ref, commutator_half(sector.terms, rep)))


def flip_set(w: PauliWord) -> frozenset[int]:
    """Qubits where w acts with x or y (the set bits of x_mask)."""
    return mask_bits(w.x_mask)


def _rank_key(word: PauliWord, grad: float):
    # descending gradient, word order breaks ties deterministically
    return (-grad, word.x_mask, word.z_mask)


def build_dis(h: Operator, ref: PurifiedReference) -> list[GradientGroup]:
    """One gradient group per nonempty-flip sector of h.

    Sorted by descending gradient magnitude, ties broken by the
    representative's (x_mask, z_mask) order.  Cost is linear in the term
    count of h.
    """
    groups = []
    for sector in partition_sectors(h):
        if not sector.flips:
            continue
        rep = dis_representative(sector.flips, h.n_qubits)
        grad = sector_gradient(sector, rep, ref)
        groups.append(GradientGroup(sector.flips, rep, grad))
    groups.sort(key=lambda g: _rank_key(g.representative, g.gradient_magnitude))
    return groups


def group_members(group: GradientGroup, n_qubits: int) -> Iterator[PauliWord]:
    """Enumerate all 2**(n-1) words of the group.

    Any z/identity pattern outside the flip set, crossed with any odd-count
    y placement on the flip set (x on the rest).
    """
    flips = sorted(group.flips)
    others = [j for j in range(n_qubits) if j not in group.flips]
    x = group.representative.x_mask
    for zpat in range(1 << len(others)):
        z_out = 0
        for i, j in enumerate(others):
            if (zpat >> i) & 1:
                z_out |= 1 << j
        for ypat in range(1 << len(flips)):
            if bin(ypat).count("1") % 2 == 0:
                continue
            z_in = 0
            for i, j in enumerate(flips):
                if (ypat >> i) & 1:
                    z_in |= 1 << j
            yield PauliWord(n_qubits, x, z_out | z_in)


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
    """A generator pool: either the Hamiltonian-derived screening set or a
    fixed word collection enumerated on demand."""

    kind: str
    _enumerate: Callable[[int], Iterator[PauliWord]] | None = None

    def words(self, n_qubits: int) -> Iterator[PauliWord]:
        if self._enumerate is None:
            raise ValueError(f"pool {self.kind!r} is derived from the Hamiltonian, not enumerable")
        return self._enumerate(n_qubits)


def _two_qubit_words(n: int) -> Iterator[PauliWord]:
    letters = "XYZ"
    for j in range(n):
        for a in letters:
            yield PauliWord.single(n, j, a)
    for j in range(n):
        for k in range(j + 1, n):
            for a in letters:
                for b in letters:
                    wa = PauliWord.single(n, j, a)
                    wb = PauliWord.single(n, k, b)
                    yield PauliWord(n, wa.x_mask | wb.x_mask, wa.z_mask | wb.z_mask)


def _fermionic_sd_words(n: int) -> Iterator[PauliWord]:
    """Words appearing in mapped anti-Hermitian single/double excitations.

    Treats the n qubits as n spin-orbitals under the Jordan-Wigner image;
    the resulting word set is deduplicated and ordered lexicographically.
    """
    from .fermion import excitation_words

    return iter(excitation_words(n))


def dis_pool() -> OperatorPool:
    return OperatorPool("dis")


def two_qubit_pauli_pool() -> OperatorPool:
    return OperatorPool("two-qubit-pauli", _two_qubit_words)


def fermionic_sd_pool() -> OperatorPool:
    return OperatorPool("fermionic-sd", _fermionic_sd_words)


def pool_gradients(
    h: Operator, ref: PurifiedReference, pool: OperatorPool, top: int
) -> list[tuple[PauliWord, float]]:
    """Top-k members of a fixed pool ranked by |gradient| against the full Hamiltonian.

    Each member is scored against the matching flip sector (terms with any
    other flip set cannot contribute on a z-collapsed reference).  The
    screening pool has no fixed members; its ranking is build_dis.
    """
    if top < 1:
        raise ValueError("top must be >= 1")
    sectors = {s.flips: s for s in partition_sectors(h)}
    ranked = []
    for w in pool.words(h.n_qubits):
        sector = sectors.get(flip_set(w))
        grad = 0.0
        if sector is not None and sector.flips:
            grad = sector_gradient(sector, w, ref)
        ranked.append((w, grad))
    ranked.sort(key=lambda entry: _rank_key(*entry))
    return ranked[:top]


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
    for group in groups[: min(n_g, len(groups))]:
        chosen.append(random_group_member(group, group.representative.n_qubits, rng))
    return chosen
