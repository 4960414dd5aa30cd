"""Shared test oracles, independent of the package's bitmask algebra.

Dense matrices are built from explicit single-qubit matrices with Kronecker
products (qubit 0 is the least-significant index bit); fermionic reference
energies come from a brute-force determinant construction acting on
occupation-number kets.  These provide the second route for every
dual-checked operation.  A few slower paths over the package's own
operators (the per-sector screening path among them) are kept here as the
references their vectorised replacements must match bit for bit.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import Iterator

import numpy as np
import pytest

from iqcc.fermion import IntegralData
from iqcc.pauli import (
    MERGE_TOL,
    Operator,
    PauliWord,
    anticommuting,
    commutator_half,
    flip_runs,
    parity_signs,
    phase_value,
    word_products,
)
from iqcc.product_state import BlochState, PurifiedReference, energy
from iqcc.screening import GradientGroup, partition_sectors

SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_word(w: PauliWord) -> np.ndarray:
    """Kronecker-product matrix of a word; qubit 0 = least significant bit."""
    return reduce(np.kron, [SINGLE[w.letter(q)] for q in reversed(range(w.n_qubits))])


def dense_op(h: Operator) -> np.ndarray:
    dim = 2**h.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for w, c in h:
        out += c * dense_word(w)
    return out


def product_state_vector(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Statevector of the coherent product state, amplitude by amplitude."""
    n = len(theta)
    vec = np.empty(2**n, dtype=complex)
    for b in range(2**n):
        amp = 1.0 + 0.0j
        for j in range(n):
            if (b >> j) & 1:
                amp *= np.exp(1j * phi[j]) * np.sin(theta[j] / 2)
            else:
                amp *= np.cos(theta[j] / 2)
        vec[b] = amp
    return vec


def basis_state_vector(bits: tuple[int, ...]) -> np.ndarray:
    """|b> with bit j of the index set where bits[j] == -1."""
    index = sum(1 << j for j, b in enumerate(bits) if b == -1)
    vec = np.zeros(2 ** len(bits), dtype=complex)
    vec[index] = 1.0
    return vec


def random_word(rng: np.random.Generator, n: int, nontrivial: bool = False) -> PauliWord:
    while True:
        w = PauliWord(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        if not nontrivial or not w.is_identity:
            return w


def random_odd_y_word(rng: np.random.Generator, n: int) -> PauliWord:
    while True:
        w = random_word(rng, n)
        if (w.x_mask & w.z_mask).bit_count() % 2 == 1:
            return w


def random_operator(rng: np.random.Generator, n: int, n_terms: int, scale: float = 1.0) -> Operator:
    terms = [(random_word(rng, n), float(rng.normal(0, scale))) for _ in range(n_terms)]
    return Operator(n, terms)


def random_real_operator(rng: np.random.Generator, n: int, n_terms: int, scale: float = 1.0) -> Operator:
    """Random operator with even y-parity in every term (real matrix)."""
    terms = []
    while len(terms) < n_terms:
        w = random_word(rng, n)
        if (w.x_mask & w.z_mask).bit_count() % 2 == 0:
            terms.append((w, float(rng.normal(0, scale))))
    return Operator(n, terms)


def random_real_2local(seed: int, n: int = 4, coupling: float = 0.3, p_term: float = 0.7) -> Operator:
    """Random real 2-local Hamiltonian: z fields plus XX/YY/ZZ couplings.

    Every term has even y-parity and an even-size flip set, the structure
    shared by mapped electronic Hamiltonians.
    """
    rng = np.random.default_rng(seed)
    terms: dict[str, float] = {}
    for j in range(n):
        lbl = ["I"] * n
        lbl[j] = "Z"
        terms["".join(lbl)] = float(rng.uniform(0.4, 1.2) * rng.choice([-1, 1]))
    for i, j in itertools.combinations(range(n), 2):
        for a, b in (("X", "X"), ("Y", "Y"), ("Z", "Z")):
            if rng.random() < p_term:
                lbl = ["I"] * n
                lbl[i] = a
                lbl[j] = b
                terms["".join(lbl)] = float(rng.normal(0, coupling))
    return Operator.from_labels(terms)


def random_integrals(rng: np.random.Generator, n_spatial: int, scale: float = 0.5) -> IntegralData:
    """Random symmetric one-electron and 8-fold-symmetric two-electron tensors."""
    h = rng.normal(0, scale, (n_spatial, n_spatial))
    h = (h + h.T) / 2
    g = rng.normal(0, scale / 2, (n_spatial,) * 4)
    for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
        g = (g + g.transpose(perm)) / 2
    for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
        assert np.allclose(g, g.transpose(perm))
    return IntegralData(n_spatial, h, g, float(rng.normal(0, scale)))


def op_allclose(a: Operator, b: Operator, tol: float = 1e-10) -> bool:
    diff = a - b
    return diff.is_empty or float(np.max(np.abs(diff.coefficients))) <= tol


# -- reference paths over the package's operators ------------------------------
#
# Slower routes to results the package computes by other means, kept as the
# references that the faster paths must match.


def lexsort_canonical_arrays(
    xs: np.ndarray, zs: np.ndarray, cs: np.ndarray, tol: float = MERGE_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical merge sorted by a two-key lexsort on (x, z) (stably), duplicates
    summed as running sums, dust dropped: the arrays and coefficient bits the
    packed-key merge must reproduce."""
    if len(xs) == 0:
        return xs, zs, cs
    order = np.lexsort((zs, xs))
    xs, zs, cs = xs[order], zs[order], cs[order]
    first = np.empty(len(xs), dtype=bool)
    first[0] = True
    first[1:] = (xs[1:] != xs[:-1]) | (zs[1:] != zs[:-1])
    starts = np.flatnonzero(first)
    sums = np.bincount(np.cumsum(first) - 1, weights=cs)
    keep = np.abs(sums) >= tol
    return xs[starts][keep], zs[starts][keep], sums[keep]


def commutator_terms(
    xs: np.ndarray, zs: np.ndarray, cs: np.ndarray, p: PauliWord
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Words and coefficients of -(i/2)[c*w, p] for terms c*w anticommuting with p.

    Each term maps to +-c * (w*p), the sign fixed by the product phase.
    """
    xn, zn, k = word_products(xs, zs, np.uint64(p.x_mask), np.uint64(p.z_mask))
    # k is odd for anticommuting pairs, so -i * i**k is +-1
    return xn, zn, cs * np.where(k == 1, 1.0, -1.0)


def concat_rotate(h: Operator, p: PauliWord, a: float, b: float, commuting: bool = True) -> Operator:
    """`rotate` by concatenating the commuting, anticommuting and spawned terms
    and merging them afresh: the words and coefficient bits the memoized
    rotation must reproduce."""
    anti = anticommuting(h, p)
    if not anti.any():
        return h if commuting else Operator.zero(h.n_qubits)
    rest = ~anti & commuting
    xa, za, ca = h.x_masks[anti], h.z_masks[anti], h.coefficients[anti]
    xn, zn, cn = commutator_terms(xa, za, ca, p)
    return Operator._from_raw(
        h.n_qubits,
        np.concatenate([h.x_masks[rest], xa, xn]),
        np.concatenate([h.z_masks[rest], za, zn]),
        np.concatenate([h.coefficients[rest], ca * a, cn * b]),
    )


def lexsort_ladder_terms(
    table: tuple[np.ndarray, np.ndarray], orbitals: np.ndarray, daggers: tuple[bool, ...], weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ladder-product words merged per row after a three-key lexsort on
    (row, x, z): the arrays and coefficient bits the per-row packed-key sort of
    `fermion._ladder_terms` must reproduce."""
    tx, tz = table
    m, k = orbitals.shape
    choice = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    e = (choice * np.where(daggers, 3, 1)).sum(axis=1)
    x = np.zeros((m, 1 << k), dtype=np.uint64)
    z = np.zeros_like(x)
    for t in range(k):
        pick = (choice[:, t], orbitals[:, t, None])
        x, z, dk = word_products(x, z, tx[pick], tz[pick])
        e = e + dk
    row = np.repeat(np.arange(m), 1 << k)
    x, z, e = x.ravel(), z.ravel(), e.ravel() % 4
    order = np.lexsort((z, x, row))
    row, x, z, e = row[order], x[order], z[order], e[order]
    first = np.ones(len(row), dtype=bool)
    first[1:] = (row[1:] != row[:-1]) | (x[1:] != x[:-1]) | (z[1:] != z[:-1])
    starts = np.flatnonzero(first)
    re = np.add.reduceat(np.array([1, 0, -1, 0])[e], starts)
    im = np.add.reduceat(np.array([0, 1, 0, -1])[e], starts)
    w = weights[row[starts]] * 0.5**k
    return x[starts], z[starts], w * re + 1j * (w * im)


def shift_letter_codes(h: Operator) -> np.ndarray:
    """Letter-code table built by shifting every mask by every qubit."""
    shifts = np.arange(h.n_qubits, dtype=np.uint64)
    x = (h.x_masks[:, None] >> shifts) & np.uint64(1)
    z = (h.z_masks[:, None] >> shifts) & np.uint64(1)
    return (x + 2 * z + 4 * shifts).astype(np.intp)


def symmetry_commutes(p: PauliWord, s: Operator) -> bool:
    """True iff every term of s commutes with p, so that [s, p] is zero."""
    return not anticommuting(s, p).any()


def expect_word(s: BlochState, w: PauliWord) -> float:
    """Product over qubits of the single-qubit expectation (1 for identity)."""
    return energy(s, Operator(w.n_qubits, [(w, 1.0)]))


def reference_expectation(ref: PurifiedReference, h: Operator) -> float:
    """<ref|h|ref>: only all-diagonal words (empty flip set) contribute."""
    diag = h.x_masks == 0
    if not diag.any():
        return 0.0
    return float(h.coefficients[diag] @ parity_signs(h.z_masks[diag], np.uint64(ref.minus_mask)))


def run_matvec(h: Operator, v: np.ndarray) -> np.ndarray:
    """h @ v for a real h, flip run by flip run in ascending x, each run's
    diagonal summed in term order: the order whose bits the sparse matvec keeps."""
    idx = np.arange(v.size, dtype=np.uint64)
    out = np.zeros(v.size, dtype=np.result_type(v.dtype, np.float64))
    for x, sl in flip_runs(h):
        diag = np.zeros(v.size)
        for z, c in zip(h.z_masks[sl], h.coefficients[sl]):
            diag += (c * phase_value((x & int(z)).bit_count())) * parity_signs(idx, z)
        out += (diag * v)[idx ^ np.uint64(x)]
    return out


def sector_gradient(h: Operator, p: PauliWord, ref: PurifiedReference) -> float:
    """|<ref| -(i/2)[S, p] |ref>| for the flip sector S of h that has p's flip set,
    taken as the reference expectation of the canonical commutator operator."""
    for sector in partition_sectors(h):
        if sector.flips and sector.terms.x_masks[0] == p.x_mask:
            return abs(reference_expectation(ref, commutator_half(sector.terms, p)))
    return 0.0


def sector_path_dis(h: Operator, ref: PurifiedReference) -> list[GradientGroup]:
    """Screening set built sector by sector, ranked by a Python sort."""
    groups = []
    for sector in partition_sectors(h):
        if sector.flips:
            x = int(sector.terms.x_masks[0])
            rep = PauliWord(h.n_qubits, x, 1 << min(sector.flips))
            grad = abs(reference_expectation(ref, commutator_half(sector.terms, rep)))
            groups.append(GradientGroup(sector.flips, rep, grad))
    groups.sort(key=lambda g: (-g.gradient_magnitude, g.representative.x_mask, g.representative.z_mask))
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


# -- determinant CI oracle ------------------------------------------------------
#
# Occupation-number kets are integers; bit j set means spin-orbital j is
# occupied.  Ladder operators act with the standard (-1)**(occupied below)
# sign, independent of any qubit mapping.


def _apply_ladder(ket: int, orbital: int, dagger: bool) -> tuple[int, int] | None:
    occupied = (ket >> orbital) & 1
    if dagger == bool(occupied):
        return None
    sign = (-1) ** bin(ket & ((1 << orbital) - 1)).count("1")
    return ket ^ (1 << orbital), sign


def apply_chain(ket: int, ops: list[tuple[int, bool]]) -> tuple[int, int] | None:
    """Apply (orbital, dagger) operators right to left; None if annihilated."""
    sign = 1
    for orbital, dagger in reversed(ops):
        step = _apply_ladder(ket, orbital, dagger)
        if step is None:
            return None
        ket, s = step
        sign *= s
    return ket, sign


def fock_matrix(chains: list[tuple[float, list[tuple[int, bool]]]], n_so: int) -> np.ndarray:
    """Dense Fock-space matrix of sum coeff * chain over (coeff, chain) pairs."""
    dim = 1 << n_so
    mat = np.zeros((dim, dim))
    for ket in range(dim):
        for coeff, ops in chains:
            step = apply_chain(ket, ops)
            if step is not None:
                bra, sign = step
                mat[bra, ket] += coeff * sign
    return mat


def determinant_hamiltonian(data: IntegralData) -> np.ndarray:
    """Dense Fock-space matrix of the electronic Hamiltonian from integrals."""
    nsp = data.n_spatial
    spins = (0, nsp)
    chains: list[tuple[float, list[tuple[int, bool]]]] = []
    for p in range(nsp):
        for q in range(nsp):
            if data.h[p, q] != 0.0:
                for off in spins:
                    chains.append((data.h[p, q], [(p + off, True), (q + off, False)]))
    for p, q, r, s in itertools.product(range(nsp), repeat=4):
        v = data.g[p, q, r, s]
        if v == 0.0:
            continue
        for so in spins:
            for to in spins:
                chains.append(
                    (0.5 * v, [(p + so, True), (r + to, True), (s + to, False), (q + so, False)])
                )
    return fock_matrix(chains, data.n_so) + data.e_core * np.eye(1 << data.n_so)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
