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

from iqcc.compression import CompressionReport
from iqcc.fermion import _REALITY_TOL, IntegralData, _jw_majoranas, _ladder_terms
from iqcc.pauli import (
    MERGE_TOL,
    Operator,
    PauliWord,
    _canonical_arrays,
    anticommuting,
    commutator_half,
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


def unique_flip_runs(h: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Flip runs by `np.unique` over the x masks: each run's x mask and the run
    bounds, the arrays `flip_runs` must reproduce."""
    runs, first = np.unique(h.x_masks, return_index=True)
    return runs, np.append(first, len(h))


def two_merge_realize(n: int, *terms: tuple[np.ndarray, np.ndarray, np.ndarray]) -> Operator:
    """`fermion._realize` with the imaginary residue and the real part each
    merged canonically on its own: the operator whose bits the one-plan merge
    must reproduce."""
    xs, zs, cs = (np.concatenate(a) for a in zip(*terms))
    residue = _canonical_arrays(xs, zs, cs.imag, _REALITY_TOL)[2]
    if len(residue):
        raise ArithmeticError(f"mapped operator has imaginary weight {np.abs(residue).max():g}")
    return Operator._from_raw(n, xs, zs, cs.real)


def unique_excitation_words(n_so: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct excitation words by `np.unique(axis=0)` over the stacked (x, z)
    masks: the arrays `fermion.excitation_words` must reproduce."""
    table = _jw_majoranas(n_so)
    p, q = np.triu_indices(n_so, 1)
    a, b = np.triu_indices(len(p), 1)
    singles = _ladder_terms(table, np.stack([p, q], axis=1), (True, False), np.ones(len(p)))
    doubles = _ladder_terms(
        table, np.stack([p[a], q[a], q[b], p[b]], axis=1), (True, True, False, False), np.ones(len(a))
    )
    x, z, c = (np.concatenate(t) for t in zip(singles, doubles))
    keep = (c.imag != 0.0) & ((x | z) != 0)
    words = np.unique(np.stack([x[keep], z[keep]], axis=1), axis=0)
    return words[:, 0].copy(), words[:, 1].copy()


def lexsort_compress(h: Operator, epsilon: float) -> tuple[Operator, CompressionReport]:
    """`compress` with its candidates ordered by a three-key lexsort on
    (|c|, x, z): the result whose bits the one-key stable sort must reproduce."""
    m = len(h)
    xs, zs, cs = h.x_masks, h.z_masks, h.coefficients
    mags = np.abs(cs)
    droppable = ~((xs == 0) & (zs == 0))
    cand = np.flatnonzero(droppable)[np.lexsort((zs[droppable], xs[droppable], mags[droppable]))]
    tail = np.cumsum(cs[cand] ** 2)
    k = int(np.searchsorted(tail, epsilon * epsilon / 2.0**h.n_qubits, side="right"))
    if 0 < k < len(cand):
        k = int(np.searchsorted(mags[cand], mags[cand[k]], side="left"))
    if k == 0:
        return h, CompressionReport(epsilon, m, m, 0.0)
    keep = np.ones(m, dtype=bool)
    keep[cand[:k]] = False
    kept = Operator._from_canonical(h.n_qubits, xs[keep], zs[keep], cs[keep])
    return kept, CompressionReport(epsilon, m, len(kept), float(np.sqrt(2.0**h.n_qubits * tail[k - 1])))


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
    """[terms x qubits] letter-code table built by shifting every mask by every qubit."""
    shifts = np.arange(h.n_qubits, dtype=np.uint64)
    x = (h.x_masks[:, None] >> shifts) & np.uint64(1)
    z = (h.z_masks[:, None] >> shifts) & np.uint64(1)
    return (x + 2 * z + 4 * shifts).astype(np.intp)


def rowwise_factor_table(s: BlochState) -> np.ndarray:
    """Rows f, df/dtheta and df/dphi of the single-qubit expectation f; column
    4j + c holds qubit j's value for letter code c (I, x, z, y)."""
    st, ct = np.sin(s.theta), np.cos(s.theta)
    sp, cp = np.sin(s.phi), np.cos(s.phi)
    one, zero = np.ones_like(st), np.zeros_like(st)
    rows = [[one, st * cp, ct, st * sp], [zero, ct * cp, -st, ct * sp], [zero, -st * sp, zero, st * cp]]
    return np.array(rows).transpose(0, 2, 1).reshape(3, -1)


def rowwise_energy(s: BlochState, h: Operator) -> float:
    """Product-state energy from a [terms x qubits] factor array, each term's
    product a row `prod`: the bits the qubit-major kernel must reproduce."""
    if h.is_empty:
        return 0.0
    return float(h.coefficients @ rowwise_factor_table(s)[0][shift_letter_codes(h)].prod(axis=1))


def rowwise_energy_and_gradient(s: BlochState, h: Operator) -> tuple[float, np.ndarray, np.ndarray]:
    """Energy and analytic gradients over [terms x qubits] arrays, summed by
    `np.einsum` over those row-major operands: the bits the qubit-major
    kernel must reproduce."""
    n = h.n_qubits
    if h.is_empty:
        return 0.0, np.zeros(n), np.zeros(n)
    f_table, dth_table, dph_table = rowwise_factor_table(s)
    codes = shift_letter_codes(h)
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
    runs: dict[int, list[int]] = {}
    for i, x in enumerate(h.x_masks.tolist()):
        runs.setdefault(x, []).append(i)
    idx = np.arange(v.size, dtype=np.uint64)
    out = np.zeros(v.size, dtype=np.result_type(v.dtype, np.float64))
    for x, terms in sorted(runs.items()):
        diag = np.zeros(v.size)
        for z, c in zip(h.z_masks[terms], h.coefficients[terms]):
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
