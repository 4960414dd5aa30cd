"""Qubit Hamiltonians and symmetry operators from second-quantized integrals;
stationary-qubit detection and removal; the spin-penalized Hamiltonian.

Integrals are stored in the spatial-orbital basis (one- and two-electron
tensors in chemist index order).  Spin-orbitals follow the
alpha-block-then-beta-block convention: spatial orbital p maps to qubit p
(alpha) and qubit p + n_spatial (beta).  Both the Jordan-Wigner and the
parity encodings are implemented; their images have identical spectra.

An encoding is a table of Majorana words, x/z mask arrays of shape [2, n]
with a_j = (w0_j + i w1_j)/2 and a_j^dagger = (w0_j - i w1_j)/2.  The
Hamiltonian, the N, Sz and S^2 operators and the excitation words are all
weighted sums of ladder products, expanded over that table with the
vectorised word product `pauli.word_products`.
"""

from __future__ import annotations

import functools
import logging
import math
import re
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from . import exact
from .pauli import MAX_QUBITS, DimensionError, Operator, ParseError, frozen, parity_signs, word_products
from .pauli import _merge, _merge_plan, _word_order

logger = logging.getLogger(__name__)

_REALITY_TOL = 1e-10  # residual imaginary weight allowed in mapped operators


@dataclass
class IntegralData:
    """Second-quantized integral set in a spatial-orbital basis (hartree).

    `h` is the symmetric one-electron matrix, `g` the chemist-ordered
    two-electron tensor (pq|rs) with the 8-fold real-integral symmetry,
    `e_core` the scalar core + nuclear-repulsion energy.  `metadata` carries
    the integer header fields of the source file (NORB, NELEC, MS2, ...).
    """

    n_spatial: int
    h: np.ndarray
    g: np.ndarray
    e_core: float
    metadata: dict[str, int] = field(default_factory=dict)

    @property
    def n_so(self) -> int:
        """Number of spin-orbitals (= qubits before reduction)."""
        return 2 * self.n_spatial

    def validate(self) -> None:
        n = self.n_spatial
        if not 1 <= n <= MAX_QUBITS // 2:
            raise ValueError(f"n_spatial must be in [1, {MAX_QUBITS // 2}] (two qubits per orbital), got {n}")
        if self.h.shape != (n, n) or self.g.shape != (n, n, n, n):
            raise ValueError("integral tensor shapes do not match n_spatial")
        if not (np.isfinite(self.h).all() and np.isfinite(self.g).all() and math.isfinite(self.e_core)):
            raise ValueError("integrals and core energy must be finite")
        if not np.allclose(self.h, self.h.T):
            raise ValueError("one-electron integrals are not symmetric")
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            if not np.allclose(self.g, self.g.transpose(perm)):
                raise ValueError("two-electron integrals lack the 8-fold symmetry")


# -- FCIDUMP-style parsing -----------------------------------------------------

_HEADER_INT = re.compile(r"([A-Za-z][A-Za-z0-9_]*)\s*=\s*(-?\d+)")


def parse_integrals(stream: TextIO) -> IntegralData:
    """Read an FCIDUMP-style integral file.

    Header: a &FCI namelist with at least NORB, closed by &END or /.
    Records: `value i j k l` with 1-based spatial-orbital indices;
    `value i j 0 0` is one-electron, `value 0 0 0 0` the core energy.
    """
    lines = iter(enumerate(stream, start=1))
    header_text = ""
    in_header = False
    lineno = 0
    for lineno, raw in lines:
        line = raw.strip()
        if not line:
            continue
        if not in_header:
            if not line.upper().startswith("&FCI"):
                raise ParseError(f"line {lineno}: expected &FCI header, got {line!r}")
            in_header = True
        header_text += " " + line
        if "&END" in line.upper() or line.endswith("/"):
            in_header = False
            break
    if in_header or not header_text:
        raise ParseError("missing or unterminated &FCI header")

    metadata = {key.upper(): int(val) for key, val in _HEADER_INT.findall(header_text)}
    if "NORB" not in metadata:
        raise ParseError("header does not define NORB")
    n = metadata["NORB"]
    if not 1 <= n <= MAX_QUBITS // 2:
        raise ParseError(f"NORB must be in [1, {MAX_QUBITS // 2}] (two qubits per orbital), got {n}")

    h = np.zeros((n, n))
    g = np.zeros((n, n, n, n))
    e_core = 0.0
    for lineno, raw in lines:
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ParseError(f"line {lineno}: expected 'value i j k l', got {raw!r}")
        try:
            val = float(parts[0])
            i, j, k, l = (int(p) for p in parts[1:])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: malformed record {raw!r}") from exc
        if not math.isfinite(val):
            raise ParseError(f"line {lineno}: non-finite value {parts[0]!r}")
        if any(not 0 <= p <= n for p in (i, j, k, l)):
            raise ParseError(f"line {lineno}: orbital index out of range 1..{n}")
        if i == j == k == l == 0:
            e_core = val
        elif k == 0 and l == 0 and i > 0 and j > 0:
            h[i - 1, j - 1] = h[j - 1, i - 1] = val
        elif min(i, j, k, l) > 0:
            a, b, c, d = i - 1, j - 1, k - 1, l - 1
            for p, q, r, s in (
                (a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c),
                (c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a),
            ):
                g[p, q, r, s] = val
        else:
            raise ParseError(f"line {lineno}: invalid index pattern {i} {j} {k} {l}")
    data = IntegralData(n, h, g, e_core, metadata)
    data.validate()
    return data


def write_integrals(data: IntegralData, stream: TextIO) -> None:
    """Emit the FCIDUMP-style form read back bit-exactly by parse_integrals."""
    n = data.n_spatial
    meta = dict(data.metadata)
    meta.setdefault("NORB", n)
    meta.setdefault("NELEC", 0)
    meta.setdefault("MS2", 0)
    fields = ",".join(f"{k}={v}" for k, v in meta.items())
    stream.write(f" &FCI {fields},\n &END\n")
    for i in range(n):
        for j in range(i + 1):
            ij = i * (i + 1) // 2 + j
            for k in range(i + 1):
                for l in range(k + 1):
                    if ij >= k * (k + 1) // 2 + l and data.g[i, j, k, l] != 0.0:
                        stream.write(f"{float(data.g[i, j, k, l])!r} {i+1} {j+1} {k+1} {l+1}\n")
    for i in range(n):
        for j in range(i + 1):
            if data.h[i, j] != 0.0:
                stream.write(f"{float(data.h[i, j])!r} {i+1} {j+1} 0 0\n")
    stream.write(f"{float(data.e_core)!r} 0 0 0 0\n")


# -- fermion-to-qubit mappings ---------------------------------------------------


def _qubit_bits(n: int) -> np.ndarray:
    """1 << j for the n qubits of a Majorana table; uint64 masks hold at most MAX_QUBITS."""
    if n > MAX_QUBITS:
        raise ValueError(f"{n} spin-orbitals need more than {MAX_QUBITS} qubits")
    return np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))


def _jw_majoranas(n: int) -> tuple[np.ndarray, np.ndarray]:
    bit = _qubit_bits(n)
    below = bit - np.uint64(1)
    return np.stack([bit, bit]), np.stack([below, below | bit])


def _parity_majoranas(n: int) -> tuple[np.ndarray, np.ndarray]:
    bit = _qubit_bits(n)
    from_bit = ~(bit - np.uint64(1)) & np.uint64((1 << n) - 1)
    return np.stack([from_bit, from_bit]), np.stack([bit >> np.uint64(1), bit])


_MAJORANAS = {"jw": _jw_majoranas, "parity": _parity_majoranas}

# Ladder-product rows a mapping expands at once: 2**k words per row, so this
# bounds the temporaries of `_ladder_terms` (five orbitals' 2,500 two-body rows fit in one).
_LADDER_ROWS = 1 << 12


def _ladder_terms(
    table: tuple[np.ndarray, np.ndarray], orbitals: np.ndarray, daggers: tuple[bool, ...], weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Words and complex coefficients of weights[r] * a(orbitals[r, 0]) ... a(orbitals[r, k-1]).

    `daggers[t]` marks factor t as a creator.  Each expanded coefficient is
    i**e / 2**k, so duplicate words within a row are merged by integer sums,
    exact in any order; the output is grouped by row in row order, so
    `_realize` sums each word's terms in row order.
    """
    tx, tz = table
    m, k = orbitals.shape
    choice = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1  # [2**k, k]: w0 or w1 of each factor
    e = (choice * np.where(daggers, 3, 1)).sum(axis=1)  # w1 carries +i, or -i = i**3 for a creator
    x = np.zeros((m, 1 << k), dtype=np.uint64)
    z = np.zeros_like(x)
    for t in range(k):
        pick = (choice[:, t], orbitals[:, t, None])
        x, z, dk = word_products(x, z, tx[pick], tz[pick])
        e = e + dk
    # row r is the contiguous block r * 2**k .. (r + 1) * 2**k - 1 once raveled
    order, new_word = _word_order(x, z)
    x, z, e = (np.take_along_axis(a, order, 1).ravel() for a in (x, z, e % 4))
    first = np.ones((m, 1 << k), dtype=bool)
    first[:, 1:] = new_word
    starts = np.flatnonzero(first)
    re = np.add.reduceat(np.array([1, 0, -1, 0])[e], starts)  # integer sums: exact
    im = np.add.reduceat(np.array([0, 1, 0, -1])[e], starts)
    w = weights[starts >> k] * 0.5**k
    return x[starts], z[starts], w * re + 1j * (w * im)


def _realize(n: int, *terms: tuple[np.ndarray, np.ndarray, np.ndarray]) -> Operator:
    """Real Operator of the summed terms, whose imaginary parts must cancel.

    One canonical merge plan serves both parts, so each coefficient and each
    imaginary residue is a running sum over the terms in the order given.
    """
    xs, zs, cs = (np.concatenate(a) for a in zip(*terms))
    word, first = _merge_plan(xs, zs)
    residue, imaginary = _merge(word, cs.imag, _REALITY_TOL)
    if imaginary.any():
        raise ArithmeticError(f"mapped operator has imaginary weight {np.abs(residue[imaginary]).max():g}")
    sums, keep = _merge(word, cs.real)
    return Operator._from_canonical(n, xs[first[keep]], zs[first[keep]], sums[keep])


def _map_hamiltonian(data: IntegralData, mapping: str) -> Operator:
    data.validate()
    table = _MAJORANAS[mapping](data.n_so)
    spins = np.array([0, data.n_spatial])
    pq = np.nonzero(data.h)
    p, q = (a[:, None] for a in pq)
    one_body = np.stack([p + spins, q + spins], axis=-1).reshape(-1, 2)
    pqrs = np.nonzero(data.g)
    p, q, r, s = (a[:, None] for a in pqrs)
    so, to = np.repeat(spins, 2), np.tile(spins, 2)
    two_body = np.stack([p + so, r + to, s + to, q + so], axis=-1).reshape(-1, 4)
    two_weights = np.repeat(0.5 * data.g[pqrs], 4)
    cuts = range(_LADDER_ROWS, len(two_body), _LADDER_ROWS)
    identity = np.zeros(1, dtype=np.uint64)
    # rows run in (p, q, spin) and (p, q, r, s, spin, spin) order, which fixes
    # the order in which each coefficient is summed and so its rounding; the
    # two-body rows are expanded _LADDER_ROWS at a time, in that order
    return _realize(
        data.n_so,
        (identity, identity, np.array([complex(data.e_core)])),
        _ladder_terms(table, one_body, (True, False), np.repeat(data.h[pq], 2)),
        *(
            _ladder_terms(table, rows, (True, True, False, False), weights)
            for rows, weights in zip(np.split(two_body, cuts), np.split(two_weights, cuts))
        ),
    )


def jordan_wigner(data: IntegralData) -> Operator:
    """Jordan-Wigner image of the electronic Hamiltonian, one qubit per spin-orbital."""
    return _map_hamiltonian(data, "jw")


def parity_map(data: IntegralData) -> Operator:
    """Parity-encoded image; spectrum identical to the Jordan-Wigner image."""
    return _map_hamiltonian(data, "parity")


@functools.cache
def excitation_words(n_so: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (x, z) mask arrays of the distinct Pauli words of all mapped
    anti-Hermitian single and double excitations over n_so spin-orbitals
    (Jordan-Wigner image), in ascending (x, z) order.

    For Hermitian words W, T - T^dagger = sum 2i Im(c_W) W, so the words of an
    excitation are those of T with a nonzero imaginary coefficient.
    """
    table = _jw_majoranas(n_so)
    p, q = np.triu_indices(n_so, 1)
    a, b = np.triu_indices(len(p), 1)  # pairs (p, q) < (r, s)
    singles = _ladder_terms(table, np.stack([p, q], axis=1), (True, False), np.ones(len(p)))
    doubles = _ladder_terms(
        table, np.stack([p[a], q[a], q[b], p[b]], axis=1), (True, True, False, False), np.ones(len(a))
    )
    x, z, c = (np.concatenate(t) for t in zip(singles, doubles))
    keep = (c.imag != 0.0) & ((x | z) != 0)
    x, z = x[keep], z[keep]
    first = _merge_plan(x, z)[1]
    return frozen(x[first], z[first])


# -- symmetry operators ----------------------------------------------------------


def build_symmetry_operator(kind: str, n_so: int, mapping: str = "jw") -> Operator:
    """Qubit image of the electron-number or total-spin operator.

    kind is one of "n", "sz", "s2"; spin-orbital grouping is all alpha
    first, then all beta.  "s2" is Sz*Sz + (S+S- + S-S+)/2 with
    Sz*Sz = sum_ij s_i s_j n_i n_j (s = +-1/2) and the spin flips
    S+S- = sum_pq a+_p a_p' a+_q' a_q, S-S+ = sum_pq a+_p' a_p a+_q a_q'
    (p' = p + n_so/2).
    """
    if n_so % 2 != 0 or n_so < 2:
        raise ValueError("n_so must be a positive even spin-orbital count")
    if mapping not in _MAJORANAS:
        raise ValueError(f"unknown mapping {mapping!r}; expected one of {', '.join(_MAJORANAS)}")
    table = _MAJORANAS[mapping](n_so)
    nsp = n_so // 2
    j = np.arange(n_so)
    spin = np.repeat([0.5, -0.5], nsp)
    kind = kind.lower()
    if kind in ("n", "sz"):
        weights = np.ones(n_so) if kind == "n" else spin
        return _realize(n_so, _ladder_terms(table, np.stack([j, j], axis=1), (True, False), weights))
    if kind == "s2":
        i, k = np.repeat(j, n_so), np.tile(j, n_so)
        p, q = np.repeat(j[:nsp], nsp), np.tile(j[:nsp], nsp)
        flips = np.concatenate([np.stack([p, p + nsp, q + nsp, q], 1), np.stack([p + nsp, p, q, q + nsp], 1)])
        return _realize(
            n_so,
            _ladder_terms(table, np.stack([i, i, k, k], 1), (True, False) * 2, spin[i] * spin[k]),
            _ladder_terms(table, flips, (True, False) * 2, np.full(len(flips), 0.5)),
        )
    raise ValueError(f"unknown symmetry operator kind {kind!r}")


def spin_penalize(h: Operator, s2: Operator, mu: float) -> Operator:
    """h + (mu/2) * s2, steering the search toward the singlet sector."""
    if not 0.0 < mu < math.inf:
        raise ValueError(f"penalty strength mu must be finite and positive, got {mu}")
    if h.n_qubits != s2.n_qubits:
        raise DimensionError("Hamiltonian and penalty operator qubit counts differ")
    return h + (mu / 2.0) * s2


# -- stationary-qubit reduction ---------------------------------------------------


@dataclass(frozen=True)
class QubitAssignment:
    """Chosen z eigenvalues (+-1) for a set of stationary qubit positions."""

    eigenvalues: dict[int, int]

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(sorted(self.eigenvalues))

    def __post_init__(self) -> None:
        if any(v not in (1, -1) for v in self.eigenvalues.values()):
            raise ValueError("eigenvalues must be +1 or -1")


def find_stationary_qubits(h: Operator) -> frozenset[int]:
    """Positions carrying only identity or z in every term of h."""
    union_x = int(np.bitwise_or.reduce(h.x_masks))
    return frozenset(j for j in range(h.n_qubits) if not (union_x >> j) & 1)


def _drop_bit(values: np.ndarray, pos: int) -> np.ndarray:
    low = np.uint64((1 << pos) - 1)
    if pos + 1 >= 64:
        return values & low
    return (values & low) | ((values >> np.uint64(pos + 1)) << np.uint64(pos))


def reduce_qubits(h: Operator, assignment: QubitAssignment) -> Operator:
    """Replace stationary z operators by their eigenvalues and re-index densely.

    Remaining qubits keep their relative order.  Raises if any assigned
    position is not stationary in h.
    """
    positions = assignment.positions
    if any(not 0 <= p < h.n_qubits for p in positions):
        raise ValueError("assignment position out of range")
    stationary = find_stationary_qubits(h)
    bad = [p for p in positions if p not in stationary]
    if bad:
        raise ValueError(f"positions {bad} are not stationary in the operator")
    n_new = h.n_qubits - len(positions)
    if n_new < 1:
        raise ValueError("cannot reduce away every qubit")

    minus_mask = np.uint64(sum(1 << p for p in positions if assignment.eigenvalues[p] == -1))
    signs = parity_signs(h.z_masks, minus_mask)
    xs = h.x_masks.copy()
    zs = h.z_masks.copy()
    for p in sorted(positions, reverse=True):
        xs = _drop_bit(xs, p)
        zs = _drop_bit(zs, p)
    return Operator._from_raw(n_new, xs, zs, h.coefficients * signs)


def choose_sector(h: Operator, oracle_budget: int = 12) -> QubitAssignment:
    """Eigenvalue assignment whose reduced ground energy equals the full one.

    All 2**s assignments over the stationary positions are enumerated and
    solved exactly; since the sectors partition the spectrum, the lowest
    reduced ground energy is the full ground energy.  Ties are broken by the
    lexicographically smallest eigenvalue tuple (-1 before +1).  Raises
    BudgetError when the reduced size exceeds `oracle_budget` qubits.
    """
    positions = sorted(find_stationary_qubits(h))
    if not positions:
        raise ValueError("operator has no stationary qubits")
    n_red = h.n_qubits - len(positions)
    if n_red > oracle_budget:
        raise exact.BudgetError(
            f"reduced size {n_red} exceeds oracle budget {oracle_budget}; supply an assignment manually"
        )
    best: tuple[float, tuple[int, ...]] | None = None
    for code in range(1 << len(positions)):
        eigs = tuple(-1 if (code >> i) & 1 == 0 else 1 for i in range(len(positions)))
        assignment = QubitAssignment(dict(zip(positions, eigs)))
        energy, _ = exact.ground_state(reduce_qubits(h, assignment))
        logger.info("sector positions=%s eigenvalues=%s energy=%.12f", positions, eigs, energy)
        if best is None or energy < best[0] - 1e-9 or (abs(energy - best[0]) <= 1e-9 and eigs < best[1]):
            best = (energy, eigs)
    return QubitAssignment(dict(zip(positions, best[1])))
