"""Qubit Hamiltonians and symmetry operators from second-quantized integrals;
stationary-qubit detection and removal; the spin-penalized Hamiltonian.

Integrals are stored in the spatial-orbital basis (one- and two-electron
tensors in chemist index order).  Spin-orbitals follow the
alpha-block-then-beta-block convention: spatial orbital p maps to qubit p
(alpha) and qubit p + n_spatial (beta).  Both the Jordan-Wigner and the
parity encodings are implemented; their images have identical spectra.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field
from typing import Callable, TextIO

import numpy as np

from . import exact
from .pauli import (
    DimensionError, Operator, ParseError, PauliWord, anticommuting, mask_product, parity_signs, phase_value,
)

logger = logging.getLogger(__name__)

_REALITY_TOL = 1e-10  # residual imaginary weight allowed in mapped operators

LadderFn = Callable[[int, int, bool], list[tuple[int, int, complex]]]


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
        if self.h.shape != (n, n) or self.g.shape != (n, n, n, n):
            raise ValueError("integral tensor shapes do not match n_spatial")
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
    if n < 1:
        raise ParseError(f"NORB must be positive, got {n}")

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
#
# Intermediate algebra uses {(x_mask, z_mask): complex coefficient} dicts;
# the final Hamiltonian must come out real term by term.


def _jw_ladder(j: int, n: int, dagger: bool) -> list[tuple[int, int, complex]]:
    prefix = (1 << j) - 1
    bit = 1 << j
    return [(bit, prefix, 0.5), (bit, prefix | bit, -0.5j if dagger else 0.5j)]


def _parity_ladder(j: int, n: int, dagger: bool) -> list[tuple[int, int, complex]]:
    cascade = ((1 << n) - 1) ^ ((1 << (j + 1)) - 1)
    bit = 1 << j
    z_left = (1 << (j - 1)) if j > 0 else 0
    return [(cascade | bit, z_left, 0.5), (cascade | bit, bit, -0.5j if dagger else 0.5j)]


_LADDERS: dict[str, LadderFn] = {"jw": _jw_ladder, "parity": _parity_ladder}


def _terms_product(a: dict, b: dict) -> dict:
    out: dict[tuple[int, int], complex] = {}
    for (ax, az), ca in a.items():
        for (bx, bz), cb in b.items():
            x, z, k = mask_product(ax, az, bx, bz)
            out[(x, z)] = out.get((x, z), 0.0) + ca * cb * phase_value(k)
    return out


def _accumulate(acc: dict, terms: dict, scale: complex = 1.0) -> None:
    for key, c in terms.items():
        acc[key] = acc.get(key, 0.0) + scale * c


def _ladder_chain(ops: list[tuple[int, bool]], n: int, ladder: LadderFn) -> dict:
    """Product of creation/annihilation operators given as (orbital, dagger)."""
    result = {(0, 0): 1.0 + 0.0j}
    for j, dagger in ops:
        result = _terms_product(result, {(x, z): c for x, z, c in ladder(j, n, dagger)})
    return result


def _realize(acc: dict, n: int) -> Operator:
    """Convert a complex term dict to a real Operator, checking reality."""
    worst = max((abs(c.imag) for c in acc.values()), default=0.0)
    if worst > _REALITY_TOL:
        raise ArithmeticError(f"mapped operator has imaginary weight {worst:g}")
    return Operator._from_raw(
        n,
        np.fromiter((x for x, _ in acc), dtype=np.uint64, count=len(acc)),
        np.fromiter((z for _, z in acc), dtype=np.uint64, count=len(acc)),
        np.fromiter((c.real for c in acc.values()), dtype=np.float64, count=len(acc)),
    )


def _map_hamiltonian(data: IntegralData, ladder: LadderFn) -> Operator:
    data.validate()
    nsp = data.n_spatial
    n = data.n_so
    acc: dict[tuple[int, int], complex] = {(0, 0): complex(data.e_core)}
    spins = (0, nsp)
    for p in range(nsp):
        for q in range(nsp):
            hpq = data.h[p, q]
            if hpq == 0.0:
                continue
            for off in spins:
                _accumulate(acc, _ladder_chain([(p + off, True), (q + off, False)], n, ladder), hpq)
    for p in range(nsp):
        for q in range(nsp):
            for r in range(nsp):
                for s in range(nsp):
                    v = data.g[p, q, r, s]
                    if v == 0.0:
                        continue
                    for so in spins:
                        for to in spins:
                            chain = [(p + so, True), (r + to, True), (s + to, False), (q + so, False)]
                            _accumulate(acc, _ladder_chain(chain, n, ladder), 0.5 * v)
    return _realize(acc, n)


def jordan_wigner(data: IntegralData) -> Operator:
    """Jordan-Wigner image of the electronic Hamiltonian, one qubit per spin-orbital."""
    return _map_hamiltonian(data, _jw_ladder)


def parity_map(data: IntegralData) -> Operator:
    """Parity-encoded image; spectrum identical to the Jordan-Wigner image."""
    return _map_hamiltonian(data, _parity_ladder)


def excitation_words(n_so: int) -> list[PauliWord]:
    """Deduplicated Pauli words of all mapped anti-Hermitian single and double
    excitations over n_so spin-orbitals (Jordan-Wigner image)."""
    seen: set[tuple[int, int]] = set()
    ladder = _jw_ladder

    def collect(chain: list[tuple[int, bool]]) -> None:
        acc: dict[tuple[int, int], complex] = {}
        _accumulate(acc, _ladder_chain(chain, n_so, ladder))
        reverse = [(j, not d) for j, d in reversed(chain)]
        _accumulate(acc, _ladder_chain(reverse, n_so, ladder), -1.0)
        for (x, z), c in acc.items():
            if abs(c) > 1e-12 and (x, z) != (0, 0):
                seen.add((x, z))

    for p in range(n_so):
        for q in range(p + 1, n_so):
            collect([(p, True), (q, False)])
    for p in range(n_so):
        for q in range(p + 1, n_so):
            for r in range(n_so):
                for s in range(r + 1, n_so):
                    if (p, q) < (r, s):
                        collect([(p, True), (q, True), (s, False), (r, False)])
    return [PauliWord(n_so, x, z) for x, z in sorted(seen)]


# -- symmetry operators ----------------------------------------------------------


def build_symmetry_operator(kind: str, n_so: int, mapping: str = "jw") -> Operator:
    """Qubit image of the electron-number or total-spin operator.

    kind is one of "n", "sz", "s2"; spin-orbital grouping is all alpha
    first, then all beta.  "s2" is assembled as Sz*Sz + (S+S- + S-S+)/2
    from the mapped ladder operators.
    """
    if n_so % 2 != 0 or n_so < 2:
        raise ValueError("n_so must be a positive even spin-orbital count")
    ladder = _LADDERS[mapping]
    nsp = n_so // 2
    kind = kind.lower()

    def number_terms(orbitals: list[int]) -> dict:
        acc: dict[tuple[int, int], complex] = {}
        for j in orbitals:
            _accumulate(acc, _ladder_chain([(j, True), (j, False)], n_so, ladder))
        return acc

    if kind == "n":
        return _realize(number_terms(list(range(n_so))), n_so)

    sz: dict[tuple[int, int], complex] = {}
    _accumulate(sz, number_terms(list(range(nsp))), 0.5)
    _accumulate(sz, number_terms(list(range(nsp, n_so))), -0.5)
    if kind == "sz":
        return _realize(sz, n_so)

    if kind == "s2":
        s_plus: dict[tuple[int, int], complex] = {}
        s_minus: dict[tuple[int, int], complex] = {}
        for p in range(nsp):
            _accumulate(s_plus, _ladder_chain([(p, True), (p + nsp, False)], n_so, ladder))
            _accumulate(s_minus, _ladder_chain([(p + nsp, True), (p, False)], n_so, ladder))
        acc = _terms_product(sz, sz)
        _accumulate(acc, _terms_product(s_plus, s_minus), 0.5)
        _accumulate(acc, _terms_product(s_minus, s_plus), 0.5)
        return _realize(acc, n_so)

    raise ValueError(f"unknown symmetry operator kind {kind!r}")


def spin_penalize(h: Operator, s2: Operator, mu: float) -> Operator:
    """h + (mu/2) * s2, steering the search toward the singlet sector."""
    if mu <= 0.0:
        raise ValueError(f"penalty strength mu must be positive, got {mu}")
    if h.n_qubits != s2.n_qubits:
        raise DimensionError("Hamiltonian and penalty operator qubit counts differ")
    return h + (mu / 2.0) * s2


def symmetry_commutes(p: PauliWord, s: Operator) -> bool:
    """True iff every term of s commutes with p, so that [s, p] is zero."""
    return not anticommuting(s, p).any()


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
    union_x = int(np.bitwise_or.reduce(h.x_masks)) if len(h) else 0
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
    if not positions:
        return h
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
