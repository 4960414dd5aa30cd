"""Symplectic-bitmask algebra for Pauli words and real linear combinations.

An n-qubit Pauli word is stored as a pair of bitmasks: bit j of ``x_mask``
is set iff qubit j carries x or y, bit j of ``z_mask`` iff it carries z or
y.  The represented operator is the qubit-wise product of {1, x, y, z}, so
(0,0)=1, (1,0)=x, (0,1)=z and (1,1)=y with no hidden prefactor.  Word
products then carry an explicit power of i, returned as an exponent mod 4.

Operators are real linear combinations of words kept in a canonical merged
form: terms sorted lexicographically by (x_mask, z_mask), duplicate words
summed, coefficients below MERGE_TOL dropped.  The sort is one stable
argsort of the packed key (x << s) | z, s the bit length of the largest z;
only when that key would need more than 64 bits (above 32 qubits) does a
two-key lexsort take over.  The merge is two steps: a plan (which distinct
word each term lands on) that depends on the words only, and the sums.
Internally an operator holds three parallel numpy arrays, which the heavier
routines (commutators, conjugation, dressing) operate on directly, and a
memo of results that depend on its words only, such as each rotation's
plan; operators holding the very same mask arrays share one memo.

Summation rule: coefficients that land on one word are added as a running
sum in input order (np.bincount here; a CSR product in the exact oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

import numpy as np

MERGE_TOL = 1e-12  # floating-point dust cutoff; distinct from compression epsilon
MAX_QUBITS = 64

_LETTER_OF_BITS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_BITS_OF_LETTER = {v: k for k, v in _LETTER_OF_BITS.items()}


class DimensionError(ValueError):
    """Raised when operands act on different qubit counts."""


class ParseError(ValueError):
    """Raised on malformed operator or integral text input."""


@dataclass(frozen=True, slots=True)
class PauliWord:
    """One n-qubit Pauli word in symplectic bitmask form."""

    n_qubits: int
    x_mask: int
    z_mask: int

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        full = (1 << self.n_qubits) - 1
        if not 0 <= self.x_mask <= full or not 0 <= self.z_mask <= full:
            raise ValueError("mask has bits outside the qubit range")

    @classmethod
    def from_label(cls, label: str) -> "PauliWord":
        """Build from a letter string, qubit 0 leftmost (e.g. "XZYI")."""
        x = z = 0
        for j, ch in enumerate(label.upper()):
            if ch not in _BITS_OF_LETTER:
                raise ParseError(f"invalid Pauli letter {ch!r} in {label!r}")
            xb, zb = _BITS_OF_LETTER[ch]
            x |= xb << j
            z |= zb << j
        return cls(len(label), x, z)

    def letter(self, qubit: int) -> str:
        return _LETTER_OF_BITS[((self.x_mask >> qubit) & 1, (self.z_mask >> qubit) & 1)]

    def to_label(self) -> str:
        return "".join(self.letter(j) for j in range(self.n_qubits))

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    @property
    def weight(self) -> int:
        return (self.x_mask | self.z_mask).bit_count()

    def __repr__(self) -> str:
        return f"PauliWord({self.to_label()!r})"


def _check_words(a: PauliWord, b: PauliWord) -> None:
    if a.n_qubits != b.n_qubits:
        raise DimensionError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")


def phase_value(exponent: int) -> complex:
    """Numeric value of i**exponent."""
    return (1, 1j, -1, -1j)[exponent % 4]


def mask_product(ax: int, az: int, bx: int, bz: int) -> tuple[int, int, int]:
    """Mask-level word product: (x, z, k) with a*b = i**k * word(x, z)."""
    x = ax ^ bx
    z = az ^ bz
    k = (
        (ax & az).bit_count()
        + (bx & bz).bit_count()
        - (x & z).bit_count()
        + 2 * (az & bx).bit_count()
    ) % 4
    return x, z, k


def multiply(a: PauliWord, b: PauliWord) -> tuple[PauliWord, int]:
    """Product a*b as (word, k) with a*b = i**k * word, k mod 4.

    The exponent is exact: multiply(a, a) gives (identity, 0) for any a.
    """
    _check_words(a, b)
    x, z, k = mask_product(a.x_mask, a.z_mask, b.x_mask, b.z_mask)
    return PauliWord(a.n_qubits, x, z), k


def commutes(a: PauliWord, b: PauliWord) -> bool:
    """True iff the symplectic form <a, b> is even."""
    _check_words(a, b)
    return ((a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()) % 2 == 0


def y_parity(w: PauliWord) -> int:
    """Parity (0 even, 1 odd) of the number of y letters in w."""
    return (w.x_mask & w.z_mask).bit_count() % 2


def mask_bits(mask: int) -> frozenset[int]:
    """Positions of the set bits of a mask (for an x_mask: the flip indices)."""
    return frozenset(j for j in range(mask.bit_length()) if (mask >> j) & 1)


def _popcount_u64(a: np.ndarray) -> np.ndarray:
    return np.bitwise_count(a).astype(np.int64)


def word_products(ax, az, bx, bz) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise mask_product on broadcasting uint64 mask arrays: (x, z, k) with
    a*b = i**k * word(x, z), k an int64 array in 0..3."""
    x, z = ax ^ bx, az ^ bz
    k = _popcount_u64(ax & az) + _popcount_u64(bx & bz) - _popcount_u64(x & z) + 2 * _popcount_u64(az & bx)
    return x, z, k % 4


def parity_signs(a: np.ndarray, m) -> np.ndarray:
    """(-1)**popcount(a & m) elementwise, as float64."""
    return 1.0 - 2.0 * (np.bitwise_count(a & m) & 1)


def frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays themselves, made read-only (shared or cached results)."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _word_order(xs: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable (x, z) order of the words along the last axis, and whether each
    sorted word differs from the one before it.

    The order is that of one packed key (x << s) | z, s the bit length of the
    largest z, which sorts exactly as (x, z) because every z < 2**s.  Words
    whose key needs more than 64 bits (possible only above 32 qubits) are
    sorted by a two-key lexsort instead.
    """
    shift = int(zs.max(initial=0)).bit_length()
    if int(xs.max(initial=0)).bit_length() + shift <= 64:
        key = (xs << np.uint64(shift)) | zs
        order = np.argsort(key, axis=-1, kind="stable")
        key = np.take_along_axis(key, order, -1)
        return order, key[..., 1:] != key[..., :-1]
    order = np.lexsort((zs, xs))
    xo, zo = np.take_along_axis(xs, order, -1), np.take_along_axis(zs, order, -1)
    return order, (xo[..., 1:] != xo[..., :-1]) | (zo[..., 1:] != zo[..., :-1])


def _merge_plan(xs: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical merge's plan for these words: the index, in (x, z) order,
    of the distinct word each term lands on, and the first term of each
    distinct word (ordered stably, by `_word_order`), as intp arrays."""
    order, new_word = _word_order(xs, zs)
    first = np.ones(len(order), dtype=bool)
    first[1:] = new_word
    word = np.empty_like(order)
    word[order] = np.cumsum(first, dtype=order.dtype) - 1
    return word, order[first]


def _merge(word: np.ndarray, cs: np.ndarray, tol: float = MERGE_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct word's coefficient, a running sum in input order, and
    which of them clear the dust cutoff."""
    sums = np.bincount(word, weights=cs)
    return sums, np.abs(sums) >= tol


def _canonical_arrays(
    xs: np.ndarray, zs: np.ndarray, cs: np.ndarray, tol: float = MERGE_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort by (x, z), merge duplicates as running sums, drop dust."""
    if len(xs) == 0:
        return xs, zs, cs
    word, first = _merge_plan(xs, zs)
    sums, keep = _merge(word, cs, tol)
    rows = first[keep]
    return xs[rows], zs[rows], sums[keep]


class Operator:
    """Real-coefficient linear combination of Pauli words, canonically merged.

    Immutable after construction; iteration yields (PauliWord, coefficient)
    in lexicographic (x_mask, z_mask) order.
    """

    __slots__ = ("n_qubits", "_xs", "_zs", "_cs", "_memo")

    def __init__(self, n_qubits: int, terms: Iterable[tuple[PauliWord, float]] = ()):
        words = list(terms)
        xs = np.fromiter((w.x_mask for w, _ in words), dtype=np.uint64, count=len(words))
        zs = np.fromiter((w.z_mask for w, _ in words), dtype=np.uint64, count=len(words))
        cs = np.fromiter((float(c) for _, c in words), dtype=np.float64, count=len(words))
        if not np.isfinite(cs).all():
            raise ValueError("operator coefficients must be finite")
        n_qubits = int(n_qubits)
        for w, _ in words:
            if w.n_qubits != n_qubits:
                raise DimensionError(f"term on {w.n_qubits} qubits in {n_qubits}-qubit operator")
        if not 1 <= n_qubits <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}]")
        self._adopt(n_qubits, *_canonical_arrays(xs, zs, cs))

    def _adopt(
        self, n_qubits: int, xs: np.ndarray, zs: np.ndarray, cs: np.ndarray, memo: dict | None = None
    ) -> "Operator":
        """Hold these canonical arrays, read-only, and `memo` (a new one if None)."""
        self.n_qubits = n_qubits
        self._xs, self._zs, self._cs = frozen(
            np.ascontiguousarray(xs, dtype=np.uint64),
            np.ascontiguousarray(zs, dtype=np.uint64),
            np.ascontiguousarray(cs, dtype=np.float64),
        )
        self._memo = {} if memo is None else memo
        return self

    def _memoized(self, build):
        """build(self), computed once per word set: every operator holding these
        mask arrays shares the result, which must depend on the words only."""
        if build not in self._memo:
            self._memo[build] = build(self)
        return self._memo[build]

    @classmethod
    def _from_raw(cls, n_qubits: int, xs: np.ndarray, zs: np.ndarray, cs: np.ndarray) -> "Operator":
        """Canonicalize raw parallel arrays (internal fast path)."""
        xs, zs = np.asarray(xs, dtype=np.uint64), np.asarray(zs, dtype=np.uint64)
        return cls._from_canonical(n_qubits, *_canonical_arrays(xs, zs, np.asarray(cs, dtype=np.float64)))

    @classmethod
    def _from_canonical(
        cls, n_qubits: int, xs: np.ndarray, zs: np.ndarray, cs: np.ndarray, memo: dict | None = None
    ) -> "Operator":
        """Adopt arrays already in canonical order (internal fast path); `memo`
        is that of operators holding the very same mask arrays, if any."""
        return cls.__new__(cls)._adopt(n_qubits, xs, zs, cs, memo)

    @classmethod
    def zero(cls, n_qubits: int) -> "Operator":
        return cls(n_qubits, ())

    @classmethod
    def from_labels(cls, terms: dict[str, float]) -> "Operator":
        """Build from {letter-string: coefficient}; qubit count from label length."""
        if not terms:
            raise ValueError("cannot infer qubit count from empty mapping")
        n = len(next(iter(terms)))
        return cls(n, ((PauliWord.from_label(lbl), c) for lbl, c in terms.items()))

    # -- array views (read-only) ------------------------------------------

    @property
    def x_masks(self) -> np.ndarray:
        return self._xs

    @property
    def z_masks(self) -> np.ndarray:
        return self._zs

    @property
    def coefficients(self) -> np.ndarray:
        return self._cs

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._cs)

    @property
    def is_empty(self) -> bool:
        return len(self._cs) == 0

    def __iter__(self) -> Iterator[tuple[PauliWord, float]]:
        n = self.n_qubits
        for x, z, c in zip(self._xs, self._zs, self._cs):
            yield PauliWord(n, int(x), int(z)), float(c)

    def coefficient(self, w: PauliWord) -> float:
        """Coefficient of word w (0.0 if absent)."""
        if w.n_qubits != self.n_qubits:
            raise DimensionError("word/operator qubit mismatch")
        i = np.searchsorted(self._xs, np.uint64(w.x_mask))
        while i < len(self._xs) and self._xs[i] == w.x_mask:
            if self._zs[i] == w.z_mask:
                return float(self._cs[i])
            i += 1
        return 0.0

    # -- arithmetic ----------------------------------------------------------

    def _check_op(self, other: "Operator") -> None:
        if self.n_qubits != other.n_qubits:
            raise DimensionError(f"qubit counts differ: {self.n_qubits} vs {other.n_qubits}")

    def __add__(self, other: "Operator") -> "Operator":
        self._check_op(other)
        return Operator._from_raw(
            self.n_qubits,
            np.concatenate([self._xs, other._xs]),
            np.concatenate([self._zs, other._zs]),
            np.concatenate([self._cs, other._cs]),
        )

    def __sub__(self, other: "Operator") -> "Operator":
        return self + (-1.0) * other

    def __mul__(self, scale: float) -> "Operator":
        if not math.isfinite(scale):
            raise ValueError(f"operator scale must be finite, got {scale}")
        cs = self._cs * float(scale)
        keep = np.abs(cs) >= MERGE_TOL
        return Operator._from_canonical(self.n_qubits, self._xs[keep], self._zs[keep], cs[keep])

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator._from_canonical(self.n_qubits, self._xs, self._zs, -self._cs, self._memo)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operator):
            return NotImplemented
        return (
            self.n_qubits == other.n_qubits
            and np.array_equal(self._xs, other._xs)
            and np.array_equal(self._zs, other._zs)
            and np.array_equal(self._cs, other._cs)
        )

    def __repr__(self) -> str:
        return f"Operator(n_qubits={self.n_qubits}, terms={len(self)})"


def anticommuting(h: Operator, p: PauliWord) -> np.ndarray:
    """Boolean mask of the terms of h that anticommute with p."""
    if h.n_qubits != p.n_qubits:
        raise DimensionError("operator/word qubit mismatch")
    px, pz = np.uint64(p.x_mask), np.uint64(p.z_mask)
    return (np.bitwise_count((h.x_masks & pz) ^ (h.z_masks & px)) & 1).astype(bool)


def flip_runs(h: Operator) -> tuple[np.ndarray, np.ndarray]:
    """The runs of equal x_mask in the canonical term arrays: each run's x mask,
    ascending, and the runs' bounds, len(runs) + 1 term indices (run r holds
    terms bounds[r] to bounds[r + 1] - 1)."""
    xs = h.x_masks
    new_run = np.ones(len(xs), dtype=bool)
    new_run[1:] = xs[1:] != xs[:-1]
    starts = np.flatnonzero(new_run)
    return xs[starts], np.append(starts, len(xs))


@dataclass(slots=True, eq=False)
class _RotationPlan:
    """What a rotation of one word set by one word keeps for its next call:
    each unmerged term's source term, factor index and merged word, all intp
    so that a call gathers and sums without converting them, the merged
    words' x and z masks, and `last`: the last call's dust pattern, its kept
    words and the memo of the operators holding them."""

    src: np.ndarray
    factor: np.ndarray
    word: np.ndarray
    xs: np.ndarray
    zs: np.ndarray
    last: tuple[np.ndarray, np.ndarray, np.ndarray, dict] | None = None


def _rotation_plan(h: Operator, p: PauliWord, commuting: bool) -> _RotationPlan | None:
    """The plan of a rotation of h by p, or None when no term of h
    anticommutes with p.  Its unmerged terms are the terms commuting with p
    (if kept), those anticommuting, and the word +-(w*p) each of the latter
    spawns, with factors (1, a, b, -b)[factor]; they merge by `_merge_plan`."""
    anti = anticommuting(h, p)
    if not anti.any():
        return None
    ia = np.flatnonzero(anti)
    ir = np.flatnonzero(~anti) if commuting else ia[:0]
    xa, za = h.x_masks[ia], h.z_masks[ia]
    xn, zn, k = word_products(xa, za, np.uint64(p.x_mask), np.uint64(p.z_mask))
    # k is odd for anticommuting pairs, so -(i/2)[c*w, p] = -i * i**k * c * (w*p) is +-c * (w*p)
    factor = np.concatenate([np.zeros(len(ir)), np.ones(len(ia)), np.where(k == 1, 2, 3)])
    xs, zs = np.concatenate([h.x_masks[ir], xa, xn]), np.concatenate([h.z_masks[ir], za, zn])
    word, first = _merge_plan(xs, zs)
    return _RotationPlan(*frozen(np.concatenate([ir, ia, ia]), factor.astype(np.intp), word, xs[first], zs[first]))


def rotate(h: Operator, p: PauliWord, a: float, b: float, commuting: bool = True) -> Operator:
    """a * (terms of h anticommuting with p) + b * (-(i/2)[h, p]), plus the
    terms commuting with p when `commuting` is set.

    With a = cos(tau), b = sin(tau) this is the similarity transformation
    exp(i*tau*p/2) h exp(-i*tau*p/2); each anticommuting term c*w spawns the
    one word +-c * (w*p).  Returns h itself (or, without `commuting`, the
    zero operator) when no term anticommutes with p.

    The plan (`_rotation_plan`: each unmerged term's source, factor and
    merged word, and the merged words) depends on h's words, p and
    `commuting` only, so it is built once and kept in h's memo, and no call
    derives the terms again.  Every call gathers the coefficients, sums them
    by the plan and drops dust, with the canonical merge's summation rule,
    so the result has the same bits as a fresh merge.  Results with the
    dust pattern of the previous call share its word arrays and their memo.
    An operator's memo lives as long as the operators sharing it, and it
    keeps the plans made from it and, through them, the memos of their
    results.
    """
    if h.n_qubits != p.n_qubits:
        raise DimensionError("operator/word qubit mismatch")
    key = (p.x_mask, p.z_mask, commuting)
    if key not in h._memo:
        h._memo[key] = _rotation_plan(h, p, commuting)
    plan = h._memo[key]
    if plan is None:
        return h if commuting else Operator.zero(h.n_qubits)
    sums, keep = _merge(plan.word, h.coefficients[plan.src] * np.array([1.0, a, b, -b])[plan.factor])
    if plan.last is None or not np.array_equal(keep, plan.last[0]):
        plan.last = (*frozen(keep, plan.xs[keep], plan.zs[keep]), {})
    _, xs, zs, memo = plan.last
    return Operator._from_canonical(h.n_qubits, xs, zs, sums[keep], memo)


def commutator_half(h: Operator, p: PauliWord) -> Operator:
    """-(i/2)[h, p], always real for real h."""
    return rotate(h, p, 0.0, 1.0, commuting=False)


def conjugate_by_word(h: Operator, p: PauliWord) -> Operator:
    """p*h*p: same word set as h, sign flipped on terms anticommuting with p."""
    return rotate(h, p, -1.0, 0.0)


def frobenius_norm(h: Operator) -> float:
    """2**(n/2) * sqrt(sum of squared coefficients)."""
    return math.sqrt(2.0**h.n_qubits * float(np.dot(h.coefficients, h.coefficients)))


# -- text operator format ----------------------------------------------------
#
# One term per line: `<coefficient> <letters>`, letters in I/X/Y/Z with
# qubit 0 leftmost; `#` starts a comment.


def write_operator(h: Operator, stream: TextIO) -> None:
    stream.write(f"# qubits: {h.n_qubits}  terms: {len(h)}\n")
    for w, c in h:
        stream.write(f"{c!r} {w.to_label()}\n")


def read_operator(stream: TextIO) -> Operator:
    terms: list[tuple[PauliWord, float]] = []
    n: int | None = None
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected '<coefficient> <letters>', got {raw!r}")
        try:
            coeff = float(parts[0])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad coefficient {parts[0]!r}") from exc
        if not math.isfinite(coeff):
            raise ParseError(f"line {lineno}: non-finite coefficient {parts[0]!r}")
        label = parts[1]
        if n is None:
            n = len(label)
        elif len(label) != n:
            raise ParseError(f"line {lineno}: word length {len(label)} != {n}")
        try:
            word = PauliWord.from_label(label)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        terms.append((word, coeff))
    if n is None:
        raise ParseError("no operator terms found")
    return Operator(n, terms)
