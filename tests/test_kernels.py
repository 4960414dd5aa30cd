"""Vectorised bitmask kernels against the scalar word algebra, on random input.

Words span up to 64 qubits, so the uint64 masks' top bit is exercised.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from iqcc.pauli import (
    Operator,
    PauliWord,
    anticommuting,
    commutator_terms,
    commutes,
    flip_runs,
    mask_bits,
    mask_product,
    parity_signs,
)

N_QUBITS = st.integers(1, 64)


@st.composite
def words(draw, n: int, min_size: int = 0, max_size: int = 30) -> list[PauliWord]:
    # x masks drawn from a few values so that flip runs repeat
    xs = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(xs), st.integers(0, (1 << n) - 1)), min_size=min_size, max_size=max_size
    ))
    return [PauliWord(n, x, z) for x, z in pairs]


@st.composite
def operator_and_word(draw):
    n = draw(N_QUBITS)
    terms = draw(words(n))
    coeffs = draw(st.lists(st.floats(0.5, 2.0), min_size=len(terms), max_size=len(terms)))
    h = Operator(n, zip(terms, coeffs))
    p = draw(words(n, min_size=1, max_size=1))[0]
    return h, p


@settings(max_examples=200, deadline=None)
@given(operator_and_word())
def test_anticommuting_and_commutator_terms_match_scalar_algebra(case):
    h, p = case
    anti = anticommuting(h, p)
    assert anti.tolist() == [not commutes(w, p) for w, _ in h]
    xn, zn, cn = commutator_terms(h.x_masks[anti], h.z_masks[anti], h.coefficients[anti], p)
    expected = []
    for w, c in h:
        if not commutes(w, p):
            x, z, k = mask_product(w.x_mask, w.z_mask, p.x_mask, p.z_mask)
            # -(i/2)(w p - p w) = -i w p for anticommuting words, and w p = i**k (x, z)
            expected.append((x, z, c * {1: 1.0, 3: -1.0}[k]))
    assert list(zip(xn.tolist(), zn.tolist(), cn.tolist())) == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_flip_runs_match_naive_group_by(data):
    n = data.draw(N_QUBITS)
    h = Operator(n, [(w, 1.0) for w in data.draw(words(n))])
    runs = {}
    for i, x in enumerate(h.x_masks.tolist()):
        runs.setdefault(x, []).append(i)
    assert [(x, list(range(len(h)))[sl]) for x, sl in flip_runs(h)] == list(runs.items())
    assert all(mask_bits(x) == {j for j in range(n) if (x >> j) & 1} for x in runs)


def test_flip_runs_empty_and_single():
    assert flip_runs(Operator.zero(3)) == []
    assert flip_runs(Operator.from_labels({"XIY": 0.5})) == [(0b101, slice(0, 1))]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, (1 << 64) - 1), max_size=20), st.integers(0, (1 << 64) - 1))
def test_parity_signs_match_bit_count(values, mask):
    signs = parity_signs(np.array(values, dtype=np.uint64), np.uint64(mask))
    assert signs.dtype == np.float64
    assert signs.tolist() == [(-1.0) ** (v & mask).bit_count() for v in values]
