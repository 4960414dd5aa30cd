"""Norm-sorted truncation and its eigenvalue-displacement guarantee."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqcc.compression import compress
from iqcc.pauli import Operator, PauliWord, frobenius_norm

from conftest import dense_op, random_operator


def _mixed_scale_operator(rng, n, n_terms):
    terms = []
    for _ in range(n_terms):
        w = PauliWord(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        mag = 10.0 ** rng.uniform(-6, 0)
        terms.append((w, float(rng.choice([-1, 1]) * mag)))
    return Operator(n, terms)


def test_compress_rejects_bad_epsilon(rng):
    h = random_operator(rng, 2, 3)
    with pytest.raises(ValueError):
        compress(h, 0.0)
    with pytest.raises(ValueError):
        compress(h, -1e-3)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            compress(h, bad)


def test_compress_nothing_to_drop():
    # every single coefficient already exceeds the cutoff
    h = Operator.from_labels({"XX": 0.5, "ZZ": -0.7})
    out, report = compress(h, 1e-3)
    assert out == h
    assert report.terms_before == report.terms_after == 2
    assert report.dropped_norm == 0.0


def test_compress_dropped_norm_within_budget(rng):
    for _ in range(25):
        h = _mixed_scale_operator(rng, 5, 40)
        out, report = compress(h, 1e-2)
        assert report.dropped_norm <= 1e-2 + 1e-15
        assert report.terms_after == len(out) <= report.terms_before
        assert frobenius_norm(h - out) == pytest.approx(report.dropped_norm, abs=1e-12)


def test_compress_eigenvalue_displacement(rng):
    for _ in range(10):
        h = _mixed_scale_operator(rng, 6, 60)
        out, _ = compress(h, 1e-3)
        e0 = np.linalg.eigvalsh(dense_op(h))
        e1 = np.linalg.eigvalsh(dense_op(out))
        assert np.max(np.abs(e0 - e1)) <= 1e-3


def test_compress_idempotent_when_cut_falls_in_a_gap(rng):
    # coefficient scales well separated around the cutoff: recompression is a no-op
    n = 4
    terms = {"IIII": 1.0, "XXII": 0.8, "ZZII": -0.6, "IIXX": 3e-5, "IIYY": -2e-5, "IZIZ": 1e-5}
    h = Operator.from_labels(terms)
    once, r1 = compress(h, 1e-3)
    assert r1.terms_after == 3
    twice, r2 = compress(once, 1e-3)
    assert twice == once
    assert r2.dropped_norm == 0.0


def test_compress_each_application_obeys_its_own_budget(rng):
    # when small coefficients straddle the cutoff a second pass may drop
    # more terms, but every application still honors the epsilon bound
    for _ in range(20):
        h = _mixed_scale_operator(rng, 5, 40)
        once, r1 = compress(h, 1e-2)
        twice, r2 = compress(once, 1e-2)
        assert r1.dropped_norm <= 1e-2 and r2.dropped_norm <= 1e-2
        assert frobenius_norm(once - twice) <= 1e-2


def test_compress_monotone_in_epsilon(rng):
    h = _mixed_scale_operator(rng, 5, 50)
    sizes = []
    for eps in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1):
        out, _ = compress(h, eps)
        sizes.append(len(out))
    assert sizes == sorted(sizes, reverse=True)


def test_compress_identity_exempt():
    h = Operator.from_labels({"II": 1e-9, "XX": 1.0, "ZZ": 1e-6})
    out, _ = compress(h, 1e-3)
    assert out.coefficient(PauliWord.from_label("II")) == pytest.approx(1e-9)
    # huge epsilon keeps only the identity
    out, _ = compress(h, 1e3)
    assert [w.to_label() for w, _ in out] == ["II"]


def test_compress_retains_ties():
    h = Operator.from_labels({"XX": 1e-4, "YY": 1e-4, "ZZ": -1e-4, "ZI": 1.0})
    # the budget admits one or two of the three tied terms but not all;
    # the tie rule keeps every one of them
    eps = 1.5e-4 * 2.0  # budget 1.5e-4: cumsum crosses between the 2nd and 3rd
    out, report = compress(h, eps)
    assert len(out) == 4
    assert report.dropped_norm == 0.0


@st.composite
def operator_and_epsilon(draw):
    n = draw(st.integers(1, 5))
    word = st.builds(PauliWord, st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
    # magnitudes from a few decades, so that ties at the cut are common
    coeff = st.builds(lambda s, k: s * 10.0**k, st.sampled_from([-1.0, 1.0]), st.integers(-4, 0))
    terms = draw(st.lists(st.tuples(word, st.one_of(coeff, st.floats(-1.0, 1.0))), max_size=16))
    # a budget between j and j + 1 dropped terms of magnitude 10**k puts the cut inside a tie
    amid = st.builds(lambda k, j: 10.0**k * math.sqrt((j + 0.5) * 2**n), st.integers(-4, 0), st.integers(0, 3))
    return Operator(n, terms), draw(st.one_of(st.floats(1e-4, 10.0), amid))


@settings(max_examples=300, deadline=None)
@given(operator_and_epsilon())
def test_compress_matches_dense_oracle(case):
    h, epsilon = case
    out, report = compress(h, epsilon)
    assert report.dropped_norm <= epsilon
    shift = np.linalg.eigvalsh(dense_op(h)) - np.linalg.eigvalsh(dense_op(out))
    assert np.abs(shift).max() <= report.dropped_norm + 1e-12
    identity = PauliWord(h.n_qubits, 0, 0)
    assert out.coefficient(identity) == h.coefficient(identity)
    kept = {w: c for w, c in out}
    assert all(h.coefficient(w) == c for w, c in kept.items())
    dropped = [abs(c) for w, c in h if w not in kept]
    droppable_kept = [abs(c) for w, c in kept.items() if not w.is_identity]
    # every dropped term is strictly smaller than every kept one: ties at the cut stay
    assert not dropped or not droppable_kept or max(dropped) < min(droppable_kept)
