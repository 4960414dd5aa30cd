"""Similarity transformation: closed form vs dense conjugation oracles."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqcc.dressing import DressingStep, dress, dress_derivative, dress_sequence
from iqcc.pauli import Operator, PauliWord, commutator_half, rotate
from iqcc.product_state import BlochState, energy

from conftest import (
    dense_op,
    dense_word,
    op_allclose,
    product_state_vector,
    random_odd_y_word,
    random_operator,
    random_real_operator,
    random_word,
)


def _dense_dressed(h: Operator, step: DressingStep) -> np.ndarray:
    p = dense_word(step.generator)
    dim = p.shape[0]
    u = math.cos(step.tau / 2) * np.eye(dim) - 1j * math.sin(step.tau / 2) * p
    return u.conj().T @ dense_op(h) @ u


def test_dress_zero_amplitude_is_identity(rng):
    h = random_operator(rng, 3, 6)
    assert dress(h, DressingStep(random_word(rng, 3), 0.0)) is h


def test_dress_quarter_turn():
    h = Operator.from_labels({"Z": 1.0})
    out = dress(h, DressingStep(PauliWord.from_label("Y"), math.pi / 2))
    assert op_allclose(out, Operator.from_labels({"X": -1.0}), 1e-12)


def test_dress_matches_dense_conjugation(rng):
    for _ in range(50):
        n = int(rng.integers(1, 5))
        h = random_operator(rng, n, int(rng.integers(2, 10)))
        step = DressingStep(random_word(rng, n), float(rng.uniform(-3, 3)))
        assert np.allclose(dense_op(dress(h, step)), _dense_dressed(h, step), atol=1e-12)


def test_dress_preserves_spectrum(rng):
    for _ in range(20):
        h = random_operator(rng, 4, 12)
        step = DressingStep(random_word(rng, 4), float(rng.uniform(-math.pi, math.pi)))
        e0 = np.linalg.eigvalsh(dense_op(h))
        e1 = np.linalg.eigvalsh(dense_op(dress(h, step)))
        assert np.max(np.abs(e0 - e1)) < 1e-10


def test_dress_term_count_at_most_doubles(rng):
    for _ in range(20):
        h = random_operator(rng, 5, 20)
        step = DressingStep(random_word(rng, 5), 0.4)
        assert len(dress(h, step)) <= 2 * len(h)


def test_dress_real_closure(rng):
    # dressing a real-matrix operator yields a real-matrix operator
    h = random_real_operator(rng, 4, 10)
    out = dress(h, DressingStep(random_odd_y_word(rng, 4), 0.9))
    assert np.allclose(dense_op(out).imag, 0.0, atol=1e-12)


def test_dress_sequence_empty_and_merge(rng):
    h = random_operator(rng, 3, 6)
    assert dress_sequence(h, []) is h
    p = random_word(rng, 3)
    two = dress_sequence(h, [DressingStep(p, 0.3), DressingStep(p, 0.5)])
    one = dress(h, DressingStep(p, 0.8))
    assert op_allclose(two, one, 1e-12)


def test_dress_sequence_result_starts_its_own_memo():
    h = Operator.from_labels({"XZI": 1.0, "ZZI": 0.5, "IZX": 0.25, "YIY": -0.75})
    steps = [DressingStep(PauliWord.from_label(w), t) for w, t in (("ZII", 0.3), ("IIZ", -0.4))]
    last = dress(dress(h, steps[0]), steps[1])
    out = dress_sequence(h, steps)
    assert out == last and out.x_masks is last.x_masks
    assert out._memo == {} and out._memo is not last._memo
    # plans made from the result live with it, not with h
    ref = weakref.ref(rotate(out, PauliWord.from_label("XXX"), 0.6, 0.8).x_masks)
    del out, last
    gc.collect()
    assert ref() is None


def test_growth_tracks_three_halves_law(rng):
    # ten random odd-y steps on an 825-term operator: the term count stays
    # within a factor of two of the (3/2)**k average-growth estimate
    n = 12
    h = Operator(n, [(random_word(rng, n), float(rng.normal())) for _ in range(825)])
    m0 = len(h)
    cur = h
    for k in range(1, 11):
        cur = dress(cur, DressingStep(random_odd_y_word(rng, n), float(rng.uniform(0.3, 1.2))))
        predicted = m0 * 1.5**k
        assert predicted / 2 <= len(cur) <= predicted * 2


def test_dressing_energy_consistency(rng):
    # product-state energy of the dressed operator equals the statevector
    # expectation of the original operator in the rotated state
    for _ in range(10):
        h = random_operator(rng, 3, 8)
        p = random_word(rng, 3)
        tau = float(rng.uniform(-2, 2))
        theta = rng.uniform(0, math.pi, 3)
        phi = rng.uniform(0, 2 * math.pi, 3)
        e_alg = energy(BlochState(theta, phi), dress(h, DressingStep(p, tau)))
        v = product_state_vector(theta, phi)
        pd = dense_word(p)
        u = math.cos(tau / 2) * np.eye(8) - 1j * math.sin(tau / 2) * pd
        e_sv = float((v.conj() @ u.conj().T @ dense_op(h) @ u @ v).real)
        assert e_alg == pytest.approx(e_sv, abs=1e-10)


def test_dress_derivative_matches_finite_difference(rng):
    for _ in range(15):
        h = random_operator(rng, 3, 8)
        p = random_word(rng, 3)
        tau = float(rng.uniform(-2, 2))
        step = 1e-6
        up = dense_op(dress(h, DressingStep(p, tau + step)))
        dn = dense_op(dress(h, DressingStep(p, tau - step)))
        fd = (up - dn) / (2 * step)
        assert np.allclose(dense_op(dress_derivative(h, DressingStep(p, tau))), fd, atol=1e-7)


def test_derivative_at_zero_is_screening_direction(rng):
    # d/dtau at tau=0 reduces to -(i/2)[h, p]
    h = random_operator(rng, 4, 10)
    p = random_odd_y_word(rng, 4)
    assert op_allclose(dress_derivative(h, DressingStep(p, 0.0)), commutator_half(h, p), 1e-12)


@st.composite
def operator_word_angle(draw):
    n = draw(st.integers(1, 4))
    word = st.builds(PauliWord, st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
    terms = draw(st.lists(st.tuples(word, st.floats(-2.0, 2.0)), max_size=12))
    poles = [k * math.pi / 2 for k in range(-4, 5)]
    tau = draw(st.one_of(st.sampled_from(poles), st.floats(-10.0, 10.0)))
    return Operator(n, terms), draw(word), tau


@settings(max_examples=300, deadline=None)
@given(operator_word_angle())
def test_rotation_kernels_match_dense_oracle(case):
    h, p, tau = case
    step = DressingStep(p, tau)
    hd, pd = dense_op(h), dense_word(p)
    c, s = math.cos(step.tau / 2), math.sin(step.tau / 2)
    u = c * np.eye(len(pd)) - 1j * s * pd
    du = -0.5 * (s * np.eye(len(pd)) + 1j * c * pd)  # d/dtau of u
    assert np.allclose(dense_op(dress(h, step)), u.conj().T @ hd @ u, atol=1e-12)
    assert np.allclose(dense_op(dress_derivative(h, step)), du.conj().T @ hd @ u + u.conj().T @ hd @ du, atol=1e-12)
    assert np.allclose(dense_op(commutator_half(h, p)), -0.5j * (hd @ pd - pd @ hd), atol=1e-12)


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
def test_dressing_step_rejects_non_finite_amplitude(tau):
    with pytest.raises(ValueError, match="finite"):
        DressingStep(PauliWord.from_label("Y"), tau)


def test_amplitude_range_reduction():
    p = PauliWord.from_label("Y")
    assert DressingStep(p, 3 * math.pi).tau == pytest.approx(math.pi)
    assert DressingStep(p, -math.pi).tau == pytest.approx(math.pi)
    assert DressingStep(p, 0.25).tau == pytest.approx(0.25)
