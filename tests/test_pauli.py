"""Word algebra and operator canonicalization against dense-matrix oracles."""

import io

import numpy as np
import pytest

from iqcc.pauli import (
    DimensionError,
    Operator,
    ParseError,
    PauliWord,
    commutator_half,
    commutes,
    conjugate_by_word,
    frobenius_norm,
    multiply,
    phase_value,
    read_operator,
    write_operator,
    y_parity,
)

from conftest import dense_op, dense_word, op_allclose, random_operator, random_word


def test_multiply_single_qubit_table():
    x = PauliWord.from_label("X")
    y = PauliWord.from_label("Y")
    z = PauliWord.from_label("Z")
    assert multiply(x, y) == (z, 1)  # xy = iz
    assert multiply(y, x) == (z, 3)
    assert multiply(z, x) == (y, 1)
    assert multiply(y, z) == (x, 1)


def test_multiply_involution(rng):
    for _ in range(50):
        w = random_word(rng, int(rng.integers(1, 8)))
        ident, k = multiply(w, w)
        assert ident.is_identity and k == 0


def test_multiply_two_qubit_dense():
    a = PauliWord.from_label("XZ")
    b = PauliWord.from_label("YY")
    w, k = multiply(a, b)
    assert np.allclose(dense_word(a) @ dense_word(b), phase_value(k) * dense_word(w))


def test_multiply_random_dense(rng):
    for _ in range(200):
        n = int(rng.integers(1, 5))
        a, b = random_word(rng, n), random_word(rng, n)
        w, k = multiply(a, b)
        assert np.allclose(dense_word(a) @ dense_word(b), phase_value(k) * dense_word(w))


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionError):
        multiply(PauliWord.from_label("X"), PauliWord.from_label("XX"))


def test_commutes_basics():
    z = PauliWord.from_label("Z")
    x = PauliWord.from_label("X")
    assert commutes(z, z)
    assert not commutes(x, z)


def test_commutes_half_of_all_words():
    # a fixed non-identity word commutes with exactly half of the 4**n words
    target = PauliWord.from_label("XZ")
    words = [PauliWord(2, x, z) for x in range(4) for z in range(4)]
    n_commuting = sum(commutes(w, target) for w in words)
    assert n_commuting == len(words) // 2


def test_commutes_matches_phase_symmetry(rng):
    # same product word both ways; phases agree exactly when words commute
    for _ in range(100):
        n = int(rng.integers(1, 5))
        a, b = random_word(rng, n), random_word(rng, n)
        wab, kab = multiply(a, b)
        wba, kba = multiply(b, a)
        assert wab == wba
        assert (kab == kba) == commutes(a, b)


def test_commutator_half_single_qubit():
    h = Operator.from_labels({"Z": 1.0})
    out = commutator_half(h, PauliWord.from_label("Y"))
    assert op_allclose(out, Operator.from_labels({"X": -1.0}), 1e-15)


def test_commutator_half_identity_commutes():
    h = Operator.from_labels({"III": 2.5})
    assert commutator_half(h, PauliWord.from_label("XYZ")).is_empty


def test_commutator_half_random_dense(rng):
    for _ in range(100):
        n = int(rng.integers(1, 5))
        h = random_operator(rng, n, int(rng.integers(1, 8)))
        p = random_word(rng, n)
        got = dense_op(commutator_half(h, p))
        hd, pd = dense_op(h), dense_word(p)
        assert np.allclose(got, -0.5j * (hd @ pd - pd @ hd), atol=1e-12)


def test_conjugate_by_word_signs():
    h = Operator.from_labels({"X": 2.0})
    assert op_allclose(conjugate_by_word(h, PauliWord.from_label("Z")), Operator.from_labels({"X": -2.0}))
    assert op_allclose(conjugate_by_word(h, PauliWord.from_label("X")), h)


def test_conjugate_preserves_word_set(rng):
    for _ in range(30):
        h = random_operator(rng, 3, 6)
        p = random_word(rng, 3)
        out = conjugate_by_word(h, p)
        assert [w for w, _ in out] == [w for w, _ in h]
        assert np.allclose(dense_op(out), dense_word(p) @ dense_op(h) @ dense_word(p))


def test_conjugate_is_involution(rng):
    for _ in range(30):
        h = random_operator(rng, 4, 8)
        p = random_word(rng, 4)
        assert conjugate_by_word(conjugate_by_word(h, p), p) == h


def test_frobenius_norm_examples():
    assert frobenius_norm(Operator.from_labels({"ZI": 0.5})) == pytest.approx(1.0)
    assert frobenius_norm(Operator.from_labels({"III": -0.25})) == pytest.approx(2.0 ** 1.5 * 0.25)


def test_frobenius_norm_dense(rng):
    for _ in range(30):
        h = random_operator(rng, 4, 10)
        hd = dense_op(h)
        assert frobenius_norm(h) == pytest.approx(
            np.sqrt(np.trace(hd.conj().T @ hd).real), rel=1e-12
        )


def test_y_parity():
    assert y_parity(PauliWord.from_label("YX")) == 1
    assert y_parity(PauliWord.from_label("YY")) == 0
    assert y_parity(PauliWord.from_label("II")) == 0


def test_operator_merges_duplicates():
    w = PauliWord.from_label("XZ")
    h = Operator(2, [(w, 0.5), (w, 0.25)])
    assert len(h) == 1 and h.coefficient(w) == pytest.approx(0.75)


def test_operator_cancellation_is_empty():
    h = Operator.from_labels({"XY": 0.3, "ZZ": -1.2})
    assert (h + (-1.0) * h).is_empty


def test_operator_sums_duplicates_as_a_running_sum():
    # each word's terms are added left to right, not pairwise
    x = PauliWord.from_label("X")
    assert Operator(1, [(x, 1e16), (x, 1.0), (x, -1e16), (x, 1.0)]).coefficients.tolist() == [1.0]
    assert Operator(1, [(x, 0.1)] * 10).coefficient(x) == sum([0.1] * 10) == 0.9999999999999999


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf")])
def test_operator_rejects_non_finite_scale(scale):
    with pytest.raises(ValueError, match="finite"):
        Operator.from_labels({"ZZ": 1.0, "XI": 0.5}) * scale


def test_operator_drops_dust():
    h = Operator.from_labels({"XX": 1e-13, "ZZ": 1.0})
    assert len(h) == 1


def test_operator_iteration_order_is_lexicographic():
    h = Operator.from_labels({"ZZ": 1.0, "XI": 2.0, "II": 3.0, "YI": 4.0})
    labels = [w.to_label() for w, _ in h]
    keys = [(w.x_mask, w.z_mask) for w, _ in h]
    assert keys == sorted(keys)
    assert labels[0] == "II"


def test_operator_rejects_mixed_sizes():
    with pytest.raises(DimensionError):
        Operator(2, [(PauliWord.from_label("X"), 1.0)])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_operator_rejects_non_finite_coefficients(value):
    with pytest.raises(ValueError, match="finite"):
        Operator.from_labels({"ZZ": value, "XI": 1.0})


def test_text_format_roundtrip(rng):
    h = random_operator(rng, 3, 7)
    buf = io.StringIO()
    write_operator(h, buf)
    buf.seek(0)
    assert read_operator(buf) == h


def test_text_format_parses_comments_and_layout():
    text = "# a comment\n0.25 XZYI\n\n-1.0 IIII  # trailing\n"
    h = read_operator(io.StringIO(text))
    assert len(h) == 2
    assert h.coefficient(PauliWord.from_label("XZYI")) == pytest.approx(0.25)


def test_text_format_errors():
    with pytest.raises(ParseError):
        read_operator(io.StringIO("0.5 XQ\n"))
    with pytest.raises(ParseError):
        read_operator(io.StringIO("0.5 X\n0.5 XX\n"))
    with pytest.raises(ParseError):
        read_operator(io.StringIO("# only comments\n"))
    with pytest.raises(ParseError, match=r"line 2: qubit count must be in \[1, 64\], got 65"):
        read_operator(io.StringIO("# one letter too many\n0.5 " + "X" * 65 + "\n"))
