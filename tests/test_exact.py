"""Statevector engine and exact solvers against dense Kronecker oracles."""

import itertools

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from iqcc import exact
from iqcc.exact import (
    BudgetError,
    apply_operator,
    apply_word,
    dense_matrix,
    expectation,
    ground_state,
)
from iqcc.pauli import Operator, PauliWord

from conftest import (
    dense_op,
    dense_word,
    random_odd_y_word,
    random_operator,
    random_real_operator,
    random_word,
)


def _operator(rng, n: int, odd_y: bool) -> Operator:
    """Random real operator, plus one odd-y (imaginary) term when odd_y."""
    h = random_real_operator(rng, n, 3 * n + 2)
    if odd_y:
        h = h + Operator(n, [(random_odd_y_word(rng, n), 0.7)])
    return h


def test_apply_word_identity(rng):
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    out = apply_word(v, PauliWord.from_label("III"))
    assert np.allclose(out, v)


def test_apply_word_flips_qubit_zero():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0  # |00>
    out = apply_word(v, PauliWord.from_label("XI"))
    expected = np.zeros(4, dtype=complex)
    expected[1] = 1.0  # qubit 0 flipped
    assert np.allclose(out, expected)


def test_apply_word_random_dense(rng):
    for _ in range(50):
        w = random_word(rng, 3)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.allclose(apply_word(v, w), dense_word(w) @ v, atol=1e-12)


def test_apply_word_norm_preserving(rng):
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    v /= np.linalg.norm(v)
    w = random_word(rng, 4)
    assert np.linalg.norm(apply_word(v, w)) == pytest.approx(1.0)


def test_apply_operator_random_dense(rng):
    # a real (float64) operator must keep the imaginary part of a complex state
    for make in (random_operator, random_real_operator):
        for _ in range(25):
            h = make(rng, 3, 8)
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            assert np.allclose(apply_operator(h, v), dense_op(h) @ v, atol=1e-12)


def test_uncached_matvec_matches_cached(rng, monkeypatch):
    ops = [random_operator(rng, 5, 30), random_real_operator(rng, 5, 30)]
    v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    cached = [exact.make_matvec(h)(v) for h in ops]
    monkeypatch.setattr(exact, "_DIAG_CACHE_ENTRIES", 0)
    for h, out in zip(ops, cached):
        assert np.array_equal(exact.make_matvec(h)(v), out)


def test_dense_matrix_matches_kron_oracle(rng):
    for odd_y, dtype in ((False, np.float64), (True, np.complex128)):
        for _ in range(20):
            h = _operator(rng, 4, odd_y)
            mat = dense_matrix(h)
            assert mat.dtype == dtype
            assert np.allclose(mat, dense_op(h), atol=1e-12)


def test_ground_state_diagonal():
    e, v = ground_state(Operator.from_labels({"ZI": 1.0, "IZ": 1.0}))
    assert e == pytest.approx(-2.0)
    assert abs(v[3]) == pytest.approx(1.0)  # |11> sector


def test_ground_state_degenerate_residual():
    h = Operator.from_labels({"X": 1.0})
    e, v = ground_state(h)
    assert e == pytest.approx(-1.0)
    res = apply_operator(h, v) - e * v
    assert np.linalg.norm(res) < 1e-9


def test_ground_state_dense_vs_iterative(rng):
    for n, (odd_y, dtype) in itertools.product((1, 2, 6), ((False, np.float64), (True, np.complex128))):
        for _ in range(5):
            h = _operator(rng, n, odd_y)
            ed, vd = ground_state(h, mode="dense")
            ei, vi = ground_state(h, mode="iterative")
            assert vd.dtype == vi.dtype == dtype
            assert abs(ed - ei) < 1e-9
            assert np.linalg.norm(apply_operator(h, vi) - ei * vi) < 1e-9


def test_ground_state_rejects_a_bad_eigenpair(rng, monkeypatch):
    h = random_real_operator(rng, 4, 12)
    arpack = exact.eigsh

    def perturbed(*args, **kwargs):
        evals, evecs = arpack(*args, **kwargs)
        return evals + 1e-6, evecs

    monkeypatch.setattr(exact, "eigsh", perturbed)
    with pytest.raises(ArithmeticError, match="residual"):
        ground_state(h, mode="iterative")


def test_ground_state_stall_is_arithmetic_error(rng, monkeypatch):
    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((16, 0)))

    monkeypatch.setattr(exact, "eigsh", stalled)
    with pytest.raises(ArithmeticError, match="converge"):
        ground_state(random_real_operator(rng, 4, 12), mode="iterative")


def test_ground_state_budget_refusal():
    h = Operator.from_labels({"Z" + "I" * 11: 1.0})
    with pytest.raises(BudgetError):
        ground_state(h, mode="dense")
    h_big = Operator(17, [(PauliWord(17, 0, 1), 1.0)])
    with pytest.raises(BudgetError):
        ground_state(h_big, mode="iterative")


def test_expectation_diagonal():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0  # |00>, both z eigenvalues +1
    h = Operator.from_labels({"ZI": 0.5, "IZ": -0.25, "ZZ": 1.0})
    assert expectation(v, h) == pytest.approx(0.5 - 0.25 + 1.0)


def test_expectation_eigenvector(rng):
    h = random_operator(rng, 3, 6)
    evals, evecs = np.linalg.eigh(dense_op(h))
    assert expectation(evecs[:, 2], h) == pytest.approx(evals[2])


def test_expectation_random_dense(rng):
    for _ in range(25):
        h = random_operator(rng, 3, 6)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v /= np.linalg.norm(v)
        assert expectation(v, h) == pytest.approx(
            float((v.conj() @ dense_op(h) @ v).real), abs=1e-12
        )


def test_ground_state_variational_bound(rng):
    # product-state energies can never undercut the exact ground energy
    from iqcc.product_state import BlochState, energy

    for _ in range(10):
        h = random_operator(rng, 4, 12)
        e0, _ = ground_state(h)
        s = BlochState(rng.uniform(0, np.pi, 4), rng.uniform(0, 2 * np.pi, 4))
        assert energy(s, h) >= e0 - 1e-10
