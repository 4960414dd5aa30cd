"""Statevector engine and exact solvers against dense Kronecker oracles."""

import itertools
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
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
from iqcc.pauli import Operator, PauliWord, y_parity

from conftest import (
    dense_op,
    dense_word,
    random_odd_y_word,
    random_operator,
    random_real_operator,
    random_word,
    run_matvec,
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
    monkeypatch.setattr(exact, "_BLOCK_ENTRIES", 64)
    for h, out in zip(ops, cached):
        assert exact._MatrixRows(h).block <= 8  # rebuilt in four or more row blocks
        assert np.array_equal(exact.make_matvec(h)(v), out)


@pytest.fixture
def helpers(monkeypatch):
    """A private pool of two helper threads, so that three CPUs get two."""
    pool = ThreadPoolExecutor(2)
    monkeypatch.setattr(exact, "_pool", pool)
    yield pool
    pool.shutdown()


@pytest.mark.parametrize("n, blocks", [(5, 2), (6, 8), (8, 16)])
def test_shared_matvec_bits_do_not_depend_on_the_cpu_count(rng, monkeypatch, helpers, n, blocks):
    # two row blocks leave three CPUs with more threads than chunks
    for odd_y in (False, True):
        h = _operator(rng, n, odd_y)
        monkeypatch.setattr(exact, "_BLOCK_ENTRIES", exact._MatrixRows(h).runs * (1 << n) // blocks)
        assert exact._MatrixRows(h).block == (1 << n) // blocks
        vs = [rng.standard_normal(1 << n), rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)]
        want = [exact._MatrixRows(h)(0, 1 << n) @ v for v in vs]  # one CSR matrix, one thread
        for budget, cpus in itertools.product((exact._DIAG_CACHE_ENTRIES, 0), (1, 2, 3)):
            monkeypatch.setattr(exact, "_DIAG_CACHE_ENTRIES", budget)
            monkeypatch.setattr(exact, "_cpus", lambda: cpus)
            matvec = exact.make_matvec(h)
            for v, out in zip(vs, want):
                got = matvec(v)
                assert got.dtype == out.dtype and np.array_equal(got, out)


def test_shared_hands_out_every_index_once(monkeypatch):
    # more workers than cores and a short switch interval, so that the threads interleave
    calls = []

    def fn(i):
        calls.append(i)
        return i * i

    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(4) as pool:
        monkeypatch.setattr(exact, "_pool", pool)
        sys.setswitchinterval(1e-6)
        try:
            for cpus, count in ((5, 300), (5, 2), (1, 7), (3, 1)):
                calls.clear()
                monkeypatch.setattr(exact, "_cpus", lambda: cpus)
                assert exact._shared(count, fn) == [i * i for i in range(count)]
                assert sorted(calls) == list(range(count))
        finally:
            sys.setswitchinterval(interval)


def test_shared_raises_the_error_of_a_chunk(monkeypatch, helpers):
    monkeypatch.setattr(exact, "_cpus", lambda: 3)

    def fn(i):
        if i == 5:
            raise ArithmeticError("chunk 5")
        return i

    with pytest.raises(ArithmeticError, match="chunk 5"):
        exact._shared(40, fn)


def test_matvec_does_not_wait_for_helpers_that_never_start(rng, monkeypatch):
    # the pool's only worker is blocked, so every queued helper stays pending
    monkeypatch.setattr(exact, "_BLOCK_ENTRIES", 64)
    h = _operator(rng, 7, False)
    v = rng.standard_normal(1 << 7)
    want = exact._MatrixRows(h)(0, 1 << 7) @ v
    release = threading.Event()
    valve = threading.Timer(30.0, release.set)  # frees the worker should the matvec wait after all
    pool = ThreadPoolExecutor(1)
    try:
        pool.submit(release.wait)
        valve.start()
        monkeypatch.setattr(exact, "_pool", pool)
        monkeypatch.setattr(exact, "_cpus", lambda: 2)
        for budget in (exact._DIAG_CACHE_ENTRIES, 0):
            monkeypatch.setattr(exact, "_DIAG_CACHE_ENTRIES", budget)
            start = time.perf_counter()
            assert np.array_equal(exact.make_matvec(h)(v), want)
            assert time.perf_counter() - start < 10.0 and not release.is_set()
    finally:
        release.set()
        valve.cancel()
        pool.shutdown()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_without_the_parents_pool(monkeypatch, helpers):
    monkeypatch.setattr(exact, "_cpus", lambda: 2)
    assert exact._shared(2, lambda i: i) == [0, 1] and exact._pool is helpers
    pid = os.fork()
    if pid == 0:  # the child only reads the module state and exits
        os._exit(0 if exact._pool is None else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_iterative_ground_state_bits_do_not_depend_on_the_cpu_count(rng, monkeypatch, helpers):
    monkeypatch.setattr(exact, "_BLOCK_ENTRIES", 1 << 12)
    h = random_real_operator(rng, 12, 40)
    assert exact._MatrixRows(h).block < 1 << 10  # eight or more row blocks
    solved = []
    for cpus in (1, 2):
        monkeypatch.setattr(exact, "_cpus", lambda: cpus)
        solved.append(ground_state(h, mode="iterative"))
    (e1, v1), (e2, v2) = solved
    assert e1 == e2 and np.array_equal(v1, v2)


@st.composite
def operator_vector_word(draw):
    n = draw(st.integers(1, 6))
    mask = st.integers(0, (1 << n) - 1)
    xs = draw(st.lists(mask, min_size=1, max_size=4))  # few x masks, so that flip runs are long
    word = st.builds(PauliWord, st.just(n), st.sampled_from(xs), mask)
    terms = draw(st.lists(st.tuples(word, st.floats(-2.0, 2.0)), max_size=20))
    if draw(st.booleans()):  # keep only even-y words: a real symmetric h
        terms = [(w, c) for w, c in terms if not y_parity(w)]
    v = draw(arrays(np.float64, 1 << n, elements=st.floats(-1.0, 1.0)))
    if draw(st.booleans()):
        v = v + 1j * draw(arrays(np.float64, 1 << n, elements=st.floats(-1.0, 1.0)))
    return Operator(n, terms), v, PauliWord(n, draw(mask), draw(mask))


@settings(max_examples=200, deadline=None)
@given(operator_vector_word())
def test_matvec_matches_dense_oracle(case):
    # both sides of the cache budget, the dense matrix and apply_word against Kronecker products
    h, v, w = case
    real = not any(y_parity(t) for t, _ in h)
    kept = exact.make_matvec(h)(v)
    with mock.patch.object(exact, "_DIAG_CACHE_ENTRIES", 0), mock.patch.object(exact, "_BLOCK_ENTRIES", 1):
        rebuilt = exact.make_matvec(h)(v)
    assert kept.dtype == rebuilt.dtype == (np.float64 if real and v.dtype == np.float64 else np.complex128)
    assert np.array_equal(kept, rebuilt)
    assert np.allclose(kept, dense_op(h) @ v, rtol=0.0, atol=1e-12)
    if real:
        assert np.array_equal(kept, run_matvec(h, v))
    mat = dense_matrix(h)
    assert mat.dtype == (np.float64 if real else np.complex128)
    assert np.allclose(mat, dense_op(h), rtol=0.0, atol=1e-12)
    out = apply_word(v, w)
    assert out.dtype == (np.float64 if not y_parity(w) and v.dtype == np.float64 else np.complex128)
    assert np.allclose(out, dense_word(w) @ v, rtol=0.0, atol=1e-12)


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


@pytest.mark.parametrize("n", [8, 9, 10])
def test_iterative_energy_matches_dense_to_1e_10(n):
    rng = np.random.default_rng(n)
    for odd_y in (False, True):
        h = _operator(rng, n, odd_y)
        assert abs(ground_state(h, mode="iterative")[0] - ground_state(h, mode="dense")[0]) < 1e-10


def test_a_missed_residual_resumes_once_at_machine_precision(monkeypatch):
    h = random_real_operator(np.random.default_rng(6), 6, 20)
    arpack, calls, missed = exact.eigsh, [], []

    def first_misses(*args, **kwargs):
        calls.append(kwargs)
        evals, evecs = arpack(*args, **kwargs)
        if len(calls) == 1:
            evecs = evecs + 1e-6 * np.roll(evecs, 1, axis=0)
            missed.append(evecs[:, 0] / np.linalg.norm(evecs[:, 0]))
            return evals, missed[0][:, None]
        return evals, evecs

    monkeypatch.setattr(exact, "eigsh", first_misses)
    e, v = ground_state(h, mode="iterative")
    assert [c["tol"] for c in calls] == [exact._ARPACK_TOL, 0]
    assert np.array_equal(calls[1]["v0"], missed[0])
    assert np.linalg.norm(apply_operator(h, v) - e * v) < 1e-9
    assert abs(e - ground_state(h, mode="dense")[0]) < 1e-10


def test_shifted_operator_meets_the_residual():
    # ARPACK's stopping bound is tol * |E|: the tolerance alone leaves ~1e-9 at |E| ~ 1e4
    h = random_real_operator(np.random.default_rng(1), 10, 32)
    h = h + Operator(10, [(PauliWord(10, 0, 0), 1e4)])
    e, v = ground_state(h, mode="iterative")
    assert np.linalg.norm(apply_operator(h, v) - e * v) < 1e-9
    assert abs(e - ground_state(h, mode="dense")[0]) < 1e-9


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the matrix overflows on purpose
@pytest.mark.parametrize("mode, match", [("dense", "non-finite"), ("iterative", "ARPACK failed")])
def test_overflowing_operator_is_arithmetic_error(mode, match):
    h = Operator.from_labels({"ZI": 1e308, "IZ": 1e308, "XX": 1.0})
    with pytest.raises(ArithmeticError, match=match):
        ground_state(h, mode=mode)


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
