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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse.linalg import ArpackNoConvergence

from iqcc import exact
from iqcc.exact import (
    BudgetError,
    apply_operator,
    dense_matrix,
    expectation,
    ground_state,
)
from iqcc.fermion import jordan_wigner
from iqcc.pauli import Operator, PauliWord, y_parity

from conftest import (
    capacity_operator,
    dense_op,
    dense_word,
    random_integrals,
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
    out = apply_operator(Operator(3, [(PauliWord.from_label("III"), 1.0)]), v)
    assert np.allclose(out, v)


def test_apply_word_flips_qubit_zero():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0  # |00>
    out = apply_operator(Operator(2, [(PauliWord.from_label("XI"), 1.0)]), v)
    expected = np.zeros(4, dtype=complex)
    expected[1] = 1.0  # qubit 0 flipped
    assert np.allclose(out, expected)


def test_apply_word_random_dense(rng):
    for _ in range(50):
        w = random_word(rng, 3)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.allclose(apply_operator(Operator(3, [(w, 1.0)]), v), dense_word(w) @ v, atol=1e-12)


def test_apply_word_norm_preserving(rng):
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    v /= np.linalg.norm(v)
    w = random_word(rng, 4)
    assert np.linalg.norm(apply_operator(Operator(4, [(w, 1.0)]), v)) == pytest.approx(1.0)


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


def _tolerance(h: Operator) -> float:
    """Rounding allowed between two summation orders of h @ v for |v| of a few units."""
    return 1e-12 * (1.0 + float(np.abs(h.coefficients).sum()))


@pytest.mark.parametrize("n, blocks", [(5, 2), (6, 8), (8, 16)])
def test_shared_matvec_bits_do_not_depend_on_the_cpu_count(rng, monkeypatch, helpers, n, blocks):
    # blocks > _CHUNKS rebuilds each chunk in several row blocks; a block never spans two chunks;
    # one chunk per stored entry, so that these small operators run the most chunks
    monkeypatch.setattr(exact, "_CHUNK_ENTRIES", 1)
    for odd_y in (False, True):
        h = _operator(rng, n, odd_y)
        monkeypatch.setattr(exact, "_BLOCK_ENTRIES", exact._MatrixRows(h).runs * (1 << n) // blocks)
        rows = exact._MatrixRows(h)
        assert rows.block == (1 << n) // max(blocks, exact._CHUNKS) and rows.span == (1 << n) // exact._CHUNKS
        vs = [rng.standard_normal(1 << n), rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)]
        full = dense_matrix(h)
        want = [exact.make_matvec(h)(v) for v in vs]
        for v, out in zip(vs, want):
            assert out.dtype == (full @ v).dtype
            assert np.allclose(out, full @ v, rtol=0.0, atol=_tolerance(h))
        for budget, cpus in itertools.product((exact._DIAG_CACHE_ENTRIES, 0), (1, 2, 3)):
            monkeypatch.setattr(exact, "_DIAG_CACHE_ENTRIES", budget)
            monkeypatch.setattr(exact, "_cpus", lambda: cpus)
            matvec = exact.make_matvec(h)
            for v, out in zip(vs, want):
                got = matvec(v)
                assert got.dtype == out.dtype and np.array_equal(got, out)


@pytest.mark.parametrize("diagonal", [False, True])
def test_kept_matrix_stores_the_diagonal_and_half_the_rest(rng, monkeypatch, diagonal):
    # a budget between the stored and the whole-row count keeps the matrix: built once, never rebuilt;
    # one chunk per stored entry, so that it is built in the most chunks
    monkeypatch.setattr(exact, "_CHUNK_ENTRIES", 1)
    h = random_real_operator(rng, 7, 40)
    h = Operator(7, [(w, c) for w, c in h if w.x_mask] + ([(PauliWord(7, 0, 5), 0.3)] if diagonal else []))
    off = len(np.unique(h.x_masks[h.x_masks != 0]))
    rows, dim = exact._MatrixRows(h), 1 << 7
    assert rows.runs == off + diagonal and rows.stored == dim * (1 + off / 2) < rows.runs * dim
    monkeypatch.setattr(exact, "_DIAG_CACHE_ENTRIES", (rows.stored + rows.runs * dim) // 2)
    built, upper = [], exact._MatrixRows.upper
    monkeypatch.setattr(exact._MatrixRows, "upper", lambda self, *args: built.append(upper(self, *args)) or built[-1])
    v = rng.standard_normal(dim)
    matvec = exact.make_matvec(h)
    assert len(built) == exact._CHUNKS
    assert sum(len(diag) + len(data) for _, diag, _, _, data in built) == rows.stored
    for start, diag, indptr, cols, data in built:  # strictly upper: column i ^ x > row i
        assert np.all(cols > np.repeat(np.arange(start, start + len(diag)), np.diff(indptr)))
    for _ in range(3):
        assert np.allclose(matvec(v), dense_op(h) @ v, rtol=0.0, atol=_tolerance(h))
    assert len(built) == exact._CHUNKS
    monkeypatch.setattr(exact, "_DIAG_CACHE_ENTRIES", rows.stored - 1)  # over it: rebuilt on every call
    exact.make_matvec(h)(v)
    assert len(built) > exact._CHUNKS


def test_chunks_follow_the_stored_entries_alone(monkeypatch):
    # one chunk per _CHUNK_ENTRIES stored entries, rounded down to a power of two, at most _CHUNKS
    for h, stored, chunks in (
        (jordan_wigner(random_integrals(np.random.default_rng(0), 5)), 67_584, 1),
        (capacity_operator(10), 146_432, 2),
        (capacity_operator(11), 343_040, 4),
        (capacity_operator(13), 1_736_704, 8),
    ):
        for cpus in (1, 2, 3):
            monkeypatch.setattr(exact, "_cpus", lambda: cpus)
            rows = exact._MatrixRows(h)
            assert (rows.stored, rows.dim // rows.span) == (stored, chunks)
            assert rows.block <= rows.dim // exact._CHUNKS  # the row block does not grow with the chunk
    # one chunk runs on the calling thread alone
    monkeypatch.setattr(exact, "_pool", None)
    monkeypatch.setattr(exact, "_cpus", lambda: 2)
    h = capacity_operator(7)
    exact.make_matvec(h)(np.ones(1 << 7))
    assert exact._MatrixRows(h).span == 1 << 7 and exact._pool is None


def test_real_operator_applies_to_a_complex_state_in_real_arithmetic(rng, monkeypatch):
    # the bits of the complex product (the matrix typed complex), without complex kernels
    init = exact._MatrixRows.__init__

    def complex_init(self, h):
        init(self, h)
        self.low = self.low.astype(np.complex128)

    kernels = exact._sparsetools
    seen = set()

    def spy(kernel):
        def run(*args):
            seen.update(a.dtype for a in args[4:])  # data, x and y
            return kernel(*args)

        return run

    for entries, n in ((exact._CHUNK_ENTRIES, 7), (1, 7), (1, 3)):  # one chunk, eight, one per row
        monkeypatch.setattr(exact, "_CHUNK_ENTRIES", entries)
        h = _operator(rng, n, False)
        v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        with monkeypatch.context() as m:
            m.setattr(exact._MatrixRows, "__init__", complex_init)
            want = exact.make_matvec(h)(v)
        with monkeypatch.context() as m:
            spies = mock.Mock(csr_matvec=spy(kernels.csr_matvec), csc_matvec=spy(kernels.csc_matvec))
            m.setattr(exact, "_sparsetools", spies)
            got = exact.make_matvec(h)(v)
        assert got.dtype == want.dtype == np.complex128 and np.array_equal(got, want)
        assert seen == {np.dtype(np.float64)}
        assert np.allclose(got, dense_op(h) @ v, rtol=0.0, atol=_tolerance(h))


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
    monkeypatch.setattr(exact, "_CHUNK_ENTRIES", 1)  # eight chunks, so that helpers are asked for
    h = _operator(rng, 7, False)
    v = rng.standard_normal(1 << 7)
    want, kept = dense_matrix(h) @ v, []
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
            kept.append(exact.make_matvec(h)(v))
            assert time.perf_counter() - start < 10.0 and not release.is_set()
            assert np.array_equal(kept[-1], kept[0])
            assert np.allclose(kept[-1], want, rtol=0.0, atol=_tolerance(h))
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
    monkeypatch.setattr(exact, "_CHUNK_ENTRIES", 1)  # eight chunks
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


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(operator_vector_word())
def test_matvec_matches_dense_oracle(helpers, case):
    # one to three CPUs on both sides of the cache budget (the same bits), the dense matrix
    # and one word applied alone against Kronecker products; n = 1 leaves three CPUs more threads than chunks,
    # and one chunk per stored entry gives these small operators the most chunks
    h, v, w = case
    real = not any(y_parity(t) for t, _ in h)
    outs = []
    for cpus in (1, 2, 3):
        with mock.patch.object(exact, "_cpus", lambda: cpus), mock.patch.object(exact, "_CHUNK_ENTRIES", 1):
            outs.append(exact.make_matvec(h)(v))
            with mock.patch.object(exact, "_DIAG_CACHE_ENTRIES", 0), mock.patch.object(exact, "_BLOCK_ENTRIES", 1):
                outs.append(exact.make_matvec(h)(v))
    kept = outs[0]
    assert kept.dtype == (np.float64 if real and v.dtype == np.float64 else np.complex128)
    for out in outs:
        assert out.dtype == kept.dtype and np.array_equal(out, kept)
    assert np.allclose(kept, dense_op(h) @ v, rtol=0.0, atol=1e-12)
    mat = dense_matrix(h)
    assert mat.dtype == (np.float64 if real else np.complex128)
    assert np.allclose(mat, dense_op(h), rtol=0.0, atol=1e-12)
    assert np.allclose(kept, mat @ v, rtol=0.0, atol=_tolerance(h))
    if real:
        assert np.allclose(kept, run_matvec(h, v), rtol=0.0, atol=_tolerance(h))
    out = apply_operator(Operator(h.n_qubits, [(w, 1.0)]), v)
    assert out.dtype == (np.float64 if not y_parity(w) and v.dtype == np.float64 else np.complex128)
    assert np.allclose(out, dense_word(w) @ v, rtol=0.0, atol=1e-12)


def test_dense_matrix_matches_kron_oracle(rng):
    for odd_y, dtype in ((False, np.float64), (True, np.complex128)):
        for _ in range(20):
            h = _operator(rng, 4, odd_y)
            mat = dense_matrix(h)
            assert mat.dtype == dtype
            assert np.allclose(mat, dense_op(h), atol=1e-12)


@pytest.mark.parametrize("blocks", [1, 4])
def test_dense_matrix_writes_out_the_stored_half(rng, monkeypatch, blocks):
    # the diagonal and upper triangle are, bit for bit, the entries the kept matvec stores (eight
    # chunks, each in `blocks` row blocks), the lower triangle their conjugates, the rest zero
    n = 6
    monkeypatch.setattr(exact, "_CHUNK_ENTRIES", 1)
    for odd_y, diagonal in itertools.product((False, True), repeat=2):
        h = _operator(rng, n, odd_y)
        h = Operator(n, [(w, c) for w, c in h if w.x_mask] + ([(PauliWord(n, 0, 5), 0.3)] if diagonal else []))
        monkeypatch.setattr(exact, "_BLOCK_ENTRIES", exact._MatrixRows(h).runs * (1 << n) // (exact._CHUNKS * blocks))
        rows = exact._MatrixRows(h)
        assert rows.diagonal == diagonal and rows.span == rows.block * blocks == (1 << n) // exact._CHUNKS
        mat = dense_matrix(h)
        assert mat.dtype == rows.low.dtype and np.array_equal(mat, mat.conj().T)
        seen = np.eye(1 << n, dtype=bool)
        for start, diag, indptr, cols, data in (rows.upper(s, rows.span) for s in range(0, rows.dim, rows.span)):
            i = np.repeat(np.arange(start, start + len(diag)), np.diff(indptr))
            assert np.diagonal(mat)[start : start + len(diag)].real.tobytes() == diag.tobytes()
            assert mat[i, cols].tobytes() == data.tobytes()
            assert mat[cols, i].tobytes() == data.conj().tobytes()
            seen[i, cols] = seen[cols, i] = True
        assert not np.diagonal(mat).imag.any() and not mat[~seen].any()
        assert np.allclose(mat, dense_op(h), rtol=0.0, atol=1e-12)


def test_dense_matrix_budget_refusal(monkeypatch):
    # above the dense limit it raises before anything is built or allocated
    monkeypatch.setattr(exact, "_MatrixRows", lambda h: pytest.fail("matrix rows built"))
    with pytest.raises(BudgetError, match="dense mode limited to 10 qubits, got 11"):
        dense_matrix(Operator(11, [(PauliWord(11, 1, 1), 1.0)]))


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
        e, v = ground_state(h, mode="dense")
        assert abs(ground_state(h, mode="iterative")[0] - e) < 1e-10
        # the dense solve's one pair is a unit eigenvector with its energy
        assert v.shape == (1 << n,) and abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.linalg.norm(apply_operator(h, v) - e * v) < 1e-9


@pytest.mark.parametrize("n", [2, 6, 9])
def test_auto_solves_dense_below_the_dense_limit(n):
    rng = np.random.default_rng(n)
    for odd_y in (False, True):
        h = _operator(rng, n, odd_y)
        (e, v), (ed, vd) = ground_state(h), ground_state(h, mode="dense")
        assert e == ed and np.array_equal(v, vd)


@pytest.mark.parametrize(
    "make", [lambda: jordan_wigner(random_integrals(np.random.default_rng(0), 5)), lambda: capacity_operator(10)]
)
def test_auto_solves_iterative_from_the_dense_limit(make):
    h = make()
    assert h.n_qubits == exact.DENSE_QUBIT_LIMIT
    (e, v), (ei, vi) = ground_state(h), ground_state(h, mode="iterative")
    assert e == ei and np.array_equal(v, vi)
    assert abs(e - ground_state(h, mode="dense")[0]) < 1e-10


def test_auto_falls_back_to_dense_at_the_dense_limit_only():
    # at |E| ~ 5e6 float64 leaves the residual above 1e-9 even at machine precision
    h = jordan_wigner(random_integrals(np.random.default_rng(0), 5)) * 1e6
    with pytest.raises(ArithmeticError, match="residual"):
        ground_state(h, mode="iterative")
    e, v = ground_state(h)
    ed, vd = ground_state(h, mode="dense")
    assert e == ed and np.array_equal(v, vd)
    # the same operator with a qubit more is past the dense limit: the miss is raised
    wide = Operator(11, [(PauliWord(11, w.x_mask, w.z_mask), c) for w, c in h] + [(PauliWord(11, 1 << 10, 0), 1.0)])
    with pytest.raises(ArithmeticError, match="residual"):
        ground_state(wide)


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
