"""Product-state expectations, analytic gradients and mean-field search."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqcc.exact import ground_state
from iqcc.pauli import DimensionError, Operator, PauliWord
from iqcc.product_state import (
    BlochState,
    PurifiedReference,
    _block_index,
    energy,
    energy_and_gradient,
    purify,
    qmf_minimize,
    reference_state,
)

from conftest import (
    dense_op,
    expect_word,
    loop_block_tables,
    product_state_vector,
    random_operator,
    random_word,
    reference_expectation,
    rowwise_energy,
    rowwise_energy_and_gradient,
    shift_letter_codes,
)


def _statevector_expectation(s: BlochState, h: Operator) -> float:
    v = product_state_vector(s.theta, s.phi)
    return float((v.conj() @ dense_op(h) @ v).real)


def test_expect_word_aligned_z():
    s = BlochState(np.array([0.0]), np.array([0.0]))
    assert expect_word(s, PauliWord.from_label("Z")) == pytest.approx(1.0)


def test_expect_word_zero_for_flip_on_pole(rng):
    s = BlochState(np.array([0.0, 1.1]), np.array([0.3, 2.2]))
    assert expect_word(s, PauliWord.from_label("XZ")) == pytest.approx(0.0)


def test_expect_word_random_statevector(rng):
    for _ in range(50):
        theta = rng.uniform(0, math.pi, 3)
        phi = rng.uniform(0, 2 * math.pi, 3)
        s = BlochState(theta, phi)
        w = random_word(rng, 3)
        v = product_state_vector(theta, phi)
        from conftest import dense_word

        expected = float((v.conj() @ dense_word(w) @ v).real)
        assert expect_word(s, w) == pytest.approx(expected, abs=1e-12)


def test_energy_identity_and_pole():
    s = BlochState(np.array([math.pi]), np.array([0.0]))
    assert energy(s, Operator.from_labels({"I": 4.2})) == pytest.approx(4.2)
    assert energy(s, Operator.from_labels({"Z": 1.0})) == pytest.approx(-1.0)


def test_energy_random_statevector(rng):
    for _ in range(25):
        h = random_operator(rng, 4, 10)
        s = BlochState(rng.uniform(0, math.pi, 4), rng.uniform(0, 2 * math.pi, 4))
        assert energy(s, h) == pytest.approx(_statevector_expectation(s, h), abs=1e-12)


def test_energy_dimension_mismatch():
    s = BlochState(np.zeros(2), np.zeros(2))
    with pytest.raises(DimensionError):
        energy(s, Operator.from_labels({"Z": 1.0}))
    with pytest.raises(DimensionError):
        expect_word(s, PauliWord.from_label("Z"))


def test_gradient_matches_finite_differences(rng):
    step = 1e-5
    for _ in range(20):
        h = random_operator(rng, 4, 10)
        theta = rng.uniform(0.1, math.pi - 0.1, 4)
        phi = rng.uniform(0, 2 * math.pi, 4)
        _, gt, gp = energy_and_gradient(BlochState(theta, phi), h)
        for j in range(4):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += step
            tm[j] -= step
            fd = (energy(BlochState(tp, phi), h) - energy(BlochState(tm, phi), h)) / (2 * step)
            assert gt[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)
            pp, pm = phi.copy(), phi.copy()
            pp[j] += step
            pm[j] -= step
            fd = (energy(BlochState(theta, pp), h) - energy(BlochState(theta, pm), h)) / (2 * step)
            assert gp[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_gradient_handles_exact_zero_factors():
    # theta = 0 makes every x/y factor exactly zero; partials must stay finite
    h = Operator.from_labels({"XX": 1.0, "ZI": 0.5})
    s = BlochState(np.zeros(2), np.zeros(2))
    e, gt, gp = energy_and_gradient(s, h)
    assert e == pytest.approx(0.5)
    assert np.all(np.isfinite(gt)) and np.all(np.isfinite(gp))

    # theta_0 = 0 zeroes only the qubit-0 factor of XZ and XX, so d/dtheta_0
    # is the product over their other factors
    h = Operator.from_labels({"XZ": 0.8, "XX": -0.6, "ZI": 0.5})
    theta, phi = np.array([0.0, 0.7]), np.array([0.4, 1.3])
    _, gt, gp = energy_and_gradient(BlochState(theta, phi), h)
    assert gt[0] == pytest.approx(math.cos(0.4) * (0.8 * math.cos(0.7) - 0.6 * math.sin(0.7) * math.cos(1.3)))
    step = 1e-6
    for j in range(2):
        d = np.zeros(2)
        d[j] = step
        fd_t = (energy(BlochState(theta + d, phi), h) - energy(BlochState(theta - d, phi), h)) / (2 * step)
        fd_p = (energy(BlochState(theta, phi + d), h) - energy(BlochState(theta, phi - d), h)) / (2 * step)
        assert gt[j] == pytest.approx(fd_t, abs=1e-8)
        assert gp[j] == pytest.approx(fd_p, abs=1e-8)

    # a subnormal factor (sin 5e-324) next to a zero one
    h = Operator.from_labels({"XZX": 1.0, "IZX": 1.0})
    _, gt, _ = energy_and_gradient(BlochState(np.array([0.0, 1.0, 5e-324]), np.zeros(3)), h)
    assert gt == pytest.approx([0.0, 0.0, math.cos(1.0)], abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_block_index_matches_shift_reference(data):
    n = data.draw(st.integers(1, 64))
    # the top qubit's bit (bit 63 at 64 qubits) set in some words
    masks = st.one_of(st.integers(0, (1 << n) - 1), st.just(1 << (n - 1)), st.just((1 << n) - 1))
    words = data.draw(st.lists(st.tuples(masks, masks), max_size=20))
    h = Operator(n, [(PauliWord(n, x, z), 1.0) for x, z in words])
    index = _block_index(h)
    blocks = -(-n // 4)
    # letter codes x + 2z, padded with identity to whole blocks of four
    letters = np.zeros((len(h), 4 * blocks), dtype=np.intp)
    letters[:, :n] = shift_letter_codes(h) % 4
    want = (letters.reshape(len(h), blocks, 4) << 2 * np.arange(4)).sum(axis=2) + 256 * np.arange(blocks)
    assert index.dtype == np.intp and index.shape == (blocks, len(h))
    assert np.array_equal(index, want.T)
    assert not index.flags.writeable


# exact poles make x, y or z factors exactly zero, one or several per term
ANGLES = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]), st.floats(0.0, 2 * math.pi))


@st.composite
def state_and_operator(draw):
    # up to 9 qubits: one block, a padded second block, and three blocks
    n = draw(st.integers(1, 9))
    theta = np.array(draw(st.lists(ANGLES, min_size=n, max_size=n)))
    phi = np.array(draw(st.lists(ANGLES, min_size=n, max_size=n)))
    masks = st.integers(0, (1 << n) - 1)
    terms = draw(st.lists(st.tuples(masks, masks, st.floats(-2.0, 2.0)), min_size=1, max_size=12))
    return BlochState(theta, phi), Operator(n, [(PauliWord(n, x, z), c) for x, z, c in terms])


@settings(max_examples=150, deadline=None)
@given(state_and_operator())
def test_energy_and_gradient_match_statevector_oracle(case):
    s, h = case
    n = h.n_qubits
    matrix = dense_op(h)

    def expectation(theta, phi):
        v = product_state_vector(theta, phi)
        return float((v.conj() @ matrix @ v).real)

    e, gt, gp = energy_and_gradient(s, h)
    assert e == energy(s, h)
    assert e == pytest.approx(expectation(s.theta, s.phi), abs=1e-12)
    step = 1e-5
    for j in range(n):
        d = np.zeros(n)
        d[j] = step
        fd_t = expectation(s.theta + d, s.phi) - expectation(s.theta - d, s.phi)
        fd_p = expectation(s.theta, s.phi + d) - expectation(s.theta, s.phi - d)
        assert gt[j] == pytest.approx(fd_t / (2 * step), abs=1e-7)
        assert gp[j] == pytest.approx(fd_p / (2 * step), abs=1e-7)


@pytest.mark.parametrize("n", [13, 64])
def test_gradient_matches_finite_differences_on_many_blocks(n):
    rng = np.random.default_rng(n)
    # words of one to six letters, so that no product underflows, and one on
    # the first and last qubits
    terms = [(PauliWord(n, 1 | 1 << (n - 1), 1 << (n - 1)), 0.5)]
    for _ in range(300):
        support = rng.choice(n, rng.integers(1, 7), replace=False)
        letters = rng.integers(1, 4, support.size)  # x, z or y
        x = sum(1 << int(j) for j, c in zip(support, letters) if c & 1)
        z = sum(1 << int(j) for j, c in zip(support, letters) if c & 2)
        terms.append((PauliWord(n, x, z), rng.normal()))
    h = Operator(n, terms)
    theta, phi = rng.uniform(0.1, math.pi - 0.1, n), rng.uniform(0.0, 2.0 * math.pi, n)
    e, gt, gp = energy_and_gradient(BlochState(theta, phi), h)
    scale = 1.0 + np.abs(h.coefficients).sum()
    assert e == pytest.approx(rowwise_energy(BlochState(theta, phi), h), abs=1e-12 * scale)
    step = 1e-4
    for j in range(n):
        d = np.zeros(n)
        d[j] = step
        fd_t = (energy(BlochState(theta + d, phi), h) - energy(BlochState(theta - d, phi), h)) / (2 * step)
        fd_p = (energy(BlochState(theta, phi + d), h) - energy(BlochState(theta, phi - d), h)) / (2 * step)
        assert gt[j] == pytest.approx(fd_t, abs=1e-7 * scale)
        assert gp[j] == pytest.approx(fd_p, abs=1e-7 * scale)


# subnormal angles give subnormal x and y factors; 1e-6 on 64 qubits gives
# products that underflow with no factor below the smallest normal float
KERNEL_ANGLES = ANGLES | st.sampled_from([5e-324, -5e-324, 1e-310, 1e-6, math.pi - 1e-6])


@st.composite
def kernel_case(draw):
    n = draw(st.sampled_from([1, 64]) | st.integers(1, 8))
    theta = draw(st.lists(KERNEL_ANGLES, min_size=n, max_size=n))
    phi = draw(st.lists(KERNEL_ANGLES, min_size=n, max_size=n))
    masks = st.integers(0, (1 << n) - 1) | st.just((1 << n) - 1)
    terms = draw(st.lists(st.tuples(masks, masks, st.floats(-2.0, 2.0)), max_size=30))
    return BlochState(theta, phi), Operator(n, [(PauliWord(n, x, z), c) for x, z, c in terms])


def _assert_matches_rowwise(s: BlochState, h: Operator):
    e, gt, gp = energy_and_gradient(s, h)
    want_e, want_gt, want_gp = rowwise_energy_and_gradient(s, h)
    tol = 1e-12 * (1.0 + np.abs(h.coefficients).sum())
    assert gt.dtype == gp.dtype == np.float64 and gt.shape == gp.shape == (h.n_qubits,)
    assert abs(e - want_e) <= tol
    assert np.abs(gt - want_gt).max(initial=0.0) <= tol and np.abs(gp - want_gp).max(initial=0.0) <= tol
    # both kernels take the energy from one product vector, and a call repeats its bits
    assert np.float64(energy(s, h)).tobytes() == np.float64(e).tobytes()
    again = energy_and_gradient(s, h)
    assert np.float64(again[0]).tobytes() == np.float64(e).tobytes()
    assert again[1].tobytes() == gt.tobytes() and again[2].tobytes() == gp.tobytes()


@settings(max_examples=300, deadline=None)
@given(kernel_case())
@example((BlochState([0.0], [0.0]), Operator.zero(1)))
@example((BlochState(np.full(64, 1e-6), np.zeros(64)), Operator.zero(64)))
@example((BlochState(np.full(64, 1e-6), np.zeros(64)), Operator.from_labels({"X" * 64: 1.0, "Z" * 64: -0.5})))
def test_kernels_match_rowwise_references(case):
    _assert_matches_rowwise(*case)


@pytest.mark.parametrize("seed", [0, 1])
def test_kernels_match_rowwise_references_past_the_einsum_buffer(seed):
    # more terms than np.einsum buffers (8,192), which the reference sums with
    rng = np.random.default_rng(seed)
    n = 8
    words = rng.choice(1 << (2 * n), 12_000, replace=False)
    h = Operator._from_raw(n, words >> n, words & ((1 << n) - 1), rng.normal(size=len(words)))
    assert len(h) > 8192
    theta, phi = rng.uniform(0.0, math.pi, n), rng.uniform(0.0, 2.0 * math.pi, n)
    _assert_matches_rowwise(BlochState(theta, phi), h)
    theta[[1, 4]], phi[[2, 5]] = 0.0, 0.0  # exact zero factors
    theta[6] = 5e-324  # subnormal ones
    _assert_matches_rowwise(BlochState(theta, phi), h)


def test_bloch_state_copies_its_angles():
    th, ph = np.array([0.3, 1.0]), np.array([0.0, 0.0])
    s = BlochState(th, ph)
    assert th.flags.writeable and ph.flags.writeable
    assert not s.theta.flags.writeable and not s.phi.flags.writeable
    th[0] = 2.0
    assert s.theta[0] == 0.3

    # a state built from views of one array does not follow writes to it
    zi = Operator.from_labels({"ZI": 1.0})
    x = np.array([0.3, 1.0, 0.0, 0.0])
    s = BlochState(x[:2], x[2:])
    e, gt, gp = energy_and_gradient(s, zi)
    assert energy(s, zi) == e == pytest.approx(math.cos(0.3))
    x[0] = 2.0
    assert s.theta[0] == 0.3 and energy(s, zi) == e
    assert np.array_equal(energy_and_gradient(s, zi)[1], gt)


def test_bloch_state_equality_is_identity_and_it_hashes():
    s, t = BlochState(np.zeros(2), np.zeros(2)), BlochState(np.zeros(2), np.zeros(2))
    assert s == s and s != t
    assert hash(s) == hash(s) and len({s, t, s}) == 2


def test_block_tables_are_built_once_read_only_and_per_state():
    # five qubits: a full block and one padded with three identity slots
    s = BlochState(np.array([0.3, 4.0, 5e-324, 1.2, 2.5]), np.array([7.0, -1.0, 0.0, 0.5, 3.0]))
    tables = s.block_tables
    assert tables is s.block_tables and not tables.flags.writeable
    assert tables.tobytes() == loop_block_tables(s).tobytes()
    # theta = 4 lies past pi, so normalizing moves every angle of qubit 1
    t = s.normalized()
    assert t.block_tables is not tables
    assert t.block_tables.tobytes() == loop_block_tables(t).tobytes()
    assert not np.array_equal(t.block_tables, tables)
    assert s.block_tables is tables and tables.tobytes() == loop_block_tables(s).tobytes()


def test_energy_invariant_under_phi_shift_on_diagonal_qubits(rng):
    h = Operator.from_labels({"ZX": 0.7, "ZI": 0.3})
    theta = rng.uniform(0, math.pi, 2)
    phi = rng.uniform(0, 2 * math.pi, 2)
    shifted = phi.copy()
    shifted[0] += 1.234  # qubit 0 only ever sees z or identity
    assert energy(BlochState(theta, phi), h) == pytest.approx(
        energy(BlochState(theta, shifted), h)
    )


def test_qmf_minimize_single_qubit_z():
    state, e = qmf_minimize(Operator.from_labels({"Z": 1.0}), n_guesses=4, rng_seed=1)
    assert e == pytest.approx(-1.0, abs=1e-8)
    assert state.theta[0] == pytest.approx(math.pi, abs=1e-4)


def test_qmf_minimize_single_qubit_x():
    state, e = qmf_minimize(Operator.from_labels({"X": 1.0}), n_guesses=4, rng_seed=1)
    assert e == pytest.approx(-1.0, abs=1e-8)
    assert state.theta[0] == pytest.approx(math.pi / 2, abs=1e-4)
    assert state.phi[0] == pytest.approx(math.pi, abs=1e-4)


def test_qmf_minimize_diagonal_reaches_min_entry(rng):
    h = Operator.from_labels(
        {"ZIII": 0.7, "IZII": -0.4, "IIZZ": 0.9, "ZZII": -0.2, "IIII": 0.1}
    )
    _, e = qmf_minimize(h, n_guesses=6, rng_seed=2)
    diag = np.diag(dense_op(h)).real
    assert e == pytest.approx(float(diag.min()), abs=1e-8)


def test_qmf_minimize_keeps_only_finite_minima(monkeypatch):
    import iqcc.product_state as product_state

    energies = iter([-math.inf, math.nan, 2.0, math.inf, 1.0, 3.0])
    monkeypatch.setattr(product_state, "_minimize_local", lambda h, th, ph: (BlochState(th, ph), next(energies)))
    h = Operator.from_labels({"Z": 1.0})
    assert qmf_minimize(h, n_guesses=6)[1] == 1.0
    energies = iter([-math.inf, math.nan, math.inf])
    with pytest.raises(ArithmeticError, match="no mean-field start of 3 reached a finite energy"):
        qmf_minimize(h, n_guesses=3)


def test_qmf_minimize_raises_when_the_energy_overflows():
    # where the energy stays finite, the slope overflows (the tenth start), which fails the start too
    h = Operator.from_labels({"ZI": 1e308, "IZ": 1e308, "XX": 1.0})
    for n_guesses in (1, 10):
        with pytest.raises(ArithmeticError, match=f"no mean-field start of {n_guesses} reached a finite energy"):
            qmf_minimize(h, n_guesses=n_guesses, rng_seed=0)


def test_qmf_energy_above_ground(rng):
    for seed in range(5):
        h = random_operator(rng, 4, 12)
        _, e = qmf_minimize(h, n_guesses=4, rng_seed=seed)
        e0, _ = ground_state(h)
        assert e >= e0 - 1e-9


def test_purify_poles_and_tiebreak():
    s = BlochState(np.array([0.0, math.pi]), np.zeros(2))
    assert purify(s).bits == (1, -1)
    s = BlochState(np.array([math.pi / 2 - 1e-9, math.pi / 2]), np.zeros(2))
    assert purify(s).bits == (1, 1)
    # outside [0, pi] the sign of <z> = cos(theta) decides
    s = BlochState(np.array([5.0, -0.1, 4.0]), np.zeros(3))
    assert purify(s).bits == (1, 1, -1)


def test_purify_maximizes_overlap(rng):
    for _ in range(20):
        theta = rng.uniform(0, math.pi, 3)
        phi = rng.uniform(0, 2 * math.pi, 3)
        ref = purify(BlochState(theta, phi))
        v = product_state_vector(theta, phi)
        from conftest import basis_state_vector

        overlap = abs(np.vdot(basis_state_vector(ref.bits), v)) ** 2
        expected = np.prod(np.maximum(np.cos(theta / 2) ** 2, np.sin(theta / 2) ** 2))
        assert overlap == pytest.approx(float(expected), abs=1e-12)


def test_flip_words_vanish_on_reference(rng):
    ref = PurifiedReference((1, -1, 1))
    for _ in range(20):
        w = random_word(rng, 3)
        h = Operator(3, [(w, 1.0)])
        if w.x_mask:
            assert reference_expectation(ref, h) == 0.0
        else:
            s = reference_state(ref)
            assert reference_expectation(ref, h) == pytest.approx(energy(s, h))


def test_reference_state_round_trip():
    ref = PurifiedReference((1, -1, -1, 1))
    assert purify(reference_state(ref)).bits == ref.bits
