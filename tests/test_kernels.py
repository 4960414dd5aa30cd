"""Vectorised bitmask kernels against the scalar word algebra, on random input.

Words span up to 64 qubits, so the uint64 masks' top bit is exercised.
"""

import gc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqcc import pauli
from iqcc.compression import compress
from iqcc.dressing import DressingStep, dress_sequence
from iqcc.fermion import _REALITY_TOL, QubitAssignment, jordan_wigner, parity_map, parse_integrals, reduce_qubits
from iqcc.pauli import (
    MERGE_TOL,
    DimensionError,
    Operator,
    PauliWord,
    _canonical_arrays,
    anticommuting,
    commutes,
    flip_runs,
    mask_bits,
    mask_product,
    parity_signs,
    rotate,
    word_products,
)
from iqcc.product_state import _block_index
from iqcc.screening import partition_sectors

from conftest import commutator_terms, concat_rotate, lexsort_canonical_arrays, unique_flip_runs

N_QUBITS = st.integers(1, 64)
FIXTURE = Path(__file__).parent / "fixtures" / "h2_sto3g.fcidump"


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
    # word_products on array pairs: h's words times the same words reversed
    xs, zs = h.x_masks, h.z_masks
    x, z, k = word_products(xs, zs, xs[::-1], zs[::-1])
    pairs = zip(xs.tolist(), zs.tolist(), xs[::-1].tolist(), zs[::-1].tolist())
    assert list(zip(x.tolist(), z.tolist(), k.tolist())) == [mask_product(*pair) for pair in pairs]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_flip_runs_match_naive_group_by(data):
    n = data.draw(N_QUBITS)
    h = Operator(n, [(w, 1.0) for w in data.draw(words(n))])
    runs = {}
    for i, x in enumerate(h.x_masks.tolist()):
        runs.setdefault(x, []).append(i)
    run_x, bounds = flip_runs(h)
    assert len(bounds) == len(run_x) + 1
    edges = bounds.tolist()
    assert [(x, list(range(a, b))) for x, a, b in zip(run_x.tolist(), edges, edges[1:])] == list(runs.items())
    assert all(mask_bits(x) == {j for j in range(n) if (x >> j) & 1} for x in runs)


def _assert_same_arrays(got, want):
    assert [a.dtype for a in got] == [a.dtype for a in want]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_flip_runs_empty_and_single():
    run_x, bounds = flip_runs(Operator.zero(3))
    assert run_x.tolist() == [] and bounds.tolist() == [0]
    run_x, bounds = flip_runs(Operator.from_labels({"XIY": 0.5}))
    assert run_x.tolist() == [0b101] and bounds.tolist() == [0, 1]
    for n in (1, 64):
        for h in (Operator.zero(n), Operator(n, [(PauliWord(n, (1 << n) - 1, 1), 0.5)])):
            _assert_same_arrays(flip_runs(h), unique_flip_runs(h))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_flip_runs_match_unique_reference(data):
    n = data.draw(N_QUBITS)
    h = Operator(n, [(w, 1.0) for w in data.draw(words(n))])
    _assert_same_arrays(flip_runs(h), unique_flip_runs(h))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, (1 << 64) - 1), max_size=20), st.integers(0, (1 << 64) - 1))
def test_parity_signs_match_bit_count(values, mask):
    signs = parity_signs(np.array(values, dtype=np.uint64), np.uint64(mask))
    assert signs.dtype == np.float64
    assert signs.tolist() == [(-1.0) ** (v & mask).bit_count() for v in values]


# signed zeros, dust on each side of both merge tolerances, and ordinary values
COEFFS = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 5e-13, -5e-13, MERGE_TOL, 5e-11, -2e-10]))


def _assert_same_canonical(got, want):
    assert [a.dtype for a in got] == [a.dtype for a in want]
    assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
    assert got[2].tobytes() == want[2].tobytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_canonical_arrays_match_lexsort_reference(data):
    n = data.draw(N_QUBITS)
    masks = st.integers(0, (1 << n) - 1)
    # terms drawn from a few words, so words repeat, in drawn (unsorted) order
    pool = data.draw(st.lists(st.tuples(masks, masks), min_size=1, max_size=6))
    terms = data.draw(st.lists(st.tuples(st.sampled_from(pool), COEFFS), max_size=40))
    xs = np.array([x for (x, _), _ in terms], dtype=np.uint64)
    zs = np.array([z for (_, z), _ in terms], dtype=np.uint64)
    cs = np.array([c for _, c in terms], dtype=np.float64)
    tol = data.draw(st.sampled_from([MERGE_TOL, _REALITY_TOL]))
    _assert_same_canonical(_canonical_arrays(xs, zs, cs, tol), lexsort_canonical_arrays(xs, zs, cs, tol))


@pytest.mark.parametrize("n, packed", [(32, True), (33, False)])
def test_canonical_arrays_pack_keys_only_when_they_fit_in_64_bits(monkeypatch, n, packed):
    # bit n - 1 set in x and z: the packed key needs 2n bits
    rng = np.random.default_rng(n)
    top = np.uint64(1 << (n - 1))
    words = top | rng.integers(0, 1 << (n - 1), size=(6, 2), dtype=np.uint64)
    picks = rng.integers(0, 6, size=60)
    xs, zs = words[picks, 0], words[picks, 1]
    cs = rng.choice([1.0, -1.0, 0.1, 5e-13, -0.0], size=60)
    want = lexsort_canonical_arrays(xs, zs, cs)
    lexsort, calls = np.lexsort, []
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(keys) or lexsort(keys))
    _assert_same_canonical(_canonical_arrays(xs, zs, cs), want)
    assert (not calls) == packed


# rotation factors: signed zeros, values that leave spawned terms as dust, +-1
# and 1/2 (which cancel words exactly), and ordinary values
FACTORS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-13, -1e-13]), st.floats(-1.0, 1.0))


def _assert_same_operator(got, want):
    assert got.n_qubits == want.n_qubits
    assert got.x_masks.tolist() == want.x_masks.tolist() and got.z_masks.tolist() == want.z_masks.tolist()
    assert got.coefficients.tobytes() == want.coefficients.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_memoized_rotate_matches_concatenating_reference(data):
    # few qubits make spawned words land on existing ones
    n = data.draw(st.integers(1, 3) | N_QUBITS)
    terms = data.draw(words(n, max_size=20))
    coeffs = data.draw(st.lists(
        st.sampled_from([1.0, -1.0, 0.5]) | st.floats(-2.0, 2.0), min_size=len(terms), max_size=len(terms)
    ))
    h = Operator(n, zip(terms, coeffs))
    gens = [(p, data.draw(st.booleans())) for p in data.draw(words(n, min_size=1, max_size=3))]
    # every pass after the first finds the plans of h and of the results
    # sharing its memo, which the passes before it made
    for _ in range(data.draw(st.integers(1, 4))):
        got = want = h
        for p, commuting in gens:
            a, b = data.draw(FACTORS), data.draw(FACTORS)
            got, want = rotate(got, p, a, b, commuting), concat_rotate(want, p, a, b, commuting)
            _assert_same_operator(got, want)


# (a, b) pairs that move the dust pattern of a rotation of X - Y + Z/4 by Z,
# signed zeros among them
DUST_OPERATOR = {"X": 1.0, "Y": -1.0, "Z": 0.25}
DUST_STEPS = [
    (0.5, 0.25), (1e-13, 1e-13), (0.5, 0.25), (1.0, 1.0), (-0.0, 1.0), (0.5, 0.0), (0.5, -0.0), (-0.0, -0.0),
    (0.5, 0.25),
]


def test_memoized_rotate_follows_the_dust_pattern():
    # X and Y anticommute with Z and spawn -c Y and +c X: the X coefficient is
    # a - b and the Y one -(a + b), so a = b cancels X, and tiny a and b leave dust
    h = Operator.from_labels(DUST_OPERATOR)
    z = PauliWord.from_label("Z")
    for a, b in DUST_STEPS:
        for commuting in (True, False):
            _assert_same_operator(rotate(h, z, a, b, commuting), concat_rotate(h, z, a, b, commuting))


def test_warm_rotations_derive_no_words(monkeypatch):
    # the operator and sequence of test_memoized_rotate_follows_the_dust_pattern
    h = Operator.from_labels(DUST_OPERATOR)
    z = PauliWord.from_label("Z")
    for commuting in (True, False):
        rotate(h, z, 0.5, 0.25, commuting)
    calls = []
    for name in ("anticommuting", "word_products", "_merge_plan"):
        f = getattr(pauli, name)
        monkeypatch.setattr(pauli, name, lambda *args, name=name, f=f: calls.append(name) or f(*args))
    for a, b in DUST_STEPS:
        for commuting in (True, False):
            rotate(h, z, a, b, commuting)
    assert calls == []


def test_rotate_checks_qubit_counts_with_a_warm_memo():
    h = Operator.from_labels({"XZ": 1.0, "ZZ": 0.5})
    p = PauliWord.from_label("ZI")
    rotate(h, p, 0.5, 0.25)
    with pytest.raises(DimensionError):
        rotate(h, PauliWord(3, p.x_mask, p.z_mask), 0.5, 0.25)


def test_rotation_memo_lives_with_its_operators():
    h = Operator.from_labels({"XZ": 1.0, "ZZ": 0.5, "IZ": 0.25})
    p, q = PauliWord.from_label("ZI"), PauliWord.from_label("IX")
    out = rotate(rotate(h, p, 0.6, 0.8), q, 0.6, 0.8)
    # a later call with the same dust pattern reuses the words and their memo
    again = rotate(rotate(h, p, 0.8, 0.6), q, 0.8, 0.6)
    assert again.x_masks is out.x_masks and again._memo is out._memo
    index = out._memoized(_block_index)
    assert index is again._memoized(_block_index)
    assert not any(a.flags.writeable for a in (out.x_masks, out.z_masks, out.coefficients, index))
    refs = [weakref.ref(a) for a in (out.x_masks, out.z_masks, index)]
    # h's memo keeps the plans made from it and, through them, out's words
    del out, again, index
    gc.collect()
    assert all(r() is not None for r in refs)
    del h
    gc.collect()
    assert all(r() is None for r in refs)


def test_rotation_plans_keep_read_only_intp_indices():
    h = Operator.from_labels({"XZ": 1.0, "ZZ": 0.5, "IZ": 0.25, "YX": -0.75})
    p = PauliWord.from_label("ZY")
    for commuting in (True, False):
        rotate(h, p, 0.6, 0.8, commuting)
        plan = h._memo[(p.x_mask, p.z_mask, commuting)]
        for a in (plan.src, plan.word):
            assert a.dtype == np.intp and not a.flags.writeable
        assert plan.sign.dtype == np.float64 and not plan.sign.flags.writeable
        assert set(plan.sign[: plan.spawned].tolist()) == {1.0} and set(plan.sign.tolist()) <= {1.0, -1.0}
        # ZZ and IZ anticommute with ZY; the commuting XZ and YX come first when kept
        assert (plan.anti, plan.spawned, len(plan.src)) == ((2, 4, 6) if commuting else (0, 2, 4))
        for a in (plan.xs, plan.zs):
            assert a.dtype == np.uint64 and not a.flags.writeable
        # a warm call gathers through them and still merges as a fresh one
        _assert_same_operator(rotate(h, p, 0.8, -0.6, commuting), concat_rotate(h, p, 0.8, -0.6, commuting))


def test_other_word_sets_start_with_an_empty_memo():
    h = Operator.from_labels({"XZ": 1.0, "ZZ": 0.5, "IZ": 1e-9, "XX": 0.25})
    p = PauliWord.from_label("ZY")
    rotate(h, p, 0.6, 0.8)
    h._memoized(_block_index)
    # a sum, a scaling and a compression that drop terms, and a rebuilt copy
    others = [h + Operator.from_labels({"YY": 1.0}), h * 1e-4, compress(h, 0.1)[0], Operator(2, h)]
    assert [len(o) for o in others] == [5, 3, 3, 4]
    for other in others:
        assert other._memo == {}
        _assert_same_operator(rotate(other, p, 0.6, 0.8), concat_rotate(other, p, 0.6, 0.8))
        assert np.array_equal(other._memoized(_block_index), _block_index(other))
    # negation keeps the very same words, and their memo
    assert (-h)._memo is h._memo
    _assert_same_operator(rotate(-h, p, 0.6, 0.8), concat_rotate(-h, p, 0.6, 0.8))


def _assert_read_only_canonical_arrays(op):
    for a, dtype in ((op.x_masks, np.uint64), (op.z_masks, np.uint64), (op.coefficients, np.float64)):
        assert a.dtype == dtype and a.flags.c_contiguous and not a.flags.writeable


def test_every_way_to_make_an_operator_holds_read_only_canonical_arrays():
    h = Operator.from_labels({"XZ": 1.0, "ZZ": 0.5, "IZ": 0.25, "YX": -0.75})
    with FIXTURE.open() as fh:
        data = parse_integrals(fh)
    mapped = parity_map(data)
    made = [
        h,
        Operator(2, h),
        Operator.zero(2),
        Operator._from_raw(2, np.array([3, 1, 3]), np.array([0, 1, 0]), np.array([1, 2, 3])),  # int64 in
        Operator._from_raw(2, np.array([], dtype=np.int64), np.array([], dtype=np.int64), np.array([])),
        h + Operator.from_labels({"YY": 1.0}),
        h - h,
        h * 0.5,
        h * 1e-20,
        -h,
        dress_sequence(h, [DressingStep(PauliWord.from_label(w), 0.3) for w in ("ZY", "XI")]),
        compress(h, 0.1)[0],
        *(sector.terms for sector in partition_sectors(h)),
        reduce_qubits(mapped, QubitAssignment({1: 1, 3: -1})),
        jordan_wigner(data),
        mapped,
        rotate(h, PauliWord.from_label("XX"), 0.6, 0.8),  # every term commutes: h itself
        rotate(h, PauliWord.from_label("XX"), 0.6, 0.8, commuting=False),  # the zero operator
    ]
    for op in made:
        _assert_read_only_canonical_arrays(op)
    # X - Y + Z/4 rotated by Z: (0.5, 0.25) keeps every word, so the plan's own arrays; a = b cancels X,
    # a new dust pattern, and (2, 2) repeats it
    d = Operator.from_labels(DUST_OPERATOR)
    z = PauliWord.from_label("Z")
    every = rotate(d, z, 0.5, 0.25)
    plan = d._memo[(z.x_mask, z.z_mask, True)]
    assert len(every) == 3 and every.x_masks is plan.xs and every.z_masks is plan.zs
    fewer = rotate(d, z, 1.0, 1.0)
    again = rotate(d, z, 2.0, 2.0)
    assert len(fewer) == 2 and fewer.x_masks is not plan.xs
    assert again.x_masks is fewer.x_masks and again.z_masks is fewer.z_masks and again._memo is fewer._memo
    for op in (every, fewer, again):
        _assert_read_only_canonical_arrays(op)
        assert op._memo is not d._memo
