"""Flip-sector partitioning, gradient groups, pools and sampling."""

import itertools

import numpy as np
import pytest

from iqcc.pauli import DimensionError, Operator, PauliWord, y_parity
from iqcc.product_state import PurifiedReference
from iqcc.screening import (
    OperatorPool,
    build_dis,
    dis_pool,
    fermionic_sd_pool,
    flip_set,
    partition_sectors,
    pool_gradients,
    random_group_member,
    sample_generators,
    two_qubit_pauli_pool,
)

from conftest import (
    basis_state_vector,
    dense_op,
    dense_word,
    group_members,
    random_odd_y_word,
    random_operator,
    sector_gradient,
    sector_path_dis,
)


def _dense_gradient(h: Operator, p: PauliWord, bits: tuple[int, ...]) -> float:
    """|<ref| -(i/2)[H, P] |ref>| via dense matrices."""
    v = basis_state_vector(bits)
    hd, pd = dense_op(h), dense_word(p)
    comm = -0.5j * (hd @ pd - pd @ hd)
    return abs(complex(v.conj() @ comm @ v))


def test_flip_set():
    assert flip_set(PauliWord.from_label("XIYZ")) == frozenset({0, 2})
    assert flip_set(PauliWord.from_label("ZZ")) == frozenset()
    assert flip_set(PauliWord.from_label("III")) == frozenset()


def test_partition_by_flip_sets():
    h = Operator.from_labels({"ZI": 1.0, "XX": 0.5, "YY": -0.3})
    sectors = partition_sectors(h)
    flips = {s.flips: len(s.terms) for s in sectors}
    assert flips == {frozenset(): 1, frozenset({0, 1}): 2}


def test_partition_diagonal_single_sector():
    h = Operator.from_labels({"ZZ": 1.0, "ZI": 0.5, "II": -0.2})
    sectors = partition_sectors(h)
    assert len(sectors) == 1 and sectors[0].flips == frozenset()


def test_partition_reconstructs_exactly(rng):
    for _ in range(10):
        h = random_operator(rng, 4, 15)
        total = Operator.zero(4)
        for s in partition_sectors(h):
            total = total + s.terms
            assert all(flip_set(w) == s.flips for w, _ in s.terms)
        assert total == h


def test_sector_count_bounded_by_terms(rng):
    h = random_operator(rng, 10, 825)
    assert len(partition_sectors(h)) <= len(h)


def _representatives(h: Operator) -> dict[frozenset[int], PauliWord]:
    return {g.flips: g.representative for g in build_dis(h, PurifiedReference((1,) * h.n_qubits))}


def test_dis_representative_construction():
    reps = _representatives(Operator.from_labels({"XX": 1.0}))
    assert reps[frozenset({0, 1})] == PauliWord.from_label("YX")
    reps = _representatives(Operator.from_labels({"IIXI": 1.0, "IXIX": 0.5}))
    assert reps[frozenset({2})] == PauliWord.from_label("IIYI")
    assert reps[frozenset({1, 3})] == PauliWord.from_label("IYIX")
    reps = _representatives(Operator.from_labels({"IXZXY": 1.0}))
    rep = reps[frozenset({1, 3, 4})]
    assert rep == PauliWord.from_label("IYIXX")
    assert y_parity(rep) == 1


def test_dis_representative_rejects_empty():
    # diagonal terms (the empty flip set) give no group, next to other sectors
    h = Operator.from_labels({"ZII": 1.0, "IZZ": -0.4, "III": 0.2, "XXI": 0.3})
    assert list(_representatives(h)) == [frozenset({0, 1})]


def test_sector_gradient_single_term():
    h = Operator.from_labels({"XX": 0.7})
    ref = PurifiedReference((1, 1))
    (group,) = build_dis(h, ref)
    grad = group.gradient_magnitude
    assert grad == pytest.approx(_dense_gradient(h, group.representative, ref.bits), abs=1e-12)
    assert grad == pytest.approx(0.7)


def test_even_y_generator_scores_zero(rng):
    # real Hamiltonian terms commute with matching even-y words
    h = Operator.from_labels({"XX": 0.7, "YY": -0.2})
    sector = partition_sectors(h)[0]
    ref = PurifiedReference((1, -1))
    even = PauliWord.from_label("XX")
    grad = abs(
        _dense_gradient(h, even, ref.bits)
    )
    assert grad == 0.0


def test_mismatched_flips_score_zero_on_full_hamiltonian(rng):
    h = Operator.from_labels({"XXI": 0.4, "ZZZ": 0.9})
    ref = PurifiedReference((1, 1, 1))
    w = PauliWord.from_label("YII")  # flips {0}: no matching sector
    assert _dense_gradient(h, w, ref.bits) == pytest.approx(0.0, abs=1e-14)
    ranked = dict(pool_gradients(h, ref, two_qubit_pauli_pool(), top=100))
    assert ranked[w] == 0.0
    # only the words with flips {0, 1} meet a run of h
    assert {v for v, grad in ranked.items() if grad != 0.0} == {PauliWord.from_label(s) for s in ("XYI", "YXI")}


def test_build_dis_empty_for_diagonal():
    ref = PurifiedReference((1, -1))
    for h in (Operator.zero(2), Operator.from_labels({"ZI": 1.0, "ZZ": -0.5})):
        assert build_dis(h, ref) == []
        for pool in (two_qubit_pauli_pool(), fermionic_sd_pool()):
            ranked = pool_gradients(h, ref, pool, top=100)
            assert ranked and all(grad == 0.0 for _, grad in ranked)


def test_screening_rejects_mismatched_reference():
    ref = PurifiedReference((1, 1, 1))
    for h in (Operator.zero(2), Operator.from_labels({"ZI": 1.0}), Operator.from_labels({"XX": 0.7})):
        with pytest.raises(DimensionError):
            build_dis(h, ref)
        with pytest.raises(DimensionError):
            pool_gradients(h, ref, two_qubit_pauli_pool(), top=1)


def test_build_dis_orders_by_gradient(rng):
    h = Operator.from_labels({"XXI": 0.4, "IYY": -0.9, "ZII": 1.0})
    ref = PurifiedReference((1, 1, 1))
    groups = build_dis(h, ref)
    grads = [g.gradient_magnitude for g in groups]
    assert grads == sorted(grads, reverse=True)
    assert all(g.flips for g in groups)


def test_build_dis_gradient_matches_dense(rng):
    for _ in range(10):
        h = random_operator(rng, 3, 10)
        bits = tuple(int(b) for b in rng.choice([1, -1], 3))
        ref = PurifiedReference(bits)
        for g in build_dis(h, ref):
            assert g.gradient_magnitude == pytest.approx(
                _dense_gradient(h, g.representative, bits), abs=1e-10
            )
        for pool in (two_qubit_pauli_pool(), fermionic_sd_pool()):
            ranked = pool_gradients(h, ref, pool, top=1000)
            assert len(ranked) == len(pool.words(3)[0])
            for w, grad in ranked:
                assert grad == pytest.approx(_dense_gradient(h, w, bits), abs=1e-10)


def _long_run_operator(rng, n: int, n_runs: int) -> Operator:
    """Random operator whose off-diagonal flip runs hold 16 to 40 terms each."""
    terms = []
    for x in rng.choice(np.arange(1, 1 << n), size=n_runs, replace=False):
        for z in rng.choice(1 << n, size=int(rng.integers(16, 41)), replace=False):
            terms.append((PauliWord(n, int(x), int(z)), float(rng.normal())))
    terms += [(PauliWord(n, 0, int(z)), float(rng.normal())) for z in range(1 << n)]
    return Operator(n, terms)


def test_screening_equals_sector_path_bit_for_bit(rng):
    # runs of 16 or more terms reach the blocked summation of the dot product,
    # where a different summation order would move the last bits
    for _ in range(5):
        h = _long_run_operator(rng, 7, 6)
        ref = PurifiedReference(tuple(int(b) for b in rng.choice([1, -1], 7)))
        assert build_dis(h, ref) == sector_path_dis(h, ref)
        # random words, and words on the runs of h with random z letters
        words = [random_odd_y_word(rng, 7) for _ in range(40)]
        words += [PauliWord(7, int(x), int(z)) for x in np.unique(h.x_masks) for z in rng.integers(0, 128, 3)]
        expected = [(w, sector_gradient(h, w, ref)) for w in words]
        expected.sort(key=lambda e: (-e[1], e[0].x_mask, e[0].z_mask))
        masks = tuple(np.array([getattr(w, m) for w in words], dtype=np.uint64) for m in ("x_mask", "z_mask"))
        pool = OperatorPool("test", lambda n: masks)
        assert pool_gradients(h, ref, pool, top=len(words)) == expected


def test_group_members_counts():
    g2 = build_dis(Operator.from_labels({"XX": 1.0}), PurifiedReference((1, 1)))[0]
    assert {w.to_label() for w in group_members(g2, 2)} == {"YX", "XY"}
    g3 = build_dis(Operator.from_labels({"XXI": 1.0}), PurifiedReference((1, 1, 1)))[0]
    members = list(group_members(g3, 3))
    assert len(members) == 4  # 2 odd-y patterns x 2 z-patterns on qubit 2


def test_group_members_equal_gradient_magnitudes(rng):
    for _ in range(5):
        h = random_operator(rng, 3, 8)
        bits = tuple(int(b) for b in rng.choice([1, -1], 3))
        ref = PurifiedReference(bits)
        for g in build_dis(h, ref):
            members = list(group_members(g, 3))
            assert len(members) == 2 ** (3 - 1)
            for w in members:
                assert _dense_gradient(h, w, bits) == pytest.approx(
                    g.gradient_magnitude, abs=1e-10
                )


def test_random_group_member_lies_in_group(rng):
    h = Operator.from_labels({"XXII": 1.0, "ZIII": 0.5})
    g = build_dis(h, PurifiedReference((1, 1, 1, 1)))[0]
    members = {w for w in group_members(g, 4)}
    for seed in range(20):
        w = random_group_member(g, 4, np.random.default_rng(seed))
        assert w in members


def test_two_qubit_pool_size():
    # every word of weight 1 and 2, against a brute-force enumeration
    for n in range(1, 7):
        x, z = two_qubit_pauli_pool().words(n)
        expected = {
            (w.x_mask, w.z_mask)
            for w in (PauliWord(n, a, b) for a in range(1 << n) for b in range(1 << n))
            if 1 <= w.weight <= 2
        }
        assert len(x) == len(expected) and set(zip(x.tolist(), z.tolist())) == expected
    assert len(two_qubit_pauli_pool().words(2)[0]) == 15  # all non-identity words on 2 qubits


def test_fixed_pool_words_are_cached_read_only_arrays():
    for pool in (two_qubit_pauli_pool(), fermionic_sd_pool()):
        first = pool.words(5)
        assert pool.words(5) is first
        for a in first:
            assert a.dtype == np.uint64 and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
    with pytest.raises(ValueError, match="not enumerable"):
        pool_gradients(Operator.from_labels({"XX": 1.0}), PurifiedReference((1, 1)), dis_pool(), top=1)


def test_second_fermionic_pool_call_enumerates_no_excitations(monkeypatch):
    import iqcc.fermion as fermion_mod

    h = Operator.from_labels({"XXYYII": 0.3, "XZXIII": -0.2, "ZIIIII": 1.0})
    ref = PurifiedReference((1, -1, 1, 1, -1, 1))
    first = pool_gradients(h, ref, fermionic_sd_pool(), top=50)
    calls = []
    orig = fermion_mod._ladder_terms

    def counting(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(fermion_mod, "_ladder_terms", counting)
    assert pool_gradients(h, ref, fermionic_sd_pool(), top=50) == first
    assert calls == []


def test_pool_gradients_even_y_score_zero(rng):
    # the parity argument applies to real (even-y) Hamiltonians
    from conftest import random_real_operator

    h = random_real_operator(rng, 3, 10)
    ref = PurifiedReference((1, 1, -1))
    ranked = pool_gradients(h, ref, two_qubit_pauli_pool(), top=200)
    for w, grad in ranked:
        if y_parity(w) == 0:
            assert grad == 0.0


def test_fermionic_pool_top_matches_dis_when_flips_coincide(rng):
    # any pool word with the same flips as a screening group shares its
    # gradient magnitude on the reference
    from iqcc.fermion import jordan_wigner
    from conftest import random_integrals

    data = random_integrals(rng, 2)
    h = jordan_wigner(data)
    ref = PurifiedReference((1, -1, 1, -1))
    dis = {g.flips: g.gradient_magnitude for g in build_dis(h, ref)}
    ranked = pool_gradients(h, ref, fermionic_sd_pool(), top=500)
    checked = 0
    for w, grad in ranked:
        key = flip_set(w)
        if key in dis and y_parity(w) == 1:
            assert grad == pytest.approx(dis[key], abs=1e-10)
            checked += 1
    assert checked > 0


def test_dis_cost_scales_linearly_with_terms(rng, monkeypatch):
    # the kernel forms exactly one (word, term) product per off-diagonal term
    # of h, in one vectorised call
    import iqcc.screening as screening_mod

    pairs = []
    orig = screening_mod.word_products

    def counting(ax, az, bx, bz):
        pairs.append(len(ax))
        return orig(ax, az, bx, bz)

    monkeypatch.setattr(screening_mod, "word_products", counting)
    ref = PurifiedReference((1, 1, 1, 1, 1, 1))
    for n_terms in (40, 80, 825):
        h = random_operator(rng, 6, n_terms)
        pairs.clear()
        build_dis(h, ref)
        assert pairs == [int(np.count_nonzero(h.x_masks))]


def test_sample_generators_counts_and_determinism(rng):
    h = random_operator(rng, 4, 20)
    ref = PurifiedReference((1, 1, 1, 1))
    groups = build_dis(h, ref)
    n_groups = len(groups)
    assert n_groups >= 4
    picked = sample_generators(groups, n_g=n_groups + 2, rng_seed=9)
    assert len(picked) == n_groups  # capped by the available groups
    one = sample_generators(groups, n_g=1, rng_seed=9)
    assert len(one) == 1 and flip_set(one[0]) == groups[0].flips
    again = sample_generators(groups, n_g=n_groups + 2, rng_seed=9)
    assert picked == again
