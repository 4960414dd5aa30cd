"""Flip-sector partitioning, gradient groups, pools and sampling."""

import itertools

import numpy as np
import pytest

from iqcc.pauli import Operator, PauliWord, y_parity
from iqcc.product_state import PurifiedReference
from iqcc.screening import (
    build_dis,
    dis_representative,
    fermionic_sd_pool,
    flip_set,
    group_members,
    partition_sectors,
    pool_gradients,
    random_group_member,
    sample_generators,
    sector_gradient,
    two_qubit_pauli_pool,
)

from conftest import basis_state_vector, dense_op, dense_word, random_operator


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


def test_dis_representative_construction():
    rep = dis_representative(frozenset({0, 1}), 2)
    assert rep == PauliWord.from_label("YX")
    assert dis_representative(frozenset({2}), 4) == PauliWord.from_label("IIYI")
    rep = dis_representative(frozenset({1, 3, 4}), 5)
    assert rep == PauliWord.from_label("IYIXX")
    assert y_parity(rep) == 1


def test_dis_representative_rejects_empty():
    with pytest.raises(ValueError):
        dis_representative(frozenset(), 3)


def test_sector_gradient_single_term():
    h = Operator.from_labels({"XX": 0.7})
    sector = partition_sectors(h)[0]
    rep = dis_representative(frozenset({0, 1}), 2)
    ref = PurifiedReference((1, 1))
    grad = sector_gradient(sector, rep, ref)
    assert grad == pytest.approx(_dense_gradient(h, rep, ref.bits), abs=1e-12)
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
    assert ranked.get(w, 0.0) == 0.0


def test_build_dis_empty_for_diagonal():
    h = Operator.from_labels({"ZI": 1.0, "ZZ": -0.5})
    assert build_dis(h, PurifiedReference((1, 1))) == []


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
    words = list(two_qubit_pauli_pool().words(2))
    assert len(words) == 15  # all non-identity words on 2 qubits
    assert len(set(words)) == 15
    words4 = list(two_qubit_pauli_pool().words(4))
    assert all(1 <= w.weight <= 2 for w in words4)


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
    # doubling the term count at fixed width at most doubles the number of
    # per-sector gradient evaluations
    import iqcc.screening as screening_mod

    calls = {"n": 0}
    orig = screening_mod.sector_gradient

    def counting(sector, rep, ref):
        calls["n"] += 1
        return orig(sector, rep, ref)

    monkeypatch.setattr(screening_mod, "sector_gradient", counting)
    ref = PurifiedReference((1, 1, 1, 1, 1, 1))
    h1 = random_operator(rng, 6, 40)
    build_dis(h1, ref)
    first = calls["n"]
    calls["n"] = 0
    h2 = random_operator(rng, 6, 80)
    build_dis(h2, ref)
    assert calls["n"] <= 2 * first


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
