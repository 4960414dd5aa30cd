"""Integral parsing, fermion-to-qubit mappings, symmetry operators and
stationary-qubit reduction, checked against determinant and dense oracles."""

import io
import itertools
import math

import numpy as np
import pytest

import iqcc.fermion as fermion_module
from iqcc.exact import BudgetError, ground_state
from iqcc.fermion import (
    IntegralData,
    QubitAssignment,
    _MAJORANAS,
    _jw_majoranas,
    _ladder_terms,
    _realize,
    build_symmetry_operator,
    choose_sector,
    excitation_words,
    find_stationary_qubits,
    jordan_wigner,
    parity_map,
    parse_integrals,
    reduce_qubits,
    spin_penalize,
    write_integrals,
)
from iqcc.pauli import Operator, ParseError, PauliWord, commutator_half, y_parity

from conftest import (
    dense_op,
    dense_word,
    determinant_hamiltonian,
    fock_matrix,
    lexsort_ladder_terms,
    random_integrals,
    symmetry_commutes,
    two_merge_realize,
    unique_excitation_words,
)


def _h2_like_integrals() -> IntegralData:
    n = 2
    h1 = np.array([[-1.252477, 0.0], [0.0, -0.475934]])
    g = np.zeros((n, n, n, n))

    def setg(i, j, k, l, v):
        for p, q, r, s in (
            (i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
            (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
        ):
            g[p, q, r, s] = v

    setg(0, 0, 0, 0, 0.674493)
    setg(1, 1, 1, 1, 0.697397)
    setg(0, 0, 1, 1, 0.663472)
    setg(0, 1, 0, 1, 0.181287)
    return IntegralData(n, h1, g, 0.713776, {"NORB": 2, "NELEC": 2, "MS2": 0})


# -- parsing -------------------------------------------------------------------


def test_parse_minimal_file():
    text = " &FCI NORB=1,NELEC=1,MS2=1,\n &END\n-1.0 1 1 0 0\n"
    data = parse_integrals(io.StringIO(text))
    assert data.n_so == 2
    assert data.h[0, 0] == pytest.approx(-1.0)
    assert data.e_core == 0.0
    assert data.metadata["NELEC"] == 1


def test_parse_completes_eightfold_symmetry():
    text = " &FCI NORB=2,\n &END\n0.5 1 1 2 2\n"
    data = parse_integrals(io.StringIO(text))
    for idx in ((0, 0, 1, 1), (1, 1, 0, 0)):
        assert data.g[idx] == pytest.approx(0.5)
    assert data.g[0, 1, 0, 1] == 0.0


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="header"):
        parse_integrals(io.StringIO("0.5 1 1 0 0\n"))
    with pytest.raises(ParseError, match="line 3"):
        parse_integrals(io.StringIO(" &FCI NORB=2,\n &END\n0.5 1 1\n"))
    with pytest.raises(ParseError, match="line 3"):
        parse_integrals(io.StringIO(" &FCI NORB=2,\n &END\n0.5 3 1 0 0\n"))


def test_orbital_count_beyond_64_qubits_is_rejected():
    # 33 orbitals would need 66 qubits; the header alone is rejected, before
    # any integral tensor is allocated
    for norb in (0, 33, 200):
        with pytest.raises(ParseError, match="NORB"):
            parse_integrals(io.StringIO(f" &FCI NORB={norb},\n &END\n0.1 0 0 0 0\n"))
    assert parse_integrals(io.StringIO(" &FCI NORB=32,\n &END\n0.1 0 0 0 0\n")).n_so == 64
    n = 33
    data = IntegralData(n, np.zeros((n, n)), np.zeros((n, n, n, n)), 0.0)
    for mapping in (jordan_wigner, parity_map):
        with pytest.raises(ValueError, match="n_spatial"):
            mapping(data)


@pytest.mark.parametrize("n_so", [66, 200])
def test_majorana_tables_reject_more_than_64_qubits(n_so):
    # uint64 masks shifted past bit 63 would wrap into wrong words
    for mapping in ("jw", "parity"):
        for kind in ("n", "s2"):
            with pytest.raises(ValueError, match="more than 64 qubits"):
                build_symmetry_operator(kind, n_so, mapping)
    with pytest.raises(ValueError, match="more than 64 qubits"):
        excitation_words(n_so)


def test_integrals_roundtrip_bit_exact(rng):
    data = random_integrals(rng, 3)
    buf = io.StringIO()
    write_integrals(data, buf)
    buf.seek(0)
    back = parse_integrals(buf)
    assert back.n_spatial == data.n_spatial
    assert np.array_equal(back.h, data.h)
    assert np.array_equal(back.g, data.g)
    assert back.e_core == data.e_core


# -- mappings -------------------------------------------------------------------


def test_jw_number_operator():
    data = IntegralData(1, np.array([[-1.0]]), np.zeros((1, 1, 1, 1)), 0.0)
    h = jordan_wigner(data)
    # h11 (n_up + n_down) = h11 (1 - z0/2 - z1/2)
    assert h.coefficient(PauliWord.from_label("II")) == pytest.approx(-1.0)
    assert h.coefficient(PauliWord.from_label("ZI")) == pytest.approx(0.5)
    assert h.coefficient(PauliWord.from_label("IZ")) == pytest.approx(0.5)


def test_jw_hopping_term():
    h1 = np.array([[0.0, 0.3], [0.3, 0.0]])
    data = IntegralData(2, h1, np.zeros((2, 2, 2, 2)), 0.0)
    h = jordan_wigner(data)
    # alpha block: (h12/2)(x0 x1 + y0 y1), beta block same on qubits 2,3
    assert h.coefficient(PauliWord.from_label("XXII")) == pytest.approx(0.15)
    assert h.coefficient(PauliWord.from_label("YYII")) == pytest.approx(0.15)
    assert h.coefficient(PauliWord.from_label("IIXX")) == pytest.approx(0.15)
    hd = dense_op(h)
    assert np.allclose(hd, determinant_hamiltonian(data), atol=1e-12)


def test_realize_rejects_imaginary_residue():
    # a lone hopping term a+_0 a_1 is not Hermitian, so its image has imaginary weight
    table = _jw_majoranas(2)
    hop = _ladder_terms(table, np.array([[0, 1]]), (True, False), np.ones(1))
    with pytest.raises(ArithmeticError, match="imaginary weight") as got:
        _realize(2, hop)
    with pytest.raises(ArithmeticError) as want:
        two_merge_realize(2, hop)
    assert str(got.value) == str(want.value)
    back = _ladder_terms(table, np.array([[1, 0]]), (True, False), np.ones(1))
    assert _realize(2, hop, back) == Operator.from_labels({"XX": 0.5, "YY": 0.5})


def _assert_same_operator(got: Operator, want: Operator) -> None:
    assert got.n_qubits == want.n_qubits
    for name in ("x_masks", "z_masks", "coefficients"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_spatial", [1, 2, 3, 5])
def test_mapped_operators_match_two_merge_reference(monkeypatch, n_spatial):
    data = random_integrals(np.random.default_rng(n_spatial), n_spatial)
    builds = [lambda: jordan_wigner(data), lambda: parity_map(data)]
    for kind, mapping in itertools.product(("n", "sz", "s2"), ("jw", "parity")):
        builds.append(lambda k=kind, m=mapping: build_symmetry_operator(k, data.n_so, m))
    got = [build() for build in builds]
    monkeypatch.setattr(fermion_module, "_realize", two_merge_realize)
    for op, build in zip(got, builds):
        _assert_same_operator(op, build())


@pytest.mark.parametrize("n_spatial", [5, 10])
def test_mapped_operators_do_not_depend_on_the_row_chunk(monkeypatch, n_spatial):
    # 2**30 rows expand every two-body row at once; 97 cuts five orbitals' 2,500 rows as well
    data = random_integrals(np.random.default_rng(n_spatial), n_spatial)
    maps = (jordan_wigner, parity_map)
    chunked = [mapping(data) for mapping in maps]
    for rows in (1 << 30, 97):
        monkeypatch.setattr(fermion_module, "_LADDER_ROWS", rows)
        for op, mapping in zip(chunked, maps):
            _assert_same_operator(op, mapping(data))


@pytest.mark.parametrize("n_so", range(2, 13))
def test_excitation_words_match_unique_reference(n_so):
    for a, b in zip(excitation_words(n_so), unique_excitation_words(n_so)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mapping", ["jw", "parity"])
@pytest.mark.parametrize("n_so", [4, 32, 33, 64])
def test_ladder_terms_match_lexsort_reference(mapping, n_so):
    # the (x, z) key packs into 64 bits up to 32 spin-orbitals; above, lexsort takes over
    rng = np.random.default_rng(n_so)
    table = _MAJORANAS[mapping](n_so)
    for daggers in ((True, False), (True, True, False, False)):
        orbitals = rng.integers(0, n_so, size=(40, len(daggers)))
        orbitals[:5] = orbitals[:5, :1]  # repeated orbitals: words that merge or cancel within a row
        weights = rng.standard_normal(40)
        want = lexsort_ladder_terms(table, orbitals, daggers, weights)
        for a, b in zip(_ladder_terms(table, orbitals, daggers, weights), want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    empty = _ladder_terms(table, np.zeros((0, 4), dtype=int), (True, True, False, False), np.zeros(0))
    assert [len(a) for a in empty] == [0, 0, 0]


def test_parity_single_orbital_number_operator():
    data = IntegralData(1, np.array([[1.0]]), np.zeros((1, 1, 1, 1)), 0.0)
    h = parity_map(data)
    # n_up + n_down in the parity basis: (1 - z0)/2 + (1 - z0 z1)/2
    assert h.coefficient(PauliWord.from_label("II")) == pytest.approx(1.0)
    assert h.coefficient(PauliWord.from_label("ZI")) == pytest.approx(-0.5)
    assert h.coefficient(PauliWord.from_label("ZZ")) == pytest.approx(-0.5)


def test_mappings_share_spectrum(rng):
    for nsp in (2, 2, 2, 3):
        data = random_integrals(rng, nsp)
        ejw = np.linalg.eigvalsh(dense_op(jordan_wigner(data)))
        epar = np.linalg.eigvalsh(dense_op(parity_map(data)))
        assert np.max(np.abs(ejw - epar)) < 1e-10


def test_jw_matches_determinant_oracle(rng):
    for _ in range(5):
        data = random_integrals(rng, 2)
        assert np.allclose(dense_op(jordan_wigner(data)), determinant_hamiltonian(data), atol=1e-10)


def _parity_basis(mat: np.ndarray) -> np.ndarray:
    """A Fock-space matrix relabelled from occupations n to parity kets b, b_j = n_0 ^ ... ^ n_j."""
    n = np.arange(len(mat))
    b = np.zeros_like(n)
    for shift in range(len(mat).bit_length() - 1):
        b ^= n << shift
    b &= len(mat) - 1
    out = np.empty_like(mat)
    out[np.ix_(b, b)] = mat
    return out


def test_parity_matches_determinant_oracle(rng):
    for nsp in (1, 2, 2, 3):
        data = random_integrals(rng, nsp)
        assert np.allclose(dense_op(parity_map(data)), _parity_basis(determinant_hamiltonian(data)), atol=1e-10)


def test_mapped_terms_have_even_y_parity(rng):
    data = random_integrals(rng, 3)
    for h in (jordan_wigner(data), parity_map(data)):
        assert all(y_parity(w) == 0 for w, _ in h)


def test_mapped_term_count_scales_with_integrals():
    data = _h2_like_integrals()
    n_nonzero = int(np.count_nonzero(data.h)) + int(np.count_nonzero(data.g))
    h = jordan_wigner(data)
    assert len(h) <= 4 * n_nonzero + 1


# -- stationary qubits and reduction -----------------------------------------------


def test_find_stationary_by_inspection():
    h = Operator.from_labels({"ZX": 1.0, "ZI": 0.5})
    assert find_stationary_qubits(h) == frozenset({0})
    h = Operator.from_labels({"XX": 1.0, "ZZ": 0.5})
    assert find_stationary_qubits(h) == frozenset()
    assert find_stationary_qubits(Operator.zero(3)) == frozenset({0, 1, 2})


def test_parity_mapping_stationary_positions(rng):
    # number- and spin-conserving Hamiltonians have stationary qubits at
    # the alpha-block boundary and the last position under parity encoding
    for nsp in (2, 3):
        data = random_integrals(rng, nsp)
        h = parity_map(data)
        stationary = find_stationary_qubits(h)
        assert {nsp - 1, 2 * nsp - 1} <= stationary


def test_lih_scale_reduction_count(rng):
    # 6 spin-orbitals reduce by exactly the 2 parity-stationary qubits
    data = random_integrals(rng, 3)
    h = parity_map(data)
    stationary = find_stationary_qubits(h)
    assert len(stationary) == 2
    assignment = choose_sector(h, oracle_budget=6)
    assert reduce_qubits(h, assignment).n_qubits == 4


def test_reduce_substitutes_eigenvalue():
    h = Operator.from_labels({"ZX": 2.0})
    out = reduce_qubits(h, QubitAssignment({0: -1}))
    assert out.n_qubits == 1
    assert out.coefficient(PauliWord.from_label("X")) == pytest.approx(-2.0)
    assert reduce_qubits(h, QubitAssignment({})) == h


def test_reduce_identity_positions_keep_coefficients():
    h = Operator.from_labels({"IX": 0.7, "IZ": -0.2})
    out = reduce_qubits(h, QubitAssignment({0: -1}))
    assert out.coefficient(PauliWord.from_label("X")) == pytest.approx(0.7)
    assert out.coefficient(PauliWord.from_label("Z")) == pytest.approx(-0.2)


def test_reduce_rejects_non_stationary():
    h = Operator.from_labels({"XZ": 1.0})
    with pytest.raises(ValueError):
        reduce_qubits(h, QubitAssignment({0: 1}))


def test_reduced_spectrum_is_subset(rng):
    data = random_integrals(rng, 2)
    h = parity_map(data)
    assignment = choose_sector(h, oracle_budget=4)
    full = np.linalg.eigvalsh(dense_op(h))
    reduced = np.linalg.eigvalsh(dense_op(reduce_qubits(h, assignment)))
    for ev in reduced:
        assert np.min(np.abs(full - ev)) < 1e-10


def test_choose_sector_additive_structure():
    h = Operator.from_labels({"ZI": 1.0, "IX": 0.1})
    assignment = choose_sector(h, oracle_budget=2)
    assert assignment.eigenvalues == {0: -1}


def test_choose_sector_enumerates_all_assignments(rng, caplog):
    import logging

    data = random_integrals(rng, 2)
    h = parity_map(data)
    with caplog.at_level(logging.INFO, logger="iqcc.fermion"):
        choose_sector(h, oracle_budget=4)
    assert sum("sector positions=" in r.message for r in caplog.records) == 4


def test_choose_sector_preserves_ground_energy(rng):
    for _ in range(3):
        data = random_integrals(rng, 2)
        h = parity_map(data)
        e_full, _ = ground_state(h)
        assignment = choose_sector(h, oracle_budget=4)
        e_red, _ = ground_state(reduce_qubits(h, assignment))
        assert abs(e_red - e_full) < 1e-10


def test_choose_sector_degenerate_tiebreak():
    # both eigenvalue choices give the same reduced operator: the
    # lexicographically smallest assignment (-1) wins
    h = Operator.from_labels({"XI": 0.5})
    assignment = choose_sector(h, oracle_budget=2)
    assert assignment.eigenvalues == {1: -1}


def test_choose_sector_budget_refusal():
    h = Operator.from_labels({"Z" + "X" * 13: 1.0, "I" + "Z" * 13: 0.5})
    with pytest.raises(BudgetError):
        choose_sector(h, oracle_budget=4)


# -- symmetry operators -----------------------------------------------------------


def test_number_operator_jw():
    n_op = build_symmetry_operator("n", 2, "jw")
    assert n_op.coefficient(PauliWord.from_label("II")) == pytest.approx(1.0)
    assert n_op.coefficient(PauliWord.from_label("ZI")) == pytest.approx(-0.5)
    assert n_op.coefficient(PauliWord.from_label("IZ")) == pytest.approx(-0.5)


@pytest.mark.parametrize("n_so", [4, 6])
def test_symmetry_operators_match_fock_matrices(n_so):
    nsp = n_so // 2
    spin = [0.5] * nsp + [-0.5] * nsp
    number = fock_matrix([(1.0, [(j, True), (j, False)]) for j in range(n_so)], n_so)
    sz = fock_matrix([(spin[j], [(j, True), (j, False)]) for j in range(n_so)], n_so)
    s_plus = fock_matrix([(1.0, [(p, True), (p + nsp, False)]) for p in range(nsp)], n_so)
    s2 = sz @ sz + (s_plus @ s_plus.T + s_plus.T @ s_plus) / 2
    for kind, mat in (("n", number), ("sz", sz), ("s2", s2)):
        assert np.allclose(dense_op(build_symmetry_operator(kind, n_so, "jw")), mat, atol=1e-12)
        assert np.allclose(dense_op(build_symmetry_operator(kind, n_so, "parity")), _parity_basis(mat), atol=1e-12)


def test_symmetry_operator_rejects_unknown_kind_and_mapping():
    with pytest.raises(ValueError, match="unknown symmetry operator kind 'q'"):
        build_symmetry_operator("q", 4, "jw")
    with pytest.raises(ValueError, match="unknown mapping 'bogus'; expected one of jw, parity"):
        build_symmetry_operator("n", 4, "bogus")


def test_s2_spectrum_four_spin_orbitals():
    s2 = build_symmetry_operator("s2", 4, "jw")
    evals = np.unique(np.round(np.linalg.eigvalsh(dense_op(s2)), 10))
    # Fock space of 2 spatial orbitals: singlets, doublets and one triplet
    assert np.allclose(evals, [0.0, 0.75, 2.0])


def test_s2_commutes_with_mapped_hamiltonian(rng):
    data = random_integrals(rng, 2)
    h = jordan_wigner(data)
    s2 = build_symmetry_operator("s2", 4, "jw")
    comm = commutator_half(h, PauliWord.from_label("IIII"))  # sanity: empty
    assert comm.is_empty
    hd, sd = dense_op(h), dense_op(s2)
    assert np.allclose(hd @ sd - sd @ hd, 0.0, atol=1e-10)


def test_symmetry_commutes_examples():
    sz = build_symmetry_operator("sz", 4, "jw")
    assert symmetry_commutes(PauliWord.from_label("ZZII"), sz)
    n_op = build_symmetry_operator("n", 4, "jw")
    assert not symmetry_commutes(PauliWord.from_label("XIII"), n_op)


def test_symmetry_commutes_matches_dense(rng):
    s = build_symmetry_operator("s2", 4, "jw")
    sd = dense_op(s)
    for _ in range(20):
        w = PauliWord(4, int(rng.integers(0, 16)), int(rng.integers(0, 16)))
        wd = dense_op(Operator(4, [(w, 1.0)]))
        dense_commutes = np.allclose(sd @ wd - wd @ sd, 0.0, atol=1e-12)
        assert symmetry_commutes(w, s) == dense_commutes


def test_spin_penalty_validation(rng):
    data = random_integrals(rng, 2)
    h = jordan_wigner(data)
    s2 = build_symmetry_operator("s2", 4, "jw")
    with pytest.raises(ValueError):
        spin_penalize(h, s2, 0.0)
    with pytest.raises(ValueError):
        spin_penalize(h, s2, -0.1)


@pytest.mark.parametrize("mu", [float("nan"), float("inf")])
def test_spin_penalty_rejects_non_finite_mu(rng, mu):
    h = jordan_wigner(random_integrals(rng, 2))
    s2 = build_symmetry_operator("s2", 4, "jw")
    with pytest.raises(ValueError, match="finite"):
        spin_penalize(h, s2, mu)


@pytest.mark.parametrize("field, value", [("h", float("inf")), ("g", float("nan")), ("e_core", float("nan"))])
def test_mappings_reject_non_finite_integrals(rng, field, value):
    data = random_integrals(rng, 2)
    if field == "e_core":
        data.e_core = value
    else:
        getattr(data, field).fill(value)  # keeps the tensor's symmetry
    for mapping in (jordan_wigner, parity_map):
        with pytest.raises(ValueError, match="finite"):
            mapping(data)


def test_spin_penalty_small_mu_limit(rng):
    data = random_integrals(rng, 2)
    h = jordan_wigner(data)
    s2 = build_symmetry_operator("s2", 4, "jw")
    out = spin_penalize(h, s2, 1e-9)
    assert np.max(np.abs(dense_op(out) - dense_op(h))) < 1e-8


def test_spin_penalty_keeps_singlet_ground_state():
    # the two-electron ground state here is a singlet: the penalty at the
    # customary strength must leave the ground energy untouched
    data = _h2_like_integrals()
    h = jordan_wigner(data)
    s2 = build_symmetry_operator("s2", 4, "jw")
    e0, _ = ground_state(h)
    for mu in (0.25, 1.0):
        ep, _ = ground_state(spin_penalize(h, s2, mu))
        assert ep == pytest.approx(e0, abs=1e-10)


def _excitation_word_list(n_so: int) -> list[PauliWord]:
    x, z = excitation_words(n_so)
    return [PauliWord(n_so, a, b) for a, b in zip(x.tolist(), z.tolist())]


def test_excitation_words_are_odd_y(rng):
    words = _excitation_word_list(4)
    assert words
    assert all(y_parity(w) == 1 for w in words)
    # distinct and in ascending (x, z) order
    keys = [(w.x_mask, w.z_mask) for w in words]
    assert keys == sorted(set(keys))


def test_excitation_words_match_dense_excitations():
    n_so = 4
    pairs = [(p, q) for p in range(n_so) for q in range(p + 1, n_so)]
    chains = [[(p, True), (q, False)] for p, q in pairs]
    chains += [[(p, True), (q, True), (s, False), (r, False)] for (p, q), (r, s) in itertools.combinations(pairs, 2)]
    all_words = [PauliWord(n_so, x, z) for x in range(1 << n_so) for z in range(1 << n_so)]
    expected = set()
    for chain in chains:
        t = fock_matrix([(1.0, chain)], n_so)
        expected |= {w for w in all_words if abs(np.trace(dense_word(w) @ (t - t.T))) > 1e-12}
    assert set(_excitation_word_list(n_so)) == expected


def test_excitation_words_are_cached_read_only():
    x, z = excitation_words(6)
    assert excitation_words(6)[0] is x
    assert x.dtype == z.dtype == np.uint64 and not x.flags.writeable and not z.flags.writeable
