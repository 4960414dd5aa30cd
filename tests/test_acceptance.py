"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere else.

The expensive 20-instance solver batch is computed once and shared by the
convergence, pool-separation and extrapolation criteria.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from iqcc.compression import compress
from iqcc.dressing import DressingStep, dress, dress_sequence
from iqcc.driver import IqccConfig, IterationRecord, extrapolate, iqcc_run
from iqcc.exact import ground_state
from iqcc.fermion import choose_sector, jordan_wigner, parity_map, reduce_qubits
from iqcc.pauli import (
    Operator,
    PauliWord,
    commutator_half,
    commutes,
    conjugate_by_word,
    frobenius_norm,
    multiply,
    phase_value,
    y_parity,
)
from iqcc.product_state import PurifiedReference, energy, reference_state
from iqcc.screening import build_dis, flip_set, partition_sectors, two_qubit_pauli_pool

from conftest import (
    basis_state_vector,
    capacity_operator,
    dense_op,
    dense_word,
    determinant_hamiltonian,
    random_integrals,
    random_odd_y_word,
    random_real_2local,
    random_real_operator,
    random_word,
)


@contextlib.contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def _dense_gradient(h: Operator, p: PauliWord, bits: tuple[int, ...]) -> float:
    v = basis_state_vector(bits)
    hd, pd = dense_op(h), dense_word(p)
    comm = -0.5j * (hd @ pd - pd @ hd)
    return abs(complex(v.conj() @ comm @ v))


def _random_operator_any(rng, n, m):
    return Operator(n, [(random_word(rng, n), float(rng.normal())) for _ in range(m)])


# -- 1: algebra oracle equivalence ------------------------------------------------


def test_criterion_01_algebra_oracle_equivalence():
    with criterion("01 algebra-oracle-equivalence"):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        for i in range(1000):
            n = int(rng.integers(1, 5))
            a, b = random_word(rng, n), random_word(rng, n)
            da, db = dense_word(a), dense_word(b)
            w, k = multiply(a, b)
            prod = da @ db
            scale = max(1.0, float(np.abs(prod).max()))
            assert np.abs(prod - phase_value(k) * dense_word(w)).max() <= 1e-12 * scale
            sym = da @ db - db @ da
            assert commutes(a, b) == bool(np.allclose(sym, 0.0, atol=1e-12))
            if i % 4 == 0:
                h = _random_operator_any(rng, n, int(rng.integers(1, 7)))
                hd = dense_op(h)
                scale = max(1.0, float(np.abs(hd).max()))
                got = dense_op(commutator_half(h, a))
                want = -0.5j * (hd @ da - da @ hd)
                assert np.abs(got - want).max() <= 1e-12 * scale
                assert np.abs(dense_op(conjugate_by_word(h, a)) - da @ hd @ da).max() <= 1e-12 * scale
                want_norm = math.sqrt(float(np.trace(hd.conj().T @ hd).real))
                assert abs(frobenius_norm(h) - want_norm) <= 1e-12 * max(1.0, want_norm)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"algebra oracle sweep took {elapsed:.1f}s"


# -- 2: spectrum invariance under dressing -------------------------------------------


def test_criterion_02_spectrum_invariance():
    with criterion("02 spectrum-invariance"):
        rng = np.random.default_rng(202)
        t0 = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(2, 7))
            h = _random_operator_any(rng, n, int(rng.integers(4, 20)))
            step = DressingStep(random_word(rng, n), float(rng.uniform(-math.pi, math.pi)))
            e0 = np.linalg.eigvalsh(dense_op(h))
            e1 = np.linalg.eigvalsh(dense_op(dress(h, step)))
            assert np.max(np.abs(e0 - e1)) <= 1e-10
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"dressing spectrum sweep took {elapsed:.1f}s"


# -- 3: DIS structure theorem -------------------------------------------------------


def test_criterion_03_dis_structure_theorem():
    with criterion("03 dis-structure-theorem"):
        rng = np.random.default_rng(303)
        t0 = time.perf_counter()
        for n in (3, 4):
            h = random_real_operator(rng, n, 6 * n)
            bits = tuple(int(b) for b in rng.choice([1, -1], n))
            ref = PurifiedReference(bits)
            groups = {g.flips: g.gradient_magnitude for g in build_dis(h, ref)}
            counts = {flips: 0 for flips in groups}
            for x in range(1 << n):
                for z in range(1 << n):
                    w = PauliWord(n, x, z)
                    grad = _dense_gradient(h, w, bits)
                    flips = flip_set(w)
                    if y_parity(w) == 1 and flips in groups:
                        assert abs(grad - groups[flips]) <= 1e-10
                        counts[flips] += 1
                    else:
                        assert grad <= 1e-12, f"word {w.to_label()} outside the set has gradient {grad}"
            for flips, count in counts.items():
                assert count == 2 ** (n - 1), f"group {sorted(flips)} has {count} members"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"exhaustive structure sweep took {elapsed:.1f}s"


# -- 4: gradient consistency ---------------------------------------------------------


def test_criterion_04_gradient_consistency():
    with criterion("04 gradient-consistency"):
        rng = np.random.default_rng(404)
        checked = 0
        while checked < 200:
            h = random_real_operator(rng, 4, 12)
            bits = tuple(int(b) for b in rng.choice([1, -1], 4))
            ref = PurifiedReference(bits)
            state = reference_state(ref)
            groups = [g for g in build_dis(h, ref) if g.gradient_magnitude > 1e-3]
            for g in groups[:4]:
                from iqcc.screening import random_group_member

                w = random_group_member(g, 4, rng)
                step = 1e-5
                ep = energy(state, dress(h, DressingStep(w, step)))
                em = energy(state, dress(h, DressingStep(w, -step)))
                fd = abs((ep - em) / (2 * step))
                assert fd == pytest.approx(g.gradient_magnitude, rel=1e-6, abs=1e-9)
                checked += 1
        assert checked >= 200


# -- 5: growth law ------------------------------------------------------------------


def test_criterion_05_growth_law():
    with criterion("05 growth-law"):
        rng = np.random.default_rng(505)
        m0 = 100
        n_steps = 8
        ratios = np.zeros((20, n_steps))
        for trial in range(20):
            h = _random_operator_any(rng, 6, m0)
            base = len(h)
            cur = h
            for k in range(n_steps):
                step = DressingStep(random_odd_y_word(rng, 6), float(rng.uniform(0.3, 1.2)))
                cur = dress(cur, step)
                ratio = len(cur) / base
                ratios[trial, k] = ratio
                assert ratio <= 2.0 ** (k + 1), "worst case exceeded the doubling bound"
        means = ratios.mean(axis=0)
        for k in range(n_steps):
            lo, hi = 1.2 ** (k + 1), 2.0 ** (k + 1)
            assert lo <= means[k] <= hi, f"step {k + 1}: mean ratio {means[k]:.2f} outside [{lo:.2f}, {hi:.2f}]"


# -- 6: compression bound ------------------------------------------------------------


def test_criterion_06_compression_bound():
    with criterion("06 compression-bound"):
        rng = np.random.default_rng(606)
        for _ in range(100):
            terms = []
            for _ in range(60):
                w = random_word(rng, 6)
                terms.append((w, float(rng.choice([-1, 1]) * 10.0 ** rng.uniform(-6, 0))))
            h = Operator(6, terms)
            hc, report = compress(h, 1e-3)
            e0 = np.linalg.eigvalsh(dense_op(h))[0]
            e0c = np.linalg.eigvalsh(dense_op(hc))[0]
            assert abs(e0 - e0c) <= 1e-3
            assert report.dropped_norm <= 1e-3 + 1e-15

        # compression strengthens as the loop converges (term-drop fraction
        # grows once commutator contributions fall below the threshold)
        h = random_real_2local(2, n=6, coupling=0.3, p_term=0.5)
        cfg = IqccConfig(
            n_g=1, n_steps=15, n_random_guesses=3, rng_seed=2,
            energy_threshold=None, epsilon=1e-3,
        )
        records = iqcc_run(h, cfg)
        fractions = {r.k: 1.0 - r.terms_after / r.terms_before for r in records[1:]}
        early = max(v for k, v in fractions.items() if k <= 3)
        late = max(v for k, v in fractions.items() if k >= 8)
        assert late > early, f"compression did not strengthen: early {early:.3f}, late {late:.3f}"


# -- 7/8/9 shared batch ---------------------------------------------------------------


@dataclass
class BatchRun:
    e_exact: float
    ng1: list[IterationRecord]
    ng4: list[IterationRecord]
    two_qubit: list[IterationRecord]


def _converged_at(records: list[IterationRecord], e_exact: float, tol: float = 1e-6) -> int:
    return next((r.k for r in records if r.energy - e_exact < tol), 51)


@pytest.fixture(scope="module")
def solver_batch() -> list[BatchRun]:
    runs = []
    for seed in range(20):
        h = random_real_2local(seed, coupling=0.2, p_term=0.5)
        e_exact, _ = ground_state(h)
        common = dict(n_steps=50, n_random_guesses=4, rng_seed=seed, energy_threshold=None)
        ng1 = iqcc_run(h, IqccConfig(n_g=1, **common))
        ng4 = iqcc_run(h, IqccConfig(n_g=4, **common))
        two = iqcc_run(h, IqccConfig(n_g=1, pool=two_qubit_pauli_pool(), **common))
        runs.append(BatchRun(e_exact, ng1, ng4, two))
    return runs


def test_criterion_07_dis_convergence(solver_batch):
    with criterion("07 dis-convergence"):
        conv1 = [_converged_at(run.ng1, run.e_exact) for run in solver_batch]
        assert sum(c <= 50 for c in conv1) >= 18, f"only {sum(c <= 50 for c in conv1)}/20 converged"
        for run in solver_batch:
            energies = [r.energy for r in run.ng1]
            assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:])), "non-monotone run"
            assert all(r.energy >= run.e_exact - 1e-9 for r in run.ng1), "variational bound broken"
        conv4 = [_converged_at(run.ng4, run.e_exact) for run in solver_batch]
        assert np.median(conv4) < np.median(conv1), (
            f"multi-generator median {np.median(conv4)} not below {np.median(conv1)}"
        )
        for run in solver_batch:
            for r in run.ng4[1:]:
                assert 1 <= len(r.generators) <= 4


def test_criterion_08_pool_separation(solver_batch):
    with criterion("08 pool-separation"):
        dis_final = [max(run.ng1[-1].energy - run.e_exact, 0.0) for run in solver_batch]
        two_final = [max(run.two_qubit[-1].energy - run.e_exact, 0.0) for run in solver_batch]
        assert np.median(two_final) > np.median(dis_final), (
            f"pool medians not separated: {np.median(two_final):.2e} vs {np.median(dis_final):.2e}"
        )


def test_criterion_09_extrapolation(solver_batch):
    with criterion("09 extrapolation"):
        # exact recovery of a synthetic geometric series
        records = [
            IterationRecord(k, -1.0 + 10.0 ** (-0.3 * k - 1.0), [], [], 0, 0, None, 0.0)
            for k in range(21)
        ]
        fit = extrapolate(records, drop_first=4)
        assert abs(fit.estimate - (-1.0)) <= 1e-10
        assert abs(fit.a_prime - (-0.3)) <= 1e-10

        # every converging run with a log-linear tail must be improved by the
        # extrapolated estimate; runs this small rarely reach the residual
        # gate, so additionally require that a strict majority of all fitted
        # runs improves
        fitted = improved = 0
        for run in solver_batch:
            usable = [r for r in run.ng1 if r.energy - run.e_exact > 1e-9]
            if len(usable) < 9:
                continue
            try:
                fit = extrapolate(usable, drop_first=4)
            except ValueError:
                continue
            fitted += 1
            raw = abs(usable[-1].energy - run.e_exact)
            est = abs(fit.estimate - run.e_exact)
            if fit.residual < 0.05:
                assert est < raw, "log-linear tail not improved by extrapolation"
            if est < raw:
                improved += 1
        assert fitted >= 5, f"too few extrapolatable runs ({fitted})"
        assert improved > fitted / 2, f"extrapolation improved only {improved}/{fitted} runs"


# -- 10: mapping correctness -----------------------------------------------------------


def test_criterion_10_mapping_correctness():
    with criterion("10 mapping-correctness"):
        rng = np.random.default_rng(1010)
        for _ in range(10):
            data = random_integrals(rng, 2)
            hjw = jordan_wigner(data)
            hpar = parity_map(data)
            ejw = np.linalg.eigvalsh(dense_op(hjw))
            epar = np.linalg.eigvalsh(dense_op(hpar))
            assert np.max(np.abs(ejw - epar)) <= 1e-10
            e_ci = float(np.linalg.eigvalsh(determinant_hamiltonian(data))[0])
            assert abs(ejw[0] - e_ci) <= 1e-10
            assignment = choose_sector(hpar, oracle_budget=4)
            e_red, _ = ground_state(reduce_qubits(hpar, assignment))
            assert abs(e_red - ejw[0]) <= 1e-10


# -- 11: capacity -----------------------------------------------------------------------


def test_criterion_11_capacity():
    with criterion("11 capacity"):
        h = capacity_operator(14)
        assert len(h) == 825

        t0 = time.perf_counter()
        e_iter, vec = ground_state(h, mode="iterative")
        config = IqccConfig(
            n_g=1, n_steps=1, n_random_guesses=3, rng_seed=0,
            energy_threshold=None, epsilon=1e-3,
        )
        records = iqcc_run(h, config)
        elapsed = time.perf_counter() - t0
        assert len(records) == 2, "the full iteration did not run"
        assert records[1].energy < records[0].energy
        assert records[1].terms_after <= records[1].terms_before
        assert records[1].energy >= e_iter - 1e-9  # variational against the oracle
        assert elapsed < 300.0, f"capacity run took {elapsed:.0f}s"
