"""Outer-loop behavior: termination, monotonicity, joint optimization and
geometric extrapolation."""

import math

import numpy as np
import pytest

from iqcc.dressing import DressingStep, dress_sequence
from iqcc.driver import (
    ExtrapolationFit,
    IqccConfig,
    IterationRecord,
    extrapolate,
    iqcc_run,
    optimize_step,
)
from iqcc.exact import expectation, ground_state
from iqcc.pauli import Operator, PauliWord
from iqcc.product_state import BlochState, qmf_minimize

from conftest import product_state_vector, random_real_2local


def _fast_config(**kw) -> IqccConfig:
    base = dict(n_g=1, n_steps=50, n_random_guesses=3, rng_seed=0, energy_threshold=None)
    base.update(kw)
    return IqccConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        IqccConfig(n_g=0)
    with pytest.raises(ValueError):
        IqccConfig(grad_threshold=0.0)
    with pytest.raises(ValueError):
        IqccConfig(energy_threshold=-1e-8)
    with pytest.raises(ValueError):
        IqccConfig(epsilon=0.0)
    for bad in (math.nan, math.inf):
        for name in ("grad_threshold", "energy_threshold", "epsilon", "mu"):
            with pytest.raises(ValueError):
                IqccConfig(**{name: bad})
    IqccConfig(energy_threshold=None, epsilon=None)  # disabled checks are fine


def test_diagonal_hamiltonian_stops_after_init():
    h = Operator.from_labels({"ZI": 1.0, "IZ": 0.4, "ZZ": -0.3, "II": 0.2})
    records = iqcc_run(h, _fast_config())
    assert len(records) == 1
    e_exact, _ = ground_state(h)
    assert records[0].energy == pytest.approx(e_exact, abs=1e-8)


def test_mu_requires_penalty_operator():
    h = Operator.from_labels({"ZI": 1.0})
    with pytest.raises(ValueError):
        iqcc_run(h, _fast_config(mu=0.25))


def test_run_converges_on_random_real_instance():
    h = random_real_2local(3)
    e_exact, _ = ground_state(h)
    records = iqcc_run(h, _fast_config())
    energies = [r.energy for r in records]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    assert energies[-1] - e_exact < 1e-6
    assert all(r.energy >= e_exact - 1e-9 for r in records)  # variational


def test_records_carry_generator_counts():
    h = random_real_2local(1)
    records = iqcc_run(h, _fast_config(n_g=3, n_steps=4))
    for r in records[1:]:
        assert 1 <= len(r.generators) <= 3
        assert len(r.amplitudes) == len(r.generators)
        assert r.top_gradient > 0


def test_generator_count_capped_by_available_groups():
    # a single off-diagonal sector offers one gradient group; asking for six
    # generators must yield exactly one
    h = Operator.from_labels({"ZI": 1.0, "IZ": 0.6, "XX": 0.2, "YY": 0.1})
    records = iqcc_run(h, _fast_config(n_g=6, n_steps=3))
    assert len(records) >= 2
    assert all(len(r.generators) == 1 for r in records[1:])


def test_compression_toggle_barely_moves_energies():
    # toggling compression leaves the energy sequence intact down to the
    # compression accuracy floor; below that floor the squeezed run cannot
    # follow (its own spectrum is only epsilon-accurate)
    eps = 1e-6
    for seed in (1, 2):
        h = random_real_2local(seed, coupling=0.2, p_term=0.5)
        e_exact, _ = ground_state(h)
        plain = iqcc_run(h, _fast_config(n_steps=12, rng_seed=seed))
        squeezed = iqcc_run(h, _fast_config(n_steps=12, rng_seed=seed, epsilon=eps))
        n = min(len(plain), len(squeezed))
        for a, b in zip(plain[:n], squeezed[:n]):
            assert abs(a.energy - b.energy) <= 1e-6
            if a.energy - e_exact >= eps:
                assert abs(a.energy - b.energy) <= 1e-9
        assert all(r.terms_after <= r.terms_before for r in squeezed)


def test_optimize_step_single_rotation():
    h = Operator.from_labels({"Z": 1.0})
    state, e0 = qmf_minimize(Operator.from_labels({"Z": -1.0}), 2, 0)  # theta near 0
    taus, new_state, e = optimize_step(h, [PauliWord.from_label("Y")], state, _fast_config())
    assert e == pytest.approx(-1.0, abs=1e-8)


def test_optimize_step_never_increases_energy():
    h = random_real_2local(5)
    state, e0 = qmf_minimize(h, 3, 0)
    # a deliberately useless generator: diagonal words commute with nothing relevant
    gens = [PauliWord.from_label("YIII")]
    taus, new_state, e = optimize_step(h, gens, state, _fast_config())
    assert e <= e0 + 1e-12


def test_optimize_step_energy_matches_statevector():
    h = random_real_2local(7)
    state, _ = qmf_minimize(h, 3, 1)
    from iqcc.screening import build_dis
    from iqcc.product_state import purify

    groups = build_dis(h, purify(state))
    gens = [groups[0].representative]
    taus, new_state, e = optimize_step(h, gens, state, _fast_config())
    dressed = dress_sequence(h, [DressingStep(gens[0], taus[0])])
    v = product_state_vector(new_state.theta, new_state.phi)
    assert e == pytest.approx(expectation(v, dressed), abs=1e-10)


def test_optimize_step_raises_when_no_start_is_finite(monkeypatch, tmp_path):
    import iqcc.driver as driver_mod
    from iqcc.cli import main

    def nan_objective(h, generators, n):
        return lambda x: (math.nan, np.zeros_like(x))

    monkeypatch.setattr(driver_mod, "_objective", nan_objective)
    h = Operator.from_labels({"ZI": 1.0, "XX": 0.5})
    state = BlochState(np.full(2, 0.1), np.zeros(2))
    with pytest.raises(ArithmeticError, match="finite energy"):
        optimize_step(h, [PauliWord.from_label("YX")], state, _fast_config())

    op = tmp_path / "h.op"
    op.write_text("1.0 ZI\n0.5 XX\n")
    assert main(["--outdir", str(tmp_path), "run", str(op), "--steps", "1"]) == 2


def test_fermionic_pool_converges_on_mapped_hamiltonian():
    from iqcc.fermion import jordan_wigner
    from iqcc.screening import fermionic_sd_pool
    from conftest import random_integrals

    rng = np.random.default_rng(77)
    h = jordan_wigner(random_integrals(rng, 2))
    e_exact, _ = ground_state(h)
    cfg = _fast_config(n_g=2, n_steps=25, n_random_guesses=4, rng_seed=1,
                       pool=fermionic_sd_pool())
    records = iqcc_run(h, cfg)
    assert records[-1].energy - e_exact < 1e-8


def test_energy_threshold_terminates_early():
    h = random_real_2local(3)
    records = iqcc_run(h, _fast_config(energy_threshold=1e-2))
    assert records[-1].k < 50


# -- extrapolation -----------------------------------------------------------------


def _geometric_records(a: float, b: float, e_inf: float, n: int) -> list[IterationRecord]:
    return [
        IterationRecord(k, e_inf + 10.0 ** (a * k + b), [], [], 0, 0, None, 0.0)
        for k in range(n)
    ]


def test_extrapolate_recovers_synthetic_series():
    records = _geometric_records(-0.3, -1.0, -1.0, 21)
    fit = extrapolate(records, drop_first=3)
    assert fit.a_prime == pytest.approx(-0.3, abs=1e-10)
    assert fit.estimate == pytest.approx(-1.0, abs=1e-10)
    assert fit.residual < 1e-10
    assert fit.window == (4, 20)


def test_extrapolate_estimate_beats_raw_tail():
    records = _geometric_records(-0.2, -0.5, -2.5, 30)
    fit = extrapolate(records, drop_first=10)
    raw_error = abs(records[-1].energy - (-2.5))
    assert abs(fit.estimate - (-2.5)) < raw_error


def test_extrapolate_rejects_non_monotone():
    records = _geometric_records(-0.3, -1.0, -1.0, 20)
    records[12] = IterationRecord(12, records[11].energy + 1e-3, [], [], 0, 0, None, 0.0)
    with pytest.raises(ValueError, match="positive"):
        extrapolate(records, drop_first=3)


def test_extrapolate_rejects_too_few_points():
    records = _geometric_records(-0.3, -1.0, -1.0, 6)
    with pytest.raises(ValueError, match=">= 4"):
        extrapolate(records, drop_first=3)


def test_extrapolate_rejects_positive_slope():
    # monotone decreasing energies whose differences grow: log-linear fit
    # has positive slope, so there is no geometric limit to extrapolate to
    energy = 0.0
    records = []
    for k in range(20):
        records.append(IterationRecord(k, energy, [], [], 0, 0, None, 0.0))
        energy -= 10.0 ** (0.05 * k - 3.0)
    with pytest.raises(ValueError, match="slope"):
        extrapolate(records, drop_first=3)
