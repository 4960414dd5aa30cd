"""Checks of the benchmark itself: its inputs and its trace.

    PYTHONPATH=src python -m pytest -q bench

The instance recipes must keep building the acceptance-suite operators at
the default seed, seeded variants must be isospectral to them, and the
trace must count each call exactly once and change no result.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from iqcc.exact import dense_matrix, ground_state
from iqcc.fermion import jordan_wigner
from instances import capacity_operator, random_integrals, regauge, z_frame
from tracing import Tracer, install_layers, install_timers
from worker import run_pass
from workloads import Capacity, MappedRun, eigenpair_problems

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def suite():
    """The acceptance suite's generators, loaded from tests/conftest.py."""
    spec = importlib.util.spec_from_file_location("acceptance_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_integrals_match_the_acceptance_recipe(suite):
    ours = random_integrals(np.random.default_rng(MappedRun.integral_seed), 5)
    theirs = suite.random_integrals(np.random.default_rng(MappedRun.integral_seed), 5)
    assert np.array_equal(ours.h, theirs.h) and np.array_equal(ours.g, theirs.g)
    assert ours.e_core == theirs.e_core


def test_capacity_operator_is_criterion_11():
    # digest of the operator the criterion-11 builder in tests/test_acceptance.py makes
    h = capacity_operator()
    assert (h.n_qubits, len(h)) == (14, 825)
    digest = hashlib.sha256(h.x_masks.tobytes() + h.z_masks.tobytes() + h.coefficients.tobytes())
    assert digest.hexdigest() == "d1bc28708def2fa43d0233865e46d4134ecd36397f3771e4051594f36c2285bb"
    # the workload runs the same recipe on 13 qubits; the seed gauges only the iteration's copy
    assert Capacity(0, ROOT).op == Capacity(0, ROOT).base == capacity_operator(n=13)
    seeded = Capacity(3, ROOT)
    assert seeded.base == capacity_operator(n=13) and seeded.op != seeded.base


def test_eigenpair_check():
    h = capacity_operator(n=6, n_terms=40)
    e, v = ground_state(h, mode="iterative")
    assert eigenpair_problems(h, e, v) == []
    assert eigenpair_problems(h, e + 1e-6, v) != []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_variants_are_isospectral(seed):
    h = capacity_operator(seed=seed, n=5, n_terms=30)
    g = z_frame(h, np.random.default_rng(seed))
    assert g != h
    assert np.allclose(np.linalg.eigvalsh(dense_matrix(g)), np.linalg.eigvalsh(dense_matrix(h)), atol=1e-10)

    data = random_integrals(np.random.default_rng(seed), 2)
    e = np.linalg.eigvalsh(dense_matrix(jordan_wigner(data)))
    e_gauge = np.linalg.eigvalsh(dense_matrix(jordan_wigner(regauge(data, np.random.default_rng(seed)))))
    assert np.allclose(e, e_gauge, atol=1e-10)


def _pass(workload, traced: bool):
    tracer = Tracer()
    (install_layers if traced else install_timers)(tracer)
    _, solves, checks = run_pass(workload.steps(), tracer)
    assert checks == [[]] * len(solves)
    return solves, tracer.values


def test_mapped_pass_call_counts(tmp_path):
    workload = MappedRun(0, tmp_path)
    workload.prepare()
    plain, _ = _pass(workload, traced=False)
    solves, v = _pass(workload, traced=True)
    assert len(solves) == 1
    assert solves[0].output == plain[0].output  # tracing changes no result

    # 4 sectors in the sector search plus the pre-run oracle, each counted once
    assert v["exact.ground_state.calls"] == 5
    assert v["fermion.choose_sector.calls"] == 1
    assert v["cli.map.calls"] == v["cli.run.calls"] == v["driver.iqcc_run.calls"] == 1
    assert v["driver.optimize_step.calls"] == v["screening.build_dis.calls"] == 1
    # one BFGS start per guess plus the fallback start
    assert v["driver.bfgs.starts"] == 5
    # every objective evaluation: 1 energy_and_gradient, g energies and g
    # derivatives, and g + g(g-1)/2 dresses for g = 4 generators
    nfev = v["driver.bfgs.nfev"]
    assert v["product_state.energy_and_gradient.calls"] == nfev
    assert v["product_state.energy.calls"] == v["dressing.dress_derivative.calls"] == 4 * nfev
    assert v["dressing.dress.calls"] == 10 * nfev
    assert v["dressing.dress_sequence.calls"] == 1
    assert v["compression.compress.calls"] == 1
