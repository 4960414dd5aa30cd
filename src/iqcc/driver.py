"""The iterative outer loop: generator selection, joint amplitude/angle
optimization, dressing, optional compression, termination and geometric
extrapolation of the energy sequence.

Each iteration screens the current (dressed) Hamiltonian on the purified
reference of the previous angles, optimizes the new amplitudes jointly with
all Bloch angles, then folds the optimized exponentials into the
Hamiltonian.  The classical objective is the product-state energy of the
dressed operator, which equals the circuit expectation value exactly; no
statevector is ever simulated in the loop.  It is minimized by the package's
own BFGS (`iqcc.bfgs`) from several starts.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bfgs import minimize as _scipy_minimize  # bench/tracing.py wraps this binding by name
from .compression import compress
from .dressing import DressingStep, dress, dress_derivative, dress_sequence
from .pauli import Operator, PauliWord
from .product_state import BlochState, energy, energy_and_gradient, purify, qmf_minimize
from .screening import OperatorPool, build_dis, dis_pool, pool_gradients, sample_generators

logger = logging.getLogger(__name__)


@dataclass
class IqccConfig:
    """Parameters of the iterative scheme."""

    n_g: int = 1
    n_steps: int = 50
    pool: OperatorPool = field(default_factory=dis_pool)
    grad_threshold: float = 1e-7  # hartree/rad; loop stops below it
    energy_threshold: float | None = 1e-8  # hartree; None disables the check
    epsilon: float | None = None  # compression accuracy; None disables
    mu: float = 0.0  # spin-penalty strength, hartree
    n_random_guesses: int = 10
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_g < 1 or self.n_steps < 1 or self.n_random_guesses < 1:
            raise ValueError("n_g, n_steps and n_random_guesses must be >= 1")
        if not 0.0 < self.grad_threshold < math.inf:
            raise ValueError("grad_threshold must be finite and positive")
        if self.energy_threshold is not None and not 0.0 < self.energy_threshold < math.inf:
            raise ValueError("energy_threshold must be finite and positive when enabled")
        if self.epsilon is not None and not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive when enabled")
        if not 0.0 <= self.mu < math.inf:
            raise ValueError("mu must be finite and non-negative")


@dataclass
class IterationRecord:
    """Per-iteration bookkeeping; k = 0 is the mean-field initialization."""

    k: int
    energy: float
    generators: list[PauliWord]
    amplitudes: list[float]
    terms_before: int
    terms_after: int
    top_gradient: float | None
    wall_time: float

    def to_json_dict(self) -> dict:
        # wall_time is deliberately left out: serialized logs must be
        # byte-identical across reruns with fixed seeds.
        return {
            "k": self.k,
            "energy": self.energy,
            "generators": [w.to_label() for w in self.generators],
            "amplitudes": list(self.amplitudes),
            "terms_before": self.terms_before,
            "terms_after": self.terms_after,
            "top_gradient": self.top_gradient,
        }


@dataclass(frozen=True)
class ExtrapolationFit:
    """Least-squares fit of log10 successive energy differences."""

    a_prime: float  # slope; must be negative for a valid geometric fit
    b_prime: float
    window: tuple[int, int]  # first and last iteration index used
    estimate: float  # extrapolated converged energy, hartree
    residual: float  # rms residual of the log-linear fit


def _objective(h: Operator, generators: Sequence[PauliWord], n: int):
    """Joint objective over [amplitudes, thetas, phis] with analytic gradient."""
    g = len(generators)

    def fun(x: np.ndarray):
        if not np.isfinite(x).all():  # an overflowed line search: a failed evaluation, not bad input
            return math.nan, np.full_like(x, math.nan)
        taus = x[:g]
        state = BlochState(x[g : g + n], x[g + n :])
        chain = [h]
        steps = []
        for p, tau in zip(generators, taus):
            steps.append(DressingStep(p, float(tau)))
            chain.append(dress(chain[-1], steps[-1]))
        e, g_theta, g_phi = energy_and_gradient(state, chain[-1])
        g_tau = np.empty(g)
        for k in range(g):
            deriv = dress_derivative(chain[k], steps[k])
            for later in steps[k + 1 :]:
                deriv = dress(deriv, later)
            g_tau[k] = energy(state, deriv)
        return e, np.concatenate([g_tau, g_theta, g_phi])

    return fun


def optimize_step(
    h: Operator,
    generators: Sequence[PauliWord],
    prev: BlochState,
    config: IqccConfig,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, BlochState, float]:
    """Minimize the energy over the new amplitudes and all Bloch angles.

    Tries `n_random_guesses` random starts plus the fallback start (zero
    amplitudes, previous angles); the fallback guarantees the result is
    never above the previous iteration's energy.  Raises ArithmeticError
    when no start reaches a finite energy.
    """
    if not generators:
        raise ValueError("optimize_step needs at least one generator")
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    n = h.n_qubits
    g = len(generators)
    fun = _objective(h, generators, n)

    # Fallback start first, then random guesses.  Half of the guesses keep
    # the previous angles and randomize only the amplitudes: the fallback
    # point is a stationary point of the angle block, and escaping it along
    # the new amplitude directions is what the added generators are for.
    starts = [np.concatenate([np.zeros(g), prev.theta, prev.phi])]
    for i in range(config.n_random_guesses):
        taus0 = rng.uniform(-math.pi, math.pi, g)
        if i % 2 == 0:
            starts.append(np.concatenate([taus0, prev.theta, prev.phi]))
        else:
            starts.append(
                np.concatenate(
                    [taus0, rng.uniform(0.0, math.pi, n), rng.uniform(0.0, 2.0 * math.pi, n)]
                )
            )

    best_x, best_e = None, math.inf
    for x0 in starts:
        res = _scipy_minimize(fun, x0, maxiter=500)
        if math.isfinite(res.fun) and res.fun < best_e:
            best_x, best_e = res.x, float(res.fun)
    if best_x is None:
        raise ArithmeticError(f"no optimizer start of {len(starts)} reached a finite energy")
    taus = np.array([DressingStep(generators[i], best_x[i]).tau for i in range(g)])
    state = BlochState(best_x[g : g + n], best_x[g + n :]).normalized()
    return taus, state, best_e


def _select_generators(
    h: Operator, state: BlochState, config: IqccConfig, sample_seed: int
) -> tuple[list[PauliWord], float]:
    """Screen the current Hamiltonian; return generators and the top gradient."""
    ref = purify(state)
    if config.pool.words is None:
        groups = [g for g in build_dis(h, ref) if g.gradient_magnitude > config.grad_threshold]
        if not groups:
            return [], 0.0
        return sample_generators(groups, config.n_g, sample_seed), groups[0].gradient_magnitude
    ranked = pool_gradients(h, ref, config.pool, top=config.n_g)
    ranked = [(w, grad) for w, grad in ranked if grad > config.grad_threshold]
    if not ranked:
        return [], 0.0
    return [w for w, _ in ranked], ranked[0][1]


def iqcc_run(h: Operator, config: IqccConfig, penalty: Operator | None = None) -> list[IterationRecord]:
    """Run the full iterative loop and return one record per iteration.

    When `config.mu` is positive, `penalty` must supply the total-spin
    operator on the same qubits; the loop then minimizes h + (mu/2)*penalty.
    Screening exhaustion (no generator above the gradient threshold) is a
    normal termination, not an error.
    """
    if config.mu > 0.0:
        if penalty is None:
            raise ValueError("mu > 0 requires a penalty operator")
        from .fermion import spin_penalize

        h = spin_penalize(h, penalty, config.mu)

    rng = np.random.default_rng(config.rng_seed)
    t0 = time.perf_counter()
    state, e = qmf_minimize(h, config.n_random_guesses, config.rng_seed)
    records = [IterationRecord(0, e, [], [], len(h), len(h), None, time.perf_counter() - t0)]
    logger.info("init E_qmf=%.12f terms=%d", e, len(h))

    current = h
    for k in range(1, config.n_steps + 1):
        t0 = time.perf_counter()
        generators, top_grad = _select_generators(current, state, config, int(rng.integers(2**63)))
        if not generators:
            logger.info("iteration %d: top gradient below %.3g, stopping", k, config.grad_threshold)
            break
        taus, new_state, new_e = optimize_step(current, generators, state, config, rng)
        improvement = e - new_e
        stop = config.energy_threshold is not None and improvement < config.energy_threshold
        if stop:
            terms_before = terms_after = len(current)
        else:
            steps = [DressingStep(p, t) for p, t in zip(generators, taus)]
            dressed = dress_sequence(current, steps)
            terms_before = len(dressed)
            if config.epsilon is not None:
                current, report = compress(dressed, config.epsilon)
                terms_after = report.terms_after
            else:
                current, terms_after = dressed, terms_before
        records.append(
            IterationRecord(
                k, new_e, list(generators), [float(t) for t in taus], terms_before, terms_after,
                top_grad, time.perf_counter() - t0,
            )
        )
        if stop:
            logger.info("iteration %d: improvement %.3g below threshold, stopping", k, improvement)
            break
        state, e = new_state, new_e
        logger.info(
            "iteration %d: E=%.12f ngen=%d top_grad=%.3g terms=%d->%d",
            k, e, len(generators), top_grad, terms_before, terms_after,
        )
    return records


def extrapolate(records: Sequence[IterationRecord], drop_first: int = 10) -> ExtrapolationFit:
    """Geometric extrapolation of the converged energy from the record tail.

    Fits log10(E(k-1) - E(k)) = a'k + b' over iterations k > drop_first,
    then removes the finite-difference offset: with a = a' and
    b = b' - log10(10**(-a') - 1), the converged energy is estimated as
    E(K) - 10**(a*K + b) at the last iteration K.  Requires at least four
    strictly positive consecutive differences and a negative slope.
    """
    if drop_first < 0:
        raise ValueError("drop_first must be >= 0")
    usable = [r for r in records if r.k > drop_first]
    by_k = {r.k: r.energy for r in records}
    ks, diffs = [], []
    for r in usable:
        prev = by_k.get(r.k - 1)
        if prev is None:
            continue
        ks.append(r.k)
        diffs.append(prev - r.energy)
    if len(ks) < 4:
        raise ValueError(f"need >= 4 consecutive-difference points, got {len(ks)}")
    diffs = np.asarray(diffs)
    if np.any(diffs <= 0.0):
        raise ValueError("non-monotone energy sequence: differences must all be positive")
    ks = np.asarray(ks, dtype=np.float64)
    logs = np.log10(diffs)
    a_prime, b_prime = np.polyfit(ks, logs, 1)
    if a_prime >= 0.0:
        raise ValueError(f"fit slope {a_prime:.3g} is not negative: no geometric decay")
    residual = float(np.sqrt(np.mean((a_prime * ks + b_prime - logs) ** 2)))
    b = b_prime - math.log10(10.0 ** (-a_prime) - 1.0)
    k_last = int(ks[-1])
    estimate = by_k[k_last] - 10.0 ** (a_prime * k_last + b)
    return ExtrapolationFit(float(a_prime), float(b_prime), (int(ks[0]), k_last), float(estimate), residual)
