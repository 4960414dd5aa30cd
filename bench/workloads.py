"""The benchmark workloads: seeded inputs, the timed steps of a pass, and their checks.

Every step goes through the public API, or through the `iqcc` command line
run in-process, and returns one `Solve` per solver run it finished.  Solver calls go
through module attributes (`iqcc.driver.iqcc_run`, `iqcc.exact.ground_state`)
so that the spans in `tracing.py` see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

import iqcc.cli
import iqcc.driver
import iqcc.exact
from iqcc.driver import IqccConfig
from iqcc.exact import make_matvec
from iqcc.fermion import jordan_wigner, write_integrals

from instances import capacity_operator, random_integrals, regauge, z_frame

VARIATIONAL_SLACK = 1e-9


@dataclass
class Solve:
    """One solver run of a pass, with what its checks need."""

    energies: list[float]  # by iteration k = 0, 1, ...
    e_oracle: float
    weyl_budget: float  # epsilon summed over iterations whose compression dropped terms
    output: bytes  # seeded output that must repeat byte for byte
    problems: list[str] = field(default_factory=list)
    verify: Callable[[], list[str]] | None = None  # further checks, run untimed

    def check(self) -> list[str]:
        """Failed checks: exit codes, monotone energies, variational and Weyl bounds."""
        problems = list(self.problems) + (self.verify() if self.verify else [])
        e = self.energies
        if any(b > a + 1e-12 for a, b in zip(e, e[1:])):
            problems.append("energy increased between iterations")
        floor = self.e_oracle - VARIATIONAL_SLACK - self.weyl_budget
        if min(e) < floor:
            problems.append(f"energy {min(e)!r} below the oracle bound {floor!r}")
        return problems

    @property
    def final_error(self) -> float:
        return self.energies[-1] - self.e_oracle


def _records_solve(records, config: IqccConfig, e_oracle: float) -> Solve:
    lines = "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n" for r in records)
    compressing = sum(1 for r in records[1:] if r.terms_after < r.terms_before)
    budget = (config.epsilon or 0.0) * compressing
    return Solve([r.energy for r in records], e_oracle, budget, lines.encode())


def quality(solves: list[Solve]) -> dict[str, float]:
    """Result quality of one pass; it depends on the seed only."""
    return {"quality.final_error_ha": statistics.median(s.final_error for s in solves)}


class Workload:
    """Seeded inputs built by the constructor (timed as set-up), and the steps of a pass.

    A pass runs `steps()` in order; each step is timed on its own and
    returns the solver runs it finished.  Steps of one pass may hand results
    to later ones (an oracle energy to the runs checked against it).
    """

    def prepare(self) -> None:
        """Work only the checks need, done after set-up is timed."""

    def steps(self) -> list[tuple[str, Callable[[], list[Solve]]]]:
        raise NotImplementedError


class MappedRun(Workload):
    """Integrals in, `iqcc map` then `iqcc run` out: 10 qubits reduced to 8.

    The pass writes the operator file, the JSONL log, the CSV table and the
    summary into `workdir`, exactly as a user of the command line would.
    One iteration: the second takes about three times as long as the first
    (on operators of up to 9,598 terms), too long to repeat within one run.
    """

    name = "mapped-8q"
    integral_seed = 0

    def __init__(self, seed: int, workdir: Path):
        base = random_integrals(np.random.default_rng(self.integral_seed), 5)
        self.data = base if seed == 0 else regauge(base, np.random.default_rng(seed))
        self.workdir = workdir
        with open(workdir / "mapped.fcidump", "w") as fh:
            write_integrals(self.data, fh)
        self.e_full: float | None = None
        self.map_exit: int | None = None

    def prepare(self) -> None:
        """Reference for the sector search: the unreduced Jordan-Wigner operator's ground energy."""
        self.e_full, _ = iqcc.exact.ground_state(jordan_wigner(self.data))

    def steps(self):
        return [("map", self._map), ("run", self._run)]

    def _map(self) -> list[Solve]:
        d = self.workdir
        with contextlib.redirect_stdout(io.StringIO()):
            self.map_exit = iqcc.cli.main(
                ["--outdir", str(d), "map", str(d / "mapped.fcidump"), "--mapping", "parity", "-o", "mapped.op"]
            )
        return []

    def _run(self) -> list[Solve]:
        d = self.workdir
        rc_map, self.map_exit = self.map_exit, None
        problems = [f"iqcc map exited {rc_map}"] if rc_map else []
        rc_run = None
        if rc_map == 0:
            with contextlib.redirect_stdout(io.StringIO()):
                rc_run = iqcc.cli.main([
                    "--outdir", str(d), "run", str(d / "mapped.op"), "--ng", "4", "--steps", "1",
                    "--guesses", "4", "--epsilon", "1e-3", "--energy-threshold", "1e-12", "--seed", "0", "-o", "mapped",
                ])
        if rc_run != 0:
            problems.append(f"iqcc run exited {rc_run}")
            return [Solve([0.0], 0.0, 0.0, b"", problems)]

        records = [json.loads(line) for line in (d / "mapped.log.jsonl").read_text().splitlines()]
        summary = dict(
            line.split("=", 1) for line in (d / "mapped.summary.txt").read_text().splitlines() if "=" in line
        )
        e_exact = float(summary["e_exact"])
        if abs(e_exact - self.e_full) > 1e-8:
            problems.append(f"reduced oracle {e_exact!r} differs from the full one {self.e_full!r}")
        compressing = sum(1 for r in records[1:] if r["terms_after"] < r["terms_before"])
        output = b"".join((d / f"mapped{ext}").read_bytes() for ext in (".op", ".log.jsonl", ".table.csv"))
        return [Solve([r["energy"] for r in records], e_exact, 1e-3 * compressing, output, problems)]


class Capacity(Workload):
    """The capacity operator of acceptance criterion 11 on 13 qubits: Lanczos oracle, one iQCC iteration.

    The 14-qubit original takes about 20 s per Lanczos solve, too long to
    repeat within one run; 13 qubits halve the matvec and keep the
    operator's 825 4-local even-y terms.  The oracle always solves the
    operator in its own gauge and only the iteration takes the seeded gauge
    copy, checked against that oracle (the spectrum is the same): the hand
    Lanczos restarts every 51 matvecs, and how many restarts it needs
    depends on how the operator meets its fixed start vector, so over
    gauges it took 255 or 306 matvecs, a fifth apart in time.
    """

    name = "oracle-13q"
    n_qubits = 13

    def __init__(self, seed: int, workdir: Path):
        self.base = capacity_operator(n=self.n_qubits)
        self.op = self.base if seed == 0 else z_frame(self.base, np.random.default_rng(seed))
        self.e_oracle: float | None = None

    def steps(self):
        return [("oracle", self._oracle), ("iteration", self._iteration)]

    def _oracle(self) -> list[Solve]:
        self.e_oracle, self.v_oracle = iqcc.exact.ground_state(self.base, mode="iterative")
        return []

    def _iteration(self) -> list[Solve]:
        config = IqccConfig(n_g=1, n_steps=1, n_random_guesses=3, rng_seed=0, energy_threshold=None, epsilon=1e-3)
        records = iqcc.driver.iqcc_run(self.op, config)
        solve = _records_solve(records, config, self.e_oracle)
        solve.verify = partial(eigenpair_problems, self.base, self.e_oracle, self.v_oracle)
        if len(records) != 2:
            solve.problems.append(f"expected one iteration, got {len(records) - 1}")
        return [solve]


def eigenpair_problems(h, e: float, v: np.ndarray) -> list[str]:
    """The oracle's vector must be a unit eigenvector of h with eigenvalue e."""
    hv = make_matvec(h)(v)
    residual = float(np.linalg.norm(hv - e * v))
    if abs(np.linalg.norm(v) - 1.0) > 1e-9 or residual > 1e-8:
        return [f"oracle eigenpair residual {residual:.3g}"]
    return []


WORKLOADS = {w.name: w for w in (MappedRun, Capacity)}
