"""Per-layer spans recorded from outside the package.

Each traced function is replaced, at the module attribute its caller looks
up, by a wrapper that times the call and keeps counters.  A span's self time
is its duration minus the duration of the traced calls made inside it, so
the self times of one pass add up to the pass's wall time less the time
spent outside every traced call.  Nothing inside `src/` is changed.
"""

from __future__ import annotations

import time
from collections import defaultdict

import iqcc.cli
import iqcc.driver
import iqcc.exact
import iqcc.screening


class Tracer:
    """Span self times and counters, keyed by `layer.function` names."""

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self._inner: list[float] = []  # traced time spent inside each open span
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call adds to `<name>.calls` and `<name>.s`.

        `after(values, args, result)` may add further counters; it runs
        outside the span, in the caller's self time.
        """

        calls, self_s = f"{name}.calls", f"{name}.s"

        def wrapper(*args, **kwargs):
            self._inner.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                inner = self._inner.pop()
                if self._inner:
                    self._inner[-1] += elapsed
                self.values[calls] += 1
                self.values[self_s] += elapsed - inner
            if after is not None:
                after(self.values, args, result)
            return result

        return wrapper

    def patch(self, module, attr: str, wrapper) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)



def self_time(values: dict[str, float]) -> float:
    """Sum of the self times in a table of span values."""
    return sum(v for k, v in values.items() if k.endswith(".s"))


def install_timers(tracer: Tracer) -> None:
    """The two spans every run needs: the solver loop and the exact oracle.

    `cli` reaches `iqcc_run` through its own name binding and the benchmark
    through `iqcc.driver`; one wrapper serves both, and a call passes only
    one of them.  `cli` and `fermion` both call `exact.ground_state`, so it
    is wrapped once, on `iqcc.exact`.
    """
    run = tracer.span("driver.iqcc_run", iqcc.driver.iqcc_run)
    tracer.patch(iqcc.driver, "iqcc_run", run)
    tracer.patch(iqcc.cli, "iqcc_run", run)
    tracer.patch(iqcc.exact, "ground_state", tracer.span("exact.ground_state", iqcc.exact.ground_state))


def _count_terms(key: str, arg: int | None = None):
    """Counter of the term count of an argument (by position) or of the result."""

    def after(values, args, result):
        values[key] += len(args[arg] if arg is not None else result)

    return after


def _compress_counts(values, args, result):
    report = result[1]
    values["compression.terms_before"] += report.terms_before
    values["compression.terms_after"] += report.terms_after


def _bfgs_counts(values, minimize):
    """Count-only wrapper for the minimizer the driver calls.

    It opens no span, so its time stays in `driver.optimize_step` self time
    (the BFGS glue); the objective's own calls are traced separately.
    """

    def counted(*args, **kwargs):
        res = minimize(*args, **kwargs)
        values["driver.bfgs.starts"] += 1
        values["driver.bfgs.nfev"] += int(res.nfev)
        values["driver.bfgs.unconverged"] += 0 if res.success else 1
        return res

    return counted


def install_layers(tracer: Tracer) -> None:
    """Wrap every traced public function at the binding its caller uses.

    `driver` imports the dressing, product-state, screening and compression
    functions by name, and `cli` imports the fermion and operator-file
    functions by name, so those bindings are the ones rebound.  A function
    called from inside its own module (such as `dress` inside
    `dress_sequence`, or `reduce_qubits` inside `choose_sector`) is not
    traced there and counts in its caller's self time.
    """
    install_timers(tracer)
    d, cli = iqcc.driver, iqcc.cli
    spans = [
        (d, "dress", "dressing.dress", _count_terms("dressing.dress.terms_out")),
        (d, "dress_derivative", "dressing.dress_derivative", None),
        (d, "dress_sequence", "dressing.dress_sequence", None),
        (d, "energy_and_gradient", "product_state.energy_and_gradient",
         _count_terms("product_state.energy_and_gradient.terms", arg=1)),
        (d, "energy", "product_state.energy", None),
        (d, "qmf_minimize", "product_state.qmf_minimize", None),
        (d, "optimize_step", "driver.optimize_step", None),
        (d, "build_dis", "screening.build_dis", _count_terms("screening.build_dis.groups")),
        (d, "pool_gradients", "screening.pool_gradients", None),
        (d, "sample_generators", "screening.sample_generators", None),
        (d, "compress", "compression.compress", _compress_counts),
        (iqcc.screening, "commutator_half", "pauli.commutator_half", None),
        (cli, "parse_integrals", "fermion.parse_integrals", None),
        (cli, "parity_map", "fermion.parity_map", None),
        (cli, "choose_sector", "fermion.choose_sector", None),
        (cli, "reduce_qubits", "fermion.reduce_qubits", None),
        (cli, "read_operator", "pauli.read_operator", None),
        (cli, "write_operator", "pauli.write_operator", None),
        (cli, "cmd_map", "cli.map", None),
        (cli, "cmd_run", "cli.run", None),
    ]
    for module, attr, name, after in spans:
        tracer.patch(module, attr, tracer.span(name, getattr(module, attr), after))

    # matvecs are counted by wrapping the closure make_matvec returns
    make = tracer.span("exact.make_matvec", iqcc.exact.make_matvec)
    tracer.patch(iqcc.exact, "make_matvec", lambda h: tracer.span("exact.matvec", make(h)))

    tracer.patch(d, "_scipy_minimize", _bfgs_counts(tracer.values, d._scipy_minimize))
