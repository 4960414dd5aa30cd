"""Command-line front end: integral mapping, the iterative solver loop,
standalone screening/exact/compression tools, and plot-ready data export.

Subcommands: map, run, screen, exact, compress.  All output files are
deterministic for fixed seeds and inputs.  Exit codes: 0 success, 1 user
error, 2 solver failure or internal invariant violation.  The default
output directory can be set with the IQCC_OUTDIR environment variable.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import exact
from .compression import DEFAULT_EPSILON, compress
from .driver import IqccConfig, extrapolate, iqcc_run
from .fermion import (
    build_symmetry_operator,
    choose_sector,
    find_stationary_qubits,
    jordan_wigner,
    parity_map,
    parse_integrals,
    QubitAssignment,
    reduce_qubits,
)
from .pauli import Operator, ParseError, read_operator, write_operator
from .product_state import purify, qmf_minimize
from .screening import build_dis, dis_pool, fermionic_sd_pool, two_qubit_pauli_pool

logger = logging.getLogger(__name__)

_POOLS = {"dis": dis_pool, "two-qubit": two_qubit_pauli_pool, "fermionic-sd": fermionic_sd_pool}


# run parameters a manifest may set: JSON key -> (run flag attribute, accepted types)
_RUN_KEYS = {
    "n_g": ("ng", (int,)),
    "n_steps": ("steps", (int,)),
    "pool": ("pool", (str,)),
    "grad_threshold": ("grad_threshold", (int, float)),
    "energy_threshold": ("energy_threshold", (int, float, type(None))),
    "epsilon": ("epsilon", (int, float, type(None))),
    "mu": ("mu", (int, float)),
    "n_random_guesses": ("guesses", (int,)),
    "rng_seed": ("seed", (int,)),
    "drop_first": ("drop_first", (int,)),
}


def _run_settings(args) -> dict:
    """Run parameters set by the manifest or a flag; explicit flags win.

    Keys set by neither are left out, so they keep the defaults of
    `IqccConfig` and `extrapolate`.  A manifest `null` disables `epsilon` or
    `energy_threshold`.
    """
    settings = {}
    if args.manifest is not None:
        with open(args.manifest) as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ParseError(f"manifest {args.manifest} must contain a JSON object")
        for key, value in values.items():
            if key not in _RUN_KEYS:
                raise ParseError(f"manifest {args.manifest}: unknown key {key!r}")
            if isinstance(value, bool) or not isinstance(value, _RUN_KEYS[key][1]):
                raise ParseError(f"manifest {args.manifest}: wrong type for {key!r}: {value!r}")
            if key == "pool" and value not in _POOLS:
                raise ParseError(f"manifest {args.manifest}: unknown pool {value!r} for 'pool'")
            if key == "drop_first" and value < 0:
                raise ParseError(f"manifest {args.manifest}: 'drop_first' must be >= 0, got {value}")
            settings[key] = value
    for key, (flag, _) in _RUN_KEYS.items():
        if getattr(args, flag) is not None:
            settings[key] = getattr(args, flag)
    if settings.get("drop_first", 0) < 0:
        raise ValueError(f"drop_first must be >= 0, got {settings['drop_first']}")
    return settings


def _outdir(args) -> Path:
    out = args.outdir or os.environ.get("IQCC_OUTDIR", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_operator(path: str) -> Operator:
    with open(path) as fh:
        return read_operator(fh)


def _fmt(value: float) -> str:
    return json.dumps(value)


# -- map -------------------------------------------------------------------


def _parse_assignment(text: str) -> QubitAssignment:
    """`pos=+-1` items joined by commas, each position at most once."""
    eigenvalues = {}
    for item in text.split(","):
        match = re.fullmatch(r"\s*(\d+)\s*=\s*([+-]?1)\s*", item)
        if match is None:
            raise ParseError(f"--assign item {item!r} is not of the form pos=1 or pos=-1")
        pos = int(match[1])
        if pos in eigenvalues:
            raise ParseError(f"--assign item {item!r} repeats position {pos}")
        eigenvalues[pos] = int(match[2])
    return QubitAssignment(eigenvalues)


def cmd_map(args) -> int:
    assignment = _parse_assignment(args.assign) if args.assign else None
    if assignment is not None and not args.reduce:
        raise ValueError("--assign picks the sector of a reduction and cannot be used with --no-reduce")
    with open(args.integrals) as fh:
        data = parse_integrals(fh)
    mapper = jordan_wigner if args.mapping == "jw" else parity_map
    h = mapper(data)
    print(f"mapped: qubits={h.n_qubits} terms={len(h)}")

    if args.reduce:
        stationary = sorted(find_stationary_qubits(h))
        if assignment is not None and not 0 < len(stationary) < h.n_qubits:
            raise ValueError(f"--assign cannot be applied: {len(stationary)} of {h.n_qubits} qubits are stationary")
        if not stationary:
            print("reduction: no stationary qubits found")
        elif len(stationary) == h.n_qubits:
            print("reduction: operator is fully diagonal, skipping")
        else:
            if assignment is None:
                assignment = choose_sector(h, oracle_budget=args.budget)
            h = reduce_qubits(h, assignment)
            eigs = [assignment.eigenvalues[p] for p in assignment.positions]
            print(f"reduction: positions={list(assignment.positions)} eigenvalues={eigs}")
            print(f"reduced: qubits={h.n_qubits} terms={len(h)}")
    if h.is_empty:  # a file no command reads back
        raise ValueError("the mapped operator has no terms; no file written")

    out = _outdir(args) / (args.output or f"{Path(args.integrals).stem}.{args.mapping}.op")
    with open(out, "w") as fh:
        write_operator(h, fh)
    print(f"wrote {out}")

    if args.emit_s2:
        s2 = build_symmetry_operator("s2", data.n_so, args.mapping)
        if assignment is not None:
            s2 = reduce_qubits(s2, assignment)
        with open(args.emit_s2, "w") as fh:
            write_operator(s2, fh)
        print(f"wrote {args.emit_s2}")
    return 0


# -- run -------------------------------------------------------------------


def cmd_run(args) -> int:
    settings = _run_settings(args)
    h = _load_operator(args.operator)

    fit_options = {"drop_first": settings.pop("drop_first")} if "drop_first" in settings else {}
    if "pool" in settings:
        settings["pool"] = _POOLS[settings["pool"]]()
    config = IqccConfig(**settings)
    penalty = None
    if config.mu > 0.0:
        if not args.s2:
            raise ValueError("--mu requires --s2 <operator file>")
        penalty = _load_operator(args.s2)
    elif args.s2:
        raise ValueError("--s2 requires a positive --mu (flag or manifest)")

    e_exact = None
    if h.n_qubits <= exact.ITERATIVE_QUBIT_LIMIT:
        e_exact, _ = exact.ground_state(h)

    records = iqcc_run(h, config, penalty=penalty)

    outdir = _outdir(args)
    prefix = args.output or Path(args.operator).stem
    log_path = outdir / f"{prefix}.log.jsonl"
    with open(log_path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r.to_json_dict(), sort_keys=True) + "\n")

    table_path = outdir / f"{prefix}.table.csv"
    with open(table_path, "w") as fh:
        fh.write("iteration,energy,error,terms_before,terms_after\n")
        for r in records:
            err = _fmt(r.energy - e_exact) if e_exact is not None else ""
            fh.write(f"{r.k},{_fmt(r.energy)},{err},{r.terms_before},{r.terms_after}\n")

    summary = [f"final_energy={_fmt(records[-1].energy)}", f"iterations={records[-1].k}"]
    if e_exact is not None:
        summary.append(f"e_exact={_fmt(e_exact)}")
        summary.append(f"final_error={_fmt(records[-1].energy - e_exact)}")
    try:
        fit = extrapolate(records, **fit_options)
        summary.append(
            f"extrapolation: estimate={_fmt(fit.estimate)} slope={_fmt(fit.a_prime)}"
            f" intercept={_fmt(fit.b_prime)} window={fit.window[0]}..{fit.window[1]}"
            f" residual={_fmt(fit.residual)}"
        )
    except ValueError as exc:
        summary.append(f"extrapolation: rejected ({exc})")
    summary_path = outdir / f"{prefix}.summary.txt"
    summary_text = "\n".join(summary) + "\n"
    with open(summary_path, "w") as fh:
        fh.write(summary_text)
    print(summary_text, end="")
    print(f"wrote {log_path} {table_path} {summary_path}")
    return 0


# -- screen / exact / compress ----------------------------------------------


def cmd_screen(args) -> int:
    h = _load_operator(args.operator)
    state, _ = qmf_minimize(h, args.guesses, args.seed)
    ref = purify(state)
    groups = build_dis(h, ref)
    lines = ["flips,representative,gradient,group_size"]
    for g in groups:
        flips = " ".join(str(j) for j in sorted(g.flips))
        size = 1 << (h.n_qubits - 1)
        lines.append(f"{flips},{g.representative.to_label()},{_fmt(g.gradient_magnitude)},{size}")
    text = "\n".join(lines) + "\n"
    if args.output:
        out = _outdir(args) / args.output
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        print(text, end="")
    return 0


def cmd_exact(args) -> int:
    h = _load_operator(args.operator)
    energy, _ = exact.ground_state(h, mode=args.mode)
    print(f"{energy:.12g}")
    return 0


def cmd_compress(args) -> int:
    h = _load_operator(args.operator)
    compressed, report = compress(h, args.epsilon)
    if compressed.is_empty:  # a file no command reads back
        raise ValueError(
            f"epsilon {_fmt(report.epsilon)} would drop every term (dropped_norm={_fmt(report.dropped_norm)})"
        )
    out = _outdir(args) / (args.output or f"{Path(args.operator).stem}.compressed.op")
    with open(out, "w") as fh:
        write_operator(compressed, fh)
    print(
        f"compressed: terms {report.terms_before} -> {report.terms_after}"
        f" dropped_norm={_fmt(report.dropped_norm)} epsilon={_fmt(report.epsilon)}"
    )
    print(f"wrote {out}")
    return 0


# -- entry point --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="iqcc", description=__doc__)
    parser.add_argument("--outdir", help="output directory (default: $IQCC_OUTDIR or .)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="map an integral file to a qubit operator")
    p.add_argument("integrals")
    p.add_argument("--mapping", choices=("jw", "parity"), default="jw")
    p.add_argument("--reduce", action=argparse.BooleanOptionalAction, default=True,
                   help="remove stationary qubits (--no-reduce keeps all)")
    p.add_argument("--assign", help="manual sector of the reduction, e.g. '1=-1,3=1'")
    p.add_argument("--budget", type=int, default=12, help="oracle qubit budget for sector search")
    p.add_argument("--emit-s2", help="also write the (reduced) total-spin operator here")
    p.add_argument("-o", "--output", help="operator file name")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("run", help="run the iterative solver on an operator file")
    p.add_argument("operator")
    p.add_argument("--manifest", help="JSON file with default parameters; flags win")
    p.add_argument("--ng", type=int, default=None, help="generators added per iteration")
    p.add_argument("--steps", type=int, default=None, help="maximum iterations")
    p.add_argument("--pool", choices=tuple(_POOLS), default=None)
    p.add_argument("--grad-threshold", type=float, default=None)
    p.add_argument("--energy-threshold", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None, help="compression accuracy (hartree)")
    p.add_argument("--mu", type=float, default=None, help="spin penalty strength (hartree)")
    p.add_argument("--s2", help="total-spin operator file (required with --mu, and only read with it)")
    p.add_argument("--guesses", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--drop-first", type=int, default=None, help="iterations dropped before extrapolation")
    p.add_argument("-o", "--output", help="output file prefix")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("screen", help="print the gradient-group table for an operator")
    p.add_argument("operator")
    p.add_argument("--guesses", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("exact", help="exact ground energy of an operator file")
    p.add_argument("operator")
    p.add_argument("--mode", choices=("auto", "dense", "iterative"), default="auto")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("compress", help="norm-truncate an operator file")
    p.add_argument("operator")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                   help="eigenvalue displacement budget, hartree (default 1e-3)")
    p.add_argument("-o", "--output", help="output operator file name")
    p.set_defaults(func=cmd_compress)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ParseError, ValueError, exact.BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # a stalled oracle, a missed residual, no finite optimizer start
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
