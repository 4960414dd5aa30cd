"""End-to-end command-line behavior on the bundled integral fixture."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from iqcc import cli, exact
from iqcc.cli import main
from iqcc.driver import IqccConfig
from iqcc.pauli import read_operator

FIXTURE = Path(__file__).parent / "fixtures" / "h2_sto3g.fcidump"


def _read(path: Path) -> str:
    return path.read_text()


def test_map_reduces_and_reports(tmp_path, capsys):
    rc = main(["--outdir", str(tmp_path), "map", str(FIXTURE), "--mapping", "parity"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mapped: qubits=4 terms=15" in out
    assert "reduction: positions=[1, 3]" in out
    assert "reduced: qubits=2" in out
    with (tmp_path / "h2_sto3g.parity.op").open() as fh:
        assert read_operator(fh).n_qubits == 2


def test_map_no_reduce_keeps_qubits(tmp_path):
    rc = main(["--outdir", str(tmp_path), "map", str(FIXTURE), "--mapping", "parity",
               "--no-reduce", "-o", "full.op"])
    assert rc == 0
    with (tmp_path / "full.op").open() as fh:
        assert read_operator(fh).n_qubits == 4


def test_map_idempotent_output(tmp_path):
    for name in ("a.op", "b.op"):
        assert main(["--outdir", str(tmp_path), "map", str(FIXTURE), "-o", name]) == 0
    assert _read(tmp_path / "a.op") == _read(tmp_path / "b.op")


def test_map_missing_file_is_user_error(tmp_path, capsys):
    rc = main(["--outdir", str(tmp_path), "map", str(tmp_path / "nope.fcidump")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "assign, item",
    [("1=1,1=-1", "'1=-1'"), ("1", "'1'"), ("1=2", "'1=2'"), ("1=-1,x=1", "'x=1'"), ("1=-1,", "''")],
)
def test_map_rejects_bad_assignment(tmp_path, capsys, assign, item):
    rc = main(["--outdir", str(tmp_path), "map", str(FIXTURE), "--mapping", "parity", "--assign", assign])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --assign item") and item in err
    assert not list(tmp_path.iterdir())


def test_map_assignment_is_parsed_even_without_reduction(tmp_path, capsys):
    rc = main(["--outdir", str(tmp_path), "map", str(FIXTURE), "--no-reduce", "--assign", "garbage"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --assign item 'garbage'")
    assert not list(tmp_path.iterdir())


def test_map_rejects_assignment_with_no_reduce(tmp_path, capsys):
    rc = main(["--outdir", str(tmp_path), "map", str(FIXTURE), "--no-reduce", "--assign", "1=1"])
    assert rc == 1
    assert "--no-reduce" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_map_rejects_assignment_without_stationary_qubits(tmp_path, capsys):
    rc = main(["--outdir", str(tmp_path), "map", str(FIXTURE), "--mapping", "jw", "--assign", "0=1"])
    assert rc == 1
    assert "error: --assign cannot be applied: 0 of 4 qubits are stationary" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_map_rejects_assignment_on_a_diagonal_operator(tmp_path, capsys):
    # one spatial orbital: every mapped term is a z word
    path = tmp_path / "diag.fcidump"
    path.write_text(" &FCI NORB=1,NELEC=2,MS2=0,\n &END\n0.7 1 1 1 1\n-1.2 1 1 0 0\n0.3 0 0 0 0\n")
    assert main(["--outdir", str(tmp_path), "map", str(path)]) == 0
    assert "reduction: operator is fully diagonal, skipping" in capsys.readouterr().out
    rc = main(["--outdir", str(tmp_path), "map", str(path), "--assign", "0=1", "-o", "assigned.op"])
    assert rc == 1
    assert "error: --assign cannot be applied: 2 of 2 qubits are stationary" in capsys.readouterr().err
    assert not (tmp_path / "assigned.op").exists()


def test_map_accepts_signed_assignment(tmp_path, capsys):
    rc = main(["--outdir", str(tmp_path), "map", str(FIXTURE), "--mapping", "parity", "--assign", "1=+1, 3=-1"])
    assert rc == 0
    assert "reduction: positions=[1, 3] eigenvalues=[1, -1]" in capsys.readouterr().out


def test_map_rejects_orbital_count_beyond_64_qubits(tmp_path, capsys):
    path = tmp_path / "big.fcidump"
    path.write_text(" &FCI NORB=33,NELEC=2,MS2=0,\n &END\n0.5 1 1 0 0\n0.0 0 0 0 0\n")
    assert main(["--outdir", str(tmp_path), "map", str(path)]) == 1
    captured = capsys.readouterr()
    assert "NORB" in captured.err and "mapped:" not in captured.out
    assert [p.name for p in tmp_path.iterdir()] == ["big.fcidump"]


@pytest.mark.parametrize("flags", [[], ["--no-reduce"]])
def test_map_refuses_an_operator_with_no_terms(tmp_path, capsys, flags):
    # one orbital whose only integral is zero maps to no terms: a file no command reads back
    integrals = tmp_path / "zero.fcidump"
    integrals.write_text("&FCI NORB=1,NELEC=2,MS2=0,\n&END\n0.0 0 0 0 0\n")
    assert main(["--outdir", str(tmp_path), "map", str(integrals), "-o", "zero.op", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "no terms" in err
    assert not (tmp_path / "zero.op").exists()


def test_exact_subcommand(tmp_path, capsys):
    main(["--outdir", str(tmp_path), "map", str(FIXTURE), "-o", "h2.op"])
    capsys.readouterr()
    rc = main(["exact", str(tmp_path / "h2.op")])
    assert rc == 0
    energy = float(capsys.readouterr().out.strip())
    assert energy == pytest.approx(-1.1372696784, abs=1e-9)


def test_exact_two_qubit_sum(tmp_path, capsys):
    op = tmp_path / "zz.op"
    op.write_text("1.0 ZI\n1.0 IZ\n")
    assert main(["exact", str(op)]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(-2.0)


def test_exact_iterative_one_qubit_imaginary_term(tmp_path, capsys):
    # too small for ARPACK's complex driver; solved dense instead
    op = tmp_path / "zy.op"
    op.write_text("2.0 Z\n0.7 Y\n")
    assert main(["exact", str(op), "--mode", "dense"]) == 0
    dense = capsys.readouterr().out
    assert main(["exact", str(op), "--mode", "iterative"]) == 0
    assert capsys.readouterr().out == dense
    assert float(dense) == pytest.approx(-np.hypot(2.0, 0.7))


def test_exact_solver_stall_is_reported_as_solver_failure(tmp_path, capsys, monkeypatch):
    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((4, 0)))

    monkeypatch.setattr(exact, "eigsh", stalled)
    op = tmp_path / "zz.op"
    op.write_text("1.0 ZI\n0.5 XX\n")
    assert main(["exact", str(op), "--mode", "iterative"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: solver failed: ARPACK did not converge") and "internal" not in err


def test_screen_diagonal_operator_empty_table(tmp_path, capsys):
    op = tmp_path / "diag.op"
    op.write_text("0.5 ZI\n-0.25 ZZ\n")
    rc = main(["screen", str(op)])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["flips,representative,gradient,group_size"]


def test_screen_reports_groups(tmp_path, capsys):
    main(["--outdir", str(tmp_path), "map", str(FIXTURE), "--mapping", "parity", "-o", "h2r.op"])
    capsys.readouterr()
    rc = main(["screen", str(tmp_path / "h2r.op")])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "flips,representative,gradient,group_size"
    assert len(lines) == 2
    flips, rep, grad, size = lines[1].split(",")
    assert rep == "YX" and size == "2"
    assert float(grad) == pytest.approx(0.181287)


def test_compress_huge_epsilon_keeps_identity(tmp_path, capsys):
    op = tmp_path / "small.op"
    op.write_text("0.5 II\n0.1 XX\n-0.05 ZZ\n")
    rc = main(["--outdir", str(tmp_path), "compress", str(op), "--epsilon", "100.0", "-o", "c.op"])
    assert rc == 0
    with (tmp_path / "c.op").open() as fh:
        kept = read_operator(fh)
    assert [w.to_label() for w, _ in kept] == ["II"]


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_compress_rejects_non_finite_epsilon(tmp_path, capsys, value):
    op = tmp_path / "small.op"
    op.write_text("0.5 II\n0.1 XX\n-0.05 ZZ\n")
    assert main(["--outdir", str(tmp_path), "compress", str(op), "--epsilon", value]) == 1
    assert "epsilon must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "small.compressed.op").exists()


def test_compress_refuses_to_drop_every_term(tmp_path, capsys):
    # the empty operator it would write is one that no command reads back
    op = tmp_path / "a.op"
    op.write_text("0.5 ZZ\n0.3 XX\n")
    assert main(["--outdir", str(tmp_path), "compress", str(op), "--epsilon", "10"]) == 1
    err = capsys.readouterr().err
    assert "epsilon 10.0 would drop every term" in err and "dropped_norm=1.166" in err
    assert not (tmp_path / "a.compressed.op").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--epsilon", "nan"), ("--epsilon", "inf"), ("--grad-threshold", "nan"),
     ("--energy-threshold", "inf"), ("--mu", "nan"), ("--mu", "inf"), ("--drop-first", "-5")],
)
def test_run_rejects_non_finite_parameters(tmp_path, capsys, flag, value):
    main(["--outdir", str(tmp_path), "map", str(FIXTURE), "-o", "h2.op"])
    capsys.readouterr()
    rc = main(["--outdir", str(tmp_path), "run", str(tmp_path / "h2.op"), flag, value, "-o", "bad"])
    assert rc == 1
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not (tmp_path / "bad.log.jsonl").exists()


def test_run_pipeline_and_logs(tmp_path, capsys):
    main(["--outdir", str(tmp_path), "map", str(FIXTURE), "-o", "h2.op"])
    rc = main([
        "--outdir", str(tmp_path), "run", str(tmp_path / "h2.op"),
        "--ng", "1", "--steps", "20", "--seed", "5", "--guesses", "4", "-o", "h2run",
    ])
    assert rc == 0
    log_lines = _read(tmp_path / "h2run.log.jsonl").strip().splitlines()
    records = [json.loads(line) for line in log_lines]
    assert records[0]["k"] == 0
    assert "wall_time" not in records[0]

    table = _read(tmp_path / "h2run.table.csv").strip().splitlines()
    assert table[0] == "iteration,energy,error,terms_before,terms_after"
    # energy column equals the log energies exactly, same serialization
    for row, rec in zip(table[1:], records):
        assert row.split(",")[1] == json.dumps(rec["energy"])

    summary = _read(tmp_path / "h2run.summary.txt")
    assert "final_energy=" in summary and "e_exact=" in summary


def test_run_reproducible_byte_identical(tmp_path):
    main(["--outdir", str(tmp_path), "map", str(FIXTURE), "-o", "h2.op"])
    args = ["--outdir", str(tmp_path), "run", str(tmp_path / "h2.op"),
            "--steps", "10", "--seed", "11", "--guesses", "3"]
    assert main(args + ["-o", "r1"]) == 0
    assert main(args + ["-o", "r2"]) == 0
    for suffix in (".log.jsonl", ".table.csv", ".summary.txt"):
        assert _read(tmp_path / f"r1{suffix}") == _read(tmp_path / f"r2{suffix}")


def test_run_manifest_flags_win(tmp_path):
    main(["--outdir", str(tmp_path), "map", str(FIXTURE), "-o", "h2.op"])
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"n_steps": 2, "rng_seed": 3, "n_random_guesses": 2}))
    rc = main(["--outdir", str(tmp_path), "run", str(tmp_path / "h2.op"),
               "--manifest", str(manifest), "--steps", "1", "-o", "mrun"])
    assert rc == 0
    lines = _read(tmp_path / "mrun.log.jsonl").strip().splitlines()
    assert len(lines) <= 2  # steps flag (1) overrode the manifest (2)


@pytest.mark.parametrize(
    "manifest, key",
    [({"n_gs": 3}, "'n_gs'"), ({"n_g": "2"}, "'n_g'"), ({"n_steps": True}, "'n_steps'"),
     ({"mu": None}, "'mu'"), ({"pool": "nope"}, "'pool'"), ({"epsilon": "1e-3"}, "'epsilon'"),
     ({"drop_first": -1}, "'drop_first'")],
)
def test_run_manifest_rejects_bad_entries(tmp_path, capsys, manifest, key):
    main(["--outdir", str(tmp_path), "map", str(FIXTURE), "-o", "h2.op"])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    rc = main(["--outdir", str(tmp_path), "run", str(tmp_path / "h2.op"), "--manifest", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: manifest") and key in err


def test_run_manifest_defaults_and_null(tmp_path, monkeypatch):
    main(["--outdir", str(tmp_path), "map", str(FIXTURE), "-o", "h2.op"])
    op = str(tmp_path / "h2.op")
    configs = []
    run = cli.iqcc_run
    monkeypatch.setattr(cli, "iqcc_run", lambda h, config, penalty=None: configs.append(config) or run(h, config, penalty))
    manifests = {
        "empty": {},
        "explicit": {"n_steps": 3, "n_random_guesses": 2, "rng_seed": 0, "pool": "dis", "drop_first": 10},
        "null": {"epsilon": None, "energy_threshold": None, "n_steps": 3, "n_random_guesses": 2},
    }
    for name, values in manifests.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(values))
    args = ["--outdir", str(tmp_path), "run", op, "--steps", "3", "--guesses", "2"]
    assert main(args + ["-o", "plain"]) == 0
    assert main(args + ["--manifest", str(tmp_path / "empty.json"), "-o", "empty"]) == 0
    assert main(["--outdir", str(tmp_path), "run", op, "--manifest", str(tmp_path / "explicit.json"),
                 "-o", "explicit"]) == 0
    null = ["--outdir", str(tmp_path), "run", op, "--manifest", str(tmp_path / "null.json")]
    assert main(null + ["-o", "null"]) == 0
    assert main(null + ["--epsilon", "1e-3", "-o", "flag"]) == 0

    # keys set by neither manifest nor flag keep the IqccConfig defaults
    default = IqccConfig(n_steps=3, n_random_guesses=2)
    for config in configs[:3]:
        assert config.pool.kind == "dis"
        assert replace(config, pool=default.pool) == default
    for prefix in ("empty", "explicit"):
        for suffix in (".log.jsonl", ".table.csv", ".summary.txt"):
            assert _read(tmp_path / f"{prefix}{suffix}") == _read(tmp_path / f"plain{suffix}")
    # null disables the energy threshold; a flag still beats the manifest
    assert (configs[3].energy_threshold, configs[3].epsilon) == (None, None)
    assert (configs[4].energy_threshold, configs[4].epsilon) == (None, 1e-3)


def test_run_with_spin_penalty(tmp_path, capsys):
    main(["--outdir", str(tmp_path), "map", str(FIXTURE), "--no-reduce", "-o", "h2full.op",
          "--emit-s2", str(tmp_path / "s2.op")])
    capsys.readouterr()
    rc = main(["--outdir", str(tmp_path), "run", str(tmp_path / "h2full.op"),
               "--mu", "0.25", "--s2", str(tmp_path / "s2.op"),
               "--steps", "6", "--guesses", "3", "-o", "penrun"])
    assert rc == 0
    summary = _read(tmp_path / "penrun.summary.txt")
    # singlet ground state: penalized minimum matches the bare exact energy
    final = float(summary.splitlines()[0].split("=", 1)[1])
    assert final == pytest.approx(-1.1372696784, abs=1e-6)


def test_run_mu_without_s2_fails(tmp_path, capsys):
    main(["--outdir", str(tmp_path), "map", str(FIXTURE), "-o", "h2.op"])
    capsys.readouterr()
    rc = main(["--outdir", str(tmp_path), "run", str(tmp_path / "h2.op"), "--mu", "0.25"])
    assert rc == 1
    assert "--s2" in capsys.readouterr().err


@pytest.mark.parametrize("manifest", [None, {"mu": 0.0}])
def test_run_s2_without_mu_fails(tmp_path, capsys, manifest):
    main(["--outdir", str(tmp_path), "map", str(FIXTURE), "-o", "h2.op"])
    capsys.readouterr()
    extra = []
    if manifest is not None:
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        extra = ["--manifest", str(tmp_path / "m.json")]
    rc = main(["--outdir", str(tmp_path), "run", str(tmp_path / "h2.op"), "--s2", str(tmp_path / "nonexistent.op"),
               "--steps", "1", *extra])
    assert rc == 1
    assert "--s2 requires a positive --mu" in capsys.readouterr().err
    assert not list(tmp_path.glob("h2.*.*"))


def test_bad_operator_file_is_user_error(tmp_path, capsys):
    op = tmp_path / "bad.op"
    op.write_text("not an operator\n")
    assert main(["exact", str(op)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, command, text, line",
    [
        ("nan.op", "exact", "1.0 ZI\nnan ZZ\n", 2),
        ("inf.op", "exact", "# header\ninf ZZ\n1.0 IZ\n", 2),
        ("nan_core.fcidump", "map", FIXTURE.read_text().replace("0.713776 0 0 0 0", "nan 0 0 0 0"), 9),
        ("inf_one.fcidump", "map", FIXTURE.read_text().replace("-1.252477 1 1 0 0", "inf 1 1 0 0"), 7),
    ],
)
def test_non_finite_input_is_user_error(tmp_path, capsys, name, command, text, line):
    path = tmp_path / name
    path.write_text(text)
    assert main(["--outdir", str(tmp_path), command, str(path)]) == 1
    assert f"line {line}: non-finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the energy overflows on purpose
@pytest.mark.parametrize("command", [["exact"], ["exact", "--mode", "iterative"], ["run"]])
def test_overflowing_operator_is_solver_failure(tmp_path, capsys, command):
    # the oracle's matrix overflows; `run` solves that oracle before the iQCC loop
    op = tmp_path / "huge.op"
    op.write_text("1e308 ZI\n1e308 IZ\n1.0 XX\n")
    assert main(["--outdir", str(tmp_path), command[0], str(op), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: solver failed: ") and "internal" not in err
    assert not list(tmp_path.glob("huge.*.*"))  # nothing written


def test_screen_with_no_finite_mean_field_start_is_solver_failure(tmp_path, capsys):
    op = tmp_path / "huge.op"
    op.write_text("1e308 ZI\n1e308 IZ\n1.0 XX\n")
    assert main(["--outdir", str(tmp_path), "screen", str(op)]) == 2
    captured = capsys.readouterr()
    assert "error: solver failed: no mean-field start of 10 reached a finite energy" in captured.err
    assert captured.out == ""  # no gradient table


def test_run_with_no_finite_mean_field_start_is_solver_failure(tmp_path, capsys):
    # 17 qubits are past the oracle's budget, so the run reaches the mean-field start
    op = tmp_path / "huge.op"
    op.write_text("".join(f"1e308 {'I' * j}Z{'I' * (16 - j)}\n" for j in range(17)) + f"1.0 XX{'I' * 15}\n")
    assert main(["--outdir", str(tmp_path), "run", str(op), "--steps", "1", "--guesses", "1", "--seed", "0"]) == 2
    assert "error: solver failed: no mean-field start of 1 reached a finite energy" in capsys.readouterr().err
