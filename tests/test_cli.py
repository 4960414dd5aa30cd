"""End-to-end command-line behavior on the bundled integral fixture."""

import json
from pathlib import Path

import numpy as np
import pytest

from iqcc.cli import main
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
    op = read_operator((tmp_path / "h2_sto3g.parity.op").open())
    assert op.n_qubits == 2


def test_map_no_reduce_keeps_qubits(tmp_path):
    rc = main(["--outdir", str(tmp_path), "map", str(FIXTURE), "--mapping", "parity",
               "--no-reduce", "-o", "full.op"])
    assert rc == 0
    assert read_operator((tmp_path / "full.op").open()).n_qubits == 4


def test_map_idempotent_output(tmp_path):
    for name in ("a.op", "b.op"):
        assert main(["--outdir", str(tmp_path), "map", str(FIXTURE), "-o", name]) == 0
    assert _read(tmp_path / "a.op") == _read(tmp_path / "b.op")


def test_map_missing_file_is_user_error(tmp_path, capsys):
    rc = main(["--outdir", str(tmp_path), "map", str(tmp_path / "nope.fcidump")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


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
    kept = read_operator((tmp_path / "c.op").open())
    assert [w.to_label() for w, _ in kept] == ["II"]


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
