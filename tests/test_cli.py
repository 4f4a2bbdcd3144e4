"""Command-line front end: formats, determinism, and exit codes."""

import json
import math

import numpy as np
import pytest

from qps import cli
from qps.cli import main, parse_state, parse_order, UsageError
from qps.quasiprob import phase_fn, fock_projector, maximally_mixed


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_state_variants(tmp_path):
    assert np.abs(parse_state("maximally-mixed", 5) - np.eye(5) / 5).max() < 1e-12
    rho = parse_state("fock:1", 5)
    assert abs(np.trace(rho) - 1) < 1e-12
    rho = parse_state("coherent:1,-1", 5)
    assert abs(np.trace(rho) - 1) < 1e-12
    rho = parse_state("bell:0,1", 9)
    assert rho.shape == (9, 9)
    with pytest.raises(UsageError):
        parse_state("bell:0,1", 5)
    with pytest.raises(UsageError):
        parse_state("unknown:1", 5)
    with pytest.raises(UsageError):
        parse_state("fock:notanint", 5)
    # file round trip
    target = maximally_mixed(3)
    path = tmp_path / "rho.json"
    path.write_text(
        json.dumps([[[v.real, v.imag] for v in row] for row in target])
    )
    loaded = parse_state(f"file:{path}", 3)
    assert np.abs(loaded - target).max() < 1e-12


def test_parse_order():
    assert parse_order("0.5") == 0.5 + 0j
    assert parse_order("0,1") == 1j
    with pytest.raises(UsageError):
        parse_order("2")


def test_grid_kernel_csv(capsys, tmp_path):
    out = tmp_path / "k.csv"
    code, _, _ = run(capsys, "grid", "--dim", "5", "--what", "kernel", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "label1,label2,re,im"
    assert len(lines) == 26
    center = [l for l in lines if l.startswith("0,0,")]
    assert center == ["0,0,1,0"]


def test_grid_past_the_range_of_a_double_exits_1(capsys):
    # the Glauber grid at N = 1001 needs K^(-1) up to exp(784)
    code, out, err = run(capsys, "grid", "--dim", "1001", "--what", "glauber", "--state", "fock:0")
    assert code == 1 and out == ""
    assert err.startswith("error: K^(-s) overflows at N=1001") and "Traceback" not in err


def test_grid_wigner_maximally_mixed_is_flat(capsys):
    code, out, _ = run(
        capsys, "grid", "--dim", "5", "--what", "wigner", "--state", "maximally-mixed"
    )
    assert code == 0
    values = {line.split(",")[2] for line in out.strip().splitlines()[1:]}
    assert values == {"0.2"}  # constant 1/N, the unit-trace normalization


def test_grid_json_deterministic(capsys):
    args = [
        "grid", "--dim", "3", "--what", "husimi", "--state", "fock:0",
        "--format", "json",
    ]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["dim"] == 3 and payload["kind"] == "phase_fn"
    grid = phase_fn(fock_projector(0, 3), -1).grid
    for a, b, re, im in payload["data"]:
        assert abs(complex(re, im) - grid[a + 1, b + 1]) < 1e-12


def test_grid_bad_flags_exit_2(capsys):
    assert run(capsys, "grid", "--dim", "4", "--what", "kernel")[0] == 2
    assert run(capsys, "grid", "--dim", "5", "--what", "phase", "--s", "2",
               "--state", "fock:0")[0] == 2
    assert run(capsys, "grid", "--dim", "5", "--what", "wigner")[0] == 2


def test_grid_io_error_exit_3(capsys):
    code, _, err = run(
        capsys, "grid", "--dim", "3", "--what", "kernel",
        "--out", "/nonexistent/dir/k.csv",
    )
    assert code == 3


def test_tomo_exact_and_composite(capsys):
    code, out, _ = run(capsys, "tomo", "--dim", "5", "--state", "coherent:1,-1")
    assert code == 0
    assert "max |dW|" in out
    code, _, err = run(capsys, "tomo", "--dim", "9", "--state", "maximally-mixed")
    assert code == 4
    assert "coverage" in err


def test_tomo_ray_residuals_are_round_off(capsys):
    # each exact ray must land on the characteristic function it samples
    code, out, _ = run(capsys, "tomo", "--dim", "7", "--state", "coherent:2,-1")
    assert code == 0
    residuals = [float(line.split("=")[-1]) for line in out.splitlines() if line.startswith("ray (")]
    assert len(residuals) == 8
    assert max(residuals) < 1e-12


def test_tomo_shots_reproducible(capsys):
    args = ["tomo", "--dim", "3", "--state", "fock:1", "--shots", "100000",
            "--seed", "7"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "statistical" in out1


@pytest.mark.parametrize("shots", ("0", "-5"))
def test_tomo_shots_below_one_exit_2(capsys, shots):
    # --shots 0 used to run the exact path silently
    code, out, err = run(capsys, "tomo", "--dim", "5", "--shots", shots)
    assert code == 2
    assert out == "" and "shots must be an integer >= 1" in err


def test_teleport_reports(capsys):
    code, out, _ = run(
        capsys, "teleport", "--dim", "3", "--alpha", "0", "--beta", "0",
        "--state", "fock:1",
    )
    assert code == 0
    assert "measured displacement: (0,0)" in out
    code, out, _ = run(
        capsys, "teleport", "--dim", "3", "--alpha", "1", "--beta", "-1",
        "--state", "coherent:0,0",
    )
    assert code == 0
    assert "measured displacement: (-1,-1)" in out
    # determinism
    code2, out2, _ = run(
        capsys, "teleport", "--dim", "3", "--alpha", "1", "--beta", "-1",
        "--state", "coherent:0,0",
    )
    assert out == out2


def test_teleport_exit_follows_shift_law_and_probability(capsys, monkeypatch):
    # the maximally mixed grid matches all N^2 rolls equally; the check is on
    # the expected one, not on the first best roll
    code, out, _ = run(
        capsys, "teleport", "--dim", "5", "--state", "maximally-mixed",
        "--alpha", "1", "--beta", "2",
    )
    assert code == 0
    assert "measured displacement: (-1,2)  expected (-1,2)" in out
    # a wrong outcome probability fails the run even when the shift law holds
    real = cli.teleport
    monkeypatch.setattr(cli, "teleport", lambda rho, a, b: (real(rho, a, b)[0], 0.5))
    code, out, _ = run(
        capsys, "teleport", "--dim", "3", "--state", "fock:1", "--alpha", "1",
        "--beta", "0",
    )
    assert code == 1
    assert "measured displacement: (-1,0)  expected (-1,0)" in out


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--dim", "3")
    assert code == 0
    assert "FAIL" not in out
