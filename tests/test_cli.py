"""Command-line front end: formats, determinism, exit codes, the grid
writer against its row-by-row oracle, and the parser shared by every
call in one process."""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_oracles as oracle

from qps import _gridtext, cli
from qps.cli import main, parse_state, parse_order, UsageError
from qps.quasiprob import phase_fn, fock_projector, maximally_mixed, random_density


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


@pytest.mark.parametrize(
    "argv",
    [
        ("grid", "--what", "wigner"),
        ("tomo",),
        ("teleport",),
    ],
)
def test_file_state_of_another_dimension_exits_2(capsys, tmp_path, argv):
    # only a file state can disagree with --dim; parse_state checks it once for every command
    path = tmp_path / "rho.json"
    path.write_text(json.dumps([[[v.real, v.imag] for v in row] for row in maximally_mixed(3)]))
    code, out, err = run(capsys, *argv, "--dim", "5", "--state", f"file:{path}")
    assert code == 2 and out == ""
    assert err == "error: state dimension 3 does not match --dim 5\n"


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


def test_grid_coherent_state_at_dimension_one(capsys):
    # the one-point space: the coherent state is the vacuum [1], and its Wigner grid is [1]
    code, out, _ = run(capsys, "grid", "--dim", "1", "--what", "wigner", "--state", "coherent:0,0")
    assert code == 0
    assert out == "label1,label2,re,im\n0,0,1,0\n"


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


@pytest.mark.parametrize("what, extra", [("kernel", []), ("wigner", ["--state", "fock:1"]),
                                         ("husimi", ["--state", "fock:1"]), ("glauber", ["--state", "fock:1"])])
@pytest.mark.parametrize("order", ("2", "0", "0.3,0.4"))
def test_grid_order_with_a_fixed_order_exits_2(capsys, what, extra, order):
    # --s was dropped without a word here, so --what kernel --s=2 exited 0
    code, out, err = run(capsys, "grid", "--dim", "5", "--what", what, *extra, f"--s={order}")
    assert code == 2 and out == ""
    assert err == f"error: --s applies to --what phase or char only, got --what {what}\n"


@pytest.mark.parametrize("state", ("nonsense", "fock:1"))
def test_grid_kernel_with_a_state_exits_2(capsys, state, tmp_path):
    # --state was never parsed here, so --what kernel --state nonsense wrote the kernel and exited 0
    out = tmp_path / "k.csv"
    code, stdout, err = run(capsys, "grid", "--dim", "3", "--what", "kernel", "--state", state, "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err == f"error: --state does not apply to --what kernel, got --state {state}\n"


@pytest.mark.parametrize("what", ("phase", "char"))
def test_grid_order_defaults_to_zero(capsys, what):
    argv = ["grid", "--dim", "5", "--what", what, "--state", "fock:2", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["s"] == "0,0"
    assert run(capsys, *argv, "--s=0") == (0, out, "")


@pytest.mark.parametrize("order", ("nan", "inf", "0,nan", "-inf,0"))
def test_grid_non_finite_order_exits_2(capsys, order):
    # a NaN order printed nan rows and exited 0
    code, out, err = run(capsys, "grid", "--dim", "3", "--what", "phase", "--state", "fock:1", f"--s={order}")
    assert code == 2 and out == ""
    assert err.startswith("error: qps ordering parameter must be finite")


@pytest.mark.parametrize("order", ("", "abc", "0,x"))
def test_grid_unparsable_order_exits_2_by_the_order_rule(capsys, order):
    # float()'s "could not convert string to float: ''" named neither qps nor the order
    code, out, err = run(capsys, "grid", "--dim", "3", "--what", "phase", "--state", "fock:0", f"--s={order}")
    assert code == 2 and out == ""
    assert err == f"error: qps ordering parameter must be a number, got {order!r}\n"


def test_grid_io_error_exit_3(capsys):
    code, _, err = run(
        capsys, "grid", "--dim", "3", "--what", "kernel",
        "--out", "/nonexistent/dir/k.csv",
    )
    assert code == 3


def test_tomo_exact_and_composite(capsys):
    # composite N runs over the 12 and 24 rays of P^1(Z_N), exact to round-off
    for N, rays in ((5, 6), (9, 12), (15, 24)):
        code, out, _ = run(capsys, "tomo", "--dim", str(N), "--state", "coherent:1,-1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == rays + 1 and lines[-1].startswith("max |dW|: ")
        assert float(lines[-1].split()[-1]) < 1e-9
    # seeded shots at composite N: the same report twice
    for N in ("9", "15"):
        args = ["tomo", "--dim", N, "--state", "fock:2", "--shots", "5000", "--seed", "3"]
        first, second = run(capsys, *args), run(capsys, *args)
        assert first == second and first[0] == 0 and "statistical max |dW|" in first[1]


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


@settings(max_examples=40, deadline=None)
@given(
    N=st.sampled_from((3, 5, 7, 9, 15, 21, 31)),
    kind=st.sampled_from(("pure", "mixed", "fock")),
    seed=st.integers(0, 2**32 - 1),
    shots=st.one_of(st.none(), st.integers(1, 10**6)),
)
def test_tomo_report_is_byte_identical_to_loop_oracle(N, kind, seed, shots):
    # every ray line, the residual lines and the exit code of `qps tomo`,
    # against the report printed one line at a time
    with tempfile.TemporaryDirectory() as tmp:
        if kind == "fock":
            spec = f"fock:{seed % N}"
        else:
            rho = random_density(N, np.random.default_rng(seed), pure=kind == "pure")
            path = os.path.join(tmp, "rho.json")
            with open(path, "w") as fh:
                json.dump([[[v.real, v.imag] for v in row] for row in rho], fh)
            spec = f"file:{path}"
        argv = ["tomo", "--dim", str(N), "--state", spec]
        if shots is not None:
            argv += ["--shots", str(shots), "--seed", str(seed)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        rho = parse_state(spec, N)
    assert (out.getvalue(), code) == oracle.tomo_report(*oracle.tomo_inputs(rho, shots, seed), shots, seed)


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


TELEPORT_CASES = [
    (N, spec) for N in (1, 3, 5, 7, 9) for spec in ("maximally-mixed", f"fock:{N - 1}", "coherent:1,-1")
] + [(9, "bell:1,-1"), (9, "bell:-4,7")]


@pytest.mark.parametrize("N, spec", TELEPORT_CASES)
@pytest.mark.parametrize("alpha, beta", [(0, 0), (1, -1), (13, -22), (-31, 19)])
def test_teleport_report_is_byte_identical_to_loop_oracle(N, spec, alpha, beta):
    # the four report lines and the exit code of `qps teleport`, labels
    # reduced mod N, against the report printed one line at a time
    argv = ["teleport", "--dim", str(N), "--state", spec, "--alpha", str(alpha), "--beta", str(beta)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert (out.getvalue(), code) == oracle.teleport_report(parse_state(spec, N), alpha, beta)


def test_teleport_failure_report_is_byte_identical_to_loop_oracle(monkeypatch):
    # a protocol off by one label fails the shift law: the best-roll search
    # names the displacement it finds, in the same bytes as the oracle
    real = cli.teleport
    wrong = lambda rho, a, b: real(rho, a + 1, b)
    monkeypatch.setattr(cli, "teleport", wrong)
    monkeypatch.setattr(oracle, "protocol", wrong)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["teleport", "--dim", "5", "--state", "fock:1", "--alpha", "1", "--beta", "2"])
    assert code == 1
    assert "measured displacement: (-2,2)  expected (-1,2)" in out.getvalue()
    assert (out.getvalue(), code) == oracle.teleport_report(parse_state("fock:1", 5), 1, 2)


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--dim", "3")
    assert code == 0
    assert "FAIL" not in out


# value classes of the writer test: plain values, and the values where the JSON
# encoder's notation differs from "%.15g" or where a repr has fewer digits
TINY = np.finfo(float).tiny


def _plain(rng, n):
    return rng.normal(size=n)


def _integral(rng, n):
    return np.round(rng.normal(size=n) * 10.0 ** rng.integers(0, 15, n))


def _zeros(rng, n):
    return np.where(rng.random(n) < 0.5, 0.0, -0.0)


def _notation_switch(rng, n):
    # "%.15g" writes [1e15, 1e16) in exponent form, repr in positional form
    edges = np.array([1e15, -1e15, 999999999999999.9, 9.999999999999999e15, 1e16, 1e16 - 2, 123456789012345.6])
    wide = rng.uniform(0.99e15, 1.01e16, n) * rng.choice([-1.0, 1.0], n)
    picks = np.where(rng.random(n) < 0.5, np.round(wide), wide)
    return np.where(rng.random(n) < 0.3, rng.choice(edges, n), picks)


def _wide_exponents(rng, n):
    return rng.normal(size=n) * 10.0 ** rng.integers(-300, 301, n)


def _non_finite(rng, n):
    return rng.choice([np.nan, np.inf, -np.inf], n)


def _subnormal(rng, n):
    return rng.uniform(-2.5, 2.5, n) * TINY


def _ties(rng, n):
    # exactly 16 significant digits, the last a 5: rounding to 15 digits is an exact tie
    ties = np.stack([
        rng.integers(10**14, 9 * 10**14, n) * 10.0 + 5,
        rng.integers(10**14, 10**15, n) + 0.5,
        rng.integers(10**13, 10**14, n) + rng.choice([0.25, 0.75], n),
    ])
    return ties[rng.integers(3, size=n), np.arange(n)] * rng.choice([-1.0, 1.0], n)


POWERS_OF_TEN = 10.0 ** np.arange(-5, 17)


def _powers_of_ten(rng, n):
    # one ulp either side of 10^k, where log10 can misjudge the exponent; just
    # below 1e16 the 15-digit mantissa rounds up to 10^15
    edges = np.concatenate([np.nextafter(POWERS_OF_TEN, 0), POWERS_OF_TEN, np.nextafter(POWERS_OF_TEN, np.inf)])
    return rng.choice(edges, n) * rng.choice([-1.0, 1.0], n)


VALUE_CLASSES = (
    _plain, _integral, _zeros, _notation_switch, _wide_exponents, _non_finite, _subnormal, _ties, _powers_of_ten
)


def writer_grid(N, seed, values):
    """An N x N grid whose entries are drawn from `values`, each with
    probability 3/4, and otherwise from any of the value classes."""
    rng = np.random.default_rng(seed)
    n = 2 * N * N
    parts = np.stack([cls(rng, n) for cls in VALUE_CLASSES])
    vals = np.where(rng.random(n) < 0.75, values(rng, n), parts[rng.integers(len(VALUE_CLASSES), size=n), np.arange(n)])
    # set the parts one by one: 1j * inf has a NaN real part
    grid = np.empty(N * N, dtype=complex)
    grid.real, grid.imag = vals[: N * N], vals[N * N :]
    return grid.reshape(N, N)


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("values", VALUE_CLASSES, ids=lambda cls: cls.__name__.strip("_"))
@settings(max_examples=12, deadline=None)
@given(
    N=st.sampled_from((1, 3, 5, 7, 31, 61)),
    seed=st.integers(0, 2**32 - 1),
    s=st.complex_numbers(max_magnitude=1),
    kind=st.sampled_from(("kernel", "phase_fn", "char_fn")),
)
def test_grid_writer_is_byte_identical_to_row_oracle(values, fmt, N, seed, s, kind):
    grid = writer_grid(N, seed, values)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.write_grid(grid, N, s, kind, None, fmt)
    assert out.getvalue() == oracle.grid_text(grid, N, s, kind, fmt)


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("column", (0.0, -0.0))
@pytest.mark.parametrize("part", ("real", "imag"))
def test_grid_writer_zero_columns(fmt, column, part):
    # a whole column of +-0.0, as the imaginary part of a kernel grid, stays off the scalar fallback
    N = 7
    grid = np.empty(N * N, dtype=complex)
    grid.real = grid.imag = np.random.default_rng(3).normal(size=N * N)
    setattr(grid, part, column)
    grid = grid.reshape(N, N)
    assert not _gridtext.decimal(getattr(grid, part).ravel())[2].any()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.write_grid(grid, N, 0j, "kernel", None, fmt)
    assert out.getvalue() == oracle.grid_text(grid, N, 0j, "kernel", fmt)


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("block", (1, 7, 4096))
def test_grid_writer_bytes_do_not_depend_on_the_block_size(monkeypatch, block, fmt):
    # 3,721 rows: the last block holds 1, 4 or all of them, and the JSON last-row rule with it
    monkeypatch.setattr(_gridtext, "_BLOCK", block)
    N = 61
    grid = writer_grid(N, 5, _plain)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.write_grid(grid, N, 0j, "phase_fn", None, fmt)
    assert out.getvalue() == oracle.grid_text(grid, N, 0j, "phase_fn", fmt)


def test_grid_writer_tables_stay_under_a_megabyte_at_1001():
    # the writer once kept an N^2-row prefix table, 25 MB per key at N = 1001
    tables = {name: f for name, f in vars(_gridtext).items() if hasattr(f, "cache_info")}
    for f in tables.values():
        f.cache_clear()
    N = 1001
    grid = np.random.default_rng(0).normal(size=(N, N, 2)).view(complex)[..., 0]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.write_grid(grid, N, 0j, "phase_fn", None, "json")
    keys = {"_word_tables": [()], "_pow10_table": [()], "_masks": [("json",)], "_label_texts": [(N, "json")]}
    assert set(tables) == set(keys)
    held = 0
    for name, f in tables.items():
        assert f.cache_info().currsize == len(keys[name]), name
        for out in (f(*key) for key in keys[name]):
            held += sum(a.nbytes for a in (out if isinstance(out, tuple) else (out,)))
    assert held < 1e6


def test_tie_and_power_of_ten_classes_reach_the_fallback():
    rng = np.random.default_rng(0)
    assert _gridtext.decimal(_ties(rng, 200))[2].all()
    slow = _gridtext.decimal(np.concatenate([np.nextafter(POWERS_OF_TEN, 0), POWERS_OF_TEN]))[2]
    assert slow[np.flatnonzero(POWERS_OF_TEN == 1e16)[0]]  # 9999999999999998.0 rounds to 1e+16


def scalar_text(x, fmt):
    return "%.15g" % x if fmt == "csv" else json.dumps(float("%.15g" % x))


@pytest.mark.parametrize("fmt", ("csv", "json"))
@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=40))
def test_column_formatter_matches_scalar_format(values, fmt):
    assert _gridtext.texts(np.array(values, dtype=float), fmt) == [scalar_text(x, fmt) for x in values]


@pytest.mark.parametrize("state", ("fock:3", "coherent:2,-5", "maximally-mixed"))
def test_wigner_grid_at_61_needs_no_fallback(state):
    grid = phase_fn(parse_state(state, 61), 0).grid.ravel()
    assert not _gridtext.decimal(grid.real)[2].any() and not _gridtext.decimal(grid.imag)[2].any()


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize(
    "what, extra",
    [("kernel", []), ("glauber", ["--state", "fock:2"]), ("wigner", ["--state", "coherent:1,-1"]),
     ("husimi", ["--state", "fock:1"]), ("phase", ["--state", "fock:2", "--s=0.5,-0.25"]),
     ("char", ["--state", "maximally-mixed", "--s", "-0.3"])],
)
def test_grid_out_writes_the_stdout_bytes(capsys, tmp_path, what, extra, fmt):
    argv = ["grid", "--dim", "7", "--what", what, *extra, "--format", fmt]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / f"grid.{fmt}"
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert path.read_bytes() == out.encode()


def test_parser_is_built_once_and_calls_share_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    # flags of one call do not leak into the next
    code, out, _ = run(capsys, "tomo", "--dim", "5", "--state", "fock:1", "--shots", "5", "--seed", "3")
    assert code == 0 and "statistical" in out
    code, out, _ = run(capsys, "tomo", "--dim", "5", "--state", "fock:1")
    assert code == 0 and "statistical" not in out and "\nmax |dW|" in out
    code, out, _ = run(capsys, "grid", "--dim", "5", "--what", "phase", "--state", "fock:1", "--s", "0.5", "--format", "json")
    assert code == 0 and json.loads(out)["s"] == "0.5,0"
    code, out, _ = run(capsys, "grid", "--dim", "5", "--what", "phase", "--state", "fock:1", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["s"] == "0,0"
    grid = phase_fn(fock_projector(1, 5), 0).grid
    assert max(abs(complex(re, im) - grid[a + 2, b + 2]) for a, b, re, im in payload["data"]) < 1e-12
    # a usage error, from argparse or from the command, leaves the parser usable
    with pytest.raises(SystemExit) as exc:
        main(["grid", "--dim", "5"])
    assert exc.value.code == 2
    assert run(capsys, "grid", "--dim", "4", "--what", "kernel")[0] == 2
    code, out, _ = run(capsys, "grid", "--dim", "3", "--what", "kernel")
    assert code == 0 and out.startswith("label1,label2,re,im\n")


def test_dispatch_honours_a_command_replaced_after_the_first_call(capsys, monkeypatch):
    # a tracer swaps the cmd_* attributes of qps.cli between calls in one process
    assert run(capsys, "grid", "--dim", "3", "--what", "kernel")[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_grid", lambda args: seen.append(args.dim) or 7)
    assert run(capsys, "grid", "--dim", "5", "--what", "kernel")[0] == 7
    assert seen == [5]
