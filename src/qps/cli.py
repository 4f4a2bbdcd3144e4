"""Command-line front end: grid exports, tomography and teleportation
reports, and the self-test battery.

Exit codes: 0 success, 1 failed check or a result out of floating-point
range, 2 bad flags or state spec, 3 file I/O failure.  `tomo` runs at
every odd N, over one ray per point of the projective line P^1(Z_N).
"""

import argparse
import json
import math
import sys
from functools import lru_cache

import numpy as np

from .lattice import check_dim, labels, center_mod, _invalid, _dft2, _shifted
from .theta import kernel_table
from .schwinger import check_order, t_overlap, decompose_t, reconstruct_t, depolarize
from .quasiprob import (
    PhaseSpaceFunction,
    validate_density,
    maximally_mixed,
    fock_projector,
    coherent_projector,
    char_fn,
    phase_fn,
    smooth_p_to_w,
    smooth_w_to_h,
    random_density,
)
from .tomography import reconstruct_wigner, scattering_circuit, _ray_cells, _ray_loop, _on_rays
from .teleport import BellLabel, bell_projector, teleport
from ._gridtext import grid_rows

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(Exception):
    """Bad flag combination or unparsable state specification."""


def _fmt(x):
    return f"{x:.15g}"


def parse_state(spec, N):
    """Resolve a state specification string to a density matrix.

    Accepted forms: ``maximally-mixed``, ``fock:n``, ``coherent:mu,nu``,
    ``bell:w1,w2`` (dimension must equal the square of the Bell order),
    and ``file:path`` (JSON rows with [re, im] entries).  A state whose
    dimension is not N (only a file can give one) is a usage error.
    """
    kind, _, arg = spec.partition(":")
    try:
        if kind == "maximally-mixed":
            rho = maximally_mixed(N)
        elif kind == "fock":
            rho = fock_projector(int(arg), N)
        elif kind == "coherent":
            mu, nu = (int(a) for a in arg.split(","))
            rho = coherent_projector(mu, nu, N)
        elif kind == "bell":
            w1, w2 = (int(a) for a in arg.split(","))
            n = math.isqrt(N)
            if n * n != N:
                raise UsageError(
                    f"bell states live on a squared dimension; {N} is not a square"
                )
            rho = bell_projector(BellLabel(w1, w2), n)
        elif kind == "file":
            with open(arg) as fh:
                rows = json.load(fh)
            rho = validate_density(np.array([[complex(re, im) for re, im in row] for row in rows]))
        else:
            raise UsageError(f"unknown state kind {kind!r}")
    except (UsageError, OSError):
        raise
    except Exception as exc:
        raise UsageError(f"cannot parse state spec {spec!r}: {exc}") from exc
    if rho.shape[0] != N:
        raise UsageError(f"state dimension {rho.shape[0]} does not match --dim {N}")
    return rho


def parse_order(text):
    re_, comma, im = text.partition(",")
    try:
        s = complex(float(re_), float(im) if comma else 0.0)
    except ValueError:
        s = text  # no number: the one order rule, check_order, says so
    try:
        return check_order(s)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def write_grid(grid, N, s, kind, out, fmt):
    """Write one row per label pair (label1 outer) as CSV or indent-1 JSON.

    CSV values are written "%.15g"; JSON holds the same values as JSON
    numbers, the bytes `json.dumps(payload, indent=1)` writes for them.
    The rows come from `_gridtext.grid_rows`, which rounds every value in
    numpy and falls back to a scalar "%.15g" only where that is not exact.
    """
    body = grid_rows(grid, N, fmt)
    if fmt == "csv":
        parts = ["label1,label2,re,im\n", *body]
    else:
        head = json.dumps({"dim": N, "s": f"{s.real:.15g},{s.imag:.15g}", "kind": kind}, indent=1)[:-2]
        parts = [head + ',\n "data": [\n', *body, "\n ]\n}\n"]
    if out is None:
        sys.stdout.writelines(parts)
    else:
        with open(out, "w") as fh:
            fh.writelines(parts)


WHAT_ORDERS = {"glauber": 1 + 0j, "wigner": 0j, "husimi": -1 + 0j}


def cmd_grid(args):
    N = check_dim(args.dim)
    what = args.what
    if args.s is not None and what not in ("phase", "char"):
        raise UsageError(f"--s applies to --what phase or char only, got --what {what}")
    if what == "kernel":
        if args.state is not None:
            raise UsageError(f"--state does not apply to --what kernel, got --state {args.state}")
        grid, s, kind = kernel_table(N).astype(complex), 0j, "kernel"
    else:
        if args.state is None:
            raise UsageError(f"--what {what} requires --state")
        rho = parse_state(args.state, N)
        if what in WHAT_ORDERS:
            s = WHAT_ORDERS[what]
            grid, kind = phase_fn(rho, s).grid, "phase_fn"
        elif what == "phase":
            s = parse_order("0" if args.s is None else args.s)
            grid, kind = phase_fn(rho, s).grid, "phase_fn"
        elif what == "char":
            s = parse_order("0" if args.s is None else args.s)
            grid, kind = char_fn(rho, s).grid, "char_fn"
        else:
            raise UsageError(f"unknown --what {what!r}")
    write_grid(grid, N, s, kind, args.out, args.format)
    return EXIT_OK


def cmd_tomo(args):
    N = check_dim(args.dim)
    rho = parse_state(args.state, N)
    if args.seed is not None:
        if args.seed < 0:
            raise _invalid("--seed must be an integer >= 0", args.seed)
        if args.shots is None:
            raise UsageError(f"--seed applies to --shots runs only, got --seed {args.seed} and no --shots")
    seed = 0 if args.seed is None else args.seed
    # a shot count below 1 raises ValueError in the sampler: exit 2
    rng = None if args.shots is None else np.random.default_rng(seed)
    Xi, vals, rebuilt = _ray_loop(rho, args.shots, rng)
    ray_errs = np.abs(vals - _on_rays(Xi)).max(axis=1)
    lines = [f"ray ({za},{zb}): max |dXi| = {_fmt(e)}\n" for (za, zb), e in zip(_ray_cells(N)[0].tolist(), ray_errs.tolist())]
    # two transforms, not one of the difference: a linear shortcut would move the residual's last bits
    err = float(np.abs(_dft2(rebuilt) - _dft2(Xi)).max())
    if args.shots is not None:
        lines.append(f"shots: {args.shots}  seed: {seed}\nstatistical max |dW|: {_fmt(err)}\n")
    else:
        lines.append(f"max |dW|: {_fmt(err)}\n")
    sys.stdout.write("".join(lines))
    return EXIT_OK if args.shots is not None or err < 1e-9 else EXIT_FAIL


def cmd_teleport(args):
    N = check_dim(args.dim)
    rho = parse_state(args.state, N)
    alpha = center_mod(args.alpha, N)
    beta = center_mod(args.beta, N)
    rho3, p = teleport(rho, alpha, beta)
    W1 = phase_fn(rho, 0).grid.real
    W3 = phase_fn(rho3, 0).grid.real
    # the shift law moves the sender's grid by (alpha, -beta); the recovery
    # operation undoes it, so the displacement reported is (-alpha, beta)
    expected = (center_mod(-alpha, N), beta)
    err = float(np.abs(W3 - _shifted(W1, alpha, -beta)).max())
    ok = err < 1e-9 and abs(p - 1 / N**2) < 1e-12
    measured = expected
    if err >= 1e-9:
        # name the shift that matches best; argmin keeps the first in label order
        ks = labels(N)
        dists = np.array([[np.abs(W3 - _shifted(W1, da, db)).max() for db in ks] for da in ks])
        i, j = np.unravel_index(np.argmin(dists), dists.shape)
        measured = (center_mod(-ks[i], N), center_mod(-ks[j], N))
    fid = float(np.trace(rho3 @ rho3).real)  # purity proxy printed alongside
    sys.stdout.write(
        f"p({alpha},{beta}) = {_fmt(p)}  (uniform value {_fmt(1 / N**2)})\n"
        f"measured displacement: ({measured[0]},{measured[1]})  expected ({expected[0]},{expected[1]})\n"
        f"shift-law residual: {_fmt(err)}\n"
        f"receiver purity: {_fmt(fid)}\n"
    )
    return EXIT_OK if ok else EXIT_FAIL


def _selftest_checks(N):
    ks = labels(N)
    rng = np.random.default_rng(20240824)
    rho = random_density(N, rng)
    yield ("resolution of identity", np.abs(reconstruct_t(np.ones((N, N)), 0) - np.eye(N)).max(), 1e-10)
    yield ("unit kernel traces", np.abs(decompose_t(np.eye(N), 0) - 1).max(), 1e-10)
    delta = N * (ks[:, None] == 0) * (ks == 0)
    yield ("kernel orthogonality", np.abs(t_overlap(0, 0, ks[:, None], ks, N) - delta).max(), 1e-10)
    # delta / N is the unit grid at (0, 0), so this reads T^(-1)(0, 0), the vacuum every coherent state displaces
    yield ("coherent vacuum", np.abs(reconstruct_t(delta, -1) - fock_projector(0, N)).max(), 1e-10)
    wigner = phase_fn(rho, 0)
    # built from its Glauber grid P0, the operator only multiplies by K <= 1, so no
    # K^(-1) amplifies round-off and a fixed tolerance holds at every N
    P0 = rng.random((N, N))
    P0 *= N / P0.sum()
    yield (
        "hierarchy smoothing P->W",
        np.abs(smooth_p_to_w(PhaseSpaceFunction(1, P0)).grid - phase_fn(reconstruct_t(P0, -1), 0).grid).max(),
        1e-10,
    )
    yield (
        "hierarchy smoothing W->H",
        np.abs(smooth_w_to_h(wigner).grid - phase_fn(rho, -1).grid).max(),
        1e-10,
    )
    O = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    yield ("depolarizer", np.abs(depolarize(O) - np.trace(O) * np.eye(N)).max(), 1e-10)
    # every label pair of the dual plane in one readout call: O(N^3) time, O(N^2) memory
    Xi = math.sqrt(N) * char_fn(rho, 0).grid
    sz, sy = scattering_circuit(rho, ks[:, None], ks)
    yield ("scattering circuit", max(np.abs(sz - Xi.real).max(), np.abs(sy - Xi.imag).max()), 1e-10)
    yield ("tomography round trip", np.abs(reconstruct_wigner(rho).grid - wigner.grid).max(), 1e-9)
    r3, p = teleport(rho, 1, -1)
    err = np.abs(phase_fn(r3, 0).grid - _shifted(wigner.grid, 1, 1)).max()
    yield ("teleport shift law", max(err, abs(p - 1 / N**2)), 1e-9)


def cmd_selftest(args):
    N = check_dim(args.dim)
    failed = 0
    for name, residual, tol in _selftest_checks(N):
        ok = residual < tol
        failed += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: residual {_fmt(float(residual))} (tol {tol:g})")
    print(f"{'OK' if not failed else 'FAILED'}: dim {N}")
    return EXIT_OK if not failed else EXIT_FAIL


@lru_cache(maxsize=None)
def build_parser():
    """The `qps` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="qps", description="Discrete phase-space toolkit command line."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grid", help="export a kernel/phase-space/characteristic grid")
    g.add_argument("--dim", type=int, required=True)
    g.add_argument(
        "--what",
        required=True,
        choices=["kernel", "wigner", "husimi", "glauber", "phase", "char"],
    )
    g.add_argument("--state", default=None)
    g.add_argument("--s", default=None, help="ordering parameter of --what phase or char, --s=re or --s=re,im (default 0)")
    g.add_argument("--out", default=None)
    g.add_argument("--format", default="csv", choices=["csv", "json"])

    t = sub.add_parser("tomo", help="Radon-transform Wigner reconstruction report")
    t.add_argument("--dim", type=int, required=True)
    t.add_argument("--state", default="maximally-mixed")
    t.add_argument("--shots", type=int, default=None)
    t.add_argument("--seed", type=int, default=None, help="seed of the shot draws, with --shots only (default 0)")

    tp = sub.add_parser("teleport", help="three-party teleportation report")
    tp.add_argument("--dim", type=int, required=True)
    tp.add_argument("--state", default="fock:0")
    tp.add_argument("--alpha", type=int, default=0)
    tp.add_argument("--beta", type=int, default=0)

    st = sub.add_parser("selftest", help="run the invariant battery")
    st.add_argument("--dim", type=int, required=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # looked up per call, so that a cmd_* attribute replaced at run time is the one called
        return globals()["cmd_" + args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ArithmeticError as exc:
        # a result outside the range of a double (K^(-s) overflow) is a failed check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
