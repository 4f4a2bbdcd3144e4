"""The four benchmark workloads and the correctness gate on every op.

A workload has a set-up (the first, cold call of every cached table it
uses) and an endless stream of blocks drawn from a seeded generator.  A
block is a list of ops; an op is one timed call into qps plus a gate
that checks the output against an identity of the formalism.  Every
block holds the same op kinds in the same proportions, and runs stop on
a block boundary, so each latency percentile comes from the same op
kinds on every run.

The benchmark only generates inputs (states, orders, labels, seeds);
everything timed is a public qps function or ``qps.cli.main``.
"""

import contextlib
import importlib
import io
import json
import math
import re
from typing import Callable, NamedTuple

import numpy as np

lattice = importlib.import_module("qps.lattice")
theta = importlib.import_module("qps.theta")
schwinger = importlib.import_module("qps.schwinger")
quasiprob = importlib.import_module("qps.quasiprob")
tomography = importlib.import_module("qps.tomography")
teleport = importlib.import_module("qps.teleport")
cli = importlib.import_module("qps.cli")

EPS = float(np.finfo(float).eps)
TOL = 1e-9  # exact identities
STANDARD_ORDERS = (1 + 0j, 0j, -1 + 0j)
SHOTS = 20000
# shot-noise allowance on max|dW|: STAT / sqrt(shots); the worst case seen
# over the seeded states at N = 31 is about 4 / sqrt(shots)
STAT = 10.0


class Op(NamedTuple):
    """One timed call (`run`) and the gate that checks its output.

    `gate(out)` returns (check name, residual, tolerance) triples; the op
    passes when every residual is finite and within its tolerance.
    """

    kind: str
    run: Callable
    gate: Callable


class Context:
    """Gauges the gates report besides pass/fail."""

    def __init__(self):
        self.kinv_max = 0.0
        self.line_sum_min = 0.0

    def tol(self, N, *orders):
        """Tolerance of an identity evaluated through grids at the given orders.

        Round-off in a grid is amplified by up to max |K^(-s)|; summing N^2
        such entries adds a random-walk factor N.  The largest amplification
        seen is kept as `kinv_max`.
        """
        kinv = max(cond(N, s) for s in orders)
        self.kinv_max = max(self.kinv_max, kinv)
        return TOL + N * kinv * EPS


# ---------------------------------------------------------------- helpers


def centered(N):
    ell = (N - 1) // 2
    return np.arange(-ell, ell + 1)


def cmod(x, N):
    ell = (N - 1) // 2
    return (np.asarray(x) + ell) % N - ell


def random_state(N, rng, pure):
    """Seeded random density matrix: Haar-like pure state or full-rank mixture."""
    if pure:
        psi = rng.normal(size=N) + 1j * rng.normal(size=N)
        return np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    A = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def fresh_order(rng):
    """Complex order drawn uniformly from the unit disk |s| <= 1."""
    return complex(math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random()))


def cond(N, s):
    """max |K^(-s)| over the label square: round-off amplification at order s."""
    return float(np.max(theta.kernel_table(N) ** (-complex(s).real)))


def maxabs(a):
    return float(np.max(np.abs(a)))


def dft2(Xi):
    """Phase-space grid from a characteristic grid (same convention as qps)."""
    N = Xi.shape[0]
    k = centered(N)
    ph = np.exp(-2j * np.pi * np.outer(k, k) / N)
    return ph.T @ Xi @ ph / math.sqrt(N)


def line_sums(W, za, zb):
    """sum of W over the lines za*mu + zb*nu = c, divided by sqrt(N)."""
    N = W.shape[0]
    k = centered(N)
    ell = (N - 1) // 2
    idx = (cmod(np.add.outer(za * k, zb * k), N) + ell).ravel()
    re = np.bincount(idx, weights=W.real.ravel(), minlength=N)
    im = np.bincount(idx, weights=W.imag.ravel(), minlength=N)
    return (re + 1j * im) / math.sqrt(N)


def shot_bound(W, shots):
    """Allowance for a shot-noise reconstruction of the Wigner grid W.

    Statistical part STAT/sqrt(shots) plus the bias sample_marginal adds by
    clipping negative line sums before sampling: a marginal error of l1
    norm d moves every Wigner entry by at most sqrt(N) * d.
    """
    N = W.shape[0]
    rays = [(1, k) for k in range(N)] + [(0, 1)]
    worst = 0.0
    for za, zb in rays:
        v = line_sums(W, za, zb).real
        c = np.clip(v, 0.0, None)
        worst = max(worst, float(np.abs(c * math.sqrt(N) / c.sum() - v).sum()))
    return STAT / math.sqrt(shots) + math.sqrt(N) * worst


def run_cli(argv):
    """Run ``qps`` in-process; return (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


def order_flag(s):
    # "--s=re,im": argparse reads "--s -0.5,0.2" as a flag
    return f"--s={s.real!r},{s.imag!r}"


def parsed(pattern, text):
    m = re.search(pattern, text)
    return float(m.group(1)) if m else math.inf


# --------------------------------------------------------------- workloads


class Portrait:
    """Forward analysis (operator -> grid) at N = 61."""

    name = "portrait"
    N = 61
    CALIBRATION = ("small",)  # kernel parts for host-speed scaling, see calib.py

    @staticmethod
    def setup():
        theta.kernel_table(61)
        quasiprob.smoothing_table(61)
        theta.fock_coefficients(61)

    def __init__(self, ctx):
        self.ctx = ctx
        self.dft = lattice.dft_matrix(self.N)

    def blocks(self, rng):
        N = self.N
        while True:
            rho = random_state(N, rng, pure=rng.random() < 0.5)
            n = int(rng.integers(N))
            fock = quasiprob.fock_projector(n, N)
            yield self.state_ops(rho, rng) + self.state_ops(fock, rng, fock_n=n)

    def state_ops(self, rho, rng, fock_n=None):
        N, ctx = self.N, self.ctx
        res = {}
        orders = {"P": 1 + 0j, "W": 0j, "H": -1 + 0j, "X": fresh_order(rng)}

        def phase(key):
            s = orders[key]

            def gate(F):
                res[key] = F
                tol = ctx.tol(N, s)
                name = "glauber_sum" if key == "P" else "sum"
                checks = [(name, abs(F.grid.sum() / N - 1), tol)]
                if key in ("W", "H"):
                    checks.append(("imag", maxabs(F.grid.imag), TOL))
                if key == "H":
                    checks.append(("husimi_negative", max(0.0, -F.grid.real.min()), TOL))
                return checks

            return Op(f"phase_fn[{key}]", lambda: quasiprob.phase_fn(rho, s), gate)

        def smooth(kind, fn, src, dst, name):
            def gate(out):
                return [(name, maxabs(out.grid - res[dst].grid), ctx.tol(N, orders[src]))]

            return Op(kind, lambda: fn(res[src]), gate)

        def marginal(kind, fn, key, check):
            return Op(f"{kind}[{key}]", lambda: fn(res[key]), check)

        def wigner_marginal(ref):
            # Wigner marginals are the coordinate and momentum distributions
            return lambda m: [("wigner_marginal", maxabs(m.values - ref), TOL)]

        def husimi_marginal(m):
            return [("husimi_marginal", max(abs(m.values.sum() - math.sqrt(N)),
                                            -m.values.real.min()), TOL)]

        diag_q = math.sqrt(N) * np.diag(rho).real
        diag_r = math.sqrt(N) * np.diag(self.dft.conj().T @ rho @ self.dft).real
        ops = [phase(k) for k in ("P", "W", "H", "X")]
        ops += [
            smooth("smooth_p_to_w", quasiprob.smooth_p_to_w, "P", "W", "glauber_p2w"),
            smooth("smooth_w_to_h", quasiprob.smooth_w_to_h, "W", "H", "smooth_w2h"),
            smooth("smooth_p_to_h", quasiprob.smooth_p_to_h, "P", "H", "glauber_p2h"),
            marginal("marginal_q", tomography.marginal_q, "W", wigner_marginal(diag_q)),
            marginal("marginal_r", tomography.marginal_r, "W", wigner_marginal(diag_r)),
            marginal("marginal_q", tomography.marginal_q, "H", husimi_marginal),
            marginal("marginal_r", tomography.marginal_r, "H", husimi_marginal),
        ]
        if fock_n is not None:
            key = ("P", "W", "H", "X")[int(rng.integers(4))]
            what = {"P": "glauber", "W": "wigner", "H": "husimi", "X": "phase"}[key]
            argv = ["grid", "--dim", str(N), "--what", what, "--state", f"fock:{fock_n}",
                    "--format", "json"]
            if key == "X":
                argv.append(order_flag(orders["X"]))

            def gate(out):
                rc, text = out
                if rc != 0:
                    return [("cli_exit", float(rc), 0.0)]
                data = np.array(json.loads(text)["data"])
                grid = (data[:, 2] + 1j * data[:, 3]).reshape(N, N)
                ref = res[key].grid
                return [("cli_grid", maxabs(grid - ref), 1e-12 * max(1.0, maxabs(ref)))]

            ops.append(Op("cli grid", lambda: run_cli(argv), gate))
        return ops


class Tomography:
    """Inverse reconstruction from simulated measurements at prime N = 31."""

    name = "tomography"
    N = 31
    CALIBRATION = ("small",)

    @staticmethod
    def setup():
        theta.kernel_table(31)
        theta.fock_coefficients(31)

    def __init__(self, ctx):
        self.ctx = ctx

    def blocks(self, rng):
        N = self.N
        while True:
            ops = self.state_ops(random_state(N, rng, pure=rng.random() < 0.5), rng)
            n = int(rng.integers(N))
            ops += self.state_ops(quasiprob.fock_projector(n, N), rng, fock_n=n)
            yield ops

    def symplectic_params(self, rng):
        N = self.N
        while True:
            z2, z3 = (int(z) for z in rng.integers(N, size=2))
            z4 = int(rng.integers(1, N))
            q = (1 + z2 * z3) % N
            if q:
                return tomography.SymplecticParams(q * pow(z4, -1, N) % N, z2, z3, z4, N)

    def state_ops(self, rho, rng, fock_n=None):
        """Exact and shot-noise reconstruction of every state, then a readout and
        a line sum on the random state, or the two `qps tomo` runs on the Fock one.

        Two ops per state besides the reconstructions keeps the latency median
        inside the reconstruction ops rather than on the edge of another kind.
        """
        N, ctx = self.N, self.ctx
        Xi = quasiprob.char_fn(rho, 0).grid
        W = dft2(Xi)
        bound = shot_bound(W, SHOTS)
        ell = (N - 1) // 2
        shot_seed = int(rng.integers(2**31))
        shot_rng = np.random.default_rng(shot_seed)

        def exact_gate(R):
            return [("tomo_exact", maxabs(R.grid - W), ctx.tol(N, 0))]

        def shot_gate(R):
            return [
                ("sum", abs(R.grid.sum() / N - 1), TOL),
                ("imag", maxabs(R.grid.imag), TOL),
                ("shot", maxabs(R.grid - W), bound),
            ]

        ops = [
            Op("reconstruct_wigner", lambda: tomography.reconstruct_wigner(rho), exact_gate),
            Op("reconstruct_wigner[shots]",
               lambda: tomography.reconstruct_wigner(rho, shots=SHOTS, rng=shot_rng), shot_gate),
        ]
        if fock_n is not None:
            argv = ["tomo", "--dim", str(N), "--state", f"fock:{fock_n}"]
            shot_argv = argv + ["--shots", str(SHOTS), "--seed", str(shot_seed)]

            def cli_gate(pattern, tol):
                def gate(out):
                    rc, text = out
                    return [("cli_exit", float(rc != 0), 0.0),
                            ("cli_tomo", parsed(pattern, text), tol)]

                return gate

            return ops + [
                Op("cli tomo", lambda: run_cli(argv), cli_gate(r"\nmax \|dW\|: (\S+)", TOL)),
                Op("cli tomo --shots", lambda: run_cli(shot_argv),
                   cli_gate(r"statistical max \|dW\|: (\S+)", bound)),
            ]

        eta, xi = (int(x) for x in rng.integers(-ell, ell + 1, size=2))
        params = self.symplectic_params(rng)
        e2, x2 = (int(x) for x in rng.integers(-ell, ell + 1, size=2))
        F0 = quasiprob.PhaseSpaceFunction(0j, W)

        def scatter_gate(out):
            ref = math.sqrt(N) * Xi[eta + ell, xi + ell]
            return [("scattering", abs(complex(*out) - ref), TOL)]

        def symplectic_run():
            J = tomography.symplectic_j(params)
            return J, tomography.radon_q(F0, params.z1, params.z3)

        def symplectic_gate(out):
            J, L = out
            lhs = J @ schwinger.s_op(e2, x2, N) @ J.conj().T
            img = schwinger.s_op(int(cmod(params.z1 * e2 + params.z2 * x2, N)),
                                 int(cmod(params.z3 * e2 + params.z4 * x2, N)), N)
            ctx.line_sum_min = min(ctx.line_sum_min, float(L.values.real.min()))
            return [
                ("unitary", maxabs(J @ J.conj().T - np.eye(N)), TOL),
                ("conjugation", min(maxabs(lhs - img), maxabs(lhs + img)), TOL),
                ("line_sum", maxabs(L.values - line_sums(W, params.z1, params.z3)), TOL),
                ("line_total", abs(L.values.sum() - math.sqrt(N)), TOL),
            ]

        return ops + [
            Op("scattering_circuit", lambda: tomography.scattering_circuit(rho, eta, xi),
               scatter_gate),
            Op("symplectic_j+radon_q", symplectic_run, symplectic_gate),
        ]


class Expansion:
    """Inverse synthesis (grid -> operator) at N = 17."""

    name = "expansion"
    N = 17
    CALIBRATION = ("small", "family")  # most of the busy time builds fresh families
    CYCLES_PER_SELFTEST = 4

    @staticmethod
    def setup():
        theta.kernel_table(17)
        for s in STANDARD_ORDERS:
            schwinger.t_family(s, 17)
        theta.gamma_table(17)
        quasiprob.smoothing_table(17)

    def __init__(self, ctx):
        self.ctx = ctx

    def blocks(self, rng):
        while True:
            ops = []
            for _ in range(self.CYCLES_PER_SELFTEST):
                ops += self.cycle_ops(rng)
            gate = lambda out: [("cli_exit", float(out[0] != 0), 0.0)]
            ops.append(Op("cli selftest", lambda: run_cli(["selftest", "--dim", str(self.N)]),
                          gate))
            yield ops

    def cycle_ops(self, rng):
        N, ctx = self.N, self.ctx
        ell = (N - 1) // 2
        rho = random_state(N, rng, pure=rng.random() < 0.5)
        O = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        O_scale = maxabs(O)
        s = STANDARD_ORDERS[int(rng.integers(3))]
        s_fresh = fresh_order(rng)
        mu, nu, mu2, nu2 = (int(x) for x in rng.integers(-ell, ell + 1, size=4))
        m, n = (int(x) for x in rng.integers(N, size=2))
        omega = float(rng.uniform(-1, 1))
        tol_s = ctx.tol(N, s, -s)

        def close(ref, scale=1.0, tol=TOL, name="round_trip"):
            return lambda out: [(name, maxabs(out - ref) / scale, tol)]

        def rho_round_trip(order):
            def run():
                return quasiprob.reconstruct_rho(quasiprob.phase_fn(rho, order))

            def gate(out):
                return [("round_trip", maxabs(out - rho), ctx.tol(N, order, -order))]

            return run, gate

        def coherent_gate(P):
            return [("trace", abs(np.trace(P) - 1), TOL), ("idempotent", maxabs(P @ P - P), TOL)]

        def tme_gate(v):
            F = theta.fock_coefficients(N)
            ref = (F.conj().T @ schwinger.t_op(mu2, nu2, s, N) @ F)[m, n]
            return [("t_matrix_element", abs(v - ref), ctx.tol(N, s))]

        return [
            Op("decompose_t>reconstruct_t",
               lambda: schwinger.reconstruct_t(schwinger.decompose_t(O, s), s),
               close(O, O_scale, tol_s)),
            Op("phase_fn>reconstruct_rho", *rho_round_trip(s)),
            Op("expectation", lambda: quasiprob.expectation(O, rho, s),
               close(np.trace(O @ rho), O_scale, tol_s, "expectation")),
            Op("decompose_schwinger>reconstruct_schwinger",
               lambda: schwinger.reconstruct_schwinger(schwinger.decompose_schwinger(O)),
               close(O, O_scale)),
            Op("coherent_projector", lambda: quasiprob.coherent_projector(mu, nu, N),
               coherent_gate),
            Op("t_matrix_element", lambda: quasiprob.t_matrix_element(m, n, mu2, nu2, s, N),
               tme_gate),
            Op("depolarize", lambda: schwinger.depolarize(O, omega),
               close(np.trace(O) * np.eye(N), O_scale, name="depolarize")),
            Op("fresh:phase_fn>reconstruct_rho", *rho_round_trip(s_fresh)),
        ]


class Teleport:
    """Bell states and the teleportation protocol at N = 5 and 7."""

    name = "teleport"
    DIMS = (5, 7)
    CALIBRATION = ("small",)
    COEFF_DIM = 5
    # Bell outcomes teleported per state, and theta_coeffs tables per block.
    # A block is then 19 ops: 8 cheaper than teleport at N = 7, the 3 of
    # those, and 8 dearer, 6 of them theta_coeffs.  So op_p50_ms falls in
    # the middle of the N = 7 teleport latencies and op_p90_ms inside the
    # theta_coeffs ones, not on the edge between two op kinds.
    OUTCOMES = {5: 1, 7: 3}
    THETA_OPS = 6

    @staticmethod
    def setup():
        for N in Teleport.DIMS:
            theta.kernel_table(N)
            for s in STANDARD_ORDERS:
                schwinger.t_family(s, N)
            teleport._bell_seed(N)
            theta.fock_coefficients(N)

    def __init__(self, ctx):
        self.ctx = ctx
        self.bell_basis = {}
        for N in self.DIMS:
            k = centered(N)
            self.bell_basis[N] = np.stack(
                [teleport.bell_state(teleport.BellLabel(int(a), int(b)), N) for a in k for b in k],
                axis=1,
            )

    def blocks(self, rng):
        while True:
            ops = []
            for N in self.DIMS:
                ops += self.cycle_ops(N, rng)
            yield ops

    def cycle_ops(self, N, rng):
        ctx = self.ctx
        ell = (N - 1) // 2
        labels = lambda size: [int(x) for x in rng.integers(-ell, ell + 1, size=size)]
        rho = random_state(N, rng, pure=rng.random() < 0.5)
        W1 = dft2(quasiprob.char_fn(rho, 0).grid)
        K = theta.kernel_table(N)
        ops = []
        for _ in range(self.OUTCOMES[N]):
            alpha, beta = labels(2)
            s1, s3 = (STANDARD_ORDERS[int(i)] for i in rng.integers(3, size=2))
            res = {}

            def tele_gate(out, alpha=alpha, beta=beta, res=res):
                rho3, p = out
                res["rho3"] = rho3
                W3 = dft2(quasiprob.char_fn(rho3, 0).grid)
                shifted = np.roll(W1, (alpha, -beta), axis=(0, 1))
                return [("probability", abs(p - 1 / N**2), TOL),
                        ("shift_law", maxabs(W3 - shifted), TOL)]

            def via_gate(out, s1=s1, s3=s3, res=res):
                return [("via_coeffs", maxabs(out - res["rho3"]), ctx.tol(N, s1, -s1, s3, -s3))]

            ops += [
                Op(f"teleport[N={N}]", lambda a=alpha, b=beta: teleport.teleport(rho, a, b),
                   tele_gate),
                Op(f"teleport_via_coeffs[N={N}]",
                   lambda a=alpha, b=beta, s1=s1, s3=s3: teleport.teleport_via_coeffs(
                       rho, a, b, s1, s3),
                   via_gate),
            ]

        w = teleport.BellLabel(*labels(2))
        s_bip = (0j, -1 + 0j)[int(rng.integers(2))]
        k = centered(N)
        m1, n1, m2, n2 = np.ix_(k, k, k, k)
        if s_bip == 0:
            ref = ((cmod(w.omega1 + m1 + m2, N) == 0) & (cmod(w.omega2 - (n1 - n2), N) == 0))
            ref = ref.astype(float)
        else:
            ref = K[cmod(m1 + m2 + w.omega1, N) + ell, cmod(n1 - n2 - w.omega2, N) + ell] ** 2 / N
        ops.append(Op(
            f"bipartite_phase_fn[N={N}]",
            lambda: teleport.bipartite_phase_fn(teleport.bell_state(w, N), s_bip, s_bip),
            lambda out: [("bell_closed_form", maxabs(out.grid - ref), TOL)],
        ))

        if N == self.COEFF_DIM:
            B = self.bell_basis[N]
            for _ in range(self.THETA_OPS):
                mu1, nu1, mu2, nu2 = labels(4)
                t1, t2 = (STANDARD_ORDERS[int(i)] for i in rng.integers(3, size=2))

                def theta_gate(C, mu1=mu1, nu1=nu1, mu2=mu2, nu2=nu2, t1=t1, t2=t2):
                    target = np.kron(schwinger.t_op(mu1, nu1, t1, N), schwinger.t_op(mu2, nu2, t2, N))
                    rec = B @ C.reshape(N * N, N * N) @ B.conj().T
                    return [("theta_coeffs", maxabs(rec - target), ctx.tol(N, t1, t2))]

                ops.append(Op(
                    "theta_coeffs",
                    lambda a=(mu1, nu1, mu2, nu2, t1, t2): teleport.theta_coeffs(*a, N),
                    theta_gate,
                ))
            wa, wb = (teleport.BellLabel(*labels(2)) for _ in range(2))
            u1, u2 = (STANDARD_ORDERS[int(i)] for i in rng.integers(3, size=2))

            def upsilon_gate(Y):
                rec = np.einsum("abcd,abij,cdkl->ikjl", Y, schwinger.t_family(u1, N),
                                schwinger.t_family(u2, N)).reshape(N * N, N * N) / N**2
                target = np.outer(B[:, (wa.omega1 + ell) * N + wa.omega2 + ell],
                                  B[:, (wb.omega1 + ell) * N + wb.omega2 + ell].conj())
                return [("upsilon_coeffs", maxabs(rec - target), ctx.tol(N, u1, u2))]

            ops.append(Op("upsilon_coeffs",
                          lambda: teleport.upsilon_coeffs(wa, wb, u1, u2, N), upsilon_gate))

        n = int(rng.integers(N))
        a, b = labels(2)
        argv = ["teleport", "--dim", str(N), "--state", f"fock:{n}", "--alpha", str(a),
                "--beta", str(b)]
        ops.append(Op(f"cli teleport[N={N}]", lambda: run_cli(argv),
                      lambda out: [("cli_exit", float(out[0] != 0), 0.0)]))
        return ops


WORKLOADS = {w.name: w for w in (Portrait, Tomography, Expansion, Teleport)}
