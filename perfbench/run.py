"""Benchmark runner for the qps package.

One process drives one workload in a closed loop with a single client:
the next op starts when the previous one returns.  Run from the root of
a source checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload portrait --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all      # every workload, untraced and traced
    python3 perfbench/run.py --smoke    # quick check that every metric is printed

The last line of a workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a run whose qps functions are wrapped by
``tracer.Tracer``.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
# one BLAS thread: the loop has one client, and timings should not depend on free cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
CHILD_TIMEOUT = 170
# fresh-process set-ups per run, setup_s is their median: at least
# SETUP_MIN, more while SETUP_BUDGET_S of wall time lasts, at most SETUP_MAX
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 11, 5.0
RSS_BLOCKS = 2  # peak_rss_mb is read after this many blocks: a fixed amount of work


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def import_qps():
    """Import qps from this checkout's src/, never from anywhere else."""
    if not (SRC / "qps" / "__init__.py").is_file():
        fail(f"no qps sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import qps

    if Path(qps.__file__).resolve().parent != (SRC / "qps").resolve():
        fail(f"imported qps from {qps.__file__}, expected {SRC / 'qps'}")
    return qps


def timed_setup(name):
    """Fresh-process set-up: import qps, then every cold table the workload uses.

    Returns the set-up time scaled to the reference host speed, which is
    measured right after the set-up (see calib.py).
    """
    t0 = time.perf_counter()
    import_qps()
    from workloads import WORKLOADS

    WORKLOADS[name].setup()
    took = time.perf_counter() - t0
    import calib

    return took * calib.scale_now(WORKLOADS[name].CALIBRATION)


def probe_setup(name):
    cmd = [sys.executable, "-B", str(Path(__file__).resolve()), "--setup-probe", name]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if out.returncode != 0:
        fail(f"set-up probe failed: {out.stderr.strip()[-400:]}")
    return float(out.stdout.strip().splitlines()[-1])


def machine_info():
    import numpy as np
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


class Checks:
    """Worst gate residual per check name, and overall residual/tolerance."""

    def __init__(self):
        self.worst_ratio = 0.0
        self.worst = {}  # name -> (residual, tol) at the largest residual

    def record(self, triples):
        ok = True
        for name, residual, tol in triples:
            residual = float(residual)
            if not residual <= tol:  # also catches NaN
                ok = False
            if residual == 0:
                ratio = 0.0
            elif tol > 0 and not math.isnan(residual):
                ratio = residual / tol
            else:
                ratio = math.inf
            self.worst_ratio = max(self.worst_ratio, ratio)
            if name not in self.worst or residual > self.worst[name][0]:
                self.worst[name] = (residual, tol)
        return ok


class Phase:
    """Latencies and outcomes of the ops run in one measuring phase.

    `raw` holds the measured latencies; `lat` the same scaled to the
    reference host speed, which is what the metrics report.
    """

    def __init__(self):
        self.raw = []
        self.at = []  # perf_counter at the start of each op
        self.lat = []
        self.kernel_s = None  # median calibration-kernel time
        self.kernel_ref_s = None  # its time at the reference host speed
        self.kinds = []
        self.failed = 0
        self.errors = []
        self.rss_mb = None

    @property
    def attempted(self):
        return len(self.lat)

    @property
    def passed(self):
        return self.attempted - self.failed

    def ops_per_s(self):
        """Passed ops per second of busy time.

        Busy time is the sum over op kinds of count times median latency,
        so a burst of host noise on a few ops does not move it.
        """
        by_kind = {}
        for kind, lat in zip(self.kinds, self.lat):
            by_kind.setdefault(kind, []).append(lat)
        busy = sum(len(v) * statistics.median(v) for v in by_kind.values())
        return self.passed / busy if busy > 0 else 0.0


def measure(workload, rng, seconds, checks, tracer):
    """Run whole blocks until `seconds` of wall time have passed.

    The calibration kernel runs between ops, untimed, every calib.EVERY_S.
    """
    import calib

    quiet = tracer.paused if tracer is not None else contextlib.nullcontext
    phase = Phase()
    cal = calib.Calibrator(workload.CALIBRATION)
    blocks = workload.blocks(rng)
    start = time.perf_counter()
    done = 0
    while time.perf_counter() - start < seconds:
        if done == RSS_BLOCKS:
            phase.rss_mb = peak_rss_mb()
        with quiet():
            block = next(blocks)
        done += 1
        for op in block:
            cal.tick()
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raising op is a failed op
                phase.raw.append(time.perf_counter() - t0)
                phase.at.append(t0)
                phase.kinds.append(op.kind)
                phase.failed += 1
                phase.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            phase.raw.append(time.perf_counter() - t0)
            phase.at.append(t0)
            phase.kinds.append(op.kind)
            with quiet():
                try:
                    ok = checks.record(op.gate(out))
                except Exception as exc:
                    ok = False
                    phase.errors.append(f"{op.kind} gate: {type(exc).__name__}: {exc}")
            if not ok:
                phase.failed += 1
    if phase.rss_mb is None:
        phase.rss_mb = peak_rss_mb()
    cal.sample()
    phase.lat = [r * cal.scale(t + r / 2) for r, t in zip(phase.raw, phase.at)]
    phase.kernel_s = cal.median_s()
    phase.kernel_ref_s = cal.kernel.ref_s
    return phase


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def kind_table(phase):
    import numpy as np

    rows = {}
    for kind, lat in zip(phase.kinds, phase.lat):
        rows.setdefault(kind, []).append(lat)
    for kind, lats in rows.items():
        print(f"  op {kind:44s} n={len(lats):5d}  p50={np.median(lats) * 1e3:10.3f} ms")


def end_to_end(phase, setup_samples):
    import numpy as np

    p50, p90 = np.percentile(phase.lat, [50, 90]) * 1e3
    n = phase.attempted
    return {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "ops_per_s": (phase.ops_per_s(), "ops/s", n),
        "op_p50_ms": (float(p50), "ms", n),
        "op_p90_ms": (float(p90), "ms", n),
        "peak_rss_mb": (phase.rss_mb, "MB", 1),
        "passed_frac": (phase.passed / n, "1", n),
    }


# per-layer self time (s/op) summed over these traced functions
SELF_GROUPS = {
    "schwinger.s_op.self_s": ["schwinger.s_op"],
    "quasiprob.char_fn.self_s": ["quasiprob.char_fn"],
    "quasiprob.phase_fn.self_s": ["quasiprob.phase_fn"],
    "quasiprob.smoothing.self_s": [
        "quasiprob.smooth_p_to_w", "quasiprob.smooth_w_to_h", "quasiprob.smooth_p_to_h"],
    "schwinger.decompose_schwinger.self_s": ["schwinger.decompose_schwinger"],
    "schwinger.reconstruct_schwinger.self_s": ["schwinger.reconstruct_schwinger"],
    "schwinger.depolarize.self_s": ["schwinger.depolarize"],
    "quasiprob.reconstruct_rho.self_s": ["quasiprob.reconstruct_rho"],
    "tomography.radon.self_s": ["tomography.radon_q", "tomography.radon_r"],
    "tomography.ray_invert.self_s": [
        "tomography.char_from_radon_q", "tomography.char_from_radon_r"],
    "tomography.sample_marginal.self_s": ["tomography.sample_marginal"],
    "tomography.reconstruct_wigner.self_s": ["tomography.reconstruct_wigner"],
    "tomography.scattering_circuit.self_s": ["tomography.scattering_circuit"],
    "tomography.symplectic.self_s": [
        "tomography.symplectic_c", "tomography.symplectic_n", "tomography.symplectic_m",
        "tomography.symplectic_j"],
    "teleport.teleport.self_s": ["teleport.teleport"],
    "teleport.teleport_via_coeffs.self_s": ["teleport.teleport_via_coeffs"],
    "teleport.bipartite_phase_fn.self_s": ["teleport.bipartite_phase_fn"],
    "teleport.theta_coeffs.self_s": ["teleport.theta_coeffs"],
    "lattice.tensor.self_s": ["lattice.tensor"],
    "lattice.partial_trace.self_s": ["lattice.partial_trace"],
    "cli.grid.self_s": ["cli.cmd_grid"],
    "cli.tomo.self_s": ["cli.cmd_tomo"],
    "cli.teleport.self_s": ["cli.cmd_teleport"],
    "cli.selftest.self_s": ["cli.cmd_selftest"],
}
CALL_GROUPS = {
    "schwinger.s_op.calls": ["schwinger.s_op"],
    "teleport.bell_state.calls": ["teleport.bell_state"],
}
# cached tables: mean seconds per cache-miss build, over traced set-up and phase
BUILDS = {
    "theta.kernel_table.build_s": "theta.kernel_table",
    "quasiprob.smoothing_table.build_s": "quasiprob.smoothing_table",
    "theta.gamma_table.build_s": "theta.gamma_table",
    "schwinger.t_family.build_s": "schwinger._t_family",
}
CACHES = {"theta.kernel_table": "theta.kernel_table", "schwinger.t_family": "schwinger._t_family"}


def per_layer(setup, steady, ops, ctx, checks, overhead):
    from tracer import LAYERS

    st = steady["stats"]
    m = {}
    for layer in LAYERS:
        keys = [k for k in st if k.startswith(layer + ".")]
        m[f"{layer}.self_s"] = (sum(st[k].self_s for k in keys) / ops, "s/op")
        m[f"{layer}.calls"] = (sum(st[k].calls for k in keys) / ops, "calls/op")
    for name, keys in SELF_GROUPS.items():
        m[name] = (sum(st[k].self_s for k in keys) / ops, "s/op")
    for name, keys in CALL_GROUPS.items():
        m[name] = (sum(st[k].calls for k in keys) / ops, "calls/op")
    m["theta.theta.calls"] = (setup["stats"]["theta.theta"].calls, "count")
    both = lambda k: (setup["stats"][k], st[k])
    for name, key in BUILDS.items():
        builds = sum(s.builds for s in both(key))
        m[name] = (sum(s.build_s for s in both(key)) / builds if builds else 0.0, "s")
    for name, key in CACHES.items():
        hits = setup["cache"][key][0] + steady["cache"][key][0]
        misses = setup["cache"][key][1] + steady["cache"][key][1]
        m[f"{name}.hits"] = (hits, "count")
        m[f"{name}.misses"] = (misses, "count")
    hits, misses = m["schwinger.t_family.hits"][0], m["schwinger.t_family.misses"][0]
    m["schwinger.t_family.hit_frac"] = (hits / (hits + misses) if hits + misses else 0.0, "1")
    m["schwinger.t_family.bytes"] = (
        sum(s.build_bytes for s in both("schwinger._t_family")), "B")
    cmds = steady["tomo_cmds"]
    m["cli.tomo.radon_calls"] = (steady["radon_in_tomo"] / cmds if cmds else 0.0, "calls/cmd")
    m["quasiprob.kinv_max"] = (ctx.kinv_max, "1")
    m["tomography.line_sum_min"] = (ctx.line_sum_min, "1")
    m["checks.worst_ratio"] = (checks.worst_ratio, "1")
    for name in ("glauber_sum", "glauber_p2w", "shot"):
        residual, tol = checks.worst.get(name, (0.0, 0.0))
        m[f"checks.{name}.residual"] = (residual, "1")
        m[f"checks.{name}.bound"] = (tol, "1")
    m["trace.overhead_frac"] = (overhead, "1")
    m["trace.ops"] = (ops, "count")
    return m


def run_workload(args):
    if args.trace:
        setup_samples = []
        import_qps()
    else:
        setup_samples = []
        t0 = time.perf_counter()
        while len(setup_samples) < SETUP_MAX - 1 and (
                len(setup_samples) < SETUP_MIN - 1 or time.perf_counter() - t0 < SETUP_BUDGET_S):
            setup_samples.append(probe_setup(args.workload))
        # this process is fresh too: its own set-up is one more sample
        setup_samples.append(timed_setup(args.workload))
    import numpy as np
    from workloads import WORKLOADS, Context
    from tracer import Tracer

    wl_cls = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        wl_cls.setup()
        tracer.uninstall()
        setup_stats = tracer.take()

    ctx = Context()
    workload = wl_cls(ctx)
    checks = Checks()
    rng = np.random.default_rng(args.seed)
    info = machine_info()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("machine " + json.dumps(info))

    if tracer:
        untraced = measure(workload, rng, args.seconds / 2, checks, None)
        tracer.install()
        traced = measure(workload, rng, args.seconds / 2, checks, tracer)
        tracer.uninstall()
        steady = tracer.take()
        phases = (untraced, traced)
        base = untraced.ops_per_s()
        overhead = 1 - traced.ops_per_s() / base if base else 0.0
        metrics = per_layer(setup_stats, steady, traced.attempted, ctx, checks, overhead)
        report = {k: (v, u, traced.attempted) for k, (v, u) in metrics.items()}
    else:
        phase = measure(workload, rng, args.seconds, checks, None)
        phases = (phase,)
        report = end_to_end(phase, setup_samples)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        kind_table(p)
        print(f"  calibration kernel median {p.kernel_s * 1e3:.3f} ms (reference "
              f"{p.kernel_ref_s * 1e3:g} ms); unscaled mean ops_per_s {p.passed / sum(p.raw):.6g}")
        for err in p.errors[:5]:
            print(f"  error {err}")
    for name, (residual, tol) in sorted(checks.worst.items()):
        print(f"  check {name:24s} worst residual {residual:.3e}  tolerance {tol:.3e}")
    for name, (value, unit, n) in report.items():
        print(f"  metric {name:40s} {value:.6g} {unit}  (n={n})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in report.items()},
    }))
    return 0


def run_child(workload, seed, seconds, trace):
    cmd = [sys.executable, "-B", str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT + seconds)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None, out.stdout + out.stderr
    return json.loads(lines[-1]), out.stdout


def run_all(args, spec):
    """Every workload, untraced then traced; one table of all metrics."""
    ok = True
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, text = run_child(wl, args.seed, args.seconds, trace)
            if result is None:
                print(text)
                print(f"{wl} trace={trace}: run failed")
                ok = False
                continue
            ok &= bool(result["correct"])
            print(f"== {wl} trace={trace}  attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for line in text.splitlines():
                if line.startswith(("machine", "  metric")):
                    print(line)
    return 0 if ok else 1


def smoke(spec):
    """Short runs of every workload; check each named metric and unit is printed."""
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    ok = True
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, text = run_child(wl, 0, 1, trace)
            if result is None:
                print(text)
                print(f"FAIL {wl} trace={trace}: no result")
                ok = False
                continue
            got = result["metrics"]
            missing = [m["name"] for m in wanted[trace]
                       if got.get(m["name"], {}).get("unit") != m["unit"]]
            extra = sorted(set(got) - {m["name"] for m in wanted[trace]})
            good = result["correct"] and not missing and not extra and result["attempted"] >= 1
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {wl} trace={trace} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"missing={missing} extra={extra}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--smoke", action="store_true", help="check every metric is printed")
    p.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        print(timed_setup(args.setup_probe))
        return 0
    if not (SRC / "qps" / "__init__.py").is_file():
        fail(f"no qps sources under {SRC}; run from a source checkout")
    spec = json.loads(SPEC.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.smoke:
        return smoke(spec)
    if args.all:
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"--workload must be one of {[w['name'] for w in spec['workloads']]}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
