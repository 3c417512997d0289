"""dropshock benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload delta_compare --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and never from an installed copy.  With ``--trace 0`` the
run times untraced jobs for ``--seconds`` and reports the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` it times half the jobs untraced and half
with spans around the package's public functions, and reports the per-layer
metrics.  Every job's outputs are checked (acceptance-criterion gates and the
stored reference outputs).  The last line of standard output is the JSON
result; a fuller record of the run, and the spans of a traced run, go to
``.perfbench_out/`` in the checkout, and CSV/SVG/JSON outputs of the program
to a temporary directory there that is removed at the end.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# one BLAS/OpenMP thread: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from calibrate import REFERENCE_S, calibrate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REF_DIR = os.path.join(HERE, "ref")
SETUP_REPEATS = 7
# a job whose outputs differ from the stored references by more than this
# (absolute, over every stored array) fails its output check
REF_TOL = 1e-9

# deterministic accuracy numbers; a workload reports those that apply to it
# and the rest read "n/a" (0 in the result line)
ACCURACY = ["l1_u", "l1_alpha", "pos_err_cells", "mass_rel_err",
            "vacuum_floor", "weak_residual_max", "rk4_max_err", "blowup_gap"]


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def machine_info(seed: int) -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        d = os.path.join(base, index)
        if os.path.isfile(os.path.join(d, "size")):
            caches[f"L{_read(os.path.join(d, 'level'))}{_read(os.path.join(d, 'type')).lower()[:1]}"] = \
                _read(os.path.join(d, "size"))
    commit = os.environ.get("PERFBENCH_COMMIT", "unknown")
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
        "seed": seed,
        "note": "FV fields are 24 KB (3000 cells) to 96 KB (12 000 cells) per array and fit in L2, "
                "so memory bandwidth and roofline figures are not measured",
    }


def measure_setup(workload: str, seed: int, tmp: str):
    """Set-up times (import, scenario parse, initial state/solution) in fresh
    interpreters: the raw times and the times scaled to the reference speed."""
    samples, scaled = [], []
    for k in range(SETUP_REPEATS):
        probe_tmp = os.path.join(tmp, f"setup{k}")
        os.makedirs(probe_tmp)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, workload, probe_tmp, str(seed)],
                capture_output=True, text=True, timeout=30,
            )
        except subprocess.TimeoutExpired:
            fail(f"set-up of {workload} took over 30 s", 1)
        if proc.returncode != 0:
            fail(f"set-up of {workload} failed:\n{proc.stderr}", 1)
        elapsed, cal = (float(v) for v in proc.stdout.split())
        samples.append(elapsed)
        scaled.append(elapsed / cal * REFERENCE_S)
    return samples, scaled


def ref_max_dev(outputs: dict, ref) -> float:
    """Max |output - reference| over every stored array; inf if the sets differ."""
    if ref is None or set(outputs) != set(ref):
        return float("inf")
    worst = 0.0
    for key, value in outputs.items():
        value = np.asarray(value, dtype=float)
        if value.shape != ref[key].shape:
            return float("inf")
        dev = float(np.max(np.abs(value - ref[key]), initial=0.0))
        worst = max(worst, dev if dev == dev else float("inf"))  # NaN counts as infinitely off
    return worst


class Runner:
    """Runs and checks jobs of one workload, counting attempts and failures."""

    def __init__(self, wl, tmp, ref):
        self.wl, self.tmp, self.ref = wl, tmp, ref
        self.attempted = self.failed = 0
        self.failures = []
        self.last = None  # JobResult of the last job that ran to completion
        self.ref_dev = 0.0
        self.calibrations = []

    def job(self, run_cli, run=None):
        """One job (``run`` stands in for the workload's run); returns its
        wall time, which covers the run and not the checks."""
        out = os.path.join(self.tmp, f"job{self.attempted}")
        os.makedirs(out)
        self.attempted += 1
        run = run or self.wl.run
        t0 = time.perf_counter()
        wall = None
        try:
            raw = run(out, run_cli)
            wall = time.perf_counter() - t0
            res = self.wl.check(out, raw)
        except Exception:  # a job that raises is a failed job; keep measuring
            wall = time.perf_counter() - t0 if wall is None else wall
            self.failed += 1
            self.failures.append(traceback.format_exc(limit=3))
            print(self.failures[-1], file=sys.stderr)
            return wall
        finally:
            shutil.rmtree(out, ignore_errors=True)
        dev = ref_max_dev(res.outputs, self.ref)
        self.ref_dev = max(self.ref_dev, dev)
        res.check("reference", dev <= REF_TOL, f"max |output - reference| {dev:.3g} (<= {REF_TOL})")
        bad = [f"{name}: {detail}" for name, ok, detail in res.checks if not ok]
        if bad:
            self.failed += 1
            self.failures.append("; ".join(bad))
            print(f"job {self.attempted - 1} failed: {self.failures[-1]}", file=sys.stderr)
        self.last = res
        return wall

    def loop(self, seconds, run_cli, run=None):
        """Jobs back to back until `seconds` have passed (at least one).

        Returns the raw job times and the times scaled to the reference
        speed by the mean of the calibration runs just before and after.
        """
        walls, scaled = [], []
        start = time.perf_counter()
        cal = calibrate()
        while not walls or time.perf_counter() - start < seconds:
            walls.append(self.job(run_cli, run))
            cal_after = calibrate()
            scaled.append(walls[-1] / (0.5 * (cal + cal_after)) * REFERENCE_S)
            self.calibrations.append(cal_after)
            cal = cal_after
        return walls, scaled


def kernel_us(state, params, dt, repeat=7, number=100):
    """Median per-call time (us) of the three FV kernels on one state, as advance calls them."""
    from dropshock import fv

    u = fv.reconstruct_velocity(state, params)
    bounds = (float(u.min()) - 1e-9, float(u.max()) + 1e-9)
    a_ext = np.concatenate((state.alpha[:1], state.alpha, state.alpha[-1:]))
    u_ext = np.concatenate((u[:1], u, u[-1:]))
    calls = {
        "reconstruct_velocity": lambda: fv.reconstruct_velocity(state, params, bounds),
        "kinetic_flux": lambda: fv.kinetic_flux(a_ext[:-1], u_ext[:-1], a_ext[1:], u_ext[1:]),
        "source_step": lambda: fv.source_step(state, params, dt),
    }
    out = {}
    for name, fn in calls.items():
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            for _ in range(number):
                fn()
            times.append((time.perf_counter() - t0) / number * 1e6)
        out[name] = statistics.median(times)
    return out


def layer_metrics(total, self_t, counts) -> dict:
    """Per-layer figures of one traced job from its span totals and counters."""
    steps, adv = counts["fv.steps"], total["fv.advance"]
    rk4, integ = counts["grh.rk4_steps"], total["grh.integrate"]
    calls = counts["core.relax_velocity_calls"]
    return {
        "fv.advance_s": adv,
        "fv.us_per_step": adv / steps * 1e6 if steps else 0.0,
        "fv.cell_steps_per_s": counts["fv.cell_steps"] / adv if adv else 0.0,
        "fv.steps": steps,
        "grh.integrate_s": integ,
        "grh.rk4_steps": rk4,
        "grh.us_per_rk4_step": integ / rk4 * 1e6 if rk4 else 0.0,
        "core.relax_velocity_calls": calls,
        "core.relax_velocity_calls_per_rk4_step": calls / rk4 if rk4 else 0.0,
        "validation.compare_s": total["validation.compare"],
        "validation.weak_residual_s": total["validation.weak_residual"],
        "validation.first_crossing_time_s": total["validation.first_crossing_time"],
        "droplet.solve_s": total["droplet.solve"],
        "droplet.regular_fields_s": total["droplet.regular_fields"],
        "burgers.blowup_s": total["burgers.blowup"],
        "cli.write_csv_s": total["cli.write_csv"],
        "cli.csv_bytes": counts["cli.csv_bytes"],
        "cli.self_s": self_t["cli.main"],
        "svgplot.line_plot_s": total["svgplot.line_plot"],
        "svgplot.svg_bytes": counts["svgplot.svg_bytes"],
    }


def traced_run(runner, seconds):
    """Half the time untraced, half traced; returns the per-layer metrics.

    The first traced job also runs the counters and gives the counts; the
    span times are medians over the later traced jobs (at least one), which
    run without counters.
    """
    from dropshock import cli

    plain, plain_scaled = runner.loop(seconds / 2, cli.main)
    tracer = tracing.Tracer()

    def traced_cli(argv):
        return tracer.call("cli.main", cli.main, argv)

    def traced_job(out, run_cli):
        return tracer.run_job(len(tracer.counts), runner.wl.run, out, run_cli)

    start = time.perf_counter()
    tracer.install(counters=True)
    try:
        runner.job(traced_cli, traced_job)
    finally:
        tracer.uninstall()
    tracer.install()
    try:
        traced, traced_scaled = runner.loop(seconds / 2 - (time.perf_counter() - start), traced_cli, traced_job)
    finally:
        tracer.uninstall()
    per_job = [layer_metrics(*tracer.job_times(k), tracer.counts[0]) for k in range(1, len(traced) + 1)]
    metrics = {name: statistics.median(job[name] for job in per_job) for name in per_job[0]}
    if runner.last is not None:
        state, dt = runner.last.probe
        k = kernel_us(state, runner.wl.params, dt)
        metrics.update({f"fv.{name}_us": value for name, value in k.items()})
        if metrics["fv.steps"]:
            metrics["fv.step_remainder_us"] = metrics["fv.us_per_step"] - sum(k.values())
    metrics.setdefault("fv.step_remainder_us", 0.0)
    for name in ("fv.reconstruct_velocity_us", "fv.kinetic_flux_us", "fv.source_step_us"):
        metrics.setdefault(name, 0.0)
    metrics["trace.overhead_s"] = statistics.median(traced_scaled) - statistics.median(plain_scaled)
    metrics["wall_raw_s"] = statistics.median(plain)
    return metrics, tracer, (plain, plain_scaled), traced


def main(argv=None) -> int:
    started = time.time()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dropshock", "__init__.py")):
        fail(f"no package source at {os.path.relpath(SRC)}/dropshock; run from the root of a dropshock checkout")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    sys.path.insert(0, SRC)
    import dropshock
    import workloads as w
    from dropshock import cli

    if os.path.dirname(os.path.abspath(dropshock.__file__)) != os.path.join(SRC, "dropshock"):
        fail(f"dropshock was imported from {dropshock.__file__}, not from {SRC}")
    if args.workload not in w.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(w.WORKLOADS)}")

    for sub in ("tmp", "results", "spans"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(OUT, "tmp"))
    try:
        setup, setup_scaled = measure_setup(args.workload, args.seed, tmp)
        wl = w.make(args.workload, tmp, args.seed)
        ref_path = os.path.join(REF_DIR, f"{args.workload}.npz")
        ref = None
        if os.path.isfile(ref_path):
            with np.load(ref_path) as stored:
                ref = dict(stored)
        runner = Runner(wl, tmp, ref)
        runner.job(cli.main)  # warm-up: checked and counted, not timed
        tracer = None
        if args.trace:
            layers, tracer, (walls, scaled), traced = traced_run(runner, args.seconds)
        else:
            walls, scaled = runner.loop(args.seconds, cli.main)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    accuracy = runner.last.accuracy if runner.last is not None else {}
    failed_frac = runner.failed / runner.attempted
    values = {
        "wall_s": statistics.median(scaled),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - failed_frac,
    }
    if args.trace:
        values.update(layers)
        values.update({name: accuracy.get(name, 0.0) for name in ACCURACY})
        values.update(ref_max_dev=runner.ref_dev, failed_frac=failed_frac,
                      setup_raw_s=statistics.median(setup),
                      calibration_s=statistics.median(runner.calibrations))
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        reported = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    # an infinite deviation (outputs missing or misshapen) is written as the
    # largest float, so the result line stays valid JSON
    metrics = {m["name"]: {"value": min(float(values[m["name"]]), sys.float_info.max), "unit": m["unit"]}
               for m in reported}

    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "started": started,
        "machine": machine_info(args.seed),
        "metrics": metrics,
        "accuracy": {name: accuracy.get(name, "n/a") for name in ACCURACY},
        "ref_max_dev": runner.ref_dev, "failed_frac": failed_frac,
        "attempted": runner.attempted, "failed": runner.failed, "failures": runner.failures,
        "wall_samples": walls, "wall_scaled_samples": scaled, "calibration_samples": runner.calibrations,
        "setup_samples": setup, "setup_scaled_samples": setup_scaled,
    }
    if tracer is not None:
        spans_path = os.path.join(OUT, "spans", f"{args.workload}_s{args.seed}_{stamp}.jsonl")
        tracer.write_spans(spans_path)
        record.update(spans=os.path.relpath(spans_path, ROOT), traced_wall_samples=traced)
    result_path = os.path.join(OUT, "results", f"{args.workload}_s{args.seed}_t{args.trace}_{stamp}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)

    m = record["machine"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}  {m['cpu_model']}, nproc={m['nproc']}, "
          f"caches={m['caches']}, python {m['python']}, numpy {m['numpy']}, commit {m['commit'][:12]}")
    print(f"# wall_s is the median of {len(walls)} timed jobs, setup_s of {len(setup)} set-ups, both scaled to "
          f"the reference speed; raw medians {statistics.median(walls):.4g} s and {statistics.median(setup):.4g} s, "
          f"calibration loop {statistics.median(runner.calibrations):.4g} s (reference {REFERENCE_S} s)")
    print(f"# {runner.failed} of {runner.attempted} jobs failed; ref_max_dev {runner.ref_dev:.3g}")
    for name, value in record["accuracy"].items():
        print(f"#   {name:<22} {value if isinstance(value, str) else f'{value:.6g}'}")
    for name, entry in metrics.items():
        print(f"{name:<40} {entry['value']:<14.6g} {entry['unit']}")
    print(f"# result: {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
