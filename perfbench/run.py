"""Run one workload of the qutrit_invariants benchmark and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads: verify, invariants, rank, counts (see NOTES.md); ``all`` runs
the four in turn, each in its own process.  Each run, from the root of a
checkout:

1. measures set-up time: a fresh interpreter that imports the package from
   ``src/`` and makes one warm-up call of the workload's flow, several
   times;
2. makes the workload's inputs from ``--seed`` and warms up in-process;
3. runs passes over the inputs, one client in a closed loop, until the next
   pass would end after ``--seconds``, and checks every output.

With ``--trace 1`` every untraced pass is followed by the same pass with
layer spans recorded, and the per-layer metrics are printed instead of the
end-to-end ones.  Earlier lines of standard output give provenance and the
workload's named metrics with units; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results (and
the spans of a traced run) are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKLOADS = ["verify", "invariants", "rank", "counts"]
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60
MIN_PASSES = 3         # untraced run
MIN_TRACED_PASSES = 2  # traced run: pairs of untraced and traced passes

# Per-layer metrics of the traced run.  Spans are named module.function.
CALLS_AND_SELF = [
    "states.to_coords", "states.random_state",
    "lu_invariants.low_degree_blocks", "lu_invariants.quartic_blocks",
    "lsl_qutrit.cubic_invariant", "lsl_qutrit.sextic_invariant",
    "monotones.sample_measurement", "monotones.apply_measurement",
    "qubit.q_invariants", "numdiff.poly_jacobian",
    "symfunc.plethysm", "symfunc.plethysm_series",
    "symfunc.product_power_plethysm", "symfunc.sun_modify",
]
SELF_ONLY = [
    "states.load_state", "states.physicality",
    "lu_invariants.independence_test", "lsl_qutrit.cubic_expansion_residual",
    "monotones.scalar_inequality_scan", "qubit.expansion_residuals",
    "qubit.dependence_jacobian_rank", "numdiff.numerical_rank",
    "counting.count_lsl", "counting.count_graded_quartics",
    "counting.count_lu_mixed", "cli.main",
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--probe", metavar="DIR",
                   help="set-up probe: import, one warm-up call in DIR, exit")
    return p.parse_args(argv)


def run_all(args):
    """Each workload in its own process, so none inherits another's state."""
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        rc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                             "--workload", name, "--seed", str(args.seed),
                             "--seconds", str(args.seconds),
                             "--trace", str(args.trace)]).returncode
        worst = max(worst, rc)
    return worst


def measure_setup(name, seed, workdir, calibrator):
    """Wall time of fresh set-up probes, each after a calibration sample.
    The probe is reaped with a blocking wait, because ``wait(timeout)``
    polls in steps of up to 50 ms; a timer kills a probe that hangs."""
    samples = []
    for k in range(SETUP_REPEATS):
        calibrator.sample()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--probe", str(workdir / f"probe{k}")]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            rc = proc.wait()
        finally:
            timer.cancel()
        samples.append(time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"set-up probe of {name} exited with code {rc}")
    return samples


def timed_pass(wl, index, memo_info, calibrator=None):
    """One pass.  With a calibrator, the machine is sampled at the start of
    the pass and between its calls, and the pass records the mean kernel
    time."""
    if hasattr(wl, "reset"):
        wl.reset()
    before = memo_info()
    if calibrator is not None:
        first = len(calibrator.samples)
        calibrator.sample()
        wl.calibrator = calibrator
    t0 = time.perf_counter()
    try:
        result = wl.run_pass(index)
    finally:
        wl.calibrator = None
    result.wall = time.perf_counter() - t0
    if calibrator is not None:
        result.kernel_s = statistics.mean(calibrator.samples[first:])
    after = memo_info()
    result.memo = {k: {"entries": v["entries"],
                       "hits": v["hits"] - before[k]["hits"],
                       "misses": v["misses"] - before[k]["misses"]}
                   for k, v in after.items()}
    return result


def measure(wl, seconds, tracer, memo_info, calibrator):
    """Closed loop: passes back to back until the next one would end after
    the deadline.  A traced run pairs each untraced pass with the same pass
    traced, whose outputs must be byte-identical; only untraced passes are
    calibrated."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    minimum = MIN_TRACED_PASSES if tracer else MIN_PASSES
    index = 0
    while True:
        t0 = time.perf_counter()
        untraced.append(timed_pass(wl, index, memo_info, calibrator))
        if tracer is not None:
            with tracer.installed():
                traced.append(timed_pass(wl, index, memo_info))
            for plain, spanned in zip(untraced[-1].calls, traced[-1].calls):
                if plain.output and spanned.output and plain.output != spanned.output:
                    spanned.fail("traced output differs from untraced", wrong=True)
        index += 1
        now = time.perf_counter()
        if index >= minimum and now + (now - t0) > deadline:
            return untraced, traced


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha(root):
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def provenance(args, program, np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    digest = hashlib.sha256()
    for path in sorted(program.PACKAGE_DIR.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": program.BLAS_THREADS},
        "package_version": program.qutrit_invariants.__version__,
        "git_sha": _git_sha(program.ROOT),
        "source_sha256": digest.hexdigest(),
        "seed": args.seed,
        "workers": [1, 2] if args.workload == "verify" else [1],
        "seconds": args.seconds,
        "trace": args.trace,
    }


def layer_metrics(wl, spans, tracer, untraced, traced):
    n = len(traced)
    wall = sum(p.wall for p in traced)
    totals = spans.layer_totals(tracer.spans)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name in CALLS_AND_SELF + SELF_ONLY:
        calls, self_s = totals.get(name, (0, 0.0))
        if name in CALLS_AND_SELF:
            put(f"{name}.calls", calls / n, "count")
        put(f"{name}.self_pct", 100.0 * self_s / wall, "%")

    def memo(table, key):
        return sum(p.memo[table][key] for p in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    bst = "tensors.build_structure_tensors"
    put(f"{bst}.calls", (memo(bst, "hits") + memo(bst, "misses")) / n, "count")
    put(f"{bst}.hit_ratio", ratio(memo(bst, "hits"), memo(bst, "hits") + memo(bst, "misses")),
        "ratio")
    for table in (t for t in traced[-1].memo if t.startswith("symfunc.")):
        put(f"{table}.entries", traced[-1].memo[table]["entries"], "count")
        put(f"{table}.hit_ratio",
            ratio(memo(table, "hits"), memo(table, "hits") + memo(table, "misses")), "ratio")

    attempted = sum(p.info.get("monotone_trials", 0) for p in traced)
    skipped = sum(p.info.get("monotone_skipped", 0) for p in traced)
    put("monotones.trials_attempted", attempted / n, "count")
    put("monotones.trials_skipped", skipped / n, "count")
    put("monotones.useful_ratio", ratio(attempted - skipped, attempted), "ratio")

    pool_s = 0.0
    for p in traced:
        for c in p.calls:
            if c.label == "monotone_c3_w2":
                pool_s += sum(s[spans.END] - s[spans.START] for s in tracer.spans
                              if s[spans.NAME] == "monotones.run_trials"
                              and c.started <= s[spans.START] <= c.started + c.seconds)
    put("monotones.run_trials.pool_pct", 100.0 * pool_s / wall, "%")
    scaling = []
    for p in untraced:
        rate = {c.label: c.ops / c.seconds for c in p.calls}
        if "monotone_c3" in rate and "monotone_c3_w2" in rate:
            scaling.append(rate["monotone_c3_w2"] / (2 * rate["monotone_c3"]))
    put("monotones.w2_scaling", statistics.median(scaling) if scaling else 0.0, "ratio")

    put("numdiff.stencil_evals", spans.children_of(tracer.spans, "numdiff.poly_jacobian") / n,
        "count")
    sizes = [len(c.output) for p in untraced for c in p.calls if c.output]
    put("cli.report_bytes", statistics.mean(sizes) if wl.via_cli and sizes else 0.0, "bytes")
    put("trace.coverage", 100.0 * spans.top_level_seconds(tracer.spans) / wall, "%")
    # timed calls only: untraced passes also hold calibration samples
    put("trace.overhead",
        statistics.median(t.seconds - u.seconds for u, t in zip(untraced, traced)), "s")
    return m


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import program  # first: it pins the BLAS threads before numpy loads
        import numpy as np
        import calibrate
        import spans
        import workloads
    except ImportError as e:
        print(f"error: cannot load the program under test: {e}", file=sys.stderr)
        return 2
    if args.probe:
        workloads.warmup(args.workload, Path(args.probe))
        return 0

    workdir = program.ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    calibrator = calibrate.Calibrator()
    try:
        setup = measure_setup(args.workload, args.seed, workdir, calibrator)
        setup_kernel = list(calibrator.samples)
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workloads.warmup(args.workload, workdir / "warmup")
        tracer = spans.Tracer(program.qutrit_invariants) if args.trace else None
        untraced, traced = measure(wl, args.seconds, tracer, workloads.memo_info,
                                   calibrator)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(c.ops for p in passes for c in p.calls)
    failed = sum(c.failed for p in passes for c in p.calls)
    wrong = sum(c.wrong for p in passes for c in p.calls)
    # the named metrics are raw wall times; the times of the result line
    # are scaled to the reference machine speed
    named = {"setup_s_raw": (statistics.median(setup), "s"),
             **wl.summary(untraced),
             "pass_s_raw": (statistics.median(p.seconds for p in untraced), "s"),
             "kernel_ms": (1e3 * statistics.median(calibrator.samples), "ms"),
             "failed_fraction": (failed / attempted, "ratio")}
    if args.trace:
        metrics = layer_metrics(wl, spans, tracer, untraced, traced)
    else:
        setup_s = statistics.median(calibrate.at_reference_speed(s, k)
                                    for s, k in zip(setup, setup_kernel))
        pass_s = statistics.median(calibrate.at_reference_speed(p.seconds, p.kernel_s)
                                   for p in untraced)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "pass_s": {"value": pass_s, "unit": "s"},
                   "peak_rss_mb": {"value": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}}
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    prov = provenance(args, program, np)
    outdir = program.ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    failures = sorted({f"{c.label}: {c.note}" for p in passes for c in p.calls if c.failed})
    details = {"provenance": prov, "result": result,
               "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
               "setup_samples_s": setup,
               "setup_kernel_s": setup_kernel,
               "pass_s": [p.seconds for p in untraced],
               "pass_kernel_s": [p.kernel_s for p in untraced],
               "traced_pass_s": [p.seconds for p in traced],
               "memo_after_each_pass": [p.memo for p in untraced],
               "failures": failures}
    (outdir / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if tracer is not None:
        tracer.write(outdir / f"{stem}.spans.jsonl")

    print("provenance " + json.dumps(prov, sort_keys=True))
    for note in failures:
        print(f"failure {note}")
    for k, (v, unit) in named.items():
        print(f"{args.workload:<11} {k:<44} {v:>14.6g} {unit}")
    for k, m in metrics.items():
        print(f"{args.workload:<11} {k:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:<11} {'passes':<44} {len(untraced):>14d} "
          f"{'(+ as many traced)' if traced else ''}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
