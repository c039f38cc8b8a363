"""dynsub benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a dynsub checkout:

    python3 perfbench/run.py --workload desk_experiment --seed 1 --seconds 35 --trace 0

Each repetition runs in a fresh child process (``workloads.py``), so memory
and set-up are measured per repetition.  One warm-up repetition runs first
and is discarded (see README.md).  Repetitions then run for ``--seconds``; a
repetition that raises, diverges or fails its output check counts as failed.
With ``--trace 0`` the last line holds the medians of the gated end-to-end
metrics; with ``--trace 1`` traced and untraced repetitions alternate, and the
last line holds the medians of the per-layer metrics and the tracing
overhead.  The lines before it print every end-to-end metric with its
quartiles and sample count, then a ``report`` line with the failures and the
environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("desk_experiment", "subcycled_cosim", "cli_pipeline")

# Gated end-to-end metrics, present on every workload: (name, unit, key).
GATED = (
    ("workflow_s", "s", "workflow_s"),
    ("setup_s", "s", "setup_s"),
    ("peak_rss_mb", "MB", "peak_rss_mb"),
)
# Reported where they apply, not gated (README.md says why): (name, unit,
# value of one repetition or None where the metric does not apply).
REPORTED = (
    ("online_rtf", "s/s", lambda r: r["online_s"] / r["online_sim_s"]),
    ("reference_rtf", "s/s",
     lambda r: r["reference_s"] / r["reference_sim_s"] if "reference_s" in r else None),
    ("fidelity_rel_mse", "1", lambda r: r.get("fidelity_rel_mse")),
    ("experiment.speedup", "1", lambda r: r.get("experiment.speedup")),
    ("experiment.unaccounted_s", "s", lambda r: r.get("experiment.unaccounted_s")),
)
LAYER_UNITS = {"calls": "count", "step_us": "us", "bytes_written": "bytes", "speedup": "1"}

# The run, warm-up included, must end within 180 s even when a repetition hangs.
RUN_LIMIT_S = 170.0

# Serial BLAS: the step loops work on blocks far too small to gain from
# threads, and on a shared two-core host a second BLAS thread only adds
# contention and run-to-run spread.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _run_repetition(argv, rep_dir, env, deadline) -> dict:
    rep_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "workloads.py"), *argv, str(rep_dir)]
    proc = subprocess.Popen(cmd, env=env, cwd=rep_dir, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"ok": False, "checks": ["repetition did not finish before the run's time limit"]}
    try:
        result = json.loads((rep_dir / "result.json").read_text())
    except (OSError, ValueError):
        result = {"ok": False, "checks": [f"worker exited {proc.returncode}: {err.strip()[-500:]}"]}
    shutil.rmtree(rep_dir, ignore_errors=True)
    return result


def _quartiles(values, unit) -> dict:
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "unit": unit, "values": values}


def _environment(rep_env) -> dict:
    nproc = len(os.sched_getaffinity(0))
    threads = rep_env.get("blas_threads")
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "DYNSUB_THREADS": "unset",
        **CHILD_ENV,
        **rep_env,
        "blas_threads_within_nproc": threads is not None and threads <= nproc,
    }


def _layer_unit(key) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if key.endswith(suffix):
            return unit
    return "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dynsub" / "__init__.py").is_file():
        print(f"error: {root} is not a dynsub checkout (no src/dynsub)", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    if "DYNSUB_THREADS" in os.environ:
        print("error: unset DYNSUB_THREADS; the benchmark measures the default serial path",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(work / "tmp")

    def repetition(k, trace, fidelity=0):
        argv = [args.workload, str(args.seed), str(trace), str(fidelity)]
        return _run_repetition(argv, work / f"rep{k}", env, deadline)

    try:
        # Warm-up, discarded: the first process after a checkout pays for
        # cold page-cache reads (see README.md).
        t0 = time.monotonic()
        warmup = repetition(0, 0)
        longest = time.monotonic() - t0
        reps = []
        timed_start = time.monotonic()
        # A repetition starts only if it should end within --seconds, so a
        # run lasts about --seconds plus the warm-up.  Trace mode needs at
        # least one traced and one untraced repetition.
        while time.monotonic() + longest < deadline:
            trace = int(args.trace and len(reps) % 2 == 1)
            t0 = time.monotonic()
            reps.append(repetition(len(reps) + 1, trace, fidelity=int(not reps)))
            reps[-1]["traced"] = bool(trace)
            longest = max(longest, time.monotonic() - t0)
            ends_late = time.monotonic() + longest - timed_start > args.seconds
            if ends_late and len(reps) >= 1 + args.trace:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".perfbench_work").rmdir()
        except OSError:
            pass

    failed = [r for r in reps if not r["ok"]]
    for r in failed:
        print(f"failed repetition: {'; '.join(r['checks'])}\n{r.get('traceback', '')}",
              file=sys.stderr)
    untraced = [r for r in reps if r["ok"] and not r["traced"]]
    traced = [r for r in reps if r["ok"] and r["traced"]]
    # Repetitions alternate untraced, traced; the tracing overhead is taken
    # within adjacent pairs, which cancels the host's slow drift in speed.
    pairs = [(a, b) for a, b in zip(reps[::2], reps[1::2]) if a["ok"] and b["ok"]]
    if not untraced or (args.trace and not pairs):
        print("error: no repetition (in trace mode, no untraced/traced pair) succeeded",
              file=sys.stderr)
        return 1

    summary = {name: _quartiles([r[key] for r in untraced], unit) for name, unit, key in GATED}
    for name, unit, value in REPORTED:
        values = [v for v in map(value, untraced) if v is not None]
        if values:
            summary[name] = _quartiles(values, unit)
    summary["failed_frac"] = _quartiles([len(failed) / len(reps)], "1")
    summary["failed_frac"]["n"] = len(reps)
    for name, m in summary.items():
        print(f"{args.workload} {name} {m['median']:.6g} {m['unit']} "
              f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "warmup_ok": warmup["ok"],
        "environment": _environment(untraced[0]["environment"]),
        "failures": [r["checks"] for r in failed],
        "end_to_end": summary,
    }
    if args.trace:
        layers = {key: statistics.median(r["layers"][key] for r in traced)
                  for key in traced[0]["layers"]}
        layers["tracing.overhead_s"] = statistics.median(
            b["workflow_s"] - a["workflow_s"] for a, b in pairs
        )
        metrics = {key: {"value": value, "unit": _layer_unit(key)} for key, value in layers.items()}
        report["per_layer"] = metrics
        for key, m in metrics.items():
            print(f"{args.workload} {key} {m['value']:.6g} {m['unit']} (n={len(traced)})")
    else:
        metrics = {name: {"value": summary[name]["median"], "unit": unit}
                   for name, unit, _ in GATED}
    print("report " + json.dumps(report))
    print(json.dumps({"correct": not failed, "attempted": len(reps), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
