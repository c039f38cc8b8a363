"""One repetition of one benchmark workload, in a fresh process.

Usage: python3 perfbench/workloads.py WORKLOAD SEED TRACE FIDELITY WORKDIR

Runs the workload inside WORKDIR, checks its outputs and writes
WORKDIR/result.json.  With TRACE 1 every layer boundary listed in
``tracer.LAYER_TARGETS`` records spans; with TRACE 0 only the phase timers
that the end-to-end metrics need are installed.  FIDELITY 1 also computes
the fidelity reference where that costs extra work (``subcycled_cosim``);
the inputs depend only on SEED, so one repetition per run suffices.
``run.py`` starts one of these processes per repetition, so memory and
set-up are per repetition.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import LAYER_TARGETS, PHASE_TARGETS, Tracer, load_dump, self_times

HERE = Path(__file__).resolve().parent

# The worst boundary of the 1000-DOF experiment is 5.4e-4 at seed 0 and
# ranged from 8e-5 to 4e-3 over 15 seeds, as the excitation phases change;
# a broken reduction gives values near 1.
DESK_FIDELITY_LIMIT = 5e-2
# At ss = 1 the full-order partitioned solve equals the monolithic one up to
# round-off (about 1e-24 relative MSE).
CLI_EQUIVALENCE_LIMIT = 1e-12
# Velocity compatibility is enforced exactly at every coupled instant; the
# measured gap is about 2e-15 of the velocity scale.
VELOCITY_GAP_LIMIT = 1e-12

SUBCYCLED = dict(n=200, modes=30, dt=1e-3, duration=5.0, subcycles=10, noise_variance=0.01)

CLI_SIGNAL_SPEC = {"frequencies": [2, 5, 8], "amplitudes": [2, 2, 1], "noise_variance": 0.05}
CLI_SOLVER = {"dt": 1e-3, "duration": 1.0}


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _velocity_gap(pairs, velocity) -> float:
    """Largest signed interface-velocity sum relative to the velocity scale.

    ``pairs`` lists ((sub, dof, sign), (sub, dof, sign)) constraints and
    ``velocity(sub, dof)`` returns the history at the coupled instants.
    """
    import numpy as np

    gap = scale = 0.0
    for (sa, da, ga), (sb, db, gb) in pairs:
        va, vb = velocity(sa, da), velocity(sb, db)
        gap = max(gap, float(np.abs(ga * va + gb * vb).max()))
        scale = max(scale, float(np.abs(va).max()), float(np.abs(vb).max()))
    return gap / scale if scale > 0 else gap


def _csv_column(path):
    """Column accessor ``get(name)`` and data table of a CSV written by dynsub."""
    import numpy as np

    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return lambda name: data[:, header.index(name)], data


def _worst_relative_mse(pairs) -> float:
    from dynsub.metrics import trajectory_mse

    return max(trajectory_mse(a, b)[1] for a, b in pairs)


def desk_experiment(seed, work, tracer, result, fidelity):
    """``run_experiment`` with the default configuration (1000-DOF frame)."""
    import numpy as np

    from dynsub import experiment
    from dynsub.generators import frame_analog

    config = experiment.ExperimentConfig(seed=seed)
    out = work / "experiment"
    tracer.install(LAYER_TARGETS if result["trace"] else PHASE_TARGETS)
    t0 = time.perf_counter()
    report = experiment.run_experiment(config, out)
    result["workflow_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = _peak_rss_mb()
    tracer.uninstall()

    _, total, _ = self_times(tracer.spans)
    offline, online = report["offline_time"], report["online_time"]
    result["setup_s"] = total["generators.frame_analog"] + offline["total"]
    result["online_s"] = total["solver.run"]
    result["reference_s"] = total["monolithic.solve_monolithic"]
    result["online_sim_s"] = result["reference_sim_s"] = config.duration
    result["partitioned_steps"] = result["monolithic_steps"] = round(config.duration / config.dt)
    result["experiment.speedup"] = online["speedup"]
    result["experiment.unaccounted_s"] = result["workflow_s"] - (
        offline["total"] + online["partitioned"] + online["monolithic"]
    )
    result["fidelity_rel_mse"] = max(v["relative_mse"] for v in report["fidelity"].values())

    checks = result["checks"]
    part, part_data = _csv_column(out / "trajectory_partitioned.csv")
    _, mono_data = _csv_column(out / "trajectory_monolithic.csv")
    if not (np.all(np.isfinite(part_data)) and np.all(np.isfinite(mono_data))):
        checks.append("a trajectory holds a non-finite value")
    subs, topology = frame_analog(**config.model)
    frame_boundary = subs["frame"].boundary_dofs
    # the reduced frame keeps its boundary DOFs last, after the modal ones
    reduced_pairs = [
        (("frame", config.modes + frame_boundary.index(da), ga), b)
        for (_, da, ga), b in topology.constraints
    ]
    gap = _velocity_gap(reduced_pairs, lambda sid, dof: part(f"{sid}.v{dof}"))
    if not gap <= VELOCITY_GAP_LIMIT:
        checks.append(f"interface velocity gap {gap:.3e} > {VELOCITY_GAP_LIMIT:.0e}")
    if not result["fidelity_rel_mse"] <= DESK_FIDELITY_LIMIT:
        checks.append(
            f"fidelity relative MSE {result['fidelity_rel_mse']:.3e} > {DESK_FIDELITY_LIMIT:.0e}"
        )


def subcycled_cosim(seed, work, tracer, result, fidelity):
    """Public API path at ss = 10: frame, reduce, PartitionedSolver, CSV."""
    import numpy as np

    from dynsub import generators, io, monolithic, reduction, signals, solver
    from dynsub.experiment import DEFAULT_SINE_AMPLITUDES, DEFAULT_SINE_FREQUENCIES

    p = SUBCYCLED
    ss = p["subcycles"]
    cfg = solver.SolverConfig(dt=p["dt"], duration=p["duration"], subcycles=ss)
    n_fine = cfg.n_steps * ss + 1
    tracer.install(LAYER_TARGETS if result["trace"] else PHASE_TARGETS)
    t0 = time.perf_counter()
    with tracer.span("bench.setup"):
        subs, topology = generators.frame_analog(n=p["n"])
        frame, susp = subs["frame"], subs["suspension"]
        red = reduction.reduce(frame, p["modes"])
        topology_r = reduction.reduced_topology(topology, "frame", red)
        system = solver.CoupledSystem(
            substructures={"frame": red.as_substructure(), "suspension": susp},
            topology=topology_r,
            physical=("suspension",),
        )
        partitioned = solver.PartitionedSolver(system, cfg)
    channels = signals.multisine_with_noise_channels(
        susp.n_elements, n_fine, ss / cfg.dt, DEFAULT_SINE_FREQUENCIES,
        DEFAULT_SINE_AMPLITUDES, p["noise_variance"], seed=seed,
    )
    forces = np.zeros((n_fine, susp.n_dofs))
    forces[:, list(susp.internal_dofs)] = channels
    traj = partitioned.run({"suspension": forces})
    io.save_trajectory_csv(work / "trajectory.csv", traj, system)
    result["workflow_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = _peak_rss_mb()
    tracer.uninstall()

    _, total, _ = self_times(tracer.spans)
    result["setup_s"] = total["bench.setup"]
    result["online_s"] = total["solver.run"]
    result["online_sim_s"] = cfg.duration
    result["partitioned_steps"] = cfg.n_steps
    result["monolithic_steps"] = 0  # the reference below is not part of the workload

    gap = _velocity_gap(topology_r.constraints, traj.velocity)
    if not gap <= VELOCITY_GAP_LIMIT:
        result["checks"].append(f"interface velocity gap {gap:.3e} > {VELOCITY_GAP_LIMIT:.0e}")

    if not fidelity:
        return
    # Reference: the same reduced system, monolithic, at the inner step dt/ss.
    # It measures coupling and sub-cycling error.
    fine_cfg = solver.SolverConfig(dt=cfg.dt / ss, duration=cfg.duration)
    asys = monolithic.assemble_global(system.substructures, topology_r)
    reference = monolithic.solve_monolithic(asys, fine_cfg, {"suspension": forces})
    result["fidelity_rel_mse"] = _worst_relative_mse(
        (traj.displacement("frame", dof), reference.displacement("frame", dof)[::ss])
        for (_, dof, _), _ in topology_r.constraints
    )


def _cli_commands(seed):
    simulate = ["simulate", "--model", "model.json", "--config", "solver.json",
                "--inputs", "signals.csv"]
    return (
        ("generate-model", ["generate-model", "--kind", "frame_analog", "--out", "model.json"]),
        ("generate-signal", ["generate-signal", "--kind", "multisine",
                             "--spec", json.dumps(CLI_SIGNAL_SPEC), "--samples", "1001",
                             "--rate", "1000", "--channels", "4", "--seed", str(seed),
                             "--out", "signals.csv"]),
        ("reduce", ["reduce", "--model", "model.json", "--modes", "30",
                    "--out", "reduction.npz", "--report", "freqs.csv"]),
        ("simulate", simulate + ["--out", "traj_partitioned.csv"]),
        ("simulate-monolithic", simulate + ["--out", "traj_monolithic.csv", "--monolithic"]),
        ("compare", ["compare", "traj", "--full", "traj_monolithic.csv",
                     "--reduced", "traj_partitioned.csv", "--out", "mse.csv"]),
        ("simulate-ss10", simulate + ["--out", "traj_ss10.csv", "--subcycles", "10"]),
    )


def cli_pipeline(seed, work, tracer, result, fidelity):
    """The README quick start, one ``dynsub`` process per command (200 DOFs)."""
    (work / "solver.json").write_text(json.dumps(CLI_SOLVER))
    walls = {}
    spans_files = []
    checks = result["checks"]
    for name, args in _cli_commands(seed):
        spans_path = work / f"spans-{name}.json"
        cmd = [sys.executable, str(HERE / "cli_shim.py"), str(result["trace"]), str(spans_path), *args]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=work, capture_output=True, text=True)
        walls[name] = time.perf_counter() - t0
        if proc.returncode != 0:
            checks.append(f"{name} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return
        spans_files.append(spans_path)
    result["workflow_s"] = sum(walls.values())
    result["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    result["setup_s"] = walls["generate-model"] + walls["reduce"]
    result["cli_walls"] = walls
    result["spans_files"] = [str(p) for p in spans_files]

    totals = {}
    for path in spans_files:
        _, total, _ = self_times(load_dump(path)[0])
        for key, value in total.items():
            totals[key] = totals.get(key, 0.0) + value
    duration = CLI_SOLVER["duration"]
    steps = round(duration / CLI_SOLVER["dt"])
    result["online_s"] = totals["solver.run"]  # the two partitioned commands
    result["online_sim_s"] = 2 * duration
    result["reference_s"] = totals["monolithic.solve_monolithic"]
    result["reference_sim_s"] = duration
    result["partitioned_steps"] = 2 * steps
    result["monolithic_steps"] = steps

    with open(work / "mse.csv") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    worst = max(float(r[2]) for r in rows)
    if not worst <= CLI_EQUIVALENCE_LIMIT:
        checks.append(f"compare traj worst relative MSE {worst:.3e} > {CLI_EQUIVALENCE_LIMIT:.0e}")


WORKLOADS = {f.__name__: f for f in (desk_experiment, subcycled_cosim, cli_pipeline)}


def _layer_metrics(result, spans_lists, counters) -> dict:
    """Per-layer self times, call counts and rates from this repetition's spans."""
    own, total, calls = {}, {}, {}
    for spans in spans_lists:
        o, t, c = self_times(spans)
        for acc, part in ((own, o), (total, t), (calls, c)):
            for key, value in part.items():
                acc[key] = acc.get(key, 0) + value
    # the two outermost spans are reported as self_s, the rest as <name>.s
    outer = ("solver.run", "experiment.run_experiment")
    names = dict.fromkeys(name for _, _, name in LAYER_TARGETS if name not in outer)
    out = {f"{name}.s": own.get(name, 0.0) for name in names}
    for name in ("solver.free_step", "solver.effective_solve", "coupling.coupling_step",
                 "coupling.interface_solve"):
        out[f"{name}.calls"] = calls.get(name, 0)
    out["solver.run.self_s"] = own.get("solver.run", 0.0)
    p_steps, m_steps = result["partitioned_steps"], result["monolithic_steps"]
    out["solver.step_us"] = 1e6 * total.get("solver.run", 0.0) / p_steps
    out["monolithic.step_us"] = (
        1e6 * total.get("monolithic.solve_monolithic", 0.0) / m_steps if m_steps else 0.0
    )
    out["io.bytes_written"] = counters.get("io.bytes_written", 0)
    out["experiment.run_experiment.self_s"] = own.get("experiment.run_experiment", 0.0)
    out["experiment.unaccounted_s"] = result.get("experiment.unaccounted_s", 0.0)
    out["experiment.speedup"] = result.get("experiment.speedup", 0.0)
    out["cli.import_s"] = total.get("cli.import", 0.0)
    for name, _ in _cli_commands(0):
        out[f"cli.{name}.s"] = result.get("cli_walls", {}).get(name, 0.0)
    return out


def _environment() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
                break
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main(argv) -> int:
    workload, work = argv[0], Path(argv[4])
    seed, trace, fidelity = (int(a) for a in argv[1:4])
    result = {"workload": workload, "seed": seed, "trace": trace, "checks": []}
    tracer = Tracer()
    try:
        WORKLOADS[workload](seed, work, tracer, result, fidelity)
    except Exception as exc:  # any failure of the program fails this repetition
        result["checks"].append(f"{type(exc).__name__}: {exc}")
        result["traceback"] = traceback.format_exc()[-2000:]
    finally:
        tracer.uninstall()
    result["ok"] = not result["checks"]
    if result["ok"]:
        # the CLI commands ran in their own processes and wrote their spans
        dumps = [load_dump(path) for path in result.get("spans_files", ())]
        counters = dict(tracer.counters)
        for _, extra in dumps:
            for key, value in extra.items():
                counters[key] = counters.get(key, 0) + value
        spans_lists = [tracer.spans] + [spans for spans, _ in dumps]
        result["layers"] = _layer_metrics(result, spans_lists, counters)
        result["environment"] = _environment()
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
