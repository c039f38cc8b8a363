"""Command-line driver.

Subcommands: generate-model, generate-signal, reduce, simulate, compare,
run-experiment.  Configuration is JSON, matrices travel as JSON or npz, and
trajectories/signals as CSV.  A nonzero exit code (2) signals a divergence
abort, with the failing step index on standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import io as dio
from .coupling import CouplingError, CouplingTopology, _stores_csr
from .experiment import ExperimentConfig, run_experiment
from .generators import chain_substructure, frame_analog, wheel_inputs
from .metrics import MetricsError, frequency_error_table, mac, trajectory_mse
from .models import LinearSubstructure, ModelError, build_from_fields
from .monolithic import assemble_global, solve_monolithic
from .reduction import ReductionError, expanded_mode_shapes, full_frequencies, reduce as cb_reduce, reduced_frequencies
from .signals import SignalError, SignalSpec, generate_signal, multisine_with_noise_channels
from .solver import CoupledSystem, DivergenceError, SolverConfig, SolverError, simulate


def _json_object(text: str | None, what: str) -> dict:
    doc = json.loads(text) if text else {}
    if not isinstance(doc, dict):
        raise ModelError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _cmd_generate_model(args) -> int:
    params = _json_object(args.params, "--params")
    if args.kind == "chain":
        sub = build_from_fields(chain_substructure, {"n": 3, **params}, "chain parameters")
        system = CoupledSystem(substructures={"chain": sub}, topology=CouplingTopology(()))
    elif args.kind == "frame_analog":
        subs, topology = build_from_fields(frame_analog, params, "frame_analog parameters")
        system = CoupledSystem(substructures=subs, topology=topology, physical=("suspension",),
                               input_map=wheel_inputs(subs["suspension"]))
    else:
        raise ModelError(f"unknown model kind {args.kind!r}")
    dio.save_system(args.out, system)
    print(f"wrote {args.out}")
    return 0


def _cmd_generate_signal(args) -> int:
    if args.channels < 1:
        raise SignalError(f"option '--channels' must be a positive integer, got {args.channels}")
    spec_kwargs = _json_object(args.spec, "--spec")
    options = {"kind": ("--kind", args.kind), "sample_rate": ("--rate", args.rate), "seed": ("--seed", args.seed)}
    for key, (option, value) in options.items():
        if key in spec_kwargs:
            raise SignalError(f"field {key!r} of '--spec' is set by option {option!r}")
        spec_kwargs[key] = value
    spec = build_from_fields(SignalSpec, spec_kwargs, "signal spec")
    if spec.kind == "multisine":
        # one shared sine content, independent noise per channel
        channels = multisine_with_noise_channels(
            args.channels, args.samples, spec.sample_rate, spec.frequencies, spec.amplitudes,
            spec.noise_variance, seed=spec.seed, phases=spec.phases,
        )
    else:
        # channel ch draws from seed + ch
        channels = np.column_stack([
            generate_signal(dataclasses.replace(spec, seed=spec.seed + ch), args.samples)
            for ch in range(args.channels)
        ])
    times = np.arange(args.samples) / args.rate
    dio.save_signals_csv(args.out, times, channels)
    print(f"wrote {args.out} ({args.channels} channel(s), {args.samples} samples)")
    return 0


def _cmd_reduce(args) -> int:
    if args.report_modes < 1:
        raise ModelError(f"option '--report-modes' must be a positive integer, got {args.report_modes}")
    system = dio.load_system(args.model)
    linear = [sid for sid, s in system.substructures.items() if isinstance(s, LinearSubstructure)]
    sid = args.sub
    if sid is None:
        if len(linear) != 1:
            raise ModelError(f"specify --sub; system has linear substructures {linear}")
        sid = linear[0]
    elif sid not in linear:
        raise ModelError(f"option '--sub' must name a linear substructure of {linear}, got {sid!r}")
    sub = system.substructures[sid]
    red = cb_reduce(sub, args.modes)
    dio.save_reduction(args.out, red)
    print(f"wrote {args.out}: {sub.n_dofs} -> {red.n_reduced} DOFs "
          f"({red.n_modes} modes + {red.n_boundary} boundary)")
    if red.truncation_frequency is not None:
        print(f"first discarded fixed-interface mode: "
              f"{red.truncation_frequency / (2 * np.pi):.2f} Hz")
    if red.cut_splits_cluster:
        print(f"last retained fixed-interface mode: {red.retained_frequencies[-1] / (2 * np.pi):.2f} Hz, "
              f"equal to the first discarded one: the cut splits a repeated frequency and keeps the modes "
              f"nearest internal DOF 0")
    if args.report:
        n = min(args.report_modes, red.n_reduced)
        table = frequency_error_table(
            full_frequencies(sub, n), reduced_frequencies(red, n), n
        )
        columns = (np.arange(1, n + 1), table.full, table.reduced, table.relative_errors)
        dio._write_csv(args.report, ("mode", "full_rad_s", "reduced_rad_s", "relative_error"),
                       [(column[:, None], None) for column in columns])
        print(f"wrote {args.report} (NMSE {table.nmse:.3e})")
    return 0


def _check_time_column(path, times: np.ndarray, config: SolverConfig) -> None:
    """Refuse a signals CSV whose ``time`` column does not step uniformly across the run.

    Only a row count the solver accepts is checked (one row per coupled or
    per inner instant, see :func:`dynsub.solver._input_table`; the solver
    refuses any other, with its own message): the rows must then step by
    ``duration / (rows - 1)``, ``dt`` or ``dt/ss``, within 1e-6 s.
    """
    if len(times) in (config.n_steps + 1, config.n_steps * config.subcycles + 1):
        step, gaps = config.duration / (len(times) - 1), np.diff(times)
        if (off := ~(np.abs(gaps - step) <= 1e-6)).any():  # a nan is off too
            row = int(np.argmax(off)) + 1
            raise ModelError(f"signals CSV {path}: column 'time' must step by {step:g} s, the duration over "
                             f"{len(gaps)} steps, but row {row} is {gaps[row - 1]:g} s after row {row - 1}")


def _cmd_simulate(args) -> int:
    system = dio.load_system(args.model)
    cfg_doc = _json_object(Path(args.config).read_text(), f"solver config {args.config}")
    if args.subcycles is not None:
        cfg_doc["subcycles"] = args.subcycles
    config = build_from_fields(SolverConfig, cfg_doc, f"solver config {args.config}")
    inputs = None
    if args.inputs:
        times, channels = dio.load_signals_csv(args.inputs)
        _check_time_column(args.inputs, times, config)
        if not (inputs := dio.input_tables(system, channels)):
            raise ModelError(f"signals CSV {args.inputs} drives nothing: field 'inputs' of system file "
                             f"{args.model} routes no channel to a DOF")
    dofs = dio._exported_dofs(system, args.all_dofs)  # record only the DOFs the CSV holds
    if args.monolithic:
        # CSR if a member is, the storage rule of the partitioned solver's step groups
        asys = assemble_global(system.substructures, system.topology, sparse=_stores_csr(system.substructures))
        traj = solve_monolithic(asys, config, inputs, dofs=dofs)
    else:
        traj = simulate(system, config, inputs, dofs=dofs)
    dio.save_trajectory_csv(args.out, traj, system, all_dofs=args.all_dofs)
    print(f"wrote {args.out} ({traj.n_steps} steps)")
    return 0


def _load_modes(path) -> np.ndarray:
    path = Path(path)
    if path.suffix == ".npz":
        red = dio.load_reduction(path)
        try:  # a mass that keeps the substructure rules may still fail the eigensolver's pivot rule
            return expanded_mode_shapes(red, min(10, red.n_reduced))
        except ReductionError as exc:
            raise ReductionError(f"reduction file {str(path)!r}: reduced matrices: {exc}") from None
    _, data = dio.load_csv_columns(path)
    return data


def _cmd_compare(args) -> int:
    if args.what == "mac":
        full = _load_modes(args.full)
        reduced = _load_modes(args.reduced)
        if full.shape[0] != reduced.shape[0]:
            raise MetricsError(f"options '--full' and '--reduced' hold mode shapes of "
                               f"{full.shape[0]} and {reduced.shape[0]} DOFs")
        n = min(full.shape[1], reduced.shape[1])
        result = mac(reduced[:, :n], full[:, :n], names=("option '--reduced'", "option '--full'"))
        dio._write_csv(args.out, (), [(result.values, None)])
        print(f"wrote {args.out}; diagonal min {result.diagonal.min():.6f}, "
              f"off-diagonal max {result.max_off_diagonal():.3e}")
    else:  # traj
        header_a, data_a = dio.load_csv_columns(args.full)
        header_b, data_b = dio.load_csv_columns(args.reduced)
        shared = [h for h in header_a if h in header_b and h != "time"]
        if not shared:
            raise MetricsError(f"options '--full' and '--reduced' share no channel: "
                               f"{args.full} and {args.reduced} have no common column besides 'time'")
        rows, relative = [], []
        for name in shared:
            a = data_a[:, header_a.index(name)]
            b = data_b[:, header_b.index(name)]
            if len(a) != len(b):
                raise ModelError(f"column {name} lengths differ: {len(a)} vs {len(b)}")
            mse, rel = trajectory_mse(b, a)
            rows.append(f"{name},{mse:.17g},{rel:.17g}")
            relative.append(rel)
        Path(args.out).write_text("channel,mse,relative_mse\n" + "\n".join(rows) + "\n")
        print(f"wrote {args.out} ({len(shared)} shared channels, worst relative MSE {max(relative):.3e})")
    return 0


def _cmd_run_experiment(args) -> int:
    config = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    report = run_experiment(config, args.out_dir)
    if report["model"]["cut_inside_band"]:
        print("warning: the reduction discards a mode at {first_discarded_frequency_hz:.3g} Hz, inside the excitation "
              "band up to {excitation_max_hz:.3g} Hz".format(**report["model"]), file=sys.stderr)
    offline = report["offline_time"]["total"]
    online = report["online_time"]["partitioned"]
    print(f"offline {offline:.3f} s, online partitioned {online:.3f} s", end="")
    if "monolithic" in report["online_time"]:
        print(f", online monolithic {report['online_time']['monolithic']:.3f} s "
              f"(speedup {report['online_time']['speedup']:.1f}x)")
    else:
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynsub",
        description="Craig-Bampton reduction and partitioned co-simulation of coupled substructures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-model", help="write a system file")
    p.add_argument("--kind", choices=("chain", "frame_analog"), required=True)
    p.add_argument("--params", help="JSON object of generator parameters")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate_model)

    p = sub.add_parser("generate-signal", help="write excitation channels as CSV")
    p.add_argument("--kind", choices=("multisine", "bandlimited_noise"), default="bandlimited_noise")
    p.add_argument("--spec", help="JSON object of SignalSpec fields")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--rate", type=float, default=1000.0)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate_signal)

    p = sub.add_parser("reduce", help="Craig-Bampton reduction of a linear substructure")
    p.add_argument("--model", required=True)
    p.add_argument("--sub", help="substructure id (default: the only linear one)")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write a frequency-comparison CSV here")
    p.add_argument("--report-modes", type=int, default=20)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("simulate", help="co-simulate a system file")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True, help="JSON SolverConfig")
    p.add_argument("--inputs", help="signals CSV routed via the system input map")
    p.add_argument("--out", required=True)
    p.add_argument("--subcycles", type=int)
    p.add_argument("--monolithic", action="store_true", help="primal-assembled reference solve")
    p.add_argument("--all-dofs", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="MAC / trajectory comparisons")
    p.add_argument("what", choices=("mac", "traj"))
    p.add_argument("--full", required=True)
    p.add_argument("--reduced", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("run-experiment", help="full generate/reduce/simulate/compare workflow")
    p.add_argument("--config", help="JSON ExperimentConfig (defaults used if omitted)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_run_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ModelError, CouplingError, SolverError, SignalError, MetricsError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
