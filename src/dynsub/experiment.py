"""End-to-end experiment driver: generate, reduce, simulate, compare, time.

Reproduces the desk-scale workflow: build the frame analog and suspensions,
reduce the frame, co-simulate the reduced system, optionally run the
monolithic full-order reference, and write trajectories plus a timing and
fidelity report.  Both solvers step by the trapezoidal rule, which the
config does not choose: it sets only ``dt``, ``duration`` and
``subcycles``.  Offline cost (reduction, tangent and interface
factorizations) is accounted separately from online stepping cost.  The
reference is the sparse assembly (``monolithic_sparse``: CSR matrices and
one SuperLU factorization of ``S``), the fair full-order baseline for the
banded frame, so ``online_time.speedup`` compares against it.  Each
solver records only the DOFs its trajectory CSV holds (``dofs=`` of
:func:`dynsub.io._exported_dofs`): the frame's boundary DOFs, which the
fidelity check reads too, and every suspension DOF.  So the run holds no
record of every frame DOF, which is 16 MB on the default 1000-DOF run
over 1 s and 1.6 GB at 1e5 DOFs.  One :class:`~dynsub.solver.CoupledSystem`
describes the test set-up: the frame, the suspension, their topology, the
suspension as the physical substructure, and channel i driving wheel i
(:func:`dynsub.generators.wheel_inputs`).  ``model.json`` holds it, the
reference exports its DOFs, and the reduced system takes its input map, which
routes the channels of both solvers.
"""

from __future__ import annotations

import json
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io as dio
from .generators import frame_analog, wheel_inputs
from .metrics import trajectory_mse
from .models import ModelError, build_from_fields, number_tuple, require_bools, require_numbers
from .monolithic import assemble_global, solve_monolithic
from .reduction import reduce as cb_reduce, reduced_topology
from .signals import multisine_with_noise_channels
from .solver import CoupledSystem, PartitionedSolver, SolverConfig, SolverError

# arbitrary default multisine content, kept inside the band the default
# 30-mode reduction reproduces to 0.1% (first 20 modes, up to ~9 Hz)
DEFAULT_SINE_FREQUENCIES = (1.5, 2.5, 4.0, 6.0, 8.0)
DEFAULT_SINE_AMPLITUDES = (2.0, 2.0, 2.0, 1.0, 1.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one desk experiment.

    ``model`` holds the frame-analog generator parameters; ``modes`` is the
    retained fixed-interface mode count; the remaining fields set the solver
    (step, horizon and sub-cycling of the trapezoidal rule) and the wheel
    excitation (shared multisine, per-channel noise).
    """

    modes: int = 30
    dt: float = 1e-3
    duration: float = 1.0
    subcycles: int = 1
    run_monolithic: bool = True
    seed: int = 0
    noise_variance: float = 0.01
    sine_frequencies: tuple = DEFAULT_SINE_FREQUENCIES
    sine_amplitudes: tuple = DEFAULT_SINE_AMPLITUDES
    model: dict = field(default_factory=lambda: {"n": 1000, "k": 2.5e5})
    _solver: SolverConfig = field(init=False, repr=False, compare=False)  # built from dt, duration, subcycles

    def __post_init__(self):
        require_numbers(ModelError, True, "positive", modes=self.modes)
        require_numbers(ModelError, True, "non-negative", seed=self.seed)
        require_numbers(ModelError, False, "non-negative", noise_variance=self.noise_variance)
        require_bools(ModelError, run_monolithic=self.run_monolithic)
        if not isinstance(self.model, Mapping):
            raise ModelError(f"field 'model' must be an object of frame parameters, got {self.model!r}")
        try:  # the solver's own rules on dt, duration and subcycles
            solver = SolverConfig(dt=self.dt, duration=self.duration, subcycles=self.subcycles)
        except SolverError as exc:
            raise ModelError(str(exc)) from None
        for name in ("sine_frequencies", "sine_amplitudes"):
            object.__setattr__(self, name, number_tuple(ModelError, name, getattr(self, name), sign="finite"))
        object.__setattr__(self, "model", dict(self.model))
        object.__setattr__(self, "_solver", solver)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Read a JSON config; an unknown or missing field raises ModelError naming it."""
        return build_from_fields(cls, json.loads(Path(path).read_text()), f"experiment config {path}")


def run_experiment(config: ExperimentConfig, out_dir) -> dict:
    """Run the full workflow and write artifacts into ``out_dir``.

    Returns the report dictionary (also written to report.json), always
    containing ``offline_time`` and ``online_time`` sections.  With the
    monolithic run, ``model.reference`` names the reference solve
    (``"monolithic_sparse"``) that ``online_time.monolithic``,
    ``online_time.speedup`` and ``fidelity`` refer to.
    ``model.cut_inside_band`` says that a discarded mode lies at or below
    the highest sine frequency, ``model.excitation_max_hz``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    subs, topology = build_from_fields(frame_analog, config.model, "experiment config model")
    frame, susp = subs["frame"], subs["suspension"]
    system = CoupledSystem(substructures=subs, topology=topology, physical=("suspension",),
                           input_map=wheel_inputs(susp))
    dio.save_system(out / "model.json", system)

    solver_cfg = config._solver
    n_steps = solver_cfg.n_steps
    n_channels = susp.n_elements

    # excitation: shared multisine, independent per-channel noise, written at
    # the finest sampling any substructure needs
    ss = config.subcycles
    fine_samples = n_steps * ss + 1
    fine_rate = ss / config.dt
    channels_fine = multisine_with_noise_channels(
        n_channels, fine_samples, fine_rate,
        config.sine_frequencies, config.sine_amplitudes,
        config.noise_variance, seed=config.seed,
    )
    channels_coarse = channels_fine[::ss]
    times_coarse = np.arange(n_steps + 1) * config.dt
    dio.save_signals_csv(out / "signals.csv", times_coarse, channels_coarse)

    report = {"offline_time": {}, "online_time": {}, "model": {
        "frame_dofs": frame.n_dofs,
        "suspension_dofs": susp.n_dofs,
        "interface_constraints": topology.n_constraints,
        "retained_modes": config.modes,
    }}

    t0 = time.perf_counter()
    red = cb_reduce(frame, config.modes)
    report["offline_time"]["reduction"] = time.perf_counter() - t0
    dio.save_reduction(out / "reduction.npz", red)
    report["model"]["last_retained_frequency_hz"] = float(red.retained_frequencies[-1]) / (2 * np.pi)
    if red.truncation_frequency is not None:
        report["model"]["first_discarded_frequency_hz"] = red.truncation_frequency / (2 * np.pi)
    band = report["model"]["excitation_max_hz"] = max(config.sine_frequencies, default=0.0)
    report["model"]["cut_inside_band"] = bool(report["model"].get("first_discarded_frequency_hz", np.inf) <= band)

    reduced_system = CoupledSystem(
        substructures={"frame": red.as_substructure(), "suspension": susp},
        topology=reduced_topology(topology, "frame", red),
        physical=("suspension",),
        input_map=system.input_map,
    )
    inputs = dio.input_tables(reduced_system, channels_fine)

    t0 = time.perf_counter()
    solver = PartitionedSolver(reduced_system, solver_cfg)
    report["offline_time"]["factorization"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    traj_part = solver.run(inputs, dofs=dio._exported_dofs(reduced_system))
    report["online_time"]["partitioned"] = time.perf_counter() - t0
    dio.save_trajectory_csv(out / "trajectory_partitioned.csv", traj_part, reduced_system)

    if config.run_monolithic:
        t0 = time.perf_counter()
        asys = assemble_global(subs, topology, sparse=True)
        report["offline_time"]["assembly"] = time.perf_counter() - t0
        report["model"]["reference"] = "monolithic_sparse"
        t0 = time.perf_counter()
        traj_mono = solve_monolithic(asys, solver_cfg, inputs, dofs=dio._exported_dofs(system))
        report["online_time"]["monolithic"] = time.perf_counter() - t0
        dio.save_trajectory_csv(out / "trajectory_monolithic.csv", traj_mono, system)
        if report["online_time"]["partitioned"] > 0:
            report["online_time"]["speedup"] = (
                report["online_time"]["monolithic"] / report["online_time"]["partitioned"]
            )
        fidelity = {}
        for e, bdof in enumerate(frame.boundary_dofs):
            mse, rel = trajectory_mse(
                traj_part.displacement("frame", red.reduced_boundary_index(bdof)),
                traj_mono.displacement("frame", bdof),
            )
            fidelity[f"boundary_{e}"] = {"mse": mse, "relative_mse": rel}
        report["fidelity"] = fidelity

    report["offline_time"]["total"] = sum(report["offline_time"].values())
    report["files"] = sorted(p.name for p in out.iterdir())
    (out / "report.json").write_text(json.dumps(report, indent=1))
    return report
