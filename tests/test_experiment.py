"""Experiment driver: report schema, determinism, sub-cycling degeneracy."""

import filecmp
import importlib
import json
import tracemalloc
import types
from pathlib import Path

import pytest
import scipy.sparse.linalg  # imported before any tracing, so its module objects are not counted

from dynsub.experiment import ExperimentConfig, run_experiment
from dynsub.models import ModelError

SMALL_MODEL = {"n": 40, "boundary_dofs": (9, 19, 29, 39)}


def small_config(**overrides):
    kwargs = dict(modes=8, dt=1e-3, duration=0.05, model=SMALL_MODEL, seed=3)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestConfig:
    def test_duration_must_match_step_grid(self):
        for duration in (4e-4, 1.5e-3):  # 1.5 steps passed a rule of "within one step"
            with pytest.raises(ModelError, match="'duration'"):
                ExperimentConfig(dt=1e-3, duration=duration)

    def test_mode_count_validated(self):
        with pytest.raises(ModelError, match="mode"):
            ExperimentConfig(modes=0)

    @pytest.mark.parametrize("field, value", [
        ("modes", "5"), ("modes", 5.0), ("dt", "1e-3"), ("seed", None), ("subcycles", 1.5),
        ("noise_variance", [0.1]), ("run_monolithic", "no"), ("model", 5),
        ("sine_frequencies", "25"), ("sine_amplitudes", [1, "2"]),
    ])
    def test_field_types_checked(self, field, value):
        with pytest.raises(ModelError, match=repr(field)):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("noise_variance", -1.0), ("noise_variance", float("inf")), ("noise_variance", float("nan")),
        ("sine_frequencies", (1.5, float("nan"))), ("sine_amplitudes", (2.0, float("-inf"))),
    ])
    def test_field_ranges_checked(self, field, value):
        # a negative or nan noise variance ran noise-free; the others failed late, naming an input row
        with pytest.raises(ModelError, match=repr(field)):
            ExperimentConfig(**{field: value})

    def test_from_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"modes": 5, "duration": 0.25}))
        cfg = ExperimentConfig.from_file(path)
        assert cfg.modes == 5
        assert cfg.duration == 0.25


class TestRunExperiment:
    def test_report_schema_and_files(self, tmp_path):
        report = run_experiment(small_config(), tmp_path / "out")
        assert "offline_time" in report and "online_time" in report
        assert "reduction" in report["offline_time"]
        assert "total" in report["offline_time"]
        assert "partitioned" in report["online_time"]
        assert "monolithic" in report["online_time"]
        assert "speedup" in report["online_time"]
        for name in ("model.json", "signals.csv", "reduction.npz",
                     "trajectory_partitioned.csv", "trajectory_monolithic.csv"):
            assert (tmp_path / "out" / name).exists(), name
        saved = json.loads((tmp_path / "out" / "report.json").read_text())
        assert saved["offline_time"].keys() == report["offline_time"].keys()
        assert saved["model"]["reference"] == "monolithic_sparse"

    def test_fidelity_reported_per_boundary(self, tmp_path):
        report = run_experiment(small_config(), tmp_path / "out")
        assert set(report["fidelity"]) == {f"boundary_{e}" for e in range(4)}
        for entry in report["fidelity"].values():
            assert entry["mse"] >= 0.0

    def test_monolithic_optional(self, tmp_path):
        report = run_experiment(small_config(run_monolithic=False), tmp_path / "out")
        assert "monolithic" not in report["online_time"]
        assert "reference" not in report["model"]
        assert not (tmp_path / "out" / "trajectory_monolithic.csv").exists()

    def test_cut_inside_a_repeated_frequency_is_reported(self, tmp_path):
        # the default 1000-DOF frame's 30th and 31st fixed-interface frequencies are equal
        report = run_experiment(ExperimentConfig(duration=0.01), tmp_path / "out")
        model = json.loads((tmp_path / "out" / "report.json").read_text())["model"]
        assert model == report["model"]
        assert model["retained_modes"] == 30
        assert model["last_retained_frequency_hz"] == pytest.approx(14.48, abs=5e-3)
        assert model["first_discarded_frequency_hz"] == pytest.approx(model["last_retained_frequency_hz"], rel=1e-8)

    def test_byte_identical_reruns(self, tmp_path):
        run_experiment(small_config(), tmp_path / "a")
        run_experiment(small_config(), tmp_path / "b")
        for name in ("model.json", "signals.csv", "reduction.npz",
                     "trajectory_partitioned.csv", "trajectory_monolithic.csv"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False), name

    def test_seed_changes_outputs(self, tmp_path):
        run_experiment(small_config(), tmp_path / "a")
        run_experiment(small_config(seed=99), tmp_path / "c")
        assert not filecmp.cmp(tmp_path / "a" / "signals.csv", tmp_path / "c" / "signals.csv",
                               shallow=False)

    def test_ss1_outputs_identical_to_base(self, tmp_path):
        run_experiment(small_config(), tmp_path / "base")
        run_experiment(small_config(subcycles=1), tmp_path / "ss1")
        assert filecmp.cmp(tmp_path / "base" / "trajectory_partitioned.csv",
                           tmp_path / "ss1" / "trajectory_partitioned.csv", shallow=False)

    def test_peak_memory_holds_no_record_of_every_dof(self, tmp_path):
        # the default 1000-DOF desk run over 1 s: a reference record of every
        # DOF would be 1001 x 2000 x 8 B = 16.0 MB on its own; the written
        # DOFs' record is 0.2 MB and the whole run peaked at about 3 MB, so
        # half of the whole record leaves that room and still fails with it
        config = ExperimentConfig(run_monolithic=True)
        whole_record = (config._solver.n_steps + 1) * 2 * config.model["n"] * 8
        tracemalloc.start()
        try:
            run_experiment(config, tmp_path / "out")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < whole_record / 2, f"peak {peak / 1e6:.1f} MB"

    def test_subcycled_experiment_runs(self, tmp_path):
        report = run_experiment(small_config(subcycles=5, duration=0.02), tmp_path / "out")
        assert report["online_time"]["partitioned"] > 0
        assert set(report["fidelity"]) == {f"boundary_{e}" for e in range(4)}


def _load_tracer():
    """The benchmark's ``perfbench/tracer.py``, run from its source; no patch is installed and no bytecode written."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tracer = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(), str(path), "exec"), vars(tracer))
    return tracer


@pytest.mark.parametrize("table", ["LAYER_TARGETS", "PHASE_TARGETS"])
def test_traced_layer_names_resolve(table):
    # the tracer patches owner.__dict__[leaf] by name, so a renamed layer
    # (``EffectiveMatrix.solve``, ``constraint_modes``) would break traced runs
    for module_name, attr, _ in getattr(_load_tracer(), table):
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(leaf)), f"{module_name}.{attr}"
