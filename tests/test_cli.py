"""End-to-end runs of the command-line driver."""

import inspect
import json

import numpy as np
import pytest
import scipy.linalg

from dynsub import (
    CoupledSystem, PartitionedSolver, SolverConfig, assemble_global, reduce as cb_reduce, simulate, solve_monolithic,
)
from dynsub.cli import main
from dynsub.generators import chain_substructure, frame_analog
from dynsub.io import (
    input_tables, load_csv_columns, load_reduction, load_signals_csv, load_system, save_reduction,
    save_signals_csv, save_trajectory_csv,
)
from dynsub.signals import multisine_with_noise_channels

from conftest import multisine_table, run_python, scipy_sparse_check, set_json_entry


def write_config(path, **overrides):
    cfg = {"dt": 1e-3, "duration": 0.05, "gamma": 0.5}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.json"
    params = {"n": 40, "boundary_dofs": [9, 19, 29, 39]}
    assert main(["generate-model", "--kind", "frame_analog",
                 "--params", json.dumps(params), "--out", str(path)]) == 0
    return path


class TestGenerate:
    def test_chain_model(self, tmp_path):
        out = tmp_path / "chain.json"
        rc = main(["generate-model", "--kind", "chain",
                   "--params", '{"n": 3, "m": 1, "k": 1}', "--out", str(out)])
        assert rc == 0
        chain = load_system(out).substructures["chain"]
        assert np.array_equal(chain.stiffness, [[2, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_single_mass_chain(self, tmp_path):
        out = tmp_path / "chain1.json"
        assert main(["generate-model", "--kind", "chain",
                     "--params", '{"n": 1}', "--out", str(out)]) == 0
        assert load_system(out).substructures["chain"].mass.shape == (1, 1)

    @pytest.mark.parametrize("whole", [float, int], ids=["floats", "ints"])
    @pytest.mark.parametrize("kind, factory", [("frame_analog", frame_analog), ("chain", chain_substructure)])
    def test_every_parameter_at_its_default_writes_the_same_file(self, tmp_path, kind, factory, whole):
        # each parameter given explicitly, a whole float also as a JSON int ("k": 10000)
        params = {name: p.default for name, p in inspect.signature(factory).parameters.items()}
        params = {name: whole(v) if isinstance(v, float) and v.is_integer() else v for name, v in params.items()}
        if kind == "chain":
            params["n"] = 3  # the command's default: the signature has none
        out = {"default": tmp_path / "default.json", "explicit": tmp_path / "explicit.json"}
        assert main(["generate-model", "--kind", kind, "--out", str(out["default"])]) == 0
        assert main(["generate-model", "--kind", kind, "--params", json.dumps(params),
                     "--out", str(out["explicit"])]) == 0
        assert out["explicit"].read_bytes() == out["default"].read_bytes()

    def test_frame_analog_interfaces(self, model_file):
        doc = json.loads(model_file.read_text())
        assert len(doc["coupling"]) == 4
        assert len(doc["substructures"]["suspension"]["elements"]) == 4

    def test_signal_generation(self, tmp_path):
        out = tmp_path / "sig.csv"
        rc = main(["generate-signal", "--kind", "bandlimited_noise",
                   "--spec", '{"band": [0, 200], "variance": 1.0}',
                   "--samples", "2048", "--rate", "1000", "--channels", "2",
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        t, chans = load_signals_csv(out)
        assert chans.shape == (2048, 2)
        assert not np.array_equal(chans[:, 0], chans[:, 1])

    def test_noise_free_multisine_channels_are_equal(self, tmp_path):
        out = tmp_path / "sig.csv"
        spec = {"frequencies": [2, 5], "amplitudes": [2, 1], "phases": [0.5, 1.0]}
        assert main(["generate-signal", "--kind", "multisine", "--spec", json.dumps(spec),
                     "--samples", "500", "--channels", "3", "--out", str(out)]) == 0
        t, chans = load_signals_csv(out)
        expected = 2 * np.sin(2 * np.pi * 2 * t + 0.5) + np.sin(2 * np.pi * 5 * t + 1.0)
        assert np.allclose(chans[:, 0], expected, rtol=0, atol=1e-12)
        assert np.array_equal(chans, np.repeat(chans[:, :1], 3, axis=1))

    def test_multisine_channels_come_from_the_shared_generator(self, tmp_path):
        out = tmp_path / "sig.csv"
        spec = {"frequencies": [2, 5, 8], "amplitudes": [2, 2, 1], "noise_variance": 0.05}
        assert main(["generate-signal", "--kind", "multisine", "--spec", json.dumps(spec),
                     "--samples", "1001", "--rate", "1000", "--channels", "4", "--seed", "1",
                     "--out", str(out)]) == 0
        _, chans = load_signals_csv(out)
        expected = multisine_with_noise_channels(4, 1001, 1000.0, [2, 5, 8], [2, 2, 1], 0.05, seed=1)
        assert np.array_equal(chans, expected)


def _drop_frame_mass(model):
    doc = json.loads(model.read_text())
    del doc["substructures"]["frame"]["mass"]
    model.write_text(json.dumps(doc))


def _asymmetric_frame_mass(model):
    doc = json.loads(model.read_text())
    mass = doc["substructures"]["frame"]["mass"]
    for key, value in (("rows", 0), ("cols", 1), ("values", 0.5)):
        mass[key].append(value)
    model.write_text(json.dumps(doc))


def _singular_frame_mass(model):
    # DOFs 1 and 2 carry equal lumped masses m; the block [[m, m], [m, m]] is symmetric but singular
    doc = json.loads(model.read_text())
    mass = doc["substructures"]["frame"]["mass"]
    m = mass["values"][mass["rows"].index(1)]
    for key, values in (("rows", (1, 2)), ("cols", (2, 1)), ("values", (m, m))):
        mass[key].extend(values)
    model.write_text(json.dumps(doc))


def _misspelled_frame_damping(model):
    doc = json.loads(model.read_text())
    frame = doc["substructures"]["frame"]
    frame["dampign"] = frame.pop("damping")
    model.write_text(json.dumps(doc))


def _setting(*keys, value):
    """Edit of a model file that sets the entry at ``keys`` to ``value``."""
    return lambda model: set_json_entry(model, keys, value)


def _generate(kind, params):
    """``generate-model`` of ``kind`` with ``params`` as JSON."""
    return ["generate-model", "--kind", kind, "--params", json.dumps(params), "--out", "{tmp}/m.json"]


_COEFFICIENTS = "frame_analog parameters: suspension coefficients"
# a substructure record's errors are led by the file, as every other field's
_RECORD = "system file {tmp}/model.json: substructure "


@pytest.mark.parametrize("argv, key, edit", [
    (["generate-model", "--kind", "frame_analog", "--params", '{"nn": 50}', "--out", "{tmp}/m.json"],
     "nn", None),
    (["generate-model", "--kind", "chain", "--params", '{"n": 3, "kk": 2}', "--out", "{tmp}/m.json"],
     "kk", None),
    (["generate-model", "--kind", "chain", "--params", '{"n": 3.0}', "--out", "{tmp}/m.json"],
     "n", None),
    (["simulate", "--model", "{model}", "--config", "{tmp}/bad.json", "--out", "{tmp}/t.csv"],
     "bogus", None),
    (["run-experiment", "--config", "{tmp}/bad.json", "--out-dir", "{tmp}/out"], "bogus", None),
    (["run-experiment", "--config", "{tmp}/bad_model.json", "--out-dir", "{tmp}/out"], "nn", None),
    (["reduce", "--model", "{model}", "--modes", "5", "--out", "{tmp}/r.npz"], "mass", _drop_frame_mass),
    (["reduce", "--model", "{model}", "--modes", "5", "--out", "{tmp}/r.npz"], "relative_motion",
     _setting("substructures", "suspension", "relative_motion", value="no")),
    (["reduce", "--model", "{model}", "--modes", "5", "--out", "{tmp}/r.npz"], "coupling",
     _setting("coupling", 0, 0, value=["frame", 39])),
    (["simulate", "--model", "{model}", "--config", "{tmp}/str_dt.json", "--out", "{tmp}/t.csv"],
     "dt", None),
    (["simulate", "--model", "{model}", "--config", "{tmp}/part_step.json", "--out", "{tmp}/t.csv"],
     "duration", None),
    (["run-experiment", "--config", "{tmp}/str_modes.json", "--out-dir", "{tmp}/out"], "modes", None),
    (["generate-signal", "--kind", "multisine", "--samples", "10", "--out", "{tmp}/s.csv", "--spec",
      '{"frequencies": [2], "amplitudes": [1], "noise_variance": "0.1"}'], "noise_variance", None),
    # JSON reads NaN and Infinity; they must not reach a factorization
    (["simulate", "--model", "{model}", "--config", "{tmp}/good.json", "--out", "{tmp}/t.csv"],
     (_RECORD + "'frame'", "stiffness"),
     _setting("substructures", "frame", "stiffness", "values", 0, value=float("nan"))),
    (["simulate", "--model", "{model}", "--config", "{tmp}/good.json", "--out", "{tmp}/t.csv", "--monolithic"],
     (_RECORD + "'frame'", "stiffness"),
     _setting("substructures", "frame", "stiffness", "values", 0, value=float("inf"))),
    (["simulate", "--model", "{model}", "--config", "{tmp}/good.json", "--out", "{tmp}/t.csv", "--monolithic"],
     (_RECORD + "'suspension' element 1", "c3"),
     _setting("substructures", "suspension", "elements", 1, "c3", value=float("inf"))),
    (["simulate", "--model", "{model}", "--config", "{tmp}/good.json", "--out", "{tmp}/t.csv"],
     (_RECORD + "'suspension'", "boundary_mass"),
     _setting("substructures", "suspension", "boundary_mass", value=float("nan"))),
    (["simulate", "--model", "{model}", "--config", "{tmp}/nan_limit.json", "--out", "{tmp}/t.csv"],
     "divergence_limit", None),
    (["simulate", "--model", "{model}", "--config", "{tmp}/negative_limit.json", "--out", "{tmp}/t.csv",
      "--monolithic"], "divergence_limit", None),
    (["reduce", "--model", "{model}", "--sub", "nosuch", "--modes", "5", "--out", "{tmp}/r.npz"], "--sub", None),
    (["reduce", "--model", "{model}", "--sub", "suspension", "--modes", "5", "--out", "{tmp}/r.npz"],
     "--sub", None),
    (["generate-signal", "--samples", "10", "--channels", "0", "--out", "{tmp}/s.csv"], "--channels", None),
    (["reduce", "--model", "{model}", "--modes", "5", "--out", "{tmp}/r.npz"], "frame", _asymmetric_frame_mass),
    (["reduce", "--model", "{model}", "--modes", "5", "--out", "{tmp}/r.npz", "--report", "{tmp}/f.csv",
      "--report-modes", "0"], "--report-modes", None),
    (["compare", "mac", "--full", "{tmp}/modes3.csv", "--reduced", "{tmp}/modes4.csv", "--out", "{tmp}/mac.csv"],
     "--full", None),
    (["compare", "traj", "--full", "{tmp}/text.csv", "--reduced", "{tmp}/text.csv", "--out", "{tmp}/mse.csv"],
     "{tmp}/text.csv", None),
    (["simulate", "--model", "{model}", "--config", "{tmp}/good.json", "--inputs", "{tmp}/text.csv",
      "--out", "{tmp}/t.csv"], "{tmp}/text.csv", None),
    # data rows of another width than the header, and a header without data rows
    (["compare", "traj", "--full", "{tmp}/narrow.csv", "--reduced", "{tmp}/narrow.csv", "--out", "{tmp}/mse.csv"],
     "{tmp}/narrow.csv", None),
    (["compare", "traj", "--full", "{tmp}/header_only.csv", "--reduced", "{tmp}/traj_a.csv", "--out", "{tmp}/mse.csv"],
     "{tmp}/header_only.csv", None),
    (["simulate", "--model", "{model}", "--config", "{tmp}/good.json", "--inputs", "{tmp}/narrow_signals.csv",
      "--out", "{tmp}/t.csv"], "{tmp}/narrow_signals.csv", None),
    (["generate-signal", "--kind", "multisine", "--samples", "10", "--out", "{tmp}/s.csv", "--spec",
      '{"frequencies": [2], "amplitudes": [1], "sample_rate": 100}'], "--rate", None),
    (["generate-signal", "--samples", "10", "--out", "{tmp}/s.csv", "--spec",
      '{"band": [0, 200], "seed": 3}'], "--seed", None),
    (["generate-signal", "--samples", "10", "--out", "{tmp}/s.csv", "--spec",
      '{"frequencies": [2], "amplitudes": [1], "kind": "multisine"}'], "--kind", None),
    (["compare", "traj", "--full", "{tmp}/traj_a.csv", "--reduced", "{tmp}/traj_b.csv", "--out", "{tmp}/mse.csv"],
     ("options '--full' and '--reduced'", "--reduced"), None),
    (["compare", "mac", "--full", "{tmp}/modes3_zero.csv", "--reduced", "{tmp}/modes3.csv", "--out", "{tmp}/mac.csv"],
     ("option '--full'", "--full"), None),
    (["simulate", "--model", "{model}", "--config", "{tmp}/good.json", "--out", "{tmp}/t.csv"],
     ("mass matrix of substructure 'frame'", "frame"), _singular_frame_mass),
    # a misspelled or unknown key, at each of the five record levels of a system file
    (["simulate", "--model", "{model}", "--config", "{tmp}/good.json", "--out", "{tmp}/t.csv"],
     ("system file", "extra"), _setting("extra", value=1)),
    (["simulate", "--model", "{model}", "--config", "{tmp}/good.json", "--out", "{tmp}/t.csv"],
     (_RECORD + "'frame'", "dampign"), _misspelled_frame_damping),
    (["simulate", "--model", "{model}", "--config", "{tmp}/good.json", "--out", "{tmp}/t.csv"],
     (_RECORD + "'frame' stiffness", "vals"), _setting("substructures", "frame", "stiffness", "vals", value=[])),
    (["simulate", "--model", "{model}", "--config", "{tmp}/good.json", "--out", "{tmp}/t.csv"],
     (_RECORD + "'suspension'", "boundry_mass"), _setting("substructures", "suspension", "boundry_mass", value=0.5)),
    (["simulate", "--model", "{model}", "--config", "{tmp}/good.json", "--out", "{tmp}/t.csv"],
     (_RECORD + "'suspension' element 2", "k_1"),
     _setting("substructures", "suspension", "elements", 2, "k_1", value=35.0)),
    # a true as a DOF or a DOF count, named with the list and the entry's position
    (["reduce", "--model", "{model}", "--modes", "5", "--out", "{tmp}/r.npz"], (_RECORD + "'frame' stiffness", "rows"),
     _setting("substructures", "frame", "stiffness", "rows", 0, value=True)),
    (["reduce", "--model", "{model}", "--modes", "5", "--out", "{tmp}/r.npz"], (_RECORD + "'frame'", "n_dofs"),
     _setting("substructures", "frame", "n_dofs", value=True)),
    # an inputs key names a DOF only in its decimal form, so "05" is not a second "5"
    (["simulate", "--model", "{model}", "--config", "{tmp}/good.json", "--out", "{tmp}/t.csv"],
     ("system file", "05"), _setting("inputs", value={"frame": {"5": 0, "05": 1}})),
    (["simulate", "--model", "{model}", "--config", "{tmp}/good.json", "--out", "{tmp}/t.csv", "--monolithic"],
     ("system file", "\u0665"), _setting("inputs", value={"frame": {"\u0665": 0}})),
    # generator parameters: each was truncated, misread or ended in a traceback
    (_generate("frame_analog", {"heavy_every": 2.5}), "heavy_every", None),
    (["run-experiment", "--config", "{tmp}/heavy_model.json", "--out-dir", "{tmp}/out"], "heavy_every", None),
    (_generate("frame_analog", {"heavy_every": -1}), "heavy_every", None),
    (_generate("frame_analog", {"boundary_dofs": [49.5, 99, 149, 199]}), "boundary_dofs", None),
    (_generate("frame_analog", {"m_light": "x"}), "m_light", None),
    (_generate("frame_analog", {"k": "1e4"}), "k", None),
    (_generate("frame_analog", {"rayleigh_alpha": None}), "rayleigh_alpha", None),
    (_generate("frame_analog", {"n_suspensions": 4.0}), "n_suspensions", None),
    (_generate("frame_analog", {"suspension_coefficients": {"k_1": 3}}), (_COEFFICIENTS, "k_1"), None),
    (_generate("frame_analog", {"suspension_coefficients": [1]}), (_COEFFICIENTS, "k1"), None),
    (_generate("chain", {"boundary_dofs": [1.5]}), "boundary_dofs", None),
    (_generate("chain", {"grounded": "no"}), "grounded", None),
    (_generate("chain", {"m": "x"}), "m", None),
    (_generate("chain", {"c": None}), "c", None),
    # physical parameters out of range: each wrote a model, or failed naming a matrix
    (_generate("frame_analog", {"k": -1e4}), "k", None),
    (_generate("frame_analog", {"m_light": 0}), "m_light", None),
    (_generate("frame_analog", {"m_heavy": -2}), "m_heavy", None),
    (_generate("frame_analog", {"rayleigh_alpha": float("inf")}), "rayleigh_alpha", None),
    (_generate("chain", {"k": -1}), "k", None),
    (_generate("chain", {"m": 0}), "m", None),
    # signal and experiment ranges: each wrote nan or inf, ran noise-free, or failed naming an input row
    (["generate-signal", "--kind", "multisine", "--samples", "10", "--out", "{tmp}/s.csv", "--spec",
      '{"frequencies": [2, NaN], "amplitudes": [1, 1]}'], "frequencies", None),
    (["generate-signal", "--kind", "multisine", "--samples", "10", "--out", "{tmp}/s.csv", "--spec",
      '{"frequencies": [2], "amplitudes": [Infinity]}'], "amplitudes", None),
    (["generate-signal", "--kind", "multisine", "--samples", "10", "--rate", "nan", "--out", "{tmp}/s.csv", "--spec",
      '{"frequencies": [2], "amplitudes": [1]}'], "sample_rate", None),
    (["generate-signal", "--kind", "multisine", "--samples", "10", "--out", "{tmp}/s.csv", "--spec",
      '{"frequencies": [2], "amplitudes": [1], "noise_variance": NaN}'], "noise_variance", None),
    (["run-experiment", "--config", "{tmp}/negative_noise.json", "--out-dir", "{tmp}/out"], "noise_variance", None),
    (["run-experiment", "--config", "{tmp}/infinite_noise.json", "--out-dir", "{tmp}/out"], "noise_variance", None),
    (["run-experiment", "--config", "{tmp}/nan_sine.json", "--out-dir", "{tmp}/out"], "sine_frequencies", None),
    # a negative seed ended in numpy's traceback
    (["generate-signal", "--samples", "10", "--seed", "-1", "--out", "{tmp}/s.csv", "--spec", '{"band": [0, 200]}'],
     "seed", None),
    (["generate-signal", "--kind", "multisine", "--samples", "10", "--seed", "-1", "--out", "{tmp}/s.csv", "--spec",
      '{"frequencies": [2], "amplitudes": [1]}'], "seed", None),
    (["run-experiment", "--config", "{tmp}/negative_seed.json", "--out-dir", "{tmp}/out"], "seed", None),
    # an int that no float holds overflowed in duration/dt
    (["simulate", "--model", "{model}", "--config", "{tmp}/huge_duration.json", "--out", "{tmp}/t.csv"],
     "duration", None),
    # a reduction that is no npz archive, or that lacks a field, ended in numpy's traceback
    (["compare", "mac", "--full", "{tmp}/text.npz", "--reduced", "{tmp}/modes3.csv", "--out", "{tmp}/mac.csv"],
     "{tmp}/text.npz", None),
    (["compare", "mac", "--full", "{tmp}/cut.npz", "--reduced", "{tmp}/modes3.csv", "--out", "{tmp}/mac.csv"],
     "{tmp}/cut.npz", None),
    (["compare", "mac", "--full", "{tmp}/partial.npz", "--reduced", "{tmp}/modes3.csv", "--out", "{tmp}/mac.csv"],
     ("reduction file '{tmp}/partial.npz'", "reduced_mass"), None),
    # and one whose field did not fit the others ended in scipy's or numpy's traceback
    (["compare", "mac", "--full", "{tmp}/flat_mass.npz", "--reduced", "{tmp}/modes3.csv", "--out", "{tmp}/mac.csv"],
     ("reduction file '{tmp}/flat_mass.npz'", "reduced_mass"), None),
    (["compare", "mac", "--full", "{tmp}/float_dofs.npz", "--reduced", "{tmp}/modes3.csv", "--out", "{tmp}/mac.csv"],
     ("reduction file '{tmp}/float_dofs.npz'", "internal_dofs"), None),
    # and one whose reduced matrices broke a substructure's rules ended in scipy's traceback, or gave a MAC
    (["compare", "mac", "--full", "{tmp}/negative_mass.npz", "--reduced", "{tmp}/modes6.csv", "--out", "{tmp}/mac.csv"],
     ("reduction file '{tmp}/negative_mass.npz': reduced matrices: mass matrix must have a strictly positive "
      "diagonal", "{tmp}/negative_mass.npz"), None),
    (["compare", "mac", "--full", "{tmp}/nan_mass.npz", "--reduced", "{tmp}/modes6.csv", "--out", "{tmp}/mac.csv"],
     ("reduction file '{tmp}/nan_mass.npz': reduced matrices: ", "mass"), None),
    (["compare", "mac", "--full", "{tmp}/asymmetric_stiffness.npz", "--reduced", "{tmp}/modes6.csv",
      "--out", "{tmp}/mac.csv"],
     ("reduction file '{tmp}/asymmetric_stiffness.npz': reduced matrices: stiffness matrix is not symmetric",
      "{tmp}/asymmetric_stiffness.npz"), None),
], ids=["frame_params", "chain_params", "chain_float_n", "solver_config", "experiment_config",
          "experiment_model", "missing_mass", "system_relative_motion", "system_coupling",
          "solver_config_type", "solver_config_partial_step", "experiment_config_type",
          "signal_spec_type", "system_nan_triplet", "system_infinite_triplet_monolithic",
          "system_infinite_c3_monolithic", "system_nan_boundary_mass", "solver_config_nan_divergence_limit",
          "solver_config_negative_divergence_limit_monolithic", "reduce_unknown_sub", "reduce_nonlinear_sub",
          "signal_no_channels", "system_asymmetric_frame_mass", "reduce_no_report_modes", "compare_mac_sizes",
          "compare_non_numeric_csv", "simulate_non_numeric_inputs", "compare_traj_narrow_rows",
          "compare_traj_header_only", "simulate_narrow_inputs", "signal_spec_sample_rate",
          "signal_spec_seed", "signal_spec_kind", "compare_traj_no_shared_channel", "compare_mac_zero_column",
          "system_singular_frame_mass", "system_unknown_top_level_key", "system_misspelled_damping",
          "system_unknown_triplet_key", "system_misspelled_boundary_mass", "system_unknown_element_key",
          "system_true_stiffness_row", "system_true_n_dofs",
          "system_input_key_with_leading_zero", "system_input_key_arabic_indic_digit",
          "frame_fractional_heavy_every", "experiment_fractional_heavy_every", "frame_negative_heavy_every",
          "frame_fractional_boundary_dof", "frame_string_m_light", "frame_string_k", "frame_null_rayleigh_alpha",
          "frame_float_n_suspensions", "frame_unknown_coefficient", "frame_coefficients_not_an_object",
          "chain_fractional_boundary_dof", "chain_string_grounded", "chain_string_m", "chain_null_c",
          "frame_negative_k", "frame_zero_m_light", "frame_negative_m_heavy", "frame_infinite_rayleigh_alpha",
          "chain_negative_k", "chain_zero_m", "signal_nan_frequency", "signal_infinite_amplitude",
          "signal_nan_rate", "signal_nan_noise_variance", "experiment_negative_noise_variance",
          "experiment_infinite_noise_variance", "experiment_nan_sine_frequency", "signal_noise_negative_seed",
          "signal_multisine_negative_seed", "experiment_negative_seed", "solver_config_huge_duration",
          "compare_mac_not_an_npz", "compare_mac_cut_npz", "compare_mac_missing_field",
          "compare_mac_flat_reduced_mass", "compare_mac_float_2d_internal_dofs", "compare_mac_negative_reduced_mass",
          "compare_mac_nan_reduced_mass", "compare_mac_asymmetric_reduced_stiffness"])
def test_malformed_input_exits_1_naming_the_field(tmp_path, model_file, capsys, argv, key, edit):
    """``key`` is the name the message must quote, or (location, name) for a location it must also lead with.

    ``{tmp}`` in either stands for the test's directory.
    """
    write_config(tmp_path / "good.json")
    write_config(tmp_path / "nan_limit.json", divergence_limit=float("nan"))
    write_config(tmp_path / "negative_limit.json", divergence_limit=-1.0)
    write_config(tmp_path / "bad.json", bogus=1)
    write_config(tmp_path / "str_dt.json", dt="1e-3")
    write_config(tmp_path / "part_step.json", duration=0.0505)  # 50.5 steps of dt = 1e-3
    (tmp_path / "bad_model.json").write_text(json.dumps({"model": {"nn": 5}}))
    (tmp_path / "str_modes.json").write_text(json.dumps({"modes": "5"}))
    (tmp_path / "heavy_model.json").write_text(json.dumps({"model": {"heavy_every": 2.5}}))
    (tmp_path / "negative_noise.json").write_text(json.dumps({"noise_variance": -1}))
    (tmp_path / "infinite_noise.json").write_text(json.dumps({"noise_variance": float("inf")}))
    (tmp_path / "nan_sine.json").write_text(json.dumps({"sine_frequencies": [1.5, float("nan")]}))
    (tmp_path / "negative_seed.json").write_text(json.dumps({"seed": -1}))
    write_config(tmp_path / "huge_duration.json", duration=10**400)
    (tmp_path / "text.npz").write_text("not an archive\n")
    np.savez(tmp_path / "partial.npz", transform=np.eye(2))
    (tmp_path / "cut.npz").write_bytes((tmp_path / "partial.npz").read_bytes()[:100])
    save_reduction(tmp_path / "red.npz", cb_reduce(chain_substructure(n=6, boundary_dofs=(5,)), 3))
    with np.load(tmp_path / "red.npz") as data:
        record = dict(data)
    np.savez(tmp_path / "flat_mass.npz", **dict(record, reduced_mass=np.zeros(3)))
    np.savez(tmp_path / "float_dofs.npz", **dict(record, internal_dofs=np.zeros((2, 3))))
    nan_mass, asymmetric = record["reduced_mass"].copy(), record["reduced_stiffness"].copy()
    nan_mass[1, 2] = np.nan
    asymmetric[0, 1] += 1e3 * np.abs(asymmetric).max()
    np.savez(tmp_path / "negative_mass.npz", **dict(record, reduced_mass=-record["reduced_mass"]))
    np.savez(tmp_path / "nan_mass.npz", **dict(record, reduced_mass=nan_mass))
    np.savez(tmp_path / "asymmetric_stiffness.npz", **dict(record, reduced_stiffness=asymmetric))
    (tmp_path / "modes6.csv").write_text("m0,m1\n" + "".join(f"{i},{i * i + 1}\n" for i in range(6)))
    (tmp_path / "modes3.csv").write_text("m0,m1\n1,0\n0,1\n1,1\n")
    (tmp_path / "modes4.csv").write_text("m0,m1\n1,0\n0,1\n1,1\n0,1\n")
    (tmp_path / "text.csv").write_text("time,ch0\n0,1\n0.001,one\n")
    (tmp_path / "modes3_zero.csv").write_text("m0,m1\n1,0\n0,0\n1,0\n")
    (tmp_path / "traj_a.csv").write_text("time,a.u0\n0,1\n0.001,2\n")
    (tmp_path / "traj_b.csv").write_text("time,b.u0\n0,1\n0.001,2\n")
    (tmp_path / "narrow.csv").write_text("time,a.u0,a.u1\n0,1\n0.001,2\n")
    (tmp_path / "header_only.csv").write_text("time,a.u0\n")
    (tmp_path / "narrow_signals.csv").write_text(
        "time,ch0,ch1,ch2,ch3\n" + "".join(f"{i * 1e-3},1,1,1\n" for i in range(51))
    )
    if edit is not None:
        edit(model_file)
    argv = [a.replace("{tmp}", str(tmp_path)).replace("{model}", str(model_file)) for a in argv]
    where, key = (part.replace("{tmp}", str(tmp_path)) for part in (key if isinstance(key, tuple) else ("", key)))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}") and repr(key) in err and "RuntimeWarning" not in err


def test_default_band_error_states_the_rule(tmp_path, capsys):
    # the default kind's default band (0, 0) used to fail as "invalid band (0.0, 0.0)"
    assert main(["generate-signal", "--samples", "5", "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert "field 'band' must hold two frequencies with 0 <= low < high below Nyquist (500.0 Hz)" in err


@pytest.mark.parametrize("extra", [[], ["--monolithic"], ["--subcycles", "10"]],
                         ids=["partitioned", "monolithic", "subcycled"])
def test_non_finite_inputs_exit_1_naming_the_row(tmp_path, model_file, capsys, extra):
    sig = tmp_path / "sig.csv"
    rows = ["time,ch0,ch1,ch2,ch3"] + [f"{i * 1e-3},1,1,1,1" for i in range(51)]
    rows[1 + 7] = "0.007,1,nan,1,1"
    sig.write_text("\n".join(rows) + "\n")
    cfg = write_config(tmp_path / "cfg.json")
    argv = ["simulate", "--model", str(model_file), "--config", str(cfg),
            "--inputs", str(sig), "--out", str(tmp_path / "t.csv"), *extra]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'suspension'" in err and "row 7" in err


@pytest.mark.parametrize("extra", [[], ["--monolithic"], ["--subcycles", "10"]],
                         ids=["partitioned", "monolithic", "subcycled"])
def test_signals_at_another_rate_exit_1_naming_time_and_the_row(tmp_path, model_file, capsys, extra):
    # a 500 Hz record of 1001 rows has the row count of a 1 s run at dt = 1 ms, which played it at 1 kHz
    sig, out = tmp_path / "sig.csv", tmp_path / "t.csv"
    assert main(["generate-signal", "--kind", "multisine", "--spec", '{"frequencies": [2, 5], "amplitudes": [2, 1]}',
                 "--samples", "1001", "--rate", "500", "--channels", "4", "--out", str(sig)]) == 0
    capsys.readouterr()
    cfg = write_config(tmp_path / "cfg.json", duration=1.0)
    assert main(["simulate", "--model", str(model_file), "--config", str(cfg),
                 "--inputs", str(sig), "--out", str(out), *extra]) == 1
    assert capsys.readouterr().err == (f"error: signals CSV {sig}: column 'time' must step by 0.001 s, the duration "
                                       f"over 1000 steps, but row 1 is 0.002 s after row 0\n")
    assert not out.exists()


def test_time_column_is_held_to_the_inner_step_within_a_microsecond(tmp_path, model_file, capsys):
    # the 501 inner rows of a 0.05 s run at dt = 1 ms and ss = 10 step by 0.1 ms
    cfg = write_config(tmp_path / "cfg.json")
    times = np.arange(501) * 1e-4
    channels = multisine_table(times, 4)
    argv = ["simulate", "--model", str(model_file), "--config", str(cfg), "--subcycles", "10", "--inputs"]
    for name, shift, code in (("jitter", 0.9e-6, 0), ("late", 1.1e-6, 1), ("nan", np.nan, 1)):
        sig = tmp_path / f"{name}.csv"
        save_signals_csv(sig, np.where(np.arange(501) == 123, times + shift, times), channels)
        assert main([*argv, str(sig), "--out", str(tmp_path / f"{name}_traj.csv")]) == code, name
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("column 'time' must step by 0.0001 s" in line for line in err), err
    assert all(line.endswith("after row 122") and "but row 123 is" in line for line in err), err


def test_row_count_is_checked_before_the_time_column(tmp_path, model_file, capsys):
    # 52 rows at 500 Hz: the solver's row-count rule speaks first, with its own message
    sig = tmp_path / "sig.csv"
    times = np.arange(52) * 2e-3
    save_signals_csv(sig, times, multisine_table(times, 4))
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["simulate", "--model", str(model_file), "--config", str(cfg),
                 "--inputs", str(sig), "--out", str(tmp_path / "t.csv")]) == 1
    assert capsys.readouterr().err == "error: input table for 'suspension' must have 51 rows, got 52\n"


class TestReduceCommand:
    def test_reduce_with_report(self, tmp_path, model_file):
        red_path = tmp_path / "red.npz"
        report = tmp_path / "freqs.csv"
        rc = main(["reduce", "--model", str(model_file), "--modes", "10",
                   "--out", str(red_path), "--report", str(report),
                   "--report-modes", "8"])
        assert rc == 0
        red = load_reduction(red_path)
        assert red.n_modes == 10
        header, data = load_csv_columns(report)
        assert header == ["mode", "full_rad_s", "reduced_rad_s", "relative_error"]
        assert data.shape == (8, 4)

    def test_report_on_a_free_chain(self, tmp_path):
        # the free chain's singular K leaves a rigid mode, which the report lists at 0 rad/s
        model, report = tmp_path / "chain.json", tmp_path / "freqs.csv"
        assert main(["generate-model", "--kind", "chain", "--params",
                     '{"n": 6, "grounded": false, "boundary_dofs": [5]}', "--out", str(model)]) == 0
        args = ["reduce", "--model", str(model), "--modes", "3", "--out", str(tmp_path / "red.npz"),
                "--report", str(report)]
        proc = run_python(f"import sys; from dynsub.cli import main; sys.exit(main({args!r}))")
        assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
        _, data = load_csv_columns(report)
        sub = load_system(model).substructures["chain"]
        expected = np.sqrt(np.clip(scipy.linalg.eigh(sub.stiffness, sub.mass, eigvals_only=True), 0.0, None))
        assert data[0, 1] <= 1e-6
        assert np.abs(data[1:, 1] / expected[1:len(data)] - 1).max() <= 1e-12
        # the rigid mode's round-off frequency and the reduced 0 compare as equal
        assert data[0, 2] == 0.0 and data[0, 3] == 0.0

    @pytest.mark.parametrize("modes, splits", [(30, True), (31, False)])
    def test_a_cut_inside_a_repeated_frequency_is_reported(self, tmp_path, capsys, modes, splits):
        # the 1000-DOF frame's 30th and 31st fixed-interface frequencies are equal
        model = tmp_path / "model.json"
        assert main(["generate-model", "--kind", "frame_analog", "--params", '{"n": 1000}',
                     "--out", str(model)]) == 0
        assert main(["reduce", "--model", str(model), "--modes", str(modes),
                     "--out", str(tmp_path / "red.npz")]) == 0
        lines = capsys.readouterr().out.splitlines()
        discarded = [line for line in lines if line.startswith("first discarded fixed-interface mode:")]
        retained = [line for line in lines if line.startswith("last retained fixed-interface mode:")]
        assert len(discarded) == 1
        if splits:
            assert discarded[0].endswith(" 2.90 Hz")
            assert retained == ["last retained fixed-interface mode: 2.90 Hz, equal to the first discarded one: "
                                "the cut splits a repeated frequency and keeps the modes nearest internal DOF 0"]
        else:
            assert retained == []

    def test_quick_start_reduce_imports_no_scipy_sparse(self, tmp_path):
        # the 200-DOF frame (196 internal DOFs) stays below the sparse reduction gate
        model = tmp_path / "model.json"
        assert main(["generate-model", "--kind", "frame_analog", "--out", str(model)]) == 0
        args = ["reduce", "--model", str(model), "--modes", "30", "--out", str(tmp_path / "red.npz")]
        proc = run_python(scipy_sparse_check(f"from dynsub.cli import main; assert main({args!r}) == 0"))
        assert proc.returncode == 0, proc.stderr

    def test_indefinite_internal_stiffness_exits_1(self, tmp_path, capsys):
        # the 1000-DOF frame with 1e6 taken from K[500, 500]: the sparse path reduced it
        # to a first mode of 0.369 Hz and exited 0
        model = tmp_path / "model.json"
        assert main(["generate-model", "--kind", "frame_analog", "--params", '{"n": 1000}',
                     "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        stiffness = doc["substructures"]["frame"]["stiffness"]
        entry = [i for i, rc in enumerate(zip(stiffness["rows"], stiffness["cols"])) if rc == (500, 500)]
        assert len(entry) == 1
        stiffness["values"][entry[0]] -= 1e6
        model.write_text(json.dumps(doc))
        assert main(["reduce", "--model", str(model), "--modes", "30", "--out", str(tmp_path / "red.npz")]) == 1
        assert capsys.readouterr().err.startswith("error: internal stiffness block is indefinite: ")
        assert not (tmp_path / "red.npz").exists()

    def test_bad_mode_count_fails_cleanly(self, tmp_path, model_file, capsys):
        rc = main(["reduce", "--model", str(model_file), "--modes", "99",
                   "--out", str(tmp_path / "red.npz")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestSimulateCommand:
    def test_partitioned_monolithic_and_compare(self, tmp_path, model_file):
        sig = tmp_path / "sig.csv"
        assert main(["generate-signal", "--kind", "multisine",
                     "--spec", '{"frequencies": [5, 11], "amplitudes": [1, 1], "noise_variance": 0.01}',
                     "--samples", "51", "--rate", "1000", "--channels", "4",
                     "--out", str(sig)]) == 0
        cfg = write_config(tmp_path / "cfg.json")
        out_p = tmp_path / "part.csv"
        out_m = tmp_path / "mono.csv"
        assert main(["simulate", "--model", str(model_file), "--config", str(cfg),
                     "--inputs", str(sig), "--out", str(out_p)]) == 0
        assert main(["simulate", "--model", str(model_file), "--config", str(cfg),
                     "--inputs", str(sig), "--out", str(out_m), "--monolithic"]) == 0
        header_p, _ = load_csv_columns(out_p)
        header_m, _ = load_csv_columns(out_m)
        assert "lambda0" in header_p and "lambda0" not in header_m
        summary = tmp_path / "cmp.csv"
        assert main(["compare", "traj", "--full", str(out_m),
                     "--reduced", str(out_p), "--out", str(summary)]) == 0
        lines = summary.read_text().strip().splitlines()
        assert lines[0] == "channel,mse,relative_mse"
        # hard vs soft coupling agree to solver precision on this linear+friction bench
        row = next(line for line in lines if line.startswith("frame.u39,"))
        assert float(row.split(",")[2]) < 1e-12

    def test_monolithic_follows_a_csr_model(self, tmp_path):
        # a 1000-DOF model file reads into CSR, so the reference is the sparse assembly
        model, sig, out = tmp_path / "model_1000.json", tmp_path / "sig.csv", tmp_path / "mono.csv"
        assert main(["generate-model", "--kind", "frame_analog", "--params", '{"n": 1000}',
                     "--out", str(model)]) == 0
        assert main(["generate-signal", "--kind", "multisine",
                     "--spec", '{"frequencies": [2, 5, 8], "amplitudes": [2, 2, 1], "noise_variance": 0.05}',
                     "--samples", "51", "--rate", "1000", "--channels", "4", "--seed", "1",
                     "--out", str(sig)]) == 0
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["simulate", "--model", str(model), "--config", str(cfg),
                     "--inputs", str(sig), "--out", str(out), "--monolithic"]) == 0
        system = load_system(model)
        inputs = input_tables(system, load_signals_csv(sig)[1])
        asys = assemble_global(system.substructures, system.topology, sparse=True)
        traj = solve_monolithic(asys, SolverConfig(**json.loads(cfg.read_text())), inputs)
        expected = tmp_path / "expected.csv"
        save_trajectory_csv(expected, traj, system)
        assert out.read_bytes() == expected.read_bytes()

    def test_partitioned_run_records_only_the_written_dofs(self, tmp_path, monkeypatch):
        # the 1000-DOF CSR frame: the CSV holds its four boundary DOFs, so the
        # writer gets a frame record of 8 columns, not 2000, and writes the
        # bytes of a run that records every DOF
        model, sig, out = tmp_path / "model_1000.json", tmp_path / "sig.csv", tmp_path / "part.csv"
        assert main(["generate-model", "--kind", "frame_analog", "--params", '{"n": 1000}',
                     "--out", str(model)]) == 0
        assert main(["generate-signal", "--kind", "multisine",
                     "--spec", '{"frequencies": [2, 5, 8], "amplitudes": [2, 2, 1], "noise_variance": 0.05}',
                     "--samples", "51", "--rate", "1000", "--channels", "4", "--seed", "1",
                     "--out", str(sig)]) == 0
        cfg = write_config(tmp_path / "cfg.json")
        written = []

        def save(path, traj, *args, **kwargs):
            written.append(traj)
            save_trajectory_csv(path, traj, *args, **kwargs)

        monkeypatch.setattr("dynsub.io.save_trajectory_csv", save)
        assert main(["simulate", "--model", str(model), "--config", str(cfg),
                     "--inputs", str(sig), "--out", str(out)]) == 0
        (traj,) = written
        assert {sid: record.shape for sid, record in traj.states.items()} == {"frame": (51, 8), "suspension": (51, 16)}
        system = load_system(model)
        whole = simulate(system, SolverConfig(**json.loads(cfg.read_text())),
                         input_tables(system, load_signals_csv(sig)[1]))
        assert whole.states["frame"].shape == (51, 2000)
        expected = tmp_path / "expected.csv"
        save_trajectory_csv(expected, whole, system)
        assert out.read_bytes() == expected.read_bytes()

    def test_generated_model_drives_channel_i_onto_wheel_i(self, tmp_path, model_file):
        # the file's input map is the only routing: its run equals the API run on a table
        # whose wheel columns hold the channels, as the acceptance tests build it
        cfg_path, sig, out = write_config(tmp_path / "cfg.json"), tmp_path / "sig.csv", tmp_path / "part.csv"
        cfg = SolverConfig(**json.loads(cfg_path.read_text()))
        times = np.arange(cfg.n_steps + 1) * cfg.dt
        channels = multisine_table(times, 4)
        save_signals_csv(sig, times, channels)
        assert main(["simulate", "--model", str(model_file), "--config", str(cfg_path),
                     "--inputs", str(sig), "--out", str(out), "--all-dofs"]) == 0
        assert json.loads(model_file.read_text())["inputs"] == {"suspension": {"0": 0, "1": 1, "2": 2, "3": 3}}
        subs, topology = frame_analog(n=40, boundary_dofs=(9, 19, 29, 39))
        system = CoupledSystem(substructures=subs, topology=topology, physical=("suspension",))
        susp = subs["suspension"]
        table = np.zeros((len(times), susp.n_dofs))
        table[:, list(susp.internal_dofs)] = channels
        traj = PartitionedSolver(system, cfg).run({"suspension": table})
        expected = tmp_path / "expected.csv"
        save_trajectory_csv(expected, traj, system, all_dofs=True)
        (header, data), (want_header, want) = load_csv_columns(out), load_csv_columns(expected)
        assert header == want_header and np.array_equal(data, want)

    @pytest.mark.parametrize("extra", [[], ["--monolithic"]], ids=["partitioned", "monolithic"])
    def test_empty_system_exits_1_naming_it(self, tmp_path, capsys, extra):
        model, out = tmp_path / "empty.json", tmp_path / "t.csv"
        model.write_text(json.dumps({"substructures": {}}))
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["simulate", "--model", str(model), "--config", str(cfg), "--out", str(out), *extra]) == 1
        assert capsys.readouterr().err == "error: the system has no substructures\n"
        assert not out.exists()

    def test_signals_for_a_system_without_an_input_map_exit_1_naming_its_inputs(self, tmp_path, capsys):
        # the chain's file routes no channel: its signals drove nothing, with exit 0
        model, sig, out = tmp_path / "chain.json", tmp_path / "sig.csv", tmp_path / "t.csv"
        assert main(["generate-model", "--kind", "chain", "--out", str(model)]) == 0
        assert json.loads(model.read_text())["inputs"] == {}
        save_signals_csv(sig, np.arange(51) * 1e-3, np.ones((51, 1)))
        cfg = write_config(tmp_path / "cfg.json")
        capsys.readouterr()
        for extra in ([], ["--monolithic"]):
            assert main(["simulate", "--model", str(model), "--config", str(cfg), "--inputs", str(sig),
                         "--out", str(out), *extra]) == 1
            assert capsys.readouterr().err == (f"error: signals CSV {sig} drives nothing: field 'inputs' of "
                                               f"system file {model} routes no channel to a DOF\n")
            assert not out.exists()

    def test_a_linear_substructure_without_boundary_dofs_exports_every_dof(self, tmp_path):
        # the chain has no boundary DOF: its CSV held only the time column
        model, sig = tmp_path / "chain.json", tmp_path / "sig.csv"
        assert main(["generate-model", "--kind", "chain", "--out", str(model)]) == 0
        set_json_entry(model, ["inputs"], {"chain": {"0": 0}})
        save_signals_csv(sig, np.arange(51) * 1e-3, np.ones((51, 1)))
        cfg = write_config(tmp_path / "cfg.json")
        for extra in ([], ["--monolithic"]):
            outs = [tmp_path / f"t{len(extra)}{len(dofs)}.csv" for dofs in ([], ["--all-dofs"])]
            for out, dofs in zip(outs, ([], ["--all-dofs"])):
                assert main(["simulate", "--model", str(model), "--config", str(cfg), "--inputs", str(sig),
                             "--out", str(out), *extra, *dofs]) == 0
            assert outs[0].read_text().splitlines()[0] == "time," + ",".join(
                f"chain.{kind}{dof}" for dof in range(3) for kind in "uv")
            assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_subcycles_flag(self, tmp_path, model_file):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "traj10.csv"
        rc = main(["simulate", "--model", str(model_file), "--config", str(cfg),
                   "--out", str(out), "--subcycles", "10"])
        assert rc == 0

    def test_inner_rate_csv_decimated_onto_the_coupled_grid(self, tmp_path, model_file):
        # a 10 kHz CSV and its every-10th row drive the monolithic reference
        # alike, on the wheels and on a frame DOF
        set_json_entry(model_file, ["inputs", "frame"], {"10": 0})
        fine = tmp_path / "fine.csv"
        assert main(["generate-signal", "--kind", "multisine",
                     "--spec", '{"frequencies": [5, 11], "amplitudes": [1, 1], "noise_variance": 0.01}',
                     "--samples", "501", "--rate", "10000", "--channels", "4",
                     "--out", str(fine)]) == 0
        times, channels = load_signals_csv(fine)
        coarse = tmp_path / "coarse.csv"
        save_signals_csv(coarse, times[::10], channels[::10])
        cfg = write_config(tmp_path / "cfg.json")
        outs = []
        for sig in (fine, coarse):
            out = tmp_path / f"mono_{sig.stem}.csv"
            assert main(["simulate", "--model", str(model_file), "--config", str(cfg),
                         "--inputs", str(sig), "--out", str(out),
                         "--monolithic", "--subcycles", "10"]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_divergence_exit_code(self, tmp_path, capsys):
        model = tmp_path / "unstable.json"
        assert main(["generate-model", "--kind", "chain",
                     "--params", '{"n": 1, "m": 1, "k": 100, "boundary_dofs": [0]}',
                     "--out", str(model)]) == 0
        # the generator refuses a negative spring, a system file holds any matrix:
        # turn the spring negative and route a constant force onto the single DOF
        doc = json.loads(model.read_text())
        assert doc["substructures"]["chain"]["stiffness"]["values"] == [100.0]
        doc["substructures"]["chain"]["stiffness"]["values"] = [-100.0]
        doc["inputs"] = {"chain": {"0": 0}}
        model.write_text(json.dumps(doc))
        sig = tmp_path / "step.csv"
        n = 501
        lines = ["time,ch0"] + [f"{i * 0.1},1.0" for i in range(n)]
        sig.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "cfg.json", dt=0.1, duration=50.0)
        rc = main(["simulate", "--model", str(model), "--config", str(cfg),
                   "--inputs", str(sig), "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "diverged at step" in err

    def test_mac_compare_from_artifacts(self, tmp_path, model_file):
        red_path = tmp_path / "red.npz"
        assert main(["reduce", "--model", str(model_file), "--modes", "20",
                     "--out", str(red_path)]) == 0
        # full-model shapes written as a CSV matrix (one shape per column)
        from dynsub.reduction import mode_shapes

        system = load_system(model_file)
        shapes = mode_shapes(system.substructures["frame"], 10)
        full_csv = tmp_path / "full_modes.csv"
        np.savetxt(full_csv, shapes, delimiter=",", header=",".join(f"m{i}" for i in range(10)), comments="")
        out = tmp_path / "mac.csv"
        rc = main(["compare", "mac", "--full", str(full_csv),
                   "--reduced", str(red_path), "--out", str(out)])
        assert rc == 0
        values = np.loadtxt(out, delimiter=",")
        assert values.shape == (10, 10)
        assert np.all(np.diag(values) > 0.99)


class TestRunExperimentCommand:
    def test_default_small_experiment(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "modes": 8, "dt": 1e-3, "duration": 0.05,
            "model": {"n": 40, "boundary_dofs": [9, 19, 29, 39]},
        }))
        out_dir = tmp_path / "out"
        rc = main(["run-experiment", "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert "offline_time" in report and "online_time" in report
        assert (out_dir / "trajectory_partitioned.csv").exists()
        assert (out_dir / "trajectory_monolithic.csv").exists()

    @pytest.mark.parametrize("model, flagged", [
        ({"n": 10000}, True),  # the longer chain's spectrum slides down: last retained mode 1.48 Hz
        ({"n": 10000, "k": 2.5e6, "m_light": 0.005, "heavy_every": 80}, False),  # refined: 14.3 Hz
    ], ids=["plain", "refined"])
    def test_cut_inside_the_excitation_band_is_flagged(self, tmp_path, capsys, model, flagged):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"duration": 0.01, "run_monolithic": False, "model": model}))
        assert main(["run-experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())["model"]
        assert report["excitation_max_hz"] == 8.0  # the default multisine's highest frequency
        assert report["cut_inside_band"] is (report["first_discarded_frequency_hz"] <= 8.0) is flagged
        assert ("warning: the reduction discards a mode" in capsys.readouterr().err) is flagged


@pytest.mark.parametrize("command", [
    "generate-model", "generate-signal", "simulate", "simulate-monolithic", "compare",
])
def test_quick_start_commands_import_no_scipy_sparse(tmp_path, command):
    # the 200-DOF quick start stays dense end to end, so no command pays
    # for importing scipy.sparse
    model, signals, solver = tmp_path / "model.json", tmp_path / "signals.csv", tmp_path / "solver.json"
    write_config(solver)
    simulate = ["simulate", "--model", str(model), "--config", str(solver), "--inputs", str(signals)]
    commands = {
        "generate-model": ["generate-model", "--kind", "frame_analog", "--out", str(model)],
        "generate-signal": ["generate-signal", "--kind", "multisine", "--spec",
                            '{"frequencies": [2, 5, 8], "amplitudes": [2, 2, 1], "noise_variance": 0.05}',
                            "--samples", "51", "--rate", "1000", "--channels", "4", "--out", str(signals)],
        "simulate": simulate + ["--out", str(tmp_path / "part.csv")],
        "simulate-monolithic": simulate + ["--out", str(tmp_path / "mono.csv"), "--monolithic"],
        "compare": ["compare", "traj", "--full", str(tmp_path / "mono.csv"),
                    "--reduced", str(tmp_path / "part.csv"), "--out", str(tmp_path / "mse.csv")],
    }
    for name, args in commands.items():  # the files the command under test reads
        if name == command:
            break
        assert main(args) == 0, name
    args = commands[command]
    proc = run_python(scipy_sparse_check(f"from dynsub.cli import main; assert main({args!r}) == 0"))
    assert proc.returncode == 0, proc.stderr
