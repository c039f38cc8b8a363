"""End-to-end runs of the command-line driver."""

import inspect
import json

import numpy as np
import pytest

from dynsub import SolverConfig, assemble_global, solve_monolithic
from dynsub.cli import main
from dynsub.generators import chain_substructure, frame_analog
from dynsub.io import (
    input_tables, load_csv_columns, load_reduction, load_signals_csv, load_system, save_signals_csv,
    save_trajectory_csv,
)
from dynsub.signals import multisine_with_noise_channels

from conftest import run_python, scipy_sparse_check, set_json_entry


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
        chain = load_system(out)[0].substructures["chain"]
        assert np.array_equal(chain.stiffness, [[2, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_single_mass_chain(self, tmp_path):
        out = tmp_path / "chain1.json"
        assert main(["generate-model", "--kind", "chain",
                     "--params", '{"n": 1}', "--out", str(out)]) == 0
        assert load_system(out)[0].substructures["chain"].mass.shape == (1, 1)

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
     ("substructure 'frame'", "stiffness"),
     _setting("substructures", "frame", "stiffness", "values", 0, value=float("nan"))),
    (["simulate", "--model", "{model}", "--config", "{tmp}/good.json", "--out", "{tmp}/t.csv", "--monolithic"],
     ("substructure 'frame'", "stiffness"),
     _setting("substructures", "frame", "stiffness", "values", 0, value=float("inf"))),
    (["simulate", "--model", "{model}", "--config", "{tmp}/good.json", "--out", "{tmp}/t.csv", "--monolithic"],
     ("substructure 'suspension' element 1", "c3"),
     _setting("substructures", "suspension", "elements", 1, "c3", value=float("inf"))),
    (["simulate", "--model", "{model}", "--config", "{tmp}/good.json", "--out", "{tmp}/t.csv"],
     ("substructure 'suspension'", "boundary_mass"),
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
     ("substructure 'frame'", "dampign"), _misspelled_frame_damping),
    (["simulate", "--model", "{model}", "--config", "{tmp}/good.json", "--out", "{tmp}/t.csv"],
     ("substructure 'frame' stiffness", "vals"), _setting("substructures", "frame", "stiffness", "vals", value=[])),
    (["simulate", "--model", "{model}", "--config", "{tmp}/good.json", "--out", "{tmp}/t.csv"],
     ("substructure 'suspension'", "boundry_mass"), _setting("substructures", "suspension", "boundry_mass", value=0.5)),
    (["simulate", "--model", "{model}", "--config", "{tmp}/good.json", "--out", "{tmp}/t.csv"],
     ("substructure 'suspension' element 2", "k_1"),
     _setting("substructures", "suspension", "elements", 2, "k_1", value=35.0)),
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
          "system_input_key_with_leading_zero", "system_input_key_arabic_indic_digit",
          "frame_fractional_heavy_every", "experiment_fractional_heavy_every", "frame_negative_heavy_every",
          "frame_fractional_boundary_dof", "frame_string_m_light", "frame_string_k", "frame_null_rayleigh_alpha",
          "frame_float_n_suspensions", "frame_unknown_coefficient", "frame_coefficients_not_an_object",
          "chain_fractional_boundary_dof", "chain_string_grounded", "chain_string_m", "chain_null_c",
          "frame_negative_k", "frame_zero_m_light", "frame_negative_m_heavy", "frame_infinite_rayleigh_alpha",
          "chain_negative_k", "chain_zero_m", "signal_nan_frequency", "signal_infinite_amplitude",
          "signal_nan_rate", "signal_nan_noise_variance", "experiment_negative_noise_variance",
          "experiment_infinite_noise_variance", "experiment_nan_sine_frequency"])
def test_malformed_input_exits_1_naming_the_field(tmp_path, model_file, capsys, argv, key, edit):
    """``key`` is the name the message must quote, or (location, name) for a location it must also lead with."""
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
    where, key = key if isinstance(key, tuple) else ("", key.replace("{tmp}", str(tmp_path)))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}") and repr(key) in err and "RuntimeWarning" not in err


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
        system, input_map = load_system(model)
        inputs = input_tables(system, input_map, load_signals_csv(sig)[1])
        asys = assemble_global(system.substructures, system.topology, sparse=True)
        traj = solve_monolithic(asys, SolverConfig(**json.loads(cfg.read_text())), inputs)
        expected = tmp_path / "expected.csv"
        save_trajectory_csv(expected, traj, system)
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("extra", [[], ["--monolithic"]], ids=["partitioned", "monolithic"])
    def test_empty_system_exits_1_naming_it(self, tmp_path, capsys, extra):
        model, out = tmp_path / "empty.json", tmp_path / "t.csv"
        model.write_text(json.dumps({"substructures": {}}))
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["simulate", "--model", str(model), "--config", str(cfg), "--out", str(out), *extra]) == 1
        assert capsys.readouterr().err == "error: the system has no substructures\n"
        assert not out.exists()

    def test_subcycles_flag(self, tmp_path, model_file):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "traj10.csv"
        rc = main(["simulate", "--model", str(model_file), "--config", str(cfg),
                   "--out", str(out), "--subcycles", "10"])
        assert rc == 0

    def test_inner_rate_csv_decimated_onto_the_coupled_grid(self, tmp_path, model_file):
        # a 10 kHz CSV and its every-10th row drive the monolithic reference
        # alike, on the wheels and on a frame DOF
        set_json_entry(model_file, ["inputs"], {"frame": {"10": 0}})
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

        system, _ = load_system(model_file)
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
