"""File formats: system JSON, reduction npz, trajectory and signal CSVs."""

import dataclasses
import json
import re

import numpy as np
import pytest

from dynsub import CouplingTopology, ModelError, SolverConfig, reduce as cb_reduce, simulate
from dynsub.generators import chain_substructure, frame_analog
from dynsub.io import (
    input_tables,
    load_csv_columns,
    load_reduction,
    load_signals_csv,
    load_system,
    save_reduction,
    save_signals_csv,
    save_system,
    save_trajectory_csv,
)
from dynsub.models import NonlinearSubstructure, dense
from dynsub.solver import CoupledSystem

from conftest import set_json_entry


def assert_same_matrices(back, orig):
    assert back.sparse == orig.sparse
    for name in ("mass", "damping", "stiffness"):
        assert np.array_equal(dense(getattr(back, name)), dense(getattr(orig, name))), name
    assert back.internal_dofs == orig.internal_dofs
    assert back.boundary_dofs == orig.boundary_dofs


class TestSystemRoundTrip:
    def test_dense_and_suspension_round_trip(self, tmp_path):
        subs, topology = frame_analog(n=24, boundary_dofs=(5, 11, 17, 23))
        path = tmp_path / "model.json"
        save_system(path, subs, topology, input_map={"frame": {3: 0}}, physical=("suspension",))
        system, input_map = load_system(path)
        assert set(system.substructures) == {"frame", "suspension"}
        assert_same_matrices(system.substructures["frame"], subs["frame"])
        susp = system.substructures["suspension"]
        assert isinstance(susp, NonlinearSubstructure)
        assert susp.elements == subs["suspension"].elements
        assert system.topology.constraints == topology.constraints
        assert system.physical_ids() == ("suspension",)
        assert input_map == {"frame": {3: 0}}
        # a Craig-Bampton reduced frame (dense matrices) and a damped chain
        red = cb_reduce(subs["frame"], 6).as_substructure()
        chain = chain_substructure(n=5, m=2.0, k=3.0, c=0.25, boundary_dofs=(4,))
        save_system(path, {"reduced": red, "chain": chain}, CouplingTopology(()))
        system, _ = load_system(path)
        assert_same_matrices(system.substructures["reduced"], red)
        assert_same_matrices(system.substructures["chain"], chain)

    def test_default_frame_file_is_compact(self, tmp_path):
        subs, topology = frame_analog(n=1000, k=2.5e5)
        path = tmp_path / "model.json"
        save_system(path, subs, topology, physical=("suspension",))
        assert path.stat().st_size < 1_000_000
        system, _ = load_system(path)
        assert_same_matrices(system.substructures["frame"], subs["frame"])

    def test_duplicate_triplets_sum_and_damping_defaults_to_zero(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"substructures": {"s": {
            "kind": "linear", "n_dofs": 2, "boundary_dofs": [1],
            "mass": {"rows": [0, 1, 1], "cols": [0, 1, 1], "values": [1.0, 0.5, 0.5]},
            "stiffness": {"rows": [0, 0, 1, 1], "cols": [0, 1, 0, 1], "values": [2, -1, -1, 1]},
        }}}))
        sub = load_system(path)[0].substructures["s"]
        assert np.array_equal(sub.mass, np.eye(2))
        assert np.array_equal(sub.stiffness, [[2, -1], [-1, 1]])
        assert np.array_equal(sub.damping, np.zeros((2, 2)))

    @pytest.mark.parametrize("field, value, message", [
        ("stiffness", {"rows": [0, 3], "cols": [0, 0], "values": [1.0, 1.0]}, r"'chain' stiffness.*\[0, 3\)"),
        ("stiffness", {"rows": [0, -1], "cols": [0, 2], "values": [1.0, 1.0]}, r"'chain' stiffness.*\[0, 3\)"),
        ("damping", {"rows": [0, 1], "cols": [0], "values": [1.0, 1.0]}, "'chain' damping.*equal length"),
        ("mass", [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "'chain' mass.*'rows'"),
        ("n_dofs", None, "'chain'.*'n_dofs'"),
        ("mass", {"rows": [[0], [1, 2]], "cols": [0, 1], "values": [1.0, 1.0]}, r"'chain' mass.*integers in \[0, 3\)"),
        ("n_dofs", True, "'chain'.*n_dofs must be a positive integer, got True"),
    ], ids=["out_of_range", "negative", "unequal_lengths", "dense_list", "missing_n_dofs", "ragged", "true_n_dofs"])
    def test_malformed_record_rejected(self, tmp_path, field, value, message):
        path = tmp_path / "model.json"
        save_system(path, {"chain": chain_substructure(n=3)}, CouplingTopology(()))
        doc = json.loads(path.read_text())
        record = doc["substructures"]["chain"]
        if value is None:
            del record[field]
        else:
            record[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match=message):
            load_system(path)

    @pytest.mark.parametrize("path, value, field", [
        (("substructures", "suspension", "relative_motion"), "no", "relative_motion"),
        (("substructures", "suspension", "elements", 0, "k1"), "35", "k1"),
        (("substructures", "suspension", "boundary_mass"), "x", "boundary_mass"),
        (("coupling", 0, 0), ["frame", "x", 1], "coupling"),
        (("coupling", 0, 0), ["frame", 23], "coupling"),
        (("inputs",), {"frame": {"a": 0}}, "inputs"),
        (("substructures", "frame", "boundary_dofs"), ["a"], "boundary_dofs"),
        (("physical",), [["suspension"]], "physical"),
        # a key that no field of the record has, at each of the five record levels
        (("extra",), 1, "extra"),
        (("substructures", "frame", "dampign"), {"rows": [], "cols": [], "values": []}, "dampign"),
        (("substructures", "frame", "mass", "vals"), [], "vals"),
        (("substructures", "suspension", "boundry_mass"), 0.5, "boundry_mass"),
        (("substructures", "suspension", "elements", 0, "k_1"), 35.0, "k_1"),
    ], ids=["relative_motion", "k1", "boundary_mass", "coupling_dof", "coupling_sign", "inputs_dof",
            "boundary_dofs", "physical", "unknown_top_level_key", "unknown_linear_key", "unknown_triplet_key",
            "unknown_suspension_key", "unknown_element_key"])
    def test_wrongly_typed_field_rejected_naming_it(self, tmp_path, path, value, field):
        subs, topology = frame_analog(n=24, boundary_dofs=(5, 11, 17, 23))
        model = tmp_path / "model.json"
        save_system(model, subs, topology, physical=("suspension",))
        set_json_entry(model, path, value)
        with pytest.raises(ModelError, match=repr(field)):
            load_system(model)

    @pytest.mark.parametrize("path, value, message", [
        (("coupling", 0, 0), ["frame", 5.9, 1], "field 'coupling': constraint 0: field 'dof' must be an integer"),
        (("coupling", 0, 0), ["frame", 39, 1], "field 'coupling': constraint 0 references DOF 39 of 'frame'"),
        (("physical",), ["nosuch"], "field 'physical' must be a list of ids of its substructures, got ['nosuch']"),
        (("inputs",), {"frame": {"-1": 0}}, "field 'inputs' of 'frame' must map DOFs below 24 to channel numbers"),
        (("inputs",), {"nosuch": {"0": 0}}, "field 'inputs' references unknown substructure 'nosuch'"),
    ], ids=["float_coupling_dof", "coupling_dof_past_end", "unknown_physical_id", "negative_input_dof",
            "unknown_input_id"])
    def test_file_held_to_the_api_rules(self, tmp_path, path, value, message):
        # the system and input-map checks that API callers meet, led by the file and the field
        subs, topology = frame_analog(n=24, boundary_dofs=(5, 11, 17, 23))
        model = tmp_path / "model.json"
        save_system(model, subs, topology, physical=("suspension",))
        set_json_entry(model, path, value)
        with pytest.raises(ModelError, match=re.escape(f"system file {model}: {message}")):
            load_system(model)

    @pytest.mark.parametrize("inputs, key", [
        ({"5": 0, "05": 1}, "05"), ({"05": 1, "5": 0}, "05"), ({"05": 0}, "05"), ({"\u0665": 0}, "\u0665"),
        ({"+5": 0}, "+5"), ({" 5": 0}, " 5"), ({"5_0": 0}, "5_0"),
    ], ids=["leading_zero_after", "leading_zero_before", "leading_zero_alone", "arabic_indic_digit",
            "plus_sign", "space", "underscore"])
    def test_input_key_must_be_the_decimal_form_of_its_dof(self, tmp_path, inputs, key):
        # int() reads each of these keys as a DOF, so two of them could name one DOF silently
        subs, topology = frame_analog(n=24, boundary_dofs=(5, 11, 17, 23))
        model = tmp_path / "model.json"
        save_system(model, subs, topology, physical=("suspension",))
        set_json_entry(model, ("inputs",), {"frame": inputs})
        message = f"system file {model}: field 'inputs' of 'frame' must map DOFs below 24 to channel numbers, got {key!r}"
        with pytest.raises(ModelError, match=re.escape(message)):
            load_system(model)

    def test_input_keys_in_decimal_form_are_dofs(self, tmp_path):
        subs, topology = frame_analog(n=24, boundary_dofs=(5, 11, 17, 23))
        model = tmp_path / "model.json"
        save_system(model, subs, topology, input_map={"frame": {0: 1, 5: 0, 23: 2}}, physical=("suspension",))
        assert load_system(model)[1] == {"frame": {0: 1, 5: 0, 23: 2}}

    @pytest.mark.parametrize("n", [200, 1000])
    def test_a_loaded_frame_file_is_written_back_byte_for_byte(self, tmp_path, n):
        subs, topology = frame_analog(n=n)
        path, again = tmp_path / "model.json", tmp_path / "again.json"
        save_system(path, subs, topology, input_map={"frame": {3: 0}}, physical=("suspension",))
        system, input_map = load_system(path)
        save_system(again, system.substructures, system.topology, input_map, system.physical)
        assert again.read_bytes() == path.read_bytes()

    def test_element_channel_defaults_to_its_index(self, tmp_path):
        subs, topology = frame_analog(n=24, boundary_dofs=(5, 11, 17, 23))
        path = tmp_path / "model.json"
        save_system(path, subs, topology)
        doc = json.loads(path.read_text())
        for element in doc["substructures"]["suspension"]["elements"]:
            del element["base_excitation_channel"]
        path.write_text(json.dumps(doc))
        susp = load_system(path)[0].substructures["suspension"]
        assert [e.base_excitation_channel for e in susp.elements] == [0, 1, 2, 3]
        assert susp.elements == subs["suspension"].elements

    def test_substructures_must_be_a_mapping(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"substructures": [{"kind": "linear"}]}))
        with pytest.raises(ModelError, match="'substructures'"):
            load_system(path)


class TestReductionRoundTrip:
    def test_npz_round_trip(self, tmp_path):
        sub = chain_substructure(n=12, m=1.0, k=2.0, boundary_dofs=(11,))
        red = cb_reduce(sub, 4)
        path = tmp_path / "red.npz"
        save_reduction(path, red)
        back = load_reduction(path)
        assert np.allclose(back.transform, red.transform)
        assert np.allclose(back.reduced_mass, red.reduced_mass)
        assert np.allclose(back.retained_frequencies, red.retained_frequencies)
        assert back.boundary_dofs == red.boundary_dofs
        assert back.truncation_frequency == pytest.approx(red.truncation_frequency)

    def test_one_array_per_field_in_field_order(self, tmp_path):
        red = cb_reduce(chain_substructure(n=12, boundary_dofs=(3, 11)), 4)
        path = tmp_path / "red.npz"
        save_reduction(path, red)
        names = [field.name for field in dataclasses.fields(red)]
        with np.load(path) as data:
            assert list(data.keys()) == names
            assert data["boundary_dofs"].dtype == int
        back = load_reduction(path)
        for name in names:
            assert np.asarray(getattr(back, name)).tobytes() == np.asarray(getattr(red, name)).tobytes(), name
        assert type(back.internal_dofs) is tuple and type(back.internal_dofs[0]) is int

    def test_full_basis_truncation_none(self, tmp_path):
        sub = chain_substructure(n=6, boundary_dofs=(5,))
        red = cb_reduce(sub, 5)
        path = tmp_path / "red.npz"
        save_reduction(path, red)
        assert load_reduction(path).truncation_frequency is None


class TestTrajectoryCsv:
    def test_round_trip_and_column_selection(self, tmp_path, desk):
        cfg = SolverConfig(dt=1e-3, duration=0.01)
        rng = np.random.default_rng(0)
        inputs = {"suspension": rng.standard_normal((cfg.n_steps + 1, 8))}
        traj = simulate(desk, cfg, inputs)
        path = tmp_path / "traj.csv"
        save_trajectory_csv(path, traj, desk)
        header, data = load_csv_columns(path)
        assert header[0] == "time"
        assert "frame.u49" in header and "suspension.v0" in header
        assert "lambda0" in header and "lambda3" in header
        # internal frame DOFs are not exported by default
        assert "frame.u0" not in header
        col = header.index("suspension.u0")
        assert np.allclose(data[:, col], traj.displacement("suspension", 0))
        assert np.allclose(data[:, 0], traj.times)

    def test_all_dofs_export(self, tmp_path, desk):
        cfg = SolverConfig(dt=1e-3, duration=0.005)
        traj = simulate(desk, cfg)
        path = tmp_path / "traj.csv"
        save_trajectory_csv(path, traj, desk, all_dofs=True)
        header, _ = load_csv_columns(path)
        assert "frame.u0" in header and "frame.v199" in header


class TestSignalsCsv:
    def test_round_trip(self, tmp_path):
        times = np.arange(100) * 1e-3
        chans = np.column_stack([np.sin(times), np.cos(times)])
        path = tmp_path / "sig.csv"
        save_signals_csv(path, times, chans)
        t_back, c_back = load_signals_csv(path)
        assert np.allclose(t_back, times)
        assert np.allclose(c_back, chans)

    def test_wrong_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ModelError, match="time"):
            load_signals_csv(path)


class TestInputTables:
    def test_suspension_channels_routed_to_wheels(self, desk):
        channels = np.arange(30, dtype=float).reshape(10, 3)
        # base_excitation_channel defaults to the element index: need 4 channels
        channels = np.column_stack([channels, np.ones(10)])
        tables = input_tables(desk, {}, channels)
        susp = tables["suspension"]
        assert susp.shape == (10, 8)
        assert np.array_equal(susp[:, 0], channels[:, 0])
        assert np.array_equal(susp[:, 3], channels[:, 3])
        assert np.all(susp[:, 4:] == 0.0)

    def test_explicit_map_adds_forces(self, desk):
        channels = np.ones((5, 4))
        tables = input_tables(desk, {"frame": {7: 2}}, channels)
        assert np.array_equal(tables["frame"][:, 7], channels[:, 2])

    @pytest.mark.parametrize("input_map, message", [
        ({"nosuch": {0: 0}}, "input map references unknown substructure 'nosuch'"),
        ({"frame": {-1: 0}}, "input map of 'frame' must map DOFs below 200 to channel numbers, got -1: 0"),
        ({"frame": {200: 0}}, "input map of 'frame' must map DOFs below 200 to channel numbers, got 200: 0"),
        ({"frame": {2.5: 0}}, "input map of 'frame' must map DOFs below 200 to channel numbers, got 2.5: 0"),
        ({"frame": {7: -1}}, "input map of 'frame' must map DOFs below 200 to channel numbers, got 7: -1"),
    ], ids=["unknown_id", "negative_dof", "dof_past_end", "float_dof", "negative_channel"])
    def test_api_map_held_to_the_file_rules(self, desk, input_map, message):
        # before any indexing: numpy would drive the last DOF for -1 and the last channel for -1
        with pytest.raises(ModelError, match=re.escape(message)):
            input_tables(desk, input_map, np.ones((5, 4)))

    def test_missing_channel_reported(self, desk):
        with pytest.raises(ModelError, match="channel"):
            input_tables(desk, {}, np.ones((5, 2)))
