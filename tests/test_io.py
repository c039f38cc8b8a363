"""File formats: system JSON, reduction npz, trajectory and signal CSVs."""

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

import dynsub.io
from dynsub import (
    CouplingTopology, ModelError, SolverConfig, SolverError, assemble_global, reduce as cb_reduce, simulate,
    solve_monolithic,
)
from dynsub.coupling import CouplingError
from dynsub.generators import (
    SUSPENSION_DEFAULTS, chain_substructure, frame_analog, suspension_substructure, wheel_inputs,
)
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
from dynsub.models import NonlinearSubstructure, SuspensionElement, dense
from dynsub.reduction import reduced_topology
from dynsub.solver import CoupledSystem

from conftest import set_json_entry


def assert_same_matrices(back, orig):
    assert back.sparse == orig.sparse
    for name in ("mass", "damping", "stiffness"):
        assert np.array_equal(dense(getattr(back, name)), dense(getattr(orig, name))), name
    assert back.internal_dofs == orig.internal_dofs
    assert back.boundary_dofs == orig.boundary_dofs


_ROWS = r"'chain' stiffness: field 'rows' must hold integers in \[0, 3\), "


def small_desk(**fields) -> CoupledSystem:
    """The 24-DOF frame analog and its suspension bank, the bank physical, with ``fields`` of CoupledSystem set."""
    subs, topology = frame_analog(n=24, boundary_dofs=(5, 11, 17, 23))
    return CoupledSystem(**{"substructures": subs, "topology": topology, "physical": ("suspension",), **fields})


class TestSystemRoundTrip:
    def test_dense_and_suspension_round_trip(self, tmp_path):
        written = small_desk(input_map={"suspension": {3: 1, 0: 0}, "frame": {3: 2}})
        subs = written.substructures
        path = tmp_path / "model.json"
        save_system(path, written)
        system = load_system(path)
        assert set(system.substructures) == {"frame", "suspension"}
        assert_same_matrices(system.substructures["frame"], subs["frame"])
        susp = system.substructures["suspension"]
        assert isinstance(susp, NonlinearSubstructure)
        assert susp.elements == subs["suspension"].elements
        assert system.topology.constraints == written.topology.constraints
        assert system.physical_ids() == ("suspension",)
        # the map reads back in the writer's order, of ids and of DOFs
        assert system.input_map == {"suspension": {3: 1, 0: 0}, "frame": {3: 2}}
        assert [list(chans) for chans in system.input_map.values()] == [[3, 0], [3]]
        assert list(system.input_map) == ["suspension", "frame"]
        # a Craig-Bampton reduced frame (dense matrices) and a damped chain, with the default empty map
        red = cb_reduce(subs["frame"], 6).as_substructure()
        chain = chain_substructure(n=5, m=2.0, k=3.0, c=0.25, boundary_dofs=(4,))
        save_system(path, CoupledSystem(substructures={"reduced": red, "chain": chain}, topology=CouplingTopology(())))
        system = load_system(path)
        assert system.input_map == {}
        assert_same_matrices(system.substructures["reduced"], red)
        assert_same_matrices(system.substructures["chain"], chain)

    def test_default_frame_file_is_compact(self, tmp_path):
        subs, topology = frame_analog(n=1000, k=2.5e5)
        path = tmp_path / "model.json"
        save_system(path, CoupledSystem(substructures=subs, topology=topology, physical=("suspension",)))
        assert path.stat().st_size < 1_000_000
        system = load_system(path)
        assert_same_matrices(system.substructures["frame"], subs["frame"])

    def test_duplicate_triplets_sum_and_damping_defaults_to_zero(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"substructures": {"s": {
            "kind": "linear", "n_dofs": 2, "boundary_dofs": [1],
            "mass": {"rows": [0, 1, 1], "cols": [0, 1, 1], "values": [1.0, 0.5, 0.5]},
            "stiffness": {"rows": [0, 0, 1, 1], "cols": [0, 1, 0, 1], "values": [2, -1, -1, 1]},
        }}}))
        sub = load_system(path).substructures["s"]
        assert np.array_equal(sub.mass, np.eye(2))
        assert np.array_equal(sub.stiffness, [[2, -1], [-1, 1]])
        assert np.array_equal(sub.damping, np.zeros((2, 2)))

    @pytest.mark.parametrize("field, value, message", [
        ("stiffness", {"rows": [0, 3], "cols": [0, 0], "values": [1.0, 1.0]}, _ROWS + r"got 3 at position 1$"),
        ("stiffness", {"rows": [0, -1], "cols": [0, 2], "values": [1.0, 1.0]}, _ROWS + r"got -1 at position 1$"),
        ("damping", {"rows": [0, 1], "cols": [0], "values": [1.0, 1.0]}, "'chain' damping.*equal length"),
        ("mass", [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "'chain' mass.*'rows'"),
        ("n_dofs", None, "'chain'.*'n_dofs'"),
        ("mass", {"rows": [[0], [1, 2]], "cols": [0, 1], "values": [1.0, 1.0]},
         r"'chain' mass: field 'rows' must hold integers in \[0, 3\), got \[0\] at position 0$"),
        ("n_dofs", True, "'chain': field 'n_dofs' must be an integer, got True$"),
        # what np.asarray would misread: a bool beside an int, a bool array's JSON, and an int no intp holds
        ("stiffness", {"rows": [True, 2], "cols": [0, 2], "values": [1.0, 1.0]}, _ROWS + r"got True at position 0$"),
        ("stiffness", {"rows": np.array([True]).tolist(), "cols": [0], "values": [1.0]},
         _ROWS + r"got True at position 0$"),
        ("stiffness", {"rows": [2.0], "cols": [2], "values": [1.0]}, _ROWS + r"got 2.0 at position 0$"),
        ("stiffness", {"rows": ["2"], "cols": [2], "values": [1.0]}, _ROWS + r"got '2' at position 0$"),
        ("stiffness", {"rows": [10**30], "cols": [2], "values": [1.0]}, _ROWS + rf"got {10**30} at position 0$"),
        ("stiffness", {"rows": [0], "cols": [0], "values": [True]},
         r"'chain' stiffness: field 'values' must hold float-range numbers, got True at position 0$"),
        ("stiffness", {"rows": [0], "cols": [0], "values": [10**400]},
         r"'chain' stiffness: field 'values' must hold float-range numbers, got 1000.*0000 at position 0$"),
        # each list is named with the position and the entry of its first bad entry
        ("stiffness", {"rows": [0, 1, 2, 0, 1, 2], "cols": [0, 1, 2, 0, 1, 999], "values": [1.0] * 6},
         r"'chain' stiffness: field 'cols' must hold integers in \[0, 3\), got 999 at position 5$"),
        ("mass", {"rows": [0, 1, 2], "cols": [0, 1, 2], "values": [1.0, 1.0, "x"]},
         r"'chain' mass: field 'values' must hold float-range numbers, got 'x' at position 2$"),
    ], ids=["out_of_range", "negative", "unequal_lengths", "dense_list", "missing_n_dofs", "ragged", "true_n_dofs",
            "bool_beside_an_int", "bool_array", "float_row", "string_row", "huge_row", "bool_value", "huge_value",
            "col_out_of_range", "string_value"])
    def test_malformed_record_rejected(self, tmp_path, field, value, message):
        path = tmp_path / "model.json"
        save_system(path, CoupledSystem(substructures={"chain": chain_substructure(3)}, topology=CouplingTopology(())))
        doc = json.loads(path.read_text())
        record = doc["substructures"]["chain"]
        if value is None:
            del record[field]
        else:
            record[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match=message) as raised:
            load_system(path)
        assert str(raised.value).startswith(f"system file {path}: substructure 'chain'")

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
        model = tmp_path / "model.json"
        save_system(model, small_desk())
        set_json_entry(model, path, value)
        with pytest.raises(ModelError, match=repr(field)):
            load_system(model)

    @pytest.mark.parametrize("path, value, message", [
        (("coupling", 0, 0), ["frame", 5.9, 1], "field 'coupling': constraint 0: field 'dof' must be an integer"),
        (("coupling", 0, 0), ["frame", 39, 1], "field 'coupling': constraint 0 references DOF 39 of 'frame'"),
        (("physical",), ["nosuch"], "field 'physical' must be a list of ids of its substructures, got ['nosuch']"),
        (("inputs",), {"frame": {"-1": 0}},
         "field 'inputs': input map of 'frame' must map DOFs below 24 to channel numbers"),
        (("inputs",), {"nosuch": {"0": 0}}, "field 'inputs': input map references unknown substructure 'nosuch'"),
        (("inputs",), [["frame", 0, 0]], "field 'inputs': input map must map substructure ids to channel maps"),
    ], ids=["float_coupling_dof", "coupling_dof_past_end", "unknown_physical_id", "negative_input_dof",
            "unknown_input_id", "inputs_list"])
    def test_file_held_to_the_api_rules(self, tmp_path, path, value, message):
        # CoupledSystem's checks, which API callers meet, led by the file and the field
        model = tmp_path / "model.json"
        save_system(model, small_desk())
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
        model = tmp_path / "model.json"
        save_system(model, small_desk())
        set_json_entry(model, ("inputs",), {"frame": inputs})
        message = (f"system file {model}: field 'inputs': input map of 'frame' must map DOFs below 24 "
                   f"to channel numbers, got {key!r}")
        with pytest.raises(ModelError, match=re.escape(message)):
            load_system(model)

    def test_input_keys_in_decimal_form_are_dofs(self, tmp_path):
        model = tmp_path / "model.json"
        save_system(model, small_desk(input_map={"frame": {0: 1, 5: 0, 23: 2}}))
        assert load_system(model).input_map == {"frame": {0: 1, 5: 0, 23: 2}}

    @pytest.mark.parametrize("n", [200, 1000])
    def test_a_loaded_frame_file_is_written_back_byte_for_byte(self, tmp_path, n):
        subs, topology = frame_analog(n=n)
        path, again = tmp_path / "model.json", tmp_path / "again.json"
        save_system(path, CoupledSystem(substructures=subs, topology=topology, physical=("suspension",),
                                        input_map={"frame": {3: 0}}))
        save_system(again, load_system(path))
        assert again.read_bytes() == path.read_bytes()

    def test_element_record_holding_a_channel_is_refused(self, tmp_path):
        # the input map is the only routing: a file whose elements still hold their channel is refused, not misread
        path = tmp_path / "model.json"
        system = small_desk()
        save_system(path, dataclasses.replace(system, input_map=wheel_inputs(system.substructures["suspension"])))
        set_json_entry(path, ("substructures", "suspension", "elements", 2, "base_excitation_channel"), 2)
        with pytest.raises(ModelError) as refused:
            load_system(path)
        assert str(refused.value).startswith(f"system file {path}: substructure 'suspension' element 2: ")
        assert "'base_excitation_channel'" in str(refused.value)

    @pytest.mark.parametrize("arguments, error, message", [
        ({"input_map": {"nosuch": {0: 0}}}, ModelError, "input map references unknown substructure 'nosuch'"),
        ({"input_map": {"suspension": {8: 0}}}, ModelError,
         "input map of 'suspension' must map DOFs below 8 to channel numbers, got 8: 0"),
        ({"input_map": {"suspension": {0: -1}}}, ModelError,
         "input map of 'suspension' must map DOFs below 8 to channel numbers, got 0: -1"),
        ({"input_map": {"suspension": {0: 2.5}}}, ModelError,
         "input map of 'suspension' must map DOFs below 8 to channel numbers, got 0: 2.5"),
        ({"input_map": {"suspension": {0: True}}}, ModelError,
         "input map of 'suspension' must map DOFs below 8 to channel numbers, got 0: True"),
        ({"physical": ("nosuch",)}, ModelError,
         "field 'physical' must be a list of ids of its substructures, got ('nosuch',)"),
        ({"topology": CouplingTopology(((("frame", 24, 1), ("suspension", 4, -1)),))}, CouplingError,
         "constraint 0 references DOF 24 of 'frame'"),
    ], ids=["unknown_id", "dof_past_end", "negative_channel", "float_channel", "bool_channel", "unknown_physical",
            "constraint_dof_past_end"])
    def test_what_its_reader_refuses_is_not_written(self, tmp_path, arguments, error, message):
        # each would make a file that its reader refuses, or reads back with 2.5 and True as channels 2 and 1:
        # the system that would hold it is refused when it is made
        path = tmp_path / "model.json"
        with pytest.raises(error, match=re.escape(message)):
            save_system(path, small_desk(**arguments))
        assert not path.exists()

    def test_a_system_is_written_as_it_was_checked(self, desk):
        # save_system checks nothing more: neither a DOF past the map's substructure nor a smaller
        # frame under the coupling can be put into a system once it is made
        system = dataclasses.replace(desk, input_map={"suspension": {0: 0}})
        for mapping, key in ((system.input_map, "frame"), (system.input_map["suspension"], 99),
                             (system.substructures, "frame")):
            with pytest.raises(TypeError):
                mapping[key] = chain_substructure(3)
        assert system.input_map == {"suspension": {0: 0}} and system.substructures == desk.substructures

    def test_substructures_must_be_a_mapping(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"substructures": [{"kind": "linear"}]}))
        with pytest.raises(ModelError, match="'substructures'"):
            load_system(path)


def list_writer(path, system):
    """The system-file writer that turned every triplet into a Python list and dumped the whole text at once."""
    def record(sub):
        if isinstance(sub, NonlinearSubstructure):
            return {"kind": "suspension", **dataclasses.asdict(sub)}
        triplets = {name: dict(zip(("rows", "cols", "values"), (x.tolist() for x in sub.nonzeros[name])))
                    for name in ("mass", "damping", "stiffness")}
        return {"kind": "linear", "n_dofs": sub.n_dofs, **triplets,
                "internal_dofs": list(sub.internal_dofs), "boundary_dofs": list(sub.boundary_dofs)}

    doc = {
        "substructures": {sid: record(sub) for sid, sub in system.substructures.items()},
        "coupling": [[list(a), list(b)] for a, b in system.topology.constraints],
        "inputs": {sid: {str(dof): int(ch) for dof, ch in chans.items()} for sid, chans in system.input_map.items()},
        "physical": list(system.physical),
    }
    path.write_text(json.dumps(doc))


class TestStreamedSystemFile:
    """``save_system`` streams the triplets, and writes the bytes of the list writer."""

    @pytest.mark.parametrize("chunk", [None, 7], ids=["one_chunk", "many_chunks"])
    @pytest.mark.parametrize("n", [200, 1000], ids=["dense", "csr"])
    def test_bytes_equal_the_list_writer(self, tmp_path, monkeypatch, n, chunk):
        if chunk is not None:
            monkeypatch.setattr(dynsub.io, "_JSON_CHUNK", chunk)
        subs, topology = frame_analog(n=n)
        assert subs["frame"].sparse == (n == 1000)
        streamed, listed = tmp_path / "streamed.json", tmp_path / "listed.json"
        system = CoupledSystem(substructures=subs, topology=topology, physical=("suspension",),
                               input_map={"frame": {3: 0, 17: 1}, "suspension": {0: 2}})
        save_system(streamed, system)
        list_writer(listed, system)
        assert streamed.read_bytes() == listed.read_bytes()

    def test_peak_memory_is_a_fraction_of_the_list_writer(self, tmp_path):
        # 2e4 DOFs: the lists of about 6e4 entries per array held 22 MB at the peak
        subs, topology = frame_analog(n=20_000)
        subs["frame"].nonzeros  # the entries both writers read, found before either is measured
        system = CoupledSystem(substructures=subs, topology=topology, physical=("suspension",))
        peaks = {}
        for name, writer in (("streamed", save_system), ("listed", list_writer)):
            tracemalloc.start()
            try:
                writer(tmp_path / f"{name}.json", system)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["streamed"] < peaks["listed"] / 4, peaks


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

    def test_writes_the_eight_field_arrays_and_no_copy_of_the_modes(self, tmp_path):
        red = cb_reduce(chain_substructure(n=12, boundary_dofs=(3, 11)), 4)
        save_reduction(tmp_path / "red.npz", red)
        with np.load(tmp_path / "red.npz") as data:
            assert list(data.keys()) == [
                "transform", "reduced_mass", "reduced_stiffness", "reduced_damping",
                "retained_frequencies", "internal_dofs", "boundary_dofs", "truncation_frequency",
            ]

    @pytest.mark.parametrize("name, value", [
        ("boundary_dofs", np.array([3, 7, 7])), ("boundary_dofs", np.array([3, 7, 12])),
        ("internal_dofs", np.array([-1, 0, 1, 2, 4, 5, 6, 8, 9])),
    ], ids=["repeated", "past_end", "negative"])
    def test_dof_fields_that_do_not_cover_every_dof_once_are_refused(self, tmp_path, name, value):
        # expand writes each DOF's row through these fields: a DOF they miss kept whatever np.empty held
        red = cb_reduce(chain_substructure(n=12, boundary_dofs=(3, 7, 11)), 6)
        save_reduction(tmp_path / "red.npz", red)
        with np.load(tmp_path / "red.npz") as data:
            np.savez(tmp_path / "bad.npz", **dict(data, **{name: value}))
        message = (f"reduction file {str(tmp_path / 'bad.npz')!r}: fields 'internal_dofs' and 'boundary_dofs' "
                   f"must disjointly cover all 12 DOFs")
        with pytest.raises(ModelError, match=re.escape(message)):
            load_reduction(tmp_path / "bad.npz")

    def test_a_file_that_also_holds_the_modes_loads(self, tmp_path):
        # earlier files stored the modes beside the transform; the copies are ignored
        red = cb_reduce(chain_substructure(n=12, boundary_dofs=(3, 11)), 4)
        save_reduction(tmp_path / "red.npz", red)
        with np.load(tmp_path / "red.npz") as data:
            record = dict(data)
        np.savez(tmp_path / "old.npz", retained_modes=red.retained_modes.copy(),
                 constraint_modes=red.constraint_modes.copy(), **record)
        back = load_reduction(tmp_path / "old.npz")
        for field in dataclasses.fields(red):
            a, b = getattr(back, field.name), getattr(red, field.name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name
        assert np.array_equal(back.retained_modes, red.retained_modes)
        assert np.array_equal(back.constraint_modes, red.constraint_modes)

    @pytest.mark.parametrize("name, value, message", [
        ("reduced_mass", np.zeros(3), "real array of shape (9, 9), got a float64 array of shape (3,)"),
        ("internal_dofs", np.zeros((2, 3)), "1-D integer array, got a float64 array of shape (2, 3)"),
        ("boundary_dofs", np.array(["3", "11"]), "1-D integer array, got a <U2 array of shape (2,)"),
        ("transform", np.zeros((12, 8)), "real array of shape (12, 9), got a float64 array of shape (12, 8)"),
        ("retained_frequencies", np.ones((6, 1)), "1-D real array, got a float64 array of shape (6, 1)"),
        ("reduced_damping", np.zeros((9, 9), dtype=complex), "real array of shape (9, 9), got a complex128"),
        ("truncation_frequency", np.ones(1), "real array of shape (), got a float64 array of shape (1,)"),
        ("reduced_stiffness", np.array([[None]]), "Object arrays cannot be loaded"),
    ], ids=["flat_reduced_mass", "float_2d_internal_dofs", "string_boundary_dofs", "narrow_transform",
            "2d_frequencies", "complex_damping", "truncation_of_one_value", "object_stiffness"])
    def test_a_field_that_does_not_fit_the_others_is_refused_naming_it(self, tmp_path, name, value, message):
        # 6 modes, 3 of 12 DOFs on the boundary: the transform is 12 x 9, the reduced matrices 9 x 9
        red = cb_reduce(chain_substructure(n=12, boundary_dofs=(3, 7, 11)), 6)
        save_reduction(tmp_path / "red.npz", red)
        with np.load(tmp_path / "red.npz") as data:
            record = dict(data, **{name: value})
        np.savez(tmp_path / "bad.npz", **record)
        with pytest.raises(ModelError) as info:
            load_reduction(tmp_path / "bad.npz")
        assert str(info.value).startswith(f"reduction file {str(tmp_path / 'bad.npz')!r}: field {name!r}")
        assert message in str(info.value)

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

    def test_columns_follow_the_system_order(self, tmp_path):
        # a chain between two sub-cycled banks: at ss = 5 the banks step as one group,
        # yet the trajectory lists the substructures in the system's order, as its CSV does
        bank = suspension_substructure(n_elements=1)
        system = CoupledSystem(
            substructures={"bank_a": bank, "chain": chain_substructure(4, boundary_dofs=(0, 3)), "bank_b": bank},
            topology=CouplingTopology([[("bank_a", 1, 1), ("chain", 0, -1)], [("chain", 3, 1), ("bank_b", 1, -1)]]),
        )
        runs = {ss: simulate(system, SolverConfig(dt=1e-3, duration=0.01, subcycles=ss)) for ss in (1, 5)}
        assert list(runs[5].states) == list(system.substructures)
        assert list(runs[5].dof_counts) == list(runs[5]._dofs) == list(system.substructures)
        assert list(runs[5].fine_states) == list(runs[5].fine_times) == ["bank_a", "bank_b"]
        runs["monolithic"] = solve_monolithic(
            assemble_global(system.substructures, system.topology), SolverConfig(dt=1e-3, duration=0.01),
        )
        expected = ["time", "bank_a.u0", "bank_a.v0", "bank_a.u1", "bank_a.v1", "chain.u0", "chain.v0",
                    "chain.u3", "chain.v3", "bank_b.u0", "bank_b.v0", "bank_b.u1", "bank_b.v1"]
        for name, traj in runs.items():
            save_trajectory_csv(tmp_path / f"{name}.csv", traj, system)
            header, data = load_csv_columns(tmp_path / f"{name}.csv")
            assert [h for h in header if not h.startswith("lambda")] == expected, name
            assert np.array_equal(data[:, header.index("bank_b.v1")], traj.velocity("bank_b", 1)), name

    def test_export_of_an_unrecorded_dof_is_refused_before_the_file_is_written(self, tmp_path, desk):
        cfg = SolverConfig(dt=1e-3, duration=0.005)
        traj = simulate(desk, cfg, dofs={"suspension": [0]})
        path = tmp_path / "traj.csv"
        with pytest.raises(SolverError, match="substructure 'frame' DOF 49 is not in the trajectory"):
            save_trajectory_csv(path, traj, desk)
        with pytest.raises(SolverError, match=r"substructure 'suspension' DOF 1 is not in the trajectory, "
                                              r"which holds DOFs \[0\]$"):
            save_trajectory_csv(path, traj, CoupledSystem(
                substructures={"suspension": desk.substructures["suspension"]}, topology=CouplingTopology(()),
            ))
        assert not path.exists()


def _stacked(parts):
    """The table ``parts`` stand for, as one array: what ``np.savetxt`` was given."""
    return np.concatenate([array if columns is None else array[:, columns] for array, columns in parts], axis=1)


_SPECIAL_VALUES = np.array([
    np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    1.0, -2.0, 3e16, 2.0**53, 0.1, 1 / 3,
]).reshape(2, 7)

# (header, parts) of a table, made from a random generator, by name
_CSV_CASES = {
    "special_values": lambda rng: (
        ["a", "b", "c", "d", "e", "f"], [(_SPECIAL_VALUES[:, :3], None), (_SPECIAL_VALUES, np.array([6, 3, 5]))],
    ),
    # reduce --report's mode numbers: an integer column beside real ones
    "integer_part": lambda rng: (["mode", "x"], [(np.arange(1, 4)[:, None], None), (rng.random((3, 1)), None)]),
    "one_row": lambda rng: (["x", "y", "z"], [(rng.standard_normal((1, 3)), None)]),
    "one_column": lambda rng: (["x"], [(rng.standard_normal((10, 1)), None)]),
    "strided": lambda rng: (["t", "a", "b", "c", "d"], [
        (np.arange(1001)[::10, None] * 1e-4, None), (rng.standard_normal((1001, 6))[::10], np.array([4, 0, 5, 1])),
    ]),
    # two whole blocks of rows and one row
    "rows_not_a_multiple_of_the_block": lambda rng: (
        ["x", "y", "z"], [(rng.standard_normal((2 * (dynsub.io._CSV_BLOCK // 3) + 1, 3)), None)],
    ),
    # each block is one row
    "row_wider_than_the_block": lambda rng: (
        [f"c{i}" for i in range(dynsub.io._CSV_BLOCK + 5)],
        [(rng.standard_normal((3, dynsub.io._CSV_BLOCK + 5)), None)],
    ),
    "empty_header": lambda rng: ((), [(rng.standard_normal((4, 4)), None)]),
}


class TestCsvWriter:
    """``_write_csv`` writes a block of rows at a time the bytes ``np.savetxt`` wrote of the whole table."""

    @pytest.mark.parametrize("case", list(_CSV_CASES))
    def test_bytes_equal_savetxt(self, tmp_path, case):
        header, parts = _CSV_CASES[case](np.random.default_rng(3))
        dynsub.io._write_csv(tmp_path / "blocks.csv", header, parts)
        np.savetxt(tmp_path / "savetxt.csv", _stacked(parts), delimiter=",", header=",".join(header),
                   comments="", fmt="%.17g")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()

    def test_trajectory_export_holds_no_copy_of_the_table(self, tmp_path):
        # the 200-DOF frame reduced to 30 modes at ss = 10 over 5 s: a 5001 x 29 table, 1.16 MB,
        # which a stacked copy held whole (a tracemalloc peak of 1.2 MB)
        subs, topology = frame_analog(n=200)
        red = cb_reduce(subs["frame"], 30)
        system = CoupledSystem(
            substructures={"frame": red.as_substructure(), "suspension": subs["suspension"]},
            topology=reduced_topology(topology, "frame", red), physical=("suspension",),
        )
        cfg = SolverConfig(dt=1e-3, duration=5.0, subcycles=10)
        forces = np.zeros((cfg.n_steps * 10 + 1, subs["suspension"].n_dofs))
        forces[:, list(subs["suspension"].internal_dofs)] = np.random.default_rng(0).standard_normal((len(forces), 4))
        traj = simulate(system, cfg, {"suspension": forces})
        tracemalloc.start()
        try:
            save_trajectory_csv(tmp_path / "traj.csv", traj, system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        header, data = load_csv_columns(tmp_path / "traj.csv")
        assert data.shape == (5001, 29)
        assert np.array_equal(data[:, header.index("frame.v33")], traj.velocity("frame", 33))  # boundary DOF 199
        assert peak < 0.25e6, peak


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
    def test_an_api_bank_with_an_empty_map_gets_no_table(self):
        # its elements hold no channel, so nothing drives the wheels but the map
        bank = NonlinearSubstructure(elements=(SuspensionElement(**SUSPENSION_DEFAULTS),) * 4)
        system = CoupledSystem(substructures={"suspension": bank}, topology=CouplingTopology(()))
        assert system.input_map == {}
        assert input_tables(system, np.arange(40, dtype=float).reshape(10, 4)) == {}

    def test_the_wheel_map_routes_channel_i_to_wheel_i(self, desk):
        channels = np.arange(40, dtype=float).reshape(10, 4)
        tables = input_tables(dataclasses.replace(desk, input_map=wheel_inputs(desk.substructures["suspension"])),
                              channels)
        assert list(tables) == ["suspension"]
        assert tables["suspension"].shape == (10, 8)
        assert np.array_equal(tables["suspension"][:, :4], channels)
        assert np.all(tables["suspension"][:, 4:] == 0.0)

    def test_explicit_map_adds_forces(self, desk):
        channels = np.ones((5, 4))
        tables = input_tables(dataclasses.replace(desk, input_map={"frame": {7: 2}}), channels)
        assert np.array_equal(tables["frame"][:, 7], channels[:, 2])

    @pytest.mark.parametrize("input_map, message", [
        ({"nosuch": {0: 0}}, "input map references unknown substructure 'nosuch'"),
        ({"frame": {-1: 0}}, "input map of 'frame' must map DOFs below 200 to channel numbers, got -1: 0"),
        ({"frame": {200: 0}}, "input map of 'frame' must map DOFs below 200 to channel numbers, got 200: 0"),
        ({"frame": {2.5: 0}}, "input map of 'frame' must map DOFs below 200 to channel numbers, got 2.5: 0"),
        ({"frame": {7: -1}}, "input map of 'frame' must map DOFs below 200 to channel numbers, got 7: -1"),
        ({"frame": {True: 0, 2: 1}}, "input map of 'frame' must map DOFs below 200 to channel numbers, got True: 0"),
        ({"frame": {np.True_: 0}},
         f"input map of 'frame' must map DOFs below 200 to channel numbers, got {np.True_!r}: 0"),
        ({"frame": {2.0: 0}}, "input map of 'frame' must map DOFs below 200 to channel numbers, got 2.0: 0"),
        ({"frame": {"2": 0}}, "input map of 'frame' must map DOFs below 200 to channel numbers, got '2': 0"),
        ({"frame": {10**30: 0}}, f"input map of 'frame' must map DOFs below 200 to channel numbers, got {10**30}: 0"),
        ({"frame": {7: 0, 9: True}}, "input map of 'frame' must map DOFs below 200 to channel numbers, got 9: True"),
        ({"frame": {7: -1, 300: 0}}, "input map of 'frame' must map DOFs below 200 to channel numbers, got 7: -1"),
    ], ids=["unknown_id", "negative_dof", "dof_past_end", "float_dof", "negative_channel", "bool_beside_an_int",
            "numpy_bool_dof", "whole_float_dof", "string_dof", "huge_dof", "bool_channel", "first_bad_pair"])
    def test_api_map_held_to_the_file_rules(self, desk, input_map, message):
        # refused when the system is made, before any indexing: numpy reads -1 as the last DOF or channel
        with pytest.raises(ModelError, match=re.escape(message)):
            CoupledSystem(substructures=desk.substructures, topology=desk.topology, input_map=input_map)

    def test_missing_channel_reported(self, desk):
        with pytest.raises(ModelError, match=re.escape("'suspension' DOF 2 references channel 2, have 2")):
            input_tables(dataclasses.replace(desk, input_map=wheel_inputs(desk.substructures["suspension"])),
                         np.ones((5, 2)))
