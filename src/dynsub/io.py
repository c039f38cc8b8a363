"""File formats: JSON system files, npz reduction artifacts, CSV tables.

A system file describes substructures, the interface constraints, the
mapping of input channels to driven DOFs, and which substructures count as
physical for sub-cycling.  Each record is read by
:func:`~dynsub.models.build_from_fields`, against the signatures below or
the model class it describes, so an unknown or missing key fails with its
name and an absent one takes the model class's own default.  A linear
record stores ``mass``, ``damping`` and ``stiffness`` as sparse triplets
``{"rows": [...], "cols": [...], "values": [...]}``; duplicate entries sum,
as in COO storage, and a missing ``damping`` reads as zero.  A record of
``_SPARSE_MIN_DOFS`` DOFs or more is read into CSR arrays, a smaller one
into dense arrays (:func:`~dynsub.models.matrix_from_entries`).  A
suspension record is the ``dataclasses.asdict`` of its substructure.

A system file holds the four fields of a
:class:`~dynsub.solver.CoupledSystem`: ``substructures``, ``coupling`` (its
topology), ``inputs`` (its ``input_map``) and ``physical``.
:func:`save_system` writes a system and :func:`load_system` returns one.
Past the records the reader only parses JSON: ``coupling`` is checked by
:mod:`dynsub.coupling`, and ``physical`` and ``inputs`` by
``CoupledSystem`` itself, as for any system made in Python, so a system
that exists can be written and its file read back.  An ``inputs`` key
names a DOF only in the decimal form of that DOF (``str(dof)``): ``"05"``
or ``"٥"`` stays a string and is refused, quoted.  The input map is the
only routing of channels onto DOFs: a suspension element record holds no
channel, and the channel field of older files is refused, named, as any
unknown key is.  A file's errors are ModelErrors led by the file and the
field name.

A reduction file (:func:`save_reduction`) holds one array per field of a
:class:`~dynsub.reduction.CraigBamptonReduction`.  :func:`load_reduction`
checks each field's dtype and shape against the others, then builds the
reduced model (:meth:`~dynsub.reduction.CraigBamptonReduction.as_substructure`)
once, so its matrices meet the rules of any linear substructure (finite,
symmetric mass and stiffness, positive mass diagonal); its errors are
ModelErrors led by the file.

A trajectory CSV holds, per substructure, the DOFs of
:func:`_exported_dofs`: the boundary DOFs of a linear substructure, or
every DOF of one without any, and every DOF of a nonlinear one.

Every numeric CSV table is written by :func:`_write_csv`: comma-separated,
the header line (if any) without a comment prefix, and every number as
``%.17g``, so it reads back exactly.  (``dynsub compare traj`` writes its
``mse.csv``, whose first column holds channel names, itself, with its
numbers as ``%.17g`` too.)  It formats a block of at most
``_CSV_BLOCK`` values (or one row) at a time, cut out of the arrays that
hold the columns, such as a trajectory's records, so no copy of a whole
table is made; the bytes are those ``np.savetxt`` wrote of the stacked table.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import reprlib
import warnings
import zipfile
from pathlib import Path

import numpy as np

from .coupling import CouplingError, CouplingTopology, _check_references
from .models import (
    LinearSubstructure, ModelError, NonlinearSubstructure, SuspensionElement, _broken_rule, _dof_array,
    build_from_fields, matrix_from_entries, require_numbers,
)
from .reduction import CraigBamptonReduction
from .solver import CoupledSystem, Trajectory


def _to_triplets(entries: tuple) -> dict:
    """Triplet record of one of :attr:`LinearSubstructure.nonzeros`' entries: its arrays, not copied."""
    rows, cols, values = entries
    return {"rows": rows, "cols": cols, "values": values}


# Entries per json.dumps call when an array is written (see _write_json).
_JSON_CHUNK = 1 << 14


def _write_json(out, value) -> None:
    """Write the text of ``json.dumps(value)`` to ``out``, with each numpy array written as a list.

    An array goes out ``_JSON_CHUNK`` entries at a time, through the same
    encoder, so the bytes are those of ``json.dumps`` with every array
    turned into a list, but no list of a whole array (a Python object per
    entry) and no text of the whole document is ever held.
    """
    if isinstance(value, np.ndarray):
        out.write("[")
        for start in range(0, len(value), _JSON_CHUNK):
            out.write((", " if start else "") + json.dumps(value[start:start + _JSON_CHUNK].tolist())[1:-1])
        out.write("]")
    elif isinstance(value, dict):
        out.write("{")
        for i, (key, item) in enumerate(value.items()):
            out.write((", " if i else "") + json.dumps({key: None})[1:-7] + ": ")  # the key as json.dumps writes it
            _write_json(out, item)
        out.write("}")
    else:
        out.write(json.dumps(value))


def _from_triplets(n: int, rows, cols, values):
    """``n``-by-``n`` matrix from a triplet record (:func:`~dynsub.models.matrix_from_entries`).

    A bad entry is refused naming its list, its position and the entry: the
    first that breaks the DOF-list rule in ``rows``, else in ``cols``, else
    the first of ``values`` that is no number a float holds.
    """
    if not all(isinstance(x, list) for x in (rows, cols, values)) or not len(rows) == len(cols) == len(values):
        raise ModelError("rows, cols and values must be lists of equal length")
    dofs = {name: _dof_array(entries, n) for name, entries in (("rows", rows), ("cols", cols))}
    for name, (_, bad) in dofs.items():
        if bad:
            raise ModelError(f"field {name!r} must hold integers in [0, {n}), got {bad[1]!r} at position {bad[0]}")
    try:  # one pass over the values' types; a JSON integer that no float holds overflows
        array = np.asarray(values, dtype=float) if set(map(type, values)) <= {int, float} else None
    except OverflowError:
        array = None
    if array is None:  # one more pass, to the first entry that failed this one
        k, x = next((k, x) for k, x in enumerate(values) if type(x) not in (int, float) or _broken_rule(x, False, None))
        raise ModelError(f"field 'values' must hold float-range numbers, got {reprlib.repr(x)} at position {k}")
    return matrix_from_entries(n, dofs["rows"][0], dofs["cols"][0], array)


# The record schemas below are signatures, bound by build_from_fields; their
# defaults are JSON values and are never mutated.

def _linear_record(kind, n_dofs, mass, stiffness, damping={"rows": [], "cols": [], "values": []},
                   internal_dofs=None, boundary_dofs=[]):
    """The fields of a linear substructure record; ``LinearSubstructure`` defaults ``internal_dofs``."""
    require_numbers(ModelError, True, "positive", n_dofs=n_dofs)  # a JSON true is no DOF count
    return n_dofs, {"mass": mass, "damping": damping, "stiffness": stiffness}, internal_dofs, boundary_dofs


def _system_record(substructures, coupling=[], inputs={}, physical=[]):
    """The fields of a system file."""
    return substructures, coupling, inputs, physical


def substructure_to_dict(sub) -> dict:
    """The system-file record of ``sub``; a linear one holds its triplets as numpy arrays (see :func:`_write_json`)."""
    if isinstance(sub, LinearSubstructure):
        return {
            "kind": "linear",
            "n_dofs": sub.n_dofs,
            "mass": _to_triplets(sub.nonzeros["mass"]),
            "damping": _to_triplets(sub.nonzeros["damping"]),
            "stiffness": _to_triplets(sub.nonzeros["stiffness"]),
            "internal_dofs": list(sub.internal_dofs),
            "boundary_dofs": list(sub.boundary_dofs),
        }
    if isinstance(sub, NonlinearSubstructure):
        return {"kind": "suspension", **dataclasses.asdict(sub)}
    raise ModelError(f"cannot serialize {type(sub).__name__}")


def substructure_from_dict(data: dict, where: str = "substructure"):
    """Substructure of a system-file record; an unknown or missing key raises ModelError led by ``where``, naming it."""
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind == "linear":
        n, matrices, internal, boundary = build_from_fields(_linear_record, data, where)
        for name, entries in matrices.items():
            matrices[name] = build_from_fields(functools.partial(_from_triplets, n), entries, f"{where} {name}")
        return build_from_fields(
            LinearSubstructure, dict(matrices, internal_dofs=internal, boundary_dofs=boundary), where,
        )
    if kind == "suspension":
        fields = {key: value for key, value in data.items() if key != "kind"}
        if not isinstance(fields.get("elements", []), list):
            raise ModelError(f"{where}: field 'elements' must be a list of element records")
        if "elements" in fields:
            fields["elements"] = tuple(build_from_fields(SuspensionElement, e, f"{where} element {i}")
                                       for i, e in enumerate(fields["elements"]))
        return build_from_fields(NonlinearSubstructure, fields, where)
    raise ModelError(f"{where}: field 'kind' must be 'linear' or 'suspension', got {kind!r}")


def save_system(path, system: CoupledSystem) -> None:
    """Write ``system`` to a system file: ``json.dumps`` of its document, compact, streamed by :func:`_write_json`.

    ``system`` met its own checks when it was made, the checks
    :func:`load_system` makes, so its file reads back as the same system.
    """
    doc = {
        "substructures": {sid: substructure_to_dict(sub) for sid, sub in system.substructures.items()},
        "coupling": [[list(a), list(b)] for a, b in system.topology.constraints],
        "inputs": {sid: {str(dof): int(ch) for dof, ch in chans.items()} for sid, chans in system.input_map.items()},
        "physical": list(system.physical),
    }
    with open(path, "w") as out:  # compact: an indent runs the pure-Python encoder
        _write_json(out, doc)


def load_system(path) -> CoupledSystem:
    """Read a system file into the :class:`~dynsub.solver.CoupledSystem` it holds."""
    doc = json.loads(Path(path).read_text())
    where = f"system file {path}"
    records, coupling, inputs, physical = build_from_fields(_system_record, doc, where)
    if not isinstance(records, dict):
        raise ModelError(f"{where}: field 'substructures' must map ids to substructure records")
    subs = {sid: substructure_from_dict(d, f"{where}: substructure {sid!r}") for sid, d in records.items()}
    try:  # CoupledSystem checks the references again, without the field's name
        topology = CouplingTopology(constraints=coupling)
        _check_references(topology, subs)
    except CouplingError as exc:
        raise ModelError(f"{where}: field 'coupling': {exc}") from None
    system = build_from_fields(CoupledSystem, dict(substructures=subs, topology=topology, physical=physical), where)
    if isinstance(inputs, dict):  # a new map, never the default
        inputs = {sid: {_dof_of_key(dof): ch for dof, ch in chans.items()} if isinstance(chans, dict) else chans
                  for sid, chans in inputs.items()}
    try:  # the system with its map, whose errors are led by the field's name
        return dataclasses.replace(system, input_map=inputs)
    except ModelError as exc:
        raise ModelError(f"{where}: field 'inputs': {exc}") from None


def _dof_of_key(key: str):
    """The DOF of an ``inputs`` key: the integer whose decimal form it is, else the key, which the checks refuse.

    So ``"05"`` or ``"٥"`` is never read as DOF 5 beside a ``"5"``.
    """
    try:
        return int(key) if str(int(key)) == key else key
    except ValueError:
        return key


# the npz record holds one array per field of CraigBamptonReduction, in field order
_REDUCTION_FIELDS = tuple(f.name for f in dataclasses.fields(CraigBamptonReduction))
_DOF_FIELDS = ("internal_dofs", "boundary_dofs")  # tuples, stored as int arrays


def save_reduction(path, red: CraigBamptonReduction) -> None:
    """Write a reduction as npz; ``truncation_frequency`` is stored as nan when it is None."""
    record = {name: getattr(red, name) for name in _REDUCTION_FIELDS}
    for name in _DOF_FIELDS:
        record[name] = np.asarray(record[name], dtype=int)
    trunc = record["truncation_frequency"]
    record["truncation_frequency"] = np.array(np.nan if trunc is None else trunc)
    np.savez(path, **record)


def _check_field(where: str, name: str, value: np.ndarray, shape: tuple) -> None:
    """Raise ModelError, led by ``where``, unless field ``name`` is an array of ``shape`` (None: any length).

    A DOF field holds integers, every other field real numbers.
    """
    kind = "integer" if name in _DOF_FIELDS else "real"
    if (value.dtype.kind in ("iu" if kind == "integer" else "iuf") and value.ndim == len(shape)
            and all(want in (None, got) for want, got in zip(shape, value.shape))):
        return
    form = f"1-D {kind} array" if None in shape else f"{kind} array of shape {shape}"
    raise ModelError(f"{where}: field {name!r} must be a {form}, got a {value.dtype} array of shape {value.shape}")


def load_reduction(path) -> CraigBamptonReduction:
    """Read a :func:`save_reduction` file.

    A file that is no npz archive, lacks a field, or holds a field whose
    dtype or shape does not fit the others raises ModelError naming the file
    and the field.  ``retained_frequencies`` (r values) and the two 1-D
    integer DOF fields (n_i and n_b values) fix the other shapes: ``transform``
    is (n_i + n_b) x (r + n_b), the reduced matrices are square of size
    r + n_b, and ``truncation_frequency`` is 0-d.  The DOF fields together
    hold each of the n_i + n_b DOFs once (:func:`~dynsub.models._dof_array`).
    The reduced matrices then meet the rules of any
    :class:`~dynsub.models.LinearSubstructure` (finite, symmetric mass and
    stiffness, positive mass diagonal), checked on
    :meth:`~dynsub.reduction.CraigBamptonReduction.as_substructure`; a
    breach raises ModelError led by the file.  A mass that keeps them but is
    not positive definite is refused later, by the eigensolver's pivot rule
    (:func:`~dynsub.reduction.expanded_mode_shapes` raises ReductionError).
    """
    where = f"reduction file {str(path)!r}"
    try:
        data = np.load(path)  # refused pickled data: ValueError; an empty file: EOFError; a cut archive: BadZipFile
    except (ValueError, EOFError, zipfile.BadZipFile):
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ModelError(f"{where} is not an npz archive")
    with data:
        if missing := [name for name in _REDUCTION_FIELDS if name not in data.files]:
            raise ModelError(f"{where}: field {missing[0]!r} is missing")
        record = {}
        for name in _REDUCTION_FIELDS:
            try:
                record[name] = data[name]
            except (ValueError, zipfile.BadZipFile) as exc:  # an object array, refused unpickled; a damaged member
                raise ModelError(f"{where}: field {name!r}: {exc}") from None
    sizes = {name: (None,) for name in ("retained_frequencies", *_DOF_FIELDS)}
    for name, shape in sizes.items():
        _check_field(where, name, record[name], shape)
    r, n_i, n_b = (len(record[name]) for name in sizes)
    square = (r + n_b, r + n_b)
    shapes = {"transform": (n_i + n_b, r + n_b), "reduced_mass": square, "reduced_stiffness": square,
              "reduced_damping": square, "truncation_frequency": ()}
    for name, shape in shapes.items():
        _check_field(where, name, record[name], shape)
    if _dof_array(np.concatenate([record[name] for name in _DOF_FIELDS]), n_i + n_b, distinct=True)[1]:
        # else expand would leave a DOF's row unwritten
        raise ModelError(f"{where}: fields 'internal_dofs' and 'boundary_dofs' must disjointly cover all "
                         f"{n_i + n_b} DOFs")
    for name in _DOF_FIELDS:
        record[name] = tuple(record[name].tolist())
    trunc = float(record["truncation_frequency"])
    record["truncation_frequency"] = None if np.isnan(trunc) else trunc
    red = CraigBamptonReduction(**record)
    try:
        red.as_substructure()
    except ModelError as exc:
        raise ModelError(f"{where}: reduced matrices: {exc}") from None
    return red


def _exported_dofs(system: CoupledSystem, all_dofs: bool = False) -> dict:
    """``{sid: DOFs}`` that a trajectory CSV holds, in column order, an integer array per substructure.

    The substructures in the system's order; the boundary DOFs of each,
    after every internal DOF of a nonlinear one; every DOF of a linear one
    without boundary DOFs, which would else export nothing; ``all_dofs``
    exports every DOF.  Both solvers of ``run_experiment`` and of ``dynsub
    simulate`` record only these (``dofs=`` of ``PartitionedSolver.run`` and
    ``solve_monolithic``).
    """
    return {sid: np.arange(sub.n_dofs) if all_dofs or isinstance(sub, NonlinearSubstructure) or not sub.boundary_dofs
            else np.array(sub.boundary_dofs, dtype=np.intp) for sid, sub in system.substructures.items()}


# Values per block of rows that _write_csv cuts and formats at once.  On the
# 29-column export of the 200-DOF ss = 10 run, blocks of 16k values held 0.72 MB
# where these hold 0.11 MB, and blocks of 256 values formatted 5% slower.
_CSV_BLOCK = 2048


def _write_csv(path, header, parts) -> None:
    """Write a table as this package's CSV, a bounded block of rows at a time.

    ``parts`` are the table's columns, left to right, as ``(array, columns)``
    pairs: a 2-D array with one row per table row, and the indices of the
    columns it contributes, or ``None`` for all of them.  Each block of
    ``max(1, _CSV_BLOCK // width)`` rows is cut out of the parts and formatted
    row by row as ``%.17g`` from ``block.tolist()``, so no copy of the whole
    table is made.  The header line is written when ``",".join(header)`` is not
    empty, without a comment prefix.  The bytes are those of ``np.savetxt(path,
    table, delimiter=",", header=",".join(header), comments="", fmt="%.17g")``
    on the stacked table, in the same text mode and encoding.
    """
    n_rows = len(parts[0][0])
    width = sum(array.shape[1] if columns is None else len(columns) for array, columns in parts)
    rows = max(1, _CSV_BLOCK // width)
    row_format = ",".join(["%.17g"] * width) + "\n"
    with open(path, "w") as out:
        if header := ",".join(header):
            out.write(header + "\n")
        for start in range(0, n_rows, rows):
            block = np.concatenate([
                array[start:start + rows] if columns is None else array[start:start + rows, columns]
                for array, columns in parts
            ], axis=1)
            out.writelines(row_format % tuple(row) for row in block.tolist())


def save_trajectory_csv(path, traj: Trajectory, system: CoupledSystem, all_dofs: bool = False) -> None:
    """Trajectory CSV: time, the ``u`` and ``v`` of each exported DOF (:func:`_exported_dofs`), multipliers.

    The columns are read out of ``traj``'s records, one block of rows at a
    time (:func:`_write_csv`), by one index array per substructure, which
    ``Trajectory._columns`` finds; a DOF the trajectory does not hold raises
    SolverError before the file is opened.
    """
    header, parts = ["time"], [(traj.times[:, None], None)]
    for sid, dofs in _exported_dofs(system, all_dofs).items():
        columns = traj._columns(sid, dofs).ravel()
        header += [f"{sid}.{kind}{dof}" for dof in dofs.tolist() for kind in "uv"]
        parts.append((traj.states[sid], columns))
    header += [f"lambda{i}" for i in range(traj.multipliers.shape[1])]
    _write_csv(path, header, parts + [(traj.multipliers, None)])


def load_csv_columns(path) -> tuple[list, np.ndarray]:
    """Read a CSV written by this package; returns (header names, data), one data column per header name.

    A file without data rows, or whose rows hold another number of fields
    than its header names, raises ModelError naming the file and both counts.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy's "no data", refused below
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ModelError(f"CSV file {str(path)!r}: {exc}") from None
    if not len(data) or data.shape[1] != len(header):
        rows = f"data rows of {data.shape[1]} fields" if len(data) else "0 data rows"
        raise ModelError(f"CSV file {str(path)!r}: header of {len(header)} fields, {rows}")
    return header, data


def save_signals_csv(path, times: np.ndarray, channels: np.ndarray) -> None:
    """Signals CSV: ``time``, then one column per channel; ``channels`` has one row per time."""
    header = ["time"] + [f"ch{i}" for i in range(channels.shape[1])]
    _write_csv(path, header, [(times[:, None], None), (channels, None)])


def load_signals_csv(path) -> tuple[np.ndarray, np.ndarray]:
    header, data = load_csv_columns(path)
    if not header or header[0] != "time":
        raise ModelError(f"{path} is not a signals CSV (first column must be time)")
    return data[:, 0], data[:, 1:]


def input_tables(system: CoupledSystem, channels: np.ndarray) -> dict:
    """Expand channel signals into per-substructure force tables, routed by ``system.input_map``, the only routing.

    Each substructure the map names, in the system's order, gets a table of
    one row per sample and one column per DOF, zero but for its mapped DOFs,
    which hold their channels; an unmapped one gets none.  A channel past
    the last column of ``channels`` raises ModelError naming it.
    """
    tables = {}
    for sid, sub in system.substructures.items():
        if not (routes := system.input_map.get(sid)):
            continue
        if bad := next(((dof, ch) for dof, ch in routes.items() if ch >= channels.shape[1]), None):
            raise ModelError(f"{sid!r} DOF {bad[0]} references channel {bad[1]}, have {channels.shape[1]}")
        tables[sid] = np.zeros((channels.shape[0], sub.n_dofs))
        tables[sid][:, list(routes)] = channels[:, list(routes.values())]
    return tables
