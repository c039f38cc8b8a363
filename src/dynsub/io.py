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
suspension record is the ``dataclasses.asdict`` of its substructure; an
element's ``base_excitation_channel`` defaults to its index.

Past the records :func:`load_system` only parses JSON.  ``coupling`` and
``physical`` are checked by their owners, :mod:`dynsub.coupling` and
:class:`~dynsub.solver.CoupledSystem`; an input map, read from a file or passed
to :func:`input_tables`, by :func:`_check_input_map`: each id is a substructure,
each DOF an integer in ``[0, n)`` and each channel a non-negative integer.
A file's ``inputs`` key names a DOF only in the decimal form of that DOF
(``str(dof)``): ``"05"`` or ``"٥"`` stays a string and is refused, quoted.
A file's errors are ModelErrors led by the file and the field name.

Every CSV table is written by :func:`_write_csv`: comma-separated, the
header line (if any) without a comment prefix, and every number as
``%.17g``, so it reads back exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from .coupling import CouplingError, CouplingTopology, _check_references
from .models import (
    LinearSubstructure, ModelError, NonlinearSubstructure, SuspensionElement, build_from_fields, matrix_from_entries,
)
from .reduction import CraigBamptonReduction
from .solver import CoupledSystem, Trajectory


def _to_triplets(entries: tuple) -> dict:
    """Triplet record of one of :attr:`LinearSubstructure.nonzeros`' entries."""
    rows, cols, values = entries
    return {"rows": rows.tolist(), "cols": cols.tolist(), "values": values.tolist()}


def _from_triplets(n: int, rows, cols, values):
    """``n``-by-``n`` matrix from a triplet record (:func:`~dynsub.models.matrix_from_entries`)."""
    if not all(isinstance(x, list) for x in (rows, cols, values)) or not len(rows) == len(cols) == len(values):
        raise ModelError("rows, cols and values must be lists of equal length")
    if not (all(type(i) is int and 0 <= i < n for i in rows + cols)
            and all(type(v) in (int, float) for v in values)):
        raise ModelError(f"rows and cols must be integers in [0, {n}) and values numbers")
    return matrix_from_entries(
        n, np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp), np.asarray(values, dtype=float)
    )


# The record schemas below are signatures, bound by build_from_fields; their
# defaults are JSON values and are never mutated.

def _linear_record(kind, n_dofs, mass, stiffness, damping={"rows": [], "cols": [], "values": []},
                   internal_dofs=None, boundary_dofs=[]):
    """The fields of a linear substructure record; ``internal_dofs`` defaults to every other DOF."""
    if type(n_dofs) is not int or n_dofs < 1:  # a JSON true is no DOF count
        raise ModelError(f"n_dofs must be a positive integer, got {n_dofs!r}")
    if internal_dofs is None:  # a boundary that is not a list fails in LinearSubstructure
        internal_dofs = [i for i in range(n_dofs) if i not in boundary_dofs] if isinstance(boundary_dofs, list) else []
    return n_dofs, {"mass": mass, "damping": damping, "stiffness": stiffness}, internal_dofs, boundary_dofs


def _system_record(substructures, coupling=[], inputs={}, physical=[]):
    """The fields of a system file."""
    return substructures, coupling, inputs, physical


def substructure_to_dict(sub) -> dict:
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


def substructure_from_dict(data: dict, sid: str = "substructure"):
    """Substructure of a system-file record; an unknown or missing key raises ModelError naming it."""
    where = f"substructure {sid!r}"
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
        if "elements" in fields:  # an element's channel defaults to its index
            fields["elements"] = tuple(
                build_from_fields(
                    functools.partial(SuspensionElement, base_excitation_channel=i), e, f"{where} element {i}",
                )
                for i, e in enumerate(fields["elements"])
            )
        return build_from_fields(NonlinearSubstructure, fields, where)
    raise ModelError(f"{where}: field 'kind' must be 'linear' or 'suspension', got {kind!r}")


def save_system(
    path,
    substructures: dict,
    topology: CouplingTopology,
    input_map: dict | None = None,
    physical: tuple = (),
) -> None:
    """Write a system file."""
    doc = {
        "substructures": {sid: substructure_to_dict(sub) for sid, sub in substructures.items()},
        "coupling": [
            [[sa, da, ga], [sb, db, gb]] for (sa, da, ga), (sb, db, gb) in topology.constraints
        ],
        "inputs": {
            sid: {str(dof): int(ch) for dof, ch in chans.items()}
            for sid, chans in (input_map or {}).items()
        },
        "physical": list(physical),
    }
    Path(path).write_text(json.dumps(doc))  # compact: an indent runs the pure-Python encoder


def load_system(path) -> tuple[CoupledSystem, dict]:
    """Read a system file; returns (system, input channel map)."""
    doc = json.loads(Path(path).read_text())
    where = f"system file {path}"
    records, coupling, inputs, physical = build_from_fields(_system_record, doc, where)
    if not isinstance(records, dict):
        raise ModelError(f"{where}: field 'substructures' must map ids to substructure records")
    subs = {sid: substructure_from_dict(d, sid) for sid, d in records.items()}
    try:  # CoupledSystem checks the references again, without the field's name
        topology = CouplingTopology(constraints=coupling)
        _check_references(topology, subs)
    except CouplingError as exc:
        raise ModelError(f"{where}: field 'coupling': {exc}") from None
    system = build_from_fields(CoupledSystem, dict(substructures=subs, topology=topology, physical=physical), where)
    if isinstance(inputs, dict):  # a new map, never the default
        inputs = {
            sid: {_dof_of_key(dof): ch for dof, ch in chans.items()} if isinstance(chans, dict) else chans
            for sid, chans in inputs.items()
        }
    _check_input_map(system, inputs, f"{where}: field 'inputs'")
    return system, inputs


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


def load_reduction(path) -> CraigBamptonReduction:
    with np.load(path) as data:
        record = {name: data[name] for name in _REDUCTION_FIELDS}
    for name in _DOF_FIELDS:
        record[name] = tuple(int(x) for x in record[name])
    trunc = float(record["truncation_frequency"])
    record["truncation_frequency"] = None if np.isnan(trunc) else trunc
    return CraigBamptonReduction(**record)


def _exported_dofs(system: CoupledSystem, all_dofs: bool = False) -> dict:
    """``{sid: DOFs}`` that a trajectory CSV holds, in column order.

    The boundary DOFs of every substructure, after every internal DOF of a
    nonlinear one; ``all_dofs`` exports every DOF.  The reference records
    only these (:func:`~dynsub.monolithic._recording`).
    """
    dofs = {}
    for sid, sub in system.substructures.items():
        if all_dofs:
            dofs[sid] = range(sub.n_dofs)
        elif isinstance(sub, NonlinearSubstructure):
            dofs[sid] = list(sub.internal_dofs) + list(sub.boundary_dofs)
        else:
            dofs[sid] = list(sub.boundary_dofs)
    return dofs


def trajectory_columns(traj: Trajectory, system: CoupledSystem, all_dofs: bool = False):
    """Column specification (label, sub_id, kind, dof) for CSV export, by :func:`_exported_dofs`."""
    exported = _exported_dofs(system, all_dofs)
    cols = []
    for sid in traj.states:
        for dof in exported[sid]:
            cols.append((f"{sid}.u{dof}", sid, "u", dof))
            cols.append((f"{sid}.v{dof}", sid, "v", dof))
    return cols


def _write_csv(path, header, rows: np.ndarray) -> None:
    """Write a table as this package's CSV; an empty ``header`` writes no header line."""
    np.savetxt(path, rows, delimiter=",", header=",".join(header), comments="", fmt="%.17g")


def save_trajectory_csv(path, traj: Trajectory, system: CoupledSystem, all_dofs: bool = False) -> None:
    """Trajectory CSV: time, selected displacements/velocities, multipliers."""
    cols = trajectory_columns(traj, system, all_dofs)
    header = ["time"] + [c[0] for c in cols] + [f"lambda{i}" for i in range(traj.multipliers.shape[1])]
    table = [traj.times]
    for _, sid, kind, dof in cols:
        table.append(traj.displacement(sid, dof) if kind == "u" else traj.velocity(sid, dof))
    for i in range(traj.multipliers.shape[1]):
        table.append(traj.multipliers[:, i])
    _write_csv(path, header, np.column_stack(table))


def load_csv_columns(path) -> tuple[list, np.ndarray]:
    """Read a CSV written by this package; returns (header names, data)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ModelError(f"CSV file {str(path)!r}: {exc}") from None
    return header, data


def save_signals_csv(path, times: np.ndarray, channels: np.ndarray) -> None:
    """Signals CSV: ``time``, then one column per channel; ``channels`` has one row per time."""
    table = np.column_stack([times, channels])
    _write_csv(path, ["time"] + [f"ch{i}" for i in range(table.shape[1] - 1)], table)


def load_signals_csv(path) -> tuple[np.ndarray, np.ndarray]:
    header, data = load_csv_columns(path)
    if not header or header[0] != "time":
        raise ModelError(f"{path} is not a signals CSV (first column must be time)")
    return data[:, 0], data[:, 1:]


def _check_input_map(system: CoupledSystem, input_map, where: str) -> None:
    """Raise ModelError, led by ``where``, before any indexing, for an input map that breaks the module's rules."""
    if not isinstance(input_map, Mapping):
        raise ModelError(f"{where} must map substructure ids to channel maps, got {input_map!r}")
    index = lambda x: isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= 0
    for sid, chans in input_map.items():
        if sid not in system.substructures:
            raise ModelError(f"{where} references unknown substructure {sid!r}")
        n = system.substructures[sid].n_dofs
        if not isinstance(chans, Mapping):
            raise ModelError(f"{where} of {sid!r} must map DOFs to channels, got {chans!r}")
        for dof, ch in chans.items():
            if not (index(dof) and dof < n and index(ch)):
                raise ModelError(f"{where} of {sid!r} must map DOFs below {n} to channel numbers, got {dof!r}: {ch!r}")


def input_tables(system: CoupledSystem, input_map: dict, channels: np.ndarray) -> dict:
    """Expand channel signals into per-substructure force tables.

    ``input_map`` maps substructure id to {dof: channel}, under the rules of
    a system file's ``inputs``; suspension elements additionally pull their
    ``base_excitation_channel`` onto the wheel DOF.
    """
    _check_input_map(system, input_map, "input map")
    n_samples = channels.shape[0]
    tables = {}
    for sid, sub in system.substructures.items():
        table = np.zeros((n_samples, sub.n_dofs))
        used = False
        if isinstance(sub, NonlinearSubstructure):
            for i, e in enumerate(sub.elements):
                if e.base_excitation_channel >= 0:
                    if e.base_excitation_channel >= channels.shape[1]:
                        raise ModelError(
                            f"element {i} of {sid!r} references channel "
                            f"{e.base_excitation_channel}, have {channels.shape[1]}"
                        )
                    table[:, i] = channels[:, e.base_excitation_channel]
                    used = True
        for dof, ch in input_map.get(sid, {}).items():
            if ch >= channels.shape[1]:
                raise ModelError(f"{sid!r} DOF {dof} references channel {ch}, have {channels.shape[1]}")
            table[:, dof] += channels[:, ch]
            used = True
        if used:
            tables[sid] = table
    return tables
