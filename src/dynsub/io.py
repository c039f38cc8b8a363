"""File formats: JSON system files, npz reduction artifacts, CSV tables.

A system file describes substructures, the interface constraints, the
mapping of input channels to driven DOFs, and which substructures count as
physical for sub-cycling.  A linear substructure record carries ``n_dofs``
and stores ``mass``, ``damping`` and ``stiffness`` as sparse triplets
``{"rows": [...], "cols": [...], "values": [...]}``; duplicate entries sum,
as in COO storage, and a missing ``damping`` reads as zero.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .coupling import CouplingTopology
from .models import (
    LinearSubstructure, ModelError, NonlinearSubstructure, SuspensionElement, build_from_fields, require_numbers,
)
from .reduction import CraigBamptonReduction
from .solver import CoupledSystem, Trajectory


_MISSING = object()


def _field(record, key: str, where: str, kind: type = object, default=_MISSING):
    """``record[key]``, checked to be a ``kind``; ``default``, if given, for an absent key."""
    if isinstance(record, dict) and key not in record and default is not _MISSING:
        return default
    if not isinstance(record, dict) or key not in record:
        raise ModelError(f"{where} is missing field {key!r}")
    if not isinstance(record[key], kind):
        raise ModelError(f"{where}: field {key!r} must be a {kind.__name__}")
    return record[key]


def _numbers(where: str, integers: bool = False, **fields) -> None:
    """:func:`~dynsub.models.require_numbers`, with ``where`` leading the message."""
    require_numbers(lambda message: ModelError(f"{where}: {message}"), integers, **fields)


def _integers(record, key: str, where: str, default) -> tuple:
    """``record[key]`` as a tuple, checked to be a list of integers."""
    items = tuple(_field(record, key, where, list, default=default))
    for item in items:
        _numbers(where, True, **{key: item})
    return items


def _to_triplets(matrix: np.ndarray) -> dict:
    rows, cols = np.nonzero(matrix)
    return {"rows": rows.tolist(), "cols": cols.tolist(), "values": matrix[rows, cols].tolist()}


def _from_triplets(entry, n: int, where: str) -> np.ndarray:
    """Dense ``n``-by-``n`` matrix from a triplet record; duplicates sum."""
    rows, cols, values = (_field(entry, key, where, list) for key in ("rows", "cols", "values"))
    if not len(rows) == len(cols) == len(values):
        raise ModelError(f"{where}: rows, cols and values must be of equal length")
    if not (all(type(i) is int and 0 <= i < n for i in rows + cols)
            and all(type(v) in (int, float) for v in values)):
        raise ModelError(f"{where}: rows and cols must be integers in [0, {n}) and values numbers")
    matrix = np.zeros((n, n))
    np.add.at(matrix, (np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)), values)
    return matrix


def substructure_to_dict(sub) -> dict:
    if isinstance(sub, LinearSubstructure):
        return {
            "kind": "linear",
            "n_dofs": sub.n_dofs,
            "mass": _to_triplets(sub.mass),
            "damping": _to_triplets(sub.damping),
            "stiffness": _to_triplets(sub.stiffness),
            "internal_dofs": list(sub.internal_dofs),
            "boundary_dofs": list(sub.boundary_dofs),
        }
    if isinstance(sub, NonlinearSubstructure):
        return {
            "kind": "suspension",
            "elements": [
                {
                    "mass": e.mass,
                    "k1": e.k1,
                    "c1": e.c1,
                    "c2": e.c2,
                    "c3": e.c3,
                    "base_excitation_channel": e.base_excitation_channel,
                }
                for e in sub.elements
            ],
            "boundary_mass": sub.boundary_mass,
            "relative_motion": sub.relative_motion,
        }
    raise ModelError(f"cannot serialize {type(sub).__name__}")


def substructure_from_dict(data: dict, sid: str = "substructure"):
    where = f"substructure {sid!r}"
    kind = _field(data, "kind", where)
    if kind == "linear":
        n = _field(data, "n_dofs", where)
        if not isinstance(n, int) or n < 1:
            raise ModelError(f"{where}: n_dofs must be a positive integer, got {n!r}")
        boundary = _integers(data, "boundary_dofs", where, default=[])
        internal = _integers(data, "internal_dofs", where,
                             default=[i for i in range(n) if i not in boundary])
        damping = data.get("damping", {"rows": [], "cols": [], "values": []})
        return build_from_fields(LinearSubstructure, dict(
            mass=_from_triplets(_field(data, "mass", where), n, f"{where} mass"),
            damping=_from_triplets(damping, n, f"{where} damping"),
            stiffness=_from_triplets(_field(data, "stiffness", where), n, f"{where} stiffness"),
            internal_dofs=internal,
            boundary_dofs=boundary,
        ), where)
    if kind == "suspension":
        elements = []
        for i, e in enumerate(_field(data, "elements", where, list)):
            at = f"{where} element {i}"
            coefficients = {key: _field(e, key, at) for key in ("mass", "k1", "c1", "c2", "c3")}
            channel = _field(e, "base_excitation_channel", at, default=i)
            _numbers(at, **coefficients)
            _numbers(at, True, base_excitation_channel=channel)
            elements.append(build_from_fields(
                SuspensionElement, {**coefficients, "base_excitation_channel": channel}, at,
            ))
        boundary_mass = _field(data, "boundary_mass", where, default=0.016)
        _numbers(where, boundary_mass=boundary_mass)
        return build_from_fields(NonlinearSubstructure, dict(
            elements=tuple(elements),
            boundary_mass=float(boundary_mass),
            relative_motion=_field(data, "relative_motion", where, bool, default=True),
        ), where)
    raise ModelError(f"{where}: unknown kind {kind!r}")


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
    Path(path).write_text(json.dumps(doc, indent=1))


def load_system(path) -> tuple[CoupledSystem, dict]:
    """Read a system file; returns (system, input channel map)."""
    doc = json.loads(Path(path).read_text())
    where = f"system file {path}"
    records = _field(doc, "substructures", where, dict)
    subs = {sid: substructure_from_dict(d, sid) for sid, d in records.items()}
    constraints = []
    for c, entry in enumerate(_field(doc, "coupling", where, list, default=[])):
        at = f"{where}: 'coupling' entry {c}"
        if not isinstance(entry, list) or not all(
            isinstance(side, list) and len(side) == 3 and isinstance(side[0], str) for side in entry
        ):
            raise ModelError(f"{at} must be a list of [substructure, dof, sign] triples, got {entry!r}")
        for _, dof, sign in entry:
            _numbers(at, True, dof=dof, sign=sign)
        constraints.append(tuple(tuple(side) for side in entry))
    physical = _field(doc, "physical", where, list, default=[])
    if not all(isinstance(sid, str) for sid in physical):
        raise ModelError(f"{where}: field 'physical' must be a list of substructure ids, got {physical!r}")
    system = CoupledSystem(
        substructures=subs,
        topology=CouplingTopology(constraints=tuple(constraints)),
        physical=tuple(physical),
    )
    input_map = {}
    for sid, chans in _field(doc, "inputs", where, dict, default={}).items():
        at = f"{where}: 'inputs' of {sid!r}"
        if sid not in subs or not isinstance(chans, dict):
            raise ModelError(f"{at} must map DOFs of a substructure to channels, got {chans!r}")
        input_map[sid] = {}
        for dof, ch in chans.items():
            if not (dof.isdecimal() and int(dof) < subs[sid].n_dofs and type(ch) is int and ch >= 0):
                raise ModelError(
                    f"{at} must map DOFs below {subs[sid].n_dofs} to channel numbers, got {dof!r}: {ch!r}"
                )
            input_map[sid][int(dof)] = ch
    return system, input_map


def save_reduction(path, red: CraigBamptonReduction) -> None:
    np.savez(
        path,
        retained_modes=red.retained_modes,
        constraint_modes=red.constraint_modes,
        transform=red.transform,
        reduced_mass=red.reduced_mass,
        reduced_stiffness=red.reduced_stiffness,
        reduced_damping=red.reduced_damping,
        retained_frequencies=red.retained_frequencies,
        internal_dofs=np.asarray(red.internal_dofs, dtype=int),
        boundary_dofs=np.asarray(red.boundary_dofs, dtype=int),
        truncation_frequency=np.array(
            np.nan if red.truncation_frequency is None else red.truncation_frequency
        ),
    )


def load_reduction(path) -> CraigBamptonReduction:
    with np.load(path) as data:
        trunc = float(data["truncation_frequency"])
        return CraigBamptonReduction(
            retained_modes=data["retained_modes"],
            constraint_modes=data["constraint_modes"],
            transform=data["transform"],
            reduced_mass=data["reduced_mass"],
            reduced_stiffness=data["reduced_stiffness"],
            reduced_damping=data["reduced_damping"],
            retained_frequencies=data["retained_frequencies"],
            internal_dofs=tuple(int(x) for x in data["internal_dofs"]),
            boundary_dofs=tuple(int(x) for x in data["boundary_dofs"]),
            truncation_frequency=None if np.isnan(trunc) else trunc,
        )


def trajectory_columns(traj: Trajectory, system: CoupledSystem | None = None, all_dofs: bool = False):
    """Column specification (label, sub_id, kind, dof) for CSV export.

    Defaults to boundary DOFs of every substructure plus all DOFs of
    nonlinear substructures; ``all_dofs`` exports everything.
    """
    cols = []
    for sid in traj.states:
        n = traj.dof_counts[sid]
        if all_dofs or system is None:
            dofs = range(n)
        else:
            sub = system.substructures[sid]
            dofs = list(sub.boundary_dofs)
            if isinstance(sub, NonlinearSubstructure):
                dofs = list(sub.internal_dofs) + dofs
        for dof in dofs:
            cols.append((f"{sid}.u{dof}", sid, "u", dof))
            cols.append((f"{sid}.v{dof}", sid, "v", dof))
    return cols


def save_trajectory_csv(path, traj: Trajectory, system: CoupledSystem | None = None, all_dofs: bool = False) -> None:
    """Trajectory CSV: time, selected displacements/velocities, multipliers."""
    cols = trajectory_columns(traj, system, all_dofs)
    header = ["time"] + [c[0] for c in cols] + [f"lambda{i}" for i in range(traj.multipliers.shape[1])]
    table = [traj.times]
    for _, sid, kind, dof in cols:
        table.append(traj.displacement(sid, dof) if kind == "u" else traj.velocity(sid, dof))
    for i in range(traj.multipliers.shape[1]):
        table.append(traj.multipliers[:, i])
    data = np.column_stack(table)
    np.savetxt(path, data, delimiter=",", header=",".join(header), comments="", fmt="%.17g")


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
    channels = np.atleast_2d(np.asarray(channels, dtype=float))
    if channels.shape[0] != len(times):
        channels = channels.T
    header = ["time"] + [f"ch{i}" for i in range(channels.shape[1])]
    np.savetxt(
        path,
        np.column_stack([times, channels]),
        delimiter=",",
        header=",".join(header),
        comments="",
        fmt="%.17g",
    )


def load_signals_csv(path) -> tuple[np.ndarray, np.ndarray]:
    header, data = load_csv_columns(path)
    if not header or header[0] != "time":
        raise ModelError(f"{path} is not a signals CSV (first column must be time)")
    return data[:, 0], data[:, 1:]


def input_tables(system: CoupledSystem, input_map: dict, channels: np.ndarray) -> dict:
    """Expand channel signals into per-substructure force tables.

    ``input_map`` maps substructure id to {dof: channel}; suspension elements
    additionally pull their ``base_excitation_channel`` onto the wheel DOF.
    """
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
        for dof, ch in (input_map.get(sid) or {}).items():
            if ch >= channels.shape[1]:
                raise ModelError(f"{sid!r} DOF {dof} references channel {ch}, have {channels.shape[1]}")
            table[:, dof] += channels[:, ch]
            used = True
        if used:
            tables[sid] = table
    return tables
