"""Partitioned trapezoidal time integration with dual interface coupling.

Each coupled step computes a free trapezoidal solution per substructure
(ignoring the interfaces inside the step), then the Lagrange-multiplier
intensities of the small condensed interface problem, and adds the
resulting link solutions.  The multipliers enforce signed
boundary-velocity compatibility exactly at every step; displacements are
coupled softly through the link corrections.  At a fixed dt the interface
solve is a fixed linear map of the step groups' free velocities ``v_k``::

    lam = -(dt/2*H)^{-1} sum_k L_v,k^T v_k = sum_k C_k v_k,
    C_k = -(dt/2*H)^{-1} L_v,k^T

so the solver solves with ``H`` only at construction, once per group for
its map ``C_k`` (``n_lam x n_k``, no rows without constraints), and a
coupled step writes ``lam`` into its row of the multipliers by one product
per group.

The integrator is the trapezoidal rule, with the half step ``dt/2`` in
every stage.  Its step of the first-order form ``A Ydot + R(Y) = F`` solves
``D = A + dt/2*R0 = [[I, -dt/2 I], [dt/2 K, M + dt/2 C]]``.
Its displacement rows eliminate exactly, so every solve is with the
condensed matrix ``S = M + dt/2 C + (dt/2)^2 K`` of half the size,
applied to momentum-row right-hand sides.  The elimination moves
``dt/2 K v`` into the force law's displacement argument, which is exact
because every force law is affine in ``u`` with slope ``K``
(:mod:`dynsub.models`).

``S``, ``H`` and the starting rate's ``M`` are factorized once each by
:func:`~dynsub.coupling._factorize`: LAPACK LU or SuperLU by storage.

A "physical" substructure may be sub-cycled: its free solution is ``ss``
inner trapezoidal steps at dt/ss, each injecting the previous coupled step's
multipliers with a linearly decaying ramp weight (1 - j/ss).  Every other
substructure takes one inner step.  The solver plans the stepping once, at
construction: substructures that take the same number of inner steps form a
group, stepped together as one block-diagonal form, the primal assembly of
its members without constraints (:func:`~dynsub.coupling.assemble_global`,
CSR if a member is).  A group of one member steps that member's own form.
Each group factorizes its stacked ``S`` once.  Its ``b = S^{-1} L_v``
gives both the group's link maps and its share ``L_v^T b`` of the
interface operator ``H``, and the same factors drive its free steps and
its propagator.

A coupled step of a group is a window of its ``ss`` inner steps, stepped
in one buffer of ``ss + 1`` rows: row 0 holds the coupled state and row j
the state after inner step j.  The link correction turns the last row
into the coupled state, which closes the window and opens the next.

A group of at most ``_PROPAGATOR_MAX_DOFS`` DOFs steps through a
precomputed affine propagator.  The force law is
``g(u, v) = K u + C v + B^T (slope * phi(B v, c3))``
(:mod:`dynsub.models`), so a step is linear in ``z = [Y; Ydot]`` (4n
entries) and ``f`` except for ``phi`` of the element rates ``xd``::

    z+ = Phi z + Psi phi(xd, c3) + Gamma f,    xd = Q z

``Phi`` and ``Gamma`` are :func:`free_step` of the linear part, called once
at construction on a block of unit states and unit forces.  ``Q`` takes
the element rates ``B (v + dts/2 vdot)`` at the predicted velocity
(``dts`` is the group's inner step), and ``Psi = -Gamma B^T diag(slope)``
folds each row's slope into the feedback.  A row of the group's window
carries the rates along, and the forcing of the inner step it starts:
``r = [z; xd; f; w_j lam]``, where ``f`` is the force rows of the driven
DOFs only and ``w_j lam`` the multipliers at the step's ramp weight (these
columns only if ``ss > 1``).  One matrix, built once per run, steps it::

    [z+; xd+] = [[Phi, Psi, Gamma_f, Gamma L_v],
                 [Q Phi, Q Psi, Q Gamma_f, Q Gamma L_v]] [z; phi(xd, c3); f; w_j lam]

with ``Gamma_f`` the columns of ``Gamma`` at the driven DOFs.  An inner
step applies ``phi`` in place on its row's ``xd`` (four ufuncs, none for a
linear group) and is then one product into the next row's ``[z; xd]``.
A window copies its force rows into the ``f`` columns and writes the
ramped multipliers with one multiply, so a propagated group holds no force
vector per DOF.  An undriven group at ``ss = 1`` has neither column block
and steps with the square matrix itself.  Its link map has the rows
``Q link`` too, so that ``xd`` stays ``Q z`` after the correction.  Larger
groups, such as an unreduced frame, call :func:`free_step` at every inner
step, because their dense ``Phi`` costs more than the solve; the
monolithic reference does too.  Propagated groups agree with
:func:`free_step` stepping to round-off, about 1e-14 of the state scale.

Every solver shares one force path, the driven rows of
:func:`_global_forces`, one coupled step at a time, added onto zeroed DOFs
in input order by :func:`_force` (a propagated group projects them
instead), one record path, :class:`_Records`, one divergence check,
:func:`_check_divergence`, on all groups' coupled states at once (a
reference's global state), and one :class:`Trajectory` builder,
:func:`_trajectory`.  Both references of :mod:`dynsub.monolithic` step
through :func:`_step_assembled`, each with its own kernel.  A free-step
group scatters the rows of a window, and a reference those of a step, as
they go; a step group writes each member's rows of a window into its
record in one block.  None keeps a whole-run record of its
stepped state, nor scatters the driven columns into a whole-run force
table with a column per DOF, nor resamples a table for the whole run.
The partitioned solver and ``solve_monolithic`` take ``dofs=``, checked
once by :func:`_recorded_dofs`, which lists every DOF when it is None.
Every record, coarse or fine, holds the ``[u; v]`` columns of its listed
DOFs, and the :class:`Trajectory` keeps each list, in the system's order
whatever the step groups, and finds a DOF's columns in it; both check
DOFs by :func:`~dynsub.models._dof_array`.  ``dynsub simulate`` and
``run_experiment`` record only the DOFs they write (``dynsub.io._exported_dofs``).
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np
from scipy.linalg.blas import ddot

from .coupling import (
    CouplingError,
    CouplingTopology,
    InterfaceOperator,
    _check_references,
    _factorize,
    _stores_csr,
    assemble_global,
    locator_matrix,
    steklov_poincare,
)
from .models import (
    FirstOrderForm,
    ModelError,
    NonlinearSubstructure,
    _dof_array,
    assemble_first_order,
    friction_shape,
    require_numbers,
)


class SolverError(RuntimeError):
    """Raised for ill-posed solver configurations."""


class DivergenceError(SolverError):
    """Raised when a state norm exceeds the divergence bound.

    ``sub_id`` and ``dof`` name the substructure and its DOF that hold the
    first non-finite entry of the checked state, or else its largest
    (:func:`_check_divergence`).  The monolithic reference checks its global
    state after every step; the partitioned solver checks the coupled states
    of all its step groups together after every coupled step, so the
    largest entry across the groups is named whatever the sub-cycling.
    """

    def __init__(self, step: int, sub_id, dof: int, norm: float, limit: float):
        self.step = step
        self.sub_id = sub_id
        self.dof = dof
        super().__init__(
            f"state of {sub_id!r} diverged at step {step} in DOF {dof} (|Y| = {norm:.3e} > {limit:.3e})"
        )


@dataclass(frozen=True)
class SolverConfig:
    """Time-integration parameters shared by all substructures."""

    dt: float
    duration: float
    subcycles: int = 1
    divergence_limit: float = 1e8

    def __post_init__(self):
        require_numbers(SolverError, False, "positive", dt=self.dt)
        require_numbers(SolverError, duration=self.duration, divergence_limit=self.divergence_limit)
        require_numbers(SolverError, True, "positive", subcycles=self.subcycles)
        if not self.divergence_limit > 0:  # also rejects nan, which would switch the bound off
            raise SolverError(f"field 'divergence_limit' must be positive, got {self.divergence_limit}")
        steps = self.duration / self.dt  # the one rule on duration: it also refuses a zero, negative or nan one
        if not math.isfinite(steps) or round(steps) < 1 or abs(steps - round(steps)) > 1e-9 * steps:
            raise SolverError(
                f"field 'duration' ({self.duration}) must be a whole number of steps of "
                f"field 'dt' ({self.dt}), got duration/dt = {steps:.12g}"
            )

    @property
    def n_steps(self) -> int:
        return round(self.duration / self.dt)


@dataclass(frozen=True)
class CoupledSystem:
    """Substructures, the interface topology that couples them, and the routing of input channels.

    ``physical`` lists the substructure ids that run at the finer inner time
    step when sub-cycling is enabled; by default every nonlinear substructure
    is treated as physical, and must name substructures.  ``input_map`` maps
    a substructure id to ``{dof: channel}``: which channel of a signals
    table drives which DOF (:func:`dynsub.io.input_tables`), kept in the
    caller's order; a substructure it does not name is not driven.
    Its ids are substructures, and its DOFs and its channels (without a
    bound) meet the DOF-list rule of :func:`~dynsub.models._dof_array`; a
    map that breaks this raises ModelError naming the first bad pair.  The
    topology's references are checked by
    :func:`~dynsub.coupling._check_references`.  A system file holds all
    four fields (:mod:`dynsub.io`).  ``substructures`` and ``input_map`` are
    read-only views, so a system holds what its checks passed, and
    :func:`dynsub.io.save_system` writes it without checking it again.
    """

    substructures: Mapping
    topology: CouplingTopology
    physical: tuple = ()
    input_map: Mapping = field(default_factory=dict)

    def __post_init__(self):
        subs = dict(self.substructures)
        if not subs:
            raise CouplingError("the system has no substructures")
        object.__setattr__(self, "substructures", MappingProxyType(subs))
        _check_references(self.topology, subs)
        if not (isinstance(self.physical, (tuple, list))
                and all(isinstance(sid, Hashable) and sid in subs for sid in self.physical)):
            raise ModelError(f"field 'physical' must be a list of ids of its substructures, got {self.physical!r}")
        object.__setattr__(self, "physical", tuple(self.physical))
        if not isinstance(self.input_map, Mapping):  # before input_tables indexes by it: numpy reads -1 as the last
            raise ModelError(f"input map must map substructure ids to channel maps, got {self.input_map!r}")
        for sid, chans in self.input_map.items():
            if sid not in subs:
                raise ModelError(f"input map references unknown substructure {sid!r}")
            n = subs[sid].n_dofs
            if not isinstance(chans, Mapping):
                raise ModelError(f"input map of {sid!r} must map DOFs to channels, got {chans!r}")
            broken = [_dof_array(chans.keys(), n)[1], _dof_array(chans.values(), np.iinfo(np.intp).max)[1]]
            if positions := [found[0] for found in broken if found]:
                dof, ch = list(chans.items())[min(positions)]
                raise ModelError(f"input map of {sid!r} must map DOFs below {n} to channel numbers, "
                                 f"got {dof!r}: {ch!r}")
        object.__setattr__(self, "input_map", MappingProxyType(
            {sid: MappingProxyType(dict(chans)) for sid, chans in self.input_map.items()}))

    def physical_ids(self) -> tuple:
        if self.physical:
            return self.physical
        return tuple(
            sid for sid, sub in self.substructures.items()
            if isinstance(sub, NonlinearSubstructure)
        )


@dataclass
class Trajectory:
    """Time histories of coupled states and interface-force intensities.

    ``states[sub_id]`` has one row per coupled instant.  Sub-cycled
    substructures additionally record their inner samples in
    ``fine_states`` at spacing dt/ss (the last sample of each window holds the
    coupled state).  ``dof_counts[sub_id]`` is the substructure's DOF count.
    ``_dofs[sub_id]`` lists the DOFs a record holds, in column order: every
    DOF, or those of a solver's ``dofs=``.  Both records of a substructure
    hold the columns ``[u; v]`` of those DOFs.  :meth:`_columns` finds the
    columns of DOFs in either record, for :meth:`displacement`,
    :meth:`velocity` and the CSV export.  They raise SolverError naming an
    id that is not in the trajectory, or the substructure and the first DOF
    that breaks the DOF-list rule (:func:`~dynsub.models._dof_array`) or is
    not recorded.  Every dict lists the ids in the system's order.
    """

    times: np.ndarray
    states: dict
    multipliers: np.ndarray
    dof_counts: dict
    fine_times: dict = field(default_factory=dict)
    fine_states: dict = field(default_factory=dict)
    _dofs: dict = field(default_factory=dict, repr=False)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def _columns(self, sub_id, dofs) -> np.ndarray:
        """``[[u, v], ...]``: the columns of each of ``dofs`` in ``states[sub_id]``, found through an inverse array."""
        if sub_id not in self.states:
            raise SolverError(f"substructure {sub_id!r} is not in the trajectory, which holds {list(self.states)}")
        recorded, n = self._dofs[sub_id], self.dof_counts[sub_id]
        inverse = np.full(n, -1)
        inverse[recorded] = np.arange(len(recorded))
        dofs, broken = _dof_array(dofs, n)
        columns = np.full(1, -1) if broken else inverse[dofs]
        if columns.size and columns.min() < 0:
            held = f"{n} DOFs" if len(recorded) == n else f"DOFs {sorted(recorded.tolist())}"
            dof = broken[1] if broken else dofs[np.argmin(columns)].item()
            raise SolverError(f"substructure {sub_id!r} DOF {dof!r} is not in the trajectory, which holds {held}")
        return np.stack([columns, len(recorded) + columns], axis=-1)

    def displacement(self, sub_id, dof: int) -> np.ndarray:
        ((u, _),) = self._columns(sub_id, [dof])
        return self.states[sub_id][:, u]

    def velocity(self, sub_id, dof: int) -> np.ndarray:
        ((_, v),) = self._columns(sub_id, [dof])
        return self.states[sub_id][:, v]


@dataclass(frozen=True)
class EffectiveMatrix:
    """Factorized condensed effective matrix S = M + dt/2*C + (dt/2)^2*K.

    ``solve`` applies ``S^{-1}`` to momentum-row right-hand sides (n rows).
    ``matrix`` is a dense array or, for a sparse form, a CSR array.
    """

    matrix: np.ndarray
    _solve: object  # rhs -> S^{-1} rhs

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._solve(rhs)


def effective_matrix(form: FirstOrderForm, dt: float) -> EffectiveMatrix:
    """Assemble and factorize S = M + dt/2*C + (dt/2)^2*K for repeated solves.

    The tangent blocks are state-independent, so S is assembled once per
    simulation; the solver calls this once per step group, on the group's
    stacked form at its inner step dt/ss.  :func:`~dynsub.coupling._factorize`
    picks LAPACK LU for a dense form and SuperLU for a sparse one (CSR
    blocks, :func:`~dynsub.coupling.assemble_global` with ``sparse=True``).
    The pivots are judged against the largest of the three terms, so a
    stiffness that cancels the mass is reported as singular.
    """
    half = dt / 2
    terms = (form.mass, half * form.damping, half * half * form.stiffness)
    s = terms[0] + terms[1] + terms[2]
    return EffectiveMatrix(matrix=s, _solve=_factorize(
        s, lambda: SolverError(f"effective matrix singular for dt={dt}"),
        scale=max(abs(t).max() for t in terms),
    ))


def free_step(
    form: FirstOrderForm,
    d: EffectiveMatrix,
    y: np.ndarray,
    ydot: np.ndarray,
    force: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One trapezoidal predictor-corrector step without interface forces.

    Predict Y~ = [u~; v~] = Y + dt/2*Ydot, solve
    S @ a = f - g(u~ + dt/2*v~, v~) for the acceleration, and correct
    with Ydot+ = [v~ + dt/2*a; a], Y+ = Y~ + dt/2*Ydot+.  This is
    the solve D @ Ydot+ = F - R(Y~) of the first-order form, condensed onto
    the momentum rows.  ``force`` is the physical force f (n entries).
    """
    n = form.n_dofs
    half = dt / 2
    y_pred = y + half * ydot
    u_pred, v_pred = y_pred[:n], y_pred[n:]
    acc = d.solve(force - form.momentum(u_pred + half * v_pred, v_pred))
    ydot_new = np.concatenate([v_pred + half * acc, acc])
    return y_pred + half * ydot_new, ydot_new


def coupling_step(
    interface: InterfaceOperator,
    free_velocities: Mapping,
    compat: Mapping,
    link_maps: Mapping,
    dt: float,
) -> tuple[np.ndarray, dict]:
    """Identify the interface-force intensities and the link states by one interface solve.

    The intensities annihilate the signed velocity gap of the free
    solutions: lam = -(dt/2*H)^{-1} sum_s L_v,s^T @ v_s^free, with
    ``compat[s] = L_v,s^T`` and ``dt`` the coupled step.  The link state of
    ``s`` is ``link_maps[s] @ lam``, where ``link_maps[s] = dt/2 * D_s^{-1} L_s``.
    A key may stand for one substructure or for a stack of them.

    This is the coupling of the hand-stepped test reference, and a name
    that the benchmark's tracer patches.  :meth:`PartitionedSolver.run`
    does not call it: it computes the same ``lam`` as ``sum_k C_k v_k``
    with the maps its constructor solved for.
    """
    residual = None
    for key, g in compat.items():
        contrib = g @ free_velocities[key]
        residual = contrib if residual is None else residual + contrib
    lam = -interface.solve(residual) / (dt / 2)
    links = {key: link_maps[key] @ lam for key in compat}
    return lam, links


def _start(form: FirstOrderForm, initial, force: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Checked starting state Y0 (zeros if ``initial`` is None) and its rate: A @ Ydot0 = F0 - R(Y0).

    ``force`` is the physical force at the first instant.  A bad state or a
    singular ``M`` raises :class:`SolverError` naming ``what``.
    """
    n = form.n_dofs
    y = np.zeros(2 * n) if initial is None else np.asarray(initial, dtype=float).copy()
    if y.shape != (2 * n,):
        raise SolverError(f"initial state of {what} must have length {2 * n}, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise SolverError(f"initial state of {what} holds a non-finite value")
    solve = _factorize(form.mass, lambda: SolverError(
        f"mass matrix of {what} is singular, so its starting acceleration is undefined"
    ))
    return y, np.concatenate([y[n:], solve(force - form.momentum(y[:n], y[n:]))])


def _check_divergence(step: int, limit: float, *checked: tuple) -> None:
    """Raise :class:`DivergenceError` if a checked state holds a non-finite value or one beyond ``limit``.

    Each of ``checked`` is a state ``y = [u; v]`` and its ``dof_map``.  A
    state passes on one BLAS ``ddot`` if ``y.y <= (limit/2)**2``, because
    ``max|y| <= |y|``; the factor of two leaves room for the rounding of the
    sum.  ``ddot`` overflows to inf without numpy's warning, so a nan, an
    overflowed product or a limit whose square is not finite leads to the
    exact scan of ``max|y|``, and the outcome is the scan's.  The error
    names the first non-finite entry of the first state that holds one, or
    else the largest entry of all, by its owner in that state's
    ``dof_map``: the first id, in the map's order, whose DOFs hold that
    entry's DOF of ``y``, and the DOF's first place among them.  The owner
    is looked up only on failure.
    """
    bound = 0.25 * limit * limit
    if math.isfinite(bound) and all(not y.size or ddot(y, y) <= bound for y, _ in checked):
        return
    norms = [np.abs(y).max() if y.size else 0.0 for y, _ in checked]
    if all(math.isfinite(norm) and norm <= limit for norm in norms):
        return
    k = next((k for k, norm in enumerate(norms) if not math.isfinite(norm)), int(np.argmax(norms)))
    (y, dof_map), norm = checked[k], norms[k]
    finite = np.isfinite(y)
    dof = int(np.argmin(finite) if not finite.all() else np.argmax(np.abs(y))) % (len(y) // 2)
    sid, ids = next((sid, ids) for sid, ids in dof_map.items() if dof in ids)
    raise DivergenceError(step, sid, int(np.flatnonzero(ids == dof)[0]), float(norm), limit)


def _input_table(sid, table, n_dofs: int, n_steps: int, ss: int, inner: bool) -> np.ndarray:
    """Check a force table, and decimate one on the inner grid onto the coupled grid unless ``inner``.

    A table holds one row per coupled instant (``n_steps + 1`` rows) or one
    per inner instant of ``ss``-fold sub-cycling (``n_steps*ss + 1`` rows).
    Inner samples are decimated with ``[::ss]``; every other table is
    returned as it is (:func:`_global_forces` interpolates coupled samples
    one step at a time).  Raises :class:`SolverError` for a wrong shape and
    names the first row that holds a nan or inf.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != n_dofs:
        raise SolverError(f"input table for {sid!r} must have {n_dofs} columns, got {table.shape}")
    coupled, fine = n_steps + 1, n_steps * ss + 1
    if table.shape[0] not in (coupled, fine):
        also = f" (or {fine} at the inner sampling)" if ss > 1 else ""
        raise SolverError(f"input table for {sid!r} must have {coupled} rows{also}, got {table.shape[0]}")
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise SolverError(f"input table for {sid!r} holds a non-finite value in row {row}")
    return table if inner or table.shape[0] == coupled else table[::ss]


def _known_inputs(inputs: Mapping | None, known) -> dict:
    """The tables of ``inputs`` that are not None; an id not in ``known`` raises :class:`SolverError`."""
    for sid in inputs or ():
        if sid not in known:
            raise SolverError(f"input table for {sid!r} names no substructure")
    return {sid: table for sid, table in (inputs or {}).items() if table is not None}


def _global_forces(dof_map: Mapping, inputs: dict, config: SolverConfig, inner: bool) -> tuple:
    """``(ids, first, rows)``: the DOFs that ``inputs`` drive in ``dof_map``, in input order, and their force rows.

    ``first`` is the row at the first instant, and ``rows(step)`` the rows
    of the inner instants 1..ss of coupled step ``step``, one column per id,
    with ``ss = config.subcycles`` if ``inner``, else 1
    (:func:`_input_table` checks each table).  A table on that grid gives
    its rows as they are, a view if it is the only one.  A table on the
    coupled grid of a sub-cycled step is interpolated linearly across the
    step, ``(1 - w) a + w b`` at ``w = j/ss``, so its last row is the
    coupled sample itself; no table is resampled for the whole run.
    """
    ss = config.subcycles if inner else 1
    ids, tables = [np.zeros(0, dtype=np.intp)], []
    for sid, table in inputs.items():
        if sid in dof_map:
            ids.append(dof_map[sid])
            tables.append(_input_table(sid, table, len(ids[-1]), config.n_steps, config.subcycles, inner))
    on_grid = config.n_steps * ss + 1
    upper = np.arange(1, ss + 1)[:, None] / ss
    lower, undriven = 1.0 - upper, np.zeros((ss, 0))

    def rows(step: int) -> np.ndarray:
        blocks = [
            table[(step - 1) * ss + 1: step * ss + 1] if len(table) == on_grid
            else lower * table[step - 1] + upper * table[step]
            for table in tables
        ]
        return blocks[0] if len(blocks) == 1 else np.hstack([undriven, *blocks])

    return np.concatenate(ids), np.concatenate([np.zeros(0), *(table[0] for table in tables)]), rows


def _force(ids: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Force vectors on ``n`` DOFs of a row, or a block of rows, of :func:`_global_forces`.

    The unbuffered scatter adds onto zeros in input order, so a DOF driven
    from two sides sums in a fixed order.
    """
    force = np.zeros(rows.shape[:-1] + (n,))
    np.add.at(force, (..., ids), rows)
    return force


class _Records:
    """Per-member records of a stepped state of ``n`` DOFs, written row by row or a block of rows at a time.

    ``dof_map[sid]`` places a member's DOFs in the state, a step group's or
    an assembled system's, and ``dofs[sid]``, :func:`_recorded_dofs` of the
    caller's ``dofs=``, lists the DOFs its record holds, in column order: the
    state columns ``ids[d]`` and ``n + ids[d]``, the ``[u; v]`` of those
    DOFs.  ``records[rows] = y`` copies each member's columns of a state, or
    of a block of states, into those rows of its own record.  ``into`` takes
    the same writes; where one member's record is the whole state in order,
    it is that record, which takes the state as it is, with no gather.  Both
    solvers build every record here, and :func:`_trajectory` returns them.
    """

    def __init__(self, dof_map: Mapping, n: int, rows: int, dofs: Mapping):
        self.dof_counts = {sid: len(ids) for sid, ids in dof_map.items()}
        self.dofs = {sid: dofs[sid] for sid in dof_map}
        self.columns = {sid: np.concatenate([ids[dofs[sid]], n + ids[dofs[sid]]]) for sid, ids in dof_map.items()}
        self.states = {sid: np.empty((rows, len(cols))) for sid, cols in self.columns.items()}
        (sid, cols), *others = self.columns.items()
        whole = not others and np.array_equal(cols, np.arange(2 * n))
        self.into = self.states[sid] if whole else self

    def __setitem__(self, rows, y: np.ndarray) -> None:
        for sid, cols in self.columns.items():
            self.states[sid][rows] = y[..., cols]


def _recorded_dofs(dofs, dof_counts: Mapping) -> dict:
    """``dofs`` checked, as ``{sid: DOFs}``, an integer array for every id of ``dof_counts``.

    ``dofs=None`` records every DOF, ``np.arange(n)``.  Otherwise ``dofs``
    maps substructure ids to lists of distinct DOFs
    (:func:`~dynsub.models._dof_array`), none for an id it leaves out;
    anything else raises :class:`SolverError` naming the substructure and
    the value.  Both solvers check their ``dofs=`` here, once per run.
    """
    if dofs is None:
        return {sid: np.arange(n) for sid, n in dof_counts.items()}
    if not isinstance(dofs, Mapping):
        raise SolverError(f"the DOFs to record must map substructure ids to lists of DOFs, got {dofs!r}")
    for sid in dofs:
        if sid not in dof_counts:
            raise SolverError(f"the DOFs to record name no substructure {sid!r}")
    checked = {}
    for sid, n in dof_counts.items():
        checked[sid], broken = _dof_array(dofs.get(sid, ()), n, distinct=True)
        if broken:
            dof, reason = broken[1:]
            raise SolverError({
                "not a list": f"DOFs to record of substructure {sid!r} must be a list, got {dof!r}",
                "repeated": f"substructure {sid!r} DOF {dof!r} is named twice in the DOFs to record",
            }.get(reason, f"substructure {sid!r} has no DOF {dof!r} to record: its DOFs are 0 to {n - 1}"))
    return checked


def _trajectory(config: SolverConfig, records, multipliers: np.ndarray, order) -> Trajectory:
    """The :class:`Trajectory` of a run's multipliers and records, each ``(record, ss)`` of ``ss`` rows per step.

    Every ``ss``-th row is a coupled state; a sub-cycled record is also
    kept whole, as the fine record at spacing ``dt/ss``.  Each dict lists
    the ids in ``order``, the system's.  Every solver's trajectory is built
    here, a reference's from one record at ``ss = 1``.
    """
    traj = Trajectory(np.arange(config.n_steps + 1) * config.dt, {}, multipliers, {})
    held = {sid: (record, ss) for record, ss in records for sid in record.states}
    for sid in order:
        record, ss = held[sid]
        traj.dof_counts[sid], traj._dofs[sid], fine = record.dof_counts[sid], record.dofs[sid], record.states[sid]
        traj.states[sid] = fine[::ss]
        if ss > 1:
            traj.fine_states[sid] = fine
            traj.fine_times[sid] = np.arange(len(fine), dtype=float)
            traj.fine_times[sid] *= config.dt / ss  # in place: no second whole-run grid
    return traj


def _step_assembled(asys, config: SolverConfig, inputs, initial, dofs, step: Callable) -> Trajectory:
    """Step an assembled system's state ``y = [u; v]`` with ``step(y, ydot, force) -> (y, ydot)``: the references' loop.

    ``asys`` is an :class:`~dynsub.coupling.AssembledSystem`.  Forces,
    start, records and divergence check take the partitioned solver's
    paths; the check sees the whole state whatever ``dofs`` records.
    """
    n, dof_map = asys.n_dofs, asys.dof_map
    force_ids, first, rows = _global_forces(dof_map, _known_inputs(inputs, dof_map), config, False)
    recorded = _recorded_dofs(dofs, {sid: len(ids) for sid, ids in dof_map.items()})
    records = _Records(dof_map, n, config.n_steps + 1, recorded)
    y, ydot = _start(asys.first_order(), initial, _force(force_ids, first, n), "the assembled system")
    records[0] = y
    for k in range(1, config.n_steps + 1):
        y, ydot = step(y, ydot, _force(force_ids, rows(k)[0], n))
        records[k] = y
        _check_divergence(k, config.divergence_limit, (y, dof_map))
    return _trajectory(config, [(records, 1)], np.zeros((config.n_steps + 1, 0)), dof_map)


# Largest group, in DOFs, stepped through a precomputed propagator.  A
# propagator step multiplies the row r = [z; xd; f; w lam] by a dense
# matrix of 4n + elements rows, while a free step solves with the n x n
# factors, so the propagator wins on small groups only.  Per inner step
# with serial OpenBLAS (free step against propagator; one group of a
# reduced 200-DOF frame and the driven suspension bank; medians of 10
# alternating pairs), a 2-vCPU Xeon with 4 MB of L2 measured, at ss = 1
# and at ss = 10: 34 DOFs 32.0 / 9.4 us and 26.4 / 8.1 us, 48 DOFs
# 32.6 / 12.6 and 17.8 / 8.6, 56 DOFs 20.6 / 8.8 and 17.3 / 8.1, 64 DOFs
# 22.2 / 10.9 and 29.5 / 16.7, 88 DOFs 38.7 / 28.3 and 30.6 / 19.3; the
# propagator won all 10 pairs at every size.  Another 2-vCPU host had the
# propagator behind from 56 DOFs on (13.0 / 34.2 us there, and 208 DOFs
# 36 / 685) with an earlier layout whose matrix had 4n columns.  The limit
# is the largest size at which the propagator took at most 0.57 of the
# free step's time at both rates; at 88 DOFs it took up to 0.73, a margin
# that a host with a slower matrix-vector product can lose.
_PROPAGATOR_MAX_DOFS = 64


@dataclass(frozen=True)
class _Propagator:
    """One inner step of a group as ``r+ = M [z; phi(xd, c3)] + forcing f + injected w lam`` on ``r = [z; xd]``.

    ``z = [y; ydot]`` stacks the state and its rate (4n entries), and ``xd``
    holds the element rates at the predicted velocity of the next step,
    ``xd = Q z``.  ``Phi`` and ``Gamma`` are the free step of the group's
    linear part applied to unit states and unit forces, and
    ``Psi = -Gamma B^T diag(slope)`` feeds ``phi`` back as a force, so that
    ``z+ = Phi z + Psi phi(xd, c3) + Gamma f``.  ``step`` is
    ``M = [[Phi, Psi], [Q Phi, Q Psi]]``, whose last rows carry
    ``xd+ = Q z+`` along.  ``forcing`` is ``[Gamma; Q Gamma]``, a column per
    DOF, ``injected`` is ``[Gamma L_v; Q Gamma L_v]`` for the ramped
    multipliers and ``rates`` is ``Q``.  :meth:`_Group.stepper` puts the
    columns it needs beside ``M``, so that one product takes the row
    ``[z; xd; f; w lam]`` whole.
    """

    step: np.ndarray
    forcing: np.ndarray
    injected: np.ndarray
    rates: np.ndarray


def _propagator(form: FirstOrderForm, effective, dt: float, injector: np.ndarray) -> _Propagator:
    """Build a group's propagator from :func:`free_step`, called once on unit blocks."""
    n = form.n_dofs
    size = 4 * n
    linear = dataclasses.replace(form, rates=form.rates[:0], slope=form.slope[:0], smoothing=form.smoothing[:0])
    # columns: each unit state z under zero force, then each unit force from rest
    unit = np.eye(size + n)
    y, ydot = free_step(linear, effective, unit[:2 * n], unit[2 * n:size], unit[size:], dt)
    response = np.concatenate([y, ydot])
    phi, gam = response[:, :size], response[:, size:]
    b = form.rates
    q = np.zeros((len(b), size))
    q[:, n:2 * n] = b  # B (v + dt/2 vdot): the predicted element rates
    q[:, 3 * n:] = dt / 2 * b
    top = np.hstack([phi, -gam @ (b.T * form.slope)])
    gam = np.concatenate([gam, q @ gam])
    return _Propagator(
        step=np.concatenate([top, q @ top]),
        forcing=gam,
        injected=gam @ injector,
        rates=q,
    )


@dataclass(frozen=True)
class _Group:
    """Substructures with one inner-step count, stepped as one stacked form.

    The stacked form is the members' assembly without constraints, or a
    single member's own form.  ``dofs[sid]`` gives a member's DOFs in the
    stacked form (its ``dof_map``), so its ``[u; v]`` are the columns
    ``ids`` and ``n + ids`` of the form's state ``y`` (and its rate those
    of ``ydot``).  ``effective`` factorizes the stacked ``S`` at the inner
    step.  ``ramp`` holds the weights 1 - j/ss of the inner steps
    j = 1..ss as a column and ``injector`` stacks the members' ``L_v``.

    A coupled step of the group is a window of ``ss`` inner steps in a
    buffer of ``ss + 1`` rows: row 0 holds the coupled state, and the
    group's :meth:`stepper` writes the state after inner step j into row j.
    A row is ``z = [y; ydot]``, followed in a group of at most
    ``_PROPAGATOR_MAX_DOFS`` DOFs, which steps through its ``propagator``,
    by the element rates ``xd = Q z`` and the forcing of the inner step
    that the row starts: the driven force rows and the ramped multipliers.
    A larger group calls :func:`free_step`.  ``link`` maps the multipliers
    to the change of a row's first ``len(link)`` entries, the state and
    rates, by the link solutions.
    """

    subcycles: int
    dt: float  # of an inner step
    form: FirstOrderForm
    effective: EffectiveMatrix
    dofs: dict
    ramp: np.ndarray
    injector: np.ndarray
    link: np.ndarray
    propagator: _Propagator | None

    def stepper(self, ids: np.ndarray, rows: Callable[[int], np.ndarray]) -> tuple:
        """``(window, advance)``: the group's window and ``advance(lam, step)``, the free inner steps of a coupled step.

        ``advance`` steps from row 0 of ``window`` into rows 1..ss on
        ``rows(step)``, the window's force rows of the DOFs ``ids``
        (:func:`_global_forces`).  A free-step group scatters them with
        :func:`_force`, adds the ramped multipliers and calls
        :func:`free_step`.  A propagated group copies them into the ``f``
        columns of its rows ``[z; xd; f; w_j lam]`` and writes the ramped
        multipliers after them (if ``ss > 1``).  Each inner step is then
        ``phi`` in place on ``xd`` and one product with
        ``[M | forcing[:, ids] | injected]`` into the next row's first
        ``len(link)`` entries.  An undriven group at ``ss = 1`` steps with
        ``M`` itself.
        """
        ss, prop, width = self.subcycles, self.propagator, len(self.link)
        if prop is None:
            form, effective, dt, m = self.form, self.effective, self.dt, self.form.state_size
            window = np.empty((ss + 1, width))

            def advance(lam: np.ndarray, step: int) -> None:
                forces = _force(ids, rows(step), form.n_dofs)
                if ss > 1:  # the ramp weight of the single inner step of ss = 1 is zero
                    forces = forces + self.ramp * (self.injector @ lam)
                y, ydot = window[0, :m], window[0, m:]
                for j, force in enumerate(forces, 1):
                    y, ydot = free_step(form, effective, y, ydot, force, dt)
                    window[j, :m], window[j, m:] = y, ydot

            return window, advance

        extra = ([prop.forcing[:, ids]] if len(ids) else []) + ([prop.injected] if ss > 1 else [])
        matrix = np.hstack([prop.step, *extra]) if extra else prop.step
        window = np.empty((ss + 1, matrix.shape[1]))
        drive = window[:ss, width:width + len(ids)]
        ramped = window[:ss, width + len(ids):]
        smoothing, states = self.form.smoothing, list(window)
        # each row's xd, on which phi acts in place (none in a linear group),
        # and the next row's state and rates, which the product writes
        steps = [(row, after[:width], row[2 * self.form.state_size:width] if len(smoothing) else None)
                 for row, after in zip(states, states[1:])]

        def advance(lam: np.ndarray, step: int) -> None:
            if len(ids):
                drive[:] = rows(step)
            if ss > 1:
                np.multiply(self.ramp, lam, out=ramped)
            for row, after, rates in steps:
                if rates is not None:
                    friction_shape(rates, smoothing, out=rates)
                np.dot(matrix, row, out=after)

        return window, advance


class PartitionedSolver:
    """Prepared co-simulation: factorizations and step plan done once, stepping separate.

    Construction performs all offline work: first-order assembly, the
    grouping of the substructures by inner-step count, one factorization of
    ``S`` per group, the interface operator summed from the groups' solves,
    each group's multiplier map and the propagators of the small groups.
    :meth:`run` performs the online time stepping: a coupled step advances
    each group by its inner steps, maps the groups' free velocities to the
    multipliers and adds each group's link correction.
    """

    def __init__(self, system: CoupledSystem, config: SolverConfig):
        self.system = system
        self.config = config
        self.sub_ids = list(system.substructures)
        physical = system.physical_ids()
        self.forms = {sid: assemble_first_order(sub) for sid, sub in system.substructures.items()}
        self.n_lam = system.topology.n_constraints
        members = {}
        for sid in self.sub_ids:
            members.setdefault(config.subcycles if sid in physical else 1, []).append(sid)
        self._plan, pairs = [], []
        for ss, sids in members.items():
            if len(sids) == 1:
                form = self.forms[sids[0]]
                dofs = {sids[0]: np.arange(form.n_dofs)}
            else:
                # the members side by side: a primal assembly without constraints
                group = {sid: system.substructures[sid] for sid in sids}
                asys = assemble_global(group, CouplingTopology(()), sparse=_stores_csr(group))
                form, dofs = asys.first_order(), asys.dof_map
            dts = config.dt / ss
            effective = effective_matrix(form, dts)
            injector = np.vstack([
                locator_matrix(system.topology, sid, self.forms[sid].n_dofs) for sid in sids
            ])
            propagator = (_propagator(form, effective, dts, injector)
                          if form.n_dofs <= _PROPAGATOR_MAX_DOFS else None)
            # b = S^{-1} L_v at the group's own step dts gives the group's
            # share L_v^T b of H and its link rate D^{-1} [0; L_v] =
            # [dts/2 b; b], shared by every coupled step; the link state
            # is dt/2 times the rate, and a propagated group's element
            # rates change by Q times the link.  The link map is kept in C
            # order (getrs returns Fortran order, and the layout sets the
            # summation order of the products with it)
            b = effective.solve(injector)
            pairs.append((injector, b))
            link_rate = np.concatenate([dts / 2 * b, b])
            link = np.concatenate([config.dt / 2 * link_rate, link_rate])
            if propagator is not None:
                link = np.concatenate([link, propagator.rates @ link])
            self._plan.append(_Group(
                subcycles=ss, dt=dts, form=form, effective=effective, dofs=dofs,
                ramp=(1.0 - np.arange(1, ss + 1) / ss)[:, None], injector=injector,
                link=np.ascontiguousarray(link), propagator=propagator,
            ))
        self.interface = steklov_poincare(pairs) if self.n_lam else None
        # C_k = -(dt/2 H)^{-1} L_v,k^T per group, so that a coupled step
        # computes lam = sum_k C_k v_k by products (see the module docstring)
        self._multiplier_maps = [-(self.interface.solve(g.injector.T) if self.n_lam else g.injector.T)
                                 / (config.dt / 2) for g in self._plan]

    def run(self, inputs: Mapping | None = None, initial: Mapping | None = None,
            dofs: Mapping | None = None) -> Trajectory:
        """Step the coupled system over the configured horizon.

        ``inputs`` maps substructure id to physical force samples, one row
        per coupled instant (n_steps+1, n_dofs) or one per inner instant of
        ``config.subcycles`` (n_steps*ss+1 rows).  Each substructure gets
        them on its own grid: coarse samples are linearly interpolated onto
        the inner grid of a sub-cycled one, a coupled step at a time, and
        fine samples are decimated onto the coupled grid of the others.
        The trajectory holds every DOF of every substructure, or, given
        ``dofs``, only ``dofs[sid]`` of each (none of an id it leaves out),
        in ``states`` and ``fine_states`` alike, as ``solve_monolithic``'s.
        """
        cfg = self.config
        n_steps = cfg.n_steps
        groups = self._plan
        inputs = _known_inputs(inputs, self.forms)
        initial = initial or {}
        recorded = _recorded_dofs(dofs, {sid: form.n_dofs for sid, form in self.forms.items()})

        # per group: its window of inner states, stepped by its stepper on
        # its driven force rows, and a record per member
        advances, windows, records = [], [], []
        for group in groups:
            ss, n, m = group.subcycles, group.form.n_dofs, group.form.state_size
            ids, first_row, rows = _global_forces(group.dofs, inputs, cfg, ss > 1)
            window, advance = group.stepper(ids, rows)
            force = _force(ids, first_row, n)
            for sid, at in group.dofs.items():
                # the member's start [u; v; udot; vdot] into the four blocks of the group's
                window[0, :2 * m].reshape(4, n)[:, at] = np.reshape(_start(
                    self.forms[sid], initial.get(sid), force[at], f"substructure {sid!r}"
                ), (4, -1))
            if group.propagator is not None:
                window[0, 2 * m:len(group.link)] = group.propagator.rates @ window[0, :2 * m]
            advances.append(advance)
            windows.append(window)
            records.append(_Records(group.dofs, n, n_steps * ss + 1, recorded))
            records[-1][0] = window[0, :m]
        multipliers = np.zeros((n_steps + 1, self.n_lam))

        keys = range(len(groups))
        # views into the windows: the state and rates of the first and the
        # last row, the [u; v] of the inner states and of the coupled state,
        # and its velocities beside the group's multiplier map
        first = [windows[k][0, :len(groups[k].link)] for k in keys]
        last = [windows[k][-1, :len(groups[k].link)] for k in keys]
        inner = [windows[k][1:, :groups[k].form.state_size] for k in keys]
        coupled = [last[k][:groups[k].form.state_size] for k in keys]
        free_velocities = [(self._multiplier_maps[k], coupled[k][groups[k].form.n_dofs:]) for k in keys]
        checked = [(coupled[k], groups[k].dofs) for k in keys]
        subcycles = [group.subcycles for group in groups]
        for step, lam in enumerate(multipliers[1:], 1):  # each row zeros, summed into in place
            for advance in advances:
                advance(multipliers[step - 1], step)
            for multiplier_map, velocities in free_velocities:
                lam += multiplier_map @ velocities
            for k, ss in enumerate(subcycles):
                # the link correction, then the window's states in one write;
                # the coupled state closes the window and opens the next
                last[k] += groups[k].link @ lam
                records[k].into[(step - 1) * ss + 1: step * ss + 1] = inner[k]
                first[k][:] = last[k]
            _check_divergence(step, cfg.divergence_limit, *checked)

        return _trajectory(cfg, zip(records, subcycles), multipliers, self.sub_ids)


def simulate(
    system: CoupledSystem,
    config: SolverConfig,
    inputs: Mapping | None = None,
    initial: Mapping | None = None,
    dofs: Mapping | None = None,
) -> Trajectory:
    """Co-simulate a coupled system over ``config.duration``.

    Convenience wrapper around :class:`PartitionedSolver`; with
    ``config.subcycles > 1`` the system's physical substructures run the
    sub-cycled inner loop.  ``dofs`` selects the recorded DOFs, as in
    :meth:`PartitionedSolver.run`.
    """
    return PartitionedSolver(system, config).run(inputs, initial, dofs)

