"""Partitioned trapezoidal time integration with dual interface coupling.

Each coupled step computes a free trapezoidal solution per substructure
(ignoring the interfaces inside the step), then solves one
small condensed interface problem for the Lagrange-multiplier intensities and
adds the resulting link solutions.  The interface solve enforces signed
boundary-velocity compatibility exactly at every step; displacements are
coupled softly through the link corrections.

The trapezoidal step of the first-order form ``A Ydot + R(Y) = F`` solves
``D = A + gamma*dt*R0 = [[I, -gamma*dt I], [gamma*dt K, M + gamma*dt C]]``.
Its displacement rows eliminate exactly, so every solve is with the
condensed matrix ``S = M + gamma*dt C + (gamma*dt)^2 K`` of half the size,
applied to momentum-row right-hand sides.  The elimination moves
``gamma*dt K v`` into the force law's displacement argument, which is exact
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

A group of at most ``_PROPAGATOR_MAX_DOFS`` DOFs steps through a
precomputed affine propagator on ``z = [Y; Ydot]`` (4n entries)::

    xd = Q z;    z+ = Phi z + Psi phi(xd, c3) + Gamma f

The force law is ``g(u, v) = K u + C v + B^T (slope * phi(B v, c3))``
(:mod:`dynsub.models`), so a step is linear in ``z`` and ``f`` except for
``phi`` of the element rates.  ``Phi`` and ``Gamma`` are :func:`free_step`
of the linear part, called once at construction on a block of unit states
and unit forces.  ``Q`` takes the element rates
``B (v + (1-gamma) dts vdot)`` at the predicted velocity (``dts`` is the
group's inner step), and ``Psi = -Gamma B^T diag(slope)`` folds each row's
slope into the feedback.  This replaces about 25 small numpy calls per
inner step by about 10.  Larger groups, such as an unreduced frame, call
:func:`free_step` at every inner step, because their dense ``Phi`` costs
more than the solve; the monolithic reference does too.  Propagated groups
agree with :func:`free_step` stepping to round-off, about 1e-14 of the
state scale.

Both solvers share one force path, the driven rows of :func:`_global_forces`
added onto zeroed DOFs in input order by :func:`_force`, and one record
path, :class:`_Records`.  A step group scatters its rows once per run onto
a force table on its own grid and records each member at every inner step;
the monolithic reference scatters one row per step.  Neither keeps a
whole-run record of its stepped state or a force table per undriven
substructure.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

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
    assemble_first_order,
    friction_shape,
    require_numbers,
)


class SolverError(RuntimeError):
    """Raised for ill-posed solver configurations."""


class DivergenceError(SolverError):
    """Raised when a state norm exceeds the divergence bound."""

    def __init__(self, step: int, sub_id, norm: float, limit: float):
        self.step = step
        self.sub_id = sub_id
        super().__init__(
            f"state of {sub_id!r} diverged at step {step} (|Y| = {norm:.3e} > {limit:.3e})"
        )


@dataclass(frozen=True)
class SolverConfig:
    """Time-integration parameters shared by all substructures."""

    dt: float
    duration: float
    gamma: float = 0.5
    subcycles: int = 1
    divergence_limit: float = 1e8

    def __post_init__(self):
        require_numbers(
            SolverError, dt=self.dt, duration=self.duration, gamma=self.gamma,
            subcycles=self.subcycles, divergence_limit=self.divergence_limit,
        )
        if self.dt <= 0:
            raise SolverError(f"dt must be positive, got {self.dt}")
        if not 0 < self.gamma <= 1:
            raise SolverError(f"gamma must be in (0, 1], got {self.gamma}")
        if int(self.subcycles) != self.subcycles or self.subcycles < 1:
            raise SolverError(f"subcycles must be a positive integer, got {self.subcycles}")
        if self.duration <= 0:
            raise SolverError(f"duration must be positive, got {self.duration}")
        if not self.divergence_limit > 0:  # also rejects nan, which would switch the bound off
            raise SolverError(f"field 'divergence_limit' must be positive, got {self.divergence_limit}")
        steps = self.duration / self.dt
        if not math.isfinite(steps) or round(steps) < 1 or abs(steps - round(steps)) > 1e-9 * steps:
            raise SolverError(
                f"field 'duration' ({self.duration}) must be a whole number of steps of "
                f"field 'dt' ({self.dt}), got duration/dt = {steps:.12g}"
            )
        object.__setattr__(self, "subcycles", int(self.subcycles))

    @property
    def n_steps(self) -> int:
        return round(self.duration / self.dt)


@dataclass(frozen=True)
class CoupledSystem:
    """Substructures plus the interface topology that couples them.

    ``physical`` lists the substructure ids that run at the finer inner time
    step when sub-cycling is enabled; by default every nonlinear substructure
    is treated as physical, and must name substructures.  The topology's
    references are checked by :func:`~dynsub.coupling._check_references`.
    """

    substructures: Mapping
    topology: CouplingTopology
    physical: tuple = ()

    def __post_init__(self):
        subs = dict(self.substructures)
        if not subs:
            raise CouplingError("the system has no substructures")
        object.__setattr__(self, "substructures", subs)
        _check_references(self.topology, subs)
        if not (isinstance(self.physical, (tuple, list))
                and all(isinstance(sid, Hashable) and sid in subs for sid in self.physical)):
            raise ModelError(f"field 'physical' must be a list of ids of its substructures, got {self.physical!r}")
        object.__setattr__(self, "physical", tuple(self.physical))

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

    ``states[sub_id]`` has one row per coupled instant, columns ``[u; v]``.
    Sub-cycled substructures additionally record their inner samples in
    ``fine_states`` at spacing dt/ss (the last sample of each window holds the
    coupled state).
    """

    times: np.ndarray
    states: dict
    multipliers: np.ndarray
    dof_counts: dict
    fine_times: dict = field(default_factory=dict)
    fine_states: dict = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def displacement(self, sub_id, dof: int) -> np.ndarray:
        return self.states[sub_id][:, dof]

    def velocity(self, sub_id, dof: int) -> np.ndarray:
        return self.states[sub_id][:, self.dof_counts[sub_id] + dof]


@dataclass(frozen=True)
class EffectiveMatrix:
    """Factorized condensed effective matrix S = M + gamma*dt*C + (gamma*dt)^2*K.

    ``solve`` applies ``S^{-1}`` to momentum-row right-hand sides (n rows).
    ``matrix`` is a dense array or, for a sparse form, a CSR array.
    """

    matrix: np.ndarray
    _solve: object  # rhs -> S^{-1} rhs

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._solve(rhs)


def effective_matrix(form: FirstOrderForm, dt: float, gamma: float) -> EffectiveMatrix:
    """Assemble and factorize S = M + gamma*dt*C + (gamma*dt)^2*K for repeated solves.

    The tangent blocks are state-independent, so S is assembled once per
    simulation; the solver calls this once per step group, on the group's
    stacked form at its inner step dt/ss.  :func:`~dynsub.coupling._factorize`
    picks LAPACK LU for a dense form and SuperLU for a sparse one (CSR
    blocks, :func:`~dynsub.coupling.assemble_global` with ``sparse=True``).
    The pivots are judged against the largest of the three terms, so a
    stiffness that cancels the mass is reported as singular.
    """
    gdt = gamma * dt
    terms = (form.mass, gdt * form.damping, gdt * gdt * form.stiffness)
    s = terms[0] + terms[1] + terms[2]
    return EffectiveMatrix(matrix=s, _solve=_factorize(
        s, lambda: SolverError(f"effective matrix singular for dt={dt}, gamma={gamma}"),
        scale=max(abs(t).max() for t in terms),
    ))


def free_step(
    form: FirstOrderForm,
    d: EffectiveMatrix,
    y: np.ndarray,
    ydot: np.ndarray,
    force: np.ndarray,
    dt: float,
    gamma: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One trapezoidal predictor-corrector step without interface forces.

    Predict Y~ = [u~; v~] = Y + (1-gamma)*dt*Ydot, solve
    S @ a = f - g(u~ + gamma*dt*v~, v~) for the acceleration, and correct
    with Ydot+ = [v~ + gamma*dt*a; a], Y+ = Y~ + gamma*dt*Ydot+.  This is
    the solve D @ Ydot+ = F - R(Y~) of the first-order form, condensed onto
    the momentum rows.  ``force`` is the physical force f (n entries).
    """
    n = form.n_dofs
    gdt = gamma * dt
    y_pred = y + (1.0 - gamma) * dt * ydot
    u_pred, v_pred = y_pred[:n], y_pred[n:]
    acc = d.solve(force - form.momentum(u_pred + gdt * v_pred, v_pred))
    ydot_new = np.concatenate([v_pred + gdt * acc, acc])
    return y_pred + gdt * ydot_new, ydot_new


def coupling_step(
    interface: InterfaceOperator,
    free_velocities: Mapping,
    compat: Mapping,
    link_maps: Mapping,
    gamma_dt: float,
) -> tuple[np.ndarray, dict]:
    """Identify the interface-force intensities and the link states.

    The intensities annihilate the signed velocity gap of the free
    solutions: lam = -(gamma*dt*H)^{-1} sum_s L_v,s^T @ v_s^free, with
    ``compat[s] = L_v,s^T``.  The link state of ``s`` is
    ``link_maps[s] @ lam``, where ``link_maps[s] = gamma*dt * D_s^{-1} L_s``.
    A key may stand for one substructure or for a stack of them.
    """
    residual = None
    for key, g in compat.items():
        contrib = g @ free_velocities[key]
        residual = contrib if residual is None else residual + contrib
    lam = -interface.solve(residual) / gamma_dt
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


def _check_divergence(step: int, sub_id, y: np.ndarray, limit: float) -> None:
    norm = np.abs(y).max() if y.size else 0.0
    if not np.isfinite(norm) or norm > limit:
        raise DivergenceError(step, sub_id, float(norm), limit)


def _input_table(sid, table, n_dofs: int, n_steps: int, ss: int, inner: bool) -> np.ndarray:
    """Check a force table and sample it on the inner grid if ``inner``, else on the coupled grid.

    A table holds one row per coupled instant (``n_steps + 1`` rows) or one
    per inner instant of ``ss``-fold sub-cycling (``n_steps*ss + 1`` rows).
    Inner samples are decimated with ``[::ss]`` onto the coupled grid, and
    coupled samples are interpolated linearly onto the inner grid; a table
    already on the wanted grid is returned as it is.  Raises
    :class:`SolverError` for a wrong shape and names the first row that
    holds a nan or inf.
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
    if table.shape[0] == (fine if inner else coupled):
        return table
    if not inner:
        return table[::ss]
    t_fine = np.arange(fine, dtype=float) / ss
    return np.column_stack([np.interp(t_fine, np.arange(coupled, dtype=float), col) for col in table.T])


def _known_inputs(inputs: Mapping | None, known) -> dict:
    """The tables of ``inputs`` that are not None; an id not in ``known`` raises :class:`SolverError`."""
    for sid in inputs or ():
        if sid not in known:
            raise SolverError(f"input table for {sid!r} names no substructure")
    return {sid: table for sid, table in (inputs or {}).items() if table is not None}


def _global_forces(dof_map: Mapping, inputs: dict, config: SolverConfig, inner: bool) -> tuple:
    """``(ids, table)``: the DOFs that ``inputs`` drive in ``dof_map``, in input order, and their force rows.

    The rows are the inner instants of ``config.subcycles`` if ``inner``,
    else the coupled ones (:func:`_input_table` checks and resamples each
    table), with one column per id.
    """
    rows = config.n_steps * (config.subcycles if inner else 1) + 1
    ids, tables = [np.zeros(0, dtype=np.intp)], [np.zeros((rows, 0))]
    for sid, table in inputs.items():
        if sid in dof_map:
            ids.append(dof_map[sid])
            tables.append(_input_table(sid, table, len(ids[-1]), config.n_steps, config.subcycles, inner))
    # one driven table is used as it is, with no copy
    return np.concatenate(ids), tables[-1] if len(tables) == 2 else np.hstack(tables)


def _force(ids: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Force vectors on ``n`` DOFs of a row, or a block of rows, of :func:`_global_forces`.

    The unbuffered scatter adds onto zeros in input order, so a DOF driven
    from two sides sums in a fixed order.
    """
    force = np.zeros(rows.shape[:-1] + (n,))
    np.add.at(force, (..., ids), rows)
    return force


class _Records:
    """Per-substructure records of a stepped state, written row by row.

    ``columns[sid]`` selects a substructure's ``[u; v]`` from the stepped
    state: index arrays (``dof_counts`` then defaults to half their
    lengths), or ``slice(None)`` for a state that is one substructure's
    own.  ``records[row] = y`` copies each substructure's columns of ``y``
    into that row of its own ``(rows, 2 n_s)`` record.  ``into`` takes the
    same writes; for a lone substructure's state it is the one record,
    which takes the state as it is, with no gather.
    """

    def __init__(self, columns: Mapping, rows: int, dof_counts: Mapping | None = None):
        self.columns, self.rows = columns, rows
        self.dof_counts = dof_counts or {sid: len(cols) // 2 for sid, cols in columns.items()}
        self.states = {sid: np.empty((rows, 2 * self.dof_counts[sid])) for sid in columns}
        (sid, cols), *others = columns.items()
        self.into = self.states[sid] if isinstance(cols, slice) and not others else self

    def __setitem__(self, row: int, y: np.ndarray) -> None:
        for sid, cols in self.columns.items():
            self.states[sid][row] = y[cols]

    def trajectory(self, dt: float) -> Trajectory:
        """The records as a :class:`Trajectory` at spacing ``dt``, with no multipliers."""
        return Trajectory(times=np.arange(self.rows) * dt, states=self.states,
                          multipliers=np.zeros((self.rows, 0)), dof_counts=self.dof_counts)


# Largest group, in DOFs, stepped through a precomputed propagator.  A
# propagator step multiplies the state z = [y; ydot] (4n entries) by a dense
# (4n + elements) x 4n matrix, while a free step solves with the n x n
# factors, so the propagator wins on small groups only.  Per inner step with
# serial OpenBLAS (free step against propagator), one 2-vCPU host measured
# 34 DOFs 9.9 us / 3.9 us, 42 DOFs 11.8 / 5.6, 48 DOFs 10.9 / 10.0,
# 56 DOFs 13.0 / 34.2 and 208 DOFs 36 / 685; a 2-vCPU Xeon with 4 MB of L2
# measured 48 DOFs 7.8 / 4.8, 64 DOFs 8.0 / 7.1, 88 DOFs 10.5 / 11.9 and
# 208 DOFs 18 / 125.  The limit is the largest size that won on both.
_PROPAGATOR_MAX_DOFS = 48


@dataclass(frozen=True)
class _Propagator:
    """One inner step of a group as ``z+ = Phi z + Psi phi(Q z, c3) + Gamma f``.

    ``z = [y; ydot]`` stacks the state and its rate (4n entries).  ``Phi``
    and ``Gamma`` are the free step of the group's linear part applied to
    unit states and unit forces, ``Q`` maps ``z`` to the element rates at
    the predicted velocity and ``Psi = -Gamma B^T diag(slope)`` feeds
    ``phi`` back as a force.  ``step`` stacks ``[Phi; Q]``, so one product
    gives both; ``forcing`` is ``Gamma^T`` for rows of forces, and
    ``injected`` is ``Gamma L_v`` for the ramped multipliers.
    """

    step: np.ndarray
    forcing: np.ndarray
    feedback: np.ndarray
    injected: np.ndarray


def _propagator(form: FirstOrderForm, effective, dt: float, gamma: float, injector: np.ndarray) -> _Propagator:
    """Build a group's propagator from :func:`free_step`, called once on unit blocks."""
    n = form.n_dofs
    size = 4 * n
    linear = dataclasses.replace(form, rates=form.rates[:0], slope=form.slope[:0], smoothing=form.smoothing[:0])
    # columns: each unit state z under zero force, then each unit force from rest
    unit = np.eye(size + n)
    y, ydot = free_step(linear, effective, unit[:2 * n], unit[2 * n:size], unit[size:], dt, gamma)
    response = np.concatenate([y, ydot])
    phi, gam = response[:, :size], response[:, size:]
    b = form.rates
    q = np.zeros((len(b), size))
    q[:, n:2 * n] = b  # B (v + (1 - gamma) dt vdot): the predicted element rates
    q[:, 3 * n:] = (1.0 - gamma) * dt * b
    return _Propagator(
        step=np.ascontiguousarray(np.concatenate([phi, q])),
        forcing=np.ascontiguousarray(gam.T),
        feedback=-gam @ (b.T * form.slope),
        injected=gam @ injector,
    )


@dataclass(frozen=True)
class _Group:
    """Substructures with one inner-step count, stepped as one stacked form.

    The stacked form is the members' assembly without constraints, or a
    single member's own form.  The group's state is ``z = [y; ydot]`` of
    that form.  ``dofs[sid]`` gives a member's DOFs in the stacked form (its
    ``dof_map``), and ``rows[sid]`` selects its own ``[u; v]`` from ``y``
    (and its rate from ``ydot``): its assembled state columns, or all of
    ``y`` for a single member.  ``effective`` factorizes the stacked ``S``
    at the inner step.  ``ramp`` holds the weights
    1 - j/ss of the inner steps j = 1..ss as a column, ``injector`` stacks
    the members' ``L_v``, and ``link`` maps the multipliers to the change of
    ``z`` by the link solutions.  A group of at most
    ``_PROPAGATOR_MAX_DOFS`` DOFs steps through its ``propagator``; a larger
    one calls :func:`free_step`.
    """

    subcycles: int
    dt: float  # of an inner step
    gamma: float
    form: FirstOrderForm
    effective: EffectiveMatrix
    dofs: dict
    rows: dict
    ramp: np.ndarray
    injector: np.ndarray
    link: np.ndarray
    propagator: _Propagator | None

    def advance(self, z: np.ndarray, forces: np.ndarray, lam: np.ndarray, record, first: int) -> np.ndarray:
        """The free inner steps of one coupled step; ``record[first + j]`` gets ``y`` after step j."""
        m = self.form.state_size
        prop = self.propagator
        if prop is None:
            if self.subcycles > 1:  # the ramp weight of the single inner step of ss = 1 is zero
                forces = forces + self.ramp * (self.injector @ lam)
            y, ydot = z[:m], z[m:]
            for j, force in enumerate(forces, first):
                y, ydot = free_step(self.form, self.effective, y, ydot, force, self.dt, self.gamma)
                record[j] = y
            return np.concatenate([y, ydot])
        forced = forces.dot(prop.forcing)
        if self.subcycles > 1:
            forced += self.ramp * prop.injected.dot(lam)
        size = 2 * m
        step, feedback, smoothing = prop.step, prop.feedback, self.form.smoothing
        for j, f in enumerate(forced, first):
            w = step.dot(z)
            z = w[:size] + f + feedback.dot(friction_shape(w[size:], smoothing))
            record[j] = z[:m]
        return z


class PartitionedSolver:
    """Prepared co-simulation: factorizations and step plan done once, stepping separate.

    Construction performs all offline work: first-order assembly, the
    grouping of the substructures by inner-step count, one factorization of
    ``S`` per group, the interface operator summed from the groups' solves,
    and the propagators of the small groups.  :meth:`run`
    performs the online time stepping: a coupled step advances each group
    by its inner steps, then couples the groups' free velocities.
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
                dofs, rows = {sids[0]: np.arange(form.n_dofs)}, {sids[0]: slice(None)}
            else:
                # the members side by side: a primal assembly without constraints
                group = {sid: system.substructures[sid] for sid in sids}
                asys = assemble_global(group, CouplingTopology(()), sparse=_stores_csr(group))
                form, dofs, rows = asys.first_order(), asys.dof_map, asys.state_columns
            n = form.n_dofs
            dts = config.dt / ss
            effective = effective_matrix(form, dts, config.gamma)
            injector = np.vstack([
                locator_matrix(system.topology, sid, self.forms[sid].n_dofs) for sid in sids
            ])
            # b = S^{-1} L_v at the group's own step dts gives the group's
            # share L_v^T b of H and its link rate D^{-1} [0; L_v] =
            # [gamma*dts b; b], shared by every coupled step; the link state
            # is gamma*dt times the rate.  The link map is kept in C order
            # (getrs returns Fortran order, and the layout sets the summation
            # order of the products with it)
            b = effective.solve(injector)
            pairs.append((injector, b))
            link_rate = np.concatenate([config.gamma * dts * b, b])
            link = np.ascontiguousarray(np.concatenate([config.gamma * config.dt * link_rate, link_rate]))
            self._plan.append(_Group(
                subcycles=ss, dt=dts, gamma=config.gamma, form=form, effective=effective, dofs=dofs, rows=rows,
                ramp=(1.0 - np.arange(1, ss + 1) / ss)[:, None], injector=injector, link=link,
                propagator=_propagator(form, effective, dts, config.gamma, injector)
                if n <= _PROPAGATOR_MAX_DOFS else None,
            ))
        self.interface = steklov_poincare(pairs) if self.n_lam else None

    def run(self, inputs: Mapping | None = None, initial: Mapping | None = None) -> Trajectory:
        """Step the coupled system over the configured horizon.

        ``inputs`` maps substructure id to physical force samples, one row
        per coupled instant (n_steps+1, n_dofs) or one per inner instant of
        ``config.subcycles`` (n_steps*ss+1 rows).  Each substructure gets
        them on its own grid: coarse samples are linearly interpolated onto
        the inner grid of a sub-cycled one, and fine samples are decimated
        onto the coupled grid of the others.
        """
        cfg = self.config
        n_steps = cfg.n_steps
        groups = self._plan
        inputs = _known_inputs(inputs, self.forms)
        initial = initial or {}
        dof_counts = {sid: form.n_dofs for sid, form in self.forms.items()}

        # per group: a force table and a record per member on its own grid, and its state z = [y; ydot]
        tables, z, records = [], [], []
        for group in groups:
            ss, n, m = group.subcycles, group.form.n_dofs, group.form.state_size
            ids, driven = _global_forces(group.dofs, inputs, cfg, ss > 1)
            # rows that drive every DOF in order are the force table as they are, with no copy
            tables.append(driven if np.array_equal(ids, np.arange(n)) else _force(ids, driven, n))
            z.append(np.empty(2 * m))
            for sid, rows in group.rows.items():
                z[-1][:m][rows], z[-1][m:][rows] = _start(
                    self.forms[sid], initial.get(sid), tables[-1][0][group.dofs[sid]], f"substructure {sid!r}"
                )
            records.append(_Records(group.rows, n_steps * ss + 1, dof_counts))
            records[-1][0] = z[-1][:m]
        multipliers = np.zeros((n_steps + 1, self.n_lam))

        keys = range(len(groups))
        compat = {k: groups[k].injector.T for k in keys}
        link = {k: groups[k].link for k in keys}
        lam = np.zeros(self.n_lam)
        for step in range(1, n_steps + 1):
            for k, group in enumerate(groups):
                ss = group.subcycles
                first = (step - 1) * ss + 1
                z[k] = group.advance(z[k], tables[k][first: first + ss], lam, records[k].into, first)
            if self.n_lam:
                lam, links = coupling_step(
                    self.interface,
                    {k: z[k][groups[k].form.n_dofs: groups[k].form.state_size] for k in keys},
                    compat, link, cfg.gamma * cfg.dt,
                )
                for k, group in enumerate(groups):
                    z[k] = z[k] + links[k]
                    # the coupled state closes the window
                    records[k].into[step * group.subcycles] = z[k][:group.form.state_size]
            multipliers[step] = lam
            for k in keys:
                y = z[k][:groups[k].form.state_size]
                norm = np.abs(y).max() if y.size else 0.0
                if not np.isfinite(norm) or norm > cfg.divergence_limit:
                    # name the first diverged substructure in system order
                    now = {
                        sid: z[i][:groups[i].form.state_size][rows]
                        for i in keys for sid, rows in groups[i].rows.items()
                    }
                    for sid in self.sub_ids:
                        _check_divergence(step, sid, now[sid], cfg.divergence_limit)

        states, fine_states, fine_times = {}, {}, {}
        for group, record in zip(groups, records):
            ss = group.subcycles
            for sid, fine in record.states.items():
                states[sid] = fine[::ss]
                if ss > 1:
                    fine_states[sid] = fine
                    fine_times[sid] = np.arange(n_steps * ss + 1) * (cfg.dt / ss)
        return Trajectory(
            times=np.arange(n_steps + 1) * cfg.dt,
            states=states,
            multipliers=multipliers,
            dof_counts=dof_counts,
            fine_times=fine_times,
            fine_states=fine_states,
        )


def simulate(
    system: CoupledSystem,
    config: SolverConfig,
    inputs: Mapping | None = None,
    initial: Mapping | None = None,
) -> Trajectory:
    """Co-simulate a coupled system over ``config.duration``.

    Convenience wrapper around :class:`PartitionedSolver`; with
    ``config.subcycles > 1`` the system's physical substructures run the
    sub-cycled inner loop.
    """
    return PartitionedSolver(system, config).run(inputs, initial)

