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

A "physical" substructure may be sub-cycled: its free solution is ``ss``
inner trapezoidal steps at dt/ss, each injecting the previous coupled step's
multipliers with a linearly decaying ramp weight (1 - j/ss).  Every other
substructure takes one inner step.  The solver plans the stepping once, at
construction: substructures that take the same number of inner steps form a
group, stepped together as one block-diagonal form
(:func:`~dynsub.models.stack_forms`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .coupling import (
    CouplingError,
    CouplingTopology,
    InterfaceOperator,
    _lu_factors,
    locator_matrix,
    steklov_poincare,
)
from .models import (
    FirstOrderForm,
    NonlinearSubstructure,
    assemble_first_order,
    require_numbers,
    stack_forms,
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
        object.__setattr__(self, "subcycles", int(self.subcycles))

    @property
    def n_steps(self) -> int:
        return max(1, round(self.duration / self.dt))


@dataclass(frozen=True)
class CoupledSystem:
    """Substructures plus the interface topology that couples them.

    ``physical`` lists the substructure ids that run at the finer inner time
    step when sub-cycling is enabled; by default every nonlinear substructure
    is treated as physical.
    """

    substructures: Mapping
    topology: CouplingTopology
    physical: tuple = ()

    def __post_init__(self):
        subs = dict(self.substructures)
        object.__setattr__(self, "substructures", subs)
        for entry in self.topology.constraints:
            for sid, dof, _ in entry:
                if sid not in subs:
                    raise CouplingError(f"topology references unknown substructure {sid!r}")
                if not 0 <= dof < subs[sid].n_dofs:
                    raise CouplingError(
                        f"topology references DOF {dof} of {sid!r} "
                        f"({subs[sid].n_dofs} DOFs)"
                    )
        physical = tuple(self.physical)
        for sid in physical:
            if sid not in subs:
                raise CouplingError(f"physical id {sid!r} is not a substructure")
        object.__setattr__(self, "physical", physical)

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
    """

    matrix: np.ndarray
    dt: float
    gamma: float
    _lu: np.ndarray
    _piv: np.ndarray
    _getrs: object

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._getrs(self._lu, self._piv, rhs)[0]


@dataclass(frozen=True)
class _BlockSolve:
    """``S^{-1}`` of a stacked form: each member's factorization on its own rows."""

    blocks: tuple  # (rows, EffectiveMatrix) per member

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return np.concatenate([d.solve(rhs[rows]) for rows, d in self.blocks])


def effective_matrix(form: FirstOrderForm, dt: float, gamma: float) -> EffectiveMatrix:
    """Assemble and factorize S = M + gamma*dt*C + (gamma*dt)^2*K for repeated solves.

    The tangent blocks are state-independent, so S is assembled once per
    simulation; for sub-cycled substructures pass the inner step dt/ss.
    Its pivots are judged against the largest of the three terms, so a
    stiffness that cancels the mass is reported as singular.
    """
    gdt = gamma * dt
    terms = (form.mass, gdt * form.damping, gdt * gdt * form.stiffness)
    s = terms[0] + terms[1] + terms[2]
    lu, piv, getrs = _lu_factors(
        s, SolverError(f"effective matrix singular for dt={dt}, gamma={gamma}"),
        scale=max(np.abs(t).max() for t in terms),
    )
    return EffectiveMatrix(matrix=s, dt=dt, gamma=gamma, _lu=lu, _piv=piv, _getrs=getrs)


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


def _initial_rate(form: FirstOrderForm, y: np.ndarray, force: np.ndarray) -> np.ndarray:
    """Consistent starting rate: solve A @ Ydot0 = F0 - R(Y0).

    ``force`` is the physical force on the momentum rows at the first instant.
    """
    n = form.n_dofs
    u, v = y[:n], y[n:]
    return np.concatenate([v, np.linalg.solve(form.mass, force - form.momentum(u, v))])


def _check_divergence(step: int, sub_id, y: np.ndarray, limit: float) -> None:
    norm = np.abs(y).max() if y.size else 0.0
    if not np.isfinite(norm) or norm > limit:
        raise DivergenceError(step, sub_id, float(norm), limit)


def _input_table(sid, table, n_dofs: int, n_steps: int, ss: int, inner: bool, error: type) -> np.ndarray:
    """Check a force table and sample it on the inner grid if ``inner``, else on the coupled grid.

    A table holds one row per coupled instant (``n_steps + 1`` rows) or one
    per inner instant of ``ss``-fold sub-cycling (``n_steps*ss + 1`` rows).
    Inner samples are decimated with ``[::ss]`` onto the coupled grid, and
    coupled samples are interpolated linearly onto the inner grid; a table
    already on the wanted grid is returned as it is.  Raises ``error`` for a
    wrong shape and names the first row that holds a nan or inf.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != n_dofs:
        raise error(f"input table for {sid!r} must have {n_dofs} columns, got {table.shape}")
    coupled, fine = n_steps + 1, n_steps * ss + 1
    if table.shape[0] not in (coupled, fine):
        also = f" (or {fine} at the inner sampling)" if ss > 1 else ""
        raise error(f"input table for {sid!r} must have {coupled} rows{also}, got {table.shape[0]}")
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise error(f"input table for {sid!r} holds a non-finite value in row {row}")
    if table.shape[0] == (fine if inner else coupled):
        return table
    if not inner:
        return table[::ss]
    t_fine = np.arange(fine, dtype=float) / ss
    return np.column_stack([np.interp(t_fine, np.arange(coupled, dtype=float), col) for col in table.T])


@dataclass(frozen=True)
class _Group:
    """Substructures with one inner-step count, stepped as one stacked form.

    ``rows[sid]`` selects a member's own state ``[u; v]`` from the stacked
    one (all of it for a single member).  ``ramp`` holds the weights
    1 - j/ss of the inner steps j = 1..ss as a column, ``injector`` stacks
    the members' ``L_v``, and ``link_rate`` and ``link_state`` stack their
    link maps.
    """

    subcycles: int
    form: FirstOrderForm
    effective: object  # EffectiveMatrix of a single member, else _BlockSolve
    rows: dict
    ramp: np.ndarray
    injector: np.ndarray
    link_rate: np.ndarray
    link_state: np.ndarray


class PartitionedSolver:
    """Prepared co-simulation: factorizations and step plan done once, stepping separate.

    Construction performs all offline work: first-order assembly, tangent and
    interface-operator factorizations, and the grouping of the substructures
    by inner-step count.  :meth:`run` performs the online time stepping: a
    coupled step takes one free step per inner step of each group rather
    than one per substructure; each member of a group keeps its own law and
    factorization.
    """

    def __init__(self, system: CoupledSystem, config: SolverConfig):
        self.system = system
        self.config = config
        self.sub_ids = list(system.substructures)
        physical = system.physical_ids()
        inner = {sid: config.subcycles if sid in physical else 1 for sid in self.sub_ids}
        self.forms = {sid: assemble_first_order(sub) for sid, sub in system.substructures.items()}
        self.effective = {
            sid: effective_matrix(self.forms[sid], config.dt / inner[sid], config.gamma)
            for sid in self.sub_ids
        }
        self.n_lam = system.topology.n_constraints
        if self.n_lam:
            self.interface = steklov_poincare(
                system.topology,
                {sid: self.effective[sid].solve for sid in self.sub_ids},
                {sid: self.forms[sid].n_dofs for sid in self.sub_ids},
            )
        else:
            self.interface = None
        members = {}
        for sid in self.sub_ids:
            members.setdefault(inner[sid], []).append(sid)
        self._plan = []
        for ss, sids in members.items():
            form = stack_forms(self.forms[sid] for sid in sids)
            n = form.n_dofs
            rows, blocks, start = {}, [], 0
            for sid in sids:
                stop = start + self.forms[sid].n_dofs
                rows[sid] = np.r_[start:stop, n + start:n + stop] if len(sids) > 1 else slice(None)
                blocks.append((slice(start, stop), self.effective[sid]))
                start = stop
            effective = blocks[0][1] if len(blocks) == 1 else _BlockSolve(tuple(blocks))
            injector = np.vstack([
                locator_matrix(system.topology, sid, self.forms[sid].n_dofs) for sid in sids
            ])
            # link rate D^{-1} [0; L_v] = [gamma*dts b; b] with b = S^{-1} L_v
            # at the group's own step dts, shared by every coupled step; kept in
            # C order (getrs returns Fortran order, and the layout sets the
            # summation order of the products with it)
            b = effective.solve(injector)
            link_rate = np.ascontiguousarray(np.concatenate([config.gamma * (config.dt / ss) * b, b]))
            self._plan.append(_Group(
                subcycles=ss, form=form, effective=effective, rows=rows,
                ramp=(1.0 - np.arange(1, ss + 1) / ss)[:, None], injector=injector,
                link_rate=link_rate, link_state=config.gamma * config.dt * link_rate,
            ))

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
        forces = self._prepare_forces(inputs, n_steps)

        # per group: stacked force table, state, rate, and a record of the
        # stacked state with one row per inner instant
        tables, y, ydot, records = [], [], [], []
        for group in groups:
            parts = [forces[sid] for sid in group.rows]
            tables.append(parts[0] if len(parts) == 1 else np.hstack(parts))
            y.append(np.empty(group.form.state_size))
            ydot.append(np.empty(group.form.state_size))
            for sid, rows in group.rows.items():
                start = self._initial_state(sid, initial)
                y[-1][rows] = start
                ydot[-1][rows] = _initial_rate(self.forms[sid], start, forces[sid][0])
            records.append(np.empty((n_steps * group.subcycles + 1, group.form.state_size)))
            records[-1][0] = y[-1]
        multipliers = np.zeros((n_steps + 1, self.n_lam))

        keys = range(len(groups))
        compat = {k: groups[k].injector.T for k in keys}
        link_state = {k: groups[k].link_state for k in keys}
        lam = np.zeros(self.n_lam)
        for step in range(1, n_steps + 1):
            for k, group in enumerate(groups):
                ss = group.subcycles
                first = (step - 1) * ss + 1
                step_forces = tables[k][first: first + ss]
                if ss > 1:  # the ramp weight of the single inner step of ss = 1 is zero
                    step_forces = step_forces + group.ramp * (group.injector @ lam)
                for j, force in enumerate(step_forces, first):
                    y[k], ydot[k] = free_step(
                        group.form, group.effective, y[k], ydot[k], force, cfg.dt / ss, cfg.gamma
                    )
                    records[k][j] = y[k]
            if self.n_lam:
                lam, links = coupling_step(
                    self.interface,
                    {k: y[k][groups[k].form.n_dofs:] for k in keys},
                    compat, link_state, cfg.gamma * cfg.dt,
                )
                for k, group in enumerate(groups):
                    y[k] = y[k] + links[k]
                    ydot[k] = ydot[k] + group.link_rate @ lam
                    records[k][step * group.subcycles] = y[k]  # the coupled state closes the window
            multipliers[step] = lam
            for k in keys:
                norm = np.abs(y[k]).max() if y[k].size else 0.0
                if not np.isfinite(norm) or norm > cfg.divergence_limit:
                    # name the first diverged substructure in system order
                    now = {sid: y[i][rows] for i in keys for sid, rows in groups[i].rows.items()}
                    for sid in self.sub_ids:
                        _check_divergence(step, sid, now[sid], cfg.divergence_limit)

        states, fine_states, fine_times = {}, {}, {}
        for group, record in zip(groups, records):
            ss = group.subcycles
            for sid, rows in group.rows.items():
                fine = record[:, rows]  # a view for a single member, else a copy
                states[sid] = fine[::ss]
                if ss > 1:
                    fine_states[sid] = fine
                    fine_times[sid] = np.arange(n_steps * ss + 1) * (cfg.dt / ss)
        return Trajectory(
            times=np.arange(n_steps + 1) * cfg.dt,
            states=states,
            multipliers=multipliers,
            dof_counts={sid: self.forms[sid].n_dofs for sid in self.sub_ids},
            fine_times=fine_times,
            fine_states=fine_states,
        )

    def _initial_state(self, sid, initial) -> np.ndarray:
        n2 = self.forms[sid].state_size
        if initial is None or sid not in initial:
            return np.zeros(n2)
        y0 = np.asarray(initial[sid], dtype=float).copy()
        if y0.shape != (n2,):
            raise SolverError(f"initial state for {sid!r} must have length {n2}")
        if not np.all(np.isfinite(y0)):
            raise SolverError(f"initial state for {sid!r} holds a non-finite value")
        return y0

    def _prepare_forces(self, inputs, n_steps):
        for sid in inputs or ():
            if sid not in self.system.substructures:
                raise SolverError(f"input table for {sid!r} names no substructure")
        forces = {}
        for group in self._plan:
            ss = group.subcycles
            for sid in group.rows:
                n = self.forms[sid].n_dofs
                table = None if inputs is None else inputs.get(sid)
                forces[sid] = np.zeros((n_steps * ss + 1, n)) if table is None else _input_table(
                    sid, table, n, n_steps, self.config.subcycles, ss > 1, SolverError
                )
        return forces


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

