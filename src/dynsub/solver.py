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
substructure takes one step (``ss = 1``), where that weight is zero.
Substructures that take the same number of inner steps are stepped together
as one block-diagonal form (:func:`~dynsub.models.stack_forms`).
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


def _check_finite_inputs(sid, table: np.ndarray, error: type) -> None:
    """Raise ``error`` naming the first row of an input table that holds a nan or inf."""
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise error(f"input table for {sid!r} holds a non-finite value in row {row}")


def _resample_inputs(coarse: np.ndarray, ss: int) -> np.ndarray:
    """Linear interpolation of coarse force samples onto the inner grid."""
    n_steps = coarse.shape[0] - 1
    t_coarse = np.arange(n_steps + 1, dtype=float)
    t_fine = np.arange(n_steps * ss + 1, dtype=float) / ss
    return np.column_stack([
        np.interp(t_fine, t_coarse, coarse[:, j]) for j in range(coarse.shape[1])
    ])


@dataclass(frozen=True)
class _Group:
    """Substructures with one inner-step count, stepped as one stacked form.

    ``cols[sid]`` selects a member's DOFs (force and momentum rows) and
    ``rows[sid]`` its own state ``[u; v]`` from the stacked ones.
    ``injector`` stacks the members' ``L_v``; ``link_rate`` and
    ``link_state`` stack their link maps (``None`` without constraints).
    """

    subcycles: int
    form: FirstOrderForm
    effective: object  # EffectiveMatrix of a single member, else _BlockSolve
    cols: dict
    rows: dict
    injector: np.ndarray
    link_rate: np.ndarray | None
    link_state: np.ndarray | None


class PartitionedSolver:
    """Prepared co-simulation: factorizations done once, stepping separate.

    Construction performs all offline work (first-order assembly, tangent and
    interface-operator factorizations); :meth:`run` performs the online time
    stepping.  A coupled step takes one free step per inner-step count
    rather than one per substructure; each member of a stack keeps its own
    law and factorization.
    """

    def __init__(self, system: CoupledSystem, config: SolverConfig):
        self.system = system
        self.config = config
        self.sub_ids = list(system.substructures)
        # physical substructures take config.subcycles inner steps per coupled
        # step, every other substructure one
        self.subcycled = set(system.physical_ids())
        # ramp weights 1 - j/ss of the inner steps j = 1..ss, as a column
        self.ramp = (1.0 - np.arange(1, config.subcycles + 1) / config.subcycles)[:, None]
        self.forms = {sid: assemble_first_order(sub) for sid, sub in system.substructures.items()}
        self.effective = {
            sid: effective_matrix(self.forms[sid], config.dt / self._subcycles(sid), config.gamma)
            for sid in self.sub_ids
        }
        self.n_lam = system.topology.n_constraints
        self.locators = {
            sid: locator_matrix(system.topology, sid, self.forms[sid].n_dofs)
            for sid in self.sub_ids
        }
        if self.n_lam:
            self.interface = steklov_poincare(
                system.topology,
                {sid: self.effective[sid].solve for sid in self.sub_ids},
                {sid: self.forms[sid].n_dofs for sid in self.sub_ids},
            )
            # link rate D^{-1} [0; L_v] = [gamma*dts b; b] with b = S^{-1} L_v
            # at the substructure's own step dts, shared by every coupled step
            self.link_rate = {}
            for sid in self.sub_ids:
                d = self.effective[sid]
                b = d.solve(self.locators[sid])
                self.link_rate[sid] = np.concatenate([d.gamma * d.dt * b, b])
        else:
            self.interface = None

    def _subcycles(self, sid) -> int:
        return self.config.subcycles if sid in self.subcycled else 1

    def _groups(self) -> list:
        """Substructures grouped by inner-step count, in order of first appearance."""
        members = {}
        for sid in self.sub_ids:
            members.setdefault(self._subcycles(sid), []).append(sid)
        return [self._group(ss, sids) for ss, sids in members.items()]

    def _group(self, ss: int, sids: list) -> _Group:
        form = stack_forms(self.forms[sid] for sid in sids)
        n = form.n_dofs
        cols, rows, blocks = {}, {}, []
        start = 0
        for sid in sids:
            stop = start + self.forms[sid].n_dofs
            cols[sid] = slice(start, stop)
            rows[sid] = np.r_[start:stop, n + start:n + stop] if len(sids) > 1 else slice(None)
            blocks.append((cols[sid], self.effective[sid]))
            start = stop
        effective = blocks[0][1] if len(blocks) == 1 else _BlockSolve(tuple(blocks))
        link_rate = link_state = None
        if self.n_lam:
            link_rate = np.empty((2 * n, self.n_lam))
            for sid in sids:
                link_rate[rows[sid]] = self.link_rate[sid]
            link_state = self.config.gamma * self.config.dt * link_rate
        return _Group(
            subcycles=ss, form=form, effective=effective, cols=cols, rows=rows,
            injector=np.vstack([self.locators[sid] for sid in sids]),
            link_rate=link_rate, link_state=link_state,
        )

    def _free_solution(self, group: _Group, y, ydot, table, step, lam, fine_states):
        """Free solution of a group over one coupled step: ``ss`` inner steps at dt/ss.

        Inner step j injects the previous multipliers with weight 1 - j/ss
        (zero at ss = 1); sub-cycled inner states go to ``fine_states``.
        """
        ss = group.subcycles
        if ss == 1:
            return free_step(
                group.form, group.effective, y, ydot, table[step], self.config.dt, self.config.gamma
            )
        dts, gamma = self.config.dt / ss, self.config.gamma
        first = (step - 1) * ss + 1
        forces = table[first: first + ss]
        if self.n_lam:
            forces = forces + self.ramp * (group.injector @ lam)
        for j, force in enumerate(forces, first):
            y, ydot = free_step(group.form, group.effective, y, ydot, force, dts, gamma)
            for sid, rows in group.rows.items():
                fine_states[sid][j] = y[rows]
        return y, ydot

    def run(self, inputs: Mapping | None = None, initial: Mapping | None = None) -> Trajectory:
        """Step the coupled system over the configured horizon.

        ``inputs`` maps substructure id to physical force samples, one row
        per coupled instant (n_steps+1, n_dofs).  Sub-cycled substructures
        may instead receive samples on their inner grid (n_steps*ss+1 rows);
        coarse samples are linearly interpolated onto it.
        """
        cfg = self.config
        n_steps = cfg.n_steps
        forces = self._prepare_forces(inputs, n_steps)
        start = {sid: self._initial_state(sid, initial) for sid in self.sub_ids}
        groups = self._groups()

        y, ydot, tables = [], [], []
        states, fine_states, fine_times = {}, {}, {}
        for group in groups:
            ss = group.subcycles
            parts = [forces[sid] for sid in group.cols]
            tables.append(parts[0] if len(parts) == 1 else np.hstack(parts))
            y.append(np.empty(group.form.state_size))
            ydot.append(np.empty(group.form.state_size))
            for sid, rows in group.rows.items():
                y[-1][rows] = start[sid]
                ydot[-1][rows] = _initial_rate(self.forms[sid], start[sid], forces[sid][0])
                states[sid] = np.empty((n_steps + 1, start[sid].size))
                states[sid][0] = start[sid]
                if ss > 1:
                    fine_states[sid] = np.empty((n_steps * ss + 1, start[sid].size))
                    fine_states[sid][0] = start[sid]
                    fine_times[sid] = np.arange(n_steps * ss + 1) * (cfg.dt / ss)
        multipliers = np.zeros((n_steps + 1, self.n_lam))

        keys = range(len(groups))
        compat = {k: groups[k].injector.T for k in keys}
        link_state = {k: groups[k].link_state for k in keys}
        lam = np.zeros(self.n_lam)
        for step in range(1, n_steps + 1):
            for k in keys:
                y[k], ydot[k] = self._free_solution(
                    groups[k], y[k], ydot[k], tables[k], step, lam, fine_states
                )
            if self.n_lam:
                lam, links = coupling_step(
                    self.interface,
                    {k: y[k][groups[k].form.n_dofs:] for k in keys},
                    compat, link_state, cfg.gamma * cfg.dt,
                )
                for k in keys:
                    y[k] = y[k] + links[k]
                    ydot[k] = ydot[k] + groups[k].link_rate @ lam
            multipliers[step] = lam
            for k in keys:
                ss = groups[k].subcycles
                for sid, rows in groups[k].rows.items():
                    states[sid][step] = y[k][rows]
                    if ss > 1:  # the coupled state closes the inner window
                        fine_states[sid][step * ss] = states[sid][step]
            for k in keys:
                norm = np.abs(y[k]).max() if y[k].size else 0.0
                if not np.isfinite(norm) or norm > cfg.divergence_limit:
                    # name the first diverged substructure in system order
                    for sid in self.sub_ids:
                        _check_divergence(step, sid, states[sid][step], cfg.divergence_limit)

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
        for sid in self.sub_ids:
            n = self.forms[sid].n_dofs
            ss = self._subcycles(sid)
            need = n_steps * ss + 1
            if inputs is None or sid not in inputs or inputs[sid] is None:
                forces[sid] = np.zeros((need, n))
                continue
            table = np.asarray(inputs[sid], dtype=float)
            if table.ndim != 2 or table.shape[1] != n:
                raise SolverError(
                    f"input table for {sid!r} must have {n} columns, got {table.shape}"
                )
            _check_finite_inputs(sid, table, SolverError)
            if table.shape[0] == need:
                forces[sid] = table
            elif table.shape[0] == n_steps + 1 and ss > 1:
                forces[sid] = _resample_inputs(table, ss)
            else:
                raise SolverError(
                    f"input table for {sid!r} must have {n_steps + 1} rows "
                    f"(or {need} at the inner sampling), got {table.shape[0]}"
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

