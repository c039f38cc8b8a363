"""Partitioned trapezoidal time integration with dual interface coupling.

Each coupled step computes a free trapezoidal solution per substructure
(ignoring the interfaces inside the step), then solves one
small condensed interface problem for the Lagrange-multiplier intensities and
adds the resulting link solutions.  The interface solve enforces signed
boundary-velocity compatibility exactly at every step; displacements are
coupled softly through the link corrections.

A "physical" substructure may be sub-cycled: its free solution is ``ss``
inner trapezoidal steps at dt/ss, each injecting the previous coupled step's
multipliers with a linearly decaying ramp weight (1 - j/ss).  Every other
substructure takes one step (``ss = 1``), where that weight is zero.
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
from .models import FirstOrderForm, NonlinearSubstructure, assemble_first_order, require_numbers


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
    """Factorized effective matrix D = A + gamma*dt*R0 of one substructure."""

    matrix: np.ndarray
    dt: float
    gamma: float
    _lu: np.ndarray
    _piv: np.ndarray
    _getrs: object

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._getrs(self._lu, self._piv, rhs)[0]


def effective_matrix(form: FirstOrderForm, dt: float, gamma: float) -> EffectiveMatrix:
    """Assemble and factorize D = A + gamma*dt*R0 for repeated solves.

    The tangent R0 is state-independent, so D is assembled once per
    simulation; for sub-cycled substructures pass the inner step dt/ss.
    """
    d = form.A + gamma * dt * form.tangent
    lu, piv, getrs = _lu_factors(d, SolverError(f"effective matrix singular for dt={dt}, gamma={gamma}"))
    return EffectiveMatrix(matrix=d, dt=dt, gamma=gamma, _lu=lu, _piv=piv, _getrs=getrs)


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

    Predict Y~ = Y + (1-gamma)*dt*Ydot, solve D @ Ydot+ = F - R(Y~), correct
    Y+ = Y~ + gamma*dt*Ydot+.  ``force`` is the stacked state-space force
    (momentum rows populated).
    """
    y_pred = y + (1.0 - gamma) * dt * ydot
    ydot_new = d.solve(force - form.restoring(y_pred))
    return y_pred + gamma * dt * ydot_new, ydot_new


def coupling_step(
    interface: InterfaceOperator,
    free_states: Mapping,
    compat: Mapping,
    link_maps: Mapping,
    gamma_dt: float,
) -> tuple[np.ndarray, dict]:
    """Identify the interface-force intensities and the link states.

    The intensities annihilate the G-weighted sum of the coupled states:
    lam = -(gamma*dt*H)^{-1} sum_s G_s @ Y_s^free, and the per-substructure
    link state is gamma*dt * D_s^{-1} @ L_s @ lam.
    """
    residual = None
    for sub_id, g in compat.items():
        contrib = g @ free_states[sub_id]
        residual = contrib if residual is None else residual + contrib
    lam = -interface.solve(residual) / gamma_dt
    links = {sub_id: link_maps[sub_id] @ lam for sub_id in free_states}
    return lam, links


def _initial_rate(form: FirstOrderForm, y: np.ndarray, force: np.ndarray) -> np.ndarray:
    """Consistent starting rate: solve A @ Ydot0 = F0 - R(Y0).

    ``force`` is the physical force on the momentum rows at the first instant.
    """
    n = form.n_dofs
    rhs = -form.restoring(y)
    rhs[n:] += force
    return np.concatenate([rhs[:n], np.linalg.solve(form.mass, rhs[n:])])


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


class PartitionedSolver:
    """Prepared co-simulation: factorizations done once, stepping separate.

    Construction performs all offline work (first-order assembly, tangent and
    interface-operator factorizations); :meth:`run` performs the online time
    stepping.
    """

    def __init__(self, system: CoupledSystem, config: SolverConfig):
        self.system = system
        self.config = config
        self.sub_ids = list(system.substructures)
        # physical substructures take config.subcycles inner steps per coupled
        # step, every other substructure one
        self.subcycled = set(system.physical_ids())
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
        self.compat = {sid: self.locators[sid].T for sid in self.sub_ids}
        if self.n_lam:
            self.interface = steklov_poincare(
                system.topology,
                {sid: self.effective[sid].solve for sid in self.sub_ids},
                {sid: self.forms[sid].n_dofs for sid in self.sub_ids},
            )
            # link maps D^{-1} L (rate) and gamma*dt * D^{-1} L (state),
            # shared by every coupled step
            self.link_rate = {
                sid: self.effective[sid].solve(self.locators[sid]) for sid in self.sub_ids
            }
            self.link_state = {
                sid: config.gamma * config.dt * self.link_rate[sid] for sid in self.sub_ids
            }
        else:
            self.interface = None

    def _subcycles(self, sid) -> int:
        return self.config.subcycles if sid in self.subcycled else 1

    def _free_solution(self, sid, y, ydot, forces_sub, step, lam):
        """Free solution over one coupled step: ``ss`` inner steps at dt/ss.

        Inner step j injects the previous multipliers with weight 1 - j/ss;
        returns the final state, its rate and the inner states.
        """
        form, d, locator = self.forms[sid], self.effective[sid], self.locators[sid]
        n = form.n_dofs
        ss = self._subcycles(sid)
        dts, gamma = self.config.dt / ss, self.config.gamma
        inject = self.n_lam > 0
        first = (step - 1) * ss
        # one force buffer per coupled step; its momentum rows are refilled
        # at every inner step and free_step does not write to it
        force = np.zeros(2 * n)
        inner = []
        for j in range(1, ss + 1):
            force[n:] = forces_sub[first + j]
            weight = 1.0 - j / ss
            if inject and weight:
                force += locator @ (lam * weight)
            y, ydot = free_step(form, d, y, ydot, force, dts, gamma)
            inner.append(y)
        return y, ydot, inner

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
        y = {}
        ydot = {}
        for sid in self.sub_ids:
            form = self.forms[sid]
            n2 = form.state_size
            if initial is None or sid not in initial:
                y[sid] = np.zeros(n2)
            else:
                y[sid] = np.asarray(initial[sid], dtype=float).copy()
                if y[sid].shape != (n2,):
                    raise SolverError(f"initial state for {sid!r} must have length {n2}")
                if not np.all(np.isfinite(y[sid])):
                    raise SolverError(f"initial state for {sid!r} holds a non-finite value")
            ydot[sid] = _initial_rate(form, y[sid], forces[sid][0])

        states = {sid: np.empty((n_steps + 1, self.forms[sid].state_size)) for sid in self.sub_ids}
        for sid in self.sub_ids:
            states[sid][0] = y[sid]
        multipliers = np.zeros((n_steps + 1, self.n_lam))
        fine_states = {}
        fine_times = {}
        ss = cfg.subcycles
        for sid in self.subcycled:
            if ss > 1:
                fine_states[sid] = np.empty((n_steps * ss + 1, self.forms[sid].state_size))
                fine_states[sid][0] = y[sid]
                fine_times[sid] = np.arange(n_steps * ss + 1) * (cfg.dt / ss)

        lam = np.zeros(self.n_lam)
        for step in range(1, n_steps + 1):
            results = {
                sid: self._free_solution(sid, y[sid], ydot[sid], forces[sid], step, lam)
                for sid in self.sub_ids
            }
            if self.n_lam:
                free = {sid: results[sid][0] for sid in self.sub_ids}
                lam, links = coupling_step(
                    self.interface, free, self.compat, self.link_state,
                    cfg.gamma * cfg.dt,
                )
                for sid in self.sub_ids:
                    y[sid] = results[sid][0] + links[sid]
                    ydot[sid] = results[sid][1] + self.link_rate[sid] @ lam
            else:
                for sid in self.sub_ids:
                    y[sid] = results[sid][0]
                    ydot[sid] = results[sid][1]
            multipliers[step] = lam
            for sid in self.sub_ids:
                states[sid][step] = y[sid]
                if sid in fine_states:
                    rows = fine_states[sid][(step - 1) * ss + 1: step * ss + 1]
                    rows[:] = results[sid][2]
                    rows[-1] = y[sid]  # the coupled state closes the window
                _check_divergence(step, sid, y[sid], cfg.divergence_limit)

        return Trajectory(
            times=np.arange(n_steps + 1) * cfg.dt,
            states=states,
            multipliers=multipliers,
            dof_counts={sid: self.forms[sid].n_dofs for sid in self.sub_ids},
            fine_times=fine_times,
            fine_states=fine_states,
        )

    def _prepare_forces(self, inputs, n_steps):
        cfg = self.config
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

