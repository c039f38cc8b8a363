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
group, stepped together as one block-diagonal form
(:func:`~dynsub.models.stack_forms`).  Each group factorizes its stacked
``S`` once.  Its ``b = S^{-1} L_v`` gives both the group's link maps and its
share ``L_v^T b`` of the interface operator ``H``, and the same factors
drive its free steps and its propagator.

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
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .coupling import (
    CouplingError,
    CouplingTopology,
    InterfaceOperator,
    _factorize,
    locator_matrix,
    steklov_poincare,
)
from .models import (
    FirstOrderForm,
    NonlinearSubstructure,
    assemble_first_order,
    friction_shape,
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
    blocks, :func:`~dynsub.monolithic.assemble_global` with ``sparse=True``).
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


def _initial_rate(form: FirstOrderForm, y: np.ndarray, force: np.ndarray, what: str) -> np.ndarray:
    """Consistent starting rate: solve A @ Ydot0 = F0 - R(Y0).

    ``force`` is the physical force on the momentum rows at the first
    instant.  A singular ``M`` raises :class:`SolverError` naming ``what``.
    """
    n = form.n_dofs
    u, v = y[:n], y[n:]
    solve = _factorize(form.mass, lambda: SolverError(
        f"mass matrix of {what} is singular, so its starting acceleration is undefined"
    ))
    return np.concatenate([v, solve(force - form.momentum(u, v))])


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

    The group's state is ``z = [y; ydot]`` of the stacked form.  ``rows[sid]``
    selects a member's own ``[u; v]`` from ``y`` (and its rate from
    ``ydot``; all of it for a single member).  ``effective`` factorizes the
    stacked ``S`` at the inner step.  ``ramp`` holds the weights
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
    rows: dict
    ramp: np.ndarray
    injector: np.ndarray
    link: np.ndarray
    propagator: _Propagator | None

    def advance(self, z: np.ndarray, forces: np.ndarray, lam: np.ndarray, record: np.ndarray) -> np.ndarray:
        """The free inner steps of one coupled step; ``record`` gets ``y`` after each."""
        m = self.form.state_size
        prop = self.propagator
        if prop is None:
            if self.subcycles > 1:  # the ramp weight of the single inner step of ss = 1 is zero
                forces = forces + self.ramp * (self.injector @ lam)
            y, ydot = z[:m], z[m:]
            for j, force in enumerate(forces):
                y, ydot = free_step(self.form, self.effective, y, ydot, force, self.dt, self.gamma)
                record[j] = y
            return np.concatenate([y, ydot])
        forced = forces.dot(prop.forcing)
        if self.subcycles > 1:
            forced += self.ramp * prop.injected.dot(lam)
        size = 2 * m
        step, feedback, smoothing = prop.step, prop.feedback, self.form.smoothing
        for j, f in enumerate(forced):
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
            form = stack_forms(self.forms[sid] for sid in sids)
            n = form.n_dofs
            rows, start = {}, 0
            for sid in sids:
                stop = start + self.forms[sid].n_dofs
                rows[sid] = np.r_[start:stop, n + start:n + stop] if len(sids) > 1 else slice(None)
                start = stop
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
                subcycles=ss, dt=dts, gamma=config.gamma, form=form, effective=effective, rows=rows,
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
        forces = self._prepare_forces(inputs, n_steps)

        # per group: stacked force table, state z = [y; ydot], and a record of
        # the stacked state y with one row per inner instant
        tables, z, records = [], [], []
        for group in groups:
            parts = [forces[sid] for sid in group.rows]
            tables.append(parts[0] if len(parts) == 1 else np.hstack(parts))
            m = group.form.state_size
            z.append(np.empty(2 * m))
            for sid, rows in group.rows.items():
                start = self._initial_state(sid, initial)
                z[-1][:m][rows] = start
                z[-1][m:][rows] = _initial_rate(self.forms[sid], start, forces[sid][0], f"substructure {sid!r}")
            records.append(np.empty((n_steps * group.subcycles + 1, m)))
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
                z[k] = group.advance(z[k], tables[k][first: first + ss], lam, records[k][first: first + ss])
            if self.n_lam:
                lam, links = coupling_step(
                    self.interface,
                    {k: z[k][groups[k].form.n_dofs: groups[k].form.state_size] for k in keys},
                    compat, link, cfg.gamma * cfg.dt,
                )
                for k, group in enumerate(groups):
                    z[k] = z[k] + links[k]
                    # the coupled state closes the window
                    records[k][step * group.subcycles] = z[k][:group.form.state_size]
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

