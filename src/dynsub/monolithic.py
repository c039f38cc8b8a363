"""Reference solvers: primal-assembled monolithic integration and closed forms.

The monolithic solver merges all coupled interface DOFs into shared global
DOFs (hard compatibility) and steps the assembled first-order form with the
same trapezoidal kernel (:func:`~dynsub.solver.effective_matrix` and
:func:`~dynsub.solver.free_step`) as the partitioned solver, so the gap
between the two is coupling and reduction error, not an integrator
difference.  :func:`~dynsub.coupling.assemble_global` builds the assembly
and is re-exported here.  It is dense by default, which the acceptance
criteria use, whether the substructures hold dense or CSR matrices;
``assemble_global(..., sparse=True)`` stores ``M``, ``C`` and ``K`` as CSR
arrays.  ``run_experiment`` uses the sparse one, the fair full-order
baseline for a banded frame, and the CLI follows the model's storage
(:func:`~dynsub.coupling._stores_csr`).  Every solve here
(``S``, the starting rate's ``M`` and the Newmark effective stiffness) is
factorized once by :func:`~dynsub.coupling._factorize`: LAPACK LU for the
dense assembly, SuperLU for the sparse one, under one singularity rule.
The reference streams: each step writes every substructure's ``[u; v]``
columns of the global state into that substructure's own record, and of
the forces only the driven DOFs' rows are held, scattered onto the global
DOFs one step at a time, so no whole-run global array is allocated.  A
Newmark average-acceleration variant (dense only) and the closed-form
damped SDOF solution serve as independent cross-checks.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

# the assembly lives next to the topology it consumes; the solver builds its
# step groups with it too, and the reference's users import it from here
from .coupling import AssembledSystem, _factorize, assemble_global
from .models import ModelError
from .solver import (
    SolverConfig,
    SolverError,
    Trajectory,
    _check_divergence,
    _initial_rate,
    _input_table,
    effective_matrix,
    free_step,
)


class _Records:
    """Per-substructure records of a global run, written step by step.

    ``write(step, y)`` copies each substructure's ``[u; v]`` columns of the
    global state ``y`` (shared DOFs repeat) into its own
    ``(n_steps + 1, 2 n_s)`` record, so no global record is kept.
    """

    def __init__(self, asys: AssembledSystem, n_steps: int):
        self._cols = asys.state_columns
        self.states = {sid: np.empty((n_steps + 1, len(cols))) for sid, cols in self._cols.items()}
        self.n_steps = n_steps

    def write(self, step: int, y: np.ndarray) -> None:
        for sid, cols in self._cols.items():
            self.states[sid][step] = y[cols]

    def trajectory(self, dt: float) -> Trajectory:
        return Trajectory(
            times=np.arange(self.n_steps + 1) * dt,
            states=self.states,
            multipliers=np.zeros((self.n_steps + 1, 0)),
            dof_counts={sid: len(cols) // 2 for sid, cols in self._cols.items()},
        )


def _global_forces(asys: AssembledSystem, inputs: Mapping | None, config: SolverConfig) -> tuple:
    """The driven global DOFs and their force rows, one row per coupled instant.

    Returns ``(ids, table)``: the global DOFs of every input table's
    columns, concatenated in input order, and an ``(n_steps + 1, len(ids))``
    table of their forces.  :func:`_force` scatters one row onto the global
    DOFs.  A table sampled at the inner instants of ``config.subcycles`` is
    decimated onto the coupled ones.  A table for no substructure, or of
    the wrong shape or with a non-finite value, raises
    :class:`~dynsub.solver.SolverError`, as in the partitioned solver.
    """
    n_steps = config.n_steps
    ids, tables = [np.zeros(0, dtype=np.intp)], [np.zeros((n_steps + 1, 0))]
    if inputs:
        for sid, table in inputs.items():
            if sid not in asys.dof_map:
                raise SolverError(f"input table for {sid!r} names no substructure")
            if table is None:
                continue
            ids.append(asys.dof_map[sid])
            tables.append(_input_table(sid, table, len(ids[-1]), n_steps, config.subcycles, False))
    return np.concatenate(ids), np.hstack(tables)


def _force(ids: np.ndarray, row: np.ndarray, n: int) -> np.ndarray:
    """Global force vector of one row of :func:`_global_forces`.

    The unbuffered scatter adds the entries onto zeros in input order, so
    a merged DOF driven from two sides sums in a fixed order.
    """
    force = np.zeros(n)
    np.add.at(force, ids, row)
    return force


def solve_monolithic(
    asys: AssembledSystem,
    config: SolverConfig,
    inputs: Mapping | None = None,
    initial: np.ndarray | None = None,
) -> Trajectory:
    """Trapezoidal predictor-corrector on the assembled global system.

    Identical stage structure to the partitioned free step, evaluated on the
    merged DOF set; serves as the fidelity oracle for the coupled solvers.
    A sparse ``asys`` steps the same kernel on CSR products and one SuperLU
    factorization of ``S``; it agrees with the dense one to round-off.
    """
    n_steps = config.n_steps
    dt, gamma = config.dt, config.gamma
    force_ids, forces = _global_forces(asys, inputs, config)
    form = asys.first_order()
    n = form.n_dofs
    d = effective_matrix(form, dt, gamma)

    y = np.zeros(2 * n) if initial is None else np.asarray(initial, dtype=float).copy()
    if y.shape != (2 * n,):
        raise SolverError(f"initial state must have length {2 * n}, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise SolverError("initial state holds a non-finite value")
    ydot = _initial_rate(form, y, _force(force_ids, forces[0], n), "the assembled system")

    records = _Records(asys, n_steps)
    records.write(0, y)
    for step in range(1, n_steps + 1):
        y, ydot = free_step(form, d, y, ydot, _force(force_ids, forces[step], n), dt, gamma)
        records.write(step, y)
        _check_divergence(step, "global", y, config.divergence_limit)

    return records.trajectory(dt)


def solve_newmark(
    asys: AssembledSystem,
    config: SolverConfig,
    inputs: Mapping | None = None,
    beta: float = 0.25,
    gamma: float = 0.5,
) -> Trajectory:
    """Newmark average-acceleration oracle on a linear assembled system."""
    form = asys.first_order()
    if len(form.rates):
        raise ModelError("the Newmark oracle supports linear assembled systems only")
    if not isinstance(asys.mass, np.ndarray):
        raise ModelError("the Newmark oracle needs a dense assembly (sparse=False)")
    n = asys.n_dofs
    n_steps = config.n_steps
    dt = config.dt
    force_ids, forces = _global_forces(asys, inputs, config)
    m, c, k = asys.mass, asys.damping, asys.stiffness

    a0 = 1.0 / (beta * dt**2)
    a1 = gamma / (beta * dt)
    a2 = 1.0 / (beta * dt)
    a3 = 1.0 / (2 * beta) - 1.0
    a4 = gamma / beta - 1.0
    a5 = dt / 2 * (gamma / beta - 2.0)
    a6 = dt * (1.0 - gamma)
    a7 = gamma * dt

    k_eff = k + a0 * m + a1 * c
    solve = _factorize(k_eff, lambda: SolverError(f"Newmark effective stiffness singular for dt={dt}"))

    u = np.zeros(n)
    v = np.zeros(n)
    acc = _initial_rate(form, np.zeros(2 * n), _force(force_ids, forces[0], n), "the assembled system")[n:]
    records = _Records(asys, n_steps)
    records.write(0, np.concatenate([u, v]))
    for step in range(1, n_steps + 1):
        f = _force(force_ids, forces[step], n)
        f_eff = f + m @ (a0 * u + a2 * v + a3 * acc) + c @ (a1 * u + a4 * v + a5 * acc)
        u_new = solve(f_eff)
        acc_new = a0 * (u_new - u) - a2 * v - a3 * acc
        v = v + a6 * acc + a7 * acc_new
        u, acc = u_new, acc_new
        y = np.concatenate([u, v])
        records.write(step, y)
        _check_divergence(step, "global", y, config.divergence_limit)

    return records.trajectory(dt)


def analytic_sdof(
    m: float, c: float, k: float, u0: float, v0: float, t
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form free vibration of the damped single-DOF oscillator.

    Handles the undamped/underdamped, critically damped, and overdamped
    branches; returns displacement and velocity at the requested times.
    """
    if m <= 0 or k <= 0:
        raise ModelError("analytic SDOF needs positive mass and stiffness")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    wn = np.sqrt(k / m)
    zeta = c / (2.0 * np.sqrt(k * m))
    if zeta < 1.0:
        wd = wn * np.sqrt(1.0 - zeta**2)
        a = zeta * wn
        amp_b = (v0 + a * u0) / wd
        decay = np.exp(-a * t)
        u = decay * (u0 * np.cos(wd * t) + amp_b * np.sin(wd * t))
        v = decay * ((-a * u0 + amp_b * wd) * np.cos(wd * t) + (-a * amp_b - u0 * wd) * np.sin(wd * t))
    elif zeta == 1.0:
        b = v0 + wn * u0
        decay = np.exp(-wn * t)
        u = decay * (u0 + b * t)
        v = decay * (v0 - wn * b * t)
    else:
        root = wn * np.sqrt(zeta**2 - 1.0)
        r1, r2 = -zeta * wn + root, -zeta * wn - root
        c1 = (v0 - r2 * u0) / (r1 - r2)
        c2 = u0 - c1
        u = c1 * np.exp(r1 * t) + c2 * np.exp(r2 * t)
        v = c1 * r1 * np.exp(r1 * t) + c2 * r2 * np.exp(r2 * t)
    return u, v
