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
Forces and records take the partitioned solver's paths
(:mod:`dynsub.solver`): of the forces only the driven DOFs' rows are held,
scattered onto the global DOFs one step at a time in input order, and each
step writes every substructure's ``[u; v]`` columns of the global state
into that substructure's own record.  ``solve_monolithic(..., dofs=)``
takes the ``dofs=`` of the partitioned solver, checked by the same
:func:`~dynsub.solver._recorded_dofs`, and records, through the same
:func:`~dynsub.solver._records`, only the DOFs it names, at the columns
``dof_map[sid][dofs]`` and ``n + dof_map[sid][dofs]``; ``run_experiment``
and both paths of ``dynsub simulate`` pass the DOFs they write
(:func:`dynsub.io._exported_dofs`), while the divergence check
(:func:`~dynsub.solver._check_divergence`, the partitioned solver's too)
still sees the whole state; it names the substructure and the DOF of the
value that broke the limit through ``dof_map``.  On the default desk run
that record is 24 columns instead of 2000.  A Newmark
average-acceleration variant (dense only) and the closed-form damped SDOF
solution serve as independent cross-checks.
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
    _force,
    _global_forces,
    _known_inputs,
    _recorded_dofs,
    _records,
    _start,
    effective_matrix,
    free_step,
)


def solve_monolithic(
    asys: AssembledSystem,
    config: SolverConfig,
    inputs: Mapping | None = None,
    initial: np.ndarray | None = None,
    dofs: Mapping | None = None,
) -> Trajectory:
    """Trapezoidal predictor-corrector on the assembled global system.

    Identical stage structure to the partitioned free step, evaluated on the
    merged DOF set; serves as the fidelity oracle for the coupled solvers.
    A sparse ``asys`` steps the same kernel on CSR products and one SuperLU
    factorization of ``S``; it agrees with the dense one to round-off.
    The trajectory holds every DOF of every substructure, or, given
    ``dofs``, only ``dofs[sid]`` of each (none of an id it leaves out).
    """
    dt, gamma = config.dt, config.gamma
    force_ids, first, forces = _global_forces(asys.dof_map, _known_inputs(inputs, asys.dof_map), config, False)
    recorded = _recorded_dofs(dofs, {sid: len(ids) for sid, ids in asys.dof_map.items()})
    records = _records(asys.dof_map, asys.state_columns, asys.n_dofs, config.n_steps + 1, recorded)
    form = asys.first_order()
    n = form.n_dofs
    d = effective_matrix(form, dt, gamma)
    y, ydot = _start(form, initial, _force(force_ids, first, n), "the assembled system")
    records[0] = y
    for step in range(1, config.n_steps + 1):
        y, ydot = free_step(form, d, y, ydot, _force(force_ids, forces(step)[0], n), dt, gamma)
        records[step] = y
        _check_divergence(step, config.divergence_limit, (y, asys.dof_map))

    return records.trajectory(dt)


def solve_newmark(
    asys: AssembledSystem,
    config: SolverConfig,
    inputs: Mapping | None = None,
) -> Trajectory:
    """Newmark average-acceleration oracle on a linear assembled system."""
    form = asys.first_order()
    if len(form.rates):
        raise ModelError("the Newmark oracle supports linear assembled systems only")
    if not isinstance(asys.mass, np.ndarray):
        raise ModelError("the Newmark oracle needs a dense assembly (sparse=False)")
    n, dt = asys.n_dofs, config.dt
    force_ids, first, forces = _global_forces(asys.dof_map, _known_inputs(inputs, asys.dof_map), config, False)
    records = _records(asys.dof_map, asys.state_columns, n, config.n_steps + 1)
    m, c, k = asys.mass, asys.damping, asys.stiffness

    beta, gamma = 0.25, 0.5  # average acceleration
    a0, a1, a2 = 1.0 / (beta * dt**2), gamma / (beta * dt), 1.0 / (beta * dt)
    a3, a4, a5 = 1.0 / (2 * beta) - 1.0, gamma / beta - 1.0, dt / 2 * (gamma / beta - 2.0)
    a6, a7 = dt * (1.0 - gamma), gamma * dt

    k_eff = k + a0 * m + a1 * c
    solve = _factorize(k_eff, lambda: SolverError(f"Newmark effective stiffness singular for dt={dt}"))

    y, ydot = _start(form, None, _force(force_ids, first, n), "the assembled system")
    u, v, acc = y[:n], y[n:], ydot[n:]
    records[0] = y
    for step in range(1, config.n_steps + 1):
        f = _force(force_ids, forces(step)[0], n)
        f_eff = f + m @ (a0 * u + a2 * v + a3 * acc) + c @ (a1 * u + a4 * v + a5 * acc)
        u_new = solve(f_eff)
        acc_new = a0 * (u_new - u) - a2 * v - a3 * acc
        v = v + a6 * acc + a7 * acc_new
        u, acc = u_new, acc_new
        y = np.concatenate([u, v])
        records[step] = y
        _check_divergence(step, config.divergence_limit, (y, asys.dof_map))

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
