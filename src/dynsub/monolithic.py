"""Reference solvers: primal-assembled monolithic integration and closed forms.

The monolithic solver merges all coupled interface DOFs into shared global
DOFs (hard compatibility) and steps the assembled first-order form with the
same trapezoidal kernel (:func:`~dynsub.solver.effective_matrix` and
:func:`~dynsub.solver.free_step`, the trapezoidal rule at the half step
``dt/2``) as the partitioned solver, so the gap
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

This module holds the kernels only.  Both references, ``solve_monolithic``
and the Newmark average-acceleration variant (dense only), hand one loop,
:func:`~dynsub.solver._step_assembled`, a step
``(y, ydot, force) -> (y, ydot)`` on this module's own bindings.  The
loop scatters the forces, starts, records and checks the state on the
partitioned solver's paths.  ``solve_monolithic(..., dofs=)`` records
only the DOFs it names, as ``run_experiment`` and ``dynsub simulate`` ask
(:func:`dynsub.io._exported_dofs`): 24 columns instead of 2000 on the
default desk run.  The closed-form damped SDOF solution is a third,
independent cross-check.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

# the assembly lives next to the topology it consumes; the solver builds its
# step groups with it too, and the reference's users import it from here
from .coupling import AssembledSystem, _factorize, assemble_global
from .models import ModelError
from .solver import SolverConfig, SolverError, Trajectory, _step_assembled, effective_matrix, free_step


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
    form, dt = asys.first_order(), config.dt
    d = effective_matrix(form, dt)
    return _step_assembled(asys, config, inputs, initial, dofs,
                           lambda y, ydot, force: free_step(form, d, y, ydot, force, dt))


def solve_newmark(
    asys: AssembledSystem,
    config: SolverConfig,
    inputs: Mapping | None = None,
) -> Trajectory:
    """Newmark average-acceleration oracle on a linear assembled system; its rate ``[v; a]`` carries ``a``."""
    if len(asys.first_order().rates):
        raise ModelError("the Newmark oracle supports linear assembled systems only")
    if not isinstance(asys.mass, np.ndarray):
        raise ModelError("the Newmark oracle needs a dense assembly (sparse=False)")
    n, dt = asys.n_dofs, config.dt
    m, c, k = asys.mass, asys.damping, asys.stiffness

    beta, gamma = 0.25, 0.5  # average acceleration
    a0, a1, a2 = 1.0 / (beta * dt**2), gamma / (beta * dt), 1.0 / (beta * dt)
    a3, a4, a5 = 1.0 / (2 * beta) - 1.0, gamma / beta - 1.0, dt / 2 * (gamma / beta - 2.0)
    a6, a7 = dt * (1.0 - gamma), gamma * dt

    k_eff = k + a0 * m + a1 * c
    solve = _factorize(k_eff, lambda: SolverError(f"Newmark effective stiffness singular for dt={dt}"))

    def step(y, ydot, f):
        u, v, acc = y[:n], y[n:], ydot[n:]
        u_new = solve(f + m @ (a0 * u + a2 * v + a3 * acc) + c @ (a1 * u + a4 * v + a5 * acc))
        acc_new = a0 * (u_new - u) - a2 * v - a3 * acc
        v_new = v + a6 * acc + a7 * acc_new
        return np.concatenate([u_new, v_new]), np.concatenate([v_new, acc_new])

    return _step_assembled(asys, config, inputs, None, None, step)


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
