"""Reference solvers: primal-assembled monolithic integration and closed forms.

The monolithic solver merges all coupled interface DOFs into shared global
DOFs (hard compatibility) and steps the assembled first-order form with the
same trapezoidal kernel (:func:`~dynsub.solver.effective_matrix` and
:func:`~dynsub.solver.free_step`) as the partitioned solver, so the gap
between the two is coupling and reduction error, not an integrator
difference.  The assembly is dense by default, which the CLI and the
acceptance criteria use; ``assemble_global(..., sparse=True)`` stores
``M``, ``C`` and ``K`` as CSR arrays.  ``run_experiment`` uses the sparse
one, the fair full-order baseline for a banded frame.  Every solve here
(``S``, the starting rate's ``M`` and the Newmark effective stiffness) is
factorized once by :func:`~dynsub.coupling._factorize`: LAPACK LU for the
dense assembly, SuperLU for the sparse one, under one singularity rule.  A
Newmark average-acceleration variant (dense only) and the closed-form
damped SDOF solution serve as independent cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .coupling import CouplingError, CouplingTopology, _factorize
from .models import FirstOrderForm, LinearSubstructure, ModelError, assemble_first_order, nonzero_entries
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


@dataclass(frozen=True)
class AssembledSystem:
    """Primal assembly of a coupled system onto shared global DOFs.

    ``dof_map[sid]`` gives the global DOF of each DOF of substructure ``sid``;
    two DOFs of one substructure may share a global DOF.  ``mass``,
    ``damping`` and ``stiffness`` are dense arrays, or CSR arrays for a
    sparse assembly.
    """

    mass: np.ndarray
    damping: np.ndarray
    stiffness: np.ndarray
    dof_map: dict
    _form: FirstOrderForm

    @property
    def n_dofs(self) -> int:
        return self.mass.shape[0]

    def first_order(self) -> FirstOrderForm:
        """First-order form of the assembled system, built by :func:`assemble_global`.

        The tangent blocks are the assembled ``K`` and ``C``; the element
        rows of each substructure's ``B`` are scattered onto the global DOFs
        through ``dof_map`` and stacked in substructure order, and their
        ``slope`` and ``smoothing`` coefficients follow in the same order,
        so the assembled law is each substructure's own.
        """
        return self._form


def assemble_global(substructures: Mapping, topology: CouplingTopology, sparse: bool = False) -> AssembledSystem:
    """Merge coupled interface DOFs and sum the substructure matrices.

    The global DOF count is the sum of substructure DOF counts minus the
    number of interface constraints.  ``M``, ``C`` and ``K`` are dense
    arrays by default; with ``sparse`` they are CSR arrays summed from each
    substructure's nonzero entries, so no ``n_global**2`` array is built
    and the reference steps on a sparse factorization of ``S``
    (:func:`~dynsub.solver.effective_matrix`).  ``B`` and the element
    coefficients stay dense rows either way.
    """
    offsets = {}
    total = 0
    for sid, sub in substructures.items():
        offsets[sid] = total
        total += sub.n_dofs

    parent = list(range(total))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c, entry in enumerate(topology.constraints):
        (sa, da, _), (sb, db, _) = entry
        for sid, dof in ((sa, da), (sb, db)):
            if sid not in offsets:
                raise CouplingError(f"constraint {c} references unknown substructure {sid!r}")
            if not 0 <= dof < substructures[sid].n_dofs:
                raise CouplingError(f"constraint {c} references DOF {dof} of {sid!r}")
        ra, rb = find(offsets[sa] + da), find(offsets[sb] + db)
        if ra == rb:
            raise CouplingError(f"constraint {c} is redundant: its DOFs are already merged")
        parent[rb] = ra

    roots = sorted({find(x) for x in range(total)})
    if len(roots) != total - topology.n_constraints:
        raise CouplingError("inconsistent constraint graph")
    gid = {root: i for i, root in enumerate(roots)}
    n_global = len(roots)

    dof_map = {
        sid: np.array([gid[find(offsets[sid] + d)] for d in range(sub.n_dofs)], dtype=int)
        for sid, sub in substructures.items()
    }

    forms = {sid: assemble_first_order(sub) for sid, sub in substructures.items()}
    rates = []
    for sid, form in forms.items():
        block = np.zeros((len(form.rates), n_global))
        np.add.at(block, (slice(None), dof_map[sid]), form.rates)
        rates.append(block)
    mass, damping, stiffness = (
        _scatter([(dof_map[sid], _nonzeros(substructures[sid], form, name) if sparse else getattr(form, name))
                  for sid, form in forms.items()], n_global, sparse)
        for name in ("mass", "damping", "stiffness")
    )

    return AssembledSystem(
        mass=mass,
        damping=damping,
        stiffness=stiffness,
        dof_map=dof_map,
        _form=FirstOrderForm(
            n_dofs=n_global, mass=mass, stiffness=stiffness, damping=damping,
            rates=np.vstack(rates),
            slope=np.concatenate([form.slope for form in forms.values()]),
            smoothing=np.concatenate([form.smoothing for form in forms.values()]),
        ),
    )


def _nonzeros(sub, form: FirstOrderForm, name: str) -> tuple:
    """``(rows, cols, values)`` of the ``name`` block of a substructure's form.

    A linear substructure's are cached on it (its form holds its own
    matrices), so a dense frame matrix is scanned once per process.
    """
    if isinstance(sub, LinearSubstructure):
        return sub.nonzeros[name]
    return nonzero_entries(getattr(form, name))


def _scatter(blocks, n_global: int, sparse: bool):
    """Sum square blocks onto the global DOFs.

    ``blocks`` holds ``(global ids, block)`` pairs, or ``(global ids,
    (rows, cols, values))`` pairs of nonzero entries for a sparse sum.
    Two DOFs of one block may share a global DOF, so the entries that land
    on one global entry add up: through an unbuffered scatter into a dense
    array, or as duplicate COO triplets, which the conversion to CSR sums.
    """
    if not sparse:
        out = np.zeros((n_global, n_global))
        for ids, block in blocks:
            # numpy's fast path takes flat indices into a 1-D view
            np.add.at(out.reshape(-1), (ids[:, None] * n_global + ids).ravel(), np.ravel(block))
        return out
    import scipy.sparse  # only the sparse reference pays for this import

    rows, cols, values = (
        np.concatenate(part) for part in zip(*((ids[r], ids[c], v) for ids, (r, c, v) in blocks))
    )
    return scipy.sparse.coo_array((values, (rows, cols)), shape=(n_global, n_global)).tocsr()


def _global_trajectory(asys: AssembledSystem, traj_global: np.ndarray, dt: float) -> Trajectory:
    """Per-substructure views of a global trajectory (shared DOFs repeat)."""
    n = asys.n_dofs
    n_steps = traj_global.shape[0] - 1
    return Trajectory(
        times=np.arange(n_steps + 1) * dt,
        states={
            sid: np.concatenate([traj_global[:, ids], traj_global[:, n + ids]], axis=1)
            for sid, ids in asys.dof_map.items()
        },
        multipliers=np.zeros((n_steps + 1, 0)),
        dof_counts={sid: len(ids) for sid, ids in asys.dof_map.items()},
    )


def _global_forces(asys: AssembledSystem, inputs: Mapping | None, config: SolverConfig) -> np.ndarray:
    """Global force table, one row per coupled instant.

    A table sampled at the inner instants of ``config.subcycles`` is
    decimated onto the coupled ones.
    """
    n_steps = config.n_steps
    f = np.zeros((n_steps + 1, asys.n_dofs))
    if inputs:
        for sid, table in inputs.items():
            if sid not in asys.dof_map:
                raise ModelError(f"input table for {sid!r} names no substructure")
            if table is None:
                continue
            ids = asys.dof_map[sid]
            table = _input_table(sid, table, len(ids), n_steps, config.subcycles, False, ModelError)
            np.add.at(f, (slice(None), ids), table)
    return f


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
    forces = _global_forces(asys, inputs, config)
    form = asys.first_order()
    n = form.n_dofs
    d = effective_matrix(form, dt, gamma)

    y = np.zeros(2 * n) if initial is None else np.asarray(initial, dtype=float).copy()
    if y.shape != (2 * n,):
        raise SolverError(f"initial state must have length {2 * n}, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise SolverError("initial state holds a non-finite value")
    ydot = _initial_rate(form, y, forces[0], "the assembled system")

    traj = np.empty((n_steps + 1, 2 * n))
    traj[0] = y
    for step in range(1, n_steps + 1):
        y, ydot = free_step(form, d, y, ydot, forces[step], dt, gamma)
        traj[step] = y
        _check_divergence(step, "global", y, config.divergence_limit)

    return _global_trajectory(asys, traj, dt)


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
    forces = _global_forces(asys, inputs, config)
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
    acc = _initial_rate(form, np.zeros(2 * n), forces[0], "the assembled system")[n:]
    traj = np.empty((n_steps + 1, 2 * n))
    traj[0] = np.concatenate([u, v])
    for step in range(1, n_steps + 1):
        f_eff = forces[step] + m @ (a0 * u + a2 * v + a3 * acc) + c @ (a1 * u + a4 * v + a5 * acc)
        u_new = solve(f_eff)
        acc_new = a0 * (u_new - u) - a2 * v - a3 * acc
        v = v + a6 * acc + a7 * acc_new
        u, acc = u_new, acc_new
        traj[step] = np.concatenate([u, v])
        _check_divergence(step, "global", traj[step], config.divergence_limit)

    return _global_trajectory(asys, traj, dt)


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
