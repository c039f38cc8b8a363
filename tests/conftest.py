"""Shared fixtures: desk-scale models and excitation builders."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings


from dynsub import (
    CoupledSystem, CouplingTopology, LinearSubstructure, SolverConfig, assemble_first_order, assemble_global,
)
from dynsub.coupling import locator_matrix, steklov_poincare
from dynsub.solver import coupling_step, effective_matrix, free_step
from dynsub.generators import chain_substructure, frame_analog, suspension_substructure

# property tests draw the same examples on every run, so the suite stays
# deterministic; no example database is written
settings.register_profile("dynsub", derandomize=True, database=None, deadline=None, print_blob=False)
settings.load_profile("dynsub")


@pytest.fixture(scope="session")
def desk():
    """Default 200-DOF frame analog coupled to 4 suspensions."""
    subs, topology = frame_analog()
    return CoupledSystem(substructures=subs, topology=topology, physical=("suspension",))


@pytest.fixture(scope="session")
def desk_frame(desk):
    return desk.substructures["frame"]


@pytest.fixture(scope="session")
def desk_suspension(desk):
    return desk.substructures["suspension"]


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's dynsub."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def scipy_sparse_check(statement: str) -> str:
    """Code that runs ``statement`` and exits nonzero, naming them, if it loaded scipy.sparse modules."""
    return (f"import sys; {statement}; "
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy.sparse')); "
            "sys.exit(f'imported {loaded}' if loaded else 0)")


def set_json_entry(path, keys, value):
    """Set the entry at ``keys`` (a sequence of keys and indices) of a JSON file to ``value``."""
    doc = json.loads(path.read_text())
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path.write_text(json.dumps(doc))


def multisine_table(times, n_channels, freqs=(5.0, 12.0, 23.0, 41.0, 77.0),
                    amps=(2.0, 2.0, 2.0, 1.0, 1.0), seed0=0):
    """Deterministic multisine per channel (distinct phases per channel)."""
    out = np.zeros((len(times), n_channels))
    for ch in range(n_channels):
        rng = np.random.default_rng(seed0 + ch)
        phases = rng.uniform(0, 2 * np.pi, len(freqs))
        for f, a, p in zip(freqs, amps, phases):
            out[:, ch] += a * np.sin(2 * np.pi * f * times + p)
    return out


def wheel_forces(system, sub_id, times):
    """Force table driving the wheel (internal) DOFs of a suspension bank."""
    susp = system.substructures[sub_id]
    internal = list(susp.internal_dofs)
    table = np.zeros((len(times), susp.n_dofs))
    table[:, internal] = multisine_table(times, len(internal))
    return table


def linear_suspension_analog(n_elements=4, wheel_mass=0.16, attach_mass=0.016,
                             k1=35.0, c_visc=0.65 + 10.0 / 0.55):
    """All-linear stand-in for the suspension bank (viscous damper only)."""
    n = 2 * n_elements
    mass = np.diag([wheel_mass] * n_elements + [attach_mass] * n_elements)
    stiffness = np.zeros((n, n))
    damping = np.zeros((n, n))
    for e in range(n_elements):
        w, a = e, n_elements + e
        for mat, val in ((stiffness, k1), (damping, c_visc)):
            mat[w, w] += val
            mat[a, a] += val
            mat[w, a] -= val
            mat[a, w] -= val
    return LinearSubstructure(
        mass=mass, damping=damping, stiffness=stiffness,
        internal_dofs=tuple(range(n_elements)),
        boundary_dofs=tuple(range(n_elements, n)),
    )


FORCE_LAW_KINDS = ("linear", "suspension_relative", "suspension_absolute", "assembled", "stacked", "two_banks")


def two_banks():
    """Two suspension banks with different coefficients and motion."""
    return {
        "bank_a": suspension_substructure(n_elements=3),
        "bank_b": suspension_substructure(
            n_elements=2, relative_motion=False, boundary_mass=0.05,
            coefficients=dict(mass=0.3, k1=80.0, c1=0.2, c2=25.0, c3=0.12),
        ),
    }


def two_bank_forms():
    """First-order forms of the two banks of :func:`two_banks`."""
    return tuple(assemble_first_order(bank) for bank in two_banks().values())


def first_order_forms():
    """One first-order form per kind of force law, keyed by FORCE_LAW_KINDS."""
    subs, topo = frame_analog(n=40, boundary_dofs=(9, 19, 29, 39))
    damped = LinearSubstructure(
        mass=np.diag([1.0, 2.0, 0.5]),
        damping=[[0.3, -0.1, 0.0], [-0.1, 0.2, 0.0], [0.0, 0.0, 0.1]],
        stiffness=[[4.0, -2.0, 0.0], [-2.0, 3.0, -1.0], [0.0, -1.0, 1.0]],
        internal_dofs=(0, 1), boundary_dofs=(2,),
    )
    return {
        "linear": assemble_first_order(damped),
        "suspension_relative": assemble_first_order(suspension_substructure(n_elements=3)),
        "suspension_absolute": assemble_first_order(
            suspension_substructure(n_elements=3, relative_motion=False)
        ),
        "assembled": assemble_global(subs, topo).first_order(),
        # uncoupled substructures assembled side by side, as a step group is
        "stacked": assemble_global(
            {"linear": damped, "suspension": suspension_substructure(n_elements=3)}, CouplingTopology(())
        ).first_order(),
        "two_banks": assemble_global(two_banks(), CouplingTopology(())).first_order(),
    }


def hand_stepped(system, cfg, inputs):
    """Reference co-simulation from a free step per substructure and inner step.

    Physical substructures take ``ss`` inner steps at dt/ss, inner step j
    adding the previous multipliers with weight 1 - j/ss; the others take
    one step at dt.  One coupling step follows each coupled step.  Returns
    the states, the fine states of the sub-cycled substructures and the
    multipliers, one row per instant, from a zero start.
    """
    topo, ss = system.topology, cfg.subcycles
    forms = {sid: assemble_first_order(sub) for sid, sub in system.substructures.items()}
    inner = {sid: ss if sid in system.physical_ids() else 1 for sid in forms}
    eff = {sid: effective_matrix(form, cfg.dt / inner[sid]) for sid, form in forms.items()}
    locators = {sid: locator_matrix(topo, sid, form.n_dofs) for sid, form in forms.items()}
    solved = {sid: eff[sid].solve(l_v) for sid, l_v in locators.items()}
    interface = steklov_poincare([(locators[sid], b) for sid, b in solved.items()])
    link_rate = {sid: np.concatenate([cfg.dt / inner[sid] / 2 * b, b]) for sid, b in solved.items()}
    link_state = {sid: cfg.dt / 2 * rate for sid, rate in link_rate.items()}
    forces = {sid: inputs.get(sid, np.zeros((cfg.n_steps * inner[sid] + 1, form.n_dofs)))
              for sid, form in forms.items()}
    y = {sid: np.zeros(form.state_size) for sid, form in forms.items()}
    ydot = {}
    for sid, form in forms.items():
        accel = np.linalg.solve(form.mass, forces[sid][0])
        ydot[sid] = np.concatenate([np.zeros(form.n_dofs), accel])
    states = {sid: [y[sid]] for sid in forms}
    fine_states = {sid: [y[sid]] for sid in forms if inner[sid] > 1}
    multipliers = [np.zeros(topo.n_constraints)]
    lam = multipliers[0]
    for step in range(1, cfg.n_steps + 1):
        free = {}
        for sid, form in forms.items():
            n_in, yy, yd = inner[sid], y[sid], ydot[sid]
            for j in range(1, n_in + 1):
                force = forces[sid][(step - 1) * n_in + j] + (1 - j / n_in) * (locators[sid] @ lam)
                yy, yd = free_step(form, eff[sid], yy, yd, force, cfg.dt / n_in)
                if n_in > 1:
                    fine_states[sid].append(yy)
            free[sid] = yy, yd
        lam, links = coupling_step(
            interface, {sid: free[sid][0][form.n_dofs:] for sid, form in forms.items()},
            {sid: l_v.T for sid, l_v in locators.items()}, link_state, cfg.dt,
        )
        multipliers.append(lam)
        for sid in forms:
            y[sid] = free[sid][0] + links[sid]
            ydot[sid] = free[sid][1] + link_rate[sid] @ lam
            states[sid].append(y[sid])
            if sid in fine_states:  # the coupled state closes the inner window
                fine_states[sid][-1] = y[sid]
    return (
        {sid: np.array(rows) for sid, rows in states.items()},
        {sid: np.array(rows) for sid, rows in fine_states.items()},
        np.array(multipliers),
    )
