"""Shared fixtures: desk-scale models and excitation builders."""

import json

import numpy as np
import pytest
from hypothesis import settings


from dynsub import CoupledSystem, LinearSubstructure, SolverConfig, assemble_first_order, assemble_global
from dynsub.generators import chain_substructure, frame_analog, suspension_substructure
from dynsub.models import stack_forms

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


def two_bank_forms():
    """First-order forms of two suspension banks with different coefficients and motion."""
    return (
        assemble_first_order(suspension_substructure(n_elements=3)),
        assemble_first_order(suspension_substructure(
            n_elements=2, relative_motion=False, boundary_mass=0.05,
            coefficients=dict(mass=0.3, k1=80.0, c1=0.2, c2=25.0, c3=0.12),
        )),
    )


def first_order_forms():
    """One first-order form per kind of force law, keyed by FORCE_LAW_KINDS."""
    subs, topo = frame_analog(n=40, boundary_dofs=(9, 19, 29, 39))
    damped = LinearSubstructure(
        mass=np.diag([1.0, 2.0, 0.5]),
        damping=[[0.3, -0.1, 0.0], [-0.1, 0.2, 0.0], [0.0, 0.0, 0.1]],
        stiffness=[[4.0, -2.0, 0.0], [-2.0, 3.0, -1.0], [0.0, -1.0, 1.0]],
        internal_dofs=(0, 1), boundary_dofs=(2,),
    )
    forms = {
        "linear": assemble_first_order(damped),
        "suspension_relative": assemble_first_order(suspension_substructure(n_elements=3)),
        "suspension_absolute": assemble_first_order(
            suspension_substructure(n_elements=3, relative_motion=False)
        ),
        "assembled": assemble_global(subs, topo).first_order(),
    }
    forms["stacked"] = stack_forms([forms["linear"], forms["suspension_relative"]])
    forms["two_banks"] = stack_forms(two_bank_forms())
    return forms
