"""Desk-scale model builders: mass-spring chains and the frame analog.

The frame analog stands in for a vehicle-frame FE model at desk scale: a
grounded chain of light masses with periodic heavy masses (the heavy/light
pattern opens a spectral gap, so a handful of fixed-interface modes covers
the low-frequency band well) plus four designated attachment DOFs carrying
nonlinear suspension elements.

Models of ``_SPARSE_MIN_DOFS`` DOFs or more are built as CSR arrays
straight from their entries, smaller ones as dense arrays, both by the
package's one scatter of entries (:func:`~dynsub.models.matrix_from_entries`);
the two hold the same entries, bit for bit.  Each parameter meets the check
that owns its rule (:mod:`dynsub.models`' number, range and bool checks, and
:class:`~dynsub.models.LinearSubstructure` for DOF lists), which names it.

Which channel drives which DOF belongs to the test set-up, not to the
model: the elements hold no channel, and :func:`wheel_inputs` gives the
frame analog's input map, channel i onto wheel i.
"""

from __future__ import annotations

import functools

import numpy as np

from .coupling import CouplingTopology
from .models import (
    LinearSubstructure, ModelError, NonlinearSubstructure, SuspensionElement, build_from_fields, matrix_from_entries,
    rayleigh_damping, require_bools, require_numbers,
)

# identified suspension coefficients used throughout the desk experiments
SUSPENSION_DEFAULTS = dict(mass=0.160, k1=35.0, c1=0.65, c2=10.0, c3=0.55)


def _springs(n: int, value: float, grounded: bool):
    """Springs (or dampers) of ``value`` between the neighbours of ``n`` masses; with ``grounded``, mass 0 to ground.

    Spring j adds ``value`` at (j, j) and (j + 1, j + 1) and ``-value`` at (j, j + 1) and (j + 1, j), summed
    as a spring-by-spring loop sums them, so the entries match it bit for bit.
    """
    i = np.arange(n)
    diagonal = np.zeros(n)
    diagonal[:-1] += value
    diagonal[1:] += value
    if grounded:
        diagonal[0] += value
    return matrix_from_entries(n, np.concatenate([i, i[:-1], i[1:]]), np.concatenate([i, i[1:], i[:-1]]),
                               np.concatenate([diagonal, np.full(2 * (n - 1), 0.0 - value)]))


def chain_matrices(n: int, m: float, k: float, c: float = 0.0, grounded: bool = True) -> tuple:
    """Mass, damping, stiffness of a uniform chain of ``n`` masses.

    Springs of stiffness ``k`` (and dampers ``c``) connect neighbours; with
    ``grounded`` the first mass is additionally tied to ground, giving the
    tridiagonal [2, -1] stiffness pattern with a free far end.  The
    matrices are dense arrays below ``_SPARSE_MIN_DOFS`` masses and CSR
    arrays from there on.
    """
    require_numbers(ModelError, True, "positive", n=n)
    require_numbers(ModelError, False, "positive", m=m)
    require_numbers(ModelError, False, "non-negative", k=k, c=c)
    require_bools(ModelError, grounded=grounded)
    i = np.arange(n)
    return matrix_from_entries(n, i, i, np.full(n, m, dtype=float)), _springs(n, c, grounded), _springs(n, k, grounded)


def chain_substructure(
    n: int,
    m: float = 1.0,
    k: float = 1.0,
    c: float = 0.0,
    grounded: bool = True,
    boundary_dofs: tuple = (),
) -> LinearSubstructure:
    """Uniform chain as a linear substructure with chosen boundary DOFs."""
    mass, damping, stiffness = chain_matrices(n, m, k, c, grounded)
    return LinearSubstructure(mass=mass, damping=damping, stiffness=stiffness, boundary_dofs=boundary_dofs)


def frame_substructure(
    n: int = 200,
    k: float = 1e4,
    m_light: float = 0.05,
    m_heavy: float = 2.0,
    heavy_every: int = 8,
    rayleigh_alpha: float = 0.5,
    rayleigh_beta: float = 1e-5,
    boundary_dofs: tuple | None = None,
) -> LinearSubstructure:
    """Grounded chain, every ``heavy_every``-th mass from DOF 0 heavy (0: none), four attachment DOFs by default."""
    require_numbers(ModelError, True, n=n)
    require_numbers(ModelError, True, "non-negative", heavy_every=heavy_every)
    require_numbers(ModelError, False, "positive", m_light=m_light, m_heavy=m_heavy)
    require_numbers(ModelError, False, "non-negative", k=k, rayleigh_alpha=rayleigh_alpha, rayleigh_beta=rayleigh_beta)
    if n < 8:
        raise ModelError(f"frame analog needs at least 8 DOFs, got {n}")
    stiffness = _springs(n, k, grounded=True)
    masses = np.full(n, m_light, dtype=float)
    if heavy_every > 0:
        masses[::heavy_every] = m_heavy
    i = np.arange(n)
    mass = matrix_from_entries(n, i, i, masses)
    damping = rayleigh_damping(mass, stiffness, rayleigh_alpha, rayleigh_beta)
    if boundary_dofs is None:
        quarter = n // 4
        boundary_dofs = (quarter - 1, 2 * quarter - 1, 3 * quarter - 1, n - 1)
    return LinearSubstructure(mass=mass, damping=damping, stiffness=stiffness, boundary_dofs=boundary_dofs)


def suspension_substructure(
    n_elements: int = 4,
    boundary_mass: float = NonlinearSubstructure.boundary_mass,
    relative_motion: bool = NonlinearSubstructure.relative_motion,
    coefficients: dict | None = None,
) -> NonlinearSubstructure:
    """Suspension bank of ``n_elements`` equal elements.

    ``coefficients`` (:class:`SuspensionElement` fields) override ``SUSPENSION_DEFAULTS``.
    """
    require_numbers(ModelError, True, n_elements=n_elements)
    element = build_from_fields(functools.partial(SuspensionElement, **SUSPENSION_DEFAULTS),
                                {} if coefficients is None else coefficients, "suspension coefficients")
    return NonlinearSubstructure(
        elements=(element,) * n_elements,
        boundary_mass=boundary_mass,
        relative_motion=relative_motion,
    )


def frame_analog(
    n: int = 200,
    k: float = 1e4,
    m_light: float = 0.05,
    m_heavy: float = 2.0,
    heavy_every: int = 8,
    rayleigh_alpha: float = 0.5,
    rayleigh_beta: float = 1e-5,
    boundary_dofs: tuple | None = None,
    boundary_mass: float = NonlinearSubstructure.boundary_mass,
    suspension_coefficients: dict | None = None,
) -> tuple[dict, CouplingTopology]:
    """Frame plus one suspension per frame boundary DOF plus the topology pairing their interfaces.

    Returns ({"frame": ..., "suspension": ...}, topology) with one interface
    constraint per attachment: frame boundary DOF (+) against the matching
    suspension attachment DOF (-).
    """
    frame = frame_substructure(
        n=n, k=k, m_light=m_light, m_heavy=m_heavy, heavy_every=heavy_every,
        rayleigh_alpha=rayleigh_alpha, rayleigh_beta=rayleigh_beta,
        boundary_dofs=boundary_dofs,
    )
    if not frame.boundary_dofs:
        raise ModelError(f"field 'boundary_dofs' must hold at least one DOF, one per suspension, got {boundary_dofs!r}")
    susp = suspension_substructure(
        n_elements=len(frame.boundary_dofs),
        boundary_mass=boundary_mass,
        coefficients=suspension_coefficients,
    )
    constraints = tuple(
        (("frame", fdof, +1), ("suspension", sdof, -1)) for fdof, sdof in zip(frame.boundary_dofs, susp.boundary_dofs)
    )
    topology = CouplingTopology(constraints=constraints)
    return {"frame": frame, "suspension": susp}, topology


def wheel_inputs(susp: NonlinearSubstructure) -> dict:
    """Input map of :func:`frame_analog`'s bank: channel i drives wheel i, the bank's internal DOF i.

    The one owner of that rule: ``dynsub generate-model`` and
    :func:`~dynsub.experiment.run_experiment` give it to the system they
    build as its ``input_map``, which the system file holds as ``inputs``
    and which routes the experiment's channels.
    """
    return {"suspension": {dof: channel for channel, dof in enumerate(susp.internal_dofs)}}
