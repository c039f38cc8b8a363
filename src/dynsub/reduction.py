"""Craig-Bampton reduction of linear substructures.

The reduction basis combines the lowest fixed-interface normal modes of the
internal DOF block (boundary clamped) with one static constraint mode per
boundary DOF.  Boundary DOFs stay physical, which keeps coupling to other
substructures trivial after reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .models import LinearSubstructure, ModelError


class ReductionError(ModelError):
    """Raised when the reduction eigenproblem or static solve is ill-posed."""


@dataclass(frozen=True)
class CraigBamptonReduction:
    """Result of reducing a linear substructure.

    The transform maps reduced coordinates ``[q; x_b]`` (modal amplitudes and
    physical boundary displacements) to physical displacements ordered
    internal-first: its lower-left block is zero and lower-right block is the
    identity.  Reduced matrices are the congruence projections
    ``X_hat = T.T @ X @ T`` on that ordering.
    """

    retained_modes: np.ndarray
    constraint_modes: np.ndarray
    transform: np.ndarray
    reduced_mass: np.ndarray
    reduced_stiffness: np.ndarray
    reduced_damping: np.ndarray
    retained_frequencies: np.ndarray
    internal_dofs: tuple
    boundary_dofs: tuple
    truncation_frequency: float | None

    @property
    def n_modes(self) -> int:
        return self.retained_modes.shape[1]

    @property
    def n_boundary(self) -> int:
        return len(self.boundary_dofs)

    @property
    def n_reduced(self) -> int:
        return self.n_modes + self.n_boundary

    def as_substructure(self) -> LinearSubstructure:
        """Reduced model as a coupled-simulation-ready linear substructure.

        Modal coordinates become the internal DOFs (0..r-1); the physical
        boundary DOFs sit last and carry over their coupling role.
        """
        r, nb = self.n_modes, self.n_boundary
        return LinearSubstructure(
            mass=self.reduced_mass,
            damping=self.reduced_damping,
            stiffness=self.reduced_stiffness,
            internal_dofs=tuple(range(r)),
            boundary_dofs=tuple(range(r, r + nb)),
        )

    def project_force(self, f: np.ndarray) -> np.ndarray:
        """Project a physical force vector onto the reduced coordinates."""
        f = np.asarray(f, dtype=float)
        gathered = np.concatenate([f[list(self.internal_dofs)], f[list(self.boundary_dofs)]])
        return self.transform.T @ gathered

    def reduced_boundary_index(self, dof: int) -> int:
        """Reduced-coordinate index of an original boundary DOF."""
        try:
            return self.n_modes + self.boundary_dofs.index(dof)
        except ValueError:
            raise ReductionError(f"DOF {dof} is not a boundary DOF of this reduction") from None


def _partition(sub: LinearSubstructure):
    i = np.asarray(sub.internal_dofs, dtype=int)
    b = np.asarray(sub.boundary_dofs, dtype=int)
    return i, b


def fixed_interface_modes(sub: LinearSubstructure, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest normal modes of the internal block with the boundary clamped.

    Solves the generalized symmetric eigenproblem K_ii @ phi = w^2 M_ii @ phi
    and returns (modes, frequencies) with the modes mass-normalized
    (phi.T @ M_ii @ phi = I) and frequencies in rad/s, ascending.
    """
    i, _ = _partition(sub)
    n_i = len(i)
    if not 0 <= n_modes <= n_i:
        raise ReductionError(f"requested {n_modes} modes but only {n_i} internal DOFs")
    k_ii = sub.stiffness[np.ix_(i, i)]
    m_ii = sub.mass[np.ix_(i, i)]
    if n_modes == 0:
        return np.zeros((n_i, 0)), np.zeros(0)
    try:
        lam, phi = scipy.linalg.eigh(k_ii, m_ii, subset_by_index=[0, n_modes - 1])
    except scipy.linalg.LinAlgError as exc:
        raise ReductionError(f"internal mass matrix is not positive definite: {exc}") from exc
    return phi, np.sqrt(np.clip(lam, 0.0, None))


def constraint_modes(sub: LinearSubstructure) -> np.ndarray:
    """Static deflection of the internal DOFs per unit boundary displacement.

    One column per boundary DOF: psi = -K_ii^{-1} @ K_ib.
    """
    i, b = _partition(sub)
    k_ii = sub.stiffness[np.ix_(i, i)]
    k_ib = sub.stiffness[np.ix_(i, b)]
    try:
        psi = scipy.linalg.solve(k_ii, -k_ib, assume_a="sym")
        if np.all(np.isfinite(psi)):
            return psi
    except (scipy.linalg.LinAlgError, ValueError):
        pass
    raise ReductionError(
        f"internal stiffness block is singular (rank {np.linalg.matrix_rank(k_ii)} "
        f"of {k_ii.shape[0]}); constrain the structure or move boundary DOFs"
    )


def reduce(sub: LinearSubstructure, n_modes: int) -> CraigBamptonReduction:
    """Craig-Bampton reduction keeping ``n_modes`` fixed-interface modes.

    Matrices are projected in internal-first ordering.  The frequency of the
    first discarded mode is reported so callers can check that the retained
    band covers their region of interest.
    """
    i, b = _partition(sub)
    n_i, n_b = len(i), len(b)
    if not 0 <= n_modes <= n_i:
        raise ReductionError(f"requested {n_modes} modes but only {n_i} internal DOFs")
    probe = min(n_modes + 1, n_i)
    phi_all, freqs_all = fixed_interface_modes(sub, probe)
    phi_r, freqs = phi_all[:, :n_modes], freqs_all[:n_modes]
    truncation = float(freqs_all[n_modes]) if probe > n_modes else None
    psi = constraint_modes(sub)

    transform = np.zeros((n_i + n_b, n_modes + n_b))
    transform[:n_i, :n_modes] = phi_r
    transform[:n_i, n_modes:] = psi
    transform[n_i:, n_modes:] = np.eye(n_b)

    order = np.concatenate([i, b])

    def project(x: np.ndarray) -> np.ndarray:
        return transform.T @ x[np.ix_(order, order)] @ transform

    return CraigBamptonReduction(
        retained_modes=phi_r,
        constraint_modes=psi,
        transform=transform,
        reduced_mass=project(sub.mass),
        reduced_stiffness=project(sub.stiffness),
        reduced_damping=project(sub.damping),
        retained_frequencies=freqs,
        internal_dofs=tuple(int(x) for x in i),
        boundary_dofs=tuple(int(x) for x in b),
        truncation_frequency=truncation,
    )


def expand(red: CraigBamptonReduction, reduced_state: np.ndarray) -> np.ndarray:
    """Reconstruct physical displacements from reduced coordinates ``[q; x_b]``.

    The result is indexed by the original substructure DOF numbering.
    """
    q = np.asarray(reduced_state, dtype=float)
    if q.shape != (red.n_reduced,):
        raise ReductionError(f"reduced state must have length {red.n_reduced}, got {q.shape}")
    ordered = red.transform @ q
    n_i = len(red.internal_dofs)
    out = np.empty(n_i + red.n_boundary)
    out[list(red.internal_dofs)] = ordered[:n_i]
    out[list(red.boundary_dofs)] = ordered[n_i:]
    return out


def reduced_topology(topology, sub_id, red: CraigBamptonReduction):
    """Rewrite interface constraints of ``sub_id`` in reduced coordinates.

    Boundary DOFs survive reduction as the trailing physical coordinates, so
    constraints keep their meaning with remapped indices.
    """
    from .coupling import CouplingTopology

    constraints = []
    for entry in topology.constraints:
        new_entry = []
        for sid, dof, sign in entry:
            if sid == sub_id:
                new_entry.append((sid, red.reduced_boundary_index(dof), sign))
            else:
                new_entry.append((sid, dof, sign))
        constraints.append(tuple(new_entry))
    return CouplingTopology(constraints=tuple(constraints))


def full_frequencies(sub: LinearSubstructure, n: int | None = None) -> np.ndarray:
    """Natural frequencies (rad/s) of the unreduced substructure, ascending."""
    lam = scipy.linalg.eigh(sub.stiffness, sub.mass, eigvals_only=True)
    freqs = np.sqrt(np.clip(lam, 0.0, None))
    return freqs if n is None else freqs[:n]


def reduced_frequencies(red: CraigBamptonReduction, n: int | None = None) -> np.ndarray:
    """Natural frequencies (rad/s) of the reduced model, ascending."""
    lam = scipy.linalg.eigh(red.reduced_stiffness, red.reduced_mass, eigvals_only=True)
    freqs = np.sqrt(np.clip(lam, 0.0, None))
    return freqs if n is None else freqs[:n]


def expanded_mode_shapes(red: CraigBamptonReduction, n: int) -> np.ndarray:
    """First ``n`` reduced mode shapes expanded to physical coordinates.

    Columns are mass-normalized with respect to the reduced mass matrix
    before expansion.
    """
    _, vecs = scipy.linalg.eigh(red.reduced_stiffness, red.reduced_mass)
    return np.column_stack([expand(red, vecs[:, j]) for j in range(n)])


def mode_shapes(sub: LinearSubstructure, n: int) -> np.ndarray:
    """First ``n`` mass-normalized mode shapes of the full substructure."""
    _, vecs = scipy.linalg.eigh(sub.stiffness, sub.mass)
    return vecs[:, :n]
