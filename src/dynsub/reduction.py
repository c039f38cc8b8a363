"""Craig-Bampton reduction of linear substructures.

The reduction basis combines the lowest fixed-interface normal modes of the
internal DOF block (boundary clamped) with one static constraint mode per
boundary DOF.  Boundary DOFs stay physical, which keeps coupling to other
substructures trivial after reduction.

Two paths compute the basis, chosen by the size of the internal block:

- below ``_SPARSE_REDUCTION_MIN_DOFS`` internal DOFs, dense arrays and
  LAPACK ``eigh`` for the modes;
- from that size on, CSR blocks built from the substructure's cached
  nonzero entries and shift-invert Lanczos about 0 (ARPACK ``eigsh``,
  Ericsson & Ruhe 1980) for the modes.  A request ARPACK cannot serve
  (``k >= n_i - 1``) falls back to ``eigh``.

Either way :func:`~dynsub.coupling._factorize` factorizes ``K_ii`` once, by
LU or SuperLU; that gives the constraint modes and the Lanczos ``OPinv``.

The gate is the measured crossover.  On a 2-vCPU host with serial BLAS, a
warm 30-mode reduction of the frame analog took, dense against sparse (the
fastest of 15 runs): 5.1/13.6 ms at 196 internal DOFs, 8.8/19.8 at 256,
10.8/9.3 at 296, 12.5/14.3 at 336, 15.4/11.7 at 376, 18.4/12.0 at 416,
25.0/12.3 at 456, 26.9/14.9 at 496 and 196/34 at 996.  The sparse path
won every run from 376 on.  A process pays about 25 ms more the first time
it imports ``scipy.sparse.linalg``; ``run_experiment`` pays it anyway for
its sparse reference.

Both paths return one canonical basis (see :func:`_canonical_modes`), so
their modes agree to about 1e-11 and their reduced matrices to about 1e-12
of their scale, even where the spectrum has repeated frequencies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .coupling import CouplingTopology, _factorize
from .models import LinearSubstructure, ModelError


# Smallest internal block reduced by shift-invert Lanczos and SuperLU instead
# of dense LAPACK: the measured crossover, see the module docstring.
_SPARSE_REDUCTION_MIN_DOFS = 400
# Fixed-interface frequencies equal to this relative tolerance form one cluster.
_CLUSTER_RTOL = 1e-8


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

    @property
    def cut_splits_cluster(self) -> bool:
        """Whether the first discarded frequency equals the last retained one to ``_CLUSTER_RTOL``.

        The cut then keeps part of an eigenspace: the members of its
        canonical basis whose mass sits nearest internal DOF 0.
        """
        if self.truncation_frequency is None or self.n_modes == 0:
            return False
        gap = self.truncation_frequency - self.retained_frequencies[-1]
        return bool(gap <= _CLUSTER_RTOL * self.truncation_frequency)

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


class _InternalProblem:
    """``M``, ``C`` and ``K`` of a substructure reordered internal-first.

    An internal block of at least ``_SPARSE_REDUCTION_MIN_DOFS`` DOFs is held
    as CSR arrays built from the substructure's cached nonzero entries, a
    smaller block as dense arrays.  Either way ``K_ii`` is factorized at
    most once (:attr:`stiffness_solve`).
    """

    def __init__(self, sub: LinearSubstructure):
        self.n_internal = len(sub.internal_dofs)
        self.sparse = self.n_internal >= _SPARSE_REDUCTION_MIN_DOFS
        order = np.array(sub.internal_dofs + sub.boundary_dofs, dtype=int)
        if self.sparse:
            import scipy.sparse  # only a large internal block pays for this import

            position = np.empty_like(order)
            position[order] = np.arange(len(order))
            self.mass, self.damping, self.stiffness = (
                scipy.sparse.csr_array((values, (position[rows], position[cols])), shape=(len(order),) * 2)
                for rows, cols, values in (sub.nonzeros[name] for name in ("mass", "damping", "stiffness"))
            )
        else:
            self.mass, self.damping, self.stiffness = (
                x[np.ix_(order, order)] for x in (sub.mass, sub.damping, sub.stiffness)
            )

    def internal(self, x):
        """The internal block of one of the reordered matrices, in its own storage."""
        n_i = self.n_internal
        return x[:n_i, :n_i]

    def dense(self, x) -> np.ndarray:
        return x.toarray() if self.sparse else x

    def singular_stiffness(self) -> ReductionError:
        """The error for a singular ``K_ii``; only a dense block is given a rank (an SVD)."""
        n_i = self.n_internal
        if self.sparse:
            rank = f"rank deficient, {n_i} x {n_i}"
        else:
            rank = f"rank {np.linalg.matrix_rank(self.internal(self.stiffness))} of {n_i}"
        return ReductionError(
            f"internal stiffness block is singular ({rank}); constrain the structure or move boundary DOFs"
        )

    @functools.cached_property
    def stiffness_solve(self):
        """``K_ii^{-1}``, factorized once: the constraint-mode solve and the ``OPinv`` of Lanczos."""
        return _factorize(self.internal(self.stiffness), self.singular_stiffness)

    def check_mass(self) -> None:
        """Reject a sparse ``M_ii`` that is not positive definite.

        A symmetric matrix is positive definite exactly when its LU
        factorization without pivoting exists with positive pivots.
        """
        from scipy.sparse.linalg import splu

        try:
            lu = splu(self.internal(self.mass).tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0)
        except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
            raise ReductionError(f"internal mass matrix is not positive definite: {exc}") from None
        if not (np.array_equal(lu.perm_r, np.arange(self.n_internal)) and np.all(lu.U.diagonal() > 0)):
            raise ReductionError(
                "internal mass matrix is not positive definite: "
                "its LU factorization without pivoting has a pivot that is not positive"
            )

    def lowest_modes(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``count`` lowest eigenpairs ``(phi, w**2)`` of ``K_ii phi = w**2 M_ii phi``, ascending.

        A sparse problem uses shift-invert Lanczos about 0 (ARPACK) with the
        factorization of ``K_ii`` as ``OPinv``, unless ARPACK cannot serve
        the request (``count >= n_i - 1``).
        """
        n_i = self.n_internal
        if self.sparse and count < n_i - 1:
            from scipy.sparse.linalg import LinearOperator, eigsh

            self.check_mass()
            lam, phi = eigsh(
                self.internal(self.stiffness), count, self.internal(self.mass), sigma=0.0,
                OPinv=LinearOperator((n_i, n_i), matvec=self.stiffness_solve, dtype=float),
                # fixed, so runs repeat bit for bit; not constant, which
                # would miss the antisymmetric modes of a symmetric segment
                v0=np.random.default_rng(0).standard_normal(n_i),
            )
            order = np.argsort(lam, kind="stable")
            return phi[:, order], lam[order]
        try:
            lam, phi = scipy.linalg.eigh(
                self.dense(self.internal(self.stiffness)), self.dense(self.internal(self.mass)),
                subset_by_index=[0, count - 1],
            )
        except scipy.linalg.LinAlgError as exc:
            raise ReductionError(f"internal mass matrix is not positive definite: {exc}") from exc
        return phi, lam


def _cluster_starts(freqs: np.ndarray) -> np.ndarray:
    """True where a frequency is not equal to the one before it to ``_CLUSTER_RTOL`` relative."""
    starts = np.ones(len(freqs), dtype=bool)
    starts[1:] = np.diff(freqs) > _CLUSTER_RTOL * freqs[1:]
    return starts


def _canonical_modes(phi: np.ndarray, freqs: np.ndarray, mass) -> np.ndarray:
    """One basis per fixed-interface eigenspace, whichever solver found it.

    Modes are mass-normalized.  Inside each cluster of frequencies (see
    :func:`_cluster_starts`) the modes are rotated to the eigenvectors of the
    M-weighted DOF-position operator ``V.T M_ii diag(0, ..., n_i - 1) V``,
    in ascending order, which a rotation of ``V`` inside the cluster does
    not change.  Each mode's sign makes its dot product with the ramp
    ``1, ..., n_i`` positive.
    """
    weighted = mass @ phi
    norms = np.sqrt(np.einsum("ij,ij->j", phi, weighted))
    phi, weighted = phi / norms, weighted / norms
    bounds = np.append(np.flatnonzero(_cluster_starts(freqs)), len(freqs))
    positions = np.arange(phi.shape[0], dtype=float)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop - start > 1:
            v, mv = phi[:, start:stop], weighted[:, start:stop]
            moment = (positions[:, None] * v).T @ mv
            _, rotation = scipy.linalg.eigh((moment + moment.T) / 2, v.T @ mv)
            phi[:, start:stop] = v @ rotation
    ramp = np.arange(1.0, phi.shape[0] + 1)
    return phi * np.where(ramp @ phi < 0, -1.0, 1.0)


def fixed_interface_modes(
    sub: LinearSubstructure, n_modes: int, *, problem: _InternalProblem | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest normal modes of the internal block with the boundary clamped.

    Solves the generalized symmetric eigenproblem K_ii @ phi = w^2 M_ii @ phi
    and returns (modes, frequencies) with the modes mass-normalized
    (phi.T @ M_ii @ phi = I) and frequencies in rad/s, ascending.  An
    internal block of at least ``_SPARSE_REDUCTION_MIN_DOFS`` DOFs is solved
    by shift-invert Lanczos on one SuperLU factorization of ``K_ii``, a
    smaller one by dense LAPACK; their frequencies agree to about 1e-12
    relative and their modes to about 1e-11.

    The modes are canonical (see :func:`_canonical_modes`), so both solvers
    return one basis.  When the cut falls inside a cluster of equal
    frequencies, more modes are computed until the cluster is complete, and
    the members kept are the first of its canonical basis: those whose mass
    sits nearest internal DOF 0.  :func:`reduce` passes its own ``problem``
    so that ``K_ii`` is factorized once.
    """
    if problem is None:
        problem = _InternalProblem(sub)
    n_i = problem.n_internal
    if not 0 <= n_modes <= n_i:
        raise ReductionError(f"requested {n_modes} modes but only {n_i} internal DOFs")
    if n_modes == 0:
        return np.zeros((n_i, 0)), np.zeros(0)
    # two past the cut, so that a pair of equal frequencies there is complete
    count = min(n_modes + 2, n_i)
    while True:
        phi, lam = problem.lowest_modes(count)
        freqs = np.sqrt(np.clip(lam, 0.0, None))
        last_start = np.flatnonzero(_cluster_starts(freqs))[-1]
        if count == n_i or last_start >= n_modes:
            break
        # the cluster at the cut may go on: ask for twice its size so far
        count = min(2 * count - last_start, n_i)
    phi = _canonical_modes(phi, freqs, problem.internal(problem.mass))
    return phi[:, :n_modes], freqs[:n_modes]


def constraint_modes(sub: LinearSubstructure, *, problem: _InternalProblem | None = None) -> np.ndarray:
    """Static deflection of the internal DOFs per unit boundary displacement.

    One column per boundary DOF: psi = -K_ii^{-1} @ K_ib, with the one
    factorization of ``K_ii`` that ``problem`` keeps (LAPACK LU for a dense
    block, SuperLU for one of at least ``_SPARSE_REDUCTION_MIN_DOFS`` DOFs).
    """
    if problem is None:
        problem = _InternalProblem(sub)
    n_i = problem.n_internal
    return problem.stiffness_solve(-problem.dense(problem.stiffness[:n_i, n_i:]))


def reduce(sub: LinearSubstructure, n_modes: int) -> CraigBamptonReduction:
    """Craig-Bampton reduction keeping ``n_modes`` fixed-interface modes.

    Matrices are projected in internal-first ordering, from CSR arrays for
    an internal block of at least ``_SPARSE_REDUCTION_MIN_DOFS`` DOFs (whose
    ``K_ii`` is factorized once for the modes and the constraint modes) and
    from dense arrays below.  The frequency of the first discarded mode is
    reported so callers can check that the retained band covers their
    region of interest.
    """
    problem = _InternalProblem(sub)
    n_i, n_b = problem.n_internal, len(sub.boundary_dofs)
    if not 0 <= n_modes <= n_i:
        raise ReductionError(f"requested {n_modes} modes but only {n_i} internal DOFs")
    probe = min(n_modes + 1, n_i)
    phi_all, freqs_all = fixed_interface_modes(sub, probe, problem=problem)
    phi_r, freqs = phi_all[:, :n_modes], freqs_all[:n_modes]
    truncation = float(freqs_all[n_modes]) if probe > n_modes else None
    psi = constraint_modes(sub, problem=problem)

    transform = np.zeros((n_i + n_b, n_modes + n_b))
    transform[:n_i, :n_modes] = phi_r
    transform[:n_i, n_modes:] = psi
    transform[n_i:, n_modes:] = np.eye(n_b)

    def project(x) -> np.ndarray:
        return transform.T @ (x @ transform)

    return CraigBamptonReduction(
        retained_modes=phi_r,
        constraint_modes=psi,
        transform=transform,
        reduced_mass=project(problem.mass),
        reduced_stiffness=project(problem.stiffness),
        reduced_damping=project(problem.damping),
        retained_frequencies=freqs,
        internal_dofs=sub.internal_dofs,
        boundary_dofs=sub.boundary_dofs,
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
