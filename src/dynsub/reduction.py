"""Craig-Bampton reduction of linear substructures.

The reduction basis combines the lowest fixed-interface normal modes of the
internal DOF block (boundary clamped) with one static constraint mode per
boundary DOF.  Boundary DOFs stay physical, which keeps coupling to other
substructures trivial after reduction.

Two paths compute the basis, chosen by the storage of the substructure and
the size of its internal block:

- for a dense substructure with fewer than ``_SPARSE_MIN_DOFS`` internal
  DOFs, dense arrays and LAPACK ``eigh`` for the modes;
- for a CSR substructure, or a dense one with at least that many internal
  DOFs, CSR blocks that the package's one scatter of entries
  (:func:`~dynsub.models._scatter_entries`) builds from the substructure's
  nonzero entries, and shift-invert Lanczos about 0 (ARPACK ``eigsh``,
  Ericsson & Ruhe 1980) for the modes.  A request ARPACK cannot serve
  (``k >= n_i - 1``) falls back to ``eigh``.

Either way ``K_ii`` and ``M_ii`` are factorized once each, symmetrically
(Cholesky or SuperLU ``L D L^T``), and each must be positive definite by
its pivots (Sylvester's law of inertia).  The one factorization of ``K_ii``
gives the constraint modes and the Lanczos ``OPinv``.

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
of their scale, even where the spectrum has repeated frequencies.  Both
write the modes and the constraint modes straight into the transform, the
one copy of the basis.

The same solver, with every DOF internal, gives the unreduced
substructure's frequencies and mode shapes (:func:`full_frequencies`,
:func:`mode_shapes`), so a CSR substructure is never copied dense, and,
run on :meth:`CraigBamptonReduction.as_substructure`, the reduced model's
(:func:`reduced_frequencies`, :func:`expanded_mode_shapes`): both sides of
a comparison get the same checks and one canonical basis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .coupling import _SYMMETRIC_ORDER, CouplingTopology, _pivot_floor
from .models import _SPARSE_MIN_DOFS, LinearSubstructure, ModelError, _scatter_entries, dense, require_numbers

# Fixed-interface frequencies equal to this relative tolerance form one cluster.
_CLUSTER_RTOL = 1e-8

# The negative shift of a problem with no boundary, relative to max|K| / max|M|.
_FREE_SHIFT = 1e-8


class ReductionError(ModelError):
    """Raised when the reduction eigenproblem or static solve is ill-posed."""


@dataclass(frozen=True)
class CraigBamptonReduction:
    """Result of reducing a linear substructure.

    The transform ``T = [[phi, psi], [0, I]]`` maps reduced coordinates
    ``[q; x_b]`` (modal amplitudes and physical boundary displacements) to
    physical displacements ordered internal-first.  It is the one copy of
    the basis: :attr:`retained_modes` (``phi``) and :attr:`constraint_modes`
    (``psi``) are views of its upper blocks.  Reduced matrices are the
    congruence projections ``X_hat = T.T @ X @ T`` on that ordering.
    """

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
        return len(self.retained_frequencies)

    @property
    def retained_modes(self) -> np.ndarray:
        """The mass-normalized fixed-interface modes ``phi``, a view of ``transform``."""
        return self.transform[:len(self.internal_dofs), :self.n_modes]

    @property
    def constraint_modes(self) -> np.ndarray:
        """The constraint modes ``psi = -K_ii^-1 K_ib``, a view of ``transform``."""
        return self.transform[:len(self.internal_dofs), self.n_modes:]

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
        return LinearSubstructure(
            mass=self.reduced_mass, damping=self.reduced_damping, stiffness=self.reduced_stiffness,
            boundary_dofs=tuple(range(self.n_modes, self.n_reduced)),
        )

    def project_force(self, f: np.ndarray) -> np.ndarray:
        """Project a physical force vector onto the reduced coordinates."""
        order = np.array(self.internal_dofs + self.boundary_dofs, dtype=int)
        return self.transform.T @ np.asarray(f, dtype=float)[order]

    def reduced_boundary_index(self, dof: int) -> int:
        """Reduced-coordinate index of an original boundary DOF."""
        try:
            return self.n_modes + self.boundary_dofs.index(dof)
        except ValueError:
            raise ReductionError(f"DOF {dof} is not a boundary DOF of this reduction") from None


class _InternalProblem:
    """``M``, ``C`` and ``K`` of a substructure reordered internal-first.

    The package's one scatter (:func:`~dynsub.models._scatter_entries`)
    builds them from the substructure's nonzero entries, renumbered
    internal-first: as CSR arrays for a CSR substructure or an internal
    block of at least ``_SPARSE_MIN_DOFS`` DOFs, else as dense arrays.  The
    two storages hold the same entries, byte for byte.  Either way ``K_ii``
    and ``M_ii`` are factorized at most once (:attr:`stiffness_solve`).
    """

    def __init__(self, sub: LinearSubstructure):
        self.internal_dofs = sub.internal_dofs
        self.n_internal = len(sub.internal_dofs)
        self.n_boundary = len(sub.boundary_dofs)
        self.sparse = sub.sparse or self.n_internal >= _SPARSE_MIN_DOFS
        order = np.array(sub.internal_dofs + sub.boundary_dofs, dtype=int)
        position = np.empty_like(order)
        position[order] = np.arange(len(order))
        self.mass, self.damping, self.stiffness = (
            _scatter_entries(len(order), position[rows], position[cols], values, self.sparse)
            for rows, cols, values in (sub.nonzeros[name] for name in ("mass", "damping", "stiffness"))
        )

    def internal(self, x):
        """The internal block of one of the reordered matrices, in its own storage."""
        return x[:self.n_internal, :self.n_internal]

    def check_mode_count(self, n_modes) -> None:
        """Refuse a mode count that is not an integer in ``[0, n_i]``."""
        require_numbers(ReductionError, True, n_modes=n_modes)
        if not 0 <= n_modes <= self.n_internal:
            raise ReductionError(f"requested {n_modes} modes but only {self.n_internal} internal DOFs")

    def factorize(self, name: str):
        """Factorize the internal block of ``name`` (``"stiffness"`` or ``"mass"``) and return its solve.

        A dense block gets LAPACK ``potrf``/``potrs``, a CSR block SuperLU
        with a symmetric order and diagonal pivots (``perm_r == perm_c``;
        SuperLU leaves the diagonal only where it is exactly zero), so U's
        diagonal holds the pivots of ``L D L^T``.  By Sylvester's law of
        inertia the block is positive definite exactly when every pivot is
        at least :func:`_pivot_floor` of its largest entry, which
        :func:`~dynsub.coupling._factorize` uses too; else this raises.  The
        stiffness block is factorized as ``K_ii + sigma M_ii`` (see
        :attr:`shift`).
        """
        block, n_i = self.internal(getattr(self, name)), self.n_internal
        if not n_i:
            return np.copy
        if name == "stiffness" and self.shift:
            block = block + self.shift * self.internal(self.mass)
        floor = _pivot_floor(abs(block).max())
        if self.sparse:
            from scipy.sparse.linalg import splu

            try:
                lu = splu(block.tocsc(), diag_pivot_thresh=0.0, **_SYMMETRIC_ORDER)
            except RuntimeError:  # SuperLU's "Factor is exactly singular": a zero pivot
                raise self.failed_pivot(name, None, 0.0, floor) from None
            pivots, order, solve = lu.U.diagonal(), lu.perm_c, lu.solve  # order[j]: the step that eliminates j
            pivots[lu.perm_c[lu.perm_r != lu.perm_c]] = 0.0  # a step that left the diagonal met a zero pivot
        else:
            potrf, potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (block,))
            factor, info = potrf(block)
            pivots, order = np.diag(factor)[:info or n_i] ** 2, np.arange(n_i)
            if info:  # potrf stops at the failed pivot and leaves it in place, not rooted
                pivots[-1] = factor[info - 1, info - 1]
            solve = lambda rhs: potrs(factor, rhs)[0]
        failed = np.flatnonzero(~(pivots >= floor))
        if failed.size:
            raise self.failed_pivot(name, np.flatnonzero(order == failed[0])[0], pivots[failed[0]], floor)
        return solve

    def failed_pivot(self, name: str, position, pivot: float, floor: float) -> ReductionError:
        """The error for a pivot below ``floor`` at internal ``position``.

        A failed pivot of ``M_ii``, or a negative one of ``K_ii``, means the
        block is not positive definite.  A zero or tiny pivot of a dense
        ``K_ii`` is judged by the block's rank: below full rank the block is
        singular, at full rank it is indefinite (or, for a positive pivot,
        nearly singular).  A sparse block is not ranked, because the SVD
        needs the dense block, so its error claims neither.
        """
        where = "a pivot" if position is None else f"the pivot of DOF {self.internal_dofs[position]}"
        if name == "mass" or pivot < -floor:
            what = "mass matrix is not positive definite" if name == "mass" else "stiffness block is indefinite"
            return ReductionError(f"internal {what}: {where} is {pivot:.6g}")
        n_i, advice = self.n_internal, "constrain the structure or move boundary DOFs"
        if self.sparse:
            return ReductionError(
                f"internal stiffness block ({n_i} x {n_i}) is singular or indefinite: {where} is {pivot:.6g}; {advice}"
            )
        rank = np.linalg.matrix_rank(self.internal(self.stiffness))
        if rank == n_i:
            what = "indefinite" if pivot <= 0 else "nearly singular"
            return ReductionError(f"internal stiffness block is {what}: {where} is {pivot:.6g}")
        return ReductionError(f"internal stiffness block is singular (rank {rank} of {n_i}); {advice}")

    @functools.cached_property
    def shift(self) -> float:
        """``sigma`` of the factorized ``K_ii + sigma M_ii``: 0, unless there is no boundary.

        With no boundary nothing is clamped, and the problem is the whole
        substructure's, whose ``K`` is singular if it is free (its rigid-body
        modes).  Then ``sigma`` is ``_FREE_SHIFT`` of ``max|K| / max|M|``:
        ``K + sigma M`` is positive definite for every positive semidefinite
        ``K``, with a rigid-body pivot of at least about 1e-8 of ``max|K|``,
        far above the pivot floor, and ``sigma`` lies far below the lowest
        elastic ``w**2`` of the refined frames (0.025 against 2.07 at 1e4 DOFs).
        """
        if self.n_boundary:
            return 0.0
        return _FREE_SHIFT * abs(self.stiffness).max() / abs(self.mass).max()

    @functools.cached_property
    def stiffness_solve(self):
        """``(K_ii + sigma M_ii)^{-1}``, once both blocks pass: Lanczos' ``OPinv``, and the constraint-mode solve."""
        self.factorize("mass")
        return self.factorize("stiffness")

    def lowest_modes(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``count`` lowest eigenpairs ``(phi, w**2)`` of ``K_ii phi = w**2 M_ii phi``, ascending.

        A sparse problem uses shift-invert Lanczos about ``-sigma`` (see
        :attr:`shift`) unless ARPACK cannot serve ``count >= n_i - 1``.
        """
        n_i, solve = self.n_internal, self.stiffness_solve  # on either path, refuses a K_ii or M_ii that fails
        if self.sparse and count < n_i - 1:
            from scipy.sparse.linalg import LinearOperator, eigsh

            lam, phi = eigsh(
                self.internal(self.stiffness), count, self.internal(self.mass), sigma=-self.shift,
                OPinv=LinearOperator((n_i, n_i), matvec=solve, dtype=float),
                # fixed, so runs repeat bit for bit; not constant, which
                # would miss the antisymmetric modes of a symmetric segment
                v0=np.random.default_rng(0).standard_normal(n_i),
            )
            order = np.argsort(lam, kind="stable")
            return phi[:, order], lam[order]
        lam, phi = scipy.linalg.eigh(
            dense(self.internal(self.stiffness)), dense(self.internal(self.mass)), subset_by_index=[0, count - 1],
        )
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
    internal block of a CSR substructure, or of at least ``_SPARSE_MIN_DOFS``
    DOFs, is solved by shift-invert Lanczos on one SuperLU factorization of
    ``K_ii``, a smaller dense one by dense LAPACK; their frequencies agree to
    about 1e-12 relative and their modes to about 1e-11.  Either way a
    ``K_ii`` or ``M_ii`` that is not positive definite raises ReductionError,
    except that with no boundary ``K`` may be singular (see
    :attr:`_InternalProblem.shift`).

    The modes are canonical (see :func:`_canonical_modes`), so both solvers
    return one basis.  When the cut falls inside a cluster of equal
    frequencies, more modes are computed until the cluster is complete, and
    the members kept are the first of its canonical basis: those whose mass
    sits nearest internal DOF 0.  :func:`reduce` passes its own ``problem``
    so that ``K_ii`` is factorized once.
    """
    if problem is None:
        problem = _InternalProblem(sub)
    problem.check_mode_count(n_modes)
    n_i = problem.n_internal
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
    factorization of ``K_ii`` that ``problem`` keeps (LAPACK Cholesky for a
    dense block, SuperLU for a sparse one), which refuses a ``K_ii`` or
    ``M_ii`` that is not positive definite.
    """
    if problem is None:
        problem = _InternalProblem(sub)
    n_i = problem.n_internal
    return problem.stiffness_solve(-dense(problem.stiffness[:n_i, n_i:]))


def reduce(sub: LinearSubstructure, n_modes: int) -> CraigBamptonReduction:
    """Craig-Bampton reduction keeping ``n_modes`` fixed-interface modes.

    Matrices are projected in internal-first ordering, from CSR arrays for
    a CSR substructure or an internal block of at least ``_SPARSE_MIN_DOFS``
    DOFs and from dense arrays otherwise; ``K_ii`` is factorized once for
    the modes and the constraint modes.  The frequency of the first
    discarded mode is reported so callers can check that the retained band
    covers their region of interest.
    """
    problem = _InternalProblem(sub)
    problem.check_mode_count(n_modes)
    n_i, n_b = problem.n_internal, len(sub.boundary_dofs)
    probe = min(n_modes + 1, n_i)
    phi, freqs = fixed_interface_modes(sub, probe, problem=problem)
    transform = np.zeros((n_i + n_b, n_modes + n_b))
    transform[:n_i, :n_modes] = phi[:, :n_modes]
    transform[:n_i, n_modes:] = constraint_modes(sub, problem=problem)
    transform[n_i:, n_modes:] = np.eye(n_b)

    def project(x) -> np.ndarray:
        return transform.T @ (x @ transform)

    return CraigBamptonReduction(
        transform=transform,
        reduced_mass=project(problem.mass),
        reduced_stiffness=project(problem.stiffness),
        reduced_damping=project(problem.damping),
        retained_frequencies=freqs[:n_modes],
        internal_dofs=sub.internal_dofs,
        boundary_dofs=sub.boundary_dofs,
        truncation_frequency=float(freqs[n_modes]) if probe > n_modes else None,
    )


def expand(red: CraigBamptonReduction, reduced_state: np.ndarray) -> np.ndarray:
    """Reconstruct physical displacements from reduced coordinates ``[q; x_b]``.

    ``reduced_state`` is one vector of ``n_reduced`` coordinates or a block
    of them, one per column; the result has the same columns, each indexed
    by the original substructure DOF numbering.
    """
    q = np.asarray(reduced_state, dtype=float)
    if q.ndim not in (1, 2) or len(q) != red.n_reduced:
        raise ReductionError(f"reduced state must have length {red.n_reduced}, got {q.shape}")
    out = np.empty((red.transform.shape[0], *q.shape[1:]))
    out[np.array(red.internal_dofs + red.boundary_dofs, dtype=int)] = red.transform @ q
    return out


def reduced_topology(topology, sub_id, red: CraigBamptonReduction):
    """Rewrite interface constraints of ``sub_id`` in reduced coordinates.

    Boundary DOFs survive reduction as the trailing physical coordinates, so
    constraints keep their meaning with remapped indices.
    """
    return CouplingTopology(constraints=tuple(
        tuple((sid, red.reduced_boundary_index(dof) if sid == sub_id else dof, sign) for sid, dof, sign in entry)
        for entry in topology.constraints
    ))


def _whole_problem_modes(sub: LinearSubstructure, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n`` lowest modes of ``sub`` with every DOF internal (no boundary): its own ``K phi = w^2 M phi``."""
    return fixed_interface_modes(LinearSubstructure(mass=sub.mass, damping=sub.damping, stiffness=sub.stiffness), n)


def full_frequencies(sub: LinearSubstructure, n: int | None = None) -> np.ndarray:
    """The ``n`` lowest natural frequencies (rad/s) of the unreduced substructure, ascending; all by default.

    The paths of :func:`fixed_interface_modes`, with every DOF internal; a
    free substructure's singular ``K`` is factorized shifted (see
    :attr:`_InternalProblem.shift`).  ``n`` above the DOF count raises
    ReductionError.
    """
    return _whole_problem_modes(sub, sub.n_dofs if n is None else n)[1]


def reduced_frequencies(red: CraigBamptonReduction, n: int | None = None) -> np.ndarray:
    """The ``n`` lowest natural frequencies (rad/s) of the reduced model, ascending; all by default.

    :func:`full_frequencies` of :meth:`CraigBamptonReduction.as_substructure`.
    """
    return full_frequencies(red.as_substructure(), n)


def expanded_mode_shapes(red: CraigBamptonReduction, n: int) -> np.ndarray:
    """The first ``n`` reduced mode shapes, expanded to physical coordinates (:func:`expand`).

    :func:`mode_shapes` of :meth:`CraigBamptonReduction.as_substructure`:
    mass-normalized with respect to the reduced mass matrix, and canonical.
    """
    return expand(red, mode_shapes(red.as_substructure(), n))


def mode_shapes(sub: LinearSubstructure, n: int) -> np.ndarray:
    """First ``n`` mass-normalized, canonical mode shapes of the full substructure (see :func:`full_frequencies`)."""
    return _whole_problem_modes(sub, n)[0]
