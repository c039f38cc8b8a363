"""Interface topology and the dual-coupling operator.

Substructures are coupled pairwise at interface DOFs.  Each constraint links
one DOF of one substructure to one DOF of another with opposite signs; the
signed boolean locator L_v built here injects interface-force intensities into
the matching momentum rows, and its transpose selects the boundary
velocities.  Displacement rows are never coupled.  The interface operator
``H = sum L_v^T S^{-1} L_v`` is summed from solves ``S^{-1} L_v`` that its
caller makes with its own factorizations of ``S``; this module only adds
and factorizes them.  The partitioned solver solves with ``H`` only at
construction, for one multiplier map per step group, and none at a
coupled step (:mod:`dynsub.solver`).

Each topology rule has one owner, for system files and API callers alike.
:class:`CouplingTopology` checks each constraint alone: two ``(id, dof, sign)``
triples on two substructures, an integer DOF (a float is refused, never
truncated), opposite integer signs +1 and -1, and no interface pair twice.
:func:`_check_references`, called by :class:`~dynsub.solver.CoupledSystem`
and :func:`assemble_global`, checks that each id is known and each DOF lies
in ``[0, n)``.

:func:`assemble_global` places substructures on shared global DOFs by
primal assembly.  With the coupling constraints it merges the interface
DOFs, which gives the monolithic reference; with no constraints it is the
block-diagonal uncoupled system that a step group of the partitioned
solver steps as one form.  It sums the members' nonzero entries through
the package's one scatter, :func:`~dynsub.models._scatter_entries`, into
dense or CSR matrices.

:func:`_factorize` is the package's one general factorization (LAPACK LU or
SuperLU) for ``S``, ``H``, ``M`` and Newmark, none of which need be
symmetric.  :func:`_pivot_floor` is its singularity rule and
``_SYMMETRIC_ORDER`` its SuperLU ordering, both of which the symmetric
factorization of a Craig-Bampton internal block shares.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .models import (
    FirstOrderForm, LinearSubstructure, _scatter_entries, assemble_first_order, nonzero_entries, require_numbers,
)


class CouplingError(ValueError):
    """Raised for inconsistent interface topologies or singular operators."""


@dataclass(frozen=True)
class CouplingTopology:
    """Signed collocation of interface DOFs across substructures.

    ``constraints`` is a list of interface constraints, each given as two
    ``(substructure_id, dof_index, sign)`` triples with opposite signs,
    under the rules of the module docstring.
    """

    constraints: tuple

    def __post_init__(self):
        if not isinstance(self.constraints, (tuple, list)):
            raise CouplingError(f"constraints must be a list of constraints, got {self.constraints!r}")
        normalized = []
        seen = set()
        for c, entry in enumerate(self.constraints):
            if not (isinstance(entry, (tuple, list)) and len(entry) == 2 and all(
                isinstance(side, (tuple, list)) and len(side) == 3 and isinstance(side[0], Hashable) for side in entry
            )):
                raise CouplingError(f"constraint {c} must be exactly two (substructure, dof, sign) triples, "
                                    f"got {entry!r}")
            (sa, da, ga), (sb, db, gb) = entry
            for dof, sign in ((da, ga), (db, gb)):
                require_numbers(lambda message: CouplingError(f"constraint {c}: {message}"), True, dof=dof, sign=sign)
            if ga not in (-1, 1) or gb not in (-1, 1):
                raise CouplingError(f"constraint {c} signs must be +1 or -1, got {ga}, {gb}")
            if ga == gb:
                raise CouplingError(f"constraint {c} signs must be opposite, got {ga}, {gb}")
            if sa == sb:
                raise CouplingError(f"constraint {c} links substructure {sa!r} to itself")
            key = frozenset(((sa, int(da)), (sb, int(db))))
            if key in seen:
                raise CouplingError(f"constraint {c} duplicates an existing interface pair")
            seen.add(key)
            normalized.append(((sa, int(da), int(ga)), (sb, int(db), int(gb))))
        object.__setattr__(self, "constraints", tuple(normalized))

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)


def _check_references(topology: CouplingTopology, substructures: Mapping) -> None:
    """Raise CouplingError, before any indexing, for a constraint naming an unknown id or a DOF outside [0, n)."""
    for c, entry in enumerate(topology.constraints):
        for sid, dof, _ in entry:
            if sid not in substructures:
                raise CouplingError(f"constraint {c} references unknown substructure {sid!r}")
            if not 0 <= dof < substructures[sid].n_dofs:
                raise CouplingError(f"constraint {c} references DOF {dof} of {sid!r}")


def locator_matrix(topology: CouplingTopology, sub_id, n_dofs: int) -> np.ndarray:
    """L_v: maps interface-force intensities onto the momentum rows (forces) of a substructure.

    Shape (n_dofs, n_constraints); entries in {-1, 0, +1}.  Its transpose
    maps the substructure's velocities to its signed share of each
    constraint's velocity gap.  :class:`~dynsub.solver.CoupledSystem` checks the DOFs.
    """
    l = np.zeros((n_dofs, topology.n_constraints))
    for c, entry in enumerate(topology.constraints):
        for sid, dof, sign in entry:
            if sid == sub_id:
                l[dof, c] = sign
    return l


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


def _stores_csr(substructures: Mapping) -> bool:
    """Whether a substructure holds CSR matrices: then an assembly that follows its members is sparse."""
    return any(isinstance(sub, LinearSubstructure) and sub.sparse for sub in substructures.values())


def assemble_global(substructures: Mapping, topology: CouplingTopology, sparse: bool = False) -> AssembledSystem:
    """Merge coupled interface DOFs and sum the substructure matrices.

    The global DOF count is the sum of substructure DOF counts minus the
    number of interface constraints.  Without constraints the global DOFs
    are the substructures' own, numbered substructure after substructure in
    the order of ``substructures``.  ``M``, ``C`` and ``K`` are summed from
    each substructure's nonzero entries, whatever its storage, by
    :func:`~dynsub.models._scatter_entries`: into dense arrays by default;
    with ``sparse`` into CSR arrays, so no
    ``n_global**2`` array is built and the solvers step on a sparse
    factorization of ``S`` (:func:`~dynsub.solver.effective_matrix`).
    ``B`` and the element coefficients stay dense rows either way.
    """
    if not substructures:
        raise CouplingError("the system has no substructures to assemble")
    _check_references(topology, substructures)
    offsets, total = {}, 0
    for sid, sub in substructures.items():
        offsets[sid] = total
        total += sub.n_dofs

    # union-find over the constraints only
    parent = np.arange(total)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c, entry in enumerate(topology.constraints):
        (sa, da, _), (sb, db, _) = entry
        ra, rb = find(offsets[sa] + da), find(offsets[sb] + db)
        if ra == rb:
            raise CouplingError(f"constraint {c} is redundant: its DOFs are already merged")
        parent[rb] = ra
    # point every DOF at its root by pointer jumping, then number the roots in order
    while not np.array_equal(grand := parent[parent], parent):
        parent = grand
    roots, gid = np.unique(parent, return_inverse=True)
    n_global = len(roots)
    dof_map = {sid: gid[start:start + substructures[sid].n_dofs] for sid, start in offsets.items()}

    forms = {sid: assemble_first_order(sub) for sid, sub in substructures.items()}
    rates, entries = [], {"mass": [], "damping": [], "stiffness": []}
    for sid, form in forms.items():
        sub, ids = substructures[sid], dof_map[sid]
        block = np.zeros((len(form.rates), n_global))
        np.add.at(block, (slice(None), ids), form.rates)
        rates.append(block)
        for name, parts in entries.items():
            # a linear substructure caches its entries (its form holds its own
            # matrices), so a dense frame matrix is scanned once per process
            rows, cols, values = (
                sub.nonzeros[name] if isinstance(sub, LinearSubstructure) else nonzero_entries(getattr(form, name))
            )
            parts.append((ids[rows], ids[cols], values))
    mass, damping, stiffness = (
        _scatter_entries(n_global, *map(np.concatenate, zip(*parts)), sparse) for parts in entries.values()
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


# SuperLU's symmetric fill-reducing order: minimum degree on the pattern of
# A^T + A, the same permutation for rows and columns.
_SYMMETRIC_ORDER = {"permc_spec": "MMD_AT_PLUS_A", "options": {"SymmetricMode": True}}


def _pivot_floor(scale: float) -> float:
    """The smallest pivot a factorization accepts: 1e-14 of ``scale``, floor 1e-30."""
    return 1e-14 * max(scale, 1e-30)


def _factorize(matrix, singular, scale: float | None = None):
    """Factorize a square matrix once and return its ``solve(rhs)``: every linear solve of the package.

    A dense array gets LAPACK ``getrf``, and ``solve`` is ``getrs`` on its
    factors: ``scipy.linalg.lu_solve``'s result, bit for bit, without that
    wrapper's per-call dispatch and finiteness check (callers check their
    inputs once).  A sparse array gets one SuperLU ``splu`` in CSC order,
    ordered by ``_SYMMETRIC_ORDER`` with SuperLU's threshold pivoting, which
    a nonsymmetric damping needs.  Both raise ``singular()`` when the matrix
    is exactly singular, a factor is not finite or a pivot falls below
    :func:`_pivot_floor` of ``scale`` (default: the largest entry).  A sum
    of terms passes its largest term, so a sum that cancels to round-off is
    not judged against its remainder.
    ``singular`` is called only on failure, so its message may be costly.
    """
    if not matrix.shape[0]:  # an empty block, such as a reduction without internal DOFs
        return np.copy
    if scale is None:
        scale = abs(matrix).max()
    if isinstance(matrix, np.ndarray):
        getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (matrix,))
        lu, piv, _ = getrf(matrix)  # an exactly zero pivot leaves a zero on the diagonal
        finite = np.isfinite(lu).all()
        pivots = np.diag(lu)
        solve = lambda rhs: getrs(lu, piv, rhs)[0]
    else:
        from scipy.sparse.linalg import splu  # only sparse matrices pay for this import

        try:
            lu = splu(matrix.tocsc(), **_SYMMETRIC_ORDER)
        except RuntimeError:  # SuperLU's "Factor is exactly singular"
            raise singular() from None
        finite = np.isfinite(lu.L.data).all() and np.isfinite(lu.U.data).all()
        pivots = lu.U.diagonal()
        solve = lu.solve
    if not finite or np.abs(pivots).min() < _pivot_floor(scale):
        raise singular()
    return solve


@dataclass(frozen=True)
class InterfaceOperator:
    """Condensed interface operator H = sum L_v^T @ S^{-1} @ L_v, factorized."""

    matrix: np.ndarray
    _solve: object  # rhs -> H^{-1} rhs

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._solve(rhs)


def steklov_poincare(pairs) -> InterfaceOperator:
    """Sum and factorize the interface operator H = sum L_v^T S^{-1} L_v.

    ``pairs`` holds one ``(L_v, b)`` per block of substructures that shares a
    factorization of ``S``, with ``b = S^{-1} L_v`` already solved by its
    owner, which also builds its link maps from ``b``.  Only velocity rows
    are coupled, so the operator ``G D^{-1} L`` of the first-order form
    reduces to ``L_v^T S^{-1} L_v``.  It is square (one row and column per
    interface constraint) and is assembled once per simulation.
    """
    terms = [l_v.T @ b for l_v, b in pairs]
    if not terms or not terms[0].size:
        raise CouplingError("topology has no interface constraints to condense")
    h = sum(terms)
    return InterfaceOperator(matrix=h, _solve=_factorize(h, lambda: CouplingError(
        "interface operator is singular; check for redundant or dangling constraints"
    )))
