"""Interface topology and the dual-coupling operator.

Substructures are coupled pairwise at interface DOFs.  Each constraint links
one DOF of one substructure to one DOF of another with opposite signs; the
signed boolean locator L_v built here injects interface-force intensities into
the matching momentum rows, and its transpose selects the boundary
velocities.  Displacement rows are never coupled.  The interface operator
``H = sum L_v^T S^{-1} L_v`` is summed from solves ``S^{-1} L_v`` that its
caller makes with its own factorizations of ``S``; this module only adds
and factorizes them.

:func:`_factorize` is the package's one factorization (LAPACK LU or SuperLU,
one singularity rule) for ``S``, ``H``, ``M``, ``K_ii`` and Newmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class CouplingError(ValueError):
    """Raised for inconsistent interface topologies or singular operators."""


@dataclass(frozen=True)
class CouplingTopology:
    """Signed collocation of interface DOFs across substructures.

    ``constraints`` is a sequence of interface constraints, each given as two
    ``(substructure_id, dof_index, sign)`` triples with opposite signs.
    """

    constraints: tuple

    def __post_init__(self):
        normalized = []
        seen = set()
        for c, entry in enumerate(self.constraints):
            if len(entry) != 2:
                raise CouplingError(
                    f"constraint {c} must touch exactly two substructures, got {len(entry)}"
                )
            (sa, da, ga), (sb, db, gb) = entry
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

    def entries_for(self, sub_id) -> list:
        """(constraint index, dof, sign) triples touching one substructure."""
        out = []
        for c, entry in enumerate(self.constraints):
            for sid, dof, sign in entry:
                if sid == sub_id:
                    out.append((c, dof, sign))
        return out


def locator_matrix(topology: CouplingTopology, sub_id, n_dofs: int) -> np.ndarray:
    """L_v: maps interface-force intensities onto the momentum rows (forces) of a substructure.

    Shape (n_dofs, n_constraints); entries in {-1, 0, +1}.  Its transpose
    maps the substructure's velocities to its signed share of each
    constraint's velocity gap.
    """
    l = np.zeros((n_dofs, topology.n_constraints))
    for c, dof, sign in topology.entries_for(sub_id):
        if not 0 <= dof < n_dofs:
            raise CouplingError(f"constraint {c} references DOF {dof} of {sub_id!r} (has {n_dofs})")
        l[dof, c] = sign
    return l


def _factorize(matrix, singular, scale: float | None = None):
    """Factorize a square matrix once and return its ``solve(rhs)``: every linear solve of the package.

    A dense array gets LAPACK ``getrf``, and ``solve`` is ``getrs`` on its
    factors: ``scipy.linalg.lu_solve``'s result, bit for bit, without that
    wrapper's per-call dispatch and finiteness check (callers check their
    inputs once).  A sparse array gets one SuperLU ``splu`` in CSC order.
    Both raise ``singular()`` when the matrix is exactly singular, a factor
    is not finite or a pivot falls below 1e-14 of ``scale`` (default: the
    largest entry, floor 1e-30).  A sum of terms passes its largest term,
    so a sum that cancels to round-off is not judged against its remainder.
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
            lu = splu(matrix.tocsc())
        except RuntimeError:  # SuperLU's "Factor is exactly singular"
            raise singular() from None
        finite = np.isfinite(lu.L.data).all() and np.isfinite(lu.U.data).all()
        pivots = lu.U.diagonal()
        solve = lu.solve
    if not finite or np.abs(pivots).min() < 1e-14 * max(scale, 1e-30):
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
