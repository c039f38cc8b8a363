"""Interface topology and the dual-coupling operator.

Substructures are coupled pairwise at interface DOFs.  Each constraint links
one DOF of one substructure to one DOF of another with opposite signs; the
signed boolean locator L_v built here injects interface-force intensities into
the matching momentum rows, and its transpose selects the boundary
velocities.  Displacement rows are never coupled.  The interface operator
``H = sum L_v^T S^{-1} L_v`` is summed from solves ``S^{-1} L_v`` that its
caller makes with its own factorizations of ``S``; this module only adds
and factorizes them.
"""

from __future__ import annotations

import warnings
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


def _lu_factors(matrix: np.ndarray, singular: Exception, scale: float | None = None) -> tuple:
    """LU factors of a square matrix and the LAPACK ``getrs`` that solves with them.

    Raises ``singular`` if a factor is not finite or a pivot falls below
    1e-14 of ``scale`` (default: the largest entry).  A matrix summed from
    terms passes the largest term as ``scale``, so a sum that cancels to
    round-off is not judged against its own remainder.  ``getrs(lu, piv, b)[0]`` is what
    ``scipy.linalg.lu_solve`` returns, bit for bit, without that wrapper's
    per-call dispatch, routine lookup and finiteness check; callers check
    their inputs once instead.
    """
    with warnings.catch_warnings():
        # an exactly zero pivot only warns; the pivot check below raises
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(matrix)
    if scale is None:
        scale = np.abs(matrix).max()
    if not np.all(np.isfinite(lu)) or np.abs(np.diag(lu)).min() < 1e-14 * max(scale, 1e-30):
        raise singular
    (getrs,) = scipy.linalg.get_lapack_funcs(("getrs",), (lu,))
    return lu, piv, getrs


@dataclass(frozen=True)
class InterfaceOperator:
    """Condensed interface operator H = sum L_v^T @ S^{-1} @ L_v, factorized."""

    matrix: np.ndarray
    _lu: np.ndarray
    _piv: np.ndarray
    _getrs: object

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._getrs(self._lu, self._piv, rhs)[0]


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
    lu, piv, getrs = _lu_factors(h, CouplingError(
        "interface operator is singular; check for redundant or dangling constraints"
    ))
    return InterfaceOperator(matrix=h, _lu=lu, _piv=piv, _getrs=getrs)
