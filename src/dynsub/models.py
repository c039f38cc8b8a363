"""Substructure models and their first-order state-space form.

Two model kinds are supported: matrix-based linear substructures and
parametric nonlinear suspension substructures (lumped wheel mass connected
to an attachment point through a linear spring and a dry-friction damper).

Every substructure of ``n`` physical DOFs is described by its mass ``M``,
the tangent blocks ``K`` (stiffness) and ``C`` (damping) at the zero state,
and one momentum force law

    g(u, v) = K u + C v + B^T rho(B v),    rho(xd) = slope * phi(xd, c3)

whose nonlinear remainder ``rho`` acts on the element rates ``xd = B v``
only (``B`` has no rows for a linear substructure).  The law is data: each
row of ``B`` has a ``slope = -c2/c3`` and a smoothing ``c3``, and
:func:`friction_shape` is the one ``phi``.  Its first-order form with state
``Y = [u; v]`` (displacements stacked over velocities) is

    A @ Ydot + R(Y) = F,      A = blockdiag(I, M),   R(Y) = [-v; g(u, v)]

where external forces enter the momentum (velocity) rows only.

Every force law is thus affine in ``u`` with slope ``K``:
``g(u + d, v) = g(u, v) + K d``.  The solvers rely on this to condense the
trapezoidal step onto the momentum rows, and on the split into a linear
part and ``phi`` to precompute the step of small substructures (see
:mod:`dynsub.solver`).

Every square matrix built from ``(rows, cols, values)`` entries comes from
one scatter, :func:`_scatter_entries`, in the storage its caller picks:
the generators and the system file reader (through
:func:`matrix_from_entries`), :func:`~dynsub.coupling.assemble_global` and
the sparse internal-first reorder of the Craig-Bampton reduction.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
import reprlib
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

# Smallest linear substructure, in DOFs, that the generators and the system
# file reader store as CSR, and smallest internal block that the reduction
# solves sparse whatever its storage: the crossover measured for the
# reduction (see :mod:`dynsub.reduction`).  Below it, matrices stay dense
# and ``scipy.sparse`` is never imported.
_SPARSE_MIN_DOFS = 400


class ModelError(ValueError):
    """Raised when a substructure definition or state is inconsistent."""


def build_from_fields(factory, fields: dict, what: str):
    """Call ``factory(**fields)``; an unknown or missing field raises ModelError naming it.

    ``what`` leads the message of that error and of a ModelError that ``factory`` raises.
    ``fields`` that are not a mapping (a JSON record that is not an object) raise a
    ModelError listing the fields of ``factory``.
    """
    if not isinstance(fields, Mapping):
        names = ", ".join(map(repr, inspect.signature(factory).parameters))
        raise ModelError(f"{what} must be an object of the fields {names}, got {reprlib.repr(fields)}")
    try:
        inspect.signature(factory).bind(**fields)
    except TypeError as exc:
        raise ModelError(f"{what}: {exc}") from None
    try:
        return factory(**fields)
    except ModelError as exc:
        raise ModelError(f"{what}: {exc}") from None


def is_number(value, integers: bool = False) -> bool:
    """Whether ``value`` is a real number (an integer if ``integers``) and not a bool, such as a JSON true."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral if integers else numbers.Real)


def require_numbers(error, integers: bool = False, **fields) -> None:
    """Raise ``error`` naming the first field that is not a real (or integer) number.

    Booleans and strings are rejected, so a JSON value of the wrong type
    fails here instead of in arithmetic further on.
    """
    for name, value in fields.items():
        if not is_number(value, integers):
            raise error(f"field {name!r} must be {'an integer' if integers else 'a number'}, got {value!r}")


def require_finite(error, sign: str = "", **fields) -> None:
    """Raise ``error`` naming the first number field that is not finite, or not ``"positive"``/``"non-negative"``.

    A tuple field, such as a list of frequencies, is checked entry by entry.
    """
    what = f"finite {sign + ' ' if sign else ''}number"
    for name, value in fields.items():
        many = isinstance(value, tuple)
        for entry in value if many else (value,):
            wrong_sign = (sign == "positive" and entry <= 0) or (sign == "non-negative" and entry < 0)
            if not math.isfinite(entry) or wrong_sign:
                raise error(f"field {name!r} must {f'hold only {what}s' if many else f'be a {what}'}, got {entry!r}")


def require_bools(error, **fields) -> None:
    """Raise ``error`` naming the first field that is not a bool, such as a JSON ``"no"``."""
    for name, value in fields.items():
        if not isinstance(value, bool):
            raise error(f"field {name!r} must be true or false, got {value!r}")


def number_tuple(error, name: str, value, integers: bool = False) -> tuple:
    """``value`` as a tuple of floats, or of ints if ``integers``; any other value or entry raises ``error``."""
    what = "integers" if integers else "numbers"
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Iterable):
        raise error(f"field {name!r} must be a list of {what}, got {value!r}")
    kind = int if integers else float

    def entry(item):
        if not is_number(item, integers):
            raise error(f"field {name!r} must be a list of {what}, got entry {item!r}")
        return kind(item)

    # an entry of the wanted type passes on a type test; any other is checked once, as it comes
    return tuple(item if type(item) is kind else entry(item) for item in value)


def is_sparse(matrix) -> bool:
    """Whether ``matrix`` is a ``scipy.sparse`` array; never imports ``scipy.sparse`` itself."""
    sparse = sys.modules.get("scipy.sparse")  # a process without it holds no sparse array
    return sparse is not None and sparse.issparse(matrix)


def dense(matrix) -> np.ndarray:
    """``matrix`` as a dense array: a sparse one is expanded, a dense one returned as it is."""
    return matrix.toarray() if is_sparse(matrix) else matrix


def _as_locked_matrix(a, name: str, sparse: bool):
    """``a`` as a read-only square float matrix: dense, or canonical CSR if ``sparse``.

    Canonical CSR has sorted column indices, no duplicate entry (duplicates
    are summed) and no stored zero.  A non-finite entry is named by its
    field, row and column, found on the stored entries of a sparse matrix.
    """
    m = a if is_sparse(a) else np.array(a, dtype=float)
    if len(m.shape) != 2 or m.shape[0] != m.shape[1]:
        raise ModelError(f"{name} matrix must be a square matrix, got shape {m.shape}")
    if sparse:
        import scipy.sparse  # only a sparse model pays for this import

        m = scipy.sparse.csr_array(m, dtype=float, copy=True)
        m.sum_duplicates()  # also sorts the indices
        m.eliminate_zeros()
    values = m.data if sparse else m
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(np.argmax(bad))  # the first in row-major order
        i, j = (np.searchsorted(m.indptr, k, side="right") - 1, m.indices[k]) if sparse else divmod(k, m.shape[1])
        raise ModelError(f"field {name!r} holds a non-finite value ({values.flat[k]}) in row {i}, column {j}")
    for array in (m.data, m.indices, m.indptr) if sparse else (m,):
        array.setflags(write=False)
    return m


def _check_symmetric(m, name: str, rtol: float = 1e-10) -> None:
    if is_sparse(m):
        gap = abs(m - m.T)  # stores only the entries that differ
        if not gap.nnz:
            return
        gap, scale = gap.data.max(), np.abs(m.data).max()
    else:
        if np.array_equal(m, m.T):  # the common case, at a third of the cost of the tolerance test
            return
        gap, scale = np.abs(m - m.T).max(), np.abs(m).max()
    if scale > 0 and gap > rtol * scale:
        raise ModelError(f"{name} is not symmetric within relative tolerance {rtol}")


@dataclass(frozen=True)
class LinearSubstructure:
    """Linear substructure defined by mass, damping and stiffness matrices.

    ``internal_dofs`` and ``boundary_dofs`` must together cover every DOF
    exactly once; boundary DOFs are the ones exposed for coupling.
    ``internal_dofs`` defaults to every DOF not on the boundary, for API
    callers, the generators and system files alike.

    The matrices are stored read-only, in the storage they are given in: if
    any of the three is a ``scipy.sparse`` array, all three are held as
    canonical CSR arrays (see :attr:`sparse`), else as dense arrays.  The
    generators and the system file reader hand over CSR from
    ``_SPARSE_MIN_DOFS`` DOFs on.  Either way the checks (square, equal
    shapes, finite, symmetric, positive mass diagonal) read only the stored
    entries.
    """

    mass: np.ndarray
    damping: np.ndarray
    stiffness: np.ndarray
    internal_dofs: tuple | None = None
    boundary_dofs: tuple = ()

    def __post_init__(self):
        sparse = any(is_sparse(x) for x in (self.mass, self.damping, self.stiffness))
        m = _as_locked_matrix(self.mass, "mass", sparse)
        c = _as_locked_matrix(self.damping, "damping", sparse)
        k = _as_locked_matrix(self.stiffness, "stiffness", sparse)
        if not (m.shape == c.shape == k.shape):
            raise ModelError(
                f"matrix sizes disagree: mass {m.shape}, damping {c.shape}, stiffness {k.shape}"
            )
        _check_symmetric(m, "mass matrix")
        _check_symmetric(k, "stiffness matrix")
        if np.any(m.diagonal() <= 0):
            raise ModelError("mass matrix must have a strictly positive diagonal")
        n = m.shape[0]
        boundary = number_tuple(ModelError, "boundary_dofs", self.boundary_dofs, integers=True)
        if self.internal_dofs is None:  # one pass; a boundary DOF out of range fails the cover check
            free = np.ones(n, dtype=bool)
            free[[b for b in boundary if 0 <= b < n]] = False
            internal = tuple(np.flatnonzero(free).tolist())
        else:
            internal = number_tuple(ModelError, "internal_dofs", self.internal_dofs, integers=True)
        cover = sorted(internal + boundary)
        if cover != list(range(n)):
            raise ModelError(f"internal and boundary DOFs must disjointly cover all {n} DOFs, "
                             f"got internal={reprlib.repr(internal)} boundary={reprlib.repr(boundary)}")
        object.__setattr__(self, "mass", m)
        object.__setattr__(self, "damping", c)
        object.__setattr__(self, "stiffness", k)
        object.__setattr__(self, "internal_dofs", internal)
        object.__setattr__(self, "boundary_dofs", boundary)

    @property
    def n_dofs(self) -> int:
        return self.mass.shape[0]

    @property
    def sparse(self) -> bool:
        """Whether the matrices are held as CSR arrays."""
        return not isinstance(self.mass, np.ndarray)

    @functools.cached_property
    def nonzeros(self) -> dict:
        """``{"mass" | "damping" | "stiffness": (rows, cols, values)}`` of the nonzero entries.

        The entries are in row-major order, the order of a CSR array.  They
        are the CSR arrays themselves (with the row of each entry expanded),
        or are found by one scan of each dense matrix, on first use; the
        matrices are read-only, so the result stays valid.
        """
        def entries(x):
            if self.sparse:
                return np.repeat(np.arange(self.n_dofs), np.diff(x.indptr)), x.indices, x.data
            return nonzero_entries(x)

        return {name: entries(getattr(self, name)) for name in ("mass", "damping", "stiffness")}


def matrix_from_entries(n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray):
    """``n``-by-``n`` matrix of entries; entries at one position sum.

    A CSR array from ``_SPARSE_MIN_DOFS`` on, a dense array below: the
    storage rule of the generators and the system file reader, applied to
    :func:`_scatter_entries`.
    """
    return _scatter_entries(n, rows, cols, values, n >= _SPARSE_MIN_DOFS)


def _scatter_entries(n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, sparse: bool):
    """``n``-by-``n`` matrix of ``(rows, cols, values)``: the package's one scatter of entries.

    Entries at one position sum in entry order, by an unbuffered scatter
    onto zeros: onto a dense array by flat index, or, for a CSR array
    (``sparse``), onto the sorted distinct positions, which become its
    entries.  So both storages hold the same bytes.
    """
    flat = np.asarray(rows, dtype=np.intp) * n + cols
    if not sparse:
        matrix = np.zeros((n, n))
        # numpy's fast path takes flat indices into a 1-D view
        np.add.at(matrix.reshape(-1), flat, values)
        return matrix
    import scipy.sparse  # only a sparse matrix pays for this import

    positions, where = np.unique(flat, return_inverse=True)
    sums = np.zeros(len(positions))
    np.add.at(sums, where, values)
    indptr = np.searchsorted(positions, np.arange(n + 1) * n)
    return scipy.sparse.csr_array((sums, positions % n, indptr), shape=(n, n))


def nonzero_entries(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, values)`` of the nonzero entries of a dense matrix, row-major."""
    rows, cols = np.nonzero(matrix != 0)  # a boolean mask scans about twice as fast
    return rows, cols, matrix[rows, cols]


@dataclass(frozen=True)
class SuspensionElement:
    """One wheel-on-suspension unit.

    The restoring force between the wheel and its attachment point is

        f = k1 * x + c1 * xdot + c2 * xdot / (c3 + |xdot|)

    with ``x`` the spring deflection.  The last term is a smoothed
    dry-friction damper; its magnitude is bounded by ``c2`` and its tangent
    slope at rest is ``c2 / c3``.
    """

    mass: float
    k1: float
    c1: float
    c2: float
    c3: float
    base_excitation_channel: int = 0

    def __post_init__(self):
        coefficients = dict(mass=self.mass, k1=self.k1, c1=self.c1, c2=self.c2, c3=self.c3)
        require_numbers(ModelError, **coefficients)
        require_numbers(ModelError, True, base_excitation_channel=self.base_excitation_channel)
        require_finite(ModelError, k1=self.k1, c1=self.c1, c2=self.c2)
        require_finite(ModelError, "positive", mass=self.mass, c3=self.c3)

    @property
    def tangent_damping(self) -> float:
        """Damper slope d(f_d)/d(xdot) at rest."""
        return self.c1 + self.c2 / self.c3


@dataclass(frozen=True)
class NonlinearSubstructure:
    """Collection of suspension elements sharing one attachment interface each.

    DOF layout: wheel masses first (internal DOFs ``0 .. n_el-1``), then one
    attachment DOF per element (boundary DOFs ``n_el .. 2*n_el-1``).  The
    attachment points carry a small lumped mass ``boundary_mass`` so that the
    first-order mass operator stays invertible.

    With ``relative_motion`` (default) the spring and damper act on the
    wheel-minus-attachment deflection; otherwise on the absolute wheel motion.
    """

    elements: tuple
    boundary_mass: float = 0.016
    relative_motion: bool = True

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements:
            raise ModelError("a nonlinear substructure needs at least one element")
        for e in elements:
            if not isinstance(e, SuspensionElement):
                raise ModelError(f"expected SuspensionElement, got {type(e).__name__}")
        require_numbers(ModelError, boundary_mass=self.boundary_mass)
        require_bools(ModelError, relative_motion=self.relative_motion)
        require_finite(ModelError, "positive", boundary_mass=self.boundary_mass)
        object.__setattr__(self, "elements", elements)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def n_dofs(self) -> int:
        return 2 * len(self.elements)

    @property
    def internal_dofs(self) -> tuple:
        return tuple(range(self.n_elements))

    @property
    def boundary_dofs(self) -> tuple:
        return tuple(range(self.n_elements, 2 * self.n_elements))

    @property
    def mass(self) -> np.ndarray:
        return np.diag([e.mass for e in self.elements] + [self.boundary_mass] * self.n_elements)

    def incidence(self) -> np.ndarray:
        """B with deflection ``x = B @ u``: ``[I, -I]`` relative, ``[I, 0]`` absolute.

        Element forces act on the DOFs through ``B.T``.
        """
        ne = self.n_elements
        b = np.zeros((ne, 2 * ne))
        b[:, :ne] = np.eye(ne)
        if self.relative_motion:
            b[:, ne:] = -np.eye(ne)
        return b

    def tangent_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Stiffness and damping matrices of the zero-state linearisation."""
        b = self.incidence()
        k1 = np.array([e.k1 for e in self.elements])
        ct = np.array([e.tangent_damping for e in self.elements])
        return b.T @ (k1[:, None] * b), b.T @ (ct[:, None] * b)


Substructure = Union[LinearSubstructure, NonlinearSubstructure]


def friction_shape(xd: np.ndarray, c3: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """phi(xd, c3) = xd |xd| / (c3 + |xd|), so that ``rho = -(c2/c3) phi``.

    ``rho`` is what the friction force ``c2 xd / (c3 + |xd|)`` adds beyond
    its slope ``c2/c3`` at rest, without cancelling two quotients near 0.
    ``out``, which may be ``xd`` itself, takes the result.
    """
    magnitude = np.abs(xd)
    shaped = np.multiply(xd, magnitude, out=out)
    magnitude += c3
    return np.divide(shaped, magnitude, out=shaped)


@dataclass(frozen=True)
class FirstOrderForm:
    """First-order view A @ Ydot + R(Y) = F of an n-DOF substructure.

    Holds the mass ``M``, the tangent blocks ``K`` (``stiffness``) and ``C``
    (``damping``) at the zero state and the element-rate matrix ``B``
    (``rates``, one row per nonlinear element, none for a linear form).
    Each row of ``B`` has a coefficient in ``slope`` (``-c2/c3``) and in
    ``smoothing`` (``c3``).  The momentum force law is
    ``g(u, v) = K u + C v + B^T (slope * phi(B v, smoothing))`` with
    :func:`friction_shape` as ``phi``.  The 2n-sized ``restoring``,
    ``tangent`` and ``A`` are derived from these for checks; the solvers
    never build them.  A sparse assembly holds ``M``, ``K`` and ``C`` as
    CSR arrays, as does the form of a CSR substructure; ``momentum`` and
    the solvers take them as they are, and ``tangent`` and ``A`` expand
    them.
    """

    n_dofs: int
    mass: np.ndarray
    stiffness: np.ndarray = field(repr=False)
    damping: np.ndarray = field(repr=False)
    rates: np.ndarray = field(repr=False)
    slope: np.ndarray = field(repr=False)
    smoothing: np.ndarray = field(repr=False)

    @property
    def state_size(self) -> int:
        return 2 * self.n_dofs

    @functools.cached_property
    def _stiffness_damping(self):
        """``[K C]``, built on first use, so that ``K u + C v`` is one product with ``[u; v]``."""
        if isinstance(self.stiffness, np.ndarray):
            return np.hstack([self.stiffness, self.damping])
        import scipy.sparse

        return scipy.sparse.hstack([self.stiffness, self.damping], format="csr")

    def momentum(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """g(u, v) = K u + C v + B^T rho(B v); a law without element rows also takes blocks of columns."""
        # ndarray.dot: on the few-element blocks of a suspension it costs a third of ``@``
        out = self._stiffness_damping.dot(np.concatenate([u, v]))
        if len(self.rates):
            out += self.rates.T.dot(self.slope * friction_shape(self.rates.dot(v), self.smoothing))
        return out

    def restoring(self, y: np.ndarray) -> np.ndarray:
        """R(Y) = [-v; g(u, v)]."""
        n = self.n_dofs
        return np.concatenate([-y[n:], self.momentum(y[:n], y[n:])])

    @property
    def tangent(self) -> np.ndarray:
        """Jacobian ``[[0, -I], [K, C]]`` of R at the zero state, dense."""
        n = self.n_dofs
        r0 = np.zeros((2 * n, 2 * n))
        r0[:n, n:] = -np.eye(n)
        r0[n:, :n] = dense(self.stiffness)
        r0[n:, n:] = dense(self.damping)
        return r0

    @property
    def A(self) -> np.ndarray:
        n = self.n_dofs
        a = np.zeros((2 * n, 2 * n))
        a[:n, :n] = np.eye(n)
        a[n:, n:] = dense(self.mass)
        return a


def restoring_force(sub: Substructure, y: np.ndarray) -> np.ndarray:
    """Evaluate R(Y) = [-v; C v + K u + f_nl(u, v)] for a substructure."""
    yv = np.asarray(y, dtype=float)
    n = sub.n_dofs
    if yv.shape != (2 * n,):
        raise ModelError(f"state must have length {2 * n}, got {yv.shape}")
    return assemble_first_order(sub).restoring(yv)


def tangent_at_zero(sub: Substructure) -> np.ndarray:
    """Jacobian of the restoring force at the zero state.

    For a linear substructure this is exactly ``[[0, -I], [K, C]]``; for the
    suspension model the damper slope at rest is ``c1 + c2/c3`` per element.
    """
    return assemble_first_order(sub).tangent


def finite_difference_tangent(
    restoring: Callable[[np.ndarray], np.ndarray],
    state_size: int,
    at: np.ndarray | None = None,
    step: float | None = None,
) -> np.ndarray:
    """Central-difference Jacobian of a restoring-force callable.

    Cross-check for the analytic tangents; the solvers never use it.  Step
    defaults to 1e-6 * max(1, ||Y||).
    """
    y0 = np.zeros(state_size) if at is None else np.asarray(at, dtype=float)
    h = step if step is not None else 1e-6 * max(1.0, float(np.linalg.norm(y0)))
    jac = np.empty((state_size, state_size))
    for i in range(state_size):
        e = np.zeros(state_size)
        e[i] = h
        jac[:, i] = (restoring(y0 + e) - restoring(y0 - e)) / (2 * h)
    return jac


def assemble_first_order(sub: Substructure) -> FirstOrderForm:
    """Build the first-order form of a substructure.

    Layout: Y = [u; v], A = blockdiag(I, M), R(Y) = [-v; C v + K u + f_nl];
    external forces enter the velocity-block rows only.  Unsupported
    substructure types raise :class:`ModelError`.
    """
    if isinstance(sub, LinearSubstructure):
        stiffness, damping = sub.stiffness, sub.damping
        rates, slope, smoothing = np.zeros((0, sub.n_dofs)), np.zeros(0), np.zeros(0)
    elif isinstance(sub, NonlinearSubstructure):
        stiffness, damping = sub.tangent_matrices()
        rates = sub.incidence()
        smoothing = np.array([e.c3 for e in sub.elements], dtype=float)
        slope = -np.array([e.c2 for e in sub.elements], dtype=float) / smoothing
    else:
        raise ModelError(f"unsupported substructure type {type(sub).__name__}")
    return FirstOrderForm(
        n_dofs=sub.n_dofs,
        mass=sub.mass,
        stiffness=stiffness,
        damping=damping,
        rates=rates,
        slope=slope,
        smoothing=smoothing,
    )


def rayleigh_damping(mass, stiffness, alpha: float = 0.0, beta: float = 0.0):
    """Proportional damping C = alpha*M + beta*K, a CSR array if ``M`` or ``K`` is sparse."""
    if is_sparse(mass) or is_sparse(stiffness):
        return alpha * mass + beta * stiffness
    return alpha * np.asarray(mass, dtype=float) + beta * np.asarray(stiffness, dtype=float)
