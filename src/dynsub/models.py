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
"""

from __future__ import annotations

import inspect
import math
import numbers
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
import scipy.linalg


class ModelError(ValueError):
    """Raised when a substructure definition or state is inconsistent."""


def build_from_fields(factory, fields: dict, what: str):
    """Call ``factory(**fields)``; an unknown or missing field raises ModelError naming it.

    ``what`` leads the message of that error and of a ModelError that ``factory`` raises.
    """
    try:
        inspect.signature(factory).bind(**fields)
    except TypeError as exc:
        raise ModelError(f"{what}: {exc}") from None
    try:
        return factory(**fields)
    except ModelError as exc:
        raise ModelError(f"{what}: {exc}") from None


def require_numbers(error, integers: bool = False, **fields) -> None:
    """Raise ``error`` naming the first field that is not a real (or integer) number.

    Booleans and strings are rejected, so a JSON value of the wrong type
    fails here instead of in arithmetic further on.
    """
    kind = numbers.Integral if integers else numbers.Real
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, kind):
            what = "an integer" if integers else "a number"
            raise error(f"field {name!r} must be {what}, got {value!r}")


def number_tuple(error, name: str, value) -> tuple:
    """``value`` as a tuple of floats; a string, a mapping or a non-number entry raises ``error``."""
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Iterable):
        raise error(f"field {name!r} must be a list of numbers, got {value!r}")
    items = tuple(value)
    for item in items:
        if isinstance(item, bool) or not isinstance(item, numbers.Real):
            raise error(f"field {name!r} must be a list of numbers, got entry {item!r}")
    return tuple(float(item) for item in items)


def _as_locked_matrix(a, name: str) -> np.ndarray:
    m = np.array(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ModelError(f"{name} matrix must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise ModelError(f"field {name!r} holds a non-finite value ({m[i, j]}) in row {i}, column {j}")
    m.setflags(write=False)
    return m


def _require_finite(**fields) -> None:
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ModelError(f"field {name!r} must be finite, got {value}")


def _check_symmetric(m: np.ndarray, name: str, rtol: float = 1e-10) -> None:
    scale = np.abs(m).max()
    if scale > 0 and np.abs(m - m.T).max() > rtol * scale:
        raise ModelError(f"{name} is not symmetric within relative tolerance {rtol}")


@dataclass(frozen=True)
class LinearSubstructure:
    """Linear substructure defined by mass, damping and stiffness matrices.

    ``internal_dofs`` and ``boundary_dofs`` must together cover every DOF
    exactly once; boundary DOFs are the ones exposed for coupling.
    """

    mass: np.ndarray
    damping: np.ndarray
    stiffness: np.ndarray
    internal_dofs: tuple
    boundary_dofs: tuple

    def __post_init__(self):
        m = _as_locked_matrix(self.mass, "mass")
        c = _as_locked_matrix(self.damping, "damping")
        k = _as_locked_matrix(self.stiffness, "stiffness")
        if not (m.shape == c.shape == k.shape):
            raise ModelError(
                f"matrix sizes disagree: mass {m.shape}, damping {c.shape}, stiffness {k.shape}"
            )
        _check_symmetric(m, "mass matrix")
        _check_symmetric(k, "stiffness matrix")
        if np.any(np.diag(m) <= 0):
            raise ModelError("mass matrix must have a strictly positive diagonal")
        n = m.shape[0]
        internal = tuple(int(i) for i in self.internal_dofs)
        boundary = tuple(int(i) for i in self.boundary_dofs)
        cover = sorted(internal + boundary)
        if cover != list(range(n)):
            raise ModelError(
                "internal and boundary DOFs must disjointly cover all "
                f"{n} DOFs, got internal={internal} boundary={boundary}"
            )
        object.__setattr__(self, "mass", m)
        object.__setattr__(self, "damping", c)
        object.__setattr__(self, "stiffness", k)
        object.__setattr__(self, "internal_dofs", internal)
        object.__setattr__(self, "boundary_dofs", boundary)

    @property
    def n_dofs(self) -> int:
        return self.mass.shape[0]


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
        _require_finite(mass=self.mass, k1=self.k1, c1=self.c1, c2=self.c2, c3=self.c3)
        if self.mass <= 0:
            raise ModelError(f"element mass must be positive, got {self.mass}")
        if self.c3 <= 0:
            raise ModelError(f"velocity-smoothing constant c3 must be positive, got {self.c3}")

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
        _require_finite(boundary_mass=self.boundary_mass)
        if self.boundary_mass <= 0:
            raise ModelError(f"boundary (attachment) mass must be positive, got {self.boundary_mass}")
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


def friction_shape(xd: np.ndarray, c3: np.ndarray) -> np.ndarray:
    """phi(xd, c3) = xd |xd| / (c3 + |xd|), so that ``rho = -(c2/c3) phi``.

    ``rho`` is what the friction force ``c2 xd / (c3 + |xd|)`` adds beyond
    its slope ``c2/c3`` at rest, without cancelling two quotients near 0.
    """
    magnitude = np.abs(xd)
    return xd * magnitude / (c3 + magnitude)


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
    never build them.
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

    def momentum(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """g(u, v) = K u + C v + B^T rho(B v); a law without element rows also takes blocks of columns."""
        # ndarray.dot: on the few-element blocks of a suspension it costs a third of ``@``
        out = self.stiffness.dot(u) + self.damping.dot(v)
        if len(self.rates):
            out += self.rates.T.dot(self.slope * friction_shape(self.rates.dot(v), self.smoothing))
        return out

    def restoring(self, y: np.ndarray) -> np.ndarray:
        """R(Y) = [-v; g(u, v)]."""
        n = self.n_dofs
        return np.concatenate([-y[n:], self.momentum(y[:n], y[n:])])

    @property
    def tangent(self) -> np.ndarray:
        """Jacobian ``[[0, -I], [K, C]]`` of R at the zero state."""
        n = self.n_dofs
        r0 = np.zeros((2 * n, 2 * n))
        r0[:n, n:] = -np.eye(n)
        r0[n:, :n] = self.stiffness
        r0[n:, n:] = self.damping
        return r0

    @property
    def A(self) -> np.ndarray:
        n = self.n_dofs
        a = np.zeros((2 * n, 2 * n))
        a[:n, :n] = np.eye(n)
        a[n:, n:] = self.mass
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


def stack_forms(forms) -> FirstOrderForm:
    """Block-diagonal first-order form of uncoupled forms, stepped as one.

    The stacked state is ``[u_1; ...; u_k; v_1; ...; v_k]``: all
    displacements, then all velocities, each in the order of ``forms``.
    ``M``, ``K``, ``C`` and ``B`` are block-diagonal, and the element
    coefficients ``slope`` and ``smoothing`` follow ``B``'s rows in member
    order.  A single form is returned as it is.
    """
    forms = tuple(forms)
    if len(forms) == 1:
        return forms[0]
    return FirstOrderForm(
        n_dofs=sum(f.n_dofs for f in forms),
        mass=scipy.linalg.block_diag(*(f.mass for f in forms)),
        stiffness=scipy.linalg.block_diag(*(f.stiffness for f in forms)),
        damping=scipy.linalg.block_diag(*(f.damping for f in forms)),
        rates=scipy.linalg.block_diag(*(f.rates for f in forms)),
        slope=np.concatenate([f.slope for f in forms]),
        smoothing=np.concatenate([f.smoothing for f in forms]),
    )


def rayleigh_damping(mass: np.ndarray, stiffness: np.ndarray, alpha: float = 0.0, beta: float = 0.0) -> np.ndarray:
    """Proportional damping C = alpha*M + beta*K."""
    return alpha * np.asarray(mass, dtype=float) + beta * np.asarray(stiffness, dtype=float)
