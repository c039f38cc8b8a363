"""Fidelity metrics: modal assurance criterion, frequency errors, MSE, smoothness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class MacMatrix:
    """Modal assurance criterion values; entries in [0, 1]."""

    values: np.ndarray

    @property
    def diagonal(self) -> np.ndarray:
        n = min(self.values.shape)
        return np.array([self.values[i, i] for i in range(n)])

    def max_off_diagonal(self) -> float:
        v = self.values.copy()
        n = min(v.shape)
        v[np.arange(n), np.arange(n)] = 0.0
        return float(v.max()) if v.size else 0.0


def mac(modes_a: np.ndarray, modes_b: np.ndarray, names: tuple = ("modes_a", "modes_b")) -> MacMatrix:
    """Cross modal assurance criterion between two mode-shape sets.

    Entry (i, j) is |phi_a_i . phi_b_j|^2 normalized by the squared norms, so
    it is invariant to the scaling of either shape and equals 1 for collinear
    shapes.  Modes are the columns; both sets must share the physical
    dimension.  A zero column raises :class:`MetricsError` naming its set
    (by ``names``) and its index.
    """
    a = np.atleast_2d(np.asarray(modes_a, dtype=float))
    b = np.atleast_2d(np.asarray(modes_b, dtype=float))
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise MetricsError(f"mode sets must share the physical dimension: {a.shape} vs {b.shape}")
    norm_a = np.sum(a * a, axis=0)
    norm_b = np.sum(b * b, axis=0)
    for name, norms in zip(names, (norm_a, norm_b)):
        zero = np.flatnonzero(norms == 0)
        if zero.size:
            raise MetricsError(f"{name}: column {zero[0]} is a zero-norm mode shape")
    cross = a.T @ b
    return MacMatrix(values=cross**2 / np.outer(norm_a, norm_b))


# A compared frequency at or below this fraction of the largest compared
# one counts as zero in the relative errors: a rigid mode's eigenvalue is
# round-off, about eps |K| / |M|, so its frequency reads about
# sqrt(eps) = 1.5e-8 of the highest one (the free 6-DOF chain's reads 1.53e-8
# rad/s, 1.1e-8 of its fourth).
_ZERO_FREQUENCY_FLOOR = 1e-6


@dataclass(frozen=True)
class FrequencyErrorTable:
    """Per-mode relative frequency errors plus their normalized MSE.

    NMSE is defined as mean((f_red - f_full)^2) / mean(f_full^2) over the
    compared modes.
    """

    full: np.ndarray
    reduced: np.ndarray
    relative_errors: np.ndarray
    nmse: float


def frequency_error_table(full_freqs, reduced_freqs, n: int) -> FrequencyErrorTable:
    """Compare the first ``n`` natural frequencies of two models.

    A frequency's relative error is against the full one, or the absolute
    error where the full one is zero.  A frequency at or below
    ``_ZERO_FREQUENCY_FLOOR`` of the largest compared one counts as zero
    there, so two rigid modes compare as error 0; ``full``, ``reduced`` and
    the NMSE keep the frequencies as they are.
    """
    full = np.asarray(full_freqs, dtype=float)
    red = np.asarray(reduced_freqs, dtype=float)
    if n > len(full) or n > len(red):
        raise MetricsError(f"cannot compare {n} modes: have {len(full)} and {len(red)}")
    full, red = full[:n], red[:n]
    floor = _ZERO_FREQUENCY_FLOOR * max(np.abs(full).max(initial=0.0), np.abs(red).max(initial=0.0))
    full0, red0 = (np.where(np.abs(f) <= floor, 0.0, f) for f in (full, red))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(full0 != 0, np.abs(red0 - full0) / np.abs(full0), np.abs(red0 - full0))
    denom = float(np.mean(full**2))
    nmse = float(np.mean((red - full) ** 2) / denom) if denom > 0 else float(np.mean((red - full) ** 2))
    return FrequencyErrorTable(full=full, reduced=red, relative_errors=rel, nmse=nmse)


def trajectory_mse(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Mean squared error between two equally sampled channels.

    Returns (mse, relative mse) with the relative value normalized by the
    mean square of the reference channel ``b``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise MetricsError(f"channel lengths differ: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    ref = float(np.mean(b**2))
    rel = mse / ref if ref > 0 else (0.0 if mse == 0 else float("inf"))
    return mse, rel


@dataclass(frozen=True)
class Smoothness:
    """Largest and RMS sample-to-sample increment of a channel."""

    max_increment: float
    rms_increment: float
    dt: float


def smoothness(channel: np.ndarray, dt: float) -> Smoothness:
    """First-difference roughness of a sampled channel at spacing ``dt``."""
    x = np.asarray(channel, dtype=float)
    if x.size < 2:
        raise MetricsError("smoothness needs at least two samples")
    d = np.diff(x)
    return Smoothness(
        max_increment=float(np.abs(d).max()),
        rms_increment=float(np.sqrt(np.mean(d**2))),
        dt=float(dt),
    )
