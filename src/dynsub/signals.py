"""Excitation signal generation: multisines and band-limited white noise.

All randomness is drawn from ``numpy.random.default_rng`` (PCG64) with an
explicit seed, so regeneration with the same spec is bit-identical.  Band
limiting works by masking the FFT of white Gaussian noise outside the band
(DC excluded) and rescaling to the requested sample variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import number_tuple, require_numbers


class SignalError(ValueError):
    pass


@dataclass(frozen=True)
class SignalSpec:
    """Parameters of one excitation channel.

    kind "multisine": sum of sines at ``frequencies`` (Hz) with ``amplitudes``
    and ``phases`` (random if omitted), optionally corrupted by white noise of
    variance ``noise_variance``.  kind "bandlimited_noise": Gaussian noise
    band-limited to ``band`` (Hz) with sample variance ``variance``.
    """

    kind: str
    sample_rate: float
    frequencies: tuple = ()
    amplitudes: tuple = ()
    phases: tuple | None = None
    band: tuple = (0.0, 0.0)
    variance: float = 1.0
    noise_variance: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("multisine", "bandlimited_noise"):
            raise SignalError(f"unknown signal kind {self.kind!r}")
        require_numbers(SignalError, False, "positive", sample_rate=self.sample_rate)
        require_numbers(SignalError, False, "non-negative", variance=self.variance, noise_variance=self.noise_variance)
        require_numbers(SignalError, True, "non-negative", seed=self.seed)
        if self.kind == "multisine":
            freqs = number_tuple(SignalError, "frequencies", self.frequencies, sign="finite")
            amps = number_tuple(SignalError, "amplitudes", self.amplitudes, sign="finite")
            if len(freqs) != len(amps):
                raise SignalError("frequencies and amplitudes must pair up")
            nyquist = self.sample_rate / 2
            if any(f >= nyquist for f in freqs):
                raise SignalError(f"multisine frequency above Nyquist ({nyquist} Hz)")
            object.__setattr__(self, "frequencies", freqs)
            object.__setattr__(self, "amplitudes", amps)
            if self.phases is not None:
                phases = number_tuple(SignalError, "phases", self.phases, sign="finite")
                if len(phases) != len(freqs):
                    raise SignalError("phases must pair up with frequencies")
                object.__setattr__(self, "phases", phases)
        else:
            band = number_tuple(SignalError, "band", self.band, sign="non-negative")
            nyquist = self.sample_rate / 2
            if len(band) != 2 or not band[0] < band[1] < nyquist:
                raise SignalError(f"field 'band' must hold two frequencies with 0 <= low < high "
                                  f"below Nyquist ({nyquist} Hz), got {band}")
            object.__setattr__(self, "band", band)


def generate_signal(spec: SignalSpec, n_samples: int) -> np.ndarray:
    """Sample one channel of the requested excitation.

    Deterministic for a fixed spec (seed included); multisine phases, when
    not given, are drawn uniformly from [0, 2*pi) with the channel seed.
    """
    if n_samples < 1:
        raise SignalError("need at least one sample")
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "multisine":
        t = np.arange(n_samples) / spec.sample_rate
        if spec.phases is None:
            phases = rng.uniform(0.0, 2 * np.pi, len(spec.frequencies))
        else:
            phases = np.asarray(spec.phases)
        x = np.zeros(n_samples)
        for f, a, p in zip(spec.frequencies, spec.amplitudes, phases):
            x += a * np.sin(2 * np.pi * f * t + p)
        if spec.noise_variance > 0:
            x += rng.normal(0.0, np.sqrt(spec.noise_variance), n_samples)
        return x
    # band-limited noise: frequency-domain masking, then rescale to variance
    white = rng.standard_normal(n_samples)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / spec.sample_rate)
    lo, hi = spec.band
    mask = (freqs > lo) & (freqs <= hi)
    mask[0] = False  # no DC offset
    spectrum[~mask] = 0.0
    x = np.fft.irfft(spectrum, n=n_samples)
    sample_var = float(np.var(x))
    if sample_var > 0 and spec.variance > 0:
        x *= np.sqrt(spec.variance / sample_var)
    elif spec.variance == 0:
        x = np.zeros(n_samples)
    return x


def band_power_fraction(x: np.ndarray, sample_rate: float, band: tuple) -> float:
    """Fraction of periodogram power inside a frequency band (DC ignored)."""
    x = np.asarray(x, dtype=float)
    spectrum = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(len(x), d=1.0 / sample_rate)
    spectrum[0] = 0.0
    total = spectrum.sum()
    if total == 0:
        return 0.0
    lo, hi = band
    return float(spectrum[(freqs > lo) & (freqs <= hi)].sum() / total)


def multisine_with_noise_channels(
    n_channels: int,
    n_samples: int,
    sample_rate: float,
    frequencies,
    amplitudes,
    noise_variance: float,
    seed: int = 0,
    phases=None,
) -> np.ndarray:
    """Channels sharing one multisine, each with independent noise corruption.

    The sine content is drawn once from ``seed``, with random phases unless
    ``phases`` are given; channel ``i`` adds white noise from seed
    ``seed + 1 + i``.  ``noise_variance`` and ``seed`` meet the rules of
    :class:`SignalSpec`: a finite non-negative number and a non-negative integer.
    """
    require_numbers(SignalError, False, "non-negative", noise_variance=noise_variance)
    base_spec = SignalSpec(
        kind="multisine",
        sample_rate=sample_rate,
        frequencies=tuple(frequencies),
        amplitudes=tuple(amplitudes),
        phases=phases,
        seed=seed,
    )
    base = generate_signal(base_spec, n_samples)
    out = np.empty((n_samples, n_channels))
    for i in range(n_channels):
        rng = np.random.default_rng(seed + 1 + i)
        noise = rng.normal(0.0, np.sqrt(noise_variance), n_samples) if noise_variance > 0 else 0.0
        out[:, i] = base + noise
    return out
