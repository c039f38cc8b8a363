"""Excitation generation: determinism, band limiting, channel structure."""

import numpy as np
import pytest

from dynsub import SignalSpec, generate_signal
from dynsub.signals import SignalError, band_power_fraction, multisine_with_noise_channels


class TestMultisine:
    def test_single_sine_peak_amplitude(self):
        # f = 1 Hz sampled at 4 Hz with zero phase: samples hit the crest exactly
        spec = SignalSpec(kind="multisine", sample_rate=4.0, frequencies=(1.0,),
                          amplitudes=(2.5,), phases=(0.0,))
        x = generate_signal(spec, 8)
        assert x.max() == pytest.approx(2.5, rel=1e-12)

    def test_zero_noise_variance_is_pure_sine(self):
        spec = SignalSpec(kind="multisine", sample_rate=100.0, frequencies=(3.0,),
                          amplitudes=(1.0,), phases=(0.2,), noise_variance=0.0)
        t = np.arange(50) / 100.0
        assert np.allclose(generate_signal(spec, 50), np.sin(2 * np.pi * 3.0 * t + 0.2))

    def test_deterministic_regeneration(self):
        spec = SignalSpec(kind="multisine", sample_rate=1000.0, frequencies=(5.0, 20.0),
                          amplitudes=(1.0, 0.5), noise_variance=0.3, seed=42)
        a = generate_signal(spec, 2000)
        b = generate_signal(spec, 2000)
        assert np.array_equal(a, b)

    def test_frequency_above_nyquist_rejected(self):
        with pytest.raises(SignalError, match="Nyquist"):
            SignalSpec(kind="multisine", sample_rate=100.0, frequencies=(60.0,), amplitudes=(1.0,))

    def test_channels_share_sine_content_but_not_noise(self):
        table = multisine_with_noise_channels(
            3, 4096, 1000.0, (5.0, 17.0), (1.0, 1.0), noise_variance=0.1, seed=7,
        )
        clean = multisine_with_noise_channels(
            3, 4096, 1000.0, (5.0, 17.0), (1.0, 1.0), noise_variance=0.0, seed=7,
        )
        # identical deterministic part
        assert np.array_equal(clean[:, 0], clean[:, 1])
        noise = table - clean
        # independent noise: distinct realizations, near-zero cross-correlation
        assert not np.array_equal(noise[:, 0], noise[:, 1])
        corr = np.corrcoef(noise.T)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.abs(off).max() < 0.1


class TestBandLimitedNoise:
    def test_variance_scaled_exactly(self):
        spec = SignalSpec(kind="bandlimited_noise", sample_rate=1000.0,
                          band=(0.0, 200.0), variance=1.0, seed=0)
        x = generate_signal(spec, 100_000)
        assert np.var(x) == pytest.approx(1.0, rel=1e-12)

    def test_power_confined_to_band(self):
        spec = SignalSpec(kind="bandlimited_noise", sample_rate=1000.0,
                          band=(0.0, 200.0), variance=1.0, seed=1)
        x = generate_signal(spec, 16384)
        assert band_power_fraction(x, 1000.0, (0.0, 200.0)) > 0.99
        # nothing above the edge either
        assert band_power_fraction(x, 1000.0, (200.0, 500.0)) < 1e-12

    def test_deterministic_regeneration(self):
        spec = SignalSpec(kind="bandlimited_noise", sample_rate=1000.0,
                          band=(10.0, 150.0), variance=2.0, seed=3)
        assert np.array_equal(generate_signal(spec, 4096), generate_signal(spec, 4096))

    def test_zero_variance_gives_zeros(self):
        spec = SignalSpec(kind="bandlimited_noise", sample_rate=1000.0,
                          band=(0.0, 200.0), variance=0.0, seed=0)
        assert np.all(generate_signal(spec, 512) == 0.0)

    def test_invalid_band_rejected(self):
        with pytest.raises(SignalError, match="band"):
            SignalSpec(kind="bandlimited_noise", sample_rate=1000.0, band=(200.0, 100.0))
        with pytest.raises(SignalError, match="Nyquist"):
            SignalSpec(kind="bandlimited_noise", sample_rate=1000.0, band=(0.0, 600.0))

    def test_negative_variance_rejected(self):
        with pytest.raises(SignalError, match="variance"):
            SignalSpec(kind="bandlimited_noise", sample_rate=1000.0, band=(0.0, 200.0), variance=-1.0)


@pytest.mark.parametrize("field, fields", [
    ("frequencies", {"kind": "multisine", "frequencies": "25", "amplitudes": [1, 1]}),
    ("amplitudes", {"kind": "multisine", "frequencies": [2], "amplitudes": 1}),
    ("phases", {"kind": "multisine", "frequencies": [2], "amplitudes": [1], "phases": ["0"]}),
    ("noise_variance", {"kind": "multisine", "noise_variance": "0.1"}),
    ("sample_rate", {"kind": "multisine", "sample_rate": None}),
    ("seed", {"kind": "multisine", "seed": 1.0}),
    ("band", {"kind": "bandlimited_noise", "band": [0, 100, 200]}),
    ("band", {"kind": "bandlimited_noise", "band": "ab"}),
    ("variance", {"kind": "bandlimited_noise", "band": [0, 100], "variance": True}),
])
def test_field_types_checked(field, fields):
    with pytest.raises(SignalError, match=repr(field)):
        SignalSpec(**{"sample_rate": 1000.0, **fields})


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, fields", [
    ("sample_rate", {"kind": "multisine", "sample_rate": _NAN}),
    ("sample_rate", {"kind": "multisine", "sample_rate": _INF}),
    ("sample_rate", {"kind": "multisine", "sample_rate": 0}),
    ("frequencies", {"kind": "multisine", "frequencies": [2, _NAN], "amplitudes": [1, 1]}),
    ("amplitudes", {"kind": "multisine", "frequencies": [2], "amplitudes": [_INF]}),
    ("phases", {"kind": "multisine", "frequencies": [2], "amplitudes": [1], "phases": [-_INF]}),
    ("noise_variance", {"kind": "multisine", "noise_variance": _NAN}),
    ("noise_variance", {"kind": "multisine", "noise_variance": -0.1}),
    ("band", {"kind": "bandlimited_noise", "band": [_NAN, 100]}),
    ("variance", {"kind": "bandlimited_noise", "band": [0, 100], "variance": _INF}),
    ("variance", {"kind": "bandlimited_noise", "band": [0, 100], "variance": -1}),
])
def test_field_ranges_checked(field, fields):
    # each of these sampled a signal of nan or inf, or silently dropped the noise
    with pytest.raises(SignalError, match=repr(field)):
        SignalSpec(**{"sample_rate": 1000.0, **fields})


def test_unknown_kind_rejected():
    with pytest.raises(SignalError, match="kind"):
        SignalSpec(kind="sawtooth", sample_rate=100.0)
