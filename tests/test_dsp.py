import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_toeplitz

from abas import dsp
from abas.dsp import (
    AudioSignal,
    LpcTrack,
    autocorrelate,
    cross_synthesize,
    frame_signal,
    inverse_filter,
    levinson_durbin,
    lpc_analyze,
    lpc_synthesize,
    synthesis_filter,
)

from conftest import stable_lpc_coeffs


class TestFrameSignal:
    def test_exact_division(self):
        frames = frame_signal(np.ones(640), 320)
        assert frames.shape == (2, 320)

    def test_padding_rule(self):
        x = np.arange(321, dtype=np.float64)
        frames = frame_signal(x, 320)
        assert frames.shape == (2, 320)
        assert frames[1, 0] == 320.0
        assert np.all(frames[1, 1:] == 0.0)

    def test_paper_geometry(self):
        assert frame_signal(np.ones(16000), 320).shape[0] == 50

    def test_concat_reproduces_padded_input(self, rng):
        x = rng.normal(size=1234)
        frames = frame_signal(x, 320)
        flat = frames.reshape(-1)
        assert np.array_equal(flat[:1234], x)
        assert np.all(flat[1234:] == 0)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty input"):
            frame_signal(np.empty(0), 320)

    def test_bad_frame_len(self):
        with pytest.raises(ValueError):
            frame_signal(np.ones(10), 0)


class TestAutocorrelate:
    def test_impulse(self):
        assert np.allclose(autocorrelate([1.0, 0.0, 0.0], 1), [1.0, 0.0])

    def test_two_ones(self):
        assert np.allclose(autocorrelate([1.0, 1.0], 1), [2.0, 1.0])

    def test_direct_sum_oracle(self, rng):
        x = rng.normal(size=64)
        r = autocorrelate(x, 10)
        for k in range(11):
            expect = sum(x[n] * x[n + k] for n in range(64 - k))
            assert r[k] == pytest.approx(expect, rel=1e-12)
        assert np.all(r[0] >= np.abs(r))

    def test_windowed(self, rng):
        x = rng.normal(size=32)
        w = np.hamming(32)
        r = autocorrelate(x, 3, window=w)
        wx = w * x
        assert r[2] == pytest.approx(np.dot(wx[:-2], wx[2:]), rel=1e-12)

    def test_lag_too_large(self):
        with pytest.raises(ValueError):
            autocorrelate([1.0, 2.0], 2)


class TestLevinsonDurbin:
    def test_uncorrelated(self):
        a, err = levinson_durbin([1.0, 0.0], 1)
        assert np.allclose(a, [0.0]) and err == 1.0

    def test_order_one(self):
        # 1x1 normal equation: a = r1 / r0, err = r0 - a*r1
        a, err = levinson_durbin([1.0, 0.5], 1)
        assert a == pytest.approx([0.5]) and err == pytest.approx(0.75)

    def test_order_two(self):
        # direct 2x2 Toeplitz solve gives a = [0.5, 0], err = 0.75
        a, err = levinson_durbin([1.0, 0.5, 0.25], 2)
        assert np.allclose(a, [0.5, 0.0], atol=1e-12)
        assert err == pytest.approx(0.75)

    def test_matches_toeplitz_solve(self, rng):
        for _ in range(200):
            order = int(rng.integers(1, 17))
            x = rng.normal(size=256)
            r = autocorrelate(x, order)
            a, err = levinson_durbin(r, order)
            direct = solve_toeplitz(r[:order], r[1 : order + 1])
            assert np.allclose(a, direct, atol=1e-8)
            assert err == pytest.approx(r[0] - np.dot(a, r[1 : order + 1]), rel=1e-8)

    def test_error_power_non_increasing(self, rng):
        x = rng.normal(size=256)
        r = autocorrelate(x, 16)
        errs = [levinson_durbin(r, p)[1] for p in range(1, 17)]
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))

    def test_silent_frame(self):
        a, err = levinson_durbin([0.0, 0.0, 0.0], 2)
        assert np.all(a == 0) and err == 0.0
        a, err = levinson_durbin([-1e-3, 0.0], 1)
        assert np.all(a == 0) and err == 0.0

    def test_short_autocorr(self):
        with pytest.raises(ValueError):
            levinson_durbin([1.0, 0.5], 2)


class TestFilters:
    def test_inverse_example(self):
        e = inverse_filter([1.0, 1.0, 1.0], [0.5], [0.0])
        assert np.allclose(e, [1.0, 0.5, 0.5])

    def test_zero_coeffs_identity(self, rng):
        x = rng.normal(size=50)
        assert np.allclose(inverse_filter(x, np.zeros(4), np.zeros(4)), x)

    def test_synthesis_example(self):
        y = synthesis_filter([1.0, 0.5, 0.5], [0.5], [0.0])
        assert np.allclose(y, [1.0, 1.0, 1.0])

    def test_zero_residual(self):
        assert np.allclose(synthesis_filter(np.zeros(8), [0.5], [0.0]), 0.0)

    def test_geometric_impulse_response(self):
        e = np.zeros(6)
        e[0] = 1.0
        y = synthesis_filter(e, [0.9], [0.0])
        assert np.allclose(y, 0.9 ** np.arange(6), rtol=1e-12)

    def test_history_mismatch(self):
        with pytest.raises(ValueError):
            inverse_filter([1.0], [0.5, 0.2], [0.0])

    def test_round_trip_random_stable(self, rng):
        for _ in range(20):
            order = int(rng.integers(1, 17))
            a = stable_lpc_coeffs(rng, order)
            x = rng.normal(size=200)
            hist = rng.normal(size=order)
            e = inverse_filter(x, a, hist)
            y = synthesis_filter(e, a, hist)
            assert np.max(np.abs(y - x)) <= 1e-9 * max(1.0, np.max(np.abs(x)))


class TestLpcPipeline:
    def test_white_noise_stays_flat(self, rng):
        x = AudioSignal(rng.normal(0, 0.1, 16000))
        track, res = lpc_analyze(x)
        assert np.abs(track.coeffs).mean() < 0.12
        ratio = np.sum(res.samples**2) / np.sum(x.samples**2)
        assert 0.9 < ratio < 1.1

    def test_silence(self):
        track, res = lpc_analyze(AudioSignal(np.zeros(640)))
        assert np.all(track.coeffs == 0)
        assert np.all(res.samples == 0)

    def test_geometry(self, clip16k):
        track, res = lpc_analyze(AudioSignal(clip16k))
        assert track.coeffs.shape == (50, 16)
        assert track.gains.shape == (50,)
        assert len(res.samples) == 16000
        assert track.order == 16
        assert track.coverage == 16000

    def test_round_trip_float64(self, rng):
        for _ in range(5):
            x = AudioSignal(rng.normal(0, 0.3, 3000))
            track, res = lpc_analyze(x)
            y = lpc_synthesize(res, track)
            padded = np.zeros(len(y.samples))
            padded[:3000] = x.samples
            assert np.max(np.abs(y.samples - padded)) <= 1e-9 * max(1.0, np.max(np.abs(padded)))

    def test_zero_residual_zero_output(self, clip16k):
        track, _ = lpc_analyze(AudioSignal(clip16k))
        out = lpc_synthesize(AudioSignal(np.zeros(16000)), track)
        assert np.all(out.samples == 0)

    def test_zero_track_identity(self, rng):
        x = rng.normal(size=640).astype(np.float64)
        track = LpcTrack(np.zeros((2, 16)), np.ones(2), frame_len=320)
        out = lpc_synthesize(AudioSignal(x), track)
        assert np.allclose(out.samples, x)

    def test_length_mismatch(self, clip16k):
        track, _ = lpc_analyze(AudioSignal(clip16k))
        with pytest.raises(ValueError, match="length mismatch"):
            lpc_synthesize(AudioSignal(np.zeros(100)), track)

    @pytest.mark.parametrize("order", [0, -2, 320])
    def test_order_outside_frame_rejected(self, order):
        with pytest.raises(ValueError, match=rf"LPC order must be in 1\.\.319, got {order}$"):
            lpc_analyze(AudioSignal(np.zeros(640)), order, 320)


def lpc_analyze_per_frame(samples, order, frame_len):
    """lpc_analyze as one frame at a time: the autocorrelation by a dot
    product per lag, the scalar Levinson-Durbin recursion and the inverse
    filter by convolution with the previous frame's tail. Also returns how
    many reflection coefficients the clamp cut."""
    frames = frame_signal(samples, frame_len).astype(np.float64)
    window = np.hamming(frame_len)
    coeffs, gains = np.zeros((len(frames), order)), np.zeros(len(frames))
    residual = np.empty(frames.size)
    history, clamped = np.zeros(order), 0
    for i, frame in enumerate(frames):
        x = frame * window
        r = np.array([np.dot(x[: frame_len - k], x[k:]) for k in range(order + 1)])
        if r[0] >= dsp.SILENCE_FLOOR:
            err = r[0]
            for j in range(1, order + 1):
                k = (r[j] - np.dot(coeffs[i, : j - 1], r[j - 1 : 0 : -1])) / err
                clamped += abs(k) > dsp.REFLECTION_LIMIT
                k = min(max(k, -dsp.REFLECTION_LIMIT), dsp.REFLECTION_LIMIT)
                prev = coeffs[i, : j - 1].copy()
                coeffs[i, : j - 1] = prev - k * prev[::-1]
                coeffs[i, j - 1] = k
                err *= 1.0 - k * k
            gains[i] = max(err, 0.0)
        else:
            gains[i] = max(r[0], 0.0)
        b = np.concatenate([[1.0], -coeffs[i]])
        residual[i * frame_len : (i + 1) * frame_len] = (
            np.convolve(np.concatenate([history, frame]), b)[order : order + frame_len])
        history = frame[-order:]
    return coeffs, gains, residual, clamped


class TestBatchedLpcAnalysis:
    """lpc_analyze solves every frame at once; it must give the per-frame
    loop's coefficients, gains and residual to 1e-12 of each one's peak."""

    @staticmethod
    def check(x, order=16, frame_len=320):
        track, res = lpc_analyze(AudioSignal(x), order, frame_len)
        coeffs, gains, residual, clamped = lpc_analyze_per_frame(x, order, frame_len)
        for got, want in ((track.coeffs, coeffs), (track.gains, gains), (res.samples, residual)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        return clamped

    def test_speech_with_silent_frames(self, clip16k):
        x = clip16k.astype(np.float64)
        x[3200:4800] = 0.0  # five silent frames
        x[9600:9920] = 1e-7  # one frame below the silence floor, not zero
        assert self.check(x) == 0
        track, _ = lpc_analyze(AudioSignal(x))
        assert np.all(track.coeffs[10:15] == 0) and np.all(track.coeffs[30] == 0)

    @pytest.mark.parametrize("order", [2, 16, 32])
    def test_clamped_reflections(self, order, rng):
        # low tones over a faint noise floor drive reflection coefficients
        # past REFLECTION_LIMIT
        t = np.arange(6400) / dsp.PIPELINE_RATE
        x = 0.5 * np.sin(2 * np.pi * 60 * t) + 0.3 * np.sin(2 * np.pi * 130 * t)
        x += 1e-6 * rng.normal(size=x.size)
        assert self.check(x, order) > 0

    def test_one_frame_and_odd_geometry(self, rng):
        for order, frame_len, n in [(1, 2, 1), (5, 7, 50), (32, 33, 1000), (16, 320, 321)]:
            self.check(rng.normal(size=n), order, frame_len)


@st.composite
def lpc_geometries(draw):
    """(order, frame_len, n): any order 1-32, any frame long enough for its
    autocorrelation, any signal length."""
    order = draw(st.integers(1, 32), label="order")
    frame_len = draw(st.integers(order + 1, 640), label="frame_len")
    return order, frame_len, draw(st.integers(1, 4000), label="n")


def _round_trip_error(x, order, frame_len):
    """Peak error of synthesize(analyze(x)) against the zero-padded input,
    relative to max(1, peak), as criterion 3 measures it."""
    track, res = lpc_analyze(AudioSignal(x), order, frame_len)
    y = lpc_synthesize(res, track).samples
    padded = np.zeros(len(y))
    padded[: len(x)] = x
    return np.max(np.abs(y - padded)) / max(1.0, np.max(np.abs(padded)))


class TestLpcRoundTripProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(lpc_geometries(), st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
    def test_white_noise(self, geometry, sigma, seed):
        order, frame_len, n = geometry
        x = np.random.default_rng(seed).normal(0, sigma, n)
        assert _round_trip_error(x, order, frame_len) <= 1e-9

    @pytest.mark.xfail(
        strict=True,
        reason="levinson_durbin returns non-minimum-phase predictors for a tone over a "
        "noise floor 40-100 dB down, so synthesis diverges: of 150 such 3200-sample tones "
        "at frame 320, 22 round-trip with error up to 8.5e-2 at order 16, 27 up to 1.2e50 "
        "at order 20 and 35 up to 3.9e216 at order 32 (pole radius up to 1.39)",
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(lpc_geometries(), st.floats(50.0, 7950.0), st.floats(40.0, 100.0),
           st.integers(0, 2**32 - 1))
    def test_tone_over_noise_floor(self, geometry, freq, db_down, seed):
        order, frame_len, n = geometry
        rng = np.random.default_rng(seed)
        t = np.arange(n) / dsp.PIPELINE_RATE
        x = 0.5 * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        x += 0.5 * 10 ** (-db_down / 20) * rng.normal(size=n)
        assert _round_trip_error(x, order, frame_len) <= 1e-9


def _envelope_db(x, order=16, frame_len=320, nfft=512):
    """Per-frame LPC-derived spectral envelope in dB (oracle for cross synthesis)."""
    track, _ = lpc_analyze(AudioSignal(x.astype(np.float32)), order, frame_len)
    envs = []
    for a, power in zip(track.coeffs, track.gains):
        a_poly = np.concatenate([[1.0], -a])
        spectrum = np.abs(np.fft.rfft(a_poly, nfft))
        gain = np.sqrt(max(power, 1e-12))
        envs.append(20 * np.log10(np.maximum(gain / np.maximum(spectrum, 1e-8), 1e-8)))
    return np.stack(envs)


class TestCrossSynthesize:
    def test_identity_round_trip(self, clip16k):
        x = AudioSignal(clip16k)
        track, _ = lpc_analyze(x)
        out = cross_synthesize(AudioSignal(clip16k), track)
        assert np.max(np.abs(out.samples - x.samples)) <= 1e-5

    def test_zeros(self, clip16k):
        track, _ = lpc_analyze(AudioSignal(clip16k))
        out = cross_synthesize(AudioSignal(np.zeros(16000, np.float32)), track)
        assert np.all(out.samples == 0)

    def test_noise_inherits_envelope(self, clip_bank, rng):
        for clip in clip_bank[:3]:
            track, res = lpc_analyze(AudioSignal(clip))
            sigma = float(np.sqrt(np.mean(res.samples.astype(np.float64) ** 2)))
            noise = rng.normal(0, sigma, 16000).astype(np.float32)
            out = cross_synthesize(AudioSignal(noise), track)
            env_x = _envelope_db(clip)
            d_out = np.sqrt(np.mean((_envelope_db(out.samples) - env_x) ** 2))
            d_noise = np.sqrt(np.mean((_envelope_db(noise) - env_x) ** 2))
            assert d_out < d_noise

    def test_length_mismatch(self, clip16k):
        track, _ = lpc_analyze(AudioSignal(clip16k))
        with pytest.raises(ValueError, match="length mismatch"):
            cross_synthesize(AudioSignal(np.zeros(100, np.float32)), track)

    def test_idempotent_near_identity(self, clip16k):
        # reapplication is stable when the carrier already matches the track
        x = AudioSignal(clip16k)
        track, _ = lpc_analyze(x)
        once = cross_synthesize(AudioSignal(clip16k), track)
        twice = cross_synthesize(once, track)
        rms = np.sqrt(np.mean(once.samples.astype(np.float64) ** 2))
        assert np.sqrt(np.mean((twice.samples - once.samples) ** 2)) <= 1e-4 * max(rms, 1.0)

    @pytest.mark.xfail(
        strict=True,
        reason="re-analysis of the output cannot recover the original track exactly; "
        "measured deviation is ~0.3-0.5 relative RMS for noise carriers",
    )
    def test_idempotent_generic_carrier(self, clip16k, rng):
        x = AudioSignal(clip16k)
        track, _ = lpc_analyze(x)
        noise = AudioSignal(rng.normal(0, 0.1, 16000).astype(np.float32))
        once = cross_synthesize(noise, track)
        twice = cross_synthesize(once, track)
        rms = np.sqrt(np.mean(once.samples.astype(np.float64) ** 2))
        assert np.sqrt(np.mean((twice.samples - once.samples) ** 2)) <= 1e-4 * rms


class TestAudioSignalInvariants:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            AudioSignal(np.array([0.0, np.nan]))

    def test_rejects_stereo(self):
        with pytest.raises(ValueError):
            AudioSignal(np.zeros((2, 100)))

    def test_lpc_track_invariants(self):
        with pytest.raises(ValueError, match="coeffs must be"):
            LpcTrack(np.zeros(16), np.zeros(1), 320)
        with pytest.raises(ValueError, match="2 frames but gains"):
            LpcTrack(np.zeros((2, 16)), np.zeros(3), 320)
        with pytest.raises(ValueError, match="non-finite"):
            LpcTrack(np.array([[0.0, np.inf]]), np.zeros(1), 320)
        with pytest.raises(ValueError, match="gains must be"):
            LpcTrack(np.zeros((2, 4)), np.array([0.0, -1.0]), 320)
