import tracemalloc

import numpy as np
import pytest

from abas import autodiff as ad
from abas import model
from abas import train as T
from abas.autodiff import Parameter, Tape, Tensor
from abas.model import (
    Discriminator,
    DiscriminatorConfig,
    Generator,
    GeneratorConfig,
    NoiseBundle,
)
from abas.nn import GATE_KINDS, SpectralNormState, matricize

from conftest import op_shapes


@pytest.fixture(scope="module")
def production():
    rng = np.random.default_rng(0)
    return Generator(GeneratorConfig(), rng), Discriminator(DiscriminatorConfig(), rng)


@pytest.fixture()
def tiny():
    rng = np.random.default_rng(1)
    return (
        Generator(GeneratorConfig.tiny(), rng),
        Discriminator(DiscriminatorConfig.tiny(), rng),
    )


class TestEncoder:
    def test_feature_map_trace_16000(self, production, rng):
        G, _ = production
        tape = Tape()
        ctx = G.encode_residual(tape.tensor(rng.standard_normal((1, 16000), dtype=np.float32)))
        assert op_shapes(tape, "conv1d") == [(32, 8000), (64, 4000), (64, 2000), (128, 1000),
                                             (1, 1000)]
        assert ctx.data.shape == (1, 1000)

    def test_fully_convolutional_scaling(self, production, rng):
        G, _ = production
        ctx = G.encode_residual(Tensor(rng.standard_normal((1, 1600), dtype=np.float32)))
        assert ctx.data.shape == (1, 100)

    def test_indivisible_length(self, production):
        G, _ = production
        with pytest.raises(ValueError, match="divisible by 16"):
            G.encode_residual(Tensor(np.zeros((1, 100), np.float32)))

    def test_below_minimum_length(self, production):
        G, _ = production
        with pytest.raises(ValueError, match="minimum"):
            G.encode_residual(Tensor(np.zeros((1, 512), np.float32)))


class TestDecoder:
    def test_shape(self, production, rng):
        G, _ = production
        hid = G.decode_context(Tensor(rng.standard_normal((1, 1000), dtype=np.float32)))
        assert hid.data.shape == (64, 1000)

    def test_zero_filters_zero_hidden(self, rng):
        G = Generator(GeneratorConfig.tiny(), rng)
        for layer in G.dec_layers:
            layer.filter.weight.data[...] = 0
        hid = G.decode_context(Tensor(np.zeros((1, 40), np.float32)))
        assert np.allclose(hid.data, 0.0)

    def test_length_preserved(self, production, rng):
        G, _ = production
        for m in (33, 64, 250):
            hid = G.decode_context(Tensor(rng.standard_normal((1, m), dtype=np.float32)))
            assert hid.data.shape == (64, m)


class TestUpsampler:
    def test_16x_shape(self, production, rng):
        G, _ = production
        tape = Tape()
        hid = tape.tensor(rng.standard_normal((64, 1000), dtype=np.float32))
        z = NoiseBundle.draw(np.random.default_rng(1), 32, 1000)
        out = G.upsample_adversarial(hid, z)
        shapes = op_shapes(tape, "concat_channels")
        assert [s[1] for s in shapes] == [2000, 4000, 8000, 16000]
        assert all(s[0] == 64 for s in shapes)
        assert out.data.shape == (1, 16000)

    def test_output_in_tanh_range(self, production, rng):
        G, _ = production
        hid = Tensor(5 * rng.standard_normal((64, 100), dtype=np.float32))
        z = NoiseBundle.draw(np.random.default_rng(2), 32, 100)
        out = G.upsample_adversarial(hid, z)
        assert np.all(np.abs(out.data) <= 1.0)

    def test_noise_shape_mismatch(self, production, rng):
        G, _ = production
        hid = Tensor(rng.standard_normal((64, 100), dtype=np.float32))
        with pytest.raises(ValueError, match="noise shape"):
            G.upsample_adversarial(hid, NoiseBundle.draw(np.random.default_rng(1), 32, 99))

    def test_same_seed_same_output(self, production, rng):
        G, _ = production
        hid = Tensor(rng.standard_normal((64, 100), dtype=np.float32))
        a = G.upsample_adversarial(hid, NoiseBundle.draw(np.random.default_rng(7), 32, 100))
        b = G.upsample_adversarial(hid, NoiseBundle.draw(np.random.default_rng(7), 32, 100))
        c = G.upsample_adversarial(hid, NoiseBundle.draw(np.random.default_rng(8), 32, 100))
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)


class TestGenerate:
    def test_shape_contract(self, production, rng):
        G, _ = production
        r = Tensor(rng.standard_normal((1, 16000), dtype=np.float32))
        out = G.generate(r, NoiseBundle.draw(np.random.default_rng(1), 32, 1000))
        assert out.data.shape == (1, 16000)

    def test_tapeless_generate_holds_no_memory(self, production, rng):
        # a forward pass without a tape keeps nothing once its output is dropped
        G, _ = production
        r = Tensor(rng.standard_normal((1, 16000), dtype=np.float32))
        z = NoiseBundle.draw(np.random.default_rng(1), 32, 1000)
        tracemalloc.start()
        try:
            out = G.generate(r, z)
            del out
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held, peak = current / 2**20, peak / 2**20
        assert held < 1.0, f"{held:.1f} MiB held after the forward (peak {peak:.0f} MiB)"

    def test_fully_convolutional_plus_discriminator(self, production, rng):
        G, D = production
        for L in (528, 1600):
            r = Tensor(rng.standard_normal((1, L), dtype=np.float32))
            out = G.generate(r, NoiseBundle.draw(np.random.default_rng(1), 32, L // 16))
            assert out.data.shape == (1, L)
            score = D.discriminate(out, r)
            assert score.data.shape == (1, 1)

    def test_gradient_flows_end_to_end(self):
        from abas.verify import gradient_suite

        results = dict(gradient_suite(scope="model", seed=0))
        assert results["generator_cascade[L=64]"] <= 1e-4

    def test_parameter_count_stable(self):
        counts = set()
        for seed in (0, 1, 2):
            G = Generator(GeneratorConfig(), np.random.default_rng(seed))
            counts.add(G.num_parameters())
        assert len(counts) == 1
        assert counts.pop() == 7_602_534

    def test_finiteness_over_seeds(self):
        cfg = GeneratorConfig.tiny()
        for seed in range(100):
            G = Generator(cfg, np.random.default_rng(seed))
            rng = np.random.default_rng(seed + 1000)
            r = Tensor(rng.uniform(-1, 1, size=(1, 96)).astype(np.float32))
            out = G.generate(r, NoiseBundle.draw(rng, cfg.noise_channels, 6))
            assert np.all(np.isfinite(out.data))


class TestGenerateSegments:
    @pytest.mark.parametrize("segment_len,n_seg,short,budget", [
        (1600, 1, 0, None), (1600, 4, 700, None), (1600, 10, 0, None), (1600, 23, 0, None),
        (528, 3, 0, None), (8000, 3, 0, None), (1600, 4, 700, 4800), (8000, 3, 0, 16000),
    ], ids=["1", "4-padded", "10", "23", "3-at-528", "3-at-8000-fft", "4-padded-in-3+1",
            "3-at-8000-fft-in-2+1"])
    def test_equals_one_forward_per_segment(self, production, rng, monkeypatch,
                                            segment_len, n_seg, short, budget):
        G, _ = production
        if budget is not None:  # a lower budget, so the segments span two forwards
            monkeypatch.setattr(model, "TAPELESS_FORWARD_SAMPLES", budget)
            assert model.segments_per_forward(segment_len, taped=False) < n_seg
        n = n_seg * segment_len - short
        residual = rng.standard_normal(n, dtype=np.float32)
        padded = np.zeros(n_seg * segment_len, np.float32)
        padded[:n] = residual
        noise = np.random.default_rng(3)
        m = segment_len // G.cfg.compression
        want = np.concatenate([
            G.generate(Tensor(padded[None, i * segment_len : (i + 1) * segment_len]),
                       NoiseBundle.draw(noise, G.cfg.noise_channels, m)).data[0]
            for i in range(n_seg)])[:n]
        got = G.generate_segments(residual, segment_len, np.random.default_rng(3))
        assert got.dtype == np.float32 and np.array_equal(got, want)

    @pytest.mark.parametrize("segment_len,n,forwards", [
        (16000, 48000, [3]), (16000, 16000 * 9 + 7000, [8, 2]), (1600, 37000, [24]),
        (1600, 1600 * 81 - 300, [80, 1]), (528, 528 * 243, [242, 1]),
    ], ids=["3s-at-16000", "9.4s-at-16000", "37000-at-1600", "81-at-1600", "243-at-528"])
    def test_forwards_hold_at_most_the_tapeless_budget(self, production, monkeypatch,
                                                       segment_len, n, forwards):
        G, _ = production
        assert model.TAPELESS_FORWARD_SAMPLES == 128000
        seen = []

        def spy(residual, noise):
            seen.append(residual.segments)
            return Tensor(np.zeros(residual.data.shape, np.float32), segments=residual.segments)

        monkeypatch.setattr(G, "generate", spy)
        assert G.generate_segments(np.zeros(n, np.float32), segment_len,
                                   np.random.default_rng(0)).shape == (n,)
        assert seen == forwards

    def test_tapeless_budget_peaks_below_one_taped_forward(self, production, rng):
        # the memory rule behind TAPELESS_FORWARD_SAMPLES: a tape-less forward
        # at the budget holds less than the taped forward plus backward that
        # a training phase runs at FORWARD_SAMPLES
        G, _ = production
        seg, n = 16000, model.TAPELESS_FORWARD_SAMPLES // 16000
        nch, m = G.cfg.noise_channels, seg // G.cfg.compression

        def peak(run) -> float:
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

        def tapeless():
            r = rng.standard_normal((1, n * seg), dtype=np.float32)
            G.generate(Tensor(r, segments=n), NoiseBundle.draw(rng, nch, n * m))

        def taped():
            tape = Tape()
            r = tape.tensor(rng.standard_normal((1, model.FORWARD_SAMPLES), dtype=np.float32))
            y = G.generate(r, NoiseBundle.draw(rng, nch, model.FORWARD_SAMPLES // 16))
            tape.backward(ad.batch_mean_(ad.abs_mean_(y)))

        try:
            budget, training = peak(tapeless), peak(taped)
        finally:
            for p in G.parameters():
                p.zero_grad()
        assert budget <= training, f"{budget:.1f} MiB tape-less against {training:.1f} MiB taped"


class TestDiscriminator:
    def test_trace_16000(self, production, rng):
        _, D = production
        tape = Tape()
        x = tape.tensor(rng.standard_normal((1, 16000), dtype=np.float32))
        r = Tensor(rng.standard_normal((1, 16000), dtype=np.float32))
        D.discriminate(x, r)
        assert op_shapes(tape, "conv1d") == [(16, 8000), (16, 4000), (32, 2000), (32, 1000),
                                             (64, 500), (32, 250)]

    def test_zero_weights_zero_score(self, rng):
        D = Discriminator(DiscriminatorConfig.tiny(), rng)
        for conv in D.layers:
            conv.weight.data[...] = 0
        score = D.discriminate(
            Tensor(rng.standard_normal((1, 528), dtype=np.float32)),
            Tensor(rng.standard_normal((1, 528), dtype=np.float32)),
        )
        assert score.item() == 0.0

    def test_score_finite(self, production, rng):
        _, D = production
        x = Tensor(rng.uniform(-1, 1, (1, 1600)).astype(np.float32))
        r = Tensor(rng.uniform(-1, 1, (1, 1600)).astype(np.float32))
        assert np.isfinite(D.discriminate(x, r).item())

    def test_length_mismatch(self, production):
        _, D = production
        with pytest.raises(ValueError, match="length mismatch"):
            D.discriminate(Tensor(np.zeros((1, 1600), np.float32)), Tensor(np.zeros((1, 800), np.float32)))


def _reachable(obj, kind, seen=None) -> list:
    """Every instance of kind reachable from obj through attributes and lists."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, np.ndarray):
        return []
    seen.add(id(obj))
    if isinstance(obj, kind):
        return [obj]
    if isinstance(obj, (list, tuple)):
        children = obj
    elif hasattr(obj, "__dict__"):
        children = vars(obj).values()
    else:
        return []
    return [found for child in children for found in _reachable(child, kind, seen)]


class TestTapeOutputs:
    def test_two_segment_conv_outputs_span_both_segments(self, tiny, rng):
        G, _ = tiny
        L = 96
        tape = Tape()
        G.encode_residual(tape.tensor(rng.standard_normal((1, 2 * L), dtype=np.float32), 2))
        assert op_shapes(tape, "conv1d") == [(4, L), (8, L // 2), (8, L // 4), (16, L // 8),
                                             (1, L // 8)]

    def test_taped_forward_equals_tapeless(self, tiny, rng):
        # so a forward run on a tape to read its feature maps shows the tape-less bits
        G, D = tiny
        x = rng.standard_normal((1, 2 * 96), dtype=np.float32)
        z = NoiseBundle.draw(np.random.default_rng(0), G.cfg.noise_channels, 2 * 6)
        tape = Tape()
        fake = G.generate(tape.tensor(x, 2), z)
        taped = D.discriminate(fake, tape.tensor(x, 2))
        plain = G.generate(Tensor(x, segments=2), z)
        assert np.array_equal(fake.data, plain.data)
        assert np.array_equal(taped.data, D.discriminate(plain, Tensor(x, segments=2)).data)

    def test_tapeless_forward_records_nothing(self, tiny, rng, monkeypatch):
        G, D = tiny

        def record(self, name, out_data, backward_fn):
            raise AssertionError(f"tape-less forward recorded {name}")

        monkeypatch.setattr(Tape, "record", record)
        x = Tensor(rng.standard_normal((1, 2 * 96), dtype=np.float32), segments=2)
        z = NoiseBundle.draw(np.random.default_rng(0), G.cfg.noise_channels, 2 * 6)
        fake = G.generate(x, z)
        score = D.discriminate(fake, x)
        assert fake.tape is None and score.tape is None and score.data.shape == (1, 2)


class TestInventory:
    """``self.layers`` must list every layer a model holds, or that layer would
    train without being saved or having its spectral norm advanced."""

    @pytest.mark.parametrize("gate_kind", sorted(GATE_KINDS))
    def test_every_held_tensor_is_listed(self, gate_kind):
        rng = np.random.default_rng(0)
        G = Generator(GeneratorConfig.tiny(gate_kind=gate_kind), rng)
        D = Discriminator(DiscriminatorConfig.tiny(), rng)
        for model in (G, D):
            held = _reachable(model, Parameter)
            assert held and {id(p) for p in held} == {id(p) for p in model.parameters()}
            held = _reachable(model, SpectralNormState)
            assert held and {id(s) for s in held} == {id(c.sn) for c in model.convs()}


class TestSpectralNormAdvance:
    def test_advance_changes_normalization(self, tiny, rng):
        G, _ = tiny
        x = Tensor(rng.standard_normal((1, 96), dtype=np.float32))
        z = NoiseBundle.draw(np.random.default_rng(0), G.cfg.noise_channels, 6)
        before = G.generate(x, z).data.copy()
        for _ in range(3):
            G.advance_spectral_norm()
        after = G.generate(x, z).data
        assert not np.array_equal(before, after)

    def test_forward_does_not_mutate_state(self, tiny, rng):
        G, _ = tiny
        us = [conv.sn.u.copy() for conv in G.convs()]
        x = Tensor(rng.standard_normal((1, 96), dtype=np.float32))
        G.generate(x, NoiseBundle.draw(np.random.default_rng(0), G.cfg.noise_channels, 6))
        for conv, u in zip(G.convs(), us):
            assert np.array_equal(conv.sn.u, u)

    def test_one_step_band(self, production):
        # after one advance, estimated sigma of each normalized matrix is
        # within [0.5, 2.0] of the true top singular value
        G, D = production
        from abas import nn

        for conv in G.convs() + D.convs():
            mat = matricize(conv.weight.data.astype(np.float64), conv.transpose_in_out)
            conv.sn.advance(mat)
            sigma = nn.estimate_sigma(mat, conv.sn)[0]
            top = np.linalg.svd(mat, compute_uv=False)[0]
            assert 0.5 <= top / sigma <= 2.0


SIGMOID_FROZEN = pytest.mark.xfail(
    strict=True,
    reason="the sigmoid gate halves the signal at every gated layer: with the residual "
    "at unit scale, at seeds 0-3 the smallest generator weight-gradient peak is "
    "1.6e-13..4.8e-12 (7e-16..1.9e-15 after a power-iteration advance) and swapping "
    "the residual moves the output by 5.5e-6..1.7e-5 (4.8e-7..7.2e-7) of its peak",
)


@pytest.mark.parametrize(
    "gate_kind,advance",
    [
        ("softmax_channel", False),
        pytest.param("sigmoid", False, marks=SIGMOID_FROZEN),
        ("softmax_channel", True),
        pytest.param("sigmoid", True, marks=SIGMOID_FROZEN),
    ],
    ids=["softmax_channel-init", "sigmoid-init", "softmax_channel-advanced", "sigmoid-advanced"],
)
def test_generator_is_conditioned(gate_kind, advance):
    """Full-size float32 generator, one G-phase loss as train_step builds it,
    both models set to the conditioning scale of the two clips: every
    weight gets a gradient in the normal float range, and the output depends
    on the residual with the noise held fixed. ``advance`` first runs the
    power iteration train_step runs before its G phase; without it the models
    are as built."""
    cfg = T.TrainConfig(seed=0, gate_kind=gate_kind, segment_len=1600)
    G, D = T.build_models(cfg)
    rng = np.random.default_rng(0)
    clips = [T.synthesize_clip(rng, cfg.segment_len) for _ in range(2)]
    residuals = T.residuals_for(clips, cfg.lpc_order, cfg.frame_len)
    G.cond_scale = D.cond_scale = T.conditioning_scale(residuals)
    x, r, r_other = clips[0][None, :], residuals[0][None, :], residuals[1][None, :]
    z = NoiseBundle.draw(rng, G.cfg.noise_channels, cfg.segment_len // G.cfg.compression)
    if advance:
        G.advance_spectral_norm()

    tape = Tape()
    fake = G.generate(tape.tensor(r), z)
    l1 = ad.abs_mean_(ad.sub_(fake, tape.tensor(x)))
    adv = D.discriminate(fake, tape.tensor(r))
    tape.backward(ad.add_(ad.scale_(l1, cfg.gamma), ad.scale_(adv, -(1.0 - cfg.gamma))))

    weights = [p for p in G.parameters() if p.name.endswith(".weight")]
    peaks = {p.name: float(np.max(np.abs(p.grad))) for p in weights}
    weakest = min(peaks, key=peaks.get)
    assert peaks[weakest] > 1e-10, f"{weakest}: max|grad| {peaks[weakest]:.3g}"
    tiny = np.finfo(np.float32).tiny
    n_sub = sum(np.count_nonzero((p.grad != 0) & (np.abs(p.grad) < tiny)) for p in weights)
    n_all = sum(p.grad.size for p in weights)
    assert n_sub < 1e-4 * n_all, f"{n_sub} of {n_all} weight-gradient entries subnormal"

    moved = G.generate(Tensor(r_other), z).data
    change = np.max(np.abs(moved - fake.data)) / np.max(np.abs(fake.data))
    assert change > 1e-4, f"swapping the residual moves the output by {change:.3g} of its peak"
