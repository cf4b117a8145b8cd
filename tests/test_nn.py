import numpy as np
import pytest

from abas import autodiff as ad
from abas import nn
from abas.autodiff import Parameter, Tape, Tensor
from abas.model import Discriminator, DiscriminatorConfig, Generator, GeneratorConfig
from abas.nn import matricize


class TestGatedConv:
    def test_zero_filter_weights(self, rng):
        layer = nn.GatedConvLayer(rng, "g", 4, 3, 7, nn.GATE_SOFTMAX, np.float64)
        layer.filter.weight.data[...] = 0
        out = layer(Tensor(rng.normal(size=(4, 16))))
        assert np.allclose(out.data, 0.0)

    def test_single_output_channel_softmax_gate_is_identity(self, rng):
        layer = nn.GatedConvLayer(rng, "g", 4, 1, 7, nn.GATE_SOFTMAX, np.float64)
        x = Tensor(rng.normal(size=(4, 16)))
        out = layer(x)
        filt = ad.tanh_(layer.filter(x))
        assert np.allclose(out.data, filt.data)

    def test_output_bounded(self, rng):
        layer = nn.GatedConvLayer(rng, "g", 2, 5, 7, nn.GATE_SOFTMAX, np.float32)
        x = Tensor(rng.normal(size=(2, 40)).astype(np.float32) * 5)
        out = layer(x)
        assert np.max(np.abs(out.data)) <= 5.0
        gate = ad.scale_(ad.channel_softmax(layer.gate(x)), 5)
        assert np.allclose(gate.data.sum(axis=0), 5.0, rtol=1e-6)

    @pytest.mark.parametrize("gate_kind", nn.GATE_KINDS)
    def test_fused_gate_matches_direct_composition(self, rng, gate_kind):
        layer = nn.GatedConvLayer(rng, "g", 3, 4, 7, gate_kind, np.float64)
        x = Tensor(rng.normal(size=(3, 20)))
        out = layer(x)
        if gate_kind == nn.GATE_SOFTMAX:
            gate = ad.scale_(ad.channel_softmax(layer.gate(x)), 4)
        else:
            gate = ad.sigmoid_(layer.gate(x))
        direct = ad.mul_(ad.tanh_(layer.filter(x)), gate)
        assert np.array_equal(out.data, direct.data)
        tape = Tape()
        layer(tape.tensor(x.data))
        assert [name for name, _ in tape.outputs()] == [
            "spectral_normalize", "spectral_normalize", "gated_conv_pair"
        ]

    def test_length_preserved(self, rng):
        layer = nn.GatedConvLayer(rng, "g", 2, 2, 65, nn.GATE_SOFTMAX, np.float32)
        for L in (33, 64, 100, 1000):
            out = layer(Tensor(rng.normal(size=(2, L)).astype(np.float32)))
            assert out.data.shape == (2, L)

    def test_channel_mismatch(self, rng):
        layer = nn.GatedConvLayer(rng, "g", 3, 4, 7, nn.GATE_SOFTMAX, np.float32)
        with pytest.raises(ValueError, match="channel mismatch"):
            layer(Tensor(np.zeros((2, 20), np.float32)))


class TestSpectralNorm:
    def _converged_sigma(self, w, iters=50, transpose=False, seed=0):
        state = nn.SpectralNormState(np.random.default_rng(seed), w.shape[1 if transpose else 0], w.dtype)
        mat = matricize(w, transpose)
        for _ in range(iters):
            state.advance(mat)
        return nn.estimate_sigma(mat, state)[0], state

    def test_unit_norm_fixed_point(self):
        w = np.array([[1.0, 0.0], [0.0, 0.5]]).reshape(2, 2, 1)
        sigma, state = self._converged_sigma(w)
        view = nn.spectral_normalize(Parameter("w", w), state)
        assert np.allclose(view.data, w, atol=1e-6)

    def test_svd_oracle(self):
        w = np.array([[2.0, 0.0], [0.0, 1.0]]).reshape(2, 2, 1)
        sigma, state = self._converged_sigma(w, iters=20)
        view = nn.spectral_normalize(Parameter("w", w), state)
        assert np.allclose(view.data.reshape(2, 2), [[1.0, 0.0], [0.0, 0.5]], atol=1e-3)

    def test_scale_invariance_after_convergence(self, rng):
        w = rng.normal(size=(4, 3, 5))
        s1, st1 = self._converged_sigma(w)
        out1 = nn.spectral_normalize(Parameter("w", w), st1).data
        s2, st2 = self._converged_sigma(3.0 * w)
        out2 = nn.spectral_normalize(Parameter("w", 3.0 * w), st2).data
        assert np.allclose(out1, out2, atol=1e-8)

    def test_zero_weight(self, rng):
        w = Parameter("w", np.zeros((3, 2, 4)))
        state = nn.SpectralNormState(rng, 3, np.float64)
        assert np.all(nn.spectral_normalize(w, state).data == 0)

    def test_convergence_to_unit_top_singular_value(self, rng):
        # shapes with a separated top singular value; the last one is the
        # largest production shape given a dominant rank-1 component
        big = rng.normal(size=(64, 32, 65))
        big += 3.0 * np.outer(rng.normal(size=64), rng.normal(size=32 * 65)).reshape(big.shape) / np.sqrt(32 * 65)
        cases = [(rng.normal(size=(8, 5, 7)), False), (rng.normal(size=(6, 4, 9)), True), (big, False)]
        for w, transpose in cases:
            sigma, state = self._converged_sigma(w, iters=50, transpose=transpose)
            mat = matricize(w, transpose)
            top = np.linalg.svd(mat, compute_uv=False)[0]
            assert abs(sigma - top) <= 1e-3 * top
            normalized = matricize(
                nn.spectral_normalize(Parameter("w", w), state, transpose_in_out=transpose).data,
                transpose,
            )
            assert abs(np.linalg.svd(normalized, compute_uv=False)[0] - 1.0) <= 1e-3

    @pytest.mark.xfail(
        strict=True,
        reason="iid-initialized matrices at 64x2080 have a clustered top of the "
        "spectrum; 50 power iterations reach ~1e-2, not 1e-3",
    )
    def test_convergence_at_init_shapes(self, rng):
        w = rng.uniform(-0.03, 0.03, size=(32, 32, 65))
        sigma, _ = self._converged_sigma(w, iters=50)
        top = np.linalg.svd(matricize(w, False), compute_uv=False)[0]
        assert abs(top / sigma - 1.0) <= 1e-3

    def test_u_stays_unit_norm(self, rng):
        w = rng.normal(size=(5, 4, 3))
        state = nn.SpectralNormState(rng, 5, np.float64)
        mat = matricize(w, False)
        for _ in range(10):
            state.advance(mat)
            assert np.linalg.norm(state.u) == pytest.approx(1.0, abs=1e-6)

    def test_estimate_in_loose_band_after_one_step(self, rng):
        # one power iteration from random init: normalized top singular value
        # already lands in [0.5, 2.0] for typical weights
        for _ in range(20):
            w = rng.normal(size=(6, 5, 4))
            state = nn.SpectralNormState(rng, 6, np.float64)
            mat = matricize(w, False)
            state.advance(mat)
            sigma = nn.estimate_sigma(mat, state)[0]
            top = np.linalg.svd(mat, compute_uv=False)[0]
            assert 0.5 <= top / sigma <= 2.0


class TestConstantLayers:
    """Layers whose parameters a tape holds constant, as train_step's G phase
    holds D's: the weight is normalised tape-less and reaches the op as a
    tape-less Tensor, the bias as a raw array."""

    LAYERS = {
        "conv1d": lambda rng: nn.Conv1d(rng, "c", 4, 6, 5, 2, (2, 2), "zero"),
        "conv1d narrowing": lambda rng: nn.Conv1d(rng, "n", 4, 2, 5, 1, (2, 2), "reflect"),
        "tconv1d": lambda rng: nn.TConv1d(rng, "t", 4, 3, 6, 2, (2, 2)),
        "gated_conv_pair": lambda rng: nn.GatedConvLayer(rng, "g", 4, 4, 5),
    }

    @pytest.mark.parametrize("kind", LAYERS)
    def test_no_weight_gradient_same_input_gradient(self, kind, rng, monkeypatch):
        layer = self.LAYERS[kind](rng)
        # two segments of 700: the blocks of 1024 columns cross the segment edge
        x = rng.standard_normal((4, 2 * 700)).astype(np.float32)
        wgrads, im2col_wgrad = [], ad._im2col_wgrad

        def wgrad_spy(*args, **kwargs):
            wgrads.append(args[0].shape)
            return im2col_wgrad(*args, **kwargs)

        monkeypatch.setattr(ad, "_im2col_wgrad", wgrad_spy)

        def run(constants):
            """The ops recorded, the output and the input gradient."""
            tape = Tape(constants=constants)
            xt = tape.tensor(x, 2)
            y = layer(xt)
            g = np.random.default_rng(1).standard_normal(y.data.shape).astype(np.float32)
            tape.backward(ad.batch_mean_(ad.mean_(ad.mul_(y, Tensor(g, segments=2)))))
            return [name for name, _ in tape.outputs()], y.data, tape.grad_of(xt)

        _, want_y, want_gx = run(())
        assert wgrads and all(p.grad is not None for p in layer.parameters())
        for p in layer.parameters():
            p.zero_grad()
        del wgrads[:]
        ops, y, gx = run(layer.parameters())
        assert "spectral_normalize" not in ops
        assert wgrads == []
        assert all(p.grad is None for p in layer.parameters())
        assert np.array_equal(y, want_y)
        assert gx.dtype == want_gx.dtype and np.array_equal(gx, want_gx)


class TestXavier:
    def test_limit_formula(self, rng):
        vals = nn.xavier_init(rng, (1000,), 3, 3, np.float64)
        assert np.max(np.abs(vals)) <= 1.0

    def test_bounds(self, rng):
        fan_in, fan_out = 32 * 64, 64 * 64
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        vals = nn.xavier_init(rng, (64, 32, 64), fan_in, fan_out, np.float32)
        assert np.max(np.abs(vals)) <= limit

    def test_deterministic_per_seed(self):
        a = nn.xavier_init(np.random.default_rng(42), (3, 4), 4, 3, np.float32)
        b = nn.xavier_init(np.random.default_rng(42), (3, 4), 4, 3, np.float32)
        assert np.array_equal(a, b)

    def test_biases_zero_in_layers(self, rng):
        conv = nn.Conv1d(rng, "c", 2, 3, 5)
        assert np.all(conv.bias.data == 0)


class TestLayerPlumbing:
    def test_parameter_names_unique(self, rng):
        layer = nn.GatedConvLayer(rng, "layer0", 2, 2, 7)
        names = [p.name for p in layer.parameters()]
        assert len(names) == len(set(names)) == 4

    def test_convs_in_checkpoint_order(self):
        # each gated layer expands into its filter then its gate; only the
        # upsampler's transposed convs hold (in, out, k) weights
        G = Generator(GeneratorConfig.tiny(), np.random.default_rng(0))
        convs = G.convs()
        names = [conv.weight.name for conv in convs]
        assert names == [p.name for p in G.parameters() if p.name.endswith(".weight")]
        assert names[:8] == [
            "G.enc.down0.weight", "G.enc.down1.weight", "G.enc.down2.weight",
            "G.enc.down3.weight", "G.enc.compress.weight", "G.dec.expand.weight",
            "G.dec.gated0.filter.weight", "G.dec.gated0.gate.weight",
        ]
        assert {c.weight.name for c in convs if c.transpose_in_out} == {
            f"G.up.{kind}{i}{sfx}.weight" for kind, sfx in (("stage", ".tconv"), ("noise", ""))
            for i in range(4)}
        D = Discriminator(DiscriminatorConfig.tiny(), np.random.default_rng(0))
        assert [c.weight.name for c in D.convs()] == [f"D.layer{i}.weight" for i in range(6)]
        assert not any(c.transpose_in_out for c in D.convs())
