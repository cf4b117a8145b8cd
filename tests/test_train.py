import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from abas import autodiff as ad
from abas import dsp, model
from abas import train as T
from abas.autodiff import Parameter, Tape, Tensor
from abas.model import (
    Discriminator,
    DiscriminatorConfig,
    Generator,
    GeneratorConfig,
    NoiseBundle,
)
from abas.wavio import read_wav
from conftest import CHECKPOINT_DEFECTS, LOAD_DEFECTS, rewrite_checkpoint


def tiny_setup(cfg, model_seed=3):
    rngm = np.random.default_rng([model_seed, 0])
    G = Generator(GeneratorConfig.tiny(gate_kind=cfg.gate_kind), rngm)
    D = Discriminator(DiscriminatorConfig.tiny(), rngm)
    opt_g, opt_d = T.AdamState(G.parameters()), T.AdamState(D.parameters())
    clips = T.load_corpus(cfg)
    residuals = T.residuals_for(clips, cfg.lpc_order, cfg.frame_len)
    rng = np.random.default_rng([cfg.seed, 1])
    batches = T.make_batches(clips, residuals, cfg.segment_len, cfg.batch_size, rng, cfg.frame_len)
    return G, D, opt_g, opt_d, batches, rng, clips, residuals


class _Stop(Exception):
    pass


class _InputSpy:
    """Stands in for a conv layer and keeps a copy of every input it is called on."""

    def __init__(self, layer):
        self.layer, self.seen = layer, []

    def __call__(self, x):
        self.seen.append(x.data.copy())
        return self.layer(x)

    def __getattr__(self, name):
        return getattr(self.layer, name)


class TestLossArithmetic:
    def test_hinge_table(self):
        assert T.hinge_d_loss(2.0, -2.0) == pytest.approx(0.0, abs=1e-12)
        assert T.hinge_d_loss(0.0, 0.0) == pytest.approx(2.0, abs=1e-12)
        assert T.hinge_d_loss(-1.0, 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_hinge_batch_mean(self):
        assert T.hinge_d_loss([2.0, 0.0], [-2.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_hinge_nonnegative_and_zero_condition(self, rng):
        for _ in range(50):
            dr, df = rng.normal(size=4), rng.normal(size=4)
            val = T.hinge_d_loss(dr, df)
            assert val >= 0.0
            assert (val == 0.0) == (np.all(dr >= 1.0) and np.all(df <= -1.0))

    def test_generator_loss_table(self):
        assert T.generator_loss(0.0, 0.0, 0.5) == pytest.approx(0.0, abs=1e-12)
        assert T.generator_loss(1.0, 0.0, 0.00015) == pytest.approx(0.00015, abs=1e-12)
        assert T.generator_loss(2.0, 1.0, 0.00015) == pytest.approx(-0.99955, abs=1e-12)

    def test_generator_loss_monotonicity(self):
        assert T.generator_loss(2.0, 0.3, 0.2) > T.generator_loss(1.0, 0.3, 0.2)
        assert T.generator_loss(1.0, 1.0, 0.2) < T.generator_loss(1.0, 0.0, 0.2)

    def test_generator_loss_gamma_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                T.generator_loss(1.0, 1.0, bad)

    def test_taped_hinge_matches_float_form(self, rng):
        # the training graph builds the same arithmetic from autodiff ops
        for _ in range(10):
            dr, df = float(rng.normal()), float(rng.normal())
            tape = Tape()
            tr, tf = tape.tensor(np.array([[dr]])), tape.tensor(np.array([[df]]))
            loss = ad.add_(
                ad.relu_(ad.shift_(ad.scale_(tr, -1.0), 1.0)),
                ad.relu_(ad.shift_(tf, 1.0)),
            )
            assert loss.item() == pytest.approx(T.hinge_d_loss(dr, df), abs=1e-12)

    def test_taped_generator_loss_matches_float_form(self, rng):
        gamma = 0.00015
        for _ in range(10):
            l1, df = float(abs(rng.normal())), float(rng.normal())
            tape = Tape()
            tl, tf = tape.tensor(np.array([[l1]])), tape.tensor(np.array([[df]]))
            loss = ad.add_(ad.scale_(tl, gamma), ad.scale_(tf, -(1 - gamma)))
            assert loss.item() == pytest.approx(T.generator_loss(l1, df, gamma), abs=1e-12)


class TestAdamAmsgrad:
    def test_hand_derived_single_step(self):
        p = Parameter("th", np.array([0.0]))
        st = T.AdamState([p])
        p.grad = np.ones_like(p.data)
        T.adam_amsgrad_step([p], st, lr=0.0006, betas=(0.5, 0.99))
        # m=0.5, m_hat=1; v=0.01, vmax=0.01, v_hat=1; theta = -lr/(1+eps)
        expect = -0.0006 * 1.0 / (np.sqrt(1.0) + 1e-8)
        assert p.data[0] == pytest.approx(expect, abs=1e-12)

    def test_zero_gradient_is_noop(self):
        p = Parameter("th", np.array([1.25]))
        st = T.AdamState([p])
        T.adam_amsgrad_step([p], st, lr=0.01)
        assert p.data[0] == 1.25

    def test_vmax_never_decreases(self, rng):
        p = Parameter("th", np.zeros(8))
        st = T.AdamState([p])
        prev = st.vmax["th"].copy()
        for _ in range(100):
            p.grad = rng.normal(size=8)
            T.adam_amsgrad_step([p], st, lr=1e-3)
            assert np.all(st.vmax["th"] >= prev)
            assert np.all(st.vmax["th"] >= st.v["th"])
            prev = st.vmax["th"].copy()

    def test_quadratic_descent_monotone(self):
        p = Parameter("th", np.array([1.0]))
        st = T.AdamState([p])
        prev = 1.0
        for _ in range(300):
            p.grad = 2.0 * p.data
            T.adam_amsgrad_step([p], st, lr=0.01)
            cur = abs(float(p.data[0]))
            assert cur <= prev + 1e-15
            prev = cur
        assert prev < 0.01


class TestSyntheticCorpus:
    def test_files_written(self, tmp_path):
        paths = T.gen_synthetic_corpus(8, 16000, seed=5, out_dir=tmp_path)
        assert len(paths) == 8
        sig = read_wav(paths[0])
        assert len(sig.samples) == 16000
        assert np.max(np.abs(sig.samples)) <= 0.5 + 1 / 32768

    def test_residual_is_flatter(self, tmp_path):
        def flatness(x):
            p = np.abs(np.fft.rfft(x.astype(np.float64))) ** 2 + 1e-12
            return np.exp(np.mean(np.log(p))) / np.mean(p)

        paths = T.gen_synthetic_corpus(3, 16000, seed=6, out_dir=tmp_path)
        for p in paths:
            sig = read_wav(p)
            _, res = dsp.lpc_analyze(sig)
            assert flatness(res.samples) / flatness(sig.samples) > 1.0

    def test_byte_identical_per_seed(self, tmp_path):
        a = T.gen_synthetic_corpus(2, 4000, seed=7, out_dir=tmp_path / "a")
        b = T.gen_synthetic_corpus(2, 4000, seed=7, out_dir=tmp_path / "b")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()
        c = T.gen_synthetic_corpus(1, 4000, seed=8, out_dir=tmp_path / "c")
        assert c[0].read_bytes() != a[0].read_bytes()


class TestMakeBatches:
    def test_offsets_on_grid(self):
        cfg = T.TrainConfig(batch_size=4, segment_len=1600, steps=1, seed=0,
                            synthetic={"n_clips": 2, "clip_len": 16000})
        clips = T.load_corpus(cfg)
        marked = [np.arange(len(c), dtype=np.float32) for c in clips]
        rng = np.random.default_rng(0)
        batches = T.make_batches(marked, marked, 1600, 4, rng, cfg.frame_len)
        for _ in range(10):
            for x, r in next(batches):
                assert int(x[0, 0]) % 320 == 0
                assert np.array_equal(x, r)

    def test_train_loop_crops_on_the_analysis_frame(self, monkeypatch, tmp_path):
        # at 30 ms the analysis frame is 480 samples; every crop must start one
        cfg = T.TrainConfig(frame_ms=30, batch_size=16, segment_len=528, steps=1,
                            synthetic={"n_clips": 2, "clip_len": 4800})
        clips = T.load_corpus(cfg)
        offsets = []

        def spy(batch, *args):
            for x, _ in batch:
                offsets.extend(int(o) for c in clips for o in np.flatnonzero(c == x[0, 0])
                               if np.array_equal(c[o : o + 528], x[0]))
            raise _Stop

        monkeypatch.setattr(T, "train_step", spy)
        with pytest.raises(_Stop):
            T.train_loop(cfg, tmp_path)
        assert len(offsets) == 16
        assert [o % 480 for o in offsets] == [0] * len(offsets)

    def test_coverage_in_expectation(self):
        clips = [np.full(1600, float(i), dtype=np.float32) for i in range(4)]
        rng = np.random.default_rng(1)
        batches = T.make_batches(clips, clips, 1600, 4, rng, 320)
        seen = set()
        for _ in range(8):
            for x, _ in next(batches):
                seen.add(int(x[0, 0]))
        assert seen == {0, 1, 2, 3}

    def test_same_seed_same_crops(self):
        clips = [np.arange(16000, dtype=np.float32)]
        seqs = []
        for _ in range(2):
            rng = np.random.default_rng(9)
            batches = T.make_batches(clips, clips, 1600, 2, rng, 320)
            seqs.append([int(x[0, 0]) for _ in range(5) for x, _ in next(batches)])
        assert seqs[0] == seqs[1]

    def test_short_clips_skipped_with_warning(self):
        clips = [np.zeros(100, np.float32), np.zeros(1600, np.float32)]
        rng = np.random.default_rng(0)
        with pytest.warns(UserWarning, match="shorter than segment_len"):
            batches = T.make_batches(clips, clips, 1600, 1, rng, 320)
            next(batches)

    def test_all_clips_too_short(self):
        clips = [np.zeros(100, np.float32)]
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="segment longer"):
                next(T.make_batches(clips, clips, 1600, 1, np.random.default_rng(0), 320))


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            T.TrainConfig(gamma=0.0)
        with pytest.raises(ValueError, match="divisible by 16"):
            T.TrainConfig(segment_len=1000)
        with pytest.raises(ValueError, match="divisible by 16"):
            T.TrainConfig(segment_len=512)
        with pytest.raises(ValueError, match="gate"):
            T.TrainConfig(gate_kind="relu")

    @pytest.mark.parametrize("field,value,named", [
        ("batch_size", 0, "batch_size must be an int >= 1"),
        ("batch_size", 2.0, "batch_size must be an int"),
        ("steps", -1, "steps must be an int >= 0"),
        ("checkpoint_every", -1, "checkpoint_every must be an int >= 0"),
        ("seed", -1, "seed must be an int >= 0"),
        ("seed", True, "seed must be an int"),
        ("frame_ms", 0, "frame_ms must be an int >= 1"),
        ("lpc_order", 0, "lpc_order must be an int >= 1"),
        ("lpc_order", 320, "lpc_order must be below the frame length 320"),
        ("lr_g", 0.0, "learning rates must be positive"),
        ("lr_d", float("nan"), "lr_d must be a finite number"),
        ("betas", (0.5,), "betas must be two numbers"),
        ("betas", (0.5, 1.0), "betas must be two numbers"),
        ("betas", ("a", 0.9), "betas must be two numbers"),
        ("gamma", "x", "gamma must be a finite number"),
        ("segment_len", 1600.0, "segment_len must be an int"),
    ])
    def test_field_rejected(self, field, value, named):
        with pytest.raises(ValueError, match=named):
            T.TrainConfig(**{field: value})

    def test_defaults_echo_recipe(self):
        cfg = T.TrainConfig()
        assert (cfg.gamma, cfg.lr_d, cfg.lr_g) == (0.00015, 0.0006, 0.00015)
        assert cfg.betas == (0.5, 0.99)
        assert (cfg.batch_size, cfg.segment_len) == (32, 16000)
        assert (cfg.lpc_order, cfg.frame_ms, cfg.frame_len) == (16, 20, 320)

    def test_round_trip_dict(self):
        cfg = T.TrainConfig(gamma=0.5, steps=7, synthetic={"n_clips": 1, "clip_len": 1600})
        assert T.TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


class TestTrainStep:
    def _cfg(self, **kw):
        base = dict(
            gamma=0.5, batch_size=2, segment_len=528, steps=4, seed=3,
            synthetic={"n_clips": 2, "clip_len": 4160},
        )
        base.update(kw)
        return T.TrainConfig(**base)

    def test_deterministic_loss_trace(self):
        traces = []
        for _ in range(2):
            cfg = self._cfg()
            G, D, og, od, batches, rng, _, _ = tiny_setup(cfg)
            rows = [T.train_step(next(batches), G, D, og, od, cfg, rng) for _ in range(3)]
            traces.append([(s.d_loss, s.g_loss, s.l1, s.adv) for s in rows])
        assert traces[0] == traces[1]

    def test_losses_finite_and_consistent(self):
        cfg = self._cfg()
        G, D, og, od, batches, rng, _, _ = tiny_setup(cfg)
        for _ in range(3):
            s = T.train_step(next(batches), G, D, og, od, cfg, rng)
            assert all(np.isfinite(v) for v in (s.d_loss, s.g_loss, s.l1, s.adv))
            assert s.d_loss >= 0.0
            assert s.g_loss == pytest.approx(T.generator_loss(s.l1, s.adv, cfg.gamma), abs=1e-6)

    def test_step_changes_both_models(self):
        cfg = self._cfg()
        G, D, og, od, batches, rng, _, _ = tiny_setup(cfg)
        g0 = G.parameters()[0].data.copy()
        d0 = D.parameters()[0].data.copy()
        T.train_step(next(batches), G, D, og, od, cfg, rng)
        assert not np.array_equal(G.parameters()[0].data, g0)
        assert not np.array_equal(D.parameters()[0].data, d0)

    def test_gradients_zeroed_after_step(self):
        cfg = self._cfg()
        G, D, og, od, batches, rng, _, _ = tiny_setup(cfg)
        T.train_step(next(batches), G, D, og, od, cfg, rng)
        for p in G.parameters() + D.parameters():
            assert p.grad is None, p.name

    def test_float64_models_run_a_float32_batch_in_float64(self, monkeypatch):
        """The batch is cast to the models' dtype once: every tensor on a G-phase
        tape, the conditioning residual and the noise among them, and every
        noise draw of the step are float64."""
        cfg = self._cfg()
        rngm = np.random.default_rng([3, 0])
        G = Generator(GeneratorConfig.tiny(), rngm, np.float64)
        D = Discriminator(DiscriminatorConfig.tiny(), rngm, np.float64)
        og, od = T.AdamState(G.parameters()), T.AdamState(D.parameters())
        *_, batches, rng, _, _ = tiny_setup(cfg)
        batch = next(batches)
        assert {a.dtype for example in batch for a in example} == {np.dtype(np.float32)}
        g_phase, draws, real_draw = [], [], NoiseBundle.draw

        class SpyTape(Tape):
            def _new_node(self, data, segments=1):
                t = super()._new_node(data, segments)
                if self._constants:  # the G phase holds D constant
                    g_phase.append(t.data.dtype)
                return t

        def draw_spy(rng, channels, m, dtype=np.float32):
            bundle = real_draw(rng, channels, m, dtype)
            draws.append(bundle.base.dtype)
            return bundle

        monkeypatch.setattr(T, "Tape", SpyTape)
        monkeypatch.setattr(NoiseBundle, "draw", draw_spy)
        T.train_step(batch, G, D, og, od, cfg, rng)
        assert g_phase and set(g_phase) == {np.dtype(np.float64)}
        assert len(draws) == 2 * len(batch) and set(draws) == {np.dtype(np.float64)}

    def test_g_phase_holds_d_constant(self, monkeypatch):
        """Adam's G step sees no D gradient, and G gradients with the bits of a
        G phase that has D on its tapes."""
        cfg = self._cfg()

        def g_step_grads(d_on_tape):
            G, D, og, od, batches, rng, _, _ = tiny_setup(cfg)
            seen, adam = [], T.adam_amsgrad_step

            def adam_spy(params, *args, **kwargs):
                seen.append([None if p.grad is None else p.grad.copy()
                             for p in G.parameters() + D.parameters()])
                return adam(params, *args, **kwargs)

            with monkeypatch.context() as m:
                m.setattr(T, "adam_amsgrad_step", adam_spy)
                if d_on_tape:
                    m.setattr(T, "Tape", lambda constants=(): Tape())
                T.train_step(next(batches), G, D, og, od, cfg, rng)
            n_g = len(G.parameters())
            return seen[1][:n_g], seen[1][n_g:]

        g_grads, d_grads = g_step_grads(False)
        ref_g, ref_d = g_step_grads(True)
        assert all(g is None for g in d_grads)
        assert all(g is not None for g in ref_d)  # the reference had D on its tapes
        for a, b in zip(g_grads, ref_g):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_residual_target_mode_wiring(self, monkeypatch):
        cfg = self._cfg(target_mode="residual")
        G, D, og, od, batches, rng, clips, residuals = tiny_setup(cfg)
        batch = next(batches)
        seen = []
        orig = D.discriminate

        def spy(candidate, residual):
            seen.append((candidate.data.copy(), residual.data.copy()))
            return orig(candidate, residual)

        monkeypatch.setattr(D, "discriminate", spy)
        stats = T.train_step(batch, G, D, og, od, cfg, rng)
        # D-phase real pairs (the first half of its segments): each candidate
        # IS its conditioning residual
        n, seg = len(batch), cfg.segment_len
        cand, cond = seen[0]
        assert np.array_equal(cand[:, : n * seg], cond[:, : n * seg])
        assert np.array_equal(cond, np.concatenate([r for _, r in batch] * 2, axis=1))
        # L1 compares the fake against the residual: with G near init the
        # fake is closer to the residual scale than to speech
        assert stats.l1 == pytest.approx(stats.l1, abs=0)  # finite sanity
        fake_like = seen[1][0]
        assert fake_like.shape == (1, n * seg)

    def test_speech_mode_real_candidate_is_speech(self, monkeypatch):
        cfg = self._cfg()
        G, D, og, od, batches, rng, _, _ = tiny_setup(cfg)
        batch = next(batches)
        seen = []
        orig = D.discriminate

        def spy(candidate, residual):
            seen.append((candidate.data.copy(), residual.data.copy()))
            return orig(candidate, residual)

        monkeypatch.setattr(D, "discriminate", spy)
        T.train_step(batch, G, D, og, od, cfg, rng)
        n, seg = len(batch), cfg.segment_len
        cand, cond = seen[0]
        assert np.array_equal(cand[:, : n * seg], np.concatenate([x for x, _ in batch], axis=1))
        assert np.array_equal(cond, np.concatenate([r for _, r in batch] * 2, axis=1))

    def test_gamma_to_one_l1_descends_monotonically(self):
        # fixed-noise evaluation along the parameter trajectory of the
        # near-pure-regression limit on a one-segment corpus
        cfg = T.TrainConfig(gamma=0.999999, batch_size=1, segment_len=528, steps=50,
                            seed=3, synthetic={"n_clips": 1, "clip_len": 528})
        G, D, og, od, batches, rng, clips, residuals = tiny_setup(cfg)
        x, r = clips[0][None, :], residuals[0][None, :]
        z_eval = NoiseBundle.draw(np.random.default_rng(999), G.cfg.noise_channels, 528 // 16)

        def eval_l1():
            return float(np.mean(np.abs(G.generate(Tensor(r), z_eval).data - x)))

        vals = [eval_l1()]
        for _ in range(50):
            T.train_step(next(batches), G, D, og, od, cfg, rng)
            vals.append(eval_l1())
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < vals[0]

    def test_conditioning_scale_wiring(self, monkeypatch):
        # the models scale the residual where it enters G's encoder and D's
        # residual channel; the real candidate and the L1 target stay the raw residual
        cfg = self._cfg(target_mode="residual")
        G, D, og, od, batches, rng, _, _ = tiny_setup(cfg)
        batch = next(batches)
        scale = 4.0
        G.cond_scale = D.cond_scale = scale
        g_out, enc_in, d_in = [], _InputSpy(G.enc_convs[0]), _InputSpy(D.layers[0])
        g_orig = G.generate

        def g_spy(residual, noise):
            out = g_orig(residual, noise)
            g_out.append(out.data.copy())
            return out

        monkeypatch.setattr(G, "generate", g_spy)
        G.enc_convs[0], D.layers[0] = enc_in, d_in
        stats = T.train_step(batch, G, D, og, od, cfg, rng)
        n, seg = len(batch), cfg.segment_len
        # the D phase generates every fake in one forward and scores reals then
        # fakes in another; the G phase runs every example in one taped forward
        assert len(enc_in.seen) == 2 and len(d_in.seen) == 2
        for i, (_, r) in enumerate(batch):
            ex = slice(i * seg, (i + 1) * seg)
            for cond in (enc_in.seen[0][:, ex], enc_in.seen[1][:, ex]):
                assert np.array_equal(cond, r * scale)
            real, fake = d_in.seen[0][:, ex], d_in.seen[0][:, n * seg :][:, ex]
            g_phase = d_in.seen[1][:, ex]
            assert np.array_equal(real[0], r[0])
            assert all(np.array_equal(x[1], r[0] * scale) for x in (real, fake, g_phase))
        g_fake = g_out[1][0].astype(np.float64)
        l1 = np.mean([np.mean(np.abs(g_fake[i * seg : (i + 1) * seg] - r))
                      for i, (_, r) in enumerate(batch)])
        assert stats.l1 == pytest.approx(l1, rel=1e-5)

    def test_d_phase_fakes_equal_per_example_forwards(self, monkeypatch):
        # one noise per example, drawn in batch order, and each fake with the
        # bits of a forward on its example alone
        cfg = self._cfg(batch_size=3)
        G, D, og, od, batches, rng, _, _ = tiny_setup(cfg)
        batch = next(batches)
        replay = np.random.default_rng()
        replay.bit_generator.state = rng.bit_generator.state
        m = cfg.segment_len // G.cfg.compression
        want = [G.generate(Tensor(r), NoiseBundle.draw(replay, G.cfg.noise_channels, m)).data
                for _, r in batch]
        seen = []
        orig = D.discriminate

        def spy(candidate, residual):
            seen.append(candidate.data.copy())
            return orig(candidate, residual)

        monkeypatch.setattr(D, "discriminate", spy)
        T.train_step(batch, G, D, og, od, cfg, rng)
        n, seg = len(batch), cfg.segment_len
        for i, fake in enumerate(want):  # the D phase's candidates: reals, then fakes
            assert np.array_equal(seen[0][:, (n + i) * seg : (n + i + 1) * seg], fake)

    def test_sn_advances_once_per_phase(self):
        cfg = self._cfg()
        G, D, og, od, batches, rng, _, _ = tiny_setup(cfg)
        g_u = [conv.sn.u.copy() for conv in G.convs()]
        d_u = [conv.sn.u.copy() for conv in D.convs()]
        T.train_step(next(batches), G, D, og, od, cfg, rng)
        # every state with a non-degenerate u moved (u in R^1 is pinned at +-1)
        for conv, old in zip(D.convs(), d_u):
            if conv.sn.u.size > 1:
                assert not np.array_equal(conv.sn.u, old), conv.name
        for conv, old in zip(G.convs(), g_u):
            if conv.sn.u.size > 1:
                assert not np.array_equal(conv.sn.u, old), conv.name
            else:
                assert abs(float(conv.sn.u[0])) == pytest.approx(1.0, abs=1e-6)

    def test_divergence_reports_first_bad_tensor(self):
        cfg = self._cfg()
        G, D, og, od, batches, rng, _, _ = tiny_setup(cfg)
        G.out_conv.weight.data[...] = np.nan
        with pytest.raises(T.TrainDiverged, match="first bad tensor"):
            with np.errstate(invalid="ignore"):
                T.train_step(next(batches), G, D, og, od, cfg, rng)


def _state(G, D):
    """Every weight and power-iteration vector of G and D, copied."""
    weights = {p.name: p.data.copy() for p in G.parameters() + D.parameters()}
    return weights, {conv.name: conv.sn.u.copy() for conv in G.convs() + D.convs()}


def _restore(G, D, state):
    weights, us = state
    for p in G.parameters() + D.parameters():
        p.data[...] = weights[p.name]
    for conv in G.convs() + D.convs():
        conv.sn.u = us[conv.name].copy()


def _per_example_d_grads(batch, G, D, rng):
    """The D phase as one S = 1 tape per example: fakes from G.generate, the
    hinge of the real and the fake score, each loss divided by the batch size."""
    for p in G.parameters() + D.parameters():
        p.zero_grad()
    m = batch[0][0].shape[1] // G.cfg.compression
    for x, r in batch:
        fake = G.generate(Tensor(r), NoiseBundle.draw(rng, G.cfg.noise_channels, m)).data
        tape = Tape()
        d_real = D.discriminate(tape.tensor(x), tape.tensor(r))
        d_fake = D.discriminate(tape.tensor(fake), tape.tensor(r))
        loss = ad.add_(ad.relu_(ad.shift_(ad.scale_(d_real, -1.0), 1.0)),
                       ad.relu_(ad.shift_(d_fake, 1.0)))
        tape.backward(ad.scale_(loss, 1.0 / len(batch)))
    return [p.grad.copy() for p in D.parameters()]


def _per_example_g_grads(batch, G, D, rng, gamma):
    """The G phase as one S = 1 tape per example."""
    for p in G.parameters() + D.parameters():
        p.zero_grad()
    m = batch[0][0].shape[1] // G.cfg.compression
    for x, r in batch:
        z = NoiseBundle.draw(rng, G.cfg.noise_channels, m)
        tape = Tape()
        cond = tape.tensor(r)
        fake = G.generate(cond, z)
        l1 = ad.abs_mean_(ad.sub_(fake, tape.tensor(x)))
        loss = ad.add_(ad.scale_(l1, gamma), ad.scale_(D.discriminate(fake, cond), gamma - 1.0))
        tape.backward(ad.scale_(loss, 1.0 / len(batch)))
    return [p.grad.copy() for p in G.parameters()]


class TestTrainStepReference:
    """train_step's batched tapes against one tape per example, at default
    size in float32: every gradient Adam receives, and the rng stream."""

    # worst error measured, relative to each parameter's largest gradient:
    # 6.1e-6 in the D phase (D.layer3.weight), 1.0e-6 in the G phase
    TOL = 3e-5

    @pytest.mark.parametrize("forward_samples,tapes", [(model.FORWARD_SAMPLES, 1), (3200, 2)])
    def test_gradients_match_per_example_tapes(self, monkeypatch, forward_samples, tapes):
        # at 3200 samples a forward, the batch of 3 x 1600 runs in two tapes a phase
        cfg = T.TrainConfig(batch_size=3, segment_len=1600, seed=5,
                            synthetic={"n_clips": 2, "clip_len": 4800})
        G, D = T.build_models(cfg)
        clips = T.load_corpus(cfg)
        residuals = T.residuals_for(clips, cfg.lpc_order, cfg.frame_len)
        G.cond_scale = D.cond_scale = T.conditioning_scale(residuals)
        rng = np.random.default_rng([cfg.seed, 1])
        batch = next(T.make_batches(clips, residuals, cfg.segment_len, cfg.batch_size, rng,
                                    cfg.frame_len))
        replay = np.random.default_rng()
        replay.bit_generator.state = rng.bit_generator.state
        monkeypatch.setattr(model, "FORWARD_SAMPLES", forward_samples)
        seen, backward_calls = [], []
        adam, backward = T.adam_amsgrad_step, Tape.backward

        def adam_spy(params, *args, **kwargs):
            seen.append(([p.grad.copy() for p in params], _state(G, D)))
            return adam(params, *args, **kwargs)

        def backward_spy(tape, loss):
            backward_calls.append(loss.item())
            return backward(tape, loss)

        monkeypatch.setattr(T, "adam_amsgrad_step", adam_spy)
        monkeypatch.setattr(Tape, "backward", backward_spy)
        T.train_step(batch, G, D, T.AdamState(G.parameters()), T.AdamState(D.parameters()),
                     cfg, rng)
        monkeypatch.undo()
        assert len(backward_calls) == 2 * tapes
        (d_grads, d_state), (g_grads, g_state) = seen
        # each reference phase starts from the state its Adam step saw
        _restore(G, D, d_state)
        ref_d = _per_example_d_grads(batch, G, D, replay)
        _restore(G, D, g_state)
        ref_g = _per_example_g_grads(batch, G, D, replay, cfg.gamma)
        assert replay.bit_generator.state == rng.bit_generator.state
        for got, ref, params in ((d_grads, ref_d, D.parameters()),
                                 (g_grads, ref_g, G.parameters())):
            for a, b, p in zip(got, ref, params):
                scale = np.max(np.abs(b))
                if scale == 0:  # D's last bias: each example's real and fake terms cancel
                    assert np.max(np.abs(a)) < 1e-8, p.name
                else:
                    assert np.max(np.abs(a.astype(np.float64) - b)) <= self.TOL * scale, p.name


@pytest.fixture(scope="module")
def one_step_ckpt(tmp_path_factory):
    out = tmp_path_factory.mktemp("one_step")
    cfg = T.TrainConfig(batch_size=1, segment_len=528, steps=1, seed=11,
                        synthetic={"n_clips": 1, "clip_len": 2080})
    T.train_loop(cfg, out)
    return out / "final.ckpt"


class TestCheckpoint:
    def test_restore_models_equals_build_and_restore(self, one_step_ckpt):
        ckpt = T.load_checkpoint(one_step_ckpt)
        G, D = T.build_models(ckpt.config)
        T.restore_into(ckpt, G, D)
        G2, D2 = T.restore_models(ckpt)
        want, got = T.state_tensors(G, D, None, None), T.state_tensors(G2, D2, None, None)
        assert list(got) == list(want)
        for name, arr in want.items():
            assert got[name].dtype == arr.dtype and np.array_equal(got[name], arr), name
        assert G2.cond_scale == D2.cond_scale == ckpt.cond_scale

    def _small_run(self, tmp_path, steps=3, **kw):
        cfg = T.TrainConfig(
            batch_size=1, segment_len=528, steps=steps, seed=11,
            synthetic={"n_clips": 1, "clip_len": 2080}, **kw,
        )
        return cfg, T.train_loop(cfg, tmp_path)

    def test_restore_models_leave_gradient_pages_untouched(self):
        # models built for a restore, as vocoding builds them, allocate every
        # gradient without writing it: about 1300 minor page faults in a fresh
        # interpreter, where zero-filled gradients took about 8200
        code = ("import resource\nfrom abas import train as T\ncfg = T.TrainConfig()\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "T._models(cfg, None)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        src = str(Path(T.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert int(proc.stdout) < 2000

    def test_round_trip_bit_exact(self, tmp_path):
        # file -> restored models -> file again: same tensors, same bytes
        cfg, _ = self._small_run(tmp_path)
        loaded = T.load_checkpoint(tmp_path / "final.ckpt")
        assert loaded.step == cfg.steps
        assert loaded.config == cfg
        G, D = T.build_models(loaded.config)
        opt_g, opt_d = T.AdamState(G.parameters()), T.AdamState(D.parameters())
        T.restore_into(loaded, G, D, opt_g, opt_d)
        live = T.state_tensors(G, D, opt_g, opt_d)
        assert list(loaded.tensors) == list(live)
        for name, arr in live.items():
            assert np.array_equal(loaded.tensors[name], arr), name
        T.save_checkpoint(tmp_path / "again.ckpt", loaded.config, G, D, opt_g, opt_d,
                          loaded.rng_state, loaded.step)
        assert (tmp_path / "again.ckpt").read_bytes() == (tmp_path / "final.ckpt").read_bytes()

    def test_tensor_order(self, one_step_ckpt):
        # the README's layout: every parameter, then .m/.v/.vmax per
        # parameter, then .sn_u per power-iteration vector
        raw = one_step_ckpt.read_bytes()
        pos = 12 + struct.unpack("<I", raw[8:12])[0]
        (count,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        names = []
        for _ in range(count):
            (length,) = struct.unpack_from("<H", raw, pos)
            names.append(raw[pos + 2 : pos + 2 + length].decode("utf-8"))
            pos += 2 + length
            rank = raw[pos]
            shape = struct.unpack_from(f"<{rank}I", raw, pos + 1)
            pos += 1 + 4 * rank + 4 * int(np.prod(shape))
        assert pos == len(raw) - 8
        G, D = T.build_models(T.load_checkpoint(one_step_ckpt).config)
        params = [p.name for p in G.parameters() + D.parameters()]
        moments = [name + sfx for name in params for sfx in (".m", ".v", ".vmax")]
        sn_u = [conv.weight.name + ".sn_u" for conv in G.convs() + D.convs()]
        assert names == params + moments + sn_u

    @pytest.mark.parametrize("defect", sorted(LOAD_DEFECTS))
    def test_load_rejects_bad_metadata(self, one_step_ckpt, tmp_path, defect):
        edit, named = LOAD_DEFECTS[defect]
        bad = rewrite_checkpoint(one_step_ckpt, tmp_path / "bad.ckpt", edit_file=edit)
        error = ValueError if defect == "unknown_config_field" else T.CheckpointError
        with pytest.raises(error, match=named):
            T.load_checkpoint(bad)

    def test_config_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown training config fields: bogus, nope"):
            T.TrainConfig.from_dict({"steps": 1, "nope": 1, "bogus": 2})
        with pytest.raises(ValueError, match="must be a JSON object, not list"):
            T.TrainConfig.from_dict([1])

    def test_bad_magic(self, tmp_path):
        cfg, _ = self._small_run(tmp_path)
        raw = bytearray((tmp_path / "final.ckpt").read_bytes())
        raw[:4] = b"JUNK"
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(T.BadMagic, match="bad magic"):
            T.load_checkpoint(bad)

    def test_bad_version(self, tmp_path):
        cfg, _ = self._small_run(tmp_path)
        raw = bytearray((tmp_path / "final.ckpt").read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(T.BadVersion):
            T.load_checkpoint(bad)

    def test_version_1_rejected(self, one_step_ckpt, tmp_path):
        # version 1 predates the unit-gain softmax gate: same layout, other network
        raw = bytearray(one_step_ckpt.read_bytes())
        raw[4:8] = struct.pack("<I", 1)
        old = tmp_path / "v1.ckpt"
        old.write_bytes(bytes(raw))
        with pytest.raises(T.BadVersion, match="unsupported version 1"):
            T.load_checkpoint(old)

    def test_version_2_rejected(self, one_step_ckpt, tmp_path):
        # version 2 predates the conditioning scale: its network saw the raw residual
        raw = bytearray(one_step_ckpt.read_bytes())
        raw[4:8] = struct.pack("<I", 2)
        old = tmp_path / "v2.ckpt"
        old.write_bytes(bytes(raw))
        with pytest.raises(T.BadVersion, match="unsupported version 2"):
            T.load_checkpoint(old)

    def test_crash_mid_save_keeps_previous(self, tmp_path, monkeypatch):
        cfg, _ = self._small_run(tmp_path)
        path = tmp_path / "final.ckpt"
        before = path.read_bytes()
        listing = sorted(tmp_path.iterdir())
        G, D = T.build_models(cfg)
        write = T._write_tensor
        calls = []

        def failing_write(f, name, arr):
            calls.append(name)
            if len(calls) == 5:
                raise OSError("injected write failure")
            write(f, name, arr)

        monkeypatch.setattr(T, "_write_tensor", failing_write)
        with pytest.raises(OSError, match="injected"):
            T.save_checkpoint(path, cfg, G, D, T.AdamState(G.parameters()),
                              T.AdamState(D.parameters()), {}, 0)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == listing
        resumed = T.TrainConfig(**{**cfg.to_dict(), "steps": cfg.steps + 1})
        T.train_loop(resumed, tmp_path / "resumed", resume_from=path)
        assert T.load_checkpoint(tmp_path / "resumed" / "final.ckpt").step == cfg.steps + 1

    def test_truncated(self, tmp_path):
        cfg, _ = self._small_run(tmp_path)
        raw = (tmp_path / "final.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(T.TruncatedCheckpoint):
            T.load_checkpoint(bad)

    def test_empty_file_is_truncated(self, tmp_path):
        # an empty file cannot be memory-mapped; it must still read as truncated
        (tmp_path / "empty.ckpt").write_bytes(b"")
        with pytest.raises(T.TruncatedCheckpoint):
            T.load_checkpoint(tmp_path / "empty.ckpt")

    def test_loaded_tensors_outlive_a_save_over_the_file(self, one_step_ckpt, tmp_path):
        # tensors map the file; an atomic save replaces the file, not its bytes
        path = tmp_path / "c.ckpt"
        path.write_bytes(one_step_ckpt.read_bytes())
        ckpt = T.load_checkpoint(path)
        before = {name: arr.copy() for name, arr in ckpt.tensors.items()}
        assert not any(arr.flags.writeable for arr in ckpt.tensors.values())
        G, D = T.build_models(ckpt.config)
        for p in G.parameters() + D.parameters():
            p.data += 1
        T.save_checkpoint(path, ckpt.config, G, D, T.AdamState(G.parameters()),
                          T.AdamState(D.parameters()), ckpt.rng_state, ckpt.step + 1)
        assert T.load_checkpoint(path).step == ckpt.step + 1
        assert all(np.array_equal(before[name], arr) for name, arr in ckpt.tensors.items())

    def test_cross_gate_load_accepted(self, tmp_path):
        # sigmoid-gate checkpoint loads into a softmax run: same shapes,
        # provenance preserved in the embedded config
        cfg, _ = self._small_run(tmp_path, gate_kind="sigmoid")
        ckpt = T.load_checkpoint(tmp_path / "final.ckpt")
        assert ckpt.config.gate_kind == "sigmoid"
        G, D = T.build_models(T.TrainConfig.from_dict({**cfg.to_dict(), "gate_kind": "softmax_channel"}))
        T.restore_into(ckpt, G, D)  # same shapes, no error
        assert all(np.array_equal(p.data, ckpt.tensors[p.name]) for p in G.parameters()[:3])

    def test_restore_into_read_only_destination_raises(self, one_step_ckpt):
        ckpt = T.load_checkpoint(one_step_ckpt)
        G, D = T.build_models(ckpt.config)
        G.parameters()[0].data.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            T.restore_into(ckpt, G, D)

    @pytest.mark.parametrize("defect", sorted(CHECKPOINT_DEFECTS))
    def test_restore_rejects_mismatch(self, one_step_ckpt, tmp_path, defect):
        bad = rewrite_checkpoint(one_step_ckpt, tmp_path / "bad.ckpt", CHECKPOINT_DEFECTS[defect])
        ckpt = T.load_checkpoint(bad)  # parsing alone does not check names or shapes
        G, D = T.build_models(ckpt.config)
        before = [p.data.copy() for p in G.parameters()]
        with pytest.raises(T.ShapeMismatch):
            T.restore_into(ckpt, G, D, T.AdamState(G.parameters()), T.AdamState(D.parameters()))
        assert all(np.array_equal(a, p.data) for a, p in zip(before, G.parameters()))

    def test_save_allocates_no_tensor_copies(self, tmp_path):
        cfg = T.TrainConfig()
        G, D = T.build_models(cfg)
        opt_g, opt_d = T.AdamState(G.parameters()), T.AdamState(D.parameters())
        tracemalloc.start()
        try:
            T.save_checkpoint(tmp_path / "a.ckpt", cfg, G, D, opt_g, opt_d, {}, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tensor_bytes = sum(a.nbytes for a in T.state_tensors(G, D, opt_g, opt_d).values())
        assert tensor_bytes > 50e6  # default models with their Adam moments
        assert peak < 0.1 * tensor_bytes, f"peak {peak} B while saving {tensor_bytes} B"

    def test_format_layout(self, tmp_path):
        cfg, _ = self._small_run(tmp_path)
        raw = (tmp_path / "final.ckpt").read_bytes()
        assert raw[:4] == b"ABAS"
        assert struct.unpack("<I", raw[4:8])[0] == 3
        blob_len = struct.unpack("<I", raw[8:12])[0]
        blob = json.loads(raw[12 : 12 + blob_len])
        assert blob["config"]["seed"] == 11
        n_tensors = struct.unpack("<I", raw[12 + blob_len : 16 + blob_len])[0]
        assert n_tensors > 0
        assert struct.unpack("<Q", raw[-8:])[0] == cfg.steps


class TestConditioningScale:
    def test_unit_rms_over_the_corpus(self):
        rng = np.random.default_rng(0)
        residuals = [0.02 * rng.standard_normal(n).astype(np.float32) for n in (1600, 4160)]
        scale = T.conditioning_scale(residuals)
        pooled = np.concatenate(residuals).astype(np.float64) * scale
        assert np.sqrt(np.mean(pooled**2)) == pytest.approx(1.0, rel=1e-12)

    def test_silent_corpus_rejected(self):
        with pytest.raises(ValueError, match="silent"):
            T.conditioning_scale([np.zeros(528, np.float32)])

    def test_checkpoint_stores_the_corpus_scale(self, one_step_ckpt):
        ckpt = T.load_checkpoint(one_step_ckpt)
        clips = T.load_corpus(ckpt.config)
        residuals = T.residuals_for(clips, ckpt.config.lpc_order, ckpt.config.frame_len)
        assert ckpt.cond_scale == T.conditioning_scale(residuals)

    def test_save_refuses_models_that_disagree(self, tmp_path):
        cfg = T.TrainConfig(segment_len=528, synthetic={"n_clips": 1, "clip_len": 528})
        G, D, og, od, _, rng, _, _ = tiny_setup(cfg)
        G.cond_scale = 2.0
        with pytest.raises(ValueError, match="disagree on cond_scale"):
            T.save_checkpoint(tmp_path / "x.ckpt", T.TrainConfig(), G, D, og, od,
                              rng.bit_generator.state, 0)
        assert not (tmp_path / "x.ckpt").exists()

    def test_resume_takes_the_stored_scale(self, one_step_ckpt, tmp_path):
        ckpt = T.load_checkpoint(one_step_ckpt)
        stored = 3.0 * ckpt.cond_scale
        edited = rewrite_checkpoint(one_step_ckpt, tmp_path / "edited.ckpt",
                                    edit_file=lambda blob, pairs: blob.update(cond_scale=stored))
        cfg = T.TrainConfig(**{**ckpt.config.to_dict(), "steps": ckpt.step + 1})
        T.train_loop(cfg, tmp_path / "a", resume_from=one_step_ckpt)
        T.train_loop(cfg, tmp_path / "b", resume_from=edited)
        a = T.load_checkpoint(tmp_path / "a" / "final.ckpt")
        b = T.load_checkpoint(tmp_path / "b" / "final.ckpt")
        assert (a.cond_scale, b.cond_scale) == (ckpt.cond_scale, stored)
        assert not np.array_equal(a.tensors["G.out.weight"], b.tensors["G.out.weight"])


class TestTrainLoop:
    def test_releases_free_memory_first(self, monkeypatch, tmp_path):
        events = []

        def load_corpus(config):
            events.append("corpus")
            raise _Stop

        monkeypatch.setattr(ad, "release_free_memory", lambda: events.append("release"))
        monkeypatch.setattr(T, "load_corpus", load_corpus)
        with pytest.raises(_Stop):
            T.train_loop(T.TrainConfig(), tmp_path)
        assert events == ["release", "corpus"]

    def test_csv_and_checkpoints(self, tmp_path):
        cfg = T.TrainConfig(
            batch_size=2, segment_len=528, steps=4, seed=5, checkpoint_every=2,
            synthetic={"n_clips": 2, "clip_len": 2080},
        )
        history = T.train_loop(cfg, tmp_path)
        lines = (tmp_path / "loss.csv").read_text().strip().split("\n")
        assert lines[0] == T.LOSS_HEADER
        assert len(lines) == 5
        assert (tmp_path / "step_2.ckpt").exists()
        assert (tmp_path / "final.ckpt").exists()
        assert len(history) == 4

    def test_loss_rows_on_disk_before_checkpoint(self, tmp_path, monkeypatch):
        cfg = T.TrainConfig(
            batch_size=1, segment_len=528, steps=3, seed=5, checkpoint_every=2,
            synthetic={"n_clips": 1, "clip_len": 2080},
        )
        seen = []

        def failing_write(f, name, arr):
            seen.append((tmp_path / "loss.csv").read_text())
            raise OSError("injected write failure")

        monkeypatch.setattr(T, "_write_tensor", failing_write)
        with pytest.raises(OSError, match="injected"):
            T.train_loop(cfg, tmp_path)
        # the rows were flushed while loss.csv was still open
        assert seen[0].splitlines() == (tmp_path / "loss.csv").read_text().splitlines()
        assert len(seen[0].splitlines()) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["loss.csv"]

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg_a = T.TrainConfig(
            batch_size=1, segment_len=528, steps=6, seed=21,
            synthetic={"n_clips": 1, "clip_len": 2080},
        )
        T.train_loop(cfg_a, tmp_path / "full")
        cfg_b = T.TrainConfig(**{**cfg_a.to_dict(), "steps": 3})
        T.train_loop(cfg_b, tmp_path / "half")
        T.train_loop(cfg_a, tmp_path / "resumed", resume_from=tmp_path / "half" / "final.ckpt")
        full = T.load_checkpoint(tmp_path / "full" / "final.ckpt")
        resumed = T.load_checkpoint(tmp_path / "resumed" / "final.ckpt")
        assert list(full.tensors) == list(resumed.tensors)
        for name in full.tensors:
            assert np.array_equal(full.tensors[name], resumed.tensors[name]), name

    def test_resume_in_place_keeps_logged_rows(self, tmp_path):
        # a run that logged rows 1..3 and saved step_2.ckpt, resumed from step
        # 2: in its own directory loss.csv must end as the uninterrupted run's;
        # in a fresh one it holds the header and row 3
        cfg = T.TrainConfig(
            batch_size=1, segment_len=528, steps=3, seed=5, checkpoint_every=2,
            synthetic={"n_clips": 1, "clip_len": 2080},
        )
        T.train_loop(cfg, tmp_path)
        uninterrupted = (tmp_path / "loss.csv").read_bytes()
        T.train_loop(cfg, tmp_path / "fresh", resume_from=tmp_path / "step_2.ckpt")
        T.train_loop(cfg, tmp_path, resume_from=tmp_path / "step_2.ckpt")
        assert (tmp_path / "loss.csv").read_bytes() == uninterrupted
        rows = uninterrupted.decode().splitlines()
        assert (tmp_path / "fresh" / "loss.csv").read_text().splitlines() == [rows[0], rows[3]]

    def test_empty_corpus(self, tmp_path):
        cfg = T.TrainConfig(
            batch_size=1, segment_len=528, steps=1, seed=0, corpus=str(tmp_path / "nothing")
        )
        (tmp_path / "nothing").mkdir()
        with pytest.raises(ValueError, match="corpus empty"):
            T.train_loop(cfg, tmp_path / "out")
