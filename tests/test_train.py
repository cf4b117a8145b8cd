import json
import struct

import numpy as np
import pytest

from abas import autodiff as ad
from abas import dsp
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
from conftest import CHECKPOINT_DEFECTS, rewrite_checkpoint


def tiny_setup(cfg, model_seed=3):
    rngm = np.random.default_rng([model_seed, 0])
    G = Generator(GeneratorConfig.tiny(gate_kind=cfg.gate_kind), rngm)
    D = Discriminator(DiscriminatorConfig.tiny(), rngm)
    opt_g, opt_d = T.AdamState(G.parameters()), T.AdamState(D.parameters())
    clips = T.load_corpus(cfg)
    residuals = T.residuals_for(clips, cfg.lpc_order, cfg.frame_len)
    rng = np.random.default_rng([cfg.seed, 1])
    batches = T.make_batches(clips, residuals, cfg.segment_len, cfg.batch_size, rng)
    return G, D, opt_g, opt_d, batches, rng, clips, residuals


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
        p.grad[...] = 1.0
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
            p.grad[...] = rng.normal(size=8)
            T.adam_amsgrad_step([p], st, lr=1e-3)
            assert np.all(st.vmax["th"] >= prev)
            assert np.all(st.vmax["th"] >= st.v["th"])
            prev = st.vmax["th"].copy()

    def test_quadratic_descent_monotone(self):
        p = Parameter("th", np.array([1.0]))
        st = T.AdamState([p])
        prev = 1.0
        for _ in range(300):
            p.grad[...] = 2.0 * p.data
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
        batches = T.make_batches(marked, marked, 1600, 4, rng)
        for _ in range(10):
            for x, r in next(batches):
                assert int(x[0, 0]) % 320 == 0
                assert np.array_equal(x, r)

    def test_coverage_in_expectation(self):
        clips = [np.full(1600, float(i), dtype=np.float32) for i in range(4)]
        rng = np.random.default_rng(1)
        batches = T.make_batches(clips, clips, 1600, 4, rng)
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
            batches = T.make_batches(clips, clips, 1600, 2, rng)
            seqs.append([int(x[0, 0]) for _ in range(5) for x, _ in next(batches)])
        assert seqs[0] == seqs[1]

    def test_short_clips_skipped_with_warning(self):
        clips = [np.zeros(100, np.float32), np.zeros(1600, np.float32)]
        rng = np.random.default_rng(0)
        with pytest.warns(UserWarning, match="shorter than segment_len"):
            batches = T.make_batches(clips, clips, 1600, 1, rng)
            next(batches)

    def test_all_clips_too_short(self):
        clips = [np.zeros(100, np.float32)]
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="segment longer"):
                next(T.make_batches(clips, clips, 1600, 1, np.random.default_rng(0)))


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
            assert np.all(p.grad == 0)

    def test_residual_target_mode_wiring(self, monkeypatch):
        cfg = self._cfg(target_mode="residual")
        G, D, og, od, batches, rng, clips, residuals = tiny_setup(cfg)
        batch = next(batches)
        seen = []
        orig = D.discriminate

        def spy(candidate, residual, trace=None):
            seen.append((candidate.data.copy(), residual.data.copy()))
            return orig(candidate, residual, trace)

        monkeypatch.setattr(D, "discriminate", spy)
        stats = T.train_step(batch, G, D, og, od, cfg, rng)
        # D-phase real pair: candidate IS the conditioning residual
        cand, cond = seen[0]
        assert np.array_equal(cand, cond)
        assert np.array_equal(cond, batch[0][1])
        # L1 compares the fake against the residual: with G near init the
        # fake is closer to the residual scale than to speech
        x, r = batch[0]
        assert stats.l1 == pytest.approx(stats.l1, abs=0)  # finite sanity
        fake_like = seen[1][0]
        assert fake_like.shape == r.shape

    def test_speech_mode_real_candidate_is_speech(self, monkeypatch):
        cfg = self._cfg()
        G, D, og, od, batches, rng, _, _ = tiny_setup(cfg)
        batch = next(batches)
        seen = []
        orig = D.discriminate

        def spy(candidate, residual, trace=None):
            seen.append((candidate.data.copy(), residual.data.copy()))
            return orig(candidate, residual, trace)

        monkeypatch.setattr(D, "discriminate", spy)
        T.train_step(batch, G, D, og, od, cfg, rng)
        cand, cond = seen[0]
        assert np.array_equal(cand, batch[0][0])
        assert np.array_equal(cond, batch[0][1])

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

    def test_sn_advances_once_per_phase(self):
        cfg = self._cfg()
        G, D, og, od, batches, rng, _, _ = tiny_setup(cfg)
        g_u = [st.u.copy() for _, st, _ in G.sn_entries()]
        d_u = [st.u.copy() for _, st, _ in D.sn_entries()]
        T.train_step(next(batches), G, D, og, od, cfg, rng)
        # every state with a non-degenerate u moved (u in R^1 is pinned at +-1)
        for (name, st, tr), old in zip(D.sn_entries(), d_u):
            if st.u.size > 1:
                assert not np.array_equal(st.u, old), name
        for (name, st, tr), old in zip(G.sn_entries(), g_u):
            if st.u.size > 1:
                assert not np.array_equal(st.u, old), name
            else:
                assert abs(float(st.u[0])) == pytest.approx(1.0, abs=1e-6)

    def test_divergence_reports_first_bad_tensor(self):
        cfg = self._cfg()
        G, D, og, od, batches, rng, _, _ = tiny_setup(cfg)
        G.out_conv.weight.data[...] = np.nan
        with pytest.raises(T.TrainDiverged, match="first bad tensor"):
            with np.errstate(invalid="ignore"):
                T.train_step(next(batches), G, D, og, od, cfg, rng)


@pytest.fixture(scope="module")
def one_step_ckpt(tmp_path_factory):
    out = tmp_path_factory.mktemp("one_step")
    cfg = T.TrainConfig(batch_size=1, segment_len=528, steps=1, seed=11,
                        synthetic={"n_clips": 1, "clip_len": 2080})
    T.train_loop(cfg, out)
    return out / "final.ckpt"


class TestCheckpoint:
    def _small_run(self, tmp_path, steps=3, **kw):
        cfg = T.TrainConfig(
            batch_size=1, segment_len=528, steps=steps, seed=11,
            synthetic={"n_clips": 1, "clip_len": 2080}, **kw,
        )
        return cfg, T.train_loop(cfg, tmp_path)

    def test_round_trip_bit_exact(self, tmp_path):
        cfg, (ckpt, _) = self._small_run(tmp_path)
        loaded = T.load_checkpoint(tmp_path / "final.ckpt")
        assert loaded.step == cfg.steps
        assert loaded.config == cfg
        assert set(loaded.params) == set(ckpt.params)
        for name, arr in ckpt.params.items():
            assert np.array_equal(loaded.params[name], arr)
        for name, arr in ckpt.opt.items():
            assert np.array_equal(loaded.opt[name], arr)
        for name, arr in ckpt.sn_u.items():
            assert np.array_equal(loaded.sn_u[name], arr)

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

    def test_truncated(self, tmp_path):
        cfg, _ = self._small_run(tmp_path)
        raw = (tmp_path / "final.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(T.TruncatedCheckpoint):
            T.load_checkpoint(bad)

    def test_cross_gate_load_accepted(self, tmp_path):
        # sigmoid-gate checkpoint loads into a softmax run: same shapes,
        # provenance preserved in the embedded config
        cfg, _ = self._small_run(tmp_path, gate_kind="sigmoid")
        ckpt = T.load_checkpoint(tmp_path / "final.ckpt")
        assert ckpt.config.gate_kind == "sigmoid"
        G, D = T.build_models(T.TrainConfig.from_dict({**cfg.to_dict(), "gate_kind": "softmax_channel"}))
        T.restore_into(ckpt, G, D)  # same shapes, no error
        assert all(np.array_equal(p.data, ckpt.params[p.name]) for p in G.parameters()[:3])

    @pytest.mark.parametrize("defect", sorted(CHECKPOINT_DEFECTS))
    def test_restore_rejects_mismatch(self, one_step_ckpt, tmp_path, defect):
        bad = rewrite_checkpoint(one_step_ckpt, tmp_path / "bad.ckpt", CHECKPOINT_DEFECTS[defect])
        ckpt = T.load_checkpoint(bad)  # parsing alone does not check names or shapes
        G, D = T.build_models(ckpt.config)
        before = [p.data.copy() for p in G.parameters()]
        with pytest.raises(T.ShapeMismatch):
            T.restore_into(ckpt, G, D, T.AdamState(G.parameters()), T.AdamState(D.parameters()))
        assert all(np.array_equal(a, p.data) for a, p in zip(before, G.parameters()))

    def test_format_layout(self, tmp_path):
        cfg, _ = self._small_run(tmp_path)
        raw = (tmp_path / "final.ckpt").read_bytes()
        assert raw[:4] == b"ABAS"
        assert struct.unpack("<I", raw[4:8])[0] == 1
        blob_len = struct.unpack("<I", raw[8:12])[0]
        blob = json.loads(raw[12 : 12 + blob_len])
        assert blob["config"]["seed"] == 11
        n_tensors = struct.unpack("<I", raw[12 + blob_len : 16 + blob_len])[0]
        assert n_tensors > 0
        assert struct.unpack("<Q", raw[-8:])[0] == cfg.steps


class TestTrainLoop:
    def test_csv_and_checkpoints(self, tmp_path):
        cfg = T.TrainConfig(
            batch_size=2, segment_len=528, steps=4, seed=5, checkpoint_every=2,
            synthetic={"n_clips": 2, "clip_len": 2080},
        )
        ckpt, history = T.train_loop(cfg, tmp_path)
        lines = (tmp_path / "loss.csv").read_text().strip().split("\n")
        assert lines[0] == T.LOSS_HEADER
        assert len(lines) == 5
        assert (tmp_path / "step_2.ckpt").exists()
        assert (tmp_path / "final.ckpt").exists()
        assert len(history) == 4

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
        for name in full.params:
            assert np.array_equal(full.params[name], resumed.params[name]), name
        for name in full.opt:
            assert np.array_equal(full.opt[name], resumed.opt[name]), name
        for name in full.sn_u:
            assert np.array_equal(full.sn_u[name], resumed.sn_u[name]), name

    def test_empty_corpus(self, tmp_path):
        cfg = T.TrainConfig(
            batch_size=1, segment_len=528, steps=1, seed=0, corpus=str(tmp_path / "nothing")
        )
        (tmp_path / "nothing").mkdir()
        with pytest.raises(ValueError, match="corpus empty"):
            T.train_loop(cfg, tmp_path / "out")
