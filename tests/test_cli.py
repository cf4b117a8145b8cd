import json

import numpy as np
import pytest

from abas import cli
from abas.metrics import l1_distance, log_spectral_distance, ssnr
from abas.train import gen_synthetic_corpus
from abas.wavio import read_wav
from conftest import CHECKPOINT_DEFECTS, LOAD_DEFECTS, rewrite_checkpoint


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    gen_synthetic_corpus(2, 4160, seed=13, out_dir=d)
    return d


@pytest.fixture(scope="session")
def trained(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("train_out")
    rc = cli.main([
        "train", "--corpus", str(corpus_dir), "--out", str(out),
        "--steps", "2", "--batch", "1", "--seg-len", "528", "--seed", "4",
    ])
    assert rc == 0
    return out / "final.ckpt"


class TestGenCorpus:
    def test_writes_files(self, tmp_path, capsys):
        rc = cli.main(["gen-corpus", "--n", "3", "--len", "4000", "--seed", "1",
                       "--out", str(tmp_path / "c")])
        assert rc == 0
        files = sorted((tmp_path / "c").glob("*.wav"))
        assert len(files) == 3
        out = capsys.readouterr().out
        assert "config" in out and "seed" in out  # resolved config echoed

    def test_deterministic(self, tmp_path):
        cli.main(["gen-corpus", "--n", "1", "--len", "4000", "--seed", "9", "--out", str(tmp_path / "a")])
        cli.main(["gen-corpus", "--n", "1", "--len", "4000", "--seed", "9", "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "clip_000.wav").read_bytes()
        b = (tmp_path / "b" / "clip_000.wav").read_bytes()
        assert a == b

    @pytest.mark.parametrize("flag, value", [("--n", "0"), ("--n", "-1"), ("--len", "0")])
    def test_count_below_one_exits_3(self, tmp_path, capsys, flag, value):
        args = {"--n": "2", "--len": "4000", flag: value}
        out = tmp_path / "c"
        rc = cli.main(["gen-corpus", *(a for kv in args.items() for a in kv), "--out", str(out)])
        assert rc == 3
        assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err
        assert not out.exists()


class TestLpc:
    def test_resynth_round_trip(self, corpus_dir, tmp_path):
        src = sorted(corpus_dir.glob("*.wav"))[0]
        out = tmp_path / "resynth.wav"
        rc = cli.main(["lpc", "--in", str(src), "--emit", "resynth", "--out", str(out)])
        assert rc == 0
        assert ssnr(read_wav(src), read_wav(out)) >= 34.0

    def test_residual_length(self, corpus_dir, tmp_path):
        src = sorted(corpus_dir.glob("*.wav"))[0]
        out = tmp_path / "residual.wav"
        assert cli.main(["lpc", "--in", str(src), "--emit", "residual", "--out", str(out)]) == 0
        assert len(read_wav(out)) == len(read_wav(src))

    def test_coeffs_csv_columns(self, corpus_dir, tmp_path):
        src = sorted(corpus_dir.glob("*.wav"))[0]
        out = tmp_path / "coeffs.csv"
        assert cli.main(["lpc", "--in", str(src), "--order", "16", "--emit", "coeffs-csv",
                         "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 4160 // 320
        assert all(len(line.split(",")) == 17 for line in lines)

    def test_order_zero_exits_3(self, corpus_dir, tmp_path, capsys):
        src = sorted(corpus_dir.glob("*.wav"))[0]
        out = tmp_path / "residual.wav"
        rc = cli.main(["lpc", "--in", str(src), "--order", "0", "--emit", "residual",
                       "--out", str(out)])
        assert rc == 3
        assert "LPC order must be in 1..319, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_frame_ms_zero_exits_3(self, corpus_dir, tmp_path, capsys):
        src = sorted(corpus_dir.glob("*.wav"))[0]
        out = tmp_path / "residual.wav"
        rc = cli.main(["lpc", "--in", str(src), "--frame-ms", "0", "--emit", "residual",
                       "--out", str(out)])
        assert rc == 3
        assert "--frame-ms must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()


class TestCrossSynth:
    def test_identity_round_trip(self, corpus_dir, tmp_path):
        src = str(sorted(corpus_dir.glob("*.wav"))[0])
        out = tmp_path / "out.wav"
        rc = cli.main(["cross-synth", "--carrier", src, "--envelope", src, "--out", str(out)])
        assert rc == 0
        assert out.read_bytes()[:4] == b"RIFF"
        assert ssnr(read_wav(src), read_wav(out)) >= 34.0

    def test_noise_carrier_moves_toward_envelope(self, corpus_dir, tmp_path):
        from abas.dsp import AudioSignal
        from abas.wavio import write_wav

        env_path = sorted(corpus_dir.glob("*.wav"))[0]
        env = read_wav(env_path)
        rng = np.random.default_rng(3)
        noise = AudioSignal(rng.normal(0, 0.05, len(env)).astype(np.float32))
        noise_path = tmp_path / "noise.wav"
        write_wav(noise_path, noise)
        out = tmp_path / "out.wav"
        assert cli.main(["cross-synth", "--carrier", str(noise_path),
                         "--envelope", str(env_path), "--out", str(out)]) == 0
        got = read_wav(out)
        assert log_spectral_distance(env, got) < log_spectral_distance(env, read_wav(noise_path))

    def test_length_mismatch_trims(self, corpus_dir, tmp_path):
        from abas.dsp import AudioSignal
        from abas.wavio import write_wav

        env_path = sorted(corpus_dir.glob("*.wav"))[0]
        short = tmp_path / "short.wav"
        write_wav(short, AudioSignal(read_wav(env_path).samples[:2000]))
        out = tmp_path / "out.wav"
        with pytest.warns(UserWarning, match="trimming"):
            rc = cli.main(["cross-synth", "--carrier", str(short), "--envelope", str(env_path),
                           "--out", str(out)])
        assert rc == 0
        assert len(read_wav(out)) == 2000

    def test_negative_order_exits_3(self, corpus_dir, tmp_path, capsys):
        src = str(sorted(corpus_dir.glob("*.wav"))[0])
        out = tmp_path / "out.wav"
        rc = cli.main(["cross-synth", "--carrier", src, "--envelope", src, "--order", "-2",
                       "--out", str(out)])
        assert rc == 3
        assert "LPC order must be in 1..319, got -2" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_report(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        rc = cli.main(["eval", "--ref", str(corpus_dir), "--deg", str(corpus_dir), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "file,ssnr_db,l1,lsd_db"
        assert len(lines) == 4 and lines[-1].startswith("MEAN,")

    def test_unpaired_skipped(self, corpus_dir, tmp_path):
        deg = tmp_path / "deg"
        deg.mkdir()
        src = sorted(corpus_dir.glob("*.wav"))[0]
        (deg / src.name).write_bytes(src.read_bytes())
        out = tmp_path / "m.csv"
        with pytest.warns(UserWarning, match="unpaired"):
            rc = cli.main(["eval", "--ref", str(corpus_dir), "--deg", str(deg), "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 3

    def test_empty_intersection(self, corpus_dir, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = cli.main(["eval", "--ref", str(corpus_dir), "--deg", str(empty), "--out",
                       str(tmp_path / "m.csv")])
        assert rc == 3


class TestTrainCommand:
    def test_outputs(self, trained):
        out_dir = trained.parent
        lines = (out_dir / "loss.csv").read_text().strip().split("\n")
        assert lines[0] == "step,d_loss,g_loss,l1,adv"
        assert len(lines) == 3
        assert trained.exists()

    def test_config_file_and_flag_override(self, corpus_dir, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "corpus": str(corpus_dir), "steps": 1, "batch_size": 1,
            "segment_len": 528, "gamma": 0.25, "seed": 1,
        }))
        rc = cli.main(["train", "--config", str(cfg_file), "--gamma", "0.5",
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        echoed = capsys.readouterr().out
        assert '"gamma": 0.5' in echoed

    @pytest.mark.parametrize("config,named", [
        ({"steps": 1, "segmnt_len": 528}, "segmnt_len"),
        ([1], "JSON object"),
        ({"synthetic": {"n_clips": 2}}, "synthetic spec"),
        ({"synthetic": {"n_clips": 2, "clip_len": "4160"}}, "synthetic spec"),
        ({"synthetic": {"n_clips": 0, "clip_len": 4160}}, "synthetic spec"),
        ({"betas": 5}, "betas must be two numbers"),
        ({"gamma": "x"}, "gamma must be a finite number"),
        ({"lpc_order": 0}, "lpc_order must be an int >= 1"),
        ({"lpc_order": 320}, "lpc_order must be below the frame length 320"),
        ({"lr_d": float("inf")}, "lr_d must be a finite number"),
    ], ids=["unknown_field", "not_an_object", "synthetic_missing_key", "synthetic_not_int",
            "synthetic_zero_clips", "betas_not_a_pair", "gamma_not_a_number", "lpc_order_zero",
            "lpc_order_frame_len", "lr_d_infinite"])
    def test_bad_config_file_exits_3(self, tmp_path, capsys, config, named):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        rc = cli.main(["train", "--config", str(cfg_file), "--steps", "1",
                       "--out", str(tmp_path / "out")])
        assert rc == 3
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_batch_exits_3(self, corpus_dir, tmp_path, capsys):
        rc = cli.main(["train", "--corpus", str(corpus_dir), "--steps", "1", "--batch", "0",
                       "--seg-len", "528", "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "batch_size must be an int >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("steps", ["0", "2"])
    def test_segment_longer_than_every_clip_exits_3(self, corpus_dir, tmp_path, capsys, steps):
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="shorter than segment_len"):
            rc = cli.main(["train", "--corpus", str(corpus_dir), "--steps", steps, "--batch", "1",
                           "--seg-len", "16000", "--out", str(out)])
        assert rc == 3
        assert "segment longer than every clip in the corpus" in capsys.readouterr().err
        assert not (out / "loss.csv").exists()
        assert not (out / "final.ckpt").exists()

    def test_resume_missing_moment_exits_3(self, trained, corpus_dir, tmp_path, capsys):
        bad = rewrite_checkpoint(trained, tmp_path / "bad.ckpt", CHECKPOINT_DEFECTS["missing_moment"])
        rc = cli.main(["train", "--corpus", str(corpus_dir), "--out", str(tmp_path / "out"),
                       "--steps", "3", "--batch", "1", "--seg-len", "528", "--seed", "4",
                       "--resume", str(bad)])
        assert rc == 3
        assert "G.enc.down0.weight.m" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", ["adam_t_without_d", "adam_t_list", "rng_state_list"])
    def test_resume_bad_optimizer_or_rng_state_exits_3(self, trained, corpus_dir, tmp_path,
                                                       capsys, defect):
        edit, named = LOAD_DEFECTS[defect]
        bad = rewrite_checkpoint(trained, tmp_path / "bad.ckpt", edit_file=edit)
        rc = cli.main(["train", "--corpus", str(corpus_dir), "--out", str(tmp_path / "out"),
                       "--steps", "3", "--batch", "1", "--seg-len", "528", "--seed", "4",
                       "--resume", str(bad)])
        assert rc == 3
        assert named in capsys.readouterr().err

    def test_gate_flag_difference_is_config_only(self, corpus_dir, tmp_path, capsys):
        for gate in ("softmax", "sigmoid"):
            rc = cli.main(["train", "--corpus", str(corpus_dir), "--steps", "1", "--batch", "1",
                           "--seg-len", "528", "--gate", gate, "--seed", "2",
                           "--out", str(tmp_path / gate)])
            assert rc == 0
        outs = capsys.readouterr().out.split("\n")
        cfgs = [json.loads(line.split("config: ")[1]) for line in outs if "config:" in line]
        diff = {k for k in cfgs[0] if cfgs[0][k] != cfgs[1][k]}
        assert diff == {"gate_kind"}


class TestVocode:
    def test_length_and_determinism(self, trained, corpus_dir, tmp_path, capsys):
        src = sorted(corpus_dir.glob("*.wav"))[0]
        outs = []
        for name in ("a.wav", "b.wav"):
            rc = cli.main(["vocode", "--ckpt", str(trained), "--in", str(src),
                           "--out", str(tmp_path / name), "--seed", "6"])
            assert rc == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]
        assert len(read_wav(tmp_path / "a.wav")) == len(read_wav(src))
        err = capsys.readouterr().err
        assert "ssnr_db=" in err and "lsd_db=" in err

    def test_skip_cross_synth_differs(self, trained, corpus_dir, tmp_path):
        src = sorted(corpus_dir.glob("*.wav"))[0]
        cli.main(["vocode", "--ckpt", str(trained), "--in", str(src),
                  "--out", str(tmp_path / "full.wav"), "--seed", "6"])
        cli.main(["vocode", "--ckpt", str(trained), "--in", str(src),
                  "--out", str(tmp_path / "raw.wav"), "--seed", "6", "--skip-cross-synth"])
        assert (tmp_path / "full.wav").read_bytes() != (tmp_path / "raw.wav").read_bytes()

    def test_uses_stored_cond_scale(self, trained, corpus_dir, tmp_path):
        # the same network vocodes differently when its stored conditioning
        # scale differs; a rewrite that keeps the scale changes nothing
        src = sorted(corpus_dir.glob("*.wav"))[0]
        ckpts = {
            "same": rewrite_checkpoint(trained, tmp_path / "same.ckpt"),
            "other": rewrite_checkpoint(
                trained, tmp_path / "other.ckpt",
                edit_file=lambda blob, pairs: blob.update(cond_scale=2.0 * blob["cond_scale"])),
        }
        outs = {}
        for name, ckpt in (("orig", trained), *ckpts.items()):
            rc = cli.main(["vocode", "--ckpt", str(ckpt), "--in", str(src),
                           "--out", str(tmp_path / f"{name}.wav"), "--seed", "6"])
            assert rc == 0
            outs[name] = (tmp_path / f"{name}.wav").read_bytes()
        assert outs["same"] == outs["orig"]
        assert outs["other"] != outs["orig"]

    def test_too_short_input(self, trained, tmp_path):
        from abas.dsp import AudioSignal
        from abas.wavio import write_wav

        short = tmp_path / "short.wav"
        write_wav(short, AudioSignal(np.zeros(500, np.float32)))
        rc = cli.main(["vocode", "--ckpt", str(trained), "--in", str(short),
                       "--out", str(tmp_path / "o.wav")])
        assert rc == 3

    def test_mis_shaped_checkpoint(self, trained, corpus_dir, tmp_path, capsys):
        bad = rewrite_checkpoint(trained, tmp_path / "bad.ckpt", CHECKPOINT_DEFECTS["wrong_shape"])
        src = sorted(corpus_dir.glob("*.wav"))[0]
        rc = cli.main(["vocode", "--ckpt", str(bad), "--in", str(src),
                       "--out", str(tmp_path / "o.wav")])
        assert rc == 3
        assert "shape mismatch for 'G.out.weight'" in capsys.readouterr().err
        assert not (tmp_path / "o.wav").exists()

    def test_version_1_checkpoint(self, trained, corpus_dir, tmp_path, capsys):
        # same tensor names and shapes, but weights trained with the unscaled gate
        raw = bytearray(trained.read_bytes())
        raw[4:8] = (1).to_bytes(4, "little")
        old = tmp_path / "v1.ckpt"
        old.write_bytes(bytes(raw))
        src = sorted(corpus_dir.glob("*.wav"))[0]
        rc = cli.main(["vocode", "--ckpt", str(old), "--in", str(src),
                       "--out", str(tmp_path / "o.wav")])
        assert rc == 3
        assert "unsupported version 1" in capsys.readouterr().err
        assert not (tmp_path / "o.wav").exists()

    def test_missing_checkpoint(self, corpus_dir, tmp_path):
        src = sorted(corpus_dir.glob("*.wav"))[0]
        rc = cli.main(["vocode", "--ckpt", str(tmp_path / "nope.ckpt"), "--in", str(src),
                       "--out", str(tmp_path / "o.wav")])
        assert rc == 3


class TestGradCheckCommand:
    def test_passes(self, capsys):
        rc = cli.main(["grad-check", "--scope", "layer", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = [l for l in out.split("\n") if "max rel err" in l]
        names = [l.split(":")[0] for l in lines]
        assert len(names) == len(set(names))  # every op listed exactly once
        assert all("PASS" in l for l in lines)

    def test_injected_wrong_gradient_fails(self, monkeypatch, capsys):
        import abas.autodiff as ad
        import abas.verify

        orig = ad.tanh_

        def broken_tanh(x):
            t = orig(x)
            if x.tape is not None:
                name, oid, od, fn = x.tape._records[-1]
                x.tape._records[-1] = (
                    name, oid, od, lambda g: [(nid, 1.5 * ga) for nid, ga in fn(g)]
                )
            return t

        monkeypatch.setattr(ad, "tanh_", broken_tanh)
        monkeypatch.setattr(abas.verify.ad, "tanh_", broken_tanh)
        rc = cli.main(["grad-check", "--scope", "layer", "--seed", "0"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


class TestInspect:
    def test_prints_metadata(self, trained, capsys):
        rc = cli.main(["inspect-checkpoint", "--ckpt", str(trained)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "version: 3" in out and "step: 2" in out
        assert "G.enc.down0.weight" in out

    def test_mis_shaped_exit_code(self, trained, tmp_path):
        bad = rewrite_checkpoint(trained, tmp_path / "bad.ckpt", CHECKPOINT_DEFECTS["wrong_shape"])
        assert cli.main(["inspect-checkpoint", "--ckpt", str(bad)]) == 3

    @pytest.mark.parametrize("defect", sorted(LOAD_DEFECTS))
    def test_bad_metadata_exit_code(self, trained, tmp_path, capsys, defect):
        edit, named = LOAD_DEFECTS[defect]
        bad = rewrite_checkpoint(trained, tmp_path / "bad.ckpt", edit_file=edit)
        assert cli.main(["inspect-checkpoint", "--ckpt", str(bad)]) == 3
        assert named in capsys.readouterr().err

    def test_bad_magic_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert cli.main(["inspect-checkpoint", "--ckpt", str(bad)]) == 3


class TestUsageErrors:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen-corpus", "--nope", "1", "--out", "x"])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["vocode", "--ckpt", "x.ckpt"])
        assert exc.value.code == 2
