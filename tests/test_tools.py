"""tools/same_outputs.py's handling of its arguments, and its --close oracle."""

import importlib.util
import shutil
from pathlib import Path

import numpy as np
import pytest

from abas import train

ROOT = Path(__file__).resolve().parents[1]


def load_same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def same_outputs(monkeypatch):
    mod = load_same_outputs()

    def run_side(src, run_dir, ckpt=None):  # the same one output file on either side
        run_dir.mkdir(parents=True)
        (run_dir / "out.txt").write_text("same\n")

    monkeypatch.setattr(mod, "run_side", run_side)
    return mod


def test_missing_work_dir_is_created(same_outputs, tmp_path):
    work = tmp_path / "not" / "yet"
    src = str(ROOT / "src")
    assert same_outputs.main([src, src, "--work", str(work)]) == 0
    assert work.is_dir()


def test_unusable_work_dir_exits_2(same_outputs, tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    src = str(ROOT / "src")
    with pytest.raises(SystemExit) as exit_info:
        same_outputs.main([src, src, "--work", str(blocker / "sub")])
    assert exit_info.value.code == 2
    assert "cannot use --work" in capsys.readouterr().err


def test_close_passes_same_tree_and_fails_a_shifted_tap(tmp_path, capsys):
    # a checkpoint of fresh default models at segment 16000, so vocoding runs
    # the FFT product as well as the polyphase transposed convs
    config = train.TrainConfig(segment_len=16000, batch_size=1, seed=0)
    G, D = train.build_models(config)
    ckpt = tmp_path / "fresh.ckpt"
    train.save_checkpoint(ckpt, config, G, D, train.AdamState(G.parameters()),
                          train.AdamState(D.parameters()),
                          np.random.default_rng(0).bit_generator.state, 0)
    src = ROOT / "src"
    planted = tmp_path / "planted"
    shutil.copytree(src / "abas", planted / "abas", ignore=shutil.ignore_patterns("__pycache__"))
    autodiff = planted / "abas" / "autodiff.py"
    text = autodiff.read_text()
    # the transposed convs' forward taps shifted by one: tap j reads w[..., j - 1]
    tap = "_phase_taps(w_mat, k, stride).reshape(c_in, c_out, stride, taps)"
    assert text.count(tap) == 1
    shifted = "np.pad(w_data[..., :-1], ((0, 0), (0, 0), (1, 0))).reshape(c_in, -1)"
    autodiff.write_text(text.replace(tap, tap.replace("w_mat", shifted, 1)))
    mod = load_same_outputs()
    runs = {}  # (src, ckpt) -> a copy of its first run directory
    real_run_side = mod.run_side

    def run_side(side_src, run_dir, side_ckpt=None):  # the unchanged src tree runs once
        key = (side_src, side_ckpt)
        if key in runs:
            shutil.copytree(runs[key], run_dir)
            return
        real_run_side(side_src, run_dir, side_ckpt)
        runs[key] = tmp_path / "runs" / str(len(runs))
        shutil.copytree(run_dir, runs[key])

    mod.run_side = run_side
    args = ["--ckpt", str(ckpt), "--close", "--work", str(tmp_path / "work")]
    assert mod.main([str(src), str(src), *args]) == 0
    assert "byte-identical" in capsys.readouterr().out
    assert mod.main([str(src), str(planted), *args]) == 1
    out = capsys.readouterr().out
    assert "differs: vocoded_multi_raw.wav: relative RMS" in out
    assert len(runs) == 2  # src and the planted tree, each run once


def test_close_fails_a_shifted_tap_in_the_input_gradient(tmp_path, capsys):
    # a tap off by one in the FFT input gradient leaves vocoding alone; the
    # gradients of the training half show it
    config = train.TrainConfig(segment_len=1600, batch_size=1, seed=0)
    G, D = train.build_models(config)
    ckpt = tmp_path / "fresh.ckpt"
    train.save_checkpoint(ckpt, config, G, D, train.AdamState(G.parameters()),
                          train.AdamState(D.parameters()),
                          np.random.default_rng(0).bit_generator.state, 0)
    src = ROOT / "src"
    planted = tmp_path / "planted"
    shutil.copytree(src / "abas", planted / "abas", ignore=shutil.ignore_patterns("__pycache__"))
    autodiff = planted / "abas" / "autodiff.py"
    text = autodiff.read_text()
    flip = "w_mat.reshape(-1, c, k)[:, :, ::-1]"
    assert text.count(flip) == 1
    autodiff.write_text(text.replace(flip, f"np.roll({flip}, 1, axis=2)"))
    mod = load_same_outputs()
    args = ["--ckpt", str(ckpt), "--close", "--work", str(tmp_path / "work")]
    assert mod.main([str(src), str(planted), *args]) == 1
    out = capsys.readouterr().out
    assert "differs: grads.npz: " in out
    assert "1 of " in out  # vocoding is unchanged


def test_close_needs_ckpt(capsys):
    src = str(ROOT / "src")
    with pytest.raises(SystemExit) as exit_info:
        load_same_outputs().main([src, src, "--close"])
    assert exit_info.value.code == 2
    assert "--close needs --ckpt" in capsys.readouterr().err
