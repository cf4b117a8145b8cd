"""The calls the benchmark in ``perfbench/`` makes into abas.

The benchmark drives abas from outside and wraps some of its callables by
name, so a rename or a changed signature here breaks it without failing any
other test. These checks keep that surface fixed.
"""

import inspect

import numpy as np
import pytest

from abas import autodiff as ad
from abas import cli, dsp, metrics, model, nn, wavio
from abas import train as T


class _Stop(Exception):
    pass


def test_build_models_takes_the_config_alone():
    G, D = T.build_models(T.TrainConfig(seed=2))
    assert isinstance(G, model.Generator) and isinstance(D, model.Discriminator)


def test_save_checkpoint_with_eight_positional_arguments(tmp_path):
    cfg = T.TrainConfig(seed=2)
    rng = np.random.default_rng(0)
    G, D = model.Generator(model.GeneratorConfig.tiny(), rng), model.Discriminator(
        model.DiscriminatorConfig.tiny(), rng)
    T.save_checkpoint(tmp_path / "a.ckpt", cfg, G, D, T.AdamState(G.parameters()),
                      T.AdamState(D.parameters()),
                      np.random.default_rng([cfg.seed, 1]).bit_generator.state, 0)
    ckpt = T.load_checkpoint(tmp_path / "a.ckpt")
    assert (ckpt.step, ckpt.cond_scale) == (0, 1.0)


def test_train_loop_calls_train_step_through_the_module(monkeypatch, tmp_path):
    calls = []

    def stop(*args, **kwargs):
        calls.append(args)
        raise _Stop

    monkeypatch.setattr(T, "train_step", stop)
    cfg = T.TrainConfig(batch_size=1, segment_len=528, steps=1,
                        synthetic={"n_clips": 1, "clip_len": 528})
    with pytest.raises(_Stop):
        T.train_loop(cfg, tmp_path)
    assert len(calls) == 1


def test_vocode_hands_write_wav_a_signal_with_samples(monkeypatch, tmp_path):
    # the benchmark writes its inputs as write_wav(path, AudioSignal(clip)) and
    # wraps write_wav to read .samples from whatever vocode hands it
    clip = T.synthesize_clip(np.random.default_rng(0), 528)
    wavio.write_wav(tmp_path / "in.wav", dsp.AudioSignal(clip))
    cfg = T.TrainConfig(segment_len=528, seed=2)
    G, D = T.build_models(cfg)
    T.save_checkpoint(tmp_path / "a.ckpt", cfg, G, D, T.AdamState(G.parameters()),
                      T.AdamState(D.parameters()),
                      np.random.default_rng([cfg.seed, 1]).bit_generator.state, 0)
    seen = []

    def spy(path, signal, write=wavio.write_wav):
        seen.append(signal.samples)
        return write(path, signal)

    monkeypatch.setattr(cli, "write_wav", spy)
    assert cli.main(["vocode", "--ckpt", str(tmp_path / "a.ckpt"),
                     "--in", str(tmp_path / "in.wav"), "--out", str(tmp_path / "out.wav")]) == 0
    assert [s.shape for s in seen] == [(528,)]


def test_noise_bundle_draw_takes_rng_channels_length_dtype():
    z = model.NoiseBundle.draw(np.random.default_rng(0), 3, 5, np.float64)
    assert (z.base.shape, z.base.dtype) == ((3, 5), np.float64)


def test_tape_grad_of_an_input():
    tape = ad.Tape()
    x = tape.tensor(np.array([[1.0, 2.0]]))
    tape.backward(ad.mean_(ad.mul_(x, x)))
    np.testing.assert_array_equal(tape.grad_of(x), [[1.0, 2.0]])


def test_array_pool_can_be_cleared():
    ad.pool.clear()


@pytest.mark.parametrize("cls,name", [
    (model.Generator, "generate"),
    (model.Discriminator, "discriminate"),
    (model.Generator, "advance_spectral_norm"),
    (model.Discriminator, "advance_spectral_norm"),
    (ad.Tape, "record"),
    (ad.Tape, "backward"),
    (nn.Conv1d, "__call__"),
    (nn.TConv1d, "__call__"),
    (nn.GatedConvLayer, "__call__"),
])
def test_wrapped_methods_are_defined_on_their_own_class(cls, name):
    # the benchmark replaces cls.__dict__[name]; an inherited method is not there
    assert callable(cls.__dict__[name])


@pytest.mark.parametrize("module,name", [
    *((ad, name) for name in (
        "conv1d", "tconv1d", "gated_conv_pair", "reflect_pad", "channel_softmax",
        "tanh_", "sigmoid_", "prelu_", "leaky_relu_", "relu_", "mul_", "add_", "sub_",
        "concat_channels_", "scale_", "shift_", "abs_mean_", "mean_",
    )),
    (nn, "spectral_normalize"),
    *((T, name) for name in ("train_step", "adam_amsgrad_step", "load_checkpoint",
                             "save_checkpoint", "load_corpus", "residuals_for")),
    (dsp, "lpc_analyze"),
    (dsp, "cross_synthesize"),
    (wavio, "read_wav"),
    (wavio, "write_wav"),
    (metrics, "ssnr"),
    (metrics, "l1_distance"),
    (metrics, "log_spectral_distance"),
], ids=lambda v: getattr(v, "__name__", v))
def test_wrapped_functions_are_module_attributes(module, name):
    # the benchmark looks each one up with getattr(module, name)
    assert inspect.isfunction(getattr(module, name))


def test_layer_names():
    # the benchmark groups layer spans by .name on Conv1d and TConv1d, and by
    # the name of a GatedConvLayer's filter conv with its ".filter" cut off
    rng = np.random.default_rng(0)
    assert nn.Conv1d(rng, "a.conv", 2, 3, 4, 2, (1, 1), "zero").name == "a.conv"
    assert nn.TConv1d(rng, "a.tconv", 2, 3, 4, 2, (1, 1)).name == "a.tconv"
    gated = nn.GatedConvLayer(rng, "a.gated", 2, 2, 5, nn.GATE_SOFTMAX)
    assert gated.filter.name == "a.gated.filter"


def test_gated_conv_pair_signature():
    # the benchmark reads the input and filter weight as the first two arguments
    assert list(inspect.signature(ad.gated_conv_pair).parameters) == [
        "x", "w_filter", "b_filter", "w_gate", "b_gate", "pad", "gate_kind"]


def test_tape_record_signature():
    # the benchmark replaces Tape.record with a wrapper of this signature
    assert list(inspect.signature(ad.Tape.record).parameters) == [
        "self", "name", "out_data", "backward_fn"]


@pytest.mark.parametrize("op", [
    lambda x: ad.conv1d(x, np.ones((3, 2, 4), np.float32), None, 2, (1, 1), "reflect"),
    lambda x: ad.conv1d(x, np.ones((1, 2, 5), np.float32), None, 1, (2, 2), "reflect"),
    lambda x: ad.tconv1d(x, np.ones((2, 3, 4), np.float32), None, 2, (1, 1)),
    lambda x: ad.gated_conv_pair(x, np.ones((2, 2, 5), np.float32), None,
                                 np.ones((2, 2, 5), np.float32), None, 2),
], ids=["conv1d", "conv1d-narrowing", "tconv1d", "gated_conv_pair"])
def test_conv_ops_keep_2d_data_over_segments(op):
    # the benchmark costs a conv-kind call from x.data.shape unpacked as
    # (c_in, length) and from the output's (c_out, t): the columns of every segment
    x = ad.Tensor(np.ones((2, 3 * 40), np.float32), segments=3)
    y = op(x)
    assert x.data.ndim == 2 and y.data.ndim == 2
    assert y.segments == 3 and y.data.shape[1] == 3 * y.length
