"""The calls the benchmark in ``perfbench/`` makes into abas.

The benchmark drives abas from outside and wraps some of its callables by
name, so a rename or a changed signature here breaks it without failing any
other test. These checks keep that surface fixed.
"""

import numpy as np
import pytest

from abas import autodiff as ad
from abas import model, nn
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
