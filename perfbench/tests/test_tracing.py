import numpy as np
import pytest

import abas
from abas import autodiff as ad
from abas.model import Discriminator, DiscriminatorConfig, Generator, GeneratorConfig, NoiseBundle
from perfbench import probes
from perfbench.patching import Patches
from perfbench.tracing import Span, Tracer, phases, self_times


def span(name, start, end, parent=-1):
    s = Span(name, start, parent, {})
    s.end = end
    return s


def test_self_time_subtracts_children():
    spans = [span("a", 0, 10), span("b", 1, 3, 0), span("c", 4, 8, 0), span("d", 5, 6, 2)]
    assert self_times(spans) == [4, 2, 3, 1]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [span("a", 0, 10), span("b", 2, 6, 0), span("c", 4, 7, 0), span("d", 9, 12, 0)]
    assert self_times(spans)[0] == pytest.approx(10 - 5 - 1)


def test_tracer_nests_by_call_order():
    ticks = iter(range(100))
    t = Tracer(clock=lambda: next(ticks))
    outer = t.begin("outer")
    t.end(t.begin("inner"))
    inner2 = t.begin("inner2")
    assert t.innermost("inn") is inner2
    t.end(inner2)
    t.end(outer)
    assert [s.parent for s in t.spans] == [-1, 0, 0]
    assert [s.duration for s in t.spans] == [5, 1, 1]
    assert self_times(t.spans) == [3, 1, 1]


def test_phases_follow_the_nearest_phase_span():
    spans = [span("bench.setup", 0, 1), span("x", 0, 1, 0), span("loop", 2, 9),
             span("bench.op", 3, 4, 2), span("y", 3, 4, 3), span("z", 5, 6, 2)]
    assert phases(spans, ("bench.setup", "bench.op")) == [
        "bench.setup", "bench.setup", None, "bench.op", "bench.op", None]


def _tiny_step(seed=0):
    rng = np.random.default_rng(seed)
    G = Generator(GeneratorConfig.tiny(), rng, np.float64)
    D = Discriminator(DiscriminatorConfig.tiny(), rng, np.float64)
    n = G.cfg.min_input_length * 2
    r = rng.standard_normal((1, n))
    z = NoiseBundle.draw(rng, G.cfg.noise_channels, n // G.cfg.compression, np.float64)
    tape = ad.Tape()
    fake = G.generate(tape.tensor(r), z)
    loss = ad.mean_(D.discriminate(fake, tape.tensor(r)))
    tape.backward(loss)
    return loss.item(), [p.grad.copy() for p in G.parameters() + D.parameters()]


def test_probes_change_no_value_and_come_off():
    record, conv1d = ad.Tape.record, ad.conv1d
    want_loss, want_grads = _tiny_step()
    tracer = Tracer()
    with Patches() as p:
        probes.install(p, tracer, abas)
        assert ad.conv1d is not conv1d
        op = tracer.begin(probes.PHASE_OP)
        loss, grads = _tiny_step()
        tracer.end(op)
    assert ad.Tape.record is record and ad.conv1d is conv1d
    assert loss == want_loss
    for a, b in zip(grads, want_grads):
        np.testing.assert_array_equal(a, b)

    metrics, gemms = probes.layer_metrics(tracer, n_ops=1, n_setups=1)
    for group in ("G.enc.down", "G.dec.gated", "G.up.stage.gated", "D.layer"):
        assert metrics[f"model.{group}.fwd_ms"] > 0
        assert metrics[f"model.{group}.bwd_ms"] > 0
    assert metrics["autodiff.flops_per_step"] > 0
    assert sum(gemms.values()) > 0
