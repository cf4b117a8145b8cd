import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abas import autodiff as ad
from abas.autodiff import Parameter, Tape, Tensor


def leaf(tape, arr):
    return tape.tensor(np.asarray(arr, dtype=np.float64))


class TestConv1d:
    def test_edge_detector(self):
        tape = Tape()
        y = ad.conv1d(leaf(tape, [[1.0, 2.0, 3.0]]), Parameter("w", [[[1.0, 0.0, -1.0]]]))
        assert np.allclose(y.data, [[-2.0]])

    def test_stride_two(self):
        tape = Tape()
        y = ad.conv1d(leaf(tape, [[1.0, 2.0, 3.0, 4.0]]), Parameter("w", [[[1.0, 1.0]]]), stride=2)
        assert np.allclose(y.data, [[3.0, 7.0]])

    def test_paper_shape_16000(self, rng):
        x = Tensor(rng.standard_normal((1, 16000), dtype=np.float32))
        w = Parameter("w", rng.standard_normal((32, 1, 64), dtype=np.float32))
        y = ad.conv1d(x, w, stride=2, pad=(31, 31), pad_mode="reflect")
        assert y.data.shape == (32, 8000)

    def test_length_formula(self, rng):
        for L, k, s, pl, pr in [(100, 7, 3, 2, 5), (64, 8, 2, 3, 3), (33, 65, 1, 32, 32)]:
            x = Tensor(rng.normal(size=(2, L)))
            w = Parameter("w", rng.normal(size=(3, 2, k)))
            y = ad.conv1d(x, w, stride=s, pad=(pl, pr))
            assert y.data.shape == (3, (L + pl + pr - k) // s + 1)

    def test_channel_mismatch(self, rng):
        with pytest.raises(ValueError, match="channel mismatch"):
            ad.conv1d(Tensor(np.zeros((2, 10))), Parameter("w", np.zeros((1, 3, 4))))

    def test_kernel_too_wide(self):
        with pytest.raises(ValueError, match="kernel width"):
            ad.conv1d(Tensor(np.zeros((1, 4))), Parameter("w", np.zeros((1, 1, 8))))

    def test_bias(self):
        tape = Tape()
        y = ad.conv1d(
            leaf(tape, [[1.0, 1.0]]), Parameter("w", [[[1.0]]]), Parameter("b", [2.5])
        )
        assert np.allclose(y.data, [[3.5, 3.5]])


class TestTconv1d:
    def test_single_tap(self):
        tape = Tape()
        y = ad.tconv1d(leaf(tape, [[1.0]]), Parameter("w", [[[1.0, 2.0]]]), stride=2)
        assert np.allclose(y.data, [[1.0, 2.0]])

    def test_disjoint_copies(self):
        tape = Tape()
        y = ad.tconv1d(leaf(tape, [[1.0, 1.0]]), Parameter("w", [[[1.0, 1.0]]]), stride=2)
        assert np.allclose(y.data, [[1.0, 1.0, 1.0, 1.0]])

    def test_doubling_length(self, rng):
        x = Tensor(rng.standard_normal((64, 1000), dtype=np.float32))
        w = Parameter("w", rng.standard_normal((64, 32, 66), dtype=np.float32))
        y = ad.tconv1d(x, w, stride=2, crop=(32, 32))
        assert y.data.shape == (32, 2000)

    def test_overlap_add(self):
        tape = Tape()
        y = ad.tconv1d(leaf(tape, [[1.0, 1.0]]), Parameter("w", [[[1.0, 1.0, 1.0]]]), stride=2)
        assert np.allclose(y.data, [[1.0, 1.0, 2.0, 1.0, 1.0]])

    def test_crop_too_large(self):
        with pytest.raises(ValueError, match="crop"):
            ad.tconv1d(Tensor(np.zeros((1, 2))), Parameter("w", np.zeros((1, 1, 2))), stride=2, crop=(2, 2))

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            ad.tconv1d(Tensor(np.zeros((2, 4))), Parameter("w", np.zeros((3, 1, 2))))


class TestAdjointIdentity:
    def test_conv_tconv_inner_products(self, rng):
        for _ in range(10):
            c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            k, s = int(rng.integers(1, 8)), int(rng.integers(1, 4))
            t = int(rng.integers(2, 9))
            lx = (t - 1) * s + k
            x = rng.normal(size=(c_in, lx))
            w = rng.normal(size=(c_out, c_in, k))
            y = rng.normal(size=(c_out, t))
            conv = ad.conv1d(Tensor(x), Parameter("w", w), stride=s)
            tconv = ad.tconv1d(Tensor(y), Parameter("w", w), stride=s)
            lhs = float(np.vdot(conv.data, y))
            rhs = float(np.vdot(x, tconv.data))
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


class TestReflectPad:
    def test_mirror(self):
        y = ad.reflect_pad(Tensor(np.array([[1.0, 2.0, 3.0]])), 2, 2)
        assert np.allclose(y.data, [[3.0, 2.0, 1.0, 2.0, 3.0, 2.0, 1.0]])

    def test_identity(self, rng):
        x = rng.normal(size=(2, 5))
        assert np.array_equal(ad.reflect_pad(Tensor(x), 0, 0).data, x)

    def test_gradient_folding(self):
        # gradient of sum after pad(2,2) on [1,2,3]: middle sample receives 3
        tape = Tape()
        x = leaf(tape, [[1.0, 2.0, 3.0]])
        y = ad.reflect_pad(x, 2, 2)
        loss = ad.scale_(ad.mean_(y), 7.0)  # sum = 7 * mean over 7 entries
        tape.backward(loss)
        assert np.allclose(tape.grad_of(x), [[2.0, 3.0, 2.0]])

    def test_max_legal_pad_gradient(self):
        tape = Tape()
        x = leaf(tape, [[1.0, 2.0, 3.0]])
        y = ad.reflect_pad(x, 2, 2)
        assert y.data.shape == (1, 7)

    def test_pad_too_large(self):
        with pytest.raises(ValueError, match="pad"):
            ad.reflect_pad(Tensor(np.zeros((1, 3))), 3, 0)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_adjoint_identity(self, data):
        # <pad(x), g> = <x, pad^T(g)>, pad^T being the backward of reflect_pad
        c = data.draw(st.integers(1, 4), label="C")
        length = data.draw(st.integers(2, 48), label="L")
        left = data.draw(st.integers(0, length - 1), label="left")
        right = data.draw(st.integers(0, length - 1), label="right")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.standard_normal((c, length))
        g = rng.standard_normal((c, length + left + right))
        tape = Tape()
        xt = tape.tensor(x)
        y = ad.reflect_pad(xt, left, right)
        tape.backward(ad.scale_(ad.mean_(ad.mul_(y, Tensor(g))), g.size))  # loss = <y, g>
        lhs = float(np.vdot(y.data, g))
        rhs = float(np.vdot(x, tape.grad_of(xt)))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestChannelSoftmax:
    def test_equal_logits(self):
        y = ad.channel_softmax(Tensor(np.zeros((2, 5))))
        assert np.allclose(y.data, 0.5)

    def test_log3_column(self):
        y = ad.channel_softmax(Tensor(np.array([[0.0], [np.log(3.0)]])))
        assert np.allclose(y.data, [[0.25], [0.75]])

    def test_single_channel(self, rng):
        y = ad.channel_softmax(Tensor(rng.normal(size=(1, 9))))
        assert np.allclose(y.data, 1.0)

    def test_columns_sum_to_one(self, rng):
        y = ad.channel_softmax(Tensor(rng.normal(size=(7, 13)) * 30))
        assert np.allclose(y.data.sum(axis=0), 1.0, atol=1e-6)
        assert np.all((y.data >= 0) & (y.data <= 1))


class TestPointwise:
    def test_prelu(self):
        tape = Tape()
        y = ad.prelu_(leaf(tape, [[-2.0, 2.0]]), Parameter("s", np.asarray(0.25)))
        assert np.allclose(y.data, [[-0.5, 2.0]])

    def test_leaky_relu_paper_slope(self):
        y = ad.leaky_relu_(Tensor(np.array([[-1.0, 1.0]])))
        assert np.allclose(y.data, [[-0.2, 1.0]])

    def test_concat(self, rng):
        a = Tensor(rng.normal(size=(32, 2000)).astype(np.float32))
        b = Tensor(rng.normal(size=(32, 2000)).astype(np.float32))
        assert ad.concat_channels_(a, b).data.shape == (64, 2000)

    def test_binary_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.add_(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))))

    def test_abs_mean(self):
        assert ad.abs_mean_(Tensor(np.array([[-3.0, 1.0]]))).item() == pytest.approx(2.0)

    def test_scalar_arithmetic(self):
        t = Tensor(np.array([[2.0]]))
        assert ad.scale_(t, -1.0).item() == -2.0
        assert ad.shift_(t, 1.0).item() == 3.0
        assert ad.relu_(Tensor(np.array([[-2.0]]))).item() == 0.0


class TestBackward:
    def test_tanh_at_zero(self):
        tape = Tape()
        x = leaf(tape, [[0.0]])
        tape.backward(ad.tanh_(x))
        assert np.allclose(tape.grad_of(x), [[1.0]])

    def test_accumulation_doubles(self, rng):
        w = Parameter("w", rng.normal(size=(2, 3, 4)))
        tape = Tape()
        x = leaf(tape, rng.normal(size=(3, 10)))
        loss = ad.abs_mean_(ad.conv1d(x, w))
        tape.backward(loss)
        once = w.grad.copy()
        tape.backward(loss)
        assert np.array_equal(w.grad, 2.0 * once)

    def test_empty_tape(self):
        tape = Tape()
        with pytest.raises(ValueError, match="empty tape"):
            tape.backward(tape.tensor(np.zeros((1, 1))))

    def test_non_scalar_loss(self, rng):
        tape = Tape()
        x = leaf(tape, rng.normal(size=(2, 3)))
        y = ad.tanh_(x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)

    def test_wrong_tape(self):
        t1, t2 = Tape(), Tape()
        x = leaf(t1, [[1.0]])
        y = ad.tanh_(x)
        leaf(t2, [[1.0]])
        with pytest.raises(ValueError, match="belong"):
            t2.backward(y)

    def test_deterministic(self, rng):
        w = Parameter("w", rng.normal(size=(2, 3, 4)))
        grads = []
        for _ in range(2):
            w.zero_grad()
            tape = Tape()
            x = tape.tensor(np.arange(30, dtype=np.float64).reshape(3, 10))
            tape.backward(ad.abs_mean_(ad.conv1d(x, w)))
            grads.append(w.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_first_nonfinite_names_op(self):
        tape = Tape()
        x = tape.tensor(np.array([[1e308]]))
        with np.errstate(over="ignore"):
            ad.scale_(ad.scale_(x, 1e308), 2.0)  # overflow at the first scale
        assert tape.first_nonfinite().startswith("scale")


class TestGradCheck:
    def test_linear_loss_exact(self, rng):
        w = Parameter("w", rng.normal(size=(1, 6)))

        def build():
            tape = Tape()
            return tape, ad.mean_(tape.leaf(w))

        assert ad.grad_check(build, [w], coords_per_param=6) <= 1e-10

    def test_gradient_suite_passes(self):
        from abas.verify import TOLERANCE, gradient_suite

        results = gradient_suite(scope="layer", seed=0)
        worst = max(err for _, err in results)
        assert worst <= TOLERANCE, f"worst: {worst}"

    def test_finite_differences_catch_wrong_gradient(self, rng):
        w = Parameter("w", rng.normal(size=(1, 4)))

        def build():
            tape = Tape()
            t = tape.leaf(w)
            y = ad.scale_(t, 2.0)
            # corrupt the recorded backward to simulate a broken op
            name, oid, od, fn = tape._records[-1]
            tape._records[-1] = (name, oid, od, lambda g: [(p, q * 3) for p, q in fn(g)])
            return tape, ad.mean_(y)

        assert ad.grad_check(build, [w], coords_per_param=4) > 0.1


class TestNoGradMode:
    def test_tapeless_matches_taped(self, rng):
        w = Parameter("w", rng.normal(size=(3, 2, 5)))
        b = Parameter("b", rng.normal(size=3))
        x = rng.normal(size=(2, 20))
        tape = Tape()
        taped = ad.conv1d(tape.tensor(x), w, b, stride=2, pad=(2, 2), pad_mode="reflect")
        plain = ad.conv1d(Tensor(x), w, b, stride=2, pad=(2, 2), pad_mode="reflect")
        assert np.array_equal(taped.data, plain.data)
        assert plain.tape is None and not Tape().__dict__.get("_records")
