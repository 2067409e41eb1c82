from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lident import autodiff as ad
from lident.errors import ConfigError, ShapeError, TapeError
from reference import central_difference, conv_dense_reference, max_rel_err

TOL = 1e-5


def gradcheck(build, arrays: dict[str, np.ndarray]) -> float:
    """Worst relative error between backprop and central differences."""
    tape = ad.Tape()
    wrapped = {name: tape.leaf(arr) for name, arr in arrays.items()}
    tape.backward(build(wrapped))
    worst = 0.0
    for name, arr in arrays.items():
        def forward_value() -> float:
            constants = {n: ad.Tensor(a) for n, a in arrays.items()}
            return float(build(constants).data)

        fd = central_difference(forward_value, arr)
        worst = max(worst, max_rel_err(tape.grad(wrapped[name]), fd))
    return worst


def projection(out: ad.Tensor, seed: int = 0) -> ad.Tensor:
    """Cross-entropy of `out`'s last axis against random targets: a scalar whose
    gradient, softmax minus one-hot, differs at every output element."""
    targets = np.random.default_rng(seed).integers(0, out.data.shape[-1], out.data.shape[:-1])
    return ad.softmax_cross_entropy(out, targets)[0]


def max_pool(x: ad.Tensor, pool: int) -> ad.Tensor:
    """conv1d's max-pooling of x[..., time, ch] alone: a width-1 identity kernel, zero bias."""
    ch = x.data.shape[-1]
    return ad.conv1d(x, ad.Tensor(np.eye(ch)[:, None, :]), ad.Tensor(np.zeros(ch)), pool)


class TestForwardValues:
    def test_conv_output_length(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.normal(size=(256, 2)))
        k = ad.Tensor(rng.normal(size=(3, 7, 2)))
        b = ad.Tensor(np.zeros(3))
        assert ad.conv1d(x, k, b).shape == (250, 3)

    def test_conv_identity_kernel(self):
        x = ad.Tensor(np.arange(6.0).reshape(6, 1))
        k = ad.Tensor(np.ones((1, 1, 1)))
        b = ad.Tensor(np.zeros(1))
        assert np.array_equal(ad.conv1d(x, k, b).data, x.data)

    def test_conv_zero_kernels_constant_bias(self):
        x = ad.Tensor(np.random.default_rng(1).normal(size=(10, 3)))
        k = ad.Tensor(np.zeros((4, 3, 3)))
        b = ad.Tensor(np.full(4, 2.5))
        out = ad.conv1d(x, k, b)
        assert np.all(out.data == 2.5)

    def test_conv_too_short(self):
        x = ad.Tensor(np.zeros((4, 1)))
        with pytest.raises(ShapeError):
            ad.conv1d(x, ad.Tensor(np.zeros((1, 7, 1))), ad.Tensor(np.zeros(1)))

    def test_pool_lengths_and_values(self):
        x = ad.Tensor(np.array([[1.0], [3.0], [2.0]]))
        out = max_pool(x, 3)
        assert out.data.tolist() == [[3.0]]
        long = ad.Tensor(np.zeros((250, 4)))
        assert max_pool(long, 3).shape == (83, 4)

    def test_pool_too_short(self):
        with pytest.raises(ShapeError):
            max_pool(ad.Tensor(np.zeros((2, 1))), 3)

    def test_pool_tie_routes_to_first(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones((3, 1)))
        tape.backward(ad.vsum(max_pool(x, 3)))
        assert tape.grad(x).tolist() == [[1.0], [0.0], [0.0]]

    @settings(max_examples=60, deadline=None)
    @given(
        time=st.integers(min_value=1, max_value=40),
        width=st.integers(min_value=1, max_value=10),
        pool=st.integers(min_value=1, max_value=6),
        channels=st.integers(min_value=1, max_value=3),
    )
    def test_shape_algebra(self, time, width, pool, channels):
        x = ad.Tensor(np.zeros((time, channels)))
        if time < width:
            with pytest.raises(ShapeError):
                ad.conv1d(x, ad.Tensor(np.zeros((2, width, channels))), ad.Tensor(np.zeros(2)))
            return
        out = ad.conv1d(x, ad.Tensor(np.zeros((2, width, channels))), ad.Tensor(np.zeros(2)))
        assert out.shape == (time - width + 1, 2)
        if out.shape[0] >= pool:
            assert max_pool(out, pool).shape == (out.shape[0] // pool, 2)

    def test_softmax_uniform(self):
        loss, probs = ad.softmax_cross_entropy(ad.Tensor(np.zeros(12)), 5)
        assert probs == pytest.approx(np.full(12, 1 / 12), abs=1e-15)
        assert float(loss.data) == pytest.approx(math.log(12), abs=1e-12)
        assert float(loss.data) == pytest.approx(2.4849, abs=1e-4)

    def test_softmax_extreme_logits_stable(self):
        loss, probs = ad.softmax_cross_entropy(ad.Tensor(np.array([1000.0, 0.0])), 0)
        assert probs[0] == pytest.approx(1.0, abs=1e-12)
        assert float(loss.data) == 0.0
        assert np.isfinite(probs).all()

    def test_softmax_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            logits = rng.normal(scale=5.0, size=7)
            loss, probs = ad.softmax_cross_entropy(ad.Tensor(logits), int(rng.integers(7)))
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert float(loss.data) >= 0.0

    def test_softmax_target_out_of_range(self):
        with pytest.raises(IndexError):
            ad.softmax_cross_entropy(ad.Tensor(np.zeros(3)), 3)

    def test_lstm_zero_weights_zero_output(self):
        x = ad.Tensor(np.random.default_rng(0).normal(size=(5, 2)))
        out = ad.lstm_forward(x, ad.Tensor(np.zeros((12, 5))), ad.Tensor(np.zeros(12)))
        assert np.all(out.data == 0.0)

    def test_lstm_single_step_matches_hand_evaluation(self):
        # hidden size 1, input size 1: z = w @ [x, h0] + b with h0 = 0
        x_val, w_col, b_val = 0.7, [0.3, -0.4, 0.2, 0.5], [0.1, -0.2, 0.3, -0.1]
        x = ad.Tensor(np.array([[x_val]]))
        w = ad.Tensor(np.array([[c, 0.0] for c in w_col]))
        b = ad.Tensor(np.array(b_val))
        out = ad.lstm_forward(x, w, b)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        gate_in = sig(w_col[0] * x_val + b_val[0])
        gate_forget = sig(w_col[1] * x_val + b_val[1])  # noqa: F841  (zero state)
        gate_out = sig(w_col[2] * x_val + b_val[2])
        candidate = math.tanh(w_col[3] * x_val + b_val[3])
        cell = gate_in * candidate
        expected = gate_out * math.tanh(cell)
        assert float(out.data[0, 0]) == pytest.approx(expected, abs=1e-12)

    def test_lstm_reverse_on_single_step_matches_forward(self):
        rng = np.random.default_rng(4)
        x = ad.Tensor(rng.normal(size=(1, 3)))
        w = ad.Tensor(rng.normal(size=(8, 5)))
        b = ad.Tensor(rng.normal(size=8))
        fwd = ad.lstm_forward(x, w, b)
        rev = ad.lstm_forward(x, w, b, reverse=True)
        assert np.array_equal(fwd.data, rev.data)

    def test_relu_sigmoid_tanh_values(self):
        # relu is an op; sigmoid and tanh are the LSTM's gate nonlinearities
        x = np.array([-2.0, 0.0, 3.0])
        assert ad.relu(ad.Tensor(x)).data.tolist() == [0.0, 0.0, 3.0]
        assert ad._sigmoid(x) == pytest.approx(1 / (1 + np.exp(-x)))
        assert np.isfinite(ad._sigmoid(np.array([-800.0, 800.0]))).all()
        # gates saturated by huge pre-activations stay finite through tanh too:
        # all gates open at +800 (c = 1), then all shut at -800 (c = 0)
        saturated = ad.lstm_forward(
            ad.Tensor(np.array([[[800.0], [-800.0]]])),
            ad.Tensor(np.full((4, 2), 1.0)),
            ad.Tensor(np.zeros(4)),
        )
        assert saturated.data.ravel() == pytest.approx([math.tanh(1.0), 0.0], abs=1e-12)

    def test_lstm_batch_rows_match_single_runs(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4, 2))
        w = ad.Tensor(rng.normal(size=(12, 5)))
        b = ad.Tensor(rng.normal(size=12))
        for reverse in (False, True):
            batched = ad.lstm_forward(ad.Tensor(x), w, b, reverse=reverse).data
            for i in range(3):
                single = ad.lstm_forward(ad.Tensor(x[i]), w, b, reverse=reverse).data
                assert np.allclose(batched[i], single, rtol=0, atol=1e-14)

    def test_index_conv_equals_one_hot_conv(self):
        rng = np.random.default_rng(6)
        idx = rng.integers(-1, 5, size=(3, 12))
        one_hot = np.eye(6)[idx][..., :5]  # index -1 is an all-zero row
        k = ad.Tensor(rng.normal(size=(4, 3, 5)))
        b = ad.Tensor(rng.normal(size=4))
        gathered = ad.conv1d(idx, k, b).data
        assert gathered.shape == (3, 10, 4)
        assert np.allclose(gathered, ad.conv1d(ad.Tensor(one_hot), k, b).data, rtol=0, atol=1e-13)

    def test_index_conv_rejects_bad_indices(self):
        k, b = ad.Tensor(np.zeros((2, 3, 5))), ad.Tensor(np.zeros(2))
        for bad in (np.array([0, 1, 5, 2]), np.array([0, -2, 1, 1])):
            with pytest.raises(ShapeError):
                ad.conv1d(bad, k, b)
        with pytest.raises(ShapeError):
            ad.conv1d(np.array([0.0, 1.0, 2.0]), k, b)  # floats are not indices


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = ad.Tensor(np.arange(5.0))
        assert ad.dropout(x, 0.0, 1, True) is x
        assert ad.dropout(x, 0.0, 1, False) is x

    def test_eval_mode_is_identity(self):
        x = ad.Tensor(np.arange(5.0))
        assert ad.dropout(x, 0.9, 1, False) is x

    def test_invalid_rate(self):
        x = ad.Tensor(np.ones(2))
        for rate in (1.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                ad.dropout(x, rate, 0, True)

    def test_same_seed_same_mask(self):
        x = ad.Tensor(np.ones(64))
        a = ad.dropout(x, 0.5, 7, True).data
        b = ad.dropout(x, 0.5, 7, True).data
        c = ad.dropout(x, 0.5, 8, True).data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_train_mode_preserves_expectation(self):
        # inverted dropout: E[out] = x; Monte-Carlo check within 3 sigma
        rate, n = 0.5, 100_000
        value = 2.0
        x = ad.Tensor(np.full((n,), value))
        out = ad.dropout(x, rate, 123, True).data
        sigma_mean = value * math.sqrt(rate / (1 - rate)) / math.sqrt(n)
        assert abs(out.mean() - value) < 3 * sigma_mean


class TestBackwardMechanics:
    def test_linear_scalar(self):
        tape = ad.Tape()
        w = tape.leaf(np.array([[2.0]]))
        tape.backward(ad.vsum(ad.dense(ad.Tensor(np.array([3.0])), w, ad.Tensor(np.zeros(1)))))
        assert tape.grad(w).tolist() == [[3.0]]

    def test_unused_leaf_gets_zero_gradient(self):
        tape = ad.Tape()
        w1 = tape.leaf(np.ones(3))
        w2 = tape.leaf(np.ones(4))
        tape.backward(ad.vsum(w1))
        assert np.array_equal(tape.grad(w2), np.zeros(4))

    def test_backward_requires_recorded_scalar(self):
        tape = ad.Tape()
        w = tape.leaf(np.ones(3))
        with pytest.raises(TapeError):
            tape.backward(ad.Tensor(np.array(1.0)))  # never recorded
        loss = ad.vsum(w)
        other = ad.Tape()
        with pytest.raises(TapeError):
            other.backward(loss)

    def test_backward_rejects_non_scalar(self):
        tape = ad.Tape()
        w = tape.leaf(np.ones(3))
        out = ad.relu(w)
        with pytest.raises(ShapeError):
            tape.backward(out)

    def test_tape_single_use(self):
        tape = ad.Tape()
        w = tape.leaf(np.ones(2))
        loss = ad.vsum(w)
        tape.backward(loss)
        with pytest.raises(TapeError):
            tape.backward(loss)
        with pytest.raises(TapeError):
            ad.relu(w)  # recording onto a consumed tape

    def test_mixed_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        with pytest.raises(TapeError):
            ad.dense(t1.leaf(np.ones(2)), t2.leaf(np.ones((2, 2))), t1.leaf(np.zeros(2)))

    def test_grad_before_backward(self):
        tape = ad.Tape()
        w = tape.leaf(np.ones(2))
        with pytest.raises(TapeError):
            tape.grad(w)


class TestGradientChecks:
    """Every primitive against central finite differences (h=1e-5).

    Inputs are seeded and kept away from kinks: ReLU arguments have a margin
    from zero and pool windows contain well-separated values, otherwise the
    finite-difference step itself crosses a non-differentiability.
    """

    def test_conv1d(self):
        rng = np.random.default_rng(42)
        arrays = {
            "x": rng.uniform(-1, 1, (11, 3)),
            "k": rng.uniform(-1, 1, (4, 5, 3)),
            "b": rng.uniform(-1, 1, 4),
        }
        err = gradcheck(lambda w: projection(ad.conv1d(w["x"], w["k"], w["b"])), arrays)
        assert err < TOL

    def test_max_pool(self):
        rng = np.random.default_rng(7)
        arrays = {"x": rng.permutation(np.linspace(-2, 2, 24)).reshape(12, 2)}
        err = gradcheck(lambda w: projection(max_pool(w["x"], 3)), arrays)
        assert err < TOL

    def test_dense(self):
        rng = np.random.default_rng(8)
        arrays = {
            "x": rng.uniform(-1, 1, 6),
            "w": rng.uniform(-1, 1, (4, 6)),
            "b": rng.uniform(-1, 1, 4),
        }
        err = gradcheck(lambda t: projection(ad.dense(t["x"], t["w"], t["b"])), arrays)
        assert err < TOL

    def test_relu_off_kink(self):
        rng = np.random.default_rng(9)
        x = np.concatenate([rng.uniform(0.2, 1.0, 5), rng.uniform(-1.0, -0.2, 5)])
        err = gradcheck(lambda t: projection(ad.relu(t["x"])), {"x": x})
        assert err < TOL

    def test_dropout_fixed_seed(self):
        rng = np.random.default_rng(11)
        arrays = {"x": rng.uniform(0.5, 1.5, 10)}
        err = gradcheck(lambda t: projection(ad.dropout(t["x"], 0.4, 123, True)), arrays)
        assert err < TOL

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(12)
        arrays = {"x": rng.uniform(-1, 1, 5)}
        err = gradcheck(lambda t: ad.softmax_cross_entropy(t["x"], 2)[0], arrays)
        assert err < TOL

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm(self, reverse):
        rng = np.random.default_rng(13)
        arrays = {
            "x": rng.uniform(-1, 1, (5, 3)),
            "w": rng.uniform(-0.5, 0.5, (8, 5)),
            "b": rng.uniform(-0.2, 0.2, 8),
        }
        err = gradcheck(
            lambda t: projection(ad.lstm_forward(t["x"], t["w"], t["b"], reverse=reverse)),
            arrays,
        )
        assert err < TOL

    def test_plumbing_ops(self):
        rng = np.random.default_rng(14)
        # a leaf read twice gathers both gradients
        arrays = {"a": rng.uniform(-1, 1, 6), "w": rng.uniform(-1, 1, (6, 6)), "b": rng.uniform(-1, 1, 6)}
        err = gradcheck(lambda t: ad.vsum(ad.dense(ad.dense(t["a"], t["w"], t["b"]), t["w"], t["b"])), arrays)
        assert err < TOL
        arrays = {"f": rng.uniform(-1, 1, (3, 4, 2)), "b": rng.uniform(-1, 1, (3, 4, 5))}
        err = gradcheck(lambda t: projection(ad.final_states(t["f"], t["b"])), arrays)
        assert err < TOL
        out = ad.final_states(ad.Tensor(arrays["f"]), ad.Tensor(arrays["b"])).data
        assert np.array_equal(out, np.concatenate([arrays["f"][:, -1], arrays["b"][:, 0]], axis=1))


def assert_whole_batch_bits(x: np.ndarray, k: np.ndarray, b: np.ndarray, pool: int = 1, loss=projection) -> None:
    """conv1d's output, taped and tape-free, and its gradients equal those of
    the whole-batch im2col product and max-pool bit for bit. Int indices `x`
    are checked against the one-hot rows they stand for."""
    indices = np.issubdtype(x.dtype, np.integer)
    tape = ad.Tape()
    leaves = [tape.leaf(a) for a in (k, b)] + ([] if indices else [tape.leaf(x)])
    out = ad.conv1d(x if indices else leaves[2], leaves[0], leaves[1], pool)
    tape.backward(loss(out))
    dense_x = np.eye(k.shape[2] + 1)[x][..., :-1] if indices else x
    expected = conv_dense_reference(dense_x, k, b, out.grad, pool)
    assert np.array_equal(out.data, expected[0])
    for leaf, grad in zip(leaves, expected[1:]):
        assert np.array_equal(tape.grad(leaf), grad)
    untaped = ad.conv1d(x if indices else ad.Tensor(x), ad.Tensor(k), ad.Tensor(b), pool)
    assert np.array_equal(untaped.data, expected[0])


class TestConvBlocks:
    """Past one block, the dense conv1d unrolls blocks of sequences and
    differentiates one kernel tap at a time; its output and gradients must keep
    the bits of the whole-batch im2col product."""

    @pytest.mark.parametrize("time, width, in_ch, out_ch", [(83, 7, 256, 256), (25, 3, 256, 256)])
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
    def test_default_shapes_keep_whole_batch_bits(self, time, width, in_ch, out_ch, blocks, extra):
        # conv2's and conv3's shapes at the default config, below, at and across block boundaries
        block = ad._CONV_BLOCK // ((time - width + 1) * width * in_ch)
        assert block > 2
        rng = np.random.default_rng(31)
        x = rng.uniform(-1, 1, (blocks * block + extra, time, in_ch))
        assert_whole_batch_bits(x, rng.uniform(-1, 1, (out_ch, width, in_ch)), rng.uniform(-1, 1, out_ch))

    @pytest.mark.parametrize("batch, time, width, in_ch, out_ch", [(8, 42, 2, 50, 64), (23, 45, 6, 4, 256)])
    def test_one_block_runs_the_whole_batch_products(self, batch, time, width, in_ch, out_ch):
        # Channel counts off a multiple of 8, where a product one tap wide can
        # round differently from the whole product: within one block the
        # backward pass takes all taps at once, so any shape keeps the bits.
        assert batch * (time - width + 1) * width * in_ch <= ad._CONV_BLOCK
        rng = np.random.default_rng(32)
        x = rng.uniform(-1, 1, (batch, time, in_ch))
        assert_whole_batch_bits(x, rng.uniform(-1, 1, (out_ch, width, in_ch)), rng.uniform(-1, 1, out_ch))


class TestPooledConv:
    """conv1d with `pool` keeps the bits of the whole-batch convolution followed
    by a whole-batch max-pool, and routes each window's gradient to its first
    maximal step."""

    @pytest.mark.parametrize("time, width", [(83, 7), (25, 3)])
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 1), (2, 1)])
    def test_default_shapes_keep_whole_batch_bits(self, time, width, blocks, extra):
        # conv2's and conv3's shapes at the default config, below and across block boundaries
        block = ad._CONV_BLOCK // ((time - width + 1) * width * 256)
        rng = np.random.default_rng(33)
        x = rng.uniform(-1, 1, (blocks * block + extra, time, 256))
        assert_whole_batch_bits(x, rng.uniform(-1, 1, (256, width, 256)), rng.uniform(-1, 1, 256), 3)

    @pytest.mark.parametrize("indices", [True, False])
    @pytest.mark.parametrize("lead", [(1,), (5,), (2, 3)])
    @pytest.mark.parametrize("pool", [1, 2, 3, 4])
    def test_integer_values_with_ties(self, indices, lead, pool):
        # Small integers keep every sum exact in any order and tie many windows;
        # dropout at rate 0.5 makes each output's gradient 0 or 2, so gradients stay exact too.
        rng = np.random.default_rng(34)
        x = rng.integers(-1, 6, (*lead, 20)) if indices else rng.integers(-2, 3, (*lead, 20, 6)).astype(float)
        x[(0,) * len(lead)][12:] = -1 if indices else 0.0  # a padded tail
        k = rng.integers(-2, 3, (4, 3, 6)).astype(float)
        b = rng.integers(-2, 3, 4).astype(float)
        assert_whole_batch_bits(x, k, b, pool, loss=lambda out: ad.vsum(ad.dropout(out, 0.5, 7, True)))

    def test_ties_route_to_the_first_maximal_step(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([[2.0], [5.0], [5.0], [1.0], [1.0], [1.0], [3.0]]))
        out = max_pool(x, 3)
        tape.backward(ad.vsum(out))
        assert out.data.tolist() == [[5.0], [1.0]]
        assert tape.grad(x).ravel().tolist() == [0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0]

    def test_pool_above_255_routes(self):
        # Steps of a 300-step window need a uint16 index; a uint8 one would wrap 280 to 24.
        x_data = np.zeros((700, 1))
        x_data[[24, 280, 300 + 299], 0] = [0.5, 1.0, 2.0]
        tape = ad.Tape()
        x = tape.leaf(x_data)
        out = max_pool(x, 300)
        tape.backward(ad.vsum(out))
        assert out.data.ravel().tolist() == [1.0, 2.0]
        assert np.flatnonzero(tape.grad(x)).tolist() == [280, 599]

    @pytest.mark.parametrize("pool", [0, -1, 9])
    def test_pool_outside_the_convolution_rejected(self, pool):
        # width 3 over 10 steps leaves a convolution 8 steps long
        k, b = ad.Tensor(np.zeros((1, 3, 2))), ad.Tensor(np.zeros(1))
        for x in (ad.Tensor(np.zeros((10, 2))), np.zeros(10, dtype=int)):
            with pytest.raises(ShapeError):
                ad.conv1d(x, k, b, pool)
            assert ad.conv1d(x, k, b, 8).shape == (1, 1)


class TestBatchedGradientChecks:
    """Each layer op with a leading batch dimension > 1, at the same tolerance."""

    def test_conv1d(self):
        rng = np.random.default_rng(21)
        arrays = {
            "x": rng.uniform(-1, 1, (3, 11, 3)),
            "k": rng.uniform(-1, 1, (4, 5, 3)),
            "b": rng.uniform(-1, 1, 4),
        }
        err = gradcheck(lambda w: projection(ad.conv1d(w["x"], w["k"], w["b"])), arrays)
        assert err < TOL

    def test_conv1d_two_batch_axes(self):
        rng = np.random.default_rng(22)
        arrays = {
            "x": rng.uniform(-1, 1, (2, 2, 6, 2)),
            "k": rng.uniform(-1, 1, (3, 2, 2)),
            "b": rng.uniform(-1, 1, 3),
        }
        err = gradcheck(lambda w: projection(ad.conv1d(w["x"], w["k"], w["b"])), arrays)
        assert err < TOL

    def test_conv1d_indices_with_padding(self):
        rng = np.random.default_rng(23)
        idx = rng.integers(0, 6, size=(4, 13))
        idx[1, 9:] = -1  # padded tail
        idx[2, :] = -1  # all padding
        arrays = {"k": rng.uniform(-1, 1, (3, 4, 6)), "b": rng.uniform(-1, 1, 3)}
        err = gradcheck(lambda w: projection(ad.conv1d(idx, w["k"], w["b"])), arrays)
        assert err < TOL
        # a batch of nothing but padding leaves the kernels without gradient
        tape = ad.Tape()
        k = tape.leaf(arrays["k"])
        tape.backward(ad.vsum(ad.conv1d(np.full((2, 13), -1), k, tape.leaf(arrays["b"]))))
        assert not tape.grad(k).any()

    def test_max_pool_with_remainder(self):
        rng = np.random.default_rng(24)
        arrays = {"x": rng.permutation(np.linspace(-2, 2, 3 * 13 * 2)).reshape(3, 13, 2)}
        err = gradcheck(lambda w: projection(max_pool(w["x"], 3)), arrays)
        assert err < TOL

    def test_dense(self):
        rng = np.random.default_rng(25)
        arrays = {
            "x": rng.uniform(-1, 1, (5, 6)),
            "w": rng.uniform(-1, 1, (4, 6)),
            "b": rng.uniform(-1, 1, 4),
        }
        err = gradcheck(lambda t: projection(ad.dense(t["x"], t["w"], t["b"])), arrays)
        assert err < TOL

    def test_relu_off_kink(self):
        rng = np.random.default_rng(26)
        x = rng.uniform(0.2, 1.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
        assert gradcheck(lambda t: projection(ad.relu(t["x"])), {"x": x}) < TOL

    def test_dropout_per_row_seeds(self):
        rng = np.random.default_rng(27)
        arrays = {"x": rng.uniform(0.5, 1.5, (3, 10))}
        seeds = [5, 6, 7]
        err = gradcheck(lambda t: projection(ad.dropout(t["x"], 0.4, seeds, True)), arrays)
        assert err < TOL
        # row b's mask is the mask default_rng(seeds[b]) gives a lone row
        out = ad.dropout(ad.Tensor(arrays["x"]), 0.4, seeds, True).data
        for row, seed in zip(range(3), seeds):
            alone = ad.dropout(ad.Tensor(arrays["x"][row]), 0.4, seed, True).data
            assert np.array_equal(out[row], alone)

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(28)
        arrays = {"x": rng.uniform(-1, 1, (4, 5))}
        targets = np.array([2, 0, 4, 2])
        err = gradcheck(lambda t: ad.softmax_cross_entropy(t["x"], targets)[0], arrays)
        assert err < TOL
        loss, _ = ad.softmax_cross_entropy(ad.Tensor(arrays["x"]), targets)
        singles = [float(ad.softmax_cross_entropy(ad.Tensor(r), int(c))[0].data)
                   for r, c in zip(arrays["x"], targets)]
        assert float(loss.data) == pytest.approx(sum(singles) / 4, rel=1e-14)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm(self, reverse):
        rng = np.random.default_rng(29)
        arrays = {
            "x": rng.uniform(-1, 1, (3, 5, 3)),
            "w": rng.uniform(-0.5, 0.5, (8, 5)),
            "b": rng.uniform(-0.2, 0.2, 8),
        }
        err = gradcheck(
            lambda t: projection(ad.lstm_forward(t["x"], t["w"], t["b"], reverse=reverse)),
            arrays,
        )
        assert err < TOL


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, -2.0])}
        state = ad.AdamState.for_params(params)
        for _ in range(5):
            ad.adam_step(params, {"w": np.zeros(2)}, state)
        assert params["w"].tolist() == [1.0, -2.0]
        assert np.all(state.m["w"] == 0.0)

    def test_first_step_with_unit_gradient(self):
        params = {"w": np.array(0.0)}
        state = ad.AdamState.for_params(params, lr=1e-3)
        ad.adam_step(params, {"w": np.array(1.0)}, state)
        # bias-corrected m_hat = v_hat = 1 at t=1, so the update is lr/(1+eps)
        expected = -1e-3 / (1.0 + 1e-8)
        assert float(params["w"]) == pytest.approx(expected, rel=1e-12)
        assert state.step == 1

    def test_moments_decay_toward_zero(self):
        params = {"w": np.array(0.0)}
        state = ad.AdamState.for_params(params)
        ad.adam_step(params, {"w": np.array(1.0)}, state)
        peak = abs(float(state.m["w"]))
        for _ in range(50):
            ad.adam_step(params, {"w": np.array(0.0)}, state)
        assert abs(float(state.m["w"])) < peak * 1e-2

    def test_deterministic_runs(self):
        def run():
            rng = np.random.default_rng(0)
            params = {"w": rng.normal(size=4)}
            state = ad.AdamState.for_params(params)
            for i in range(10):
                g = np.sin(params["w"] + i)
                ad.adam_step(params, {"w": g}, state)
            return params["w"].tobytes()

        assert run() == run()

    def test_in_place_step_matches_formula_bitwise(self):
        def reference_step(params, grads, state):
            """The allocating formula the in-place step must reproduce bit for bit."""
            state.step += 1
            t = state.step
            b1, b2 = state.beta1, state.beta2
            correction1 = 1.0 - b1**t
            correction2 = 1.0 - b2**t
            for name, p in params.items():
                g = grads[name]
                m = state.m[name]
                v = state.v[name]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                p -= state.lr * (m / correction1) / (np.sqrt(v / correction2) + state.eps)

        rng = np.random.default_rng(7)
        shapes = {"w": (5, 3), "b": (4,), "s": (), "k": (2, 3, 4)}
        params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        twin = {name: p.copy() for name, p in params.items()}
        state = ad.AdamState.for_params(params, lr=0.01, beta1=0.8, beta2=0.99, eps=1e-6)
        twin_state = ad.AdamState.for_params(twin, lr=0.01, beta1=0.8, beta2=0.99, eps=1e-6)
        for _ in range(5):
            grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
                     for name, shape in shapes.items()}
            ad.adam_step(params, grads, state)
            reference_step(twin, grads, twin_state)
            for name in shapes:
                for got, want in ((params, twin), (state.m, twin_state.m), (state.v, twin_state.v)):
                    assert got[name].tobytes() == want[name].tobytes()

    def test_shape_mismatch(self):
        params = {"w": np.zeros(3)}
        state = ad.AdamState.for_params(params)
        with pytest.raises(ShapeError):
            ad.adam_step(params, {"w": np.zeros(4)}, state)
