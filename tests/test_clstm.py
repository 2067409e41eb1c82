from __future__ import annotations

import hashlib
import json
import math
import re
import struct
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lident import autodiff as ad
from lident import clstm
from lident.clstm import ClstmConfig
from lident.corpus import Charset, Corpus, Instance, Label, Scores, build_charset
from lident.errors import (
    ChecksumError,
    ConfigError,
    DivergenceError,
    ModelIOError,
    ShapeError,
)
from conftest import mutate_payload, reseal
from reference import central_difference, max_rel_err
from synth import disjoint_corpus

# Small pipeline used across tests: 16 -> 14 -> 7 -> 6 -> 3 -> 2 -> 1
TINY = ClstmConfig(
    seq_len=16,
    charset_dim=4,
    conv_features=2,
    conv_kernels=(3, 2, 2),
    pools=(2, 2, 2),
    lstm_hidden=2,
    dense_units=4,
    dropout_rate=0.3,
    seed=0,
)
TINY_CHARSET = Charset(tuple("abc"))
TINY_SIZES = (TINY_CHARSET.size, 2)  # init_params's charset size and label count for TINY


def tiny_batch(data_seed=1234, target=1):
    rng = np.random.default_rng(data_seed)
    text = "".join(rng.choice(list("abcz")) for _ in range(16))
    return clstm.encode_batch([text], [target], TINY_CHARSET, TINY.seq_len)


class TestConfig:
    def test_default_stage_lengths(self):
        assert ClstmConfig().stage_lengths() == [250, 83, 77, 25, 23, 7]

    def test_short_input_collapses(self):
        with pytest.raises(ConfigError, match="stage"):
            ClstmConfig(seq_len=32)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            ClstmConfig(dropout_rate=1.0)
        # charset_dim is build_charset's cap, under the n-gram cap's rule: it read
        # "charset_dim must be >= 2"
        with pytest.raises(ConfigError, match="charset cap must be an integer .*got 1"):
            ClstmConfig(charset_dim=1)
        with pytest.raises(ConfigError):
            ClstmConfig(conv_kernels=(7, 7), pools=(3, 3, 3))
        # a checkpoint stores three stages: a two-stage config used to train
        # and then write a file that failed to load
        with pytest.raises(ConfigError, match="3 stages"):
            replace(TINY, conv_kernels=(3, 2), pools=(2, 2))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lr", -1.0), ("lr", 0.0), ("lr", math.nan), ("lr", math.inf),
            ("beta1", 1.0), ("beta1", -0.1), ("beta1", math.nan),
            ("beta2", 1.0), ("beta2", 1.5), ("beta2", math.nan),
            ("eps", 0.0), ("eps", -1e-8), ("eps", math.nan), ("eps", math.inf),
        ],
    )
    def test_optimizer_values_rejected(self, field, value):
        # lr=-1 used to train with a climbing loss; beta1=1, eps=0 and lr=nan
        # failed only later, as a DivergenceError
        with pytest.raises(ConfigError, match=field):
            replace(TINY, **{field: value})

    def test_optimizer_edge_values_accepted(self):
        replace(TINY, beta1=0.0, beta2=0.0, lr=1e-12, eps=1e-300)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seq_len", "9"), ("seq_len", 9.0), ("epochs", 1.5), ("batch_size", 2.5),
            ("charset_dim", None), ("conv_features", 2.0), ("seed", 0.5),
            ("conv_kernels", (7, 7.5, 3)), ("pools", (3, "3", 3)), ("pools", [3, 3, 3]),
            ("lr", "0.1"), ("eps", None), ("beta1", "0.9"), ("dropout_rate", [0.5]),
            ("epochs", True), ("conv_kernels", (7, 7, True)), ("seed", False), ("lr", Fraction(1, 1000)),
        ],
    )
    def test_wrong_types_rejected(self, field, value):
        # seq_len="9" and lr="0.1" used to end in a bare TypeError; epochs=1.5,
        # batch_size=2.5 and the bools passed; a Fraction trains into numpy object arrays
        with pytest.raises(ConfigError, match=f"{field}.*{re.escape(repr(value))}"):
            replace(ClstmConfig(), **{field: value})

    @pytest.mark.parametrize("f", fields(ClstmConfig), ids=lambda f: f.name)
    def test_bool_rejected_for_every_field(self, f):
        # a bool is no count, rate or seed: lr=True used to train with a rate of 1
        default = getattr(TINY, f.name)
        value = default[:-1] + (True,) if isinstance(default, tuple) else True
        with pytest.raises(ConfigError, match=f"{f.name}.*{re.escape(repr(value))}"):
            replace(TINY, **{f.name: value})

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**70])
    def test_seed_out_of_range_rejected(self, seed):
        # a checkpoint stores the seed as an i64: -1 used to stop in numpy's
        # seeding, 2**70 to train and then fail to save
        with pytest.raises(ConfigError, match=f"seed.*{seed}"):
            replace(TINY, seed=seed)

    def test_seed_range_ends_accepted(self):
        for seed in (0, 2**63 - 1):
            assert replace(TINY, seed=seed).seed == seed

    def test_numpy_numbers_accepted(self):
        replace(
            TINY, seq_len=np.int64(TINY.seq_len), conv_kernels=tuple(np.int32(k) for k in TINY.conv_kernels),
            lr=np.float32(0.01), beta1=0, dropout_rate=np.float64(0.25),
        )

    def test_batch_conv1_output_is_bounded(self):
        ClstmConfig()  # 32 MiB at the defaults
        ClstmConfig(batch_size=512)
        with pytest.raises(ConfigError, match="seq_len 1000000000"):
            ClstmConfig(seq_len=10**9)
        with pytest.raises(ConfigError, match="MiB limit"):
            ClstmConfig(batch_size=10**6)


class TestModel:
    def model(self):
        params = clstm.init_params(TINY, *TINY_SIZES, np.random.default_rng(0))
        return clstm.ClstmModel(TINY, TINY_CHARSET, (Label("a"), Label("b")), params)

    @pytest.mark.parametrize("change, named", [
        (lambda m: {"params": {k: v for k, v in m.params.items() if k != "out_b"}}, "'out_b' has shape None"),
        (lambda m: {"params": {**m.params, "extra_w": np.zeros(2)}}, "'extra_w' has shape (2,)"),
        (lambda m: {"params": {**m.params, "conv1_w": m.params["conv1_w"][..., :-1]}}, "'conv1_w' has shape (2, 3, 3)"),
        (lambda m: {"charset": Charset(tuple("ab"))}, "'conv1_w' has shape (2, 3, 4), the model needs (2, 3, 3)"),
        (lambda m: {"labels": (*m.labels, Label("c"))}, "'out_w' has shape (2, 4), the model needs (3, 4)"),
    ], ids=["missing-parameter", "extra-parameter", "parameter-shape", "charset-size", "label-count"])
    def test_params_unlike_their_layout_rejected(self, change, named):
        # every model has the layout save_checkpoint writes: a missing parameter
        # used to be saved and then refused only by load_checkpoint
        model = self.model()
        with pytest.raises(ShapeError, match=re.escape(f"parameter {named}")):
            replace(model, **change(model))

    def test_param_order_is_free(self, tmp_path):
        # save_checkpoint writes the layout's order, whatever order params has
        model = self.model()
        clstm.save_checkpoint(model, tmp_path / "a.ckpt")
        clstm.save_checkpoint(replace(model, params=dict(reversed(model.params.items()))), tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def one_hot(idx: np.ndarray, size: int) -> np.ndarray:
    """The one-hot rows indices stand for: PAD (-1) selects the dropped last column."""
    return np.eye(size + 1)[idx][..., :size]


def encode_one(text: str, charset: Charset, seq_len: int) -> np.ndarray:
    """`encode`'s row for one text."""
    (row,) = clstm.encode([text], charset, seq_len)
    return row


class TestEncode:
    """`encode` emits indices; each case also checks the one-hot rows they stand for."""

    def test_one_hot_rows_with_padding(self):
        charset = Charset(("a", "b"))
        out = encode_one("ab", charset, 4)
        assert out.tolist() == [0, 1, clstm.PAD, clstm.PAD]
        expected = np.zeros((4, 3))
        expected[0, 0] = 1.0
        expected[1, 1] = 1.0
        assert np.array_equal(one_hot(out, charset.size), expected)

    def test_long_text_truncated(self):
        charset = Charset(("x",))
        out = encode_one("x" * 300, charset, 256)
        assert out.shape == (256,)
        assert out.tolist() == [0] * 256  # every position a character, none padding
        assert one_hot(out, charset.size).sum() == 256

    def test_empty_text_all_zero(self):
        out = encode_one("", Charset(("a",)), 8)
        assert out.shape == (8,) and np.all(out == clstm.PAD)
        assert not one_hot(out, 2).any()

    def test_unknown_chars_hit_reserved_slot(self):
        charset = Charset(("a",))
        out = encode_one("q", charset, 2)
        assert out.tolist() == [charset.size - 1, clstm.PAD]
        assert one_hot(out, charset.size)[0, charset.size - 1] == 1.0

    def test_row_sums_zero_or_one_and_idempotent(self):
        charset = Charset(tuple("abc"))
        first = encode_one("abwxyz", charset, 10)
        second = encode_one("abwxyz", charset, 10)
        assert np.array_equal(first, second)
        assert first.dtype.kind == "i"
        assert set(first.tolist()) <= set(range(charset.size)) | {clstm.PAD}
        sums = one_hot(first, charset.size).sum(axis=1)
        assert set(sums.tolist()) <= {0.0, 1.0}

    def test_batch_rows_match_single_encodes(self):
        charset = Charset(tuple("abc"))
        texts = ["abc", "", "cab" * 10, "q", "bc"]
        batch = clstm.encode_batch(texts, [0, 1, 0, 1, 1], charset, 6)
        assert batch.inputs.shape == (5, 6) and batch.inputs.dtype == np.int64
        for row, text in zip(batch.inputs, texts):
            assert np.array_equal(row, encode_one(text, charset, 6))
        assert batch.inputs[2].tolist() == [2, 0, 1, 2, 0, 1]  # truncated before the next text starts
        assert clstm.encode_batch([], [], charset, 6).inputs.shape == (0, 6)


class TestForward:
    def test_zeroed_params_give_uniform(self):
        params = {k: np.zeros_like(v) for k, v in clstm.init_params(TINY, *TINY_SIZES, np.random.default_rng(0)).items()}
        model = clstm.ClstmModel(TINY, TINY_CHARSET, (Label("a"), Label("b")), params)
        (scores,) = clstm.predict(model, ["abczab"])
        assert list(scores.per_label.values()) == pytest.approx([math.log(0.5)] * 2, abs=1e-12)
        loss, _ = clstm.loss_and_grads(params, TINY, tiny_batch(), None)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_symmetric_output_layer_loss_is_log_k(self):
        params = clstm.init_params(TINY, *TINY_SIZES, np.random.default_rng(3))
        params["out_w"][:] = 0.0
        params["out_b"][:] = 0.0
        loss, _ = clstm.loss_and_grads(params, TINY, tiny_batch(), None)
        assert abs(loss - math.log(2)) <= 1e-9

    def test_probability_rows_normalized(self):
        params = clstm.init_params(TINY, *TINY_SIZES, np.random.default_rng(4))
        rng = np.random.default_rng(0)
        texts = ["".join(rng.choice(list("abcz")) for _ in range(12)) for _ in range(5)]
        model = clstm.ClstmModel(TINY, TINY_CHARSET, (Label("a"), Label("b")), params)
        totals = [sum(map(math.exp, s.per_label.values())) for s in clstm.predict(model, texts)]
        assert totals == pytest.approx(np.ones(5), abs=1e-9)

    @pytest.mark.parametrize("targets", [[0, 7], [-1, 0]])
    def test_targets_outside_the_classes_rejected(self, targets):
        # used to end in a bare IndexError
        params = clstm.init_params(TINY, TINY_CHARSET.size, 3, np.random.default_rng(0))
        batch = clstm.EncodedBatch(tiny_batch().inputs.repeat(2, axis=0), np.array(targets))
        with pytest.raises(ShapeError, match=r"\[0, 3\) for 3 classes"):
            clstm.loss_and_grads(params, TINY, batch, 0)

    def test_eval_mode_skips_dropout(self):
        # without seeds no unit is dropped: the logits equal those at rate 0
        params = clstm.init_params(TINY, *TINY_SIZES, np.random.default_rng(2))
        batch = clstm.encode_batch(["abcabc", "zzab"], [0, 1], TINY_CHARSET, TINY.seq_len)
        wrapped = {name: ad.Tensor(arr) for name, arr in params.items()}
        evaluated = clstm._logits(wrapped, TINY, batch.inputs, None).data
        undropped = clstm._logits(wrapped, replace(TINY, dropout_rate=0.0), batch.inputs, [1, 2]).data
        assert np.array_equal(evaluated, undropped)
        assert not np.array_equal(evaluated, clstm._logits(wrapped, TINY, batch.inputs, [1, 2]).data)

    def test_end_to_end_gradient_check(self):
        # seeds chosen so no ReLU argument or pool tie sits within the
        # finite-difference step and every array receives gradient
        params = clstm.init_params(TINY, *TINY_SIZES, np.random.default_rng(0))
        batch = tiny_batch(1234, target=1)
        fwd_seed = 0
        _, grads = clstm.loss_and_grads(params, TINY, batch, fwd_seed)
        assert all(np.count_nonzero(g) for g in grads.values())
        worst = 0.0
        for name, arr in params.items():
            def value() -> float:
                return clstm.loss_and_grads(params, TINY, batch, fwd_seed)[0]

            fd = central_difference(value, arr)
            worst = max(worst, max_rel_err(grads[name], fd))
        assert worst < 1e-5


def taped_single(params, config, batch, drop_seed):
    """loss_and_grads of a one-instance batch with its dropout seed given directly, and its logits."""
    tape = ad.Tape()
    wrapped = {name: tape.leaf(arr) for name, arr in params.items()}
    logits = clstm._logits(wrapped, config, batch.inputs, [drop_seed])
    loss = ad.softmax_cross_entropy(logits, batch.targets)
    tape.backward(loss)
    return float(loss.data), logits.data, {name: tape.grad(leaf) for name, leaf in wrapped.items()}


class TestBatchInvariance:
    def test_batch_is_mean_of_single_instances(self):
        params = clstm.init_params(TINY, *TINY_SIZES, np.random.default_rng(0))
        rng = np.random.default_rng(5)
        texts = ["".join(rng.choice(list("abcz")) for _ in range(n)) for n in (16, 9, 30, 1, 12)]
        targets = [0, 1, 1, 0, 1]
        batch = clstm.encode_batch(texts, targets, TINY_CHARSET, TINY.seq_len)
        loss, grads = clstm.loss_and_grads(params, TINY, batch, 11)
        seeds = clstm._drop_seeds(11, len(texts))
        singles = [
            taped_single(params, TINY, clstm.encode_batch([t], [c], TINY_CHARSET, TINY.seq_len), s)
            for t, c, s in zip(texts, targets, seeds)
        ]
        assert loss == pytest.approx(np.mean([one[0] for one in singles]), rel=1e-12)
        logits = clstm._logits({name: ad.Tensor(arr) for name, arr in params.items()}, TINY, batch.inputs, seeds)
        assert np.allclose(logits.data, np.concatenate([one[1] for one in singles]), rtol=0, atol=1e-12)
        for name, g in grads.items():
            mean = np.mean([one[2][name] for one in singles], axis=0)
            assert np.abs(g - mean).max() <= 1e-12 * max(np.abs(mean).max(), 1e-300), name

    def test_tape_size_independent_of_batch_and_length(self):
        params = clstm.init_params(TINY, *TINY_SIZES, np.random.default_rng(0))

        def recorded_ops(texts, seq_len):
            config = replace(TINY, seq_len=seq_len)
            tape = ad.Tape()
            wrapped = {name: tape.leaf(arr) for name, arr in params.items()}
            batch = clstm.encode_batch(texts, [0] * len(texts), TINY_CHARSET, seq_len)
            logits = clstm._logits(wrapped, config, batch.inputs, clstm._drop_seeds(0, len(texts)))
            ad.softmax_cross_entropy(logits, batch.targets)
            return len(tape._nodes)

        counts = {recorded_ops(["abc"] * b, seq_len) for b in (1, 7) for seq_len in (16, 40)}
        assert len(counts) == 1

    def test_empty_batch_rejected(self):
        params = clstm.init_params(TINY, *TINY_SIZES, np.random.default_rng(0))
        batch = clstm.encode_batch([], [], TINY_CHARSET, TINY.seq_len)
        with pytest.raises(ConfigError, match="empty batch"):
            clstm.loss_and_grads(params, TINY, batch, 0)

    def test_drop_seed_stream_is_per_instance(self):
        # the batch seed fixes each instance's dropout seed, whatever the batch size
        assert clstm._drop_seeds(3, 5)[:2] == clstm._drop_seeds(3, 2)


class TestStepMemory:
    @pytest.mark.parametrize("batch_size, bound_mib", [(16, 49), (48, 90)])
    def test_training_step_peak_is_bounded(self, batch_size, bound_mib):
        # The tracemalloc peak above start of one step at the default layer
        # sizes, with conv2's and conv3's whole-batch im2col matrices (one kept
        # from the forward pass, one more for its gradient): 64.6 MiB at batch
        # 16, 173.5 at 48. Unrolled a block of sequences and a kernel tap at a
        # time: 33.3 and 79.6. Built whole but not kept: 47.8 and 122.9.
        config = ClstmConfig(charset_dim=219)
        params = clstm.init_params(config, 219, 12, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        inputs = rng.integers(-1, 219, (batch_size, config.seq_len))
        batch = clstm.EncodedBatch(inputs, rng.integers(0, 12, batch_size))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            clstm.loss_and_grads(params, config, batch, seed=2)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20


def traced_peak_mib(fn) -> float:
    """tracemalloc's peak above its start while fn() runs, in MiB."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - start) / 2**20
    finally:
        tracemalloc.stop()


class TestPooledConvMemory:
    """Batch-48 peaks at the default layer sizes with max-pooling inside conv1d,
    which keeps a uint8 step per pooled output instead of each conv's whole
    output: 79.6 MiB for a step and 31.4 for predict with a separate pool op,
    57.6 and 16.6 with it inside (52.5 for the step once the backward pass
    also drops each op's output). Each bound sits halfway, from the first two."""

    config = ClstmConfig(charset_dim=219, batch_size=48)

    def test_training_step_peak(self):
        params = clstm.init_params(self.config, 219, 12, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        inputs = rng.integers(-1, 219, (48, self.config.seq_len))
        batch = clstm.EncodedBatch(inputs, rng.integers(0, 12, 48))
        assert traced_peak_mib(lambda: clstm.loss_and_grads(params, self.config, batch, seed=2)) <= 68

    def test_predict_peak(self):
        chars = tuple(chr(0x100 + i) for i in range(218))
        labels = tuple(Label(f"l{i:02d}") for i in range(12))
        params = clstm.init_params(self.config, 219, 12, np.random.default_rng(0))
        model = clstm.ClstmModel(self.config, Charset(chars), labels, params)
        rng = np.random.default_rng(1)
        texts = ["".join(rng.choice(chars, 300)) for _ in range(48)]
        assert traced_peak_mib(lambda: clstm.predict(model, texts)) <= 24


class TestTrain:
    def test_zero_epochs_returns_initial_params(self):
        corpus = disjoint_corpus(4, 20, seed=0)
        cfg = ClstmConfig(
            seq_len=24, charset_dim=20, conv_features=2, conv_kernels=(3, 2, 2),
            pools=(2, 2, 2), lstm_hidden=2, dense_units=4, epochs=0, batch_size=4, seed=9,
        )
        model, history = clstm.train(corpus, None, cfg)
        assert history == []
        expected = clstm.init_params(model.config, model.charset.size, len(model.labels), np.random.default_rng(9))
        for name, arr in model.params.items():
            assert np.array_equal(arr, expected[name])

    def test_loss_decreases_on_toy_task(self):
        corpus = disjoint_corpus(8, 30, seed=1)
        cfg = ClstmConfig(
            seq_len=32, charset_dim=20, conv_features=4, conv_kernels=(3, 3, 2),
            pools=(2, 2, 2), lstm_hidden=3, dense_units=8, dropout_rate=0.1,
            epochs=15, batch_size=4, seed=2,
        )
        model, history = clstm.train(corpus, None, cfg)
        assert history[-1].train_loss < history[0].train_loss
        assert math.isnan(history[0].dev_accuracy)
        assert model.params["out_b"].shape == (2,)

    def test_divergence_reported_with_location(self):
        corpus = disjoint_corpus(4, 20, seed=3)
        cfg = ClstmConfig(
            seq_len=24, charset_dim=20, conv_features=2, conv_kernels=(3, 2, 2),
            pools=(2, 2, 2), lstm_hidden=2, dense_units=4, lr=1e308,
            epochs=3, batch_size=4, seed=0,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as exc_info:
                clstm.train(corpus, None, cfg)
        assert exc_info.value.epoch == 0
        assert exc_info.value.batch >= 1

    def test_one_label_rejected_before_any_parameter(self, monkeypatch):
        # used to fail on the config's num_classes, a field no flag sets
        made = []
        monkeypatch.setattr(clstm, "init_params", lambda *args: made.append(args))
        with pytest.raises(ConfigError, match="^training corpus needs at least 2 labels, got 1$"):
            clstm.train(Corpus([Instance("abc", Label("aa"))] * 3), None, TINY)
        assert not made

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError, match="needs at least 2 labels, got 0"):
            clstm.train(Corpus([]), None, TINY)

    def test_empty_dev_corpus_rejected_before_training(self, monkeypatch):
        # used to train every epoch and report nan dev accuracies, so no epoch was selected
        steps = []
        monkeypatch.setattr(clstm, "loss_and_grads", lambda *args: steps.append(args))
        with pytest.raises(ConfigError, match="dev corpus is empty"):
            clstm.train(disjoint_corpus(4, 20, seed=0), Corpus([]), TINY)
        assert not steps

    def test_best_dev_epoch_keeps_its_weights(self, monkeypatch, tmp_path):
        # Dev accuracy reads 0.25, 0.75, 0.5: the model returned holds the
        # second epoch's weights, which a 2-epoch run without a dev set ends on.
        # Each model returned scores as its checkpoint does, so its conv1 table
        # comes from the weights it holds, not from the live ones Adam changed.
        corpus = disjoint_corpus(4, 20, seed=3)
        dev = disjoint_corpus(2, 20, seed=4)
        cfg = ClstmConfig(
            seq_len=24, charset_dim=20, conv_features=2, conv_kernels=(3, 2, 2),
            pools=(2, 2, 2), lstm_hidden=2, dense_units=4, epochs=3, batch_size=4, seed=5,
        )
        predict, accuracies = clstm.predict, iter([0.25, 0.75, 0.5])

        def scored(model, texts):
            predict(model, texts)
            right = round(next(accuracies) * len(texts))
            wrong = {label: other for label, other in zip(dev.labels, dev.labels[::-1])}
            return [Scores({inst.label if i < right else wrong[inst.label]: 0.0}) for i, inst in enumerate(dev)]

        monkeypatch.setattr(clstm, "predict", scored)
        model, history = clstm.train(corpus, dev, cfg)
        assert [epoch.dev_accuracy for epoch in history] == [0.25, 0.75, 0.5]
        best, _ = clstm.train(corpus, None, replace(cfg, epochs=2))
        last, _ = clstm.train(corpus, None, cfg)
        assert all(arr.tobytes() == best.params[name].tobytes() for name, arr in model.params.items())
        assert any(arr.tobytes() != last.params[name].tobytes() for name, arr in model.params.items())
        monkeypatch.undo()
        texts = [inst.text for inst in dev] + ["", "zz aa"]
        for trained_model in (model, last):
            clstm.save_checkpoint(trained_model, tmp_path / "m.ckpt")
            loaded = clstm.load_checkpoint(tmp_path / "m.ckpt")
            assert (hex_scores(trained_model, clstm.predict(trained_model, texts))
                    == hex_scores(loaded, clstm.predict(loaded, texts)))


def hex_scores(model, scores: list[Scores]) -> list[list[str]]:
    return [[s.per_label[label].hex() for label in model.labels] for s in scores]


class TestConv1Table:
    """A model builds conv1's index table once, and predict gathers from it."""

    config = ClstmConfig(charset_dim=219)
    chars = tuple(chr(0x100 + i) for i in range(218))

    def model(self):
        params = clstm.init_params(self.config, 219, 12, np.random.default_rng(0))
        labels = tuple(Label(f"l{i:02d}") for i in range(12))
        return clstm.ClstmModel(self.config, Charset(self.chars), labels, params)

    def texts(self, count):
        rng = np.random.default_rng(1)
        return ["".join(rng.choice(self.chars, int(rng.integers(0, 300)))) for _ in range(count)]

    def per_call_table_scores(self, model, texts):
        """predict's log-probs, with conv1's table built inside each _logits call."""
        wrapped = {name: ad.Tensor(arr) for name, arr in model.params.items()}
        rows = []
        for start in range(0, len(texts), self.config.batch_size):
            inputs = clstm.encode(texts[start : start + self.config.batch_size], model.charset, self.config.seq_len)
            z = clstm._logits(wrapped, self.config, inputs, None).data
            z = z - z.max(axis=1, keepdims=True)
            rows += [[v.hex() for v in row] for row in z - np.log(np.exp(z).sum(axis=1, keepdims=True))]
        return rows

    def test_scores_equal_a_table_built_per_call(self):
        model = self.model()
        texts = self.texts(70)  # more than batch_size, so two batches
        assert hex_scores(model, clstm.predict(model, texts[:1])) == self.per_call_table_scores(model, texts[:1])
        assert hex_scores(model, clstm.predict(model, texts)) == self.per_call_table_scores(model, texts)

    def test_built_once_per_model_and_per_training_step(self, monkeypatch):
        built = []
        build = ad._index_table
        monkeypatch.setattr(ad, "_index_table", lambda kernels: built.append(kernels.shape) or build(kernels))
        model = self.model()
        assert built == [(256, 7, 219)]
        rng = np.random.default_rng(2)
        batch = clstm.EncodedBatch(rng.integers(-1, 219, (2, self.config.seq_len)), rng.integers(0, 12, 2))
        for seed in (0, 1):
            clstm.loss_and_grads(model.params, self.config, batch, seed=seed)
        assert len(built) == 3
        texts = self.texts(70)
        for text in texts[:5]:
            clstm.predict(model, [text])
        clstm.predict(model, texts)
        assert len(built) == 3


@pytest.fixture(scope="module")
def trained():
    corpus = disjoint_corpus(8, 30, seed=5)
    dev = disjoint_corpus(3, 30, seed=6)
    cfg = ClstmConfig(
        seq_len=32, charset_dim=20, conv_features=8, conv_kernels=(3, 3, 2),
        pools=(2, 2, 2), lstm_hidden=4, dense_units=16, dropout_rate=0.2,
        epochs=30, batch_size=4, seed=4,
    )
    model, _ = clstm.train(corpus, dev, cfg)
    return model


class TestPredict:
    def test_deterministic_scores(self, trained):
        a, b = clstm.predict(trained, ["abcabc"]), clstm.predict(trained, ["abcabc"])
        assert a[0].per_label == b[0].per_label
        assert a[0].best == b[0].best

    def test_empty_string_is_legal(self, trained):
        scores = clstm.predict(trained, [""])[0]
        total = sum(math.exp(v) for v in scores.per_label.values())
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_batched_predict_equals_one_text_at_a_time(self, trained):
        rng = np.random.default_rng(1)
        # more texts than batch_size, so predict scores them in several chunks
        texts = ["".join(rng.choice(list("abcxyz "))) * int(rng.integers(1, 40)) for _ in range(11)]
        texts.append("")
        together = clstm.predict(trained, texts)
        for text, scores in zip(texts, together):
            alone = clstm.predict(trained, [text])[0]
            assert scores.best == alone.best
            # equal to rounding: BLAS may round a row differently with the row count
            for label, value in scores.per_label.items():
                assert value == pytest.approx(alone.per_label[label], rel=1e-12, abs=1e-12)

    def test_separable_task_generalizes(self, trained):
        held = disjoint_corpus(6, 30, seed=7)
        preds = clstm.predict(trained, [i.text for i in held])
        accuracy = sum(p.best == i.label for p, i in zip(preds, held)) / len(held)
        assert accuracy == 1.0


class TestCheckpoint:
    def _model(self):
        corpus = disjoint_corpus(4, 24, seed=8)
        cfg = ClstmConfig(
            seq_len=24, charset_dim=20, conv_features=2, conv_kernels=(3, 2, 2),
            pools=(2, 2, 2), lstm_hidden=2, dense_units=4, epochs=2, batch_size=4, seed=1,
        )
        model, _ = clstm.train(corpus, None, cfg)
        return model

    def test_round_trip_bit_exact(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.ckpt"
        clstm.save_checkpoint(model, path)
        again = clstm.load_checkpoint(path)
        assert again.config == model.config
        assert again.charset == model.charset
        assert again.labels == model.labels
        for name, arr in model.params.items():
            assert arr.tobytes() == again.params[name].tobytes()
        rng = np.random.default_rng(0)
        texts = ["".join(rng.choice(list("abz "))) * rng.integers(1, 9) for _ in range(50)]
        for s1, s2 in zip(clstm.predict(model, texts), clstm.predict(again, texts)):
            assert s1.per_label == s2.per_label

    def test_classify_many_is_predict_looked_up_when_called(self, monkeypatch):
        model = self._model()
        texts = ["ab", "zz a", ""]
        expected = clstm.predict(model, texts)
        calls = []

        def counted(*args):
            calls.append(args)
            return predict(*args)

        predict = clstm.predict
        monkeypatch.setattr(clstm, "predict", counted)
        assert model.classify_many(texts) == expected
        assert calls == [(model, texts)]

    def test_json_dict_round_trips_the_config(self, tmp_path):
        # the dump used to hold every weight as nested lists; it now holds each one's shape and sha256
        model = self._model()
        doc = json.loads(json.dumps(model.to_json_dict()))
        assert doc["kind"] == "clstm"
        assert ClstmConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc["config"].items()}) == model.config
        assert doc["labels"] == [label.code for label in model.labels]
        assert doc["charset"] == list(model.charset.chars)
        shapes = clstm._param_shapes(model.config, model.charset.size, len(model.labels))
        assert list(doc["params"]) == list(shapes)
        for name, param in doc["params"].items():
            assert param == {"shape": list(shapes[name]),
                             "sha256": hashlib.sha256(model.params[name].astype("<f8").tobytes()).hexdigest()}
        # the same summary from the checkpoint, whatever order `params` has
        clstm.save_checkpoint(model, tmp_path / "m.ckpt")
        shuffled = dict(reversed(list(model.params.items())))
        for again in (clstm.load_checkpoint(tmp_path / "m.ckpt"),
                      clstm.ClstmModel(model.config, model.charset, model.labels, shuffled)):
            assert again.to_json_dict() == model.to_json_dict()

    def test_loaded_params_hold_no_view_of_the_file(self, tmp_path):
        # a view of the payload would keep the file's bytes alive and sit unaligned
        clstm.save_checkpoint(self._model(), tmp_path / "m.ckpt")
        for a in clstm.load_checkpoint(tmp_path / "m.ckpt").params.values():
            assert a.base is None and a.flags.owndata and a.flags.aligned and a.flags.writeable

    def test_retrain_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        clstm.save_checkpoint(self._model(), p1)
        clstm.save_checkpoint(self._model(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        clstm.save_checkpoint(self._model(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(ModelIOError):
            clstm.load_checkpoint(path)

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        clstm.save_checkpoint(self._model(), path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            clstm.load_checkpoint(path)

    @pytest.mark.parametrize("raw", [b"\xff\xfe", b"a a", b"zz"])
    def test_bad_label_with_valid_crc_is_model_error(self, tmp_path, raw):
        path = tmp_path / "m.ckpt"
        clstm.save_checkpoint(self._model(), path)
        blob = path.read_bytes()
        payload = blob[8:-4]
        code = b"aa"  # the first of disjoint_corpus's labels "aa" and "zz"
        at = payload.index(struct.pack("<H", len(code)) + code)
        payload = payload[:at] + struct.pack("<H", len(raw)) + raw + payload[at + 2 + len(code):]
        path.write_bytes(reseal(blob, payload))
        with pytest.raises(ModelIOError):
            clstm.load_checkpoint(path)

    @pytest.mark.parametrize("name", ["out_b", "conv1_w"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_is_model_error(self, tmp_path, name, bad):
        # train never writes one; loaded, a NaN made every score NaN and the best label arbitrary
        model = self._model()
        weights = model.params[name].copy()
        weights.flat[1] = bad
        path = tmp_path / "m.ckpt"
        clstm.save_checkpoint(replace(model, params={**model.params, name: weights}), path)
        with pytest.raises(ModelIOError, match=name):
            clstm.load_checkpoint(path)

    @pytest.mark.parametrize("labels", [("aa",), ()], ids=["one", "none"])
    def test_fewer_than_two_labels_is_model_error(self, tmp_path, labels):
        # under a valid checksum; a model of one label used to be refused by the
        # config's num_classes check, and parameter shapes follow the label count
        model = self._model()
        labels = tuple(map(Label, labels))
        params = {**model.params, "out_w": model.params["out_w"][: len(labels)],
                  "out_b": model.params["out_b"][: len(labels)]}
        path = tmp_path / "m.ckpt"
        clstm.save_checkpoint(clstm.ClstmModel(model.config, model.charset, labels, params), path)
        with pytest.raises(ModelIOError, match=f"at least 2 labels, got {len(labels)}"):
            clstm.load_checkpoint(path)

    def test_json_dump_rebuilds_the_same_model(self, tmp_path):
        # README's path from an older checkpoint: rebuild a model from the JSON that
        # `predict --dump` printed before it summarized, the weights as nested lists,
        # and save it; the file scores the texts bit for bit alike
        model = self._model()
        params = {name: arr.tolist() for name, arr in model.params.items()}
        doc = json.loads(json.dumps({**model.to_json_dict(), "params": params}))
        rebuilt = clstm.ClstmModel(
            ClstmConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc["config"].items()}),
            Charset(tuple(doc["charset"])),
            tuple(map(Label, doc["labels"])),
            {name: np.array(values) for name, values in doc["params"].items()},
        )
        clstm.save_checkpoint(rebuilt, tmp_path / "m.ckpt")
        loaded = clstm.load_checkpoint(tmp_path / "m.ckpt")
        assert loaded.to_json_dict() == model.to_json_dict()
        texts = ["ab", "zz aa", "", "qqq " * 20]
        assert hex_scores(loaded, clstm.predict(loaded, texts)) == hex_scores(model, clstm.predict(model, texts))

    def test_huge_seq_len_is_model_error(self, tmp_path, checkpoint_blob):
        # seq_len is the payload's first u32; no parameter shape depends on it,
        # so a seq_len of 1e9 used to load and then make predict ask for gigabytes
        path = tmp_path / "m.ckpt"
        payload = checkpoint_blob[8:-4]
        path.write_bytes(reseal(checkpoint_blob, struct.pack("<I", 10**9) + payload[4:]))
        with pytest.raises(ModelIOError, match="seq_len"):
            clstm.load_checkpoint(path)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_payload_loads_or_is_model_error(self, checkpoint_blob, tmp_path, data):
        path = tmp_path / "m.ckpt"
        payload = mutate_payload(data, checkpoint_blob[8:-4], header=160)
        path.write_bytes(reseal(checkpoint_blob, payload))
        try:
            model = clstm.load_checkpoint(path)
        except ModelIOError:
            return
        json.dumps(model.to_json_dict())


@pytest.fixture(scope="module")
def checkpoint_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    clstm.save_checkpoint(TestCheckpoint()._model(), path)
    return path.read_bytes()


class TestTrainedCharset:
    def test_charset_built_from_corpus_with_cap(self):
        corpus = disjoint_corpus(4, 24, seed=10)
        cfg = ClstmConfig(
            seq_len=24, charset_dim=6, conv_features=2, conv_kernels=(3, 2, 2),
            pools=(2, 2, 2), lstm_hidden=2, dense_units=4, epochs=1, batch_size=4, seed=1,
        )
        model, _ = clstm.train(corpus, None, cfg)
        assert model.charset.size <= 6
        assert model.config == cfg  # charset_dim stays the cap
        explicit = build_charset(corpus, 6)
        assert model.charset == explicit
