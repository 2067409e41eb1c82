from __future__ import annotations

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lident import autodiff as ad
from lident import clstm
from lident.clstm import ClstmConfig
from lident.corpus import Charset, Corpus, build_charset
from lident.errors import (
    ChecksumError,
    ConfigError,
    DivergenceError,
    ModelIOError,
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
    num_classes=2,
    seed=0,
)
TINY_CHARSET = Charset(tuple("abc"))


def tiny_batch(data_seed=1234, target=1):
    rng = np.random.default_rng(data_seed)
    text = "".join(rng.choice(list("abcz")) for _ in range(16))
    return clstm.encode_batch([text], [target], TINY_CHARSET, TINY.seq_len)


class TestConfig:
    def test_default_stage_lengths(self):
        assert ClstmConfig(num_classes=12).stage_lengths() == [250, 83, 77, 25, 23, 7]

    def test_short_input_collapses(self):
        cfg = ClstmConfig(seq_len=32, num_classes=3)
        with pytest.raises(ConfigError):
            cfg.stage_lengths()

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            ClstmConfig(num_classes=1).validate()
        with pytest.raises(ConfigError):
            ClstmConfig(num_classes=3, dropout_rate=1.0).validate()
        with pytest.raises(ConfigError):
            ClstmConfig(num_classes=3, conv_kernels=(7, 7), pools=(3, 3, 3)).validate()
        # a checkpoint stores three stages: a two-stage config used to train
        # and then write a file that failed to load
        with pytest.raises(ConfigError, match="3 stages"):
            replace(TINY, conv_kernels=(3, 2), pools=(2, 2)).validate()
        TINY.validate()

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
            replace(TINY, **{field: value}).validate()

    def test_optimizer_edge_values_accepted(self):
        replace(TINY, beta1=0.0, beta2=0.0, lr=1e-12, eps=1e-300).validate()

    def test_batch_conv1_output_is_bounded(self):
        ClstmConfig(num_classes=12).validate()  # 32 MiB at the defaults
        ClstmConfig(num_classes=12, batch_size=512).validate()
        with pytest.raises(ConfigError, match="seq_len 1000000000"):
            ClstmConfig(num_classes=12, seq_len=10**9).validate()
        with pytest.raises(ConfigError, match="MiB limit"):
            ClstmConfig(num_classes=12, batch_size=10**6).validate()


def one_hot(idx: np.ndarray, size: int) -> np.ndarray:
    """The one-hot rows indices stand for: PAD (-1) selects the dropped last column."""
    return np.eye(size + 1)[idx][..., :size]


class TestEncode:
    """`encode` emits indices; each case also checks the one-hot rows they stand for."""

    def test_one_hot_rows_with_padding(self):
        charset = Charset(("a", "b"))
        out = clstm.encode("ab", charset, 4)
        assert out.tolist() == [0, 1, clstm.PAD, clstm.PAD]
        expected = np.zeros((4, 3))
        expected[0, 0] = 1.0
        expected[1, 1] = 1.0
        assert np.array_equal(one_hot(out, charset.size), expected)

    def test_long_text_truncated(self):
        charset = Charset(("x",))
        out = clstm.encode("x" * 300, charset, 256)
        assert out.shape == (256,)
        assert out.tolist() == [0] * 256  # every position a character, none padding
        assert one_hot(out, charset.size).sum() == 256

    def test_empty_text_all_zero(self):
        out = clstm.encode("", Charset(("a",)), 8)
        assert out.shape == (8,) and np.all(out == clstm.PAD)
        assert not one_hot(out, 2).any()

    def test_unknown_chars_hit_reserved_slot(self):
        charset = Charset(("a",))
        out = clstm.encode("q", charset, 2)
        assert out.tolist() == [charset.unk_index, clstm.PAD]
        assert one_hot(out, charset.size)[0, charset.unk_index] == 1.0

    def test_row_sums_zero_or_one_and_idempotent(self):
        charset = Charset(tuple("abc"))
        first = clstm.encode("abwxyz", charset, 10)
        second = clstm.encode("abwxyz", charset, 10)
        assert np.array_equal(first, second)
        assert first.dtype.kind == "i"
        assert set(first.tolist()) <= set(range(charset.size)) | {clstm.PAD}
        sums = one_hot(first, charset.size).sum(axis=1)
        assert set(sums.tolist()) <= {0.0, 1.0}

    def test_batch_rows_match_single_encodes(self):
        charset = Charset(tuple("abc"))
        texts = ["abc", "", "cab" * 10]
        batch = clstm.encode_batch(texts, [0, 1, 0], charset, 6)
        assert batch.inputs.shape == (3, 6)
        for row, text in zip(batch.inputs, texts):
            assert np.array_equal(row, clstm.encode(text, charset, 6))
        assert clstm.encode_batch([], [], charset, 6).inputs.shape == (0, 6)


class TestForward:
    def test_zeroed_params_give_uniform(self):
        params = {k: np.zeros_like(v) for k, v in clstm.init_params(TINY, np.random.default_rng(0)).items()}
        loss, probs, _ = clstm.loss_and_grads(params, TINY, tiny_batch(), train_mode=False)
        assert probs[0] == pytest.approx(np.full(2, 0.5), abs=1e-12)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_symmetric_output_layer_loss_is_log_k(self):
        params = clstm.init_params(TINY, np.random.default_rng(3))
        params["out_w"][:] = 0.0
        params["out_b"][:] = 0.0
        loss, _, _ = clstm.loss_and_grads(params, TINY, tiny_batch(), train_mode=False)
        assert abs(loss - math.log(TINY.num_classes)) <= 1e-9

    def test_probability_rows_normalized(self):
        params = clstm.init_params(TINY, np.random.default_rng(4))
        rng = np.random.default_rng(0)
        texts = ["".join(rng.choice(list("abcz")) for _ in range(12)) for _ in range(5)]
        batch = clstm.encode_batch(texts, [0, 1, 0, 1, 1], TINY_CHARSET, TINY.seq_len)
        _, probs, _ = clstm.loss_and_grads(params, TINY, batch, train_mode=False)
        assert probs.sum(axis=1) == pytest.approx(np.ones(5), abs=1e-9)

    def test_end_to_end_gradient_check(self):
        # seeds chosen so no ReLU argument or pool tie sits within the
        # finite-difference step and every array receives gradient
        params = clstm.init_params(TINY, np.random.default_rng(0))
        batch = tiny_batch(1234, target=1)
        fwd_seed = 0
        _, _, grads = clstm.loss_and_grads(params, TINY, batch, train_mode=True, seed=fwd_seed)
        assert all(np.count_nonzero(g) for g in grads.values())
        worst = 0.0
        for name, arr in params.items():
            def value() -> float:
                loss, _, _ = clstm.loss_and_grads(params, TINY, batch, seed=fwd_seed)
                return loss

            fd = central_difference(value, arr)
            worst = max(worst, max_rel_err(grads[name], fd))
        assert worst < 1e-5


def taped_single(params, config, batch, drop_seed):
    """loss_and_grads of a one-instance batch with its dropout seed given directly."""
    tape = ad.Tape()
    wrapped = {name: tape.leaf(arr) for name, arr in params.items()}
    logits = clstm._logits(wrapped, config, batch.inputs, True, [drop_seed])
    loss, probs = ad.softmax_cross_entropy(logits, batch.targets)
    tape.backward(loss)
    return float(loss.data), probs, {name: tape.grad(leaf) for name, leaf in wrapped.items()}


class TestBatchInvariance:
    def test_batch_is_mean_of_single_instances(self):
        params = clstm.init_params(TINY, np.random.default_rng(0))
        rng = np.random.default_rng(5)
        texts = ["".join(rng.choice(list("abcz")) for _ in range(n)) for n in (16, 9, 30, 1, 12)]
        targets = [0, 1, 1, 0, 1]
        batch = clstm.encode_batch(texts, targets, TINY_CHARSET, TINY.seq_len)
        loss, probs, grads = clstm.loss_and_grads(params, TINY, batch, train_mode=True, seed=11)
        singles = [
            taped_single(params, TINY, clstm.encode_batch([t], [c], TINY_CHARSET, TINY.seq_len), s)
            for t, c, s in zip(texts, targets, clstm._drop_seeds(11, len(texts)))
        ]
        assert loss == pytest.approx(np.mean([one[0] for one in singles]), rel=1e-12)
        assert np.allclose(probs, np.concatenate([one[1] for one in singles]), rtol=0, atol=1e-12)
        for name, g in grads.items():
            mean = np.mean([one[2][name] for one in singles], axis=0)
            assert np.abs(g - mean).max() <= 1e-12 * max(np.abs(mean).max(), 1e-300), name

    def test_tape_size_independent_of_batch_and_length(self):
        params = clstm.init_params(TINY, np.random.default_rng(0))

        def recorded_ops(texts, seq_len):
            config = replace(TINY, seq_len=seq_len)
            tape = ad.Tape()
            wrapped = {name: tape.leaf(arr) for name, arr in params.items()}
            batch = clstm.encode_batch(texts, [0] * len(texts), TINY_CHARSET, seq_len)
            logits = clstm._logits(wrapped, config, batch.inputs, True, clstm._drop_seeds(0, len(texts)))
            ad.softmax_cross_entropy(logits, batch.targets)
            return len(tape._nodes)

        counts = {recorded_ops(["abc"] * b, seq_len) for b in (1, 7) for seq_len in (16, 40)}
        assert len(counts) == 1

    def test_empty_batch_rejected(self):
        params = clstm.init_params(TINY, np.random.default_rng(0))
        batch = clstm.encode_batch([], [], TINY_CHARSET, TINY.seq_len)
        with pytest.raises(ConfigError, match="empty batch"):
            clstm.loss_and_grads(params, TINY, batch)

    def test_drop_seed_stream_is_per_instance(self):
        # the batch seed fixes each instance's dropout seed, whatever the batch size
        assert clstm._drop_seeds(3, 5)[:2] == clstm._drop_seeds(3, 2)


class TestTrain:
    def test_zero_epochs_returns_initial_params(self):
        corpus = disjoint_corpus(4, 20, seed=0)
        cfg = ClstmConfig(
            seq_len=24, charset_dim=20, conv_features=2, conv_kernels=(3, 2, 2),
            pools=(2, 2, 2), lstm_hidden=2, dense_units=4, epochs=0, batch_size=4, seed=9,
        )
        model, history = clstm.train(corpus, None, cfg)
        assert history == []
        expected = clstm.init_params(model.config, np.random.default_rng(9))
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
        assert model.config.num_classes == 2

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

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            clstm.train(Corpus.from_instances([]), None, TINY)


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

    def test_overflowing_shape_is_model_error(self, tmp_path):
        # 2**31 * 2**31 * 4 wraps to 0 in int64, so the reader used to read no
        # bytes and fail in reshape with a bare ValueError
        model = self._model()
        path = tmp_path / "m.ckpt"
        clstm.save_checkpoint(model, path)
        blob = path.read_bytes()
        payload = blob[8:-4]
        name = b"conv1_w"
        at = payload.index(struct.pack("<H", len(name)) + name) + 2 + len(name)
        shape = struct.pack("<B", 3) + struct.pack("<III", 2**31, 2**31, 4)
        payload = payload[:at] + shape + payload[at + 1 + 3 * 4:]
        path.write_bytes(reseal(blob, payload))
        with pytest.raises(ModelIOError):
            clstm.load_checkpoint(path)

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
            clstm.load_checkpoint(path)
        except ModelIOError:
            pass


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
        assert model.config.charset_dim == model.charset.size
        explicit = build_charset(corpus, 6)
        assert model.charset == explicit
