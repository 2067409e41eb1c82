"""Character-level convolutional + bidirectional-LSTM text classifier.

Pipeline: character indices (standing for one-hot rows) -> three
conv+ReLU+maxpool stages -> one LSTM per direction, final hidden states
merged by concatenation -> dense + ReLU -> dropout (training only) -> dense
softmax over labels. Layer sizes are configurable; the defaults are sized
for 12-way discrimination of similar languages at 256 characters per
instance. Each mini-batch runs as one graph over [batch, time, channels]
arrays.

Training is single-threaded and fully deterministic given the seed. A
trained model is immutable and safe for concurrent inference.
"""

from __future__ import annotations

import copy
import hashlib
import io
import math
import struct
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .corpus import Charset, Corpus, Label, build_charset
from .errors import CompatibilityError, ConfigError, DivergenceError, ModelIOError
from .ngram import Scores
from .serialization import read_envelope, write_envelope

__all__ = [
    "ClstmConfig",
    "ClstmModel",
    "EncodedBatch",
    "EpochStats",
    "encode",
    "encode_batch",
    "init_params",
    "forward",
    "loss_and_grads",
    "train",
    "predict",
    "save_checkpoint",
    "load_checkpoint",
]

_MAGIC = b"LIDC"
_VERSION = 1

# Index `encode` writes past the end of a text; conv1d reads it as an all-zero row.
PAD = -1

# Learnable arrays, keyed by the names produced in init_params.
ClstmParams = dict[str, np.ndarray]


@dataclass(frozen=True)
class ClstmConfig:
    """Layer sizes, regularization, and the training schedule."""

    seq_len: int = 256
    charset_dim: int = 218
    conv_features: int = 256
    conv_kernels: tuple[int, int, int] = (7, 7, 3)
    pools: tuple[int, int, int] = (3, 3, 3)
    lstm_hidden: int = 128
    dense_units: int = 1024
    dropout_rate: float = 0.5
    num_classes: int = 0  # bound from the corpus label set at training time
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 20
    batch_size: int = 64
    seed: int = 0

    def stage_lengths(self) -> list[int]:
        """Sequence lengths after each conv and pool stage; raises if any collapses."""
        if len(self.conv_kernels) != len(self.pools):
            raise ConfigError("conv_kernels and pools must have the same number of stages")
        lengths = []
        t = self.seq_len
        for stage, (kernel, pool) in enumerate(zip(self.conv_kernels, self.pools), start=1):
            if kernel < 1 or pool < 1:
                raise ConfigError(f"stage {stage}: kernel and pool must be >= 1")
            if t < kernel:
                raise ConfigError(
                    f"conv stage {stage} needs at least {kernel} timesteps, has {t}"
                )
            t = t - kernel + 1
            lengths.append(t)
            t = t // pool
            if t < 1:
                raise ConfigError(
                    f"pool stage {stage} (window {pool}) leaves no timesteps from length {lengths[-1]}"
                )
            lengths.append(t)
        return lengths

    def validate(self) -> None:
        if self.seq_len < 1:
            raise ConfigError(f"seq_len must be >= 1, got {self.seq_len}")
        if self.charset_dim < 2:
            raise ConfigError(f"charset_dim must be >= 2, got {self.charset_dim}")
        if min(self.conv_features, self.lstm_hidden, self.dense_units) < 1:
            raise ConfigError("layer feature counts must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")
        for name in ("lr", "eps"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {value}")
        self.stage_lengths()


@dataclass(frozen=True)
class EncodedBatch:
    """Character indices [batch, seq_len] (PAD past each text's end) and target class indices."""

    inputs: np.ndarray
    targets: np.ndarray


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    dev_accuracy: float


@dataclass
class ClstmModel:
    """A trained classifier: configuration, character map, classes, weights."""

    config: ClstmConfig
    charset: Charset
    labels: tuple[Label, ...]
    params: ClstmParams

    def save(self, path) -> None:
        save_checkpoint(self, path)


def encode(text: str, charset: Charset, seq_len: int) -> np.ndarray:
    """Charset indices of the first `seq_len` characters; shorter texts pad with PAD."""
    out = np.full(seq_len, PAD, dtype=np.int64)
    idx = charset.indices(text[:seq_len])
    out[: len(idx)] = idx
    return out


def encode_batch(
    texts: Sequence[str], targets: Sequence[int], charset: Charset, seq_len: int
) -> EncodedBatch:
    inputs = np.array([encode(t, charset, seq_len) for t in texts], dtype=np.int64)
    return EncodedBatch(inputs.reshape(len(texts), seq_len), np.asarray(targets, dtype=np.int64))


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _param_shapes(config: ClstmConfig) -> dict[str, tuple[int, ...]]:
    f = config.conv_features
    h = config.lstm_hidden
    shapes: dict[str, tuple[int, ...]] = {}
    in_ch = config.charset_dim
    for stage, kernel in enumerate(config.conv_kernels, start=1):
        shapes[f"conv{stage}_w"] = (f, kernel, in_ch)
        shapes[f"conv{stage}_b"] = (f,)
        in_ch = f
    for direction in ("fw", "bw"):
        shapes[f"lstm_{direction}_w"] = (4 * h, f + h)
        shapes[f"lstm_{direction}_b"] = (4 * h,)
    shapes["dense_w"] = (config.dense_units, 2 * h)
    shapes["dense_b"] = (config.dense_units,)
    shapes["out_w"] = (config.num_classes, config.dense_units)
    shapes["out_b"] = (config.num_classes,)
    return shapes


def init_params(config: ClstmConfig, rng: np.random.Generator) -> ClstmParams:
    """Glorot-uniform weights, zero biases, forget-gate bias 1."""
    config.validate()
    f = config.conv_features
    h = config.lstm_hidden
    params: ClstmParams = {}
    in_ch = config.charset_dim
    for stage, kernel in enumerate(config.conv_kernels, start=1):
        params[f"conv{stage}_w"] = _glorot(rng, (f, kernel, in_ch), kernel * in_ch, kernel * f)
        params[f"conv{stage}_b"] = np.zeros(f)
        in_ch = f
    for direction in ("fw", "bw"):
        w = _glorot(rng, (4 * h, f + h), f + h, h)
        b = np.zeros(4 * h)
        b[h : 2 * h] = 1.0  # forget gate bias: keep early cell state alive
        params[f"lstm_{direction}_w"] = w
        params[f"lstm_{direction}_b"] = b
    params["dense_w"] = _glorot(rng, (config.dense_units, 2 * h), 2 * h, config.dense_units)
    params["dense_b"] = np.zeros(config.dense_units)
    params["out_w"] = _glorot(rng, (config.num_classes, config.dense_units), config.dense_units, config.num_classes)
    params["out_b"] = np.zeros(config.num_classes)
    return params


def _logits(
    p: dict[str, ad.Tensor],
    config: ClstmConfig,
    inputs: np.ndarray,
    train_mode: bool,
    drop_seeds: Sequence[int],
) -> ad.Tensor:
    """Logits [batch, classes] of character indices [batch, seq_len]."""
    x = inputs
    for stage, pool in enumerate(config.pools, start=1):
        # relu commutes with max-pooling; pooling first leaves it 1/pool of the work
        x = ad.relu(ad.maxpool1d(ad.conv1d(x, p[f"conv{stage}_w"], p[f"conv{stage}_b"]), pool))
    features = ad.final_states(
        ad.lstm_forward(x, p["lstm_fw_w"], p["lstm_fw_b"]),
        ad.lstm_forward(x, p["lstm_bw_w"], p["lstm_bw_b"], reverse=True),
    )
    hidden = ad.relu(ad.dense(features, p["dense_w"], p["dense_b"]))
    hidden = ad.dropout(hidden, config.dropout_rate, drop_seeds, train_mode)
    return ad.dense(hidden, p["out_w"], p["out_b"])


def _drop_seeds(seed: int, size: int) -> list[int]:
    """The per-instance dropout seeds a batch seed stands for."""
    seed_rng = np.random.default_rng(seed)
    return [int(seed_rng.integers(2**63)) for _ in range(size)]


def _batch_graph(
    wrapped: dict[str, ad.Tensor],
    config: ClstmConfig,
    batch: EncodedBatch,
    train_mode: bool,
    drop_seeds: Sequence[int],
) -> tuple[ad.Tensor, np.ndarray]:
    if batch.inputs.shape[0] == 0:
        raise ConfigError("empty batch")
    logits = _logits(wrapped, config, batch.inputs, train_mode, drop_seeds)
    return ad.softmax_cross_entropy(logits, batch.targets)


def forward(
    params: ClstmParams,
    config: ClstmConfig,
    batch: EncodedBatch,
    train_mode: bool = False,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and per-instance class probabilities, no gradients."""
    wrapped = {name: ad.Tensor(arr) for name, arr in params.items()}
    drop_seeds = _drop_seeds(seed, len(batch.targets))
    loss, probs = _batch_graph(wrapped, config, batch, train_mode, drop_seeds)
    return float(loss.data), probs


def loss_and_grads(
    params: ClstmParams,
    config: ClstmConfig,
    batch: EncodedBatch,
    train_mode: bool = True,
    seed: int = 0,
) -> tuple[float, np.ndarray, dict[str, np.ndarray]]:
    """One taped forward/backward pass; gradients match `forward`'s loss."""
    tape = ad.Tape()
    wrapped = {name: tape.leaf(arr) for name, arr in params.items()}
    drop_seeds = _drop_seeds(seed, len(batch.targets))
    loss, probs = _batch_graph(wrapped, config, batch, train_mode, drop_seeds)
    tape.backward(loss)
    grads = {name: tape.grad(leaf) for name, leaf in wrapped.items()}
    return float(loss.data), probs, grads


def _accuracy(params: ClstmParams, config: ClstmConfig, charset: Charset, label_index: dict[Label, int], corpus: Corpus) -> float:
    hits = 0
    for start in range(0, len(corpus), config.batch_size):
        chunk = corpus.instances[start : start + config.batch_size]
        texts = [inst.text for inst in chunk]
        targets = [label_index[inst.label] for inst in chunk]
        batch = encode_batch(texts, targets, charset, config.seq_len)
        _, probs = forward(params, config, batch, train_mode=False)
        hits += int((probs.argmax(axis=1) == batch.targets).sum())
    return hits / len(corpus)


def train(
    corpus: Corpus,
    dev: Corpus | None,
    config: ClstmConfig,
    charset: Charset | None = None,
) -> tuple[ClstmModel, list[EpochStats]]:
    """Mini-batch Adam over seeded shuffled epochs.

    Returns the parameters from the epoch with the best dev accuracy (the
    final epoch when no dev corpus is given) plus per-epoch history. The dev
    accuracy column is NaN without a dev corpus.
    """
    if not len(corpus):
        raise ConfigError("training corpus is empty")
    labels = corpus.labels
    if charset is None:
        charset = build_charset(corpus, config.charset_dim)
    config = replace(config, num_classes=len(labels), charset_dim=charset.size)
    config.validate()
    label_index = {label: i for i, label in enumerate(labels)}

    rng = np.random.default_rng(config.seed)
    params = init_params(config, rng)
    state = ad.AdamState.for_params(params, lr=config.lr, beta1=config.beta1, beta2=config.beta2, eps=config.eps)

    texts = [inst.text for inst in corpus]
    targets = [label_index[inst.label] for inst in corpus]
    history: list[EpochStats] = []
    best_params = copy.deepcopy(params)
    # Best dev accuracy wins; ties go to the lower train loss, then the
    # earlier epoch, so selection is deterministic.
    best_key = (-math.inf, -math.inf)

    for epoch in range(config.epochs):
        order = rng.permutation(len(texts))
        loss_sum = 0.0
        for batch_no, start in enumerate(range(0, len(texts), config.batch_size)):
            chosen = order[start : start + config.batch_size]
            batch = encode_batch(
                [texts[i] for i in chosen], [targets[i] for i in chosen], charset, config.seq_len
            )
            batch_seed = int(rng.integers(2**63))
            loss, _, grads = loss_and_grads(params, config, batch, train_mode=True, seed=batch_seed)
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss {loss!r} at epoch {epoch}, batch {batch_no}", epoch, batch_no
                )
            loss_sum += loss * len(chosen)
            ad.adam_step(params, grads, state)
        train_loss = loss_sum / len(texts)
        if dev is not None and len(dev):
            dev_accuracy = _accuracy(params, config, charset, label_index, dev)
            key = (dev_accuracy, -train_loss)
            if key > best_key:
                best_key = key
                best_params = copy.deepcopy(params)
        else:
            dev_accuracy = math.nan
            best_params = params
        history.append(EpochStats(epoch, train_loss, dev_accuracy))

    return ClstmModel(config, charset, labels, copy.deepcopy(best_params)), history


def predict(model: ClstmModel, texts: Sequence[str]) -> list[Scores]:
    """Evaluation-mode scores (log-probabilities) for raw texts, `batch_size` at a time."""
    config = model.config
    wrapped = {name: ad.Tensor(arr) for name, arr in model.params.items()}
    results = []
    for start in range(0, len(texts), config.batch_size):
        chunk = texts[start : start + config.batch_size]
        inputs = np.stack([encode(t, model.charset, config.seq_len) for t in chunk])
        z = _logits(wrapped, config, inputs, train_mode=False, drop_seeds=()).data
        z = z - z.max(axis=1, keepdims=True)
        for row in z - np.log(np.exp(z).sum(axis=1, keepdims=True)):
            results.append(
                Scores.from_log_probs({label: float(row[i]) for i, label in enumerate(model.labels)})
            )
    return results


# --- checkpoint payload ----------------------------------------------------

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


def save_checkpoint(model: ClstmModel, path) -> None:
    """Write config + charset + labels + parameters, bit-exact."""
    cfg = model.config
    buf = io.BytesIO()
    w = buf.write
    for value in (
        cfg.seq_len,
        cfg.charset_dim,
        cfg.conv_features,
        *cfg.conv_kernels,
        *cfg.pools,
        cfg.lstm_hidden,
        cfg.dense_units,
        cfg.num_classes,
        cfg.epochs,
        cfg.batch_size,
    ):
        w(_U32.pack(value))
    for value in (cfg.dropout_rate, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps):
        w(_F64.pack(value))
    w(_I64.pack(cfg.seed))
    w(_U32.pack(len(model.charset.chars)))
    for ch in model.charset.chars:
        w(_U32.pack(ord(ch)))
    w(_U32.pack(len(model.labels)))
    for label in model.labels:
        raw = label.code.encode("utf-8")
        w(_U16.pack(len(raw)))
        w(raw)
    w(_U32.pack(len(model.params)))
    for name, arr in model.params.items():
        raw = name.encode("utf-8")
        w(_U16.pack(len(raw)))
        w(raw)
        w(_U8.pack(arr.ndim))
        for dim in arr.shape:
            w(_U32.pack(dim))
        w(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    write_envelope(path, _MAGIC, _VERSION, buf.getvalue())


def load_checkpoint(path, expected_charset: Charset | None = None) -> ClstmModel:
    """Read back a checkpoint; optionally verify it matches a known charset."""
    _, payload = read_envelope(path, _MAGIC, (_VERSION,))
    # A valid CRC does not make the contents valid: bad chars, labels or config values.
    try:
        model = _unpack_checkpoint(payload, path)
    except (ValueError, OverflowError, ConfigError) as exc:
        raise ModelIOError(f"{path}: malformed payload: {exc}") from exc
    if expected_charset is not None and expected_charset.chars != model.charset.chars:
        raise CompatibilityError(
            f"{path}: checkpoint charset hash {_charset_hash(model.charset)} does not match "
            f"expected charset hash {_charset_hash(expected_charset)}"
        )
    return model


def _unpack_checkpoint(payload: bytes, path) -> ClstmModel:
    offset = 0

    def unpack(st: struct.Struct):
        nonlocal offset
        if offset + st.size > len(payload):
            raise ModelIOError(f"{path}: payload ends mid-record")
        value = st.unpack_from(payload, offset)[0]
        offset += st.size
        return value

    def read(size: int) -> bytes:
        nonlocal offset
        if offset + size > len(payload):
            raise ModelIOError(f"{path}: payload ends mid-record")
        chunk = payload[offset : offset + size]
        offset += size
        return chunk

    ints = [unpack(_U32) for _ in range(14)]
    floats = [unpack(_F64) for _ in range(5)]
    seed = unpack(_I64)
    config = ClstmConfig(
        seq_len=ints[0],
        charset_dim=ints[1],
        conv_features=ints[2],
        conv_kernels=tuple(ints[3:6]),
        pools=tuple(ints[6:9]),
        lstm_hidden=ints[9],
        dense_units=ints[10],
        num_classes=ints[11],
        epochs=ints[12],
        batch_size=ints[13],
        dropout_rate=floats[0],
        lr=floats[1],
        beta1=floats[2],
        beta2=floats[3],
        eps=floats[4],
        seed=seed,
    )
    charset = Charset(tuple(chr(unpack(_U32)) for _ in range(unpack(_U32))))
    labels = tuple(Label(read(unpack(_U16)).decode("utf-8")) for _ in range(unpack(_U32)))
    params: ClstmParams = {}
    for _ in range(unpack(_U32)):
        name = read(unpack(_U16)).decode("utf-8")
        ndim = unpack(_U8)
        shape = tuple(unpack(_U32) for _ in range(ndim))
        count = math.prod(shape)  # exact: an int64 product can wrap to a small count
        arr = np.frombuffer(read(count * 8), dtype="<f8").reshape(shape).copy()
        params[name] = arr
    if offset != len(payload):
        raise ModelIOError(f"{path}: {len(payload) - offset} trailing bytes in payload")
    if charset.size != config.charset_dim:
        raise ModelIOError(
            f"{path}: stored charset size {charset.size} != configured {config.charset_dim}"
        )
    if len(set(labels)) != len(labels):
        raise ModelIOError(f"{path}: duplicate label in payload")
    if len(labels) != config.num_classes:
        raise ModelIOError(
            f"{path}: stored {len(labels)} labels != configured {config.num_classes} classes"
        )
    config.validate()
    expected_shapes = _param_shapes(config)
    if set(params) != set(expected_shapes):
        raise ModelIOError(f"{path}: parameter set does not match the configuration")
    for name, arr in params.items():
        if arr.shape != expected_shapes[name]:
            raise ModelIOError(
                f"{path}: parameter {name!r} has shape {arr.shape}, expected {expected_shapes[name]}"
            )
    return ClstmModel(config, charset, labels, params)


def _charset_hash(charset: Charset) -> str:
    digest = hashlib.sha256("\u0000".join(charset.chars).encode("utf-8")).hexdigest()
    return digest[:12]
