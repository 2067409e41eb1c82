"""Character-level convolutional + bidirectional-LSTM text classifier.

Pipeline: character indices from one `encode` lookup per batch (standing
for one-hot rows) -> three conv+maxpool+ReLU stages -> one LSTM per
direction, each returning its final hidden state, the two concatenated ->
dense + ReLU -> dropout (training only, one seed per instance) -> dense
softmax over labels. Layer sizes are configurable; the defaults are sized
for 12-way discrimination of similar languages at 256 characters per
instance. Each mini-batch runs as one graph over [batch, time, channels] arrays.

Training is single-threaded and fully deterministic given the seed. A
trained model is immutable and safe for concurrent inference.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field, fields
from itertools import islice
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .corpus import Charset, Corpus, Label, Scores, build_charset, check_charset_cap
from .errors import ConfigError, DivergenceError, ModelIOError, ShapeError, is_integer, is_real
from .serialization import Reader, Writer, read_model, record

__all__ = [
    "MAGIC",
    "ClstmConfig",
    "ClstmModel",
    "EncodedBatch",
    "EpochStats",
    "encode",
    "encode_batch",
    "init_params",
    "loss_and_grads",
    "train",
    "predict",
    "save_checkpoint",
    "load_checkpoint",
]

MAGIC = b"LIDC"
_VERSION = 2

# Ceiling on stage 1's unpooled gradient, batch_size x seq_len x conv_features
# doubles (32 MiB at the defaults), which only training builds. Past it a config
# (or a damaged checkpoint) asks numpy for gigabytes per batch.
MAX_BATCH_CONV1_BYTES = 1 << 30

# Index `encode` writes past the end of a text; conv1d reads it as an all-zero row.
PAD = -1

# Learnable arrays, keyed by the names produced in init_params.
ClstmParams = dict[str, np.ndarray]


@dataclass(frozen=True)
class ClstmConfig:
    """Layer sizes, regularization, and the training schedule, checked when made:
    any value out of range (a bool is no number) raises `ConfigError` naming its field."""

    seq_len: int = 256
    charset_dim: int = 218  # the cap on the charset's size, unknown slot included
    conv_features: int = 256
    conv_kernels: tuple[int, int, int] = (7, 7, 3)
    pools: tuple[int, int, int] = (3, 3, 3)
    lstm_hidden: int = 128
    dense_units: int = 1024
    dropout_rate: float = 0.5
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 20
    batch_size: int = 64
    seed: int = 0  # in [0, 2**63): a checkpoint stores it as an i64

    def stage_lengths(self) -> list[int]:
        """Sequence lengths after each conv and pool stage; raises if any collapses."""
        if len(self.conv_kernels) != 3 or len(self.pools) != 3:
            raise ConfigError(
                f"conv_kernels and pools need 3 stages each, got "
                f"{len(self.conv_kernels)} and {len(self.pools)}"
            )
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

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, tuple):
                kind = "a tuple of integers"
                ok = isinstance(value, tuple) and all(map(is_integer, value))
            elif isinstance(f.default, float):
                kind, ok = "a real number", is_real(value)
            else:
                kind, ok = "an integer", is_integer(value)
            if not ok:
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
        if self.seq_len < 1:
            raise ConfigError(f"seq_len must be >= 1, got {self.seq_len}")
        check_charset_cap(self.charset_dim)
        if min(self.conv_features, self.lstm_hidden, self.dense_units) < 1:
            raise ConfigError("layer feature counts must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")
        if not 0 <= self.seed < 2**63:
            raise ConfigError(f"seed must be in [0, 2**63), got {self.seed}")
        conv1_bytes = self.batch_size * self.seq_len * self.conv_features * 8
        if conv1_bytes > MAX_BATCH_CONV1_BYTES:
            raise ConfigError(
                f"one batch's conv1 gradient (batch_size {self.batch_size} x seq_len {self.seq_len} "
                f"x conv_features {self.conv_features} doubles) needs {conv1_bytes >> 20} MiB, "
                f"over the {MAX_BATCH_CONV1_BYTES >> 20} MiB limit"
            )
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


# The config record of a checkpoint (see serialization.py): every field in
# declaration order, each tuple as its items.
_CONFIG = record("".join(
    "q" if f.name == "seed" else "d" if isinstance(f.default, float)
    else f"{len(f.default)}I" if isinstance(f.default, tuple) else "I"
    for f in fields(ClstmConfig)
))


@dataclass
class ClstmModel:
    """A trained classifier: configuration, character map, classes, weights.

    `params` must hold exactly the arrays of `_param_shapes` for the charset's size
    and the label count (else `ShapeError`), and must not change after construction,
    which builds conv1's index table from them."""

    config: ClstmConfig
    charset: Charset
    labels: tuple[Label, ...]
    params: ClstmParams
    conv1_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        expected = _param_shapes(self.config, self.charset.size, len(self.labels))
        found = {name: arr.shape for name, arr in self.params.items()}
        if found != expected:
            name = next(name for name in {**expected, **found} if found.get(name) != expected.get(name))
            raise ShapeError(f"parameter {name!r} has shape {found.get(name)}, the model needs {expected.get(name)}")
        self.conv1_table = ad._index_table(self.params["conv1_w"])

    def classify_many(self, texts: Sequence[str]) -> list[Scores]:
        """`predict` of the texts, looked up when called, so that a wrapper of it sees this call too."""
        return predict(self, texts)

    def to_json_dict(self) -> dict:
        """A summary that does not grow with the weights: each of `params` by shape and sha256 of its "<f8" bytes."""
        import hashlib  # here, so that `import lident.clstm`, part of set-up time, does not load it
        return {
            "kind": "clstm",
            "config": asdict(self.config),
            "charset": list(self.charset.chars),
            "labels": [label.code for label in self.labels],
            "params": {name: {"shape": list(shape),
                              "sha256": hashlib.sha256(np.ascontiguousarray(self.params[name], "<f8")).hexdigest()}
                       for name, shape in _param_shapes(self.config, self.charset.size, len(self.labels)).items()},
        }


def encode(texts: Sequence[str], charset: Charset, seq_len: int) -> np.ndarray:
    """Charset indices [len(texts), seq_len] of each text's first `seq_len`
    characters, from one lookup over them all; shorter texts pad with PAD."""
    clipped = [text[:seq_len] for text in texts]
    lengths = np.array([len(text) for text in clipped], dtype=np.intp)
    out = np.full((len(clipped), seq_len), PAD, dtype=np.int64)
    out[np.arange(seq_len) < lengths[:, None]] = charset.indices("".join(clipped))
    return out


def encode_batch(texts: Sequence[str], targets: Sequence[int], charset: Charset, seq_len: int) -> EncodedBatch:
    return EncodedBatch(encode(texts, charset, seq_len), np.asarray(targets, dtype=np.int64))


def _param_shapes(config: ClstmConfig, chars: int, classes: int) -> dict[str, tuple[int, ...]]:
    """Each parameter's shape, in checkpoint order, for `chars` charset slots and `classes` labels."""
    f = config.conv_features
    h = config.lstm_hidden
    shapes: dict[str, tuple[int, ...]] = {}
    in_ch = chars
    for stage, kernel in enumerate(config.conv_kernels, start=1):
        shapes[f"conv{stage}_w"] = (f, kernel, in_ch)
        shapes[f"conv{stage}_b"] = (f,)
        in_ch = f
    for direction in ("fw", "bw"):
        shapes[f"lstm_{direction}_w"] = (4 * h, f + h)
        shapes[f"lstm_{direction}_b"] = (4 * h,)
    shapes["dense_w"] = (config.dense_units, 2 * h)
    shapes["dense_b"] = (config.dense_units,)
    shapes["out_w"] = (classes, config.dense_units)
    shapes["out_b"] = (classes,)
    return shapes


def init_params(config: ClstmConfig, chars: int, classes: int, rng: np.random.Generator) -> ClstmParams:
    """Glorot-uniform weights, zero biases, forget-gate bias 1, for `chars`
    charset slots and `classes` labels."""
    h = config.lstm_hidden
    params: ClstmParams = {}
    for name, shape in _param_shapes(config, chars, classes).items():
        if name.endswith("_w"):
            # Fans of a weight [out, (kernel,) in]; an LSTM weight stacks its 4 gates.
            fan_out = math.prod(shape[:-1]) // (4 if name.startswith("lstm") else 1)
            limit = math.sqrt(6.0 / (math.prod(shape[1:]) + fan_out))
            params[name] = rng.uniform(-limit, limit, size=shape)
        else:
            params[name] = np.zeros(shape)
            if name.startswith("lstm"):
                params[name][h : 2 * h] = 1.0  # forget gate bias: keep early cell state alive
    return params


def _logits(
    p: dict[str, ad.Tensor],
    config: ClstmConfig,
    inputs: np.ndarray,
    drop_seeds: Sequence[int] | None,
    conv1_table: np.ndarray | None = None,
) -> ad.Tensor:
    """Logits [batch, classes] of character indices [batch, seq_len]. Dropout runs
    only in training, given one seed per row; conv1 gathers from `conv1_table` if given."""
    x = inputs
    for stage, pool in enumerate(config.pools, start=1):
        # relu commutes with max-pooling, so it runs on the pooled conv1d output: 1/pool of the work
        table = conv1_table if stage == 1 else None
        x = ad.relu(ad.conv1d(x, p[f"conv{stage}_w"], p[f"conv{stage}_b"], pool, table=table))
    features = ad.concat(
        ad.lstm_forward(x, p["lstm_fw_w"], p["lstm_fw_b"]),
        ad.lstm_forward(x, p["lstm_bw_w"], p["lstm_bw_b"], reverse=True),
    )
    hidden = ad.relu(ad.dense(features, p["dense_w"], p["dense_b"]))
    if drop_seeds is not None:
        hidden = ad.dropout(hidden, config.dropout_rate, drop_seeds)
    return ad.dense(hidden, p["out_w"], p["out_b"])


def _drop_seeds(seed: int, size: int) -> list[int]:
    """The per-instance dropout seeds a batch seed stands for."""
    seed_rng = np.random.default_rng(seed)
    return [int(seed_rng.integers(2**63)) for _ in range(size)]


def loss_and_grads(
    params: ClstmParams, config: ClstmConfig, batch: EncodedBatch, seed: int | None
) -> tuple[float, dict[str, np.ndarray]]:
    """One taped forward/backward pass: mean cross-entropy and its gradients.
    Dropout runs with the per-instance seeds that `seed` stands for; `None`
    is evaluation mode, without dropout."""
    if batch.inputs.shape[0] == 0:
        raise ConfigError("empty batch")
    tape = ad.Tape()
    wrapped = {name: tape.leaf(arr) for name, arr in params.items()}
    drop_seeds = None if seed is None else _drop_seeds(seed, len(batch.targets))
    loss = ad.softmax_cross_entropy(_logits(wrapped, config, batch.inputs, drop_seeds), batch.targets)
    tape.backward(loss)
    return float(loss.data), {name: tape.grad(leaf) for name, leaf in wrapped.items()}


def train(corpus: Corpus, dev: Corpus | None, config: ClstmConfig) -> tuple[ClstmModel, list[EpochStats]]:
    """Mini-batch Adam over seeded shuffled epochs.

    Returns the parameters from the epoch with the best dev accuracy (the
    final epoch when no dev corpus is given) plus per-epoch history. The dev
    accuracy column is NaN without a dev corpus.
    """
    labels = corpus.labels
    if len(labels) < 2:  # an empty corpus has none
        raise ConfigError(f"training corpus needs at least 2 labels, got {len(labels)}")
    if dev is not None and not len(dev):
        raise ConfigError("dev corpus is empty")
    charset = build_charset(corpus, config.charset_dim)
    label_index = {label: i for i, label in enumerate(labels)}

    rng = np.random.default_rng(config.seed)
    params = init_params(config, charset.size, len(labels), rng)
    state = ad.AdamState.for_params(params, lr=config.lr, beta1=config.beta1, beta2=config.beta2, eps=config.eps)

    texts = [inst.text for inst in corpus]
    targets = [label_index[inst.label] for inst in corpus]
    history: list[EpochStats] = []
    best_params = params
    # Best dev accuracy wins, as a copy; ties go to the lower train loss, then the
    # earlier epoch, so selection is deterministic. Without dev, the live params win.
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
            loss, grads = loss_and_grads(params, config, batch, batch_seed)
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss {loss!r} at epoch {epoch}, batch {batch_no}", epoch, batch_no
                )
            loss_sum += loss * len(chosen)
            ad.adam_step(params, grads, state)
        train_loss = loss_sum / len(texts)
        if dev is not None:
            scores = predict(ClstmModel(config, charset, labels, params), [inst.text for inst in dev])
            dev_accuracy = sum(s.best == inst.label for s, inst in zip(scores, dev)) / len(dev)
            key = (dev_accuracy, -train_loss)
            if key > best_key:
                best_key = key
                best_params = {name: arr.copy() for name, arr in params.items()}
        else:
            dev_accuracy = math.nan
        history.append(EpochStats(epoch, train_loss, dev_accuracy))

    return ClstmModel(config, charset, labels, best_params), history


def predict(model: ClstmModel, texts: Sequence[str]) -> list[Scores]:
    """Evaluation-mode scores (log-probabilities) for raw texts, `batch_size` at a time."""
    config = model.config
    wrapped = {name: ad.Tensor(arr) for name, arr in model.params.items()}
    results = []
    for start in range(0, len(texts), config.batch_size):
        inputs = encode(texts[start : start + config.batch_size], model.charset, config.seq_len)
        z = _logits(wrapped, config, inputs, None, model.conv1_table).data
        z = z - z.max(axis=1, keepdims=True)
        for row in z - np.log(np.exp(z).sum(axis=1, keepdims=True)):
            results.append(Scores({label: float(row[i]) for i, label in enumerate(model.labels)}))
    return results


# --- checkpoint payload ----------------------------------------------------


def save_checkpoint(model: ClstmModel, path) -> None:
    """Write config + charset + labels + parameters, bit-exact."""
    w = Writer()
    w.put(_CONFIG, *(item for value in astuple(model.config) for item in (value if isinstance(value, tuple) else (value,))))
    w.header(model.charset, model.labels)
    for name in _param_shapes(model.config, model.charset.size, len(model.labels)):
        w.raw(np.ascontiguousarray(model.params[name], dtype="<f8"))
    w.save(path, MAGIC, _VERSION)


def load_checkpoint(path) -> ClstmModel:
    """Read back a checkpoint written by `save_checkpoint`."""
    return read_model(path, MAGIC, _VERSION, _parse_checkpoint)


def _parse_checkpoint(r: Reader) -> ClstmModel:
    values = iter(r.unpack(_CONFIG))
    config = ClstmConfig(**{
        f.name: tuple(islice(values, len(f.default))) if isinstance(f.default, tuple) else next(values)
        for f in fields(ClstmConfig)
    })
    charset, labels = r.header()
    if len(labels) < 2:
        raise ModelIOError(f"a model needs at least 2 labels, got {len(labels)}")
    params: ClstmParams = {}
    for name, shape in _param_shapes(config, charset.size, len(labels)).items():
        params[name] = r.items("<f8", math.prod(shape)).reshape(shape).copy()
        if not np.isfinite(params[name]).all():
            raise ModelIOError(f"parameter {name!r} holds a NaN or infinite weight")
    return ClstmModel(config, charset, labels, params)
