"""Character n-gram language models with additive smoothing.

Each label gets an order-(n-1) Markov model over charset indices: training
counts every next-character event after a history of n-1 symbols (with
beginning-of-text markers prepended), and scoring sums smoothed conditional
log-probabilities. Count tables are hash maps keyed by history so large n
does not allocate dense V^n storage; `table_entries` reports their growth.

Trained models are immutable and reentrant; training itself is
single-threaded.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass

from .corpus import Charset, Corpus, Label, build_charset
from .errors import ConfigError, ModelIOError
from .serialization import read_envelope, write_envelope

__all__ = [
    "BOS",
    "NgramConfig",
    "NgramModel",
    "Scores",
    "SweepPoint",
    "train",
    "sweep",
    "load",
]

# Synthetic boundary symbol prepended before the first character of a text.
# It only ever appears inside histories, never as a predicted outcome, so it
# is kept outside the charset index range.
BOS = -1

_MAGIC = b"LIDN"
_VERSION = 1


@dataclass(frozen=True)
class NgramConfig:
    """Model order (in characters) and additive smoothing mass."""

    n: int
    alpha: float = 0.1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"n-gram order must be >= 1, got {self.n}")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ConfigError(f"smoothing mass alpha must be finite and > 0, got {self.alpha}")

    def check_charset(self, charset: Charset) -> None:
        """Reject an alpha whose smoothing mass over the charset, alpha * V, overflows."""
        if not math.isfinite(self.alpha * charset.size):
            raise ConfigError(
                f"smoothing mass alpha * V = {self.alpha} * {charset.size} is not finite"
            )


@dataclass(frozen=True)
class Scores:
    """Per-label log-probabilities and the winning label."""

    per_label: dict[Label, float]
    best: Label

    @classmethod
    def from_log_probs(cls, per_label: dict[Label, float]) -> "Scores":
        # Ties break to the lexicographically smallest code: max() keeps the
        # first maximum when iterating labels in sorted order.
        best = max(sorted(per_label), key=lambda label: per_label[label])
        return cls(per_label, best)


History = tuple[int, ...]


@dataclass
class NgramModel:
    """Per-label smoothed next-character count tables."""

    config: NgramConfig
    charset: Charset
    labels: tuple[Label, ...]
    counts: dict[Label, dict[History, dict[int, int]]]
    history_totals: dict[Label, dict[History, int]]

    def log_prob(self, text: str, label: Label) -> float:
        """Sum of ln[(count + a) / (total + a*V)] over the padded index sequence.

        Unseen histories contribute pure-smoothing terms ln(1/V); there is no
        backoff. V is the charset size including the unknown slot.
        """
        if label not in self.counts:
            raise KeyError(f"label {label.code!r} not in model")
        n = self.config.n
        alpha = self.config.alpha
        v = self.charset.size
        idx = self.charset.indices(text)
        padded = [BOS] * (n - 1) + idx
        label_counts = self.counts[label]
        label_totals = self.history_totals[label]
        empty: dict[int, int] = {}
        total_lp = 0.0
        for i, x in enumerate(idx):
            history = tuple(padded[i : i + n - 1])
            count = label_counts.get(history, empty).get(x, 0)
            total = label_totals.get(history, 0)
            total_lp += math.log((count + alpha) / (total + alpha * v))
        return total_lp

    def classify(self, text: str) -> Scores:
        """Score every label and pick the most probable (uniform prior)."""
        if not self.labels:
            raise ConfigError("model has no labels")
        return Scores.from_log_probs({label: self.log_prob(text, label) for label in self.labels})

    def table_entries(self) -> int:
        """Total number of (label, history, next-char) count entries."""
        return sum(
            len(nexts) for per_label in self.counts.values() for nexts in per_label.values()
        )

    def history_entries(self) -> int:
        return sum(len(per_label) for per_label in self.counts.values())

    def estimated_bytes(self) -> int:
        """Coarse resident-size estimate of the count tables (hash-map cost)."""
        return self.history_entries() * 150 + self.table_entries() * 100

    def save(self, path) -> None:
        write_envelope(path, _MAGIC, _VERSION, _pack_payload(self))

    def to_json_dict(self) -> dict:
        """Human-readable view of the model, for file inspection."""

        def sym(s: int) -> str:
            if s == BOS:
                return "<s>"
            if s == self.charset.unk_index:
                return "<unk>"
            return self.charset.chars[s]

        return {
            "kind": "ngram",
            "n": self.config.n,
            "alpha": self.config.alpha,
            "charset": list(self.charset.chars),
            "labels": [label.code for label in self.labels],
            "counts": {
                label.code: {
                    "".join(sym(s) for s in history): {
                        sym(ci): count for ci, count in sorted(nexts.items())
                    }
                    for history, nexts in sorted(self.counts[label].items())
                }
                for label in self.labels
            },
        }


def train(corpus: Corpus, config: NgramConfig, charset: Charset) -> NgramModel:
    """Count next-character events per label over BOS-padded index sequences."""
    if not len(corpus):
        raise ConfigError("training corpus is empty")
    config.check_charset(charset)
    n = config.n
    counts: dict[Label, dict[History, dict[int, int]]] = {l: {} for l in corpus.labels}
    totals: dict[Label, dict[History, int]] = {l: {} for l in corpus.labels}
    for inst in corpus:
        idx = charset.indices(inst.text)
        padded = [BOS] * (n - 1) + idx
        label_counts = counts[inst.label]
        label_totals = totals[inst.label]
        for i, x in enumerate(idx):
            history = tuple(padded[i : i + n - 1])
            nexts = label_counts.get(history)
            if nexts is None:
                nexts = label_counts[history] = {}
            nexts[x] = nexts.get(x, 0) + 1
            label_totals[history] = label_totals.get(history, 0) + 1
    return NgramModel(config, charset, corpus.labels, counts, totals)


@dataclass(frozen=True)
class SweepPoint:
    n: int
    accuracy: float
    table_entries: int
    estimated_bytes: int


def accuracy(model: NgramModel, corpus: Corpus) -> float:
    """Fraction of instances whose top-scoring label matches gold."""
    if not len(corpus):
        raise ConfigError("evaluation corpus is empty")
    hits = sum(1 for inst in corpus if model.classify(inst.text).best == inst.label)
    return hits / len(corpus)


def sweep(
    train_corpus: Corpus,
    dev_corpus: Corpus,
    n_min: int,
    n_max: int,
    alpha: float = 0.1,
    charset: Charset | None = None,
) -> list[SweepPoint]:
    """Train one model per order in [n_min, n_max] and score dev accuracy."""
    if n_min < 1 or n_min > n_max:
        raise ConfigError(f"invalid order range {n_min}..{n_max}")
    if charset is None:
        charset = build_charset(train_corpus)
    points = []
    for n in range(n_min, n_max + 1):
        model = train(train_corpus, NgramConfig(n, alpha), charset)
        points.append(
            SweepPoint(n, accuracy(model, dev_corpus), model.table_entries(), model.estimated_bytes())
        )
    return points


def load(path) -> NgramModel:
    """Read back a model written by `NgramModel.save`."""
    _, payload = read_envelope(path, _MAGIC, (_VERSION,))
    # A valid CRC does not make the contents valid: bad chars, labels or config values.
    try:
        return _unpack_payload(payload, path)
    except (ValueError, OverflowError, ConfigError) as exc:
        raise ModelIOError(f"{path}: malformed payload: {exc}") from exc


# --- binary payload -----------------------------------------------------
#
# Canonical layout (counts sorted by history then char index) so identical
# models always serialize to identical bytes, regardless of insertion order.

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I32 = struct.Struct("<i")
_F64 = struct.Struct("<d")


def _pack_payload(model: NgramModel) -> bytes:
    buf = io.BytesIO()
    w = buf.write
    w(_U32.pack(model.config.n))
    w(_F64.pack(model.config.alpha))
    w(_U32.pack(len(model.charset.chars)))
    for ch in model.charset.chars:
        w(_U32.pack(ord(ch)))
    w(_U32.pack(len(model.labels)))
    for label in model.labels:
        raw = label.code.encode("utf-8")
        w(_U16.pack(len(raw)))
        w(raw)
    for label in model.labels:
        table = model.counts[label]
        w(_U64.pack(len(table)))
        for history in sorted(table):
            for s in history:
                w(_I32.pack(s))
            nexts = table[history]
            w(_U32.pack(len(nexts)))
            for ci in sorted(nexts):
                w(_U32.pack(ci))
                w(_U64.pack(nexts[ci]))
    return buf.getvalue()


class _Reader:
    def __init__(self, payload: bytes, source) -> None:
        self.payload = payload
        self.offset = 0
        self.source = source

    def unpack(self, st: struct.Struct):
        if self.offset + st.size > len(self.payload):
            raise ModelIOError(f"{self.source}: payload ends mid-record")
        value = st.unpack_from(self.payload, self.offset)[0]
        self.offset += st.size
        return value

    def read(self, size: int) -> bytes:
        if self.offset + size > len(self.payload):
            raise ModelIOError(f"{self.source}: payload ends mid-record")
        chunk = self.payload[self.offset : self.offset + size]
        self.offset += size
        return chunk


def _unpack_payload(payload: bytes, source) -> NgramModel:
    r = _Reader(payload, source)
    n = r.unpack(_U32)
    alpha = r.unpack(_F64)
    charset = Charset(tuple(chr(r.unpack(_U32)) for _ in range(r.unpack(_U32))))
    labels = []
    for _ in range(r.unpack(_U32)):
        labels.append(Label(r.read(r.unpack(_U16)).decode("utf-8")))
    if len(set(labels)) != len(labels):
        raise ModelIOError(f"{source}: duplicate label in payload")
    config = NgramConfig(n, alpha)
    config.check_charset(charset)
    counts: dict[Label, dict[History, dict[int, int]]] = {}
    totals: dict[Label, dict[History, int]] = {}
    for label in labels:
        table: dict[History, dict[int, int]] = {}
        label_totals: dict[History, int] = {}
        for _ in range(r.unpack(_U64)):
            history = tuple(r.unpack(_I32) for _ in range(n - 1))
            nexts = {}
            for _ in range(r.unpack(_U32)):
                ci = r.unpack(_U32)
                nexts[ci] = r.unpack(_U64)
            table[history] = nexts
            label_totals[history] = sum(nexts.values())
        counts[label] = table
        totals[label] = label_totals
    if r.offset != len(payload):
        raise ModelIOError(f"{source}: {len(payload) - r.offset} trailing bytes in payload")
    return NgramModel(config, charset, tuple(labels), counts, totals)
