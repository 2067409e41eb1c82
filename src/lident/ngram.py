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

import math
from dataclasses import dataclass, field

from .corpus import Charset, Corpus, Label, Scores, build_charset
from .errors import ConfigError
from .serialization import F64, U32, U64, Reader, Writer, read_model, record

__all__ = [
    "BOS",
    "MAGIC",
    "NgramConfig",
    "NgramModel",
    "SweepPoint",
    "train",
    "sweep",
    "load",
]

# Synthetic boundary symbol prepended before the first character of a text.
# It only ever appears inside histories, never as a predicted outcome, so it
# is kept outside the charset index range.
BOS = -1

MAGIC = b"LIDN"
_VERSION = 1
# A count table's (char index, count) pair; see serialization.py for the layout.
_NEXT = record("IQ")


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


History = tuple[int, ...]


@dataclass
class NgramModel:
    """Per-label smoothed next-character count tables; `history_totals` derives from `counts`."""

    config: NgramConfig
    charset: Charset
    labels: tuple[Label, ...]
    counts: dict[Label, dict[History, dict[int, int]]]
    history_totals: dict[Label, dict[History, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.history_totals = {
            label: {history: sum(nexts.values()) for history, nexts in table.items()}
            for label, table in self.counts.items()
        }

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
        # Canonical order (histories sorted, then char indices) so identical
        # models always serialize to identical bytes.
        w = Writer()
        w.put(U32, self.config.n)
        w.put(F64, self.config.alpha)
        w.header(self.charset, self.labels)
        raw, pack_history, pack_next = w.raw, _history_record(self.config.n).pack, _NEXT.pack
        for label in self.labels:
            table = self.counts[label]
            w.put(U64, len(table))
            for history in sorted(table):
                nexts = table[history]
                raw(pack_history(*history, len(nexts)))
                for ci in sorted(nexts):
                    raw(pack_next(ci, nexts[ci]))
        w.save(path, MAGIC, _VERSION)

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
    for inst in corpus:
        idx = charset.indices(inst.text)
        padded = [BOS] * (n - 1) + idx
        label_counts = counts[inst.label]
        for i, x in enumerate(idx):
            history = tuple(padded[i : i + n - 1])
            nexts = label_counts.get(history)
            if nexts is None:
                nexts = label_counts[history] = {}
            nexts[x] = nexts.get(x, 0) + 1
    return NgramModel(config, charset, corpus.labels, counts)


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
    return read_model(path, MAGIC, _VERSION, _parse)


def _history_record(n: int):
    """A history's n-1 symbols and the number of (char, count) pairs after it."""
    return record(f"{n - 1}iI")


def _parse(r: Reader) -> NgramModel:
    n = r.value(U32)
    alpha = r.value(F64)
    charset, labels = r.header()
    config = NgramConfig(n, alpha)
    config.check_charset(charset)
    history_record = _history_record(n)
    counts: dict[Label, dict[History, dict[int, int]]] = {}
    for label in labels:
        table = counts[label] = {}
        for _ in range(r.value(U64)):
            *history, k = r.unpack(history_record)
            table[tuple(history)] = dict(r.records(_NEXT, k))
    return NgramModel(config, charset, labels, counts)
