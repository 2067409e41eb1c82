"""Character n-gram language models with additive smoothing.

Each label gets an order-(n-1) Markov model over charset indices: training
counts every n-gram (n-1 history symbols, beginning-of-text markers
prepended, then the next character) in one hash map per label, so large n
does not allocate dense V^n storage. History totals are summed out of it,
and `sweep` counts once, deriving each lower order by summing out the
leftmost symbol. Scoring sums smoothed conditional log-probabilities.

Trained models are immutable and reentrant; training itself is
single-threaded.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, groupby
from operator import itemgetter

from .corpus import Charset, Corpus, Label, Scores, build_charset
from .errors import ConfigError, ModelIOError
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

    n: int = 7
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


# n-1 history symbols, then the next char index.
Gram = tuple[int, ...]
_HISTORY = itemgetter(slice(None, -1))


@dataclass
class NgramModel:
    """Per-label smoothed n-gram count tables; `history_totals` derives from `counts`."""

    config: NgramConfig
    charset: Charset
    labels: tuple[Label, ...]
    counts: dict[Label, dict[Gram, int]]
    history_totals: dict[Label, dict[Gram, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.history_totals = {
            label: _marginal(grams, slice(None, -1)) for label, grams in self.counts.items()
        }

    def log_prob(self, text: str, label: Label) -> float:
        """Sum of ln[(count + a) / (total + a*V)] over the padded index sequence.

        Unseen histories contribute pure-smoothing terms ln(1/V); there is no
        backoff. V is the charset size including the unknown slot.
        """
        if label not in self.counts:
            raise KeyError(f"label {label.code!r} not in model")
        return self.classify(text).per_label[label]

    def classify(self, text: str) -> Scores:
        """Score every label and pick the most probable (uniform prior)."""
        if not self.labels:
            raise ConfigError("model has no labels")
        n = self.config.n
        alpha = self.config.alpha
        smoothing = alpha * self.charset.size
        padded = [BOS] * (n - 1) + self.charset.indices(text)
        keys = [(gram, gram[:-1]) for gram in _grams(padded, n)]
        log = math.log
        per_label = {}
        for label in self.labels:
            count, total = self.counts[label].get, self.history_totals[label].get
            # Left to right, one term per position: the same sum as the exact scorer's product.
            lp = 0.0
            for gram, history in keys:
                lp += log((count(gram, 0) + alpha) / (total(history, 0) + smoothing))
            per_label[label] = lp
        return Scores.from_log_probs(per_label)

    def table_entries(self) -> int:
        """Total number of (label, history, next-char) count entries."""
        return sum(len(grams) for grams in self.counts.values())

    def history_entries(self) -> int:
        return sum(len(totals) for totals in self.history_totals.values())

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
            grams = self.counts[label]
            w.put(U64, len(self.history_totals[label]))
            for history, group in groupby(sorted(grams), _HISTORY):
                group = list(group)
                raw(pack_history(*history, len(group)))
                for gram in group:
                    raw(pack_next(gram[-1], grams[gram]))
        w.save(path, MAGIC, _VERSION)

    def to_json_dict(self) -> dict:
        """Human-readable view of the model, for file inspection."""

        def sym(s: int) -> str:
            if s == BOS:
                return "<s>"
            if s == self.charset.unk_index:
                return "<unk>"
            return self.charset.chars[s]

        def table(grams: dict[Gram, int]) -> dict:
            return {
                "".join(map(sym, history)): {sym(gram[-1]): grams[gram] for gram in group}
                for history, group in groupby(sorted(grams), _HISTORY)
            }

        return {
            "kind": "ngram",
            "n": self.config.n,
            "alpha": self.config.alpha,
            "charset": list(self.charset.chars),
            "labels": [label.code for label in self.labels],
            "counts": {label.code: table(self.counts[label]) for label in self.labels},
        }


def _grams(padded: list[int], n: int) -> zip:
    """Every n-gram of a BOS-padded index sequence, one per text position."""
    return zip(*(padded[k:] for k in range(n)))


def _marginal(grams: dict[Gram, int], keep: slice) -> dict[Gram, int]:
    """Counts summed over the n-gram positions that `keep` drops."""
    out: dict[Gram, int] = {}
    get = out.get
    for gram, count in grams.items():
        key = gram[keep]
        out[key] = get(key, 0) + count
    return out


def train(corpus: Corpus, config: NgramConfig, charset: Charset) -> NgramModel:
    """Count every n-gram per label over BOS-padded index sequences."""
    if not len(corpus):
        raise ConfigError("training corpus is empty")
    config.check_charset(charset)
    n = config.n
    bos = [BOS] * (n - 1)
    counts: dict[Label, Counter[Gram]] = {label: Counter() for label in corpus.labels}
    for inst in corpus:
        counts[inst.label].update(_grams(bos + charset.indices(inst.text), n))
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
    alpha: float = NgramConfig.alpha,
    charset: Charset | None = None,
) -> list[SweepPoint]:
    """Dev accuracy for every order in [n_min, n_max], from one count pass at n_max.

    Under the same BOS padding an order-(n-1) history is the last n-2 symbols
    of the order-n one, so summing out the leftmost symbol is exact.
    """
    if n_min < 1 or n_min > n_max:
        raise ConfigError(f"invalid order range {n_min}..{n_max}")
    if charset is None:
        charset = build_charset(train_corpus)
    model = train(train_corpus, NgramConfig(n_max, alpha), charset)
    points = []
    for n in range(n_max, n_min - 1, -1):
        if n < n_max:
            lower = {label: _marginal(g, slice(1, None)) for label, g in model.counts.items()}
            model = NgramModel(NgramConfig(n, alpha), charset, model.labels, lower)
        acc = accuracy(model, dev_corpus)
        points.append(SweepPoint(n, acc, model.table_entries(), model.estimated_bytes()))
    return points[::-1]


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
    if not labels:
        raise ModelIOError(f"{r.source}: model has no labels")
    config = NgramConfig(n, alpha)
    config.check_charset(charset)
    history_record = _history_record(n)
    counts: dict[Label, dict[Gram, int]] = {}
    for label in labels:
        grams = counts[label] = {}
        for _ in range(r.value(U64)):
            *history, k = r.unpack(history_record)
            if not k:
                raise ModelIOError(f"{r.source}: label {label.code!r}: a history with no n-grams")
            for ci, count in r.records(_NEXT, k):
                grams[(*history, ci)] = count
        # `train` writes no empty table; as each history stores n-1 symbols, that bounds n.
        symbols = set(chain.from_iterable(grams))
        if not symbols or min(symbols) < BOS or max(symbols) >= charset.size:
            raise ModelIOError(f"{r.source}: label {label.code!r}: no n-grams, "
                               f"or a symbol outside [{BOS}, {charset.size})")
    return NgramModel(config, charset, labels, counts)
