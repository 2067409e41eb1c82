"""Character n-gram language models with additive smoothing.

Each label gets an order-(n-1) Markov model over charset indices: an
n-gram is n-1 history symbols (beginning-of-text markers prepended) and
the next character. All labels share one table of sorted arrays, the
sorted-array layout of KenLM (Heafield 2011), so large n allocates no
dense V^n storage and one lookup serves every label:

- Levels. Symbol s is the digit s + 1 in base V + 1, so the marker is 0.
  Level k (1..n) holds the sorted int64 keys `parent * (V + 1) + digit`
  of every distinct k-symbol prefix, where `parent` is the prefix's row
  in level k - 1 (level 0 is the one empty prefix). A row is a rank in
  lexicographic order, and keys stay below rows(k - 1) * (V + 1) for any
  n. Each level ends in a sentinel row that no key reaches; a lookup that
  misses lands there, and every key built on it misses too.
- Matrices. Level n indexes a [G + 1, L] matrix of n-gram counts, level
  n - 1 (the empty prefix for n = 1) a [H + 1, L] matrix of history
  totals. Both hold float64 integers below 2**53, so they are exact, and
  their sentinel rows are 0.

One builder makes the table from (n-gram, label, count) entries: every
text position for `train`, the file's entries for `load`, and for `sweep`
the order-n entries with their leftmost symbol summed out. Scoring walks
the levels with `np.searchsorted`, gathers [T, L] counts and totals and
adds the smoothed log terms down the text.

Trained models are immutable and reentrant; training itself is
single-threaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Iterable

import numpy as np

from .corpus import Charset, Corpus, Label, Scores, build_charset
from .errors import ConfigError, ModelIOError
from .serialization import F64, U32, U64, Reader, Writer, read_model

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
_NEXT = np.dtype([("char", "<u4"), ("count", "<u8")])


def _head(n: int) -> np.dtype:
    """A history record: its n-1 symbols and the number k of (char, count) pairs after it."""
    return np.dtype([("history", "<i4", (n - 1,)), ("k", "<u4")])


# The key of each level's last row, above every real key.
_SENTINEL = np.iinfo(np.int64).max
# float64 holds every integer below this exactly, and so every count and total.
_EXACT = 2**53


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
    """The smoothed n-gram counts of every label in one sorted-array table."""

    config: NgramConfig
    charset: Charset
    labels: tuple[Label, ...]
    # n sorted key arrays, each ending in the sentinel; see the module docstring.
    levels: tuple[np.ndarray, ...] = field(repr=False)
    counts: np.ndarray = field(repr=False)  # [G + 1, L], rows of levels[-1]
    totals: np.ndarray = field(repr=False)  # [H + 1, L], rows of levels[-2]

    def log_prob(self, text: str, label: Label) -> float:
        """Sum of ln[(count + a) / (total + a*V)] over the padded index sequence.

        Unseen histories contribute pure-smoothing terms ln(1/V); there is no
        backoff. V is the charset size including the unknown slot.
        """
        if label not in self.labels:
            raise KeyError(f"label {label.code!r} not in model")
        return self.classify(text).per_label[label]

    def classify(self, text: str) -> Scores:
        """Score every label and pick the most probable (uniform prior)."""
        if not self.labels:
            raise ConfigError("model has no labels")
        n = self.config.n
        alpha = self.config.alpha
        base = self.charset.size + 1
        digits = np.array([BOS] * (n - 1) + self.charset.indices(text), np.int64) + 1
        positions = len(digits) - (n - 1)
        rows = 0
        for k, level in enumerate(self.levels):
            history = rows
            keys = rows * base + digits[k : k + positions]
            found = level.searchsorted(keys)
            rows = np.where(level[found] == keys, found, len(level) - 1)
        ratios = (self.counts[rows] + alpha) / (self.totals[history] + alpha * self.charset.size)
        # np.log may round an ulp away from math.log; the ratios repeat a lot,
        # so math.log of each distinct one keeps the scores exactly as before.
        distinct, inverse = np.unique(ratios, return_inverse=True)
        logs = np.array(list(map(math.log, distinct.tolist())))[inverse.reshape(ratios.shape)]
        # Down axis 0 of a C-ordered [T, L >= 2] array numpy adds left to right,
        # one position at a time, as the exact scorer multiplies. (A lone
        # label's column is summed pairwise: equal to within rounding.)
        return Scores.from_log_probs(dict(zip(self.labels, logs.sum(axis=0).tolist())))

    def grams(self, label: Label) -> dict[Gram, int]:
        """One label's nonzero n-gram counts, in table order."""
        column = self.counts[:, self.labels.index(label)]
        rows = np.flatnonzero(column)
        grams = map(tuple, self._symbols(rows).tolist())
        return dict(zip(grams, column[rows].astype(np.int64).tolist()))

    def table_entries(self) -> int:
        """Total number of (label, history, next-char) count entries."""
        return int(np.count_nonzero(self.counts))

    def history_entries(self) -> int:
        return int(np.count_nonzero(self.totals))

    def estimated_bytes(self) -> int:
        """The sweep CSV's coarse size figure: 150 bytes a history entry, 100 an n-gram entry."""
        return self.history_entries() * 150 + self.table_entries() * 100

    def save(self, path) -> None:
        # Rows are in table order, which is the canonical (history, char)
        # order, so identical models always serialize to identical bytes.
        n = self.config.n
        w = Writer()
        w.put(U32, n)
        w.put(F64, self.config.alpha)
        w.header(self.charset, self.labels)
        grams, label, count = self._entries()
        first = np.flatnonzero(np.concatenate((
            [True], (label[1:] != label[:-1]) | np.any(grams[1:, :-1] != grams[:-1, :-1], axis=1)
        )))
        heads = np.empty(len(first), _head(n))
        heads["history"] = grams[first, :-1]
        heads["k"] = np.diff(first, append=len(grams))
        items = np.empty(len(grams), _NEXT)
        items["char"] = grams[:, -1]
        items["count"] = count
        bounds = np.arange(len(self.labels) + 1)
        heads_at, items_at = np.searchsorted(label[first], bounds), np.searchsorted(label, bounds)
        for h0, h1, i0, i1 in zip(heads_at, heads_at[1:], items_at, items_at[1:]):
            w.put(U64, h1 - h0)
            w.runs(heads[h0:h1], items[i0:i1])
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
                for history, group in groupby(grams, _HISTORY)
            }

        return {
            "kind": "ngram",
            "n": self.config.n,
            "alpha": self.config.alpha,
            "charset": list(self.charset.chars),
            "labels": [label.code for label in self.labels],
            "counts": {label.code: table(self.grams(label)) for label in self.labels},
        }

    def _symbols(self, rows: np.ndarray) -> np.ndarray:
        """The [len(rows), n] symbols of n-gram rows, read back up the levels."""
        out = np.empty((len(rows), self.config.n), np.int32)
        for k in range(self.config.n - 1, -1, -1):
            rows, digits = np.divmod(self.levels[k][rows], self.charset.size + 1)
            out[:, k] = digits - 1
        return out

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every nonzero count as (symbols [E, n], label row [E], count [E]),
        label by label, each in table order."""
        label, rows = np.nonzero(self.counts.T)
        return self._symbols(rows), label, self.counts[rows, label]


def _build(
    config: NgramConfig,
    charset: Charset,
    labels: tuple[Label, ...],
    grams: Iterable[np.ndarray],
    label: np.ndarray,
    weight: np.ndarray,
) -> tuple[NgramModel, np.ndarray]:
    """The model of N n-grams, each counted `weight` times for its `label` row,
    and each one's row in the table. `grams` yields their symbols one [N]
    column at a time, so no [N, n] copy need exist."""
    base = charset.size + 1
    rows = np.int64(0)
    levels = []
    for symbols in grams:
        history = rows
        keys, rows = np.unique(rows * base + symbols + 1, return_inverse=True)
        levels.append(np.append(keys, _SENTINEL))
    width = len(labels)

    def matrix(index: np.ndarray, height: int) -> np.ndarray:
        return np.bincount(index * width + label, weight, height * width).reshape(height, width)

    heights = [1] + [len(level) for level in levels]
    model = NgramModel(config, charset, labels, tuple(levels),
                       matrix(rows, heights[-1]), matrix(history, heights[-2]))
    return model, rows


def train(corpus: Corpus, config: NgramConfig, charset: Charset) -> NgramModel:
    """Count every n-gram per label over BOS-padded index sequences."""
    if not len(corpus):
        raise ConfigError("training corpus is empty")
    config.check_charset(charset)
    n = config.n
    bos = [BOS] * (n - 1)
    symbols: list[int] = []
    for inst in corpus:
        symbols += bos
        symbols += charset.indices(inst.text)
    symbols = np.array(symbols, np.int64)
    # One n-gram per text position: the n symbols that end on each character.
    starts = np.flatnonzero(symbols != BOS) - (n - 1)
    row = {label: i for i, label in enumerate(corpus.labels)}
    label = np.repeat([row[inst.label] for inst in corpus], [len(inst.text) for inst in corpus])
    grams = (symbols[starts + k] for k in range(n))
    return _build(config, charset, corpus.labels, grams, label, np.ones(len(starts)))[0]


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
            grams, label, count = model._entries()
            model = _build(NgramConfig(n, alpha), charset, model.labels, grams.T[1:], label, count)[0]
        acc = accuracy(model, dev_corpus)
        points.append(SweepPoint(n, acc, model.table_entries(), model.estimated_bytes()))
    return points[::-1]


def load(path) -> NgramModel:
    """Read back a model written by `NgramModel.save`."""
    return read_model(path, MAGIC, _VERSION, _parse)


def _parse(r: Reader) -> NgramModel:
    n = r.value(U32)
    alpha = r.value(F64)
    charset, labels = r.header()
    if not labels:
        raise ModelIOError(f"{r.source}: model has no labels")
    config = NgramConfig(n, alpha)
    config.check_charset(charset)
    head = _head(n)
    heads, items = [], []
    for label in labels:
        histories = r.value(U64)
        # `train` writes no empty table; as each history stores n-1 symbols, that bounds n.
        if not histories:
            raise ModelIOError(f"{r.source}: label {label.code!r}: no n-grams")
        table_heads, table_items = r.runs(histories, head, _NEXT)
        if not table_heads["k"].all() or not table_items["count"].all():
            raise ModelIOError(f"{r.source}: label {label.code!r}: a history or an n-gram with no count")
        if (table_heads["history"].min(initial=BOS) < BOS
                or max(table_heads["history"].max(initial=BOS), table_items["char"].max()) >= charset.size):
            raise ModelIOError(f"{r.source}: label {label.code!r}: "
                               f"a symbol outside [{BOS}, {charset.size})")
        heads.append(table_heads)
        items.append(table_items)
    label = np.repeat(np.arange(len(labels)), [len(table) for table in items])
    histories_of = [len(table) for table in heads]
    heads, items = np.concatenate(heads), np.concatenate(items)
    grams = [*np.repeat(heads["history"], heads["k"], axis=0).T, items["char"]]
    model, rows = _build(config, charset, labels, grams, label, items["count"].astype(np.float64))
    # `train` writes each label's n-grams once and in table order, one record
    # per history; a repeat or a step back would otherwise merge into a model
    # that saves other bytes.
    if (np.any((label[1:] == label[:-1]) & (np.diff(rows) <= 0))
            or np.count_nonzero(model.totals, axis=0).tolist() != histories_of):
        raise ModelIOError(f"{r.source}: a history or an n-gram repeated or out of order")
    if model.totals.max() >= _EXACT:
        raise ModelIOError(f"{r.source}: a history total of 2**53 or more, beyond exact float64")
    return model
