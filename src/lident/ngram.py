"""Character n-gram language models with additive smoothing.

Each label gets an order-(n-1) Markov model over charset indices: an
n-gram is n-1 history symbols (beginning-of-text markers prepended) and
the next character. All labels share one table of sorted arrays, the
sorted-array layout of KenLM (Heafield 2011), so large n allocates no
dense V^n storage and one lookup serves every label:

- Levels. Symbol s is the digit s + 1 in base V + 1, so the marker is 0.
  A level covers a chunk of w symbols: it holds the sorted int64 keys
  `parent * (V + 1)**w + chunk` of every distinct prefix that ends with
  the chunk, where `chunk` is the chunk's w digits in base V + 1 and
  `parent` is the row of the prefix before it in the level above (level
  0 is the one empty prefix). A row is a rank in lexicographic order, so
  however the symbols are chunked, the last level's rows are the n-grams
  and the rows of the level before it the histories. Each level ends in a
  sentinel row that no key reaches; a lookup that misses lands there, and
  every key built on it misses too.
- Widths. `_widths` picks the widest chunk w (at most n - 1) for which
  T * (V + 1)**w * L < 2**63, where T is the number of text positions
  counted: a level has at most T rows, so every key fits in int64 (the
  last one with the label as a digit too). The n - 1 history symbols go in
  the fewest near-equal chunks of at most w, then the next character in a
  level of its own: at n = 7 with V = 510 that is widths 3, 3, 1 for the
  benchmark's 236 k positions and 12 labels, so a lookup searches 3 levels
  instead of 7. T depends only on the counts, so `train`, a v1 `load` and
  `sweep` build the same levels for the same table.
- Sparse rows. The rows of the last level (n-grams) and then those of the
  level before it (histories; for n = 1 the one empty prefix) form one
  table in CSR form: `offsets` delimits each row's run of entries, and an
  entry is a label and the log term of a text position that reads the row.
  A history row has an entry for each label that saw the history, t times
  in all: the miss term ln(a / (t + aV)). An n-gram row has an entry for
  each label of its history's row: ln((c + a) / (t + aV)), where the
  n-gram's count c may be 0, and it keeps c, from which `save`, `grams`
  and `sweep` read the counts back. Sentinel rows have no entries. Counts
  and totals are integers below 2**53, so float64 holds them exactly;
  `offsets`, `cols` and `counts` use the narrowest integer type that holds
  them.
- The log terms are built once, with `math.log` over the distinct
  ratios, so scores keep the bits of a left-to-right `math.log` loop.

One builder makes the table from (n-gram, label, count) entries: every
text position for `train`, the entries of a v1 file for `load`, and for
`sweep` the order-n entries with their leftmost symbol summed out. A v3
file holds the widths, the levels and the seen (n-gram row, label, count)
cells, so `load` checks and reads them and rebuilds only the log terms; a
v2 file is read the same way, as levels of width one. Scoring walks the
levels with one `np.searchsorted` each. A position reads its n-gram's row
if the lookup hit and its history's row if not, and a history that missed
lands on an entry-less sentinel row. The entries fill a [T, L] array whose
other cells hold ln(a / aV), the term of a history no label saw, and the
terms are added down the text.

Trained models are immutable and reentrant; training itself is
single-threaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import ClassVar, Iterable

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
_VERSION = 3

# The key of each level's last row, above every real key.
_SENTINEL = np.iinfo(np.int64).max
# float64 holds every integer below this exactly, and so every count and total.
_EXACT = 2**53


@dataclass(frozen=True)
class NgramConfig:
    """Model order (in characters) and additive smoothing mass."""

    n: int = 7
    alpha: float = 0.1

    # The largest order accepted, well above the paper's sweep (1-8): `train`
    # writes n - 1 markers per text and builds n levels, so a mistyped order
    # would otherwise ask for billions of symbols before anything failed.
    MAX_N: ClassVar[int] = 64

    def __post_init__(self) -> None:
        if not 1 <= self.n <= self.MAX_N:
            raise ConfigError(f"n-gram order must be in 1..{self.MAX_N}, got {self.n}")
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


def _expand(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index of the runs [starts, starts + lengths), in run order, as
    (its run, the index)."""
    run = np.repeat(np.arange(len(lengths)), lengths)
    return run, np.arange(len(run)) + (starts - np.cumsum(lengths) + lengths)[run]


@dataclass
class NgramModel:
    """The smoothed n-gram terms of every label in one sparse sorted-array table."""

    config: NgramConfig
    charset: Charset
    labels: tuple[Label, ...]
    # The symbols each level covers, summing to n and ending in 1; see `_widths`.
    widths: tuple[int, ...]
    # A sorted key array per width, each ending in the sentinel; see the module docstring.
    levels: tuple[np.ndarray, ...] = field(repr=False)
    # The entries of the rows of levels[-1], then of levels[-2] (of the empty
    # prefix for n = 1), in CSR form; see the module docstring.
    offsets: np.ndarray = field(repr=False)  # [rows + 1], where each row's entries begin
    cols: np.ndarray = field(repr=False)  # [E], each entry's label row
    logs: np.ndarray = field(repr=False)  # [E], each entry's log term
    counts: np.ndarray = field(repr=False)  # each n-gram row entry's count, 0 in a miss term

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
        digits = np.concatenate((np.full(n - 1, BOS), self.charset.indices(text))) + 1
        positions = len(digits) - (n - 1)
        rows, start = 0, 0
        for width, level in zip(self.widths, self.levels):
            history = keys = rows
            for k in range(start, start + width):
                keys = keys * base + digits[k : k + positions]
            start += width
            # Keys below rows(level above) * (V + 1)**w fit in int64 (`_widths`);
            # one built on the sentinel row can wrap only in its last step, to
            # a negative key that misses, as it should.
            found = level.searchsorted(keys)
            rows = np.where(level[found] == keys, found, len(level) - 1)
        # A missed n-gram lands on its level's sentinel: read its history's row.
        grams = len(self.levels[-1])
        rows = np.where(rows < grams - 1, rows, grams + history)
        starts = self.offsets[rows].astype(np.intp)
        position, at = _expand(starts, self.offsets[rows + 1] - starts)
        # The labels a row has no entry for never saw its history.
        unseen = math.log(alpha / (alpha * self.charset.size))
        terms = np.full((positions, len(self.labels)), unseen)
        terms[position, self.cols[at]] = self.logs[at]
        # Down axis 0 of a C-ordered [T, L >= 2] array numpy adds left to right,
        # one position at a time, as the exact scorer multiplies. (A lone
        # label's column is summed pairwise: equal to within rounding.)
        return Scores.from_log_probs(dict(zip(self.labels, terms.sum(axis=0).tolist())))

    def grams(self, label: Label) -> dict[Gram, int]:
        """One label's nonzero n-gram counts, in table order."""
        symbols, cols, counts = self._entries()
        mine = cols == self.labels.index(label)
        return dict(zip(map(tuple, symbols[mine].tolist()), counts[mine].astype(np.int64).tolist()))

    def table_entries(self) -> int:
        """Total number of (label, history, next-char) count entries."""
        return int(np.count_nonzero(self.counts))

    def history_entries(self) -> int:
        """Total number of (label, history) pairs seen in training."""
        return len(self.cols) - len(self.counts)

    def nbytes(self) -> int:
        """The size of the table's arrays."""
        return sum(a.nbytes for a in (*self.levels, self.offsets, self.cols, self.logs, self.counts))

    def save(self, path) -> None:
        # The table's arrays are canonical, so identical models serialize to identical bytes.
        w = Writer()
        w.put(U32, self.config.n)
        w.put(F64, self.config.alpha)
        w.header(self.charset, self.labels)
        w.array(np.array(self.widths), "<u4")
        for level in self.levels:
            w.array(level[:-1], "<i8")
        at = np.flatnonzero(self.counts)
        w.array(self._gram_rows()[at], "<u8")
        w.array(self.cols[at], "<u4")
        w.array(self.counts[at], "<u8")
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

    def _gram_rows(self) -> np.ndarray:
        """The n-gram row of each entry that `counts` covers."""
        lengths = np.diff(self.offsets[: len(self.levels[-1]) + 1])
        return np.repeat(np.arange(len(lengths)), lengths)

    def _symbols(self, rows: np.ndarray) -> np.ndarray:
        """The [len(rows), n] symbols of n-gram rows, read back up the levels."""
        out = np.empty((len(rows), self.config.n), np.int32)
        end = self.config.n
        for width, level in zip(self.widths[::-1], self.levels[::-1]):
            rows = level[rows]
            for k in range(end - 1, end - 1 - width, -1):
                rows, digits = np.divmod(rows, self.charset.size + 1)
                out[:, k] = digits - 1
            end -= width
        return out

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every nonzero count as (symbols [E, n], label row [E], count [E])."""
        at = np.flatnonzero(self.counts)
        return self._symbols(self._gram_rows()[at]), self.cols[at], self.counts[at]


def _build(
    config: NgramConfig,
    charset: Charset,
    labels: tuple[Label, ...],
    grams: Iterable[np.ndarray],
    label: np.ndarray,
    weight: np.ndarray | None = None,
) -> tuple[NgramModel, np.ndarray]:
    """The model of N n-grams, each counted `weight` times (once if None) for
    its `label` row, and each one's cell: within a label, cells increase as
    the n-grams' rows do. `grams` yields their symbols one [N] column at a
    time, so no [N, n] copy need exist."""
    base = charset.size + 1
    width = len(labels)
    widths = _widths(config.n, len(label) if weight is None else int(weight.sum()), base, width)
    grams = iter(grams)
    # Here and below each array goes once used, to keep the peak low. Rows
    # start as an int64 array, not a scalar, which numpy < 2 would cast by
    # value and so narrow the first level's keys to the symbols' int32.
    rows = np.zeros(1, np.int64)
    levels = []
    for chunk in widths[:-1]:
        keys = rows
        for _ in range(chunk):
            keys = keys * base + next(grams) + 1
        del rows
        keys, rows = np.unique(keys, return_inverse=True)
        levels.append(np.append(keys, _SENTINEL))
    # Level n sorts with the label as one more digit, so the same sort finds
    # the seen (n-gram, label) cells, by row, then label.
    keys = (rows * base + next(grams) + 1) * width + label
    del rows
    cells, cell = np.unique(keys, return_inverse=True)
    keys, col = np.divmod(cells, width)
    del cells
    first = np.diff(keys, prepend=-1) != 0
    levels.append(np.append(keys[first], _SENTINEL))
    del keys
    table = _log_table(config, charset, width, levels, np.cumsum(first) - 1, col, np.bincount(cell, weight))
    return NgramModel(config, charset, labels, widths, tuple(levels), *table), cell


def _widths(n: int, positions: int, base: int, labels: int) -> tuple[int, ...]:
    """The symbols each level of an order-n table covers; see the module docstring.

    No level has more rows than `positions`, the table's total count, so
    keys stay below positions * base**w * labels.
    """
    widest = 0
    while widest < max(n - 1, 1) and positions * base ** (widest + 1) * labels < 2**63:
        widest += 1
    if not widest:
        raise ValueError(f"{positions} positions, {base - 1} symbols and {labels} labels overflow int64 keys")
    chunks = -(-(n - 1) // widest)  # 0 for n = 1
    size, longer = divmod(n - 1, max(chunks, 1))
    return (size + 1,) * longer + (size,) * (chunks - longer) + (1,)


def _log_table(
    config: NgramConfig,
    charset: Charset,
    width: int,
    levels: list[np.ndarray],
    row: np.ndarray,
    col: np.ndarray,
    count: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`NgramModel.offsets`, `cols`, `logs` and `counts` from the `count` of
    each seen (n-gram row, label) cell, sorted by row, then label."""
    parent = levels[-1][:-1] // (charset.size + 1)  # each n-gram row's history row
    history_rows = len(levels[-2]) if len(levels) > 1 else 1
    # The seen (history row, label) cells, by row, then label, and their
    # totals. Cells come by n-gram row, and rows by history, so the keys are
    # nearly in order, and a stable sort passes over them several times
    # faster than np.unique's quicksort.
    history = parent[row]
    keys = history * width + col
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.diff(keys, prepend=-1) != 0
    seen = keys[first]
    seen_of = np.empty(len(keys), np.intp)
    seen_of[order] = np.cumsum(first) - 1
    del keys, order, first
    total = np.bincount(seen_of, count)
    if total.max(initial=0) >= _EXACT:
        raise ValueError("a history total of 2**53 or more, beyond exact float64")
    seen_row, seen_col = np.divmod(seen, width)
    del seen
    history_starts = np.concatenate(([0], np.cumsum(np.bincount(seen_row, minlength=history_rows))))
    # Each n-gram row has an entry for every label of its history's row.
    spans = np.diff(history_starts)[parent]
    gram_starts = np.cumsum(spans) - spans
    at = _expand(history_starts[parent], spans)[1]
    hits = gram_starts[row] + seen_of - history_starts[history]  # each cell's entry
    del history, row
    cols = np.concatenate((seen_col[at], seen_col)).astype(np.min_scalar_type(width - 1))
    del seen_col
    # The miss term of each history cell, then the hit term of each n-gram
    # cell; an entry with no count is its history's miss term.
    smoothing = config.alpha * charset.size
    ratios = np.concatenate((config.alpha / (total + smoothing),
                             (count + config.alpha) / (total[seen_of] + smoothing)))
    del seen_of
    # np.log may round an ulp away from math.log; the ratios repeat a lot,
    # so math.log of each distinct one keeps the scores exactly as before.
    # (np.unique would import numpy.ma on its first call without
    # return_inverse: ~10 ms of a fresh process.)
    distinct = np.sort(ratios)
    distinct = distinct[np.diff(distinct, prepend=0.0) > 0]
    terms = np.array(list(map(math.log, distinct.tolist())))[np.searchsorted(distinct, ratios)]
    del ratios
    miss = terms[: len(total)]
    logs = np.concatenate((miss[at], miss))
    logs[hits] = terms[len(total) :]
    counts = np.zeros(len(at), np.min_scalar_type(int(count.max(initial=0))))
    counts[hits] = count
    offsets = np.concatenate((gram_starts, [len(counts)], len(counts) + history_starts))
    return offsets.astype(np.min_scalar_type(int(offsets[-1]))), cols, logs, counts


def train(corpus: Corpus, config: NgramConfig, charset: Charset) -> NgramModel:
    """Count every n-gram per label over BOS-padded index sequences."""
    if not len(corpus):
        raise ConfigError("training corpus is empty")
    config.check_charset(charset)
    n = config.n
    lengths = [len(inst.text) for inst in corpus]
    row = {label: i for i, label in enumerate(corpus.labels)}
    label = np.repeat(np.array([row[inst.label] for inst in corpus], np.min_scalar_type(len(row))), lengths)
    # Each text follows n - 1 markers: its characters sit n - 1 places
    # further on for every text up to and including its own.
    symbols = np.full(len(label) + (n - 1) * len(corpus), BOS, np.int32)
    symbols[np.repeat(np.arange(1, len(corpus) + 1) * (n - 1), lengths) + np.arange(len(label))] = (
        charset.indices("".join(inst.text for inst in corpus)))
    # One n-gram per character: the n symbols that end on it.
    ends = symbols[n - 1 :] != BOS
    grams = (symbols[k : len(symbols) - (n - 1) + k][ends] for k in range(n))
    return _build(config, charset, corpus.labels, grams, label)[0]


@dataclass(frozen=True)
class SweepPoint:
    n: int
    accuracy: float
    table_entries: int
    table_bytes: int


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
    config = NgramConfig(n_max, alpha)
    if charset is None:
        charset = build_charset(train_corpus)
    model = train(train_corpus, config, charset)
    points = []
    for n in range(n_max, n_min - 1, -1):
        if n < n_max:
            grams, label, count = model._entries()
            model = _build(NgramConfig(n, alpha), charset, model.labels, grams.T[1:], label, count)[0]
        acc = accuracy(model, dev_corpus)
        points.append(SweepPoint(n, acc, model.table_entries(), model.nbytes()))
    return points[::-1]


def load(path) -> NgramModel:
    """Read back a model written by `NgramModel.save`, or by its v1 or v2 writer."""
    return read_model(path, MAGIC, {1: _parse_v1, 2: partial(_parse_levels, chunked=False), 3: _parse_levels})


def _preamble(r: Reader) -> tuple[NgramConfig, Charset, tuple[Label, ...]]:
    n = r.value(U32)
    alpha = r.value(F64)
    charset, labels = r.header()
    if not labels:
        raise ModelIOError(f"{r.source}: model has no labels")
    config = NgramConfig(n, alpha)
    config.check_charset(charset)
    return config, charset, labels


def _parse_levels(r: Reader, chunked: bool = True) -> NgramModel:
    """A v3 payload, or with `chunked` false a v2 one, whose levels all have width one."""
    config, charset, labels = _preamble(r)
    base = charset.size + 1
    widths = tuple(r.array("<u4").tolist()) if chunked else (1,) * config.n
    if not widths or min(widths) < 1 or sum(widths) != config.n or widths[-1] != 1:
        raise ModelIOError(f"{r.source}: level widths that do not split {config.n} symbols, the last alone")
    levels = []
    # Level 0 holds the one empty prefix, which ends as a marker would.
    rows, last = 1, np.zeros(1, np.int64)
    for k, width in enumerate(widths):
        scale = base**width
        if rows * scale >= 2**63:
            raise ModelIOError(f"{r.source}: level {k + 1}: {rows} rows above chunks of {width} symbols "
                               "overflow int64 keys")
        keys = r.array("<i8")
        # Keys increase, and their parents step by at most one from row 0 to
        # the last row, so keys are >= 0 and each row above is some key's parent.
        parent, chunk = np.divmod(keys, scale)
        if (not len(keys) or np.any(keys[1:] <= keys[:-1])
                or parent[0] != 0 or parent[-1] != rows - 1 or np.any(np.diff(parent) > 1)):
            raise ModelIOError(f"{r.source}: level {k + 1}: keys out of order or not a prefix tree")
        # The chunk's digits, first to last, each in 0..V. The beginning-of-text
        # marker, digit 0, comes only before every other symbol, so a 0 follows
        # only 0s, within a chunk and across chunks, and never ends an n-gram.
        digits = [chunk // base**i % base for i in range(width - 1, -1, -1)]
        for before, digit in zip([last[parent], *digits], digits):
            if np.any((digit == 0) & (before != 0)):
                raise ModelIOError(f"{r.source}: level {k + 1}: a beginning-of-text marker after a symbol")
        last = digits[-1]
        levels.append(np.append(keys, _SENTINEL))
        rows = len(keys)
    if not last.all():
        raise ModelIOError(f"{r.source}: an n-gram ending in the beginning-of-text marker")
    row, col, count = r.array("<u8"), r.array("<u4"), r.array("<u8")
    # Cells are the seen (n-gram row, label) cells, each once, by row, then label.
    if not len(row) or len(col) != len(row) or len(count) != len(row):
        raise ModelIOError(f"{r.source}: cell arrays empty or of unequal lengths")
    if row.max() >= rows or col.max() >= len(labels):
        raise ModelIOError(f"{r.source}: a cell past the table's {rows} n-grams or {len(labels)} labels")
    row, col = row.astype(np.int64), col.astype(np.int64)
    cells = row * len(labels) + col
    if np.any(cells[1:] <= cells[:-1]):
        raise ModelIOError(f"{r.source}: a cell repeated or out of order")
    if row[0] != 0 or row[-1] != rows - 1 or np.any(np.diff(row) > 1):
        raise ModelIOError(f"{r.source}: an n-gram with no count")
    if np.bincount(col, minlength=len(labels)).min() == 0:
        raise ModelIOError(f"{r.source}: a label with no n-grams")
    if count.min() < 1 or count.max() >= _EXACT:
        raise ModelIOError(f"{r.source}: a count outside 1..2**53-1")
    table = _log_table(config, charset, len(labels), levels, row, col, count.astype(np.float64))
    return NgramModel(config, charset, labels, widths, tuple(levels), *table)


def _parse_v1(r: Reader) -> NgramModel:
    config, charset, labels = _preamble(r)
    # A history record: its n-1 symbols and the number k of (char, count)
    # pairs after it; see serialization.py for the layout.
    head = np.dtype([("history", "<i4", (config.n - 1,)), ("k", "<u4")])
    pair = np.dtype([("char", "<u4"), ("count", "<u8")])
    heads, items = [], []
    for label in labels:
        histories = r.value(U64)
        # `train` writes no empty table; as each history stores n-1 symbols, that bounds n.
        if not histories:
            raise ModelIOError(f"{r.source}: label {label.code!r}: no n-grams")
        head_bytes, pair_bytes = [], []
        for _ in range(histories):
            head_bytes.append(r.read(head.itemsize))
            (k,) = U32.unpack_from(head_bytes[-1], head.itemsize - U32.size)
            pair_bytes.append(r.read(pair.itemsize * k))
        table_heads = np.frombuffer(b"".join(head_bytes), head)
        table_items = np.frombuffer(b"".join(pair_bytes), pair)
        if not table_heads["k"].all() or not table_items["count"].all():
            raise ModelIOError(f"{r.source}: label {label.code!r}: a history or an n-gram with no count")
        if (table_heads["history"].min(initial=BOS) < BOS
                or max(table_heads["history"].max(initial=BOS), table_items["char"].max()) >= charset.size):
            raise ModelIOError(f"{r.source}: label {label.code!r}: "
                               f"a symbol outside [{BOS}, {charset.size})")
        # The beginning-of-text marker comes only before every other symbol.
        history = table_heads["history"]
        if np.any((history[:, 1:] == BOS) & (history[:, :-1] != BOS)):
            raise ModelIOError(f"{r.source}: label {label.code!r}: a beginning-of-text marker after a symbol")
        heads.append(table_heads)
        items.append(table_items)
    label = np.repeat(np.arange(len(labels)), [len(table) for table in items])
    histories_of = [len(table) for table in heads]
    heads, items = np.concatenate(heads), np.concatenate(items)
    grams = [*np.repeat(heads["history"], heads["k"], axis=0).T, items["char"]]
    model, cells = _build(config, charset, labels, grams, label, items["count"].astype(np.float64))
    # `train` writes each label's n-grams once and in table order, one record
    # per history; a repeat or a step back would otherwise merge into a model
    # that saves other bytes.
    if (np.any((label[1:] == label[:-1]) & (np.diff(cells) <= 0))
            or np.bincount(model.cols[len(model.counts):], minlength=len(labels)).tolist() != histories_of):
        raise ModelIOError(f"{r.source}: a history or an n-gram repeated or out of order")
    return model
