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
  instead of 7. T depends only on the counts, so `train` and `sweep` build
  the same levels for the same table.
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
- The log terms are built once, with `np.log`, and `math.log` for the
  few distinct ratios where the two differ, so scores keep the bits of a
  left-to-right `math.log` loop.

`_layout` writes texts as digits, each after n - 1 markers, for counting
and scoring alike. `_build` makes the levels and rows from (n-gram, label,
count) entries: every text position for `train`, and for `sweep` the
order-n entries with their leftmost symbol summed out. A model file
(`.lidn` v4, the one version `load` reads) holds the widths, the levels,
`offsets`, `cols` and `counts`, which `load` checks against each other in
a few passes, with no sort. Both end in `_model`, the one step from a
table's arrays to a model (entry labels, types and log terms), so a model
loaded holds what training made. Scoring cuts texts into pieces that fit a
batch, each after the n - 1 characters before it, and walks the levels of a
batch of pieces with one `np.searchsorted` each, on the keys sorted first.
A position reads its n-gram's row if the lookup hit and its history's row
if not, and a history that missed lands on an entry-less sentinel row. The
entries fill a [T, L] array whose other cells hold ln(a / aV), the term of
a history no label saw. Each piece's terms are added down its own slice of
it, a continuing piece's first term carrying its text's sum so far, so
scores keep the bits of the text alone in any batch.

Trained models are immutable and reentrant; training itself is
single-threaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Iterator

import numpy as np

from .corpus import Charset, Corpus, Label, Scores, build_charset
from .errors import ConfigError, ModelIOError, is_integer, is_real
from .serialization import F64, U32, Reader, Writer, read_model

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

# The beginning-of-text marker (digit 0) as a symbol, as `grams` reads it back: outside
# the charset index range, and only ever inside histories, never a predicted outcome.
BOS = -1

MAGIC = b"LIDN"
_VERSION = 4

# The key of each level's last row, above every real key.
_SENTINEL = np.iinfo(np.int64).max
# float64 holds every integer below this exactly, and so every count and total.
_EXACT = 2**53
# `_unique` numbers rows in int32 below this many keys, and in int64 from it.
_INT32_ROWS = 2**31
# The most windows (characters, and n - 1 markers a text) one scoring batch
# walks, so that its [T, L] terms stay a few MiB however many or long the texts.
_BATCH_CHARS = 2**16


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
        if not (is_integer(self.n) and 1 <= self.n <= self.MAX_N):
            raise ConfigError(f"n-gram order must be an integer in 1..{self.MAX_N}, got {self.n!r}")
        if not (is_real(self.alpha) and self.alpha > 0 and math.isfinite(self.alpha)):
            raise ConfigError(f"smoothing mass alpha must be a finite number > 0, got {self.alpha!r}")

    def check_charset(self, charset: Charset) -> None:
        """Reject an alpha whose smoothing mass over the charset, alpha * V, overflows."""
        if not math.isfinite(self.alpha * charset.size):
            raise ConfigError(
                f"smoothing mass alpha * V = {self.alpha} * {charset.size} is not finite"
            )

    def check_orders(self, n_min: int) -> None:
        """Reject a sweep of the orders from `n_min` up to this config's n unless 1 <= n_min <= n."""
        if not (is_integer(n_min) and 1 <= n_min <= self.n):
            raise ConfigError(f"invalid order range {n_min!r}..{self.n!r}")


# n-1 history symbols, then the next char index.
Gram = tuple[int, ...]


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
        return self.classify_many([text])[0]

    def classify_many(self, texts: Iterable[str]) -> list[Scores]:
        """`classify` of each text, walking the levels once per batch of at most
        `_BATCH_CHARS` windows. Each text is cut into pieces of at most
        `_BATCH_CHARS` - 2(n - 1) characters (a short or empty text is one piece),
        each laid out after the n - 1 characters before it, so that any piece fits."""
        n = self.config.n
        size = max(_BATCH_CHARS - 2 * (n - 1), 1)
        out, batch, windows = [], [], 0
        for text in texts:
            for start in range(0, len(text) or 1, size):
                piece = text[max(start - (n - 1), 0) : start + size]
                if batch and windows + len(piece) + n - 1 > _BATCH_CHARS:
                    self._walk(batch, out)
                    batch, windows = [], 0
                batch.append((piece, start))
                windows += len(piece) + n - 1
        if batch:
            self._walk(batch, out)
        return out

    def _walk(self, pieces: list[tuple[str, int]], out: list[Scores]) -> None:
        """Append to `out` the `Scores` of each (piece, its start in its text) of
        `classify_many`; a piece that continues a text replaces its earlier sum."""
        n = self.config.n
        alpha = self.config.alpha
        base = self.charset.size + 1
        # Widened once, the digits add to int64 keys with no cast at each step.
        digits = _layout(self.charset, [piece for piece, _ in pieces], n).astype(np.int64)
        positions = len(digits) - (n - 1)
        rows, start = 0, 0
        for width, level in zip(self.widths, self.levels):
            history = keys = rows
            for k in range(start, start + width):
                keys = keys * base + digits[k : k + positions]
            start += width
            # Keys below rows(level above) * (V + 1)**w fit in int64 (`_widths`);
            # one built on the sentinel row can wrap only in its last step, to a
            # negative key that misses. Sorted, keys search the level in order.
            order = keys.argsort()
            keys = keys[order]
            found = level.searchsorted(keys)
            rows = np.empty_like(found)
            rows[order] = np.where(level[found] == keys, found, len(level) - 1)
        # A missed n-gram lands on its level's sentinel: read its history's row.
        grams = len(self.levels[-1])
        rows = np.where(rows < grams - 1, rows, grams + history)
        # Each position's entries: the run of its row's entries, in position order.
        starts = self.offsets[rows].astype(np.intp)
        spans = self.offsets[rows + 1] - starts
        position = np.repeat(np.arange(positions), spans)
        at = np.arange(len(position)) + (starts - np.cumsum(spans) + spans)[position]
        # The labels a row has no entry for never saw its history.
        unseen = math.log(alpha / (alpha * self.charset.size))
        # Down axis 0 of a C-ordered [T, L >= 2] slice numpy adds left to right,
        # one position at a time, as the exact scorer multiplies. A [T, 1]
        # column it would sum pairwise, so a lone label gets a spare that `zip` drops.
        terms = np.full((positions, max(len(self.labels), 2)), unseen)
        terms[position, self.cols[at]] = self.logs[at]
        first = 0
        for piece, offset in pieces:
            # The piece's own windows: not those that end on the characters before
            # it, nor the n - 1 that end on the next piece's markers.
            window = terms[first + min(offset, n - 1) : first + len(piece)]
            first += len(piece) + n - 1
            if offset:
                # Added to the first term, the text's sum so far keeps the bits of one left-to-right sum.
                window[0] += list(out.pop().per_label.values())
            out.append(Scores(dict(zip(self.labels, window.sum(axis=0).tolist()))))

    def grams(self, label: Label) -> dict[Gram, int]:
        """One label's nonzero n-gram counts, in table order."""
        digits, cols, counts = self._entries()
        row = cols == self.labels.index(label)
        return dict(zip(map(tuple, (digits[row] - 1).tolist()), counts[row].astype(np.int64).tolist()))

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
        for values in (self.offsets, self.cols, self.counts):
            w.uints(values)
        w.save(path, MAGIC, _VERSION)

    def to_json_dict(self) -> dict:
        """A summary of the model whose size does not grow with the table: `grams`
        holds each label's number of n-grams and `totals` its training characters
        (exact below 2**53). The counts themselves come from `grams(label)`."""
        hits = self.cols[: len(self.counts)]
        codes = [label.code for label in self.labels]
        return {
            "kind": "ngram",
            "n": self.config.n,
            "alpha": self.config.alpha,
            "charset": list(self.charset.chars),
            "labels": codes,
            "widths": list(self.widths),
            "histories": len(self.levels[-2]) - 1 if len(self.levels) > 1 else 1,
            "table_bytes": self.nbytes(),
            "grams": dict(zip(codes, map(int, np.bincount(hits, self.counts != 0, len(codes)).tolist()))),
            "totals": dict(zip(codes, map(int, np.bincount(hits, self.counts, len(codes)).tolist()))),
        }

    def _digits(self, rows: np.ndarray) -> np.ndarray:
        """The [len(rows), n] digits of n-gram rows, read back up the levels."""
        out = np.empty((len(rows), self.config.n), np.int32)
        end = self.config.n
        for width, level in zip(self.widths[::-1], self.levels[::-1]):
            rows = level[rows]
            for k in range(end - 1, end - 1 - width, -1):
                rows, out[:, k] = np.divmod(rows, self.charset.size + 1)
            end -= width
        return out

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every nonzero count as (digits [E, n], label row [E], count [E])."""
        at = np.flatnonzero(self.counts)
        spans = np.diff(self.offsets[: len(self.levels[-1]) + 1])  # each n-gram row's entries
        return self._digits(np.repeat(np.arange(len(spans)), spans)[at]), self.cols[at], self.counts[at]


def _build(
    config: NgramConfig,
    charset: Charset,
    labels: tuple[Label, ...],
    grams: Iterable[np.ndarray],
    label: np.ndarray,
    weight: np.ndarray | None = None,
) -> NgramModel:
    """The model of N n-grams, each counted `weight` times (once if None) for
    its `label` row. `grams` yields their digits one [N] column at a time, so
    no [N, n] copy need exist."""
    base = charset.size + 1
    width = len(labels)
    widths = _widths(config.n, len(label) if weight is None else int(weight.sum()), base, width)
    grams = iter(grams)
    # Here and below each array goes once used, to keep the peak low. Rows
    # may be int32 (`_unique`), so keys start as an int64 copy of them.
    rows = np.zeros(1, np.int32)
    levels = []
    for chunk in widths[:-1]:
        keys = rows.astype(np.int64)
        del rows
        for _ in range(chunk):
            keys = keys * base + next(grams)
        keys, rows = _unique(keys)
        levels.append(np.append(keys, _SENTINEL))
    # Level n sorts with the label as one more digit, so the same sort finds
    # the seen (n-gram, label) cells, by row, then label.
    keys = (rows.astype(np.int64) * base + next(grams)) * width + label
    del rows, grams
    cells, cell = _unique(keys)
    keys, col = np.divmod(cells, width)
    del cells
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    levels.append(np.append(keys[first], _SENTINEL))
    del keys
    count = np.bincount(cell, weight)  # of each seen (n-gram row, label) cell
    row = np.cumsum(first) - 1
    del cell, first
    # The seen (history row, label) cells, by row, then label.
    parent = levels[-1][:-1] // base  # each n-gram row's history row
    history = parent[row]
    seen, seen_of = _unique(history * width + col)
    seen_row, misses = np.divmod(seen, width)
    del col, seen
    history_rows = len(levels[-2]) if len(levels) > 1 else 1
    history_starts = np.concatenate(([0], np.cumsum(np.bincount(seen_row, minlength=history_rows))))
    # Each n-gram row has an entry for every label of its history's row.
    spans = np.diff(history_starts)[parent]
    del seen_row, parent
    gram_starts = np.cumsum(spans) - spans
    counts = np.zeros(int(spans.sum()))
    counts[gram_starts[row] + seen_of - history_starts[history]] = count
    offsets = np.concatenate((gram_starts, [len(counts)], len(counts) + history_starts))
    del seen_of, history_starts, spans, gram_starts, row, history, count
    return _model(config, charset, labels, widths, levels, offsets, misses, counts)


def _unique(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(keys, return_inverse=True)` of non-negative int64 `keys`, which it sorts in place; the
    inverse is int32 below `_INT32_ROWS` keys. Each key is sorted with its position in the low
    (N - 1).bit_length() bits, or if too wide, in parts, lowest first, each beside its position so far."""
    shift = (len(keys) - 1).bit_length()
    room, wide = 63 - shift, int(keys.max(initial=0)).bit_length()
    for low in range(0, max(wide, 1), room):
        packed = keys if wide <= room else (keys[order] if low else keys) >> low & (1 << room) - 1
        packed <<= shift
        packed |= np.arange(len(keys))
        packed.sort()
        at = np.bitwise_and(packed, (1 << shift) - 1, out=None if wide <= room else packed)
        order = order[at] if low else at
        del packed, at
    keys[:] = keys[order] if wide > room else keys >> shift
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    inverse = np.empty(len(keys), np.int32 if len(keys) < _INT32_ROWS else np.int64)
    inverse[order] = np.cumsum(first, dtype=inverse.dtype) - 1
    return keys[first], inverse


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


def _model(
    config: NgramConfig,
    charset: Charset,
    labels: tuple[Label, ...],
    widths: tuple[int, ...],
    levels: list[np.ndarray],
    offsets: np.ndarray,
    misses: np.ndarray,
    counts: np.ndarray,
) -> NgramModel:
    """The model of a table's levels, row `offsets`, history entry labels (`misses`)
    and n-gram entry counts. The n-gram entries' labels, the narrowest integer
    types and the log terms (by `_logs`) are made here, all in new arrays."""
    grams, hits = len(levels[-1]), len(counts)
    starts = offsets.astype(np.intp, copy=False)
    # Each n-gram entry's entry in its history's row, which has the same labels.
    parent = levels[-1][:-1] // (charset.size + 1)
    at = np.arange(hits) + np.repeat(starts[grams + parent] - starts[: grams - 1] - hits, np.diff(starts[:grams]))
    del starts, parent
    cols = misses.astype(np.min_scalar_type(len(labels) - 1))
    cols = np.concatenate((cols[at], cols))
    logs = _logs(config, charset, at, counts, len(misses))  # each count is below 2**53 if this passes
    offsets = offsets.astype(np.min_scalar_type(int(offsets[-1])))
    counts = counts.astype(np.min_scalar_type(int(counts.max(initial=0))))
    return NgramModel(config, charset, labels, widths, tuple(levels), offsets, cols, logs, counts)


def _logs(config: NgramConfig, charset: Charset, at: np.ndarray, counts: np.ndarray, histories: int) -> np.ndarray:
    """`NgramModel.logs` from the `counts` of the n-gram entries, and `at`,
    each one's entry among the `histories` history entries after them."""
    total = np.bincount(at, counts, minlength=histories)
    most = total.max(initial=0)
    if total.min(initial=1) < 1 or most >= _EXACT:
        raise ValueError("a history total outside 1..2**53-1, beyond exact float64")
    smoothing = config.alpha * charset.size
    # The smallest term is the most-seen history's miss term; at 0, np.log would warn and math.log fail.
    if config.alpha / (most + smoothing) == 0:
        raise ConfigError(
            f"smoothing mass alpha = {config.alpha!r} is too small: its miss term alpha / (t + alpha * V)"
            f" rounds to 0 for a history seen t = {int(most)} times"
        )
    # The hit term of each n-gram entry (its history's miss term if its count
    # is 0), then the miss term of each history entry, built in place to keep
    # the peak low.
    ratios = np.empty(len(counts) + histories)
    hit, miss = ratios[: len(counts)], ratios[len(counts) :]
    hit[:] = counts
    hit += config.alpha
    total += smoothing  # each history's denominator
    hit /= total[at]
    np.divide(config.alpha, total, out=miss)
    del total
    # np.log rounds an ulp away from math.log on a few ratios (0.2% of them
    # with AVX-512). Those, found among the ratios that share the low 16 bits
    # of one, get the math.log term, so scores keep the bits of a math.log loop.
    distinct = np.sort(ratios)  # np.unique would import numpy.ma: ~10 ms of a fresh process
    distinct = distinct[np.concatenate(([True], distinct[1:] > distinct[:-1]))]
    logs = np.log(ratios)
    exact = np.array(list(map(math.log, distinct.tolist())))
    wrong = np.log(distinct) != exact
    if wrong.any():
        distinct, exact = distinct[wrong], exact[wrong]
        low = np.zeros(2**16, bool)
        low[distinct.view(np.uint16)[::4]] = True
        maybe = np.flatnonzero(low[ratios.view(np.uint16)[::4]])
        at = np.searchsorted(distinct, ratios[maybe]).clip(max=len(distinct) - 1)
        logs[maybe] = np.where(distinct[at] == ratios[maybe], exact[at], logs[maybe])
    return logs


def train(corpus: Corpus, config: NgramConfig, charset: Charset) -> NgramModel:
    """Count every n-gram per label over BOS-padded index sequences."""
    if not len(corpus):
        raise ConfigError("training corpus is empty")
    config.check_charset(charset)
    texts = [inst.text for inst in corpus]
    row = {label: i for i, label in enumerate(corpus.labels)}
    label = np.repeat(np.array([row[inst.label] for inst in corpus], np.min_scalar_type(len(row))),
                      [len(text) for text in texts])
    return _build(config, charset, corpus.labels, _grams(_layout(charset, texts, config.n), config.n), label)


def _grams(digits: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """One n-gram per character, the n digits that end on it, one column at a time."""
    ends = digits[n - 1 :] != 0
    yield from (digits[k : len(digits) - (n - 1) + k][ends] for k in range(n))


def _layout(charset: Charset, texts: list[str], n: int) -> np.ndarray:
    """The texts' symbols as int32 digits, one text after another, each after
    n - 1 beginning-of-text markers."""
    lengths = [len(text) for text in texts]
    chars = sum(lengths)
    digits = np.zeros(chars + (n - 1) * len(texts), np.int32)
    # A text's characters sit n - 1 places further on for every text up to and including its own.
    digits[np.repeat(np.arange(1, len(texts) + 1) * (n - 1), lengths) + np.arange(chars)] = (
        charset.indices("".join(texts)) + 1)
    return digits


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
    scores = model.classify_many(inst.text for inst in corpus)
    return sum(s.best == inst.label for s, inst in zip(scores, corpus)) / len(corpus)


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
    config = NgramConfig(n_max, alpha)
    config.check_orders(n_min)
    if not len(dev_corpus):
        raise ConfigError("dev corpus is empty")
    for label in dev_corpus.labels:
        if label not in train_corpus.labels:
            raise ConfigError(f"dev label {label.code!r} is not in the training corpus")
    if charset is None:
        charset = build_charset(train_corpus)
    model = train(train_corpus, config, charset)
    points = []
    for n in range(n_max, n_min - 1, -1):
        if n < n_max:
            grams, label, count = model._entries()
            model = _build(NgramConfig(n, alpha), charset, model.labels, grams.T[1:], label, count)
        acc = accuracy(model, dev_corpus)
        points.append(SweepPoint(n, acc, model.table_entries(), model.nbytes()))
    return points[::-1]


def load(path) -> NgramModel:
    """Read back a model written by `NgramModel.save`: a `.lidn` v4 file, the
    only version read; any other raises `VersionError`."""
    return read_model(path, MAGIC, _VERSION, _parse_v4)


def _levels(r: Reader, config: NgramConfig, charset: Charset) -> tuple[tuple[int, ...], list]:
    """The widths and the levels, with their sentinels, of a v4 payload."""
    base = charset.size + 1
    widths = tuple(r.array("<u4").tolist())
    if not widths or min(widths) < 1 or sum(widths) != config.n or widths[-1] != 1:
        raise ModelIOError(f"level widths that do not split {config.n} symbols, the last alone")
    levels = []
    # Level 0 holds the one empty prefix, which ends as a marker would.
    rows, last = 1, np.ones(1, bool)
    for k, width in enumerate(widths):
        scale = base**width
        if rows * scale >= 2**63:
            raise ModelIOError(f"level {k + 1}: {rows} rows above chunks of {width} symbols overflow int64 keys")
        keys = r.array("<i8")
        # Keys increase, and their parents step by at most one from row 0 to
        # the last row, so keys are >= 0 and each row above is some key's parent.
        parent = keys // scale
        if (not len(keys) or np.any(keys[1:] <= keys[:-1])
                or parent[0] != 0 or parent[-1] != rows - 1 or np.any(np.diff(parent) > 1)):
            raise ModelIOError(f"level {k + 1}: keys out of order or not a prefix tree")
        # Whether each of the chunk's digits is 0, last to first, then whether
        # the symbol before the chunk is. The beginning-of-text marker, digit
        # 0, comes only before every other symbol, so a 0 follows only 0s,
        # within a chunk and across chunks, and never ends an n-gram. (Floor
        # division by a scalar, in the narrowest type, is several times faster
        # than np.divmod or %.)
        chunk, marks = (keys - parent * scale).astype(np.min_scalar_type(scale)), []
        # One pass clears a sound last level: its one digit ends an n-gram, so is never a marker.
        if k == len(widths) - 1 and chunk.all():
            return widths, [*levels, np.append(keys, _SENTINEL)]
        for _ in range(width):
            rest = chunk // base
            marks.append(rest * base == chunk)
            chunk = rest
        marks.append(last[parent])
        if any(np.any(mark & ~before) for mark, before in zip(marks, marks[1:])):
            raise ModelIOError(f"level {k + 1}: a beginning-of-text marker after a symbol")
        last = marks[0]
        levels.append(np.append(keys, _SENTINEL))
        rows = len(keys)
    # Only a marker in the last level, after markers alone, gets here.
    raise ModelIOError("an n-gram ending in the beginning-of-text marker")


def _parse_v4(r: Reader) -> NgramModel:
    """A v4 payload: the levels, then `offsets`, `cols` and `counts` as the
    model holds them, checked against each other in a few passes."""
    n = r.value(U32)
    alpha = r.value(F64)
    charset, labels = r.header()
    if not labels:
        raise ModelIOError("model has no labels")
    config = NgramConfig(n, alpha)
    config.check_charset(charset)
    widths, levels = _levels(r, config, charset)
    offsets, cols, counts = r.uints(), r.uints(), r.uints()
    # G n-gram rows, then H history rows; each level's last row is its
    # sentinel, but for n = 1 the one row is the empty prefix.
    grams, sentinel = len(levels[-1]), len(levels) > 1
    histories = len(levels[-2]) if sentinel else 1
    if (len(offsets) != grams + histories + 1 or offsets[0] != 0 or offsets[-1] != len(cols)
            or np.any(offsets[1:] < offsets[:-1])):
        raise ModelIOError(f"row offsets that do not delimit {grams} + {histories} rows")
    starts = offsets.astype(np.intp)
    lengths = np.diff(starts)
    spans, runs = lengths[: grams - 1], lengths[grams:]
    if lengths[grams - 1] or (sentinel and runs[-1]) or not runs[: len(runs) - sentinel].all():
        raise ModelIOError("a sentinel row with entries or a history row without")
    hits, parent = starts[grams], levels[-1][:-1] // (charset.size + 1)
    if np.any(spans != runs[parent]):
        raise ModelIOError("an n-gram row with other labels than its history's")
    misses = cols[hits:]
    first = np.zeros(len(misses) + 1, bool)
    first[starts[grams:] - hits] = True
    if cols.max() >= len(labels) or np.any((misses[1:] <= misses[:-1]) & ~first[1:-1]):
        raise ModelIOError(f"a label past the {len(labels)} labels or out of order in its row")
    if len(counts) != hits:
        raise ModelIOError(f"{len(counts)} counts for {hits} n-gram entries")
    nonzero = np.cumsum(counts != 0)[starts[1:grams] - 1]  # must rise at each n-gram row's end
    if not nonzero[0] or np.any(nonzero[1:] <= nonzero[:-1]):
        raise ModelIOError("an n-gram with no count")
    if np.bincount(misses, minlength=len(labels)).min() == 0:
        raise ModelIOError("a label with no n-grams")
    del starts, lengths, spans, runs, parent, first, nonzero  # not held through `_model`, the peak of a load
    model = _model(config, charset, labels, widths, levels, offsets, misses, counts)
    # A trained model of this table has the same n-gram labels and types, so
    # that a save writes the same bytes; its arrays are not views of the file.
    if np.any(cols[:hits] != model.cols[:hits]):
        raise ModelIOError("an n-gram row with other labels than its history's")
    if (offsets.dtype, cols.dtype, counts.dtype) != (model.offsets.dtype, model.cols.dtype, model.counts.dtype):
        raise ModelIOError("an array not in the narrowest type that holds it")
    return model

