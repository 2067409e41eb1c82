"""Labeled text corpora in the tab-separated ``text<TAB>label`` layout.

Covers reading corpus files, per-language summary statistics, and the
character inventory shared by the n-gram and neural classifiers. Characters
are used exactly as read: no case folding, no normalization, no punctuation
stripping. All types are immutable once constructed and safe to share across
threads.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from .errors import ConfigError, CorpusFormatError, is_integer

if TYPE_CHECKING:
    import numpy as np

# Lone surrogates are not unicode scalar values and cannot exist in a UTF-8
# corpus file, so they are rejected at construction time.
_SURROGATES = re.compile("[\ud800-\udfff]")

__all__ = [
    "Label",
    "Scores",
    "Instance",
    "Corpus",
    "Charset",
    "LabelStats",
    "read_lines",
    "read_tsv",
    "build_charset",
    "check_charset_cap",
    "compute_stats",
]


@dataclass(frozen=True, order=True)
class Label:
    """A language or variety code: non-empty, with no whitespace. Similarity
    groups are not part of it; `metrics.ConfusionMatrix.groups` holds them."""

    code: str

    def __post_init__(self) -> None:
        if not self.code or any(ch.isspace() for ch in self.code):
            raise ValueError(
                f"label code must be non-empty and contain no whitespace: {self.code!r}"
            )


@dataclass(frozen=True)
class Scores:
    """Per-label log-probabilities of one text."""

    per_label: dict[Label, float]

    @property
    def best(self) -> Label:
        """The winning label: the highest score, ties to the smallest code."""
        return min(self.per_label, key=lambda label: (-self.per_label[label], label.code))


@dataclass(frozen=True)
class Instance:
    """One labeled text line."""

    text: str
    label: Label

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("instance text must be non-empty")
        if "\t" in self.text:
            raise ValueError("instance text must not contain tab characters")
        if "\n" in self.text or "\r" in self.text:
            raise ValueError("instance text must not contain line terminators")
        if _SURROGATES.search(self.text):
            raise ValueError("instance text must contain only unicode scalar values")


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of instances, from any iterable; `labels` is their sorted label set."""

    instances: tuple[Instance, ...]
    labels: tuple[Label, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "instances", tuple(self.instances))
        object.__setattr__(self, "labels", tuple(sorted({inst.label for inst in self.instances})))

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self) -> Iterator[Instance]:
        return iter(self.instances)


@dataclass(frozen=True)
class Charset:
    """Dense char->index map with a reserved trailing slot for unseen characters.

    `chars` holds only characters observed in training; the unknown index is
    always `len(chars)`, so `size` counts it and `indices` is total over unicode.
    """

    chars: tuple[str, ...]
    # The index of each code point up to one above the charset's largest; gaps
    # and the last entry, which stands for every code point above, hold the unknown slot.
    _table: np.ndarray = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for ch in self.chars:
            if len(ch) != 1:
                raise ValueError(f"charset entries must be single characters: {ch!r}")
            if ch in seen:
                raise ValueError(f"duplicate charset entry: {ch!r}")
            seen.add(ch)
        # numpy is imported here and in `indices`, not above, so that `import
        # lident` and reading a corpus stay numpy-free: ~0.1 s of a fresh process.
        import numpy as np

        codes = list(map(ord, self.chars))
        table = np.full(max(codes, default=-1) + 2, len(codes), np.int32)
        table[codes] = np.arange(len(codes))
        object.__setattr__(self, "_table", table)

    @property
    def size(self) -> int:
        """Number of indices, including the unknown slot."""
        return len(self.chars) + 1

    def indices(self, text: str) -> np.ndarray:
        """The index of each character of `text`, as an int array."""
        import numpy as np

        # take() casts uint32 indices several times slower than astype does.
        codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32).astype(np.intp)
        return self._table.take(codes, mode="clip")


@dataclass(frozen=True)
class LabelStats:
    """One row of `lident stats`: a label code, or ``TOTAL``, with its instance
    count and mean lengths in characters and whitespace tokens."""

    label: str
    count: int
    avg_chars: float
    avg_tokens: float


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 file, without their ``\\n`` or ``\\r\\n`` terminators."""
    try:
        content = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{path}: not valid UTF-8: {exc}") from exc
    lines = content.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def read_tsv(path: str | Path) -> Corpus:
    """Read a UTF-8 ``text<TAB>label`` file, preserving line order."""
    instances: list[Instance] = []
    labels: dict[str, Label] = {}  # each distinct code's Label, built and checked once
    for line_no, line in enumerate(read_lines(path), start=1):
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusFormatError(
                f"{path}:{line_no}: expected exactly one tab separator, found {len(parts) - 1}"
            )
        text, code = parts
        if not text:
            raise CorpusFormatError(f"{path}:{line_no}: empty text field")
        try:
            instances.append(Instance(text, labels[code] if code in labels else labels.setdefault(code, Label(code))))
        except ValueError as exc:
            raise CorpusFormatError(f"{path}:{line_no}: {exc}") from exc
    return Corpus(instances)


def check_charset_cap(max_size: int | None) -> None:
    """Reject a charset cap (None is none) that leaves no room for one character and the unknown slot."""
    if max_size is not None and not (is_integer(max_size) and max_size >= 2):
        raise ConfigError(
            f"charset cap must be an integer that leaves room for one character and the unknown slot, got {max_size!r}"
        )


def build_charset(corpus: Corpus, max_size: int | None = None) -> Charset:
    """Collect distinct characters sorted by (frequency desc, codepoint asc).

    With a cap, the most frequent `max_size - 1` characters are kept and the
    rest fold into the unknown slot.
    """
    import numpy as np

    check_charset_cap(max_size)
    if not len(corpus):
        raise ConfigError("cannot build a charset from an empty corpus")
    # Count the code points, then rank them by a stable sort on the count,
    # descending: code points arrive ascending, so equal counts keep that order.
    freq = np.bincount(np.frombuffer("".join(inst.text for inst in corpus).encode("utf-32-le"), np.uint32))
    seen = np.flatnonzero(freq)
    ranked = seen[np.argsort(-freq[seen], kind="stable")][: None if max_size is None else max_size - 1]
    return Charset(tuple(map(chr, ranked.tolist())))


def compute_stats(corpus: Corpus) -> list[LabelStats]:
    """One row per label with instances, in label order, then a ``TOTAL`` row
    (its averages 0.0 for an empty corpus), which no label may share."""
    if Label("TOTAL") in corpus.labels:
        raise CorpusFormatError("label 'TOTAL' clashes with the total row of the stats")
    acc: dict[Label, list[int]] = defaultdict(lambda: [0, 0, 0])
    for inst in corpus:
        entry = acc[inst.label]
        entry[0] += 1
        entry[1] += len(inst.text)
        entry[2] += len(inst.text.split())
    sums = [(label.code, *entry) for label, entry in sorted(acc.items())]
    sums.append(("TOTAL", len(corpus), sum(s[2] for s in sums), sum(s[3] for s in sums)))
    return [
        LabelStats(code, count, chars / count if count else 0.0, tokens / count if count else 0.0)
        for code, count, chars, tokens in sums
    ]
