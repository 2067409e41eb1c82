"""Labeled text corpora in the tab-separated ``text<TAB>label`` layout.

Covers reading and writing corpus files, deterministic stratified splits,
per-language summary statistics, and the character inventory shared by the
n-gram and neural classifiers. Characters are used exactly as read: no case
folding, no normalization, no punctuation stripping. All types are immutable
once constructed and safe to share across threads.
"""

from __future__ import annotations

import math
import random
import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import ConfigError, CorpusFormatError, StratificationError, is_integer, is_real

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
    "CorpusStats",
    "read_lines",
    "read_tsv",
    "write_tsv",
    "build_charset",
    "check_charset_cap",
    "compute_stats",
    "split",
]


@dataclass(frozen=True, order=True)
class Label:
    """A language or variety code, optionally tagged with a similarity group.

    Identity (equality, hashing, ordering) is by `code` alone; `group_id` is
    an annotation used for group-level error analysis.
    """

    code: str
    group_id: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.code or any(ch.isspace() for ch in self.code):
            raise ValueError(
                f"label code must be non-empty and contain no whitespace: {self.code!r}"
            )


@dataclass(frozen=True)
class Scores:
    """Per-label log-probabilities of one text and the winning label."""

    per_label: dict[Label, float]
    best: Label

    @classmethod
    def from_log_probs(cls, per_label: dict[Label, float]) -> "Scores":
        # Ties break to the lexicographically smallest code.
        best = min(per_label, key=lambda label: (-per_label[label], label.code))
        return cls(per_label, best)


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
    """An ordered collection of instances plus its sorted label set."""

    instances: tuple[Instance, ...]
    labels: tuple[Label, ...]

    def __post_init__(self) -> None:
        known = set(self.labels)
        for inst in self.instances:
            if inst.label not in known:
                raise ValueError(f"instance label {inst.label.code!r} missing from label set")

    @classmethod
    def from_instances(cls, instances: Iterable[Instance]) -> "Corpus":
        insts = tuple(instances)
        return cls(insts, tuple(sorted({inst.label for inst in insts})))

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

    @property
    def unk_index(self) -> int:
        return len(self.chars)

    def indices(self, text: str) -> np.ndarray:
        """The index of each character of `text`, as an int array."""
        import numpy as np

        # take() casts uint32 indices several times slower than astype does.
        codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32).astype(np.intp)
        return self._table.take(codes, mode="clip")


@dataclass(frozen=True)
class LabelStats:
    instance_count: int
    avg_chars: float
    avg_tokens: float


@dataclass(frozen=True)
class CorpusStats:
    """Per-label and overall instance counts and length averages."""

    per_label: dict[Label, LabelStats]
    totals: LabelStats


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
    return Corpus.from_instances(instances)


def write_tsv(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus back to the ``text<TAB>label`` layout (inverse of read_tsv)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for inst in corpus:
            fh.write(f"{inst.text}\t{inst.label.code}\n")


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


def compute_stats(corpus: Corpus) -> CorpusStats:
    """Instance counts plus mean character and whitespace-token lengths."""
    acc: dict[Label, list[int]] = defaultdict(lambda: [0, 0, 0])
    for inst in corpus:
        entry = acc[inst.label]
        entry[0] += 1
        entry[1] += len(inst.text)
        entry[2] += len(inst.text.split())
    per_label = {
        label: LabelStats(count, chars / count, tokens / count)
        for label, (count, chars, tokens) in sorted(acc.items())
    }
    n = len(corpus)
    total_chars = sum(e[1] for e in acc.values())
    total_tokens = sum(e[2] for e in acc.values())
    totals = LabelStats(n, total_chars / n if n else 0.0, total_tokens / n if n else 0.0)
    return CorpusStats(per_label, totals)


def split(corpus: Corpus, fractions: Sequence[float], seed: int) -> list[Corpus]:
    """Deterministic stratified partition of a corpus.

    Each label's instances are shuffled under `seed` and divided so every
    part's per-label size is within one instance of the exact proportion.
    Within each part the original file order is preserved.
    """
    fracs = list(fractions)
    if not fracs or not all(is_real(f) and f > 0 and math.isfinite(f) for f in fracs):
        raise ConfigError(f"split fractions must be finite real numbers > 0, got {fracs!r}")
    if abs(sum(fracs) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {sum(fracs)!r}")
    by_label: dict[Label, list[int]] = defaultdict(list)
    for pos, inst in enumerate(corpus.instances):
        by_label[inst.label].append(pos)
    rng = random.Random(seed)
    k = len(fracs)
    part_indices: list[list[int]] = [[] for _ in range(k)]
    for label in sorted(by_label):
        idxs = list(by_label[label])
        if len(idxs) < k:
            raise StratificationError(
                f"label {label.code!r} has {len(idxs)} instances, fewer than {k} parts"
            )
        rng.shuffle(idxs)
        start = 0
        for part, size in enumerate(_largest_remainder_sizes(len(idxs), fracs)):
            part_indices[part].extend(idxs[start : start + size])
            start += size
    parts = []
    for indices in part_indices:
        indices.sort()
        parts.append(Corpus.from_instances(corpus.instances[i] for i in indices))
    return parts


def _largest_remainder_sizes(m: int, fracs: list[float]) -> list[int]:
    # Floor the ideal sizes, then hand the shortfall to the largest remainders
    # (ties broken by position). Guarantees |size - m*f| < 1 for every part.
    ideal = [m * f for f in fracs]
    sizes = [int(x) for x in ideal]
    order = sorted(range(len(fracs)), key=lambda i: (sizes[i] - ideal[i], i))
    for i in order[: m - sum(sizes)]:
        sizes[i] += 1
    return sizes
