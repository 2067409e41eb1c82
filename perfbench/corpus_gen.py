"""Seeded DSL-shaped corpora: 12 labels in 5 similarity groups.

Each group owns a Zipfian word lexicon built from its own syllables and
letters. The labels of one group share that lexicon and differ only in word
frequencies, a few label-specific words and a few regular spelling changes,
so most errors stay inside a group, as in the DSL 2016 shared task. A tail
of rare characters (foreign names, symbols) pushes the distinct-character
count past the default clstm charset cap of 218.

The generator uses numpy and the standard library only; it never imports
`lident`, so the program under test receives nothing but the TSV files.
"""

from __future__ import annotations

import numpy as np

# label -> group id, the same assignment as tests/fixtures/groups.tsv.
GROUPS = {
    "bs": 1, "hr": 1, "sr": 1,
    "my": 2, "id": 2,
    "es-AR": 3, "es-ES": 3, "es-MX": 3,
    "pt-BR": 4, "pt-PT": 4,
    "fr-CA": 5, "fr-FR": 5,
}

# Per group: onsets, nuclei and codas the lexicon's syllables are built from.
_PHONOLOGY = {
    1: ("b c č ć d dž đ g h j k l lj m n nj p r s š t v z ž", "a e i o u ije je", "  n m j s t k"),
    2: ("b c d g h j k l m n ng ny p r s t w y", "a e i o u ai au", "  n ng h k t r s"),
    3: ("b c ch d f g j l ll m n ñ p qu r rr s t v z", "a e i o u á é í ó ue ie", "  n s r l d"),
    4: ("b c ç ch d f g j l lh m n nh p qu r rr s t v x z", "a e i o u ã õ á é ê ó ão ei ou", "  s r l m"),
    5: ("b c ch d f g j l m n p qu r s t v", "a e i o u é è ê à ou ai eau oi", "  s r l n t"),
}

_PUNCT_AFTER_WORD = (",", ";", ":")
LEXICON_SIZE = 3000
ZIPF_EXPONENT = 1.07
FREQ_SIGMA = 0.55          # spread of each label's log word-frequency perturbation
SPELLING_SHARE = 0.04      # share of lexicon words a label spells its own way
OWN_WORDS = 25             # words only one label of a group uses
RARE_POOL = 420            # rare characters available to the tail
RARE_PER_TEXT = 5.0        # mean rare characters per text
LANGUAGE_SEED = 2016


def _rare_pool() -> list[str]:
    """Characters none of the lexicons use: Greek, Cyrillic, Latin Extended, symbols."""
    ranges = [(0x0391, 0x03A9), (0x03B1, 0x03C9), (0x0410, 0x044F), (0x0100, 0x017F),
              (0x2190, 0x21FF), (0x0530, 0x0556), (0x05D0, 0x05EA), (0x0E01, 0x0E2E)]
    used = set("".join(p for spec in _PHONOLOGY.values() for p in spec).replace(" ", ""))
    pool = [chr(c) for lo, hi in ranges for c in range(lo, hi + 1)]
    pool = [ch for ch in pool if ch.isprintable() and ch not in used and ch.lower() not in used]
    return pool[:RARE_POOL]


def _lexicon(rng: np.random.Generator, group: int) -> list[str]:
    onsets, nuclei, codas = (spec.split(" ") for spec in _PHONOLOGY[group])
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < LEXICON_SIZE:
        syllables = 1 + min(3, int(rng.poisson(1.2)))
        word = "".join(
            rng.choice(onsets) + rng.choice(nuclei) + rng.choice(codas) for _ in range(syllables)
        )
        if word and word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _respell(rng: np.random.Generator, word: str, letters: list[str]) -> str:
    """A regular-looking variant: double, drop or swap one letter."""
    i = int(rng.integers(len(word)))
    move = int(rng.integers(3))
    if move == 0:
        return word[: i + 1] + word[i] + word[i + 1 :]
    if move == 1 and len(word) > 2:
        return word[:i] + word[i + 1 :]
    return word[:i] + str(rng.choice(letters)) + word[i + 1 :]


class _LabelModel:
    """Word distribution and spellings for one label."""

    def __init__(self, words: list[str], weights: np.ndarray) -> None:
        self.words = words
        self.cum = np.cumsum(weights / weights.sum())

    def sample_words(self, rng: np.random.Generator, k: int) -> list[str]:
        picks = np.searchsorted(self.cum, rng.random(k), side="right")
        picks = np.minimum(picks, len(self.words) - 1)
        return [self.words[i] for i in picks]


def _label_models(rng: np.random.Generator) -> dict[str, _LabelModel]:
    ranks = np.arange(1, LEXICON_SIZE + 1, dtype=np.float64)
    zipf = ranks ** -ZIPF_EXPONENT
    models: dict[str, _LabelModel] = {}
    for group in sorted(set(GROUPS.values())):
        lexicon = _lexicon(rng, group)
        letters = sorted({ch for w in lexicon for ch in w})
        for code in sorted(c for c, g in GROUPS.items() if g == group):
            weights = zipf * np.exp(FREQ_SIGMA * rng.standard_normal(LEXICON_SIZE))
            words = list(lexicon)
            for i in np.flatnonzero(rng.random(LEXICON_SIZE) < SPELLING_SHARE):
                words[i] = _respell(rng, words[i], letters)
            # Label-only words take over mid-frequency ranks from the shared lexicon.
            for i in rng.choice(np.arange(50, 600), size=OWN_WORDS, replace=False):
                words[i] = _respell(rng, _respell(rng, words[i], letters), letters)
            models[code] = _LabelModel(words, weights)
    return models


def _text(rng: np.random.Generator, model: _LabelModel, rare: list[str], rare_cum: np.ndarray) -> str:
    target = int(rng.integers(150, 251))
    words = model.sample_words(rng, 80)
    for _ in range(int(rng.poisson(RARE_PER_TEXT))):
        pos = int(rng.integers(20))  # among the words every text is long enough to keep
        ch = rare[min(int(np.searchsorted(rare_cum, rng.random())), len(rare) - 1)]
        w = words[pos]
        cut = int(rng.integers(len(w) + 1))
        words[pos] = w[:cut] + ch + w[cut:]
    out: list[str] = []
    length = 0
    capital = True
    for w in words:
        if rng.random() < 0.03:
            w = str(int(rng.integers(1, 2030)))
        if capital:
            w = w[:1].upper() + w[1:]
            capital = False
        r = rng.random()
        if r < 0.07:
            w += ". "
            capital = True
        elif r < 0.12:
            w += str(rng.choice(_PUNCT_AFTER_WORD)) + " "
        else:
            w += " "
        if length + len(w) > target:
            break
        out.append(w)
        length += len(w)
    text = "".join(out).rstrip()
    while len(text) < 150:  # a long word hit the cap early; pad with the next words
        text += " " + model.sample_words(rng, 1)[0]
    return text[:250]


def generate(seed: int, sizes: dict[str, int]) -> dict[str, list[tuple[str, str]]]:
    """`sizes` maps a split name to instances per label; returns (text, label) rows.

    Rows are interleaved by label so any prefix is balanced.
    """
    # The languages are fixed; the seed draws the texts. Every seed then has
    # the same lexicons, so table sizes and costs differ little between seeds.
    models = _label_models(np.random.default_rng(LANGUAGE_SEED))
    rng = np.random.default_rng([seed, 0x15D])
    rare = _rare_pool()
    rare_weights = np.arange(1, len(rare) + 1, dtype=np.float64) ** -0.3
    rare_cum = np.cumsum(rare_weights / rare_weights.sum())
    splits: dict[str, list[tuple[str, str]]] = {}
    for name in sorted(sizes):
        rows = []
        for _ in range(sizes[name]):
            for code in sorted(GROUPS):
                rows.append((_text(rng, models[code], rare, rare_cum), code))
        splits[name] = rows
    return splits


def write_tsv(rows: list[tuple[str, str]], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for text, code in rows:
            fh.write(f"{text}\t{code}\n")
