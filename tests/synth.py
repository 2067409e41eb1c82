"""Synthetic corpora: Markov "similar languages" and disjoint-alphabet toys."""

from __future__ import annotations

import numpy as np

from lident.corpus import Corpus, Instance, Label

MARKOV_ALPHABET = "abcdef"


def transition_table(shift: int, mix: float = 0.5) -> np.ndarray:
    """Doubly stochastic chain: a cyclic permutation blended with uniform.

    Every shift shares the uniform stationary distribution, so the languages
    have identical unigram marginals and differ only in their bigram tables.
    """
    a = len(MARKOV_ALPHABET)
    table = np.full((a, a), mix / a)
    for i in range(a):
        table[i, (i + shift) % a] += 1.0 - mix
    return table


def sample_text(rng: np.random.Generator, table: np.ndarray, length: int) -> str:
    cum = np.cumsum(table, axis=1)
    state = int(rng.integers(len(MARKOV_ALPHABET)))
    chars = [MARKOV_ALPHABET[state]]
    for r in rng.random(length - 1):
        state = int(np.searchsorted(cum[state], r))
        chars.append(MARKOV_ALPHABET[state])
    return "".join(chars)


def markov_corpora(
    n_train: int, n_test: int, length: int, seed: int
) -> tuple[Corpus, Corpus]:
    """Three languages with shared unigram marginals, distinct transitions."""
    rng = np.random.default_rng(seed)
    shifts = {"lang1": 1, "lang2": 2, "lang3": 3}
    train, test = [], []
    for code in sorted(shifts):
        table = transition_table(shifts[code])
        label = Label(code)
        for _ in range(n_train):
            train.append(Instance(sample_text(rng, table, length), label))
        for _ in range(n_test):
            test.append(Instance(sample_text(rng, table, length), label))
    return Corpus(train), Corpus(test)


DISJOINT_ALPHABETS = {"aa": "abcdefg ", "zz": "stuvwxyz "}


def disjoint_corpus(n_per_label: int, length: int, seed: int) -> Corpus:
    """Two trivially separable languages over non-overlapping letters."""
    rng = np.random.default_rng(seed)
    instances = []
    for code in sorted(DISJOINT_ALPHABETS):
        letters = list(DISJOINT_ALPHABETS[code])
        label = Label(code)
        for _ in range(n_per_label):
            instances.append(Instance("".join(rng.choice(letters) for _ in range(length)), label))
    return Corpus(instances)


WORD_LETTERS = "abcdefghijklmnopqrstuvwxyzàáâäæçèéêëìíîïñòóôöùúûüß"


def word_corpus(n_per_label: int, words_per_text: int, seed: int, labels: int = 12) -> Corpus:
    """Text shaped like DSL 2016: groups of three labels share a lexicon of
    Zipf-weighted words over the group's own letters and differ only in word
    frequencies, so most n-grams are seen under few labels, as in real text."""
    rng = np.random.default_rng(seed)
    ranks = 1.0 / np.arange(1, 301)
    instances = []
    for group in range(0, labels, 3):
        letters = list(rng.choice(list(WORD_LETTERS), 14, replace=False))
        lexicon = ["".join(rng.choice(letters, rng.integers(2, 9))) for _ in ranks]
        for code in range(group, min(group + 3, labels)):
            weights = ranks * rng.lognormal(0.0, 0.5, len(ranks))
            label = Label(f"l{code:02d}")
            for _ in range(n_per_label):
                words = rng.choice(lexicon, words_per_text, p=weights / weights.sum())
                instances.append(Instance(" ".join(words), label))
    return Corpus(instances)
