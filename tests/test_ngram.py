from __future__ import annotations

import itertools
import json
import math
import random
import re
import struct
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lident import ngram
from lident.corpus import Charset, Corpus, Instance, Label, Scores, build_charset
from lident.errors import ChecksumError, ConfigError, ModelIOError, VersionError
from lident.ngram import BOS, NgramConfig, SweepPoint
from lident.serialization import F64, U32, U64, Writer, record
from conftest import model_arrays, mutate_payload, reseal
from reference import (CharIndex, log_of_fraction, next_char_probs, ngram_reference_best,
                       ngram_reference_log_probs, ngram_reference_probs)
from synth import markov_corpora, word_corpus

L = Label
# A valid v4 table of order 2 over charset (a, b) with two labels, from the
# texts "ab" (label 0) and "aa" (label 1): histories <s> and a, each seen by
# both labels, and n-grams <s>a, aa and ab, each with an entry per label.
V4_LEVELS = [[0, 1], [1, 5, 6]]
V4_OFFSETS = [0, 2, 4, 6, 6, 8, 10, 10]
V4_COLS = [0, 1] * 5
V4_COUNTS = [1, 1, 0, 1, 1, 0]


def corpus_of(*texts_and_codes):
    return Corpus(Instance(t, L(c)) for t, c in texts_and_codes)


def summed_out(grams: dict, keep: slice) -> Counter:
    """Counts summed over the n-gram positions that `keep` drops."""
    out: Counter = Counter()
    for gram, count in grams.items():
        out[gram[keep]] += count
    return out


def load_mutated(path: Path, blob: bytes, data):
    """Load `blob` with a few payload bytes changed: the model, or None on a ModelIOError."""
    path.write_bytes(reseal(blob, mutate_payload(data, blob[8:-4], header=64)))
    try:
        model = ngram.load(path)
    except ModelIOError:
        return None
    model.to_json_dict()
    model.classify("ab")
    return model


def random_corpus(rng: random.Random, alphabet: str, codes: list[str], rows: int, longest: int):
    return corpus_of(*(
        ("".join(rng.choice(alphabet) for _ in range(rng.randint(1, longest))), rng.choice(codes))
        for _ in range(rows)
    ))


class TestConfig:
    def test_bounds(self):
        with pytest.raises(ConfigError):
            NgramConfig(0)
        with pytest.raises(ConfigError):
            NgramConfig(2, alpha=0.0)
        NgramConfig(1)  # order 1 has empty histories and is legal

    def test_order_limit(self):
        # a mistyped order used to pass and then ask for billions of symbols
        NgramConfig(NgramConfig.MAX_N)
        for n in (NgramConfig.MAX_N + 1, 7_000_000):
            with pytest.raises(ConfigError, match=f"1..{NgramConfig.MAX_N}"):
                NgramConfig(n)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        # inf used to pass and turn every label score into NaN
        with pytest.raises(ConfigError, match="alpha"):
            NgramConfig(2, alpha=alpha)

    def test_smoothing_mass_must_be_finite(self):
        # alpha * V overflows to inf: used to end in a bare "math domain error"
        corpus = corpus_of(("ab", "L1"), ("ba", "L2"))
        with pytest.raises(ConfigError, match="alpha"):
            ngram.train(corpus, NgramConfig(2, alpha=1e308), build_charset(corpus))

    @pytest.mark.parametrize("n", [7.5, "3", 3.0, None, True])
    def test_non_integer_order_rejected(self, n):
        # 7.5 used to pass and end in a bare TypeError from `train`, "3" at once; True trained a unigram model
        with pytest.raises(ConfigError, match=f"order.*{n!r}"):
            NgramConfig(n)

    @pytest.mark.parametrize("alpha", ["0.1", None, [0.1], 1j, True, Fraction(1, 10)])
    def test_non_numeric_alpha_rejected(self, alpha):
        # "0.1" used to end in a bare TypeError from the range check; True smoothed with 1
        with pytest.raises(ConfigError, match=f"alpha.*{re.escape(repr(alpha))}"):
            NgramConfig(3, alpha=alpha)

    def test_integer_and_numpy_alpha_accepted(self):
        for alpha in (1, np.float64(0.5), np.int32(2), np.float32(0.25)):
            assert NgramConfig(3, alpha=alpha).alpha == alpha


class TestTrain:
    def test_bigram_counts_single_text(self):
        corpus = corpus_of(("ab", "L1"))
        model = ngram.train(corpus, NgramConfig(2), build_charset(corpus))
        # charset is (a, b) so a=0, b=1; each key is (history..., next char) and
        # histories hold the boundary marker -1
        assert model.grams(L("L1")) == {(-1, 0): 1, (0, 1): 1}
        # history totals of 1 for <s> and for "a": P(b | <s>) = 0.1 / (1 + 0.1 * 3)
        assert model.log_prob("b", L("L1")) == pytest.approx(math.log(0.1 / 1.3), rel=1e-12)
        assert model.log_prob("aa", L("L1")) == pytest.approx(
            math.log(1.1 / 1.3) + math.log(0.1 / 1.3), rel=1e-12)

    def test_bigram_counts_two_texts(self):
        corpus = corpus_of(("aa", "L1"), ("ab", "L1"))
        model = ngram.train(corpus, NgramConfig(2), build_charset(corpus))
        assert model.grams(L("L1")) == {(-1, 0): 2, (0, 0): 1, (0, 1): 1}
        # history totals of 2 for <s> and for "a"
        assert model.log_prob("b", L("L1")) == pytest.approx(math.log(0.1 / 2.3), rel=1e-12)
        assert model.log_prob("ab", L("L1")) == pytest.approx(
            math.log(2.1 / 2.3) + math.log(1.1 / 2.3), rel=1e-12)

    def test_count_conservation(self):
        corpus = corpus_of(("abcab", "x"), ("cab", "x"), ("bbb", "y"))
        for n in (1, 2, 3, 4):
            model = ngram.train(corpus, NgramConfig(n), build_charset(corpus))
            chars = sum(len(i.text) for i in corpus)
            tables = [model.grams(label) for label in model.labels]
            assert sum(sum(grams.values()) for grams in tables) == chars
            assert all(len(gram) == n for grams in tables for gram in grams)
            # the count and total matrices hold exactly the entries the view shows
            assert model.table_entries() == sum(map(len, tables))
            assert model.history_entries() == sum(len(summed_out(g, slice(None, -1))) for g in tables)

    def test_summing_out_leftmost_symbol_gives_lower_order(self):
        corpus = random_corpus(random.Random(11), "abcd", ["x", "y", "z"], 40, 25)
        charset = build_charset(corpus)
        models = {n: ngram.train(corpus, NgramConfig(n), charset) for n in range(1, 7)}
        for label in corpus.labels:
            for n in range(2, 7):
                derived = summed_out(models[n].grams(label), slice(1, None))
                assert derived == models[n - 1].grams(label)
            # order 1 has the empty history, whose total is every character of the label
            chars = sum(len(i.text) for i in corpus if i.label == label)
            assert summed_out(models[1].grams(label), slice(None, -1)) == {(): chars}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            ngram.train(Corpus([]), NgramConfig(2), Charset(("a",)))


class TestLogProb:
    def test_hand_computed_seen(self):
        corpus = corpus_of(("ab", "L1"))
        model = ngram.train(corpus, NgramConfig(2, 0.1), build_charset(corpus))
        expected = 2 * math.log(1.1 / 1.3)
        assert model.log_prob("ab", L("L1")) == pytest.approx(expected, abs=1e-12)

    def test_hand_computed_unknown_chars(self):
        corpus = corpus_of(("ab", "L1"))
        model = ngram.train(corpus, NgramConfig(2, 0.1), build_charset(corpus))
        # both chars map to the unknown slot; first history is the seen
        # boundary (total 1), second is the unseen unknown-slot history
        expected = math.log(0.1 / 1.3) + math.log(0.1 / 0.3)
        assert model.log_prob("zz", L("L1")) == pytest.approx(expected, abs=1e-12)

    def test_huge_alpha_approaches_uniform(self):
        corpus = corpus_of(("ab", "L1"))
        charset = build_charset(corpus)
        model = ngram.train(corpus, NgramConfig(2, alpha=1e9), charset)
        per_char = model.log_prob("ab", L("L1")) / 2
        assert per_char == pytest.approx(math.log(1 / charset.size), rel=1e-6)

    def test_empty_text_scores_zero(self):
        corpus = corpus_of(("ab", "L1"))
        model = ngram.train(corpus, NgramConfig(2), build_charset(corpus))
        assert model.log_prob("", L("L1")) == 0.0

    def test_unknown_label_rejected(self):
        corpus = corpus_of(("ab", "L1"))
        model = ngram.train(corpus, NgramConfig(2), build_charset(corpus))
        with pytest.raises(KeyError):
            model.log_prob("ab", L("nope"))


class TestClassify:
    def test_separable(self):
        corpus = corpus_of(("aaaa", "L1"), ("bbbb", "L2"))
        model = ngram.train(corpus, NgramConfig(2), build_charset(corpus))
        assert model.classify("aaa").best == L("L1")
        assert model.classify("bbb").best == L("L2")

    def test_empty_text_ties_break_to_smallest_code(self):
        corpus = corpus_of(("aaaa", "zz"), ("bbbb", "aa"))
        model = ngram.train(corpus, NgramConfig(2), build_charset(corpus))
        scores = model.classify("")
        assert all(v == 0.0 for v in scores.per_label.values())
        assert scores.best == L("aa")

    def test_scores_tie_break_contract(self):
        scores = Scores({L("b"): -1.0, L("a"): -1.0, L("c"): -2.0})
        assert scores.best == L("a")

    @given(st.dictionaries(st.text(st.sampled_from("abcXY\u00e9"), min_size=1, max_size=3),
                           st.sampled_from([-2.0, -1.0, -0.0, 0.0]) | st.floats(max_value=0, allow_nan=False,
                                                                                 allow_infinity=False),
                           min_size=1, max_size=8))
    def test_best_is_the_first_maximum_in_code_order(self, scores):
        # the rule it replaced, over few distinct values so that ties are common
        per_label = {L(code): value for code, value in scores.items()}
        expected = max(sorted(per_label), key=lambda label: per_label[label])
        assert Scores(per_label).best.code == expected.code

    def test_monotone_evidence(self):
        corpus = corpus_of(("ababab", "L1"), ("cdcdcd", "L2"))
        model = ngram.train(corpus, NgramConfig(2, 0.1), build_charset(corpus))
        margins = []
        for text in ("ab", "abab", "ababab", "abababab"):
            scores = model.classify(text)
            others = max(v for l, v in scores.per_label.items() if l != L("L1"))
            margins.append(scores.per_label[L("L1")] - others)
        assert all(b > a for a, b in zip(margins, margins[1:]))

    def test_argmax_invariant_under_count_scaling(self):
        # Count scaling with fixed alpha dilutes the smoothing mass, so the
        # per-character terms of rarely-seen histories drift by up to ln(k)
        # and near-tie inputs can legitimately flip (confirmed against the
        # exact-rational scorer; see the randomized-oracle test). Invariance
        # is therefore asserted where the drift vanishes: histories observed
        # many times, where (k*c + a)/(k*t + a*V) ~ c/t for every k.
        base = [("ababab", "L1"), ("babab", "L1"), ("cdcdcd", "L2"), ("dcdcd", "L2")] * 8
        corpus = corpus_of(*base)
        duplicated = corpus_of(*(base * 3))
        charset = build_charset(corpus)
        m1 = ngram.train(corpus, NgramConfig(2, 0.1), charset)
        m3 = ngram.train(duplicated, NgramConfig(2, 0.1), charset)
        rng = random.Random(5)
        for _ in range(100):
            pattern = rng.choice(["ab", "ba", "cd", "dc"])
            text = (pattern * 10)[: rng.randint(2, 20)]
            assert m1.classify(text).best == m3.classify(text).best


def hex_scores(scores: Scores) -> tuple[dict, str]:
    return {label.code: value.hex() for label, value in scores.per_label.items()}, scores.best.code


class TestClassifyMany:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**16), words=st.booleans(), labels=st.integers(1, 4),
           budget=st.one_of(st.just(ngram._BATCH_CHARS), st.integers(1, 60)))
    def test_same_bits_as_one_text_at_a_time(self, n, seed, words, labels, budget):
        rng = random.Random(seed)
        codes = [f"l{i}" for i in range(labels)]
        corpus = (word_corpus(2, 10, seed=seed, labels=labels) if words
                  else random_corpus(rng, "abcdefgh", codes, 30, 30))
        charset = build_charset(corpus)
        model = ngram.train(corpus, NgramConfig(n, rng.choice([0.01, 0.1, 1.0])), charset)
        # empty texts, texts of unseen characters only, seen and random ones,
        # in an order that puts the empty ones first, last and between others
        texts = ["", rng.choice(corpus.instances).text, "\u2603", "\u2603" * 9, "", *(
            "".join(rng.choice(charset.chars + ("\u2603",)) for _ in range(rng.randint(0, 40)))
            for _ in range(rng.randint(0, 12))), ""]
        rng.shuffle(texts)
        # a budget of a few characters splits the texts over many batches
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ngram, "_BATCH_CHARS", budget)
            batched = model.classify_many(texts)
        assert list(map(hex_scores, batched)) == [hex_scores(model.classify(text)) for text in texts]

    def test_one_label_column_summed_as_one_text_is(self):
        # a lone label's column is summed pairwise, over the same slice
        corpus = word_corpus(6, 40, seed=3, labels=1)
        model = ngram.train(corpus, NgramConfig(5), build_charset(corpus))
        texts = [inst.text * k for k, inst in enumerate(corpus.instances, start=1)]
        assert list(map(hex_scores, model.classify_many(texts))) == [hex_scores(model.classify(t)) for t in texts]

    def test_no_texts(self, toy_corpus):
        model = ngram.train(toy_corpus, NgramConfig(3), build_charset(toy_corpus))
        assert model.classify_many([]) == []
        assert model.classify_many(iter(())) == []
        # texts from any iterable, such as a generator
        assert model.classify_many(inst.text for inst in toy_corpus) == [
            model.classify(inst.text) for inst in toy_corpus]

    def test_batches_stay_within_the_budget(self, monkeypatch):
        corpus = word_corpus(20, 30, seed=7)
        model = ngram.train(corpus, NgramConfig(7), build_charset(corpus))
        texts = [inst.text for inst in corpus] + ["x" * 5000]
        sizes = []
        original = ngram._layout

        def recording(*args):
            digits = original(*args)
            sizes.append(len(digits))
            return digits

        # each walk lays its pieces out once
        monkeypatch.setattr(ngram, "_layout", recording)
        for budget in (1000, 40):
            sizes.clear()
            monkeypatch.setattr(ngram, "_BATCH_CHARS", budget)
            model.classify_many(texts)
            # every walk fits the budget, the text longer than it too: it used to be
            # one walk of 5006 windows. A text is now pieces of at most budget - 12
            # characters, each after 6 markers, and each but the first after the 6
            # characters before it.
            pieces = [max(-(-len(text) // (budget - 12)), 1) for text in texts]
            assert max(sizes) <= budget
            assert sum(sizes) == sum(len(text) + 12 * k - 6 for text, k in zip(texts, pieces))

    def test_memory_bounded_by_the_budget(self):
        corpus = word_corpus(20, 30, seed=7)
        model = ngram.train(corpus, NgramConfig(7), build_charset(corpus))
        texts, size = [], 0
        for inst in itertools.cycle(corpus.instances):
            if size + len(inst.text) + 6 > ngram._BATCH_CHARS:
                break
            texts.append(inst.text)
            size += len(inst.text) + 6

        def peak(texts):
            tracemalloc.start()
            try:
                out = model.classify_many(texts)
                kept, most = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(out) == len(texts)
            return most, kept

        one, _ = peak(texts)
        eight, kept = peak(texts * 8)
        # what the call held at its peak beyond the scores it returns
        assert eight - kept <= 1.5 * one

    def test_one_long_text_stays_within_the_budget(self, monkeypatch):
        # one text longer than the budget used to be scored in one batch, so its
        # [T, L] terms grew with it: 828 MiB for a 4 M-character line
        corpus = word_corpus(20, 30, seed=7)
        model = ngram.train(corpus, NgramConfig(7), build_charset(corpus))
        lines = [inst.text for inst in corpus.instances] * 8
        text = "".join(lines)
        one_batch = hex_scores(model.classify(text))
        monkeypatch.setattr(ngram, "_BATCH_CHARS", 1000)
        assert len(text) > 40 * ngram._BATCH_CHARS

        def peak(texts):
            tracemalloc.start()
            try:
                out = model.classify_many(texts)
                most = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return most, out

        as_lines, _ = peak(lines)
        as_one, (scores,) = peak([text])
        assert as_one <= 1.5 * as_lines
        assert hex_scores(scores) == one_batch


class TestSmoothedNormalization:
    def test_distributions_sum_to_one(self):
        corpus = corpus_of(("abcab", "L1"), ("bca", "L2"))
        charset = build_charset(corpus)
        for n in (1, 2, 3):
            model = ngram.train(corpus, NgramConfig(n, 0.1), charset)
            histories = set()
            for label in model.labels:
                histories.update(gram[:-1] for gram in model.grams(label))
            histories.add(tuple([charset.size - 1] * (n - 1)))  # unseen history
            for history in histories:
                for probs in next_char_probs(model, history).values():
                    assert sum(probs) == pytest.approx(1.0, abs=1e-9)


class TestOracleEquivalence:
    def test_randomized_corpora_match_exact_rational_scorer(self):
        rng = random.Random(20160901)
        for trial in range(10):
            alphabet = "abcdefghij"[: rng.randint(2, 10)]
            codes = [f"l{i}" for i in range(rng.randint(2, 4))]
            rows = []
            for _ in range(rng.randint(len(codes), 50)):
                text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30)))
                rows.append((text, rng.choice(codes)))
            corpus = corpus_of(*rows)
            charset = build_charset(corpus)
            n = rng.randint(1, 4)
            model = ngram.train(corpus, NgramConfig(n, 0.1), charset)
            pairs = [(i.text, i.label.code) for i in corpus]
            texts = ["".join(rng.choice(alphabet + "zz") for _ in range(rng.randint(0, 30))) for _ in range(5)]
            # one text at a time, and all of them in one batch
            for text, batched in zip(texts, model.classify_many(texts), strict=True):
                exact = ngram_reference_probs(pairs, CharIndex(charset.chars), n, Fraction(1, 10), text)
                for scores in (model.classify(text), batched):
                    assert scores.best.code == ngram_reference_best(exact)
                    for code, frac in exact.items():
                        assert scores.per_label[L(code)] == pytest.approx(
                            log_of_fraction(frac), rel=1e-9, abs=1e-9
                        )


class TestReferenceScorer:
    def test_matches_dict_per_label_scorer(self):
        # the scorer the sorted-array table replaced, kept in tests/reference.py
        rng = random.Random(1207)
        for n in range(1, 9):
            for _ in range(3):
                alphabet = "abcdefgh"[: rng.randint(2, 8)]
                codes = [f"l{i}" for i in range(rng.randint(1, 4))]
                corpus = random_corpus(rng, alphabet, codes, rng.randint(2, 30), 30)
                charset = build_charset(corpus)
                alpha = rng.choice([0.01, 0.1, 1.0])
                model = ngram.train(corpus, NgramConfig(n, alpha), charset)
                seen = rng.choice(corpus.instances).text
                texts = ["", alphabet[0], "z", seen, seen[::-1] + "q", *(
                    "".join(rng.choice(alphabet + "xyz") for _ in range(rng.randint(1, 40)))
                    for _ in range(4)
                )]
                for text in texts:
                    expected = ngram_reference_log_probs(corpus, CharIndex(charset.chars), n, alpha, text)
                    scores = model.classify(text)
                    assert scores.per_label == pytest.approx(expected, rel=1e-12, abs=0)
                    for label in model.labels:
                        assert model.log_prob(text, label) == scores.per_label[label]

    def test_bitwise_equal_to_dict_per_label_scorer(self, monkeypatch):
        # `==`, not approx: the log terms are built once, but each score must
        # keep the bits of the left-to-right math.log loop, also where a budget
        # of 8 windows scores a text in pieces of max(8 - 2(n - 1), 1) characters
        rng = random.Random(6)
        mismatches, cases = [], 0
        for n in range(1, 9):
            codes = [f"l{i}" for i in range(rng.randint(2, 4))]
            for corpus in (word_corpus(4, 12, seed=n),
                           random_corpus(rng, "abcdefgh"[: rng.randint(2, 8)], codes, 30, 30)):
                charset = build_charset(corpus)
                alpha = rng.choice([0.01, 0.1, 1.0])
                model = ngram.train(corpus, NgramConfig(n, alpha), charset)
                seen = rng.choice(corpus.instances).text
                texts = ["", charset.chars[0], charset.chars[-1], "\u2603", seen, seen[::-1] + "\u2603",
                         *("".join(rng.choice(charset.chars + ("\u2603",)) for _ in range(rng.randint(1, 40)))
                           for _ in range(3))]
                if n in (1, 8):
                    # one piece, one piece and a character, and three pieces; at n = 1 a
                    # piece continues its text with no characters before it
                    size = max(8 - 2 * (n - 1), 1)
                    texts += [(seen * 24)[:k] for k in (size, size + 1, 3 * size)]
                with monkeypatch.context() as patch:
                    patch.setattr(ngram, "_BATCH_CHARS", 8)
                    chunked = model.classify_many(texts)
                for text, in_chunks in zip(texts, chunked, strict=True):
                    expected = ngram_reference_log_probs(corpus, CharIndex(charset.chars), n, alpha, text)
                    cases += 1
                    for scores in (model.classify(text).per_label, in_chunks.per_label):
                        mismatches += [(n, text, label.code, scores[label].hex(), expected[label].hex())
                                       for label in model.labels if scores[label] != expected[label]]
        assert cases == 156 and not mismatches

    def test_one_label_bitwise_equal_to_dict_per_label_scorer(self):
        # A lone label's [T, 1] column used to be summed pairwise, off the
        # left-to-right loop in the last bits for most texts.
        rng = random.Random(40)
        corpus = random_corpus(rng, "abcdefgh", ["only"], 40, 60)
        charset = build_charset(corpus)
        mismatches = []
        for n in (1, 2, 3, 5, 7):
            model = ngram.train(corpus, NgramConfig(n, 0.1), charset)
            for _ in range(30):
                text = "".join(rng.choice("abcdefghz") for _ in range(rng.randint(1, 200)))
                expected = ngram_reference_log_probs(corpus, CharIndex(charset.chars), n, 0.1, text)
                got = model.classify(text).per_label
                mismatches += [(n, text, got[label].hex(), expected[label].hex())
                               for label in model.labels if got[label] != expected[label]]
        assert not mismatches


class TestChunkedLevels:
    def test_width_rule(self):
        # the benchmark's seed-1 corpus: V = 510, 235,802 positions, 12 labels, so
        # the first level's chunk takes up to 7 symbols and a later one up to 5
        assert 511**7 < 2**63 <= 511**8
        assert 235_802 * 511**5 < 2**63 <= 235_802 * 511**6
        assert [ngram._widths(n, 235_802, 511, 12) for n in (1, 2, 4, 5, 7, 8, 9, 10)] == [
            (1,), (1, 1), (3, 1), (4, 1), (6, 1), (7, 1), (4, 4, 1), (5, 4, 1)]
        # at most n - 1 symbols however few positions there are
        assert ngram._widths(64, 1, 2, 1) == (32, 31, 1)
        # past the first level only w = 1 fits, but the first still takes 6 symbols
        most = (2**63 - 1) // (511 * 12)
        assert ngram._widths(7, most, 511, 12) == (6, 1)
        assert ngram._widths(3, most // 511, 511, 12) == (2, 1)
        # nothing fits: the keys of one symbol and a label overflow int64
        with pytest.raises(ValueError, match="overflow int64"):
            ngram._widths(7, most + 1, 511, 12)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**16), words=st.booleans())
    def test_same_scores_as_width_one_levels(self, n, seed, words):
        rng = random.Random(seed)
        codes = [f"l{i}" for i in range(rng.randint(2, 4))]
        corpus = word_corpus(2, 10, seed=seed) if words else random_corpus(rng, "abcdefgh", codes, 30, 30)
        charset = build_charset(corpus)
        model = ngram.train(corpus, NgramConfig(n), charset)
        # any other split of the history, and one symbol a level, as before chunks
        bounds = [0, *sorted(rng.sample(range(1, n - 1), rng.randint(0, max(n - 2, 0)))), n - 1]
        split = tuple(b - a for a, b in zip(bounds, bounds[1:]) if b > a) + (1,)
        twins = []
        for widths in (split, (1,) * n):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ngram, "_widths", lambda *_: widths)
                twins.append(ngram.train(corpus, NgramConfig(n), charset))
            assert twins[-1].widths == widths and len(twins[-1].levels) == len(widths)
        assert model.widths == ((n - 1, 1) if n > 1 else (1,))
        texts = ["", rng.choice(corpus.instances).text, "\u2603",
                 *("".join(rng.choice(charset.chars + ("\u2603",)) for _ in range(rng.randint(1, 40)))
                   for _ in range(3))]
        for twin in twins:
            # chunks change only the levels above the histories
            for a, b in zip(model_arrays(model)[-4:], model_arrays(twin)[-4:], strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert np.array_equal(model.levels[-1], twin.levels[-1])
            for label in model.labels:
                assert model.grams(label) == twin.grams(label)
            for text in texts:
                scores, again = model.classify(text).per_label, twin.classify(text).per_label
                assert {k: v.hex() for k, v in scores.items()} == {k: v.hex() for k, v in again.items()}

    def test_file_of_the_earlier_split_loads_and_scores_the_same(self, tmp_path, monkeypatch):
        # a 7-gram saved when `_widths` bounded the first level as the others, which
        # split the benchmark's 6 history symbols 3 + 3
        corpus = word_corpus(20, 30, seed=7)
        charset = build_charset(corpus)
        path, again = tmp_path / "split.lidn", tmp_path / "again.lidn"
        with monkeypatch.context() as patch:
            patch.setattr(ngram, "_widths", lambda *_: (3, 3, 1))
            ngram.train(corpus, NgramConfig(7), charset).save(path)
        model = ngram.train(corpus, NgramConfig(7), charset)
        loaded = ngram.load(path)
        assert model.widths == (6, 1) and loaded.widths == (3, 3, 1) and len(loaded.levels) == 3
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()
        seen = corpus.instances[3].text
        # seen text, unseen histories (the text reversed) and unseen characters
        texts = [seen, seen[::-1], "\u2603" + seen[:25] + "\u2603\u2604" + seen[25:]]
        for got, expected in zip(loaded.classify_many(texts), model.classify_many(texts), strict=True):
            assert {k: v.hex() for k, v in got.per_label.items()} == \
                {k: v.hex() for k, v in expected.per_label.items()}


class TestLevelSorts:
    def test_unique_is_np_unique(self):
        rng = np.random.default_rng(28)
        for size in (1, 2, 3, 7, 8, 9, 2**12 - 1, 2**12, 2**12 + 1):
            wider = set()
            for bits in range(64):
                # a third as many distinct keys as keys, one of them exactly `bits` wide
                keys = rng.choice(rng.integers(0, 2**bits - 1, max(size // 3, 1), np.int64, endpoint=True), size)
                keys[rng.integers(size)] = 2**bits - 1
                expected, expected_inverse = np.unique(keys, return_inverse=True)
                sort = keys.copy()
                distinct, inverse = ngram._unique(sort)
                assert np.array_equal(distinct, expected) and np.array_equal(inverse, expected_inverse)
                assert distinct.dtype == np.int64 and inverse.dtype == np.int32
                assert np.array_equal(sort, np.sort(keys))  # sorted in place
                # past 63 bits, key and position go in more than one part
                wider.add(bits + (size - 1).bit_length() > 63)
            assert wider == ({False, True} if size > 1 else {False})

    def test_inverse_is_int64_from_int32_rows(self, monkeypatch):
        monkeypatch.setattr(ngram, "_INT32_ROWS", 8)
        for size, dtype in ((7, np.int32), (8, np.int64), (9, np.int64)):
            keys = np.arange(size, dtype=np.int64)[::-1] * 2**40
            distinct, inverse = ngram._unique(keys.copy())
            assert inverse.dtype == dtype and np.array_equal(distinct[inverse], keys)

    def test_keys_too_wide_for_one_sort_train_exactly(self, monkeypatch):
        # a charset of 1,647 and 2,400 positions give widths 4, 4, 1: a level-2 key (a
        # level-1 row and 4 digits) takes 54 bits, too many to go beside 12 position bits
        rng = random.Random(9)
        alphabet = [chr(0x4E00 + i) for i in range(3000)]
        corpus = corpus_of(*(("".join(rng.choice(alphabet) for _ in range(60)), f"l{i % 3}") for i in range(40)))
        charset = build_charset(corpus)
        wide = []
        unique = ngram._unique

        def spy(keys):
            wide.append(int(keys.max()).bit_length() + (len(keys) - 1).bit_length() > 63)
            return unique(keys)

        monkeypatch.setattr(ngram, "_unique", spy)
        model = ngram.train(corpus, NgramConfig(9), charset)
        assert model.widths == (4, 4, 1) and any(wide)
        pairs = [(inst.text, inst.label.code) for inst in corpus]
        seen = corpus.instances[5].text
        for text in (seen, seen[:30] + "z" + seen[30:], "".join(rng.choice(alphabet) for _ in range(20))):
            exact = ngram_reference_probs(pairs, CharIndex(charset.chars), 9, Fraction(1, 10), text)
            scores = model.classify(text)
            assert scores.best.code == ngram_reference_best(exact)
            for code, frac in exact.items():
                assert scores.per_label[L(code)] == pytest.approx(log_of_fraction(frac), rel=1e-9, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**16))
    def test_int32_and_int64_rows_build_the_same_table(self, n, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng, "abcdefgh"[: rng.randint(1, 8)], ["l0", "l1", "l2"], rng.randint(1, 30), 40)
        charset = build_charset(corpus)
        models = [ngram.train(corpus, NgramConfig(n), charset)]
        with pytest.MonkeyPatch.context() as patch:
            # no level is below the bound, so every inverse is int64
            patch.setattr(ngram, "_INT32_ROWS", 0)
            assert ngram._unique(np.zeros(3, np.int64))[1].dtype == np.int64
            models.append(ngram.train(corpus, NgramConfig(n), charset))
        narrow, wide = models
        assert narrow.widths == wide.widths
        for a, b in zip(model_arrays(narrow), model_arrays(wide), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestTableSize:
    def test_arrays_hold_only_seen_cells(self):
        # 12 labels, as in DSL 2016; dense [rows, L] count and total matrices
        # came to ~200 bytes per distinct n-gram on this text
        corpus = word_corpus(20, 30, seed=7)
        model = ngram.train(corpus, NgramConfig(7), build_charset(corpus))
        grams = len(model.levels[-1]) - 1
        arrays = model_arrays(model)
        assert len(model.labels) == 12
        # 43 with levels of 6 and 1 symbols and the narrowest integer types
        assert sum(a.nbytes for a in arrays) == model.nbytes() <= 48 * grams
        assert max(a.size for a in arrays) < grams * len(model.labels)


class TestSweep:
    def test_degenerate_single_order(self, toy_corpus):
        points = ngram.sweep(toy_corpus, toy_corpus, 2, 2)
        assert len(points) == 1 and points[0].n == 2

    def test_invalid_range(self, toy_corpus):
        with pytest.raises(ConfigError):
            ngram.sweep(toy_corpus, toy_corpus, 3, 2)
        with pytest.raises(ConfigError):
            ngram.sweep(toy_corpus, toy_corpus, 0, 2)

    @pytest.mark.parametrize("n_min, n_max", [(1.5, 3), (1, 2.5), ("1", 3), (True, 3), (1, True)])
    def test_non_integer_range_rejected(self, toy_corpus, n_min, n_max):
        # each used to end in a bare TypeError, except the bools, which swept as 1
        bad = n_min if type(n_min) is not int else n_max
        with pytest.raises(ConfigError, match=re.escape(repr(bad))):
            ngram.sweep(toy_corpus, toy_corpus, n_min, n_max)

    def test_empty_dev_corpus_rejected_before_training(self, toy_corpus, monkeypatch):
        # used to train the n-max model before failing on "evaluation corpus is empty"
        trained = []
        monkeypatch.setattr(ngram, "train", lambda *args: trained.append(args))
        with pytest.raises(ConfigError, match="dev corpus is empty"):
            ngram.sweep(toy_corpus, Corpus([]), 1, 3)
        assert not trained

    def test_unseen_dev_label_rejected_before_training(self, toy_corpus, monkeypatch):
        # a dev label the training corpus lacks used to be scored as an error at every order
        trained = []
        monkeypatch.setattr(ngram, "train", lambda *args: trained.append(args))
        dev = Corpus([Instance("hello there", Label("en")), *toy_corpus.instances])
        with pytest.raises(ConfigError, match="dev label 'en' is not in the training corpus"):
            ngram.sweep(toy_corpus, dev, 1, 3)
        assert not trained

    def test_accuracy_of_an_empty_corpus_rejected(self, toy_corpus):
        model = ngram.train(toy_corpus, NgramConfig(2), build_charset(toy_corpus))
        with pytest.raises(ConfigError, match="evaluation corpus is empty"):
            ngram.accuracy(model, Corpus([]))

    def test_bool_alpha_rejected(self, toy_corpus):
        # used to sweep with alpha 1
        with pytest.raises(ConfigError, match="alpha.*True"):
            ngram.sweep(toy_corpus, toy_corpus, 1, 2, alpha=True)

    def test_table_growth_reported(self, toy_corpus):
        points = ngram.sweep(toy_corpus, toy_corpus, 1, 3)
        entries = [p.table_entries for p in points]
        assert entries == sorted(entries)
        # the exact size of each order's arrays, as a fresh train of that order holds them
        charset = build_charset(toy_corpus)
        for p in points:
            model = ngram.train(toy_corpus, NgramConfig(p.n), charset)
            assert p.table_bytes == model.nbytes() == sum(a.nbytes for a in model_arrays(model))
        # plain ints, as JSON reports need
        assert {type(p.table_entries) for p in points} | {type(p.table_bytes) for p in points} == {int}

    def test_one_count_pass_matches_per_order_retrain(self, monkeypatch):
        def retrain_each_order(train_corpus, dev_corpus, n_min, n_max, alpha, charset):
            """The per-order retrain that the one-pass sweep replaced."""
            points = []
            for n in range(n_min, n_max + 1):
                model = ngram.train(train_corpus, NgramConfig(n, alpha), charset)
                points.append(SweepPoint(n, ngram.accuracy(model, dev_corpus),
                                         model.table_entries(), model.nbytes()))
            return points

        original = ngram.train
        calls = []

        def counting_train(*args):
            calls.append(args)
            return original(*args)

        rng = random.Random(4242)
        for _ in range(8):
            alphabet = "abcdefgh"[: rng.randint(2, 8)]
            codes = [f"l{i}" for i in range(rng.randint(2, 4))]
            train_corpus = random_corpus(rng, alphabet, codes, rng.randint(4, 40), 30)
            # dev labels from the training corpus, which a small one may not hold all of
            trained = [label.code for label in train_corpus.labels]
            dev_corpus = random_corpus(rng, alphabet + "q", trained, rng.randint(1, 20), 30)
            charset = build_charset(train_corpus)
            n_min = rng.randint(1, 4)
            n_max = n_min + rng.randint(0, 4)
            alpha = rng.choice([0.01, 0.1, 1.0])
            expected = retrain_each_order(train_corpus, dev_corpus, n_min, n_max, alpha, charset)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(ngram, "train", counting_train)
                points = ngram.sweep(train_corpus, dev_corpus, n_min, n_max, alpha, charset)
            assert points == expected
            assert len(calls) == 1

    def test_longer_orders_beat_unigrams_on_similar_languages(self):
        # languages built to share unigram marginals exactly, so only
        # transition context separates them
        train_corpus, dev_corpus = markov_corpora(n_train=150, n_test=40, length=120, seed=99)
        points = ngram.sweep(train_corpus, dev_corpus, 1, 4, alpha=0.1)
        assert points[3].accuracy >= points[0].accuracy
        assert points[3].accuracy > 0.9
        assert points[0].accuracy < 0.6


class TestSaveLoad:
    def _model(self):
        corpus = corpus_of(("abcabc", "L1"), ("cbacba", "L2"), ("aabbcc", "L1"))
        return ngram.train(corpus, NgramConfig(3, 0.1), build_charset(corpus))

    def test_round_trip_scores_agree(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.lidn"
        model.save(path)
        again = ngram.load(path)
        rng = random.Random(9)
        for _ in range(100):
            text = "".join(rng.choice("abcz") for _ in range(rng.randint(0, 25)))
            assert model.classify(text).per_label == again.classify(text).per_label

    def test_byte_identical_across_retrains(self, tmp_path):
        corpus = corpus_of(("abcabc", "L1"), ("cbacba", "L2"))
        charset = build_charset(corpus)
        p1, p2 = tmp_path / "a.lidn", tmp_path / "b.lidn"
        ngram.train(corpus, NgramConfig(2), charset).save(p1)
        ngram.train(corpus, NgramConfig(2), charset).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "m.lidn"
        self._model().save(path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            ngram.load(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "m.lidn"
        self._model().save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(ModelIOError):
            ngram.load(path)

    def test_unknown_version_names_supported(self, tmp_path):
        # v1-v3 files were written before v4 and no longer load; re-save one
        # with a release that still reads it
        path = tmp_path / "m.lidn"
        self._model().save(path)
        blob = bytearray(path.read_bytes())
        for version in (0, 1, 2, 3, 5):
            blob[4:8] = version.to_bytes(4, "little")
            path.write_bytes(bytes(blob))
            with pytest.raises(VersionError, match="supported versions: 4$"):
                ngram.load(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "m.lidn"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ModelIOError, match="magic"):
            ngram.load(path)

    def _payload_with_label(self, tmp_path, raw: bytes):
        """The saved model's file with its first label code replaced by `raw`."""
        path = tmp_path / "m.lidn"
        self._model().save(path)
        blob = path.read_bytes()
        payload = blob[8:-4]
        code = b"L1"
        at = payload.index(struct.pack("<H", len(code)) + code)
        payload = payload[:at] + struct.pack("<H", len(raw)) + raw + payload[at + 2 + len(code):]
        path.write_bytes(reseal(blob, payload))
        return path

    def test_underflowing_alpha_with_valid_crc_is_model_error(self, tmp_path):
        # a miss term that rounds to 0 used to end in numpy's divide-by-zero warning
        path = tmp_path / "m.lidn"
        self._model().save(path)
        blob = path.read_bytes()
        path.write_bytes(reseal(blob, blob[8:12] + struct.pack("<d", 5e-324) + blob[20:-4]))
        with pytest.raises(ModelIOError, match="alpha = 5e-324"):
            ngram.load(path)

    @pytest.mark.parametrize("raw", [b"\xff\xfe", b"L 1", b"", b"L2"])
    def test_bad_label_with_valid_crc_is_model_error(self, tmp_path, raw):
        # non-UTF-8 used to raise UnicodeDecodeError and whitespace ValueError;
        # a duplicate label would silently drop one label's table
        with pytest.raises(ModelIOError):
            ngram.load(self._payload_with_label(tmp_path, raw))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_payload_loads_or_is_model_error(self, tmp_path, data):
        path = tmp_path / "m.lidn"
        self._model().save(path)
        model = load_mutated(path, path.read_bytes(), data)
        if model is not None:
            # the loader accepts only what `save` writes
            again = tmp_path / "again.lidn"
            model.save(again)
            assert again.read_bytes() == path.read_bytes()

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_save_load_keeps_every_array(self, tmp_path, n, seed):
        rng = random.Random(seed)
        codes = [f"l{i}" for i in range(rng.randint(1, 5))]
        corpus = random_corpus(rng, "abcdefgh"[: rng.randint(1, 8)], codes, rng.randint(1, 30), 40)
        model = ngram.train(corpus, NgramConfig(n, rng.choice([0.01, 0.1, 1.0])), build_charset(corpus))
        path, again = tmp_path / "m.lidn", tmp_path / "again.lidn"
        model.save(path)
        loaded = ngram.load(path)
        assert loaded.widths == model.widths
        for a, b in zip(model_arrays(model), model_arrays(loaded), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("symbols, codes", [(254, 2), (255, 2), (2, 256), (2, 257)])
    def test_save_load_at_item_size_boundaries(self, tmp_path, symbols, codes):
        # V + 1 = 256 and 257 digits (V counts the unknown slot), and label rows up to 255 and 256
        alphabet = "".join(map(chr, range(0x100, 0x100 + symbols)))
        corpus = corpus_of(*((alphabet[i % symbols :] + alphabet[: i % symbols], f"l{i}") for i in range(codes)))
        for n in (2, 3):
            model = ngram.train(corpus, NgramConfig(n), build_charset(corpus))
            model.save(tmp_path / "m.lidn")
            loaded = ngram.load(tmp_path / "m.lidn")
            for a, b in zip(model_arrays(model), model_arrays(loaded), strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_loaded_model_holds_no_view_of_the_file(self, tmp_path):
        # a view of the payload would keep the whole file's bytes alive with the model
        self._model().save(tmp_path / "m.lidn")
        model = ngram.load(tmp_path / "m.lidn")
        arrays = model_arrays(model)
        assert len(arrays) == len(model.levels) + 4
        for a in arrays:
            # nor an `np.frombuffer` view of it, which sits at any offset in the
            # payload: unaligned, it made one-text scoring several times slower
            assert a.base is None and a.flags.owndata and a.flags.aligned and a.flags.writeable

    def test_v4_load_sorts_nothing(self, tmp_path, monkeypatch):
        corpus = word_corpus(20, 30, seed=7)
        model = ngram.train(corpus, NgramConfig(7), build_charset(corpus))
        model.save(tmp_path / "words.lidn")

        def sorts_again(*args, **kwargs):
            raise AssertionError("a v4 load sorted the table again")

        monkeypatch.setattr(ngram, "_build", sorts_again)
        monkeypatch.setattr(ngram, "_unique", sorts_again)
        monkeypatch.setattr(np, "unique", sorts_again)
        monkeypatch.setattr(np, "argsort", sorts_again)
        again = ngram.load(tmp_path / "words.lidn")
        for a, b in zip(model_arrays(model), model_arrays(again), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_log_terms_are_math_log_whatever_np_log_rounds(self, monkeypatch):
        corpus = word_corpus(20, 30, seed=7)
        charset = build_charset(corpus)
        model = ngram.train(corpus, NgramConfig(4), charset)
        log = np.log
        # every term an ulp away from math.log's
        monkeypatch.setattr(np, "log", lambda x: np.nextafter(log(x), 0.0))
        assert ngram.train(corpus, NgramConfig(4), charset).logs.tobytes() == model.logs.tobytes()

    def _hand_made_v4(self, tmp_path, offsets: list = V4_OFFSETS, cols: list = V4_COLS, counts: list = V4_COUNTS,
                      labels: int = 2, sizes: tuple = (None, None, None), n: int = 2, widths: tuple | None = None,
                      levels: list = V4_LEVELS) -> Path:
        """A v4 .lidn of order `n` over charset (a, b) (V = 3, so a key is
        parent * 4**w + chunk) with `labels` labels, the level `widths` (n
        levels of width one if None), the key arrays `levels`, and the arrays
        `offsets`, `cols` and `counts`, each tagged with its item size in
        `sizes`, where None is the narrowest. A `bytes` level is written as it is."""
        w = Writer()
        w.put(U32, n)
        w.put(F64, 0.1)
        w.header(Charset(("a", "b")), tuple(L(f"L{i}") for i in range(labels)))
        w.array(np.array((1,) * n if widths is None else widths), "<u4")
        for keys in levels:
            if isinstance(keys, bytes):
                w.raw(keys)
            else:
                w.array(np.array(keys, np.int64), "<i8")
        for values, size in zip((offsets, cols, counts), sizes):
            size = size or np.min_scalar_type(max(values)).itemsize
            w.put(record("B"), size)
            w.array(np.array(values, np.uint64), f"<u{size if size in (1, 2, 4, 8) else 8}")
        path = tmp_path / "hand-v4.lidn"
        w.save(path, ngram.MAGIC, 4)
        return path

    def test_hand_made_v4_table_is_the_trained_one(self, tmp_path):
        path = self._hand_made_v4(tmp_path, V4_OFFSETS, V4_COLS, V4_COUNTS)
        model = ngram.train(corpus_of(("ab", "L0"), ("aa", "L1")), NgramConfig(2, 0.1), Charset(("a", "b")))
        again = tmp_path / "again.lidn"
        model.save(again)
        assert again.read_bytes() == path.read_bytes()
        for a, b in zip(model_arrays(model), model_arrays(ngram.load(path)), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("offsets, cols, counts, labels, sizes, match", [
        pytest.param(V4_OFFSETS[:-1], V4_COLS, V4_COUNTS, 2, (None,) * 3, "row offsets", id="offsets-short"),
        pytest.param([1, *V4_OFFSETS[1:]], V4_COLS, V4_COUNTS, 2, (None,) * 3, "row offsets", id="offsets-from-1"),
        pytest.param([0, 4, 2, *V4_OFFSETS[3:]], V4_COLS, V4_COUNTS, 2, (None,) * 3, "row offsets",
                     id="offsets-decreasing"),
        pytest.param([*V4_OFFSETS[:-1], 11], V4_COLS, V4_COUNTS, 2, (None,) * 3, "row offsets",
                     id="offsets-past-cols"),
        # row 3 is the n-gram sentinel, row 6 the history sentinel
        pytest.param([0, 2, 4, 6, 7, 9, 11, 11], [0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1], [*V4_COUNTS, 1], 2,
                     (None,) * 3, "sentinel", id="gram-sentinel-with-entry"),
        pytest.param([*V4_OFFSETS[:-1], 11], [*V4_COLS, 0], V4_COUNTS, 2, (None,) * 3, "sentinel",
                     id="history-sentinel-with-entry"),
        pytest.param([0, 2, 4, 6, 6, 8, 8, 8], V4_COLS[:8], V4_COUNTS, 2, (None,) * 3, "history row without",
                     id="history-without-entries"),
        # the n-gram aa has one entry, its history a two
        pytest.param([0, 2, 3, 5, 5, 7, 9, 9], [0, 1, 1, 0, 1, 0, 1, 0, 1], [1, 1, 1, 1, 0], 2, (None,) * 3,
                     "other labels", id="gram-run-shorter"),
        pytest.param(V4_OFFSETS, [0, 1, 1, 0, 0, 1, 0, 1, 0, 1], V4_COUNTS, 2, (None,) * 3, "other labels",
                     id="gram-labels-differ"),
        pytest.param(V4_OFFSETS, [0, 1, 0, 2, 0, 2, 0, 1, 0, 2], V4_COUNTS, 2, (None,) * 3, "label past",
                     id="label-past-labels"),
        pytest.param(V4_OFFSETS, [1, 0, 0, 1, 0, 1, 1, 0, 0, 1], V4_COUNTS, 2, (None,) * 3, "out of order",
                     id="labels-out-of-order"),
        pytest.param(V4_OFFSETS, [0, 0, 0, 1, 0, 1, 0, 0, 0, 1], V4_COUNTS, 2, (None,) * 3, "out of order",
                     id="label-repeated"),
        pytest.param(V4_OFFSETS, V4_COLS, V4_COUNTS[:-1], 2, (None,) * 3, "counts for", id="fewer-counts"),
        pytest.param(V4_OFFSETS, V4_COLS, [*V4_COUNTS, 1], 2, (None,) * 3, "counts for", id="more-counts"),
        pytest.param(V4_OFFSETS, V4_COLS, [1, 1, 0, 0, 1, 1], 2, (None,) * 3, "n-gram with no count",
                     id="gram-without-count"),
        pytest.param(V4_OFFSETS, V4_COLS, V4_COUNTS, 3, (None,) * 3, "label with no", id="label-without-gram"),
        # a count is part of its history's total
        pytest.param(V4_OFFSETS, V4_COLS, [2**53, 1, 0, 1, 1, 0], 2, (None,) * 3, "history total", id="count-2-53"),
        # the n-grams aa and ab share the history a
        pytest.param(V4_OFFSETS, V4_COLS, [1, 1, 0, 2**52, 1, 2**52], 2, (None,) * 3, "history total",
                     id="total-2-53"),
        pytest.param(V4_OFFSETS, V4_COLS, [1, 0, 0, 1, 1, 0], 2, (None,) * 3, "history total", id="total-0"),
        pytest.param(V4_OFFSETS, V4_COLS, V4_COUNTS, 2, (3, None, None), "item size", id="size-tag-3"),
        pytest.param(V4_OFFSETS, V4_COLS, V4_COUNTS, 2, (16, None, None), "item size", id="size-tag-16"),
        pytest.param(V4_OFFSETS, V4_COLS, V4_COUNTS, 2, (2, None, None), "narrowest", id="offsets-wider"),
        pytest.param(V4_OFFSETS, V4_COLS, V4_COUNTS, 2, (None, 4, None), "narrowest", id="cols-wider"),
        pytest.param(V4_OFFSETS, V4_COLS, V4_COUNTS, 2, (None, None, 8), "narrowest", id="counts-wider"),
    ])
    def test_impossible_v4_tables_are_model_errors(self, tmp_path, offsets, cols, counts, labels, sizes, match):
        with pytest.raises(ModelIOError, match=match):
            ngram.load(self._hand_made_v4(tmp_path, offsets, cols, counts, labels, sizes))

    # The impossible tables of the v1, v2 and v3 cases below were first
    # written as files of those versions; each now reaches the same check
    # through a v4 file.
    @pytest.mark.parametrize("table, match", [
        # a history row with no entries: <s> has none, while its n-gram <s>a has two
        pytest.param(dict(offsets=[0, 2, 4, 6, 6, 6, 8, 8], cols=[0, 1] * 4), "history row without",
                     id="empty-history"),
        # a label with no n-grams, every entry being label 0's; `train` never writes one
        pytest.param(dict(offsets=[0, 1, 2, 3, 3, 4, 5, 5], cols=[0] * 5, counts=[1, 1, 1]), "label with no",
                     id="empty-label"),
        # a huge order used to load with empty tables and then cost seconds per text
        pytest.param(dict(n=10**6, widths=(), levels=[]), "order must be", id="huge-n-empty-tables"),
        # history symbols below the marker, digit 0, or at V, which carries into the parent
        pytest.param(dict(levels=[[-1, 1], V4_LEVELS[1]]), "level 1: keys", id="history-below-bos"),
        pytest.param(dict(n=3, levels=[[0], [4], [1]]), "level 2: keys", id="history-at-v"),
        # next symbols at or far past V used to load and then crash `predict --dump`
        pytest.param(dict(levels=[V4_LEVELS[0], [4, 5]]), "level 2: keys", id="char-at-v"),
        pytest.param(dict(levels=[V4_LEVELS[0], [1, 4 + 1000]]), "level 2: keys", id="char-999"),
        # an n-gram twice, then the n-grams aa and ab swapped
        pytest.param(dict(levels=[V4_LEVELS[0], [1, 5, 5, 6]]), "level 2: keys", id="char-repeated"),
        pytest.param(dict(levels=[V4_LEVELS[0], [1, 6, 5]]), "level 2: keys", id="chars-out-of-order"),
        # a zero count, which no table holds apart from an absent n-gram
        pytest.param(dict(counts=[0, 0, 0, 1, 1, 0]), "n-gram with no count", id="zero-count"),
        # the largest count uint64 holds, far past the totals float64 holds exactly
        pytest.param(dict(counts=[1, 1, 0, 2**64 - 1, 1, 0]), "history total", id="count-2-64"),
    ])
    def test_impossible_tables_are_model_errors(self, tmp_path, table, match):
        with pytest.raises(ModelIOError, match=match):
            ngram.load(self._hand_made_v4(tmp_path, **table))

    @pytest.mark.parametrize("n, levels, labels, match", [
        pytest.param(2, [[], V4_LEVELS[1]], 2, "level 1", id="empty-level"),
        pytest.param(1, [[-1, 1, 2]], 2, "level 1", id="negative-key"),
        pytest.param(2, [[0, 1, 1], V4_LEVELS[1]], 2, "level 1", id="key-repeated"),
        pytest.param(2, [[1, 0], V4_LEVELS[1]], 2, "level 1", id="keys-out-of-order"),
        # key 9 is row 2 of a 2-row level
        pytest.param(2, [V4_LEVELS[0], [1, 5, 9]], 2, "level 2", id="parent-past-level"),
        # a prefix no key extends: the last row, the first, then the middle one
        pytest.param(2, [[0, 1, 2], V4_LEVELS[1]], 2, "level 2", id="last-prefix-not-extended"),
        pytest.param(2, [V4_LEVELS[0], [5, 6]], 2, "level 2", id="first-prefix-not-extended"),
        pytest.param(2, [[0, 1, 2], [1, 9, 10]], 2, "level 2", id="middle-prefix-not-extended"),
        # key 4 is digit 0
        pytest.param(2, [V4_LEVELS[0], [1, 4, 5]], 2, "marker", id="gram-ends-in-marker"),
        # a length prefix past the payload's end, which must not be allocated
        pytest.param(2, [U64.pack(2**60)], 2, "mid-record", id="level-length-2-60"),
        pytest.param(2, V4_LEVELS, 0, "no labels", id="no-labels"),
        pytest.param(NgramConfig.MAX_N + 1, V4_LEVELS, 2, "order must be", id="order-over-limit"),
    ])
    def test_impossible_v2_tables_are_model_errors(self, tmp_path, n, levels, labels, match):
        with pytest.raises(ModelIOError, match=match):
            ngram.load(self._hand_made_v4(tmp_path, labels=labels, n=n, levels=levels))

    @pytest.mark.parametrize("n, widths, levels, match", [
        pytest.param(2, (0, 1, 1), V4_LEVELS, "widths", id="width-0"),
        pytest.param(2, (), V4_LEVELS, "widths", id="no-widths"),
        pytest.param(2, (1,), V4_LEVELS, "widths", id="widths-short-of-n"),
        pytest.param(2, (2, 1), V4_LEVELS, "widths", id="widths-past-n"),
        pytest.param(3, (1, 2), [[1], [6, 7]], "widths", id="last-width-2"),
        # rows * 4**w must stay below 2**63: one row under chunks of 31 fits,
        # two rows do not, and one row under chunks of 32 does not either
        pytest.param(33, (1, 31, 1), [[1, 2]], "level 2.*overflow", id="keys-past-int64"),
        pytest.param(33, (32, 1), [], "level 1.*overflow", id="chunk-past-int64"),
        pytest.param(33, (31, 1, 1), [[4**31 - 1], []], "level 2: keys", id="chunk-of-31-fits"),
        # (a, <s>, b), with the marker after a symbol: inside a chunk, and across two levels
        pytest.param(3, (2, 1), [[4], [2]], "marker after", id="marker-after-symbol-in-chunk"),
        pytest.param(3, (1, 1, 1), [[1], [0], [2]], "marker after", id="marker-after-symbol"),
        # a chunk of 17 base-4 digits is checked in parts of 2 and 15 digits: a marker after
        # a symbol across the parts, and three markers then symbols across them, which pass
        pytest.param(18, (17, 1), [[4**15]], "marker after", id="marker-after-symbol-across-parts"),
        pytest.param(18, (17, 1), [[4**14 - 1], []], "level 2: keys", id="markers-across-parts"),
        # (<s>, <s>) ends in the marker
        pytest.param(2, (1, 1), [[0], [0]], "ending in the", id="gram-ends-in-marker"),
    ])
    def test_impossible_v3_tables_are_model_errors(self, tmp_path, n, widths, levels, match):
        with pytest.raises(ModelIOError, match=match):
            ngram.load(self._hand_made_v4(tmp_path, labels=1, n=n, widths=widths, levels=levels))

    def test_hand_made_payload_round_trips(self, tmp_path):
        for n, widths, levels, offsets, cols, counts, grams in [
            # histories <s>, a and <unk>; n-grams <s>a, ab, a<unk> (label 0) and <unk>a (label 1)
            (2, (1, 1), [[0, 1, 3], [1, 6, 7, 9]], [0, 1, 2, 3, 4, 4, 5, 6, 7, 7], [0, 0, 0, 1, 0, 0, 1],
             [2, 1, 3, 1], [{(BOS, 0): 2, (0, 1): 1, (0, 2): 3}, {(2, 0): 1}]),
            # the one empty history, seen by both labels, so each n-gram has two entries
            (1, (1,), [[1, 2, 3]], [0, 2, 4, 6, 6, 8], [0, 1] * 4, [2, 0, 0, 5, 1, 0],
             [{(0,): 2, (2,): 1}, {(1,): 5}]),
            # the largest history total float64 holds exactly; both history
            # symbols in one level, whose keys are chunks of two digits
            (3, (2, 1), [[0, 1, 6, 11], [1, 6, 11, 13]], [0, 1, 2, 3, 4, 4, 5, 6, 7, 8, 8],
             [0, 0, 0, 1, 0, 0, 0, 1], [1, 1, 2**53 - 1, 1],
             [{(BOS, BOS, 0): 1, (BOS, 0, 1): 1, (0, 1, 2): 2**53 - 1}, {(1, 2, 0): 1}]),
        ]:
            path = self._hand_made_v4(tmp_path, offsets, cols, counts, n=n, widths=widths, levels=levels)
            loaded = ngram.load(path)
            assert [loaded.grams(label) for label in loaded.labels] == grams
            # the table that the builder of `train` makes from the same counts
            entries = [(gram, row, count) for row, table in enumerate(grams) for gram, count in table.items()]
            symbols, label, weight = (np.array(column) for column in zip(*entries))
            trained = ngram._build(NgramConfig(n, 0.1), loaded.charset, loaded.labels, symbols.T + 1, label,
                                   weight.astype(np.float64))
            assert trained.widths == loaded.widths == widths
            for a, b in zip(model_arrays(trained), model_arrays(loaded), strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            # both re-save as the hand-made file, byte for byte
            again = tmp_path / "again.lidn"
            for model in (loaded, trained):
                model.save(again)
                assert again.read_bytes() == path.read_bytes()
            for text in ("", "ab", "ba?ab"):
                assert ngram.load(again).classify(text) == loaded.classify(text)

    def test_json_dump_readable(self):
        # the dump used to hold every count, keyed by history; it is now a summary of the table
        model = self._model()
        doc = json.loads(json.dumps(model.to_json_dict()))
        assert doc["kind"] == "ngram" and doc["n"] == 3 and doc["alpha"] == 0.1
        assert doc["charset"] == list(model.charset.chars) and doc["labels"] == ["L1", "L2"]
        assert doc["widths"] == list(model.widths) and doc["table_bytes"] == model.nbytes()
        # L1 saw abcabc and aabbcc, L2 cbacba: one count per training character, and
        # abc twice and <s><s>a in both texts of L1, and cba twice in L2
        assert doc["totals"] == {"L1": 12, "L2": 6}
        assert doc["grams"] == {"L1": 10, "L2": 5}
        # <s><s>, <s>a, <s>c, aa, ab, ac, ba, bb, bc, ca and cb
        assert doc["histories"] == 11

    def test_json_dump_decodes_no_table(self, monkeypatch):
        # the dump used to decode every entry through `_entries` into per-history dicts
        corpus = word_corpus(20, 30, seed=7)
        model = ngram.train(corpus, NgramConfig(4), build_charset(corpus))

        def decodes(self):
            raise AssertionError("the dump decoded the table")

        monkeypatch.setattr(ngram.NgramModel, "_entries", decodes)
        assert model.to_json_dict()["totals"] == {
            label.code: sum(len(inst.text) for inst in corpus if inst.label == label) for label in model.labels}

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_json_dump_agrees_with_grams(self, n):
        corpus = word_corpus(8, 12, seed=n)
        model = ngram.train(corpus, NgramConfig(n), build_charset(corpus))
        doc = model.to_json_dict()
        tables = {label.code: model.grams(label) for label in model.labels}
        assert doc["grams"] == {code: len(grams) for code, grams in tables.items()}
        assert doc["totals"] == {code: sum(grams.values()) for code, grams in tables.items()}
        assert doc["histories"] == len({gram[:-1] for grams in tables.values() for gram in grams})
        assert doc["widths"] == list(model.widths) and sum(doc["widths"]) == n

    def test_json_dump_size_does_not_grow_with_the_table(self):
        big = word_corpus(40, 30, seed=3)
        charset = build_charset(big)
        small = Corpus([inst for label in big.labels for inst in [i for i in big if i.label == label][:10]])
        docs = [json.dumps(ngram.train(corpus, NgramConfig(7), charset).to_json_dict(), indent=2)
                for corpus in (small, big)]
        assert [json.loads(doc)["labels"] for doc in docs] == [[label.code for label in big.labels]] * 2
        assert json.loads(docs[1])["table_bytes"] > 3 * json.loads(docs[0])["table_bytes"]
        assert abs(len(docs[1]) - len(docs[0])) < 200
