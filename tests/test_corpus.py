from __future__ import annotations

import collections
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lident.corpus import (
    Charset,
    Corpus,
    Instance,
    Label,
    LabelStats,
    build_charset,
    compute_stats,
    read_tsv,
)
from lident.errors import ConfigError, CorpusFormatError
from conftest import write_tsv_file
from reference import CharIndex, charset_reference

# Any character a corpus file can hold, and the lone surrogates it cannot.
SCALARS = st.characters(blacklist_categories=("Cs",))
SURROGATES = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, blacklist_categories=())


def corpus_of(*texts_and_codes: tuple[str, str]) -> Corpus:
    return Corpus(Instance(t, Label(c)) for t, c in texts_and_codes)


class TestLabelAndInstance:
    def test_label_rejects_empty_and_whitespace(self):
        with pytest.raises(ValueError):
            Label("")
        with pytest.raises(ValueError):
            Label("a b")

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            Instance("", Label("x"))
        with pytest.raises(ValueError):
            Instance("a\tb", Label("x"))
        with pytest.raises(ValueError):
            Instance("a\nb", Label("x"))
        with pytest.raises(ValueError):
            Instance("a\ud800b", Label("x"))  # lone surrogate


class TestReadTsv:
    def test_two_lines(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("bonjour\tfr-FR\nhola\tes-ES\n", encoding="utf-8")
        corpus = read_tsv(p)
        assert [i.text for i in corpus] == ["bonjour", "hola"]
        assert [l.code for l in corpus.labels] == ["es-ES", "fr-FR"]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.tsv"
        p.write_text("", encoding="utf-8")
        corpus = read_tsv(p)
        assert len(corpus) == 0 and corpus.labels == ()

    def test_missing_trailing_newline_and_crlf(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_bytes(b"abc\tx\r\ndef\ty")
        corpus = read_tsv(p)
        assert [i.text for i in corpus] == ["abc", "def"]

    def test_wrong_tab_count_reports_line(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("ok\tx\nno tabs here\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=":2:"):
            read_tsv(p)
        p.write_text("a\tb\tc\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=":1:"):
            read_tsv(p)

    def test_empty_text_field(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("\tx\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="empty text"):
            read_tsv(p)

    def test_bad_label_reports_its_line_after_good_ones(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("a\tx\nb\tx\nc\tx y\nd\tx y\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=r":3: label code must be non-empty and contain no whitespace"):
            read_tsv(p)

    def test_one_label_object_per_code(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("a\tx\nb\ty\nc\tx\n", encoding="utf-8")
        corpus = read_tsv(p)
        assert corpus.instances[0].label is corpus.instances[2].label

    def test_reading_a_corpus_imports_no_numpy(self, tmp_path):
        # `import lident` and `read_tsv` are all a fresh process needs to read
        # a corpus; importing numpy there would add ~0.1 s to its start.
        import lident

        p = tmp_path / "c.tsv"
        p.write_text("bonjour\tfr\nhola\tes\n", encoding="utf-8")
        src = Path(lident.__file__).resolve().parents[1]
        code = "import sys, lident; lident.read_tsv(sys.argv[1]); print('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code, str(p)], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "False"

    def test_model_paths_import_no_numpy_ma(self, tmp_path):
        # numpy.ma costs a fresh process ~10 ms to import (`np.unique` pulls
        # it in), which a set-up that loads a model would pay every time.
        import lident

        p = tmp_path / "c.tsv"
        p.write_text("".join(f"{text} {i}\t{code}\n" for i in range(4)
                             for text, code in (("bonjour le monde", "fr"), ("hola mundo", "es"))),
                     encoding="utf-8")
        src = Path(lident.__file__).resolve().parents[1]
        code = textwrap.dedent("""
            import sys
            from lident import build_charset, clstm, ngram, read_tsv
            corpus, out = read_tsv(sys.argv[1]), sys.argv[2]
            charset = build_charset(corpus)
            ngram.train(corpus, ngram.NgramConfig(3), charset).save(out + "/m.lidn")
            ngram.load(out + "/m.lidn").classify_many(["bonjour", "hola"])
            ngram.sweep(corpus, corpus, 1, 3, 0.1, charset)
            config = clstm.ClstmConfig(seq_len=24, conv_features=2, conv_kernels=(3, 2, 2), pools=(2, 2, 2),
                                       lstm_hidden=2, dense_units=4, epochs=1, batch_size=4)
            clstm.save_checkpoint(clstm.train(corpus, None, config)[0], out + "/m.ckpt")
            clstm.predict(clstm.load_checkpoint(out + "/m.ckpt"), ["bonjour", "hola"])
            print("numpy.ma" in sys.modules)
        """)
        out = subprocess.run([sys.executable, "-c", code, str(p), str(tmp_path)], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "False"

    def test_invalid_utf8(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_bytes(b"\xff\xfe broken\tx\n")
        with pytest.raises(CorpusFormatError, match="UTF-8"):
            read_tsv(p)

    def test_balanced_twelve_label_file(self, tmp_path):
        # 12 balanced labels, all counts equal after a round trip through disk
        per_label = 18_000
        codes = [f"l{i:02d}" for i in range(12)]
        p = tmp_path / "big.tsv"
        with open(p, "w", encoding="utf-8") as fh:
            for i in range(per_label):
                for code in codes:
                    fh.write(f"line {i} of {code}\t{code}\n")
        corpus = read_tsv(p)
        counts = collections.Counter(inst.label.code for inst in corpus)
        assert all(counts[code] == per_label for code in codes)
        assert len(corpus) == per_label * 12


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.text(
                # anything UTF-8-encodable except the field/line separators;
                # lone surrogates cannot appear in a UTF-8 file at all
                alphabet=st.characters(
                    blacklist_characters="\t\n\r", blacklist_categories=("Cs",)
                ),
                min_size=1,
                max_size=30,
            ),
            st.sampled_from(["aa", "bb", "cc"]),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_tsv_round_trip(tmp_path_factory, rows):
    corpus = corpus_of(*rows)
    path = tmp_path_factory.mktemp("rt") / "c.tsv"
    write_tsv_file(path, [(inst.text, inst.label.code) for inst in corpus])
    again = read_tsv(path)
    assert again == corpus


class TestCharset:
    def test_no_cap(self):
        charset = build_charset(corpus_of(("aab", "x")))
        assert charset.chars == ("a", "b")
        assert charset.size == 3
        assert charset.indices("z").tolist() == [2]  # the unknown slot comes last

    def test_cap_keeps_most_frequent_then_codepoint(self):
        charset = build_charset(corpus_of(("abc", "x"), ("abd", "x")), max_size=3)
        assert charset.chars == ("a", "b")
        assert charset.size == 3

    def test_cap_too_small(self):
        with pytest.raises(ConfigError):
            build_charset(corpus_of(("ab", "x")), max_size=1)

    @pytest.mark.parametrize("cap", [2.5, "3", 3.0, True])
    def test_non_integer_cap_rejected(self, cap):
        # 2.5 used to end in a bare TypeError from slicing, "3" from comparing
        with pytest.raises(ConfigError, match=f"cap.*{cap!r}"):
            build_charset(corpus_of(("ab", "x")), max_size=cap)

    def test_empty_corpus(self):
        with pytest.raises(ConfigError):
            build_charset(Corpus([]))

    @pytest.mark.parametrize("chars, match", [
        (("a", "bc"), "single characters: 'bc'"),
        (("a", ""), "single characters: ''"),
        (("a", "b", "a"), "duplicate charset entry: 'a'"),
    ], ids=["two-characters", "empty", "duplicate"])
    def test_bad_entries_rejected(self, chars, match):
        with pytest.raises(ValueError, match=match):
            Charset(chars)

    def test_round_trip_indices(self):
        charset = build_charset(corpus_of(("hello world", "x")))
        assert "".join(charset.chars[i] for i in charset.indices("hello world")) == "hello world"

    @given(st.characters())
    def test_lookup_total(self, ch):
        charset = Charset(("a", "b", "c"))
        (index,) = charset.indices(ch)
        assert index == ("abc".index(ch) if ch in "abc" else charset.size - 1)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.text(st.sampled_from("aab\u00e9\U0001F600\U00010000") | SCALARS.filter(lambda ch: ch not in "\t\n\r"),
                    min_size=1, max_size=30),
            min_size=1, max_size=8),
        st.none() | st.integers(2, 12),
    )
    def test_build_charset_matches_counter_rule(self, texts, cap):
        # a small alphabet makes tied counts common; astral characters are
        # one character each, as the rule counts them
        charset = build_charset(corpus_of(*((text, "x") for text in texts)), cap)
        assert charset.chars == charset_reference(texts, cap)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(SCALARS | SURROGATES, unique=True, max_size=12),
        st.text(SCALARS | SURROGATES, max_size=40),
    )
    def test_indices_match_lookup(self, chars, text):
        # `text` may be empty and hold characters the charset lacks, astral
        # ones, lone surrogates and code points above the charset's largest;
        # the charset's own characters come in any code point order.
        charset = Charset(tuple(chars))
        oracle = CharIndex(chars)
        above = chr(min(max(map(ord, chars), default=0) + 1, 0x10FFFF)) + "\U0010FFFF"
        for sample in (text, text + "".join(chars[::-1]), "\U0001F600a\U00010000\udc80", above):
            got = charset.indices(sample)
            assert got.dtype.kind == "i"
            assert got.tolist() == [oracle.lookup(ch) for ch in sample]


class TestStats:
    def test_single_instance(self):
        entry, total = compute_stats(corpus_of(("a b", "L1")))
        assert entry == LabelStats("L1", 1, 3.0, 2.0)
        assert total == LabelStats("TOTAL", 1, 3.0, 2.0)

    def test_mean_of_two(self):
        entry, _ = compute_stats(corpus_of(("ab", "L1"), ("abcd", "L1")))
        assert entry.avg_chars == 3.0

    def test_empty_corpus_zeroed(self):
        assert compute_stats(Corpus([])) == [LabelStats("TOTAL", 0, 0.0, 0.0)]

    def test_label_named_total_is_rejected(self):
        # used to print two TOTAL rows, the label's and the total's, with no way to tell them apart
        with pytest.raises(CorpusFormatError, match="label 'TOTAL' clashes with the total row"):
            compute_stats(corpus_of(("a", "TOTAL"), ("b", "x")))

    def test_totals_conserve_counts(self):
        corpus = corpus_of(("a", "x"), ("bb ccc", "y"), ("dd", "x"))
        *rows, total = compute_stats(corpus)
        assert [r.label for r in rows] == ["x", "y"]
        assert sum(r.count for r in rows) == total.count == len(corpus)
        averages = [r.avg_chars for r in rows]
        assert min(averages) <= total.avg_chars <= max(averages)
