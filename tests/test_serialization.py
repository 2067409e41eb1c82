from __future__ import annotations

import hashlib

import numpy as np
import pytest

from lident import clstm, ngram, serialization
from lident.clstm import ClstmConfig, ClstmModel
from lident.corpus import Charset, Label, build_charset
from lident.errors import ModelIOError
from lident.serialization import F64, U8, U16, U32, U64, Reader, Writer, record
from conftest import model_arrays

# Digests of the two files below as written by `LIDN` v4 and `LIDC` v1. A
# change to either is a file-format change: old files would no longer load
# the same.
LIDN_SHA256 = "e90e085183e743e9307c0e9a2dfc57b16d3ecec393248e145ef14897f78edb5f"
LIDC_SHA256 = "0c1d90bfbd12fba288f20a2c3cd886dcd9985471105a05dc560ce11af9029d7c"
# The same n-gram model as written by the `LIDN` v1, v2 and v3 writers, kept
# as fixtures because `save` no longer writes any of them.
LIDN_V1_SHA256 = "79f6cd2ea889e5fec667da65521a89d045f0d1156c4c9592842e473a78a84d10"
LIDN_V2_SHA256 = "0c1dda403357c6f99c73ae7de7774948667d6977475814195f763e4adb829946"
LIDN_V3_SHA256 = "5d1c5dc03bffb8529787adec904f58ac23a2e9556574da3a41f2ebbf16e200fa"

PIN_CONFIG = ClstmConfig(
    seq_len=16,
    charset_dim=4,
    conv_features=2,
    conv_kernels=(3, 2, 2),
    pools=(2, 2, 2),
    lstm_hidden=2,
    dense_units=3,
    dropout_rate=0.25,
    num_classes=2,
    lr=0.5,
    epochs=3,
    batch_size=5,
    seed=-7,
)


def pinned_clstm() -> ClstmModel:
    """A checkpoint from hand-set weights: no BLAS rounding or RNG stream enters."""
    params = {
        name: np.arange(np.prod(shape)).reshape(shape) / 7
        for name, shape in clstm._param_shapes(PIN_CONFIG).items()
    }
    return ClstmModel(PIN_CONFIG, Charset(tuple("aé中")), (Label("es"), Label("fr")), params)


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_same_ngram_model(again, model) -> None:
    assert again.config == model.config
    assert again.charset == model.charset
    assert again.labels == model.labels
    for label in model.labels:
        assert again.grams(label) == model.grams(label)
    for text in ("bonjour amigo", "", "zzz"):
        assert again.classify(text) == model.classify(text)


class TestFormatPin:
    def test_lidn_bytes_pinned(self, tmp_path, toy_corpus):
        model = ngram.train(toy_corpus, ngram.NgramConfig(3, 0.25), build_charset(toy_corpus))
        path = tmp_path / "toy.lidn"
        model.save(path)
        assert sha256(path) == LIDN_SHA256
        assert_same_ngram_model(ngram.load(path), model)

    def test_lidn_v1_file_still_loads(self, fixtures_dir, toy_corpus):
        path = fixtures_dir / "toy_v1.lidn"
        assert sha256(path) == LIDN_V1_SHA256
        model = ngram.train(toy_corpus, ngram.NgramConfig(3, 0.25), build_charset(toy_corpus))
        assert_same_ngram_model(ngram.load(path), model)

    def test_lidn_v2_file_still_loads(self, tmp_path, fixtures_dir, toy_corpus):
        path = fixtures_dir / "toy_v2.lidn"
        assert sha256(path) == LIDN_V2_SHA256
        model = ngram.train(toy_corpus, ngram.NgramConfig(3, 0.25), build_charset(toy_corpus))
        from_v2 = ngram.load(path)
        assert_same_ngram_model(from_v2, model)
        # its levels have width one, and a re-save keeps them and round-trips
        assert from_v2.widths == (1, 1, 1) and model.widths == (2, 1)
        again, twice = tmp_path / "again.lidn", tmp_path / "twice.lidn"
        from_v2.save(again)
        ngram.load(again).save(twice)
        assert again.read_bytes() == twice.read_bytes()
        assert_same_ngram_model(ngram.load(again), model)

    def test_lidn_v3_file_still_loads(self, tmp_path, fixtures_dir, toy_corpus):
        path = fixtures_dir / "toy_v3.lidn"
        assert sha256(path) == LIDN_V3_SHA256
        model = ngram.train(toy_corpus, ngram.NgramConfig(3, 0.25), build_charset(toy_corpus))
        from_v3 = ngram.load(path)
        assert_same_ngram_model(from_v3, model)
        for a, b in zip(model_arrays(from_v3), model_arrays(model), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        for text in ("bonjour amigo", "", "zzz", "hola le monde des amis"):
            assert ({k: v.hex() for k, v in from_v3.classify(text).per_label.items()}
                    == {k: v.hex() for k, v in model.classify(text).per_label.items()})
        # a re-save is the v4 file that `save` writes for the trained model
        again = tmp_path / "again.lidn"
        from_v3.save(again)
        assert sha256(again) == LIDN_SHA256

    def test_lidc_bytes_pinned(self, tmp_path):
        model = pinned_clstm()
        path = tmp_path / "pin.lidc"
        clstm.save_checkpoint(model, path)
        assert sha256(path) == LIDC_SHA256
        again = clstm.load_checkpoint(path)
        assert again.config == model.config
        assert again.charset == model.charset
        assert again.labels == model.labels
        assert list(again.params) == list(model.params)
        for name, arr in model.params.items():
            assert again.params[name].dtype == np.float64
            assert again.params[name].tobytes() == arr.tobytes()


def write_payload(path, payload: bytes) -> None:
    serialization.write_envelope(path, b"TEST", 3, payload)


class TestCodec:
    def test_writer_reader_round_trip(self, tmp_path):
        charset = Charset(tuple("xé中"))
        labels = (Label("a"), Label("b-c"))
        w = Writer()
        w.put(U8, 255)
        w.put(record("q"), -(2**62))
        w.put(F64, 0.1)
        w.string("naïve")
        w.header(charset, labels)
        w.records(record("IQ"), [(1, 2**40), (7, 0)])
        w.array(np.array([3.0, 2.0**53 - 1]), "<u8")
        w.array(np.array([], np.int64), "<i8")
        w.raw(b"\x00\x01")
        w.save(tmp_path / "m.bin", b"TEST", 3)

        def parse(r: Reader):
            return (r.value(U8), r.value(record("q")), r.value(F64), r.string(), r.header(),
                    list(r.records(record("IQ"), 2)), r.array("<u8").tolist(), r.array("<i8").tolist(),
                    r.read(2))

        assert serialization.read_model(tmp_path / "m.bin", b"TEST", {3: parse}) == (
            255, -(2**62), 0.1, "naïve", (charset, labels), [(1, 2**40), (7, 0)], [3, 2**53 - 1], [],
            b"\x00\x01"
        )

    def test_read_past_end_is_model_error(self):
        r = Reader(U16.pack(4) + b"abc", "blob")
        with pytest.raises(ModelIOError, match="blob: payload ends mid-record"):
            r.string()
        with pytest.raises(ModelIOError, match="mid-record"):
            Reader(b"", "blob").records(U32, 2**60)
        # a length prefix past the payload's end is never an allocation
        with pytest.raises(ModelIOError, match="mid-record"):
            Reader(U64.pack(2**60), "blob").array("<i8")

    def test_duplicate_label_rejected(self, tmp_path):
        w = Writer()
        w.header(Charset(("a",)), (Label("x"), Label("x")))
        w.save(tmp_path / "m.bin", b"TEST", 3)
        with pytest.raises(ModelIOError, match="duplicate label"):
            serialization.read_model(tmp_path / "m.bin", b"TEST", {3: Reader.header})

    def test_trailing_bytes_rejected(self, tmp_path):
        write_payload(tmp_path / "m.bin", U32.pack(1) + b"\x00")
        with pytest.raises(ModelIOError, match="1 trailing bytes"):
            serialization.read_model(tmp_path / "m.bin", b"TEST", {3: lambda r: r.value(U32)})

    @pytest.mark.parametrize(
        "payload",
        [
            U16.pack(2) + b"\xff\xfe",  # not UTF-8
            U16.pack(3) + b"a b",  # whitespace in a label code
            U16.pack(0),  # empty label code
        ],
    )
    def test_malformed_content_is_model_error(self, tmp_path, payload):
        write_payload(tmp_path / "m.bin", payload)
        with pytest.raises(ModelIOError, match="malformed payload"):
            serialization.read_model(tmp_path / "m.bin", b"TEST", {3: lambda r: Label(r.string())})

    def test_code_point_out_of_range_is_model_error(self, tmp_path):
        write_payload(tmp_path / "m.bin", U32.pack(1) + U32.pack(0x110000))
        with pytest.raises(ModelIOError, match="malformed payload"):
            serialization.read_model(tmp_path / "m.bin", b"TEST", {3: Reader.header})
