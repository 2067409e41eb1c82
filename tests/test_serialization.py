from __future__ import annotations

import hashlib
import os
import stat

import numpy as np
import pytest

from lident import clstm, ngram, serialization
from lident.clstm import ClstmConfig, ClstmModel
from lident.corpus import Charset, Label, build_charset
from lident.errors import ModelIOError
from conftest import reseal
from lident.serialization import F64, U8, U16, U32, U64, Reader, Writer, record

# Digests of the two files below as written by `LIDN` v4 and `LIDC` v3. A
# change to either is a file-format change: old files would no longer load
# the same. The v3 file is the v2 one without its beta1, beta2 and eps f64s,
# under version 3 and its own checksum.
LIDN_SHA256 = "e90e085183e743e9307c0e9a2dfc57b16d3ecec393248e145ef14897f78edb5f"
LIDC_SHA256 = "ef458d430439e16e3bc318fe47780cbbfcf139a2128d621a5bf50a07441dafc7"

PIN_CONFIG = ClstmConfig(
    seq_len=16,
    charset_dim=4,
    conv_features=2,
    conv_kernels=(3, 2, 2),
    pools=(2, 2, 2),
    lstm_hidden=2,
    dense_units=3,
    dropout_rate=0.25,
    lr=0.5,
    epochs=3,
    batch_size=5,
    seed=2**63 - 7,  # near the top of the seed range, so the i64 field's every byte is pinned
)


def pinned_clstm() -> ClstmModel:
    """A checkpoint from hand-set weights: no BLAS rounding or RNG stream enters."""
    params = {
        name: np.arange(np.prod(shape)).reshape(shape) / 7
        for name, shape in clstm._param_shapes(PIN_CONFIG, 4, 2).items()
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
        charset = Charset(tuple("xé中\U0001f600\ud800"))  # a lone surrogate passes through
        labels = (Label("a"), Label("b-c"))
        w = Writer()
        w.put(U8, 255)
        w.put(record("q"), -(2**62))
        w.put(F64, 0.1)
        w.string("naïve")
        w.header(charset, labels)
        w.raw(np.array([1, 2**32 - 1], "<u4"))
        w.array(np.array([3.0, 2.0**53 - 1]), "<u8")
        w.array(np.array([], np.int64), "<i8")
        w.raw(b"\x00\x01")
        w.save(tmp_path / "m.bin", b"TEST", 3)

        def parse(r: Reader):
            return (r.value(U8), r.value(record("q")), r.value(F64), r.string(), r.header(),
                    r.items("<u4", 2).tolist(), r.array("<u8").tolist(), r.array("<i8").tolist(),
                    r.read(2))

        assert serialization.read_model(tmp_path / "m.bin", b"TEST", 3, parse) == (
            255, -(2**62), 0.1, "naïve", (charset, labels), [1, 2**32 - 1], [3, 2**53 - 1], [],
            b"\x00\x01"
        )
        # the charset is its count, then one u32 code point per character
        codes = U32.pack(len(charset.chars)) + b"".join(U32.pack(ord(ch)) for ch in charset.chars)
        assert codes in (tmp_path / "m.bin").read_bytes()

    def test_read_past_end_is_model_error(self):
        with pytest.raises(ModelIOError, match="^payload ends mid-record$"):
            Reader(U16.pack(4) + b"abc").string()
        # a count or a length prefix past the payload's end is never an allocation
        with pytest.raises(ModelIOError, match="mid-record"):
            Reader(b"").items("<u4", 2**60)
        with pytest.raises(ModelIOError, match="mid-record"):
            Reader(U64.pack(2**60)).array("<i8")

    def test_duplicate_label_rejected(self, tmp_path):
        w = Writer()
        w.header(Charset(("a",)), (Label("x"), Label("x")))
        w.save(tmp_path / "m.bin", b"TEST", 3)
        with pytest.raises(ModelIOError, match="duplicate label"):
            serialization.read_model(tmp_path / "m.bin", b"TEST", 3, Reader.header)

    def test_trailing_bytes_rejected(self, tmp_path):
        write_payload(tmp_path / "m.bin", U32.pack(1) + b"\x00")
        with pytest.raises(ModelIOError, match="1 trailing bytes"):
            serialization.read_model(tmp_path / "m.bin", b"TEST", 3, lambda r: r.value(U32))

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
            serialization.read_model(tmp_path / "m.bin", b"TEST", 3, lambda r: Label(r.string()))

    def test_failed_write_leaves_no_file(self, tmp_path):
        # the temp file is removed and the target never made; a str is no bytes to write
        with pytest.raises(TypeError):
            serialization.atomic_write_bytes(tmp_path / "m.bin", b"LIDN", "not bytes")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_written_file_follows_the_umask(self, tmp_path, umask, mode):
        # every written file used to keep its temp file's mode, 0600, whatever the umask
        old = os.umask(umask)
        try:
            serialization.atomic_write_bytes(tmp_path / "m.bin", b"LIDN")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "m.bin").stat().st_mode) == mode

    def test_code_point_out_of_range_is_model_error(self, tmp_path):
        write_payload(tmp_path / "m.bin", U32.pack(1) + U32.pack(0x110000))
        with pytest.raises(ModelIOError, match="malformed payload"):
            serialization.read_model(tmp_path / "m.bin", b"TEST", 3, Reader.header)


def header_size(charset: Charset, labels) -> int:
    """The bytes of a payload's shared header block."""
    chars = U32.size * (1 + len(charset.chars))
    return chars + U32.size + sum(U16.size + len(label.code.encode()) for label in labels)


class TestLoadErrorsNameTheFile:
    """Each rejection of a model file under a valid checksum names the file once, first."""

    @pytest.mark.parametrize("case", ["mid-record", "trailing", "rejected", "config"])
    @pytest.mark.parametrize("kind", ["lidn", "lidc"])
    def test_named_once(self, tmp_path, toy_corpus, kind, case):
        # (offset, new bytes, message) of a field the parse rejects and of one the config rejects
        if kind == "lidn":
            model = ngram.train(toy_corpus, ngram.NgramConfig(3, 0.25), build_charset(toy_corpus))
            path, load = tmp_path / "m.lidn", ngram.load
            model.save(path)
            first_width = U32.size + F64.size + header_size(model.charset, model.labels) + U64.size
            rejected = (first_width, U32.pack(0), "level widths that do not split")
            config = (U32.size, F64.pack(-1.0), "malformed payload: smoothing mass alpha")
        else:
            model = pinned_clstm()
            path, load = tmp_path / "m.lidc", clstm.load_checkpoint
            clstm.save_checkpoint(model, path)
            first_weight = clstm._CONFIG.size + header_size(model.charset, model.labels)
            rejected = (first_weight, F64.pack(float("nan")), "parameter 'conv1_w' holds a NaN")
            config = (0, U32.pack(0), "malformed payload: seq_len must be >= 1")  # seq_len leads the record
        blob = path.read_bytes()
        payload = blob[8:-4]

        def splice(at: int, value: bytes, match: str) -> tuple[bytes, str]:
            assert payload[at : at + len(value)] != value
            return payload[:at] + value + payload[at + len(value) :], match

        bad, match = {
            "mid-record": (payload[:-1], "payload ends mid-record"),
            "trailing": (payload + b"\x00\x00", "2 trailing bytes in payload"),
            "rejected": splice(*rejected),
            "config": splice(*config),
        }[case]
        path.write_bytes(reseal(blob, bad))
        with pytest.raises(ModelIOError, match=match) as info:
            load(path)
        assert type(info.value) is ModelIOError
        message = str(info.value)
        assert message.startswith(f"{path}: ") and message.count(str(path)) == 1
