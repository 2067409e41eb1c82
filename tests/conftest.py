from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from lident.corpus import Corpus, Instance, Label

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def toy_corpus() -> Corpus:
    return Corpus(
        [
            Instance("bonjour le monde", Label("fr")),
            Instance("bonsoir mes amis", Label("fr")),
            Instance("hola mundo amigos", Label("es")),
            Instance("buenos dias amigo", Label("es")),
        ]
    )


def write_tsv_file(path: Path, rows: list[tuple[str, str]]) -> Path:
    path.write_text("".join(f"{text}\t{code}\n" for text, code in rows), encoding="utf-8")
    return path


def reseal(blob: bytes, payload: bytes) -> bytes:
    """A model file with `blob`'s magic and version around `payload`, under a valid CRC32."""
    return blob[:8] + payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


def mutate_payload(data, payload: bytes, header: int) -> bytes:
    """Overwrite a few payload bytes, half of them within the first `header`
    bytes (where counts, lengths and strings live), then maybe cut the tail."""
    out = bytearray(payload)
    for _ in range(data.draw(st.integers(1, 4), label="edits")):
        span = min(len(out), header) if data.draw(st.booleans(), label="in header") else len(out)
        at = data.draw(st.integers(0, span - 1), label="at")
        out[at] = data.draw(st.integers(0, 255), label="byte")
    if data.draw(st.booleans(), label="truncate"):
        out = out[: data.draw(st.integers(0, len(out)), label="keep")]
    return bytes(out)


def model_arrays(model) -> list[np.ndarray]:
    """Every array a model holds, found through its attributes."""
    values = [v for value in vars(model).values() for v in (value if isinstance(value, tuple) else (value,))]
    return [v for v in values if isinstance(v, np.ndarray)]
