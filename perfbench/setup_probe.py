"""Set-up probe: a fresh interpreter imports lident and loads what it needs to score.

Usage: python3 setup_probe.py ngram MODEL | clstm CHECKPOINT | corpus TSV...

Prints `time.monotonic()` once ready. The parent reads the same clock just
before starting this process, so the difference covers interpreter start,
`import lident` and the load.
"""

import sys
import time

import lident  # noqa: F401  (the import is part of what is timed)

kind, paths = sys.argv[1], sys.argv[2:]
if kind == "ngram":
    from lident import ngram

    ngram.load(paths[0])
elif kind == "clstm":
    from lident import clstm

    clstm.load_checkpoint(paths[0])
elif kind == "corpus":
    for path in paths:
        lident.read_tsv(path)
else:
    sys.exit(f"unknown probe kind {kind!r}")
print(repr(time.monotonic()))
