"""Similar-language identification from raw character streams.

Two model families over a shared character inventory: additively smoothed
character n-gram language models and a character-level convolutional +
bidirectional-LSTM classifier, plus corpus tooling and a full multiclass
evaluation stack (accuracy, F1 family, confusion matrices, group-level
error splits). See the `lident` command-line entry point for end-to-end use.
"""

from .corpus import (
    Charset,
    Corpus,
    Instance,
    Label,
    build_charset,
    compute_stats,
    read_tsv,
)
from .errors import LidentError

__version__ = "0.1.0"

__all__ = [
    "Charset",
    "Corpus",
    "Instance",
    "Label",
    "LidentError",
    "build_charset",
    "compute_stats",
    "read_tsv",
    "__version__",
]
