"""Exception hierarchy shared by every module in the package, and the number tests of config checks."""

import numbers


def is_integer(value) -> bool:
    """A Python or numpy integer, but not a bool, which no count or seed means."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A Python or numpy integer or float, but not a bool, which no rate or mass
    means, nor a `Fraction`, which numpy arithmetic turns into object arrays."""
    return is_integer(value) or (isinstance(value, numbers.Real) and not isinstance(value, numbers.Rational))


class LidentError(Exception):
    """Base class for errors raised by this package."""


class CorpusFormatError(LidentError):
    """A corpus, matrix, or groups file does not match its expected layout."""


class ConfigError(LidentError):
    """A hyperparameter or option value is out of its legal range."""


class StratificationError(LidentError):
    """A label has too few instances for the requested stratified split."""


class ShapeError(LidentError):
    """Tensor arguments have incompatible or unsupported shapes."""


class TapeError(LidentError):
    """An autodiff tape was used outside its one forward/backward lifecycle."""


class ModelIOError(LidentError):
    """A model file is unreadable: bad magic, truncation, or layout damage."""


class VersionError(ModelIOError):
    """A model file declares a format version this build does not support."""


class ChecksumError(ModelIOError):
    """A model file's payload does not match its stored checksum."""


class DivergenceError(LidentError):
    """Training produced a non-finite loss."""

    def __init__(self, message: str, epoch: int, batch: int) -> None:
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
