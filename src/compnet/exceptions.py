"""Exception hierarchy shared across the package; ``exit_code`` is the CLI's."""


class CompnetError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 2


class ShapeError(CompnetError):
    """Tensor shapes or ranks are incompatible with an operation."""


class TapeError(CompnetError):
    """Gradient bookkeeping misuse (untracked loss, mixed tapes)."""


class ConfigError(CompnetError):
    """A configuration value violates its documented constraints."""


class DataError(CompnetError):
    """Dataset contents violate their invariants (labels, emptiness)."""


class NonFiniteRow(DataError):
    """Row ``args[0]`` of an image array holds a non-finite value: a scoring pass
    over mapped pixels knows rows, not the sample ids its caller names them by."""

    @property
    def row(self) -> int:
        return self.args[0]

    def __str__(self) -> str:
        return f"row {self.row}: non-finite values"


class FormatError(CompnetError):
    """An on-disk artifact does not match its declared format."""
    exit_code = 3


class NumericError(CompnetError):
    """A non-finite value appeared where finite arithmetic is required."""
    exit_code = 4


class VariantError(CompnetError):
    """An operation was applied to the wrong model variant."""
