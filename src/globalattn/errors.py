"""Exception types shared across the package.

The CLI maps these onto stable exit codes: ConfigError -> 2,
DataFormatError -> 3, DivergenceError -> 4; beside them, any other OSError
exits 5 and a MemoryError 6.  A ContractError is a programming error (a
bad operand shape, an out-of-range label, an empty batch) and has no exit
code of its own.
"""


class ConfigError(ValueError):
    """A configuration value or file is invalid."""


class ContractError(ValueError):
    """A caller violated an operation's precondition, operand shapes included."""


class DataFormatError(ValueError):
    """An on-disk artifact is malformed; the message names the offending field."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"non-finite loss at epoch {epoch}")

    def __reduce__(self):
        # rebuild from the epoch, so a sweep worker's error keeps its
        # integer epoch when it crosses the process boundary
        return type(self), (self.epoch,)
