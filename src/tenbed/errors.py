"""Exception types shared across the package.

The CLI maps these onto process exit codes and treats any other exception as
a bug, so every check on input from outside the program (a flag, a config
value, an input file, a checkpoint) raises one of the classes below.  A check
on arguments that only the program itself supplies raises ``ValueError``.
"""


class TenbedError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(TenbedError, ValueError):
    """A config value, flag or input file is malformed or out of range."""


class SegmentationParseError(TenbedError, ValueError):
    """A segmentation file line could not be parsed."""

    def __init__(self, message: str, line_no: int, path: str | None = None):
        self.line_no = line_no
        self.path = path
        where = f"{path}:{line_no}" if path else f"line {line_no}"
        super().__init__(f"{where}: {message}")


class DuplicateWordError(TenbedError, ValueError):
    """The same word appears more than once in a segmentation source."""


class WordLookupError(TenbedError, LookupError):
    """A word or word id is not present in the vocabulary/index."""


class CheckpointError(TenbedError, ValueError):
    """A checkpoint file is malformed or has an unsupported format version."""


class TrainingDivergedError(TenbedError, RuntimeError):
    """Training hit a non-finite loss and was aborted."""

    def __init__(self, epoch: int, loss: float, batch: int | None = None):
        self.epoch = epoch
        self.loss = loss
        self.batch = batch
        at = "" if batch is None else f", batch {batch}"
        super().__init__(f"non-finite loss {loss!r} at epoch {epoch}{at}; aborting")
