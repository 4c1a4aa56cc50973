"""Exception hierarchy shared across the package."""


class QslateError(Exception):
    """Base class for every error raised by this package."""


class DataError(QslateError):
    """Malformed input: bad file contents, bad field values, bad config."""


class ModelFileError(DataError):
    """A saved model file is missing, corrupted, or incompatible."""

    def __init__(self, path, reason: str):
        self.path = str(path)
        self.reason = reason
        super().__init__(f"{path}: {reason}")


class FitError(QslateError):
    """A fitting stage could not produce a valid model from the given data."""


class ComponentCollapseError(FitError):
    """Soft-thresholding zeroed an entire component (l1 penalty too large).

    ``component`` is the index of the component that collapsed; every
    component before it was fitted.
    """

    def __init__(self, message: str, component: int):
        super().__init__(message)
        self.component = component


class TrainError(QslateError):
    """Q-table training or policy extraction failed."""
