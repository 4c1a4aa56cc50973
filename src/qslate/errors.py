"""Exception hierarchy shared across the package, the model-file envelope and
its strict readers of JSON columns and scalars."""

import json
from pathlib import Path

import numpy as np


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


def write_model_file(path, fmt: str, version: int, stamp: str | None, body: dict) -> None:
    """Write ``body`` as one sorted-key JSON object under a format/version/stamp header."""
    payload = {"format": fmt, "version": version, "stamp": stamp, **body}
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def read_model_file(path, fmt: str, version: int, build):
    """Read a file written by :func:`write_model_file`: ``(build(payload), stamp)``.

    Every way the file can be unreadable, of another format or version, or
    missing or mistyping a field that ``build`` reads raises
    :class:`ModelFileError` naming ``path``.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ModelFileError(path, f"cannot read {fmt} file: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise ModelFileError(path, f"not a {fmt} file")
    if payload.get("version") != version:
        raise ModelFileError(path, f"unsupported version {payload.get('version')}")
    try:
        return build(payload), payload.get("stamp")
    except KeyError as exc:
        raise ModelFileError(path, f"{fmt} file lacks field {exc}") from None
    except (TypeError, ValueError, OverflowError, AttributeError, DataError) as exc:
        raise ModelFileError(path, f"malformed {fmt} file: {exc}") from None


_KINDS = {np.int64: ({int}, "an integer"), np.float64: ({int, float}, "a number"),
          np.bool_: ({bool}, "a boolean")}


def json_column(values, dtype, label: str, width: int = 1) -> np.ndarray:
    """``values`` (a JSON value or a list of them, nested or flat) as a
    ``dtype`` array of the same shape.  A value of another JSON kind (a bool
    where numbers belong, a string, a list in a ragged list, or a float
    where integers belong) is refused rather than cast: the
    :class:`DataError` names it and its cell, ``label`` formatted with the
    index of the value's row in a nested list, or with its position //
    ``width`` in a flat one."""
    column = np.asarray(values, dtype=object)
    flat = column.ravel()
    types, kind = _KINDS[dtype]
    if not set(map(type, flat)) <= types:
        i = next(i for i, value in enumerate(flat) if type(value) not in types)
        cell = i // (flat.size // len(column)) if column.ndim > 1 else i // width
        raise DataError(f"{label.format(cell)} is {flat[i]!r}, not {kind}")
    return column.astype(dtype)


def json_scalar(value, dtype, label: str):
    """``value`` as one ``dtype`` number, by :func:`json_column`'s rules; a
    list where the single value belongs is refused too, and the
    :class:`DataError` names ``label``."""
    column = json_column(value, dtype, label)
    if column.ndim:
        raise DataError(f"{label} is {value!r}, not {_KINDS[dtype][1]}")
    return column.item()


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
