"""Exception types shared across the package, and the key check of its JSON
readers."""


class G2sfError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(G2sfError, ValueError):
    """Operands have incompatible dimensions."""


class ConfigError(G2sfError, ValueError):
    """A configuration value is invalid or inconsistent."""


class FormatError(G2sfError, ValueError):
    """An on-disk artifact is malformed.

    ``offset`` is the byte offset of the first offending byte when known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def check_keys(what, entry, required, optional=()):
    """``entry`` if it is a JSON object with every ``required`` key and none
    beyond ``optional``; else :class:`FormatError` naming ``what`` and the key."""
    if not isinstance(entry, dict):
        raise FormatError(f"{what} is not a JSON object")
    keys = [f"is without key {key!r}" for key in required if key not in entry]
    keys += [f"has unknown key {key!r}" for key in sorted(entry.keys() - {*required, *optional})]
    if keys:
        raise FormatError(f"{what} {' and '.join(keys)}")
    return entry


class EmptyBankError(G2sfError, ValueError):
    """A memory bank was built from, or queried with, no usable vectors."""


class DivergenceError(G2sfError, RuntimeError):
    """Training produced a non-finite quantity. The message names the epoch;
    the error carries no model state."""


class UndefinedMetricError(G2sfError, ValueError):
    """A metric is mathematically undefined for the given inputs."""


class StaleArtifactError(G2sfError, RuntimeError):
    """A pipeline stage would consume an out-of-date upstream artifact."""
