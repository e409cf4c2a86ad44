"""Exception types shared across the toolkit.

Frame numbers attached to errors are 1-based throughout.
"""

import sys


class TrackbenchError(Exception):
    """Base class for all toolkit errors."""


class _FrameError(TrackbenchError):
    """An error about one frame's data; `frame` prefixes the message when given."""

    def __init__(self, message: str, frame: int | None = None):
        super().__init__(message if frame is None else f"frame {frame}: {message}")
        self.frame = frame


class InvalidRegionError(_FrameError):
    """A region has non-finite coordinates or negative extent."""


class LengthMismatchError(TrackbenchError):
    """Paired per-frame data have different lengths."""


class DegenerateAnnotationError(_FrameError):
    """A ground-truth region is unusable for the requested computation."""


class EmptySeriesError(TrackbenchError):
    """An aggregate was requested over an empty series."""


class MeasureDomainError(TrackbenchError):
    """An input value lies outside the measure's domain."""


class FragmentationUndefinedError(TrackbenchError):
    """Failure fragmentation needs at least two failures."""


class MalformedRecordError(TrackbenchError):
    """A supervised run record violates its structural invariants."""


class ParseError(TrackbenchError):
    """A data file could not be parsed."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        where = "" if path is None else str(path)
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}" if where else message)
        self.path = path
        self.line = line


class FormatVersionError(ParseError):
    """A versioned file carries a missing or unsupported format header."""


class RunError(TrackbenchError):
    """A tracker evaluation run could not be completed.

    Carries the 1-based frame number being processed; 0 means the
    handshake stage before any frame was issued.
    """

    kind = "run-error"

    def __init__(self, message: str, frame: int = 0):
        super().__init__(f"{self.kind} at frame {frame}: {message}")
        self.frame = frame


class ProtocolViolationError(RunError):
    kind = "protocol-violation"


class TrackerTimeoutError(RunError):
    kind = "timeout"


class PrematureExitError(RunError):
    kind = "premature-exit"


class InsufficientSamplesError(TrackbenchError):
    """Not enough rows for the requested statistic."""


class ClusterDomainError(TrackbenchError):
    """Clustering input cannot support the requested cluster count."""


class ConfigError(TrackbenchError):
    """Invalid configuration or command usage."""


def exit_status(e: TrackbenchError | OSError) -> int:
    """Print one `error:` line for e to stderr; return the exit status.

    2 for a usage error, which includes a missing input file
    (ConfigError, FileNotFoundError); 1 for any other toolkit or
    operating-system error.
    """
    print(f"error: {e}", file=sys.stderr)
    return 2 if isinstance(e, (ConfigError, FileNotFoundError)) else 1
