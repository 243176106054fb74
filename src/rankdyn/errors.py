"""Exception hierarchy shared across the library."""


class RankdynError(Exception):
    """Base class for all library errors."""


class FormatError(RankdynError):
    """HSMX format violation at a byte offset; None for an in-memory matrix."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


class BadMagic(FormatError):
    pass


class UnsupportedVersion(FormatError):
    pass


class TruncatedPayload(FormatError):
    pass


class NonFiniteValue(FormatError):
    pass


class DimensionMismatch(RankdynError):
    pass


class DegenerateMatrix(RankdynError):
    pass


class TrajectoryTooShort(RankdynError):
    pass


class SeriesTooShort(RankdynError):
    pass


class TooFewRows(RankdynError):
    pass


class GroupTooSmall(RankdynError):
    pass


class ManifestError(RankdynError):
    pass


class WorkerDied(RankdynError):
    """A forked metric worker ended with a nonzero exit code."""
