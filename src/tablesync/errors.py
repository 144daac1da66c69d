"""Exception hierarchy shared across the package."""

from __future__ import annotations


class TableSyncError(Exception):
    """Base class for every error raised by this package."""


# table / graph parsing


class NoTableFound(TableSyncError):
    """No balanced list-of-pairs candidate in the text."""


class MalformedRow(TableSyncError):
    """A balanced candidate was found but some element is not a 2-list of text."""


class NoGraphFound(TableSyncError):
    """No balanced nested-map candidate in the text."""


class InvalidValue(TableSyncError):
    """A graph candidate contains an empty key or an unsupported value."""


class EmptyKey(TableSyncError):
    """Key text is empty or whitespace-only."""


# completion gateway


class BackendUnavailable(TableSyncError):
    """Backend could not be reached after retries."""


class RateLimited(TableSyncError):
    """Backend kept rate-limiting after retries."""


class ReplayMiss(TableSyncError):
    """Replay backend has no recorded response for the request digest."""


class Truncated(TableSyncError):
    """The backend cut the answer at the request's max_tokens."""


# alignment and evaluation


class UniverseMismatch(TableSyncError):
    """Two alignments do not share the same key universe."""


class ComparisonFailed(TableSyncError):
    """Atomic comparison output could not be parsed after a retry."""


class OverlappingFacts(TableSyncError):
    """One fact text is in two fact lists of a row comparison."""


# synchronization pipeline


class StageFailed(TableSyncError):
    """One instance failed in a pipeline stage, "load" or "evaluate".

    A pipeline stage failure keeps the traces collected so far.
    """

    def __init__(self, stage: str, cause: Exception | str, traces: tuple = ()) -> None:
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause
        self.traces = tuple(traces)


# dataset loading and revision fetching


class MissingFile(TableSyncError):
    """A required instance file is absent."""


class LanguageConstraintViolation(TableSyncError):
    """Instance languages violate the source/reference/gold constraints."""


class ParseError(TableSyncError):
    """An instance file exists but does not parse."""


class PageNotFound(TableSyncError):
    """No page or no revision at or before the requested timestamp."""


class NoInfobox(TableSyncError):
    """The fetched revision contains no infobox template."""


class NetworkError(TableSyncError):
    """Transport-level failure while talking to the wiki API."""


# command line


class ConfigError(TableSyncError):
    """Invalid or inconsistent run configuration."""
