"""Exception types shared across the library.

Plain ``ValueError`` is used for ordinary argument and domain errors; the
classes here exist so callers (and the command line front end) can tell
apart parse failures, schema mismatches, and work-cap exhaustion.
:func:`capped` runs one step of a record whose fields may each be cut
short by a work cap.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

T = TypeVar("T")


class ParseError(ValueError):
    """Input text failed to parse.  Carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FormatError(ValueError):
    """Structured record data did not match the expected schema."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ResourceCapError(RuntimeError):
    """A configured work cap was exceeded before the operation finished.

    ``best`` reports the largest fully verified level for staged searches
    (for example the last neighborliness level that was checked completely),
    ``partial_count`` reports how far a construction got before the cap hit.
    """

    def __init__(self, message: str, *, best: int | None = None,
                 partial_count: int | None = None):
        super().__init__(message)
        self.best = best
        self.partial_count = partial_count


def capped(failures: list[tuple[str, ResourceCapError]], name: str,
           compute: Callable[[], T]) -> Optional[T]:
    """``compute()``, or None after appending ``(name, error)`` to
    ``failures`` when a work cap stops it."""
    try:
        return compute()
    except ResourceCapError as err:
        failures.append((name, err))
        return None
