"""The adversary's view: a complete trace of disk accesses.

Per the threat model (§3.2) the server sees *which disk locations* are read
and written and *when*, but not page contents (encrypted, fresh nonce per
write) nor the client's query (SSL).  :class:`AccessTrace` records exactly
that observable information; the empirical privacy analysis and the tracking
adversary consume it and nothing else, which keeps the simulated adversary
honest about what it could really observe.
"""

from __future__ import annotations

import threading
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError

__all__ = ["AccessEvent", "AccessTrace", "READ", "WRITE"]

READ = "read"
WRITE = "write"
_OPS = (READ, WRITE)  # column code -> op
_OP_CODES = {READ: 0, WRITE: 1}


@dataclass(frozen=True)
class AccessEvent:
    """One contiguous disk access visible to the server.

    Attributes
    ----------
    op:
        ``"read"`` or ``"write"``.
    location:
        First disk location touched.
    count:
        Number of consecutive locations in this access.
    request_index:
        Ordinal of the client request during which the access happened
        (-1 for setup-time accesses such as the initial shuffle).
    timestamp:
        Simulated time at which the access completed.
    """

    op: str
    location: int
    count: int
    request_index: int = -1
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in (READ, WRITE):
            raise ConfigurationError(f"unknown access op {self.op!r}")
        if self.location < 0 or self.count <= 0:
            raise ConfigurationError("invalid access range")

    @property
    def locations(self) -> range:
        """The contiguous range of disk locations this event covers."""
        return range(self.location, self.location + self.count)


class AccessTrace:
    """Append-only log of :class:`AccessEvent`, with analysis helpers.

    Rows are stored in typed columns — one byte for the op, 8-byte
    integers for location, count and request, an 8-byte float for the
    timestamp — about 33 bytes per access where an event object costs
    several hundred, which matters for a server that keeps its trace for
    the whole run.  :class:`AccessEvent` objects are built only when the
    trace is read.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        # One row spans five appends; the lock keeps the columns the same
        # length for a reader on another thread.
        self._lock = threading.Lock()
        self._ops = bytearray()
        self._locations = array("q")
        self._counts = array("q")
        self._requests = array("q")
        self._timestamps = array("d")

    def record(self, event: AccessEvent) -> None:
        if self.enabled:
            with self._lock:
                self._ops.append(_OP_CODES[event.op])
                self._locations.append(event.location)
                self._counts.append(event.count)
                self._requests.append(event.request_index)
                self._timestamps.append(event.timestamp)

    def clear(self) -> None:
        with self._lock:
            for column in self._columns():
                del column[:]

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[AccessEvent]:
        return iter(self.events)

    @property
    def events(self) -> List[AccessEvent]:
        return self._events()

    def _events(self, request_index: Optional[int] = None) -> List[AccessEvent]:
        """Event objects for every row, or for one request's rows."""
        return [AccessEvent(_OPS[op], location, count, request, timestamp)
                for op, location, count, request, timestamp
                in zip(*self._snapshot())
                if request_index is None or request == request_index]

    def _columns(self) -> tuple:
        return (self._ops, self._locations, self._counts, self._requests,
                self._timestamps)

    def _snapshot(self) -> tuple:
        """A consistent copy of every column (C-level copies, under lock)."""
        with self._lock:
            return tuple(column[:] for column in self._columns())

    # -- analysis helpers -------------------------------------------------------

    def events_for_request(self, request_index: int) -> List[AccessEvent]:
        """All accesses performed while serving one client request."""
        return self._events(request_index)

    def request_shape(self, request_index: int) -> List[Tuple[str, int]]:
        """The (op, count) sequence of a request — its identity-free shape.

        Two requests are indistinguishable to a shape-counting adversary iff
        this value matches; the scheme guarantees every request produces the
        same shape (see ``tests/test_trace_uniformity.py``).
        """
        return [(e.op, e.count) for e in self._events(request_index)]

    def location_read_counts(self) -> Counter:
        """How many times each individual location was read."""
        return self._location_counts(_OP_CODES[READ])

    def location_write_counts(self) -> Counter:
        """How many times each individual location was written."""
        return self._location_counts(_OP_CODES[WRITE])

    def _location_counts(self, code: int) -> Counter:
        ops, locations, counts, _, _ = self._snapshot()
        tally: Counter = Counter()
        for op, location, count in zip(ops, locations, counts):
            if op == code:
                tally.update(range(location, location + count))
        return tally

    def num_requests(self) -> int:
        """Number of distinct non-setup requests appearing in the trace."""
        return len({r for r in self._snapshot()[3] if r >= 0})

    def bytes_transferred(self, frame_size: int) -> int:
        """Total bytes moved over the disk interface, given the frame size."""
        if frame_size <= 0:
            raise ConfigurationError("frame_size must be positive")
        return sum(self._snapshot()[2]) * frame_size

    def summary(self) -> Dict[str, float]:
        ops = self._snapshot()[0]
        reads = ops.count(_OP_CODES[READ])
        return {
            "events": float(len(ops)),
            "reads": float(reads),
            "writes": float(len(ops) - reads),
            "requests": float(self.num_requests()),
        }


def shapes_identical(trace: AccessTrace, first: int, last: Optional[int] = None) -> bool:
    """True if every request in ``[first, last]`` produced the same access shape."""
    if last is None:
        last = trace.num_requests() - 1
    if last < first:
        return True
    reference = trace.request_shape(first)
    return all(trace.request_shape(i) == reference for i in range(first + 1, last + 1))
