"""The simulation kernel's event queue: a binary heap of scheduled entries.

Each pending occurrence is one ``(time, priority, eid, event)`` tuple.
The ``eid`` sequence number makes the order total and deterministic:
entries drain by time, then priority, then the order they were
scheduled in.  At the depths the paper's scenarios reach (a few hundred
pending events) ``heapq``'s ``O(log n)`` tuple comparisons, all in C,
are the cheapest order the kernel can keep.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Optional, Tuple

#: one scheduled occurrence: (time, priority, eid, event)
Entry = Tuple[float, int, int, Any]


class HeapEventQueue(list):
    """Binary-heap event queue — a ``heapq``-managed list of entries.

    Subclassing :class:`list` lets the kernel's run loop keep calling
    the C ``heappush``/``heappop`` directly on the queue object, so the
    kernel pays nothing for the abstraction.
    """

    __slots__ = ()

    def push(self, entry: Entry) -> None:
        _heappush(self, entry)

    def pop(self) -> Entry:
        """Smallest entry; raises :class:`IndexError` when empty."""
        return _heappop(self)

    def peek_entry(self) -> Optional[Entry]:
        """Smallest entry without consuming it, or ``None``."""
        return self[0] if self else None
