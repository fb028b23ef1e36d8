"""FIFO queue of freed blocks with a byte quota.

Both sides of the system defer buffer reuse this way:

* the **offline analyzer** quarantines *every* freed buffer (2 GiB quota
  by default) so use-after-free accesses hit still-poisoned memory and are
  detected (paper Section V), and
* the **online defense** quarantines only buffers whose allocation context
  matched a use-after-free patch, which — for the same quota — keeps each
  block quarantined far longer, raising the attacker's reuse-uncertainty
  entropy (paper Section VI).

Eviction is strictly FIFO: pushing a block returns whichever old blocks
fell out of quota; the caller then really releases them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, List, Optional, Set


@dataclass(frozen=True)
class FreedBlock:
    """One deferred-free entry."""

    address: int
    size: int
    #: Caller-defined payload (e.g. the analyzer's buffer record).
    payload: Any = None


class FreedBlockQueue:
    """Byte-quota-bounded FIFO of freed blocks."""

    def __init__(self, quota_bytes: int) -> None:
        if quota_bytes <= 0:
            raise ValueError("quota must be positive")
        self.quota_bytes = quota_bytes
        self._queue: Deque[FreedBlock] = deque()
        self._held_bytes = 0
        #: Addresses of the queued blocks (each is queued at most once).
        self._addresses: Set[int] = set()
        #: Lifetime counters for reports.
        self.pushed = 0
        self.evicted = 0

    def push(self, block: FreedBlock) -> List[FreedBlock]:
        """Enqueue ``block``; return blocks evicted to stay within quota.

        A block larger than the whole quota is returned immediately (it
        cannot be held), matching the overflow discussion in Section IX.
        """
        self.pushed += 1
        if block.size > self.quota_bytes:
            self.evicted += 1
            return [block]
        self._queue.append(block)
        self._addresses.add(block.address)
        self._held_bytes += block.size
        evictions: List[FreedBlock] = []
        while self._held_bytes > self.quota_bytes:
            old = self._queue.popleft()
            self._addresses.discard(old.address)
            self._held_bytes -= old.size
            self.evicted += 1
            evictions.append(old)
        return evictions

    def fork(self) -> "FreedBlockQueue":
        """A queue holding the same blocks and counters (the blocks are
        immutable and shared; the containers are copied)."""
        twin = FreedBlockQueue(self.quota_bytes)
        twin._queue.extend(self._queue)
        twin._held_bytes = self._held_bytes
        twin._addresses.update(self._addresses)
        twin.pushed = self.pushed
        twin.evicted = self.evicted
        return twin

    def drain(self) -> List[FreedBlock]:
        """Remove and return everything (process teardown)."""
        drained = list(self._queue)
        self._queue.clear()
        self._addresses.clear()
        self._held_bytes = 0
        return drained

    def blocks(self) -> List[FreedBlock]:
        """Non-destructive snapshot, oldest first (for inspection)."""
        return list(self._queue)

    def __contains__(self, address: int) -> bool:
        return address in self._addresses

    def find(self, address: int) -> Optional[FreedBlock]:
        """The queued block at ``address``, if still quarantined."""
        for block in self._queue:
            if block.address == address:
                return block
        return None

    @property
    def held_bytes(self) -> int:
        """Bytes currently quarantined."""
        return self._held_bytes

    def __len__(self) -> int:
        return len(self._queue)
