"""Partitions: the unit of data placement and migration (§III.B-C).

A partition is "a contiguous range of the key address space".  The total
partition count ``n`` is fixed at deployment time (it bounds the maximum
number of nodes), while instances and nodes come and go — so membership
changes *move whole partitions* instead of rehashing keys: "Migrating a
partition is as easy as moving a file, all without having to rehash the
key/value pairs stored in the partition."

Each partition wraps its own :class:`~repro.novoht.NoVoHT` store and a
small state machine:

* ``ACTIVE`` — serving requests normally.
* ``MIGRATING_OUT`` — a migration of this partition to another instance is
  in flight.  "When migration is in progress, ZHT state cannot be modified
  for the migrated partitions.  All requests are queued, until the
  migration is completed."  Mutations are queued; a failed migration
  discards the queue and reports errors, rolling back to a consistent
  state.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass

from ..novoht import NoVoHT, encode_image
from .errors import MigrationError
from .protocol import Request


class PartitionState(enum.Enum):
    ACTIVE = "active"
    MIGRATING_OUT = "migrating_out"


@dataclass
class QueuedRequest:
    """A mutation parked while its partition migrates."""

    request: Request
    #: Opaque context the transport layer uses to answer the requester
    #: once the queue drains (socket/connection for real nets, an event
    #: for the simulator).
    reply_context: object = None


class Partition:
    """One contiguous slice of the ring, with its store and migration state."""

    def __init__(
        self,
        pid: int,
        *,
        persistence_dir: str | None = None,
        checkpoint_interval_ops: int = 10_000,
        gc_dead_ratio: float = 0.5,
        max_memory_pairs: int | None = None,
        fsync: bool = False,
    ) -> None:
        self.pid = pid
        store_dir = (
            os.path.join(persistence_dir, f"partition-{pid:06d}")
            if persistence_dir
            else None
        )
        self.store = NoVoHT(
            store_dir,
            checkpoint_interval_ops=checkpoint_interval_ops,
            gc_dead_ratio=gc_dead_ratio,
            max_memory_pairs=max_memory_pairs,
            fsync=fsync,
        )
        self.state = PartitionState.ACTIVE
        self.queued: list[QueuedRequest] = []

    # ------------------------------------------------------------------
    # Migration protocol
    # ------------------------------------------------------------------

    @property
    def is_migrating(self) -> bool:
        return self.state is PartitionState.MIGRATING_OUT

    def begin_migration(self) -> None:
        if self.state is not PartitionState.ACTIVE:
            raise MigrationError(f"partition {self.pid} already migrating")
        self.state = PartitionState.MIGRATING_OUT

    def queue_request(self, item: QueuedRequest) -> None:
        if not self.is_migrating:
            raise MigrationError(f"partition {self.pid} is not migrating")
        self.queued.append(item)

    def commit_migration(self) -> list[QueuedRequest]:
        """Finish a successful migration.

        Returns the queued requests; the caller forwards them to the new
        owner (their data is no longer here).  The local store is cleared
        by installing the empty image: the content lives on the receiver now.
        """
        if not self.is_migrating:
            raise MigrationError(f"partition {self.pid} is not migrating")
        queued, self.queued = self.queued, []
        self.state = PartitionState.ACTIVE
        self.store.install(encode_image(()))
        return queued

    def abort_migration(self) -> list[QueuedRequest]:
        """Roll back a failed migration.

        "If failure occurs during migration, simply don't apply the changes
        (in terms of discarding the queued requests and reporting error to
        clients)."  Returns the discarded queue so the transport can send
        each requester an error.
        """
        if not self.is_migrating:
            raise MigrationError(f"partition {self.pid} is not migrating")
        queued, self.queued = self.queued, []
        self.state = PartitionState.ACTIVE
        return queued

    def close(self) -> None:
        self.store.close()
