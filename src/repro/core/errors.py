"""Error types and wire-level status codes for ZHT.

The C++ ZHT returns integer status codes from every operation (0 for
success, non-zero with error information otherwise).  We mirror that on
the wire — every response message carries a :class:`Status` — and expose
idiomatic Python exceptions at the client API boundary.
"""

from __future__ import annotations

import enum


class Status(enum.IntEnum):
    """Wire-level status codes carried in every ZHT response.

    ``OK`` is zero, matching the paper's "Integer return values return 0
    for a successful operation, or a non-zero return code that includes
    information about the error that occurred."
    """

    OK = 0
    KEY_NOT_FOUND = 1
    #: The receiving instance no longer owns the partition; the response
    #: carries the new owner so the client can lazily refresh membership.
    REDIRECT = 2
    #: The partition is mid-migration; the request was queued (or, for a
    #: failed migration, dropped) — see §III.C "Data Migration".
    MIGRATING = 3
    #: The server rejected a malformed or unknown request.
    BAD_REQUEST = 4
    #: Value exceeds a configured maximum (used by the memcached baseline
    #: and by ZHT when a size cap is configured).
    VALUE_TOO_LARGE = 5
    KEY_TOO_LARGE = 6
    #: Internal persistence failure (NoVoHT WAL/checkpoint error).
    STORE_ERROR = 7
    #: Replication to the synchronous (secondary) replica failed.
    REPLICATION_ERROR = 8
    #: Node marked dead by failure detector.
    NODE_DEAD = 9
    #: Operation not supported by this store (e.g. append on memcached).
    UNSUPPORTED = 10
    #: Membership epoch in the request was newer than the server's view.
    STALE_SERVER = 11  # reserved: epoch-push (server behind client) is not implemented yet
    TIMEOUT = 12
    #: Admission control shed the request: the server's bounded in-flight
    #: queue is full.  An explicit overload signal — *not* a timeout — so
    #: clients back off (with jitter) instead of counting it against the
    #: failure detector.
    RETRY_LATER = 13
    #: The request's propagated deadline had already expired on arrival;
    #: the server refused to do dead work the client has given up on.
    DEADLINE_EXCEEDED = 14


class ZHTError(Exception):
    """Base class for all ZHT exceptions."""

    status: Status = Status.BAD_REQUEST

    def __init__(self, message: str = "", *, status: Status | None = None) -> None:
        super().__init__(message or self.__class__.__name__)
        if status is not None:
            self.status = status


class KeyNotFound(ZHTError, KeyError):
    """Raised by ``lookup``/``remove`` when the key does not exist."""

    status = Status.KEY_NOT_FOUND


class RequestTimeout(ZHTError, TimeoutError):
    """A request exhausted its retry/backoff budget without a response."""

    status = Status.TIMEOUT


class NodeDeadError(ZHTError):
    """All replicas for the key's partition are marked dead."""

    status = Status.NODE_DEAD


class ServerOverloaded(ZHTError):
    """The server shed the request under admission control (RETRY_LATER).

    Raised only after the client's retry/backoff budget is exhausted while
    the server keeps shedding; a single RETRY_LATER response is absorbed by
    the retry loop with full-jitter backoff.
    """

    status = Status.RETRY_LATER


class DeadlineExceeded(ZHTError, TimeoutError):
    """The operation's propagated deadline expired before it completed."""

    status = Status.DEADLINE_EXCEEDED


class ValueTooLarge(ZHTError, ValueError):
    status = Status.VALUE_TOO_LARGE


class KeyTooLarge(ZHTError, ValueError):
    status = Status.KEY_TOO_LARGE


class StoreError(ZHTError):
    """Persistence-layer failure (WAL write, checkpoint, recovery)."""

    status = Status.STORE_ERROR


class ReplicationError(ZHTError):
    status = Status.REPLICATION_ERROR


class UnsupportedOperation(ZHTError, NotImplementedError):
    status = Status.UNSUPPORTED


class MembershipError(ZHTError):
    """Invalid membership transition (e.g. duplicate join, unknown node)."""


class MigrationError(ZHTError):
    """Partition migration failed; system rolled back to consistent state."""

    status = Status.MIGRATING


class ProtocolError(ZHTError):
    """Malformed wire message."""

    status = Status.BAD_REQUEST


#: Map wire statuses to the exception types a client should raise.
STATUS_TO_EXCEPTION: dict[Status, type[ZHTError]] = {
    Status.KEY_NOT_FOUND: KeyNotFound,
    Status.VALUE_TOO_LARGE: ValueTooLarge,
    Status.KEY_TOO_LARGE: KeyTooLarge,
    Status.STORE_ERROR: StoreError,
    Status.REPLICATION_ERROR: ReplicationError,
    Status.NODE_DEAD: NodeDeadError,
    Status.UNSUPPORTED: UnsupportedOperation,
    Status.TIMEOUT: RequestTimeout,
    Status.BAD_REQUEST: ProtocolError,
    Status.RETRY_LATER: ServerOverloaded,
    Status.DEADLINE_EXCEEDED: DeadlineExceeded,
}

#: Statuses that are pure client-side control flow: the retry loop consumes
#: them (re-route, wait, fail over) and they must never surface to callers
#: via :func:`raise_for_status`.
CONTROL_FLOW_STATUSES: frozenset[Status] = frozenset(
    {Status.REDIRECT, Status.MIGRATING}
)


def raise_for_status(status: Status, message: str = "") -> None:
    """Raise the canonical exception for a non-OK *status*.

    ``REDIRECT`` and ``MIGRATING`` are control-flow statuses handled inside
    the client retry loop and are never surfaced; passing them here is a
    programming error and raises :class:`ProtocolError`.
    """
    if status == Status.OK:
        return
    if status in CONTROL_FLOW_STATUSES:
        raise ProtocolError(
            f"control-flow status {status.name} leaked past the retry loop",
            status=status,
        )
    exc = STATUS_TO_EXCEPTION.get(status, ProtocolError)
    raise exc(message or status.name, status=status)
