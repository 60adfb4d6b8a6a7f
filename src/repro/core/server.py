"""ZHT server core — transport-agnostic request handling.

This module is deliberately **sans-I/O**: :class:`ZHTServerCore` maps an
incoming :class:`~repro.core.protocol.Request` to a
:class:`HandleResult` describing the local response plus any outbound
server-to-server traffic (replica updates, forwarded queued requests).
The real event-driven runtime (:mod:`repro.net`) and the discrete-event
simulator (:mod:`repro.sim`) both wrap this same core, so protocol
semantics are implemented — and tested — exactly once.

Request handling implements the paper's semantics:

* zero-hop ownership check with ``REDIRECT`` + piggybacked membership for
  stale clients (lazy client update, §III.C "Client Side State");
* queuing of requests against migrating partitions (§III.C "Data
  Migration");
* replica chains with a strongly-consistent secondary and asynchronous
  further replicas (§III.J "Consistency");
* replica-side reads/writes for failover ("queries asking for data that
  were on the failed node will be answered by the replicas", §III.H).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Callable, Sequence

from ..novoht import NoVoHT
from ..obs import NULL_SPAN, REGISTRY, PartitionLoadTracker, metrics_snapshot
from .config import ReplicationMode, ZHTConfig
from .errors import KeyNotFound, MigrationError, Status, ZHTError
from .hashing import partition_of, partitions_of
from .membership import Address, InstanceInfo, MembershipTable
from .partition import Partition, PartitionState, QueuedRequest
from .protocol import (
    OpCode,
    Request,
    Response,
    pack_batch,
    pack_request,
    pack_response,
    parse_batch,
    parse_request,
    request_fields,
)

#: Sub-answers ``(status, value, redirect)`` that are a status and nothing else.
_OK, _KEY_NOT_FOUND, _MIGRATING, _BAD_REQUEST, _KEY_TOO_LARGE, _VALUE_TOO_LARGE = (
    (status, b"", b"")
    for status in (
        Status.OK, Status.KEY_NOT_FOUND, Status.MIGRATING, Status.BAD_REQUEST,
        Status.KEY_TOO_LARGE, Status.VALUE_TOO_LARGE,
    )
)
#: Enum members read per sub, bound once: reading a member through its
#: class is a metaclass lookup (~0.1 µs).
_REPLICA_UPDATE, _LOOKUP, _BATCH = OpCode.REPLICA_UPDATE, OpCode.LOOKUP, OpCode.BATCH
_STATUS_OK, _REDIRECT, _STATUS_BAD_REQUEST = Status.OK, Status.REDIRECT, Status.BAD_REQUEST
_MIGRATING_OUT = PartitionState.MIGRATING_OUT
_SYNC, _ASYNC = ReplicationMode.SYNC, ReplicationMode.ASYNC
#: The index list of a group of one.
_FIRST = (0,)

#: Client op → NoVoHT batch-op kind.
_CLIENT_KINDS = {OpCode.INSERT: "put", OpCode.LOOKUP: "get", OpCode.REMOVE: "remove",
                 OpCode.APPEND: "append"}
#: REPLICA_UPDATE inner op → kind: a chain carries mutations only.
_REPLICA_KINDS = {op: kind for op, kind in _CLIENT_KINDS.items() if kind != "get"}
#: Batch-op kind → the counter a served client op of that kind bumps.
_KIND_STATS = {"put": "inserts", "get": "lookups", "remove": "removes", "append": "appends"}
#: Client op → the counter a served one bumps.
_OP_STATS = {op: _KIND_STATS[kind] for op, kind in _CLIENT_KINDS.items()}
#: Point op → the counter a served one bumps.
_POINT_STATS = {**_OP_STATS, OpCode.REPLICA_UPDATE: "replica_updates"}
#: Client ops whose key and value the size limits cover.
_SIZED = frozenset({OpCode.INSERT, OpCode.APPEND})
#: Ops subject to admission control.  Server-to-server traffic
#: (replica updates, migration, membership, probes) must never be
#: shed: dropping a replica update breaks the consistency contract,
#: and shedding PING would make overload look like death.
_ADMITTED_OPS = frozenset({*_CLIENT_KINDS, OpCode.BATCH})


#: Per-instance operation counters (``core.stats.<field>``; process
#: totals are ``server.<field>``).  Declaring a new server counter is one
#: more entry here.
SERVER_COUNTERS = (
    "inserts",
    "lookups",
    "removes",
    "appends",
    #: BATCH requests handled and sub-operations carried by them.
    "batches",
    "batch_sub_ops",
    "redirects",
    "queued",
    "replica_updates",
    "migrations_in",
    "migrations_out",
    #: Store-image bytes MIGRATE_BEGIN produced / MIGRATE_DATA installed.
    "migration_bytes_out",
    "migration_bytes_in",
    "membership_updates",
    #: Requests shed on arrival because their propagated deadline had
    #: already expired (doing the work would be wasted effort).
    "shed_expired",
    #: Requests shed with RETRY_LATER because the bounded in-flight
    #: admission queue was full.
    "shed_overload",
)


class ReplicationSequencer:
    """Server-wide FIFO release order for outgoing replica updates.

    A mutation's store apply and its ticket grab happen inside the same
    store critical section, so per partition the ticket order equals the
    apply order; transports then release each result's replica sends in
    ticket order.  Without this, concurrent mutations applied A-then-B by
    the primary can reach the secondary B-then-A (the sends run on
    whatever thread finishes planning first), and a failover that
    promotes the secondary surfaces the divergence as a non-linearizable
    history — concurrent appends are where it bites, since their replica
    updates carry deltas whose arrival order IS the replica's value.

    ``wait_turn`` times out rather than wedging the chain: if an earlier
    ticket's sends stall past the peer timeout, later sends proceed
    unordered (the stalled peer is about to be declared dead anyway).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        #: Tickets in issue order: ``next`` is one C call, atomic under the GIL.
        self._tickets = itertools.count()
        self._served = 0
        self._retired: set[int] = set()

    def ticket(self) -> int:
        return next(self._tickets)

    def reticket(self, old: int | None) -> int:
        """Trade *old* for a fresh (later) ticket.

        Each replicated partition group re-tickets under its store lock,
        so the result's final ticket is ordered after every concurrent
        mutation of every partition a batch touched, while never holding
        more than one live ticket (which keeps the release order
        deadlock-free).
        """
        fresh = next(self._tickets)
        if old is not None:
            self.retire(old)
        return fresh

    def wait_turn(self, ticket: int, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._served < ticket:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self._cond.wait(remaining)

    def retire(self, ticket: int) -> None:
        with self._cond:
            self._retired.add(ticket)
            while self._served in self._retired:
                self._retired.remove(self._served)
                self._served += 1
            self._cond.notify_all()


class HandleResult:
    """Outcome of handling one request.

    ``response`` is ``None`` when the request was queued behind a
    migration — the transport must remember the requester and answer when
    the queue drains (via ``forwards`` of a later commit/abort).  The
    effect fields default to empty on the class, so a result with no
    effects — most of them — stores its response and nothing else.  The
    runtimes read only ``effects``: when it is set they step
    :func:`~repro.core.loops.effect_loop`, the one reader of the rest.
    """

    #: Set once any field below is: the result has effects to run.
    effects = False

    #: Replica updates that must be acknowledged *before* the response is
    #: released to the client (the strongly-consistent secondary, plus all
    #: replicas in SYNC mode).
    sync_sends: Sequence[tuple[Address, Request]] = ()
    #: Fire-and-forget replica updates (asynchronous replicas).
    async_sends: Sequence[tuple[Address, Request]] = ()
    #: Queued client requests to forward to a partition's new owner after
    #: a migration commit.
    forwards: Sequence[tuple[Address, QueuedRequest]] = ()
    #: Queued requests to fail (answered with MIGRATING) after an abort.
    failed_queued: Sequence[QueuedRequest] = ()
    #: When set, the transport must release this result's replica sends
    #: in ticket order (and retire the ticket afterwards, even if no
    #: sends were planned).
    repl_sequencer: ReplicationSequencer | None = None
    repl_ticket: int | None = None

    def __init__(self, response: Response | None) -> None:
        self.response = response

    def add_sends(self, plan: Sequence[tuple[Address, Request, bool]]) -> None:
        """Split ``(address, update, sync?)`` into the two send lists."""
        sync: list[tuple[Address, Request]] = []
        async_: list[tuple[Address, Request]] = []
        for address, update, is_sync in plan:
            (sync if is_sync else async_).append((address, update))
        self.sync_sends, self.async_sends = sync, async_
        self.effects = True


class ZHTServerCore:
    """State machine for one ZHT instance.

    Parameters
    ----------
    info:
        This instance's identity/address in the membership table.
    membership:
        The instance's (mutable) view of the membership table.
    config:
        Deployment configuration.
    """

    def __init__(
        self,
        info: InstanceInfo,
        membership: MembershipTable,
        config: ZHTConfig | None = None,
        *,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.info = info
        self.membership = membership
        self.config = config or ZHTConfig()
        self.partitions: dict[int, Partition] = {}
        self.stats = REGISTRY.counter_set("server", SERVER_COUNTERS)
        self.repl_sequencer = ReplicationSequencer()
        #: Wall-clock source for deadline checks (simulator injects its
        #: virtual clock).
        self.clock = clock
        #: One entry per client request between admission and the end of
        #: dispatch; bounded by ``config.max_inflight``.  ``append`` /
        #: ``pop`` / ``len`` are each atomic under the GIL, so the tally
        #: needs no lock.
        self._inflight: list[None] = []
        #: Optional extra load source counted against the admission bound —
        #: event-driven transports report queued-but-not-yet-dispatched
        #: work here so backpressure sees the true backlog, not just the
        #: requests inside ``handle``.
        self.extra_inflight: Callable[[], int] | None = None
        #: Node-local store for broadcast pairs (every instance holds a
        #: full copy of broadcast data; it is outside the partition space).
        self.broadcast_store = NoVoHT(None)
        #: Per-partition request accounting; surfaced via the STATS op so
        #: operators can see Zipf hot partitions (rate + imbalance ratio).
        self.partition_load = PartitionLoadTracker()
        #: Set by event-driven transports: store maintenance (checkpoint,
        #: WAL GC) hops through this submit callable instead of running
        #: on the thread that tripped the threshold — see
        #: :meth:`set_maintenance_executor`.
        self._maint_submit: Callable[[Callable[[], None]], object] | None = None

    # ------------------------------------------------------------------
    # Partition access
    # ------------------------------------------------------------------

    def partition(self, pid: int) -> Partition:
        """The local :class:`Partition` for *pid*, created lazily.

        Replica data for partitions this instance does not own lives in
        the same per-pid stores; ownership is a membership-table property,
        not a storage one (which is what makes migration "moving a file").
        """
        part = self.partitions.get(pid)
        if part is None:
            cfg = self.config
            pdir = (
                f"{cfg.persistence_dir}/instance-{self.info.instance_id[:8]}"
                if cfg.persistence_dir
                else None
            )
            part = Partition(
                pid,
                persistence_dir=pdir,
                checkpoint_interval_ops=cfg.checkpoint_interval_ops,
                gc_dead_ratio=cfg.gc_dead_ratio,
                fsync=cfg.wal_fsync,
            )
            if self._maint_submit is not None:
                part.store.set_maintenance_executor(self._maint_submit)
            # Racing first touches (local callers' threads) must agree on
            # one partition, or the loser's writes vanish with its copy.
            part = self.partitions.setdefault(pid, part)
        return part

    def set_maintenance_executor(
        self, submit: "Callable[[Callable[[], None]], object] | None"
    ) -> None:
        """Route every store's maintenance passes through *submit*.

        An event-loop transport applies mutations inline on its selector
        thread; a checkpoint tripped there would serialize and fsync the
        whole table on the loop.  Applies to current partitions and to
        any created later.
        """
        self._maint_submit = submit
        for part in self.partitions.values():
            part.store.set_maintenance_executor(submit)
        self.broadcast_store.set_maintenance_executor(submit)

    def owns(self, pid: int) -> bool:
        return self.membership.partition_owner[pid] == self.info.instance_id

    def owned_partitions(self) -> list[int]:
        return self.membership.partitions_of_instance(self.info.instance_id)

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    def handle(self, request: Request, reply_context: object = None) -> HandleResult:
        """Process one request; never raises for protocol-level errors.

        A client op is admitted first: one whose propagated deadline has
        passed is shed with DEADLINE_EXCEEDED, and one arriving while the
        backlog is at ``config.max_inflight`` with RETRY_LATER.
        """
        with REGISTRY.span("server.handle") if REGISTRY.enabled else NULL_SPAN:
            op = request.op
            if op not in _ADMITTED_OPS:
                return self._dispatch(request, reply_context)
            deadline_us = request.deadline_us
            if deadline_us and self.clock() * 1e6 > deadline_us:
                return self._shed(request, Status.DEADLINE_EXCEEDED, "shed_expired")
            inflight = self._inflight
            limit = self.config.max_inflight
            if limit:
                backlog = len(inflight)
                if self.extra_inflight is not None:
                    backlog += self.extra_inflight()
                if backlog >= limit:
                    return self._shed(request, Status.RETRY_LATER, "shed_overload")
            inflight.append(None)
            try:
                # The admitted ops are BATCH and the four point ops.
                if op is _BATCH:
                    return self._handle_batch(request)
                return self._handle_point(request, reply_context)
            finally:
                inflight.pop()

    def _shed(self, request: Request, status: Status, counter: str) -> HandleResult:
        """A client op refused at admission.  The response is built
        directly — no membership piggyback, no store access — so the shed
        path stays O(1) no matter how overloaded the server is."""
        self.stats.inc(counter)
        return HandleResult(
            Response(status, b"", request.request_id, self.membership.epoch, b"", b"", int(request.op))
        )

    def _dispatch(self, request: Request, reply_context: object) -> HandleResult:
        op = request.op
        if op == OpCode.REPLICA_UPDATE:
            return self._handle_point(request, reply_context)
        if op in (OpCode.INSERT, OpCode.LOOKUP, OpCode.REMOVE, OpCode.APPEND):
            return self._handle_point(request, reply_context)
        if op == OpCode.MIGRATE_BEGIN:
            return self._handle_migrate_begin(request)
        if op == OpCode.MIGRATE_DATA:
            return self._handle_migrate_data(request)
        if op == OpCode.MIGRATE_COMMIT:
            return self._handle_migrate_commit(request)
        if op == OpCode.MEMBERSHIP_UPDATE:
            return self._handle_membership_update(request)
        if op == OpCode.GET_MEMBERSHIP:
            return HandleResult(self._respond(request, Status.OK, membership=True))
        if op == OpCode.BROADCAST:
            return self._handle_broadcast(request)
        if op == OpCode.LOOKUP_LOCAL:
            return self._handle_lookup_local(request)
        if op == OpCode.PING:
            return HandleResult(self._respond(request, Status.OK))
        if op == OpCode.STATS:
            return self._handle_stats(request)
        if op == OpCode.BATCH:
            return self._handle_batch(request)
        return HandleResult(self._respond(request, Status.BAD_REQUEST))

    def _handle_stats(self, request: Request) -> HandleResult:
        """Dump this process's metrics snapshot plus per-instance stats.

        The snapshot is process-wide (one registry per process); the
        ``instance`` block scopes it to the serving instance so callers
        polling every server of an in-process test cluster can still
        attribute per-instance counters.
        """
        snapshot = metrics_snapshot()
        snapshot["instance"] = {
            "instance_id": self.info.instance_id,
            "node_id": self.info.node_id,
            "address": str(self.info.address),
            "stats": self.stats.as_dict(),
            "partitions": len(self.partitions),
            "pairs": sum(len(p.store) for p in self.partitions.values()),
            "transport": self.config.transport,
            "partition_load": self.partition_load.snapshot(),
        }
        payload = json.dumps(snapshot, sort_keys=True).encode()
        return HandleResult(self._respond(request, Status.OK, value=payload))

    # ------------------------------------------------------------------
    # Broadcast (§VI future work: spanning-tree dissemination)
    # ------------------------------------------------------------------

    def _handle_broadcast(self, request: Request) -> HandleResult:
        from .broadcast import decode_subtree, encode_subtree, split_subtree

        self.broadcast_store.put(request.key, request.value)
        result = HandleResult(self._respond(request, Status.OK))
        subtree = decode_subtree(request.payload)
        # The payload lists this instance's subtree (self first); forward
        # to each child subtree's head, fire-and-forget.
        sends: list[tuple[Address, Request]] = []
        result.async_sends = sends
        result.effects = True
        for child in split_subtree(subtree):
            sends.append(
                (
                    child[0],
                    Request(
                        op=OpCode.BROADCAST,
                        key=request.key,
                        value=request.value,
                        request_id=request.request_id,
                        epoch=self.membership.epoch,
                        payload=encode_subtree(child),
                    ),
                )
            )
        return result

    def _handle_lookup_local(self, request: Request) -> HandleResult:
        try:
            value = self.broadcast_store.get(request.key)
        except KeyNotFound:
            return HandleResult(self._respond(request, Status.KEY_NOT_FOUND))
        return HandleResult(self._respond(request, Status.OK, value=value))

    # ------------------------------------------------------------------
    # Client operations and replica updates: groups of subs on a partition
    # ------------------------------------------------------------------

    #: The op tables (module constants above), as the batch path reads them.
    _BATCH_KINDS, _BATCH_STATS, _OP_STATS = _CLIENT_KINDS, _KIND_STATS, _OP_STATS

    def _replica_update_ok(self, inner_op: int, pid: int) -> bool:
        """A REPLICA_UPDATE is peer input: it is served only when it
        carries a mutation for a partition that exists."""
        return inner_op in _REPLICA_KINDS and pid < self.membership.num_partitions

    def _handle_point(self, request: Request, reply_context: object) -> HandleResult:
        """One client op or REPLICA_UPDATE, served as a group of one.  Only
        the envelope differs from a BATCH sub: a client op against a frozen
        partition is parked until the migration ends (§III.C "All requests
        are queued"), and each replica update leaves as its own message."""
        op = request.op
        if op is _REPLICA_UPDATE:
            pid = request.partition
            if not self._replica_update_ok(request.inner_op, pid):
                return HandleResult(self._respond(request, Status.BAD_REQUEST))
        else:
            pid = partition_of(request.key, self.membership.num_partitions, self.config.hash_name)
        answers = [_BAD_REQUEST]
        result = HandleResult(None)
        plan: list[tuple[Address, tuple, bool]] = []
        self._serve_group(pid, (request_fields(request),), _FIRST, answers, result, plan)
        answer = answers[0]
        status = answer[0]
        if status is _STATUS_OK:
            self.stats.inc(_POINT_STATS[op])
        elif op is _REPLICA_UPDATE:
            self.stats.inc("replica_updates")
        elif status is _REDIRECT:
            self.stats.inc("redirects")
        elif answer is _MIGRATING:
            try:
                self.partitions[pid].queue_request(QueuedRequest(request, reply_context))
            except MigrationError:
                pass  # released since the group looked: answer MIGRATING
            else:
                self.stats.inc("queued")
                return result
        result.response = self._respond(request, *answer)
        if plan:
            result.add_sends([(address, Request(*update), sync) for address, update, sync in plan])
        return result

    def _handle_batch(self, request: Request) -> HandleResult:
        """Serve N framed sub-requests from one message.

        One round trip carries the whole batch; per partition, all
        mutations land in a single NoVoHT/WAL group commit; replica
        fan-out is re-batched per peer (one BATCH of REPLICA_UPDATEs per
        destination instead of one message per key).

        Per-key semantics: every sub-request gets its own sub-response
        with its own status — a missing key fails only its entry, and
        sub-requests for partitions this instance does not own get
        per-key REDIRECTs (with the membership table piggybacked on the
        outer response) so a stale client re-plans only the affected
        sub-batch.  Sub-requests against a migrating partition answer
        MIGRATING (retry-after-backoff) instead of queuing, so one
        locked partition cannot stall its batch-siblings' responses.
        """
        with REGISTRY.span("server.handle_batch") if REGISTRY.enabled else NULL_SPAN:
            return self._handle_batch_inner(request)

    def _handle_batch_inner(self, request: Request) -> HandleResult:
        try:
            subs = parse_batch(parse_request, request.payload)
        except ZHTError:
            return HandleResult(self._respond(request, Status.BAD_REQUEST))
        num_partitions, hash_name = self.membership.num_partitions, self.config.hash_name
        kinds = self._BATCH_KINDS
        #: ``(status, value, redirect)`` per sub; a sub no group serves
        #: has an op a batch cannot carry or is a malformed replica update.
        answers: list[tuple[Status, bytes, bytes]] = [_BAD_REQUEST] * len(subs)
        result = HandleResult(None)
        plan: list[tuple[Address, tuple, bool]] = []

        # Route sub-requests to partitions (order preserved within each).
        # The server hashes every client op's key itself, all in one pass:
        # its own hash is its ownership check.
        pids = iter(partitions_of(
            [sub[1] for sub in subs if sub[0] in kinds], num_partitions, hash_name
        ))
        by_pid: dict[int, list[int]] = {}
        for i, sub in enumerate(subs):
            op = sub[0]
            if op in kinds:
                pid = next(pids)
            elif op is _REPLICA_UPDATE and self._replica_update_ok(sub[7], sub[5]):
                pid = sub[5]
            else:
                continue
            group = by_pid.get(pid)
            if group is None:
                by_pid[pid] = [i]
            else:
                group.append(i)
        for pid, idxs in by_pid.items():
            self._serve_group(pid, subs, idxs, answers, result, plan)

        # Re-batch the replica fan-out: one message per peer.
        if plan:
            peers: dict[tuple[bool, Address], list[tuple]] = {}
            for address, update, sync in plan:
                peers.setdefault((sync, address), []).append(update)
            result.add_sends([
                (address, self._wrap_updates(updates, request), sync)
                for (sync, address), updates in peers.items()
            ])

        # One pass packs every sub-response and tallies the counters, so
        # a batch bumps each counter once.  A client batch's outer status
        # stays OK (outcomes are per-key), but a replica-update batch folds
        # its first failed sub-status outward so the sync-ack check in
        # effect_loop stays one comparison.
        epoch = self.membership.epoch
        outer_status = Status.OK
        packed = bytearray()
        hits = [0] * 5  # per client op (1-4)
        redirected = replica_updates = 0
        for i, (status, value, redirect) in enumerate(answers):
            sub = subs[i]
            op = sub[0]
            if op is _REPLICA_UPDATE:
                if status is not _STATUS_BAD_REQUEST:
                    replica_updates += 1
                if status and not outer_status:
                    outer_status = status
            elif status is _STATUS_OK:
                hits[op] += 1
            elif status is _REDIRECT:
                redirected += 1
            pack_response(packed, True, status, value, sub[3], epoch, redirect, b"", op)
        stats = self.stats
        stats.inc("batches")
        stats.inc("batch_sub_ops", len(subs))
        for op, name in self._OP_STATS.items():
            if hits[op]:
                stats.inc(name, hits[op])
        if redirected:
            stats.inc("redirects", redirected)
        if replica_updates:
            stats.inc("replica_updates", replica_updates)
        result.response = self._respond(
            request, outer_status, value=bytes(packed), membership=redirected > 0
        )
        return result

    def _serve_group(
        self, pid: int, subs: Sequence[tuple], idxs: Sequence[int],
        answers: list[tuple[Status, bytes, bytes]], result: HandleResult,
        plan: list[tuple[Address, tuple, bool]],
    ) -> None:
        """Serve ``subs[i]`` (fields in :func:`parse_request` order) for
        each *i* in *idxs*, all routed to partition *pid*, into
        ``answers[i]``; replica updates go to *plan* as ``(address, update,
        sync?)``.  The only code that runs the four ops (§III.A) and their
        replica updates (§III.J) on a store:

        * a client op is REDIRECTed unless this instance owns *pid* or it
          is failover-addressed (``replica_index > 0``, §III.H), and
          answers MIGRATING while the partition is frozen;
        * limits are checked where a client write enters; a replica update
          carries what the owner accepted, so it is applied as sent (a
          REMOVE that races ahead of its INSERT is OK);
        * every sub not redirected adds to the partition's load;
        * the group is one ``NoVoHT.apply_batch``, with the replication
          ticket taken under the same store lock when it replicates.
        """
        cfg = self.config
        owned = self.membership.partition_owner[pid] == self.info.instance_id
        part = self.partitions.get(pid)
        migrating = part is not None and part.state is _MIGRATING_OUT
        #: Subs not redirected: what the partition's load counts.
        load = len(idxs)
        moved: tuple[Status, bytes, bytes] | None = None
        #: Whether a client write / a replica update (OK whatever the store says) is served.
        writes = updates = False
        batch_ops: list[tuple[str, bytes, bytes]] = []
        #: ``subs`` index of each of ``batch_ops``.
        served: list[int] = []
        for i in idxs:
            op, key, value, _, _, _, replica_index, inner_op, _, _ = subs[i]
            if op is _REPLICA_UPDATE:
                if replica_index >= 2 and cfg.test_freeze_tail_replicas:
                    # TEST-ONLY broken mode: the tail replica acks but
                    # never applies, so its reads go unboundedly stale —
                    # the failure the bounded-staleness checker must flag.
                    answers[i] = _OK
                    continue
                kind = _REPLICA_KINDS[inner_op]
                updates = True
            elif not (owned or replica_index):
                if moved is None:
                    moved = (_REDIRECT, b"", self._redirect_to(pid))
                answers[i] = moved
                load -= 1
                continue
            elif migrating:
                answers[i] = _MIGRATING
                continue
            else:
                kind = _CLIENT_KINDS[op]
                if op is not _LOOKUP:
                    if op in _SIZED:
                        max_key, max_value = cfg.max_key_bytes, cfg.max_value_bytes
                        if max_key is not None and len(key) > max_key:
                            answers[i] = _KEY_TOO_LARGE
                            continue
                        if max_value is not None and len(value) > max_value:
                            answers[i] = _VALUE_TOO_LARGE
                            continue
                    writes = True
            batch_ops.append((kind, key, value))
            served.append(i)
        if not load:
            return
        if part is None:
            part = self.partition(pid)
        self.partition_load.record(pid, load)
        if not batch_ops:
            return
        #: A client write accepted here fans out along the chain — from a
        #: replica serving a failover write too, owner included: it is dead
        #: (the send blackholes) or falsely suspected (it stays current).
        replicating = writes and cfg.num_replicas > 0
        store = part.store
        try:
            if replicating:
                # Apply and ticket in one store critical section, so replica
                # sends leave in apply order (ReplicationSequencer); a result
                # spanning several groups trades its ticket up per group.
                with store.lock:
                    outcomes = store.apply_batch(batch_ops)
                    result.repl_ticket = self.repl_sequencer.reticket(result.repl_ticket)
                    result.repl_sequencer = self.repl_sequencer
                    result.effects = True
                # Maintenance triggered by the apply parks while we hold
                # the store lock (checkpoints must not run under it).
                store.run_pending_maintenance()
            else:
                outcomes = store.apply_batch(batch_ops)
        except ZHTError as exc:
            failed = (exc.status, b"", b"")
            for i in served:
                answers[i] = failed
            return

        if replicating:
            targets = self._replica_targets(pid, owned)
            epoch = self.membership.epoch
        for i, (ok, got) in zip(served, outcomes):
            if updates and subs[i][0] is _REPLICA_UPDATE:
                answers[i] = _OK
            elif got is not None:
                answers[i] = (_STATUS_OK, got, b"")  # a lookup's value
            elif not ok:
                answers[i] = _KEY_NOT_FOUND
            else:
                answers[i] = _OK
                if replicating:
                    # A mutation: it fans out to every replica target.
                    sub = subs[i]
                    op = sub[0]
                    for address, index, sync in targets:
                        update = (_REPLICA_UPDATE, sub[1], sub[2], sub[3], epoch, pid, index, int(op))
                        plan.append((address, update, sync))

    def _redirect_to(self, pid: int) -> bytes:
        """The REDIRECT field for *pid*: its owner's address, if any."""
        try:
            return str(self.membership.owner_of_partition(pid).address).encode()
        except ZHTError:
            return b""

    def _wrap_updates(self, updates: list[tuple], outer: Request) -> Request:
        if len(updates) == 1:
            return Request(*updates[0])
        return Request(
            op=OpCode.BATCH,
            request_id=outer.request_id,
            epoch=self.membership.epoch,
            payload=pack_batch(pack_request, updates),
        )

    def _replica_targets(self, pid: int, owned: bool) -> list[tuple[Address, int, bool]]:
        """``(address, chain index, sync?)`` for every replica a mutation
        of *pid* accepted here is sent to.

        Chain position 1 (the secondary) is synchronous in ASYNC mode —
        "The ZHT primary replica and secondary replica are strongly
        consistent, other replicas are asynchronously updated".  SYNC mode
        makes every replica synchronous (Figure 12's counterfactual);
        NONE makes every replica fire-and-forget.

        When the serving instance is *not* the chain head (a replica
        accepting a client failover write), every send — the owner's
        included — is fire-and-forget: the owner may well be dead, and a
        synchronous wait on it would stall every failover write.
        """
        chain, _first = self.membership.route(pid, self.config.num_replicas)
        mode = self.config.replication_mode
        targets: list[tuple[Address, int, bool]] = []
        for index, inst in enumerate(chain):
            if inst.instance_id == self.info.instance_id:
                continue
            sync = owned and (mode == _SYNC or (mode == _ASYNC and index == 1))
            if sync and self.config.test_skip_secondary_sync:
                # TEST-ONLY broken mode: acknowledge without the sync
                # replica write, so the secondary silently diverges —
                # the failure class the consistency checker must flag.
                continue
            targets.append((inst.address, index, sync))
        return targets

    # ------------------------------------------------------------------
    # Migration (server side; orchestrated by the manager)
    # ------------------------------------------------------------------

    def _handle_migrate_begin(self, request: Request) -> HandleResult:
        part = self.partition(request.partition)
        try:
            part.begin_migration()
            image = part.store.image()
        except ZHTError as exc:
            return HandleResult(self._respond(request, exc.status))
        self.stats.inc("migrations_out")
        self.stats.inc("migration_bytes_out", len(image))
        return HandleResult(self._respond(request, Status.OK, value=image))

    def _handle_migrate_data(self, request: Request) -> HandleResult:
        part = self.partition(request.partition)
        try:
            installed = part.store.install(request.value)
        except ZHTError as exc:
            return HandleResult(self._respond(request, exc.status))
        self.stats.inc("migrations_in")
        self.stats.inc("migration_bytes_in", len(request.value))
        # Ack the installed pair count: the manager never parses an image.
        return HandleResult(
            self._respond(request, Status.OK, value=b"%d" % installed)
        )

    def _handle_migrate_commit(self, request: Request) -> HandleResult:
        part = self.partition(request.partition)
        commit = request.value == b"commit"
        try:
            if commit:
                queued = part.commit_migration()
            else:
                queued = part.abort_migration()
        except ZHTError as exc:
            return HandleResult(self._respond(request, exc.status))
        result = HandleResult(self._respond(request, Status.OK))
        if commit:
            # Forward the parked requests to the new owner, named in the
            # request payload as "host:port".
            host, _, port = request.payload.decode().rpartition(":")
            new_owner = Address(host, int(port))
            result.forwards = [(new_owner, item) for item in queued]
        else:
            result.failed_queued = queued
        result.effects = True
        return result

    def _handle_membership_update(self, request: Request) -> HandleResult:
        try:
            table = MembershipTable.from_bytes(request.payload)
        except ZHTError as exc:
            return HandleResult(self._respond(request, exc.status))
        if self.membership.maybe_adopt(table):
            self.stats.inc("membership_updates")
        return HandleResult(self._respond(request, Status.OK))

    # ------------------------------------------------------------------
    # Response construction
    # ------------------------------------------------------------------

    def _respond(
        self,
        request: Request,
        status: Status,
        value: bytes = b"",
        redirect: bytes = b"",
        membership: bool = False,
    ) -> Response:
        # Lazy membership propagation: a client behind our epoch, or
        # redirected, gets the current table piggybacked on the response.
        table = self.membership
        epoch = table.epoch
        stale = request.epoch < epoch and request.epoch
        payload = table.to_bytes() if membership or stale or status is _REDIRECT else b""
        # Positional: keyword arguments make this dataclass cost ~1.7x.
        return Response(
            status, value, request.request_id, epoch, redirect, payload, request.op
        )

    def close(self) -> None:
        for part in self.partitions.values():
            part.close()
        self.broadcast_store.close()
