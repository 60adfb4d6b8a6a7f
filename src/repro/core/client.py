"""ZHT client core — transport-agnostic operation driver.

The client holds its own copy of the membership table and routes every
operation directly to the owning instance (zero hops).  This module
implements everything about an operation *except* moving bytes:

* target selection (owner, then replica failover);
* retry with full-jitter exponential backoff on timeouts ("lazily tagging
  nodes that do not respond to requests repeatedly as failed (using
  exponential back off)", §III.H);
* deadline propagation — each operation gets an absolute wall-clock
  deadline, carried in every request header, capping both retry delays
  and attempt timeouts so total latency is bounded;
* adaptive (phi-accrual-style) failure detection: each timeout adds an
  RTT-scaled suspicion amount, so nodes with an established fast RTT
  history are declared dead sooner than the fixed consecutive-timeout
  counter would, and queueing a notification for "a random manager"
  (§III.C "Node departures");
* a per-node circuit breaker (closed/open/half-open) that re-probes
  suspected-dead nodes after a cooldown instead of requiring a client
  restart to rediscover a recovered node;
* overload handling: RETRY_LATER responses back off without counting
  toward suspicion, and lookups may degrade to replica reads;
* lazy membership refresh from piggybacked tables and redirects.

Real and simulated transports run the one :class:`OpDriver` loop
(:meth:`repro.core.loops.OpClient.run`), for a point op
(``core.driver``) and a batch (``core.driver_many``) alike.
"""

from __future__ import annotations

import enum
import itertools
import random
import threading
import time
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Sequence

from ..obs import REGISTRY
from ..obs.metrics import LatencyHistogram
from .config import ZHTConfig
from .errors import (
    DeadlineExceeded,
    MembershipError,
    NodeDeadError,
    ProtocolError,
    RequestTimeout,
    ServerOverloaded,
    Status,
    ZHTError,
    raise_for_status,
)
from .hashing import partition_of, partitions_of
from .membership import Address, MembershipTable
from .protocol import (
    BATCH_REQUEST_OVERHEAD,
    OpCode,
    Request,
    Response,
    framed_request_size,
    pack_request,
    parse_batch,
    parse_response,
)


class BatchEntry:
    """One key's slot in an operation, settled independently.

    A point op is a driver over one entry, a batch a driver over many.
    Per-key semantics: a missing key fails only its own entry, a redirect
    re-plans only its own entry, and the final per-key outcome lands in
    ``status`` + ``result`` — the two fields of the reply a caller reads —
    or in ``error`` once the retry budget is exhausted.  The remaining
    fields are the entry's retry state, kept by :class:`OpDriver`.

    Every field but the key and value starts as the class default, so an
    entry is built with two stores; ``BatchEntry(key, value, status=...)``
    sets the named fields too.
    """

    status: Status | None = None
    result: bytes = b""
    error: ZHTError | None = None
    #: The key's partition: hashed once per operation.
    pid: int = -1
    #: Chain position of the entry's target (0 = owner, 1 = strongly
    #: consistent secondary, >= 2 = async replica): where the last attempt
    #: went, so the history recorder knows which guarantee a read carries.
    replica_index: int = 0
    #: Consecutive retries at the current chain position: the backoff
    #: exponent, reset by a failover, a redirect or a degraded read.
    retries: int = 0
    #: Round trips that carried this entry.
    attempts: int = 0
    #: Whether a server shed this entry (RETRY_LATER) along the way.
    overloaded: bool = False

    def __init__(self, key: bytes, value: bytes = b"", **state: object) -> None:
        self.key = key
        self.value = value
        if state:
            for name, field_value in state.items():
                if name not in _ENTRY_STATE:
                    raise TypeError(f"BatchEntry has no field {name!r}")
                setattr(self, name, field_value)

    @property
    def settled(self) -> bool:
        return self.status is not None or self.error is not None

    def __repr__(self) -> str:
        state = ", ".join(f"{name}={getattr(self, name)!r}" for name in _ENTRY_STATE)
        return f"BatchEntry(key={self.key!r}, value={self.value!r}, {state})"


_ENTRY_STATE = tuple(BatchEntry.__annotations__)


class Attempt:
    """One round trip: a group of entries whose keys all live on the same
    instance (per-owner planning — the aggregation Monnerat & Amorim use
    per destination, applied to ZHT's zero-hop routing where the owner is
    known client-side), and once :class:`OpDriver` sends it, the request,
    its timeout and the backoff delay before it."""

    request: Request | None = None
    timeout: float = 0.0
    #: Seconds to wait before issuing this attempt (backoff delay).
    delay: float = 0.0
    #: Sub-request ids of a BATCH, which its sub-responses must echo;
    #: ``None`` when the group went out as one plain request.
    sub_ids: list[int] | None = None
    #: Its timeout's backoff exponent: its most-retried entry's retries.
    retries: int = 0

    def __init__(
        self, address: Address, node_id: str, instance_id: str, op: OpCode, epoch: int,
        entries: list[BatchEntry],
    ) -> None:
        self.address = address
        self.node_id = node_id
        self.instance_id = instance_id
        #: The entries' op and the membership epoch they were planned against.
        self.op = op
        self.epoch = epoch
        self.entries = entries

    def empty_copy(self) -> "Attempt":
        """The same target, op and epoch with no entries yet."""
        return Attempt(self.address, self.node_id, self.instance_id, self.op, self.epoch, [])


#: A one-way send whose reply is ``None`` (a command of the loops in
#: :mod:`repro.core.loops`): the client's failure report to a manager.
Cast = namedtuple("Cast", "address request")


class BreakerState(enum.Enum):
    """Per-node circuit-breaker states gating traffic to suspected nodes.

    ``CLOSED`` (no breaker entry) — node healthy, traffic flows.
    ``OPEN`` — node was marked dead by local suspicion; no traffic until
    the cooldown elapses.  ``HALF_OPEN`` — cooldown elapsed; the node is
    revived in the local table so the next operation probes it.  One
    success closes the breaker; one timeout re-opens it with a doubled
    cooldown (capped at ``breaker_cooldown_max_s``).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class _Breaker:
    """Bookkeeping for one suspected node (guarded by core._state_lock)."""

    state: BreakerState
    opened_at: float
    cooldown: float
    open_count: int = 1


#: Per-client operation counters (``core.stats.<field>``; process totals
#: are ``client.<field>``).  Declaring a new client counter is one more
#: entry here.
CLIENT_COUNTERS = (
    "ops",
    "retries",
    "redirects_followed",
    "membership_refreshes",
    "failovers",
    "nodes_marked_dead",
    #: BATCH round trips issued and sub-operations carried by them.
    "batches",
    "batch_ops",
    #: RETRY_LATER (overload-shed) responses absorbed by the retry loop.
    "retry_later",
    #: Lookups served by a replica because the owner shed load.
    "degraded_reads",
    #: Lookups of a client-observed hot key started at a non-owner
    #: chain position (heat-triggered read spreading).
    "hot_spread_reads",
    #: Hot-key cache outcomes (see repro.api.ZHT's value cache).
    "hot_cache_hits",
    "hot_cache_misses",
    "hot_cache_invalidations",
    #: Suspected-dead nodes revived for a half-open probe.
    "reprobes",
)

#: Max suspicion units a single timeout may contribute in phi mode.
SUSPICION_EVENT_CAP = 2.0
#: Floor (seconds) for the adaptive retransmission-timeout estimate that
#: scales suspicion contributions.
RTO_MIN_S = 0.002
#: Capacity of the per-client key-heat tracker (bounded LRU of access
#: counters; the window over which ``hot_key_threshold`` is measured).
HOT_KEY_TRACKER_SIZE = 512


_OK = Status.OK
#: Reply statuses that leave an entry unsettled: it is planned again.
_RETRIED = frozenset(
    {Status.REDIRECT, Status.MIGRATING, Status.DEADLINE_EXCEEDED, Status.RETRY_LATER}
)


class OpState(enum.Enum):
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


class ZHTClientCore:
    """Client-side state shared across operations."""

    def __init__(
        self,
        membership: MembershipTable,
        config: ZHTConfig | None = None,
        *,
        rng: random.Random | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.membership = membership
        self.config = config or ZHTConfig()
        self.stats = REGISTRY.counter_set("client", CLIENT_COUNTERS)
        self.rng = rng or random.Random()
        #: Wall-clock source for deadlines and breaker cooldowns; the
        #: simulator injects its virtual clock here.
        self.clock = clock
        # Concurrent drivers over one core (threaded benchmark clients,
        # FusionFS) must never mint the same request id: duplicates would
        # silently defeat the UDP server's mutation dedup cache.  next()
        # on an itertools.count is one C call, atomic under the GIL.
        self._request_ids = itertools.count(1)
        # suspicion and pending_notifications see read-modify-write from
        # every thread driving ops through this core; guard them like
        # allocate_request_id or concurrent timeouts lose counts.
        self._state_lock = threading.Lock()
        #: Accrued suspicion per node id; in "phi" mode each timeout adds
        #: an RTT-scaled amount in [1, SUSPICION_EVENT_CAP], in "count"
        #: mode exactly 1 — so suspicion >= failures_before_dead is the
        #: single death condition for both detectors.
        self.suspicion: dict[str, float] = {}
        #: Per-node RTT history feeding the adaptive detector.  Kept
        #: per-core (a process can host many independent clients); the
        #: process-wide ``client.rtt.<node>`` that ``repro stats`` shows
        #: merges every core's at snapshot time, so a reply records its
        #: RTT once.  Only ever ``get`` / ``setdefault``, each atomic
        #: under the GIL.
        self._rtt: dict[str, LatencyHistogram] = {}
        #: Circuit breakers for nodes marked dead by *local* suspicion.
        self._breakers: dict[str, _Breaker] = {}
        #: Manager notifications awaiting dispatch by the transport.
        self.pending_notifications: list[Cast] = []
        #: Called as ``fn(node_id, instance_addresses)`` right after a node
        #: is marked dead — the transport layer hooks this to evict cached
        #: connections so failovers never re-use a socket to a dead server.
        self.on_node_dead: Callable[[str, list[Address]], None] | None = None
        self._derived_budget: float | None = None
        # Client-observed key heat: a bounded LRU of per-key access
        # counters (a sliding-window approximation — eviction forgets a
        # key's count, so sustained popularity is required to stay hot).
        # LRUCache is not internally synchronized (see its docstring);
        # every access happens under _heat_lock.  Imported lazily:
        # repro.net pulls this module in at import time, so a top-level
        # import of repro.net.lru here would be circular.
        from ..net.lru import LRUCache

        self._heat_lock = threading.Lock()
        self._key_heat = LRUCache(HOT_KEY_TRACKER_SIZE)
        cfg = self.config
        #: Whether lookups track key heat: it has two consumers, read
        #: spreading and the hot-key cache; a deployment with neither
        #: tracks none.
        self.tracks_heat = bool(
            cfg.hot_key_cache_size or (cfg.hot_read_spread and cfg.num_replicas)
        )

    def deadline_budget(self) -> float:
        """Wall-clock budget (seconds) for one logical operation.

        ``op_deadline_s`` when configured; otherwise the worst-case sum of
        the retry schedule's timeouts and backoff delays, so the derived
        deadline can never fire before the retry budget does — existing
        retry semantics are unchanged unless an explicit deadline is set.
        """
        cfg = self.config
        if cfg.op_deadline_s is not None:
            return cfg.op_deadline_s
        if self._derived_budget is None:
            total = 0.0
            for r in range(cfg.max_retries + 1):
                total += cfg.request_timeout * cfg.backoff_factor**r
                if r:
                    total += cfg.request_timeout * cfg.backoff_factor ** (r - 1)
            self._derived_budget = total
        return self._derived_budget

    # ------------------------------------------------------------------

    def driver(self, op: OpCode, key: bytes, value: bytes = b"") -> "OpDriver":
        """A driver for one point operation: the group of one."""
        self.stats.inc("ops")
        return OpDriver(self, op, [BatchEntry(key, value)])

    def driver_many(
        self, op: OpCode, entries: list[BatchEntry], *, max_bytes: int | None = None
    ) -> "OpDriver":
        """A driver for one batched operation: *op* over every entry, one
        BATCH round trip per owner (chunked under *max_bytes*)."""
        self.stats.inc("batch_ops", len(entries))
        return OpDriver(self, op, entries, max_bytes=max_bytes)

    # -- client-observed key heat ------------------------------------------

    def note_key_access(self, key: bytes) -> int:
        """Count one access of *key*; returns its tally in the tracker's
        sliding window."""
        with self._heat_lock:
            count = (self._key_heat.get(key) or 0) + 1
            self._key_heat.put(key, count)
        return count

    def key_heat(self, key: bytes) -> int:
        """Current window tally for *key* (0 = cold/evicted), without
        counting an access."""
        with self._heat_lock:
            count = self._key_heat.get(key)
        return count or 0

    def is_hot(self, key: bytes) -> bool:
        return self.key_heat(key) >= self.config.hot_key_threshold

    def _hot_read_start(self, key: bytes, pid: int) -> int:
        """Replica-chain position this lookup should start at.

        Cold keys (and every write) go to the owner.  Once a key's tally
        crosses ``hot_key_threshold``, its lookups rotate round-robin
        across the *alive* chain positions, so a hot key's read load is
        divided across ``num_replicas + 1`` servers instead of melting
        the owner.  Positions >= 2 are async replicas: those reads carry
        the same bounded-staleness guarantee as degraded reads, which is
        what makes the spread safe under the §III.J consistency model.
        """
        cfg = self.config
        count = self.note_key_access(key)
        if (
            not cfg.hot_read_spread
            or cfg.num_replicas == 0
            or count < cfg.hot_key_threshold
        ):
            return 0
        chain, first = self.membership.route(pid, cfg.num_replicas)
        # Every position from the first alive one on is alive.
        if first < 0 or len(chain) - first <= 1:
            return 0
        start = first + count % (len(chain) - first)
        if start:
            self.stats.inc("hot_spread_reads")
        return start

    def plan_batches(
        self,
        op: OpCode,
        entries: list[BatchEntry],
        *,
        max_bytes: int | None = None,
    ) -> tuple[list[Attempt], list[BatchEntry]]:
        """Group the unsettled *entries* by target instance into round trips.

        Each entry goes to the first alive chain position at or past its
        ``replica_index``, computed from the local membership table (zero
        hops); entries whose chain has no such position come back in the
        second element so the caller can fail them without a round trip.
        ``max_bytes`` chunks each owner's group so the encoded BATCH
        request stays under a transport's datagram limit (UDP).
        """
        membership = self.membership
        route, epoch = membership.route, membership.epoch
        num_replicas = self.config.num_replicas
        groups: dict[str, Attempt] = {}
        unroutable: list[BatchEntry] = []
        for entry in entries:
            chain, first = route(entry.pid, num_replicas)
            # Positions past the first alive one are alive (see route()).
            index = entry.replica_index if entry.replica_index > first else first
            if first < 0 or index >= len(chain):
                unroutable.append(entry)
                continue
            entry.replica_index = index
            target = chain[index]
            instance_id = target.instance_id
            attempt = groups.get(instance_id)
            if attempt is None:
                groups[instance_id] = Attempt(
                    target.address, target.node_id, instance_id, op, epoch, [entry]
                )
            else:
                attempt.entries.append(entry)
        if max_bytes is None:
            return list(groups.values()), unroutable
        # Chunk each owner group under the transport's size limit.
        budget = max(1, max_bytes - BATCH_REQUEST_OVERHEAD)
        attempts: list[Attempt] = []
        for group in groups.values():
            chunk = group.empty_copy()
            size = 0
            for entry in group.entries:
                wire = framed_request_size(entry.key, entry.value)
                if chunk.entries and size + wire > budget:
                    attempts.append(chunk)
                    chunk = group.empty_copy()
                    size = 0
                chunk.entries.append(entry)
                size += wire
            attempts.append(chunk)
        return attempts, unroutable

    def allocate_request_id(self) -> int:
        return next(self._request_ids)

    def adopt_membership(self, payload: bytes) -> bool:
        """Adopt a piggybacked membership table if strictly newer."""
        if not payload:
            return False
        try:
            table = MembershipTable.from_bytes(payload)
        except MembershipError:
            return False
        if self.membership.maybe_adopt(table):
            self.stats.inc("membership_refreshes")
            # The authoritative table supersedes local suspicion: drop
            # breakers and accrued suspicion so a manager-confirmed view
            # (dead or recovered) is not fought by stale local verdicts.
            with self._state_lock:
                self._breakers.clear()
                self.suspicion.clear()
            return True
        return False

    # -- failure detection ------------------------------------------------

    def _suspicion_contribution(
        self, hist: LatencyHistogram | None, timeout_s: float
    ) -> float:
        """Suspicion units one timeout adds against the node whose RTT
        history is *hist*.

        Phi-accrual intuition without the Gaussian machinery: the longer
        the elapsed timeout is relative to the node's *expected* response
        time, the stronger the evidence of death.  The expectation is an
        RTO-style estimate ``max(RTO_MIN_S, 4 * p99(rtt))`` from the
        node's own RTT history.  A node with no history (cold start)
        contributes exactly 1.0 — identical to the legacy counter — so
        the adaptive detector can only be *faster*, never trigger-happier
        on nodes it knows nothing about.
        """
        cfg = self.config
        if cfg.failure_detector != "phi" or timeout_s <= 0:
            return 1.0
        if hist is None or hist.count < 8:
            return 1.0  # not enough history to trust an RTO estimate
        rto = max(RTO_MIN_S, hist.percentile(99) * 4)
        return min(max(timeout_s / rto, 1.0), SUSPICION_EVENT_CAP)

    def record_timeout(self, node_id: str, timeout_s: float = 0.0) -> bool:
        """Count a timeout against *node_id*; returns True if it just died.

        *timeout_s* is the attempt's timeout (how long the client waited
        before giving up); it scales the suspicion contribution in phi
        mode.  A timeout against a HALF_OPEN node re-opens its breaker
        immediately — a failed probe is conclusive, not one more strike.
        """
        with self._state_lock:
            breaker = self._breakers.get(node_id)
            probe_failed = (
                breaker is not None and breaker.state is BreakerState.HALF_OPEN
            )
        # The histogram is internally locked; the percentile math runs
        # outside _state_lock.
        contribution = self._suspicion_contribution(self._rtt.get(node_id), timeout_s)
        with self._state_lock:
            score = self.suspicion.get(node_id, 0.0) + contribution
            self.suspicion[node_id] = score
            reached_threshold = score >= self.config.failures_before_dead
        if probe_failed or reached_threshold:
            return self._mark_node_dead(node_id)
        return False

    def record_success(self, node_id: str, rtt_s: float | None = None) -> None:
        """Clear suspicion for *node_id* and feed its RTT history."""
        # Unlocked emptiness reads: a timeout racing this reply lands after
        # it, as if the reply had come first.
        if self.suspicion or self._breakers:
            with self._state_lock:
                self.suspicion.pop(node_id, None)
                self._breakers.pop(node_id, None)  # half-open probe succeeded
        if rtt_s is None:
            return
        history = self._rtt.get(node_id)
        if history is None:
            history = self._rtt.setdefault(
                node_id, REGISTRY.histogram_part(f"client.rtt.{node_id}")
            )
        history.record(rtt_s)

    def breaker_state(self, node_id: str) -> BreakerState:
        """Current circuit-breaker state for *node_id* (CLOSED = healthy)."""
        with self._state_lock:
            breaker = self._breakers.get(node_id)
            return BreakerState.CLOSED if breaker is None else breaker.state

    def maybe_reprobe(self) -> None:
        """Transition OPEN breakers whose cooldown elapsed to HALF_OPEN.

        The node is revived in the *local* table so normal routing sends
        it the next matching operation as a probe: one success closes the
        breaker, one timeout re-opens it with a doubled cooldown.  This is
        what lets a client rediscover a recovered node without a restart.
        """
        now = self.clock()
        to_probe: list[str] = []
        with self._state_lock:
            for node_id, breaker in self._breakers.items():
                if (
                    breaker.state is BreakerState.OPEN
                    and now - breaker.opened_at >= breaker.cooldown
                ):
                    breaker.state = BreakerState.HALF_OPEN
                    to_probe.append(node_id)
        for node_id in to_probe:
            try:
                self.membership.mark_node_alive(node_id)
            except MembershipError:
                continue
            self.stats.inc("reprobes")

    def take_notifications(self) -> list[Cast]:
        """Atomically drain the pending manager notifications."""
        with self._state_lock:
            notes = self.pending_notifications
            self.pending_notifications = []
        return notes

    def _mark_node_dead(self, node_id: str) -> bool:
        """Mark *node_id* dead exactly once; True if this call did it.

        The alive check and the table mutation happen under one lock so
        concurrent drivers racing past the failure threshold cannot each
        "kill" the node and queue duplicate manager notifications.
        """
        cfg = self.config
        with self._state_lock:
            node = self.membership.nodes.get(node_id)
            if node is None or not node.alive:
                return False
            try:
                self.membership.mark_node_dead(node_id)
            except MembershipError:
                return False
            self.suspicion.pop(node_id, None)
            # Open (or re-open) the circuit breaker so the node gets a
            # half-open probe after the cooldown instead of staying dead
            # until the client process restarts.
            breaker = self._breakers.get(node_id)
            first_death = breaker is None
            if first_death:
                self._breakers[node_id] = _Breaker(
                    state=BreakerState.OPEN,
                    opened_at=self.clock(),
                    cooldown=cfg.breaker_cooldown_s,
                )
            else:
                breaker.state = BreakerState.OPEN
                breaker.opened_at = self.clock()
                breaker.open_count += 1
                breaker.cooldown = min(
                    cfg.breaker_cooldown_s * 2.0 ** (breaker.open_count - 1),
                    cfg.breaker_cooldown_max_s,
                )
        # A failed half-open probe re-opens the breaker; it is not a new
        # death verdict, so only a node's first death (per suspicion
        # episode) counts toward the stat.
        if first_death:
            self.stats.inc("nodes_marked_dead")
        if self.on_node_dead is not None:
            addresses = [
                inst.address
                for inst in self.membership.instances_on_node(node_id)
            ]
            self.on_node_dead(node_id, addresses)
        manager = self._random_alive_manager()
        if manager is not None:
            # Push our (newer) table — with the node marked dead — to a
            # random manager, which will broadcast and rebuild replicas.
            note = Cast(
                manager,
                Request(
                    op=OpCode.MEMBERSHIP_UPDATE,
                    request_id=self.allocate_request_id(),
                    epoch=self.membership.epoch,
                    payload=self.membership.to_bytes(),
                ),
            )
            with self._state_lock:
                self.pending_notifications.append(note)
        return True

    def _random_alive_manager(self) -> Address | None:
        alive = [n for n in self.membership.nodes.values() if n.alive]
        if not alive:
            return None
        return self.rng.choice(alive).manager_address


class OpDriver:
    """Drives one logical operation — *op* over a list of entries — through
    round trips until every entry settled.

    Each round plans the unsettled entries into one round trip per owner
    group (:meth:`ZHTClientCore.plan_batches`); :meth:`next_attempt` hands
    them out one at a time, and :meth:`on_response` / :meth:`on_timeout`
    settle or requeue the entries of the attempt just sent.  A point op is
    the group of one, so it follows the same schedule as every batch
    entry: timeouts and delays grow with the entry's retries at its chain
    position, a timeout that leaves the target's node dead fails over down
    the replica chain, and a round's backoff delay is the schedule of its
    most-retried entry.
    """

    def __init__(
        self,
        core: ZHTClientCore,
        op: OpCode,
        entries: list[BatchEntry],
        *,
        max_bytes: int | None = None,
    ) -> None:
        if core._breakers:  # GIL-atomic; one opened this instant is seen next op
            core.maybe_reprobe()
        self.core = core
        self.op = op
        self.entries = entries
        self.max_bytes = max_bytes
        #: Absolute wall-clock deadline; propagated in every request
        #: header and enforced locally when planning each attempt.
        self.deadline = core.clock() + core.deadline_budget()
        # A batch hashes its keys in one lane pass; a point op keeps the
        # scalar call, which is cheaper for one key.
        if len(entries) != 1:
            pids = partitions_of(
                [entry.key for entry in entries],
                core.membership.num_partitions,
                core.config.hash_name,
            )
            for entry, pid in zip(entries, pids):
                entry.pid = pid
        else:
            (entry,) = entries
            entry.pid = partition_of(
                entry.key, core.membership.num_partitions, core.config.hash_name
            )
        if core.tracks_heat and op is OpCode.LOOKUP:
            # Heat-spread lookups start deeper in the chain and walk
            # forward from there like any degraded read.
            for entry in entries:
                entry.replica_index = core._hot_read_start(entry.key, entry.pid)

    #: The last reply received.
    response: Response | None = None
    #: Backoff delay owed before the next attempt handed out.
    _delay = 0.0
    #: The attempt handed out and not yet answered or timed out.
    _current: Attempt | None = None
    #: This round's attempts not yet handed out (a plan assigns a new list).
    _queue: list[Attempt] = []
    #: The most retries of an entry requeued since the round was planned, or
    #: ``None`` if none was (the op is over); ``-1`` before the first round.
    _retries: int | None = -1

    # ------------------------------------------------------------------

    @property
    def state(self) -> OpState:
        failed = False
        for entry in self.entries:
            if entry.error is not None:
                failed = True
            elif entry.status is None:
                return OpState.RUNNING
        return OpState.FAILED if failed else OpState.DONE

    def _requeue(self, entry: BatchEntry) -> None:
        """*entry* goes back for another round, or fails out of retries."""
        if entry.attempts > self.core.config.max_retries:
            entry.error = (
                ServerOverloaded(f"{self.op.name} shed by overloaded servers")
                if entry.overloaded
                else RequestTimeout(f"{self.op.name} exhausted retries")
            )
        elif self._retries is None or entry.retries > self._retries:
            self._retries = entry.retries

    def next_attempt(self) -> Attempt | None:
        """The next round trip to execute, or ``None`` once every entry
        settled.  A first round is only the plan: no entry can be out of
        retries (:meth:`_requeue`) or of time yet."""
        queue = self._queue
        core = self.core
        if not queue:
            retries = self._retries
            if retries is None:
                return None
            self._retries = None
            entries = self.entries if retries < 0 else self._retry_entries(core)
            queue, unroutable = core.plan_batches(self.op, entries, max_bytes=self.max_bytes)
            for entry in unroutable:
                entry.error = NodeDeadError(
                    f"no alive replica for partition {entry.pid} (op {self.op.name})"
                )
            if retries > 0 and queue:
                self._back_off(core, retries, queue)
            self._queue = queue
        cfg = core.config
        while queue:
            attempt = queue.pop(0)
            # The deadline caps both the wait before the attempt and the
            # attempt itself; a schedule that cannot fit gives the attempt
            # whatever budget is left rather than overshooting the deadline.
            remaining = self.deadline - core.clock()
            delay = self._delay
            if delay:
                self._delay = 0.0
                if delay > remaining:
                    delay = remaining
                attempt.delay = delay
                remaining -= delay
            retries = attempt.retries
            timeout = cfg.request_timeout * cfg.backoff_factor**retries if retries else cfg.request_timeout
            if timeout > remaining:
                timeout = remaining
                if timeout <= 0:
                    for entry in attempt.entries:
                        entry.error = DeadlineExceeded(f"{self.op.name} deadline exceeded")
                    continue
            attempt.request = self._encode(attempt)
            attempt.timeout = timeout
            self._current = attempt
            return attempt
        return None

    def _retry_entries(self, core: ZHTClientCore) -> list[BatchEntry]:
        """A retry round's entries: the unsettled ones, failed past the deadline."""
        entries = [entry for entry in self.entries if not entry.settled]
        if self.deadline - core.clock() <= 0:
            for entry in entries:
                entry.error = DeadlineExceeded(f"{self.op.name} deadline exceeded")
            return []
        return entries

    def _back_off(self, core: ZHTClientCore, retries: int, attempts: list[Attempt]) -> None:
        """A retry round waits its most-retried entry's backoff; an attempt's
        timeout grows with its own most-retried entry."""
        cfg = core.config
        delay = cfg.request_timeout * cfg.backoff_factor ** (retries - 1)
        if cfg.retry_jitter:
            # Full jitter (delay ~ U[0, base]) desynchronizes the retry
            # storms that lockstep exponential backoff creates when many
            # clients time out against one slow server.
            delay = core.rng.uniform(0.0, delay)
        self._delay = delay
        for attempt in attempts:
            attempt.retries = max(entry.retries for entry in attempt.entries)

    def _encode(self, attempt: Attempt) -> Request:
        """The request carrying *attempt*: a group of one goes out as a
        plain request, a larger group as a BATCH.  Every request id of an
        operation is minted, and each entry's round trips counted, here."""
        entries = attempt.entries
        if len(entries) == 1:
            entry = entries[0]
            entry.attempts += 1
            # Positional: keyword arguments make this dataclass cost ~1.7x.
            return Request(
                attempt.op, entry.key, entry.value, next(self.core._request_ids),
                attempt.epoch, 0, entry.replica_index, 0, b"", int(self.deadline * 1e6),
            )
        next_id = self.core._request_ids.__next__
        op, epoch = attempt.op, attempt.epoch
        self.core.stats.inc("batches")
        payload = bytearray()
        sub_ids = attempt.sub_ids = []
        for entry in entries:
            entry.attempts += 1
            request_id = next_id()
            sub_ids.append(request_id)
            pack_request(
                payload, True, op, entry.key, entry.value, request_id, epoch, 0,
                entry.replica_index,
            )
        return Request(
            op=OpCode.BATCH,
            request_id=next_id(),
            epoch=self.core.membership.epoch,
            payload=bytes(payload),
            deadline_us=int(self.deadline * 1e6),
        )

    # ------------------------------------------------------------------

    def on_response(self, response: Response, rtt_s: float | None = None) -> None:
        attempt = self._current
        if attempt is None:
            return
        self._current = None
        self.response = response
        status = response.status
        subs: Sequence[tuple] | None = None
        if attempt.sub_ids is not None and status is _OK:
            subs = _sub_responses(attempt, response)
            if subs is None:
                # A reply that answers no entry reliably is a lost reply, as
                # it is to a point request over a transport matching by id.
                self._timed_out(attempt)
                return
        core = self.core
        core.record_success(attempt.node_id, rtt_s)
        if response.membership:
            core.adopt_membership(response.membership)
        entries = attempt.entries
        if subs is None:
            # A plain reply, or a whole-BATCH status: one answer for all.
            if status not in _RETRIED:
                value = response.value
                for entry in entries:
                    entry.status = status
                    entry.result = value
                return
            subs = ((status,),) * len(entries)
        cfg = core.config
        stats = core.stats
        for entry, sub in zip(entries, subs):
            status = sub[0]
            if status not in _RETRIED:
                entry.status, entry.result = status, sub[1]
                continue
            if status is Status.REDIRECT:
                # Membership was piggybacked; recompute the owner and retry.
                stats.inc("redirects_followed")
                entry.retries = 0
            elif status is Status.MIGRATING or status is Status.DEADLINE_EXCEEDED:
                # MIGRATING: the partition is briefly frozen.  DEADLINE_EXCEEDED:
                # the server's clock says our deadline passed; trust our own
                # clock instead (tolerates skew).  Either way back off and
                # let the next round settle the failure if we agree.
                stats.inc("retries")
                entry.retries += 1
            elif status is Status.RETRY_LATER:
                # Explicit overload shed: the node is alive (it answered),
                # so nothing counts toward suspicion.  Lookups degrade to
                # the next replica under the bounded-staleness contract;
                # anything else backs off (with jitter) and retries the
                # same target.
                stats.inc("retry_later")
                if (
                    self.op is OpCode.LOOKUP
                    and cfg.degraded_reads
                    and entry.replica_index < cfg.num_replicas
                ):
                    entry.replica_index += 1
                    entry.retries = 0
                    stats.inc("degraded_reads")
                else:
                    entry.overloaded = True
                    stats.inc("retries")
                    entry.retries += 1
            self._requeue(entry)

    def on_timeout(self) -> None:
        """The transport observed no response within ``attempt.timeout``."""
        attempt = self._current
        if attempt is None:
            return
        self._current = None
        self._timed_out(attempt)

    def _timed_out(self, attempt: Attempt) -> None:
        core = self.core
        entries = attempt.entries
        core.stats.inc("retries", len(entries))
        core.record_timeout(attempt.node_id, timeout_s=attempt.timeout)
        # Fail over to the next replica in the chain once the node is dead,
        # whether this timeout or a concurrent operation's tipped it.
        node = core.membership.nodes.get(attempt.node_id)
        if node is not None and node.alive:
            for entry in entries:
                entry.retries += 1
                self._requeue(entry)
            return
        num_replicas = core.config.num_replicas
        failovers = 0
        for entry in entries:
            entry.replica_index += 1
            entry.retries = 0
            if entry.replica_index <= num_replicas:
                failovers += 1
            self._requeue(entry)
        if failovers:
            core.stats.inc("failovers", failovers)

    # ------------------------------------------------------------------

    def result(self) -> Response:
        """The last reply once every entry settled; raises the first
        failed entry's exception (its error, or the one its status maps
        to)."""
        for entry in self.entries:
            if entry.status is not _OK:
                if entry.error is not None:
                    raise entry.error
                if entry.status is None:
                    raise ZHTError("operation still in flight")
                raise_for_status(entry.status, f"{self.op.name} {entry.key!r}")
        assert self.response is not None
        return self.response


def _sub_responses(attempt: Attempt, response: Response) -> list | None:
    """The sub-response field tuples ``(status, value, ...)`` of a BATCH
    reply, one per entry of *attempt*, or ``None`` when the reply answers
    none of them reliably."""
    sub_ids = attempt.sub_ids
    try:
        subs = parse_batch(parse_response, response.value)
    except ProtocolError:
        return None
    # A sub-response echoes its sub-request's id and op; a reply with one
    # missing, extra or out of place answers nothing reliably.
    op = attempt.op
    if len(subs) != len(sub_ids) or any(
        sub[2] != request_id or sub[6] != op for sub, request_id in zip(subs, sub_ids)
    ):
        return None
    return subs
