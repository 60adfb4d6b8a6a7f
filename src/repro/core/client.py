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

Real and simulated transports drive the same :class:`OpDriver` loop::

    driver = core.driver(OpCode.LOOKUP, key)
    while True:
        attempt = driver.next_attempt()        # None => driver.outcome set
        response = transport.roundtrip(attempt)  # or timeout
        driver.on_response(response)             # or driver.on_timeout()
"""

from __future__ import annotations

import enum
import itertools
import random
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable

from ..obs import REGISTRY
from ..obs.metrics import LatencyHistogram
from .config import ZHTConfig
from .errors import (
    DeadlineExceeded,
    MembershipError,
    NodeDeadError,
    RequestTimeout,
    ServerOverloaded,
    Status,
    ZHTError,
    raise_for_status,
)
from .hashing import partition_of
from .membership import Address, InstanceInfo, MembershipTable
from .protocol import (
    BATCH_REQUEST_OVERHEAD,
    OpCode,
    Request,
    Response,
    framed_request_size,
    pack_request,
)


@dataclass
class Attempt:
    """One network attempt the transport should execute."""

    address: Address
    request: Request
    timeout: float
    #: Seconds to wait before issuing this attempt (backoff delay).
    delay: float = 0.0


@dataclass
class Notification:
    """Deferred client→manager message (e.g. failure report)."""

    address: Address
    request: Request


@dataclass
class BatchEntry:
    """One key's slot in a batched operation, settled independently.

    Per-key semantics: a missing key fails only its own entry, a redirect
    re-plans only its own entry, and the final per-key outcome lands in
    ``status`` + ``result`` — the two fields of the sub-response a caller
    reads — or in ``error`` after the retry budget is exhausted.
    """

    key: bytes
    value: bytes = b""
    status: Status | None = None
    result: bytes = b""
    error: ZHTError | None = None

    @property
    def settled(self) -> bool:
        return self.status is not None or self.error is not None


@dataclass
class BatchAttempt:
    """One BATCH round trip the transport should execute: a group of
    entries whose keys all live on the same instance (per-owner planning
    — the aggregation Monnerat & Amorim use per destination, applied to
    ZHT's zero-hop routing where the owner is known client-side)."""

    address: Address
    node_id: str
    instance_id: str
    #: The sub-requests' op and (plan-time) membership epoch.
    op: OpCode
    epoch: int
    entries: list[BatchEntry]
    #: ``(key, value, request_id, replica_index)`` per entry: the fields a
    #: sub-request has of its own, packed when the attempt is sent.
    subs: list[tuple[bytes, bytes, int, int]]

    def to_request(
        self, core: "ZHTClientCore", deadline_us: int = 0
    ) -> Request:
        payload = bytearray()
        op, epoch = self.op, self.epoch
        for key, value, request_id, replica_index in self.subs:
            pack_request(
                payload, True, op, key, value, request_id, epoch, 0, replica_index
            )
        return Request(
            op=OpCode.BATCH,
            request_id=core.allocate_request_id(),
            epoch=core.membership.epoch,
            payload=bytes(payload),
            deadline_us=deadline_us,
        )


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
        # failure_counts and pending_notifications see read-modify-write
        # from every thread driving ops through this core; guard them like
        # allocate_request_id or concurrent timeouts lose counts.
        self._state_lock = threading.Lock()
        #: Consecutive timeout counts per node id (reset on any success).
        self.failure_counts: dict[str, int] = {}  # guarded-by: _state_lock
        #: Accrued suspicion per node id; in "phi" mode each timeout adds
        #: an RTT-scaled amount in [1, SUSPICION_EVENT_CAP], in "count"
        #: mode exactly 1 — so suspicion >= failures_before_dead is the
        #: single death condition for both detectors.
        self.suspicion: dict[str, float] = {}  # guarded-by: _state_lock
        #: Per-node RTT history feeding the adaptive detector, paired
        #: with the process-wide ``client.rtt.<node>`` that ``repro stats``
        #: shows (bound here once, so a reply formats no name).  Kept
        #: per-core: a process can host many independent clients.  Only
        #: ever ``get`` / ``setdefault``, each atomic under the GIL.
        self._rtt: dict[str, tuple[LatencyHistogram, LatencyHistogram]] = {}
        #: Circuit breakers for nodes marked dead by *local* suspicion.
        self._breakers: dict[str, _Breaker] = {}  # guarded-by: _state_lock
        #: Manager notifications awaiting dispatch by the transport.
        self.pending_notifications: list[Notification] = []  # guarded-by: _state_lock
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
        self.maybe_reprobe()
        self.stats.inc("ops")
        cfg = self.config
        pid = self.membership.partition_of_key(key, cfg.hash_name)
        start = 0
        # Key heat has two consumers, read spreading and the hot-key
        # cache; a deployment with neither tracks none.
        if op is OpCode.LOOKUP and (
            cfg.hot_key_cache_size or (cfg.hot_read_spread and cfg.num_replicas)
        ):
            start = self._hot_read_start(key, pid)
        return OpDriver(self, op, key, value, pid, start_replica_index=start)

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
        max_entries: int | None = None,
    ) -> tuple[list[BatchAttempt], list[BatchEntry]]:
        """Group *entries* by owning instance into BATCH attempts.

        Every key's owner is computed from the local membership table
        (zero hops); keys whose whole replica chain is dead come back in
        the second element so the caller can fail them without a round
        trip.  ``max_bytes`` chunks each owner's group so the encoded
        BATCH request stays under a transport's datagram limit (UDP);
        ``max_entries`` caps sub-requests per round trip.
        """
        self.maybe_reprobe()
        membership = self.membership
        epoch, num_partitions = membership.epoch, membership.num_partitions
        hash_name, num_replicas = self.config.hash_name, self.config.num_replicas
        next_id = self._request_ids.__next__
        groups: dict[str, BatchAttempt] = {}
        unroutable: list[BatchEntry] = []
        for entry in entries:
            key = entry.key
            pid = partition_of(key, num_partitions, hash_name)
            chain, replica_index = membership.route(pid, num_replicas)
            if replica_index < 0:
                unroutable.append(entry)
                continue
            target = chain[replica_index]
            attempt = groups.get(target.instance_id)
            if attempt is None:
                attempt = groups[target.instance_id] = BatchAttempt(
                    target.address, target.node_id, target.instance_id, op, epoch, [], []
                )
            attempt.entries.append(entry)
            attempt.subs.append((key, entry.value, next_id(), replica_index))
        if max_bytes is None and max_entries is None:
            return list(groups.values()), unroutable
        # Chunk each owner group under the transport's size/count limits.
        budget = (
            None if max_bytes is None else max(1, max_bytes - BATCH_REQUEST_OVERHEAD)
        )
        attempts: list[BatchAttempt] = []
        for group in groups.values():
            chunk = replace(group, entries=[], subs=[])
            size = 0
            for entry, sub in zip(group.entries, group.subs):
                wire = framed_request_size(sub[0], sub[1])
                full_count = max_entries and len(chunk.entries) >= max_entries
                full_bytes = (
                    budget is not None and chunk.entries and size + wire > budget
                )
                if full_count or full_bytes:
                    attempts.append(chunk)
                    chunk = replace(group, entries=[], subs=[])
                    size = 0
                chunk.entries.append(entry)
                chunk.subs.append(sub)
                size += wire
            if chunk.entries:
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
            count = self.failure_counts.get(node_id, 0) + 1
            self.failure_counts[node_id] = count
            breaker = self._breakers.get(node_id)
            probe_failed = (
                breaker is not None and breaker.state is BreakerState.HALF_OPEN
            )
        # The histogram is internally locked; the percentile math runs
        # outside _state_lock.
        pair = self._rtt.get(node_id)
        contribution = self._suspicion_contribution(
            pair[0] if pair else None, timeout_s
        )
        with self._state_lock:
            score = self.suspicion.get(node_id, 0.0) + contribution
            self.suspicion[node_id] = score
            reached_threshold = score >= self.config.failures_before_dead
        if probe_failed or reached_threshold:
            return self._mark_node_dead(node_id)
        return False

    def record_success(self, node_id: str, rtt_s: float | None = None) -> None:
        """Clear suspicion for *node_id* and feed its RTT history."""
        # zht-lint: ignore[LOCK001] GIL-atomic emptiness reads; a timeout racing this reply lands after it, as if the reply had come first
        if self.failure_counts or self.suspicion or self._breakers:
            with self._state_lock:
                self.failure_counts.pop(node_id, None)
                self.suspicion.pop(node_id, None)
                self._breakers.pop(node_id, None)  # half-open probe succeeded
        if rtt_s is None:
            return
        pair = self._rtt.get(node_id)
        if pair is None:
            name = f"client.rtt.{node_id}"
            pair = self._rtt.setdefault(
                node_id, (LatencyHistogram(name), REGISTRY.histogram(name))
            )
        pair[0].record(rtt_s)
        pair[1].record(rtt_s)

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
        if not self._breakers:  # zht-lint: ignore[LOCK001] GIL-atomic emptiness read; a breaker opened this instant is seen by the next op
            return
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

    def take_notifications(self) -> list[Notification]:
        """Atomically drain the pending manager notifications."""
        if not self.pending_notifications:  # zht-lint: ignore[LOCK001] GIL-atomic emptiness read; a note queued this instant leaves with the next op
            return []
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
            self.failure_counts.pop(node_id, None)
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
            note = Notification(
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
    """Drives one logical operation through attempts until done/failed."""

    def __init__(
        self,
        core: ZHTClientCore,
        op: OpCode,
        key: bytes,
        value: bytes,
        pid: int,
        *,
        start_replica_index: int = 0,
    ) -> None:
        self.core = core
        self.op = op
        self.key = key
        self.value = value
        #: The key's partition: hashed once per operation, by the caller.
        self.pid = pid
        self.state = OpState.RUNNING
        self.response: Response | None = None
        self.error: ZHTError | None = None
        #: Absolute wall-clock deadline; propagated in every request
        #: header and enforced locally when planning each attempt.
        self.deadline = core.clock() + core.deadline_budget()
        self._attempts_used = 0
        self._retries_on_target = 0
        #: Chain position of the current target.  Normally 0 (the owner);
        #: heat-spread lookups start deeper in the chain and walk forward
        #: from there like any degraded read.
        self._replica_index = start_replica_index
        self._current: Attempt | None = None
        #: Node the current attempt went to: the one a reply (or its
        #: absence) is evidence about, whatever the table says by then.
        self._sent_to = ""
        self._overloaded_seen = False

    # ------------------------------------------------------------------

    @property
    def served_replica_index(self) -> int:
        """Replica-chain position of the final attempt's target (0 =
        owner, 1 = strongly-consistent secondary, >=2 = async replica).
        The history recorder stores this with each event so the
        consistency checker knows which guarantee the read carries."""
        return self._replica_index

    def _target(self) -> InstanceInfo | None:
        """Current target instance, honouring failover position and
        skipping replicas on dead nodes."""
        chain, first = self.core.membership.route(
            self.pid, self.core.config.num_replicas
        )
        # Positions past the first alive one are alive (see route()).
        index = max(self._replica_index, first)
        if first < 0 or index >= len(chain):
            return None
        self._replica_index = index
        return chain[index]

    def next_attempt(self) -> Attempt | None:
        """The next attempt to execute, or ``None`` once settled."""
        if self.state is not OpState.RUNNING:
            return None
        cfg = self.core.config
        if self._attempts_used > cfg.max_retries:
            if self._overloaded_seen:
                self._fail(
                    ServerOverloaded(
                        f"{self.op.name} shed by overloaded servers"
                    )
                )
            else:
                self._fail(RequestTimeout(f"{self.op.name} exhausted retries"))
            return None
        remaining = self.deadline - self.core.clock()
        if remaining <= 0:
            self._fail(
                DeadlineExceeded(f"{self.op.name} deadline exceeded")
            )
            return None
        target = self._target()
        if target is None:
            self._fail(
                NodeDeadError(
                    f"no alive replica for partition {self.pid} "
                    f"(op {self.op.name})"
                )
            )
            return None
        request = Request(
            op=self.op,
            key=self.key,
            value=self.value,
            request_id=self.core.allocate_request_id(),
            epoch=self.core.membership.epoch,
            replica_index=self._replica_index,
            deadline_us=int(self.deadline * 1e6),
        )
        timeout = cfg.request_timeout
        delay = 0.0
        if self._retries_on_target > 0:
            timeout *= cfg.backoff_factor ** self._retries_on_target
            delay = cfg.request_timeout * (
                cfg.backoff_factor ** (self._retries_on_target - 1)
            )
            if cfg.retry_jitter:
                # Full jitter (delay ~ U[0, base]) desynchronizes the
                # retry storms that lockstep exponential backoff creates
                # when many clients time out against one slow server.
                delay = self.core.rng.uniform(0.0, delay)
        # The deadline caps both the wait before the attempt and the
        # attempt itself; a schedule that cannot fit gives the attempt
        # whatever budget is left rather than overshooting the deadline.
        delay = min(delay, remaining)
        timeout = min(timeout, remaining - delay)
        if timeout <= 0:
            self._fail(
                DeadlineExceeded(f"{self.op.name} deadline exceeded")
            )
            return None
        self._current = Attempt(target.address, request, timeout, delay)
        self._sent_to = target.node_id
        self._attempts_used += 1
        return self._current

    # ------------------------------------------------------------------

    def on_response(self, response: Response, rtt_s: float | None = None) -> None:
        if self.state is not OpState.RUNNING or self._current is None:
            return
        core = self.core
        core.record_success(self._sent_to, rtt_s=rtt_s)
        core.adopt_membership(response.membership)

        if response.status == Status.REDIRECT:
            # Membership was piggybacked; recompute the owner and retry.
            core.stats.inc("redirects_followed")
            self._retries_on_target = 0
            return
        if response.status == Status.MIGRATING:
            # Partition briefly locked; back off and retry.
            core.stats.inc("retries")
            self._retries_on_target += 1
            return
        if response.status == Status.RETRY_LATER:
            # Explicit overload shed: the node is alive (it answered), so
            # nothing counts toward suspicion.  Lookups degrade to the
            # next replica under the bounded-staleness contract; anything
            # else backs off (with jitter) and retries the same target.
            core.stats.inc("retry_later")
            if (
                self.op == OpCode.LOOKUP
                and core.config.degraded_reads
                and self._replica_index < core.config.num_replicas
            ):
                self._replica_index += 1
                self._retries_on_target = 0
                core.stats.inc("degraded_reads")
                return
            self._overloaded_seen = True
            core.stats.inc("retries")
            self._retries_on_target += 1
            return
        if response.status == Status.DEADLINE_EXCEEDED:
            # The server's clock says our deadline passed.  Trust our own
            # clock instead (tolerates skew): back off and let
            # next_attempt() settle the failure if we agree.
            core.stats.inc("retries")
            self._retries_on_target += 1
            return
        self.response = response
        self.state = OpState.DONE

    def on_timeout(self) -> None:
        """The transport observed no response within ``attempt.timeout``."""
        if self.state is not OpState.RUNNING or self._current is None:
            return
        core = self.core
        core.stats.inc("retries")
        timeout_s = self._current.timeout
        self._retries_on_target += 1
        died = core.record_timeout(self._sent_to, timeout_s=timeout_s)
        if died:
            # Fail over to the next replica in the chain.
            self._replica_index += 1
            self._retries_on_target = 0
            if self._replica_index <= core.config.num_replicas:
                core.stats.inc("failovers")

    # ------------------------------------------------------------------

    def _fail(self, error: ZHTError) -> None:
        self.error = error
        self.state = OpState.FAILED

    def result(self) -> Response:
        """Final response; raises the mapped exception on failure."""
        if self.state is OpState.FAILED:
            assert self.error is not None
            raise self.error
        if self.state is not OpState.DONE or self.response is None:
            raise ZHTError("operation still in flight")
        raise_for_status(
            self.response.status,
            f"{self.op.name} {self.key!r}",
        )
        return self.response
