"""Configuration for ZHT deployments.

A single :class:`ZHTConfig` drives both the real runtime (``repro.net``)
and the simulator (``repro.sim``), so experiments can swap substrates
without touching deployment code.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .hashing import DEFAULT_HASH, HASH_FUNCTIONS


class ReplicationMode:
    """How updates reach replicas beyond the secondary.

    Per the paper (§III.J): "The ZHT primary replica and secondary replica
    are strongly consistent, other replicas are asynchronously updated
    after the secondary replica is complete" — i.e. ZHT's native mode is
    ``ASYNC``.  ``SYNC`` (every replica updated before the client sees the
    ack) is implemented for the Figure 12 ablation, where the paper
    estimates sync replication would cost +100%/+200% for 1/2 replicas.
    """

    ASYNC = "async"
    SYNC = "sync"
    #: Fire-and-forget to *all* replicas, including the secondary.  Weakest
    #: mode; not used by the paper but useful as an ablation lower bound.
    NONE = "none"

    ALL = (ASYNC, SYNC, NONE)


@dataclass(frozen=True)
class ZHTConfig:
    """Tunable parameters of a ZHT deployment.

    Defaults follow the paper's micro-benchmark setup where one is stated
    (e.g. key length 15 B / value length 132 B caps are workload, not
    config; replication defaults off as in the baseline runs).
    """

    #: Fixed total number of partitions, "a fixed big number indicating
    #: the maximal number of nodes that can be used in the system".
    num_partitions: int = 1024
    #: Replicas *in addition to* the primary copy (0 disables replication).
    num_replicas: int = 0
    replication_mode: str = ReplicationMode.ASYNC
    #: Ring hash function name (see :data:`repro.core.hashing.HASH_FUNCTIONS`).
    hash_name: str = DEFAULT_HASH

    # --- client behaviour -------------------------------------------------
    #: Base request timeout in seconds before the first retry.
    request_timeout: float = 1.0
    #: Exponential backoff multiplier between retries ("lazily tagging
    #: nodes that do not respond to requests repeatedly as failed (using
    #: exponential back off)").
    backoff_factor: float = 2.0
    #: Suspicion threshold before a physical node is marked dead.  With
    #: ``failure_detector="count"`` this is the classic consecutive-timeout
    #: counter; with ``"phi"`` each timeout contributes an RTT-scaled
    #: suspicion amount in ``[1, SUSPICION_EVENT_CAP]``, so established-fast
    #: nodes are declared dead sooner while cold-start behaviour degrades
    #: exactly to the counter.
    failures_before_dead: int = 3
    #: Max retries per logical operation (across replicas).
    max_retries: int = 6
    #: Total wall-clock budget for one logical operation (seconds); the
    #: deadline is propagated to servers in the request header.  ``None``
    #: derives a worst-case budget from the retry/backoff schedule so it
    #: never binds before the retry budget does.
    op_deadline_s: float | None = None
    #: Full-jitter retry backoff (delay ~ Uniform[0, base_delay]); disable
    #: for deterministic backoff schedules in tests/ablations.
    retry_jitter: bool = True
    #: Failure-detector algorithm: ``"phi"`` (RTT-adaptive accrual) or
    #: ``"count"`` (legacy consecutive-timeout counter, kept for ablation).
    failure_detector: str = "phi"
    #: Circuit-breaker cooldown before a suspected-dead node is re-probed
    #: (half-open), doubling per consecutive re-open up to the max.
    breaker_cooldown_s: float = 0.5
    breaker_cooldown_max_s: float = 8.0
    #: Allow lookups to fail over to replicas when the owner sheds load
    #: (RETRY_LATER) — reads degrade to the bounded-staleness contract
    #: instead of erroring.
    degraded_reads: bool = True
    #: Server admission control: max concurrently-admitted client requests
    #: before new ones are shed with RETRY_LATER (0 = unbounded).
    max_inflight: int = 256

    # --- hot keys (Zipf skew) ----------------------------------------------
    #: Spread lookups of client-observed hot keys across the replica chain
    #: (primary + replicas, round-robin) instead of hammering the owner.
    #: Reads served off positions >= 2 fall under the same bounded-staleness
    #: contract as degraded reads; requires ``num_replicas`` > 0 to have
    #: any effect.
    hot_read_spread: bool = True
    #: Lookups of one key within the heat tracker's sliding window before
    #: the client treats it as hot.
    hot_key_threshold: int = 64
    #: Client-side hot-key value cache capacity (entries).  0 disables the
    #: cache (default: caching trades read recency for owner offload and
    #: is only sound while reads tolerate ``hot_key_cache_ttl_s`` of
    #: staleness — the bounded-staleness contract).
    hot_key_cache_size: int = 0
    #: Max age of a served cache entry in seconds.  Cache hits count as
    #: bounded-stale reads: verify runs must use a staleness bound >= this
    #: TTL plus the async replication lag.
    hot_key_cache_ttl_s: float = 0.1

    # --- persistence (NoVoHT) --------------------------------------------
    #: Directory for NoVoHT WAL + checkpoint files; ``None`` = memory only.
    persistence_dir: str | None = None
    #: Checkpoint after this many logged mutations (NoVoHT "re-size rate"
    #: analogue for the log; 0 disables periodic checkpointing).
    checkpoint_interval_ops: int = 10_000
    #: Trigger WAL garbage collection when dead records exceed this
    #: fraction of the log.
    gc_dead_ratio: float = 0.5
    #: Maximum key/value sizes; ``None`` = unlimited (ZHT, unlike
    #: memcached, imposes no 250B/1MB limits).
    max_key_bytes: int | None = None
    max_value_bytes: int | None = None
    #: fsync the WAL on every commit.  Off by default (matching NoVoHT's
    #: benchmarked configuration); the group-commit benchmark turns it on
    #: to measure one-fsync-per-batch durability.
    wal_fsync: bool = False

    # --- networking -------------------------------------------------------
    #: "tcp", "udp", or "local" (in-process).
    transport: str = "tcp"
    #: Connection caching for TCP clients: > 0 keeps one multiplexed
    #: socket per server; 0 pays a fresh ``connect()`` per operation (the
    #: paper's "TCP without connection caching" mode).
    connection_cache_size: int = 128

    # --- instances ---------------------------------------------------------
    #: ZHT instances per physical node (paper sweeps 1..8; 1 per core is
    #: reported to give the best utilisation).
    instances_per_node: int = 1
    #: Worker *processes* per node for
    #: :class:`~repro.net.shard.ShardedNodeServer` — each shard runs its
    #: own event loop over its own ZHT instance, store, and WAL, so one
    #: node saturates all cores
    #: (the paper's one-instance-per-core deployment, Figs. 13/14).
    num_shards: int = 1

    # --- consistency mutation modes (verification self-test ONLY) ----------
    #: TEST-ONLY: the owner acknowledges mutations *without* updating the
    #: strongly-consistent secondary (no sync send at all).  Breaks the
    #: paper's primary/secondary strong-consistency guarantee; exists so
    #: the consistency checker (:mod:`repro.verify`) can prove it detects
    #: exactly this failure class.  Never enable outside tests.
    test_skip_secondary_sync: bool = False
    #: TEST-ONLY: replicas at chain position >= 2 silently drop incoming
    #: replica updates, so async-replica reads become unboundedly stale.
    #: Exists to prove the bounded-staleness checker can fail.
    test_freeze_tail_replicas: bool = False

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if self.num_replicas < 0:
            raise ValueError("num_replicas must be >= 0")
        if self.replication_mode not in ReplicationMode.ALL:
            raise ValueError(
                f"replication_mode must be one of {ReplicationMode.ALL}"
            )
        if self.hash_name not in HASH_FUNCTIONS:
            raise ValueError(f"unknown hash function {self.hash_name!r}")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.op_deadline_s is not None and self.op_deadline_s <= 0:
            raise ValueError("op_deadline_s must be positive or None")
        if self.failure_detector not in ("phi", "count"):
            raise ValueError("failure_detector must be 'phi' or 'count'")
        if self.breaker_cooldown_s <= 0:
            raise ValueError("breaker_cooldown_s must be positive")
        if self.breaker_cooldown_max_s < self.breaker_cooldown_s:
            raise ValueError(
                "breaker_cooldown_max_s must be >= breaker_cooldown_s"
            )
        if self.max_inflight < 0:
            raise ValueError("max_inflight must be >= 0")
        if self.hot_key_threshold <= 0:
            raise ValueError("hot_key_threshold must be positive")
        if self.hot_key_cache_size < 0:
            raise ValueError("hot_key_cache_size must be >= 0")
        if self.hot_key_cache_ttl_s <= 0:
            raise ValueError("hot_key_cache_ttl_s must be positive")
        if not 0.0 <= self.gc_dead_ratio <= 1.0:
            raise ValueError("gc_dead_ratio must be in [0, 1]")
        if self.transport not in ("tcp", "udp", "local"):
            raise ValueError("transport must be 'tcp', 'udp', or 'local'")
        if self.instances_per_node <= 0:
            raise ValueError("instances_per_node must be positive")
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")

    def replace(self, **changes: object) -> "ZHTConfig":
        """Return a copy of this config with *changes* applied."""
        return dataclasses.replace(self, **changes)


DEFAULT_CONFIG = ZHTConfig()
