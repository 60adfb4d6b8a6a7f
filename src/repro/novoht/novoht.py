"""NoVoHT — Non-Volatile Hash Table.

The persistent key/value store underneath every ZHT instance (§III.I).
Design points reproduced from the paper:

* **In-memory map, log-based persistence.** All pairs live in memory for
  constant-time lookups ("Since all key-value pairs are kept in memory, it
  lends itself to low latency in lookups when compared to other persistent
  hash maps ... which are disk-based"); every mutation is appended to a
  write-ahead log before being applied.
* **Periodic checkpointing.** Every ``checkpoint_interval_ops`` logged
  mutations, the table is snapshotted and the WAL truncated.
* **Garbage collection.** When the fraction of dead (overwritten/removed)
  WAL records exceeds ``gc_dead_ratio``, the log is compacted to the live
  set.
* **Bounded memory.** ``max_memory_pairs`` caps how many values stay in
  RAM ("By tuning the number of Key-Value pairs that are allowed stay in
  memory, users can achieve the balance between performance and memory
  consumption"); excess values spill to an overflow file and are read
  back on demand.
* **``append``.** Appends a byte string to an existing value under a
  local lock — the primitive that gives ZHT lock-free *distributed*
  concurrent modification.

Keys and values are ``bytes``.  The store is safe for concurrent use from
multiple threads (one coarse lock; ZHT servers are single-threaded event
loops, so this lock is uncontended in normal operation).
"""

from __future__ import annotations

import io
import os
import threading
from typing import BinaryIO, Callable, Iterator

from ..core.errors import KeyNotFound, MigrationError, StoreError
from ..obs import NULL_SPAN, REGISTRY
from .checkpoint import encode_image, open_checkpoint, read_image, write_checkpoint
from .wal import OP_APPEND, OP_PUT, OP_REMOVE, WriteAheadLog


#: Per-store counters (``store.stats.<field>``; process totals are
#: ``novoht.<field>``).
NOVOHT_COUNTERS = (
    "puts",
    "gets",
    "removes",
    "appends",
    "checkpoints",
    "gc_runs",
    "spilled_reads",
)

#: Operation kind -> (span name, counter, WAL opcode).
_KINDS = {
    "put": ("novoht.put", "puts", OP_PUT),
    "get": ("novoht.get", "gets", 0),
    "remove": ("novoht.remove", "removes", OP_REMOVE),
    "append": ("novoht.append", "appends", OP_APPEND),
}
_REPLAY_KINDS = {OP_PUT: "put", OP_REMOVE: "remove", OP_APPEND: "append"}
#: Operation kind -> the counter a hit bumps.
_COUNTERS = {kind: counter for kind, (_span, counter, _op) in _KINDS.items()}


class _Spilled:
    """Marker for a value that lives in the overflow file, not RAM."""

    __slots__ = ("offset", "length")

    def __init__(self, offset: int, length: int) -> None:
        self.offset = offset
        self.length = length


class NoVoHT:
    """A persistent hash map with put/get/remove/append.

    Class attribute ``_GC_MIN_RECORDS`` bounds how small a WAL is worth
    compacting — below it, GC overhead exceeds the space it reclaims
    (tests that exercise GC lower it).

    Parameters
    ----------
    path:
        Directory for persistence files (``novoht.wal``, ``novoht.ckpt``,
        ``novoht.ovf``).  ``None`` gives a volatile, memory-only table
        (the paper's "NoVoHT no persistence" configuration in Figure 6).
    checkpoint_interval_ops:
        Snapshot + truncate the WAL after this many mutations (0 = never).
    gc_dead_ratio:
        Compact the WAL when dead records exceed this fraction (checked at
        mutation time; only meaningful between checkpoints).
    max_memory_pairs:
        Maximum number of values kept in RAM; 0 or ``None`` = unlimited.
    fsync:
        fsync the WAL on every mutation (durability vs throughput).
    wal_opener:
        Optional ``(path, mode) -> file`` factory for the WAL's append
        handle; the fault-injection shim uses it to simulate crashes
        with lost fsyncs and torn tails.
    """

    #: Minimum WAL records before automatic GC is considered.
    _GC_MIN_RECORDS = 4096

    def __init__(
        self,
        path: str | None = None,
        *,
        checkpoint_interval_ops: int = 10_000,
        gc_dead_ratio: float = 0.5,
        max_memory_pairs: int | None = None,
        fsync: bool = False,
        wal_opener: "Callable[[str, str], BinaryIO] | None" = None,
    ) -> None:
        if checkpoint_interval_ops < 0:
            raise ValueError("checkpoint_interval_ops must be >= 0")
        if not 0.0 <= gc_dead_ratio <= 1.0:
            raise ValueError("gc_dead_ratio must be in [0, 1]")
        if max_memory_pairs is not None and max_memory_pairs < 0:
            raise ValueError("max_memory_pairs must be >= 0")

        self._map: dict[bytes, bytes | _Spilled] = {}
        self._lock = threading.RLock()
        #: Serializes checkpoint/GC passes; waiters release _lock while
        #: a pass's unlocked snapshot write is in flight.
        self._maint_cond = threading.Condition(self._lock)
        self._maint_busy = False
        self._maint_pending: str | None = None
        #: When set (``set_maintenance_executor``), due maintenance hops
        #: to this submit callable instead of running on the mutating
        #: thread — an event-loop server must not serialize the whole
        #: table on its selector thread.
        self._maint_submit: Callable[[Callable[[], None]], object] | None = None
        self.stats = REGISTRY.counter_set("novoht", NOVOHT_COUNTERS)
        #: The op counters, bumped under the store lock.
        self._counts = self.stats.owned_cells()
        #: WAL records known dead (overwritten or removed keys): what the
        #: GC trigger weighs against the log's length.
        self._dead_records = 0
        self.checkpoint_interval_ops = checkpoint_interval_ops
        self.gc_dead_ratio = gc_dead_ratio
        self.max_memory_pairs = max_memory_pairs or 0
        self._ops_since_checkpoint = 0
        self._closed = False

        self.path = path
        self._wal: WriteAheadLog | None = None
        self._ckpt_path: str | None = None
        self._ovf_path: str | None = None
        self._ovf_file = None
        self._ovf_garbage = 0

        if path is not None:
            os.makedirs(path, exist_ok=True)
            self._ckpt_path = os.path.join(path, "novoht.ckpt")
            self._ovf_path = os.path.join(path, "novoht.ovf")
            wal = WriteAheadLog(
                os.path.join(path, "novoht.wal"), fsync=fsync, opener=wal_opener
            )
            # Replay runs before the log is attached, so it re-applies
            # the records without logging them again.
            self._recover(wal)
            wal.open()
            self._wal = wal

    @property
    def lock(self) -> threading.RLock:
        """The store's mutation lock (reentrant).

        Callers that must make a store mutation atomic with bookkeeping
        of their own — e.g. the server core pairing an apply with a
        replication-order ticket — hold this around both; the store's
        methods re-acquire it safely.
        """
        return self._lock

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _recover(self, wal: WriteAheadLog) -> None:  # construction only: single-threaded
        """Rebuild the in-memory map from checkpoint + WAL replay.

        The checkpoint names the WAL prefix it covers (epoch + offset);
        when the on-disk log still carries that epoch — a crash landed
        between the checkpoint commit and the WAL compaction — replay
        starts past the covered prefix instead of re-applying it (covered
        ``append`` records would otherwise duplicate their fragments).
        An epoch mismatch means the log was compacted after the
        checkpoint committed, so the whole log is the uncovered suffix.
        """
        assert self._ckpt_path is not None
        with open_checkpoint(self._ckpt_path) as (ckpt_epoch, ckpt_offset, pairs):
            self._map.update(pairs)
        for op, key, value in wal.replay((ckpt_epoch, ckpt_offset)):
            self._apply(_REPLAY_KINDS[op], key, value, None)
        # The overflow file from a previous run is invalidated by recovery
        # (everything replays into RAM); start it fresh.
        if self._ovf_path and os.path.exists(self._ovf_path):
            os.remove(self._ovf_path)
        self._enforce_memory_bound()

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite *key* with *value*."""
        self._check_kv(key, value)
        self._mutate("put", key, value)

    def get(self, key: bytes) -> bytes:
        """Return the value for *key*; raise :class:`KeyNotFound` if absent."""
        self._check_key(key)
        with REGISTRY.span("novoht.get") if REGISTRY.enabled else NULL_SPAN, self._lock:
            self._ensure_open()
            self._counts["gets"] += 1
            value = self._apply("get", key, b"", None)[1]
        if value is None:
            raise KeyNotFound(repr(key))
        return value

    def remove(self, key: bytes) -> None:
        """Delete *key*; raise :class:`KeyNotFound` if absent."""
        self._check_key(key)
        if not self._mutate("remove", key, b""):
            raise KeyNotFound(repr(key))

    def append(self, key: bytes, value: bytes) -> None:
        """Append *value* to the value stored at *key*.

        If *key* is absent, behaves like :meth:`put` (matching ZHT, where
        the first append creates the entry — FusionFS relies on this when
        the first file is created in a directory).  Runs under the store's
        local lock: "simple local locks are still needed to prevent
        multiple threads from concurrently modifying the same memory
        location".
        """
        self._check_kv(key, value)
        self._mutate("append", key, value)

    def _mutate(self, kind: str, key: bytes, value: bytes) -> bool:
        """One logged mutation plus its bookkeeping; ``False`` (nothing
        logged or changed) for a remove of a missing key."""
        span, counter, _op = _KINDS[kind]
        with REGISTRY.span(span) if REGISTRY.enabled else NULL_SPAN, self._lock:
            self._ensure_open()
            if not self._apply(kind, key, value, None)[0]:
                return False
            self._counts[counter] += 1
            maint = self._after_mutations(1)
        if maint is not None:
            self._run_maintenance(maint)
        return True

    def _apply(
        self,
        kind: str,
        key: bytes,
        value: bytes,
        group: list[tuple[int, bytes, bytes]] | None,
    ) -> tuple[bool, bytes | None]:  # holds-lock: _lock
        """The store's rules for one operation; every path that changes
        or reads the map — single ops, batches, WAL replay — runs them.

        Returns ``(ok, value)``: ``ok`` is ``False`` only for a get or
        remove of a missing key, ``value`` is the bytes a successful get
        found.  A mutation is logged before the map changes: straight to
        the WAL, or onto *group* when the caller commits a whole batch
        with one write (a commit that fails stops the store for good, so
        a map that ran ahead of its log is never served).
        """
        old = self._map.get(key)
        if kind == "get":
            if isinstance(old, _Spilled):
                old = self._load_spilled(key, old)
            return old is not None, old
        new = value
        if kind == "remove":
            if old is None:
                return False, None
            value = b""  # the record names the key only
        elif kind == "append" and old is not None:
            if isinstance(old, _Spilled):
                old = self._load_spilled(key, old)
            new = old + value
        op = _KINDS[kind][2]
        if group is not None:
            group.append((op, key, value))
        elif self._wal is not None:
            self._wal.append(op, key, value)
        if kind == "remove":
            del self._map[key]
            if isinstance(old, _Spilled):
                self._ovf_garbage += old.length
            self._dead_records += 2  # the put and the remove record
        else:
            self._map[key] = new
            if old is not None:
                self._dead_records += 1
        return True, None

    def apply_batch(
        self, ops: list[tuple[str, bytes, bytes]]
    ) -> list[tuple[bool, bytes | None]]:
        """Apply a batch of operations with ONE WAL group commit.

        *ops* is a list of ``(kind, key, value)`` where ``kind`` is one of
        ``"put"``, ``"get"``, ``"remove"``, ``"append"`` (``value`` is
        ignored, and so not checked, for get/remove); all of it is checked
        before any of it is applied.  Returns one ``(ok, value)`` per op, in
        order: ``ok`` is ``False`` only for a get/remove of a missing key;
        ``value`` is the looked-up bytes for a successful get, else
        ``None``.

        Semantics are identical to applying the ops sequentially — same
        results, same final map — but all WAL records land in a single
        write/flush/fsync (:meth:`WriteAheadLog.append_many`), so a batch
        of N mutations costs one fsync.  On crash, a torn tail drops only
        the incomplete suffix of the group; since the batch is only
        acknowledged after the group commit returns, acked batches are as
        durable as acked single ops.
        """
        for kind, key, value in ops:
            if key.__class__ is not bytes or value.__class__ is not bytes or kind not in _KINDS:
                self._check_op(kind, key, value)
        results: list[tuple[bool, bytes | None]] = []
        group: list[tuple[int, bytes, bytes]] = []
        with REGISTRY.span("novoht.apply_batch") if REGISTRY.enabled else NULL_SPAN, self._lock:
            wal = self._wal
            if self._closed or wal is not None and wal.failed:
                self._ensure_open()  # raises: the store is fail-stop
            counts = self._counts
            try:
                for kind, key, value in ops:
                    result = self._apply(kind, key, value, group)
                    results.append(result)
                    if result[0] or kind == "get":
                        counts[_COUNTERS[kind]] += 1
            finally:
                # Also when an op raised part-way (a spilled value that
                # cannot be read back): what reached the map is logged.
                if group and wal is not None:
                    wal.append_many(group)
            maint = self._after_mutations(len(group)) if group else None
        if maint is not None:
            self._run_maintenance(maint)
        return results

    @classmethod
    def _check_op(cls, kind: str, key: bytes, value: bytes) -> None:
        """The checks of one :meth:`apply_batch` op that is not all bytes."""
        if kind not in _KINDS:
            raise ValueError(f"unknown batch op kind {kind!r}")
        cls._check_key(key)
        if kind in ("put", "append"):
            cls._check_kv(key, value)

    def contains(self, key: bytes) -> bool:
        with self._lock:
            return key in self._map

    def __contains__(self, key: bytes) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._map)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Snapshot iterator over ``(key, value)`` pairs.

        Spilled values are faulted in, so the iterator yields real bytes.
        """
        with self._lock:
            keys = list(self._map.keys())
        for key in keys:
            with self._lock:
                value = self._map.get(key)
                if value is None:
                    continue
                if isinstance(value, _Spilled):
                    value = self._load_spilled(key, value)
            yield key, value

    # ------------------------------------------------------------------
    # Persistence management
    # ------------------------------------------------------------------

    def checkpoint(self, *, wait: bool = True) -> None:
        """Snapshot the table and drop the covered WAL prefix.

        The expensive full-table serialization + fsync runs **outside**
        the store lock: the table is snapshotted under the lock, written
        while concurrent put/get/remove proceed, then the WAL prefix the
        snapshot covers is dropped under a brief re-acquire.  Mutations
        that land mid-write stay in the WAL suffix and survive.

        ``wait=False`` returns immediately if another checkpoint/GC pass
        is already in flight (the automatic maintenance path);
        ``wait=True`` queues behind it and then runs its own pass, so an
        explicit ``checkpoint()``/``flush()`` always covers every
        mutation that preceded the call.
        """
        self._checkpoint_impl("checkpoint", wait=wait)

    def gc(self, *, wait: bool = True) -> None:
        """Reclaim dead WAL records.

        Delegates to the checkpoint pass: compacting the log *to the live
        puts alone* (the old implementation) silently dropped ``remove``
        records that a key present in an older checkpoint still needed —
        crash recovery would resurrect the key.  A checkpoint supersedes
        the whole log, so the compacted result is a fresh snapshot plus
        an (empty) suffix, and removals stay removed.
        """
        if self._wal is None:
            return
        self._checkpoint_impl("gc", wait=wait)

    def _checkpoint_impl(self, kind: str, *, wait: bool) -> None:
        if self._wal is None or self._ckpt_path is None:
            return
        with REGISTRY.span(f"novoht.{kind}") if REGISTRY.enabled else NULL_SPAN:
            with self._lock:
                while self._maint_busy:
                    if not wait:
                        return
                    # Condition.wait releases _lock in full (even when
                    # held reentrantly it re-balances), so the in-flight
                    # pass can take the lock to commit.
                    self._maint_cond.wait()
                if not self._wal.is_open or self._wal.failed:
                    return
                self._maint_busy = True
                pairs = self._snapshot_pairs()
                _epoch, covered_offset, covered_records = self._wal.tail_position()
                covered_dead = self._dead_records
                self._ops_since_checkpoint = 0
            committed = False
            try:
                # No lock held: concurrent mutations append to the WAL
                # suffix past covered_offset and edit the live map; both
                # are outside what this snapshot claims to cover.
                write_checkpoint(
                    self._ckpt_path,
                    pairs,
                    wal_epoch=_epoch,
                    wal_offset=covered_offset,
                )
                committed = True
            finally:
                with self._lock:
                    if committed:
                        self._wal.drop_covered(covered_offset, covered_records)
                        self._dead_records = max(
                            0, self._dead_records - covered_dead
                        )
                        self.stats.inc("gc_runs" if kind == "gc" else "checkpoints")
                    self._maint_busy = False
                    self._maint_cond.notify_all()

    def _snapshot_pairs(self) -> list[tuple[bytes, bytes]]:  # holds-lock: _lock
        """Materialize the live ``(key, value)`` pairs for a snapshot.

        Spilled values are read without promoting them back to RAM — a
        snapshot is a read-only observer and must not churn the memory
        bound while it holds the lock.
        """
        pairs: list[tuple[bytes, bytes]] = []
        for key, value in self._map.items():
            if isinstance(value, _Spilled):
                value = self._read_spilled(key, value)
            pairs.append((key, value))
        return pairs

    def image(self) -> bytes:
        """The table as one store image (:mod:`.checkpoint`): what a
        checkpoint of this moment would hold and a transfer carries."""
        with self._lock:
            self._ensure_open()
            pairs = self._snapshot_pairs()
        return encode_image(pairs)

    def install(self, image: bytes) -> int:
        """Replace the table's content with *image*; return the pair count.

        The whole image is checked first (:class:`MigrationError`, store
        untouched).  Then, under the lock, it is written as the checkpoint
        covering the current WAL tail — the commit point: a crash reopens
        as the old content before the rename, as exactly the image after —
        the map is swapped and the covered log dropped.  Nothing the store
        held survives: a key the sender removed is not resurrected here.
        """
        try:
            new_map: dict[bytes, bytes | _Spilled] = dict(read_image(io.BytesIO(image))[2])
        except StoreError as exc:
            raise MigrationError(f"bad store image: {exc}") from exc
        with self._lock:
            self._ensure_open()
            if self._wal is not None:
                assert self._ckpt_path is not None
                while self._maint_busy:
                    self._maint_cond.wait()
                epoch, offset, records = self._wal.tail_position()
                write_checkpoint(
                    self._ckpt_path, new_map.items(), wal_epoch=epoch, wal_offset=offset
                )
            # Disk says "image" from here on, so memory must too, whether
            # or not trimming the log succeeds.
            self._map = new_map
            self._dead_records = 0
            self._ops_since_checkpoint = 0
            if self._ovf_file is not None:
                self._ovf_file.truncate(0)  # every spilled value was the old map's
                self._ovf_garbage = 0
            self._enforce_memory_bound()
            if self._wal is not None:
                self._wal.drop_covered(offset, records)
        return len(new_map)

    def flush(self) -> None:
        """Force a checkpoint if persistence is enabled."""
        self.checkpoint()

    def close(self) -> None:
        """Checkpoint (if persistent) and release file handles."""
        with self._lock:
            # Checked under the lock: two racing closers would otherwise
            # both pass an unlocked fast-path test and double-close the
            # WAL and overflow handles.
            if self._closed:
                return
            self._closed = True
        # The final checkpoint runs outside the lock like any other; new
        # mutations are already rejected by _ensure_open, and wait=True
        # queues behind (then supersedes) any in-flight pass.
        if self._wal is not None:
            self.checkpoint()
        with self._lock:
            if self._wal is not None:
                self._wal.close()
            if self._ovf_file is not None:
                self._ovf_file.close()
                self._ovf_file = None
            # A closed store serves nothing: free the table now, not when
            # the cycle collector gets to whatever still points at us.
            self._map = {}

    def __enter__(self) -> "NoVoHT":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def info(self) -> dict:
        """Structural information (sizes, knobs, file sizes)."""
        with self._lock:
            in_ram = sum(
                1 for v in self._map.values() if not isinstance(v, _Spilled)
            )
            return {
                "pairs": len(self._map),
                "pairs_in_memory": in_ram,
                "pairs_spilled": len(self._map) - in_ram,
                "persistent": self._wal is not None,
                "wal_bytes": self._wal.size_bytes() if self._wal else 0,
                "wal_records": self._wal.record_count if self._wal else 0,
                "max_memory_pairs": self.max_memory_pairs,
            }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _ensure_open(self) -> None:  # holds-lock: _lock
        if self._closed:
            raise StoreError("NoVoHT is closed")
        if self._wal is not None and self._wal.failed:
            # Fail-stop: the log may end in a torn record that replay
            # stops at, so anything acked from here on could be lost.
            raise StoreError("WAL write failed; reopen the store")

    @staticmethod
    def _check_key(key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)):
            raise TypeError(f"key must be bytes, got {type(key).__name__}")

    @classmethod
    def _check_kv(cls, key: bytes, value: bytes) -> None:
        cls._check_key(key)
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError(f"value must be bytes, got {type(value).__name__}")

    def _after_mutations(self, n: int) -> str | None:  # holds-lock: _lock
        """Post-mutation bookkeeping; returns the maintenance pass that is
        now due or still parked (``"checkpoint"`` / ``"gc"`` / ``None``).

        The pass itself must run *after* the caller releases ``_lock``
        (:meth:`_run_maintenance`) — running it here would hold the lock
        across the full-table disk write, stalling every concurrent op on
        the store for the duration.
        """
        self._ops_since_checkpoint += n
        if self.max_memory_pairs:
            self._enforce_memory_bound()
        if self._wal is None:
            return None
        if (
            self.checkpoint_interval_ops
            and self._ops_since_checkpoint >= self.checkpoint_interval_ops
        ):
            return "checkpoint"
        if (
            self._wal.record_count >= self._GC_MIN_RECORDS
            and self._dead_records
            >= self.gc_dead_ratio * self._wal.record_count
        ):
            return "gc"
        return self._maint_pending

    def _run_maintenance(self, kind: str) -> None:
        """Run (or defer) a due maintenance pass, lock not held by us.

        Callers that wrap store mutations in ``store.lock`` themselves
        (the server core pairs an apply with a replication ticket) still
        hold the reentrant lock here; starting the pass now would drag
        the lock across the snapshot write.  For them the pass is parked
        and picked up by :meth:`run_pending_maintenance` once they
        release the lock.
        """
        with self._lock:
            if self._maint_pending is None:
                self._maint_pending = kind
        if self._lock_held_by_caller():
            return
        self.run_pending_maintenance()

    def set_maintenance_executor(
        self, submit: Callable[[Callable[[], None]], object] | None
    ) -> None:
        """Route due maintenance passes through *submit* (e.g. a thread
        pool's ``submit``) instead of the mutating thread.

        An event-loop server applies store mutations inline on its
        selector thread; without this hook a put that trips the
        checkpoint threshold would serialize and fsync the whole table
        on the loop, stalling every connection behind it.
        """
        self._maint_submit = submit

    # Behind an event loop the attached pool runs the pass
    # (set_maintenance_executor); the inline fallback only runs on
    # embedder/worker threads that may block.
    def run_pending_maintenance(self) -> None:
        """Run any maintenance pass parked by a lock-holding mutator.

        External callers that mutate under :attr:`lock` should call this
        after releasing it; a no-op when nothing is pending.
        """
        submit = self._maint_submit
        if submit is None:
            self._drain_maintenance()
            return
        with self._lock:
            pending = self._maint_pending is not None
        if pending:
            try:
                submit(self._drain_maintenance)
            except RuntimeError:
                # Pool already shut down mid-stop; the pass stays parked
                # and close()'s explicit checkpoint still covers it.
                pass

    def _drain_maintenance(self) -> None:
        with self._lock:
            kind, self._maint_pending = self._maint_pending, None
        if kind == "checkpoint":
            self.checkpoint(wait=False)
        elif kind == "gc":
            self.gc(wait=False)

    def _lock_held_by_caller(self) -> bool:
        # RLock._is_owned: true iff the *current thread* owns the lock.
        # Called only after our own with-blocks have exited, so ownership
        # means an outer frame of this thread still holds it.
        is_owned = getattr(self._lock, "_is_owned", None)
        return bool(is_owned()) if is_owned is not None else False

    # -- spill-to-disk ----------------------------------------------------

    def _open_overflow(self) -> None:  # holds-lock: _lock
        if self._ovf_file is None:
            if self._ovf_path is None:
                raise StoreError("memory bound requires a persistence path")
            self._ovf_file = open(self._ovf_path, "a+b")
        return self._ovf_file

    def _enforce_memory_bound(self) -> None:  # holds-lock: _lock
        if not self.max_memory_pairs:
            return
        in_ram = [
            k for k, v in self._map.items() if not isinstance(v, _Spilled)
        ]
        excess = len(in_ram) - self.max_memory_pairs
        if excess <= 0:
            return
        f = self._open_overflow()
        f.seek(0, os.SEEK_END)
        # Spill the oldest-inserted pairs first (dict preserves insertion
        # order, so the front of the list is the coldest data).
        for key in in_ram[:excess]:
            value = self._map[key]
            assert isinstance(value, bytes)
            offset = f.tell()
            f.write(value)
            self._map[key] = _Spilled(offset, len(value))
        f.flush()

    def _read_spilled(self, key: bytes, marker: _Spilled) -> bytes:  # holds-lock: _lock
        """Read a spilled value without promoting it back to RAM."""
        f = self._open_overflow()
        f.seek(marker.offset)
        value = f.read(marker.length)
        if len(value) != marker.length:
            raise StoreError(f"overflow file truncated reading {key!r}")
        return value

    def _load_spilled(self, key: bytes, marker: _Spilled) -> bytes:  # holds-lock: _lock
        f = self._open_overflow()
        f.seek(marker.offset)
        value = f.read(marker.length)
        if len(value) != marker.length:
            raise StoreError(f"overflow file truncated reading {key!r}")
        self.stats.inc("spilled_reads")
        # Promote back to RAM as the *newest* entry (delete + reinsert moves
        # it to the back of the dict's insertion order) so the bound check
        # re-spills colder keys instead of this one.
        del self._map[key]
        self._map[key] = value
        self._ovf_garbage += marker.length
        self._enforce_memory_bound()
        return value
