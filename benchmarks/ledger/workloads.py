"""The five ledger workloads.

Each workload generates its op stream from the seed *before* anything is
timed, together with the reply an exact single-writer model expects for
every call, so the timed loop only compares.  ``setup`` builds a fresh
deployment through the repo's public builders, preloads it and warms it
up; ``segment`` runs one closed-loop timed section; ``verify`` runs the
after-the-fact checks (durability reopen, DES op accounting).

Why these five, and what each is expected to show, is in README.md.
"""

from __future__ import annotations

import os
import random
import shutil
import threading
import time

from repro.core.config import ZHTConfig
from repro.core.errors import KeyNotFound, ZHTError
from repro.core.hashing import partition_of
from repro.core.protocol import OpCode
from repro.net.cluster import build_sharded_tcp_cluster, build_tcp_cluster
from repro.novoht import NoVoHT
from repro.sim import SimSpec, SimulatedCluster
from repro.workload import (
    KEY_BYTES,
    VALUE_BYTES,
    MicroBenchmarkWorkload,
    ZipfWorkload,
    random_key,
    random_value,
)

from harness import MISSING, MIXED, READ, WRITE, Segment, cpu_seconds, drive, run_marked

#: Distinct values cycled through by writes: enough that a stale read is
#: told from a fresh one, few enough that a long stream shares storage.
POOL = 1024
PRELOAD_BATCH = 512
WARMUP_OPS = 1000


class Model:
    """What a single writer's keys must hold, op by op."""

    def __init__(self, initial: dict[bytes, bytes] | None = None) -> None:
        self.data = dict(initial or {})

    def insert(self, key: bytes, value: bytes) -> None:
        self.data[key] = value

    def append(self, key: bytes, value: bytes) -> None:
        self.data[key] = self.data.get(key, b"") + value

    def lookup(self, key: bytes):
        return self.data.get(key, MISSING)

    def remove(self, key: bytes):
        return None if self.data.pop(key, None) is not None else MISSING

    def insert_many(self, pairs: list) -> None:
        self.data.update(pairs)

    def lookup_many(self, keys: list) -> dict:
        return {key: self.data.get(key) for key in keys}


def _entry(model: Model, name: str, *args):
    kind = READ if name.startswith("lookup") else WRITE
    return (name, args, getattr(model, name)(*args), kind)


def replay_model(model: Model, streams: list[list], done: list[int]) -> None:
    """Advance *model* over the calls that actually ran."""
    for stream, count in zip(streams, done):
        for name, args, _expected, _kind in stream[:count]:
            getattr(model, name)(*args)


class Env:
    """One built, preloaded, warmed-up deployment."""

    def __init__(self, cluster, config: ZHTConfig, child_pids: list[int], spawn_s: float) -> None:
        self.cluster = cluster
        self.config = config
        self.clients: list = []
        self.child_pids = child_pids
        #: Seconds the cluster builder alone took (fork + listen for shards).
        self.spawn_s = spawn_s
        self.setup_failed = 0

    def methods(self, index: int) -> dict:
        zht = self.clients[index]
        return {
            name: getattr(zht, name)
            for name in ("insert", "lookup", "append", "remove", "insert_many", "lookup_many")
        }


class KVWorkload:
    """A workload driven through :class:`repro.api.ZHT` handles."""

    name = ""
    why = ""
    weight = 1  # ops carried by one call
    clients = 1
    value_bytes = VALUE_BYTES
    keys_total = 0
    #: Calls per second per client the stream is sized for (about twice
    #: what this host delivers, so the clock ends the run, not the stream).
    calls_per_s = 0
    overrides: dict = {}

    def __init__(self, seed: int, seconds: float, smoke: bool, work_dir: str, rota) -> None:
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.rota = rota
        if smoke:
            self.keys_total = max(self.clients * 640, self.keys_total // 10)
        self.config = ZHTConfig(**self.overrides)
        self.initial: dict[bytes, bytes] = {}
        self.streams: list[list] = []
        self.warmups: list[list] = []
        self.position = [0] * self.clients
        self._builds = 0

    # -- generation (untimed) ------------------------------------------------

    def generate(self) -> None:
        rng = random.Random(self.seed)
        self.pool = [random_value(rng, self.value_bytes) for _ in range(POOL)]
        self.fragments = [random_value(rng, 32) for _ in range(POOL)]
        calls = int(self.calls_per_s * max(self.seconds, 0.5)) + 64
        for client in range(self.clients):
            keys = self.client_keys(rng, client)
            preload = {key: self.pool[i % POOL] for i, key in enumerate(keys)}
            self.initial.update(preload)
            self.streams.append(self.client_stream(rng, client, keys, Model(preload), calls))
            self.warmups.append(self.warmup_stream(client))

    def client_keys(self, rng: random.Random, client: int) -> list[bytes]:
        count = self.keys_total // self.clients
        keys: dict[bytes, None] = {}
        while len(keys) < count:
            keys[random_key(rng, KEY_BYTES)] = None
        return list(keys)

    def client_stream(self, rng, client: int, keys: list, model: Model, calls: int) -> list:
        raise NotImplementedError

    def warmup_stream(self, client: int) -> list:
        """About 1k ops on keys the measured stream never touches, so every
        code path has run once and a repeated set-up starts from the same
        state."""
        model = Model()
        keys = [b"warm-%d-%08d" % (client, i) for i in range(WARMUP_OPS // 4)]
        value = self.pool[0]
        stream = [_entry(model, "insert", key, value) for key in keys]
        stream += [_entry(model, "lookup", key) for key in keys]
        stream += [_entry(model, "append", key, self.fragments[0]) for key in keys]
        stream += [_entry(model, "remove", key) for key in keys]
        return stream

    # -- set-up (timed as setup_s) -------------------------------------------

    def build(self, config: ZHTConfig):
        return build_tcp_cluster(2, config)

    def child_pids(self, cluster) -> list[int]:
        return []

    def setup(self) -> Env:
        self._builds += 1
        config = self.config
        if config.persistence_dir is not None:
            config = config.replace(
                persistence_dir=os.path.join(self.work_dir, f"store-{self._builds}")
            )
        t0 = time.perf_counter()
        cluster = self.build(config)
        spawn_s = time.perf_counter() - t0
        env = Env(cluster, config, self.child_pids(cluster), spawn_s)
        try:
            env.clients = [
                cluster.client(seed=self.seed + i, client_id=f"ledger-{i}")
                for i in range(self.clients)
            ]
            items = list(self.initial.items())
            for i in range(0, len(items), PRELOAD_BATCH):
                env.clients[0].insert_many(items[i : i + PRELOAD_BATCH])
            for index, warmup in enumerate(self.warmups):
                seg, _ = drive(
                    env.methods(index), warmup, 0, float("inf"), self.weight, KeyNotFound, ZHTError
                )
                env.setup_failed += seg.failed
        except BaseException:
            self.teardown(env)
            raise
        return env

    def teardown(self, env: Env) -> None:
        env.cluster.close()
        if env.config.persistence_dir:
            shutil.rmtree(env.config.persistence_dir, ignore_errors=True)

    # -- timed section ----------------------------------------------------------

    def prepare(self, seconds: float) -> None:
        """Nothing to do: the whole stream was generated up front."""

    def segment(self, env: Env, seconds: float, on_cut=None) -> Segment:
        """Run every client's stream on from where it stopped, closed
        loop, for *seconds*.  Clients run in threads of their own; this
        thread marks the cut boundaries (``on_cut(i)`` as cut *i* begins)."""
        results: list = [None] * self.clients
        barrier = threading.Barrier(self.clients)

        def client(index: int) -> None:
            barrier.wait()
            results[index] = drive(
                env.methods(index),
                self.streams[index],
                self.position[index],
                time.perf_counter() + seconds,
                self.weight,
                KeyNotFound,
                ZHTError,
            )

        threads = [
            threading.Thread(target=client, args=(i,), name=f"ledger-client-{i}")
            for i in range(self.clients)
        ]
        merged = Segment()
        merged.marks = run_marked(threads, env.child_pids, self.rota, on_cut)
        for index, (seg, position) in enumerate(results):
            merged.extend(seg)
            self.position[index] = position
        merged.wall_s = max(merged.ends) - merged.marks[0][0]
        return merged

    # -- after the run -------------------------------------------------------------

    def verify(self, env: Env) -> tuple[int, list[str]]:
        return 0, []


def _mixed_stream(rng, keys, model, calls, pool, fragments, lookup, insert, append) -> list:
    """Uniform keys; *lookup* / *insert* / *append* shares, removes take
    the rest."""
    stream = []
    n_keys = len(keys)
    insert += lookup
    append += insert
    for i in range(calls):
        key = keys[rng.randrange(n_keys)]
        r = rng.random()
        if r < lookup:
            stream.append(_entry(model, "lookup", key))
        elif r < insert:
            stream.append(_entry(model, "insert", key, pool[i % POOL]))
        elif r < append:
            stream.append(_entry(model, "append", key, fragments[i % POOL]))
        else:
            stream.append(_entry(model, "remove", key))
    return stream


class TcpPoint(KVWorkload):
    name = "tcp-point"
    why = (
        "1 client, 2-node TCP, memory-only, 15 B keys / 132 B values, mixed point ops: "
        "socket, event loop, codec and client planning do nearly all the work"
    )
    keys_total = 50_000
    calls_per_s = 20_000

    def client_stream(self, rng, client, keys, model, calls):
        return _mixed_stream(rng, keys, model, calls, self.pool, self.fragments, 0.45, 0.35, 0.10)


class TcpDurableRepl(KVWorkload):
    name = "tcp-durable-repl"
    why = (
        "write-heavy 1 KiB values with WAL, checkpoints and a sync replica: storage and "
        "replication do most of the work; a net-path change moves it less"
    )
    keys_total = 5_000
    value_bytes = 1024
    calls_per_s = 8_000
    #: persistence_dir is a placeholder: every set-up gets its own
    #: directory under the run's work dir.  wal_fsync=False is NoVoHT's
    #: benchmarked flush policy (write + flush per record, no fsync).
    overrides = dict(
        num_replicas=1,
        num_partitions=8,
        checkpoint_interval_ops=1000,
        wal_fsync=False,
        persistence_dir="<work-dir>",
    )

    def client_stream(self, rng, client, keys, model, calls):
        return _mixed_stream(rng, keys, model, calls, self.pool, self.fragments, 0.10, 0.80, 0.10)

    def verify(self, env: Env) -> tuple[int, list[str]]:
        """Every acknowledged write must be readable from the bytes on
        disk alone, on the primary *and* on the sync secondary.

        The stores are copied while the servers are alive but idle: what a
        ``kill -9`` would leave (the WAL is flushed per record, so the page
        cache holds everything acknowledged).  Each copy is then reopened
        with a fresh :class:`NoVoHT`, which recovers from checkpoint + WAL.
        """
        model = Model(self.initial)
        replay_model(model, self.streams, self.position)
        by_pid: dict[int, list[bytes]] = {}
        for key in model.data:
            pid = partition_of(key, env.config.num_partitions, env.config.hash_name)
            by_pid.setdefault(pid, []).append(key)
        time.sleep(0.2)  # let a checkpoint tripped by the last write finish
        source = env.config.persistence_dir
        image = source + "-crash-image"
        failed, notes, stores = 0, [], 0
        try:
            for instance in sorted(os.listdir(source)):
                for part in sorted(os.listdir(os.path.join(source, instance))):
                    src = os.path.join(source, instance, part)
                    dst = os.path.join(image, instance, part)
                    os.makedirs(dst)
                    # WAL before checkpoint: a checkpoint landing between
                    # the two copies then covers a prefix of the copied
                    # WAL, which recovery handles; the other order could
                    # pair an old checkpoint with a trimmed WAL.
                    for filename in ("novoht.wal", "novoht.ckpt"):
                        if os.path.exists(os.path.join(src, filename)):
                            shutil.copy(os.path.join(src, filename), dst)
                    pid = int(part.rsplit("-", 1)[1])
                    with NoVoHT(dst, checkpoint_interval_ops=0) as store:
                        stores += 1
                        for key in by_pid.get(pid, ()):
                            try:
                                good = store.get(key) == model.data[key]
                            except KeyNotFound:
                                good = False
                            if not good:
                                failed += 1
                                if len(notes) < 5:
                                    notes.append(f"{instance}/{part}: acked {key!r} wrong after reopen")
        finally:
            shutil.rmtree(image, ignore_errors=True)
        expected = 2 * len(by_pid)  # primary + secondary copy of every partition
        if stores != expected:
            failed += 1
            notes.append(f"reopened {stores} partition stores, expected {expected}")
        return failed, notes


class TcpBatch64(KVWorkload):
    name = "tcp-batch64"
    why = (
        "same cluster as tcp-point driven with 64-key insert_many / lookup_many: per-message "
        "cost is amortised 64x, so batch planning, batch codec and apply_batch dominate"
    )
    weight = 64
    keys_total = 100_000
    calls_per_s = 1_200

    def client_stream(self, rng, client, keys, model, calls):
        stream = []
        n_keys = len(keys)
        for i in range(calls):
            picked = [keys[rng.randrange(n_keys)] for _ in range(self.weight)]
            if i % 2 == 0:
                pairs = [(key, self.pool[(i + j) % POOL]) for j, key in enumerate(picked)]
                stream.append(_entry(model, "insert_many", pairs))
            else:
                stream.append(_entry(model, "lookup_many", picked))
        return stream

    def warmup_stream(self, client: int) -> list:
        model = Model()
        stream = []
        for i in range(WARMUP_OPS // (2 * self.weight)):
            keys = [b"warm-%d-%08d" % (client, i * self.weight + j) for j in range(self.weight)]
            stream.append(_entry(model, "insert_many", [(key, self.pool[0]) for key in keys]))
            stream.append(_entry(model, "lookup_many", keys))
        return stream


class ShardedRead2c(KVWorkload):
    name = "sharded-read-2c"
    why = (
        "2 client threads against 2 shard processes, Zipf 0.99, 90% reads: the only workload "
        "where a server sees concurrent connections, so queueing and coalescing can show"
    )
    clients = 2
    keys_total = 100_000
    calls_per_s = 12_000
    overrides = dict(num_shards=2)
    zipf_alpha = 0.99

    def client_keys(self, rng, client):
        return [self._key(client, b"zipf-%08d" % i) for i in range(self.keys_total // self.clients)]

    @staticmethod
    def _key(client: int, key: bytes) -> bytes:
        return b"c%d" % client + key  # disjoint per client: one writer per key

    def client_stream(self, rng, client, keys, model, calls):
        source = ZipfWorkload(
            ops_per_client=calls,
            universe=len(keys),
            alpha=self.zipf_alpha,
            write_ratio=0.10,
            seed=self.seed,
        )
        stream = []
        for op, key, value in source.client_ops(client):
            key = self._key(client, key)
            if op == OpCode.LOOKUP:
                stream.append(_entry(model, "lookup", key))
            else:
                stream.append(_entry(model, "insert", key, value))
        return stream

    def build(self, config):
        return build_sharded_tcp_cluster(1, config)

    def child_pids(self, cluster):
        node = cluster.servers[0]
        return [node.shard_pid(i) for i in range(self.config.num_shards)]


# ---------------------------------------------------------------------------
# The discrete-event simulator
# ---------------------------------------------------------------------------


class _CountedOps:
    """A ``client_ops`` source over pre-built op lists that tallies what
    the simulated clients have issued so far (reads, writes)."""

    def __init__(self, per_client: list[list]) -> None:
        self.per_client = per_client
        self.issued = [0, 0]

    def client_ops(self, client_id: int):
        issued = self.issued
        for op in self.per_client[client_id]:
            issued[op[0] != OpCode.LOOKUP] += 1
            yield op


class SimDes1k:
    name = "sim-des-1k"
    why = (
        "the DES at 1024 nodes running the real client/server cores with no sockets: "
        "simulator speed, and a net-layer change must read unchanged here"
    )
    weight = 1
    overrides: dict = {}
    #: Simulated ops per wall second the run is sized for: a DES run is a
    #: fixed amount of work, so --seconds picks the number of rounds.
    sim_ops_per_s = 17_000
    #: One round = one ``run_workload`` of this many inserts, lookups and
    #: removes per client (~0.4 s of wall time at 1024 nodes).  Rounds are
    #: identical in shape, so each is a cut that can stand for the run.
    round_ops_per_client = 2
    #: Rounds between two changes of CPU (see ``harness.CpuRota``).
    leg_rounds = 2
    #: Simulated time per latency sample (one op takes ~0.8 ms simulated).
    slice_s = 50e-6

    def __init__(self, seed: int, seconds: float, smoke: bool, work_dir: str, rota) -> None:
        self.seed = seed
        self.rota = rota
        self.nodes = 64 if smoke else 1024
        self.pending: list[_CountedOps] = []
        self._rounds = 0
        self.expected = [0, 0, 0]  # inserts, lookups, removes the servers must count
        self.sim_latency_ms = 0.0

    def _materialise(self, ops_per_client: int, seed: int) -> _CountedOps:
        source = MicroBenchmarkWorkload(ops_per_client=ops_per_client, seed=seed)
        return _CountedOps([list(source.client_ops(c)) for c in range(self.nodes)])

    def generate(self) -> None:
        self.warmup = self._materialise(1, self.seed << 10)

    def prepare(self, seconds: float) -> None:
        """Build, untimed, the op lists of the rounds the next ``segment``
        runs."""
        per_round = 3 * self.round_ops_per_client * self.nodes
        rounds = max(3, round(seconds * self.sim_ops_per_s / per_round))
        for _ in range(rounds):
            self._rounds += 1
            self.pending.append(
                self._materialise(self.round_ops_per_client, (self.seed << 10) + self._rounds)
            )

    def setup(self) -> Env:
        t0 = time.perf_counter()
        cluster = SimulatedCluster(SimSpec(num_nodes=self.nodes, seed=self.seed))
        env = Env(cluster, cluster.config, [], time.perf_counter() - t0)
        self._run(cluster, self.warmup, None)
        env.stats_base = self._server_counts(cluster)
        return env

    def teardown(self, env: Env) -> None:
        for handler in env.cluster.handlers:
            handler.close()

    def _server_counts(self, cluster) -> list[int]:
        totals = [0, 0, 0]
        for handler in cluster.handlers:
            stats = handler.stats
            totals[0] += stats.inserts
            totals[1] += stats.lookups
            totals[2] += stats.removes
        return totals

    def _run(self, cluster, source: _CountedOps, seg: Segment | None):
        """``run_workload`` with the engine's ``run`` cut into slices of
        simulated time, each timed on the wall clock.

        A simulated op has no wall latency, and ops overlap (1024 are in
        flight), so a slice's cost is taken per engine *event* and scaled
        by the round's events per op: a sample reads "wall time per
        simulated op at the speed the engine had in this slice".  A slice
        is a read (write) sample when >= 90% of the ops issued in it are
        lookups (mutations); one that issued none takes after the slice
        before it.
        """
        env = cluster.env
        engine_run = env.run
        issued = source.issued
        pc = time.perf_counter
        dt = self.slice_s
        slices: list[tuple] = []  # wall, events, kind, end, ops issued

        def sliced_run(until=None):
            t0, e0, r0, w0 = pc(), env.events_processed, issued[0], issued[1]
            kind = WRITE
            while True:
                target = env.now + dt
                now = engine_run(until=target)
                events = env.events_processed - e0
                if events:
                    t1 = pc()
                    reads, writes = issued[0] - r0, issued[1] - w0
                    n = reads + writes
                    if n:
                        kind = READ if reads >= 0.9 * n else WRITE if writes >= 0.9 * n else MIXED
                    slices.append((t1 - t0, events, kind, t1, n))
                    t0, e0, r0, w0 = t1, env.events_processed, issued[0], issued[1]
                if now < target:
                    return now  # the queue drained: the round is over

        env.run = sliced_run
        try:
            result = cluster.run_workload(source)
        finally:
            del env.run
        if seg is not None and slices:
            events_per_op = sum(s[1] for s in slices) / max(1, result.ops)
            for wall, events, kind, end, n in slices:
                seg.lat.append(wall / events * events_per_op)
                seg.kind.append(kind)
                seg.ends.append(end)
                seg.counts.append(n)
        return result

    def segment(self, env: Env, seconds: float, on_cut=None) -> Segment:
        rounds, self.pending = self.pending, []
        if not rounds:
            raise RuntimeError("prepare() before segment()")
        per_round = 3 * self.round_ops_per_client * self.nodes
        seg = Segment()
        events0 = env.cluster.env.events_processed
        seg.marks.append((time.perf_counter(), cpu_seconds([])))
        latencies = []
        for number, source in enumerate(rounds, 1):
            if on_cut:
                on_cut(number - 1)
            result = self._run(env.cluster, source, seg)
            seg.marks.append((time.perf_counter(), cpu_seconds([])))
            if number % self.leg_rounds == 0:
                self.rota.advance([])
            latencies.append(result.latency_ms)
            if result.ops != per_round:
                seg.failed += abs(result.ops - per_round)
                seg.notes.append(f"a DES round completed {result.ops} ops, not {per_round}")
        seg.wall_s = seg.marks[-1][0] - seg.marks[0][0]
        seg.events = env.cluster.env.events_processed - events0
        self.sim_latency_ms = sum(latencies) / len(latencies)
        for i in range(3):
            self.expected[i] += per_round // 3 * len(rounds)
        return seg

    def verify(self, env: Env) -> tuple[int, list[str]]:
        """Every insert, lookup and remove must have hit: the server cores
        only count an op that succeeded, and every key is removed last."""
        failed, notes = 0, []
        counts = self._server_counts(env.cluster)
        for label, got, base, want in zip(
            ("inserts", "lookups", "removes"), counts, env.stats_base, self.expected
        ):
            if got - base != want:
                failed += abs(got - base - want)
                notes.append(f"server cores counted {got - base} {label}, model says {want}")
        left = sum(len(p.store) for h in env.cluster.handlers for p in h.partitions.values())
        if left:
            failed += left
            notes.append(f"{left} pairs left in the stores after every key was removed")
        return failed, notes


WORKLOADS = {w.name: w for w in (TcpPoint, TcpDurableRepl, TcpBatch64, ShardedRead2c, SimDes1k)}
