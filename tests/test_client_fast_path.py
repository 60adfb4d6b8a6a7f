"""The zero-hop client fast path: counts that repeat exactly.

One point operation is one hash on the client and one on the server;
the per-epoch route table always agrees with the uncached chain walk;
a reply is credited to the node it came from; request ids never repeat.
"""

import random
import threading

import pytest

from repro.api import build_local_cluster
from repro.core.client import BatchEntry, ZHTClientCore
from repro.core.config import ZHTConfig
from repro.core.errors import Status
from repro.core.hashing import HASH_FUNCTIONS, fnv1a_64
from repro.core.membership import (
    Address,
    InstanceInfo,
    MembershipTable,
    NodeInfo,
    new_instance_id,
)
from repro.core.protocol import OpCode, Response
from repro.core.server import ZHTServerCore
from repro.net.cluster import build_tcp_cluster
from tests.test_server_core import deploy


# ---------------------------------------------------------------------------
# One hash per side per key
# ---------------------------------------------------------------------------


class _HashCounts:
    """Calls of the registered hash, split by whether a server core's
    ``handle`` is on the calling thread's stack."""

    def __init__(self) -> None:
        self.client = 0
        self.server = 0
        self._where = threading.local()
        self._lock = threading.Lock()

    def hash(self, key) -> int:
        with self._lock:
            if getattr(self._where, "in_server", False):
                self.server += 1
            else:
                self.client += 1
        return fnv1a_64(key)

    def take(self) -> tuple[int, int]:
        with self._lock:
            counts = (self.client, self.server)
            self.client = self.server = 0
        return counts


@pytest.fixture
def hash_counts(monkeypatch):
    counts = _HashCounts()
    monkeypatch.setitem(HASH_FUNCTIONS, "counting", counts.hash)
    handle = ZHTServerCore.handle

    def counted_handle(self, request, reply_context=None):
        counts._where.in_server = True
        try:
            return handle(self, request, reply_context)
        finally:
            counts._where.in_server = False

    monkeypatch.setattr(ZHTServerCore, "handle", counted_handle)
    return counts


def _build(backend: str, cfg: ZHTConfig):
    if backend == "local":
        return build_local_cluster(2, cfg)
    return build_tcp_cluster(2, cfg)


@pytest.mark.parametrize("backend", ["local", "tcp"])
class TestOneHashPerSide:
    def test_point_ops(self, backend, hash_counts):
        cfg = ZHTConfig(transport=backend, num_partitions=16, hash_name="counting")
        with _build(backend, cfg) as cluster:
            zht = cluster.client()
            zht.insert("warm", b"up")  # connections dialled, stores created
            hash_counts.take()
            for call in (
                lambda: zht.insert("k", b"v"),
                lambda: zht.lookup("k"),
                lambda: zht.append("k", b"+w"),
                lambda: zht.remove("k"),
            ):
                call()
                assert hash_counts.take() == (1, 1)

    def test_insert_many_hashes_each_key_once_per_side(self, backend, hash_counts):
        cfg = ZHTConfig(transport=backend, num_partitions=16, hash_name="counting")
        with _build(backend, cfg) as cluster:
            zht = cluster.client()
            zht.insert("warm", b"up")
            hash_counts.take()
            items = {f"key-{i}": b"v" for i in range(40)}
            zht.insert_many(items)
            assert hash_counts.take() == (40, 40)
            assert zht.lookup_many(items) == items
            assert hash_counts.take() == (40, 40)


# ---------------------------------------------------------------------------
# The route table is the uncached computation, remembered
# ---------------------------------------------------------------------------


def _uncached_route(table: MembershipTable, pid: int, num_replicas: int):
    chain = table.replicas_for_partition(pid, num_replicas)
    for index, inst in enumerate(chain):
        node = table.nodes.get(inst.node_id)
        if node is not None and node.alive:
            return tuple(chain), index
    return tuple(chain), -1


def _uncached_target(table: MembershipTable, pid: int, num_replicas: int, start: int):
    """Where an entry at chain position *start* goes, computed by walking
    the chain as the client did before the route table."""
    chain = table.replicas_for_partition(pid, num_replicas)
    for index in range(start, len(chain)):
        node = table.nodes.get(chain[index].node_id)
        if node is not None and node.alive:
            return index, chain[index]
    return None


def _random_table(rng: random.Random, partitions: int) -> MembershipTable:
    nodes, instances = [], []
    for n in range(rng.randint(2, 6)):
        node_id = f"n{n}"
        nodes.append(NodeInfo(node_id, Address(node_id, 1)))
        for i in range(rng.randint(1, 2)):
            instances.append(
                InstanceInfo(new_instance_id(rng), node_id, Address(node_id, 9000 + i))
            )
    return MembershipTable.bootstrap(partitions, nodes, instances)


def _join(table: MembershipTable, rng: random.Random, serial: int) -> None:
    if len(table.instances) >= table.num_partitions:
        return
    node_id = f"joined{serial}"
    table.add_node(NodeInfo(node_id, Address(node_id, 1)))
    inst = InstanceInfo(new_instance_id(rng), node_id, Address(node_id, 9000))
    table.add_instance(inst)
    for pid in rng.sample(range(table.num_partitions), 3):
        table.reassign_partition(pid, inst.instance_id)


def _retire(table: MembershipTable, rng: random.Random) -> None:
    if len(table.nodes) <= 2:
        return
    node_id = rng.choice(sorted(table.nodes))
    leaving = {i.instance_id for i in table.instances_on_node(node_id)}
    staying = sorted(set(table.instances) - leaving)
    for pid in table.partitions_of_node(node_id):
        table.reassign_partition(pid, rng.choice(staying))
    for instance_id in leaving:
        table.remove_instance(instance_id)
    table.remove_node(node_id)


class TestRouteTableModel:
    @pytest.mark.parametrize("seed", range(6))
    def test_route_equals_uncached_computation(self, seed):
        rng = random.Random(seed)
        partitions = 24
        table = _random_table(rng, partitions)
        cfg = ZHTConfig(num_partitions=partitions, transport="local")
        core = ZHTClientCore(table, cfg, rng=random.Random(seed))

        def check():
            for num_replicas in (0, 1, 2):
                for pid in range(partitions):
                    assert table.route(pid, num_replicas) == _uncached_route(
                        table, pid, num_replicas
                    )
                    for start in range(num_replicas + 2):
                        core.config = cfg.replace(num_replicas=num_replicas)
                        entry = BatchEntry(b"k", pid=pid, replica_index=start)
                        expected = _uncached_target(table, pid, num_replicas, start)
                        attempts, _ = core.plan_batches(OpCode.INSERT, [entry])
                        if expected is None:
                            assert not attempts
                        else:
                            target = table.instances[attempts[0].instance_id]
                            assert (entry.replica_index, target) == expected

        check()  # fills the table, so every later step must invalidate it
        for step in range(40):
            move = rng.choice(["dead", "alive", "adopt", "join", "retire"])
            if move == "dead":
                table.mark_node_dead(rng.choice(sorted(table.nodes)))
            elif move == "alive":
                table.mark_node_alive(rng.choice(sorted(table.nodes)))
            elif move == "adopt":
                newer = table.copy()
                newer.mark_node_dead(rng.choice(sorted(newer.nodes)))
                _join(newer, rng, 1000 + step)
                newer.reassign_partition(
                    rng.randrange(partitions), rng.choice(sorted(newer.instances))
                )
                assert table.maybe_adopt(newer)
            elif move == "join":
                _join(table, rng, step)
            else:
                _retire(table, rng)
            check()


# ---------------------------------------------------------------------------
# A reply is evidence about the node that sent it
# ---------------------------------------------------------------------------


class TestReplyCreditsTheAnsweringNode:
    def test_liveness_flipped_between_send_and_reply(self):
        table, _servers, cfg = deploy(num_nodes=3, num_replicas=1)
        core = ZHTClientCore(table.copy(), cfg, rng=random.Random(1))
        driver = core.driver(OpCode.INSERT, b"k", b"v")
        chain = core.membership.replicas_for_partition(driver.entries[0].pid, 1)
        owner, secondary = chain[0].node_id, chain[1].node_id
        # Both nodes carry one strike from earlier operations.
        core.record_timeout(owner)
        core.record_timeout(secondary)
        attempt = driver.next_attempt()
        assert attempt.address == chain[0].address
        # Another thread sharing this core gives up on the owner while
        # our request is in flight; the owner then answers us.
        core.membership.mark_node_dead(owner)
        driver.on_response(
            Response(status=Status.OK, request_id=attempt.request.request_id),
            rtt_s=0.001,
        )
        assert core._rtt[owner].count == 1
        assert secondary not in core._rtt
        assert owner not in core.suspicion
        assert core.suspicion[secondary] == 1.0

    def test_timeout_is_charged_to_the_node_that_was_asked(self):
        table, _servers, cfg = deploy(num_nodes=3, num_replicas=1)
        core = ZHTClientCore(table.copy(), cfg, rng=random.Random(1))
        driver = core.driver(OpCode.INSERT, b"k", b"v")
        chain = core.membership.replicas_for_partition(driver.entries[0].pid, 1)
        driver.next_attempt()
        core.membership.mark_node_dead(chain[0].node_id)
        driver.on_timeout()
        assert chain[1].node_id not in core.suspicion
        assert core.suspicion == {chain[0].node_id: 1.0}


# ---------------------------------------------------------------------------
# Request ids
# ---------------------------------------------------------------------------


def test_request_ids_unique_across_threads():
    table, _servers, cfg = deploy()
    core = ZHTClientCore(table, cfg)
    threads_n, per_thread = 8, 10_000
    minted: list[list[int]] = [[] for _ in range(threads_n)]
    start = threading.Barrier(threads_n)

    def mint(out: list[int]) -> None:
        start.wait(timeout=10)
        allocate = core.allocate_request_id
        for _ in range(per_thread):
            out.append(allocate())

    threads = [threading.Thread(target=mint, args=(out,)) for out in minted]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    ids = [rid for out in minted for rid in out]
    assert len(set(ids)) == threads_n * per_thread
    assert min(ids) == 1 and max(ids) == threads_n * per_thread
