"""Multi-core node serving: N instances on N private ports plus a supervisor.

The paper scales one node to all cores by running several ZHT instances
per node, one per core (Figs. 13/14: "the best resource utilization is
achieved when running one instance per core").  A single CPython process
cannot do that — the GIL pins one event loop to one core — so
:class:`ShardedNodeServer` forks ``config.num_shards`` worker
**processes**, each running its own
:class:`~repro.net.tcp.EventDrivenTCPServer` event loop over its own
:class:`~repro.core.server.ZHTServerCore` instance, with its own NoVoHT
store and WAL (per-instance persistence directories), so no lock — in
Python or on disk — is shared across shards.

A sharded node is exactly the paper's multi-instance node: each shard is
one instance of the membership table and listens on the private port
that table advertises, so clients reach the owning shard zero-hop.
There is no node-wide port.

The parent holds every shard's listening socket for the node's lifetime
and forks workers from them, so a worker killed with ``SIGKILL`` is
respawned by the supervisor thread on the *same* socket: its address
stays valid, pending connections queue in the listener backlog during
the gap, and the fresh worker recovers its state by replaying the
shard's WAL (lazy per-partition replay on first touch).  The table the
node was attached with may be many epochs old by then, so before it
serves, a respawned worker asks a sibling shard (or any other instance)
for the current one with ``GET_MEMBERSHIP`` and keeps the newer.

Caveat (documented, not worked around): workers are forked while parent
threads exist.  The node's only thread, the supervisor, is the one that
forks, and it holds no lock while it does.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import socket
import threading
import time
import weakref

from typing import Iterable

from ..core.config import ZHTConfig
from ..core.errors import MembershipError
from ..core.membership import Address, InstanceInfo, MembershipTable
from ..core.protocol import OpCode, Request
from ..core.server import ZHTServerCore
from .tcp import EventDrivenTCPServer, MultiplexedTCPClient, tcp_listener

_CMD_GRACEFUL = b"G"
_CMD_HARD = b"S"

#: Every socket any ShardedNodeServer in this process has created.  A
#: forked worker inherits copies of ALL of them — including *other*
#: nodes' listening sockets when a test builds a whole cluster in one
#: process.  An inherited listener fd keeps that port accepting even
#: after its owner closes it (connections queue in a backlog nobody
#: drains instead of being refused), which turns "node killed" into
#: "node hangs" for every peer.  Workers therefore close every
#: registered socket that is not their own, first thing after fork.
_PROCESS_SOCKETS: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()
_PROCESS_SOCKETS_LOCK = threading.Lock()


def _register_sockets(sockets: Iterable[socket.socket]) -> None:
    with _PROCESS_SOCKETS_LOCK:
        for sock in sockets:
            _PROCESS_SOCKETS.add(sock)


def _foreign_sockets(keep: Iterable[socket.socket]) -> list[socket.socket]:
    """Snapshot of registered sockets NOT in *keep* (for a child to
    close after fork)."""
    keep_fds = {s.fileno() for s in keep}
    with _PROCESS_SOCKETS_LOCK:
        return [
            s
            for s in _PROCESS_SOCKETS
            if s.fileno() >= 0 and s.fileno() not in keep_fds
        ]


def fork_supported() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _newest_membership(
    instance: InstanceInfo, membership: MembershipTable, timeout: float
) -> MembershipTable:
    """*membership*, brought up to the table of the first instance that
    answers ``GET_MEMBERSHIP`` (sibling shards first) if that is newer."""
    peers = sorted(
        (p for p in membership.instances.values() if p.instance_id != instance.instance_id),
        key=lambda peer: peer.node_id != instance.node_id,
    )
    client = MultiplexedTCPClient(cache_connections=False)
    try:
        for peer in peers:
            response = client.roundtrip(
                peer.address,
                Request(op=OpCode.GET_MEMBERSHIP, request_id=1, epoch=membership.epoch),
                timeout,
            )
            if response is None or not response.membership:
                continue
            try:
                membership.maybe_adopt(MembershipTable.from_bytes(response.membership))
            except MembershipError:
                continue
            break
    finally:
        client.close()
    return membership


def _shard_worker_main(
    listener: socket.socket,
    control: socket.socket,
    config: ZHTConfig,
    instance: InstanceInfo,
    membership: MembershipTable,
    respawned: bool,
    foreign_sockets: list,
) -> None:
    """Worker-process entry point (fork start method: everything here is
    inherited memory, nothing is pickled)."""
    # Drop inherited copies of every socket this worker does not own —
    # keeping another node's listener fd open would keep its port
    # accepting after that node dies (see _PROCESS_SOCKETS).
    for sock in foreign_sockets:
        try:
            sock.close()
        except OSError:
            pass

    if respawned:
        # Requests queue in the listener's backlog meanwhile.
        membership = _newest_membership(instance, membership, config.request_timeout)
    core = ZHTServerCore(instance, membership, config)
    server = EventDrivenTCPServer(listener=listener)
    server.attach_core(core)
    server.start()
    while True:
        try:
            cmd = control.recv(1)
        except OSError:
            cmd = b""
        if cmd == _CMD_GRACEFUL:
            server.stop(drain=True)
        # Hard stop, or EOF: the parent is gone.  Either way exit
        # immediately — WAL appends are flushed per commit, so recovery
        # replays everything acknowledged.
        os._exit(0)


class _ShardSlot:
    """Parent-side bookkeeping for one shard worker."""

    def __init__(self, index: int, host: str) -> None:
        self.index = index
        self.listener = tcp_listener(host)
        self.control_parent, self.control_child = socket.socketpair()
        self.process: multiprocessing.process.BaseProcess | None = None

    def sockets(self) -> list:
        return [self.listener, self.control_parent, self.control_child]


class ShardedNodeServer:
    """One multi-core ZHT node: ``config.num_shards`` forked event-loop
    shard processes, each serving one instance on its private port.

    Lifecycle: construct (binds every shard's listener, so ports are
    known), :meth:`attach_instances`, :meth:`start` (forks workers,
    starts the supervisor), :meth:`stop` (hard by default — the chaos
    harness's node-kill — or ``graceful=True`` to drain every shard
    first).  :func:`~repro.net.cluster.build_sharded_tcp_cluster` runs
    all of them.
    """

    def __init__(self, config: ZHTConfig, *, host: str = "127.0.0.1") -> None:
        if not fork_supported():
            raise RuntimeError(
                "ShardedNodeServer needs the 'fork' start method"
            )
        self.config = config
        self.num_shards = config.num_shards
        self._slots = [_ShardSlot(i, host) for i in range(self.num_shards)]
        self._ctx = multiprocessing.get_context("fork")
        self._stopping = False
        self._stopped = False
        self._started = False
        self.respawns = 0
        self._lock = threading.Lock()
        self.membership: MembershipTable | None = None
        self.instances: list[InstanceInfo] | None = None
        self._supervisor: threading.Thread | None = None
        # The addresses the membership table advertises (zero-hop routes).
        self.shard_addresses = [
            Address(host, slot.listener.getsockname()[1]) for slot in self._slots
        ]
        _register_sockets(s for slot in self._slots for s in slot.sockets())

    # -- membership ----------------------------------------------------------

    def attach_instances(
        self, membership: MembershipTable, instances: list[InstanceInfo]
    ) -> None:
        """Bind this node's shard instances (one per shard, in shard
        order; each instance's address must be the shard's private
        address) and the membership table workers start from."""
        if len(instances) != self.num_shards:
            raise ValueError(
                f"need {self.num_shards} instances, got {len(instances)}"
            )
        self.membership = membership
        self.instances = instances

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        if self.instances is None or self.membership is None:
            raise RuntimeError("attach_instances() before start()")
        self._started = True
        for slot in self._slots:
            self._spawn(slot)
        self._supervisor = threading.Thread(
            target=self._supervise,
            name=f"zht-shard-supervise-{self.shard_addresses[0].port}",
            daemon=True,
        )
        self._supervisor.start()

    def _spawn(self, slot: _ShardSlot, respawned: bool = False) -> None:
        keep = [slot.listener, slot.control_child]
        # Forking with a thread alive is safe here: the node's one thread,
        # the supervisor, is the forking thread and holds no lock at fork
        # (the module docstring's caveat).
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                slot.listener,
                slot.control_child,
                self.config,
                self.instances[slot.index],
                self.membership.copy(),
                respawned,
                _foreign_sockets(keep),
            ),
            name=f"zht-shard-{self.shard_addresses[slot.index].port}",
            daemon=True,
        )
        proc.start()
        slot.process = proc

    def _supervise(self) -> None:
        """Respawn workers that die unexpectedly (e.g. ``kill -9``) on
        their original sockets; the replacement recovers from the WAL."""
        while not self._stopping:
            for slot in self._slots:
                proc = slot.process
                if proc is None or proc.is_alive():
                    continue
                with self._lock:
                    if self._stopping:
                        break
                    proc.join(timeout=0.1)
                    self.respawns += 1
                # Fork outside _lock: a lock held at fork time is copied
                # into the child in its held state and can never be
                # released there.
                try:
                    self._spawn(slot, respawned=True)
                except (OSError, ValueError):
                    break  # listener sockets closed under us: stopping
                with self._lock:
                    if self._stopping:
                        # stop() raced the respawn and never saw the new
                        # process; reap it ourselves.
                        new_proc = slot.process
                        if new_proc is not None:
                            new_proc.kill()
                            new_proc.join(timeout=1)
                        break
            time.sleep(0.05)

    def stop(self, graceful: bool = False, *, drain_timeout: float = 5.0) -> None:
        """Stop the node.  Default is a hard stop (what the chaos
        harness's node-kill uses); ``graceful=True`` asks every shard to
        drain in-flight requests first."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            self._stopping = True
        cmd = _CMD_GRACEFUL if graceful else _CMD_HARD
        for slot in self._slots:
            try:
                slot.control_parent.send(cmd)
            except OSError:
                pass
        deadline = time.monotonic() + (drain_timeout + 2 if graceful else 2)
        for slot in self._slots:
            proc = slot.process
            if proc is None:
                continue
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1)
        for slot in self._slots:
            for sock in slot.sockets():
                try:
                    sock.close()
                except OSError:
                    pass

    # -- worker-crash testing ------------------------------------------------

    def shard_pid(self, index: int) -> int | None:
        proc = self._slots[index].process
        return None if proc is None else proc.pid

    def kill_shard(self, index: int) -> None:
        """SIGKILL one worker (siblings keep serving; the supervisor
        respawns the victim with WAL recovery)."""
        proc = self._slots[index].process
        if proc is not None:
            proc.kill()

    def wait_for_respawn(
        self, index: int, old_pid: int, timeout: float = 10.0
    ) -> bool:
        """Block until shard *index* runs under a fresh live pid."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            proc = self._slots[index].process
            if proc is not None and proc.pid != old_pid and proc.is_alive():
                return True
            time.sleep(0.02)
        return False

    # -- stats (each shard's STATS over its private port) --------------------

    def shard_stats(self, timeout: float = 2.0) -> list[dict]:
        """Fetch each live shard's STATS snapshot over its private port."""
        client = MultiplexedTCPClient(cache_connections=False)
        snapshots: list[dict] = []
        try:
            for index, addr in enumerate(self.shard_addresses):
                response = client.roundtrip(
                    addr, Request(op=OpCode.STATS, request_id=1 + index), timeout
                )
                if response is not None and response.value:
                    snapshots.append(json.loads(response.value.decode("utf-8")))
        finally:
            client.close()
        return snapshots
