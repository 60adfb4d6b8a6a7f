"""Multi-core node serving: process-per-shard with a shared port.

The paper scales one node to all cores by running several ZHT instances
per node, one per core (Figs. 13/14: "the best resource utilization is
achieved when running one instance per core").  A single CPython process
cannot do that — the GIL pins one event loop to one core — so
:class:`ShardedNodeServer` forks ``N`` worker **processes** (default
``os.cpu_count()``), each running its own
:class:`~repro.net.tcp.EventDrivenTCPServer` event loop over its own
:class:`~repro.core.server.ZHTServerCore` instance, with its own NoVoHT
store and WAL (per-instance persistence directories), so no lock — in
Python or on disk — is shared across shards.

Connection delivery, two mechanisms:

* **SO_REUSEPORT** (default where available): every shard *also* listens
  on one shared node port; the kernel balances incoming connections
  across the shards' accept queues.  Since the kernel picks a shard
  arbitrarily, the shared port is the *bootstrap* entry point: each
  shard's membership row advertises its **private** per-shard port, so a
  request landing on a non-owning shard gets the stock REDIRECT +
  piggybacked-membership treatment and the client talks zero-hop to the
  right shard from then on.  No forwarding path was added.
* **FD-passing dispatcher** (fallback, or ``reuse_port=False``): the
  parent accepts on the shared port and passes each accepted connection
  FD to a shard round-robin over an ``AF_UNIX`` socket pair
  (``socket.send_fds``); the shard adopts the socket into its event
  loop.

The parent holds every listening socket (shared and private) for the
node's lifetime and forks workers from them, so a worker killed with
``SIGKILL`` is respawned by the supervisor thread on the *same* sockets:
its addresses stay valid, pending connections queue in the listener
backlog during the gap, and the fresh worker recovers its state by
replaying the shard's WAL (lazy per-partition replay on first touch).

Caveat (documented, not worked around): workers are forked while parent
threads exist, which is safe here only because the parent's threads
(supervisor, dispatcher) touch no locks the child needs.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import socket
import threading
import time
import weakref

from typing import Iterable

from ..core.config import ZHTConfig
from ..core.membership import Address, InstanceInfo, MembershipTable
from ..core.protocol import OpCode, Request
from ..core.server import ZHTServerCore

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


def reuse_port_supported() -> bool:
    """True when this platform accepts ``SO_REUSEPORT`` on TCP sockets."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        return True
    except OSError:
        return False
    finally:
        probe.close()


def fd_passing_supported() -> bool:
    """True when connection FDs can travel over AF_UNIX socket pairs."""
    return hasattr(socket, "send_fds") and hasattr(socket, "AF_UNIX")


def fork_supported() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _shard_worker_main(
    listeners: list,
    conn_receiver: socket.socket | None,
    control: socket.socket,
    config: ZHTConfig,
    instance: InstanceInfo,
    membership: MembershipTable,
    foreign_sockets: list,
) -> None:
    """Worker-process entry point (fork start method: everything here is
    inherited memory, nothing is pickled)."""
    from .tcp import EventDrivenTCPServer

    # Drop inherited copies of every socket this worker does not own —
    # keeping another node's listener fd open would keep its port
    # accepting after that node dies (see _PROCESS_SOCKETS).
    for sock in foreign_sockets:
        try:
            sock.close()
        except OSError:
            pass

    core = ZHTServerCore(instance, membership, config)
    server = EventDrivenTCPServer(
        listeners=listeners, conn_receiver=conn_receiver
    )
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

    def __init__(self, index: int) -> None:
        self.index = index
        self.private_listener: socket.socket | None = None
        self.shared_listener: socket.socket | None = None
        self.fd_parent: socket.socket | None = None
        self.fd_child: socket.socket | None = None
        self.control_parent: socket.socket | None = None
        self.control_child: socket.socket | None = None
        self.process: multiprocessing.process.BaseProcess | None = None

    def child_listeners(self) -> list:
        listeners = [self.private_listener]
        if self.shared_listener is not None:
            listeners.append(self.shared_listener)
        return listeners

    def sockets(self) -> list:
        return [
            s
            for s in (
                self.private_listener,
                self.shared_listener,
                self.fd_parent,
                self.fd_child,
                self.control_parent,
                self.control_child,
            )
            if s is not None
        ]


class ShardedNodeServer:
    """One multi-core ZHT node: N forked event-loop shard processes.

    Lifecycle: construct (binds every socket, so ports are known),
    :meth:`attach_instances` (or :meth:`bootstrap_membership` for a
    standalone node), :meth:`start` (forks workers, starts the
    supervisor), :meth:`stop` (hard by default — the chaos harness's
    node-kill — or ``graceful=True`` to drain every shard first).
    """

    def __init__(
        self,
        config: ZHTConfig | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        num_shards: int | None = None,
        reuse_port: bool | None = None,
    ) -> None:
        if not fork_supported():
            raise RuntimeError(
                "ShardedNodeServer needs the 'fork' start method"
            )
        self.config = config or ZHTConfig(transport="tcp")
        if num_shards is not None:
            self.num_shards = num_shards
        elif self.config.num_shards > 1:
            self.num_shards = self.config.num_shards
        else:
            self.num_shards = os.cpu_count() or 1
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")
        want_reuse = self.config.reuse_port if reuse_port is None else reuse_port
        self.reuse_port = want_reuse and reuse_port_supported()
        if not self.reuse_port and not fd_passing_supported():
            raise RuntimeError(
                "neither SO_REUSEPORT nor FD passing is available"
            )
        self.host = host
        self._slots = [_ShardSlot(i) for i in range(self.num_shards)]
        self._ctx = multiprocessing.get_context("fork")
        self._stopping = False
        self._stopped = False
        self._started = False
        self.respawns = 0
        self._lock = threading.Lock()
        self.membership: MembershipTable | None = None
        self.instances: list[InstanceInfo] | None = None
        self._supervisor: threading.Thread | None = None
        self._dispatcher: threading.Thread | None = None
        self._dispatch_listener: socket.socket | None = None

        # Private per-shard listeners: these are the addresses the
        # membership table advertises (zero-hop direct routes).
        for slot in self._slots:
            sock = self._tcp_listener(host, 0, reuse_port=False)
            slot.private_listener = sock
        self.shard_addresses = [
            Address(host, slot.private_listener.getsockname()[1])
            for slot in self._slots
        ]

        # Shared node port: SO_REUSEPORT sockets (one accept queue per
        # shard, kernel-balanced) or a single dispatcher listener.
        if self.reuse_port:
            first = self._tcp_listener(host, port, reuse_port=True)
            self._slots[0].shared_listener = first
            shared_port = first.getsockname()[1]
            for slot in self._slots[1:]:
                slot.shared_listener = self._tcp_listener(
                    host, shared_port, reuse_port=True
                )
        else:
            self._dispatch_listener = self._tcp_listener(
                host, port, reuse_port=False
            )
            shared_port = self._dispatch_listener.getsockname()[1]
            for slot in self._slots:
                slot.fd_parent, slot.fd_child = socket.socketpair()
        self.address = Address(host, shared_port)

        for slot in self._slots:
            slot.control_parent, slot.control_child = socket.socketpair()

        sockets = [s for slot in self._slots for s in slot.sockets()]
        if self._dispatch_listener is not None:
            sockets.append(self._dispatch_listener)
        _register_sockets(sockets)

    @staticmethod
    def _tcp_listener(
        host: str, port: int, *, reuse_port: bool
    ) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if reuse_port:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((host, port))
            sock.listen(512)
        except OSError:
            sock.close()
            raise
        return sock

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

    def bootstrap_membership(self, *, seed: int = 0) -> MembershipTable:
        """Build a single-node membership table over this node's shards —
        the standalone (benchmark / single-box) deployment."""
        from ..api import build_membership

        rng = random.Random(seed)
        addrs = iter(self.shard_addresses)
        membership, _nodes, instances = build_membership(
            1,
            self.config.replace(instances_per_node=self.num_shards),
            rng,
            port_allocator=lambda _node_id, _i: next(addrs),
        )
        self.attach_instances(membership, instances)
        return membership

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        if self.instances is None or self.membership is None:
            raise RuntimeError("attach_instances() before start()")
        self._started = True
        for slot in self._slots:
            self._spawn(slot)
        if self._dispatch_listener is not None:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name=f"zht-shard-dispatch-{self.address.port}",
                daemon=True,
            )
            self._dispatcher.start()
        self._supervisor = threading.Thread(
            target=self._supervise,
            name=f"zht-shard-supervise-{self.address.port}",
            daemon=True,
        )
        self._supervisor.start()

    def _spawn(self, slot: _ShardSlot) -> None:
        keep = list(slot.child_listeners())
        if slot.fd_child is not None:
            keep.append(slot.fd_child)
        keep.append(slot.control_child)
        # zht-lint: ignore[FORK002] parent threads (supervisor/dispatcher) touch no locks the child needs — module docstring caveat
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                slot.child_listeners(),
                slot.fd_child,
                slot.control_child,
                self.config,
                self.instances[slot.index],
                self.membership.copy(),
                _foreign_sockets(keep),
            ),
            name=f"zht-shard-{self.address.port}-{slot.index}",
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
                # released there (FORK001).
                try:
                    self._spawn(slot)
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

    def _dispatch_loop(self) -> None:
        """FD-passing fallback: accept on the shared port in the parent
        and hand each connection to a shard round-robin."""
        listener = self._dispatch_listener
        listener.settimeout(0.2)
        turn = 0
        while not self._stopping:
            try:
                conn, _addr = listener.accept()
            except TimeoutError:
                continue
            except OSError:
                break
            slot = self._slots[turn % self.num_shards]
            turn += 1
            try:
                socket.send_fds(slot.fd_parent, [b"F"], [conn.fileno()])
            except OSError:
                pass
            conn.close()

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
        if self._dispatch_listener is not None:
            self._dispatch_listener.close()
        for slot in self._slots:
            for sock in slot.sockets():
                try:
                    sock.close()
                except OSError:
                    pass

    def __enter__(self) -> "ShardedNodeServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

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

    # -- stats aggregation (control socket = the shard's private port) ------

    def shard_stats(self, timeout: float = 2.0) -> list[dict]:
        """Fetch each live shard's STATS snapshot over its private port."""
        from .tcp import TCPClient

        client = TCPClient(cache_size=0)
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

    def node_stats(self, timeout: float = 2.0) -> dict:
        """One merged node view over every shard's snapshot (counters
        summed, latency histograms bucket-merged, partition loads
        concatenated)."""
        from ..obs import merge_stats_snapshots

        return merge_stats_snapshots(self.shard_stats(timeout))
