"""Simulated ZHT deployments at scale.

:class:`SimulatedCluster` wires the DES engine, a network topology, the
calibrated latency/service models, and — for ZHT runs — the *same*
:class:`~repro.core.server.ZHTServerCore` the real transports serve
with.  Baseline systems (Memcached-, Cassandra-like) run a plain
dictionary handler with their own service models, since only their
performance envelope (not their protocol semantics) is compared in the
paper.

:meth:`~SimulatedCluster.run_workload` runs one simulated **client
process per instance**, issuing operations sequentially (the paper's
1:1 client:server deployment); each builds its ``Request`` by hand and
sends it to the owner, with no retry.  :meth:`~SimulatedCluster.drive`
and :meth:`~SimulatedCluster.roundtrip` run the sans-IO loops of
:mod:`repro.core.loops` (an ``OpDriver`` or a manager script) instead.
Servers are single-threaded queues (the event-driven architecture);
multiple instances per node time-share the node's cores via the
service-time scaling in :func:`~repro.sim.network.zht_instance_service`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Generator

from ..core.client import ZHTClientCore
from ..core.config import ReplicationMode, ZHTConfig
from ..core.errors import KeyNotFound, Status
from ..core.loops import Cast, Sleep
from ..core.membership import (
    Address,
    InstanceInfo,
    MembershipTable,
    NodeInfo,
    new_instance_id,
)
from ..core.protocol import MUTATING_OPS, OpCode, Request, Response
from ..core.server import HandleResult, ZHTServerCore
from ..faults.plan import FaultKind
from .engine import Environment, Store
from .metrics import LatencyStats, RunResult
from .network import (
    BGP_TORUS_LINK,
    ZHT_BGP,
    LinkModel,
    ServiceModel,
    zht_instance_service,
)
from ..workload import MicroBenchmarkWorkload
from .topology import SwitchedTopology, TorusTopology

#: Fixed wire overhead estimate per message (headers + framing), bytes.
_MSG_OVERHEAD = 24

#: Fraction of a full service time charged per routing forward at an
#: intermediate server (decode + next-hop lookup + re-encode).
_FORWARD_SERVICE_FACTOR = 0.4

#: Primary-side cost of dispatching one fire-and-forget replica update,
#: as a fraction of the service time (serialize + send syscall).
_REPLICA_DISPATCH_FACTOR = 0.15

#: Replica-side cost of applying an asynchronous update, as a fraction
#: of the service time (no response is generated).
_REPLICA_APPLY_FACTOR = 0.8


@dataclass
class SimSpec:
    """Everything defining one simulated deployment: the simulator's own
    inputs, plus the one :class:`ZHTConfig` its servers and clients run.
    Partitions, replicas, replication mode and instances per node are
    read from that config."""

    num_nodes: int
    link: LinkModel = BGP_TORUS_LINK
    service: ServiceModel = ZHT_BGP
    topology: str = "torus"  # "torus" | "switch"
    cores_per_node: int = 4
    #: Run the real ZHT server/client cores (True) or a dict handler
    #: with the same network envelope (baselines).
    real_core: bool = True
    seed: int = 0
    #: Optional :class:`~repro.faults.plan.FaultPlan` — enables message
    #: drop/delay/duplicate injection in :meth:`SimulatedCluster._deliver`
    #: and scheduled node crashes, so scale sweeps can run under churn.
    faults: object | None = None
    #: Omitted: one partition per node and no replicas.  Its
    #: ``num_partitions`` must be a whole number per instance.
    config: ZHTConfig = None  # type: ignore[assignment]  # see __post_init__

    def __post_init__(self) -> None:
        if self.config is None:
            self.config = ZHTConfig(num_partitions=self.num_nodes, transport="local")
        if self.num_partitions % self.num_instances:  # ZHTConfig: > 0
            raise ValueError(
                f"num_partitions={self.num_partitions} is not a multiple "
                f"of the {self.num_instances} instances"
            )

    @property
    def num_instances(self) -> int:
        return self.num_nodes * self.config.instances_per_node

    @property
    def num_partitions(self) -> int:
        return self.config.num_partitions


class _SimMessage:
    """A request on the simulated wire, and the context of its reply."""

    __slots__ = ("request", "reply_event", "src_node")

    def __init__(self, request: Request, reply_event, src_node: int):
        self.request = request
        self.reply_event = reply_event  # engine Event, or None for one-way
        self.src_node = src_node

    def _land(self, queue: Store, _exc) -> None:
        queue.put(self)

    def _answer(self, response: Response, _exc) -> None:
        # A duplicated request can get two replies; only the first counts.
        if not self.reply_event.triggered:
            self.reply_event.succeed(response)


class _DictHandler:
    """Minimal KV semantics for baseline systems."""

    def __init__(self):
        self.data: dict[bytes, bytes] = {}

    def handle(self, request: Request) -> Response:
        op = request.op
        if op == OpCode.INSERT:
            self.data[request.key] = request.value
            return Response(status=Status.OK, request_id=request.request_id)
        if op == OpCode.LOOKUP:
            value = self.data.get(request.key)
            if value is None:
                return Response(
                    status=Status.KEY_NOT_FOUND, request_id=request.request_id
                )
            return Response(
                status=Status.OK, value=value, request_id=request.request_id
            )
        if op == OpCode.REMOVE:
            self.data.pop(request.key, None)
            return Response(status=Status.OK, request_id=request.request_id)
        if op == OpCode.APPEND:
            self.data[request.key] = self.data.get(request.key, b"") + request.value
            return Response(status=Status.OK, request_id=request.request_id)
        return Response(status=Status.OK, request_id=request.request_id)


class SimulatedCluster:
    """A ZHT (or baseline KV) deployment inside the DES engine."""

    def __init__(self, spec: SimSpec):
        self.spec = spec
        self.env = Environment()
        self.rng = random.Random(spec.seed)
        if spec.topology == "torus":
            self.topology = TorusTopology.for_nodes(spec.num_nodes)
        elif spec.topology == "switch":
            self.topology = SwitchedTopology(spec.num_nodes)
        else:
            raise ValueError(f"unknown topology {spec.topology!r}")

        self.config = spec.config
        self.effective_service = zht_instance_service(
            spec.service, self.config.instances_per_node, spec.cores_per_node
        )

        self._build_membership()
        self.queues: list[Store] = [Store(self.env) for _ in range(spec.num_instances)]
        self._addr_to_index = {
            inst.address: i for i, inst in enumerate(self.instances)
        }
        #: Instance indices whose node has crashed: their queued and
        #: future messages are discarded (a dead server is a blackhole).
        self.dead_instances: set[int] = set()
        if spec.real_core:
            self.handlers = [
                ZHTServerCore(
                    inst, self.membership, self.config, clock=lambda: self.env.now
                )
                for inst in self.instances
            ]
        else:
            self.handlers = [_DictHandler() for _ in self.instances]

        for i in range(spec.num_instances):
            self.env.process(self._server_proc(i), name=f"server-{i}")
        if spec.faults is not None:
            for at_time, target in spec.faults.scheduled_crashes():
                self.env.process(
                    self._crash_at(at_time, target), name=f"crash-{target}"
                )

    # ------------------------------------------------------------------

    def _build_membership(self) -> None:
        spec = self.spec
        nodes, instances = [], []
        for n in range(spec.num_nodes):
            node_id = f"n{n}"
            nodes.append(NodeInfo(node_id, Address(node_id, 0)))
            for i in range(self.config.instances_per_node):
                instances.append(
                    InstanceInfo(
                        new_instance_id(self.rng), node_id, Address(node_id, i + 1)
                    )
                )
        self.membership = MembershipTable.bootstrap(
            spec.num_partitions, nodes, instances
        )
        self.instances = instances
        self._node_index = {f"n{n}": n for n in range(spec.num_nodes)}

    def _node_of_instance(self, index: int) -> int:
        return self._node_index[self.instances[index].node_id]

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def kill_node(self, target: str) -> list[Address]:
        """Abruptly fail a node (by node id, e.g. ``"n1"``) or a single
        instance (by address string): its messages vanish from now on.
        Returns the addresses of the instances it took down."""
        addresses = []
        for i, inst in enumerate(self.instances):
            if inst.node_id == target or str(inst.address) == target:
                self.dead_instances.add(i)
                addresses.append(inst.address)
        return addresses

    @property
    def cores(self) -> list[ZHTServerCore]:
        """The real server cores (none for a baseline's dict handlers)."""
        return self.handlers if self.spec.real_core else []

    def close(self) -> None:
        for core in self.cores:
            core.close()

    def __enter__(self) -> "SimulatedCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _crash_at(self, at_time: float, target: str):
        yield self.env.timeout(at_time)
        self.kill_node(target)
        self.spec.faults.crash_target(target)

    def _first_of(self, *events):
        """An event succeeding with the index of whichever input event
        triggers first (a race — used to put timeouts on sim round trips
        that faults may leave unanswered)."""
        gate = self.env.event()

        def watch(i, evt):
            yield evt
            if not gate.triggered:
                gate.succeed(i)

        for i, evt in enumerate(events):
            self.env.process(watch(i, evt), name=f"first-of-{i}")
        return gate

    @property
    def _faulty(self) -> bool:
        return self.spec.faults is not None or bool(self.dead_instances)

    # ------------------------------------------------------------------
    # Message transport
    # ------------------------------------------------------------------

    def _one_way(self, src_node: int, dst_node: int, nbytes: int) -> float:
        return self.spec.link.one_way(
            self.topology.hops(src_node, dst_node), nbytes
        )

    def _deliver(self, dst_index: int, message: _SimMessage, src_node: int) -> None:
        """Schedule *message* to arrive at instance *dst_index*."""
        copies = 1
        extra_delay = 0.0
        plan = self.spec.faults
        if plan is not None:
            for record, rule in plan.message_faults(
                target=str(self.instances[dst_index].address),
                op=message.request.op.name,
            ):
                if record.kind in (FaultKind.DROP, FaultKind.RESET):
                    return  # the wire ate it
                if record.kind in (FaultKind.DELAY, FaultKind.STALL):
                    extra_delay += rule.delay
                elif record.kind is FaultKind.DUPLICATE:
                    copies += 1
        if dst_index in self.dead_instances:
            return  # blackhole: packets to a crashed instance vanish
        size = (
            _MSG_OVERHEAD
            + len(message.request.key)
            + len(message.request.value)
            + len(message.request.payload)
        )
        delay = (
            self._one_way(src_node, self._node_of_instance(dst_index), size)
            + extra_delay
        )

        landing = (message._land, self.queues[dst_index])
        for _ in range(copies):
            self.env._schedule(delay, self._in_flight, landing, None)

    def _in_flight(self, landing, _exc) -> None:
        """The wire delay is up; the message lands one zero-delay event
        later (the event order pinned in the tests counts both)."""
        land, arg = landing
        self.env._schedule(0.0, land, arg, None)

    # ------------------------------------------------------------------
    # Server process
    # ------------------------------------------------------------------

    def _server_proc(self, index: int):
        env = self.env
        spec = self.spec
        queue = self.queues[index]
        handler = self.handlers[index]
        my_node = self._node_of_instance(index)
        service = self.effective_service

        while True:
            message: _SimMessage = yield queue.get()
            request = message.request

            if index in self.dead_instances:
                continue  # crashed: drain and discard without replying

            if request.op == OpCode.PING and request.payload == b"fwd":
                # Routing forward at an intermediate server (log-routing
                # baselines): partial service, immediate ack.
                yield env.timeout(service.service_time * _FORWARD_SERVICE_FACTOR)
                if message.reply_event is not None:
                    self._reply(message, Response(status=Status.OK), my_node)
                continue

            if request.op == OpCode.REPLICA_UPDATE and message.reply_event is None:
                # Fire-and-forget replica apply: no response is built.
                cost = (
                    service.service_time * _REPLICA_APPLY_FACTOR
                    + service.persistence_time
                )
            elif request.op in MUTATING_OPS:
                cost = service.service_time + service.persistence_time
            else:
                cost = service.service_time
            yield env.timeout(cost)

            if spec.real_core:
                # The message is its own reply context should it get parked.
                result = handler.handle(request, message)
                response = result.response
                if request.op == OpCode.MIGRATE_COMMIT:  # only it ends a freeze
                    self._release_parked(result, my_node)
                for addr, update in result.async_sends:
                    yield env.timeout(
                        service.service_time * _REPLICA_DISPATCH_FACTOR
                    )
                    self._deliver(
                        self._addr_to_index[addr],
                        _SimMessage(update, None, my_node),
                        my_node,
                    )
                if result.sync_sends:
                    # The response is held until every synchronous replica
                    # acks, but the server loop keeps serving — otherwise
                    # two servers replicating to each other deadlock (an
                    # event-driven server never blocks on the network).
                    env.process(
                        self._sync_replicate_then_reply(
                            result.sync_sends, message, response, my_node
                        ),
                        name="sync-repl",
                    )
                    continue
            else:
                response = handler.handle(request)

            if request.op == OpCode.REPLICA_UPDATE and message.reply_event is None:
                # Fire-and-forget replica apply: partial cost, no response.
                continue
            if response is not None and message.reply_event is not None:
                self._reply(message, response, my_node)

    def _sync_replicate_then_reply(
        self, sync_sends, message: _SimMessage, response: Response, my_node: int
    ):
        for addr, update in sync_sends:
            ack = self.env.event()
            self._deliver(
                self._addr_to_index[addr],
                _SimMessage(update, ack, my_node),
                my_node,
            )
            if self._faulty:
                # Under fault injection the ack may never come (replica
                # crashed, update dropped): race it against the timeout
                # and degrade the response per §III.J.
                winner = yield self._first_of(
                    ack, self.env.timeout(self.config.request_timeout)
                )
                if winner == 1:
                    response.status = Status.REPLICATION_ERROR
                    break
            else:
                yield ack
        if response is not None and message.reply_event is not None:
            self._reply(message, response, my_node)

    def _release_parked(self, result: HandleResult, my_node: int) -> None:
        """A freeze ended (cf. ``ServerExecutor._apply_effects``): each
        parked message moves on to the new owner, which answers its
        requester, or — on abort/release — is failed with ``MIGRATING``."""
        for addr, queued in result.forwards:
            self._deliver(self._addr_to_index[addr], queued.reply_context, my_node)
        for queued in result.failed_queued:
            if queued.reply_context.reply_event is not None:
                bounce = Response(
                    status=Status.MIGRATING, request_id=queued.request.request_id
                )
                self._reply(queued.reply_context, bounce, my_node)

    def _reply(self, message: _SimMessage, response: Response, my_node: int) -> None:
        size = _MSG_OVERHEAD + len(response.value)
        delay = self._one_way(my_node, message.src_node, size)
        self.env._schedule(delay, self._in_flight, (message._answer, response), None)

    # ------------------------------------------------------------------
    # Client process
    # ------------------------------------------------------------------

    def _client_proc(self, client_id: int, ops, stats: LatencyStats, done: list):
        env = self.env
        spec = self.spec
        service = spec.service
        my_node = self._node_of_instance(client_id)
        client_core = ZHTClientCore(
            self.membership,
            self.config,
            rng=random.Random((spec.seed << 16) ^ client_id),
        )
        hash_name = self.config.hash_name
        forwards = service.routing_forwards(spec.num_instances)

        # Stagger start times so clients do not tick in lockstep.
        yield env.timeout(self.rng.random() * 1e-4)

        for op, key, value in ops:
            t0 = env.now
            yield env.timeout(service.client_overhead)

            # Target instance: zero-hop via membership for ZHT; a random
            # entry point + log(N) forwards for log-routing baselines.
            pid = self.membership.partition_of_key(key, hash_name)
            target = self._addr_to_index[
                self.membership.owner_of_partition(pid).address
            ]

            if service.connect_round_trips:
                # TCP without connection caching: handshake round trip.
                dst_node = self._node_of_instance(target)
                rtt = 2 * self._one_way(my_node, dst_node, _MSG_OVERHEAD)
                yield env.timeout(rtt * service.connect_round_trips)

            for _ in range(forwards):
                hop = self.rng.randrange(spec.num_instances)
                ack = env.event()
                self._deliver(
                    hop,
                    _SimMessage(
                        Request(op=OpCode.PING, payload=b"fwd"), ack, my_node
                    ),
                    my_node,
                )
                yield ack

            reply = env.event()
            request = Request(
                op=op,
                key=key,
                value=value,
                request_id=client_core.allocate_request_id(),
                epoch=self.membership.epoch,
            )
            self._deliver(target, _SimMessage(request, reply, my_node), my_node)
            if self._faulty:
                # Under churn the reply may never arrive; give up after
                # the configured timeout rather than deadlocking the run.
                winner = yield self._first_of(
                    reply, env.timeout(self.config.request_timeout)
                )
                if winner == 1:
                    continue
                response = reply.value
            else:
                response = yield reply
                assert response.status in (
                    Status.OK,
                    Status.KEY_NOT_FOUND,
                ), response
            stats.record(env.now - t0)
        done[0] += 1

    # ------------------------------------------------------------------
    # Driving the sans-IO loops (ops, manager scripts, scenario clients)
    # ------------------------------------------------------------------

    def roundtrip(
        self, address: Address, request: Request, timeout: float
    ) -> Generator[Any, Any, Response | None]:
        """DES sub-generator: one request/response with a timeout race.

        Returns the response, or ``None`` on timeout / unroutable address
        (mirrors :meth:`ClientTransport.roundtrip`).
        """
        dst = self._addr_to_index.get(address)
        if dst is None:
            # Unroutable (e.g. a manager port): burn the timeout like a real
            # transport waiting on a dead address would.
            yield self.env.timeout(timeout)
            return None
        reply = self.env.event()
        self._deliver(dst, _SimMessage(request, reply, 0), 0)
        winner = yield self._first_of(reply, self.env.timeout(timeout))
        return reply.value if winner == 0 else None

    def drive(self, loop: Generator) -> Generator[Any, Any, Any]:
        """DES sub-generator running a sans-IO loop of :mod:`repro.core.loops`
        in simulated time (cf. :func:`repro.net.transport.drive`)."""
        reply = None
        while True:
            try:
                command = loop.send(reply)
            except StopIteration as stop:
                return stop.value
            kind = command.__class__
            reply = None
            if kind is Sleep:
                yield self.env.timeout(command.seconds)
            elif kind is not Cast:  # a cast's only target, a manager, is not modelled
                reply = yield from self.roundtrip(
                    command.address, command.request, command.timeout
                )

    def owner_value(self, key: bytes) -> bytes:
        """*key*'s value straight from its owner's store (the DES has
        drained when the checks run, so no round trip is needed)."""
        pid = self.membership.partition_of_key(key, self.config.hash_name)
        inst = self.membership.owner_of_partition(pid)
        part = self.handlers[self._addr_to_index[inst.address]].partitions.get(pid)
        if part is None or key not in part.store:
            raise KeyNotFound(f"{key!r} not on owner {inst.instance_id[:8]}")
        return part.store.get(key)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run_workload(self, workload: MicroBenchmarkWorkload) -> RunResult:
        """Run one client per instance through *workload*; returns metrics."""
        stats = LatencyStats()
        done = [0]
        for client_id in range(self.spec.num_instances):
            self.env.process(
                self._client_proc(
                    client_id, workload.client_ops(client_id), stats, done
                ),
                name=f"client-{client_id}",
            )
        self.env.run()
        if done[0] != self.spec.num_instances:
            raise RuntimeError(
                f"only {done[0]}/{self.spec.num_instances} clients finished"
            )
        return RunResult(
            system=self.spec.service.name,
            num_nodes=self.spec.num_nodes,
            instances_per_node=self.config.instances_per_node,
            ops=stats.count,
            duration_s=self.env.now,
            latency=stats,
        )


def simulate(
    num_nodes: int,
    *,
    ops_per_client: int = 16,
    service: ServiceModel = ZHT_BGP,
    link: LinkModel = BGP_TORUS_LINK,
    topology: str = "torus",
    instances_per_node: int = 1,
    num_replicas: int = 0,
    replication_mode: str = ReplicationMode.NONE,
    real_core: bool = True,
    include_remove: bool = True,
    seed: int = 0,
) -> RunResult:
    """One-call helper: build a cluster, run the micro-benchmark, return
    the metrics row."""
    spec = SimSpec(
        num_nodes=num_nodes,
        link=link,
        service=service,
        topology=topology,
        real_core=real_core,
        seed=seed,
        config=ZHTConfig(
            num_partitions=num_nodes * instances_per_node,
            num_replicas=num_replicas,
            replication_mode=replication_mode,
            instances_per_node=instances_per_node,
            transport="local",
        ),
    )
    cluster = SimulatedCluster(spec)
    workload = MicroBenchmarkWorkload(
        ops_per_client=ops_per_client, seed=seed, include_remove=include_remove
    )
    return cluster.run_workload(workload)
