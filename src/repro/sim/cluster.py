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
from ..core.loops import Answer, Cast, Group, Sleep, effect_loop
from ..core.membership import (
    Address,
    InstanceInfo,
    MembershipTable,
    NodeInfo,
    new_instance_id,
)
from ..core.protocol import MUTATING_OPS, OpCode, Request, Response
from ..core.server import ZHTServerCore
from .engine import Environment, Reply, Store
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


class _SimMessage(Reply):
    """A request on the simulated wire, and the reply its sender waits for
    (``response = yield message``) unless it is one-way."""

    #: ``leg_hops`` is the hop count between ``src_node`` and
    #: ``leg_node``, kept from a delivery so a reply from ``leg_node``
    #: need not count it again (hop counts are symmetric).
    __slots__ = ("request", "src_node", "one_way", "leg_node", "leg_hops")

    def __init__(
        self,
        env: Environment,
        request: Request,
        src_node: int,
        one_way: bool = False,
        timeout: float | None = None,
    ):
        Reply.__init__(self, env, timeout)
        self.request = request
        self.src_node = src_node
        self.one_way = one_way
        self.leg_node = -1


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
        self._hops = self.topology.hops
        self._link = spec.link

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
            env = self.env  # the clock holds the env, not this cluster
            self.handlers = [
                ZHTServerCore(inst, self.membership, self.config, clock=lambda: env.now)
                for inst in self.instances
            ]
        else:
            self.handlers = [_DictHandler() for _ in self.instances]

        #: The processes this cluster started; :meth:`close` ends them.
        self._procs = [
            self.env.process(self._server_proc(i), name=f"server-{i}")
            for i in range(spec.num_instances)
        ]
        if spec.faults is not None:
            for at_time, target in spec.faults.scheduled_crashes():
                self._procs.append(self.env.process(
                    self._crash_at(at_time, target), name=f"crash-{target}"
                ))

    # ------------------------------------------------------------------

    def _build_membership(self) -> None:
        spec = self.spec
        nodes, instances = [], []
        #: The node each instance runs on, by instance index.
        self._instance_node: list[int] = []
        for n in range(spec.num_nodes):
            node_id = f"n{n}"
            nodes.append(NodeInfo(node_id, Address(node_id, 0)))
            for i in range(self.config.instances_per_node):
                instances.append(
                    InstanceInfo(
                        new_instance_id(self.rng), node_id, Address(node_id, i + 1)
                    )
                )
                self._instance_node.append(n)
        self.membership = MembershipTable.bootstrap(
            spec.num_partitions, nodes, instances
        )
        self.instances = instances

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
        """Close the cores and end the simulation.  A suspended server
        process's frame holds this cluster, and the env's queues hold the
        process, so both are ended here: a closed cluster is freed when
        its last reference goes, with no full collection."""
        for core in self.cores:
            core.close()
        for proc in self._procs:
            proc.close()
        self.env.close()

    def __enter__(self) -> "SimulatedCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _crash_at(self, at_time: float, target: str):
        yield float(at_time)
        self.kill_node(target)
        self.spec.faults.crash_target(target)

    @property
    def _faulty(self) -> bool:
        return self.spec.faults is not None or bool(self.dead_instances)

    # ------------------------------------------------------------------
    # Message transport
    # ------------------------------------------------------------------

    def _deliver(self, dst_index: int, message: _SimMessage, src_node: int) -> None:
        """Schedule *message* to land in instance *dst_index*'s queue: one
        heap entry per copy, :meth:`Store._land` itself."""
        copies = 1
        extra_delay = 0.0
        plan = self.spec.faults
        if plan is not None:
            fate = plan.message_fate(
                target=str(self.instances[dst_index].address),
                op=message.request.op.name,
            )
            if fate.lost:
                return  # the wire ate it (a reset too)
            extra_delay, copies = fate.delay, fate.copies
        if dst_index in self.dead_instances:
            return  # blackhole: packets to a crashed instance vanish
        request = message.request
        size = _MSG_OVERHEAD + len(request.key) + len(request.value) + len(request.payload)
        dst_node = self._instance_node[dst_index]
        hops = self._hops(src_node, dst_node)
        if src_node == message.src_node:  # not a forward
            message.leg_node, message.leg_hops = dst_node, hops
        delay = self._link.one_way(hops, size) + extra_delay
        land = self.queues[dst_index]._land
        self.env._schedule(delay, land, message, None)
        while copies > 1:  # a duplicated message lands once per copy
            copies -= 1
            self.env._schedule(delay, land, message, None)

    # ------------------------------------------------------------------
    # Server process
    # ------------------------------------------------------------------

    def _server_proc(self, index: int):
        env = self.env
        spec = self.spec
        queue = self.queues[index]
        handler = self.handlers[index]
        my_node = self._instance_node[index]
        service = self.effective_service
        # Service times, as the floats a process sleeps by yielding.
        forward_cost = float(service.service_time * _FORWARD_SERVICE_FACTOR)
        # Fire-and-forget replica apply: no response is built.
        apply_cost = float(
            service.service_time * _REPLICA_APPLY_FACTOR + service.persistence_time
        )
        write_cost = float(service.service_time + service.persistence_time)
        read_cost = float(service.service_time)
        dispatch_cost = float(service.service_time * _REPLICA_DISPATCH_FACTOR)
        request_timeout = self.config.request_timeout
        # Enum members bound once: a class attribute read per message goes
        # through EnumType's __getattr__.
        ping, replica_update = OpCode.PING, OpCode.REPLICA_UPDATE

        while True:
            message: _SimMessage = yield queue.get()
            request = message.request
            op = request.op

            if index in self.dead_instances:
                continue  # crashed: drain and discard without replying

            if op == ping and request.payload == b"fwd":
                # Routing forward at an intermediate server (log-routing
                # baselines): partial service, immediate ack.
                yield forward_cost
                if not message.one_way:
                    self._reply(message, Response(status=Status.OK), my_node)
                continue

            if op == replica_update and message.one_way:
                yield apply_cost
            elif op in MUTATING_OPS:
                yield write_cost
            else:
                yield read_cost

            if spec.real_core:
                # The message is its own reply context should it get parked.
                result = handler.handle(request, message)
                if result.effects:
                    yield from self._effects(
                        effect_loop(result, request_timeout), message, my_node, dispatch_cost
                    )
                    continue
                response = result.response
            else:
                response = handler.handle(request)
            # A one-way message (a fire-and-forget replica apply) gets none.
            if response is not None and not message.one_way:
                self._reply(message, response, my_node)

    def _effects(self, effects, message, my_node, dispatch_cost, command=None):
        """Step a result's effect loop (from *command* on) and reply to
        *message* with its response.  A cast costs the server process
        *dispatch_cost*; the first call moves the rest to a spawned
        process (two servers replicating to each other would otherwise
        deadlock), which sends each call and waits (timed under faults)."""
        spawned = command is not None
        try:
            if command is None:
                command = effects.send(None)
            while True:
                kind = command.__class__
                reply = None
                if kind is Cast:
                    yield dispatch_cost
                    update = _SimMessage(self.env, command.request, my_node, one_way=True)
                    self._deliver(self._addr_to_index[command.address], update, my_node)
                elif kind is Answer:
                    if not command.context.one_way:
                        self._reply(command.context, command.response, my_node)
                elif not spawned:
                    self.env.process(
                        self._effects(effects, message, my_node, dispatch_cost, command),
                        name="sync-repl",
                    )
                    return
                else:
                    calls = command.sends if kind is Group else [(command.address, command.request)]
                    acks = []
                    for address, request in calls:
                        timeout = self.config.request_timeout if self._faulty else None
                        call = _SimMessage(self.env, request, my_node, timeout=timeout)
                        self._deliver(self._addr_to_index[address], call, my_node)
                        acks.append((yield call))
                    reply = acks if kind is Group else acks[0]
                command = effects.send(reply)
        except StopIteration as stop:
            if stop.value is not None and not message.one_way:
                self._reply(message, stop.value, my_node)

    def _reply(self, message: _SimMessage, response: Response, my_node: int) -> None:
        if message.leg_node == my_node:
            hops = message.leg_hops
        else:
            hops = self._hops(my_node, message.src_node)
        delay = self._link.one_way(hops, _MSG_OVERHEAD + len(response.value))
        self.env._schedule(delay, message._land, response, None)

    # ------------------------------------------------------------------
    # Client process
    # ------------------------------------------------------------------

    def _client_proc(self, client_id: int, ops, stats: LatencyStats, done: list):
        env = self.env
        spec = self.spec
        service = spec.service
        my_node = self._instance_node[client_id]
        client_core = ZHTClientCore(
            self.membership,
            self.config,
            rng=random.Random((spec.seed << 16) ^ client_id),
        )
        hash_name = self.config.hash_name
        forwards = service.routing_forwards(spec.num_instances)
        overhead = float(service.client_overhead)
        request_timeout = self.config.request_timeout
        plan, dead = spec.faults, self.dead_instances
        membership, addr_to_index = self.membership, self._addr_to_index

        # Stagger start times so clients do not tick in lockstep.
        yield self.rng.random() * 1e-4

        for op, key, value in ops:
            t0 = env.now
            yield overhead

            # Target instance: zero-hop via membership for ZHT; a random
            # entry point + log(N) forwards for log-routing baselines.
            pid = membership.partition_of_key(key, hash_name)
            target = addr_to_index[membership.owner_of_partition(pid).address]

            if service.connect_round_trips:
                # TCP without connection caching: handshake round trip.
                hops = self._hops(my_node, self._instance_node[target])
                rtt = 2 * self._link.one_way(hops, _MSG_OVERHEAD)
                yield rtt * service.connect_round_trips

            for _ in range(forwards):
                hop = self.rng.randrange(spec.num_instances)
                ack = _SimMessage(env, Request(op=OpCode.PING, payload=b"fwd"), my_node)
                self._deliver(hop, ack, my_node)
                yield ack

            request = Request(
                op=op,
                key=key,
                value=value,
                request_id=client_core.allocate_request_id(),
                epoch=membership.epoch,
            )
            # Under churn the reply may never arrive: a timed wait gives up
            # after the configured timeout rather than deadlocking the run.
            faulty = plan is not None or bool(dead)
            message = _SimMessage(
                env, request, my_node, timeout=request_timeout if faulty else None
            )
            self._deliver(target, message, my_node)
            response = yield message
            if response is None:
                continue
            if not faulty:
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
        """DES sub-generator: one request/response as a timed wait.

        Returns the response, or ``None`` on timeout / unroutable address
        (mirrors :meth:`ClientTransport.roundtrip`).
        """
        dst = self._addr_to_index.get(address)
        if dst is None:
            # Unroutable (e.g. a manager port): burn the timeout like a real
            # transport waiting on a dead address would.
            yield float(timeout)
            return None
        message = _SimMessage(self.env, request, 0, timeout=timeout)
        self._deliver(dst, message, 0)
        return (yield message)

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
                yield float(command.seconds)
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
