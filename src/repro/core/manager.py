"""ZHT Manager — membership orchestration (§III.B-C).

"A Manager is a service running on each physical node and takes charge of
starting and shutting down ZHT instances ... managing membership table,
starting/stopping instances, and partition migration."

The manager's multi-message procedures (migrate a partition, admit a
joining node, retire a node, repair after a failure) are written as
**generator scripts**: they ``yield`` :class:`PeerCall` objects and are
resumed with the peer's :class:`~repro.core.protocol.Response` (or
``None`` on timeout).  The same scripts therefore run unchanged over real
sockets and inside the discrete-event simulator, both stepped by
:func:`~repro.core.loops.script_loop` (``cluster.run(script)`` on a live
cluster).

Partition state moves exactly one way — :meth:`ManagerCore.transfer_partition`,
the paper's protocol: the source locks and exports the partition (queueing
incoming requests), every receiver imports it, and the lock is released.
A migration (join, retire) also hands over ownership before the release:
the membership delta is broadcast "in an atomic manner" and the source
commits, forwarding queued requests to the new owner.  Repair re-replicates
with the same script and no ownership change.  On any failure the source
aborts and the queued requests are failed, rolling the system back to a
consistent state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator

from .config import ZHTConfig
from .errors import MembershipError, Status
from .membership import (
    Address,
    InstanceInfo,
    MembershipTable,
    NodeInfo,
)
from .protocol import OpCode, Request, Response


@dataclass
class PeerCall:
    """One server-to-server round trip requested by a manager script
    (:func:`~repro.core.loops.script_loop` sets its timeout)."""

    address: Address
    request: Request
    timeout: float = 0.0


Script = Generator[PeerCall, "Response | None", object]


@dataclass
class MigrationReport:
    """Outcome of one partition migration."""

    pid: int
    src_instance: str
    dst_instance: str
    committed: bool
    pairs_moved: int = 0


class ManagerCore:
    """Membership/migration orchestration logic for one physical node."""

    def __init__(
        self,
        node_id: str,
        membership: MembershipTable,
        config: ZHTConfig | None = None,
        *,
        rng: random.Random | None = None,
    ) -> None:
        self.node_id = node_id
        self.membership = membership
        self.config = config or ZHTConfig()
        self.rng = rng or random.Random()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _request_id(self) -> int:
        return self.rng.getrandbits(31) or 1

    def _alive_instances(self) -> list[InstanceInfo]:
        return [
            inst
            for inst in self.membership.instances.values()
            if self.membership.nodes[inst.node_id].alive
        ]

    def broadcast_membership(self) -> Script:
        """Push the current table to every alive instance (best effort).

        "the manager broadcasts out the incremental information of
        membership in an atomic manner" — the table is serialized once, so
        every receiver adopts the identical epoch or nothing.
        """
        payload = self.membership.to_bytes()
        epoch = self.membership.epoch
        delivered = 0
        for inst in self._alive_instances():
            response = yield PeerCall(
                inst.address,
                Request(
                    op=OpCode.MEMBERSHIP_UPDATE,
                    request_id=self._request_id(),
                    epoch=epoch,
                    payload=payload,
                ),
            )
            if response is not None and response.status == Status.OK:
                delivered += 1
        return delivered

    # ------------------------------------------------------------------
    # Partition transfer
    # ------------------------------------------------------------------

    def transfer_partition(
        self,
        pid: int,
        src: InstanceInfo,
        receivers: list[InstanceInfo],
        new_owner: InstanceInfo | None = None,
    ) -> Script:
        """The one way partition state moves (§III.C): freeze → install →
        release.

        *src* locks and exports *pid* (incoming requests queue there) and
        every receiver installs the snapshot; then the lock goes one of
        two ways.  A **move** (*new_owner* given) flips ownership,
        broadcasts the table and commits: the source drops its copy and
        forwards its queue to the new owner.  A **copy** (re-replication)
        just releases: the source answers its queue ``MIGRATING`` and the
        clients retry.

        The source stays frozen until every receiver has acked or timed
        out, so no write can be acked after the snapshot a receiver is
        about to install.  Returns the pair count the receivers acked, or
        ``None`` when the freeze or an install failed — a move is then
        rolled back, a copy still reaches the other receivers.
        """

        def call(inst: InstanceInfo, op: OpCode, **fields: bytes) -> PeerCall:
            request = Request(
                op=op, request_id=self._request_id(), partition=pid, **fields
            )
            return PeerCall(inst.address, request)

        begin = yield call(src, OpCode.MIGRATE_BEGIN)
        if begin is None:
            # The freeze may have taken with its reply lost or late: release
            # it, or every request to the partition stays queued.
            yield call(src, OpCode.MIGRATE_COMMIT, value=b"abort")
        if begin is None or begin.status != Status.OK:
            return None
        pairs: int | None = 0
        for receiver in receivers:
            ack = yield call(receiver, OpCode.MIGRATE_DATA, value=begin.value)
            if ack is None or ack.status != Status.OK:
                pairs = None
            elif pairs is not None:
                pairs = int(ack.value or 0)
        if new_owner is None or pairs is None:
            yield call(src, OpCode.MIGRATE_COMMIT, value=b"abort")
            return pairs
        self.membership.reassign_partition(pid, new_owner.instance_id)
        yield from self.broadcast_membership()
        # A lost commit ack changes nothing: ownership is already flipped
        # and broadcast, so the system is consistent either way.
        yield call(
            src,
            OpCode.MIGRATE_COMMIT,
            value=b"commit",
            payload=str(new_owner.address).encode(),
        )
        return pairs

    def migrate_partition(self, pid: int, dst_instance_id: str) -> Script:
        """Move partition *pid* to *dst_instance_id*; returns a report."""
        src = self.membership.owner_of_partition(pid)
        dst = self.membership.instances.get(dst_instance_id)
        if dst is None:
            raise MembershipError(f"unknown destination {dst_instance_id}")
        if src.instance_id == dst_instance_id:
            return MigrationReport(pid, src.instance_id, dst_instance_id, True)
        moved = yield from self.transfer_partition(pid, src, [dst], new_owner=dst)
        return MigrationReport(
            pid, src.instance_id, dst_instance_id, moved is not None, moved or 0
        )

    # ------------------------------------------------------------------
    # Node join
    # ------------------------------------------------------------------

    def plan_join_donations(
        self, joining_instances: list[InstanceInfo]
    ) -> list[tuple[int, str]]:
        """Choose which partitions the joiner takes: ``(pid, dst_iid)``.

        "the new node can find the physical nodes with the most
        partitions, then join the ring as this heavily loaded node's
        neighbor and move some of the partitions from the 'busy' node to
        itself."  We take enough partitions from the most-loaded node to
        equalize, dealing them round-robin to the joiner's instances.
        """
        donor = self.membership.most_loaded_node()
        donor_pids = self.membership.partitions_of_node(donor)
        # Take the tail half (leaves both sides balanced).
        take = len(donor_pids) // 2
        if take == 0:
            return []
        chosen = donor_pids[-take:]
        return [
            (pid, joining_instances[i % len(joining_instances)].instance_id)
            for i, pid in enumerate(chosen)
        ]

    def join_node(
        self, node: NodeInfo, instances: list[InstanceInfo]
    ) -> Script:
        """Admit *node* (with its *instances*) and rebalance; returns the
        list of migration reports."""
        if not instances:
            raise MembershipError("a joining node must bring >= 1 instance")
        self.membership.add_node(node)
        for inst in instances:
            self.membership.add_instance(inst)
        donations = self.plan_join_donations(instances)
        reports: list[MigrationReport] = []
        for pid, dst in donations:
            report = yield from self.migrate_partition(pid, dst)
            reports.append(report)
        # Final broadcast so everyone sees the settled table.
        yield from self.broadcast_membership()
        return reports

    # ------------------------------------------------------------------
    # Planned departure
    # ------------------------------------------------------------------

    def retire_node(self, node_id: str) -> Script:
        """Gracefully drain *node_id* ("The managers, which will be
        departing, first migrate their partitions to neighboring nodes,
        and then continue to depart")."""
        if node_id not in self.membership.nodes:
            raise MembershipError(f"unknown node {node_id}")
        reports: list[MigrationReport] = []
        targets = [
            inst for inst in self._alive_instances() if inst.node_id != node_id
        ]
        if not targets:
            raise MembershipError("cannot retire the last alive node")
        ring = sorted(targets, key=lambda i: i.ring_position)
        i = 0
        for inst in self.membership.instances_on_node(node_id):
            for pid in self.membership.partitions_of_instance(inst.instance_id):
                dst = ring[i % len(ring)]
                i += 1
                report = yield from self.migrate_partition(pid, dst.instance_id)
                reports.append(report)
        for inst in self.membership.instances_on_node(node_id):
            self.membership.remove_instance(inst.instance_id)
        self.membership.remove_node(node_id)
        yield from self.broadcast_membership()
        return reports

    # ------------------------------------------------------------------
    # Failure repair
    # ------------------------------------------------------------------

    def repair_after_failure(self, dead_node_id: str) -> Script:
        """Reassign a dead node's partitions to their replicas and restore
        the replication level (§III.C "Node departures", §III.H).

        For each partition owned by the dead node, ownership moves to its
        first alive replica (which already holds the data) and the table
        is broadcast.  Then every partition that lost a copy is
        re-replicated by :meth:`transfer_partition` from its owner to the
        next nodes on the ring, so the configured replication level is
        maintained; this script itself sends only the broadcast.
        """
        node = self.membership.nodes.get(dead_node_id)
        if node is None:
            raise MembershipError(f"unknown node {dead_node_id}")

        # Every partition whose pre-death replica chain included the dead
        # node (as owner *or* successor) lost one copy and needs
        # re-replication — reconstruct those chains as they stood while
        # the node was alive.
        depth = max(self.config.num_replicas, 1)
        affected: list[int] = []
        if self.config.num_replicas > 0:
            for pid in range(self.membership.num_partitions):
                chain = self.membership.replicas_for_partition(
                    pid, depth, assume_alive=dead_node_id
                )
                if any(c.node_id == dead_node_id for c in chain):
                    affected.append(pid)

        if node.alive:
            self.membership.mark_node_dead(dead_node_id)

        reassigned: list[int] = []
        for inst in self.membership.instances_on_node(dead_node_id):
            for pid in self.membership.partitions_of_instance(inst.instance_id):
                # The chain skips dead nodes: past the (dead) owner it
                # holds only survivors, the first of which has the data.
                chain = self.membership.replicas_for_partition(pid, depth)
                if len(chain) > 1:
                    survivor = chain[1]
                else:
                    # Data loss: no replica survives. Reassign to any alive
                    # instance so the key range stays routable (lookups
                    # will report KEY_NOT_FOUND).
                    alive = self._alive_instances()
                    if not alive:
                        continue
                    survivor = self.rng.choice(alive)
                self.membership.reassign_partition(pid, survivor.instance_id)
                reassigned.append(pid)

        yield from self.broadcast_membership()

        # Restore the replication level: each affected partition's
        # (possibly new) owner is the source of one copy transfer to the
        # rest of its new chain.  Partitions where the dead node was only
        # a successor keep their owner but still need a fresh copy on
        # whichever node replaced it in the chain.
        for pid in affected:
            owner, *replicas = self.membership.replicas_for_partition(
                pid, self.config.num_replicas
            )
            yield from self.transfer_partition(pid, owner, replicas)
        return reassigned
