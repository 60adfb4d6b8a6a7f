"""ZHT core: the paper's primary contribution, sans I/O.

Everything here is transport- and clock-agnostic; the real runtime
(:mod:`repro.net`) and the discrete-event simulator (:mod:`repro.sim`)
both execute these state machines.
"""

from .config import ReplicationMode, ZHTConfig
from .errors import (
    KeyNotFound,
    MembershipError,
    MigrationError,
    NodeDeadError,
    ProtocolError,
    ReplicationError,
    RequestTimeout,
    Status,
    StoreError,
    UnsupportedOperation,
    ValueTooLarge,
    ZHTError,
)
from .hashing import (
    HASH_FUNCTIONS,
    fnv1a_32,
    fnv1a_64,
    jenkins_64,
    jenkins_lookup3,
    partition_of,
    partitions_of,
    ring_position,
)
from .client import Attempt, OpDriver, OpState, ZHTClientCore
from .manager import ManagerCore, MigrationReport, PeerCall
from .membership import (
    Address,
    InstanceInfo,
    MembershipTable,
    NodeInfo,
    new_instance_id,
)
from .partition import Partition, PartitionState, QueuedRequest
from .protocol import OpCode, Request, Response, frame
from .server import HandleResult, ZHTServerCore

__all__ = [
    "Address",
    "Attempt",
    "HandleResult",
    "HASH_FUNCTIONS",
    "InstanceInfo",
    "KeyNotFound",
    "ManagerCore",
    "MembershipError",
    "MembershipTable",
    "MigrationError",
    "MigrationReport",
    "NodeDeadError",
    "NodeInfo",
    "OpCode",
    "OpDriver",
    "OpState",
    "Partition",
    "PartitionState",
    "PeerCall",
    "ProtocolError",
    "QueuedRequest",
    "ReplicationError",
    "ReplicationMode",
    "Request",
    "RequestTimeout",
    "Response",
    "Status",
    "StoreError",
    "UnsupportedOperation",
    "ValueTooLarge",
    "ZHTClientCore",
    "ZHTConfig",
    "ZHTError",
    "ZHTServerCore",
    "fnv1a_32",
    "fnv1a_64",
    "frame",
    "jenkins_64",
    "jenkins_lookup3",
    "new_instance_id",
    "partition_of",
    "partitions_of",
    "ring_position",
]
