"""Layers timed in isolation, on what the traced run actually carried.

The request/response objects captured at ``roundtrip`` (or at ``handle``
for the simulator) and the workload's own op stream are replayed against
each layer's public functions with nothing else running, so a layer's
cost is known without the socket and scheduler noise of the live run.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from repro.api import build_local_cluster
from repro.core.errors import KeyNotFound, ZHTError
from repro.core.hashing import partition_of
from repro.core.protocol import (
    MUTATING_OPS,
    OpCode,
    Request,
    decode_batch_requests,
    decode_request_span,
    decode_response_span,
    deframe_span,
    encode_batch_requests,
    encode_framed_request,
    encode_framed_response,
)
from repro.novoht import NoVoHT, WriteAheadLog
from repro.novoht.wal import OP_PUT

from harness import drive, good_cut

_pc = time.perf_counter


@dataclass
class Task:
    """One layer function applied to each of *items*; a pass over the
    items is the unit that is timed."""

    name: str
    fn: Callable
    items: list


def measure(tasks: list[Task], rota, child_pids: list[int], rounds: int = 6) -> dict[str, float]:
    """Microseconds per item for every task: the fastest of *rounds*
    passes.  The passes of one task are identical, so the fastest is the
    one the host disturbed least; rounds go over all the tasks in turn
    and move to the next CPU in between, so a task's passes are seconds
    apart and do not all sit in one slow phase of the host."""
    best = {task.name: float("inf") for task in tasks if task.items}
    for _ in range(rounds):
        for task in tasks:
            if not task.items:
                continue
            fn = task.fn
            t0 = _pc()
            for item in task.items:
                fn(item)
            best[task.name] = min(best[task.name], (_pc() - t0) / len(task.items))
        rota.advance(child_pids)
    return {name: seconds * 1e6 for name, seconds in best.items()}


def _decode_frame(decode, frame) -> None:
    start, end, _next = deframe_span(frame, 0)
    decode(frame, start, end)


def codec_tasks(captured: list) -> list[Task]:
    """The four codec legs of one round trip and the 64-entry batch codec,
    on the messages the traced section carried."""
    requests = [req for req, _resp in captured]
    responses = [resp for _req, resp in captured if resp is not None]
    request_frames = [encode_framed_request(req, "fixed") for req in requests]
    response_frames = [encode_framed_response(resp, "fixed") for resp in responses]
    subs: list = []
    for req, _resp in captured:
        subs += decode_batch_requests(req.payload) if req.op == OpCode.BATCH else [req]
        if len(subs) >= 64 * 200:
            break
    batches = [subs[i : i + 64] for i in range(0, len(subs) - 63, 64)]
    payloads = [encode_batch_requests(batch, "fixed") for batch in batches]
    prefix = "core.protocol."
    return [
        Task(prefix + "encode_request_us", lambda req: encode_framed_request(req, "fixed"), requests),
        Task(prefix + "decode_request_us",
             lambda frame: _decode_frame(decode_request_span, frame), request_frames),
        Task(prefix + "encode_response_us", lambda resp: encode_framed_response(resp, "fixed"), responses),
        Task(prefix + "decode_response_us",
             lambda frame: _decode_frame(decode_response_span, frame), response_frames),
        Task(prefix + "batch64_encode_us", lambda batch: encode_batch_requests(batch, "fixed"), batches),
        Task(prefix + "batch64_decode_us", decode_batch_requests, payloads),
    ]


def wire_bytes_per_op(captured: list, ops_per_call: int) -> float:
    wire = sum(
        len(encode_framed_request(req, "fixed"))
        + (len(encode_framed_response(resp, "fixed")) if resp is not None else 0)
        for req, resp in captured
    )
    return wire / max(1, len(captured) * ops_per_call)


def hashing_task(keys: list[bytes], config) -> Task:
    n, name = config.num_partitions, config.hash_name
    return Task("core.hashing.partition_of_us", lambda key: partition_of(key, n, name), keys[:20_000])


def ping_task(zht) -> Task:
    """An empty PING through the live transport and event loop: the floor
    under every op's latency."""
    address = next(iter(zht.membership.instances.values())).address

    def ping(_i) -> None:
        request = Request(op=OpCode.PING, request_id=zht.core.allocate_request_id())
        if zht.transport.roundtrip(address, request, 1.0) is None:
            raise RuntimeError("PING timed out")

    return Task("net.tcp.ping_rtt_us", ping, list(range(300)))


def local_roundtrip(workload, work_dir: str, ops: int = 20_000) -> float:
    """The head of the same op stream over ``build_local_cluster``: client
    planning, server core and store with direct calls in place of sockets
    and codec."""
    config = workload.config.replace(transport="local", num_shards=1)
    if config.persistence_dir is not None:
        config = config.replace(persistence_dir=os.path.join(work_dir, "local-replay"))
    with build_local_cluster(2, config) as cluster:
        zht = cluster.client(seed=workload.seed)
        items = list(workload.initial.items())
        for i in range(0, len(items), 512):
            zht.insert_many(items[i : i + 512])
        methods = {
            name: getattr(zht, name)
            for name in ("insert", "lookup", "append", "remove", "insert_many", "lookup_many")
        }
        stream = workload.streams[0][: ops // workload.weight]
        seg, _ = drive(methods, stream, 0, float("inf"), workload.weight, KeyNotFound, ZHTError)
    if seg.failed or not seg.lat:
        return 0.0
    chunks = [seg.lat[i : i + 500] for i in range(0, len(seg.lat), 500)]
    return good_cut([statistics.fmean(chunk) for chunk in chunks]) * 1e6


def _mutations(captured: list, limit: int) -> list[tuple[bytes, bytes]]:
    found: list = []
    for req, _resp in captured:
        subs = decode_batch_requests(req.payload) if req.op == OpCode.BATCH else [req]
        found += [(r.key, r.value) for r in subs if r.op in MUTATING_OPS and r.value]
        if len(found) >= limit:
            break
    return found[:limit]


def wal_bytes_per_user_byte(captured: list, work_dir: str) -> float:
    """WAL bytes per user byte over the first 2000 captured mutations
    (below NoVoHT's automatic log GC threshold): a count, repeats exactly."""
    mutations = _mutations(captured, 2000)
    if not mutations:
        return 0.0
    with NoVoHT(os.path.join(work_dir, "wal-replay"), checkpoint_interval_ops=0) as store:
        for key, value in mutations:
            store.put(key, value)
        wal_bytes = store.info()["wal_bytes"]
    return wal_bytes / sum(len(k) + len(v) for k, v in mutations)


@contextlib.contextmanager
def fsync_task(captured: list, work_dir: str):
    """One fsynced WAL append on this file system, as a :class:`Task`."""
    os.makedirs(work_dir, exist_ok=True)
    log = WriteAheadLog(os.path.join(work_dir, "fsync.wal"), fsync=True)
    log.open()
    try:
        yield Task(
            "novoht.wal.append_fsync_us",
            lambda kv: log.append(OP_PUT, kv[0], kv[1]),
            _mutations(captured, 100),
        )
    finally:
        log.close()
