"""Span tracing from outside the program.

The ledger touches no file under ``src/``: for the traced run it wraps
the public entry point of each layer (class attribute swapped for a
timing wrapper, restored afterwards) and records one span per call —
id, parent, root, name, start, end — in per-thread lists that are only
merged when the run is over.  A span's parent is the span open on the
same thread; a server-side ``handle`` running on the event-loop thread
is tied to the client ``roundtrip`` that caused it by (address, request
id), so the spans of one request share its root id across threads.

Self time = a span's duration minus the durations of its direct
children.  Servers in another process (the sharded workload) cannot be
wrapped; their numbers come from the program's own histograms via STATS.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from time import perf_counter

import repro.novoht.novoht as novoht_module
from repro.api import ZHT
from repro.core.client import OpDriver, ZHTClientCore
from repro.core.server import ZHTServerCore
from repro.net.tcp import MultiplexedTCPClient, TCPClient
from repro.novoht import NoVoHT
from repro.novoht.wal import WriteAheadLog

ROOT = "api.op"
PLAN = "core.client.plan"
PLAN_BATCH = "core.client.plan_batch"
ROUNDTRIP = "net.tcp.roundtrip"
PEER_ROUNDTRIP = "net.tcp.peer_roundtrip"
HANDLE = "core.server.handle"
WAL_APPEND = "novoht.wal.append"
CHECKPOINT = "novoht.checkpoint"

#: (owner, attribute, span name, link) — link "root" starts a request,
#: "out" publishes the span for a remote handler to adopt, "in" adopts.
_POINTS = (
    [(ZHT, op, ROOT, "root") for op in ("insert", "lookup", "append", "remove", "insert_many", "lookup_many")]
    + [
        (ZHTClientCore, "driver", PLAN, None),
        (OpDriver, "next_attempt", PLAN, None),
        (OpDriver, "on_response", PLAN, None),
        (ZHTClientCore, "plan_batches", PLAN_BATCH, None),
        (MultiplexedTCPClient, "roundtrip", ROUNDTRIP, "out"),
        (TCPClient, "roundtrip", PEER_ROUNDTRIP, "out"),
        (ZHTServerCore, "handle", HANDLE, "in"),
        (WriteAheadLog, "append", WAL_APPEND, None),
        (WriteAheadLog, "append_many", WAL_APPEND, None),
        (novoht_module, "write_checkpoint", CHECKPOINT, "checkpoint"),
    ]
    + [(NoVoHT, op, f"novoht.{op}", None) for op in ("put", "get", "append", "remove", "apply_batch")]
)

#: Request/response pairs kept for the isolated replays.
CAPTURE_LIMIT = 20_000


class Tracer:
    def __init__(self, capture_at_handle: bool = False) -> None:
        self.enabled = False
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._threads: list[list] = []
        self._lock = threading.Lock()
        self._published: dict = {}  # (address, request id) -> (span id, root id)
        self._undo: list = []
        self.captured: list = []
        self._capture_at_handle = capture_at_handle
        self.checkpoint_bytes = 0

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, link in _POINTS:
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, link))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _state(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.spans = []
            with self._lock:
                self._threads.append(tls.spans)
        return tls

    def _wrapper(self, original, name: str, link):
        tracer = self
        published = self._published
        next_id = self._ids.__next__

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            tls = tracer._state()
            stack = tls.stack
            span_id = next_id()
            if stack:
                parent, root = stack[-1]
            elif link == "in":
                # args = (core, request, ...): adopt the roundtrip that sent it.
                parent, root = published.get(
                    (args[0].info.address, args[1].request_id), (0, span_id)
                )
            else:
                parent, root = 0, span_id
            key = None
            if link == "out":
                # args = (transport, address, request, timeout)
                key = (args[1], args[2].request_id)
                published[key] = (span_id, root)
            stack.append((span_id, root))
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tls.spans.append((span_id, parent, root, name, start, end))
                if key is not None:
                    published.pop(key, None)
            if link == "out":
                if name == ROUNDTRIP and len(tracer.captured) < CAPTURE_LIMIT:
                    tracer.captured.append((args[2], result))
            elif link == "in":
                if tracer._capture_at_handle and len(tracer.captured) < CAPTURE_LIMIT:
                    tracer.captured.append((args[1], result.response))
            elif link == "checkpoint":
                tracer.checkpoint_bytes += os.path.getsize(args[0])
            return result

        traced.__wrapped__ = original
        return traced

    # -- reading ---------------------------------------------------------------

    def spans(self) -> list[tuple]:
        with self._lock:
            threads = list(self._threads)
        return [span for spans in threads for span in spans]

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for span_id, parent, root, name, start, end in self.spans():
                f.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "root": root, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


class Summary:
    """Per-name totals over a set of spans."""

    def __init__(self, spans: list[tuple]) -> None:
        child_time: dict[int, float] = {}
        names: dict[int, str] = {}
        for span_id, parent, _root, name, start, end in spans:
            names[span_id] = name
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        self.count: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        for span_id, parent, _root, name, start, end in spans:
            # A handle serving a replica update is the peer's work, not
            # the client-facing request's: keep the two apart.
            if name == HANDLE and names.get(parent) == PEER_ROUNDTRIP:
                name = HANDLE + ".replica"
            duration = end - start
            self.count[name] = self.count.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = (
                self.self_time.get(name, 0.0) + duration - child_time.get(span_id, 0.0)
            )

    def mean_us(self, name: str) -> float:
        n = self.count.get(name, 0)
        return self.total[name] / n * 1e6 if n else 0.0

    def mean_self_us(self, name: str) -> float:
        n = self.count.get(name, 0)
        return self.self_time[name] / n * 1e6 if n else 0.0
