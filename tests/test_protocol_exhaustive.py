"""Exhaustiveness tests generated from the OpCode enum itself.

Parametrized over ``list(OpCode)`` so a newly added opcode fails these
tests immediately unless it gets a wire roundtrip, a mutating /
non-mutating classification, and a server dispatch handler — the
runtime counterpart of the ``protocol-exhaustiveness`` lint checker
(``python -m repro lint``), which proves the same properties statically.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import LintConfig, Project
from repro.analysis.protocol_check import collect_status_usage, collect_usage
from repro.core.errors import (
    STATUS_TO_EXCEPTION,
    Status,
    ZHTError,
    raise_for_status,
)
from repro.core.protocol import (
    MUTATING_OPS,
    NON_MUTATING_OPS,
    OpCode,
    Request,
    Response,
)
from repro.core.server import ZHTServerCore

REPO_ROOT = Path(__file__).resolve().parents[1]

ALL_OPS = list(OpCode)
ALL_STATUSES = list(Status)


def _project():
    # Cached per-session: one parse of src/repro is plenty.
    if not hasattr(_project, "value"):
        _project.value = Project.load(REPO_ROOT, LintConfig(roots=["src/repro"]))
    return _project.value


def _usage():
    if not hasattr(_usage, "value"):
        _usage.value = collect_usage(_project())
    return _usage.value


def _status_usage():
    if not hasattr(_status_usage, "value"):
        _status_usage.value = collect_status_usage(_project())
    return _status_usage.value


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.name)
def test_op_in_exactly_one_mutation_set(op):
    in_mut = op in MUTATING_OPS
    in_non = op in NON_MUTATING_OPS
    assert in_mut != in_non, (
        f"{op.name} must be in exactly one of MUTATING_OPS / "
        f"NON_MUTATING_OPS (mutating={in_mut}, non_mutating={in_non})"
    )


def test_mutation_sets_partition_the_enum():
    assert MUTATING_OPS | NON_MUTATING_OPS == frozenset(OpCode)
    assert not MUTATING_OPS & NON_MUTATING_OPS


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.name)
def test_request_wire_roundtrip(op):
    request = Request(
        op=op,
        key=b"k" * 7,
        value=b"v" * 11,
        request_id=42,
        epoch=3,
        partition=5,
        replica_index=1,
        inner_op=int(OpCode.INSERT),
        payload=b"\x00\xffpayload",
    )
    decoded = Request.decode(request.encode())
    assert decoded == request
    assert isinstance(decoded.op, OpCode)


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.name)
def test_op_has_server_dispatch_handler(op):
    usage = _usage()
    assert usage is not None, "OpCode class not found by the analyzer"
    assert op.name in usage.dispatched, (
        f"{op.name} has no handler in ZHTServerCore._dispatch"
    )


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.name)
def test_op_is_constructed_somewhere(op):
    usage = _usage()
    assert op.name in usage.constructed, (
        f"{op.name} has no client/server construction site — dead opcode"
    )


@pytest.mark.parametrize("status", ALL_STATUSES, ids=lambda s: s.name)
def test_status_wire_roundtrip(status):
    response = Response(status=status, request_id=7, epoch=2, op=1)
    decoded = Response.decode(response.encode())
    assert decoded.status == status
    assert isinstance(decoded.status, Status)


@pytest.mark.parametrize("status", ALL_STATUSES, ids=lambda s: s.name)
def test_status_is_referenced_somewhere(status):
    # A status no code produces or inspects is dead wire-format
    # (PROTO005's runtime counterpart).  STALE_SERVER is the one
    # deliberate reservation, suppressed in the lint with a reason.
    if status is Status.STALE_SERVER:
        pytest.skip("reserved status, suppressed in lint")
    usage = _status_usage()
    assert usage.module is not None, "Status class not found by the analyzer"
    assert status.name in usage.referenced, (
        f"Status.{status.name} is never referenced outside the enum body"
    )


@pytest.mark.parametrize("status", ALL_STATUSES, ids=lambda s: s.name)
def test_status_has_client_handling_decision(status):
    # Every non-OK status must either raise a typed exception or be an
    # explicit control-flow branch in the retry loop (PROTO006).
    if status in (Status.OK, Status.STALE_SERVER):
        pytest.skip("OK is success; STALE_SERVER reserved")
    usage = _status_usage()
    handled = status.name in usage.mapped or status.name in usage.compared
    assert handled, (
        f"Status.{status.name} has no STATUS_TO_EXCEPTION entry and no "
        "comparison site — clients would fall through to ProtocolError"
    )


@pytest.mark.parametrize("status", ALL_STATUSES, ids=lambda s: s.name)
def test_raise_for_status_is_total(status):
    # raise_for_status must terminate deterministically for every member:
    # OK returns, control-flow statuses raise ProtocolError (a leak),
    # everything else raises its mapped (or generic) ZHTError subclass.
    if status is Status.OK:
        assert raise_for_status(status) is None
        return
    with pytest.raises(ZHTError) as exc_info:
        raise_for_status(status, "boom")
    expected = STATUS_TO_EXCEPTION.get(status)
    if expected is not None:
        assert isinstance(exc_info.value, expected)


def test_batch_kinds_cover_batchable_ops():
    # The BATCH path must understand every key/value data op the client
    # can batch; a batch answers any other sub but REPLICA_UPDATE BAD_REQUEST.
    batchable = {OpCode.INSERT, OpCode.LOOKUP, OpCode.REMOVE, OpCode.APPEND}
    assert set(ZHTServerCore._BATCH_KINDS) == batchable
    # Kind strings must be unique (they key the NoVoHT batch op switch).
    kinds = list(ZHTServerCore._BATCH_KINDS.values())
    assert len(set(kinds)) == len(kinds)
    assert set(ZHTServerCore._BATCH_STATS) == set(kinds)
