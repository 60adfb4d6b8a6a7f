"""Exhaustiveness tests generated from the OpCode and Status enums.

Parametrized over ``list(OpCode)`` / ``list(Status)`` so a newly added
member fails these tests immediately unless it gets a wire roundtrip, a
mutating / non-mutating classification, a server dispatch branch, a
construction site and (for a status) a client handling decision.  The
source facts come from a plain ``ast`` scan of ``src/repro``: a member
is read as ``OpCode.X`` / ``Status.X``, and the scan sorts each read by
where it sits.
"""

from __future__ import annotations

import ast
import functools
from collections import defaultdict
from pathlib import Path

import pytest

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

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

ALL_OPS = list(OpCode)
ALL_STATUSES = list(Status)


def _assigned(tree: ast.Module, names: set[str]) -> list[ast.expr]:
    """The values of the module-level assignments to *names*."""
    values = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id in names for t in targets):
            values.append(stmt.value)
    return values


def _inside(nodes) -> set[int]:
    return {id(sub) for node in nodes for sub in ast.walk(node)}


@functools.cache
def _usage() -> dict[str, set[str]]:
    """Member names by the context of their reads under ``src/repro``:

    * ``dispatched`` -- an ``OpCode.X`` inside ``ZHTServerCore._dispatch``;
    * ``constructed`` -- an ``OpCode.X`` anywhere else but a comparison
      or the ``MUTATING_OPS`` / ``NON_MUTATING_OPS`` definitions;
    * ``referenced`` -- any ``Status.X`` (the enum body names its
      members bare, so every attribute read is outside it);
    * ``mapped`` -- a ``Status.X`` in ``STATUS_TO_EXCEPTION``;
    * ``compared`` -- a ``Status.X`` inside a comparison.
    """
    usage: dict[str, set[str]] = defaultdict(set)
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        compared = _inside(n for n in ast.walk(tree) if isinstance(n, ast.Compare))
        op_sets = _inside(_assigned(tree, {"MUTATING_OPS", "NON_MUTATING_OPS"}))
        status_map = _inside(_assigned(tree, {"STATUS_TO_EXCEPTION"}))
        dispatch = _inside(
            fn
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "ZHTServerCore"
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "_dispatch"
        )
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)):
                continue
            enum, member = node.value.id, node.attr
            if enum == "OpCode":
                if id(node) in dispatch:
                    usage["dispatched"].add(member)
                elif id(node) not in compared and id(node) not in op_sets:
                    usage["constructed"].add(member)
            elif enum == "Status":
                usage["referenced"].add(member)
                if id(node) in status_map:
                    usage["mapped"].add(member)
                if id(node) in compared:
                    usage["compared"].add(member)
    return usage


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
    assert op.name in _usage()["dispatched"], (
        f"{op.name} has no handler in ZHTServerCore._dispatch"
    )


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.name)
def test_op_is_constructed_somewhere(op):
    assert op.name in _usage()["constructed"], (
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
    # A status no code produces or inspects is dead wire-format.
    if status is Status.STALE_SERVER:
        pytest.skip("reserved: epoch-push (server behind client) is not implemented yet")
    assert status.name in _usage()["referenced"], (
        f"Status.{status.name} is never referenced outside the enum body"
    )


@pytest.mark.parametrize("status", ALL_STATUSES, ids=lambda s: s.name)
def test_status_has_client_handling_decision(status):
    # Every non-OK status must either raise a typed exception or be an
    # explicit control-flow branch in the retry loop.
    if status in (Status.OK, Status.STALE_SERVER):
        pytest.skip("OK is success; STALE_SERVER reserved")
    usage = _usage()
    handled = status.name in usage["mapped"] or status.name in usage["compared"]
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
