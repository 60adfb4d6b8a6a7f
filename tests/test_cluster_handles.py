"""The cluster-handle contract: every backend the scenario runner can
target is built by :func:`repro.scenario.cluster.build_cluster` and is
killed, inspected and closed through the same calls."""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro.core.protocol import OpCode, Request
from repro.net.shard import fork_supported
from repro.scenario.cluster import build_cluster, default_config
from repro.sim.cluster import SimulatedCluster

NODES = 3


def _answers(cluster, address) -> bool:
    """Does *address* reply to a PING?"""
    request = Request(op=OpCode.PING, request_id=1)
    if isinstance(cluster, SimulatedCluster):
        ping = cluster.env.process(cluster.roundtrip(address, request, 0.05), name="ping")
        cluster.env.run()
        return ping.result is not None
    return cluster.client().transport.roundtrip(address, request, 0.3) is not None


@pytest.mark.parametrize(
    "backend",
    [
        "local",
        "tcp",
        "udp",
        pytest.param(
            "sharded",
            marks=pytest.mark.skipif(
                not fork_supported(), reason="sharded backend needs the fork start method"
            ),
        ),
        "sim",
    ],
)
def test_every_backend_answers_the_handle_calls(backend):
    sharded = backend == "sharded"
    config = default_config(backend, 1).replace(
        num_partitions=NODES * 4, num_shards=2 if sharded else 1
    )
    cluster = build_cluster(backend, NODES, config, seed=5)
    try:
        membership = cluster.membership
        instances = set(membership.instances)
        assert len(instances) == NODES * (2 if sharded else 1)
        cores = {core.info.instance_id for core in cluster.cores}
        assert cores == (set() if sharded else instances)

        victim = sorted(membership.nodes)[1]
        owned = {inst.address for inst in membership.instances_on_node(victim)}
        if sharded:
            (server,) = [s for s in cluster.servers if owned & set(s.shard_addresses)]
            assert owned == set(server.shard_addresses)
        assert all(_answers(cluster, address) for address in owned)

        down = cluster.kill_node(victim)
        assert sorted(down, key=str) == sorted(owned, key=str)
        assert not any(_answers(cluster, address) for address in down)
        survivor = sorted(membership.nodes)[0]
        assert all(
            _answers(cluster, inst.address)
            for inst in membership.instances_on_node(survivor)
        )
    finally:
        cluster.close()
    cluster.close()


def _backend_comparisons(path: pathlib.Path) -> list[tuple[str, str]]:
    """``(enclosing function, source)`` of every comparison between a
    ``backend`` / ``transport`` value and a string literal in *path*."""

    def named(node: ast.expr) -> bool:
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        return name in ("backend", "transport")

    def literal(node: ast.expr) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return all(literal(elt) for elt in node.elts)
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(named, operands)) and any(map(literal, operands)):
                found.append((function, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_a_backend_name_is_resolved_in_one_place():
    """Outside the config builders, the UDP strike override and
    ``build_cluster``, the scenario layer and the CLI never branch on a
    backend or transport name: they call the handle."""
    package = pathlib.Path(repro.__file__).parent
    allowed = {
        "cluster.py": {"default_config", "build_cluster"},
        "runner.py": {"_build_config"},
        "frontends.py": {"verify_scenario"},
    }
    paths = sorted((package / "scenario").glob("*.py")) + [package / "cli.py"]
    for path in paths:
        for function, source in _backend_comparisons(path):
            assert function in allowed.get(path.name, ()), (path.name, function, source)
            if path.name == "frontends.py":
                assert source == "backend == 'udp'", source
