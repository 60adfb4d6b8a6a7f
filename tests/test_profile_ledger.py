"""The bytecode report of ``benchmarks/profile_ledger.py``: its per-layer
block sums to the total, and each module path lands in its layer."""

import os
import sys
import threading

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks"))

import profile_ledger  # noqa: E402
from repro.api import ZHT  # noqa: E402
from repro.core.client import OpDriver  # noqa: E402
from repro.core.hashing import partition_of  # noqa: E402
from repro.core.protocol import parse_request  # noqa: E402
from repro.core.server import ZHTServerCore  # noqa: E402
from repro.net.tcp import MultiplexedTCPClient  # noqa: E402
from repro.novoht import NoVoHT  # noqa: E402
from repro.obs.metrics import CounterSet  # noqa: E402
from repro.sim.engine import Environment  # noqa: E402


def test_layers_come_from_module_paths():
    expected = {
        partition_of: "hash",
        OpDriver.next_attempt: "client engine",
        ZHT.insert: "client engine",
        ZHTServerCore._serve_group: "server core",
        NoVoHT.apply_batch: "store",
        parse_request: "codec and messages",
        MultiplexedTCPClient.roundtrip: "net",
        CounterSet.inc: "obs",
        Environment.run: "sim",
        threading.Thread.run: "other",
    }
    for function, layer in expected.items():
        assert profile_ledger.layer_of(profile_ledger._path(function.__code__)) == layer, function
    # The transport trampoline is the client's, not the network's.
    assert profile_ledger.layer_of("repro/net/transport.py") == "client engine"
    assert profile_ledger.layer_of("<string>") == "codec and messages"


def test_per_layer_subtotals_sum_to_the_total():
    codes = [
        partition_of.__code__, OpDriver.next_attempt.__code__, ZHTServerCore.handle.__code__,
        NoVoHT.apply_batch.__code__, parse_request.__code__, CounterSet.inc.__code__,
        threading.Thread.run.__code__,
    ]
    tables = [
        ("client", {code: [1, 10 * (n + 1)] for n, code in enumerate(codes[:4])}),
        ("server", {code: [2, 7 * (n + 1)] for n, code in enumerate(codes[3:])}),
        ("caller", {codes[0]: [1, 1000]}),
    ]
    report = profile_ledger.OpcodeReport(tables, 3, skip={"caller"})
    assert report.total == 10 + 20 + 30 + 40 + 7 + 14 + 21 + 28
    assert sum(report.layers.values()) == report.total
    assert report.layers["store"] == 40 + 7
    assert report.layers["other"] == 28
    table = report.table(5)
    assert "per layer" in table and "client engine" in table
