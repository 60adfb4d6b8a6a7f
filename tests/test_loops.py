"""The sans-IO loops of repro.core.loops, and the one scenario loop.

The op and script loops are driven here by hand: each test plays the
runtime, answering the commands a loop yields on a fake clock, with no
sockets and no DES.
"""

import ast
import itertools
import pathlib
import random

import pytest

from repro.core.client import ZHTClientCore
from repro.core.config import ZHTConfig
from repro.core.errors import KeyNotFound, RequestTimeout, Status
from repro.core.loops import SCRIPT_TIMEOUT_FACTOR, Cast, OpClient, Sleep, script_loop
from repro.core.manager import PeerCall
from repro.core.protocol import OpCode, Request, Response
from repro.net.transport import ClientTransport, drive
from repro.scenario.frontends import run_verify
from tests.test_server_core import deploy, owner_server


class FakeRuntime:
    """Runs a loop: a call is answered by *answer(call)* after *rtt*
    seconds (a ``None`` answer burns the call's timeout), a sleep
    advances the clock, a cast is only logged."""

    def __init__(self, core: ZHTClientCore, answer, rtt: float = 0.002) -> None:
        self.now = 100.0
        core.clock = lambda: self.now
        self.answer = answer
        self.rtt = rtt
        self.log: list = []

    def run(self, loop):
        reply = None
        while True:
            try:
                command = loop.send(reply)
            except StopIteration as stop:
                return stop.value
            self.log.append(command)
            reply = None
            if isinstance(command, Sleep):
                self.now += command.seconds
            elif not isinstance(command, Cast):
                reply = self.answer(command)
                self.now += command.timeout if reply is None else self.rtt


def ok(value: bytes = b"") -> Response:
    return Response(status=Status.OK, value=value)


def client_for(**cfg) -> tuple:
    table, servers, config = deploy(retry_jitter=False, **cfg)
    core = ZHTClientCore(table.copy(), config, rng=random.Random(3))
    return core, table, servers, config


def kinds(log: list) -> list[str]:
    return [type(command).__name__ for command in log]


class TestOpLoop:
    def test_a_timeout_backs_off_with_a_sleep_before_the_retry(self):
        core, *_ = client_for(request_timeout=0.1, failures_before_dead=10, max_retries=3)
        replies = iter([None, ok(b"v")])
        runtime = FakeRuntime(core, lambda call: next(replies))
        response = runtime.run(OpClient(core).op(OpCode.LOOKUP, b"k"))
        assert response.value == b"v"
        assert kinds(runtime.log) == ["Attempt", "Sleep", "Attempt"]
        assert runtime.log[1].seconds == pytest.approx(0.1)
        assert runtime.log[2].timeout == pytest.approx(0.1 * core.config.backoff_factor)

    def test_a_timeout_that_kills_the_owner_fails_over_and_reports_to_a_manager(self):
        core, table, servers, config = client_for(num_replicas=1, failures_before_dead=1)
        owner, pid = owner_server(table, servers, b"k", config)
        replica = table.replicas_for_partition(pid, 1)[1]
        runtime = FakeRuntime(
            core, lambda call: None if call.address == owner.info.address else ok()
        )
        response = runtime.run(OpClient(core).op(OpCode.INSERT, b"k", b"v"))
        assert response.status is Status.OK
        # Straight to the next chain position (its retry count starts
        # over, so no backoff), then the failure report leaves as a cast.
        assert kinds(runtime.log) == ["Attempt", "Attempt", "Cast"]
        assert runtime.log[0].address == owner.info.address
        assert runtime.log[1].address == replica.address
        note = runtime.log[2]
        assert note.request.op is OpCode.MEMBERSHIP_UPDATE
        assert note.address in {n.manager_address for n in table.nodes.values()}
        assert core.pending_notifications == []
        assert core.stats.failovers == 1

    def test_the_result_is_the_drivers_result(self):
        core, *_ = client_for(request_timeout=0.01, failures_before_dead=50, max_retries=2)
        runtime = FakeRuntime(core, lambda call: None)
        with pytest.raises(RequestTimeout):
            runtime.run(OpClient(core).op(OpCode.LOOKUP, b"k"))
        assert kinds(runtime.log) == ["Attempt", "Sleep", "Attempt", "Sleep", "Attempt"]
        runtime = FakeRuntime(core, lambda call: Response(status=Status.KEY_NOT_FOUND))
        with pytest.raises(KeyNotFound):
            runtime.run(OpClient(core).op(OpCode.LOOKUP, b"absent"))

    def test_the_rtt_credited_to_the_node_excludes_the_backoff(self):
        core, *_ = client_for(request_timeout=0.05, failures_before_dead=10, max_retries=3)
        credited = []
        core.record_success = lambda node_id, rtt_s=None: credited.append(rtt_s)
        replies = iter([None, ok()])
        runtime = FakeRuntime(core, lambda call: next(replies), rtt=0.004)
        runtime.run(OpClient(core).op(OpCode.LOOKUP, b"k"))
        assert kinds(runtime.log) == ["Attempt", "Sleep", "Attempt"]
        assert credited == [pytest.approx(0.004)]

    def test_the_live_trampoline_sleeps_outside_the_measured_rtt(self):
        core, *_ = client_for(request_timeout=0.05, failures_before_dead=10, max_retries=3)
        clock = [0.0]
        core.clock = lambda: clock[0]
        credited, slept = [], []
        core.record_success = lambda node_id, rtt_s=None: credited.append(rtt_s)

        class Transport(ClientTransport):
            calls = 0

            def roundtrip(self, address, request, timeout):
                self.calls += 1
                clock[0] += timeout if self.calls == 1 else 0.003
                return None if self.calls == 1 else ok()

            def send_oneway(self, address, request):
                raise AssertionError("no notification expected")

        def sleep(seconds):
            slept.append(seconds)
            clock[0] += seconds

        drive(OpClient(core).op(OpCode.LOOKUP, b"k"), Transport(), sleep=sleep)
        assert slept == [pytest.approx(0.05)]
        assert credited == [pytest.approx(0.003)]


class TestScriptLoop:
    def test_every_call_waits_the_script_timeout_and_the_value_comes_back(self):
        config = ZHTConfig(request_timeout=0.25)

        def script():
            first = yield PeerCall(None, Request(op=OpCode.PING))
            second = yield PeerCall(None, Request(op=OpCode.PING))
            return first, second

        loop = script_loop(script(), config)
        calls = []
        replies = [ok(b"1"), None]
        reply = None
        with pytest.raises(StopIteration) as stop:
            while True:
                call = loop.send(reply)
                calls.append(call)
                reply = replies[len(calls) - 1]
        assert [call.timeout for call in calls] == [0.25 * SCRIPT_TIMEOUT_FACTOR] * 2
        first, second = stop.value.value
        assert first.value == b"1" and second is None


def test_src_has_one_op_loop_one_script_loop_and_one_scenario_loop():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    calls, defs = [], []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                name = owner.id if isinstance(owner, ast.Name) else ""
                calls.append((node.func.attr, name, path.name))
            elif isinstance(node, ast.FunctionDef):
                defs.append(node.name)
    assert [c for c in calls if c[0] == "next_attempt"] == [("next_attempt", "driver", "loops.py")]
    assert [c for c in calls if c[:2] == ("send", "script")] == [("send", "script", "loops.py")]
    assert defs.count("client_proc") == 1
    assert not {"_run_live", "_run_sim", "execute_op", "run_script", "execute"} & set(defs)


class TestScenarioLoop:
    @pytest.mark.parametrize("backend", ["local", "sim"])
    def test_a_client_that_crashes_fails_the_verdict(self, backend, monkeypatch):
        driver = ZHTClientCore.driver
        calls = itertools.count()

        def crash_once(core, *args, **kwargs):
            if next(calls) == 40:
                raise RuntimeError("client crashed")
            return driver(core, *args, **kwargs)

        monkeypatch.setattr(ZHTClientCore, "driver", crash_once)
        verdict = run_verify(backend, ops=200, clients=3, seed=5)
        assert not verdict.ok
        assert verdict.error == "RuntimeError: client crashed"

    def test_the_des_hot_cache_sweep_runs_with_the_cache(self):
        verdict = run_verify("sim", seed=5, hot_cache=True)
        assert verdict.metrics["client.hot_cache_hits"] > 0
