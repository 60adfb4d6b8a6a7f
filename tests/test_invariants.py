"""The acked-write audit (``repro.faults.invariants``), one violation class
at a time: a hand-built ledger against hand-edited stores of a local
cluster, read through a real client."""

import pytest

from repro import ZHTConfig, build_local_cluster
from repro.core.errors import KeyNotFound, RequestTimeout
from repro.core.protocol import OpCode
from repro.faults import AckLedger, audit_acked_writes
from repro.scenario.traffic import fragment_for

KEY = b"audited-key"
VALUE = b"the-acked-value"
F1, F2 = fragment_for(0, 1), fragment_for(1, 2)


@pytest.fixture
def cluster():
    config = ZHTConfig(transport="local", num_partitions=8, num_replicas=1)
    with build_local_cluster(3, config, seed=5) as c:
        yield c


def _chain(cluster, key=KEY):
    """*key*'s partition and its chain's cores, owner first."""
    pid = cluster.membership.partition_of_key(key, cluster.config.hash_name)
    by_id = {core.info.instance_id: core for core in cluster.cores}
    chain = cluster.membership.replicas_for_partition(pid, 1)
    return pid, [by_id[inst.instance_id] for inst in chain]


def _put(cluster, values, key=KEY):
    """Write *values* (owner's, replica's; ``None`` = no copy) straight
    into the chain's stores."""
    pid, chain = _chain(cluster, key)
    for core, value in zip(chain, values):
        if value is not None:
            core.partition(pid).store.put(key, value)


def _ids(cluster, key=KEY):
    return [core.info.instance_id[:8] for core in _chain(cluster, key)[1]]


def _audit(cluster, ledger, lookup="client", cores=None):
    return audit_acked_writes(
        ledger,
        cluster.client(seed=1).lookup if lookup == "client" else lookup,
        cluster.cores if cores is None else cores,
        cluster.membership,
        replicas=1,
        hash_name=cluster.config.hash_name,
    )


def _inserted(key=KEY, value=VALUE):
    ledger = AckLedger()
    ledger.record(OpCode.INSERT, key, value)
    return ledger


def _appended(*fragments):
    ledger = AckLedger()
    for fragment in fragments:
        ledger.record(OpCode.APPEND, KEY, fragment)
    return ledger


def test_a_sound_chain_passes_every_check(cluster):
    _put(cluster, [VALUE, VALUE])
    audit = _audit(cluster, _inserted())
    assert (audit.lost, audit.diverged, audit.under_replicated, audit.unconverged) == (
        [],
        [],
        [],
        [],
    )
    assert (audit.min_copies, audit.keys) == (2, 1)


def test_insert_on_no_alive_copy_is_lost(cluster):
    owner, replica = _ids(cluster)
    audit = _audit(cluster, _inserted())
    assert audit.lost == [f"acked write lost: {KEY!r} on no alive instance"]
    assert audit.diverged == []
    assert audit.under_replicated == [
        f"under-replicated: {KEY!r} on 0 instance(s), want >= 2"
    ]
    assert audit.unconverged == [
        f"replica missing: {KEY!r} absent on {owner}",
        f"replica missing: {KEY!r} absent on {replica}",
    ]


def test_insert_missing_at_owner_while_a_replica_holds_it(cluster):
    owner, _replica = _ids(cluster)
    _put(cluster, [None, VALUE])
    audit = _audit(cluster, _inserted())
    assert audit.lost == []
    assert audit.diverged == [
        f"acked write missing at owner: {KEY!r} held by 1 alive instance(s)"
    ]
    assert audit.under_replicated == [
        f"under-replicated: {KEY!r} on 1 instance(s), want >= 2"
    ]
    assert audit.unconverged == [f"replica missing: {KEY!r} absent on {owner}"]


def test_insert_disagreeing_at_owner(cluster):
    owner, _replica = _ids(cluster)
    _put(cluster, [b"other", VALUE])
    audit = _audit(cluster, _inserted())
    assert audit.lost == []
    assert audit.diverged == [
        f"acked write disagrees at owner: {KEY!r} = {b'other'!r}, want {VALUE!r}"
    ]
    assert audit.unconverged == [
        f"replica diverged: {KEY!r} on {owner} = {b'other'!r}, want {VALUE!r}"
    ]


def test_replica_diverged_behind_a_sound_owner(cluster):
    _owner, replica = _ids(cluster)
    _put(cluster, [VALUE, b"stale"])
    audit = _audit(cluster, _inserted())
    assert (audit.lost, audit.diverged, audit.under_replicated) == ([], [], [])
    assert audit.unconverged == [
        f"replica diverged: {KEY!r} on {replica} = {b'stale'!r}, want {VALUE!r}"
    ]


def test_under_replicated_key(cluster):
    _owner, replica = _ids(cluster)
    _put(cluster, [VALUE, None])
    audit = _audit(cluster, _inserted())
    assert (audit.lost, audit.diverged) == ([], [])
    assert audit.under_replicated == [
        f"under-replicated: {KEY!r} on 1 instance(s), want >= 2"
    ]
    assert audit.unconverged == [f"replica missing: {KEY!r} absent on {replica}"]


def test_removed_key_still_readable_is_resurrected(cluster):
    _put(cluster, [VALUE, VALUE])
    ledger = _inserted()
    ledger.record(OpCode.REMOVE, KEY)
    audit = _audit(cluster, ledger)
    assert audit.lost == [f"acked remove resurrected: {KEY!r}"]
    # A REMOVEd key is owed no copies.
    assert (audit.under_replicated, audit.unconverged, audit.keys) == ([], [], 0)


def test_append_lacking_a_fragment(cluster):
    _put(cluster, [F1, F1])
    audit = _audit(cluster, _appended(F1, F2))
    assert audit.lost == [f"acked append fragment missing: {KEY!r} lacks {F2!r} x1"]
    assert (audit.diverged, audit.under_replicated, audit.unconverged) == ([], [], [])


def test_unreadable_append_key(cluster):
    owner, replica = _ids(cluster)
    audit = _audit(cluster, _appended(F1, F2))
    assert audit.lost == [f"acked appends lost: {KEY!r} unreadable (2 fragment(s))"]
    assert audit.unconverged == [
        f"append replica missing: {KEY!r} absent on {owner}",
        f"append replica missing: {KEY!r} absent on {replica}",
    ]


def test_append_replicas_that_differ_disagree(cluster):
    _put(cluster, [F1 + F2, F2 + F1])
    audit = _audit(cluster, _appended(F1, F2))
    # Both orders hold every fragment: durable, but not converged.
    assert audit.lost == []
    assert audit.unconverged == [
        f"append replicas disagree: {KEY!r} has 2 distinct values across "
        f"{sorted(_ids(cluster))}"
    ]


def test_lost_lists_insert_then_removed_then_append_keys(cluster):
    ledger = AckLedger()
    ledger.record(OpCode.APPEND, b"a-key", F1)
    ledger.record(OpCode.REMOVE, b"r-key")
    ledger.record(OpCode.INSERT, b"i-key", VALUE)
    _put(cluster, [b"back", b"back"], key=b"r-key")
    audit = _audit(cluster, ledger)
    assert audit.lost == [
        f"acked write lost: {b'i-key'!r} on no alive instance",
        f"acked remove resurrected: {b'r-key'!r}",
        f"acked appends lost: {b'a-key'!r} unreadable (1 fragment(s))",
    ]
    assert ledger.acked_ops == 3


def test_without_cores_only_the_reads_judge(cluster):
    """A backend whose stores are out of reach (sharded): durability
    keeps its read-only wording, and nothing else is judged."""
    ledger = _inserted()
    ledger.record(OpCode.INSERT, b"other-key", VALUE)
    _put(cluster, [b"wrong", b"wrong"], key=b"other-key")
    audit = _audit(cluster, ledger, cores=[])
    assert audit.lost == [
        f"acked write lost: {KEY!r} not found",
        f"acked write diverged: {b'other-key'!r} = {b'wrong'!r}, want {VALUE!r}",
    ]
    assert (audit.diverged, audit.under_replicated, audit.unconverged) == ([], [], [])


def test_no_lookup_skips_the_read_checks(cluster):
    _put(cluster, [VALUE, None])
    audit = _audit(cluster, _inserted(), lookup=None)
    assert (audit.lost, audit.diverged) == ([], [])
    assert len(audit.under_replicated) == 1


class _FlakyLookup:
    """Raises ``RequestTimeout`` on the first *failures* reads of each
    key, then answers through *lookup*."""

    def __init__(self, lookup, failures=1):
        self.lookup, self.failures, self.calls = lookup, failures, {}

    def __call__(self, key):
        self.calls[key] = self.calls.get(key, 0) + 1
        if self.calls[key] <= self.failures:
            raise RequestTimeout(f"{key!r}: injected timeout")
        return self.lookup(key)


@pytest.mark.parametrize("op", [OpCode.INSERT, OpCode.APPEND])
def test_a_transient_read_error_is_not_lost_data(cluster, op):
    value = VALUE if op == OpCode.INSERT else F1
    _put(cluster, [value, value])
    ledger = AckLedger()
    ledger.record(op, KEY, value)
    flaky = _FlakyLookup(cluster.client(seed=1).lookup)
    audit = _audit(cluster, ledger, lookup=flaky)
    assert audit.lost == [] and audit.diverged == []
    assert flaky.calls[KEY] == 2


def test_a_read_error_on_every_attempt_is_reported(cluster):
    _put(cluster, [VALUE, VALUE])
    flaky = _FlakyLookup(cluster.client(seed=1).lookup, failures=3)
    audit = _audit(cluster, _inserted(), lookup=flaky)
    assert audit.lost == [
        f"acked write unreadable: {KEY!r}: "
        f"{RequestTimeout(f'{KEY!r}: injected timeout')!r}"
    ]
    assert flaky.calls[KEY] == 3


def test_keynotfound_is_absent_and_not_retried(cluster):
    calls = []

    def lookup(key):
        calls.append(key)
        raise KeyNotFound(key)

    _put(cluster, [VALUE, VALUE])
    ledger = _inserted()
    ledger.record(OpCode.REMOVE, b"gone")
    audit = _audit(cluster, ledger, lookup=lookup)
    assert audit.diverged == [
        f"acked write missing at owner: {KEY!r} held by 2 alive instance(s)"
    ]
    assert audit.lost == []
    assert calls == [KEY, b"gone"]
