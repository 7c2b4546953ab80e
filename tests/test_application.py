"""The reference key-value application: what a malformed client op does,
and what one execution checkpoint costs it."""
import json

import pytest

from geobft.application import ABSENT, BAD_OP, KvApplication, get_op, parse_op, put_op
from geobft.core import canonical_encode, hash_bytes
from geobft.harness import run_scenario
from geobft.scenario import SCENARIO_DIR, load_scenario
from tests.test_audit import MINI

MALFORMED = {
    "trailing-bytes": put_op("k", b"v") + b"/v0",
    "not-an-encoding": b"\xff",
    "empty": b"",
    "an-int": canonical_encode(5),
    "empty-tuple": canonical_encode(()),
    "put-alone": canonical_encode(("put",)),
    "put-int-key": canonical_encode(("put", 1, b"v")),
    "put-str-value": canonical_encode(("put", "k", "v")),
    "put-extra": canonical_encode(("put", "k", b"v", b"w")),
    "get-alone": canonical_encode(("get",)),
    "get-int-key": canonical_encode(("get", 1)),
    "get-extra": canonical_encode(("get", "k", b"v")),
    "unknown-verb": canonical_encode(("del", "k")),
}


@pytest.mark.parametrize("op", MALFORMED.values(), ids=MALFORMED.keys())
def test_a_malformed_op_gets_bad_op_and_changes_nothing(op):
    app = KvApplication()
    app.execute(put_op("k", b"v"))
    before = app.snapshot()
    assert parse_op(op) is None
    assert app.execute(op) == BAD_OP
    assert app.execute_readonly(op) == BAD_OP
    assert app.snapshot() == before
    assert app.execute(get_op("k")) == b"v"


def test_well_formed_ops():
    app = KvApplication()
    assert app.execute_readonly(get_op("k")) == ABSENT
    assert app.execute(put_op("k", b"v")) == b"ok"
    assert app.execute_readonly(put_op("k", b"w")) == BAD_OP  # a read cannot write
    assert app.execute_readonly(get_op("k")) == app.execute(get_op("k")) == b"v"
    restored = KvApplication()
    restored.restore(app.snapshot())
    assert restored.store == {"k": b"v"}


def test_equivocating_client_with_strong_reads_leaves_correct_replicas_running():
    """threshold-faults' equivocating client appends bytes to each op it
    sends, so its strong reads reach execution replicas as ops that do not
    decode. They get BAD_OP like its writes, and the run passes every
    verdict."""
    raw = json.loads((SCENARIO_DIR / "threshold-faults.json").read_text())
    liar = next(c for c in raw["clients"] if c["region"] == "T")  # client:5
    liar["mix"] = {"write": 0.5, "read_strong": 0.5}
    system, report = run_scenario(load_scenario(raw), 1)
    assert report.ok, report.verdicts
    reads = [r for r in system.sim.trace.records
             if r[1] == "execute" and r[6]["c"] == 5 and r[4] == "read"]
    assert reads and all(r[5] == hash_bytes(BAD_OP).hex() for r in reads)


def test_an_execution_checkpoint_encodes_the_application_state_once(monkeypatch):
    """The checkpoint state and its traced projection embed one snapshot."""
    calls = []
    snapshot = KvApplication.snapshot
    monkeypatch.setattr(KvApplication, "snapshot",
                        lambda self: calls.append(1) or snapshot(self))
    system, report = run_scenario(load_scenario(dict(MINI)), 4)
    assert report.ok, report.verdicts
    states = [r for r in system.sim.trace.records if r[1] == "state_digest" and r[4] == "ex"]
    assert states and len(calls) == len(states)
