"""The checkers must accept honest traces and catch seeded defects."""
import copy
import json
from itertools import permutations

import pytest

from geobft.application import KvApplication, get_op, put_op
from geobft import audit, cli
from geobft.core import ClientId, Sig, canonical_decode, canonical_encode, hash_bytes
from geobft.core.messages import Write
from geobft.audit import (
    AuditView,
    audit_trace,
    check_agreement_safety,
    check_channel_quorums,
    check_commit_content,
    check_cp_equivalence,
    check_execute_equality,
    check_liveness,
    check_realtime_order,
    check_replay,
    check_validity,
    check_weak_reads,
    check_window_monotonicity,
)
from geobft.harness import run_scenario
from geobft.irmc import RcReceiver, RcSender, conformance
from geobft.scenario import load_scenario
from geobft.simnet import TraceFormatError, TraceLog, read_trace

MINI = {
    "name": "audit-mini", "mode": "spider", "irmc": "rc", "duration_ms": 3000,
    "f_a": 1, "f_e": 1,
    "topology": {"regions": {"V": 4, "O": 3}, "wan_ms": {"V-O": 35}},
    "agreement_region": "V",
    "groups": [{"id": 1, "region": "V"}, {"id": 2, "region": "O"}],
    "clients": [
        {"count": 1, "region": "V", "rate_per_s": 8},
        {"count": 1, "region": "O", "rate_per_s": 8,
         "mix": {"write": 0.6, "read_weak": 0.4}},
    ],
}


@pytest.fixture(scope="module")
def mini():
    cfg = load_scenario(dict(MINI))
    system, report = run_scenario(cfg, 4)
    return cfg, system.sim.trace, report


def test_honest_run_passes_everything(mini):
    cfg, trace, report = mini
    assert report.ok, report.verdicts


def test_seeded_duplicate_execution_caught(mini):
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    execs = [i for i, r in enumerate(mutated.records) if r[1] == "execute"]
    src = mutated.records[execs[0]]
    dup = list(src)
    # the same (client, counter) executed again at a later position
    dup_data = dict(dup[6])
    dup_data["s"] = dup_data["s"] + 1
    dup[6] = dup_data
    mutated.records.append(tuple(dup))
    verdict = check_execute_equality(AuditView(mutated, cfg))
    assert not verdict.ok


def test_seeded_wrong_reply_fails_replay(mini):
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    for i, r in enumerate(mutated.records):
        if r[1] == "client_accept" and r[4] == "write":
            data = dict(r[6])
            data["reply"] = "deadbeef"
            mutated.records[i] = r[:6] + (data,)
            break
    verdict = check_replay(AuditView(mutated, cfg))
    assert not verdict.ok


def test_seeded_stale_weak_reply_fails_interval_check(mini):
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    changed = False
    for i, r in enumerate(mutated.records):
        if r[1] == "client_accept" and r[4] == "read_weak":
            data = dict(r[6])
            data["reply"] = "deadbeefdeadbeef"
            mutated.records[i] = r[:6] + (data,)
            changed = True
            break
    if not changed:
        pytest.skip("no weak reads at this seed")
    verdict = check_weak_reads(AuditView(mutated, cfg))
    assert not verdict.ok


def _first(records, event, **match):
    """Index of the first record of an event whose data holds every match."""
    return next(i for i, r in enumerate(records) if r[1] == event
                and all(r[6].get(k) == v for k, v in match.items()))


def _with_data(record, **changes):
    return record[:6] + ({**record[6], **changes},)


def _forge_digest(records, i):
    records[i] = records[i][:5] + ("0" * 32,) + records[i][6:]


def _gap_at_ag1(mutated):
    """Drops ag0:1's delivery of sequence 2, so its next delivery jumps 1->3;
    returns the index of that jumping delivery."""
    records = mutated.records
    del records[next(i for i, r in enumerate(records) if r[1] == "order_deliver"
                     and r[2] == "ag0:1" and r[6]["s"] == 2)]
    return next(i for i, r in enumerate(records) if r[1] == "order_deliver"
                and r[2] == "ag0:1" and r[6]["s"] == 3)


@pytest.mark.parametrize("cp_before_jump,caught", [
    (None, True), (False, True), (True, False)],
    ids=["no-checkpoint", "checkpoint-after-jump", "checkpoint-before-jump"])
def test_seeded_gap_needs_an_earlier_checkpoint(mini, cp_before_jump, caught):
    """A gap in one replica's deliveries is covered only by a stable
    checkpoint of that replica recorded before the jump, in trace order."""
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    jump = _gap_at_ag1(mutated)
    if cp_before_jump is not None:
        t = mutated.records[jump][0]
        cp = (t, "cp_stable", "ag0:1", "-", "ag", "-", {"s": 2, "signers": "-"})
        mutated.records.insert(jump if cp_before_jump else jump + 1, cp)
    verdict = check_agreement_safety(AuditView(mutated, cfg))
    assert verdict.ok is not caught, verdict
    if caught:
        assert verdict.detail == "ag0:1 gap 1->3 without checkpoint"


def test_seeded_forged_signature_fails_validity(mini):
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    execs = [i for i, r in enumerate(mutated.records) if r[1] == "execute"
             and "wr" in r[6]]
    first = mutated.records[execs[0]]
    other = next(mutated.records[i] for i in execs
                 if mutated.records[i][6]["wr"] != first[6]["wr"])
    mutated.records[execs[0]] = _with_data(first, sig=other[6]["sig"])
    verdict = check_validity(AuditView(mutated, cfg))
    assert not verdict.ok


def test_seeded_execute_of_another_op_fails_validity(mini):
    """A replica that executes another op than the one its client signed,
    and records both faithfully, fails validity: the record's op must be
    that of its signed Write."""
    cfg, trace, _ = mini
    view = AuditView(trace, cfg)
    i = _first(trace.records, "execute")
    assert trace.records[i][2] in view.correct_replicas
    mutated = copy.deepcopy(trace)
    mutated.records[i] = _with_data(trace.records[i],
                                    op=put_op("other-key", b"x").hex())
    verdict = check_validity(AuditView(mutated, cfg))
    assert not verdict.ok
    t, _, src, _, _, _, data = trace.records[i]
    assert verdict.detail == (f"execute by {src} at t={t} s={data['s']}: op, c or "
                              f"t_c is not that of its signed Write")


@pytest.fixture(scope="module")
def flat_threshold():
    cfg = load_scenario("threshold-faults")
    system, report = run_scenario(cfg, 1, mode="flat-bft")
    return cfg, system.sim.trace, report


def test_flat_run_re_verifies_its_executions(flat_threshold):
    _, _, report = flat_threshold
    ok, detail = report.verdicts["validity"]
    assert ok and int(detail.split()[0]) > 0, detail


def test_flat_execute_with_tampered_request_fails_validity(flat_threshold):
    cfg, trace, _ = flat_threshold
    correct = AuditView(trace, cfg).correct_replicas
    mutated = copy.deepcopy(trace)
    i = next(i for i, r in enumerate(mutated.records)
             if r[1] == "execute" and r[2] in correct)
    record = mutated.records[i]
    write = canonical_decode(bytes.fromhex(record[6]["wr"]))
    tampered = Write(write.op + b"!", write.client, write.t_c, write.read_only)
    mutated.records[i] = _with_data(record, wr=canonical_encode(tampered).hex())
    verdict = check_validity(AuditView(mutated, cfg))
    assert not verdict.ok
    assert verdict.detail.startswith("bad signature")


def test_bad_later_copy_of_a_verified_request_fails_validity(mini):
    """Checking each distinct request once must not let a later replica's
    copy with a wrong signature ride on the earlier copies' check."""
    cfg, trace, _ = mini
    view = AuditView(trace, cfg)
    execs = [i for i, r in enumerate(trace.records) if r[1] == "execute"
             and r[2] in view.correct_replicas]
    copies: dict = {}
    for i in execs:
        copies.setdefault(trace.records[i][6]["wr"], []).append(i)
    i = next(ix for ix in copies.values() if len(ix) >= 3)[-1]
    target = trace.records[i]
    c = target[6]["c"]
    # another request of the same client: the signer matches, the digest not
    other = next(trace.records[j] for j in execs if trace.records[j][6]["c"] == c
                 and trace.records[j][6]["wr"] != target[6]["wr"])
    mutated = copy.deepcopy(trace)
    mutated.records[i] = _with_data(target, sig=other[6]["sig"])
    verdict = check_validity(AuditView(mutated, cfg))
    assert not verdict.ok
    assert verdict.detail == f"bad signature at s={target[6]['s']}"


def test_validity_decodes_each_distinct_request_once(mini, monkeypatch):
    cfg, trace, _ = mini
    view = AuditView(trace, cfg)
    executes = [r for r in view.events("execute") if r[2] in view.correct_replicas]
    pairs = {(r[6]["wr"], r[6]["sig"]) for r in executes}
    assert len(pairs) < len(executes)
    decodes = []

    def counting_decode(data):
        decodes.append(data)
        return canonical_decode(data)

    monkeypatch.setattr(audit, "canonical_decode", counting_decode)
    verdict = check_validity(view)
    assert verdict.ok
    assert verdict.detail == f"{len(executes)} executions re-verified"
    assert len(decodes) == 2 * len(pairs)


def test_seeded_issue_after_own_accept_fails_realtime_order(mini):
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    i = _first(mutated.records, "client_issue", t_c=1)
    issue = mutated.records[i]
    assert issue[4] == "write"
    mutated.records[i] = (mutated.records[-1][0] + 1.0,) + issue[1:]
    verdict = check_realtime_order(AuditView(mutated, cfg))
    assert not verdict.ok


def test_seeded_unsent_delivery_fails_channel_quorums(mini):
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    _forge_digest(mutated.records, _first(mutated.records, "irmc_deliver"))
    verdict = check_channel_quorums(AuditView(mutated, cfg))
    assert not verdict.ok
    assert "never sent by a correct sender" in verdict.detail


def test_one_delivery_without_a_correct_contributor_fails_channel_quorums(mini):
    """Judging each distinct senders string once must still catch the one
    delivery, among many valid ones, that no correct replica vouched for."""
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    delivers = [i for i, r in enumerate(mutated.records) if r[1] == "irmc_deliver"]
    assert len(delivers) > 100
    i = delivers[len(delivers) // 2]
    record = mutated.records[i]
    mutated.records[i] = _with_data(record, senders="ex9:0;ex9:1;ex9:2")
    verdict = check_channel_quorums(AuditView(mutated, cfg))
    assert not verdict.ok
    assert verdict.detail == (f"C1 {record[4]} sc={record[6]['sc']} p={record[6]['p']} "
                              f"at {record[2]}: no correct contributor")


def test_seeded_divergent_commit_payload_fails_commit_content(mini):
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    i = next(i for i, r in enumerate(mutated.records) if r[1] == "ch_send_call"
             and r[4].startswith("commit"))
    _forge_digest(mutated.records, i)
    verdict = check_commit_content(AuditView(mutated, cfg))
    assert not verdict.ok


def test_seeded_backward_move_fails_window_monotonicity(mini):
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    last = next(r for r in reversed(mutated.records) if r[1] == "win_move")
    mutated.records.append(_with_data(last, start=last[6]["start"] - 1))
    verdict = check_window_monotonicity(AuditView(mutated, cfg))
    assert not verdict.ok


def test_seeded_state_divergence_fails_cp_equivalence(mini):
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    i = next(i for i, r in enumerate(mutated.records) if r[1] == "state_digest"
             and r[4] == "ag")
    _forge_digest(mutated.records, i)
    verdict = check_cp_equivalence(AuditView(mutated, cfg))
    assert not verdict.ok


def test_seeded_lost_accept_fails_liveness(mini):
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    del mutated.records[_first(mutated.records, "client_accept", t_c=1)]
    verdict = check_liveness(AuditView(mutated, cfg))
    assert not verdict.ok


# Tampered traces that reach each failing return of the checkers above; the
# channel quorum that is too small fails C1 through both of its callers
# (tests/test_conformance.py, test_both_callers_catch).

def test_one_request_executed_at_two_positions_fails_execute_equality(mini):
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    i = _first(mutated.records, "execute")
    record = mutated.records[i]
    last = max(r[6]["s"] for r in mutated.records if r[1] == "execute")
    mutated.records[i] = _with_data(record, s=last + 1)
    verdict = check_execute_equality(AuditView(mutated, cfg))
    data = record[6]
    assert verdict.detail == (f"({data['c']},{data['t_c']}) executed at "
                              f"{(data['s'], data['idx'])} and {(last + 1, data['idx'])}")
    assert not verdict.ok


def test_conflicting_batches_fail_agreement_safety(mini):
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    first = _first(mutated.records, "order_deliver", s=1)
    other = next(i for i, r in enumerate(mutated.records) if r[1] == "order_deliver"
                 and r[6]["s"] == 1 and r[2] != mutated.records[first][2])
    _forge_digest(mutated.records, other)
    verdict = check_agreement_safety(AuditView(mutated, cfg))
    assert not verdict.ok
    assert verdict.detail == "sequence 1: conflicting batches delivered"


def test_delivery_after_a_later_sequence_fails_agreement_safety(mini):
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    records = mutated.records
    again = records[_first(records, "order_deliver", s=1)]
    later = next(i for i, r in enumerate(records) if r[1] == "order_deliver"
                 and r[2] == again[2] and r[6]["s"] == 2)
    records.insert(later + 1, again)
    verdict = check_agreement_safety(AuditView(mutated, cfg))
    assert not verdict.ok
    assert verdict.detail == f"{again[2]} delivered 1 after 2"


def _resigned(record, client, signer):
    """The execute record with its Write re-issued by client and signed as
    signer over the new bytes."""
    write = canonical_decode(bytes.fromhex(record[6]["wr"]))
    wr = canonical_encode(Write(write.op, client, write.t_c, write.read_only))
    sig = canonical_encode(Sig(signer, hash_bytes(wr)))
    return _with_data(record, wr=wr.hex(), sig=sig.hex())


def test_unauthorized_client_fails_validity(mini):
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    i = _first(mutated.records, "execute")
    mutated.records[i] = _resigned(mutated.records[i], ClientId(9), ClientId(9))
    verdict = check_validity(AuditView(mutated, cfg))
    assert not verdict.ok
    assert verdict.detail == "unauthorized client c9"


def test_signer_mismatch_fails_validity(mini):
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    i = _first(mutated.records, "execute", c=0)
    record = mutated.records[i]
    mutated.records[i] = _resigned(record, ClientId(0), ClientId(1))
    verdict = check_validity(AuditView(mutated, cfg))
    assert not verdict.ok
    assert verdict.detail == f"signer mismatch at s={record[6]['s']}"


def test_accept_never_executed_fails_replay(mini):
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    i = _first(mutated.records, "client_accept", t_c=1)
    record = mutated.records[i]
    assert record[4] == "write"
    mutated.records[i] = _with_data(record, t_c=999)
    verdict = check_replay(AuditView(mutated, cfg))
    assert not verdict.ok
    assert verdict.detail == f"{record[2]} accepted t_c=999 never executed"


def _second_ex_digest(records, same_group):
    """Index of the first execution state_digest whose s an earlier one
    already holds, in the earlier one's group or in another."""
    seen: dict = {}
    for i, r in enumerate(records):
        if r[1] != "state_digest" or r[4] != "ex":
            continue
        group = r[2].split(":")[0]
        if r[6]["s"] in seen and (seen[r[6]["s"]] == group) == same_group:
            return i
        seen.setdefault(r[6]["s"], group)
    raise AssertionError("no second execution digest")


def test_execution_state_divergence_fails_cp_equivalence(mini):
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    i = _second_ex_digest(mutated.records, same_group=True)
    _forge_digest(mutated.records, i)
    verdict = check_cp_equivalence(AuditView(mutated, cfg))
    assert not verdict.ok
    record = mutated.records[i]
    assert verdict.detail == (f"execution state divergence in "
                              f"{record[2].split(':')[0]} at s={record[6]['s']}")


def test_cross_group_projection_divergence_fails_cp_equivalence(mini):
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    i = _second_ex_digest(mutated.records, same_group=False)
    mutated.records[i] = _with_data(mutated.records[i], projected="0" * 32)
    verdict = check_cp_equivalence(AuditView(mutated, cfg))
    assert not verdict.ok
    assert verdict.detail == f"cross-group execution divergence at s={mutated.records[i][6]['s']}"


def test_unresolved_weak_read_fails_liveness(mini):
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    i = next(i for i, r in enumerate(mutated.records)
             if r[1] == "client_accept" and r[4] == "read_weak")
    record = mutated.records.pop(i)
    verdict = check_liveness(AuditView(mutated, cfg))
    assert not verdict.ok
    assert verdict.detail == (f"1 weak reads unresolved, e.g. "
                              f"{(record[2], round(record[6]['issued'], 6))}")


def linearizable_bruteforce(ops) -> bool:
    """Exhaustive check for tiny histories: ops are
    (issue, accept, op_bytes, reply_bytes); a permutation must respect real
    time and replay against the reference application."""
    n = len(ops)
    assert n <= 8, "brute force limited to 8 operations"
    for perm in permutations(range(n)):
        # real time: if a completes before b is issued, a must precede b
        pos = {op: i for i, op in enumerate(perm)}
        if any(ops[a][1] < ops[b][0] and pos[a] > pos[b]
               for a in range(n) for b in range(n)):
            continue
        app = KvApplication()
        if all(app.execute(ops[i][2]) == ops[i][3] for i in perm):
            return True
    return False


class TestBruteForceOracle:
    def test_sequential_history_is_linearizable(self):
        ops = [
            (0.0, 1.0, put_op("a", b"1"), b"ok"),
            (2.0, 3.0, get_op("a"), b"1"),
        ]
        assert linearizable_bruteforce(ops)

    def test_stale_read_after_accepted_write_is_not(self):
        from geobft.application import ABSENT
        ops = [
            (0.0, 1.0, put_op("a", b"1"), b"ok"),
            (2.0, 3.0, get_op("a"), ABSENT),  # reads absent after the write completed
        ]
        assert not linearizable_bruteforce(ops)

    def test_concurrent_ops_allow_either_order(self):
        from geobft.application import ABSENT
        ops = [
            (0.0, 5.0, put_op("a", b"1"), b"ok"),
            (1.0, 2.0, get_op("a"), ABSENT),  # overlaps the write: fine
        ]
        assert linearizable_bruteforce(ops)

    def test_agrees_with_agreement_order_on_real_history(self, mini):
        cfg, trace, _ = mini
        # take the first few strong ops of one client and cross-check
        issues = {}
        ops = []
        for t, event, src, dst, kind, digest, data in trace.records:
            if src != "c0" or kind != "write":
                continue
            if event == "client_issue":
                issues[data["t_c"]] = (t, bytes.fromhex(data["op"]))
            elif event == "client_accept" and data["t_c"] in issues and len(ops) < 6:
                t0, op = issues[data["t_c"]]
                ops.append((t0, t, op, bytes.fromhex(data["reply"])))
        assert len(ops) >= 3
        assert linearizable_bruteforce(ops)


def test_trace_file_roundtrip(tmp_path, mini):
    cfg, trace, report = mini
    path = tmp_path / "run.trace"
    trace.write(path)
    loaded = read_trace(path)
    assert loaded.records == trace.records
    assert loaded.digest() == trace.digest()
    verdicts = audit_trace(loaded, cfg)
    assert all(ok for ok, _ in verdicts.values()), verdicts
    assert verdicts == report.verdicts
    # the admin ops of add-remove-group are strings holding ","
    system, admin_report = run_scenario("add-remove-group", 1)
    admin = system.sim.trace
    assert any("," in str(r[6].get("op")) for r in admin.records)
    admin.add(0.0, "cp_stable", "a|b", kind="k,%0A", s=1, signers="%25 |,\n\r%")
    admin.add(10000, "auth_reject")  # an int time, as sim.now after run_until(10000)
    # an int where EVENTS gives float, as a latency of whole milliseconds
    admin.add(10000, "client_escalate", "c9", kind="read_weak", nonce=1, issued=9000)
    admin.write(path)
    loaded = read_trace(path)
    assert loaded.records == admin.records
    assert loaded.digest() == admin.digest()
    assert audit_trace(loaded, system.cfg) == admin_report.verdicts


GOOD_LINE = b"0.0|meta|-|-|scenario|-|irmc=s:rc,mode=s:spider,scenario=s:audit-mini,seed=i:1\n"


@pytest.mark.parametrize("line,reason", [
    (b"1.0|note|-|-|-|-\n", "6 fields"),
    (b"1.0|note|-|-|-|-|-|x\n", "8 fields"),
    (b"\n", "1 fields"),
    (b"1.0|note|-|-|-|-|seed\n", "has no '='"),
    (b"1.0|note|-|-|-|-|k=z:1\n", "bad tagged value"),
    (b"1.0|note|-|-|-|-|k=1\n", "bad tagged value"),
    (b"1.0|note|-|-|-|-|k=i:1_0\n", "bad int"),
    (b"1.0|note|-|-|-|-|k=i:x\n", "bad int"),
    (b"1.0|note|-|-|-|-|k=i:\n", "bad int"),
    (b"1.0|note|-|-|-|-|k=f:abc\n", "bad float"),
    (b"1.0|note|-|-|-|-|k=f:5\n", "bad float"),
    (b"1.0|note|-|-|-|-|k=b:7\n", "bad tagged value"),
    (b"soon|note|-|-|-|-|\n", "bad float"),
    (b"1.0|note|\xff|-|-|-|\n", "utf-8"),
])
def test_read_trace_rejects_malformed_line(tmp_path, line, reason):
    path = tmp_path / "bad.trace"
    path.write_bytes(GOOD_LINE + line + GOOD_LINE)
    with pytest.raises(TraceFormatError) as err:
        read_trace(path)
    assert isinstance(err.value, ValueError)
    assert err.value.lineno == 2
    assert str(err.value).startswith("trace line 2: ")
    assert reason in str(err.value)


def test_audit_command_reports_a_malformed_trace(tmp_path, capsys):
    path = tmp_path / "bad.trace"
    path.write_bytes(GOOD_LINE + b"1.0|note|-|-|-|-|k=b:7\n")
    assert cli.main(["audit", str(path)]) == 2
    assert "trace line 2: bad tagged value" in capsys.readouterr().err


@pytest.mark.parametrize("event, key, value, verdict", [
    ("execute", "wr", "07ffff", "validity"),  # an unknown message code
    ("execute", "wr", canonical_encode(Sig(ClientId(1), b"d" * 16)).hex(), "validity"),
    ("execute", "sig", canonical_encode(5).hex(), "validity"),
    ("client_issue", "op", "zz", "weak_reads"),
    ("client_issue", "op", "07ffff", "weak_reads"),
    ("client_issue", "op", canonical_encode(5).hex(), "weak_reads"),
    ("client_issue", "op", canonical_encode(()).hex(), "weak_reads"),
], ids=["wr-unknown-code", "wr-a-sig", "sig-an-int",
        "op-not-hex", "op-unknown-code", "op-an-int", "op-empty"])
def test_audit_command_fails_a_malformed_trace_field(tmp_path, capsys, mini,
                                                      event, key, value, verdict):
    """A field that read_trace admits (hex, or any str for a client_issue
    op) but that does not decode to what its checker reads fails that
    verdict, naming the record: geobft audit exits 1."""
    cfg, trace, _ = mini
    mutated = copy.deepcopy(trace)
    for i, r in enumerate(mutated.records):
        if r[1] == event and key in r[6] and (event == "execute" or r[4] == "read_weak"):
            mutated.records[i] = r[:6] + ({**r[6], key: value},)
            break
    else:
        pytest.fail(f"no {event} record to mutate")
    path, scenario = tmp_path / "run.trace", tmp_path / "mini.json"
    mutated.write(path)
    scenario.write_text(json.dumps(MINI))
    assert cli.main(["audit", str(path), str(scenario)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert len(failed) == 1 and failed[0].startswith(f"[FAIL] {verdict}: {event} by ")


def _first_of(trace, event, kind=None):
    return next(r for r in trace.records if r[1] == event and kind in (None, r[4]))


def _without(record, key):
    return record[:6] + ({k: v for k, v in record[6].items() if k != key},)


def _line(record) -> bytes:
    one = TraceLog()
    one.records.append(record)
    return f"{next(one.lines())}\n".encode()


# (the record, changed) -> the reason read_trace gives
OFF_SHAPE = {
    "accept-without-issued": (lambda t: _without(_first_of(t, "client_accept", "read_weak"),
                                                 "issued"), "lacks issued"),
    "deliver-without-senders": (lambda t: _without(_first_of(t, "irmc_deliver"), "senders"),
                                "lacks senders"),
    "move-without-sc": (lambda t: _without(_first_of(t, "win_move"), "sc"), "lacks sc"),
    **{f"execute-without-{key}": (lambda t, key=key: _without(_first_of(t, "execute"), key),
                                  f"lacks {key}")
       for key in ("s", "c", "t_c", "op", "wr")},
    "write-accept-with-issued": (lambda t: _with_data(_first_of(t, "client_accept", "write"),
                                                      issued=1.0), "has no key issued"),
    "execute-with-an-extra-key": (lambda t: _with_data(_first_of(t, "execute"), note="x"),
                                  "has no key note"),
    "execute-s-a-string": (lambda t: _with_data(_first_of(t, "execute"), s="5"),
                           "execute s='5' is not int"),
    "deliver-p-a-bool": (lambda t: _with_data(_first_of(t, "irmc_deliver"), p=True),
                         "irmc_deliver p=True is not int"),
    "accept-latency-a-string": (lambda t: _with_data(_first_of(t, "client_accept"),
                                                     latency="5"), "is not float"),
    "execute-op-not-hex": (lambda t: _with_data(_first_of(t, "execute"), op="zz"),
                           "execute op='zz' is not hex"),
    "execute-wr-not-hex": (lambda t: _with_data(_first_of(t, "execute"), wr="ABCD"),
                           "execute wr='ABCD' is not hex"),
    "accept-reply-not-hex": (lambda t: _with_data(_first_of(t, "client_accept", "write"),
                                                  reply="zz"), "reply='zz' is not hex"),
    "digest-projected-odd-length": (lambda t: _with_data(_first_of(t, "state_digest", "ex"),
                                                         projected="abc"), "is not hex"),
    "unknown-event": (lambda t: (1.0, "note", "-", "-", "-", "-", {}), "unknown event 'note'"),
}


@pytest.mark.parametrize("case", list(OFF_SHAPE))
def test_read_trace_rejects_a_record_off_its_shape(tmp_path, mini, case):
    """A record that is not what simnet.EVENTS gives its event and kind (a
    key missing or extra, a value of another type, text that is not hex in
    a hex field, an unknown event) is rejected where the file is read,
    naming its line, before any checker reads it."""
    _, trace, _ = mini
    tamper, reason = OFF_SHAPE[case]
    path = tmp_path / "bad.trace"
    path.write_bytes(GOOD_LINE + _line(tamper(trace)) + GOOD_LINE)
    with pytest.raises(TraceFormatError) as err:
        read_trace(path)
    assert err.value.lineno == 2
    assert reason in str(err.value), str(err.value)


_EXECUTE = "1.0|execute|ex1:{}|-|write|ab|c=i:0,idx=i:0,op=s:,s={},sig=s:,t_c=i:1,wr=s:\n"


@pytest.mark.parametrize("lines, lineno", [
    ([b"0.0|meta|-|-|scenario|-|irmc=s:rc,mode=s:spider,seed=i:1\n"], 1),
    ([b"0.0|meta|-|-|scenario|-|irmc=s:rc,mode=s:spider,scenario=s:rc-vs-sc,seed=i:1\n",
      _EXECUTE.format(0, "s:5").encode(), _EXECUTE.format(1, "i:5").encode()], 2),
], ids=["meta-without-scenario", "execute-s-a-string"])
def test_audit_command_reports_a_record_off_its_shape(tmp_path, capsys, lines, lineno):
    """A meta record without its scenario once raised KeyError where audit
    looks the scenario up, and an execute record whose s is a string
    raised TypeError in the replay's sort; now audit exits 2 naming the
    line."""
    path = tmp_path / "bad.trace"
    path.write_bytes(b"".join(lines))
    assert cli.main(["audit", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"trace line {lineno}: ")


def test_every_written_line_parses(tmp_path, mini):
    cfg, trace, _ = mini
    path = tmp_path / "run.trace"
    trace.write(path)
    loaded = read_trace(path)
    assert loaded.records == trace.records
    # the numeric tags appear, so their strict parses are exercised
    kinds = {type(v) for r in trace.records for v in r[6].values()}
    assert kinds >= {int, float, str}, kinds


class _CountingList(list):
    """A list that counts full iterations over it."""
    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_audit_reads_the_trace_once(mini, monkeypatch):
    """AuditView's one pass groups the records by event and keeps the
    agreement log that check_agreement_safety's gap rule walks, and the
    channel log that C2 walks. A conformance schedule's audit groups its
    records in one pass too."""
    cfg, trace, _ = mini
    counted = copy.copy(trace)
    counted.records = _CountingList(trace.records)
    verdicts = audit_trace(counted, cfg)
    assert all(ok for ok, _ in verdicts.values()), verdicts
    assert counted.records.passes == 1

    audited = []
    audit_schedule = conformance.audit_schedule

    def counting_audit(trace, *args):
        trace.records = _CountingList(trace.records)
        audited.append(trace.records)
        return audit_schedule(trace, *args)

    monkeypatch.setattr(conformance, "audit_schedule", counting_audit)
    factory = conformance.make_factory(RcSender, RcReceiver)
    assert conformance.run_schedule(factory, 1, 1, seed=1) == []
    assert [records.passes for records in audited] == [1]
