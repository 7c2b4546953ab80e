"""The one shape rule: registered field annotations, checked by
codec.well_formed where an envelope is received and where a message is
decoded, so no handler sees a field of another type."""
import dataclasses
import typing

import pytest

from geobft.core import CodecError, canonical_decode, canonical_encode, codec
from geobft.core.messages import (
    ChCert,
    ChMove,
    ChProgress,
    ChSend,
    ChShare,
    Checkpoint,
    CpAnnounce,
    CpQuery,
    CpState,
    Envelope,
    ObCommit,
    ObFetch,
    ObNewView,
    ObPrePrepare,
    ObPrepare,
    ObSeqInfo,
    ObViewChange,
    OracleAssign,
    OracleSubmit,
    VcRecord,
)

from tests.conftest import Channel
from tests.test_checkpoint import build_group as build_cp_group
from tests.test_ordering import build_group, make_request

BAD_VALUES = [b"x", None, (b"x",)]
DIGEST = b"d" * 16


def _fits(hint, value) -> bool:
    """The probe value is one the annotation allows: bytes where bytes or
    object is declared, None where Optional or object is, and a tuple of
    bytes only where object is."""
    if hint is object:
        return True
    if value is None:
        return type(None) in typing.get_args(hint)
    return hint is bytes and value == b"x"


def probes(base, value) -> list:
    """base with one field at a time set to value, wherever value does not
    fit that field's annotation."""
    hints = typing.get_type_hints(type(base))
    out = [dataclasses.replace(base, **{f.name: value})
           for f in dataclasses.fields(base) if not _fits(hints[f.name], value)]
    assert out, f"no field of {type(base).__name__} refuses {value!r}"
    return out


# -- rigs: (sim, receiving node, sender id, the state a probe must not change) --

def _ordering_rig():
    sim, hosts, provider, client = build_group()
    host, src = hosts[0], hosts[1].nid  # hosts[1] leads view 1
    return sim, host, src, provider, lambda: repr(vars(host.ordering))


def _ordering_bases(provider, client):
    req = make_request(provider, client, 1)
    batch = (req,)
    vc = ObViewChange(1, 0, ())
    sig = provider.sign(req.inner.client, vc)
    return {
        ObPrePrepare: ObPrePrepare(0, 1, batch),
        ObPrepare: ObPrepare(0, 1, DIGEST),
        ObCommit: ObCommit(0, 1, DIGEST),
        ObViewChange: vc,
        ObNewView: ObNewView(1, (VcRecord(vc, sig),), ()),
        ObFetch: ObFetch(1, 3),
        ObSeqInfo: ObSeqInfo(0, 1, batch, (sig,)),
        OracleSubmit: OracleSubmit(req),
        OracleAssign: OracleAssign(1, batch),
    }


def _checkpoint_rig():
    sim, hosts = build_cp_group()
    host = hosts[0]
    return sim, host, hosts[1].nid, host.crypto.provider, lambda: repr(vars(host.cp))


def _checkpoint_bases(sig):
    return {
        Checkpoint: Checkpoint("ex", 1, 10, DIGEST),
        CpAnnounce: CpAnnounce("ex", 1, 10),
        CpQuery: CpQuery("ex", 10),
        CpState: CpState("ex", 1, 10, b"ten", (sig,)),
    }


def _channel_rig(variant, kind):
    ch = Channel(variant)
    if kind is ChShare:  # sender-group traffic
        node, src = ch.nodes[ch.senders[0]], ch.senders[1]
    else:
        node, src = ch.nodes[ch.receivers[0]], ch.senders[0]
    return ch.sim, node, src, ch.provider, lambda: repr(vars(node.endpoint))


def _channel_bases(chan, sig):
    return {
        ChSend: ChSend(chan, 0, 1, b"m"),
        ChMove: ChMove(chan, 0, 2, 1, 1),
        ChShare: ChShare(chan, 0, 1, DIGEST),
        ChCert: ChCert(chan, 0, 1, b"m", (sig,)),
        ChProgress: ChProgress(chan, ((0, 1),)),
    }


def _deliver(sim, node, src, provider, msg):
    """Hand node a signed envelope of msg from src; the auth_reject records it left."""
    n = len(sim.trace.records)
    node.handle_envelope(src, Envelope(msg, (provider.sign(src, msg),)))
    return [r for r in sim.trace.records[n:] if r[1] == "auth_reject"]


def _assert_refused(make_rig, base, value):
    for probe in probes(base, value):
        sim, node, src, provider, state = make_rig()
        before = (state(), len(sim._heap), sim.counters.msgs)
        rejects = _deliver(sim, node, src, provider, probe)
        assert [r[4] for r in rejects] == [type(probe).__name__], probe
        assert (state(), len(sim._heap), sim.counters.msgs) == before, probe
        with pytest.raises(CodecError):
            canonical_decode(canonical_encode(probe))
    # the base message itself is admitted: the rig refuses only the probes
    sim, node, src, provider, _ = make_rig()
    assert _deliver(sim, node, src, provider, base) == []
    assert canonical_decode(canonical_encode(base)) == base


ORDERING_TYPES = [ObPrePrepare, ObPrepare, ObCommit, ObViewChange, ObNewView,
                  ObFetch, ObSeqInfo, OracleSubmit, OracleAssign]


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("kind", ORDERING_TYPES, ids=lambda k: k.__name__)
def test_ordering_message_of_another_shape_is_refused(kind, value):
    _, hosts, provider, client = build_group()
    _assert_refused(_ordering_rig, _ordering_bases(provider, client)[kind], value)


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("kind", [Checkpoint, CpAnnounce, CpQuery, CpState],
                         ids=lambda k: k.__name__)
def test_checkpoint_message_of_another_shape_is_refused(kind, value):
    _, _, src, provider, _ = _checkpoint_rig()
    sig = provider.sign(src, Checkpoint("ex", 1, 10, DIGEST))
    _assert_refused(_checkpoint_rig, _checkpoint_bases(sig)[kind], value)


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("kind", [ChSend, ChMove, ChShare, ChCert, ChProgress],
                         ids=lambda k: k.__name__)
@pytest.mark.parametrize("variant", ["rc", "sc"])
def test_channel_message_of_another_shape_is_refused(variant, kind, value):
    ch = Channel(variant)
    sig = ch.provider.sign(ch.senders[0], ChShare(ch.cfg.channel, 0, 1, DIGEST))
    base = _channel_bases(ch.cfg.channel, sig)[kind]
    _assert_refused(lambda: _channel_rig(variant, kind), base, value)


def test_an_authenticator_of_another_shape_is_refused():
    sim, node, src, provider, state = _ordering_rig()
    msg = ObFetch(1, 3)
    for auth in ((b"x",), (None,), (msg,), ((provider.sign(src, msg),),)):
        n = len(sim.trace.records)
        node.handle_envelope(src, Envelope(msg, auth))
        assert [r[1] for r in sim.trace.records[n:]] == ["auth_reject"]


def _bare_tuples(hint) -> list:
    if hint is tuple:
        return [hint]
    return [t for arg in typing.get_args(hint) for t in _bare_tuples(arg)]


@pytest.mark.parametrize("cls", sorted(codec._code_type.values(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_field_annotation_resolves_to_a_shape(cls):
    """Each registered message's annotations resolve, name no bare tuple and
    have a shape rule; an unknown annotation raises when the rule is built."""
    hints = typing.get_type_hints(cls)
    assert [f.name for f in dataclasses.fields(cls)] == list(codec._type_fields[cls])
    for name in codec._type_fields[cls]:
        assert _bare_tuples(hints[name]) == [], f"{cls.__name__}.{name}"
    codec._shape(cls)


def test_an_annotation_without_a_shape_rule_raises():
    for hint in (tuple, list, float, dict[str, int]):
        with pytest.raises(CodecError):
            codec._emit("x", hint, {}, [], 1)
