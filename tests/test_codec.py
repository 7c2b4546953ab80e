"""The canonical encoding, byte for byte: one pinned sample per registered
message class, and the value rules every field goes through."""
import os
import subprocess
import sys
from enum import IntEnum
from pathlib import Path

import pytest

from geobft.core import (
    ClientId,
    CodecError,
    GroupKey,
    Mac,
    ReplicaId,
    Sig,
    canonical_decode,
    canonical_encode,
)
from geobft.core import codec
from geobft.core.messages import (
    AddGroup,
    AdminItem,
    ChCert,
    ChMove,
    ChProgress,
    ChSend,
    ChShare,
    ChannelId,
    Checkpoint,
    CpAnnounce,
    CpQuery,
    CpState,
    Envelope,
    Execute,
    FullReq,
    ObCommit,
    ObFetch,
    ObNewView,
    ObPrePrepare,
    ObPrepare,
    ObSeqInfo,
    ObViewChange,
    OracleAssign,
    OracleSubmit,
    Placeholder,
    PreparedProof,
    ReadWeak,
    RegistryInfo,
    RegistryQuery,
    RemoveGroup,
    Request,
    Result,
    VcRecord,
    Write,
)
from tests.conftest import rebuilt


def _samples() -> dict:
    """code -> one instance of the class registered under it."""
    client, admin = ClientId(7), ClientId(0)
    members = (ReplicaId("ex", 5, 0), ReplicaId("ex", 5, 1))
    chan = ChannelId("commit", 2)
    digest = bytes(range(16))
    sig = Sig(ReplicaId("ex", 1, 0), digest)
    sig2 = Sig(ReplicaId("ag", 0, 12), b"\xff" * 16)
    write = Write(b"put k v", client, 5, True)
    full = FullReq(write, sig, 2)
    placeholder = Placeholder(client, 6)
    request = Request(write, sig, 1)
    admin_item = AdminItem("add", 5, "T", members, admin, 1, 1, True, "added")
    batch = (request, Request(RemoveGroup(5, admin, 2), sig2, 2))
    proof = PreparedProof(2, 9, batch, sig, (sig, sig2))
    view_change = ObViewChange(3, 8, (proof,))
    move = ChMove(chan, 1, 4, 2, None)
    samples = [
        GroupKey("ex", 1),
        sig,
        Mac(client, GroupKey("ex", 1), digest),
        ReplicaId("ag", 0, 2),
        client,
        chan,
        write,
        ReadWeak(b"get k", client, 9),
        Result(client, 5, b"ok", False, True),
        AddGroup(5, "T", members, admin, 1),
        RemoveGroup(5, admin, 2),
        request,
        full,
        placeholder,
        admin_item,
        Execute(4, (full, placeholder, admin_item)),
        ChSend(chan, 0, 3, Execute(4, (full, placeholder))),
        move,
        ChShare(chan, 0, 3, digest),
        ChCert(chan, 0, 3, b"payload", (sig, sig2)),
        ChProgress(chan, ((0, 3), (1, 0))),
        Checkpoint("ex", 1, 8, digest),
        CpAnnounce("ag", 0, 8),
        CpQuery("ex", 4),
        CpState("ex", 1, 8, b"state", (sig,)),
        ObPrePrepare(2, 9, batch),
        ObPrepare(2, 9, digest),
        ObCommit(2, 9, digest),
        proof,
        view_change,
        ObNewView(3, (VcRecord(view_change, sig),), ((9, batch),)),
        VcRecord(view_change, sig2),
        ObFetch(3, 7),
        ObSeqInfo(2, 9, batch, (sig, sig2)),
        OracleSubmit(request),
        OracleAssign(9, batch),
        RegistryQuery(11),
        RegistryInfo(11, 2, ((1, "V", members), (5, "T", ()))),
        Envelope(move, (sig, Mac(client, GroupKey("ag", 0), digest))),
    ]
    codes = {cls: code for code, cls in codec._code_type.items()}
    return {codes[type(s)]: s for s in samples}


# The canonical bytes of each sample, hex, as the codec wrote them before
# its per-class field getters; an encoder change must leave them as they are.
# An ordering batch holds Requests only (its annotation), so the samples
# that carry one (codes 50, 53-56, 58 and 60) were re-taken with a batch of
# two Requests when that rule came, by the same encoder.
GOLDEN = {
    1: (  # GroupKey
        "07000105000000026578030000000000000001"),
    2: (  # Sig
        "07000207000a0500000002657803000000000000000103000000000000000004"
        "00000010000102030405060708090a0b0c0d0e0f"),
    3: (  # Mac
        "07000307000b0300000000000000070700010500000002657803000000000000"
        "00010400000010000102030405060708090a0b0c0d0e0f"),
    10: (  # ReplicaId
        "07000a05000000026167030000000000000000030000000000000002"),
    11: (  # ClientId
        "07000b030000000000000007"),
    12: (  # ChannelId
        "07000c0500000006636f6d6d6974030000000000000002"),
    20: (  # Write
        "0700140400000007707574206b207607000b0300000000000000070300000000"
        "0000000502"),
    21: (  # ReadWeak
        "0700150400000005676574206b07000b03000000000000000703000000000000"
        "0009"),
    22: (  # Result
        "07001607000b03000000000000000703000000000000000504000000026f6b01"
        "02"),
    23: (  # AddGroup
        "070017030000000000000005050000000154060000000207000a050000000265"
        "7803000000000000000503000000000000000007000a05000000026578030000"
        "00000000000503000000000000000107000b0300000000000000000300000000"
        "00000001"),
    24: (  # RemoveGroup
        "07001803000000000000000507000b0300000000000000000300000000000000"
        "02"),
    25: (  # Request
        "0700190700140400000007707574206b207607000b0300000000000000070300"
        "000000000000050207000207000a050000000265780300000000000000010300"
        "000000000000000400000010000102030405060708090a0b0c0d0e0f03000000"
        "0000000001"),
    26: (  # FullReq
        "07001a0700140400000007707574206b207607000b0300000000000000070300"
        "000000000000050207000207000a050000000265780300000000000000010300"
        "000000000000000400000010000102030405060708090a0b0c0d0e0f03000000"
        "0000000002"),
    27: (  # Placeholder
        "07001b07000b030000000000000007030000000000000006"),
    28: (  # AdminItem
        "07001c0500000003616464030000000000000005050000000154060000000207"
        "000a0500000002657803000000000000000503000000000000000007000a0500"
        "000002657803000000000000000503000000000000000107000b030000000000"
        "0000000300000000000000010300000000000000010205000000056164646564"),
    29: (  # Execute
        "07001d030000000000000004060000000307001a070014040000000770757420"
        "6b207607000b0300000000000000070300000000000000050207000207000a05"
        "0000000265780300000000000000010300000000000000000400000010000102"
        "030405060708090a0b0c0d0e0f03000000000000000207001b07000b03000000"
        "000000000703000000000000000607001c050000000361646403000000000000"
        "0005050000000154060000000207000a05000000026578030000000000000005"
        "03000000000000000007000a0500000002657803000000000000000503000000"
        "000000000107000b030000000000000000030000000000000001030000000000"
        "0000010205000000056164646564"),
    30: (  # ChSend
        "07001e07000c0500000006636f6d6d6974030000000000000002030000000000"
        "00000003000000000000000307001d030000000000000004060000000207001a"
        "0700140400000007707574206b207607000b0300000000000000070300000000"
        "000000050207000207000a050000000265780300000000000000010300000000"
        "000000000400000010000102030405060708090a0b0c0d0e0f03000000000000"
        "000207001b07000b030000000000000007030000000000000006"),
    31: (  # ChMove
        "07001f07000c0500000006636f6d6d6974030000000000000002030000000000"
        "00000103000000000000000403000000000000000200"),
    32: (  # ChShare
        "07002007000c0500000006636f6d6d6974030000000000000002030000000000"
        "0000000300000000000000030400000010000102030405060708090a0b0c0d0e"
        "0f"),
    33: (  # ChCert
        "07002107000c0500000006636f6d6d6974030000000000000002030000000000"
        "00000003000000000000000304000000077061796c6f61640600000002070002"
        "07000a0500000002657803000000000000000103000000000000000004000000"
        "10000102030405060708090a0b0c0d0e0f07000207000a050000000261670300"
        "0000000000000003000000000000000c0400000010ffffffffffffffffffffff"
        "ffffffffff"),
    34: (  # ChProgress
        "07002207000c0500000006636f6d6d6974030000000000000002060000000206"
        "0000000203000000000000000003000000000000000306000000020300000000"
        "00000001030000000000000000"),
    40: (  # Checkpoint
        "0700280500000002657803000000000000000103000000000000000804000000"
        "10000102030405060708090a0b0c0d0e0f"),
    41: (  # CpAnnounce
        "07002905000000026167030000000000000000030000000000000008"),
    42: (  # CpQuery
        "07002a05000000026578030000000000000004"),
    43: (  # CpState
        "07002b0500000002657803000000000000000103000000000000000804000000"
        "057374617465060000000107000207000a050000000265780300000000000000"
        "010300000000000000000400000010000102030405060708090a0b0c0d0e0f"),
    50: (  # ObPrePrepare
        "0700320300000000000000020300000000000000090600000002070019070014"
        "0400000007707574206b207607000b0300000000000000070300000000000000"
        "050207000207000a050000000265780300000000000000010300000000000000"
        "000400000010000102030405060708090a0b0c0d0e0f03000000000000000107"
        "001907001803000000000000000507000b030000000000000000030000000000"
        "00000207000207000a0500000002616703000000000000000003000000000000"
        "000c0400000010ffffffffffffffffffffffffffffffff030000000000000002"),
    51: (  # ObPrepare
        "0700330300000000000000020300000000000000090400000010000102030405"
        "060708090a0b0c0d0e0f"),
    52: (  # ObCommit
        "0700340300000000000000020300000000000000090400000010000102030405"
        "060708090a0b0c0d0e0f"),
    53: (  # PreparedProof
        "0700350300000000000000020300000000000000090600000002070019070014"
        "0400000007707574206b207607000b0300000000000000070300000000000000"
        "050207000207000a050000000265780300000000000000010300000000000000"
        "000400000010000102030405060708090a0b0c0d0e0f03000000000000000107"
        "001907001803000000000000000507000b030000000000000000030000000000"
        "00000207000207000a0500000002616703000000000000000003000000000000"
        "000c0400000010ffffffffffffffffffffffffffffffff030000000000000002"
        "07000207000a0500000002657803000000000000000103000000000000000004"
        "00000010000102030405060708090a0b0c0d0e0f060000000207000207000a05"
        "0000000265780300000000000000010300000000000000000400000010000102"
        "030405060708090a0b0c0d0e0f07000207000a05000000026167030000000000"
        "00000003000000000000000c0400000010ffffffffffffffffffffffffffffff"
        "ff"),
    54: (  # ObViewChange
        "0700360300000000000000030300000000000000080600000001070035030000"
        "0000000000020300000000000000090600000002070019070014040000000770"
        "7574206b207607000b0300000000000000070300000000000000050207000207"
        "000a050000000265780300000000000000010300000000000000000400000010"
        "000102030405060708090a0b0c0d0e0f03000000000000000107001907001803"
        "000000000000000507000b030000000000000000030000000000000002070002"
        "07000a0500000002616703000000000000000003000000000000000c04000000"
        "10ffffffffffffffffffffffffffffffff03000000000000000207000207000a"
        "0500000002657803000000000000000103000000000000000004000000100001"
        "02030405060708090a0b0c0d0e0f060000000207000207000a05000000026578"
        "0300000000000000010300000000000000000400000010000102030405060708"
        "090a0b0c0d0e0f07000207000a05000000026167030000000000000000030000"
        "00000000000c0400000010ffffffffffffffffffffffffffffffff"),
    55: (  # ObNewView
        "0700370300000000000000030600000001070038070036030000000000000003"
        "0300000000000000080600000001070035030000000000000002030000000000"
        "00000906000000020700190700140400000007707574206b207607000b030000"
        "0000000000070300000000000000050207000207000a05000000026578030000"
        "0000000000010300000000000000000400000010000102030405060708090a0b"
        "0c0d0e0f03000000000000000107001907001803000000000000000507000b03"
        "000000000000000003000000000000000207000207000a050000000261670300"
        "0000000000000003000000000000000c0400000010ffffffffffffffffffffff"
        "ffffffffff03000000000000000207000207000a050000000265780300000000"
        "000000010300000000000000000400000010000102030405060708090a0b0c0d"
        "0e0f060000000207000207000a05000000026578030000000000000001030000"
        "0000000000000400000010000102030405060708090a0b0c0d0e0f0700020700"
        "0a0500000002616703000000000000000003000000000000000c0400000010ff"
        "ffffffffffffffffffffffffffffff07000207000a0500000002657803000000"
        "00000000010300000000000000000400000010000102030405060708090a0b0c"
        "0d0e0f0600000001060000000203000000000000000906000000020700190700"
        "140400000007707574206b207607000b03000000000000000703000000000000"
        "00050207000207000a0500000002657803000000000000000103000000000000"
        "00000400000010000102030405060708090a0b0c0d0e0f030000000000000001"
        "07001907001803000000000000000507000b0300000000000000000300000000"
        "0000000207000207000a05000000026167030000000000000000030000000000"
        "00000c0400000010ffffffffffffffffffffffffffffffff0300000000000000"
        "02"),
    56: (  # VcRecord
        "0700380700360300000000000000030300000000000000080600000001070035"
        "0300000000000000020300000000000000090600000002070019070014040000"
        "0007707574206b207607000b0300000000000000070300000000000000050207"
        "000207000a050000000265780300000000000000010300000000000000000400"
        "000010000102030405060708090a0b0c0d0e0f03000000000000000107001907"
        "001803000000000000000507000b030000000000000000030000000000000002"
        "07000207000a0500000002616703000000000000000003000000000000000c04"
        "00000010ffffffffffffffffffffffffffffffff030000000000000002070002"
        "07000a0500000002657803000000000000000103000000000000000004000000"
        "10000102030405060708090a0b0c0d0e0f060000000207000207000a05000000"
        "0265780300000000000000010300000000000000000400000010000102030405"
        "060708090a0b0c0d0e0f07000207000a05000000026167030000000000000000"
        "03000000000000000c0400000010ffffffffffffffffffffffffffffffff0700"
        "0207000a0500000002616703000000000000000003000000000000000c040000"
        "0010ffffffffffffffffffffffffffffffff"),
    57: (  # ObFetch
        "070039030000000000000003030000000000000007"),
    58: (  # ObSeqInfo
        "07003a0300000000000000020300000000000000090600000002070019070014"
        "0400000007707574206b207607000b0300000000000000070300000000000000"
        "050207000207000a050000000265780300000000000000010300000000000000"
        "000400000010000102030405060708090a0b0c0d0e0f03000000000000000107"
        "001907001803000000000000000507000b030000000000000000030000000000"
        "00000207000207000a0500000002616703000000000000000003000000000000"
        "000c0400000010ffffffffffffffffffffffffffffffff030000000000000002"
        "060000000207000207000a050000000265780300000000000000010300000000"
        "000000000400000010000102030405060708090a0b0c0d0e0f07000207000a05"
        "00000002616703000000000000000003000000000000000c0400000010ffffff"
        "ffffffffffffffffffffffffff"),
    59: (  # OracleSubmit
        "07003b0700190700140400000007707574206b207607000b0300000000000000"
        "070300000000000000050207000207000a050000000265780300000000000000"
        "010300000000000000000400000010000102030405060708090a0b0c0d0e0f03"
        "0000000000000001"),
    60: (  # OracleAssign
        "07003c0300000000000000090600000002070019070014040000000770757420"
        "6b207607000b0300000000000000070300000000000000050207000207000a05"
        "0000000265780300000000000000010300000000000000000400000010000102"
        "030405060708090a0b0c0d0e0f03000000000000000107001907001803000000"
        "000000000507000b03000000000000000003000000000000000207000207000a"
        "0500000002616703000000000000000003000000000000000c0400000010ffff"
        "ffffffffffffffffffffffffffff030000000000000002"),
    70: (  # RegistryQuery
        "07004603000000000000000b"),
    71: (  # RegistryInfo
        "07004703000000000000000b0300000000000000020600000002060000000303"
        "0000000000000001050000000156060000000207000a05000000026578030000"
        "00000000000503000000000000000007000a0500000002657803000000000000"
        "0005030000000000000001060000000303000000000000000505000000015406"
        "00000000"),
    72: (  # Envelope
        "07004807001f07000c0500000006636f6d6d6974030000000000000002030000"
        "0000000000010300000000000000040300000000000000020006000000020700"
        "0207000a05000000026578030000000000000001030000000000000000040000"
        "0010000102030405060708090a0b0c0d0e0f07000307000b0300000000000000"
        "0707000105000000026167030000000000000000040000001000010203040506"
        "0708090a0b0c0d0e0f"),
}


def test_every_registered_code_has_a_pinned_sample():
    samples = _samples()
    assert sorted(samples) == sorted(codec._code_type)
    assert sorted(GOLDEN) == sorted(codec._code_type)


@pytest.mark.parametrize("code", sorted(GOLDEN))
def test_sample_bytes_are_pinned(code):
    sample = _samples()[code]
    fresh = rebuilt(sample)
    assert canonical_encode(fresh).hex() == GOLDEN[code]
    # the stored bytes, spliced into enclosing messages, are the same bytes
    assert canonical_encode(fresh).hex() == GOLDEN[code]
    assert canonical_encode((fresh, fresh)) == canonical_encode((rebuilt(sample),) * 2)
    assert canonical_decode(bytes.fromhex(GOLDEN[code])) == sample


# -- value rules, through message fields --------------------------------------

CHAN = ChannelId("req", 1)


@pytest.mark.parametrize("bad", [-1, 1 << 64, -(1 << 70)])
def test_an_int_field_outside_u64_raises(bad):
    with pytest.raises(CodecError):
        canonical_encode(Write(b"op", ClientId(1), bad))
    with pytest.raises(CodecError):
        canonical_encode(ChProgress(CHAN, ((0, 1), (1, bad))))
    assert canonical_decode(canonical_encode(
        Write(b"op", ClientId(1), (1 << 64) - 1))).t_c == (1 << 64) - 1


def test_a_bool_field_encodes_as_a_bool():
    as_bool = canonical_encode(Write(b"op", ClientId(1), 2, True))
    as_int = canonical_encode(Write(b"op", ClientId(1), 2, 1))
    assert as_bool[-1] == codec._TAG_TRUE
    assert as_bool != as_int
    back = canonical_decode(as_bool).read_only
    assert back is True
    assert canonical_decode(canonical_encode(Write(b"op", ClientId(1), 2))).read_only is False


class _Sub(IntEnum):
    ZERO = 0
    NINE = 9


def test_an_int_enum_field_encodes_as_its_int():
    raw = canonical_encode(ChMove(CHAN, _Sub.NINE, 4, _Sub.ZERO))
    assert raw == canonical_encode(ChMove(CHAN, 9, 4, 0))
    back = canonical_decode(raw)
    assert (back.sc, back.collector) == (9, 0) and type(back.sc) is int


@pytest.mark.parametrize("value", [
    ChMove(CHAN, 0, 1),  # None fields
    AdminItem("remove", 3, "", (), ClientId(0), 4, 2, False, "no | such, group %"),
    ChannelId("réç", 0),
    ChSend(CHAN, 0, 1, ((FullReq(Write(b"x", ClientId(2), 1), Sig(ClientId(2), b"d" * 16), 1),
                         Placeholder(ClientId(3), 1)), (), (Placeholder(ClientId(4), 2),))),
    ObNewView(1, (), ((5, (Request(Write(b"x", ClientId(1), 1), Sig(ClientId(1), b"d" * 16), 1),)),
                      (6, ()))),
    ChSend(CHAN, 0, 1, (None, "s", b"b", (1, (True, False)))),
])
def test_none_str_and_nested_message_fields_round_trip(value):
    raw = canonical_encode(rebuilt(value))
    back = canonical_decode(raw)
    assert back == value
    assert canonical_encode(back) == raw


def test_an_unregistered_field_value_raises():
    for payload in (1.5, {"k": 1}, object()):
        with pytest.raises(CodecError):
            canonical_encode(ChSend(CHAN, 0, 1, payload))
        with pytest.raises(CodecError):
            canonical_encode(payload)


# -- node ids and first-use compiles ------------------------------------------

_IMPORT_SCRIPT = (
    "import geobft.runtime, geobft.audit\n"
    "from geobft.core import codec\n"
    "print(sorted(cls.__name__ for cls in codec._layout\n"
    "             if cls.__dict__['_shape_check'] is not codec._compile_shape_check))\n"
)


def test_import_compiles_no_shape_check():
    """Each class compiles its shape check at first use, so importing the
    program (perfbench's setup_s) compiles none."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[]"]


def test_a_plain_tuple_is_not_a_node_id():
    """A node id is a tuple of its fields, but the codec and the shape rule
    test exact types: the plain tuple of the same fields encodes as a
    sequence and fails where a node id is annotated."""
    nid, plain = ReplicaId("ex", 1, 0), ("ex", 1, 0)
    assert canonical_encode(plain) != canonical_encode(nid)
    as_id, as_plain = Sig(nid, b"d" * 16), Sig(plain, b"d" * 16)
    assert codec.well_formed(as_id) and not codec.well_formed(as_plain)
    assert canonical_encode(as_plain) != canonical_encode(as_id)
    with pytest.raises(CodecError):
        canonical_decode(canonical_encode(as_plain))
    assert not codec.well_formed(Write(b"op", (7,), 1))
